import itertools
import random

import pytest

import naive_oracles as nv
from repsens import (
    CapabilityError,
    Factorization,
    InputError,
    Phrase,
    SymbolString,
    check_factorization,
    format_factorization,
    lz77_nonoverlapping,
    lz77_overlapping,
    lz78,
    lz_end_greedy,
    lz_end_optimal,
    lzss_nonoverlapping,
    lzss_overlapping,
    parse_factorization,
    verify_factorization,
)

ALL_PARSERS = (
    lzss_overlapping,
    lzss_nonoverlapping,
    lz77_overlapping,
    lz77_nonoverlapping,
    lz_end_greedy,
    lz78,
)


def t(s):
    return SymbolString.from_text(s)


def lengths(F):
    return [p.length for p in F.phrases]


def phrases0(F):
    """(length, 0-based source) per phrase, None for a literal."""
    return [(p.length, None if p.source is None else p.source - 1) for p in F.phrases]


def test_lzss_overlapping_examples():
    assert lzss_overlapping(t("baaabbaaa")).size == 5
    assert lengths(lzss_overlapping(t("baaabbaaa"))) == [1, 1, 2, 1, 4]
    assert lzss_overlapping(SymbolString([0])).size == 1
    assert lzss_overlapping(t("aaaa")).size == 2


def test_lzss_nonoverlapping_examples():
    assert lzss_nonoverlapping(t("baaabbaaa")).size == 6
    assert lzss_nonoverlapping(t("aaaa")).size == 3
    assert lzss_nonoverlapping(SymbolString([0])).size == 1


def test_lz77_examples():
    assert lz77_overlapping(t("aaaa")).size == 2
    F = lz77_overlapping(SymbolString([0, 1]))
    assert F.size == 2 and all(p.kind == "literal" for p in F.phrases)
    assert lz77_nonoverlapping(t("abab")).size == 3


def test_lzend_greedy_examples():
    assert lz_end_greedy(t("ababab")).size == 4
    assert lz_end_greedy(SymbolString([0])).size == 1


def test_lz78_examples():
    assert lz78(t("aaaa")).size == 3
    assert lengths(lz78(t("aaaa"))) == [1, 2, 1]


def test_empty_input_rejected():
    for fn in ALL_PARSERS:
        with pytest.raises(InputError):
            fn(SymbolString())


def test_verify_self_consistency_random():
    rng = random.Random(11)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        for fn in ALL_PARSERS:
            F = fn(T)
            reason = check_factorization(T, F)
            assert reason is None, (T.symbols, fn.__name__, reason)


def test_verify_rejects_broken_copy():
    T = t("ab")
    F = Factorization((Phrase(1, 2, "copy", 5),), "lzss_overlap")
    assert not verify_factorization(T, F)


def test_verify_rejects_overlap_reinterpreted_as_nonoverlap():
    T = t("aaaa")
    F = Factorization(lzss_overlapping(T).phrases, "lzss_nonoverlap")
    assert not verify_factorization(T, F)


def test_verify_rejects_bad_tiling_and_literals():
    T = t("aa")
    gap = Factorization((Phrase(1, 1, "literal"),), "lzss_overlap")
    assert not verify_factorization(T, gap)
    stale = Factorization((Phrase(1, 1, "literal"), Phrase(2, 1, "literal")), "lzend")
    assert not verify_factorization(T, stale)  # second literal repeats a symbol


def test_parsers_match_naive_references():
    rng = random.Random(5)
    for trial in range(800):
        n = rng.randint(1, 96)
        sigma = (2, 4, 16)[trial % 3]
        syms = tuple(rng.randrange(sigma) for _ in range(n))
        T = SymbolString(syms)
        # copies point at the leftmost admissible occurrence
        assert phrases0(lzss_overlapping(T)) == nv.naive_lzss_phrases(syms, True)
        assert phrases0(lzss_nonoverlapping(T)) == nv.naive_lzss_phrases(syms, False)
        assert phrases0(lz77_overlapping(T)) == nv.naive_lz77_phrases(syms, True)
        assert phrases0(lz77_nonoverlapping(T)) == nv.naive_lz77_phrases(syms, False)
        assert lengths(lz_end_greedy(T)) == nv.naive_lzend_lengths(syms)
        assert lengths(lz78(T)) == nv.naive_lz78_lengths(syms)


def test_greedy_phrases_cannot_extend():
    # extending any copy phrase by one symbol breaks its source constraint
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(2, 48)
        syms = tuple(rng.randrange(2) for _ in range(n))
        for overlap, parser in ((True, lzss_overlapping), (False, lzss_nonoverlapping)):
            F = parser(SymbolString(syms))
            for ph in F.phrases:
                if ph.end == n:
                    continue
                pos0 = ph.start - 1
                assert nv.naive_longest_match(syms, pos0, overlap) <= ph.length


def test_lzend_optimal_never_beaten_by_greedy():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 20)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        opt = lz_end_optimal(T)
        assert verify_factorization(T, opt)
        assert opt.size <= lz_end_greedy(T).size


def test_lzend_optimal_regression_fixture():
    # smallest binary strings where the greedy parsing is suboptimal have
    # length 8; found by exhaustive scan of all shorter strings
    T = SymbolString((0, 0, 1, 0, 0, 0, 1, 0))
    assert lz_end_greedy(T).size == 6
    opt = lz_end_optimal(T)
    assert opt.size == 5
    assert verify_factorization(T, opt)
    for n in range(1, 8):
        for bits in itertools.product((0, 1), repeat=n - 1):
            S = SymbolString((0,) + bits)
            assert lz_end_optimal(S).size == lz_end_greedy(S).size


def test_lzend_optimal_matches_plain_backtracking():
    for n in range(1, 10):
        for bits in itertools.product((0, 1), repeat=n - 1):
            syms = (0,) + bits
            assert lz_end_optimal(SymbolString(syms)).size == nv.naive_lzend_optimal_size(syms)


def test_lzend_optimal_capability_limit():
    with pytest.raises(CapabilityError):
        lz_end_optimal(SymbolString([0] * 25))
    assert lz_end_optimal(SymbolString([0] * 25), limit=30).size >= 1


def test_hierarchy_small_exhaustive():
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            a = lzss_overlapping(T).size
            b = lzss_nonoverlapping(T).size
            c = lz_end_optimal(T).size
            d = lz_end_greedy(T).size
            assert a <= b <= c <= d, T.symbols


def test_serialization_round_trip():
    for s in ("baaabbaaa", "aaaa", "abcabc"):
        T = t(s)
        for fn in ALL_PARSERS:
            F = fn(T)
            text = format_factorization(F, len(T))
            G, n = parse_factorization(text)
            assert G == F and n == len(T)
            assert format_factorization(G, n) == text


def test_parse_factorization_rejects_garbage():
    with pytest.raises(InputError):
        parse_factorization("")
    with pytest.raises(InputError):
        parse_factorization("lz78 4\n")
    with pytest.raises(InputError):
        parse_factorization("nope 4 1\n1 1 4 copy 0\n")
