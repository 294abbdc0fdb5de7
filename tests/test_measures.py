import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import naive_oracles as nv
from repsens import (
    CapabilityError,
    Factorization,
    InputError,
    Phrase,
    SymbolString,
    apply_edit,
    bms_check,
    bms_is_valid,
    check_factorization,
    delta,
    distinct_substrings,
    enumerate_edits,
    format_factorization,
    is_attractor,
    lz77_nonoverlapping,
    lz77_overlapping,
    lz78,
    lz78_witness,
    lz_end_optimal,
    lz_witness,
    lzss_nonoverlapping,
    lzss_overlapping,
    smallest_attractor,
    smallest_bms,
)
import repsens.core
from repsens.factorizers import FACTORIZERS
from repsens.measures import as_bms, format_attractor, parse_attractor


def t(s):
    return SymbolString.from_text(s)


def test_delta_examples():
    assert delta(SymbolString([0, 0, 0, 0])) == 1
    assert delta(SymbolString([0, 1, 0, 1])) == 2
    assert delta(SymbolString([0, 1, 2])) == 3
    with pytest.raises(InputError):
        delta(SymbolString())


def test_delta_is_exact_rational():
    value = delta(t("aabab"))
    assert isinstance(value, Fraction)
    assert value == nv.naive_delta(tuple(t("aabab").symbols))


def test_delta_matches_naive_random():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 40)
        syms = tuple(rng.randrange(3) for _ in range(n))
        assert delta(SymbolString(syms)) == nv.naive_delta(syms)


def test_delta_edit_growth_capped_small():
    # one edit never raises the substring complexity by more than 1
    for n in range(2, 11):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            base = delta(T)
            for e in enumerate_edits(T, {0, 1, 2}):
                assert delta(apply_edit(T, e)) - base <= 1


def test_attractor_running_example():
    T = t("baaaabbaaa")
    assert is_attractor(T, {5, 7})
    assert len(smallest_attractor(T)) == 2


def test_attractor_examples():
    assert not is_attractor(t("ab"), {1})
    assert is_attractor(t("abab"), {2, 3})
    assert len(smallest_attractor(t("abab"))) == 2
    assert smallest_attractor(SymbolString([0])) == frozenset({1})


def test_all_positions_always_attract():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 24)
        T = SymbolString(rng.randrange(3) for _ in range(n))
        assert is_attractor(T, range(1, n + 1))


def test_attractor_position_bounds():
    with pytest.raises(InputError):
        is_attractor(t("ab"), {0})
    with pytest.raises(InputError):
        is_attractor(t("ab"), {3})


def test_is_attractor_matches_naive_exhaustive():
    # every position subset of every binary text up to length 8 and of every
    # ternary text up to length 5
    for sigma, nmax in ((2, 8), (3, 5)):
        for n in range(1, nmax + 1):
            for syms in itertools.product(range(sigma), repeat=n):
                T = SymbolString(syms)
                for r in range(n + 1):
                    for combo in itertools.combinations(range(1, n + 1), r):
                        assert is_attractor(T, combo) == nv.naive_is_attractor(syms, combo), (
                            syms,
                            combo,
                        )


def fibonacci_word(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return SymbolString(b[:n])


def test_is_attractor_long_texts():
    # phrase ends of a left-to-right parse always attract; the positions of
    # the 0s miss the substring "1"
    rng = random.Random(43)
    for T in (SymbolString(rng.randrange(2) for _ in range(2000)), fibonacci_word(2000)):
        ends = {ph.end for ph in lzss_overlapping(T).phrases}
        assert is_attractor(T, ends)
        zeros = {i for i, s in enumerate(T.symbols, 1) if s == 0}
        assert not is_attractor(T, zeros)


# sha256 over the sorted smallest_attractor positions of every binary text of
# length 1..10 and every ternary text of length 1..6: pins the sets the exact
# search returns, not only their sizes
SMALLEST_ATTRACTOR_DIGEST = "4ed6bd3fda0cbb4e7a4da5824657a87432250f52f844a71e9264d707edc6dd7f"


def test_smallest_attractor_outputs_pinned():
    h = hashlib.sha256()
    for sigma, nmax in ((2, 10), (3, 6)):
        for n in range(1, nmax + 1):
            for syms in itertools.product(range(sigma), repeat=n):
                got = sorted(smallest_attractor(SymbolString(syms)))
                line = f"{sigma}:{' '.join(map(str, syms))}:{' '.join(map(str, got))}\n"
                h.update(line.encode())
    assert h.hexdigest() == SMALLEST_ATTRACTOR_DIGEST


# sha256 over format_factorization (sources included) of lz_end_optimal and
# smallest_bms on every binary text of length 1..10 and every ternary text of
# length 1..6, recorded with the str.find substring index that the automaton
# end masks replaced: pins the parses the exact referees return
REFEREE_DIGEST = "54dc8a744449be676779e85530263cd6527ad0e854e91b60ff64482b449ec160"


def test_exact_referee_outputs_pinned():
    # the digest text prints a literal's source None as 0, so each parse is
    # also checked: a literal carrying a source fails its checker
    h = hashlib.sha256()
    for sigma, nmax in ((2, 10), (3, 6)):
        for n in range(1, nmax + 1):
            for syms in itertools.product(range(sigma), repeat=n):
                T = SymbolString(syms)
                for fn, check in ((lz_end_optimal, check_factorization), (smallest_bms, bms_check)):
                    F = fn(T)
                    assert check(T, F) is None, (syms, fn.__name__)
                    h.update(format_factorization(F, n).encode())
    assert h.hexdigest() == REFEREE_DIGEST


def test_smallest_attractor_is_minimal():
    # output passes the check and no smaller set does
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            got = smallest_attractor(T)
            assert is_attractor(T, got)
            size = len(got)
            if size > 1:
                assert all(
                    not is_attractor(T, set(combo))
                    for combo in itertools.combinations(range(1, n + 1), size - 1)
                )


def test_smallest_attractor_matches_naive():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n - 1):
            syms = (0,) + bits
            assert len(smallest_attractor(SymbolString(syms))) == nv.naive_smallest_attractor_size(syms)


def test_smallest_attractor_capability():
    with pytest.raises(CapabilityError):
        smallest_attractor(SymbolString([0] * 21))


def test_bms_validity_examples():
    T = t("abab")
    good = Factorization(
        (Phrase(1, 1, "literal"), Phrase(2, 1, "literal"), Phrase(3, 2, "copy", 1)), "bms"
    )
    assert bms_is_valid(T, good)
    swapped = Factorization((Phrase(1, 2, "copy", 3), Phrase(3, 2, "copy", 1)), "bms")
    assert bms_check(T, swapped) == "cycle"
    grounds = Factorization(tuple(Phrase(i, 1, "literal") for i in range(1, 5)), "bms")
    assert bms_is_valid(T, grounds)


def test_bms_check_reports_mismatch():
    T = t("abab")
    wrong = Factorization((Phrase(1, 2, "copy", 2), Phrase(3, 2, "copy", 1)), "bms")
    reason = bms_check(T, wrong)
    assert reason is not None and reason.startswith("mismatch")


def test_smallest_bms_examples():
    assert smallest_bms(t("abab")).size == 3
    assert smallest_bms(SymbolString([0])).size == 1
    # every two-phrase scheme of abab is invalid
    T = t("abab")
    hay = T.symbols
    for cut in range(1, 4):
        left, right = hay[:cut], hay[cut:]
        for q1 in range(1, 5):
            for q2 in range(1, 5):
                phrases = []
                phrases.append(
                    Phrase(1, cut, "literal")
                    if cut == 1
                    else Phrase(1, cut, "copy", q1)
                )
                phrases.append(
                    Phrase(cut + 1, 4 - cut, "literal")
                    if 4 - cut == 1
                    else Phrase(cut + 1, 4 - cut, "copy", q2)
                )
                assert not bms_is_valid(T, Factorization(tuple(phrases), "bms"))


def test_smallest_bms_matches_naive():
    for n in range(1, 12):
        for bits in itertools.product((0, 1), repeat=n - 1):
            syms = (0,) + bits
            assert smallest_bms(SymbolString(syms)).size == nv.naive_smallest_bms_size(syms)


def test_smallest_bms_validity_and_parsing_bound():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 12)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        scheme = smallest_bms(T)
        assert bms_is_valid(T, scheme)
        assert scheme.size <= lzss_nonoverlapping(T).size
        assert scheme.size >= len(smallest_attractor(T))


def test_smallest_bms_capability():
    with pytest.raises(CapabilityError):
        smallest_bms(SymbolString([0] * 17))


@pytest.mark.parametrize("search", [lz_end_optimal, smallest_bms])
def test_exact_search_builds_one_automaton(monkeypatch, search):
    # builds are counted where they happen, at the cache misses in core; the
    # search builds T's automaton, and every other reader of T reuses it or,
    # as the greedy LZSS/LZ77 parses do, reads T's string instead
    builds = []

    def counted(symbols):
        builds.append(symbols)
        return new(symbols)

    new = repsens.core._sa_new
    monkeypatch.setattr(repsens.core, "_sa_new", counted)
    monkeypatch.setattr(repsens.core, "_cache", (None, None))
    rng = random.Random(89)
    texts = [t("abaababaab"), t("aaaaaaaa"), t("abcabcab"), SymbolString([0])]
    texts += [SymbolString(rng.randrange(3) for _ in range(rng.randint(1, 12))) for _ in range(20)]
    readers = [FACTORIZERS[name][0] for name in FACTORIZERS if name != "lz78"]
    readers += [delta, lambda T: distinct_substrings(T, 1), lambda T: is_attractor(T, [1])]
    assert len(readers) == 9
    for T in texts:
        builds.clear()
        search(T)
        assert builds == [T.symbols], T
        for read in readers:
            read(T)
        assert builds == [T.symbols], T


def test_as_bms_reinterprets_parsings():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 32)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        assert bms_is_valid(T, as_bms(lzss_nonoverlapping(T)))


def test_as_bms_splits_copylit_phrases():
    # lz77 and lz78 parses end their phrases with a new symbol: as_bms makes
    # that symbol ground and keeps the rest as a copy, or grounds it too
    rng = random.Random(113)
    texts = [lz78_witness(p).base for p in (1, 3, 6)] + [lz_witness(p).base for p in (2, 3)]
    for _ in range(100):
        n, sigma = rng.randint(1, 40), rng.randint(1, 4)
        texts.append(SymbolString(rng.randrange(sigma) for _ in range(n)))
    lengths = set()
    for T in texts:
        for F in (lz77_overlapping(T), lz77_nonoverlapping(T), lz78(T)):
            copylits = [ph.length for ph in F.phrases if ph.kind == "copylit"]
            S = as_bms(F)
            assert bms_is_valid(T, S), (T.symbols, F.flavor)
            assert S.size == F.size + len(copylits)
            lengths.update(copylits)
    assert 2 in lengths and max(lengths) > 2, lengths


def test_attractor_serialization():
    got = parse_attractor("7 5")
    assert got == frozenset({5, 7})
    assert format_attractor(got) == "5 7"
