import hashlib
import itertools
import random
import tracemalloc

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
    lz_witness,
    parse_factorization,
    verify_factorization,
)
import repsens.core
from repsens.factorizers import FACTORIZERS, _PACK_FLOOR, _greedy_walk, _match_states, _packed
from repsens.measures import _other_starts

# every factorizer with a parse loop: all but the exact LZ-End search
ALL_PARSERS = tuple(fn for fn, loop in FACTORIZERS.values() if loop)


def t(s):
    return SymbolString.from_text(s)


def lengths(F):
    return [p.length for p in F.phrases]


def fibonacci(n):
    """The first n symbols of the Fibonacci word over {0, 1}, as a tuple."""
    a, b = (0,), (0, 1)
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


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


@pytest.mark.parametrize("flavor", ["lzend", "bms"])
def test_check_rejects_copylit_by_kind(flavor):
    # neither flavor uses match-plus-symbol phrases; the kind check answers
    # before any per-flavor rule is reached
    phrases = (Phrase(1, 1, "literal"), Phrase(2, 1, "literal"), Phrase(3, 3, "copylit", 1))
    reason = check_factorization(t("ababa"), Factorization(phrases, flavor))
    assert reason == f"copylit phrase 3 not allowed for flavor {flavor}"


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
        assert phrases0(lz_end_greedy(T)) == nv.naive_lzend_phrases(syms)
        assert lengths(lz78(T)) == nv.naive_lz78_lengths(syms)


def long_phrase_texts():
    """Texts of 100 to 300 symbols whose phrases run past the greedy walk's
    32 symbols of one-symbol steps: a^(n-1)b, (ab)^k, (abc)^k and Fibonacci
    and Thue-Morse prefixes."""
    return [
        (0,) * 149 + (1,),
        (0, 1) * 100,
        (0, 1, 2) * 40,
        fibonacci(233),
        tuple(bin(i).count("1") & 1 for i in range(256)),
    ]


def test_greedy_parses_match_naive_references_on_long_phrases():
    # copies long enough for the walk's doubling steps and its halving back
    # to the copy's length, sources included
    longest = 0
    for syms in long_phrase_texts():
        T = SymbolString(syms)
        for overlap, lzss, lz77 in (
            (True, lzss_overlapping, lz77_overlapping),
            (False, lzss_nonoverlapping, lz77_nonoverlapping),
        ):
            assert phrases0(lzss(T)) == nv.naive_lzss_phrases(syms, overlap), (syms, overlap)
            assert phrases0(lz77(T)) == nv.naive_lz77_phrases(syms, overlap), (syms, overlap)
            longest = max(longest, *lengths(lzss(T)))
    assert longest > 64, longest


def test_greedy_factorizers_build_no_automaton(monkeypatch):
    # the four greedy flavors parse T's string: no suffix automaton is built,
    # and a long repetitive text costs little more than its string
    builds = []

    def counted(symbols):
        builds.append(symbols)
        return new(symbols)

    new = repsens.core._sa_new
    monkeypatch.setattr(repsens.core, "_sa_new", counted)
    monkeypatch.setattr(repsens.core, "_cache", (None, None))
    T = SymbolString(fibonacci(2**17))
    greedy = [lzss_overlapping, lzss_nonoverlapping, lz77_overlapping, lz77_nonoverlapping]
    for U in [T, t("abaababaab"), SymbolString([5, 2**40, 5, 2**40, 7])]:
        for fn in greedy:
            fn(U)
    assert builds == []
    tracemalloc.start()
    try:
        lzss_overlapping(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


# the packed view: (largest symbol, its q) for every width the walk packs
PACKED_WIDTHS = ((0, 8), (1, 8), (3, 4), (7, 2), (15, 2))
GREEDY_FLAVORS = ("lzss_overlap", "lzss_nonoverlap", "lz77_overlap", "lz77_nonoverlap")


def packed_texts(top, rng):
    """Texts over 0..top that use top, of lengths around the packing floor
    and well past it: random ones, whose copies run to about q symbols, and
    one of random words of 1 to 17 symbols (2q + 1 for q = 8) over a short
    random text."""
    texts = []
    for n in (_PACK_FLOOR - 1, _PACK_FLOOR, _PACK_FLOOR + 1, 3 * _PACK_FLOOR):
        texts.append(tuple(rng.randint(0, top) for _ in range(n - 1)) + (top,))
    base = [rng.randint(0, top) for _ in range(_PACK_FLOOR)] + [top]
    words = []
    while len(base) + len(words) < 2 * _PACK_FLOOR:
        a = rng.randrange(len(base) - 17)
        words += base[a : a + rng.randint(1, 17)]
    texts.append(tuple(base + words))
    return texts


@pytest.mark.parametrize("top, q", PACKED_WIDTHS)
def test_packed_view_holds_the_q_grams(top, q):
    rng = random.Random(top)
    b = max(top.bit_length(), 1)
    for syms in packed_texts(top, rng):
        U = "".join(map(chr, syms))
        V, k = _packed(U)
        if len(U) < _PACK_FLOOR:
            assert (V, k) == (U, len(U))
            continue
        assert k == q - 1 and len(V) == len(U) - k
        for j, code in enumerate(map(ord, V)):
            assert code == sum(syms[j + t] << b * (q - 1 - t) for t in range(q)), (top, j)


@pytest.mark.parametrize("symbols", [(16,), (16, 17), (0, 1, 16), (0, 200), (0, 300)])
def test_packed_view_leaves_wide_symbols_unpacked(symbols):
    # a character of 16 or more has no room in a byte beside another one
    rng = random.Random(3)
    U = "".join(chr(rng.choice(symbols)) for _ in range(2 * _PACK_FLOOR - 1)) + chr(symbols[-1])
    assert _packed(U) == (U, len(U))


def walk_pairs(U, start, overlap, take_next, joins=None, barrier=-1):
    """``_greedy_walk``'s phrases from ``start`` as (length, 0-based source)
    pairs, and the index it stopped at."""
    made, stop = _greedy_walk(U, start, overlap, take_next, joins or {}, barrier)
    return [(length, None if src is None else src - 1) for _, length, _, src in made], stop


@pytest.mark.parametrize("top, q", PACKED_WIDTHS + ((16, None), (17, None)))
def test_packed_walk_matches_naive_references(top, q):
    # every flavor, sources included; top 16 and {16, 17} stay unpacked, and
    # the same texts on symbols past 0x10FFFF are ranked onto 0..top
    rng = random.Random(100 + top)
    copies = set()
    for syms in packed_texts(top, rng):
        if top == 17:
            syms = tuple(16 + (s & 1) for s in syms)
        U = "".join(map(chr, syms))
        packed = _packed(U)[1] < len(U)
        assert packed == (q is not None and len(U) >= _PACK_FLOOR), (top, len(U))
        # past 0x10FFFF the string holds ranks: {16, 17} becomes {0, 1}
        huge = SymbolString(2**40 + s for s in syms)
        packed_huge = _packed(repsens.core._as_strs(huge.symbols)[0])[1] < len(U)
        assert packed_huge == (len(U) >= _PACK_FLOOR and len(set(syms)) <= 16), (top, len(U))
        for flavor in GREEDY_FLAVORS:
            factorizer, loop = FACTORIZERS[flavor]
            overlap, take_next = loop.keywords.values()
            naive = (nv.naive_lz77_phrases if take_next else nv.naive_lzss_phrases)(syms, overlap)
            assert walk_pairs(U, 0, overlap, take_next) == (naive, len(U)), (top, flavor)
            assert phrases0(factorizer(huge)) == naive, (top, flavor)
            if packed and not take_next:
                copies.update(length for length, src in naive if src is not None)
    if top:  # a text of one letter copies 1, 2, 4, ... symbols
        assert q is None or {q - 1, q, q + 1} <= copies, (top, sorted(copies))


@pytest.mark.parametrize("top", [1, 3, 15, 16])
@pytest.mark.parametrize("flavor", GREEDY_FLAVORS)
def test_packed_walk_resumes_mid_text_and_stops_at_a_join(top, flavor):
    # a walk from a phrase start past the first yields the full parse's
    # phrases from there, and stops at the first start whose join is past
    # the barrier; joins at or below it are walked over (top 16: unpacked)
    overlap, take_next = FACTORIZERS[flavor][1].keywords.values()
    rng = random.Random(top)
    syms = tuple(rng.randint(0, top) for _ in range(3 * _PACK_FLOOR))
    U = "".join(map(chr, syms))
    full = (nv.naive_lz77_phrases if take_next else nv.naive_lzss_phrases)(syms, overlap)
    starts = list(itertools.accumulate((length for length, _ in full), initial=0))
    z = len(full)
    for a in (1, z // 3, z // 2, z - 2):
        assert walk_pairs(U, starts[a], overlap, take_next) == (full[a:], len(U))
        c = rng.randrange(a + 1, z)
        joins = {starts[m]: m for m in range(a + 1, z) if m != c}
        barrier = z  # every join but c's is at or below it
        joins[starts[c]] = z + 1
        assert walk_pairs(U, starts[a], overlap, take_next, joins, barrier) == (full[a:c], starts[c])
        # a join past the barrier at the walk's own start stops it at once
        joins[starts[a]] = z + 1
        assert walk_pairs(U, starts[a], overlap, take_next, joins, barrier) == ([], starts[a])


def test_packing_a_long_text_holds_linear_memory():
    # the packed view is built on one integer: a few bytes per symbol
    rng = random.Random(17)
    U = "".join(chr(rng.randrange(2)) for _ in range(2**17))
    tracemalloc.start()
    try:
        V, k = _packed(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 7 and len(V) == 2**17 - 7
    assert peak < 8 * 2**17, peak


def test_match_tables_match_naive_exhaustive():
    # the per-position tables of the exact searches: lz_end_optimal's longest
    # fully-previous match and smallest_bms's longest repeat elsewhere
    for n in range(1, 13):
        for syms in itertools.product((0, 1), repeat=n):
            T = SymbolString(syms)
            assert [len(path) for path in _match_states(T, "nonoverlap")[0]] == [
                nv.naive_longest_match(syms, i, False) for i in range(n)
            ], syms
            assert [len(path) for path in _match_states(T, "elsewhere")[0]] == [
                nv.naive_longest_repeat(syms, i) for i in range(n)
            ], syms


def test_match_state_occurrences_match_naive_exhaustive():
    # the occurrence sets behind lz_end_optimal's phrase-end masks and
    # smallest_bms's source candidates, for every matched prefix
    for n in range(1, 11):
        for syms in itertools.product((0, 1), repeat=n):
            T = SymbolString(syms)
            for rule in ("nonoverlap", "elsewhere"):
                paths, ends = _match_states(T, rule)
                for i, path in enumerate(paths):
                    for length, v in enumerate(path, 1):
                        starts = nv.naive_occurrences(syms, syms[i : i + length])
                        assert ends[v] == sum(1 << (s + length - 1) for s in starts)
                        others = [s for s in starts if s != i]
                        assert _other_starts(ends[v], i, length) == others, (syms, i, length)


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
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n - 1):
            syms = (0,) + bits
            assert lz_end_optimal(SymbolString(syms)).size == nv.naive_lzend_optimal_size(syms)


def test_lzend_optimal_capability_limit(monkeypatch):
    with pytest.raises(CapabilityError):
        lz_end_optimal(SymbolString([0] * 25))
    monkeypatch.setenv("REPSENS_LIMIT_LZEND_OPT", "30")
    assert lz_end_optimal(SymbolString([0] * 25)).size >= 1


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
    # non-integer fields are an InputError, not a bare ValueError
    for text in ("lz78 four 1\n1 1 4 copy 0\n", "lz78 4 1\n1 1 4.0 copy 0\n",
                 "lz78 4 1\n1 1 4 copy x\n"):
        with pytest.raises(InputError, match="non-integer field"):
            parse_factorization(text)


def _long_texts():
    """Fibonacci and Thue-Morse prefixes (n=8192), the lz witness bases for
    p<=12 and two seeded random texts (sigma 2 and 4, n=4096)."""
    yield SymbolString(fibonacci(8192))
    yield SymbolString(bin(i).count("1") & 1 for i in range(8192))
    for p in range(2, 13):
        yield lz_witness(p).base
    rng = random.Random(2024)
    for sigma in (2, 4):
        yield SymbolString(rng.randrange(sigma) for _ in range(4096))


# sha256 over format_factorization of every _long_texts() parse, recorded
# with the str.find matcher that the suffix-automaton walk replaced
GOLDEN_LONG_PARSES = {
    "lzss_overlapping": "aa4839326cb226dcb9bd32b10df39aeae49006d1626bfef0ccdd55e5c6e43076",
    "lzss_nonoverlapping": "2ef52cdbb64471af194cc7c04be078f3de267c2d155984a5675906355aec7174",
    "lz77_overlapping": "3d9087b6b24f7d1b00a3ba56bcba83e01eb12562cac6a65b157bc9b281277e1f",
    "lz77_nonoverlapping": "52631c08c61878c2d871ed731367c7bb5ac93158cf2275cefb7c2c25c7613db3",
    "lz_end_greedy": "ce730eb12c3d48774e97dfcb9a20ec19c1fc8702c51f6a1344d83bfcc071a808",
    "lz78": "e0811d1ea9b47cf868c65db95b856f6485542b13e80260c2807a8d525546c438",
}


@pytest.mark.parametrize("fn", ALL_PARSERS, ids=lambda fn: fn.__name__)
def test_long_parses_pinned(fn):
    h = hashlib.sha256()
    for T in _long_texts():
        h.update(format_factorization(fn(T), len(T)).encode())
    assert h.hexdigest() == GOLDEN_LONG_PARSES[fn.__name__]
