import itertools
import math
import random
from hashlib import sha256

import pytest

import naive_oracles as nv
from repsens import (
    Edit,
    InputError,
    SymbolString,
    apply_edit,
    attractor_repair,
    bms_repair,
    enumerate_edits,
    format_factorization,
    is_attractor,
    lz_end_greedy,
    lz_witness,
    lzend_repair,
    lzss_nonoverlapping,
    lzss_overlapping,
    smallest_attractor,
    verify_factorization,
)
from repsens.measures import as_bms, bms_is_valid, format_attractor
from repsens.repair import RepairReport, _ceil_sqrt


def t(s):
    return SymbolString.from_text(s)


def real_edits(T, sigma):
    for e in enumerate_edits(T, sigma):
        if e.kind == "sub" and T.at(e.position) == e.symbol:
            continue
        yield e


def edited_phrase_index(F, e):
    for k, ph in enumerate(F.phrases, 1):
        if e.kind == "ins":
            if ph.start <= e.position and ph.end >= e.position + 1:
                return k
        elif ph.start <= e.position <= ph.end:
            return k
    return None


# ---------------------------------------------------------------- attractor


def test_attractor_repair_running_example():
    T = t("baaaabbaaa")
    e = Edit("sub", 5, SymbolString.from_text("c").symbols[0])
    out, report = attractor_repair(T, {5, 7}, e)
    Tp = apply_edit(T, e)
    assert is_attractor(Tp, out)
    assert len(out) <= 2 + math.isqrt(10) + _ceil_sqrt(10) + 2
    assert report.bound == 2 + math.isqrt(10) + _ceil_sqrt(10) + 2


def test_attractor_repair_rejects_same_symbol_substitution():
    T = t("ab")
    with pytest.raises(InputError):
        attractor_repair(T, {1, 2}, Edit("sub", 1, T.at(1)))


def test_attractor_repair_rejects_non_attractor():
    with pytest.raises(InputError):
        attractor_repair(t("ab"), {1}, Edit("sub", 1, 99))


def test_attractor_repair_checks_each_input_once(monkeypatch):
    import repsens.repair as rp

    calls = []

    def counting_is_attractor(T, gamma):
        calls.append((T.symbols, frozenset(gamma)))
        return is_attractor(T, gamma)

    monkeypatch.setattr(rp, "is_attractor", counting_is_attractor)
    monkeypatch.setattr(rp, "_last_attractor", None)
    T = t("abaabab")
    gamma = smallest_attractor(T)
    edits = list(real_edits(T, {97, 98, 99}))
    for e in edits:
        attractor_repair(T, gamma, e)
    assert calls == [(T.symbols, frozenset(gamma))]
    # non-attractors of this text and of another are checked and rejected on
    # every call; they do not evict the checked input
    for _ in range(2):
        for text, positions in (("abaabab", {1}), ("ab", {1}), ("abaabab", {2})):
            with pytest.raises(InputError, match="not an attractor"):
                attractor_repair(t(text), positions, Edit("sub", 1, 99))
        attractor_repair(T, gamma, edits[0])
    assert len(calls) == 1 + 2 * 3


def test_attractor_repair_exhaustive_small():
    for n in range(1, 10):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            gamma = smallest_attractor(T)
            for e in real_edits(T, {0, 1, 2}):
                out, report = attractor_repair(T, gamma, e)
                Tp = apply_edit(T, e)
                m = len(Tp)
                assert is_attractor(Tp, out)
                assert len(out) - len(gamma) <= math.isqrt(m) + _ceil_sqrt(m) + 2


def test_attractor_repair_delete_to_empty():
    out, report = attractor_repair(SymbolString([7]), {1}, Edit("del", 1))
    assert out == frozenset()


def edge_edits(T, c):
    """Insertions at both ends, deletions of both end symbols, and a
    substitution at each end, ``c`` being a symbol the text lacks."""
    n = len(T)
    return [
        Edit("ins", 0, c), Edit("ins", n, c), Edit("del", 1), Edit("del", n),
        Edit("sub", 1, c), Edit("sub", n, c),
    ]


def phrase_ends(T):
    return frozenset(ph.end for ph in lzss_overlapping(T).phrases)


def assert_matches_naive_repair(T, gamma, e):
    out, _ = attractor_repair(T, gamma, e)
    want = nv.naive_attractor_repair(T.symbols, gamma, e.kind, e.position, e.symbol)
    assert out == want, (T.symbols, sorted(gamma), e)


def test_attractor_repair_matches_naive_walk_exhaustive():
    for n in range(1, 10):
        for bits in itertools.product((0, 1), repeat=n):
            T = SymbolString(bits)
            gamma = smallest_attractor(T)
            for e in real_edits(T, {0, 1, 2}):
                assert_matches_naive_repair(T, gamma, e)


def test_attractor_repair_matches_naive_walk_random():
    rng = random.Random(29)
    for trial in range(45):
        n = rng.randint(1, 300)
        sigma = (2, 3, 300)[trial % 3]
        T = SymbolString(rng.randrange(sigma) for _ in range(n))
        gamma = phrase_ends(T)
        edits = edge_edits(T, sigma)
        edits += rng.sample(list(real_edits(T, range(sigma + 1))), 3)
        for e in edits:
            assert_matches_naive_repair(T, gamma, e)


def test_attractor_repair_matches_naive_walk_beyond_unicode():
    # symbols past the last code point take the renaming path; 0x110000 and
    # 0 would share a character if the renaming reduced modulo 0x110000
    alphabet = (0, 1, 0x10FFFF, 0x110000, 2**40)
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(1, 40)
        pool = alphabet[: 2 + trial % 4]
        T = SymbolString(rng.choice(pool) for _ in range(n))
        gamma = phrase_ends(T)
        edits = edge_edits(T, 2**40 + 1)
        edits += rng.sample(list(real_edits(T, alphabet)), 4)
        for e in edits:
            assert_matches_naive_repair(T, gamma, e)


def test_attractor_repair_long_periodic_texts():
    # a^(n-1)b, (ab)^(n/2) and a Fibonacci prefix: the walk's searches hit
    # many overlapping occurrences
    n = 2000
    fib, longer = [0], [0, 1]
    while len(longer) < n:
        fib, longer = longer, longer + fib
    for syms in ([0] * (n - 1) + [1], [0, 1] * (n // 2), longer[:n]):
        T = SymbolString(syms)
        gamma = phrase_ends(T)
        middle = [Edit("sub", n // 2, 2), Edit("ins", n // 3, 0), Edit("del", n // 2)]
        for e in edge_edits(T, 2) + middle:
            out, report = attractor_repair(T, gamma, e)
            m = report.n_out
            assert is_attractor(apply_edit(T, e), out)
            assert len(out) - len(gamma) <= math.isqrt(m) + _ceil_sqrt(m) + 2


def test_attractor_repair_random_larger():
    # heuristic attractor: all positions (always valid); growth bound must hold
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 200)
        T = SymbolString(rng.randrange(3) for _ in range(n))
        gamma = frozenset(range(1, n + 1))
        kind = rng.choice(("sub", "ins", "del"))
        if kind == "sub":
            pos = rng.randint(1, n)
            e = Edit("sub", pos, rng.choice([s for s in range(4) if s != T.at(pos)]))
        elif kind == "ins":
            e = Edit("ins", rng.randint(0, n), rng.randrange(4))
        else:
            e = Edit("del", rng.randint(1, n))
        out, report = attractor_repair(T, gamma, e)
        Tp = apply_edit(T, e)
        m = len(Tp)
        assert is_attractor(Tp, out)
        assert len(out) - len(gamma) <= math.isqrt(m) + _ceil_sqrt(m) + 2


# ---------------------------------------------------------------- macro scheme


def test_bms_repair_all_ground_scheme():
    T = t("abc")
    grounds = as_bms(lzss_nonoverlapping(t("abc")))  # all fresh: all ground
    assert all(p.kind == "literal" for p in grounds.phrases)
    for e, want in ((Edit("sub", 2, 99), 3), (Edit("ins", 1, 99), 4), (Edit("del", 2), 2)):
        got, report = bms_repair(T, grounds, e)
        assert got.size == want
        assert all(p.kind == "literal" for p in got.phrases)


def test_bms_repair_case3_hand_trace():
    from repsens import Factorization, Phrase

    T = t("abab")
    S = Factorization(
        (Phrase(1, 1, "literal"), Phrase(2, 1, "literal"), Phrase(3, 2, "copy", 1)), "bms"
    )
    e = Edit("sub", 1, SymbolString.from_text("c").symbols[0])
    got, report = bms_repair(T, S, e)
    assert bms_is_valid(apply_edit(T, e), got)
    assert report.case_tally.get("bms:3", 0) >= 1
    assert dict((idx, label) for idx, label, _ in report.ledger)[3] == "bms:3"


def test_bms_repair_rejects_invalid_scheme():
    from repsens import Factorization, Phrase

    T = t("abab")
    bad = Factorization((Phrase(1, 2, "copy", 3), Phrase(3, 2, "copy", 1)), "bms")
    with pytest.raises(InputError):
        bms_repair(T, bad, Edit("sub", 1, 99))


def test_bms_repair_exhaustive_small():
    for n in range(1, 10):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            S = as_bms(lzss_nonoverlapping(T))
            for e in real_edits(T, {0, 1, 2}):
                got, report = bms_repair(T, S, e)
                assert bms_is_valid(apply_edit(T, e), got)
                assert got.size <= 3 * S.size
                for _, label, count in report.ledger:
                    if label == "bms:1":
                        assert count <= 5
                    elif label == "bms:3":
                        assert count <= 3


def test_bms_repair_case_budgets_random():
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randint(1, 40)
        sigma = rng.choice((2, 3, 4))
        T = SymbolString(rng.randrange(sigma) for _ in range(n))
        S = as_bms(lzss_nonoverlapping(T))
        pos = rng.randint(1, n)
        e = Edit("sub", pos, rng.choice([s for s in range(sigma + 1) if s != T.at(pos)]))
        got, report = bms_repair(T, S, e)
        assert bms_is_valid(apply_edit(T, e), got)
        assert got.size <= 3 * S.size
        assert got.size <= report.bound


def test_bms_repair_additive_growth_stays_rootlike():
    # growth across random inputs stays within a small multiple of sqrt(n):
    # long damaged phrases are few and short non-nested damaged sources
    # through one position are few
    rng = random.Random(53)
    worst = 0.0
    for _ in range(500):
        n = rng.randint(4, 40)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        S = as_bms(lzss_nonoverlapping(T))
        pos = rng.randint(1, n)
        e = Edit("sub", pos, 2)
        got, report = bms_repair(T, S, e)
        growth = (got.size - S.size) / math.sqrt(n)
        worst = max(worst, growth)
    assert worst <= 6.0, worst


# ---------------------------------------------------------------- lzend


def test_lzend_repair_single_phrase_text():
    T = SymbolString([0])
    F = lz_end_greedy(T)
    with pytest.raises(InputError):
        lzend_repair(T, F, Edit("sub", 1, 0))
    got, report = lzend_repair(T, F, Edit("sub", 1, 5))
    assert got.size == 1 and got.phrases[0].kind == "literal"
    assert verify_factorization(SymbolString([5]), got)


def test_lzend_repair_rejects_wrong_flavor():
    T = t("abab")
    with pytest.raises(InputError):
        lzend_repair(T, lzss_nonoverlapping(T), Edit("sub", 1, 99))


def test_lzend_repair_exhaustive_small():
    for n in range(1, 10):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            F = lz_end_greedy(T)
            for e in real_edits(T, {0, 1, 2}):
                got, report = lzend_repair(T, F, e)
                Tp = apply_edit(T, e)
                assert verify_factorization(Tp, got)
                cap = (2 if e.kind == "ins" else 3) * F.size
                assert got.size <= cap
                I = edited_phrase_index(F, e)
                if I is not None:
                    assert report.case_tally["lzend:2"] <= I + 1


def test_lzend_repair_random_bounds():
    rng = random.Random(59)
    for _ in range(600):
        n = rng.randint(1, 40)
        sigma = rng.choice((2, 3))
        T = SymbolString(rng.randrange(sigma) for _ in range(n))
        F = lz_end_greedy(T)
        for kind in ("sub", "ins", "del"):
            if kind == "sub":
                pos = rng.randint(1, n)
                e = Edit("sub", pos, rng.choice([s for s in range(sigma + 1) if s != T.at(pos)]))
            elif kind == "ins":
                e = Edit("ins", rng.randint(0, n), rng.randrange(sigma + 1))
            else:
                e = Edit("del", rng.randint(1, n))
            got, report = lzend_repair(T, F, e)
            Tp = apply_edit(T, e)
            assert verify_factorization(Tp, got)
            assert got.size <= (2 if kind == "ins" else 3) * F.size
            I = edited_phrase_index(F, e)
            if I is not None:
                assert report.case_tally["lzend:2"] <= I + 1


def test_repair_report_csv_row():
    T = t("abab")
    F = lz_end_greedy(T)
    e = Edit("sub", 2, 99)
    got, report = lzend_repair(T, F, e)
    row = report.csv_row()
    assert row.startswith("lzend,sub,2,99,4,")
    assert len(row.split(",")) == len(RepairReport.CSV_HEADER.split(","))


# ---------------------------------------------------------------- pinned outputs

PINNED_REPAIR_DIGEST = "2780d9ebebfeca3ca16a0c789fc782479998c954c5c26ea1eecb3d339dbf3a4b"


def _pinned_corpus():
    """(text, alphabet of its edits) pairs: every binary text up to n=7 and
    ternary text up to n=5, seeded random texts up to n=120, and the lz
    witness bases for p=2..4."""
    for sigma, n_max in ((2, 7), (3, 5)):
        for n in range(1, n_max + 1):
            for syms in itertools.product(range(sigma), repeat=n):
                yield SymbolString(syms), None
    rng = random.Random(61)
    for _ in range(24):
        n = rng.randint(1, 120)
        sigma = rng.choice((2, 3, 4))
        yield SymbolString(rng.randrange(sigma) for _ in range(n)), sigma
    for p in range(2, 5):
        yield lz_witness(p).base, 1


def _pinned_edits(T, sigma, rng):
    """Every applicable edit over the text's alphabet plus one fresh symbol
    (sigma None); every deletion and every edit writing a fresh symbol (the
    witness bases, sigma 1); or four random edits of each kind over sigma
    symbols plus a fresh one."""
    fresh = max(T.symbols) + 1
    n = len(T)
    if sigma is None:
        yield from real_edits(T, set(range(fresh + 1)))
    elif sigma == 1:
        for pos in range(1, n + 1):
            yield Edit("sub", pos, fresh)
            yield Edit("del", pos)
        for pos in range(0, n + 1):
            yield Edit("ins", pos, fresh)
    else:
        for _ in range(4):
            pos = rng.randint(1, n)
            yield Edit("sub", pos, rng.choice([c for c in range(sigma + 1) if c != T.at(pos)]))
            yield Edit("ins", rng.randint(0, n), rng.randrange(sigma + 1))
            yield Edit("del", rng.randint(1, n))


def _lz_end_attractor(T):
    """Positions of the last symbols of the greedy LZ-End phrases, or every
    position when those are not an attractor."""
    ends = frozenset(ph.end for ph in lz_end_greedy(T).phrases)
    return ends if is_attractor(T, ends) else frozenset(range(1, len(T) + 1))


def test_repair_outputs_pinned():
    """One digest over the output, CSV row and ledger of all three repairs on
    a fixed corpus: any change to what a repair builds or reports changes it.
    The case tally is the ledger summed per label."""

    def phrases(out, report):
        return format_factorization(out, report.n_out)

    h = sha256()
    rng = random.Random(67)
    calls = 0
    for T, sigma in _pinned_corpus():
        runs = (
            (attractor_repair, _lz_end_attractor(T), lambda out, report: format_attractor(out)),
            (bms_repair, as_bms(lzss_nonoverlapping(T)), phrases),
            (lzend_repair, lz_end_greedy(T), phrases),
        )
        for e in _pinned_edits(T, sigma, rng):
            for repair, certificate, fmt in runs:
                out, report = repair(T, certificate, e)
                calls += 1
                summed = {}
                for _, label, count in report.ledger:
                    summed[label] = summed.get(label, 0) + count
                # labels the ledger never names may be listed at 0
                assert report.case_tally == {**dict.fromkeys(report.case_tally, 0), **summed}
                h.update(f"{fmt(out, report)}|{report.csv_row()}|{report.ledger}\n".encode())
    assert calls == 74418, calls
    assert h.hexdigest() == PINNED_REPAIR_DIGEST, h.hexdigest()
