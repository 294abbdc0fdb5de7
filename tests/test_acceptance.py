"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Exhaustive binary enumerations fix the first symbol to 0: every
quantity checked here depends only on the equality structure of the text, so
one representative per symbol-renaming class covers all strings (the
invariance itself is asserted in the module tests).
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import naive_oracles as nv
from repsens import (
    Edit,
    SymbolString,
    apply_edit,
    attractor_repair,
    bms_repair,
    enumerate_edits,
    exhaustive_sensitivity,
    growth_fit,
    is_attractor,
    lz77_nonoverlapping,
    lz77_overlapping,
    lz78,
    lz78_witness,
    lz_end_greedy,
    lz_end_optimal,
    lz_witness,
    lzend_repair,
    lzss_nonoverlapping,
    lzss_overlapping,
    smallest_attractor,
    smallest_bms,
    verify_factorization,
)
from repsens.measures import as_bms, bms_is_valid
from repsens.repair import _ceil_sqrt


@contextmanager
def criterion(number, summary):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary} [{time.time() - start:.1f}s]")
        raise
    print(f"criterion {number}: PASS - {summary} [{time.time() - start:.1f}s]")


def binary_strings(n):
    """Canonical representatives (first symbol 0) of all binary strings."""
    for bits in itertools.product((0, 1), repeat=n - 1):
        yield SymbolString((0,) + bits)


def all_edits(T):
    """Every edit over the binary alphabet plus one fresh symbol."""
    for e in enumerate_edits(T, {0, 1, 2}):
        if e.kind == "sub" and T.at(e.position) == e.symbol:
            continue
        yield e


def test_criterion_1_lz78_witness_exactness():
    with criterion(1, "lz78 witness counts 4p / 5p+1 and gap p+1 for p in 1..64"):
        deadline = time.time() + 5.0
        for p in range(1, 65):
            bundle = lz78_witness(p)
            base = lz78(bundle.base).size
            edited = lz78(bundle.edited["sub"]).size
            assert base == 4 * p
            assert edited == 5 * p + 1
            assert edited - base == p + 1
        assert time.time() <= deadline, "criterion 1 exceeded its 5 s budget"


def test_criterion_2_lz_witness_exactness():
    with criterion(2, "lz witness exact sub counts and ins/del >= 3p^2 for p in 2..12"):
        deadline = time.time() + 30.0
        for p in range(2, 13):
            bundle = lz_witness(p)
            assert lz_end_greedy(bundle.base).size == 2 * p * p + 2 * p + 1
            assert lzss_overlapping(bundle.edited["sub"]).size == 3 * p * p + 2 * p + 2
            assert lzss_overlapping(bundle.edited["ins"]).size >= 3 * p * p
            assert lzss_overlapping(bundle.edited["del"]).size >= 3 * p * p
        assert time.time() <= deadline, "criterion 2 exceeded its 30 s budget"


# (exponent, window centre, window half-width) for each witness family.
LZ78_LIMIT = (1.0, 1.00, 0.05)
LZ_LIMIT = (2 / 3, 0.667, 0.07)


def exponent_limit_failures(points, exponent, centre, tol):
    """Reasons why ``points`` do not show growth exponent ``exponent``.

    An exponent is a limit, so finite sizes are judged by the ``growth_fit``
    slopes of every run of four consecutive points: each must be strictly
    closer to ``exponent`` than the one before, on the same side of it, and
    the last must lie within ``centre +- tol``.  Returns these slopes and the
    list of failed conditions (empty when the points pass).
    """
    slopes = [growth_fit(points[i : i + 4]).slope for i in range(len(points) - 3)]
    failures = []
    for i, (a, b) in enumerate(zip(slopes, slopes[1:])):
        if not ((a - exponent) * (b - exponent) > 0 and abs(b - exponent) < abs(a - exponent)):
            failures.append(
                f"windowed slope {i + 2} ({b:.4f}) does not move strictly toward "
                f"{exponent:.4f} from slope {i + 1} ({a:.4f})"
            )
            break
    if abs(slopes[-1] - centre) > tol:
        failures.append(f"last windowed slope {slopes[-1]:.4f} outside {centre} +- {tol}")
    return slopes, failures


def loglog_slope(points):
    """Least-squares log-log slope, computed independently of ``growth_fit``
    by the explicit formula sum((x-xbar)(y-ybar)) / sum((x-xbar)^2)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(gap) for _, gap in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = sum((x - xbar) ** 2 for x in xs)
    return sxy / sxx


def test_criterion_3_growth_exponents():
    with criterion(
        3,
        "growth exponents as limits: 4-point log-log slopes move strictly toward "
        "lz78 1 and lz 2/3, the last within 1.00+-0.05 and 0.667+-0.07",
    ):
        lz78_ps = range(4, 65)
        lz_ps = range(3, 13)
        lz78_points = []
        for p in lz78_ps:
            bundle = lz78_witness(p)
            gap = lz78(bundle.edited["sub"]).size - lz78(bundle.base).size
            lz78_points.append((len(bundle.base), gap))
        lz_points = []
        for p in lz_ps:
            bundle = lz_witness(p)
            gap = lzss_overlapping(bundle.edited["sub"]).size - lz_end_greedy(bundle.base).size
            lz_points.append((len(bundle.base), gap))

        # The whole-range fit is fixed by the closed forms of criteria 1 and 2
        # (n = 7p, gap = p+1; n = p^3+3p^2+2p+1, gap = p^2+1).  Its +1 terms
        # bias it at small p, so it is checked as an exact value, not as an
        # estimate of the exponent.
        lz78_sizes = [7 * p for p in lz78_ps]
        lz_sizes = [p**3 + 3 * p * p + 2 * p + 1 for p in lz_ps]
        fit78 = growth_fit(lz78_points)
        fit_lz = growth_fit(lz_points)
        exact78 = loglog_slope([(n, p + 1) for n, p in zip(lz78_sizes, lz78_ps)])
        exact_lz = loglog_slope([(n, p * p + 1) for n, p in zip(lz_sizes, lz_ps)])
        assert abs(fit78.slope - exact78) <= 1e-9, (
            f"lz78 whole-range slope {fit78.slope:.10f} differs from the closed-form "
            f"least-squares slope {exact78:.10f} of n = 7p, gap = p+1"
        )
        assert abs(fit_lz.slope - exact_lz) <= 1e-9, (
            f"lz whole-range slope {fit_lz.slope:.10f} differs from the closed-form "
            f"least-squares slope {exact_lz:.10f} of n = p^3+3p^2+2p+1, gap = p^2+1"
        )

        slopes78, failures78 = exponent_limit_failures(lz78_points, *LZ78_LIMIT)
        slopes_lz, failures_lz = exponent_limit_failures(lz_points, *LZ_LIMIT)
        print(
            f"  lz78 whole-range slope={fit78.slope:.4f}, last windowed slope="
            f"{slopes78[-1]:.4f} (window 0.95..1.05); lz whole-range slope="
            f"{fit_lz.slope:.4f}, last windowed slope={slopes_lz[-1]:.4f} "
            f"(window 0.597..0.737)"
        )
        assert not failures78, (
            f"lz78 family (p = 4..64): 4-point slopes {slopes78[0]:.4f} .. "
            f"{slopes78[-1]:.4f} do not tend to exponent 1: {'; '.join(failures78)}"
        )
        assert not failures_lz, (
            f"lz family (p = 3..12): 4-point slopes {slopes_lz[0]:.4f} .. "
            f"{slopes_lz[-1]:.4f} do not tend to exponent 2/3: {'; '.join(failures_lz)}"
        )

        # The same check rejects point sets with the wrong exponent, and a
        # sweep with one wrong point, which only the monotonicity clause sees.
        wrong = [
            ("gap = p at the lz sizes", [(n, p) for n, p in zip(lz_sizes, lz_ps)], LZ_LIMIT),
            ("gap = p^3 at the lz sizes", [(n, p**3) for n, p in zip(lz_sizes, lz_ps)], LZ_LIMIT),
            (
                "gap = (p+1)^2 at the lz78 sizes",
                [(n, (p + 1) ** 2) for n, p in zip(lz78_sizes, lz78_ps)],
                LZ78_LIMIT,
            ),
            (
                "gap = p+1 but p at p = 32, at the lz78 sizes",
                [(n, p if p == 32 else p + 1) for n, p in zip(lz78_sizes, lz78_ps)],
                LZ78_LIMIT,
            ),
        ]
        for label, points, limit in wrong:
            slopes, failures = exponent_limit_failures(points, *limit)
            assert failures, f"{label} passed the limit check (last slope {slopes[-1]:.4f})"


def test_criterion_4_delta_sensitivity():
    with criterion(4, "exhaustive delta sensitivity == 1 for binary n in 2..12, all kinds"):
        deadline = time.time() + 120.0
        worst = None
        for n in range(2, 13):
            for kind in ("sub", "ins", "del"):
                rec = exhaustive_sensitivity("delta", n, 2, kind)
                assert rec.AS <= 1, (n, kind, rec.AS)
                if worst is None or rec.AS > worst:
                    worst = rec.AS
        assert worst == 1
        assert time.time() <= deadline, "criterion 4 exceeded its 2 min budget"


def test_criterion_5_attractor_repair():
    with criterion(5, "attractor repair valid with sqrt growth, exhaustive binary n <= 12"):
        for n in range(1, 13):
            for T in binary_strings(n):
                gamma = smallest_attractor(T)
                for e in all_edits(T):
                    out, _ = attractor_repair(T, gamma, e)
                    Tp = apply_edit(T, e)
                    m = len(Tp)
                    assert is_attractor(Tp, out), (T.symbols, e)
                    assert len(out) <= len(gamma) + math.isqrt(m) + _ceil_sqrt(m) + 2, (
                        T.symbols,
                        e,
                    )


def test_criterion_6_bms_repair():
    with criterion(6, "macro-scheme repair valid, size <= 3x, case budgets, 10^4 strings"):
        rng = random.Random(106)
        for trial in range(10_000):
            n = rng.randint(1, 40)
            sigma = (2, 3, 4)[trial % 3]
            T = SymbolString(rng.randrange(sigma) for _ in range(n))
            S = as_bms(lzss_nonoverlapping(T))
            for kind in ("sub", "ins", "del"):
                if kind == "sub":
                    pos = rng.randint(1, n)
                    e = Edit("sub", pos, rng.choice([s for s in range(sigma + 1) if s != T.at(pos)]))
                elif kind == "ins":
                    e = Edit("ins", rng.randint(0, n), rng.randrange(sigma + 1))
                else:
                    e = Edit("del", rng.randint(1, n))
                got, report = bms_repair(T, S, e)
                assert bms_is_valid(apply_edit(T, e), got), (T.symbols, e)
                assert got.size <= 3 * S.size, (T.symbols, e)
                for _, label, count in report.ledger:
                    if label == "bms:1":
                        assert count <= 5, (T.symbols, e)
                    elif label == "bms:3":
                        assert count <= 3, (T.symbols, e)


def test_criterion_7_lzend_repair():
    with criterion(7, "lzend repair valid, 3x (sub/del) / 2x (ins), case-2 <= I+1, 10^4 strings"):
        rng = random.Random(107)

        def edited_index(F, e):
            for k, ph in enumerate(F.phrases, 1):
                if e.kind == "ins":
                    if ph.start <= e.position and ph.end >= e.position + 1:
                        return k
                elif ph.start <= e.position <= ph.end:
                    return k
            return None

        for trial in range(10_000):
            n = rng.randint(1, 40)
            sigma = (2, 3, 4)[trial % 3]
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
                assert verify_factorization(apply_edit(T, e), got), (T.symbols, e)
                cap = (2 if kind == "ins" else 3) * F.size
                assert got.size <= cap, (T.symbols, e)
                I = edited_index(F, e)
                if I is not None:
                    assert report.case_tally["lzend:2"] <= I + 1, (T.symbols, e)


def test_criterion_8_hierarchy():
    with criterion(8, "count hierarchy and lz77 <= lzss, exhaustive binary n <= 14"):
        for n in range(1, 15):
            for T in binary_strings(n):
                a = lzss_overlapping(T).size
                b = lzss_nonoverlapping(T).size
                c = lz_end_optimal(T).size
                d = lz_end_greedy(T).size
                assert a <= b <= c <= d, T.symbols
                assert lz77_overlapping(T).size <= a, T.symbols
                assert lz77_nonoverlapping(T).size <= b, T.symbols


def test_criterion_9_oracle_equivalence():
    with criterion(9, "parsers match naive references (10^4 strings); exact searches match"):
        rng = random.Random(109)
        for trial in range(10_000):
            n = rng.randint(1, 128)
            sigma = (2, 4, 16)[trial % 3]
            syms = tuple(rng.randrange(sigma) for _ in range(n))
            T = SymbolString(syms)
            assert [p.length for p in lzss_overlapping(T).phrases] == nv.naive_lzss_lengths(syms, True)
            assert [p.length for p in lzss_nonoverlapping(T).phrases] == nv.naive_lzss_lengths(syms, False)
            assert [p.length for p in lz77_overlapping(T).phrases] == nv.naive_lz77_lengths(syms, True)
            assert [p.length for p in lz77_nonoverlapping(T).phrases] == nv.naive_lz77_lengths(syms, False)
            assert [p.length for p in lz_end_greedy(T).phrases] == nv.naive_lzend_lengths(syms)
            assert [p.length for p in lz78(T).phrases] == nv.naive_lz78_lengths(syms)
        for n in range(1, 9):
            for T in binary_strings(n):
                syms = T.symbols
                assert len(smallest_attractor(T)) == nv.naive_smallest_attractor_size(syms)
                assert smallest_bms(T).size == nv.naive_smallest_bms_size(syms)


def test_criterion_10_running_example():
    with criterion(10, "ten-symbol running example: {5, 7} attracts and 2 is minimum"):
        T = SymbolString.from_text("baaaabbaaa")
        assert is_attractor(T, {5, 7})
        assert len(smallest_attractor(T)) == 2
