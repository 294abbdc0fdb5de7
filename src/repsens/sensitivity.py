"""Worst-case edit sensitivity: per-string maximization over edits,
exhaustive maximization over strings, CSV reporting, and growth fitting.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import config
from .core import (
    CapabilityError,
    Edit,
    InputError,
    SymbolString,
    apply_edit,
    enumerate_edits,
)
from .factorizers import (
    lz77_nonoverlapping,
    lz77_overlapping,
    lz78,
    lz_end_greedy,
    lz_end_optimal,
    lzss_nonoverlapping,
    lzss_overlapping,
)
from .measures import delta, smallest_attractor, smallest_bms

MEASURES = {
    "lzss_overlap": lambda T: lzss_overlapping(T).size,
    "lzss_nonoverlap": lambda T: lzss_nonoverlapping(T).size,
    "lz77_overlap": lambda T: lz77_overlapping(T).size,
    "lz77_nonoverlap": lambda T: lz77_nonoverlapping(T).size,
    "lzend": lambda T: lz_end_greedy(T).size,
    "lzend_opt": lambda T: lz_end_optimal(T).size,
    "lz78": lambda T: lz78(T).size,
    "delta": delta,
    "gamma": lambda T: len(smallest_attractor(T)),
    "bms": lambda T: smallest_bms(T).size,
}

CSV_HEADER = "measure,edit_kind,n,c_T,c_Tprime,AS,MS_num,MS_den,edit_pos,edit_sym,source"


@dataclass(frozen=True)
class SensitivityRecord:
    measure: str
    edit_kind: str
    n: int
    c_T: object  # int or Fraction
    c_Tprime: object | None
    AS: object | None  # None when no edit of the kind was legal
    MS: Fraction | None
    edit: Edit | None
    argmax_T: SymbolString | None
    source: str

    def csv_row(self) -> str:
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, Fraction) and v.denominator == 1:
                return str(v.numerator)
            return str(v)

        ms_num = "" if self.MS is None else str(self.MS.numerator)
        ms_den = "" if self.MS is None else str(self.MS.denominator)
        pos = "" if self.edit is None else str(self.edit.position)
        sym = "" if self.edit is None or self.edit.symbol is None else str(self.edit.symbol)
        return (
            f"{self.measure},{self.edit_kind},{self.n},{cell(self.c_T)},"
            f"{cell(self.c_Tprime)},{cell(self.AS)},{ms_num},{ms_den},{pos},{sym},{self.source}"
        )


def _measure_fn(measure):
    if callable(measure):
        return measure, getattr(measure, "__name__", "custom")
    if measure not in MEASURES:
        raise InputError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    return MEASURES[measure], measure


def sensitivity_of_string(
    measure,
    T: SymbolString,
    edit_kind: str,
    alphabet: Iterable[int],
    include_fresh: bool = True,
    source: str = "witness",
) -> SensitivityRecord:
    """Worst increase of the measure over all edits of one kind on ``T``.

    One symbol never occurring in ``T`` is added to the edit alphabet by
    default, since the worst growth typically needs a fresh symbol.  The
    maximizer is the first edit in enumeration order, so reruns agree.
    """
    fn, name = _measure_fn(measure)
    if edit_kind not in ("sub", "ins", "del"):
        raise InputError(f"unknown edit kind {edit_kind!r}")
    sigma = set(alphabet)
    if include_fresh:
        fresh = max(sigma | set(T.symbols), default=-1) + 1
        sigma.add(fresh)
    base = fn(T)
    best = None  # (value, edit); the largest value is the largest gain
    for e in enumerate_edits(T, sigma, (edit_kind,)):
        value = fn(apply_edit(T, e))
        if best is None or value > best[0]:
            best = (value, e)
    if best is None:
        return SensitivityRecord(name, edit_kind, len(T), base, None, None, None, None, None, source)
    value, e = best
    gain = value - base
    ms = Fraction(value) / Fraction(base) if base > 0 else None
    return SensitivityRecord(name, edit_kind, len(T), base, value, gain, ms, e, None, source)


def canonical_strings(n: int, sigma: int) -> Iterator[tuple]:
    """One representative per symbol-renaming class: strings over 0..sigma-1
    where each first occurrence introduces the next unused symbol."""
    if n == 0:
        yield ()
        return

    def grow(prefix: tuple, used: int):
        if len(prefix) == n:
            yield prefix
            return
        top = min(used + 1, sigma)
        for s in range(top):
            yield from grow(prefix + (s,), max(used, s + 1))

    yield from grow((), 0)


def _renaming_key(symbols: tuple) -> bytes | tuple:
    """First-occurrence canonical form: each new symbol takes the next unused
    name, so texts equal up to renaming share one key."""
    names: dict = {}
    key = [names.setdefault(s, len(names)) for s in symbols]
    return bytes(key) if len(names) <= 256 else tuple(key)


def _renaming_memo(fn, capacity: int):
    """``fn`` evaluated once per renaming class of its argument.  At most
    ``capacity`` classes are stored (``memo`` holds them); once full the memo
    stops inserting.  Equal values share one object."""
    memo: dict = {}
    values: dict = {}

    def measure(T: SymbolString):
        key = _renaming_key(T.symbols)
        value = memo.get(key)
        if value is None:
            value = fn(T)
            if len(memo) < capacity:
                memo[key] = values.setdefault(value, value)
        return value

    measure.memo = memo
    return measure


def _best_of_strings(args):
    measure_name, strings, edit_kind, sigma, capacity = args
    fn = _renaming_memo(MEASURES[measure_name], capacity)
    best = None
    for syms in strings:
        T = SymbolString(syms)
        rec = sensitivity_of_string(fn, T, edit_kind, range(sigma), source="exhaustive")
        if rec.AS is None:
            continue
        key = (-rec.AS, syms)
        if best is None or key < best[0]:
            best = (key, syms, rec)
    if best is None:
        return None
    _, syms, rec = best
    return (rec.AS, syms, rec.c_T, rec.c_Tprime, rec.MS, rec.edit)


def exhaustive_sensitivity(
    measure: str,
    n: int,
    sigma: int,
    edit_kind: str,
    jobs: int = 1,
) -> SensitivityRecord:
    """Worst increase of the measure over every length-n string over a
    sigma-letter alphabet (plus one fresh symbol for the edit).

    All implemented measures depend only on the equality structure of the
    text, so strings are enumerated up to symbol renaming, and the measure is
    evaluated once per renaming class of the edited strings: a memo keyed by
    the first-occurrence canonical form serves the repeats.  The memo lives
    for one call (one chunk per worker under ``jobs``) and holds at most
    ``config.exhaustive_budget()`` entries, the same cap as sigma**n; once
    full it stops inserting and evaluates the rest afresh.  The reduction is
    a deterministic max (ties to the lexicographically smallest string), so
    neither the worker count nor the memo changes the answer.
    """
    if measure not in MEASURES:
        raise InputError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    if n < 1 or sigma < 1:
        raise InputError("need n >= 1 and sigma >= 1")
    budget = config.exhaustive_budget()
    if sigma**n > budget:
        raise CapabilityError(
            f"sigma**n = {sigma**n} exceeds the exhaustive budget {budget} "
            "(REPSENS_LIMIT_EXHAUSTIVE)"
        )
    strings = list(canonical_strings(n, sigma))
    if jobs <= 1:
        results = [_best_of_strings((measure, strings, edit_kind, sigma, budget))]
    else:
        chunks = [strings[k::jobs] for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_best_of_strings, [(measure, c, edit_kind, sigma, budget) for c in chunks])
            )
    best = None
    for res in results:
        if res is None:
            continue
        gain, syms, c_t, c_tp, ms, edit = res
        key = (-gain, syms)
        if best is None or key < best[0]:
            best = (key, res)
    if best is None:
        return SensitivityRecord(measure, edit_kind, n, None, None, None, None, None, None, "exhaustive")
    gain, syms, c_t, c_tp, ms, edit = best[1]
    return SensitivityRecord(
        measure, edit_kind, n, c_t, c_tp, gain, ms, edit, SymbolString(syms), "exhaustive"
    )


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float
    points: int


def growth_fit(records) -> GrowthFit:
    """Least-squares slope of log(increase) against log(n).

    ``records`` may be SensitivityRecord objects or plain (n, AS) pairs; at
    least four distinct n values with positive increases are required.  The
    slope is taken over all the given points, so lower-order terms of the
    increase bias it at small n and it is not the asymptotic exponent.
    """
    points = []
    for r in records:
        if isinstance(r, SensitivityRecord):
            points.append((r.n, r.AS))
        else:
            n, gain = r
            points.append((n, gain))
    if any(gain is None or gain <= 0 for _, gain in points):
        raise InputError("growth fit needs positive increases")
    if len({n for n, _ in points}) < 4:
        raise InputError("growth fit needs at least 4 distinct sizes")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(g) for _, g in points]
    slope, intercept = statistics.linear_regression(xs, ys)
    rms = math.sqrt(statistics.fmean((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)))
    return GrowthFit(slope, intercept, rms, len(points))


def write_csv(records, stream) -> None:
    stream.write(CSV_HEADER + "\n")
    for rec in records:
        stream.write(rec.csv_row() + "\n")
