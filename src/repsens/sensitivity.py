"""Worst-case edit sensitivity: per-string maximization over edits,
exhaustive maximization over strings, CSV reporting, and growth fitting.

The sweeps run on symbol tuples: edits are ``(kind, position, symbol)``
fields (``core._edit_fields``) applied by ``core._edited``, ``max`` keyed on
the size picks the worst edit (the first of the largest), and only the result
gets an ``Edit``, a ``Fraction`` ratio and a ``SensitivityRecord``.

``sensitivity_of_string`` given a measure by name looks it up in
``RESUMED_SWEEPS``: ``lz78`` and the four greedy flavors (``lzss_overlap``,
``lzss_nonoverlap``, ``lz77_overlap``, ``lz77_nonoverlap``) parse each
edited text only from the phrase holding the edit.  One loop, ``_resumed``,
does this for two families, ``_lz78_family`` and ``_greedy_family``, over
one edit kind in position order.  For a substitution or insertion at one
position, every symbol outside a small danger set (``_lz78_danger``,
``_greedy_danger``) shares one parse of the text with a placeholder symbol
there; the others get a parse of their own.  Deletions are resumed only.
Every other measure, and every measure given as a callable, parses each
edited text in full and stays the referee.

``exhaustive_sensitivity`` enumerates strings up to symbol renaming, and the
sweeps of delta, gamma and bms (``REVERSAL_INVARIANT``) up to reversal too.
Under ``jobs`` it splits them into at most as many chunks as there are
cores, and keeps one tie-break: the largest gain, then the smallest string.
"""

from __future__ import annotations

import math
import os
import statistics
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator

from . import config
from .core import (
    EDIT_KINDS,
    Edit,
    InputError,
    SymbolString,
    _edit_alphabet,
    _edit_fields,
    _edited,
    _sa_extend,
    _sa_new,
    _sa_rollback,
)
from .factorizers import (
    FACTORIZERS,
    _greedy,
    _lz78,
    _walk_end,
    lz78,  # noqa: F401  (a module attribute the bench self-test looks up)
    lz_end_optimal,
)
from .measures import delta, smallest_attractor, smallest_bms

# Sizes only: the parser loops' phrase tuples are counted without building a
# Factorization; the exact searches build one per call.
MEASURES = {
    name: (lambda T, loop=loop: len(loop(T))) for name, (_, loop) in FACTORIZERS.items() if loop
}
MEASURES.update(
    lzend_opt=lambda T: lz_end_optimal(T).size,
    delta=delta,
    gamma=lambda T: len(smallest_attractor(T)),
    bms=lambda T: smallest_bms(T).size,
)

REVERSAL_INVARIANT = frozenset({"delta", "gamma", "bms"})
"""The measures that take the same value on a text and on its reversal:

* delta: rev(T) has the reversed length-k substrings, so every count d_k is
  the same;
* gamma: p -> n+1-p maps the attractors of T to the attractors of rev(T);
* bms: reversing every phrase and its source keeps a macro scheme valid and
  of the same size.

``exhaustive_sensitivity`` sweeps these up to reversal.  The LZ measures
depend on the direction of the parse and are not in the set."""

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


def _resumed(family, T: SymbolString, kind: str, symbols: list) -> tuple[int, Iterator]:
    """The size of ``T`` and an iterator of ``(size, fields)`` over the
    ``kind`` edits of ``T`` by the sorted ``symbols`` (``_edit_fields``),
    each edited text parsed only from the first phrase of ``T`` the edit can
    change: the one resume-and-share loop of every resumed sweep.

    The edits come in position order, so the first changed index d only
    grows, and the phrases whose walk stops before d (``_walk_end``) are
    kept.  ``family(symbols)`` gives ``(phrases, keep, parse, danger)``: the
    parse of ``T``; ``keep(d, k)``, which grows the parser state to
    ``T[:d]`` and the first k phrases; ``parse(text, d, resume)``, the
    phrases of ``text`` from ``resume``, with the state restored after; and
    ``danger(text, d, resume, tail)``, the symbols that may parse otherwise
    than the placeholder text ``text`` (``_edited`` with the symbol -1, which
    no text has), whose parse from ``resume`` is ``tail``.  One parse of it
    serves every substitution or insertion at that position by a symbol
    outside the danger set.  Deletions are resumed only.
    """
    syms = T.symbols
    phrases, keep, parse, danger = family(syms)
    stops = [_walk_end(phrase) for phrase in phrases]

    def sizes():
        shared = None, 0, ()  # position, size with the placeholder, danger set
        for fields in _edit_fields(syms, symbols, (kind,)):
            _, position, symbol = fields
            d = position if kind == "ins" else position - 1
            k = bisect_left(stops, d)
            keep(d, k)
            resume = phrases[k][0] - 1 if k < len(phrases) else len(syms)
            if kind != "del":
                if shared[0] != position:
                    text = _edited(syms, kind, position, -1)
                    tail = parse(text, d, resume)
                    shared = position, k + len(tail), danger(text, d, resume, tail)
                if symbol not in shared[2]:
                    yield shared[1], fields
                    continue
            yield k + len(parse(_edited(syms, kind, position, symbol), d, resume)), fields

    return len(phrases), sizes()


def _lz78_family(syms: tuple) -> tuple:
    """lz78 for ``_resumed``.  Every phrase of ``T`` that ends before d is a
    phrase of the edited text too, made from the same symbols against the
    same dictionary; a final ``copy`` phrase is never kept, since its walk
    stops where the text runs out.  The base trie holds the kept phrases,
    and grows with d; each edited text is parsed from the next phrase's
    start with an undo log, and its additions are taken out again."""
    phrases = _lz78(syms)
    root: dict = {}
    kept = 0  # phrases of T in root
    undo: list = []

    def keep(d: int, k: int) -> None:
        nonlocal kept
        if kept < k:  # phrases kept..k-1 of T, parsed again into root
            start, length, _, _ = phrases[k - 1]
            _lz78(syms[: start - 1 + length], phrases[kept][0] - 1, root)
            kept = k

    def parse(text: tuple, d: int, resume: int) -> list[tuple]:
        tail = _lz78(text, resume, root, undo)
        for node, c in reversed(undo):
            del node[c]
        undo.clear()
        return tail

    def danger(text: tuple, d: int, resume: int, tail: list[tuple]) -> set:
        return _lz78_danger(text, d, resume, phrases[:kept] + tail)  # kept == k

    return phrases, keep, parse, danger


def _lz78_danger(text: tuple, d: int, resume: int, phrases: list[tuple]) -> set:
    """The symbols c for which L c R may parse differently from the
    placeholder text ``text`` = L -1 R (L = ``text[:d]``; ``phrases`` is its
    lz78 parse, one phrase of which starts at ``resume`` <= d).

    The walk from ``resume`` reads ``W = text[resume:d]`` and then c.  Unless
    some phrase walk stands at W and reads c, the parse takes the same
    decisions as with the placeholder: the symbols read at W are the set.
    """
    depth = d - resume
    word = text[resume:d]
    # a phrase longer than W read past it; a final copy ends with the text
    return {
        text[start - 1 + depth]
        for start, length, _, _ in phrases
        if length > depth and text[start - 1 : start - 1 + depth] == word
    }


def _greedy_family(syms: tuple, overlap: bool, take_next: bool) -> tuple:
    """A ``_greedy`` flavor for ``_resumed``.  A phrase is decided by the
    text up to the index its walk stops at (``factorizers._walk_end``), so
    every phrase of ``T`` that stops before d is a phrase of the edited text
    too.  The state is a private automaton of ``T[:d]`` (``core._sa_new``,
    never the shared one, which this would mutate), extended as d grows;
    each edited text extends it from d on, is parsed by ``_greedy`` from
    ``resume``, and the extension is rolled back (``core._sa_rollback``).
    The danger set is ``_greedy_danger``'s."""
    phrases = _greedy(SymbolString._trusted(syms), overlap, take_next)
    sa = _sa_new(())  # of syms[:d]

    def keep(d: int, k: int) -> None:
        _sa_extend(sa, syms[len(sa[2]) : d])

    def parse(text: tuple, d: int, resume: int) -> list[tuple]:
        tail = text[d:]
        log: list = []
        _sa_extend(sa, tail, log)
        out = _greedy(SymbolString._trusted(text), overlap, take_next, sa, resume)
        _sa_rollback(sa, tail, log)
        return out

    def danger(text: tuple, d: int, resume: int, tail: list[tuple]) -> set:
        return _greedy_danger(sa, text, d, resume, tail, take_next)

    return phrases, keep, parse, danger


def _greedy_danger(
    sa: tuple, text: tuple, d: int, resume: int, tail: list[tuple], take_next: bool
) -> set:
    """The symbols c for which L c R may parse differently from the
    placeholder text ``text`` = L -1 R (L = ``text[:d]``; ``sa`` is L's
    automaton and ``tail`` the placeholder parse from ``resume``).

    Outside this set the two parses have the same phrase boundaries, hence
    the same size.  For LZSS with overlap the argument runs phrase by phrase:
    the tests of a walk are monotone, and an occurrence that ends before the
    walk's index and avoids d is in both texts, so a walk can only get
    longer in L c R, and only by an occurrence that holds d.

    (a) The phrase at ``resume`` < d: its walk reads ``text[resume:d]`` and
        stops at the placeholder; it reads on with c when that word followed
        by c occurs in L, i.e. c labels a transition of the word's state.
    (b) The phrase at d: the placeholder is a literal; c makes a copy of one
        symbol, the same boundary, unless c R[0] occurs in L c, i.e. c
        precedes R[0] in L, or c = R[0] is L's last symbol.
    (c) A later phrase at a > d: its walk reads the window ``text[a:j+1]``
        and stops at j.  It reads on only if the window occurs across d,
        i.e. it is a suffix of L, then c, then a prefix of R; c is the
        window's symbol at that offset.  A literal's window takes one more
        symbol, since a copy of length one keeps its boundary.
    LZSS without overlap tests occurrences that end before the phrase: a
    subset of these, so the same set is sound.  LZ77 takes the symbol at the
    stop into the phrase, so the phrase holding d keeps its end at d unless
    (a) holds, also when it starts at d (the word is empty and (a) is every
    symbol of L); (b) does not arise, and a literal's window is not widened,
    since c there makes a phrase of two symbols.
    """
    trans = sa[3]
    danger: set = set()
    if resume < d or take_next:  # (a)
        v = 0
        for x in text[resume:d]:
            v = trans[v][x]
        danger.update(trans[v])
    n = len(text)
    if not take_next and d + 1 < n:  # (b)
        r0 = text[d + 1]
        danger.update(c for c, v in trans[0].items() if r0 in trans[v])
        if d and text[d - 1] == r0:
            danger.add(r0)
    for phrase in tail:  # (c)
        a = phrase[0] - 1
        if a <= d:
            continue
        j = _walk_end(phrase) + (not take_next and phrase[2] == "literal")
        if j >= n:
            continue
        w = text[a : j + 1]
        m = len(w)
        for x in range(min(m, d + 1)):
            # the symbols next to d first, then the whole suffix and prefix
            if (
                (x == 0 or text[d - 1] == w[x - 1])
                and (x == m - 1 or text[d + 1] == w[x + 1])
                and text[d - x : d] == w[:x]
                and text[d + 1 : d + m - x] == w[x + 1 :]
            ):
                danger.add(w[x])
    return danger


# measure name -> resumed sweep: (T, kind, symbols) -> (size of T, (size,
# fields) per edit); greedy flavors' flags are read off FACTORIZERS' loops
RESUMED_SWEEPS = {"lz78": partial(_resumed, _lz78_family)}
RESUMED_SWEEPS.update(
    (name, partial(_resumed, partial(_greedy_family, **loop.keywords)))
    for name, (_, loop) in FACTORIZERS.items()
    if getattr(loop, "func", None) is _greedy
)


def _sweep_alphabet(
    alphabet: Iterable[int], syms: tuple, edit_kind: str, include_fresh: bool
) -> list[int]:
    """The sorted edit symbols of a sweep of a checked edit kind:
    ``alphabet``, plus by default one symbol new to it and to the text."""
    if edit_kind not in EDIT_KINDS:
        raise InputError(f"unknown edit kind {edit_kind!r}")
    sigma = set(alphabet)
    if include_fresh:
        sigma.add(max(sigma | set(syms), default=-1) + 1)
    return _edit_alphabet(sigma, {edit_kind})


def _record(name, edit_kind, n, base, best, argmax_T, source) -> SensitivityRecord:
    """The record of a sweep whose first maximum is ``best``, a ``(value,
    fields)`` pair or None when no edit of the kind was legal."""
    if best is None:
        return SensitivityRecord(name, edit_kind, n, base, None, None, None, None, argmax_T, source)
    value, fields = best
    ms = Fraction(value) / Fraction(base) if base > 0 else None
    return SensitivityRecord(
        name, edit_kind, n, base, value, value - base, ms, Edit._trusted(*fields), argmax_T, source
    )


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
    maximizer is the first edit in enumeration order, so reruns agree.  The
    empty text (left by deleting the only symbol) measures 0 here.

    Edits are streamed as plain ``(kind, position, symbol)`` fields and only
    sizes are computed; the maximizer alone becomes an ``Edit``.  A measure
    named in ``RESUMED_SWEEPS`` (``lz78`` and the four greedy LZSS/LZ77
    flavors) parses ``T`` once and each edited text only from the phrase
    holding the edit, and the symbols that cannot change that parse at a
    position share one (see ``_resumed``).  Any other measure, and a
    callable, takes the ``MEASURES`` path: a full parse of every edited text.
    """
    fn, name = _measure_fn(measure)
    syms = T.symbols
    sigma = _sweep_alphabet(alphabet, syms, edit_kind, include_fresh)
    resumed = RESUMED_SWEEPS.get(measure) if isinstance(measure, str) else None
    if resumed:
        base, values = resumed(T, edit_kind, sigma)
    else:
        def size(U: tuple):
            return fn(SymbolString._trusted(U)) if U else 0

        base = size(syms)
        edits = _edit_fields(syms, sigma, (edit_kind,))
        values = ((size(_edited(syms, *fields)), fields) for fields in edits)
    best = max(values, key=itemgetter(0), default=None)
    return _record(name, edit_kind, len(T), base, best, None, source)


def canonical_strings(n: int, sigma: int) -> Iterator[tuple]:
    """One representative per symbol-renaming class: strings over 0..sigma-1
    where each first occurrence introduces the next unused symbol."""

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
    """``fn`` of the text with these symbols, evaluated once per renaming
    class; the empty text measures 0.  At most ``capacity`` classes are
    stored (``memo`` holds them); once full the memo stops inserting.  Equal
    values share one object."""
    memo: dict = {}
    values: dict = {}

    def measure(syms: tuple):
        if not syms:
            return 0
        key = _renaming_key(syms)
        value = memo.get(key)
        if value is None:
            value = fn(SymbolString._trusted(syms))
            if len(memo) < capacity:
                memo[key] = values.setdefault(value, value)
        return value

    measure.memo = memo
    return measure


def _best_of_strings(args) -> tuple:
    """The worst string among the non-empty ``strings`` as ``((-gain,
    symbols), base, (value, fields))``.  The least key is the one tie-break
    of the exhaustive sweeps: the largest gain, then the smallest string.
    Every string of length n >= 1 has a legal edit of each kind, since the
    fresh symbol is in the edit alphabet."""
    measure_name, strings, edit_kind, symbols, capacity = args
    size = _renaming_memo(MEASURES[measure_name], capacity)

    def worst(syms: tuple) -> tuple:
        base = size(syms)
        edits = _edit_fields(syms, symbols, (edit_kind,))
        top = max(((size(_edited(syms, *fields)), fields) for fields in edits), key=itemgetter(0))
        return (base - top[0], syms), base, top

    return min(map(worst, strings))


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
    the first-occurrence canonical form serves the repeats.  A measure in
    ``REVERSAL_INVARIANT`` (delta, gamma, bms) is also enumerated up to
    reversal: a canonical string s is swept only when s <= canonical(rev(s)).
    The edit mirrored at n+1-d (after n-i for an insertion) gives the
    reversed edited text, so s and rev(s) have the same worst gain; the
    smallest string of largest gain is never the larger of its pair, and its
    own first maximal edit is found as before, so the record is the same.

    ``jobs`` asks for worker processes; the strings are split into
    ``min(jobs, os.cpu_count(), len(strings))`` chunks, one per worker, and
    a single chunk runs in this process, so no pool starts more processes
    than there are cores.  The memo lives for one chunk and holds at most
    as many entries as the ``REPSENS_LIMIT_EXHAUSTIVE`` cap on sigma**n
    (``config.LIMITS``), past which the sweep raises ``CapabilityError``; once
    full it stops inserting and evaluates the rest afresh.  The sweep runs
    on symbol tuples and edit fields; only the winner gets an ``Edit``.
    Each chunk and the reduction across chunks take the least key of
    ``_best_of_strings`` (the largest gain, ties to the lexicographically
    smallest string), so neither the worker count nor the memo changes the
    answer.
    """
    if measure not in MEASURES:
        raise InputError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    if n < 1 or sigma < 1:
        raise InputError("need n >= 1 and sigma >= 1")
    budget = config.check("REPSENS_LIMIT_EXHAUSTIVE", n, sigma)
    # canonical strings use only symbols below sigma, so sigma is the fresh one
    symbols = _sweep_alphabet(range(sigma), (), edit_kind, True)
    strings = list(canonical_strings(n, sigma))
    if measure in REVERSAL_INVARIANT:
        strings = [s for s in strings if s <= tuple(_renaming_key(s[::-1]))]
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(strings)))
    chunks = [(measure, strings[k::jobs], edit_kind, symbols, budget) for k in range(jobs)]
    if jobs == 1:
        results = map(_best_of_strings, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_best_of_strings, chunks))
    # strings differ, so the keys do: min never compares further
    (_, syms), base, top = min(results)
    return _record(measure, edit_kind, n, base, top, SymbolString._trusted(syms), "exhaustive")


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
