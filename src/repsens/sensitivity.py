"""Worst-case edit sensitivity: per-string maximization over edits,
exhaustive maximization over strings, CSV reporting, and growth fitting.

The sweeps run on symbol tuples: edits are ``(kind, position, symbol)``
fields (``core._edit_fields``) applied by ``core._edited``, the worst edit is
the first of the largest sizes, and only the result gets an ``Edit``, a
``Fraction`` ratio and a ``SensitivityRecord``.

``sensitivity_of_string`` given a measure by name looks it up in
``RESUMED_SWEEPS``: ``lz78`` and the four greedy flavors (``lzss_overlap``,
``lzss_nonoverlap``, ``lz77_overlap``, ``lz77_nonoverlap``) parse each
edited text only from the phrase holding the edit.  One loop, ``_resumed``,
does this for two families, ``_lz78_family`` and ``_greedy_family``, over
one edit kind in position order.  For a substitution or insertion at one
position, every symbol outside a small danger set (``_lz78_danger``,
``_greedy_danger``) shares one parse of the text with a placeholder symbol
there; the others get a parse of their own.  In lz78 those share work too:
each walks only the phrase holding the edit, and the parse of the text after
that phrase on the trie of the kept phrases, the same for every symbol at
the position, is made once per phrase end and taken as it is unless it
creates the symbol's new word (``_lz78_family``).  In the greedy flavors
each parse, the placeholder's too, runs the full parses' one loop
(``factorizers._greedy_walk``) on the edited text's string and stops at
the first phrase start of the unedited parse, moved by the edit, after
which no phrase can change: none is fragile (every earlier occurrence of
its copy covers the edit) and none has its window occur over the edit with
the edit's symbol.  The unedited parse's phrases left are then the rest of
the size (``_greedy_family``).  Deletions are resumed only.
Every other measure, and every measure given as a callable, goes through one
loop, ``_first_max``, which parses edited texts in full; a callable is
measured on every edited text and stays the referee.  By name, the exact
searches named in ``UPPER_BOUNDS`` run there only where a cheap upper bound
can still beat the largest size so far, and a measure named in ``MAX_GAIN``
stops at the first edit that gains that much.

``exhaustive_sensitivity`` enumerates strings up to symbol renaming, and the
sweeps of delta, gamma and bms (``REVERSAL_INVARIANT``) up to reversal too.
It keys each edit by the renaming class of its edited string, cut from the
base's bytes where the edit keeps the string canonical (``_edit_keys``), and
measures one canonical text per class (``_renaming_memo``); an lz78 sweep
stops at the most phrases a text of the edited length can have
(``MAX_SIZE``).
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
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator

from . import config
from .core import (
    EDIT_KINDS,
    Edit,
    InputError,
    SymbolString,
    _as_strs,
    _edit_alphabet,
    _edit_fields,
    _edited,
    _suffix_automaton,
)
from .factorizers import (
    FACTORIZERS,
    _greedy,
    _greedy_walk,
    _lz78,
    _packed,
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

UPPER_BOUNDS = {"lzend_opt": "lzend", "bms": "lzss_overlap"}
"""Exact measure -> a cheap measure that is never smaller on any text:

* lzend_opt <= lzend: the greedy LZ-End parse is an LZ-End parse, and
  ``lz_end_optimal`` seeds its search with it;
* bms <= lzss_overlap: the greedy LZSS parse, its sources all to the left,
  is a valid macro scheme, and ``smallest_bms`` takes it as its upper bound.

The sweeps (``_first_max``) run the exact search on an edited text only when
its bound is above the value it has to beat.  gamma has no entry: with
``lzss_overlap`` as its bound, most edits still needed the exact search and
the sweep got slower."""

REVERSAL_INVARIANT = frozenset({"delta", "gamma", "bms"})
"""The measures that take the same value on a text and on its reversal:

* delta: rev(T) has the reversed length-k substrings, so every count d_k is
  the same;
* gamma: p -> n+1-p maps the attractors of T to the attractors of rev(T);
* bms: reversing every phrase and its source keeps a macro scheme valid and
  of the same size.

``exhaustive_sensitivity`` sweeps these up to reversal.  The LZ measures
depend on the direction of the parse and are not in the set."""

MAX_GAIN = {"delta": 1}
"""Measure -> the most one edit of any kind can add to it on any text:

* delta: the length-k substrings of the edited text that the text lacks
  hold the edited position, or (a deletion) both symbols next to the gap,
  so there are at most k of them, or k - 1; every d_k/k grows by at most 1,
  and so does their maximum.  A deletion gains strictly less than 1.

A sweep by name stops once an edit reaches the base plus this gain
(``_first_max``'s ceiling), and an exhaustive chunk once a string does: no
later edit or string can replace the first maximum.  A measure given as a
callable gets no ceiling and is measured on every edited text."""


def _lz78_max_size(m: int, a: int) -> int:
    """The most phrases of an lz78 parse of m symbols over a symbols."""
    if m == 0:
        return 0
    budget, words, k = m - 1, 0, 1  # W(m - 1, a): every word of length k while they fit
    while budget >= k * a**k:
        budget -= k * a**k
        words += a**k
        k += 1
    return words + budget // k + 1


MAX_SIZE = {"lz78": _lz78_max_size}
"""Measure -> a function of (m, a), the largest size the measure takes on
any text of m symbols over an alphabet of a symbols:

* lz78: each phrase but the last is a new dictionary word, and the last
  one is new too or repeats an earlier phrase (a final copy), so the
  distinct phrases are non-empty words whose lengths sum to at most m - 1
  with a final copy and to m without.  Let W(L, a) be the most distinct
  non-empty words over a symbols whose lengths sum to at most L.  A set
  that omits a shorter word than one it holds trades the longer for it
  and stays within L, so W takes the shortest words first: the a words of
  length 1, the a^2 of length 2, and so on, then as many of the next
  length as the rest of L pays for.  Dropping the longest word of a set
  for L leaves one for L - 1, so W(m, a) <= W(m - 1, a) + 1, and either
  way the parse has at most W(m - 1, a) + 1 phrases.

The exhaustive sweeps (``_best_of_strings``) cap each string's edits at this
size of the edited strings, as they cap them at the base plus ``MAX_GAIN``.
Single-text sweeps do not use it."""

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
    kept.  ``family(symbols)`` gives ``(phrases, parse, danger)``: the
    parse of ``T``; ``parse(text, d, resume)``, the phrases of ``text`` from
    ``resume`` (or as many tuples: a greedy parse ends with T's own once it
    re-joins T's parse); and ``danger(text, d, resume, tail)``, the symbols
    that may parse otherwise than the placeholder text ``text`` (``_edited``
    with the symbol -1, which no text has), whose parse from ``resume`` is
    ``tail``.
    One parse of it serves every substitution or insertion at that position
    by a symbol outside the danger set.  Deletions are resumed only.
    """
    syms = T.symbols
    phrases, parse, danger = family(syms)
    stops = [_walk_end(phrase) for phrase in phrases]

    def sizes():
        at = None  # the position of d, k, resume and the shared parse
        for fields in _edit_fields(syms, symbols, (kind,)):
            _, position, symbol = fields
            if at != position:
                at = position
                d = position if kind == "ins" else position - 1
                k = bisect_left(stops, d)
                resume = phrases[k][0] - 1 if k < len(phrases) else len(syms)
                if kind != "del":
                    text = _edited(syms, kind, position, -1)
                    tail = parse(text, d, resume)
                    shared, unsafe = k + len(tail), danger(text, d, resume, tail)
            if kind != "del" and symbol not in unsafe:
                yield shared, fields
                continue
            yield k + len(parse(_edited(syms, kind, position, symbol), d, resume)), fields

    return len(phrases), sizes()


def _lz78_family(syms: tuple) -> tuple:
    """lz78 for ``_resumed``.  Every phrase of ``T`` that ends before d is a
    phrase of the edited text too, made from the same symbols against the
    same dictionary; a final ``copy`` phrase is never kept, since its walk
    stops where the text runs out.  The base trie D holds the kept phrases,
    and grows with d, at the first parse at each d.

    A substitution or insertion is parsed by walking only the phrase at
    ``resume`` on D.  That phrase runs out as a final ``copy``, or its walk
    stops at index x - 1 >= d and adds a new word u; the rest of the parse
    is then the parse of ``text[x:]`` on D ∪ {u}.  The text after d is the
    same for every symbol at one position, so one tail parse of ``text[x:]``
    on D serves them all: ``tails`` keeps one per x until d changes.

    The tail on D ∪ {u} equals the tail on D, sources included, unless the
    tail on D creates u.  A walk in D ∪ {u} differs from a walk in D only by
    stepping into u; at that step the walk in D stands at u's parent, reads
    u's last symbol and finds no child, so its phrase creates u.  Until a
    tail phrase does, every walk visits the same nodes in both tries, so the
    phrases and their sources agree.  A phrase creates the word of its
    source's node extended by its last symbol, so the tail creates u iff one
    of its phrases has u's source and last symbol (``creates``).  When that
    is phrase j, the two tails agree on phrases 0..j-1: the tail's first j
    insertions are put back, u is inserted with its start ``resume + 1``,
    the text is parsed from phrase j's start, and every insertion is taken
    out again.

    The placeholder text takes the same path with x = d + 1 and u = W·(-1)
    (W = ``text[resume:d]``), which no tail creates, since -1 occurs only at
    d.  A deletion, the one edit at its position, is parsed whole from
    ``resume``."""
    phrases = _lz78(syms)
    root: dict = {}
    kept = 0  # phrases of T in root
    at = None  # the d of kept and the tails
    tails: dict = {}  # x -> tail_from(text, x)

    def parsed(text: tuple, pos0: int, undo: list) -> list[tuple]:
        """``text`` parsed from ``pos0`` on root, which then loses the
        insertions in ``undo``: the ones made before and the parse's own."""
        phrases = _lz78(text, pos0, root, undo)
        for node, c in reversed(undo):
            del node[c]
        return phrases

    def tail_from(text: tuple, x: int) -> tuple:
        """The parse of ``text[x:]`` on D; its trie insertions, as
        ``(node, symbol)`` and as the entries they insert; and the phrase
        that creates each word, by the word's source and last symbol (one
        insertion per phrase but a final copy)."""
        made: list = []
        tail = _lz78(text, x, root, made)
        entries = [node[c] for node, c in made]
        for node, c in reversed(made):
            del node[c]
        creates = {
            (source, text[start + length - 2]): j
            for j, (start, length, kind, source) in enumerate(tail)
            if kind != "copy"
        }
        return tail, made, entries, creates

    def parse(text: tuple, d: int, resume: int) -> list[tuple]:
        nonlocal kept, at
        if at != d:
            at = d
            tails.clear()
            if kept < len(phrases):  # T's phrases from kept up to resume, into root
                kept += len(_lz78(syms, phrases[kept][0] - 1, root, None, resume))
        if len(text) < len(syms):  # a deletion, the one edit at its position
            return parsed(text, resume, [])
        log: list = []
        first = _lz78(text, resume, root, log, resume + 1)
        if not log:  # a final copy
            return first
        node, c = log[0]
        u = node.pop(c)
        x = resume + first[0][1]
        memo = tails.get(x)
        if memo is None:
            memo = tails[x] = tail_from(text, x)
        tail, made, entries, creates = memo
        j = creates.get((first[0][3], c))
        if j is None:
            return first + tail
        undo = made[:j]  # the tail's first j words, then u
        for (parent, s), entry in zip(undo, entries):
            parent[s] = entry
        node[c] = u
        undo.append((node, c))
        return first + tail[:j] + parsed(text, tail[j][0] - 1, undo)

    def danger(text: tuple, d: int, resume: int, tail: list[tuple]) -> set:
        return _lz78_danger(text, d, resume, phrases[:kept] + tail)  # kept == k

    return phrases, parse, danger


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
    too, and the family keeps no state that grows with d.  T is parsed by
    ``_greedy_walk`` on its string S (``core._as_strs``), and an edited text
    U from ``resume`` on its string, sliced from S around d; one character
    absent from S stands for the placeholder -1 and for any symbol new to
    T, which occur in U only at d.  The danger sets read T's shared
    automaton, which no code mutates (``_greedy_danger``).

    The parse stops where it re-joins the parse of T.  The edit keeps T[:d]
    in place and moves T[r:] by s: a substitution has r = d + 1 and s = 0,
    an insertion r = d and s = 1, a deletion r = d + 1 and s = -1.  An
    occurrence in T covers the edit if it holds d (substitution, deletion)
    or both d - 1 and d (insertion): these are the occurrences of T that U
    lacks.  The occurrences of U that T lacks cover d in U: they hold U[d]
    (substitution, insertion), or U[d - 1] and U[d] (deletion).  Every other
    occurrence is in both texts, in place before the edit and moved by s
    after it, so it starts (with overlap) or ends (without) before T's
    phrase at a >= r exactly when it does before a + s in U.  Say that
    phrase's walk reads W and stops at x, the index's symbol; its window is
    W·x (``_window_end``).  The phrase is blocked if

    * it is fragile: every admissible occurrence of W in T covers the edit,
      so the walk in U may stop inside W.  Those occurrences all hold the
      interval [lo, hi] of ``fragile`` (lo the start of the last one,
      found by ``rfind`` on T as a string, ``core._as_strs``, or on its
      packed view, ``factorizers._packed``; hi the end of the first, the
      phrase's source), so the phrase is fragile at d iff
      lo <= d <= hi, or lo + 1 <= d <= hi for an insertion.  A literal
      copies nothing and is never fragile.
    * or its window occurs in U covering d, so the walk in U may read past
      x.  For a substitution or insertion this is clause (c) of
      ``_greedy_danger`` (``_crossing``), and the window's symbol at U[d] is
      the edit's; for a deletion it spans U[d - 1] = T[d - 1] and
      U[d] = T[d + 1], so it occurs in T[d - k + 1 : d] + T[d + 1 : d + k],
      k its length.  A walk that ran out at the text's end has no window.

    Otherwise W occurs admissibly in U and W·x does not, so the walk at
    a + s in U reads W and stops at x, or runs out at the end if T's did.
    LZSS, with overlap or without, then makes the same phrase: a copy of W,
    or a literal, which a copy of length one would not move either, so an
    LZSS literal's window takes one more symbol.  LZ77 makes W·x, a literal
    when W is empty, and a final copy when the walk ran out; a literal's
    window is not widened, since a copy there makes a phrase of two symbols.
    So once the parse of U stands at a + s for T's phrase m, and no phrase
    from m on is blocked, it goes on with T's phrases from m on, moved by s:
    the size is the phrases made so far plus T's phrases left.

    The barrier is the last blocked phrase, or the last before r.  The
    fragile phrases, and a deletion's spanning windows, are found once per
    position; the windows with a symbol once per position and symbol
    (``blocks``), among T's phrases after that barrier.  The placeholder
    symbol -1 is in no window, so its parse stops past the fragile phrases,
    and the parse with symbol c also past the windows with c: the walk
    stops at the first phrase start of U that T's phrase after the barrier
    is moved to (``joins``).  ``parse`` returns the phrases it made, then
    T's phrases from the one it re-joined at: the right count.  The
    placeholder parse's phrases from there on have T's windows, so its
    danger set is ``_greedy_danger``'s over the phrases it made plus the
    symbols of ``blocks`` from that phrase on."""
    S, fresh = _as_strs(syms, (-1,))
    phrases = _greedy_walk(S, 0, overlap, take_next, {}, -1)[0]
    sa = _suffix_automaton(SymbolString._trusted(syms))  # read only, by the danger sets
    n = len(syms)
    chars = dict(zip(syms, S))
    chars[None] = ""  # a deletion writes nothing
    Sp, kp = _packed(S)  # S's packed view and its k
    starts, fragile, windows = [], [], []
    for phrase in phrases:
        a = phrase[0] - 1
        copied = _walk_end(phrase) - a
        lo, hi = n, -1  # a literal copies nothing
        if copied:
            # the last occurrence that starts (overlap) or ends (no overlap)
            # before a, and the first, the phrase's source; a copy longer
            # than k is looked for in S's packed view, as the walk does
            end = a + copied - 1 if overlap else a
            if copied > kp:
                lo = Sp.rfind(Sp[a : a + copied - kp], 0, end - kp)
            else:
                lo = S.rfind(S[a : a + copied], 0, end)
            hi = phrase[3] + copied - 2
        fragile.append((lo, hi))
        starts.append(a)
        j = _window_end(phrase, take_next)
        windows.append(syms[a:j] if j <= n else None)
    moved: dict = {}  # s -> {index of U: the phrase of T moved there}
    at = None  # the (d, s) of barrier and blocks
    barrier = joined = 0  # joined: the phrase of T the last parse re-joined at
    blocks: dict = {}  # symbol -> the last phrase after barrier its window blocks

    def parse(text: tuple, d: int, resume: int) -> list[tuple]:
        nonlocal at, barrier, joined, blocks
        shift = len(text) - n
        joins = moved.get(shift)
        if joins is None:
            joins = moved[shift] = {a + shift: m for m, a in enumerate(starts)}
        if at != (d, shift):
            at = d, shift
            blocks = {}
            barrier = bisect_left(starts, d + (shift <= 0)) - 1  # the phrases before r
            for m in range(len(phrases) - 1, barrier, -1):
                lo, hi = fragile[m]
                a, k = starts[m], len(windows[m] or ())
                if lo + (shift > 0) <= d <= hi or (
                    shift < 0 and k and S[a : a + k] in S[max(0, d - k + 1) : d] + S[d + 1 : d + k]
                ):
                    barrier = m
                    break
        c = text[d] if shift >= 0 else None
        U = S[:d] + chars.get(c, fresh) + S[d + (shift <= 0) :]
        made, stop = _greedy_walk(
            U, resume, overlap, take_next, joins, max(barrier, blocks.get(c, -1))
        )
        joined = joins.get(stop, len(phrases))
        return made + phrases[joined:]

    def danger(text: tuple, d: int, resume: int, tail: list[tuple]) -> set:
        # tail is the placeholder parse's, the last one made
        for m in range(len(phrases) - 1, barrier, -1):
            for c in _crossing(text, d, windows[m] or ()):
                blocks.setdefault(c, m)
        made = tail[: len(tail) - len(phrases) + joined]
        danger = _greedy_danger(sa, text, d, resume, made, take_next)
        danger.update(c for c, m in blocks.items() if m >= joined)
        return danger

    return phrases, parse, danger


def _window_end(phrase: tuple, take_next: bool) -> int:
    """The index after the window of a ``_greedy`` phrase: the symbols its
    walk read, the one it stopped at included, and one more for an LZSS
    literal; past the text's end when the walk ran out."""
    return _walk_end(phrase) + 1 + (not take_next and phrase[2] == "literal")


def _crossing(text: tuple, d: int, w: tuple) -> Iterator[int]:
    """The symbols ``w[x]`` for the offsets x at which ``w`` occurs in
    ``text`` from d - x, but for the symbol at d."""
    m = len(w)
    for x in range(min(m, d + 1)):
        # the symbols next to d first, then the whole suffix and prefix
        if (
            (x == 0 or text[d - 1] == w[x - 1])
            and (x == m - 1 or text[d + 1] == w[x + 1])
            and text[d - x : d] == w[:x]
            and text[d + 1 : d + m - x] == w[x + 1 :]
        ):
            yield w[x]


def _greedy_danger(
    sa: tuple, text: tuple, d: int, resume: int, tail: list[tuple], take_next: bool
) -> set:
    """The symbols c for which L c R may parse differently from the
    placeholder text ``text`` = L -1 R (L = ``text[:d]``; ``tail`` is the
    placeholder parse from ``resume``).  ``sa`` is the automaton of a text
    that starts with L: T's, in the sweeps, read only.  A word occurs in L
    exactly when its state's ``firstpos`` is at most d, so (a) and (b) keep
    only such transitions (``follows``).

    Outside this set the two parses have the same phrase boundaries, hence
    the same size.  For LZSS with overlap the argument runs phrase by phrase:
    the tests of a walk are monotone, and an occurrence that ends before the
    walk's index and avoids d is in both texts, so a walk can only get
    longer in L c R, and only by an occurrence that holds d.

    (a) The phrase at ``resume`` < d: its walk reads ``text[resume:d]`` and
        stops at the placeholder; it reads on with c when that word followed
        by c occurs in L (``follows``).
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
    trans, firstpos = sa[3:]

    def follows(v: int, c) -> bool:  # the words of state v, then c, occur in L
        w = trans[v].get(c)
        return w is not None and firstpos[w] <= d

    danger: set = set()
    if resume < d or take_next:  # (a)
        v = 0
        for x in text[resume:d]:
            v = trans[v][x]
        danger.update(c for c in trans[v] if follows(v, c))
    n = len(text)
    if not take_next and d + 1 < n:  # (b)
        r0 = text[d + 1]
        danger.update(c for c, v in trans[0].items() if follows(v, r0))
        if d and text[d - 1] == r0:
            danger.add(r0)
    for phrase in tail:  # (c)
        a = phrase[0] - 1
        j = _window_end(phrase, take_next)
        if a > d and j <= n:
            danger.update(_crossing(text, d, text[a:j]))
    return danger


# measure name -> resumed sweep: (T, kind, symbols) -> (size of T, (size,
# fields) per edit); greedy flavors' flags are read off FACTORIZERS' loops
RESUMED_SWEEPS = {"lz78": partial(_resumed, _lz78_family)}
RESUMED_SWEEPS.update(
    (name, partial(_resumed, partial(_greedy_family, **loop.keywords)))
    for name, (_, loop) in FACTORIZERS.items()
    if getattr(loop, "func", None) is _greedy
)


def _sweep_alphabet(alphabet: Iterable[int], syms: tuple, edit_kind: str) -> list[int]:
    """The sorted edit symbols of a sweep of a checked edit kind:
    ``alphabet`` plus one symbol new to it and to the text."""
    if edit_kind not in EDIT_KINDS:
        raise InputError(f"unknown edit kind {edit_kind!r}")
    sigma = set(alphabet)
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


def _first_max(size, upper, edits: Iterable[tuple], floor=None, ceiling=None):
    """The first largest ``(size, fields)`` over ``edits``, ``(text,
    fields)`` pairs in the order of ``_edit_fields``, or None when its size
    is not above ``floor`` (or there is no edit).  ``text`` is what ``size``
    and ``upper`` take: the edited symbols in a single-text sweep, the edited
    string's renaming key in an exhaustive one (``_edit_keys``).

    ``upper``, None or a function never below ``size``, prunes: an edited
    text is measured only when its bound is above the bar, the larger of
    ``floor`` and the first maximum so far, since only a strictly larger
    value can replace either.  With no floor, the first edit is always
    measured, so a cap of the exact search is never skipped.

    ``ceiling``, None or a size no edit exceeds (the base plus ``MAX_GAIN``,
    or ``MAX_SIZE``), ends the loop once the bar reaches it, and at once
    when the floor does.
    """
    if floor is not None and ceiling is not None and floor >= ceiling:
        return None
    best, bar = None, floor
    for U, fields in edits:
        if bar is not None and upper is not None and upper(U) <= bar:
            continue
        value = size(U)
        if bar is None or value > bar:
            best, bar = (value, fields), value
            if ceiling is not None and bar >= ceiling:
                break
    return best


def _sized(fn):
    """``fn`` of the text with these symbols; the empty text measures 0."""
    return lambda syms: fn(SymbolString._trusted(syms)) if syms else 0


def sensitivity_of_string(
    measure,
    T: SymbolString,
    edit_kind: str,
    alphabet: Iterable[int],
    source: str = "witness",
) -> SensitivityRecord:
    """Worst increase of the measure over all edits of one kind on ``T``.

    One symbol never occurring in ``T`` or ``alphabet`` is added to the edit
    alphabet, since the worst growth typically needs a fresh symbol.  The
    maximizer is the first edit in enumeration order, so reruns agree.  The
    empty text (left by deleting the only symbol) measures 0 here.

    Edits are streamed as plain ``(kind, position, symbol)`` fields and only
    sizes are computed; the maximizer alone becomes an ``Edit``.  A measure
    named in ``RESUMED_SWEEPS`` (``lz78`` and the four greedy LZSS/LZ77
    flavors) parses ``T`` once and each edited text only from the phrase
    holding the edit, and the symbols that cannot change that parse at a
    position share one (see ``_resumed``).  Any other measure, and a
    callable, takes the ``MEASURES`` path (``_first_max``): a full parse of
    every edited text, except that a measure named in ``UPPER_BOUNDS`` is
    solved only where its bound is above the first maximum so far, the bar
    a later edit must pass to replace it, and that a measure named in
    ``MAX_GAIN`` (delta) stops at the first edit that gains that much.
    """
    fn, name = _measure_fn(measure)
    syms = T.symbols
    sigma = _sweep_alphabet(alphabet, syms, edit_kind)
    by_name = isinstance(measure, str)
    resumed = RESUMED_SWEEPS.get(measure) if by_name else None
    if resumed:
        base, values = resumed(T, edit_kind, sigma)
        best = max(values, key=itemgetter(0), default=None)
    else:
        size = _sized(fn)
        bound = UPPER_BOUNDS.get(measure) if by_name else None
        upper = _sized(MEASURES[bound]) if bound else None
        base = size(syms)
        fields_of = _edit_fields(syms, sigma, (edit_kind,))
        edits = ((_edited(syms, *fields), fields) for fields in fields_of)
        cap = MAX_GAIN.get(measure) if by_name else None
        ceiling = None if cap is None else base + cap
        best = _first_max(size, upper, edits, ceiling=ceiling)
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


def _edit_keys(syms: tuple, symbols: list, kind: str) -> Iterator[tuple]:
    """``(key, fields)`` for the ``kind`` edits of the canonical string
    ``syms`` by the sorted ``symbols`` (``_edit_fields``): the key is the
    edited string's ``_renaming_key``.

    The first j symbols of a canonical string name exactly 0..named[j]-1.
    An edit that moves no first occurrence and writes no name past the next
    leaves the edited string canonical, its own key, so the key is the
    base's bytes with the edit made.  With i 1-based, that is

    * a substitution with base[i-1] < named[i-1] (not a first occurrence)
      and symbol <= named[i-1];
    * an insertion after i symbols with symbol <= named[i];
    * a deletion with base[i-1] < named[i-1].

    Every other edit, and every edit when a symbol is above 255 (no byte),
    is keyed from its edited string.  A cut key spells the edited string in
    the base's names, so even a key that is not canonical is measured right:
    it would only miss the memo entry of its class."""
    edits = _edit_fields(syms, symbols, (kind,))
    if symbols[-1] > 255:
        for fields in edits:
            yield _renaming_key(_edited(syms, *fields)), fields
        return
    base = bytes(syms)
    byte = {s: bytes((s,)) for s in symbols}
    byte[None] = b""  # a deletion writes nothing
    named = [0]
    for s in syms:
        named.append(max(named[-1], s + 1))
    left = 0 if kind == "ins" else 1  # the symbols before i kept: i, or i - 1
    for fields in edits:
        _, i, s = fields
        if kind == "sub":
            cut = syms[i - 1] < named[i - 1] and s <= named[i - 1]
        elif kind == "ins":
            cut = s <= named[i]
        else:
            cut = syms[i - 1] < named[i - 1]
        if cut:
            yield base[: i - left] + byte[s] + base[i:], fields
        else:
            yield _renaming_key(_edited(syms, *fields)), fields


def _renaming_memo(fn, capacity: int):
    """``fn`` of the text a renaming key (``_renaming_key``) stands for,
    evaluated once per renaming class on the key's own canonical text,
    ``SymbolString._trusted(tuple(key))``: every measure depends only on the
    text's equality structure.  The empty key measures 0.  At most
    ``capacity`` classes are stored (``memo`` holds them); once full the
    memo stops inserting.  Equal values share one object."""
    memo: dict = {}
    values: dict = {}

    def measure(key):
        if not key:
            return 0
        value = memo.get(key)
        if value is None:
            value = fn(SymbolString._trusted(tuple(key)))
            if len(memo) < capacity:
                memo[key] = values.setdefault(value, value)
        return value

    measure.memo = memo
    return measure


def _swept_strings(measure: str, n: int, sigma: int) -> Iterator[tuple]:
    """The strings an exhaustive sweep of ``measure`` measures, in increasing
    order: the canonical strings, and for a measure in ``REVERSAL_INVARIANT``
    only those not above the canonical form of their reversal."""
    strings = canonical_strings(n, sigma)
    if measure in REVERSAL_INVARIANT:
        return (s for s in strings if s <= tuple(_renaming_key(s[::-1])))
    return strings


def _best_of_strings(args) -> tuple | None:
    """The worst string of chunk k of ``jobs``, every jobs-th string from
    the k-th of ``_swept_strings``, as ``((-gain, symbols), base, (value,
    fields))``, or None when the chunk is empty.  The chunk is drawn as it
    is swept, so no list of the strings is held.  The least key is the one
    tie-break of the exhaustive sweeps: the largest gain, then the smallest
    string.  Every string of length n >= 1 has a legal edit of each kind,
    since the fresh symbol is in the edit alphabet.

    The strings come in increasing order, so a later one replaces the worst
    so far only with a strictly larger gain: its edits must beat ``base +
    gain``, the floor given to ``_first_max``.  Each edit comes keyed by its
    renaming class (``_edit_keys``), and both memos take the key.  A measure
    named in ``UPPER_BOUNDS`` is solved only where its bound is above that
    bar; the bound has its own renaming memo of the same capacity.

    The ceiling given to ``_first_max`` is the smaller of ``base + cap``
    for a measure named in ``MAX_GAIN`` and the ``MAX_SIZE`` of the edited
    strings' length and alphabet (sigma, and the fresh symbol unless the
    edit deletes).  A string whose floor has reached it is skipped without
    an edit measured, and the loop ends once the worst gain so far is
    ``cap``: no later string can beat it."""
    measure_name, n, sigma, k, jobs, edit_kind, symbols, capacity = args
    strings = islice(_swept_strings(measure_name, n, sigma), k, None, jobs)
    size = _renaming_memo(MEASURES[measure_name], capacity)
    bound = UPPER_BOUNDS.get(measure_name)
    upper = _renaming_memo(MEASURES[bound], capacity) if bound else None
    cap = MAX_GAIN.get(measure_name, math.inf)
    # the edited strings' length and alphabet: sigma, and the fresh symbol unless deleting
    length = n + (edit_kind == "ins") - (edit_kind == "del")
    letters = len(symbols) - (edit_kind == "del")
    most = MAX_SIZE[measure_name](length, letters) if measure_name in MAX_SIZE else math.inf
    worst = None
    for syms in strings:
        base = size(_renaming_key(syms))
        floor = None if worst is None else base - worst[0][0]
        ceiling = min(base + cap, most)
        top = _first_max(size, upper, _edit_keys(syms, symbols, edit_kind), floor, ceiling)
        if top is not None:
            worst = (base - top[0], syms), base, top
            if top[0] - base == cap:
                break
    return worst


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

    ``jobs`` asks for worker processes; the strings are split into at most
    ``min(jobs, os.cpu_count())`` chunks, no more than there are canonical
    strings, one per worker, and a single chunk runs in this process, so no
    pool starts more processes than there are cores.  Each chunk draws its
    own strings from the generator (``_swept_strings``), so no list of them
    is built, and a chunk that the reversal filter leaves empty is skipped.
    The memo lives for one chunk and holds at most as many entries as the
    ``REPSENS_LIMIT_EXHAUSTIVE`` cap on sigma**n (``config.LIMITS``), past
    which the sweep raises ``CapabilityError``; once full it stops inserting
    and evaluates the rest afresh.  The sweep runs on symbol tuples and edit
    fields; only the winner gets an ``Edit``.
    Each chunk and the reduction across chunks take the least key of
    ``_best_of_strings`` (the largest gain, ties to the lexicographically
    smallest string), so neither the worker count nor the memo changes the
    answer.

    That tie-break sets a bar: a chunk sweeps its strings in increasing
    order, so a string replaces the worst so far only if one of its edits
    beats ``base + gain`` of the worst so far, and within a string only if
    it beats the first maximum so far.  A measure in ``UPPER_BOUNDS``
    (``lzend_opt``, bms) runs its exact search on an edited string only when
    the string's bound, memoised by renaming class in a second memo of the
    same capacity, is above the bar; every other measure is evaluated once
    per renaming class of the edited strings.  A measure in ``MAX_GAIN``
    (delta) ends a string's edits once one reaches its base plus that gain,
    and a chunk's strings once one does.  A measure in ``MAX_SIZE`` (lz78)
    ends a string's edits once one reaches the most any edited string can
    measure, and skips a string whose base plus the worst gain so far is
    there.  Either way the record is the one that measuring every edited
    string would give.

    Each edit is keyed by its edited string's renaming class
    (``_edit_keys``): an edit that keeps the canonical base canonical is
    keyed by the base's bytes with the edit made, without building the
    edited string, and the memo measures the canonical text a key stands
    for, so both memos share one key per edit.
    """
    if measure not in MEASURES:
        raise InputError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    if n < 1 or sigma < 1:
        raise InputError("need n >= 1 and sigma >= 1")
    budget = config.check("REPSENS_LIMIT_EXHAUSTIVE", n, sigma)
    # canonical strings use only symbols below sigma, so sigma is the fresh one
    symbols = _sweep_alphabet(range(sigma), (), edit_kind)
    # no more workers than cores, nor than canonical strings
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    jobs = len(list(islice(canonical_strings(n, sigma), jobs)))
    chunks = [(measure, n, sigma, k, jobs, edit_kind, symbols, budget) for k in range(jobs)]
    if jobs == 1:
        results = map(_best_of_strings, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when used

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_best_of_strings, chunks))
    # strings differ, so the keys do: min never compares further
    (_, syms), base, top = min(r for r in results if r is not None)
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
    for point in points:
        if point[0] <= 0:
            raise InputError(f"growth fit needs positive sizes, got the point {point}")
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
