"""Constructive repairs: given a certificate for a text (attractor, macro
scheme, or LZ-End parsing) and one edit, build a certificate for the edited
text with a per-instance size bound, without re-solving from scratch.

Every procedure reports how each input phrase was handled so the per-case
phrase budgets can be audited; ``case_tally`` is that ledger summed per label.
The two phrase repairs take the input phrases in order, and each phrase
emits its pieces, already in edited coordinates, its ledger row and (for
``bms_repair``) its cap in one place.  An insertion between phrases becomes
a lone new symbol with ledger row ``(0, label, 1)``: it comes last in
``bms_repair``'s ledger and in phrase order in ``lzend_repair``'s.  One cut
(``_cut_damaged``) serves both copies whose source the edit damages:
``bms_repair``'s case 3 and ``lzend_repair``'s case 3B.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from math import isqrt
from operator import attrgetter

from .core import Edit, InputError, SymbolString, _as_strs, _edited, check_edit
from .factorizers import Factorization, Phrase, check_factorization
from .measures import _attractor_positions, bms_check, is_attractor


@dataclass
class RepairReport:
    procedure: str
    edit: Edit
    input_size: int
    output_size: int
    bound: int
    case_tally: dict = field(default_factory=dict)
    ledger: tuple = ()
    n_in: int = 0
    n_out: int = 0

    CSV_HEADER = (
        "procedure,edit_kind,edit_pos,edit_symbol,n_in,n_out,"
        "input_size,output_size,bound,cases"
    )

    def __post_init__(self):
        if self.output_size > self.bound:
            raise AssertionError(
                f"internal: repair output {self.output_size} exceeds bound {self.bound}"
            )

    def csv_row(self) -> str:
        sym = "" if self.edit.symbol is None else str(self.edit.symbol)
        cases = ";".join(f"{k}={v}" for k, v in sorted(self.case_tally.items()))
        return (
            f"{self.procedure},{self.edit.kind},{self.edit.position},{sym},"
            f"{self.n_in},{self.n_out},{self.input_size},{self.output_size},"
            f"{self.bound},{cases}"
        )


def _ceil_sqrt(m: int) -> int:
    c = isqrt(m)
    return c if c * c == m else c + 1


def _check_repair_edit(T: SymbolString, e: Edit) -> None:
    check_edit(T, e)
    if e.kind == "sub" and T.at(e.position) == e.symbol:
        raise InputError("substitution must write a different symbol")


# (T.symbols, gamma) of the last input found to be an attractor: repairing
# every edit of one text checks that text's attractor once.
_last_attractor: tuple | None = None


def attractor_repair(T: SymbolString, gamma, e: Edit):
    """Attractor for the edited text built from an attractor of the original.

    The new set keeps the old positions (coordinate-mapped) and adds: a grid
    catching every occurrence of every long substring, one stabbing position
    per maximal short substring whose occurrence ran through the edited spot,
    and the edited position itself.  Growth is at most
    floor(sqrt(m)) + ceil(sqrt(m)) + 2 positions, m the edited length.

    The short substrings are intervals [a, b] of T, at most cap =
    ceil(sqrt(m)) long, whose content still occurs in the edited text T'.
    For each a let b(a) be the largest such b; an interval through the
    edited spot needs a position only when its b(a) exceeds every earlier
    a's, placed on the edited spot inside the leftmost occurrence of
    T[a..b(a)] in T'.  b(a) never decreases in a, because T[a+1..b(a)] is a
    suffix of a word that occurs and is shorter than cap.  So the walk
    carries b over from the previous a, re-finds T[a..b] and extends it a
    symbol at a time, searching on from the last hit: the leftmost
    occurrence of a word never lies left of the leftmost occurrence of its
    prefix.  That is about 3 * cap string searches.

    The searches run on strings (``core._as_strs``), not on an automaton:
    T' is read once, for O(sqrt(m)) searches, so building its automaton
    would cost more than the questions it answers.
    """
    global _last_attractor
    _check_repair_edit(T, e)
    gamma = _attractor_positions(gamma)  # ints before the memo check: {2.0} == {2}
    if (T.symbols, gamma) != _last_attractor:
        if not is_attractor(T, gamma):
            raise InputError("the given position set is not an attractor of the text")
        _last_attractor = (T.symbols, gamma)
    n = len(T)
    i = e.position
    syms = T.symbols
    symsp = _edited(syms, e.kind, i, e.symbol)
    m = len(symsp)
    g = isqrt(m)
    cap = _ceil_sqrt(m)
    bound = len(gamma) + g + cap + 2
    if m == 0:
        out = frozenset()
        return out, RepairReport("attractor", e, len(gamma), 0, bound, n_in=n, n_out=0)

    points = {g * k for k in range(1, g + 1)}  # the grid
    points.add((g * g + m) // 2)

    # T' and the window of T the intervals can reach, one character per symbol
    text, word = _as_strs(symsp, syms[: min(n, i + cap - 1)])
    best_b = 0
    b_min = i + 1 if e.kind == "ins" else i
    b = j = 0  # T[a..b] occurs in T', leftmost at the 0-based j
    for a in range(max(1, b_min - cap + 1), i + 1):
        if b < a:
            b, j = a - 1, 0
        else:
            j = text.find(word[a - 1 : b])
        stop = min(n, a + cap - 1)
        while b < stop:
            k = text.find(word[a - 1 : b + 1], j)
            if k < 0:
                break
            b, j = b + 1, k
        if b >= b_min and b > best_b:
            best_b = b
            points.add(j + (i - a + 1))

    # the old marks, mapped; a mark on the edited spot is dropped, because the
    # seam holds that position
    kept = gamma - {i} if _interval_hit(e.kind, i, i, i) else gamma
    points.update(map(_shift_fn(e.kind, i), kept))
    points.add(i + 1 if e.kind == "ins" else min(i, m))  # the seam
    out = frozenset(points)
    return out, RepairReport("attractor", e, len(gamma), len(out), bound, n_in=n, n_out=m)


def _shift_fn(kind: str, i: int):
    """Original-position to edited-position map (undefined at a deleted spot)."""
    if kind == "sub":
        return lambda x: x
    if kind == "ins":
        return lambda x: x if x <= i else x + 1
    return lambda x: x if x < i else x - 1


def _interval_hit(kind: str, i: int, a: int, b: int) -> bool:
    """Whether editing at i damages the contiguous region [a, b]."""
    if kind == "ins":
        return a <= i and b >= i + 1
    return a <= i <= b


def _cut_damaged(kind: str, i: int, p: int, L: int, q: int) -> list:
    """Pieces ``(start, length, source)``, in original coordinates, of the copy
    [p, p + L) from q whose source region the edit at i damages: cut at the
    damaged spot, with source None for the symbol that lost its source
    (substitution/deletion), or just split in two (insertion, where the
    source content is merely displaced)."""
    if kind == "ins":
        off = i - q + 1
        return [(p, off, q), (p + off, L - off, i + 1)]
    off = i - q
    pieces = [(p, off, q), (p + off, 1, None), (p + off + 1, L - off - 1, i + 1)]
    return [piece for piece in pieces if piece[1] > 0]


def _tally(ledger, labels=()) -> dict:
    """The ledger's piece counts summed per label, ``labels`` listed first
    (at 0 when the ledger never names them)."""
    tally = dict.fromkeys(labels, 0)
    for _, label, count in ledger:
        tally[label] = tally.get(label, 0) + count
    return tally


def _shifted(shift, p: int, L: int, q) -> Phrase:
    """The phrase [p, p + L) copying from q (None: ground), in edited
    coordinates."""
    return Phrase(shift(p), L, "literal") if q is None else Phrase(shift(p), L, "copy", shift(q))


def _bms_pieces(kind: str, i: int, shift, p: int, L: int, q) -> list[Phrase]:
    """Edited-text phrases for the part [p, p + L) of an input phrase that
    copies from q (None: ground): none when it is empty, else the part
    itself or, where the edit damages its source, ``_cut_damaged``'s pieces;
    a piece one symbol long is ground."""
    if L > 1 and q is not None and _interval_hit(kind, i, q, q + L - 1):
        pieces = _cut_damaged(kind, i, p, L, q)
    else:
        pieces = [(p, L, q)] if L else []
    return [_shifted(shift, at, length, src if length > 1 else None) for at, length, src in pieces]


def bms_repair(T: SymbolString, S: Factorization, e: Edit):
    """Valid macro scheme for the edited text built from one of the original.

    A first pass finds the copies whose source, but not their own region,
    the edit damages (case 3), and the host of each one nested in another's
    source: the first such enclosing copy not nested itself.  A second pass
    takes the phrases in order, each emitting its pieces (in edited
    coordinates), its ledger row and its cap: the phrase holding the edit
    splits into at most five pieces (case 1), an untouched phrase survives
    (case 2), a nested damaged copy re-points at its host's copy of that
    source, and any other damaged copy splits into at most three pieces
    around the damaged spot.  An insertion between phrases stands alone,
    placed before the phrase after it; its ledger row, phrase 0, comes last.
    """
    reason = bms_check(T, S)
    if reason is not None:
        raise InputError(f"input scheme is not a valid macro scheme: {reason}")
    _check_repair_edit(T, e)
    i, kind = e.position, e.kind
    Tp = SymbolString._trusted(_edited(T.symbols, kind, i, e.symbol))
    shift = _shift_fn(kind, i)
    phrases = S.phrases

    # case 3 copies by source interval; j holds k when j's source encloses
    # k's, an equal one held by the earliest
    damaged = {
        k: (ph.source, ph.source + ph.length)
        for k, ph in enumerate(phrases)
        if ph.source is not None
        and _interval_hit(kind, i, ph.source, ph.source + ph.length - 1)
        and not _interval_hit(kind, i, ph.start, ph.end)
    }
    holders = {
        k: [
            j for j, (a, b) in damaged.items()
            if a <= q and end <= b and ((a, b) != (q, end) or j < k)
        ]
        for k, (q, end) in damaged.items()
    }
    host = {k: next(j for j in held if not holders[j]) for k, held in holders.items() if held}

    seam = i + 1 if kind == "ins" else i  # where the new symbol lands
    new = Phrase(seam, 1, "literal")
    hit_cap = {"sub": 5, "del": 4, "ins": 4}[kind]
    cut_cap = {"sub": 3, "del": 3, "ins": 2}[kind]
    out, ledger, bound = [], [], 0
    for k, ph in enumerate(phrases):
        p, L, q = ph.start, ph.length, ph.source
        if _interval_hit(kind, i, p, ph.end):
            # the part before the edited spot, the new symbol, the part after
            label, cap = "bms:1", hit_cap if L > 1 else int(kind != "del")
            pieces = _bms_pieces(kind, i, shift, p, seam - p, q)
            if kind != "del":
                pieces.append(new)
            tail = None if q is None else q + (i + 1 - p)
            pieces += _bms_pieces(kind, i, shift, i + 1, ph.end - i, tail)
        elif k in host:
            h = phrases[host[k]]
            label, cap, pieces = "bms:3", 1, [_shifted(shift, p, L, h.start + (q - h.source))]
        elif k in damaged:
            label, cap, pieces = "bms:3", cut_cap, _bms_pieces(kind, i, shift, p, L, q)
        else:
            label, cap, pieces = "bms:2", 1, [_shifted(shift, p, L, q)]
        out += pieces
        ledger.append((k + 1, label, len(pieces)))
        bound += cap
    if kind == "ins" and new not in out:
        # no phrase holds the insertion: the new symbol stands alone, before
        # the phrase after it
        bisect.insort(out, new, key=attrgetter("start"))
        ledger.append((0, "bms:1", 1))
        bound += 1

    scheme = Factorization(tuple(out), "bms")
    reason = bms_check(Tp, scheme)
    if reason is not None:
        raise AssertionError(f"internal: repaired scheme invalid ({reason})")
    report = RepairReport(
        "bms", e, S.size, scheme.size, bound, _tally(ledger), tuple(ledger),
        n_in=len(T), n_out=len(Tp),
    )
    return scheme, report


def _boundary_walk(phrases, old_ends: list[int], w_start0: int, w_len: int) -> list[Phrase]:
    """Split the text region [w_start0, w_start0 + w_len) into copy phrases
    whose sources end at phrase ends from ``old_ends``.

    Keeps one occurrence of the remaining part in hand; while it contains no
    usable phrase end, the occurrence lies strictly inside a single copy
    phrase and hops to its image inside that phrase's source.  Cutting at the
    rightmost contained end makes the end indices strictly decrease across
    pieces, which bounds the piece count by the number of earlier phrases.
    """
    starts = [ph.start for ph in phrases]
    pieces = []
    occ0 = w_start0
    rem = w_len
    while rem > 0:
        while True:
            k = bisect.bisect_right(old_ends, occ0 + rem) - 1
            if k >= 0 and old_ends[k] >= occ0 + 1:
                end = old_ends[k]
                break
            mi = bisect.bisect_right(starts, occ0 + 1) - 1
            ph = phrases[mi]
            if ph.source is None:
                raise AssertionError("internal: boundary walk entered a literal")
            occ0 = (ph.source - 1) + (occ0 - (ph.start - 1))
        piece_len = end - occ0
        pieces.append(Phrase(w_start0 + w_len - rem + 1, piece_len, "copy", occ0 + 1))
        rem -= piece_len
        occ0 = end
    return pieces


def _single_char_phrase(syms_out: tuple, pos1: int, emitted) -> Phrase:
    """Phrase for one symbol of the edited text: a literal when the symbol is
    fresh, otherwise a copy whose source ends at the end of an ``emitted``
    phrase."""
    c = syms_out[pos1 - 1]
    if syms_out.index(c) == pos1 - 1:
        return Phrase(pos1, 1, "literal")
    for ph in emitted:
        if ph.end <= pos1 - 1 and syms_out[ph.end - 1] == c:
            return Phrase(pos1, 1, "copy", ph.end)
    raise AssertionError("internal: repeated symbol with no phrase-end occurrence")


def lzend_repair(T: SymbolString, F: Factorization, e: Edit):
    """LZ-End parsing of the edited text built from one of the original.

    One pass takes the phrases in order, each emitting its pieces (in edited
    coordinates) and its ledger row.  A phrase before the edit is kept (case
    1).  The phrase holding it is rebuilt as boundary-walk pieces, the edited
    symbol, and a tail sourced at the old source's tail (case 2).  A later
    phrase survives unchanged (case 3A) unless its source was damaged (case
    3B), in which case ``_cut_damaged`` splits it around the damaged symbol,
    in two on insertion.  An insertion between phrases stands alone before
    the phrase after it, and its ledger row, phrase 0, sits in that place.
    """
    if F.flavor != "lzend":
        raise InputError(f"expected an lzend factorization, got flavor {F.flavor!r}")
    reason = check_factorization(T, F)
    if reason is not None:
        raise InputError(f"input factorization invalid: {reason}")
    _check_repair_edit(T, e)
    n = len(T)
    i, kind = e.position, e.kind
    symsp = _edited(T.symbols, kind, i, e.symbol)
    Tp = SymbolString._trusted(symsp)
    shift = _shift_fn(kind, i)
    seam = i + 1 if kind == "ins" else i  # where the new symbol lands
    phrases = F.phrases
    out: list[Phrase] = []
    ledger = []
    for k, ph in enumerate(phrases, 1):
        p, L, q = ph.start, ph.length, ph.source
        if kind == "ins" and p == seam:  # between phrases: the new symbol first
            out.append(_single_char_phrase(symsp, seam, out))
            ledger.append((0, "lzend:2", 1))
        emitted = len(out)
        if ph.end < seam:
            label = "lzend:1"
            out.append(ph)
        elif _interval_hit(kind, i, p, ph.end):
            label = "lzend:2"
            walked = _boundary_walk(phrases, [f.end for f in out], p - 1, seam - p)
            if len(walked) >= k:
                raise AssertionError("internal: boundary walk exceeded its piece budget")
            out += walked
            if kind != "del":
                out.append(_single_char_phrase(symsp, seam, out))
            if ph.end > i:
                out.append(Phrase(shift(i + 1), ph.end - i, "copy", q + (i + 1 - p)))
        else:
            damaged = q is not None and _interval_hit(kind, i, q, q + L - 1)
            label = "lzend:3B" if damaged else "lzend:3A"
            for start, length, src in _cut_damaged(kind, i, p, L, q) if damaged else [(p, L, q)]:
                out.append(
                    _single_char_phrase(symsp, shift(start), out)
                    if src is None
                    else _shifted(shift, start, length, src)
                )
        ledger.append((k, label, len(out) - emitted))
    if kind == "ins" and i == n:  # after the last phrase
        out.append(_single_char_phrase(symsp, seam, out))
        ledger.append((0, "lzend:2", 1))

    result = Factorization(tuple(out), "lzend")
    reason = check_factorization(Tp, result)
    if reason is not None:
        raise AssertionError(f"internal: repaired parsing invalid ({reason})")
    t = F.size
    bound = (2 if kind == "ins" else 3) * t
    tally = _tally(ledger, ("lzend:1", "lzend:2", "lzend:3A", "lzend:3B"))
    report = RepairReport(
        "lzend", e, t, result.size, bound, tally, tuple(ledger), n_in=n, n_out=len(Tp)
    )
    return result, report
