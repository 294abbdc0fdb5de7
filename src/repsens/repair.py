"""Constructive repairs: given a certificate for a text (attractor, macro
scheme, or LZ-End parsing) and one edit, build a certificate for the edited
text with a per-instance size bound, without re-solving from scratch.

Every procedure reports how each input phrase was handled so the per-case
phrase budgets can be audited; ``case_tally`` is that ledger summed per label.
One cut (``_cut_damaged``) serves both copies whose source the edit damages:
``bms_repair``'s case 3 and ``lzend_repair``'s case 3B.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from math import isqrt

from .core import Edit, InputError, SymbolString, _suffix_automaton, apply_edit, check_edit
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
    Tp = apply_edit(T, e)
    m = len(Tp)
    g = isqrt(m)
    cap = _ceil_sqrt(m)
    bound = len(gamma) + g + cap + 2
    if m == 0:
        out = frozenset()
        return out, RepairReport("attractor", e, len(gamma), 0, bound, n_in=n, n_out=0)

    points = {g * k for k in range(1, g + 1)}  # the grid
    points.add((g * g + m) // 2)

    syms = T.symbols
    trans, firstpos = _suffix_automaton(Tp)[3:]

    # intervals [a, b] through the edited spot (original coordinates, at most
    # cap long) whose content still occurs in the edited text; only maximal
    # ones need a position.  Walking T[a..] on the edited text's automaton
    # gives the longest such b for each a, and its leftmost occurrence.
    best_b = 0
    b_min = i + 1 if e.kind == "ins" else i
    for a in range(max(1, b_min - cap + 1), i + 1):
        v = 0
        b = a - 1
        for c in syms[a - 1 : min(n, a + cap - 1)]:
            w = trans[v].get(c)
            if w is None:
                break
            v = w
            b += 1
        if b >= b_min and b > best_b:
            best_b = b
            j0 = firstpos[v] - (b - a + 1)
            points.add(j0 + (i - a + 1))

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


# start marker for the inserted symbol, which has no original coordinate
_NEW_CHAR = -1


def bms_repair(T: SymbolString, S: Factorization, e: Edit):
    """Valid macro scheme for the edited text built from one of the original.

    The phrase holding the edit splits into at most five pieces; untouched
    phrases survive; a phrase whose source was damaged either re-points at a
    surviving copy of that source (when nested inside another damaged source)
    or splits into at most three pieces around the damaged spot.
    """
    reason = bms_check(T, S)
    if reason is not None:
        raise InputError(f"input scheme is not a valid macro scheme: {reason}")
    _check_repair_edit(T, e)
    n = len(T)
    i = e.position
    kind = e.kind
    Tp = apply_edit(T, e)
    shift = _shift_fn(kind, i)

    def ground(pieces):
        # macro-scheme phrases of length 1 are always ground; empty pieces are dropped
        return [
            (at, length, src if length > 1 else None) for at, length, src in pieces if length
        ]

    def split_edited_phrase(p, L, q):
        """Pieces for the phrase whose own region holds the edit: the part
        before the edited spot, the new symbol (if any), and the part after.
        The side pieces' source portions may be damaged as well; at most one
        side can be, keeping the total small."""
        left = (i + 1 if kind == "ins" else i) - p
        right = p + L - i - 1
        mid = {"sub": [(i, 1, None)], "ins": [(_NEW_CHAR, 1, None)], "del": []}[kind]
        out = []
        for at, length, src in ground(
            [(p, left, q)] + mid + [(i + 1, right, q + (i + 1 - p) if right else None)]
        ):
            if src is not None and _interval_hit(kind, i, src, src + length - 1):
                out.extend(ground(_cut_damaged(kind, i, at, length, src)))
            else:
                out.append((at, length, src))
        return out

    pieces_by_phrase: list = []
    case_by_phrase: list[str] = []
    caps: list[int] = []
    pool = []  # (index0, start, length, source) copies whose source is damaged
    hit_cap = {"sub": 5, "del": 4, "ins": 4}[kind]
    damage_cap = {"sub": 3, "del": 3, "ins": 2}[kind]

    for idx0, ph in enumerate(S.phrases):
        p, L, q = ph.start, ph.length, ph.source
        if _interval_hit(kind, i, p, p + L - 1):
            pieces_by_phrase.append(split_edited_phrase(p, L, q))
            case_by_phrase.append("bms:1")
            caps.append(hit_cap if L > 1 else (0 if kind == "del" else 1))
        elif q is not None and _interval_hit(kind, i, q, q + L - 1):
            pieces_by_phrase.append(None)  # resolved after nesting analysis
            case_by_phrase.append("bms:3")
            caps.append(damage_cap)
            pool.append((idx0, p, L, q))
        else:
            pieces_by_phrase.append([(p, L, q)])
            case_by_phrase.append("bms:2")
            caps.append(1)

    # a damaged source nested inside another damaged source re-points at the
    # surviving copy held by the enclosing phrase instead of splitting
    survivors = []
    for idx0, p, L, q in pool:
        lo, hi = q, q + L - 1
        nested = any(
            qj <= lo and hi <= qj + Lj - 1 and ((qj, Lj) != (q, L) or jdx0 < idx0)
            for jdx0, pj, Lj, qj in pool
            if jdx0 != idx0
        )
        if not nested:
            survivors.append((idx0, p, L, q))
    for idx0, p, L, q in pool:
        host = next(
            (
                s
                for s in survivors
                if s[0] != idx0 and s[3] <= q and q + L - 1 <= s[3] + s[2] - 1
            ),
            None,
        )
        if host is not None:
            pieces_by_phrase[idx0] = [(p, L, host[1] + (q - host[3]))]
            caps[idx0] = 1
        else:
            pieces_by_phrase[idx0] = ground(_cut_damaged(kind, i, p, L, q))

    ledger = [
        (idx0 + 1, label, len(pieces))
        for idx0, (label, pieces) in enumerate(zip(case_by_phrase, pieces_by_phrase))
    ]
    if kind == "ins" and "bms:1" not in case_by_phrase:
        # the insertion sits between phrases: the new symbol stands alone
        pieces_by_phrase.append([(_NEW_CHAR, 1, None)])
        ledger.append((0, "bms:1", 1))
        caps.append(1)

    out_phrases = []
    for pieces in pieces_by_phrase:
        for start, length, src in pieces:
            if start == _NEW_CHAR:
                out_phrases.append(Phrase(i + 1, 1, "literal"))
            elif src is None:
                out_phrases.append(Phrase(shift(start), length, "literal"))
            else:
                out_phrases.append(Phrase(shift(start), length, "copy", shift(src)))
    bound = sum(caps)

    out_phrases.sort(key=lambda ph: ph.start)
    scheme = Factorization(tuple(out_phrases), "bms")
    reason = bms_check(Tp, scheme)
    if reason is not None:
        raise AssertionError(f"internal: repaired scheme invalid ({reason})")
    report = RepairReport(
        "bms", e, S.size, scheme.size, bound, _tally(ledger), tuple(ledger),
        n_in=n, n_out=len(Tp),
    )
    return scheme, report


def _boundary_walk(phrases, old_ends: list[int], w_start0: int, w_len: int):
    """Split the text region [w_start0, w_start0 + w_len) into copy pieces
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
        pieces.append((piece_len, occ0 + 1))
        rem -= piece_len
        occ0 = end
    return pieces


def _single_char_phrase(syms_out: tuple, pos1: int, ends_so_far) -> Phrase:
    """Phrase for one symbol of the edited text: a literal when the symbol is
    fresh, otherwise a copy whose source ends at an already-built phrase end."""
    c = syms_out[pos1 - 1]
    if syms_out.index(c) == pos1 - 1:
        return Phrase(pos1, 1, "literal")
    for end in ends_so_far:
        if end <= pos1 - 1 and syms_out[end - 1] == c:
            return Phrase(pos1, 1, "copy", end)
    raise AssertionError("internal: repeated symbol with no phrase-end occurrence")


def lzend_repair(T: SymbolString, F: Factorization, e: Edit):
    """LZ-End parsing of the edited text built from one of the original.

    Phrases before the edited phrase are kept.  The edited phrase is rebuilt
    as boundary-walk pieces, the edited symbol, and a tail sourced at the old
    source's tail.  Later phrases survive unchanged (case 3A) unless their
    source was damaged (case 3B), in which case ``_cut_damaged`` splits them
    around the damaged symbol, in two on insertion.
    """
    if F.flavor != "lzend":
        raise InputError(f"expected an lzend factorization, got flavor {F.flavor!r}")
    reason = check_factorization(T, F)
    if reason is not None:
        raise InputError(f"input factorization invalid: {reason}")
    _check_repair_edit(T, e)
    n = len(T)
    i = e.position
    kind = e.kind
    Tp = apply_edit(T, e)
    symsp = Tp.symbols
    shift = _shift_fn(kind, i)
    phrases = F.phrases
    t = F.size

    edited_idx0 = next(
        (k for k, ph in enumerate(phrases) if _interval_hit(kind, i, ph.start, ph.end)), None
    )

    out: list[Phrase] = []
    ends_out: list[int] = []
    ledger = []

    def emit(ph: Phrase):
        out.append(ph)
        ends_out.append(ph.end)

    prefix_count = (
        edited_idx0 if edited_idx0 is not None else sum(1 for ph in phrases if ph.end <= i)
    )
    for idx0 in range(prefix_count):
        emit(phrases[idx0])
        ledger.append((idx0 + 1, "lzend:1", 1))

    if edited_idx0 is not None:
        fI = phrases[edited_idx0]
        old_ends = ends_out[:]
        w1_len = (i - fI.start + 1) if kind == "ins" else (i - fI.start)
        pieces = 0
        if w1_len > 0:
            walked = _boundary_walk(phrases, old_ends, fI.start - 1, w1_len)
            if len(walked) > edited_idx0:
                raise AssertionError("internal: boundary walk exceeded its piece budget")
            at = fI.start
            for length, src in walked:
                emit(Phrase(at, length, "copy", src))
                at += length
                pieces += 1
        if kind != "del":
            pos1 = i if kind == "sub" else i + 1
            emit(_single_char_phrase(symsp, pos1, ends_out))
            pieces += 1
        w2_len = fI.end - i
        if w2_len > 0:
            emit(Phrase(shift(i + 1), w2_len, "copy", fI.source + (i + 1 - fI.start)))
            pieces += 1
        ledger.append((edited_idx0 + 1, "lzend:2", pieces))
    else:
        emit(_single_char_phrase(symsp, i + 1, ends_out))
        ledger.append((0, "lzend:2", 1))

    first_suffix = prefix_count if edited_idx0 is None else edited_idx0 + 1
    for idx0 in range(first_suffix, t):
        ph = phrases[idx0]
        p, L, q = ph.start, ph.length, ph.source
        damaged = q is not None and _interval_hit(kind, i, q, q + L - 1)
        pieces = _cut_damaged(kind, i, p, L, q) if damaged else [(p, L, q)]
        for start, length, src in pieces:
            if src is None:
                emit(_single_char_phrase(symsp, shift(start), ends_out))
            else:
                emit(Phrase(shift(start), length, "copy", shift(src)))
        ledger.append((idx0 + 1, "lzend:3B" if damaged else "lzend:3A", len(pieces)))

    result = Factorization(tuple(out), "lzend")
    reason = check_factorization(Tp, result)
    if reason is not None:
        raise AssertionError(f"internal: repaired parsing invalid ({reason})")
    bound = (2 if kind == "ins" else 3) * t
    tally = _tally(ledger, ("lzend:1", "lzend:2", "lzend:3A", "lzend:3B"))
    report = RepairReport(
        "lzend", e, t, result.size, bound, tally, tuple(ledger), n_in=n, n_out=len(Tp)
    )
    return result, report
