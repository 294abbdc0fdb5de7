"""Constructive repairs: given a certificate for a text (attractor, macro
scheme, or LZ-End parsing) and one edit, build a certificate for the edited
text with a per-instance size bound, without re-solving from scratch.

Every procedure reports how each input phrase was handled so the per-case
phrase budgets can be audited.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from math import isqrt

from .core import Edit, InputError, SymbolString, apply_edit, check_edit
from .factorizers import Factorization, Phrase, check_factorization
from .measures import bms_check, is_attractor


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


def attractor_repair(T: SymbolString, gamma, e: Edit):
    """Attractor for the edited text built from an attractor of the original.

    The new set keeps the old positions (coordinate-mapped) and adds: a grid
    catching every occurrence of every long substring, one stabbing position
    per maximal short substring whose occurrence ran through the edited spot,
    and the edited position itself.  Growth is at most
    floor(sqrt(m)) + ceil(sqrt(m)) + 2 positions, m the edited length.
    """
    _check_repair_edit(T, e)
    gamma = frozenset(gamma)
    if not is_attractor(T, gamma):
        raise InputError("the given position set is not an attractor of the text")
    n = len(T)
    i = e.position
    Tp = apply_edit(T, e)
    m = len(Tp)
    bound = len(gamma) + isqrt(m) + _ceil_sqrt(m) + 2
    if m == 0:
        out = frozenset()
        return out, RepairReport("attractor", e, len(gamma), 0, bound, n_in=n, n_out=0)

    g = isqrt(m)
    grid = {g * k for k in range(1, g + 1)}
    grid.add((g * g + m) // 2)

    cap = _ceil_sqrt(m)
    hay = T.chars()
    hayp = Tp.chars()

    # intervals through the edited spot (original coordinates) whose content
    # still occurs in the edited text; only maximal ones need a position
    if e.kind == "ins":
        spans = (
            (a, b)
            for a in range(max(1, i - cap + 2), i + 1)
            for b in range(i + 1, min(n, a + cap - 1) + 1)
        )
    else:
        spans = (
            (a, b)
            for a in range(max(1, i - cap + 1), i + 1)
            for b in range(max(i, a), min(n, a + cap - 1) + 1)
        )
    candidates = [(a, b) for a, b in spans if hayp.find(hay[a - 1 : b]) >= 0]
    candidates.sort(key=lambda ab: (ab[0], -ab[1]))
    short_points = set()
    best_b = 0
    for a, b in candidates:
        if b > best_b:
            best_b = b
            j0 = hayp.find(hay[a - 1 : b])
            short_points.add(j0 + (i - a + 1))

    if e.kind == "sub":
        seam = {i}
        mapped = set(gamma)
    elif e.kind == "ins":
        seam = {i + 1}
        mapped = {q if q <= i else q + 1 for q in gamma}
    else:
        seam = {min(i, m)}
        mapped = {q if q < i else (q - 1 if q > i else min(i, m)) for q in gamma}

    out = frozenset(mapped | grid | short_points | seam)
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

    def normalized(start, length, src):
        # macro-scheme phrases of length 1 are always ground
        if length == 1:
            return [(start, 1, None)]
        return [(start, length, src)]

    def split_source_damage(p, L, q):
        """Pieces for a copy whose own region is intact but whose source
        region is damaged: cut at the damaged spot, grounding the symbol that
        lost its source (substitution/deletion) or just splitting in two
        (insertion, where the source content is merely displaced)."""
        if kind == "ins":
            off = i - q + 1
            return normalized(p, off, q) + normalized(p + off, L - off, i + 1)
        off = i - q
        pieces = []
        if off >= 1:
            pieces += normalized(p, off, q)
        pieces.append((p + off, 1, None))
        if L - off - 1 >= 1:
            pieces += normalized(p + off + 1, L - off - 1, i + 1)
        return pieces

    def expand_damaged(pieces):
        out = []
        for start, length, src in pieces:
            if (
                src is not None
                and length >= 2
                and _interval_hit(kind, i, src, src + length - 1)
            ):
                out.extend(split_source_damage(start, length, src))
            else:
                out.append((start, length, src))
        return out

    def split_edited_phrase(p, L, q):
        """Pieces for the phrase whose own region holds the edit.  The cut at
        the edited spot leaves side pieces whose source portions may be
        damaged as well; at most one side can be, keeping the total small."""
        if kind == "sub":
            if L == 1:
                return [(i, 1, None)]
            off = i - p
            raw = []
            if off >= 1:
                raw += normalized(p, off, q)
            raw.append((i, 1, None))
            if L - off - 1 >= 1:
                raw += normalized(i + 1, L - off - 1, q + off + 1)
            return expand_damaged(raw)
        if kind == "del":
            if L == 1:
                return []
            off = i - p
            raw = []
            if off >= 1:
                raw += normalized(p, off, q)
            if L - off - 1 >= 1:
                raw += normalized(i + 1, L - off - 1, q + off + 1)
            return expand_damaged(raw)
        off = i - p + 1
        raw = (
            normalized(p, off, q)
            + [(_NEW_CHAR, 1, None)]
            + normalized(i + 1, L - off, q + off)
        )
        return expand_damaged(raw)

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
            pieces_by_phrase[idx0] = expand_damaged([(p, L, q)])

    standalone_insert = kind == "ins" and not any(
        c == "bms:1" for c in case_by_phrase
    )

    out_phrases = []
    ledger = []
    tally: dict[str, int] = {}
    for idx0, pieces in enumerate(pieces_by_phrase):
        label = case_by_phrase[idx0]
        for start, length, src in pieces:
            if start == _NEW_CHAR:
                out_phrases.append(Phrase(i + 1, 1, "literal"))
            elif src is None:
                out_phrases.append(Phrase(shift(start), length, "literal"))
            else:
                out_phrases.append(Phrase(shift(start), length, "copy", shift(src)))
        tally[label] = tally.get(label, 0) + len(pieces)
        ledger.append((idx0 + 1, label, len(pieces)))
    bound = sum(caps)
    if standalone_insert:
        out_phrases.append(Phrase(i + 1, 1, "literal"))
        tally["bms:1"] = tally.get("bms:1", 0) + 1
        ledger.append((0, "bms:1", 1))
        bound += 1

    out_phrases.sort(key=lambda ph: ph.start)
    scheme = Factorization(tuple(out_phrases), "bms")
    reason = bms_check(Tp, scheme)
    if reason is not None:
        raise AssertionError(f"internal: repaired scheme invalid ({reason})")
    report = RepairReport(
        "bms", e, S.size, scheme.size, bound, tally, tuple(ledger),
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


def _single_char_phrase(hay_out: str, pos1: int, ends_so_far) -> Phrase:
    """Phrase for one symbol of the edited text: a literal when the symbol is
    fresh, otherwise a copy whose source ends at an already-built phrase end."""
    c = hay_out[pos1 - 1]
    if hay_out.find(c, 0, pos1 - 1) < 0:
        return Phrase(pos1, 1, "literal")
    for end in ends_so_far:
        if end <= pos1 - 1 and hay_out[end - 1] == c:
            return Phrase(pos1, 1, "copy", end)
    raise AssertionError("internal: repeated symbol with no phrase-end occurrence")


def lzend_repair(T: SymbolString, F: Factorization, e: Edit):
    """LZ-End parsing of the edited text built from one of the original.

    Phrases before the edited phrase are kept.  The edited phrase is rebuilt
    as boundary-walk pieces, the edited symbol, and a tail sourced at the old
    source's tail.  Later phrases survive unchanged unless their source was
    damaged, in which case they split around the damaged symbol (in two on
    insertion, since the source content is merely displaced).
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
    hayp = Tp.chars()
    shift = _shift_fn(kind, i)
    phrases = F.phrases
    t = F.size

    if kind == "ins":
        edited_idx0 = next(
            (k for k, ph in enumerate(phrases) if ph.start <= i and ph.end >= i + 1),
            None,
        )
    else:
        edited_idx0 = next(k for k, ph in enumerate(phrases) if ph.start <= i <= ph.end)

    out: list[Phrase] = []
    ends_out: list[int] = []
    ledger = []
    tally = {"lzend:1": 0, "lzend:2": 0, "lzend:3A": 0, "lzend:3B": 0}

    def emit(ph: Phrase):
        out.append(ph)
        ends_out.append(ph.end)

    prefix_count = (
        edited_idx0 if edited_idx0 is not None else sum(1 for ph in phrases if ph.end <= i)
    )
    for idx0 in range(prefix_count):
        emit(phrases[idx0])
        ledger.append((idx0 + 1, "lzend:1", 1))
    tally["lzend:1"] = prefix_count

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
            emit(_single_char_phrase(hayp, pos1, ends_out))
            pieces += 1
        w2_len = fI.end - i
        if w2_len > 0:
            w2_start = {"sub": i + 1, "ins": i + 2, "del": i}[kind]
            emit(Phrase(w2_start, w2_len, "copy", fI.source + (i + 1 - fI.start)))
            pieces += 1
        tally["lzend:2"] = pieces
        ledger.append((edited_idx0 + 1, "lzend:2", pieces))
    else:
        emit(_single_char_phrase(hayp, i + 1, ends_out))
        tally["lzend:2"] = 1
        ledger.append((0, "lzend:2", 1))

    first_suffix = prefix_count if edited_idx0 is None else edited_idx0 + 1
    for idx0 in range(first_suffix, t):
        ph = phrases[idx0]
        p, L, q = ph.start, ph.length, ph.source
        if q is not None and _interval_hit(kind, i, q, q + L - 1):
            pieces = 0
            mstart = shift(p)
            if kind == "ins":
                off = i - q + 1
                emit(Phrase(mstart, off, "copy", q))
                emit(Phrase(mstart + off, L - off, "copy", i + 2))
                pieces = 2
            else:
                off = i - q
                at = mstart
                if off >= 1:
                    emit(Phrase(at, off, "copy", q))
                    at += off
                    pieces += 1
                emit(_single_char_phrase(hayp, at, ends_out))
                at += 1
                pieces += 1
                if L - off - 1 >= 1:
                    emit(Phrase(at, L - off - 1, "copy", i + 1 if kind == "sub" else i))
                    pieces += 1
            tally["lzend:3B"] += pieces
            ledger.append((idx0 + 1, "lzend:3B", pieces))
        else:
            if q is None:
                emit(_single_char_phrase(hayp, shift(p), ends_out))
            else:
                emit(Phrase(shift(p), L, "copy", shift(q)))
            tally["lzend:3A"] += 1
            ledger.append((idx0 + 1, "lzend:3A", 1))

    result = Factorization(tuple(out), "lzend")
    reason = check_factorization(Tp, result)
    if reason is not None:
        raise AssertionError(f"internal: repaired parsing invalid ({reason})")
    bound = (2 if kind == "ins" else 3) * t
    report = RepairReport(
        "lzend", e, t, result.size, bound, tally, tuple(ledger), n_in=n, n_out=len(Tp)
    )
    return result, report
