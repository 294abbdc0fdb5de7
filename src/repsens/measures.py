"""Repetitiveness measures: substring complexity, string attractors, and
bidirectional macro schemes, with exact smallest-set searches at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, starmap
from operator import index

from . import config
from .core import InputError, SymbolString, _integer, _suffix_automaton
from .factorizers import (
    Factorization,
    Phrase,
    _jump_lower_bound,
    _match_masks,
    check_factorization,
)

AttractorSet = frozenset


def delta(T: SymbolString) -> Fraction:
    """max over k of (distinct length-k substrings) / k, as an exact rational.

    The counts come from a difference array over the automaton's length runs.
    The maximizing k is picked by integer cross-multiplication (the first one
    on ties), and only its ratio becomes a ``Fraction``.
    """
    n = len(T)
    if n == 0:
        raise InputError("substring complexity of the empty string is undefined")
    link, length = _suffix_automaton(T)[:2]  # read only: shared with T's other readers
    diff = [0] * (n + 2)
    for v in range(1, len(length)):
        diff[length[link[v]] + 1] += 1
        diff[length[v] + 1] -= 1
    counts = list(accumulate(diff))
    best = 1
    for k in range(2, n + 1):
        if counts[k] * best > counts[best] * k:
            best = k
    return Fraction(counts[best], best)


def _attractor_positions(positions) -> frozenset[int]:
    """``positions`` as a set of ints; InputError for a non-integer one,
    which the second pass names."""
    positions = tuple(positions)
    try:
        return frozenset(map(index, positions))
    except TypeError:
        return frozenset(_integer(p, "attractor position") for p in positions)


def is_attractor(T: SymbolString, positions) -> bool:
    """True iff every distinct substring of ``T`` has an occurrence containing
    one of the positions.

    O(n) words beside T's automaton: ``near[v]``, the least e - q over the
    0-based ends e of state v, q the last chosen index at or before e, is a
    minimum up the suffix links, longest state first.  All of v's substrings
    are hit iff ``near[v] <= length[link[v]]``: an occurrence ending at e
    holds the shortest one's, of length ``length[link[v]] + 1``, and that
    holds a position iff e - q is below its length."""
    n = len(T)
    gamma = _attractor_positions(positions)
    for p in gamma:
        if not 1 <= p <= n:
            raise InputError(f"attractor position {p} out of range [1, {n}]")
    link, length, prefix_state = _suffix_automaton(T)[:3]
    near = [n] * len(length)  # above every length[link[v]]: no position yet
    last = -n
    for e, v in enumerate(prefix_state):
        if e + 1 in gamma:
            last = e
        near[v] = e - last
    for v in sorted(range(1, len(length)), key=length.__getitem__, reverse=True):
        if near[v] > length[link[v]]:
            return False
        near[link[v]] = min(near[link[v]], near[v])
    return True


def _disjoint_count(masks: list[int]) -> int:
    used = 0
    count = 0
    for m in masks:
        if m & used == 0:
            count += 1
            used |= m
    return count


def smallest_attractor(T: SymbolString) -> AttractorSet:
    """A minimum-cardinality attractor, by exact hitting-set search.

    Sizes are tried in increasing order; within a size the search branches on
    the positions of an uncovered substring mask, so the first solution found
    is minimum and the run itself certifies that one position fewer fails.  The
    masks to hit, from the ``"elsewhere"`` match table
    (``factorizers._match_masks``), are each repeated T[i:i+L]'s end mask
    spread over L positions and each start's shortest unique substring.  Each
    is a substring's coverage and every coverage contains one.  They are not
    filtered to the inclusion-minimal ones: in (bit count, value) order the
    first uncovered mask is minimal (a strict subset sorts before it, uncovered
    too), and ``_disjoint_count`` never takes a mask holding an earlier one, so
    branching and bound are the minimal masks'.  Texts longer than the
    ``REPSENS_LIMIT_ATTRACTOR`` cap (``config.LIMITS``) raise
    ``CapabilityError``.
    """
    n = len(T)
    config.check("REPSENS_LIMIT_ATTRACTOR", n)
    if n == 0:
        return frozenset()
    coverages = set()
    for i, row in enumerate(_match_masks(T.symbols, "elsewhere")):
        for shortest, mask in enumerate(row, 1):
            span = 1
            while span < shortest:  # spread each end bit over `shortest` positions
                step = min(span, shortest - span)
                mask |= mask >> step
                span += step
            coverages.add(mask)
        if i + len(row) < n:
            coverages.add(((2 << len(row)) - 1) << i)
    masks = sorted(coverages, key=lambda m: (m.bit_count(), m))

    def search(uncovered: list[int], chosen: list[int], left: int):
        if not uncovered:
            return list(chosen)
        if left == 0 or _disjoint_count(uncovered) > left:
            return None
        target = uncovered[0]
        b = target
        while b:
            bit = b & -b
            b ^= bit
            chosen.append(bit.bit_length())
            rest = [m for m in uncovered if not m & bit]
            found = search(rest, chosen, left - 1)
            if found is not None:
                return found
            chosen.pop()
        return None

    for size in range(1, n + 1):
        found = search(masks, [], size)
        if found is not None:
            return frozenset(found)
    raise AssertionError("internal: the full position set is always an attractor")


def _induced_map(T: SymbolString, S: Factorization) -> list[int]:
    """The reference map of a macro scheme: ground positions go to 0, copied
    positions go to the matching source position."""
    n = len(T)
    F = [0] * (n + 1)
    for ph in S.phrases:
        if ph.kind == "literal":
            F[ph.start] = 0
        else:
            for j in range(ph.length):
                F[ph.start + j] = ph.source + j
    return F


def _map_terminates(F: list[int]) -> bool:
    n = len(F) - 1
    state = [0] * (n + 1)  # 0 unseen, 1 on stack, 2 resolved
    state[0] = 2
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = F[x]
        ok = state[x] == 2
        for y in path:
            state[y] = 2
        if not ok:
            return False
    return True


def bms_check(T: SymbolString, S: Factorization) -> str | None:
    """None for a valid macro scheme, else "mismatch: ..." or "cycle"."""
    if S.flavor != "bms":
        return f"mismatch: flavor {S.flavor!r} is not bms"
    structural = check_factorization(T, S)
    if structural is not None:
        return f"mismatch: {structural}"
    if not _map_terminates(_induced_map(T, S)):
        return "cycle"
    return None


def bms_is_valid(T: SymbolString, S: Factorization) -> bool:
    """True iff the phrases tile and match their sources and the induced
    reference map reaches 0 from every position."""
    return bms_check(T, S) is None


def as_bms(F: Factorization) -> Factorization:
    """Reinterpret a left-copy factorization as a macro scheme.

    Length-1 copies become ground phrases and a match-plus-symbol phrase
    splits into its copy part and a ground, since in a macro scheme every
    length-1 phrase is ground and copies are pure.
    """
    phrases = []
    for ph in F.phrases:
        if ph.length == 1 or ph.kind == "literal":
            phrases.append(Phrase(ph.start, ph.length, "literal"))
        elif ph.kind == "copylit":
            if ph.length > 2:
                phrases.append(Phrase(ph.start, ph.length - 1, "copy", ph.source))
            else:
                phrases.append(Phrase(ph.start, 1, "literal"))
            phrases.append(Phrase(ph.end, 1, "literal"))
        else:
            phrases.append(ph)
    return Factorization(tuple(phrases), "bms")


def smallest_bms(T: SymbolString) -> Factorization:
    """A minimum-size valid macro scheme, by exhaustive search.

    Phrase counts are tried in increasing order up to n, where the all-literal
    scheme always exists, so no greedy parse bounds the search.  Phrases are
    laid left to right; every copy picks a source among the other occurrences
    of its content (left candidates first, because an all-leftward assignment
    can never cycle).  Partial reference chains are walked to cut wiring that
    already loops, and the full termination check runs at each leaf.
    ``refmap`` holds each position's reference (0 ground, the source position
    of a copy, -1 unassigned): a literal is a length-1 phrase with source 0, so
    literals and copies are placed by one slice assignment and undone by
    another.  The phrases laid so far are ``(start, length, kind, source)``
    tuples, as in the parse loops (``factorizers``).  Texts longer than the
    ``REPSENS_LIMIT_BMS`` cap (``config.LIMITS``) raise ``CapabilityError``.
    """
    n = len(T)
    config.check("REPSENS_LIMIT_BMS", n)
    if n == 0:
        raise InputError("cannot build a macro scheme for the empty string")
    # occurrence masks of the prefixes at each position that occur somewhere else
    table = _match_masks(T.symbols, "elsewhere")
    maxrep = list(map(len, table))
    lb = _jump_lower_bound(maxrep)

    refmap = [0] + [-1] * n
    distinct = len(set(T.symbols))

    def chain_ok(x: int) -> bool:
        # follow assigned references to ground (0) or unassigned territory (-1)
        seen = set()
        while x > 0:
            if x in seen:
                return False
            seen.add(x)
            x = refmap[x]
        return True

    def place(pos0: int, left: int, acc: list) -> list | None:
        if pos0 == n:
            return list(acc) if left == 0 and _map_terminates(refmap) else None
        if left == 0 or lb[pos0] > left or (n - pos0) < left:
            return None
        start = pos0 + 1
        top = min(max(1, maxrep[pos0]), n - pos0 - (left - 1))
        for length in range(top, 0, -1):
            sources = [0] if length == 1 else [
                src0 + 1 for src0 in _other_starts(table[pos0][length - 1], pos0, length)
            ]
            for src in sources:
                refmap[start : start + length] = range(src, src + length)
                found = None
                if all(map(chain_ok, range(start, start + length))):
                    acc.append((start, length, "copy", src) if src else (start, 1, "literal", None))
                    found = place(pos0 + length, left - 1, acc)
                    acc.pop()
                refmap[start : start + length] = (-1,) * length
                if found is not None:
                    return found
        return None

    for size in range(max(distinct, lb[0]), n + 1):
        found = place(0, size, [])
        if found is not None:
            return Factorization(tuple(starmap(Phrase, found)), "bms")
    raise AssertionError("internal: the all-literal scheme is always valid")


def _other_starts(ends: int, pos0: int, length: int) -> list[int]:
    """0-based starts, ascending, of the length-``length`` occurrences whose
    end bits (``factorizers._match_masks``) are in ``ends``, except the one
    at pos0; so the left ones come first."""
    starts = []
    ends &= ~(1 << (pos0 + length - 1))
    while ends:
        low = ends & -ends
        starts.append(low.bit_length() - length)
        ends ^= low
    return starts


def format_attractor(positions) -> str:
    return " ".join(str(p) for p in sorted(positions))


def parse_attractor(text: str) -> AttractorSet:
    try:
        return frozenset(int(f) for f in text.split())
    except ValueError as exc:
        raise InputError(f"attractor positions must be integers: {exc}") from exc
