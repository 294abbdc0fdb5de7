"""Repetitiveness measures: substring complexity, string attractors, and
bidirectional macro schemes, with exact smallest-set searches at desk scale.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .core import CapabilityError, InputError, SymbolString
from .factorizers import (
    Factorization,
    Phrase,
    _jump_lower_bound,
    _longest_match,
    check_factorization,
    lzss_overlapping,
)

AttractorSet = frozenset


def _distinct_by_length(T: SymbolString) -> list[int]:
    """d[k] = number of distinct length-k substrings, for k in 1..n.

    Counted with a suffix automaton: every state covers one run of lengths,
    so a difference array over those runs yields all the counts at once.
    """
    n = len(T)
    link = [-1]
    length = [0]
    trans: list[dict] = [{}]
    last = 0
    for c in T.symbols:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(-1)
        trans.append({})
        p = last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    diff = [0] * (n + 2)
    for v in range(1, len(length)):
        diff[length[link[v]] + 1] += 1
        diff[length[v] + 1] -= 1
    counts = [0] * (n + 1)
    running = 0
    for k in range(1, n + 1):
        running += diff[k]
        counts[k] = running
    return counts


def delta(T: SymbolString) -> Fraction:
    """max over k of (distinct length-k substrings) / k, as an exact rational."""
    if len(T) == 0:
        raise InputError("substring complexity of the empty string is undefined")
    counts = _distinct_by_length(T)
    return max(Fraction(counts[k], k) for k in range(1, len(T) + 1))


def _coverage_masks(T: SymbolString, reduce_minimal: bool = False) -> list[int]:
    """For every distinct substring, the bitmask of positions lying inside at
    least one of its occurrences (bit p-1 for position p).

    A position set stabs every substring iff it intersects every mask.  With
    ``reduce_minimal`` the list is cut down to the subset-minimal masks,
    sorted by population count (worth it only for the smallest-set search).
    """
    n = len(T)
    hay = T.chars()
    cover: dict[str, int] = {}
    for i in range(n):
        lo = (1 << i) - 1
        for j in range(i + 1, n + 1):
            mask = ((1 << j) - 1) ^ lo
            key = hay[i:j]
            cover[key] = cover.get(key, 0) | mask
    masks = sorted(set(cover.values()), key=lambda m: (bin(m).count("1"), m))
    if not reduce_minimal:
        return masks
    minimal: list[int] = []
    for m in masks:
        if not any(km & m == km for km in minimal):
            minimal.append(m)
    return minimal


def is_attractor(T: SymbolString, positions) -> bool:
    """True iff every distinct substring of ``T`` has an occurrence containing
    one of the positions."""
    n = len(T)
    pos = frozenset(positions)
    for p in pos:
        if not 1 <= p <= n:
            raise InputError(f"attractor position {p} out of range [1, {n}]")
    pmask = 0
    for p in pos:
        pmask |= 1 << (p - 1)
    return all(m & pmask for m in _coverage_masks(T))


def _disjoint_count(masks: list[int]) -> int:
    used = 0
    count = 0
    for m in masks:
        if m & used == 0:
            count += 1
            used |= m
    return count


def smallest_attractor(T: SymbolString, limit: int | None = None) -> AttractorSet:
    """A minimum-cardinality attractor, by exact hitting-set search.

    Sizes are tried in increasing order; within a size the search branches on
    the positions of an uncovered substring mask, so the first solution found
    is minimum and the run itself certifies that one position fewer fails.
    """
    n = len(T)
    cap = config.attractor_limit() if limit is None else limit
    if n > cap:
        raise CapabilityError(
            f"length {n} exceeds the smallest-attractor search limit {cap} "
            "(REPSENS_LIMIT_ATTRACTOR)"
        )
    if n == 0:
        return frozenset()
    masks = _coverage_masks(T, reduce_minimal=True)

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


def smallest_bms(T: SymbolString, limit: int | None = None) -> Factorization:
    """A minimum-size valid macro scheme, by exhaustive search.

    Phrase counts are tried in increasing order.  Phrases are laid left to
    right; every copy picks a source among the other occurrences of its
    content (left candidates first, because an all-leftward assignment can
    never cycle).  Partial reference chains are walked to cut wiring that
    already loops, and the full termination check runs at each leaf.
    """
    n = len(T)
    cap = config.bms_limit() if limit is None else limit
    if n > cap:
        raise CapabilityError(
            f"length {n} exceeds the smallest-macro-scheme search limit {cap} "
            "(REPSENS_LIMIT_BMS)"
        )
    if n == 0:
        raise InputError("cannot build a macro scheme for the empty string")
    hay = T.chars()

    # longest prefix at each position that occurs somewhere else in the text
    maxrep = [_longest_match(hay, pos0, n - pos0, "elsewhere")[0] for pos0 in range(n)]
    lb = _jump_lower_bound(maxrep)

    sources_cache: dict[tuple[int, int], list[int]] = {}

    def sources_for(pos0: int, length: int) -> list[int]:
        key = (pos0, length)
        got = sources_cache.get(key)
        if got is None:
            sub = hay[pos0 : pos0 + length]
            occ = []
            s = hay.find(sub)
            while s >= 0:
                if s != pos0:
                    occ.append(s)
                s = hay.find(sub, s + 1)
            got = sorted(occ, key=lambda s: (s >= pos0, s))
            sources_cache[key] = got
        return got

    refmap = [0] * (n + 1)
    assigned = [False] * (n + 1)
    ub = lzss_overlapping(T).size
    distinct = len(set(T.symbols))

    def chain_ok(start: int) -> bool:
        # follow assigned references; unassigned territory is fine for now
        seen = set()
        x = start
        while True:
            if x == 0 or not assigned[x]:
                return True
            if x in seen:
                return False
            seen.add(x)
            x = refmap[x]

    def place(pos0: int, left: int, acc: list[Phrase]):
        if pos0 == n:
            if left == 0 and _map_terminates(refmap):
                return list(acc)
            return None
        if left == 0 or lb[pos0] > left or (n - pos0) < left:
            return None
        top = min(max(1, maxrep[pos0]), n - pos0 - (left - 1))
        for length in range(top, 0, -1):
            start = pos0 + 1
            if length == 1:
                assigned[start] = True
                refmap[start] = 0
                acc.append(Phrase(start, 1, "literal"))
                found = place(pos0 + 1, left - 1, acc)
                acc.pop()
                assigned[start] = False
                if found is not None:
                    return found
                continue
            if length > maxrep[pos0]:
                continue
            for src0 in sources_for(pos0, length):
                for j in range(length):
                    assigned[start + j] = True
                    refmap[start + j] = src0 + 1 + j
                if all(chain_ok(start + j) for j in range(length)):
                    acc.append(Phrase(start, length, "copy", src0 + 1))
                    found = place(pos0 + length, left - 1, acc)
                    acc.pop()
                    if found is not None:
                        for j in range(length):
                            assigned[start + j] = False
                        return found
                for j in range(length):
                    assigned[start + j] = False
        return None

    for size in range(max(distinct, lb[0]), ub + 1):
        found = place(0, size, [])
        if found is not None:
            return Factorization(tuple(found), "bms")
    raise AssertionError("internal: the greedy parsing bound was not reachable")


def format_attractor(positions) -> str:
    return " ".join(str(p) for p in sorted(positions))


def parse_attractor(text: str) -> AttractorSet:
    try:
        return frozenset(int(f) for f in text.split())
    except ValueError as exc:
        raise InputError(f"attractor positions must be integers: {exc}") from exc
