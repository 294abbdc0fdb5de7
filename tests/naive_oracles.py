"""Naive reference implementations used as oracles.

Everything here works on plain sequences of small ints (converted to bytes
for cheap equality) and enumerates candidates directly, with no index
structures, memoization, or pruning beyond skipping impossible candidates.
Deliberately independent of the package internals.
"""

from fractions import Fraction
from itertools import combinations


def _to_bytes(symbols):
    return bytes(symbols)


def naive_longest_match_source(T, pos, overlap):
    """Longest prefix of T[pos:] occurring at a start strictly before pos
    (overlap) or entirely before pos (non-overlap), with the leftmost start of
    such an occurrence (None when the prefix is empty).  0-based."""
    data = _to_bytes(T)
    n = len(data)
    best, source = 0, None
    for s in range(pos):
        if data[s] != data[pos]:
            continue
        cap = (n - pos) if overlap else min(n - pos, pos - s)
        length = 1
        while length < cap and data[s + length] == data[pos + length]:
            length += 1
        if length > best:
            best, source = length, s
    return best, source


def naive_longest_match(T, pos, overlap):
    """Length part of :func:`naive_longest_match_source`."""
    return naive_longest_match_source(T, pos, overlap)[0]


def naive_lzss_phrases(T, overlap):
    """Greedy longest-match phrases as (length, source) pairs; source is the
    0-based leftmost admissible start, None for a literal."""
    phrases = []
    pos = 0
    n = len(T)
    while pos < n:
        match, source = naive_longest_match_source(T, pos, overlap)
        phrases.append((max(match, 1), source))
        pos += max(match, 1)
    return phrases


def naive_lzss_lengths(T, overlap):
    return [length for length, _ in naive_lzss_phrases(T, overlap)]


def naive_lz77_phrases(T, overlap):
    """Match-plus-symbol phrases as (length, source) pairs, as in
    :func:`naive_lzss_phrases`; a match the text ends inside takes no symbol."""
    phrases = []
    pos = 0
    n = len(T)
    while pos < n:
        match, source = naive_longest_match_source(T, pos, overlap)
        if match == 0:
            length = 1
        elif pos + match == n:
            length = match
        else:
            length = match + 1
        phrases.append((length, source))
        pos += length
    return phrases


def naive_lz77_lengths(T, overlap):
    return [length for length, _ in naive_lz77_phrases(T, overlap)]


def naive_lzend_lengths(T):
    """Greedy parsing whose copies must end at earlier phrase ends."""
    data = _to_bytes(T)
    n = len(data)
    ends = []
    lengths = []
    pos = 0
    while pos < n:
        cap = naive_longest_match(T, pos, False)
        best = 0
        for length in range(cap, 0, -1):
            piece = data[pos : pos + length]
            if any(e >= length and data[e - length : e] == piece for e in ends):
                best = length
                break
        if best == 0:
            assert data[pos] not in data[:pos]
            best = 1
        lengths.append(best)
        pos += best
        ends.append(pos)
    return lengths


def naive_lz78_lengths(T):
    words = {(): None}
    lengths = []
    pos = 0
    n = len(T)
    while pos < n:
        j = pos
        while j < n and tuple(T[pos : j + 1]) in words:
            j += 1
        if j == n:
            lengths.append(j - pos)  # final phrase repeats a dictionary word
            break
        words[tuple(T[pos : j + 1])] = pos
        lengths.append(j - pos + 1)
        pos = j + 1
    return lengths


def naive_lzend_optimal_size(T):
    """Minimum LZ-End phrase count by plain backtracking over all parsings."""
    data = _to_bytes(T)
    n = len(data)
    best = [n + 1]

    def options(pos, ends):
        got = []
        for length in range(1, n - pos + 1):
            piece = data[pos : pos + length]
            if any(e >= length and e <= pos and data[e - length : e] == piece for e in ends):
                got.append(length)
        if data[pos] not in data[:pos]:
            if 1 not in got:
                got.append(1)
        return got

    def go(pos, ends, count):
        if pos == n:
            best[0] = min(best[0], count)
            return
        if count + 1 >= best[0]:
            return
        for length in options(pos, ends):
            go(pos + length, ends + [pos + length], count + 1)

    go(0, [], 0)
    return best[0]


def naive_distinct_substrings(T, k):
    return len({tuple(T[i : i + k]) for i in range(len(T) - k + 1)})


def naive_delta(T):
    n = len(T)
    return max(Fraction(naive_distinct_substrings(T, k), k) for k in range(1, n + 1))


def occurrence_position_sets(T):
    """substring -> set of positions (1-based) covered by its occurrences."""
    n = len(T)
    cover = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            key = tuple(T[i:j])
            cover.setdefault(key, set()).update(range(i + 1, j + 1))
    return cover


def naive_is_attractor(T, positions):
    positions = set(positions)
    return all(postset & positions for postset in occurrence_position_sets(T).values())


def naive_smallest_attractor_size(T):
    n = len(T)
    cover = list(occurrence_position_sets(T).values())
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            chosen = set(combo)
            if all(ps & chosen for ps in cover):
                return size
    raise AssertionError("unreachable")


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def naive_smallest_bms_size(T):
    """Minimum valid macro-scheme size by enumerating every composition and
    every source assignment, checking reference-map termination outright."""
    data = _to_bytes(T)
    n = len(data)

    def sources(pos, length):
        piece = data[pos : pos + length]
        return [
            s
            for s in range(n - length + 1)
            if s != pos and data[s : s + length] == piece
        ]

    def terminates(refmap):
        for start in range(1, n + 1):
            seen = set()
            x = start
            while x != 0:
                if x in seen:
                    return False
                seen.add(x)
                x = refmap[x]
        return True

    for size in range(1, n + 1):
        for comp in _compositions(n, size):
            starts = []
            at = 0
            for length in comp:
                starts.append(at)
                at += length
            choice_lists = []
            feasible = True
            for start, length in zip(starts, comp):
                if length == 1:
                    choice_lists.append([None])
                else:
                    cands = sources(start, length)
                    if not cands:
                        feasible = False
                        break
                    choice_lists.append(cands)
            if not feasible:
                continue

            def assign(idx, refmap):
                if idx == len(comp):
                    return terminates(refmap)
                start, length = starts[idx], comp[idx]
                for cand in choice_lists[idx]:
                    if cand is None:
                        refmap[start + 1] = 0
                        if assign(idx + 1, refmap):
                            return True
                    else:
                        for j in range(length):
                            refmap[start + 1 + j] = cand + 1 + j
                        if assign(idx + 1, refmap):
                            return True
                return False

            if assign(0, [0] * (n + 1)):
                return size
    raise AssertionError("unreachable")
