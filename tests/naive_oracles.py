"""Naive reference implementations used as oracles.

Everything here works on plain sequences of small ints (converted to bytes
for cheap equality) and enumerates candidates directly, with no index
structures, memoization, or pruning beyond skipping impossible candidates.
Deliberately independent of the package internals.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt


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


def naive_lzend_phrases(T):
    """Greedy parsing whose copies must end at earlier phrase ends, as
    (length, source) pairs; source is the 0-based leftmost start of an
    occurrence ending at an earlier phrase end, None for a literal."""
    data = _to_bytes(T)
    n = len(data)
    ends = []  # increasing, so the first matching end gives the leftmost source
    phrases = []
    pos = 0
    while pos < n:
        cap = naive_longest_match(T, pos, False)
        best, source = 0, None
        for length in range(cap, 0, -1):
            piece = data[pos : pos + length]
            for e in ends:
                if e >= length and data[e - length : e] == piece:
                    best, source = length, e - length
                    break
            if best:
                break
        if best == 0:
            assert data[pos] not in data[:pos]
            best = 1
        phrases.append((best, source))
        pos += best
        ends.append(pos)
    return phrases


def naive_lzend_lengths(T):
    return [length for length, _ in naive_lzend_phrases(T)]


def naive_longest_repeat(T, pos):
    """Longest prefix of T[pos:] that also occurs at a start other than pos
    (before or after it, overlaps allowed).  0-based."""
    data = _to_bytes(T)
    n = len(data)
    best = 0
    for s in range(n):
        if s == pos:
            continue
        length = 0
        while pos + length < n and s + length < n and data[s + length] == data[pos + length]:
            length += 1
        best = max(best, length)
    return best


def naive_occurrences(T, pattern):
    """Every 0-based start of ``pattern`` in T, ascending."""
    m = len(pattern)
    return [s for s in range(len(T) - m + 1) if tuple(T[s : s + m]) == tuple(pattern)]


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


def naive_leftmost(text, word):
    """0-based start of the leftmost occurrence of the tuple ``word`` in the
    tuple ``text``, or None."""
    k = len(word)
    return next((s for s in range(len(text) - k + 1) if text[s : s + k] == word), None)


def naive_attractor_repair(T, gamma, kind, i, symbol):
    """The attractor repair's output for the edit ``(kind, i, symbol)``,
    restated with a search from scratch for every interval: the sqrt(m)
    grid and its middle point; for each a, the longest T[a..b] at most
    ceil(sqrt(m)) long that occurs in the edited text, a point on the edited
    spot inside its leftmost occurrence when b reaches the edit and exceeds
    every earlier a's b; the old positions mapped, one on a substituted or
    deleted spot dropped; and the seam."""
    T = tuple(T)
    if kind == "del":
        Tp = T[: i - 1] + T[i:]
    elif kind == "sub":
        Tp = T[: i - 1] + (symbol,) + T[i:]
    else:
        Tp = T[:i] + (symbol,) + T[i:]
    n, m = len(T), len(Tp)
    if m == 0:
        return set()
    g = isqrt(m)
    cap = g if g * g == m else g + 1
    points = {g * k for k in range(1, g + 1)} | {(g * g + m) // 2}
    b_min = i + 1 if kind == "ins" else i
    best_b = 0
    for a in range(max(1, b_min - cap + 1), i + 1):
        b, j = a - 1, 0
        for end in range(a, min(n, a + cap - 1) + 1):
            hit = naive_leftmost(Tp, T[a - 1 : end])
            if hit is None:
                break
            b, j = end, hit
        if b >= b_min and b > best_b:
            best_b = b
            points.add(j + (i - a + 1))
    for x in gamma:
        if kind == "ins":
            points.add(x if x <= i else x + 1)
        elif x != i:
            points.add(x - 1 if kind == "del" and x > i else x)
    points.add(i + 1 if kind == "ins" else min(i, m))
    return points


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


def naive_parse_valid(T, phrases, flavor):
    """Whether ``phrases`` ((start, length, kind, source) with 1-based start
    and source, source None for a literal) is a valid ``flavor`` parse of T,
    read off the phrase definitions one phrase at a time.

    Every flavor: the phrases tile T.  A literal is one symbol with no
    source; in the LZ-style flavors it is the symbol's first occurrence.  A
    copy repeats the text at its source, a copylit does so for all but its
    last symbol.  Per flavor: LZSS copies start (overlap) or lie (non-overlap)
    before the phrase; LZ77 also allows copylit, and a pure copy only last;
    LZ-End copies lie before the phrase and end at an earlier phrase end;
    LZ78 copylits extend an earlier phrase (its start is the source), a pure
    copy is last and repeats an earlier phrase, and the other phrases are
    pairwise distinct; macro-scheme copies have length >= 2 and are not
    their own source.
    """
    T = list(T)
    n = len(T)
    pos = 1
    for start, length, _, _ in phrases:
        if start != pos or length < 1:
            return False
        pos += length
    if pos != n + 1 or (n > 0 and not phrases):
        return False
    lz_style = flavor in (
        "lzss_overlap", "lzss_nonoverlap", "lz77_overlap", "lz77_nonoverlap", "lzend"
    )
    earlier = []  # (start, length) of the phrases before the current one
    for k, (start, length, kind, source) in enumerate(phrases):
        last = k == len(phrases) - 1
        word = T[start - 1 : start - 1 + length]
        if kind == "literal":
            if length != 1 or source is not None:
                return False
            if lz_style and word[0] in T[: start - 1]:
                return False
        elif kind in ("copy", "copylit"):
            if source is None:
                return False
            if kind == "copylit" and flavor not in ("lz77_overlap", "lz77_nonoverlap", "lz78"):
                return False
            copied = length - 1 if kind == "copylit" else length
            if copied < 1 or source < 1 or source - 1 + copied > n:
                return False
            if T[source - 1 : source - 1 + copied] != word[:copied]:
                return False
            if flavor in ("lzss_overlap", "lz77_overlap") and not source < start:
                return False
            if flavor in ("lzss_nonoverlap", "lz77_nonoverlap") and not source + copied - 1 < start:
                return False
            if flavor.startswith("lz77") and kind == "copy" and not last:
                return False
            if flavor == "lzend":
                ends = {s + m - 1 for s, m in earlier}
                if not (source + length - 1 < start and source + length - 1 in ends):
                    return False
            if flavor == "bms" and (length < 2 or source == start):
                return False
            if flavor == "lz78":
                if kind == "copy" and not (last and (source, length) in earlier):
                    return False
                if kind == "copylit" and (source, length - 1) not in earlier:
                    return False
        else:
            return False
        earlier.append((start, length))
    if flavor == "lz78":
        words = [tuple(T[s - 1 : s - 1 + m]) for s, m, _, _ in phrases[:-1]]
        if len(set(words)) != len(words):
            return False
    return True
