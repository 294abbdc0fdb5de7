"""LZ-style factorizations with a shared phrase representation.

Phrase kinds:

* ``literal``  - a single symbol with no source.
* ``copy``     - the whole phrase repeats the text at ``source``.
* ``copylit``  - the first ``length - 1`` symbols repeat the text at
  ``source`` and the last symbol is carried literally (the classic
  match-plus-symbol phrase shape; also the parent-plus-symbol shape of
  dictionary parsing).

Matching is done on a codepoint rendering of the text so the C-level string
searcher does the scanning; correctness is pinned to naive reference parsers
by the test suite, not to any speed class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .core import CapabilityError, InputError, SymbolString

FLAVORS = (
    "lzss_overlap",
    "lzss_nonoverlap",
    "lz77_overlap",
    "lz77_nonoverlap",
    "lzend",
    "lz78",
    "bms",
)

# flavors where a literal phrase must be a fresh symbol and copies point left
_LZ_STYLE = ("lzss_overlap", "lzss_nonoverlap", "lz77_overlap", "lz77_nonoverlap", "lzend")


@dataclass(frozen=True)
class Phrase:
    start: int
    length: int
    kind: str
    source: int | None = None

    @property
    def end(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True)
class Factorization:
    phrases: tuple[Phrase, ...]
    flavor: str

    @property
    def size(self) -> int:
        return len(self.phrases)


def _require_nonempty(T: SymbolString) -> None:
    if len(T) == 0:
        raise InputError("cannot factorize the empty string")


def _longest_match(hay: str, pos0: int, max_len: int, rule: str) -> tuple[int, int]:
    """Longest prefix of hay[pos0:] with an admissible occurrence, and the
    leftmost admissible start of that prefix (-1 when the length is 0).

    Admissible starts by ``rule``: ``"overlap"`` starts strictly left of
    pos0, ``"nonoverlap"`` ends at/before pos0, ``"elsewhere"`` starts
    anywhere but pos0.  Each predicate is monotone in the length, so binary
    search applies, and the last successful search yields the source.
    """
    lo, hi, src0 = 0, max_len, -1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        sub = hay[pos0 : pos0 + mid]
        if rule == "elsewhere":
            s = hay.find(sub)
            if s == pos0:
                s = hay.find(sub, pos0 + 1)
        else:
            s = hay.find(sub, 0, pos0 - 1 + mid if rule == "overlap" else pos0)
        if s >= 0:
            lo, src0 = mid, s
        else:
            hi = mid - 1
    return lo, src0


def _greedy(T: SymbolString, rule: str, take_next: bool, flavor: str) -> Factorization:
    """Greedy longest-match parsing.  With ``take_next`` a match also takes
    the following symbol, unless the text ends inside the match."""
    _require_nonempty(T)
    n = len(T)
    hay = T.chars()
    phrases = []
    pos0 = 0
    while pos0 < n:
        length, src0 = _longest_match(hay, pos0, n - pos0, rule)
        if length == 0:
            phrases.append(Phrase(pos0 + 1, 1, "literal"))
            pos0 += 1
        elif take_next and pos0 + length < n:
            phrases.append(Phrase(pos0 + 1, length + 1, "copylit", src0 + 1))
            pos0 += length + 1
        else:
            phrases.append(Phrase(pos0 + 1, length, "copy", src0 + 1))
            pos0 += length
    return Factorization(tuple(phrases), flavor)


def lzss_overlapping(T: SymbolString) -> Factorization:
    """Greedy parsing into longest previously occurring prefixes; a copy's
    source may overlap the phrase itself."""
    return _greedy(T, "overlap", False, "lzss_overlap")


def lzss_nonoverlapping(T: SymbolString) -> Factorization:
    """Greedy parsing where every copy source lies entirely before the phrase."""
    return _greedy(T, "nonoverlap", False, "lzss_nonoverlap")


def lz77_overlapping(T: SymbolString) -> Factorization:
    """Longest previous match extended by the following symbol, overlap allowed."""
    return _greedy(T, "overlap", True, "lz77_overlap")


def lz77_nonoverlapping(T: SymbolString) -> Factorization:
    """Longest fully-previous match extended by the following symbol."""
    return _greedy(T, "nonoverlap", True, "lz77_nonoverlap")


def _jump_lower_bound(jumps: list[int]) -> list[int]:
    """lb[i] = fewest phrases tiling positions i.. (0-based) when a phrase at
    j may have any length up to max(1, jumps[j]); lb[len(jumps)] = 0."""
    n = len(jumps)
    lb = [0] * (n + 1)
    for pos0 in range(n - 1, -1, -1):
        lb[pos0] = 1 + min(lb[pos0 + 1 : pos0 + max(1, jumps[pos0]) + 1])
    return lb


def lz_end_greedy(T: SymbolString) -> Factorization:
    """Greedy parsing where every copy's source ends exactly at the end of an
    earlier phrase."""
    _require_nonempty(T)
    n = len(T)
    hay = T.chars()
    phrases = []
    ends: set[int] = set()
    pos0 = 0
    while pos0 < n:
        cap, _ = _longest_match(hay, pos0, n - pos0, "nonoverlap")
        best_len = 0
        best_src0 = -1
        for length in range(cap, 0, -1):
            sub = hay[pos0 : pos0 + length]
            s = hay.find(sub, 0, pos0)
            while s >= 0:
                if (s + length) in ends:
                    best_len, best_src0 = length, s
                    break
                s = hay.find(sub, s + 1, pos0)
            if best_len:
                break
        if best_len == 0:
            if hay.find(hay[pos0], 0, pos0) >= 0:
                # a repeated symbol always has an occurrence ending at some
                # earlier phrase end; reaching here means a parser bug
                raise AssertionError("internal: repeated symbol with no boundary occurrence")
            phrases.append(Phrase(pos0 + 1, 1, "literal"))
            pos0 += 1
        else:
            phrases.append(Phrase(pos0 + 1, best_len, "copy", best_src0 + 1))
            pos0 += best_len
        ends.add(pos0)
    return Factorization(tuple(phrases), "lzend")


def lz78(T: SymbolString) -> Factorization:
    """Dictionary parsing: each phrase extends a previous phrase by one symbol.

    Only the final phrase may duplicate an earlier phrase (when the text ends
    while still walking the dictionary).
    """
    _require_nonempty(T)
    n = len(T)
    syms = T.symbols
    root: dict = {}
    phrases = []
    pos0 = 0
    while pos0 < n:
        node = root
        j = pos0
        deepest_start = None
        while j < n and syms[j] in node:
            children, start = node[syms[j]]
            deepest_start = start
            node = children
            j += 1
        if j == n and deepest_start is not None and j > pos0:
            # exhausted mid-walk: final phrase duplicates an earlier one
            phrases.append(Phrase(pos0 + 1, j - pos0, "copy", deepest_start))
            pos0 = j
            continue
        length = j - pos0 + 1
        if length == 1:
            phrases.append(Phrase(pos0 + 1, 1, "literal"))
        else:
            phrases.append(Phrase(pos0 + 1, length, "copylit", deepest_start))
        node[syms[j]] = [{}, pos0 + 1]
        pos0 = j + 1
    return Factorization(tuple(phrases), "lz78")


def lz_end_optimal(T: SymbolString, limit: int | None = None) -> Factorization:
    """A minimum-size parsing under the ends-at-a-phrase-end source rule.

    The source constraint is circular (admissible sources depend on the phrase
    ends of the very parsing being built), so this is an exact branch-and-bound
    search over parse prefixes, capped at a configured length.
    """
    _require_nonempty(T)
    n = len(T)
    cap = config.lzend_opt_limit() if limit is None else limit
    if n > cap:
        raise CapabilityError(
            f"length {n} exceeds the exact LZ-End search limit {cap} (REPSENS_LIMIT_LZEND_OPT)"
        )
    hay = T.chars()

    maxlen = [_longest_match(hay, pos0, n - pos0, "nonoverlap")[0] for pos0 in range(n)]

    ends_mask_cache: dict[tuple[int, int], int] = {}

    def ends_mask(pos0: int, length: int) -> int:
        """Bitmask of end positions (bit e set) of occurrences of the length-
        `length` prefix at pos0 that end at or before pos0."""
        key = (pos0, length)
        m = ends_mask_cache.get(key)
        if m is None:
            sub = hay[pos0 : pos0 + length]
            m = 0
            s = hay.find(sub, 0, pos0)
            while s >= 0:
                m |= 1 << (s + length)
                s = hay.find(sub, s + 1, pos0)
            ends_mask_cache[key] = m
        return m

    # admissible lower bound: phrases needed if every position could jump its
    # longest fully-previous match (a superset of the really admissible moves)
    lb = _jump_lower_bound(maxlen)

    seed = lz_end_greedy(T)
    best_count = seed.size
    best_parse = [(p.length, p.source) for p in seed.phrases]
    seen: dict[tuple[int, int], int] = {}

    def dfs(pos0: int, bmask: int, count: int, acc: list) -> None:
        nonlocal best_count, best_parse
        if pos0 == n:
            if count < best_count:
                best_count = count
                best_parse = list(acc)
            return
        if count + lb[pos0] >= best_count:
            return
        key = (pos0, bmask)
        prev = seen.get(key)
        if prev is not None and prev <= count:
            return
        seen[key] = count
        top = min(maxlen[pos0], n - pos0)
        took_any = False
        for length in range(top, 0, -1):
            hit = ends_mask(pos0, length) & bmask
            if not hit:
                continue
            took_any = True
            e = (hit & -hit).bit_length() - 1
            acc.append((length, e - length + 1))
            dfs(pos0 + length, bmask | (1 << (pos0 + length)), count + 1, acc)
            acc.pop()
        if top == 0:
            # fresh symbol: the only move is a literal
            acc.append((1, None))
            dfs(pos0 + 1, bmask | (1 << (pos0 + 1)), count + 1, acc)
            acc.pop()
        elif not took_any:
            raise AssertionError("internal: no admissible phrase at a repeated symbol")

    dfs(0, 1, 0, [])

    phrases = []
    pos = 1
    for length, src in best_parse:
        kind = "literal" if src is None else "copy"
        phrases.append(Phrase(pos, length, kind, src))
        pos += length
    return Factorization(tuple(phrases), "lzend")


def check_factorization(T: SymbolString, F: Factorization) -> str | None:
    """None when ``F`` is a structurally valid factorization of ``T`` for its
    flavor, otherwise a diagnostic reason."""
    n = len(T)
    hay = T.chars()
    if F.flavor not in FLAVORS:
        return f"unknown flavor {F.flavor!r}"
    if not F.phrases:
        return "no phrases" if n > 0 else None

    pos = 1
    for k, ph in enumerate(F.phrases, 1):
        if ph.start != pos:
            return f"phrase {k} starts at {ph.start}, expected {pos}"
        if ph.length < 1:
            return f"phrase {k} has non-positive length"
        pos += ph.length
    if pos != n + 1:
        return f"phrases cover [1, {pos - 1}] but the text has length {n}"

    end_set = {p.end for p in F.phrases}
    # (start, length) -> 1-based phrase index, for lz78 parent lookups
    index = {(p.start, p.length): k for k, p in enumerate(F.phrases, 1)}

    for k, ph in enumerate(F.phrases, 1):
        p0 = ph.start - 1
        if ph.kind == "literal":
            if ph.length != 1:
                return f"literal phrase {k} has length {ph.length}"
            if ph.source is not None:
                return f"literal phrase {k} carries a source"
            if F.flavor in _LZ_STYLE and hay.find(hay[p0], 0, p0) >= 0:
                return f"literal phrase {k} repeats an earlier symbol"
            continue
        if ph.kind not in ("copy", "copylit"):
            return f"phrase {k} has unknown kind {ph.kind!r}"
        if ph.kind == "copylit" and F.flavor not in ("lz77_overlap", "lz77_nonoverlap", "lz78"):
            return f"copylit phrase {k} not allowed for flavor {F.flavor}"
        if ph.source is None:
            return f"copy phrase {k} has no source"
        copied = ph.length - 1 if ph.kind == "copylit" else ph.length
        if copied < 1:
            return f"phrase {k} copies nothing"
        q0 = ph.source - 1
        if q0 < 0 or q0 + copied > n:
            return f"phrase {k} source [{ph.source}, {ph.source + copied - 1}] out of bounds"
        if hay[q0 : q0 + copied] != hay[p0 : p0 + copied]:
            return f"phrase {k} does not match its source"

        if F.flavor == "bms":
            if ph.kind != "copy" or ph.length < 2:
                return f"macro-scheme copy phrase {k} must have length >= 2"
            if ph.source == ph.start:
                return f"phrase {k} is its own source"
        elif F.flavor == "lzss_overlap" or F.flavor == "lz77_overlap":
            if ph.source >= ph.start:
                return f"phrase {k} source does not start before the phrase"
            if F.flavor == "lz77_overlap" and ph.kind == "copy" and k != F.size:
                return f"pure copy phrase {k} is only allowed at the end"
        elif F.flavor == "lzss_nonoverlap" or F.flavor == "lz77_nonoverlap":
            if ph.source + copied > ph.start:
                return f"phrase {k} source overlaps the phrase"
            if F.flavor == "lz77_nonoverlap" and ph.kind == "copy" and k != F.size:
                return f"pure copy phrase {k} is only allowed at the end"
        elif F.flavor == "lzend":
            if ph.kind != "copy":
                return f"flavor lzend does not use copylit (phrase {k})"
            src_end = ph.source + ph.length - 1
            if src_end >= ph.start:
                return f"phrase {k} source is not strictly previous"
            # ends grow with the index, so an end before this phrase always
            # belongs to an earlier phrase
            if src_end not in end_set:
                return f"phrase {k} source does not end at an earlier phrase end"
        elif F.flavor == "lz78":
            if ph.kind == "copy":
                if k != F.size:
                    return f"pure copy phrase {k} is only allowed at the end"
                dup = index.get((ph.source, ph.length))
                if dup is None or dup >= k:
                    return f"final phrase {k} does not duplicate an earlier phrase"
            else:
                parent = index.get((ph.source, ph.length - 1))
                if parent is None or parent >= k:
                    return f"phrase {k} does not extend an earlier phrase"
    if F.flavor == "lz78":
        words = [hay[p.start - 1 : p.end] for p in F.phrases]
        if len(set(words[:-1])) != len(words) - 1:
            return "non-final phrases are not pairwise distinct"
    return None


def verify_factorization(T: SymbolString, F: Factorization) -> bool:
    return check_factorization(T, F) is None


def format_factorization(F: Factorization, n: int) -> str:
    """Line-based text form: header ``flavor n count`` then one
    ``k start length kind source`` line per phrase (source 0 for literals)."""
    lines = [f"{F.flavor} {n} {F.size}"]
    for k, ph in enumerate(F.phrases, 1):
        src = 0 if ph.source is None else ph.source
        lines.append(f"{k} {ph.start} {ph.length} {ph.kind} {src}")
    return "\n".join(lines) + "\n"


def parse_factorization(text: str) -> tuple[Factorization, int]:
    """Inverse of :func:`format_factorization`; returns (factorization, n)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty factorization text")
    head = lines[0].split()
    if len(head) != 3:
        raise InputError(f"bad factorization header: {lines[0]!r}")
    flavor, n_str, count_str = head
    if flavor not in FLAVORS:
        raise InputError(f"unknown flavor {flavor!r}")
    n, count = int(n_str), int(count_str)
    if len(lines) - 1 != count:
        raise InputError(f"header promises {count} phrases, found {len(lines) - 1}")
    phrases = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 5:
            raise InputError(f"bad phrase line: {ln!r}")
        _, start, length, kind, src = fields
        source = int(src)
        phrases.append(
            Phrase(int(start), int(length), kind, None if source == 0 else source)
        )
    return Factorization(tuple(phrases), flavor), n
