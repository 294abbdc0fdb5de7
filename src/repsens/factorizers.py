"""LZ-style factorizations with a shared phrase representation.

Phrase kinds:

* ``literal``  - a single symbol with no source.
* ``copy``     - the whole phrase repeats the text at ``source``.
* ``copylit``  - the first ``length - 1`` symbols repeat the text at
  ``source`` and the last symbol is carried literally (the classic
  match-plus-symbol phrase shape; also the parent-plus-symbol shape of
  dictionary parsing).

Each parser family has one loop, which emits plain ``(start, length, kind,
source)`` tuples: ``_greedy_walk`` for LZSS/LZ77, ``_lz_end`` for greedy
LZ-End and ``_lz78``.  The two exact searches, ``lz_end_optimal`` and
``measures.smallest_bms``, keep the parse they build in the same tuples and
make ``Phrase`` objects once, for the result.  ``FACTORIZERS`` is the one
place that names each factorizer and its parse call: the public factorizers
build a ``Factorization`` of ``Phrase`` objects from its tuples, the sweeps'
sizes (``sensitivity.MEASURES``) count them, and the CLI spellings
(``cli.FLAVOR_FLAGS``) are its names with ``-`` for ``_``; each greedy
flavor's ``_greedy`` flags are written there once, as a ``partial``.  The
one resumed sweep loop (``sensitivity._resumed``, one family per loop)
re-parses each edited text only from the phrase of the unedited text whose
walk reaches the edit: ``_lz78`` takes a start position, continues with a
given trie and logs its insertions for taking out again, and
``_greedy_walk`` takes a start position and a stop rule.

The greedy LZSS/LZ77 parses, of a text and of an edited text alike, walk
the text's string, one character per symbol (``core._as_strs``), with
``str.find``; on an alphabet below 16 they search the words longer than a
few symbols in a packed view of it, one character per q-gram
(``_packed``), which gives the same leftmost starts in fewer steps.
``_lz_end`` and the match tables of the exact searches walk the one
suffix automaton of the text that ``core._suffix_automaton`` owns
(an LZ-End copy's admissibility is not monotone in its length, so its
longest copy cannot be found by galloping ``find`` calls): it is built once
for every loop that reads the same text, and no loop mutates it.
Following the rest of the text from the root, each state's first end index
tells whether the prefix read so far has an admissible earlier occurrence
and where the leftmost one starts, and its end-position bitmask
(``core._state_ends``) lists every occurrence.  The verifier compares
symbol slices.  Correctness is pinned to naive reference parsers by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import starmap

from . import config
from .core import InputError, SymbolString, _as_strs, _state_ends, _suffix_automaton


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


def _greedy(T: SymbolString, overlap: bool, take_next: bool) -> list[tuple]:
    """The full parse of a greedy LZSS/LZ77 flavor: ``_greedy_walk`` on T's
    string (``core._as_strs``) from 0, with no stop."""
    return _greedy_walk(_as_strs(T.symbols)[0], 0, overlap, take_next, {}, -1)[0]


# the shortest string ``_packed`` packs: on random text of 2 to 16 letters
# the walk breaks even near 128 symbols, and a repetitive text, whose
# searches hit close to where they start, gains little at any length
_PACK_FLOOR = 128

# byte -> its bit width, 1 for byte 0 and 5 for every byte from 16 up: the
# widest one present is found by ``in`` on the translated bytes, at C speed
_WIDTHS = bytes(min(max(v.bit_length(), 1), 5) for v in range(256))


def _packed(U: str) -> tuple[str, int]:
    """``(V, k)``: the packed view V of the walk's string U, whose character
    j holds the q-gram ``U[j:j+q]``, and k = q - 1; ``(U, len(U))`` when U
    is shorter than ``_PACK_FLOOR`` or has a character of 16 or more.

    Each character of U takes b bits, the width of the largest, and a
    character of V holds q = 8 // b of them (8, 4, 2 or 2 for b = 1..4),
    most significant first, so it lies below 2^(b·q) <= 256 and is a
    latin-1 character.  Two q-grams are equal exactly when their characters
    are.  V is built at C speed on one integer whose byte j is cell j: each
    step shifts every cell up by b·s bits and adds the integer moved s
    bytes down, which turns cells of s symbols into cells of 2s.  No cell
    carries into the next, and the last k cells, which the text cuts short,
    are dropped.  It takes O(n) time and bytes.
    """
    n = len(U)
    if n < _PACK_FLOOR or not U.isascii():
        return U, n
    B = U.encode("ascii")
    widths = B.translate(_WIDTHS)
    b = next((w for w in (5, 4, 3, 2) if w in widths), 1)
    if b == 5:
        return U, n
    q = 8 // b
    x = int.from_bytes(B, "little")
    s = 1
    while s < q:
        x = (x << b * s) + (x >> 8 * s)
        s *= 2
    return x.to_bytes(n, "little")[: n - q + 1].decode("latin-1"), q - 1


def _greedy_walk(
    U: str, i: int, overlap: bool, take_next: bool, joins: dict, barrier: int
) -> tuple[list[tuple], int]:
    """The one LZSS/LZ77 loop: greedy longest-match parsing of the text whose
    string is ``U`` into ``(start, length, kind, source)`` tuples (1-based
    starts), from the phrase start i up to the first phrase start s with
    ``joins.get(s, -1) > barrier``; it returns them and s (``len(U)`` when
    the walk runs to the end).  ``_greedy`` passes no joins; the resumed
    sweeps stop where an edited text re-joins T's parse
    (``sensitivity._greedy_family``).

    A phrase at i copies the longest ``U[i:i+L]`` that occurs in
    ``U[:i-1+L]`` (``overlap``: it starts before i) or in ``U[:i]`` (it ends
    before i), from its leftmost occurrence, and is a literal when L = 0.
    With ``take_next`` a copy also takes the following symbol, unless the
    text ends inside the match.  Both tests are monotone in L, and the
    leftmost hit is the copy's source.  So a phrase is decided by
    ``U[:j+1]``, where j is the index its walk stops at (``_walk_end``; n
    when the text runs out), and a parse from the start of any phrase
    yields the rest of the phrases: the resumed sweeps rely on this.

    A word's leftmost occurrence never lies left of its prefix's, so each
    ``find`` goes on from the last hit.  L grows by one symbol up to 32,
    then by doubling steps, halved from the first miss on.  A word of m > k
    symbols is searched in U's packed view V (``_packed``; k = len(U) when
    U is not packed): characters j..j+m-q of V equal characters i..i+m-q
    exactly when ``U[j:j+m] == U[i:i+m]``, and ``j + m <= end`` exactly
    when ``j + m - k <= end - k``, so ``V.find(V[i:i+m-k], hit, end - k)``
    returns the leftmost start that ``U.find`` would.  Each phrase's last,
    failing ``find`` still scans the text before it, so a parse of z
    phrases takes O(n·z) character steps; but on V, whose characters take
    up to 256 values, ``find`` skips ahead where on a binary U it moves
    one character at a time.
    """
    n = len(U)
    V, k = _packed(U) if n >= _PACK_FLOOR else (U, n)  # spares short texts the call
    phrases = []
    while i < n and (i not in joins or joins[i] <= barrier):
        hit = length = 0
        step, halving = 1, False
        room = n - i
        short = room if room < k else k
        while step:
            m = length + step
            end = i - 1 + m if overlap else i
            if m <= short:
                h = U.find(U[i : i + m], hit, end)
            elif m <= room:
                h = V.find(V[i : i + m - k], hit, end - k)
            else:
                h = -1
            if h >= 0:
                hit, length = h, m
            else:
                halving = True
            if halving:
                step //= 2
            elif length >= 32:
                step *= 2
        if length == 0:
            phrases.append((i + 1, 1, "literal", None))
            i += 1
        elif take_next and length < room:
            phrases.append((i + 1, length + 1, "copylit", hit + 1))
            i += length + 1
        else:
            phrases.append((i + 1, length, "copy", hit + 1))
            i += length
    return phrases, i


def _walk_end(phrase: tuple) -> int:
    """The 0-based index at which the walk for this phrase tuple stopped, in
    both loops ``sensitivity._resumed`` resumes, ``_greedy_walk`` and
    ``_lz78``: a literal's own index, a copylit's last symbol, and the index
    after a copy (the text's length when it ran out)."""
    start, length, kind, _ = phrase
    if kind == "literal":
        return start - 1
    return start - 1 + length - (kind == "copylit")


def _factorization(T: SymbolString, flavor: str) -> Factorization:
    """The public form of the flavor's loop tuples; the empty text has none."""
    _require_nonempty(T)
    return Factorization(tuple(starmap(Phrase, FACTORIZERS[flavor][1](T))), flavor)


def lzss_overlapping(T: SymbolString) -> Factorization:
    """Greedy parsing into longest previously occurring prefixes; a copy's
    source may overlap the phrase itself."""
    return _factorization(T, "lzss_overlap")


def lzss_nonoverlapping(T: SymbolString) -> Factorization:
    """Greedy parsing where every copy source lies entirely before the phrase."""
    return _factorization(T, "lzss_nonoverlap")


def lz77_overlapping(T: SymbolString) -> Factorization:
    """Longest previous match extended by the following symbol, overlap allowed."""
    return _factorization(T, "lz77_overlap")


def lz77_nonoverlapping(T: SymbolString) -> Factorization:
    """Longest fully-previous match extended by the following symbol."""
    return _factorization(T, "lz77_nonoverlap")


def _jump_lower_bound(jumps: list[int]) -> list[int]:
    """lb[i] = fewest phrases tiling positions i.. (0-based) when a phrase at
    j may have any length up to max(1, jumps[j]); lb[len(jumps)] = 0."""
    n = len(jumps)
    lb = [0] * (n + 1)
    for pos0 in range(n - 1, -1, -1):
        lb[pos0] = 1 + min(lb[pos0 + 1 : pos0 + max(1, jumps[pos0]) + 1])
    return lb


def _match_states(T: SymbolString, rule: str) -> tuple[list[list[int]], list[int]]:
    """``(paths, ends)``: ``ends`` is ``core._state_ends`` of T's automaton,
    and ``paths[i]`` lists the states of T[i:i+1], T[i:i+2], ... for as long
    as the prefix also occurs ending before i (``"nonoverlap"``) or starting
    anywhere but i (``"elsewhere"``, i.e. its state has two end bits).  So
    ``len(paths[i])`` is the longest such match, by one walk per start.
    It reads T's shared automaton (``core._suffix_automaton``) and does not
    mutate it.
    """
    syms = T.symbols
    n = len(syms)
    link, length, prefix_state, trans, firstpos = _suffix_automaton(T)
    ends = _state_ends(link, length, prefix_state)
    elsewhere = rule == "elsewhere"
    paths = []
    for i in range(n):
        path = []
        v = 0
        for j in range(i, n):
            v = trans[v][syms[j]]
            if (not ends[v] & (ends[v] - 1)) if elsewhere else (firstpos[v] > i):
                break
            path.append(v)
        paths.append(path)
    return paths, ends


def _lz_end(T: SymbolString) -> list[tuple]:
    """The greedy LZ-End loop: parsing into ``(start, length, kind, source)``
    tuples where every copy's source ends exactly at the end of an earlier
    phrase.

    After each phrase its end e (1-based) is recorded as ``minend`` on the
    states of the suffixes of T[:e], walking suffix links up from the
    prefix's state until a state already holds an (earlier) end; the states
    holding one are thus closed under suffix links.  The next phrase walks
    T[i..] while the prefix occurs before i and takes the deepest state with
    a ``minend``: the longest admissible copy, with its leftmost source
    ending there.  It reads T's shared automaton (``core._suffix_automaton``)
    and keeps its phrase ends in a list of its own, so the automaton is not
    mutated.
    """
    syms = T.symbols
    n = len(syms)
    link, _, prefix_state, trans, firstpos = _suffix_automaton(T)
    minend = [0] * len(link)  # smallest phrase end (1-based last position), 0 for none
    phrases = []
    i = 0
    while i < n:
        v = 0
        j = i
        best_len = best_end = 0
        while j < n:
            v = trans[v][syms[j]]
            if firstpos[v] > i:
                break
            j += 1
            if minend[v]:
                best_len, best_end = j - i, minend[v]
        if best_len == 0:
            if firstpos[trans[0][syms[i]]] <= i:
                # a repeated symbol always has an occurrence ending at some
                # earlier phrase end; reaching here means a parser bug
                raise AssertionError("internal: repeated symbol with no boundary occurrence")
            phrases.append((i + 1, 1, "literal", None))
            i += 1
        else:
            phrases.append((i + 1, best_len, "copy", best_end - best_len + 1))
            i += best_len
        v = prefix_state[i - 1]
        while v > 0 and not minend[v]:
            minend[v] = i
            v = link[v]
    return phrases


def lz_end_greedy(T: SymbolString) -> Factorization:
    """Greedy parsing where every copy's source ends exactly at the end of an
    earlier phrase."""
    return _factorization(T, "lzend")


def _lz78(
    syms: tuple,
    pos0: int = 0,
    root: dict | None = None,
    undo: list | None = None,
    stop: int | None = None,
) -> list[tuple]:
    """The one LZ78 loop: dictionary parsing of ``syms[pos0:]`` into
    ``(start, length, kind, source)`` tuples (1-based starts in ``syms``).

    ``root`` is the dictionary trie to continue from (default: empty); a node
    maps a symbol to ``(children, start)`` of the phrase ending there.  Every
    phrase added to it is recorded as ``(node, symbol)`` in ``undo`` when one
    is given, so a caller can take the additions out again.  The final phrase
    is a ``copy`` of an earlier one when the text ends mid-walk; it depends
    on where the text ends and adds nothing to the trie.  With ``stop`` (at
    most ``len(syms)``), only the phrases that start before that 0-based
    index are parsed.
    """
    n = len(syms)
    if root is None:
        root = {}
    if stop is None:
        stop = n
    phrases = []
    while pos0 < stop:
        node = root
        j = pos0
        source = None
        while j < n:
            entry = node.get(syms[j])
            if entry is None:
                break
            node, source = entry
            j += 1
        if j == n:
            # exhausted mid-walk: the final phrase duplicates an earlier one
            phrases.append((pos0 + 1, j - pos0, "copy", source))
            break
        if source is None:
            phrases.append((pos0 + 1, 1, "literal", None))
        else:
            phrases.append((pos0 + 1, j - pos0 + 1, "copylit", source))
        c = syms[j]
        node[c] = ({}, pos0 + 1)
        if undo is not None:
            undo.append((node, c))
        pos0 = j + 1
    return phrases


def lz78(T: SymbolString) -> Factorization:
    """Dictionary parsing: each phrase extends a previous phrase by one symbol.

    Only the final phrase may duplicate an earlier phrase (when the text ends
    while still walking the dictionary).
    """
    return _factorization(T, "lz78")


def lz_end_optimal(T: SymbolString) -> Factorization:
    """A minimum-size parsing under the ends-at-a-phrase-end source rule.

    The source constraint is circular (admissible sources depend on the phrase
    ends of the very parsing being built), so this is an exact branch-and-bound
    search over parse prefixes, seeded by the greedy parse.  The prefix and
    the best parse so far are ``(start, length, kind, source)`` tuples, the
    seed being ``_lz_end``'s list as it is.  Texts longer than the
    ``REPSENS_LIMIT_LZEND_OPT`` cap (``config.LIMITS``) raise
    ``CapabilityError``.
    """
    _require_nonempty(T)
    n = len(T)
    config.check("REPSENS_LIMIT_LZEND_OPT", n)
    paths, ends = _match_states(T, "nonoverlap")

    # admissible lower bound: phrases needed if every position could jump its
    # longest fully-previous match (a superset of the really admissible moves)
    lb = _jump_lower_bound([len(path) for path in paths])

    best_parse = _lz_end(T)
    best_count = len(best_parse)
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
        path = paths[pos0]
        top = len(path)
        took_any = False
        for length in range(top, 0, -1):
            # bit e: an occurrence of the candidate ends at 1-based position
            # e, and so does a phrase so far (hence e <= pos0)
            hit = (ends[path[length - 1]] << 1) & bmask
            if not hit:
                continue
            took_any = True
            e = (hit & -hit).bit_length() - 1
            acc.append((pos0 + 1, length, "copy", e - length + 1))
            dfs(pos0 + length, bmask | (1 << (pos0 + length)), count + 1, acc)
            acc.pop()
        if top == 0:
            # fresh symbol: the only move is a literal
            acc.append((pos0 + 1, 1, "literal", None))
            dfs(pos0 + 1, bmask | (1 << (pos0 + 1)), count + 1, acc)
            acc.pop()
        elif not took_any:
            raise AssertionError("internal: no admissible phrase at a repeated symbol")

    dfs(0, 1, 0, [])
    return Factorization(tuple(starmap(Phrase, best_parse)), "lzend")


# name -> (public factorizer, parse loop); the exact search has no loop
FACTORIZERS = {
    "lzss_overlap": (lzss_overlapping, partial(_greedy, overlap=True, take_next=False)),
    "lzss_nonoverlap": (lzss_nonoverlapping, partial(_greedy, overlap=False, take_next=False)),
    "lz77_overlap": (lz77_overlapping, partial(_greedy, overlap=True, take_next=True)),
    "lz77_nonoverlap": (lz77_nonoverlapping, partial(_greedy, overlap=False, take_next=True)),
    "lzend": (lz_end_greedy, _lz_end),
    "lzend_opt": (lz_end_optimal, None),
    "lz78": (lz78, lambda T: _lz78(T.symbols)),
}

FLAVORS = tuple(name for name, (_, loop) in FACTORIZERS.items() if loop) + ("bms",)


def check_factorization(T: SymbolString, F: Factorization) -> str | None:
    """None when ``F`` is a structurally valid factorization of ``T`` for its
    flavor, otherwise a diagnostic reason."""
    n = len(T)
    syms = T.symbols
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

    # each lookup table is built only for the flavor that reads it: lzend's
    # phrase ends, and lz78's (start, length) -> 1-based phrase index
    end_set = {p.end for p in F.phrases} if F.flavor == "lzend" else None
    index = None
    if F.flavor == "lz78":
        index = {(p.start, p.length): k for k, p in enumerate(F.phrases, 1)}

    for k, ph in enumerate(F.phrases, 1):
        p0 = ph.start - 1
        if ph.kind == "literal":
            if ph.length != 1:
                return f"literal phrase {k} has length {ph.length}"
            if ph.source is not None:
                return f"literal phrase {k} carries a source"
            if F.flavor not in ("lz78", "bms") and syms.index(syms[p0]) < p0:
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
        if syms[q0 : q0 + copied] != syms[p0 : p0 + copied]:
            return f"phrase {k} does not match its source"

        if F.flavor == "bms":
            if ph.length < 2:
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
        words = [syms[p.start - 1 : p.end] for p in F.phrases]
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
    n, count = _int_fields(lines[0], n_str, count_str)
    if len(lines) - 1 != count:
        raise InputError(f"header promises {count} phrases, found {len(lines) - 1}")
    phrases = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 5:
            raise InputError(f"bad phrase line: {ln!r}")
        _, start, length, kind, src = fields
        start, length, source = _int_fields(ln, start, length, src)
        phrases.append(Phrase(start, length, kind, None if source == 0 else source))
    return Factorization(tuple(phrases), flavor), n


def _int_fields(line: str, *fields: str) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InputError(f"non-integer field in factorization line {line!r}") from None
