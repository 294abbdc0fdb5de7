"""LZ-style factorizations with a shared phrase representation.

Phrase kinds:

* ``literal``  - a single symbol with no source.
* ``copy``     - the whole phrase repeats the text at ``source``.
* ``copylit``  - the first ``length - 1`` symbols repeat the text at
  ``source`` and the last symbol is carried literally (the classic
  match-plus-symbol phrase shape; also the parent-plus-symbol shape of
  dictionary parsing).

Each parser family has one loop, which emits plain ``(start, length, kind,
source)`` tuples: ``_greedy`` for LZSS/LZ77, ``_lz_end`` for greedy LZ-End and
``_lz78``.  The two exact searches, ``lz_end_optimal`` and
``measures.smallest_bms``, keep the parse they build in the same tuples and
make ``Phrase`` objects once, for the result.  ``FACTORIZERS`` is the one
place that names each factorizer and its loop call: the public factorizers
build a ``Factorization`` of ``Phrase`` objects from the loop's tuples, the
sweeps' sizes (``sensitivity.MEASURES``) count them, and the CLI spellings
(``cli.FLAVOR_FLAGS``) are its names with ``-`` for ``_``; each greedy
flavor's ``_greedy`` flags are written there once, as a ``partial``.  The
one resumed sweep loop (``sensitivity._resumed``, one family per loop)
re-parses each edited text only from the phrase of the unedited text whose
walk reaches the edit: ``_lz78`` takes a start position, continues with a
given trie and logs its insertions for taking out again, and the greedy
flavors' walk on the edited text's string (``sensitivity._greedy_walk``)
makes its phrases with ``_greedy``'s rule and shape (``_phrase``).

The greedy parsers, and the match tables of the exact searches, walk the
one suffix automaton of the text that ``core._suffix_automaton`` owns: it
is built once for every loop that reads the same text, and no loop mutates
it.  Following the rest of the text from the root, each
state's first end index tells whether the prefix read so far has an
admissible earlier occurrence and where the leftmost one starts, and its
end-position bitmask (``core._state_ends``) lists every occurrence.  The
verifier compares symbol slices.  Correctness is pinned to naive reference
parsers by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import starmap

from . import config
from .core import InputError, SymbolString, _state_ends, _suffix_automaton


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
    """The one LZSS/LZ77 loop: greedy longest-match parsing of ``T`` into
    ``(start, length, kind, source)`` tuples (1-based starts in T).  With
    ``take_next`` a match also takes the following symbol, unless the text
    ends inside the match (``_phrase``).

    From 0-based position i the walk reads T[i..j] from the root while the
    prefix's leftmost occurrence starts before i (``overlap``) or ends before
    i.  With ``firstpos`` the 1-based end of that occurrence, the tests read
    ``firstpos <= j`` and ``firstpos <= i``.  Both are monotone in j, and the
    leftmost occurrence is the copy's source.  So a phrase is decided by
    T[:j+1], where j is the index its walk stops at (``_walk_end``; n when
    the text runs out), and a parse from the start of any phrase yields the
    rest of the phrases.  The loop reads T's shared automaton
    (``core._suffix_automaton``) and does not mutate it; the resumed sweeps
    parse edited texts with the same rule on their strings
    (``sensitivity._greedy_walk``).
    """
    syms = T.symbols
    n = len(syms)
    trans, firstpos = _suffix_automaton(T)[3:]
    phrases = []
    i = 0
    while i < n:
        v = 0
        j = i
        while j < n:
            w = trans[v][syms[j]]
            if firstpos[w] > (j if overlap else i):
                break
            v = w
            j += 1
        phrase = _phrase(i, j - i, firstpos[v] - (j - i) + 1, take_next, n)
        phrases.append(phrase)
        i += phrase[1]
    return phrases


def _phrase(i: int, length: int, source: int, take_next: bool, n: int) -> tuple:
    """The phrase of a greedy walk from 0-based i, in a text of n symbols,
    that found ``length`` symbols to copy from 1-based ``source``: the one
    place the literal, copy and copylit shapes are made."""
    if length == 0:
        return (i + 1, 1, "literal", None)
    if take_next and i + length < n:
        return (i + 1, length + 1, "copylit", source)
    return (i + 1, length, "copy", source)


def _walk_end(phrase: tuple) -> int:
    """The 0-based index at which the walk for this phrase tuple stopped, in
    both loops ``sensitivity._resumed`` resumes, ``_greedy`` and ``_lz78``:
    a literal's own index, a copylit's last symbol, and the index after a
    copy (the text's length when it ran out)."""
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
