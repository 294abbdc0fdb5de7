"""Symbol strings, single-character edits, and substring utilities.

Texts are sequences of non-negative integer symbols rather than bytes so
that constructions needing large parametric alphabets stay exact; symbols
have no upper bound.  Substring questions follow one rule: greedy copies of
any text, edited or not, go to its string; all three exact searches' match
tables, and LZ-End copies in a text shorter than ``factorizers._MASK_CUT``,
go to bit-parallel occurrence masks (``factorizers._prefix_masks``); and
the questions about every distinct substring, LZ-End copies in longer
texts, the attractor check and the greedy sweeps' follow sets go to its
suffix automaton, which is built once and never mutated.
``_suffix_automaton(T)`` keeps the automaton of the last text it was asked
for, so the parsers and measures called in turn on one text build it once;
``_sa_new`` is the one construction loop.  The strings come from
``_as_strs`` (at most 0x110000 distinct symbols, one per code point) and
are searched by ``str.find``, ``str.rfind`` and ``in``: the greedy
LZSS/LZ77 parses (``factorizers._greedy_walk``) and the seam walk of
``repair.attractor_repair`` search them, and ``sensitivity._greedy_family``
also asks T's string for the last occurrence of a phrase before a bound,
which the automaton would answer only with n²-bit end sets.  The greedy
parses and ``_greedy_family`` look for words longer than a few symbols in
a string's packed view (``factorizers._packed``) when its characters are
all below 16, as a full parse makes them in a text of at most 16 distinct
symbols by ranking them.  All public position arguments are 1-based and
slices are inclusive.

An edit is applied in one place, ``_edited``, on a tuple of symbols, also
the sweeps' placeholder edit by -1.  The sweeps stream ``(kind, position,
symbol)`` fields of one kind in position order from ``_edit_fields`` and
build an ``Edit`` only for their result; ``enumerate_edits`` and
``apply_edit`` are the same pieces behind the public objects.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

EDIT_KINDS = ("sub", "ins", "del")


class InputError(ValueError):
    """An argument violates an operation's contract."""


class CapabilityError(RuntimeError):
    """An input exceeds a configured exhaustive-search limit."""


def _integer(x, what: str) -> int:
    """``x`` as an int, rejecting floats and other non-integral values."""
    try:
        return index(x)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {x!r}") from None


class SymbolString:
    """Immutable sequence of non-negative integer symbols.

    ``at(i)`` and ``sub(i, j)`` use 1-based inclusive indexing; ``sub``
    returns the empty string when ``i > j``.  Hashable and picklable, with
    value equality.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[int] = ()):
        try:
            syms = tuple(map(index, symbols))
        except TypeError as exc:
            raise InputError(f"symbols must be integers: {exc}") from None
        if syms and min(syms) < 0:
            raise InputError(f"symbols must be non-negative, got {min(syms)}")
        _set_symbols(self, syms)

    @classmethod
    def _trusted(cls, syms: tuple) -> "SymbolString":
        """Wrap a tuple of symbols that are already known to be valid."""
        self = object.__new__(cls)
        _set_symbols(self, syms)
        return self

    @classmethod
    def from_text(cls, text: str) -> "SymbolString":
        """One symbol per UTF-8 byte of ``text``."""
        return cls(text.encode("utf-8"))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SymbolString":
        """One symbol per byte."""
        return cls(data)

    def at(self, i: int) -> int:
        """The i-th symbol, 1-based."""
        i = _integer(i, "position")
        if not 1 <= i <= len(self.symbols):
            raise InputError(f"position {i} out of range [1, {len(self.symbols)}]")
        return self.symbols[i - 1]

    def sub(self, i: int, j: int) -> "SymbolString":
        """Inclusive slice [i, j]; empty when i > j."""
        i, j = _integer(i, "slice start"), _integer(j, "slice end")
        if i > j:
            return SymbolString()
        if i < 1 or j > len(self.symbols):
            raise InputError(f"slice [{i}, {j}] out of range [1, {len(self.symbols)}]")
        return SymbolString(self.symbols[i - 1 : j])

    def alphabet(self) -> frozenset[int]:
        return frozenset(self.symbols)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SymbolString")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable SymbolString")

    def __reduce__(self):
        return (SymbolString, (self.symbols,))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if isinstance(other, SymbolString):
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"SymbolString({list(self.symbols)!r})"


# the slot setter, which bypasses the immutability guard of __setattr__
_set_symbols = SymbolString.__dict__["symbols"].__set__


class Edit:
    """A single-character substitution, insertion, or deletion.

    Substitution and deletion positions index an existing symbol.  Insertion
    position ``i`` means "insert after position i", so ``i == 0`` prepends.
    Immutable, hashable and picklable, with value equality.
    """

    __slots__ = ("kind", "position", "symbol")

    def __init__(self, kind: str, position: int, symbol: int | None = None):
        if kind not in EDIT_KINDS:
            raise InputError(f"edit kind must be one of {EDIT_KINDS}, got {kind!r}")
        if kind == "del":
            if symbol is not None:
                raise InputError("deletion carries no symbol")
        else:
            if symbol is not None:
                symbol = _integer(symbol, "edit symbol")
            if symbol is None or symbol < 0:
                raise InputError(f"{kind} edit needs a non-negative symbol")
        _set_kind(self, kind)
        _set_position(self, _integer(position, "edit position"))
        _set_symbol(self, symbol)

    @classmethod
    def _trusted(cls, kind: str, position: int, symbol: int | None = None) -> "Edit":
        """An edit whose fields are already known to be valid."""
        self = object.__new__(cls)
        _set_kind(self, kind)
        _set_position(self, position)
        _set_symbol(self, symbol)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Edit")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Edit")

    def _key(self) -> tuple:
        return (self.kind, self.position, self.symbol)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Edit(kind={self.kind!r}, position={self.position!r}, symbol={self.symbol!r})"

    def __reduce__(self):
        return (Edit, self._key())


# the slot setters, which bypass the immutability guard of __setattr__
_set_kind, _set_position, _set_symbol = (Edit.__dict__[f].__set__ for f in Edit.__slots__)


def check_edit(T: SymbolString, e: Edit) -> None:
    """Raise InputError unless ``e`` is applicable to ``T``."""
    n = len(T)
    if e.kind == "ins":
        if not 0 <= e.position <= n:
            raise InputError(f"insertion position {e.position} out of range [0, {n}]")
    else:
        if not 1 <= e.position <= n:
            raise InputError(f"{e.kind} position {e.position} out of range [1, {n}]")


def apply_edit(T: SymbolString, e: Edit) -> SymbolString:
    """The string obtained by performing ``e`` on ``T``; an ``Edit`` carries
    a valid symbol already."""
    check_edit(T, e)
    return SymbolString._trusted(_edited(T.symbols, e.kind, e.position, e.symbol))


def _edited(syms: tuple, kind: str, position: int, symbol: int | None) -> tuple:
    """The symbols of ``syms`` after the edit with these fields, which are
    known to be applicable: the one place an edit is performed."""
    if kind == "del":
        return syms[: position - 1] + syms[position:]
    if kind == "sub":
        return syms[: position - 1] + (symbol,) + syms[position:]
    return syms[:position] + (symbol,) + syms[position:]


def _edit_alphabet(alphabet: Iterable[int], kinds: set) -> list[int]:
    """The edit symbols of ``alphabet``, sorted; InputError unless they are
    integers, non-empty and (for a kind that writes one) non-negative, and
    ``kinds`` are edit kinds."""
    sigma = sorted({_integer(c, "edit symbol") for c in alphabet})
    if not sigma:
        raise InputError("alphabet must be non-empty")
    if not kinds <= set(EDIT_KINDS):
        raise InputError(f"edit kinds must be among {EDIT_KINDS}, got {kinds!r}")
    if sigma[0] < 0 and kinds - {"del"}:
        raise InputError(f"edit symbols must be non-negative, got {sigma[0]}")
    return sigma


def _edit_fields(syms: tuple, sigma: list[int], kinds) -> Iterator[tuple]:
    """The ``(kind, position, symbol)`` fields of every edit of ``syms`` in
    the order of ``enumerate_edits``, for a validated sorted ``sigma``."""
    n = len(syms)
    if "sub" in kinds:
        for i in range(1, n + 1):
            old = syms[i - 1]
            for c in sigma:
                if c != old:
                    yield "sub", i, c
    if "ins" in kinds:
        for i in range(0, n + 1):
            for c in sigma:
                yield "ins", i, c
    if "del" in kinds:
        for i in range(1, n + 1):
            yield "del", i, None


def enumerate_edits(
    T: SymbolString, alphabet: Iterable[int], kinds: Iterable[str] = EDIT_KINDS
) -> Iterator[Edit]:
    """All single-character edits of ``T`` drawing symbols from ``alphabet``,
    restricted to the edit ``kinds`` (default: all three).

    Deterministic order: substitutions, then insertions, then deletions; within
    a kind by position, then by symbol.  A kind filter keeps this order, so it
    yields exactly the filtered full enumeration.  Substitutions that would
    rewrite a symbol to itself are skipped.  The sweeps iterate the plain
    fields (``_edit_fields``) and build an ``Edit`` only for their result.
    """
    kinds = set(kinds)
    sigma = _edit_alphabet(alphabet, kinds)
    trusted = Edit._trusted
    for fields in _edit_fields(T.symbols, sigma, kinds):
        yield trusted(*fields)


# (symbols, automaton) of the last text _suffix_automaton was asked for
_cache: tuple = (None, None)


def _suffix_automaton(
    T: SymbolString,
) -> tuple[list[int], list[int], list[int], list[dict], list[int]]:
    """Suffix automaton of ``T`` (Blumer et al., TCS 1985): ``(link, length,
    prefix_state, trans, firstpos)``.  State v > 0 stands for the substrings
    sharing one set of end positions, of lengths ``length[link[v]] + 1`` to
    ``length[v]``; ``prefix_state[i]`` is the state of ``T[:i+1]``.
    ``trans[v]`` maps a symbol to the state reached by appending it, so
    following any substring of ``T`` from the root (state 0) ends at its
    state.  ``firstpos[v]`` is the smallest end position (1-based: the
    length of the shortest prefix of ``T`` that has them as suffixes) of the
    state's substrings; a clone inherits it from the state it splits, and
    the root has 0.

    The automaton is shared: one entry, keyed by the identity of
    ``T.symbols``, is kept until another text's is asked for.  The entry
    holds that tuple, so its id is not reused while it is kept, and it is
    dropped before the next build, so two long texts' automata are never
    alive here at once.  Callers must not mutate it."""
    global _cache
    syms = T.symbols
    entry = _cache  # a local, so a concurrent miss can cost a build but not the answer
    if entry[0] is not syms:
        entry = _cache = (None, None)  # frees the old automaton before the build
        entry = _cache = (syms, _sa_new(syms))
    return entry[1]


def _sa_new(symbols) -> tuple:
    """The suffix automaton of ``symbols``, in the form of
    ``_suffix_automaton``: the one construction loop, appending one symbol
    at a time.  Nothing writes to the automaton after it returns."""
    link, length, prefix_state, trans, firstpos = sa = ([-1], [0], [], [{}], [0])
    last = 0
    for c in symbols:
        cur = len(length)
        end = length[last] + 1
        length.append(end)
        link.append(0)
        trans.append({})
        firstpos.append(end)
        p = last
        while p != -1 and c not in trans[p]:
            trans[p][c] = cur
            p = link[p]
        if p != -1:
            q = trans[p][c]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                firstpos.append(firstpos[q])
                while p != -1 and trans[p].get(c) == q:
                    trans[p][c] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
        prefix_state.append(cur)
    return sa


def _as_strs(*seqs) -> list[str]:
    """The symbol sequences ``seqs`` as strings, one character per symbol:
    its code point, or, when some symbol has none (it is negative, as the
    sweeps' placeholder -1, or beyond Unicode), its rank of first occurrence
    over all of them in order, the same in every string.  CapabilityError
    when they hold more distinct symbols than there are code points."""
    try:
        return ["".join(map(chr, s)) for s in seqs]
    except (ValueError, OverflowError):  # chr of a symbol below 0 or past 0x10FFFF
        names = dict.fromkeys(x for s in seqs for x in s)
        if len(names) > 0x110000:
            raise CapabilityError(
                f"{len(names)} distinct symbols; the string paths take at most 1,114,112"
            ) from None
        names = {c: chr(r) for r, c in enumerate(names)}
        return ["".join(map(names.__getitem__, s)) for s in seqs]


def distinct_substrings(T: SymbolString, k: int) -> int:
    """Number of distinct length-k substrings of ``T``."""
    n = len(T)
    k = _integer(k, "substring length")
    if not 1 <= k <= n:
        raise InputError(f"substring length {k} out of range [1, {n}]")
    link, length = _suffix_automaton(T)[:2]
    return sum(length[link[v]] < k <= length[v] for v in range(1, len(length)))


def format_symbolic(T: SymbolString) -> str:
    """One text per line: symbols as space-separated decimal integers."""
    return " ".join(str(s) for s in T.symbols)


def parse_symbolic(line: str) -> SymbolString:
    fields = line.split()
    try:
        syms = [int(f) for f in fields]
    except ValueError as exc:
        raise InputError(f"symbolic text must be decimal integers: {exc}") from exc
    return SymbolString(syms)
