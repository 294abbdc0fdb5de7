"""Parametric string families realizing large measure growth under one edit,
with closed-form expected counts attached for testing and sweeps.

Symbol numbering is fixed so fixtures diff cleanly:
a_i -> i, b_i -> p+i, c_i -> 2p+i, x -> 3p+1, y -> 3p+2, #_i -> 3p+2+i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edit, InputError, SymbolString, apply_edit


@dataclass(frozen=True)
class WitnessBundle:
    family: str
    p: int
    base: SymbolString
    edits: dict  # edit kind -> Edit
    edited: dict  # edit kind -> SymbolString
    symbol_names: dict  # symbol -> display name
    expected: dict  # measure key -> exact count
    expected_min: dict  # measure key -> lower bound


def pair_sequence(p: int) -> tuple:
    """All pairs (l, r) in [1, p] x [1, p], ordered by l + r then by l.

    The sequence has p*p entries and drives the block structure of the
    LZ witness text; the sum of l + r over it is p*p*(p+1).
    """
    if p < 2:
        raise InputError(f"pair sequence needs p >= 2, got {p}")
    return tuple(
        (l, k - l)
        for k in range(2, 2 * p + 1)
        for l in range(max(1, k - p), min(p, k - 1) + 1)
    )


def _symbol_table(p: int, hashes: int) -> dict:
    names = {}
    for j in range(1, p + 1):
        names[j] = f"a_{j}"
        names[p + j] = f"b_{j}"
        names[2 * p + j] = f"c_{j}"
    names[3 * p + 1] = "x"
    names[3 * p + 2] = "y"
    for j in range(1, hashes + 1):
        names[3 * p + 2 + j] = f"#_{j}"
    return names


def lz_witness(p: int) -> WitnessBundle:
    """Family with small greedy LZ-End size whose single-spot edits force the
    overlap-free prefix matches apart block by block.

    Text: B(p) x A(p) then, per pair (l, r), a fresh separator followed by
    B(l) x A(r), where A(i) = a_1..a_i and B(i) = b_i..b_1.  The edit spot is
    the first x.  Exact counts: greedy LZ-End of the base is 2p^2 + 2p + 1;
    overlapping-match parsing of the substituted text is 3p^2 + 2p + 2; for
    the inserted and deleted variants it is at least 3p^2.
    """
    if p < 2:
        raise InputError(f"lz witness needs p >= 2, got {p}")
    a = lambda j: j
    b = lambda j: p + j
    x = 3 * p + 1
    y = 3 * p + 2
    sep = lambda j: 3 * p + 2 + j

    def A(i):
        return [a(j) for j in range(1, i + 1)]

    def B(i):
        return [b(j) for j in range(i, 0, -1)]

    syms = B(p) + [x] + A(p)
    for idx, (l, r) in enumerate(pair_sequence(p), 1):
        syms += [sep(idx)] + B(l) + [x] + A(r)
    base = SymbolString(syms)

    edits = {
        "sub": Edit("sub", p + 1, y),
        "ins": Edit("ins", p + 1, y),
        "del": Edit("del", p + 1),
    }
    edited = {kind: apply_edit(base, ed) for kind, ed in edits.items()}
    expected = {
        "lzend_T": 2 * p * p + 2 * p + 1,
        "lzss_overlap_T_sub": 3 * p * p + 2 * p + 2,
    }
    expected_min = {
        "lzss_overlap_T_ins": 3 * p * p,
        "lzss_overlap_T_del": 3 * p * p,
    }
    return WitnessBundle(
        "lz", p, base, edits, edited, _symbol_table(p, p * p), expected, expected_min
    )


def lz78_witness(p: int) -> WitnessBundle:
    """Family whose dictionary parsing grows linearly under one edit.

    Text: c_1..c_p, then a_i a_i b_i blocks, then a_i b_i c_i blocks; length
    7p.  The edit spot is position 4p + 1 (the first symbol of the third
    section); the fresh symbol shifts every later block off its dictionary
    word.  Exact counts: 4p phrases before, 5p + 1 after substitution.
    """
    if p < 1:
        raise InputError(f"lz78 witness needs p >= 1, got {p}")
    a = lambda j: j
    b = lambda j: p + j
    c = lambda j: 2 * p + j
    hash_sym = 3 * p + 3  # the fresh symbol, #_1 in the display table

    syms = [c(j) for j in range(1, p + 1)]
    for j in range(1, p + 1):
        syms += [a(j), a(j), b(j)]
    for j in range(1, p + 1):
        syms += [a(j), b(j), c(j)]
    base = SymbolString(syms)
    assert len(base) == 7 * p

    pos = 4 * p + 1
    edits = {
        "sub": Edit("sub", pos, hash_sym),
        "ins": Edit("ins", pos, hash_sym),
        "del": Edit("del", pos),
    }
    edited = {kind: apply_edit(base, ed) for kind, ed in edits.items()}
    expected = {
        "lz78_T": 4 * p,
        "lz78_T_sub": 5 * p + 1,
    }
    return WitnessBundle(
        "lz78", p, base, edits, edited, _symbol_table(p, 1), expected, {}
    )


# family -> member for p, looked up at call time as the module attribute
FAMILIES = {"lz": lambda p: lz_witness(p), "lz78": lambda p: lz78_witness(p)}
