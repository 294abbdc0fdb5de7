"""Property-based checks of the substring measures and the parse checker
(hypothesis)."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import naive_oracles as nv
from repsens import (
    MEASURES,
    Edit,
    Factorization,
    Phrase,
    SymbolString,
    apply_edit,
    as_bms,
    bms_is_valid,
    bms_repair,
    check_factorization,
    delta,
    distinct_substrings,
    format_factorization,
    format_symbolic,
    is_attractor,
    lz_end_greedy,
    lzend_repair,
    lzss_nonoverlapping,
    parse_factorization,
    parse_symbolic,
    smallest_bms,
    verify_factorization,
)
from repsens.factorizers import FACTORIZERS, FLAVORS
from repsens.measures import format_attractor, parse_attractor

# fixed examples and no example database, so every run checks the same inputs
fixed = settings(derandomize=True, deadline=None, database=None)

texts = st.lists(st.integers(0, 3), min_size=1, max_size=24)


@st.composite
def texts_with_positions(draw):
    syms = draw(texts)
    positions = draw(st.sets(st.integers(1, len(syms))))
    return syms, positions


@st.composite
def renamings(draw):
    """A text and an injective renaming of its symbols."""
    syms, positions = draw(texts_with_positions())
    alphabet = sorted(set(syms))
    k = len(alphabet)
    images = draw(st.lists(st.integers(0, 300), min_size=k, max_size=k, unique=True))
    rename = dict(zip(alphabet, images))
    return syms, [rename[s] for s in syms], positions


@fixed
@given(renamings())
def test_delta_and_is_attractor_invariant_under_renaming(case):
    syms, renamed, positions = case
    T, U = SymbolString(syms), SymbolString(renamed)
    assert delta(T) == delta(U)
    assert is_attractor(T, positions) == is_attractor(U, positions)


@fixed
@given(texts_with_positions())
def test_is_attractor_invariant_under_reversal(case):
    syms, positions = case
    n = len(syms)
    mirrored = {n + 1 - p for p in positions}
    assert is_attractor(SymbolString(syms), positions) == is_attractor(
        SymbolString(syms[::-1]), mirrored
    )


@fixed
@given(texts)
def test_distinct_substrings_matches_naive(syms):
    T = SymbolString(syms)
    for k in range(1, len(syms) + 1):
        assert distinct_substrings(T, k) == nv.naive_distinct_substrings(syms, k)


# longest text drawn per measure; the exact searches stay under their caps
# (24, 20 and 16 symbols by default, see repsens.config)
RENAMING_MAX_LEN = {"lzend_opt": 20, "gamma": 16, "bms": 13}


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_every_measure_invariant_under_renaming(name):
    """The premise of the exhaustive sweep's renaming-class memo."""
    fn = MEASURES[name]
    syms = st.lists(st.integers(0, 3), min_size=1, max_size=RENAMING_MAX_LEN.get(name, 24))

    @fixed
    @given(syms, st.permutations(range(4)), st.integers(0, 300))
    def check(syms, perm, shift):
        renamed = [perm[s] + shift for s in syms]
        assert fn(SymbolString(syms)) == fn(SymbolString(renamed))

    check()


@st.composite
def factorizations(draw):
    """Any tiling of [1, n] into phrases, valid for its flavor or not: the
    text form carries structure only (a literal's source is written as 0)."""
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 9), st.sampled_from(("literal", "copy", "copylit")),
                  st.integers(1, 2**40)),
        max_size=12,
    ))
    phrases, start = [], 1
    for length, kind, source in shapes:
        phrases.append(Phrase(start, length, kind, None if kind == "literal" else source))
        start += length
    return Factorization(tuple(phrases), draw(st.sampled_from(FLAVORS))), start - 1


@fixed
@given(factorizations())
def test_factorization_text_round_trip(case):
    F, n = case
    assert parse_factorization(format_factorization(F, n)) == (F, n)


@fixed
@given(st.frozensets(st.integers(1, 2**40)))
def test_attractor_text_round_trip(positions):
    assert parse_attractor(format_attractor(positions)) == positions


@fixed
@given(st.lists(st.integers(0, 2**70)))
def test_symbolic_text_round_trip(syms):
    T = SymbolString(syms)
    assert parse_symbolic(format_symbolic(T)) == T


def valid_parses(T):
    """A valid parse of every flavor, from the parsers (two for lzend)."""
    for factorize, _ in FACTORIZERS.values():
        yield factorize(T)
    yield smallest_bms(T) if len(T) <= 8 else as_bms(lzss_nonoverlapping(T))


def single_field_mutations(ph, n):
    """Every phrase that differs from ``ph`` in one field: start and length
    by up to 2 either way, the other kinds, and every other source in
    [0, n + 1] or none."""
    for step in (-2, -1, 1, 2):
        yield "start", dataclasses.replace(ph, start=ph.start + step)
        yield "length", dataclasses.replace(ph, length=ph.length + step)
    for kind in ("literal", "copy", "copylit"):
        if kind != ph.kind:
            yield "kind", dataclasses.replace(ph, kind=kind)
    for source in [None, *range(n + 2)]:
        if source != ph.source:
            yield "source", dataclasses.replace(ph, source=source)


@fixed
@given(st.lists(st.integers(0, 2), min_size=1, max_size=14))
def test_check_factorization_rejects_single_field_mutations(syms):
    """A start or length change always breaks the tiling.  A kind or source
    change may give another valid parse (a second admissible occurrence, or
    a final LZ77 copy read as copy-plus-symbol), so there the checker must
    agree with a naive validity check written from the phrase definitions."""
    T = SymbolString(syms)
    n = len(syms)
    for F in valid_parses(T):
        assert check_factorization(T, F) is None
        assert nv.naive_parse_valid(syms, [dataclasses.astuple(p) for p in F.phrases], F.flavor)
        for k, ph in enumerate(F.phrases):
            for field, changed in single_field_mutations(ph, n):
                phrases = list(F.phrases)
                phrases[k] = changed
                verdict = check_factorization(T, Factorization(tuple(phrases), F.flavor))
                naive = nv.naive_parse_valid(syms, [dataclasses.astuple(p) for p in phrases], F.flavor)
                assert (verdict is None) == naive, (F.flavor, k, changed, verdict)
                if field in ("start", "length"):
                    assert verdict is not None, (F.flavor, k, changed)


@st.composite
def long_texts_with_edits(draw):
    """A text of up to 300 symbols, random or a short word repeated with a
    few symbols changed, and one applicable edit (a substitution writes a
    different symbol, possibly one new to the text)."""
    n = draw(st.integers(1, 300))
    sigma = draw(st.integers(1, 4))
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=12))
        syms = [word[i % len(word)] for i in range(n)]
        changes = st.tuples(st.integers(0, n - 1), st.integers(0, sigma - 1))
        for pos0, c in draw(st.lists(changes, max_size=4)):
            syms[pos0] = c
    else:
        syms = draw(st.lists(st.integers(0, sigma - 1), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("sub", "ins", "del")))
    if kind == "del":
        return syms, Edit("del", draw(st.integers(1, n)))
    c = draw(st.integers(0, sigma))
    if kind == "ins":
        return syms, Edit("ins", draw(st.integers(0, n)), c)
    pos = draw(st.integers(1, n))
    return syms, Edit("sub", pos, sigma + 1 if c == syms[pos - 1] else c)


@fixed
@given(long_texts_with_edits())
def test_bms_repair_valid_within_bound(case):
    syms, e = case
    T = SymbolString(syms)
    got, report = bms_repair(T, as_bms(lzss_nonoverlapping(T)), e)
    assert bms_is_valid(apply_edit(T, e), got)
    assert got.size == report.output_size <= report.bound


@fixed
@given(long_texts_with_edits())
def test_lzend_repair_valid_within_bound(case):
    syms, e = case
    T = SymbolString(syms)
    got, report = lzend_repair(T, lz_end_greedy(T), e)
    assert verify_factorization(apply_edit(T, e), got)
    assert got.size == report.output_size <= report.bound
