"""Property-based checks of the substring measures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as nv
from repsens import SymbolString, delta, distinct_substrings, is_attractor

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
