import itertools
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as nv
from repsens import (
    CapabilityError,
    Edit,
    InputError,
    SymbolString,
    apply_edit,
    attractor_repair,
    bms_repair,
    delta,
    distinct_substrings,
    enumerate_edits,
    format_symbolic,
    is_attractor,
    lz_end_greedy,
    lzend_repair,
    lzss_nonoverlapping,
    parse_symbolic,
    smallest_attractor,
    smallest_bms,
)
import repsens.core
from repsens.core import EDIT_KINDS, _as_strs, _sa_new, _suffix_automaton
from repsens.factorizers import FACTORIZERS
from repsens.measures import as_bms


def test_apply_edit_examples():
    T = SymbolString([1, 2, 3])
    assert apply_edit(T, Edit("sub", 2, 9)).symbols == (1, 9, 3)
    assert apply_edit(T, Edit("ins", 0, 9)).symbols == (9, 1, 2, 3)
    assert apply_edit(T, Edit("del", 3)).symbols == (1, 2)


def test_apply_edit_lengths():
    T = SymbolString([5, 6, 7, 8])
    assert len(apply_edit(T, Edit("sub", 1, 0))) == 4
    assert len(apply_edit(T, Edit("ins", 4, 0))) == 5
    assert len(apply_edit(T, Edit("del", 1))) == 3


def test_apply_edit_position_errors():
    T = SymbolString([1, 2])
    with pytest.raises(InputError):
        apply_edit(T, Edit("sub", 3, 0))
    with pytest.raises(InputError):
        apply_edit(T, Edit("ins", 3, 0))
    with pytest.raises(InputError):
        apply_edit(T, Edit("del", 0))


def test_edit_field_validation():
    with pytest.raises(InputError, match="edit kind must be one of"):
        Edit("swap", 1, 0)
    with pytest.raises(InputError, match="^deletion carries no symbol$"):
        Edit("del", 1, 7)
    with pytest.raises(InputError, match="^sub edit needs a non-negative symbol$"):
        Edit("sub", 1, None)
    with pytest.raises(InputError, match="^ins edit needs a non-negative symbol$"):
        Edit("ins", 0, -1)


def test_non_integer_symbols_and_positions_rejected():
    # floats used to be truncated (symbols) or to fail later in slicing
    # (positions); True and False pass as the integers they are
    for bad in ([1.7, 2], [0, "1"], [None]):
        with pytest.raises(InputError, match="must be integers"):
            SymbolString(bad)
    with pytest.raises(InputError, match="edit symbol must be an integer"):
        Edit("sub", 1, 2.5)
    with pytest.raises(InputError, match="edit position must be an integer"):
        Edit("sub", 1.5, 2)
    with pytest.raises(InputError, match="edit position must be an integer"):
        Edit("del", "1")
    with pytest.raises(InputError, match="edit symbol must be an integer"):
        list(enumerate_edits(SymbolString([0, 1]), [0, 0.5]))
    assert SymbolString([True, 2]).symbols == (1, 2)
    assert Edit("sub", 2, False) == Edit("sub", 2, 0)


@pytest.mark.parametrize(
    "call, args, what",
    [
        (distinct_substrings, (1.5,), "substring length"),  # used to count k=2
        (SymbolString.at, (2.0,), "position"),
        (SymbolString.sub, (1.5, 3), "slice start"),
        (SymbolString.sub, (1, 3.0), "slice end"),
        *((is_attractor, ([bad],), "attractor position") for bad in (1.5, 2.0, "1", None)),
        *(
            (attractor_repair, (gamma, Edit("sub", 1, 1)), "attractor position")
            for gamma in ([1.5, 4], [3, 4.0], ["3", 4], [None, 4])
        ),
    ],
)
def test_integer_arguments_are_checked(call, args, what):
    T = SymbolString([0, 1, 0, 1, 1])
    # {3, 4} is an attractor of T, so [3, 4.0] used to pass the repair's
    # check of the last attractor it was given without a check
    attractor_repair(T, {3, 4}, Edit("sub", 1, 1))
    with pytest.raises(InputError, match=f"^{what} must be an integer, got "):
        call(T, *args)


def test_edit_value_semantics():
    e = Edit("sub", 3, 2)
    assert repr(e) == "Edit(kind='sub', position=3, symbol=2)"
    assert repr(Edit("del", 1)) == "Edit(kind='del', position=1, symbol=None)"
    assert e == Edit("sub", 3, 2) and hash(e) == hash(Edit("sub", 3, 2))
    assert e != Edit("sub", 3, 1) and e != Edit("ins", 3, 2)
    assert e != ("sub", 3, 2)
    assert len({e, Edit("sub", 3, 2), Edit("del", 3)}) == 2
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(e, protocol))
        assert copy == e and type(copy) is Edit
    for field in ("kind", "position", "symbol", "other"):
        with pytest.raises(AttributeError):
            setattr(e, field, 1)
    with pytest.raises(AttributeError):
        del e.kind
    assert (e.kind, e.position, e.symbol) == ("sub", 3, 2)


def test_symbol_string_is_immutable():
    T = SymbolString([0, 1])
    key = hash(T)
    with pytest.raises(AttributeError):
        T.symbols = (-1, 5)  # would skip the non-negative check and rehash T
    with pytest.raises(AttributeError):
        del T.symbols
    assert T.symbols == (0, 1) and hash(T) == key
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(T, protocol))
        assert copy == T and type(copy) is SymbolString


def test_enumerated_edits_equal_validated_ones():
    T = SymbolString([0, 1, 1])
    for e in enumerate_edits(T, {0, 1, 2}):
        assert e == Edit(e.kind, e.position, e.symbol) and repr(e).startswith("Edit(")
    with pytest.raises(InputError, match="non-negative"):
        list(enumerate_edits(T, {-1, 0}))
    assert len(list(enumerate_edits(T, {-1, 0}, ("del",)))) == 3


def _inverse(T, e):
    if e.kind == "sub":
        return Edit("sub", e.position, T.at(e.position))
    if e.kind == "ins":
        return Edit("del", e.position + 1)
    return Edit("ins", e.position - 1, T.at(e.position))


def test_edit_then_inverse_is_identity_exhaustive():
    # every binary string up to length 12, every edit over {0, 1, 2}
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n - 1):
            T = SymbolString((0,) + bits)
            for e in enumerate_edits(T, {0, 1, 2}):
                back = _inverse(T, e)
                assert apply_edit(apply_edit(T, e), back) == T


@st.composite
def texts_with_edits(draw):
    """A text over 0..3 and one edit of it with a symbol from 0..4."""
    syms = draw(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    T = SymbolString(syms)
    return T, draw(st.sampled_from(list(enumerate_edits(T, range(5)))))


@settings(derandomize=True, deadline=None, database=None)
@given(texts_with_edits())
def test_edit_then_inverse_is_identity_property(case):
    T, e = case
    assert apply_edit(apply_edit(T, e), _inverse(T, e)) == T


def test_enumerate_edits_kind_filter_is_filtered_enumeration():
    for T in (SymbolString([0]), SymbolString([0, 1, 0]), SymbolString([2, 2, 0, 1])):
        full = list(enumerate_edits(T, {0, 1, 2}))
        for r in range(len(EDIT_KINDS) + 1):
            for kinds in itertools.permutations(EDIT_KINDS, r):
                got = list(enumerate_edits(T, {0, 1, 2}, kinds))
                assert got == [e for e in full if e.kind in kinds], kinds
    assert list(enumerate_edits(T, {0, 1})) == list(enumerate_edits(T, {0, 1}, EDIT_KINDS))
    with pytest.raises(InputError):
        list(enumerate_edits(T, {0, 1}, ("sub", "swap")))


HUGE = 2**40


def _renamed(e, rename):
    return e if e.kind == "del" else Edit(e.kind, e.position, rename[e.symbol])


def test_huge_symbols_match_renamed_small_forms():
    # symbols have no upper bound: a text over symbols above 2**40 parses,
    # measures and repairs exactly like its renaming to 0, 1, 2, ...
    assert apply_edit(SymbolString([1, 2]), Edit("ins", 2, HUGE**2)).symbols == (1, 2, HUGE**2)
    rng = random.Random(43)
    parsers = [fn for fn, _ in FACTORIZERS.values()] + [smallest_bms]
    for _ in range(40):
        n = rng.randint(1, 13)
        small = [rng.randrange(3) for _ in range(n)]
        rename = {c: HUGE + rng.randrange(HUGE) * 7 + c for c in range(4)}
        S, H = SymbolString(small), SymbolString(rename[c] for c in small)
        for parse in parsers:
            assert parse(S) == parse(H), parse.__name__
        assert delta(S) == delta(H)
        gamma = smallest_attractor(S)
        assert smallest_attractor(H) == gamma
        positions = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
        assert is_attractor(S, positions) == is_attractor(H, positions)
        scheme, greedy = as_bms(lzss_nonoverlapping(S)), lz_end_greedy(S)
        for e in rng.sample(list(enumerate_edits(S, range(4))), 6):
            if e.kind == "sub" and S.at(e.position) == e.symbol:
                continue
            big = _renamed(e, rename)
            assert apply_edit(H, big) == SymbolString(
                rename[c] for c in apply_edit(S, e).symbols
            )
            for repair, cert in ((attractor_repair, gamma), (bms_repair, scheme),
                                 (lzend_repair, greedy)):
                got, report = repair(S, cert, e)
                got_h, report_h = repair(H, cert, big)
                assert got_h == got, repair.__name__
                assert (report_h.output_size, report_h.bound, report_h.ledger) == (
                    report.output_size, report.bound, report.ledger
                )


def test_enumerate_edits_counts():
    T = SymbolString([0, 1, 0])
    sigma = {0, 1, 2}
    edits = list(enumerate_edits(T, sigma))
    subs = [e for e in edits if e.kind == "sub"]
    ins = [e for e in edits if e.kind == "ins"]
    dels = [e for e in edits if e.kind == "del"]
    assert len(subs) == (len(sigma) - 1) * len(T)
    assert len(ins) == len(sigma) * (len(T) + 1)
    assert len(dels) == len(T)


def test_enumerate_edits_examples():
    T = SymbolString([1])
    edits = list(enumerate_edits(T, {1, 2}))
    assert [e for e in edits if e.kind == "sub"] == [Edit("sub", 1, 2)]
    assert len([e for e in edits if e.kind == "ins"]) == 4
    assert len([e for e in enumerate_edits(SymbolString([1, 2]), {1, 2}) if e.kind == "del"]) == 2


def test_enumerate_edits_order_is_deterministic():
    T = SymbolString([0, 1])
    edits = list(enumerate_edits(T, {0, 1}))
    kinds = [e.kind for e in edits]
    assert kinds == sorted(kinds, key=("sub", "ins", "del").index)
    assert edits == list(enumerate_edits(T, {0, 1}))


def test_distinct_substrings():
    abab = SymbolString([0, 1, 0, 1])
    assert distinct_substrings(abab, 1) == 2
    assert distinct_substrings(abab, 2) == 2
    assert distinct_substrings(SymbolString([0, 0, 0]), 2) == 1
    with pytest.raises(InputError):
        distinct_substrings(abab, 0)
    with pytest.raises(InputError):
        distinct_substrings(abab, 5)


def test_distinct_substrings_matches_naive():
    import random

    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 30)
        syms = tuple(rng.randrange(3) for _ in range(n))
        T = SymbolString(syms)
        for k in range(1, n + 1):
            assert distinct_substrings(T, k) == nv.naive_distinct_substrings(syms, k)


def test_one_based_accessors():
    T = SymbolString([7, 8, 9])
    assert T.at(1) == 7 and T.at(3) == 9
    assert T.sub(2, 3).symbols == (8, 9)
    assert T.sub(3, 2).symbols == ()
    with pytest.raises(InputError):
        T.at(0)


def test_symbolic_round_trip():
    T = SymbolString([0, 17, 300])
    assert parse_symbolic(format_symbolic(T)) == T
    with pytest.raises(InputError):
        parse_symbolic("1 2 x")


def test_byte_and_text_constructors():
    assert SymbolString.from_text("ab").symbols == (97, 98)
    assert SymbolString.from_bytes(b"\x00\xff").symbols == (0, 255)
    with pytest.raises(InputError):
        SymbolString([-1])


def test_automaton_cache_drops_the_old_entry_before_a_build(monkeypatch):
    # keeping the cached automaton alive while the next one is built would
    # hold two at once: about twice one automaton at the peak
    rng = random.Random(61)
    A, B = (SymbolString(rng.randrange(2) for _ in range(2000)) for _ in range(2))
    monkeypatch.setattr(repsens.core, "_cache", (None, None))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _suffix_automaton(A)
        one = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        sa = _suffix_automaton(B)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one, (peak, one)
    assert sa == _sa_new(B.symbols)


def test_as_strs_takes_one_character_per_distinct_symbol():
    # symbols without a code point are renamed by first occurrence, the same
    # in every string; past 0x110000 distinct symbols no renaming exists
    assert _as_strs((7, 2**40, 7), (-1, 2**40)) == ["\x00\x01\x00", "\x02\x01"]
    assert _as_strs((97, 0x10FFFF)) == ["a\U0010ffff"]
    with pytest.raises(CapabilityError, match="1,114,112"):
        _as_strs(range(-1, 0x110000))
