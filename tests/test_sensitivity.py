import bisect
import dataclasses
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracles as nv
from test_factorizers import long_phrase_texts
from repsens import (
    CapabilityError,
    Edit,
    InputError,
    MEASURES,
    SymbolString,
    apply_edit,
    enumerate_edits,
    exhaustive_sensitivity,
    growth_fit,
    is_attractor,
    lz78,
    lz78_witness,
    lz_witness,
    sensitivity_of_string,
)
import repsens.factorizers as fz
import repsens.sensitivity as sv
from repsens.core import EDIT_KINDS, _edit_fields, _edited, _sa_new, _suffix_automaton
from repsens.factorizers import FACTORIZERS, _greedy, _lz78, _walk_end
from repsens.sensitivity import (
    CSV_HEADER,
    RESUMED_SWEEPS,
    SensitivityRecord,
    _greedy_danger,
    _lz78_danger,
    canonical_strings,
    write_csv,
)


def test_witness_lower_bound_reached():
    bundle = lz78_witness(2)
    rec = sensitivity_of_string("lz78", bundle.base, "sub", bundle.base.alphabet())
    assert rec.AS >= 3  # the family guarantees p + 1


def test_unary_delta_substitution():
    rec = sensitivity_of_string("delta", SymbolString([0] * 5), "sub", {0})
    assert rec.AS == 1  # the fresh symbol doubles the single-length count


@pytest.mark.parametrize("measure", ["delta", "lz78"])  # lz78 takes its resumed path
def test_no_legal_edit_is_flagged(measure):
    # the empty text has no position to substitute or delete
    for kind in ("sub", "del"):
        rec = sensitivity_of_string(measure, SymbolString([]), kind, {0})
        assert rec.AS is None and rec.MS is None and rec.edit is None
        assert rec.c_T == 0 and rec.c_Tprime is None


def test_argmax_reproduces():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randint(2, 16)
        T = SymbolString(rng.randrange(2) for _ in range(n))
        rec = sensitivity_of_string("lzss_nonoverlap", T, "sub", {0, 1})
        again = MEASURES["lzss_nonoverlap"](apply_edit(T, rec.edit))
        assert again == rec.c_Tprime
        assert rec.AS == rec.c_Tprime - rec.c_T


def test_measures_invariant_under_renaming():
    rng = random.Random(67)
    for name in ("lzss_overlap", "lzend", "lz78", "delta"):
        fn = MEASURES[name]
        for _ in range(40):
            n = rng.randint(1, 24)
            syms = [rng.randrange(3) for _ in range(n)]
            relabeled = [(s + 1) % 3 for s in syms]
            assert fn(SymbolString(syms)) == fn(SymbolString(relabeled))


def test_canonical_strings_cover_renaming_classes():
    got = list(canonical_strings(4, 2))
    assert len(got) == 8
    assert all(s[0] == 0 for s in got)
    assert sum(1 for _ in canonical_strings(7, 4)) == 715
    assert list(canonical_strings(0, 2)) == [()]


def test_exhaustive_single_symbol_strings():
    rec = exhaustive_sensitivity("lzss_overlap", 1, 2, "sub")
    assert rec.AS <= 1


def test_exhaustive_delta_small():
    rec = exhaustive_sensitivity("delta", 6, 2, "sub")
    assert rec.AS == 1
    assert rec.argmax_T is not None
    assert delta_check(rec)


def delta_check(rec):
    from repsens import delta

    return delta(apply_edit(rec.argmax_T, rec.edit)) - delta(rec.argmax_T) == rec.AS


def test_exhaustive_budget():
    with pytest.raises(CapabilityError):
        exhaustive_sensitivity("delta", 64, 4, "sub")
    # far past the budget: 2**(10**6) has 301,030 digits
    with pytest.raises(CapabilityError):
        exhaustive_sensitivity("delta", 10**6, 2, "sub")


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhaustive_rejects_an_unknown_kind_before_the_sweep(monkeypatch, jobs):
    def no_strings(n, sigma):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(sv, "canonical_strings", no_strings)
    with pytest.raises(InputError, match="unknown edit kind 'bogus'"):
        exhaustive_sensitivity("delta", 20, 2, "bogus", jobs=jobs)


def test_exhaustive_gamma_fixture():
    # worst one-substitution growth of the smallest attractor size over all
    # binary strings; frozen from an independent double brute force (naive
    # subset search on the base and on every substituted string)
    frozen = {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2, 9: 2, 10: 2}
    for n, want in frozen.items():
        assert exhaustive_sensitivity("gamma", n, 2, "sub").AS == want


def test_witness_never_beats_exhaustive():
    bundle = lz78_witness(1)  # length 7, alphabet of 4 symbols
    rec_w = sensitivity_of_string("lz78", bundle.base, "sub", bundle.base.alphabet())
    rec_x = exhaustive_sensitivity("lz78", 7, 4, "sub")
    assert rec_w.AS <= rec_x.AS


def test_exhaustive_jobs_deterministic():
    serial = exhaustive_sensitivity("lz78", 6, 2, "sub", jobs=1)
    parallel = exhaustive_sensitivity("lz78", 6, 2, "sub", jobs=2)
    assert serial.AS == parallel.AS
    assert serial.argmax_T == parallel.argmax_T
    assert serial.edit == parallel.edit


def unmemoized_exhaustive(measure, n, sigma, kind):
    """Reference for exhaustive_sensitivity: the raw measure on every
    canonical string, ties to the smallest string."""
    best = None
    for syms in canonical_strings(n, sigma):
        rec = sensitivity_of_string(
            MEASURES[measure], SymbolString(syms), kind, range(sigma), source="exhaustive"
        )
        if rec.AS is not None and (best is None or rec.AS > best.AS):
            best = dataclasses.replace(rec, measure=measure, argmax_T=SymbolString(syms))
    return best


# n per measure: the exact searches are the slow ones
MEMO_N = {"lzend_opt": 7, "gamma": 7, "bms": 6}


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_exhaustive_memo_matches_unmemoized(measure):
    n = MEMO_N.get(measure, 8)
    for kind in ("sub", "ins", "del"):
        want = unmemoized_exhaustive(measure, n, 2, kind)
        got = exhaustive_sensitivity(measure, n, 2, kind)
        assert got.csv_row() == want.csv_row(), kind
        assert got.argmax_T == want.argmax_T, kind


def reference_sweep(measure, T, kind, alphabet, source="witness"):
    """Reference for sensitivity_of_string from public pieces only: every
    ``Edit`` of enumerate_edits applied with apply_edit and measured by the
    raw MEASURES function, the first largest value kept."""
    fn = MEASURES[measure]

    def size(U):
        return fn(U) if len(U) else 0

    sigma = set(alphabet)
    sigma.add(max(sigma | set(T.symbols), default=-1) + 1)
    base = size(T)
    best = None
    for e in enumerate_edits(T, sigma, (kind,)):
        value = size(apply_edit(T, e))
        if best is None or value > best[0]:
            best = (value, e)
    if best is None:
        return SensitivityRecord(measure, kind, len(T), base, None, None, None, None, None, source)
    value, e = best
    ms = Fraction(value) / Fraction(base) if base > 0 else None
    return SensitivityRecord(measure, kind, len(T), base, value, value - base, ms, e, None, source)


def reference_exhaustive(measure, n, sigma, kind):
    """Reference for exhaustive_sensitivity: reference_sweep on every
    canonical string, ties to the smallest string."""
    best = None
    for syms in canonical_strings(n, sigma):
        rec = reference_sweep(measure, SymbolString(syms), kind, range(sigma), source="exhaustive")
        if rec.AS is not None and (best is None or rec.AS > best.AS):
            best = dataclasses.replace(rec, argmax_T=SymbolString(syms))
    return best


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_sweep_matches_public_reference(measure):
    rng = random.Random(83)
    count = 30 if measure in MEMO_N else 100
    for _ in range(count):
        n, sigma = rng.randint(1, 12), rng.randint(1, 4)
        T = SymbolString(rng.randrange(sigma) for _ in range(n))
        alphabet = range(rng.randint(1, sigma))
        for kind in ("sub", "ins", "del"):
            want = reference_sweep(measure, T, kind, alphabet)
            # by name (lz78 takes its resumed path) and as a plain function
            for by in (measure, MEASURES[measure]):
                got = sensitivity_of_string(by, T, kind, alphabet)
                assert got.csv_row().split(",", 1)[1] == want.csv_row().split(",", 1)[1], (T, kind)
                assert got.edit == want.edit and got.argmax_T is None


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_exhaustive_matches_public_reference(monkeypatch, measure):
    # serial, and reduced across two and three worker chunks: the tie-break
    # to the smallest string must hold across chunks too
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    n = MEMO_N.get(measure, 8)
    for kind in ("sub", "ins", "del"):
        want = reference_exhaustive(measure, n, 2, kind)
        for jobs in (1, 2, 3):
            got = exhaustive_sensitivity(measure, n, 2, kind, jobs=jobs)
            assert got.csv_row() == want.csv_row(), (kind, jobs)
            assert got.argmax_T == want.argmax_T, (kind, jobs)


def spy_memos(monkeypatch):
    """Record every renaming memo the exhaustive sweeps construct."""
    seen = []
    original = sv._renaming_memo

    def spy(*args, **kwargs):
        memo = original(*args, **kwargs)
        seen.append(memo)
        return memo

    monkeypatch.setattr(sv, "_renaming_memo", spy)
    return seen


@pytest.mark.parametrize(
    "measure,kind", [("lzss_overlap", "sub"), ("lz77_overlap", "ins"), ("lzend", "sub")]
)
def test_exhaustive_memo_cap_binds_without_changing_answer(monkeypatch, measure, kind):
    n = 8
    free = exhaustive_sensitivity(measure, n, 2, kind)
    seen = spy_memos(monkeypatch)
    monkeypatch.setenv("REPSENS_LIMIT_EXHAUSTIVE", str(2**n))
    capped = exhaustive_sensitivity(measure, n, 2, kind)
    assert capped.csv_row() == free.csv_row()
    assert capped.argmax_T == free.argmax_T
    assert len(seen) == 1  # one memo for the whole call
    memo = seen[0].memo
    assert len(memo) == 2**n  # full: the cap is what stopped it growing
    assert len(set(map(type, memo))) == 1


def test_exhaustive_memo_bounded_by_budget(monkeypatch):
    seen = spy_memos(monkeypatch)
    for calls, budget in enumerate((2**6, 2**9), 1):
        monkeypatch.setenv("REPSENS_LIMIT_EXHAUSTIVE", str(budget))
        exhaustive_sensitivity("delta", 6, 2, "ins")
        assert len(seen) == calls  # one memo per call
        assert 0 < len(seen[-1].memo) <= budget
    assert len(seen[-1].memo) < 2**9  # an ample cap does not bind


@pytest.mark.parametrize("measure,n", [("lzend_opt", 8), ("bms", 7)])
def test_exhaustive_bound_memo_is_capped_without_changing_answer(monkeypatch, measure, n):
    free = exhaustive_sensitivity(measure, n, 2, "sub")
    seen = spy_memos(monkeypatch)
    monkeypatch.setenv("REPSENS_LIMIT_EXHAUSTIVE", str(2**n))
    capped = exhaustive_sensitivity(measure, n, 2, "sub")
    assert capped.csv_row() == free.csv_row()
    assert capped.argmax_T == free.argmax_T
    exact, bounds = seen  # one memo each for the call
    assert len(exact.memo) <= 2**n
    assert len(bounds.memo) == 2**n  # full: the cap is what stopped it growing


class SerialPool:
    """A stand-in for ``ProcessPoolExecutor`` that records each pool's
    worker count and maps in this process, so no process is started."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


def test_exhaustive_jobs_are_clamped_to_cores_and_strings(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "workers", [])
    serial = exhaustive_sensitivity("delta", 7, 2, "sub")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    got = exhaustive_sensitivity("delta", 7, 2, "sub", jobs=64)
    assert SerialPool.workers == [2]
    assert got.csv_row() == serial.csv_row() and got.argmax_T == serial.argmax_T
    # one string, or an unknown core count, runs in this process
    exhaustive_sensitivity("delta", 1, 2, "sub", jobs=64)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    exhaustive_sensitivity("delta", 7, 2, "sub", jobs=64)
    assert SerialPool.workers == [2]


def test_exhaustive_jobs_match_serial_memoized():
    for kind in ("sub", "ins", "del"):
        serial = exhaustive_sensitivity("delta", 7, 2, kind, jobs=1)
        parallel = exhaustive_sensitivity("delta", 7, 2, kind, jobs=2)
        assert parallel.csv_row() == serial.csv_row()
        assert parallel.argmax_T == serial.argmax_T


# n per reversal-invariant measure for the sigma=3 referee
SIGMA3_N = {"delta": 7, "gamma": 6, "bms": 6}


@pytest.mark.parametrize("measure", sorted(SIGMA3_N))
def test_exhaustive_matches_public_reference_at_sigma_3(measure):
    # the full enumeration referees the sweep up to reversal, serial and parallel
    n = SIGMA3_N[measure]
    for kind in ("sub", "ins", "del"):
        want = reference_exhaustive(measure, n, 3, kind)
        for jobs in (1, 2):
            got = exhaustive_sensitivity(measure, n, 3, kind, jobs=jobs)
            assert got.csv_row() == want.csv_row(), (kind, jobs)
            assert got.argmax_T == want.argmax_T, (kind, jobs)


def first_occurrence_form(syms):
    names = {}
    return tuple(names.setdefault(s, len(names)) for s in syms)


@pytest.mark.parametrize("measure", ["delta", "gamma", "bms", "lz78", "lzend_opt"])
def test_exhaustive_sweeps_one_string_per_reversal_class(monkeypatch, measure):
    swept = []
    original = sv._swept_strings

    def spy(*args):
        swept.append(list(original(*args)))
        return iter(swept[-1])

    monkeypatch.setattr(sv, "_swept_strings", spy)
    exhaustive_sensitivity(measure, 5, 3, "sub")
    canonical = list(canonical_strings(5, 3))
    if measure in sv.REVERSAL_INVARIANT:
        # the smaller of each string and its reversal, palindromes included
        want = sorted({min(s, first_occurrence_form(s[::-1])) for s in canonical})
        assert len(want) < len(canonical)
    else:
        want = canonical
    assert swept == [want]


TEXTS_UP_TO = {"delta": 10, "gamma": 8, "bms": 7}  # binary; ternary up to 6


@pytest.mark.parametrize("measure", sorted(TEXTS_UP_TO))
def test_reversal_invariant_measures_agree_on_reversed_texts(measure):
    assert set(TEXTS_UP_TO) == sv.REVERSAL_INVARIANT
    fn = MEASURES[measure]
    for sigma, top in ((2, TEXTS_UP_TO[measure]), (3, 6)):
        for n in range(1, top + 1):
            for syms in itertools.product(range(sigma), repeat=n):
                assert fn(SymbolString(syms)) == fn(SymbolString(syms[::-1])), syms


# for every other measure, the first text (binary, by length, then
# lexicographic) whose reversal changes its value: (text, value, reversed value)
REVERSAL_CHANGES = {
    "lz77_nonoverlap": ((0, 0, 1), 2, 3),
    "lz77_overlap": ((0, 0, 1), 2, 3),
    "lz78": ((0, 0, 1), 2, 3),
    "lzend": ((0, 1, 0, 0, 0, 0, 1), 6, 5),
    "lzend_opt": ((0, 1, 0, 0, 0, 0, 1), 6, 5),
    "lzss_nonoverlap": ((0, 1, 0, 1, 1, 0), 4, 5),
    "lzss_overlap": ((0, 0, 0, 1, 0, 0), 4, 5),
}


@pytest.mark.parametrize("measure", sorted(REVERSAL_CHANGES))
def test_measures_outside_the_invariant_set_change_under_reversal(measure):
    assert sorted(REVERSAL_CHANGES) == sorted(set(MEASURES) - sv.REVERSAL_INVARIANT)
    syms, value, reversed_value = REVERSAL_CHANGES[measure]
    fn = MEASURES[measure]
    assert (fn(SymbolString(syms)), fn(SymbolString(syms[::-1]))) == (value, reversed_value)


def test_import_leaves_the_process_pool_unloaded():
    # the pool is imported by exhaustive sweeps with jobs > 1 only
    src = str(Path(sv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, repsens; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_growth_fit_constant_records():
    fit = growth_fit([(8, 5), (16, 5), (32, 5), (64, 5)])
    assert abs(fit.slope) < 1e-9
    assert fit.residual < 1e-9


def test_growth_fit_analytic_families():
    fit78 = growth_fit([(7 * p, p + 1) for p in range(4, 65)])
    assert 0.90 <= fit78.slope <= 1.0  # drifts up toward 1 with p
    lz = growth_fit(
        [(p**3 + 3 * p * p + 2 * p + 1, p * p + 1) for p in range(3, 13)]
    )
    assert 0.66 <= lz.slope <= 0.80


def test_growth_fit_input_validation():
    with pytest.raises(InputError):
        growth_fit([(8, 0), (16, 1), (32, 2), (64, 3)])
    with pytest.raises(InputError):
        growth_fit([(8, 1), (8, 2), (8, 3)])
    for size in (0, -8):  # log(size) used to raise ValueError: math domain error
        message = rf"^growth fit needs positive sizes, got the point \({size}, 1\)$"
        with pytest.raises(InputError, match=message):
            growth_fit([(size, 1), (16, 2), (32, 3), (64, 4)])


def test_csv_schema_and_rows():
    bundle = lz78_witness(2)
    rec = sensitivity_of_string("lz78", bundle.base, "sub", bundle.base.alphabet())
    buf = io.StringIO()
    write_csv([rec], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "lz78" and fields[1] == "sub" and fields[2] == "14"
    assert int(fields[5]) == rec.AS


def test_csv_fraction_cells():
    rec = sensitivity_of_string("delta", SymbolString([0, 1, 0, 1, 0]), "sub", {0, 1})
    row = rec.csv_row()
    assert isinstance(rec.c_T, Fraction)
    cells = row.split(",")
    ms = Fraction(int(cells[6]), int(cells[7]))
    assert ms == rec.MS


def lz78_size(U):
    """The lz78 size, 0 for the empty text as in a sweep."""
    return lz78(U).size if len(U) else 0


def resumed_sizes(T, kind, symbols, measure="lz78"):
    """``((kind, position, symbol), size)`` for every ``kind`` edit of ``T``
    by ``symbols``, as the measure's resumed sweep computes them."""
    base, sizes = RESUMED_SWEEPS[measure](T, kind, sorted(symbols))
    assert base == MEASURES[measure](T)
    return [(fields, size) for size, fields in sizes]


def full_sizes(T, kind, symbols, size):
    """The same pairs from ``enumerate_edits`` and a full parse of each
    edited text by ``size``."""
    edits = enumerate_edits(T, symbols, (kind,))
    return [((e.kind, e.position, e.symbol), size(apply_edit(T, e))) for e in edits]


def test_lz78_resume_matches_full_parses():
    rng = random.Random(71)
    texts = [lz78_witness(p).base for p in range(1, 9)]
    for _ in range(40):
        n, sigma = rng.randint(1, 60), rng.randint(1, 5)
        texts.append(SymbolString(rng.randrange(sigma) for _ in range(n)))
    for T in texts:
        sigma = set(T.symbols) | {max(T.symbols) + 1}
        for kind in EDIT_KINDS:
            want = full_sizes(T, kind, sigma, lz78_size)
            assert resumed_sizes(T, kind, sigma) == want, (T.symbols, kind)


def test_walk_end_is_the_last_index_an_lz78_phrase_reads():
    # a literal or copylit reads up to its last symbol; a final copy runs
    # out at the text's end
    rng = random.Random(107)
    texts = [lz78_witness(p).base.symbols for p in range(1, 9)]
    texts += [tuple(rng.randrange(rng.randint(1, 5)) for _ in range(rng.randint(1, 80)))
              for _ in range(200)]
    for syms in texts:
        for start, length, kind, source in _lz78(syms):
            last = len(syms) if kind == "copy" else start + length - 2
            assert _walk_end((start, length, kind, source)) == last, (syms, start)


def edge_sweep(T, edit):
    """The edit alphabet of a text-edge case: the text's symbols and the
    edit's own."""
    return set(T.symbols) | ({edit.symbol} - {None})


# (text, edit, lz78 size of the edited text); c is a symbol new to the text
LZ78_EDGES = [
    ("abaab", Edit("ins", 5, ord("a")), 4),  # after the last symbol, past a final copy
    ("aabaab", Edit("ins", 6, ord("a")), 5),  # after the last symbol, past a final literal
    ("abaab", Edit("del", 5), 3),  # the last symbol, a final copy
    ("aabaab", Edit("del", 6), 3),  # the last symbol, a final literal
    # a|ab|aa|b|ab: the final "ab" repeats phrase 2 because the text ends
    ("aabaabab", Edit("sub", 7, ord("b")), 5),
    ("aabaabab", Edit("sub", 8, ord("a")), 5),
    ("aabaabab", Edit("ins", 7, ord("a")), 5),
    ("aabaabab", Edit("del", 7), 5),
    ("aabaabab", Edit("ins", 8, ord("a")), 5),
    ("abaab", Edit("sub", 5, ord("c")), 4),  # the fresh symbol
    ("aabaabab", Edit("sub", 3, ord("c")), 5),
    ("abaab", Edit("ins", 0, ord("c")), 5),
    ("a", Edit("del", 1), 0),  # the empty text
]


@pytest.mark.parametrize("text,edit,want", LZ78_EDGES)
def test_lz78_resume_at_text_edges(text, edit, want):
    # the whole sweep of the edit's kind, which passes through the edge
    T = SymbolString.from_text(text)
    sigma = edge_sweep(T, edit)
    got = resumed_sizes(T, edit.kind, sigma)
    assert got == full_sizes(T, edit.kind, sigma, lz78_size)
    assert ((edit.kind, edit.position, edit.symbol), want) in got
    assert lz78_size(apply_edit(T, edit)) == want


@settings(derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.sampled_from(EDIT_KINDS))
def test_lz78_resume_property(syms, kind):
    T = SymbolString(syms)
    assert resumed_sizes(T, kind, range(5)) == full_sizes(T, kind, range(5), lz78_size)


def test_lz78_loop_resumes_from_any_phrase_and_undoes():
    rng = random.Random(73)
    for _ in range(60):
        syms = tuple(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 50)))
        full = _lz78(syms)
        for k, (start, _, kind, _) in enumerate(full):
            if kind == "copy":
                continue
            root = {}
            assert _lz78(syms[: start - 1], 0, root) == full[:k]
            before = repr(root)
            undo = []
            assert _lz78(syms, start - 1, root, undo) == full[k:]
            assert len(undo) == sum(kind != "copy" for _, _, kind, _ in full[k:])
            for node, c in reversed(undo):
                del node[c]
            assert repr(root) == before


def check_lz78_tails(syms, kind, paths):
    """Run the lz78 family's ``parse`` on every ``kind`` edit of ``syms`` by
    its symbols and a fresh one, as ``_resumed`` calls it (each position's
    placeholder text first), and check it against ``_lz78(edited)[k:]``.
    Count in ``paths`` the path each edit takes, read off full parses: a
    final copy first phrase, the tail on the base trie shared as it is (and
    shared by two symbols at one position), or a rewind to the phrase of
    that tail which creates the first phrase's word."""
    phrases, parse, _ = sv._lz78_family(syms)
    stops = [_walk_end(phrase) for phrase in phrases]
    symbols = sorted(set(syms) | {max(syms, default=-1) + 1})
    shared_at = None, set()  # position, the x of its shared tails
    for _, position, symbol in _edit_fields(syms, symbols, (kind,)):
        d = position if kind == "ins" else position - 1
        k = bisect.bisect_left(stops, d)
        resume = phrases[k][0] - 1 if k < len(phrases) else len(syms)
        if shared_at[0] != position:
            text = _edited(syms, kind, position, -1)
            assert parse(text, d, resume) == _lz78(text)[k:], (syms, kind, position)
            shared_at = position, set()
        U = _edited(syms, kind, position, symbol)
        want = _lz78(U)[k:]
        assert parse(U, d, resume) == want, (syms, kind, position, symbol)
        if want[0][2] == "copy":
            paths["copy"] += 1
            continue
        x = resume + want[0][1]
        root = {}
        _lz78(syms[:resume], 0, root)
        if _lz78(U, x, root) != want[1:]:
            paths["rewind"] += 1
        elif x in shared_at[1]:
            paths["shared by two"] += 1
        else:
            paths["shared"] += 1
            shared_at[1].add(x)


def test_lz78_tail_sharing_matches_full_parses():
    rng = random.Random(109)
    texts = [lz78_witness(p).base.symbols for p in range(1, 11)]
    for _ in range(120):
        n, sigma = rng.randint(1, 80), rng.randint(1, 5)
        texts.append(tuple(rng.randrange(sigma) for _ in range(n)))
    paths = Counter()
    for syms in texts:
        for kind in ("sub", "ins"):
            check_lz78_tails(syms, kind, paths)
    assert set(paths) == {"copy", "shared", "shared by two", "rewind"}, paths


# symbols read by _lz78 in the lz78 sub and ins sweeps of each text; parsing
# every danger-set hit from the phrase holding the edit read 22,065 and
# 20,661 (lz78_witness(8)), 13,835 and 16,496 (lz_witness(3))
LZ78_READS = {("lz78", 8): (11_000, 10_600), ("lz", 3): (7_200, 9_100)}


@pytest.mark.parametrize("family,p", sorted(LZ78_READS))
def test_lz78_sweeps_share_their_tails(monkeypatch, family, p):
    T = {"lz": lz_witness, "lz78": lz78_witness}[family](p).base
    reads = []

    def counted(*args):
        phrases = _lz78(*args)
        reads.append(sum(length for _, length, _, _ in phrases))
        return phrases

    want = [sensitivity_of_string("lz78", T, kind, T.alphabet()) for kind in ("sub", "ins")]
    monkeypatch.setattr(sv, "_lz78", counted)
    got = []
    for kind, rec in zip(("sub", "ins"), want):
        reads.clear()
        assert sensitivity_of_string("lz78", T, kind, T.alphabet()) == rec
        got.append(sum(reads))
    assert all(g <= bound for g, bound in zip(got, LZ78_READS[family, p])), got


@pytest.mark.parametrize("kind", ["sub", "ins", "del"])
def test_lz78_by_name_matches_the_measure_function(kind):
    rng = random.Random(79)
    texts = [lz78_witness(p).base for p in (1, 3)]
    texts += [SymbolString(rng.randrange(3) for _ in range(rng.randint(1, 30))) for _ in range(30)]
    for T in texts:
        by_name = sensitivity_of_string("lz78", T, kind, T.alphabet())
        by_fn = sensitivity_of_string(MEASURES["lz78"], T, kind, T.alphabet())
        assert by_name.csv_row() == by_fn.csv_row().replace("<lambda>", "lz78", 1)
        assert by_name.edit == by_fn.edit


@pytest.mark.parametrize("measure", sorted(MEASURES))
def test_deleting_the_only_symbol_leaves_measure_zero(measure):
    # by name and as a plain function; the CLI test covers exhaustive sweeps
    for fn in (measure, MEASURES[measure]):
        rec = sensitivity_of_string(fn, SymbolString([5]), "del", {5})
        assert (rec.c_T, rec.c_Tprime, rec.AS) == (1, 0, -1)


GREEDY = ["lzss_overlap", "lzss_nonoverlap", "lz77_overlap", "lz77_nonoverlap"]


def greedy_size(flavor, U):
    """The size of the flavor's full ``_greedy`` parse, 0 for the empty text."""
    return len(FACTORIZERS[flavor][1](U)) if len(U) else 0


def test_resumed_sweeps_cover_every_loop_flavor_but_lzend():
    assert sorted(RESUMED_SWEEPS) == sorted(GREEDY + ["lz78"])


@pytest.mark.parametrize("flavor", GREEDY)
def test_greedy_resume_matches_full_parses(flavor):
    rng = random.Random(97)
    texts = [lz_witness(2).base, lz_witness(3).base]
    for _ in range(30):
        n, sigma = rng.randint(1, 40), rng.randint(1, 4)
        texts.append(SymbolString(rng.randrange(sigma) for _ in range(n)))
    for T in texts:
        sigma = set(T.symbols) | {max(T.symbols) + 1}
        for kind in EDIT_KINDS:
            want = full_sizes(T, kind, sigma, partial(greedy_size, flavor))
            assert resumed_sizes(T, kind, sigma, flavor) == want, (T.symbols, kind)


@pytest.mark.parametrize("flavor", ["lzss_overlap", "lz77_nonoverlap"])
def test_resumed_sweeps_leave_the_shared_automaton_unmutated(flavor):
    # a sweep reads T's shared automaton; had it mutated it, the mutated
    # automaton would stay cached under its text, and the empty text's
    # tuple is one object for every empty text
    T = lz_witness(2).base
    for kind in EDIT_KINDS:
        sensitivity_of_string(flavor, T, kind, T.alphabet())
        assert is_attractor(SymbolString(()), ()), kind
        sensitivity_of_string(flavor, T, kind, T.alphabet())
        assert _suffix_automaton(T) == _sa_new(T.symbols), kind


# text edges: the first and the last position, insertion at 0 and at n, and
# deleting the only symbol; "c" is new to the texts
GREEDY_EDGES = [
    ("abaab", Edit("sub", 1, ord("b"))),
    ("abaab", Edit("sub", 5, ord("a"))),
    ("aabaabab", Edit("sub", 1, ord("c"))),
    ("aabaabab", Edit("sub", 8, ord("a"))),
    ("abaab", Edit("ins", 0, ord("a"))),
    ("abaab", Edit("ins", 0, ord("c"))),
    ("abaab", Edit("ins", 5, ord("a"))),
    ("aabaab", Edit("ins", 6, ord("b"))),
    ("abaab", Edit("del", 1)),
    ("abaab", Edit("del", 5)),
    ("aabaabab", Edit("del", 8)),
    ("a", Edit("sub", 1, ord("c"))),
    ("a", Edit("ins", 0, ord("a"))),
    ("a", Edit("ins", 1, ord("a"))),
    ("a", Edit("del", 1)),  # the empty text, size 0
]


@pytest.mark.parametrize("flavor", GREEDY)
@pytest.mark.parametrize("text,edit", GREEDY_EDGES)
def test_greedy_resume_at_text_edges(flavor, text, edit):
    # the whole sweep of the edit's kind, which passes through the edge
    T = SymbolString.from_text(text)
    sigma = edge_sweep(T, edit)
    want = full_sizes(T, edit.kind, sigma, partial(greedy_size, flavor))
    assert resumed_sizes(T, edit.kind, sigma, flavor) == want


@settings(derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(GREEDY),
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.sampled_from(EDIT_KINDS),
)
def test_greedy_resume_property(flavor, syms, kind):
    T = SymbolString(syms)
    want = full_sizes(T, kind, range(5), partial(greedy_size, flavor))
    assert resumed_sizes(T, kind, range(5), flavor) == want


# symbols past the last code point, which T's string (core._as_strs) renames
# in order of first occurrence; 2**40 + 0x100000 is 0x110000 modulo 0x110000,
# so a renaming that reduced modulo 0x110000 would make them one character
HUGE = (0x10FFFF, 0x110000, 2**40, 2**40 + 0x100000)


@pytest.mark.parametrize("flavor", GREEDY)
def test_greedy_resume_renames_symbols_beyond_unicode(flavor):
    # every edit's size equals that of the same edit of the text renamed to
    # 0, 1, 2, ..., which keeps the symbols' order and so the edits' order
    rename = {c: r for r, c in enumerate(HUGE)}
    rng = random.Random(127)
    for _ in range(12):
        syms = [rng.choice(HUGE) for _ in range(rng.randint(1, 40))]
        T, renamed = SymbolString(syms), SymbolString(rename[c] for c in syms)
        for kind in EDIT_KINDS:
            got = resumed_sizes(T, kind, HUGE, flavor)
            got = [((k, i, rename.get(c)), size) for (k, i, c), size in got]
            assert got == resumed_sizes(renamed, kind, range(len(HUGE)), flavor), (syms, kind)


@pytest.mark.parametrize("flavor", GREEDY)
def test_greedy_sweeps_of_the_empty_text(flavor):
    # the family reads T as the empty string; only an insertion applies
    for kind in ("sub", "del"):
        rec = sensitivity_of_string(flavor, SymbolString([]), kind, {0})
        assert (rec.c_T, rec.AS, rec.edit) == (0, None, None)
    rec = sensitivity_of_string(flavor, SymbolString([]), "ins", {0})
    assert (rec.c_T, rec.c_Tprime, rec.edit) == (0, 1, Edit("ins", 0, 0))


def test_greedy_family_setup_holds_no_quadratic_memory():
    # the fragile intervals come from T as a string; end-position bitmasks
    # on T's automaton (core._state_ends) held n^2 bits, 44 MB at this length
    rng = random.Random(137)
    syms = tuple(rng.randrange(2) for _ in range(16_000))
    _suffix_automaton(SymbolString._trusted(syms))  # the shared one, read by the danger sets
    tracemalloc.start()
    try:
        sv._greedy_family(syms, overlap=True, take_next=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


@pytest.mark.parametrize("flavor", GREEDY)
def test_greedy_danger_set_keeps_the_placeholder_boundaries(flavor):
    # every symbol outside the danger set parses with the phrase starts of
    # the placeholder text, which is more than the sweep relies on
    overlap, take_next = FACTORIZERS[flavor][1].keywords.values()
    rng = random.Random(101)
    texts = [lz_witness(2).base]
    texts += [SymbolString(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 30)))
              for _ in range(80)]
    for T in texts:
        syms = T.symbols
        n = len(syms)
        phrases = _greedy(T, overlap, take_next)
        for kind, d in [("sub", d) for d in range(n)] + [("ins", d) for d in range(n + 1)]:
            text = syms[:d] + (-1,) + syms[d + (kind == "sub") :]
            placeholder = _greedy(SymbolString._trusted(text), overlap, take_next)
            # the sweep resumes at the first phrase whose walk stops at d or later
            k = next((k for k, phrase in enumerate(phrases) if _walk_end(phrase) >= d), len(phrases))
            assert placeholder[:k] == phrases[:k]
            resume = placeholder[k][0] - 1
            sa = _suffix_automaton(SymbolString(syms[:d]))
            danger = _greedy_danger(sa, text, d, resume, placeholder[k:], take_next)
            starts = [phrase[0] for phrase in placeholder]
            for c in set(syms) | {max(syms) + 1}:
                if c not in danger:
                    U = SymbolString(text[:d] + (c,) + text[d + 1 :])
                    assert [phrase[0] for phrase in _greedy(U, overlap, take_next)] == starts, (
                        syms, kind, d, c
                    )


@pytest.mark.parametrize("flavor", GREEDY)
def test_greedy_danger_set_from_the_text_automaton_is_the_prefix_ones(flavor):
    # T's automaton, its transitions kept when their first end is by d,
    # gives the danger set that L = T[:d]'s own automaton gives
    overlap, take_next = FACTORIZERS[flavor][1].keywords.values()
    rng = random.Random(139)
    texts = [lz_witness(3).base.symbols]
    texts += [tuple(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 30)))
              for _ in range(40)]
    for syms in texts:
        sa = _sa_new(syms)
        n = len(syms)
        phrases = _greedy(SymbolString(syms), overlap, take_next)
        for kind, d in [("sub", d) for d in range(n)] + [("ins", d) for d in range(n + 1)]:
            text = syms[:d] + (-1,) + syms[d + (kind == "sub") :]
            placeholder = _greedy(SymbolString._trusted(text), overlap, take_next)
            k = next((k for k, phrase in enumerate(phrases) if _walk_end(phrase) >= d), len(phrases))
            args = (text, d, placeholder[k][0] - 1, placeholder[k:], take_next)
            assert _greedy_danger(sa, *args) == _greedy_danger(_sa_new(syms[:d]), *args), (
                syms, kind, d
            )


def near_periodic(rng, n, sigma):
    """A random period of 1 to 6 symbols repeated to length n, with up to
    three symbols replaced."""
    period = [rng.randrange(sigma) for _ in range(rng.randint(1, 6))]
    syms = (period * n)[:n]
    for _ in range(rng.randint(0, 3)):
        syms[rng.randrange(n)] = rng.randrange(sigma)
    return tuple(syms)


class StopOracle:
    """The stop rule of the greedy families restated from its definition, for
    one flavor and one text: which phrases of T's parse block a re-join."""

    def __init__(self, flavor, syms):
        self.overlap, self.take_next = FACTORIZERS[flavor][1].keywords.values()
        self.syms = syms
        self.phrases = _greedy(SymbolString(syms), self.overlap, self.take_next)
        self.starts = [phrase[0] - 1 for phrase in self.phrases]
        n = len(syms)
        self.copied, self.occurrences, self.windows = [], [], []
        for (start, length, kind, _), a in zip(self.phrases, self.starts):
            read = a if kind == "literal" else a + length - (kind == "copylit")
            copy = syms[a:read]
            self.copied.append(len(copy))
            # the earlier occurrences a walk may copy from
            self.occurrences.append([
                t for t in range(n - len(copy) + 1)
                if copy and syms[t : t + len(copy)] == copy
                and (t < a if self.overlap else t + len(copy) <= a)
            ])
            # what the walk read, the symbol it stopped at, and for an LZSS
            # literal the next one too; None past the text's end
            end = read + 1 + (kind == "literal" and not self.take_next)
            self.windows.append(syms[a:end] if end <= n else None)

    def blocked(self, text, d):
        """The index of the first phrase after the edit, and the phrases
        from there on that are fragile and whose window occurs over d."""
        shift = len(text) - len(self.syms)
        first = bisect.bisect_left(self.starts, d + (shift <= 0))
        fragile, window = [], []
        for m in range(first, len(self.phrases)):
            copied = self.copied[m]
            if shift > 0:  # an insertion breaks the occurrences holding d - 1 and d
                covers = [t <= d - 1 and t + copied - 1 >= d for t in self.occurrences[m]]
            else:
                covers = [t <= d <= t + copied - 1 for t in self.occurrences[m]]
            if covers and all(covers):
                fragile.append(m)
            w = self.windows[m]
            if w is not None:
                low = 1 if shift < 0 else 0  # a deletion's window spans d - 1 and d
                if any(text[d - x : d - x + len(w)] == w for x in range(low, min(len(w), d + 1))):
                    window.append(m)
        return first, fragile, window


def spy_stops(monkeypatch, flavor, calls):
    """Record in ``calls`` every parse of the flavor's resumed sweeps as
    ``[text, d, resume, barrier, phrases made]``; the walk that parses T
    itself, with no joins, is not one of them."""
    family = RESUMED_SWEEPS[flavor].args[0]
    real = sv._greedy_walk

    def spied_family(syms):
        phrases, parse, danger = family(syms)

        def spied_parse(text, d, resume):
            calls.append([text, d, resume])
            return parse(text, d, resume)

        return phrases, spied_parse, danger

    def spied_walk(U, start, overlap, take_next, joins, barrier):
        made, stop = real(U, start, overlap, take_next, joins, barrier)
        if joins:
            calls[-1] += [barrier, made]
        return made, stop

    monkeypatch.setitem(RESUMED_SWEEPS, flavor, partial(sv._resumed, spied_family))
    monkeypatch.setattr(sv, "_greedy_walk", spied_walk)


def check_stops(oracle, calls, paths):
    """Each recorded parse has the oracle's barrier and stops at the first
    phrase start of T's parse past it, moved by the edit; count in ``paths``
    the early stops, the parses that never re-join, and the re-joins passed
    by for a fragile phrase, for a window with the edit's symbol, or for a
    window spanning a deletion."""
    n = len(oracle.syms)
    for text, d, resume, barrier, made in calls:
        shift = len(text) - n
        first, fragile, window = oracle.blocked(text, d)
        assert barrier == max([first - 1] + fragile + window), (oracle.syms, text, d)
        ends = [resume] + [start - 1 + length for start, length, _, _ in made]
        # per phrase start of U: T's phrase after the edit moved there, else -1
        landed = [bisect.bisect_left(oracle.starts, end - shift) for end in ends]
        landed = [m if first <= m < len(oracle.phrases) and oracle.starts[m] == end - shift else -1
                  for m, end in zip(landed, ends)]
        if ends[-1] < len(text):
            assert landed[-1] > barrier, (oracle.syms, text, d)
            paths["early stop"] += 1
            landed.pop()
        elif first < len(oracle.phrases):
            paths["never re-joins"] += 1
        for m in landed:
            if m < 0:
                continue
            assert m <= barrier, (oracle.syms, text, d, m)  # it would have stopped
            if fragile and fragile[-1] >= m:
                paths["fragile"] += 1
            if window and window[-1] >= m:
                paths["spanning window" if shift < 0 else "window"] += 1


def greedy_full_sizes(syms, kind, sigma):
    """``full_sizes`` of the four greedy flavors, flavor -> pairs: each
    edited text is made once for its four full parses."""
    want = {flavor: [] for flavor in GREEDY}
    for fields in _edit_fields(syms, sigma, (kind,)):
        U = SymbolString._trusted(_edited(syms, *fields))
        for flavor in GREEDY:
            want[flavor].append((fields, greedy_size(flavor, U)))
    return want


def test_greedy_stop_rule_matches_full_parses(monkeypatch):
    rng = random.Random(113)
    texts = [lz_witness(p).base.symbols for p in (2, 3, 4)]
    for _ in range(16):
        n, sigma = rng.randint(1, 60), rng.randint(1, 4)
        texts.append(tuple(rng.randrange(sigma) for _ in range(n)))
        texts.append(near_periodic(rng, rng.randint(1, 60), rng.randint(1, 4)))
    paths = Counter()
    for syms in texts:
        T = SymbolString(syms)
        sigma = sorted(set(syms) | {max(syms) + 1})
        oracles = {flavor: StopOracle(flavor, syms) for flavor in GREEDY}
        for kind in EDIT_KINDS:
            want = greedy_full_sizes(syms, kind, sigma)
            for flavor in GREEDY:
                calls = []
                with monkeypatch.context() as patch:
                    spy_stops(patch, flavor, calls)
                    assert resumed_sizes(T, kind, sigma, flavor) == want[flavor], (syms, kind)
                check_stops(oracles[flavor], calls, paths)
    wanted = {"early stop", "never re-joins", "fragile", "window", "spanning window"}
    assert wanted <= set(paths), paths


def test_greedy_resume_matches_full_parses_on_longer_texts():
    # every edit of texts of 150 to 250 symbols, where phrases are longer
    # and blocked phrases farther from the edit than in the short texts
    rng = random.Random(131)
    texts = [tuple(rng.randrange(sigma) for _ in range(rng.randint(150, 250))) for sigma in (2, 3)]
    texts += [near_periodic(rng, rng.randint(150, 250), sigma) for sigma in (2, 3)]
    for syms in texts:
        T = SymbolString(syms)
        sigma = sorted(set(syms) | {max(syms) + 1})
        for kind in EDIT_KINDS:
            want = greedy_full_sizes(syms, kind, sigma)
            for flavor in GREEDY:
                assert resumed_sizes(T, kind, sigma, flavor) == want[flavor], (syms, kind, flavor)


def test_greedy_walk_matches_full_parses_on_long_phrases(monkeypatch):
    # every edit, a fresh symbol's too, against full parses, where a walk's
    # copies grow by doubling steps and are halved back to their length; the
    # full parses run the same walk, which the naive parsers referee
    # (test_factorizers.test_greedy_parses_match_naive_references_on_long_phrases)
    real = sv._greedy_walk
    longest = []

    def spied(U, start, overlap, take_next, joins, barrier):
        made, stop = real(U, start, overlap, take_next, joins, barrier)
        if joins:  # an edited text's walk, not T's own parse
            longest.append(max((length for _, length, _, _ in made), default=0))
        return made, stop

    monkeypatch.setattr(sv, "_greedy_walk", spied)
    for syms in long_phrase_texts():
        T = SymbolString(syms)
        sigma = sorted(set(syms) | {max(syms) + 1})
        for kind in EDIT_KINDS:
            want = greedy_full_sizes(syms, kind, sigma)
            for flavor in GREEDY:
                assert resumed_sizes(T, kind, sigma, flavor) == want[flavor], (syms, kind, flavor)
    assert max(longest) > 64, max(longest)


def test_lz78_danger_set_keeps_the_placeholder_boundaries():
    # every symbol outside the danger set parses with the phrase starts of
    # the placeholder text, which is more than the sweep relies on
    rng = random.Random(103)
    texts = [lz78_witness(2).base]
    texts += [SymbolString(rng.randrange(rng.randint(1, 4)) for _ in range(rng.randint(1, 30)))
              for _ in range(80)]
    for T in texts:
        syms = T.symbols
        n = len(syms)
        phrases = _lz78(syms)
        for kind, d in [("sub", d) for d in range(n)] + [("ins", d) for d in range(n + 1)]:
            text = syms[:d] + (-1,) + syms[d + (kind == "sub") :]
            placeholder = _lz78(text)
            # the sweep resumes at the first phrase whose walk stops at d or later
            k = next((k for k, phrase in enumerate(phrases) if _walk_end(phrase) >= d), len(phrases))
            assert placeholder[:k] == phrases[:k]
            resume = placeholder[k][0] - 1
            danger = _lz78_danger(text, d, resume, placeholder)
            starts = [phrase[0] for phrase in placeholder]
            for c in set(syms) | {max(syms) + 1}:
                if c not in danger:
                    U = text[:d] + (c,) + text[d + 1 :]
                    assert [phrase[0] for phrase in _lz78(U)] == starts, (syms, kind, d, c)


def own_parses(name, T, kind, monkeypatch):
    """The edits of a resumed sweep of ``T`` that get a parse of their own:
    every parse call but the one placeholder parse per position."""
    family = RESUMED_SWEEPS[name].args[0]
    calls = []

    def counted(syms):
        phrases, parse, danger = family(syms)

        def counting(*args):
            calls.append(None)
            return parse(*args)

        return phrases, counting, danger

    monkeypatch.setitem(RESUMED_SWEEPS, name, partial(sv._resumed, counted))
    sensitivity_of_string(name, T, kind, T.alphabet())
    return len(calls) - (len(T) + (kind == "ins"))


# (measure, witness family, p) -> own parses of the sub and the ins sweeps; a
# danger set that grows (say, _lz78_danger without its length > depth filter)
# shares fewer parses and fails here
OWN_PARSES = {
    ("lzss_overlap", "lz", 2): (20, 53),
    ("lzss_overlap", "lz", 3): (84, 169),
    ("lzss_overlap", "lz", 4): (233, 410),
    ("lz77_overlap", "lz", 2): (73, 95),
    ("lz77_overlap", "lz", 3): (219, 268),
    ("lz77_overlap", "lz", 4): (507, 603),
    ("lz78", "lz", 2): (93, 118),
    ("lz78", "lz", 3): (324, 400),
    ("lz78", "lz", 4): (825, 991),
    ("lz78", "lz78", 2): (33, 40),
    ("lz78", "lz78", 4): (142, 144),
    ("lz78", "lz78", 8): (588, 544),
}
OWN_PARSES.update(
    ((name.replace("_overlap", "_nonoverlap"), family, p), own)
    for (name, family, p), own in list(OWN_PARSES.items())
    if name.endswith("_overlap")
)


@pytest.mark.parametrize("name,family,p", sorted(OWN_PARSES))
def test_danger_sets_stay_small(monkeypatch, name, family, p):
    T = {"lz": lz_witness, "lz78": lz78_witness}[family](p).base
    got = tuple(own_parses(name, T, kind, monkeypatch) for kind in ("sub", "ins"))
    assert all(g <= want for g, want in zip(got, OWN_PARSES[name, family, p])), got


@pytest.mark.parametrize("p", range(2, 7))
def test_lz_witness_sub_sweep_is_pinned(p):
    base = lz_witness(p).base
    rec = sensitivity_of_string("lzss_overlap", base, "sub", base.alphabet())
    assert (rec.c_T, rec.AS) == (2 * p * p + 2 * p + 1, p * p + 1)


@pytest.mark.parametrize("p", [7, 8])
def test_lz_witness_sub_sweep_is_pinned_past_p6(p):
    # n = 505 and 721, affordable since a resumed parse stops at its re-join
    base = lz_witness(p).base
    rec = sensitivity_of_string("lzss_overlap", base, "sub", base.alphabet())
    assert (rec.c_T, rec.AS) == (2 * p * p + 2 * p + 1, p * p + 1)


# symbols the walks of the edited texts cover (stop - resume per parse,
# factorizers._greedy_walk)
# in the sub sweeps of lz_witness(p); running every walk to the text's end
# covers 4,915, 22,748 and 1,348,472 (lzss_overlap), 11,018, 47,434 and
# 2,235,422 (lz77_overlap) for p = 3, 4 and 8
WALK_COVER = {
    ("lzss_overlap", 3): 2_100,
    ("lzss_overlap", 4): 7_400,
    ("lzss_overlap", 8): 220_000,
    ("lz77_overlap", 3): 6_600,
    ("lz77_overlap", 4): 24_200,
    ("lz77_overlap", 8): 730_000,
}


@pytest.mark.parametrize("measure,p", sorted(WALK_COVER))
def test_greedy_walks_stop_at_the_rejoin(monkeypatch, measure, p):
    T = lz_witness(p).base
    want = sensitivity_of_string(measure, T, "sub", T.alphabet())
    real = sv._greedy_walk
    covered = []

    def counted(U, start, overlap, take_next, joins, barrier):
        made, stop = real(U, start, overlap, take_next, joins, barrier)
        if joins:  # an edited text's walk, not T's own parse
            covered.append(stop - start)
        return made, stop

    monkeypatch.setattr(sv, "_greedy_walk", counted)
    assert sensitivity_of_string(measure, T, "sub", T.alphabet()) == want
    assert sum(covered) <= WALK_COVER[measure, p], sum(covered)


# exhaustive records of the two exact searches over every edit kind, frozen
# from the sweep that ran the exact search on every edited string
EXACT_PINS = {
    ("lzend_opt", 10, "sub"): (
        "lzend_opt,sub,10,5,8,3,8,5,3,2,exhaustive",
        (0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    ),
    ("lzend_opt", 10, "ins"): (
        "lzend_opt,ins,10,6,9,3,3,2,5,2,exhaustive",
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    ),
    ("lzend_opt", 10, "del"): (
        "lzend_opt,del,10,5,7,2,7,5,3,,exhaustive",
        (0, 1, 0, 1, 0, 0, 1, 0, 1, 0),
    ),
    ("bms", 8, "sub"): ("bms,sub,8,2,4,2,2,1,2,1,exhaustive", (0,) * 8),
    ("bms", 8, "ins"): ("bms,ins,8,2,4,2,2,1,1,1,exhaustive", (0,) * 8),
    ("bms", 8, "del"): ("bms,del,8,4,5,1,5,4,6,,exhaustive", (0, 0, 0, 0, 1, 0, 1, 0)),
}


@pytest.mark.parametrize("measure,n,kind", sorted(EXACT_PINS))
def test_exhaustive_exact_searches_are_pinned(measure, n, kind):
    rec = exhaustive_sensitivity(measure, n, 2, kind)
    assert (rec.csv_row(), rec.argmax_T.symbols) == EXACT_PINS[measure, n, kind]


# (measure, sigma, largest n) -> sha256 of the exhaustive records of every
# edit kind for n = 1 up to it, one line per record: its CSV row, ";" and its
# argmax's digits.  Frozen from the sweep that keyed every edited string by
# its own renaming and measured every class; lz78 reaches past n = 10 and to
# sigma = 3, on both sides of the sizes where its ceiling binds.
EXHAUSTIVE_PINS = {
    ("lz77_nonoverlap", 2, 10): "01c1dc822903d6b34811c456a39d2be184adb8060f0607d5fb0f1d259491adcc",
    ("lz77_overlap", 2, 10): "81612b2fe416d1c0f4ed6b346237cb2eb36c57ba00aa3845fa3db8c6b18d41ed",
    ("lz78", 2, 12): "0179e869c3d5454483f76f94c9b443b64d93601f153f4a9c7300fc6e966abd35",
    ("lz78", 3, 8): "69c8623e2598f9e5d6bcb8072091a68d0a6f1ffd4390a172384e9ed48f3241ba",
    ("lzend", 2, 10): "8684f93bd02fc4fec1de206aa8b4ddcca8fac24a05e11f92f4ec5783575268b4",
    ("lzss_nonoverlap", 2, 10): "6ba5b2f3b225dd71e7e62d81732bb9a9af3dd3be7e1c6478abad6c4db2b83f34",
    ("lzss_overlap", 2, 10): "789b9b8d13d1ea323c3a34a140e5013d4fcf253b084fe2efe16c7908e0497c9d",
}


@pytest.mark.parametrize("measure,sigma,top", sorted(EXHAUSTIVE_PINS))
def test_exhaustive_lz_records_are_pinned(measure, sigma, top):
    rows = []
    for n in range(1, top + 1):
        for kind in EDIT_KINDS:
            rec = exhaustive_sensitivity(measure, n, sigma, kind)
            rows.append(rec.csv_row() + ";" + "".join(map(str, rec.argmax_T.symbols)))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == EXHAUSTIVE_PINS[measure, sigma, top], rows


@pytest.mark.parametrize("measure", sorted(sv.UPPER_BOUNDS))
def test_upper_bounds_are_never_below_their_exact_measure(measure):
    exact, upper = MEASURES[measure], MEASURES[sv.UPPER_BOUNDS[measure]]
    for sigma, top in ((2, 10), (3, 7)):
        for n in range(1, top + 1):
            for syms in canonical_strings(n, sigma):
                T = SymbolString(syms)
                assert exact(T) <= upper(T), syms


def single_edits(T, sigma):
    """``(kind, edited text)`` for every edit of the tuple ``T`` by the
    symbols 0..sigma, the last of which is fresh."""
    n = len(T)
    for i in range(n):
        for c in range(sigma + 1):
            if c != T[i]:
                yield "sub", T[:i] + (c,) + T[i + 1 :]
    for i in range(n + 1):
        for c in range(sigma + 1):
            yield "ins", T[:i] + (c,) + T[i:]
    for i in range(n):
        yield "del", T[:i] + T[i + 1 :]


def test_one_edit_raises_delta_by_at_most_its_max_gain():
    # MAX_GAIN's premise, against the naive oracle on every binary text up to
    # n = 8 and every ternary one up to n = 5; the empty text measures 0
    gains = dict.fromkeys(EDIT_KINDS, -1)
    for sigma, top in ((2, 8), (3, 5)):
        for n in range(1, top + 1):
            for T in itertools.product(range(sigma), repeat=n):
                base = nv.naive_delta(T)
                for kind, U in single_edits(T, sigma):
                    gains[kind] = max(gains[kind], (nv.naive_delta(U) if U else 0) - base)
    assert gains["sub"] == gains["ins"] == sv.MAX_GAIN["delta"] == 1
    assert gains["del"] < 1


@pytest.mark.parametrize("kind", ["sub", "ins"])
def test_exhaustive_delta_stops_at_the_first_string_of_max_gain(monkeypatch, kind):
    # 0^n gains 1, so the sweep measures only it and its first edits
    seen = spy_memos(monkeypatch)
    rec = exhaustive_sensitivity("delta", 16, 2, kind)
    assert rec.argmax_T.symbols == (0,) * 16 and rec.AS == 1
    (memo,) = seen
    assert len(memo.memo) <= 3


def test_exhaustive_strings_are_drawn_as_they_are_swept():
    # the sweep stops at 0^18 and its first edits; listing and filtering all
    # 131,072 canonical strings first peaked at 26 MB
    tracemalloc.start()
    try:
        rec = exhaustive_sensitivity("delta", 18, 2, "sub")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.argmax_T.symbols == (0,) * 18 and rec.AS == 1
    assert peak < 5_000_000, peak


def counted_calls(monkeypatch, measure):
    """A list that grows by one per call of the ``MEASURES`` entry."""
    calls = []
    fn = MEASURES[measure]

    def counting(T):
        calls.append(None)
        return fn(T)

    monkeypatch.setitem(MEASURES, measure, counting)
    return calls


@pytest.mark.parametrize("kind", ["sub", "ins", "del"])
def test_delta_sweep_stops_at_the_first_edit_of_max_gain(monkeypatch, kind):
    T = SymbolString((0, 1, 1, 1, 1, 1, 1, 1))
    want = sensitivity_of_string(MEASURES["delta"], T, kind, range(2))
    edits = list(enumerate_edits(T, range(3), (kind,)))
    gains = [MEASURES["delta"](apply_edit(T, e)) - want.c_T for e in edits]
    calls = counted_calls(monkeypatch, "delta")
    got = sensitivity_of_string("delta", T, kind, range(2))
    assert got.csv_row().split(",", 1)[1] == want.csv_row().split(",", 1)[1]
    if 1 in gains:  # the base, then the edits up to the first that gains 1
        assert gains.count(1) > 1
        assert len(calls) == 1 + gains.index(1) + 1
    else:  # a deletion never gains 1, so every edit is measured
        assert len(calls) == 1 + len(edits)


def test_edit_keys_are_the_renaming_keys_of_the_edited_strings(monkeypatch):
    # every edit of every canonical string, sigma <= 2 up to n = 8 and
    # sigma = 3 up to n = 6; a fallback key is the one _renaming_key call
    renaming_key = sv._renaming_key
    fallbacks = []

    def counted(syms):
        fallbacks.append(None)
        return renaming_key(syms)

    monkeypatch.setattr(sv, "_renaming_key", counted)
    edits = 0
    for sigma, top in ((1, 8), (2, 8), (3, 6)):
        for n in range(1, top + 1):
            for syms in canonical_strings(n, sigma):
                for kind in EDIT_KINDS:
                    symbols = sv._sweep_alphabet(range(sigma), (), kind)
                    got = list(sv._edit_keys(syms, symbols, kind))
                    fields = list(_edit_fields(syms, symbols, (kind,)))
                    assert [f for _, f in got] == fields
                    for key, f in got:
                        assert key == renaming_key(_edited(syms, *f)), (syms, f)
                    edits += len(got)
    # both the keys cut from the base and the fallback are reached
    assert 0 < len(fallbacks) < edits / 2


def test_exhaustive_past_byte_symbols_matches_public_reference():
    # the fresh symbol 300 is no byte, so every edit takes the fallback key
    for kind in EDIT_KINDS:
        want = reference_exhaustive("lz78", 2, 300, kind)
        got = exhaustive_sensitivity("lz78", 2, 300, kind)
        assert got.csv_row() == want.csv_row() and got.argmax_T == want.argmax_T, kind


def test_lz78_max_size_is_reached_and_never_exceeded():
    # MAX_SIZE's premise, against the naive parser on every text of m
    # symbols over a: the largest size over them is the ceiling
    most = sv.MAX_SIZE["lz78"]
    assert most(0, 2) == 0
    for a, top in ((1, 12), (2, 10), (3, 7)):
        for m in range(1, top + 1):
            sizes = {len(nv.naive_lz78_lengths(U)) for U in itertools.product(range(a), repeat=m)}
            assert max(sizes) == most(m, a), (m, a)


def test_exhaustive_lz78_stops_at_its_ceiling(monkeypatch):
    # the n = 11 records reach the ceiling early; without it the sweep
    # measures 6,590 renaming classes, with it 1,086 (the 1,024 strings too)
    seen = spy_memos(monkeypatch)
    rec = exhaustive_sensitivity("lz78", 11, 2, "sub")
    assert rec.c_Tprime == sv.MAX_SIZE["lz78"](11, 3)
    (memo,) = seen
    assert len(memo.memo) <= 1100


# (measure, n) -> most exact calls of the binary sub sweep; without the
# bounds the sweeps make 3017 and 480
EXACT_CALLS = {("lzend_opt", 10): 520, ("bms", 8): 100}


@pytest.mark.parametrize("measure,n", sorted(EXACT_CALLS))
def test_exhaustive_sweeps_solve_only_where_the_bound_can_win(monkeypatch, measure, n):
    calls = counted_calls(monkeypatch, measure)
    rec = exhaustive_sensitivity(measure, n, 2, "sub")
    assert rec.csv_row() == EXACT_PINS[measure, n, "sub"][0]
    assert 0 < len(calls) <= EXACT_CALLS[measure, n]


def test_single_text_sweep_solves_only_where_the_bound_can_win(monkeypatch):
    T = SymbolString((0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    want = sensitivity_of_string(MEASURES["lzend_opt"], T, "sub", range(2))
    calls = counted_calls(monkeypatch, "lzend_opt")
    got = sensitivity_of_string("lzend_opt", T, "sub", range(2))
    assert got.csv_row().split(",", 1)[1] == want.csv_row().split(",", 1)[1]
    # the base, the first edit and the first maximum, of 20 edits
    assert len(calls) == 3


def test_pruned_sweeps_still_raise_the_exact_search_cap(monkeypatch):
    # the first edit of a sweep is always solved exactly, so an edited text
    # past the cap raises even where its bound would have pruned the rest
    monkeypatch.setenv("REPSENS_LIMIT_LZEND_OPT", "10")
    with pytest.raises(CapabilityError, match="REPSENS_LIMIT_LZEND_OPT"):
        exhaustive_sensitivity("lzend_opt", 10, 2, "ins")
    with pytest.raises(CapabilityError, match="REPSENS_LIMIT_LZEND_OPT"):
        sensitivity_of_string("lzend_opt", SymbolString((0,) * 10), "ins", range(2))
