import dataclasses
import io
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import repsens.sensitivity as sv
from repsens.core import EDIT_KINDS, _sa_new, _suffix_automaton
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


def test_no_legal_edit_is_flagged():
    rec = sensitivity_of_string("delta", SymbolString([0]), "sub", {0}, include_fresh=False)
    assert rec.AS is None and rec.MS is None and rec.edit is None
    assert rec.c_T == 1


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


def reference_sweep(measure, T, kind, alphabet, include_fresh=True, source="witness"):
    """Reference for sensitivity_of_string from public pieces only: every
    ``Edit`` of enumerate_edits applied with apply_edit and measured by the
    raw MEASURES function, the first largest value kept."""
    fn = MEASURES[measure]

    def size(U):
        return fn(U) if len(U) else 0

    sigma = set(alphabet)
    if include_fresh:
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
        fresh = rng.random() < 0.8
        for kind in ("sub", "ins", "del"):
            want = reference_sweep(measure, T, kind, alphabet, fresh)
            # by name (lz78 takes its resumed path) and as a plain function
            for by in (measure, MEASURES[measure]):
                got = sensitivity_of_string(by, T, kind, alphabet, fresh)
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


@pytest.mark.parametrize("measure,kind", [("delta", "sub"), ("lz78", "ins"), ("lzend", "sub")])
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
    original = sv._best_of_strings

    def spy(args):
        swept.append(args[1])
        return original(args)

    monkeypatch.setattr(sv, "_best_of_strings", spy)
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
    # a sweep extends and rolls back a private automaton; had it taken the
    # shared one, the mutated automaton would stay cached under its text,
    # and the empty text's tuple is one object for every empty text
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
        phrases, keep, parse, danger = family(syms)

        def counting(*args):
            calls.append(None)
            return parse(*args)

        return phrases, keep, counting, danger

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
