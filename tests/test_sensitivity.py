import dataclasses
import io
import random
from fractions import Fraction

import pytest

from repsens import (
    CapabilityError,
    InputError,
    MEASURES,
    SymbolString,
    apply_edit,
    exhaustive_sensitivity,
    growth_fit,
    lz78_witness,
    sensitivity_of_string,
)
import repsens.sensitivity as sv
from repsens.sensitivity import CSV_HEADER, canonical_strings, write_csv


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


def spy_memos(monkeypatch):
    """Record the measure callable of every sensitivity_of_string call."""
    seen = []
    original = sv.sensitivity_of_string

    def spy(measure, *args, **kwargs):
        seen.append(measure)
        return original(measure, *args, **kwargs)

    monkeypatch.setattr(sv, "sensitivity_of_string", spy)
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
    memos = {id(fn): fn.memo for fn in seen}
    assert len(memos) == 1  # one memo for the whole call
    (memo,) = memos.values()
    assert len(memo) == 2**n  # full: the cap is what stopped it growing
    assert len(set(map(type, memo))) == 1


def test_exhaustive_memo_bounded_by_budget(monkeypatch):
    seen = spy_memos(monkeypatch)
    for budget in (2**6, 2**9):
        monkeypatch.setenv("REPSENS_LIMIT_EXHAUSTIVE", str(budget))
        exhaustive_sensitivity("delta", 6, 2, "ins")
        assert 0 < len(seen[-1].memo) <= budget
    assert len(seen[-1].memo) < 2**9  # an ample cap does not bind


def test_exhaustive_jobs_match_serial_memoized():
    for kind in ("sub", "ins", "del"):
        serial = exhaustive_sensitivity("delta", 7, 2, kind, jobs=1)
        parallel = exhaustive_sensitivity("delta", 7, 2, kind, jobs=2)
        assert parallel.csv_row() == serial.csv_row()
        assert parallel.argmax_T == serial.argmax_T


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
