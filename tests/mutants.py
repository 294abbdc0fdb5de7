"""Re-runnable mutants of the subtle code, each with the tests that kill it.

    python3 tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/repsens``, a source
snippet that must occur there exactly once, its replacement, and the pytest
node ids that must fail once it is applied (a parametrized test's id fails
when any of its cases does).  For each mutant the script copies ``src/`` to
a temporary directory, applies the replacement there and runs the listed
tests against the copy, two mutants at a time.  pytest is given
``-o pythonpath=<copy>/src``: without it, pyproject's ``pythonpath =
["src"]`` imports the unmutated tree.  The working tree's ``src/`` is never
written.

The script exits non-zero when a snippet no longer occurs exactly once (a
refactor then updates the mutant rather than dropping it), when a listed
test passes on its mutant, or when pytest ends in anything but failed tests
or runs past ``TIMEOUT_S``.  Its name does not start with ``test_``, so
pytest does not collect it.

Equivalent mutants are left out: ``smallest_bms``'s ``chain_ok`` returning
True passes all of ``tests/test_measures.py``, because the leaf
``_map_terminates`` check is what rejects cycles.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # per mutant; its tests take seconds on the unmutated tree


class Mutant(NamedTuple):
    name: str
    file: str  # under src/repsens
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # the exact searches
    Mutant(
        "bms-undo-dropped",
        "measures.py",
        "                refmap[start : start + length] = (-1,) * length\n",
        "",
        (
            "tests/test_measures.py::test_exact_referee_outputs_pinned",
            "tests/test_measures.py::test_smallest_bms_matches_naive",
        ),
    ),
    Mutant(
        "bms-literal-with-source",
        "measures.py",
        '(start, length, "copy", src) if src else (start, 1, "literal", None)',
        '(start, length, "copy" if src else "literal", src)',
        (
            "tests/test_measures.py::test_exact_referee_outputs_pinned",
            "tests/test_measures.py::test_smallest_bms_validity_and_parsing_bound",
        ),
    ),
    Mutant(
        "lzend-opt-best-aliases-prefix",
        "factorizers.py",
        "best_parse = list(acc)",
        "best_parse = acc",
        (
            "tests/test_measures.py::test_exact_referee_outputs_pinned",
            "tests/test_factorizers.py::test_lzend_optimal_matches_plain_backtracking",
        ),
    ),
    # the exhaustive sweeps
    Mutant(
        "first-max-skips-one-above-bar",
        "sensitivity.py",
        "upper(U) <= bar:",
        "upper(U) <= bar + 1:",
        (
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[lzend_opt]",
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[bms]",
        ),
    ),
    Mutant(
        "reversal-filter-strict",
        "sensitivity.py",
        "s <= tuple(_renaming_key(s[::-1]))",
        "s < tuple(_renaming_key(s[::-1]))",
        (
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[delta]",
            "tests/test_sensitivity.py::test_exhaustive_sweeps_one_string_per_reversal_class",
        ),
    ),
    Mutant(
        "lzend-opt-reversal-invariant",
        "sensitivity.py",
        'REVERSAL_INVARIANT = frozenset({"delta", "gamma", "bms"})',
        'REVERSAL_INVARIANT = frozenset({"delta", "gamma", "bms", "lzend_opt"})',
        (
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[lzend_opt]",
            "tests/test_sensitivity.py::"
            "test_measures_outside_the_invariant_set_change_under_reversal[lzend_opt]",
        ),
    ),
    Mutant(
        "delta-max-gain-halved",
        "sensitivity.py",
        'MAX_GAIN = {"delta": 1}',
        'MAX_GAIN = {"delta": Fraction(1, 2)}',
        (
            "tests/test_sensitivity.py::test_sweep_matches_public_reference[delta]",
            "tests/test_sensitivity.py::test_one_edit_raises_delta_by_at_most_its_max_gain",
        ),
    ),
    Mutant(
        "delta-string-loop-runs-on",
        "sensitivity.py",
        "            if top[0] - base == cap:\n                break\n",
        "",
        ("tests/test_sensitivity.py::test_exhaustive_delta_stops_at_the_first_string_of_max_gain",),
    ),
    Mutant(
        "exhaustive-ceiling-at-base",
        "sensitivity.py",
        "ceiling = min(base + cap, most)",
        "ceiling = min(base, most)",
        (
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[delta]",
            "tests/test_sensitivity.py::test_exhaustive_delta_stops_at_the_first_string_of_max_gain",
        ),
    ),
    Mutant(
        "sweep-ceiling-at-base",
        "sensitivity.py",
        "ceiling = None if cap is None else base + cap\n        best = ",
        "ceiling = None if cap is None else base\n        best = ",
        (
            "tests/test_sensitivity.py::test_sweep_matches_public_reference[delta]",
            "tests/test_sensitivity.py::test_delta_sweep_stops_at_the_first_edit_of_max_gain",
        ),
    ),
    Mutant(
        "lz78-danger-empty",
        "sensitivity.py",
        "    return {\n        text[start - 1 + depth]\n",
        "    return set() and {\n        text[start - 1 + depth]\n",
        (
            "tests/test_sensitivity.py::test_lz78_danger_set_keeps_the_placeholder_boundaries",
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
        ),
    ),
    # the resumed sweeps: their danger sets, lz78 tails and stop rule
    Mutant(
        "greedy-danger-a-dropped",
        "sensitivity.py",
        "if resume < d or take_next:  # (a)",
        "if False:  # (a)",
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_keeps_the_placeholder_boundaries",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "greedy-danger-b-dropped",
        "sensitivity.py",
        "if not take_next and d + 1 < n:  # (b)",
        "if False:  # (b)",
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_keeps_the_placeholder_boundaries[lzss_overlap]",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lzss_overlap]",
        ),
    ),
    Mutant(
        "greedy-danger-c-dropped",
        "sensitivity.py",
        "for phrase in tail:  # (c)",
        "for phrase in ():  # (c)",
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_keeps_the_placeholder_boundaries",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "lz77-danger-a-skipped-at-resume",
        "sensitivity.py",
        "if resume < d or take_next:  # (a)",
        "if resume < d:  # (a)",
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_keeps_the_placeholder_boundaries[lz77_overlap]",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lz77_overlap]",
        ),
    ),
    Mutant(
        "lz77-literal-window-widened",
        "sensitivity.py",
        'return _walk_end(phrase) + 1 + (not take_next and phrase[2] == "literal")',
        'return _walk_end(phrase) + 1 + (phrase[2] == "literal")',
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_keeps_the_placeholder_boundaries[lz77_overlap]",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lz77_nonoverlap]",
        ),
    ),
    Mutant(
        "greedy-fragile-interval-one-short",
        "sensitivity.py",
        "hi = phrase[3] + copied - 2",
        "hi = phrase[3] + copied - 3",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    # admits the phrase's own occurrence, which starts at a
    Mutant(
        "greedy-fragile-overlap-bound-one-long",
        "sensitivity.py",
        "a + copied - 1 if overlap else a)",
        "a + copied if overlap else a)",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lzss_overlap]",
            "tests/test_sensitivity.py::test_lz_witness_sub_sweep_is_pinned",
        ),
    ),
    Mutant(
        "greedy-fragile-nonoverlap-bound-one-long",
        "sensitivity.py",
        "a + copied - 1 if overlap else a)",
        "a + copied - 1 if overlap else a + 1)",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lzss_nonoverlap]",
        ),
    ),
    Mutant(
        "greedy-deletion-junction-one-short",
        "sensitivity.py",
        "S[d + 1 : d + k]",
        "S[d + 1 : d + k - 1]",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "greedy-rejoin-one-phrase-early",
        "sensitivity.py",
        "while i < n and joins[i] <= barrier:",
        "while i < n and joins[i] < barrier:",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
            "tests/test_sensitivity.py::test_lz_witness_sub_sweep_is_pinned",
        ),
    ),
    # the walk on the edited text's string
    Mutant(
        "greedy-walk-overlap-bound-one-long",
        "sensitivity.py",
        "i - 1 + m if overlap else i)",
        "i + m if overlap else i)",
        (
            "tests/test_sensitivity.py::test_greedy_walk_matches_full_parses_on_long_phrases",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lzss_overlap]",
        ),
    ),
    Mutant(
        "greedy-walk-nonoverlap-bound-one-long",
        "sensitivity.py",
        "i - 1 + m if overlap else i)",
        "i - 1 + m if overlap else i + 1)",
        (
            "tests/test_sensitivity.py::test_greedy_walk_matches_full_parses_on_long_phrases",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses[lzss_nonoverlap]",
        ),
    ),
    Mutant(
        "greedy-walk-search-past-the-hit",
        "sensitivity.py",
        "U.find(U[i : i + m], hit,",
        "U.find(U[i : i + m], hit + 1,",
        (
            "tests/test_sensitivity.py::test_greedy_walk_matches_full_parses_on_long_phrases",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "greedy-walk-halving-one-short",
        "sensitivity.py",
        "                step //= 2\n",
        "                step = (step - 1) // 2\n",
        ("tests/test_sensitivity.py::test_greedy_walk_matches_full_parses_on_long_phrases",),
    ),
    Mutant(
        "greedy-danger-filter-one-late",
        "sensitivity.py",
        "w is not None and firstpos[w] <= d\n",
        "w is not None and firstpos[w] <= d + 1\n",
        (
            "tests/test_sensitivity.py::test_greedy_danger_set_from_the_text_automaton_is_the_prefix_ones",
            "tests/test_sensitivity.py::test_danger_sets_stay_small",
        ),
    ),
    Mutant(
        "greedy-window-barrier-from-placeholder-tail",
        "sensitivity.py",
        "        # tail is the placeholder parse's, the last one made\n"
        "        for m in range(len(phrases) - 1, barrier, -1):\n",
        "        # tail is the placeholder parse's, the last one made\n"
        "        for m in range(len(phrases) - 1, joined - 1, -1):\n",
        (
            "tests/test_sensitivity.py::test_greedy_stop_rule_matches_full_parses",
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "lz78-danger-without-length-filter",
        "sensitivity.py",
        "if length > depth and text[start - 1 : start - 1 + depth] == word",
        "if start - 1 + depth < len(text) and text[start - 1 : start - 1 + depth] == word",
        ("tests/test_sensitivity.py::test_danger_sets_stay_small",),
    ),
    Mutant(
        "lz78-danger-kept-phrases-ignored",
        "sensitivity.py",
        "_lz78_danger(text, d, resume, phrases[:kept] + tail)",
        "_lz78_danger(text, d, resume, tail)",
        (
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
            "tests/test_sensitivity.py::test_sweep_matches_public_reference[lz78]",
        ),
    ),
    Mutant(
        "lz78-danger-placeholder-tail-ignored",
        "sensitivity.py",
        "_lz78_danger(text, d, resume, phrases[:kept] + tail)",
        "_lz78_danger(text, d, resume, phrases[:kept])",
        (
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
            "tests/test_sensitivity.py::test_sweep_matches_public_reference[lz78]",
        ),
    ),
    Mutant(
        "lz78-tail-shared-unchecked",
        "sensitivity.py",
        "j = creates.get((first[0][3], c))",
        "j = None",
        (
            "tests/test_sensitivity.py::test_lz78_tail_sharing_matches_full_parses",
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "lz78-rewind-one-word-short",
        "sensitivity.py",
        "undo = made[:j]",
        "undo = made[: max(j - 1, 0)]",
        (
            "tests/test_sensitivity.py::test_lz78_tail_sharing_matches_full_parses",
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "lz78-tails-kept-across-positions",
        "sensitivity.py",
        "            tails.clear()\n",
        "",
        (
            "tests/test_sensitivity.py::test_lz78_tail_sharing_matches_full_parses",
            "tests/test_sensitivity.py::test_lz78_sweeps_share_their_tails",
        ),
    ),
    Mutant(
        "resume-one-phrase-late",
        "sensitivity.py",
        "k = bisect_left(stops, d)",
        "k = bisect_left(stops, d + 1)",
        (
            "tests/test_sensitivity.py::test_greedy_resume_matches_full_parses",
            "tests/test_sensitivity.py::test_lz78_resume_matches_full_parses",
        ),
    ),
    Mutant(
        "reversal-filter-keeps-larger",
        "sensitivity.py",
        "s <= tuple(_renaming_key(s[::-1]))",
        "s >= tuple(_renaming_key(s[::-1]))",
        (
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[gamma]",
            "tests/test_sensitivity.py::test_exhaustive_sweeps_one_string_per_reversal_class",
        ),
    ),
    # the repairs' size bounds
    Mutant(
        "lzend-repair-bound-2t",
        "repair.py",
        'bound = (2 if kind == "ins" else 3) * t',
        "bound = 2 * t",
        ("tests/test_repair.py::test_repair_outputs_pinned",),
    ),
    Mutant(
        "attractor-repair-bound-one-less",
        "repair.py",
        "bound = len(gamma) + g + cap + 2",
        "bound = len(gamma) + g + cap + 1",
        (
            "tests/test_repair.py::test_attractor_repair_running_example",
            "tests/test_repair.py::test_repair_outputs_pinned",
        ),
    ),
    Mutant(
        "bms-repair-bound-one-less",
        "repair.py",
        "bound += cap\n",
        "bound += cap - (k == 0)\n",
        (
            "tests/test_repair.py::test_bms_repair_all_ground_scheme",
            "tests/test_repair.py::test_bms_repair_exhaustive_small",
        ),
    ),
    # the attractor repair's seam walk
    Mutant(
        "attractor-repair-carried-hit-not-refound",
        "repair.py",
        "j = text.find(word[a - 1 : b])",
        "j = j + 1",
        (
            "tests/test_repair.py::test_repair_outputs_pinned",
            "tests/test_repair.py::test_attractor_repair_exhaustive_small",
            "tests/test_repair.py::test_attractor_repair_matches_naive_walk_exhaustive",
        ),
    ),
    # no other tests have a symbol past the last code point
    Mutant(
        "attractor-repair-renaming-collapses",
        "core.py",
        "names = {c: chr(r) for r, c in",
        "names = {c: chr(c % 0x110000) for r, c in",
        (
            "tests/test_repair.py::test_attractor_repair_matches_naive_walk_beyond_unicode",
            "tests/test_sensitivity.py::test_greedy_resume_renames_symbols_beyond_unicode",
        ),
    ),
    Mutant(
        "attractor-repair-extension-one-long",
        "repair.py",
        "stop = min(n, a + cap - 1)",
        "stop = min(n, a + cap)",
        (
            "tests/test_repair.py::test_repair_outputs_pinned",
            "tests/test_repair.py::test_attractor_repair_matches_naive_walk_exhaustive",
        ),
    ),
    # the one-pass phrase repairs
    Mutant(
        "bms-repair-lone-row-in-phrase-order",
        "repair.py",
        'ledger.append((0, "bms:1", 1))',
        'ledger.insert(sum(ph.end <= i for ph in phrases), (0, "bms:1", 1))',
        (
            "tests/test_repair.py::test_repair_outputs_pinned",
            "tests/test_cli.py::test_repair_trace_orders_an_insertion_between_phrases",
        ),
    ),
    Mutant(
        "bms-repair-nested-copy-cut",
        "repair.py",
        "elif k in host:",
        "elif False:",
        ("tests/test_repair.py::test_repair_outputs_pinned",),
    ),
    # input checks
    Mutant(
        "symbol-string-assignable",
        "core.py",
        'raise AttributeError(f"cannot assign to field {name!r} of an immutable SymbolString")',
        "object.__setattr__(self, name, value)",
        ("tests/test_core.py::test_symbol_string_is_immutable",),
    ),
    Mutant(
        "attractor-repair-memo-before-ints",
        "repair.py",
        "gamma = _attractor_positions(gamma)",
        "gamma = frozenset(gamma)",
        ("tests/test_core.py::test_integer_arguments_are_checked",),
    ),
    Mutant(
        "distinct-substrings-float-length",
        "core.py",
        '    k = _integer(k, "substring length")\n',
        "",
        ("tests/test_core.py::test_integer_arguments_are_checked",),
    ),
    # a cut key spells its edited string, so a wrong cut splits a renaming
    # class but measures the right text: only the key test sees these two
    Mutant(
        "edit-key-sub-first-occurrence-cut",
        "sensitivity.py",
        "cut = syms[i - 1] < named[i - 1] and s <= named[i - 1]",
        "cut = syms[i - 1] <= named[i - 1] and s <= named[i - 1]",
        ("tests/test_sensitivity.py::test_edit_keys_are_the_renaming_keys_of_the_edited_strings",),
    ),
    Mutant(
        "edit-key-ins-one-more-name",
        "sensitivity.py",
        "cut = s <= named[i]",
        "cut = s <= named[i] + 1",
        ("tests/test_sensitivity.py::test_edit_keys_are_the_renaming_keys_of_the_edited_strings",),
    ),
    Mutant(
        "lz78-ceiling-one-too-tight",
        "sensitivity.py",
        "return words + budget // k + 1",
        "return words + budget // k",
        (
            "tests/test_sensitivity.py::test_exhaustive_lz_records_are_pinned[lz78-2-12]",
            "tests/test_sensitivity.py::test_exhaustive_matches_public_reference[lz78]",
            "tests/test_sensitivity.py::test_lz78_max_size_is_reached_and_never_exceeded",
        ),
    ),
    # the records stay right, so only the count and the ceiling's own test see it
    Mutant(
        "lz78-ceiling-one-too-loose",
        "sensitivity.py",
        "return words + budget // k + 1",
        "return words + budget // k + 2",
        (
            "tests/test_sensitivity.py::test_exhaustive_lz78_stops_at_its_ceiling",
            "tests/test_sensitivity.py::test_lz78_max_size_is_reached_and_never_exceeded",
        ),
    ),
    Mutant(
        "growth-fit-admits-size-zero",
        "sensitivity.py",
        "if point[0] <= 0:",
        "if point[0] < 0:",
        ("tests/test_sensitivity.py::test_growth_fit_input_validation",),
    ),
    Mutant(
        "exhaustive-cap-exponent-short",
        "config.py",
        "sigma ** min(n, cap.bit_length())",
        "sigma ** min(n, cap.bit_length() - 1)",
        ("tests/test_cli.py::test_exhaustive_cap_compares_the_whole_power",),
    ),
)


def _source(m: Mutant, src: Path) -> Path:
    return src / "repsens" / m.file


def _misplaced(m: Mutant) -> str | None:
    """Why the mutant cannot be applied to the working tree, or None."""
    count = _source(m, ROOT / "src").read_text().count(m.old)
    return None if count == 1 else f"its snippet occurs {count} times in {m.file}"


def _run(m: Mutant) -> str | None:
    """What went wrong when the listed tests ran on the mutant, or None when
    every one of them failed."""
    with tempfile.TemporaryDirectory(prefix="repsens-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = _source(m, src)
        path.write_text(path.read_text().replace(m.old, m.new))
        # no bytecode is written, so concurrent runs never share a cache file
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
        command += ["-o", f"pythonpath={src}", *m.tests]
        try:
            run = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"its tests ran past {TIMEOUT_S} s"
    if run.returncode != 1:  # 1: some tests failed; anything else is no kill
        return f"pytest exited {run.returncode}:\n{run.stdout[-3000:]}{run.stderr[-3000:]}"
    failed = [line[7:] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    passed = [
        test
        for test in m.tests
        if not any(f == test or f.startswith((test + " ", test + "[")) for f in failed)
    ]
    return f"survives {', '.join(passed)}" if passed else None


def main() -> int:
    stale = [(m, why) for m, why in zip(MUTANTS, map(_misplaced, MUTANTS)) if why]
    for m, why in stale:
        print(f"STALE   {m.name}: {why}")
    if stale:
        return 1
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        outcomes = list(pool.map(_run, MUTANTS))
    for m, why in zip(MUTANTS, outcomes):
        print(f"killed  {m.name}" if why is None else f"ALIVE   {m.name}: {why}")
    killed = outcomes.count(None)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.monotonic() - started:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
