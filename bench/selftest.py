"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Corrupted outputs (a shifted phrase source, a dropped attractor position, a
changed AS) must each count as failed; an operation that raises
CapabilityError or overruns its cap must count as failed while the run goes
on; a pass that does not reproduce the first must count as failed; the
metric names must match BENCHMARK.json; and the benchmark must exit non-zero,
printing no result, where the repsens sources are missing.  Prints one line
per case and exits with code 1 if any case fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time

import worker

worker.import_repsens()

import repsens as R  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SCRATCH = worker.ROOT / ".bench_build"
OUTCOMES = []


def report(name: str, ok: bool, detail: str = "") -> None:
    OUTCOMES.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def measure(ops, seconds=0.0, op_timeout=worker.OP_TIMEOUT_S) -> dict:
    return worker.measure(ops, seconds, 0, time.perf_counter(), op_timeout=op_timeout)


def failed_with(op, output) -> int:
    """Failed count when ``op`` yields ``output``, checked as in a run."""
    return measure([dataclasses.replace(op, run=lambda: output)])["failed"]


def find(ops, name):
    return next(op for op in ops if op.name == name)


def shifted_source(T, F):
    """F with the first copy phrase re-pointed one position right, at a
    source whose symbols differ from the phrase's."""
    syms = T.symbols
    for k, ph in enumerate(F.phrases):
        if ph.kind != "copy":
            continue
        src0 = ph.source  # the shifted source, 0-based
        if src0 + ph.length <= len(syms) and syms[src0 : src0 + ph.length] != syms[ph.start - 1 : ph.end]:
            phrases = list(F.phrases)
            phrases[k] = dataclasses.replace(ph, source=ph.source + 1)
            return dataclasses.replace(F, phrases=tuple(phrases))
    raise AssertionError("no copy phrase can be shifted off its content")


def case_corrupt_outputs(scratch) -> None:
    parse = W.build("parse-long", 0, scratch)
    op = find(parse, "random-s2:lzss_overlapping")
    F = op.run()
    T = op.run.args[1]
    report("parse: valid output passes", failed_with(op, F) == 0)
    report("parse: shifted phrase source fails", failed_with(op, shifted_source(T, F)) == 1)

    repair = W.build("certify-repair", 0, scratch)
    op = find(repair, "attractor-all:01101")
    T, edits = op.run.args
    gamma, repairs = op.run()
    k, e = next((k, e) for k, e in enumerate(edits) if e.kind != "del" and e.symbol == 2)
    fresh = e.position if e.kind == "sub" else e.position + 1  # the one 2 in the edited text
    out, rep = repairs[k]
    dropped = list(repairs)
    dropped[k] = (out - {fresh}, dataclasses.replace(rep, output_size=len(out) - 1))
    report("repair: valid outputs pass", failed_with(op, (gamma, repairs)) == 0)
    report("repair: dropped attractor position fails", failed_with(op, (gamma, dropped)) == 1)

    exhaustive = W.build("sweep-exhaustive", 0, scratch)
    op = find(exhaustive, "bms/8/sub")
    rec = op.run()
    report("exhaustive: pinned record passes", failed_with(op, rec) == 0)
    report("exhaustive: changed AS fails", failed_with(op, dataclasses.replace(rec, AS=rec.AS + 1)) == 1)
    op = find(exhaustive, "delta/10/del")
    rec = op.run()
    report("exhaustive: delta AS above 1 fails", failed_with(op, dataclasses.replace(rec, AS=2)) == 1)

    witness = W.build("sweep-witness", 0, scratch)
    op = find(witness, "lzss-witness-p2")
    rec = op.run()
    report("witness: closed-form row passes", failed_with(op, rec) == 0)
    report("witness: changed AS fails", failed_with(op, dataclasses.replace(rec, AS=4)) == 1)
    op = find(witness, "cli-lz78-sweep")
    code, text = op.run()
    lines = text.splitlines()
    row = lines[1].split(",")
    row[5] = str(int(row[5]) - 1)  # AS = p for the first p
    bad = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    no_fit = "\n".join(ln for ln in lines if not ln.startswith("#")) + "\n"
    report("witness: CLI sweep passes", failed_with(op, (code, text)) == 0)
    report("witness: CLI row with changed AS fails", failed_with(op, (code, bad)) == 1)
    report("witness: CLI output without --fit line fails", failed_with(op, (code, no_fit)) == 1)


def case_failing_operations() -> None:
    good = W.Op("good", lambda: R.lz78(R.SymbolString([0, 1, 0])), lambda F: 0)
    capped = W.Op("capped", lambda: R.smallest_attractor(R.SymbolString(range(30)), 20), lambda out: 0)
    slow_text = W.fibonacci(65536)
    slow = W.Op("slow", lambda: R.lz_end_greedy(slow_text), lambda out: 0, count=3)
    t0 = time.perf_counter()
    result = measure([capped, slow, good], op_timeout=0.3)
    took = time.perf_counter() - t0
    causes = result["failures"]
    report(
        "CapabilityError and overrun count as failed, the run goes on",
        result["attempted"] == 5 and result["failed"] == 4
        and causes["raised"] == 1 and causes["overrun"] == 3 and took < 5,
        json.dumps(result | {"took": took}),
    )

    calls = []
    drifting = W.Op("drifting", lambda: (calls.append(None), time.sleep(0.01), len(calls))[2], lambda out: 0)
    result = measure([drifting], seconds=0.035)
    passes = len(result["untraced_s"])
    report("a pass that differs from the first fails", passes >= 2 and result["failed"] == passes - 1)


def case_metric_names() -> None:
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    report("workload names match", [w["name"] for w in spec["workloads"]] == list(W.BUILDERS))
    report(
        "end-to-end names match",
        [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"],
    )
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report("per-layer names and units match", per_layer == spans.metric_units())

    original = R.sensitivity.lz78
    T = R.lz78_witness(2).base
    op = W.Op("sweep", lambda: R.sensitivity_of_string("lz78", T, "sub", T.alphabet()), lambda out: 0)
    result = worker.measure([op], 0.0, 1, time.perf_counter(), tracer_factory=spans.Tracer)
    layers = worker.layer_metrics(result["tracers"], result["untraced_s"], result["traced_s"])
    report("traced pass reports every per-layer metric", set(layers) == set(per_layer))
    report(
        "traced pass counts calls and restores the originals",
        layers["sensitivity.sensitivity_of_string.calls"] == 1
        and layers["factorizers.lz78.calls"] > 1
        and 0 < layers["sensitivity.kind_filter_ratio"] < 1
        and R.sensitivity.lz78 is original
        and R.sensitivity.MEASURES["delta"] is R.delta,
        json.dumps(layers),
    )


def case_missing_sources(scratch) -> None:
    bare = scratch / "bare"
    shutil.copytree(worker.HERE, bare / worker.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, f"{worker.HERE.name}/run.py", "--workload", "parse-long",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    report(
        "no sources: non-zero exit and no result",
        proc.returncode != 0 and "{" not in proc.stdout,
        f"code {proc.returncode}, stdout {proc.stdout!r}",
    )


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    scratch = worker.Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
    try:
        case_corrupt_outputs(scratch)
        case_failing_operations()
        case_metric_names()
        case_missing_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{sum(OUTCOMES)}/{len(OUTCOMES)} self-test cases pass")
    return 0 if all(OUTCOMES) else 1


if __name__ == "__main__":
    sys.exit(main())
