"""Benchmark for repsens: one workload run, or every workload in turn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout; it imports repsens from that checkout's
``src/`` and exits with code 2 when there is none.  Workload names, metric
names and units come from ``BENCHMARK.json``.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median, over several fresh interpreters, of the time from
  interpreter start through ``import repsens`` and input generation up to
  the first timed call;
* ``wall_s``: median time of one pass over the workload's operations, output
  checks excluded;
* ``peak_rss_mb``: peak resident memory of the workload process.

Both times are scaled to reference machine speed with ``worker.speed_probe``;
the measured seconds are in the context line.

With ``--trace 1`` it holds the per-layer metrics of ``spans.py``.  The last
stdout line is the JSON result; the line before it records the context (seed,
Python version, nproc, commit, pass times, failures by cause).
``--workload all`` runs every workload untraced and traced, prints each
metric with its unit, and ends with one JSON line for the whole set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from worker import HERE, REFERENCE_PROBE_S, ROOT

WORKER = HERE / "worker.py"

SETUP_SAMPLES = 15  # fresh interpreters timed for setup_s, the worker included
RUN_LIMIT_S = 175.0  # the whole run, set-up probes included


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_cmd(workload, seed, seconds, trace, setup_only=False) -> list:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_worker(cmd, deadline):
    """Start a worker and wait for its ``ready`` line.  Returns the process
    and the seconds from start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not get ready: {' '.join(cmd[1:])}")
    return proc, elapsed


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def run_one(workload, seed, seconds, trace, units) -> tuple:
    """(context, result) of one workload run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = []  # (measured seconds, mean probe seconds right after)
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed = start_worker(worker_cmd(workload, seed, seconds, trace, True), deadline)
            out, _ = proc.communicate()
            setup.append((elapsed, json.loads(out)["setup_probe_s"]))
    proc, elapsed = start_worker(worker_cmd(workload, seed, seconds, trace), deadline)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"{workload}: worker did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    setup.append((elapsed, raw["setup_probe_s"]))
    setup_s = [t * REFERENCE_PROBE_S / probe for t, probe in setup]
    if trace:
        values = raw["layers"]
    else:
        values = {
            "wall_s": statistics.median(raw["untraced_s"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "untraced_pass_s": raw["untraced_s"],
        "traced_pass_s": raw["traced_s"],
        "untraced_pass_measured_s": raw["untraced_raw_s"],
        "traced_pass_measured_s": raw["traced_raw_s"],
        "setup_samples_s": setup_s,
        "setup_samples_measured_s": [t for t, _ in setup],
        "failures": raw["failures"],
        "failed_frac": raw["failed"] / raw["attempted"],
    }
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return context, result


def main(argv=None) -> int:
    if not (ROOT / "src" / "repsens" / "__init__.py").is_file():
        print(f"error: no repsens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="repsens benchmark")
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    try:
        if args.workload != "all":
            context, result = run_one(args.workload, args.seed, args.seconds, args.trace, units[args.trace])
            print(json.dumps({"context": context}))
            print(json.dumps(result))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            for trace in (0, 1):
                context, result = run_one(workload, args.seed, args.seconds, trace, units[trace])
                print(json.dumps({"context": context}))
                for name, m in result["metrics"].items():
                    print(f"{workload:18s} {name:44s} {m['value']:.6g} {m['unit']}")
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(total))
        return 0
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
