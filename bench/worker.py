"""One workload run in a fresh interpreter: set up, then time passes over
the operation list, checking the outputs of the first.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]
    python3 bench/worker.py --pin      # print the records for expected.json

The worker prints ``ready`` once the package is imported and the inputs are
built; ``run.py`` times interpreter start to that line as the set-up time.
With ``--setup-only`` it then prints its mean speed-probe time and exits.
Otherwise its last stdout line is a JSON object with the pass times,
operation counts and, for a traced run, the per-layer metrics.

A run times whole passes over the operation list until the next pass would
end after ``--seconds`` (at least one pass; a traced run alternates untraced
and traced passes and makes at least one of each).  In the first pass each
output is checked right after its operation, outside the timed region, and
only its digest is kept: later passes must reproduce every digest.  So the
worker holds one output at a time and its peak memory is the program's.  An
operation that raises, overruns its time cap or fails its check counts as
failed; the run goes on.

The speed of a shared machine drifts by tens of percent within minutes, so
every ``PROBE_INTERVAL_S`` of CPU time a signal handler times a fixed speed
probe.  Probe time is taken out of the pass time, and the pass time is
scaled by ``REFERENCE_PROBE_S`` / (the pass's mean probe time): the pass
time at reference speed, which ``wall_s`` reports.  The measured seconds are
reported as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 60.0  # cap on a single operation
PASS_DEADLINE_S = 110.0  # after worker start: later operations are not started
CHECK_DEADLINE_S = 160.0  # after worker start: later checks are not run

PROBE_INTERVAL_S = 0.05  # CPU seconds between speed probes
SETUP_PROBES = 30  # probes right after set-up, to scale the set-up time
# Reported times are in units where speed_probe() takes this long: a round
# value near its median on a 2-core VM with Python 3.11.7.
REFERENCE_PROBE_S = 0.001
_PROBE_RNG = random.Random(7)
_PROBE_TEXT = "".join(_PROBE_RNG.choice("ab") for _ in range(4000))
_PROBE_SYMBOLS = tuple(_PROBE_RNG.randrange(4) for _ in range(600))


def speed_probe() -> float:
    """Seconds taken by a fixed slice of interpreter work like the
    workloads': an integer loop, string search, and a dictionary trie and
    tuple keys over a fixed text.  The garbage collector is off meanwhile, so
    the probe never collects what the operations left behind."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        s = 0
        for i in range(8000):
            s += i * i % 7
        for i in range(0, 160, 4):
            _PROBE_TEXT.find(_PROBE_TEXT[i : i + 24], 0, 3000)
        syms, n = _PROBE_SYMBOLS, len(_PROBE_SYMBOLS)
        root: dict = {}
        pos = 0
        while pos < n:
            node = root
            while pos < n and syms[pos] in node:
                node = node[syms[pos]]
                pos += 1
            if pos < n:
                node[syms[pos]] = {}
            pos += 1
        counts: dict = {}
        for i in range(500):
            key = syms[i : i + 6]
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def mean_probe() -> float:
    return statistics.fmean(speed_probe() for _ in range(SETUP_PROBES))


class SpeedSampler:
    """Runs speed_probe() from a SIGVTALRM handler every PROBE_INTERVAL_S of
    CPU time, inside long operations too.  ``on_probe`` receives each probe's
    seconds, so a tracer can keep them out of the span being interrupted."""

    def __init__(self, on_probe=None):
        self.count = 0
        self.total = 0.0
        self.on_probe = on_probe

    def sample(self, signum=None, frame=None) -> None:
        dur = speed_probe()
        self.count += 1
        self.total += dur
        if self.on_probe is not None:
            self.on_probe(dur)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


class Overrun(BaseException):
    """An operation or check exceeded its time cap.  A BaseException, so the
    ``except Exception`` of the code under test cannot swallow it."""


def _on_alarm(signum, frame):
    raise Overrun


def with_cap(fn, seconds: float):
    """``fn()``, raising Overrun once ``seconds`` of wall time pass."""
    if seconds <= 0:
        raise Overrun
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Failures:
    """Failed-operation counts by cause; the first few are reported on stderr."""

    SHOWN = 5

    def __init__(self):
        self.by_cause = {"raised": 0, "overrun": 0, "check": 0, "mismatch": 0}
        self.shown = 0

    def add(self, cause: str, op, count: int, detail: str = "") -> None:
        if count <= 0:
            return
        self.by_cause[cause] += count
        if self.shown < self.SHOWN:
            self.shown += 1
            print(f"bench: {op.name}: {cause} {detail}".rstrip(), file=sys.stderr)

    @property
    def total(self) -> int:
        return sum(self.by_cause.values())


def digest(output) -> bytes:
    """Fingerprint of an output, to compare passes without keeping outputs."""
    return hashlib.blake2b(repr(output).encode(), digest_size=16).digest()


def check_op(op, output, deadline: float, failures: Failures) -> None:
    try:
        bad = with_cap(lambda: op.check(output), deadline - time.perf_counter())
        failures.add("check", op, min(int(bad), op.count))
    except Overrun:
        failures.add("overrun", op, op.count, "in its check")
    except Exception as exc:  # a check that cannot read the output fails it
        failures.add("check", op, op.count, f"{type(exc).__name__}: {exc}")


def run_pass(ops, deadlines, op_timeout, failures, reference=None, tracer=None):
    """One pass.  Without ``reference`` (the first pass) every output is
    checked right after its operation; otherwise its digest must equal the
    reference's.  Returns the seconds spent in operations without probes,
    the pass's mean probe seconds, and the digest of every operation's
    output (None where it failed)."""
    pass_deadline, check_deadline = deadlines
    digests = []
    wall = 0.0
    with SpeedSampler(None if tracer is None else tracer.exclude) as sampler:
        sampler.sample()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.family = op.family
            probed = sampler.total
            t0 = time.perf_counter()
            try:
                output = with_cap(op.run, min(op_timeout, pass_deadline - t0))
                ok = True
            except Overrun:
                ok = False
                failures.add("overrun", op, op.count)
            except Exception as exc:  # the run keeps going; the failure is counted
                ok = False
                failures.add("raised", op, op.count, f"{type(exc).__name__}: {exc}")
            wall += time.perf_counter() - t0 - (sampler.total - probed)
            if not ok:
                digests.append(None)
                continue
            digests.append(digest(output))
            if reference is None:
                check_op(op, output, check_deadline, failures)
            elif digests[k] != reference[k]:
                failures.add("mismatch", op, op.count, "differs from the first pass")
            del output  # before the next operation runs
    return wall, sampler.total / sampler.count, digests


def measure(ops, seconds, trace, start, op_timeout=OP_TIMEOUT_S, tracer_factory=None):
    """Timed passes; the first one also checks the outputs.  Returns the
    worker's result object without the per-layer metrics."""
    failures = Failures()
    deadlines = (start + PASS_DEADLINE_S, start + CHECK_DEADLINE_S)
    walls = {False: [], True: []}  # traced -> pass seconds at reference speed
    raw = {False: [], True: []}  # traced -> measured pass seconds
    tracers = []
    reference = None
    attempted = 0
    t_begin = time.perf_counter()
    while True:
        traced = bool(trace) and len(walls[False]) > len(walls[True])
        tracer = tracer_factory() if traced else None
        if tracer is not None:
            tracer.install()
        pass_start = time.perf_counter()
        try:
            wall, probe, digests = run_pass(ops, deadlines, op_timeout, failures, reference, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        raw[traced].append(wall)
        walls[traced].append(wall * REFERENCE_PROBE_S / probe)
        if tracer is not None:
            tracers.append(tracer)
        attempted += sum(op.count for op in ops)
        if reference is None:
            reference = digests
        now = time.perf_counter()
        elapsed = now - pass_start
        if now + elapsed > deadlines[0]:
            break
        if now - t_begin + elapsed > seconds and not (trace and not walls[True]):
            break
    return {
        "untraced_s": walls[False],
        "traced_s": walls[True],
        "untraced_raw_s": raw[False],
        "traced_raw_s": raw[True],
        "attempted": attempted,
        "failed": failures.total,
        "failures": failures.by_cause,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracers": tracers,
    }


def layer_metrics(tracers, untraced_s, traced_s) -> dict:
    """Median over traced passes of each per-layer metric."""
    per_pass = [t.metrics() for t in tracers]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out


def import_repsens():
    """Import repsens from this checkout's src/, never from elsewhere."""
    if not (SRC / "repsens" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repsens sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repsens

    if Path(repsens.__file__).resolve().parent != (SRC / "repsens").resolve():
        raise SystemExit(f"bench: imported repsens from {repsens.__file__}, not {SRC}")


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    import_repsens()
    import workloads

    if args.pin:
        print(json.dumps(workloads.pins(), indent=1, sort_keys=True))
        return 0
    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {sorted(workloads.BUILDERS)}")
    if args.setup_only:
        scratch = ROOT / ".bench_build" / "unused"  # set-up never writes
    else:
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=ROOT / ".bench_build"))
    try:
        ops = workloads.build(args.workload, args.seed, scratch)
        print("ready", flush=True)
        setup_probe = mean_probe()
        if args.setup_only:
            print(json.dumps({"setup_probe_s": setup_probe}), flush=True)
            return 0
        import spans

        result = measure(ops, args.seconds, args.trace, start, tracer_factory=spans.Tracer)
        result["setup_probe_s"] = setup_probe
    finally:
        if not args.setup_only:
            shutil.rmtree(scratch, ignore_errors=True)
    tracers = result.pop("tracers")
    if args.trace:
        result["layers"] = layer_metrics(tracers, result["untraced_s"], result["traced_s"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
