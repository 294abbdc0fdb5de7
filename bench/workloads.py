"""The benchmark workloads: seeded inputs, the timed operations, and the
checks each output must pass.

Every operation looks its repsens functions up through the package when it
runs, so the span wrappers of a traced run see each call.  Checks run outside
the timed region and return how many of an operation's results failed.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import repsens as R
import repsens.cli  # noqa: F401  (sweep-witness drives repsens.cli.main)

EXPECTED_FILE = Path(__file__).with_name("expected.json")

FACTORIZERS = (
    ("lzss_overlapping", "lzss_overlap"),
    ("lzss_nonoverlapping", "lzss_nonoverlap"),
    ("lz77_overlapping", "lz77_overlap"),
    ("lz77_nonoverlapping", "lz77_nonoverlap"),
    ("lz_end_greedy", "lzend"),
    ("lz78", "lz78"),
)

# parse-long sizes: each family takes more than a third of the pass.
RANDOM_N = 6144
RANDOM_SIGMAS = (2, 4)
REPETITIVE_N = 32768
LZ_WITNESS_PARSE_P = 20

# sweep-witness: the README lz78 sweep, shortened, and lzss rows on the lz family.
CLI_P = (4, 14)
LZSS_P = (2, 3, 4)

# sweep-exhaustive: (measure, n, edit kind), all over sigma = 2.
EXHAUSTIVE = (
    ("delta", 10, "sub"),
    ("delta", 10, "ins"),
    ("delta", 10, "del"),
    ("lz78", 11, "sub"),
    ("lzend", 10, "sub"),
    ("gamma", 9, "sub"),
    ("bms", 8, "sub"),
    ("lzend_opt", 10, "sub"),
)

# certify-repair sizes.
ALL_STRINGS_MAX_N = 8
ATTRACTOR_NS = (200, 300, 400)
ATTRACTOR_EDITS = 2
REPAIR_TEXTS = 500
REPAIR_N = 200
REPAIR_SIGMAS = (2, 3, 4)


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``count`` is how many operations it stands for
    in ``attempted``/``failed``; ``check`` returns how many of them failed."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], int]
    count: int = 1
    family: str | None = None


def call(name: str, *args):
    """``repsens.<name>(*args)``, resolved when called."""
    return getattr(R, name)(*args)


@functools.cache
def expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


# -- texts -------------------------------------------------------------


def fibonacci(n: int) -> R.SymbolString:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return R.SymbolString(b[:n])


def thue_morse(n: int) -> R.SymbolString:
    return R.SymbolString(bin(i).count("1") & 1 for i in range(n))


def random_text(rng: random.Random, n: int, sigma: int) -> R.SymbolString:
    return R.SymbolString(rng.randrange(sigma) for _ in range(n))


def random_edit(rng: random.Random, T: R.SymbolString, sigma: int) -> R.Edit:
    """A uniformly drawn edit kind and position; symbols come from 0..sigma,
    so sigma itself is fresh."""
    n = len(T)
    kind = rng.choice(("sub", "ins", "del"))
    if kind == "del":
        return R.Edit("del", rng.randint(1, n))
    if kind == "ins":
        return R.Edit("ins", rng.randint(0, n), rng.randrange(sigma + 1))
    pos = rng.randint(1, n)
    return R.Edit("sub", pos, rng.choice([c for c in range(sigma + 1) if c != T.at(pos)]))


def repetitive_texts() -> dict:
    return {
        "fibonacci": fibonacci(REPETITIVE_N),
        "thue-morse": thue_morse(REPETITIVE_N),
        f"lz-witness-{LZ_WITNESS_PARSE_P}": R.lz_witness(LZ_WITNESS_PARSE_P).base,
    }


# -- checks ------------------------------------------------------------


def check_parse(T, flavor: str, size: int | None = None):
    def check(F) -> int:
        ok = (
            isinstance(F, R.Factorization)
            and F.flavor == flavor
            and (size is None or F.size == size)
            and R.verify_factorization(T, F)
        )
        return 0 if ok else 1

    return check


def check_delta(T, pinned: str | None = None):
    """Pinned texts must give their recorded value.  Others must reach the
    complexity of their short substrings, counted here without repsens."""
    syms = T.symbols

    def check(value) -> int:
        if not isinstance(value, Fraction):
            return 1
        if pinned is not None:
            return int(value != Fraction(pinned))
        lower = max(
            Fraction(len({syms[i : i + k] for i in range(len(syms) - k + 1)}), k)
            for k in range(1, min(8, len(syms)) + 1)
        )
        return int(value < lower)

    return check


def check_lz78_csv(result) -> int:
    """The CLI sweep: one row per p with c_T = 4p and AS >= p + 1, then the
    --fit line."""
    code, text = result
    lines = text.splitlines()
    ps = range(CLI_P[0], CLI_P[1] + 1)
    if code != 0 or not lines or lines[0] != R.sensitivity.CSV_HEADER:
        return 1
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
    fits = [ln for ln in lines[1:] if ln.startswith("# slope=")]
    if len(rows) != len(ps) or len(fits) != 1:
        return 1
    try:
        for p, row in zip(ps, rows):
            measure, kind, n, c_t, _, gain = row[:6]
            if (measure, kind, int(n), int(c_t)) != ("lz78", "sub", 7 * p, 4 * p):
                return 1
            if int(gain) < p + 1:
                return 1
    except ValueError:
        return 1
    return 0


def check_lzss_witness(p: int):
    def check(rec) -> int:
        ok = rec.c_T == 2 * p * p + 2 * p + 1 and rec.AS is not None and rec.AS >= p * p + 1
        return 0 if ok else 1

    return check


def exhaustive_key(measure: str, n: int, kind: str) -> str:
    return f"{measure}/{n}/{kind}"


def record_of(rec) -> dict:
    return {"row": rec.csv_row(), "argmax": R.format_symbolic(rec.argmax_T)}


def check_exhaustive(measure: str, n: int, kind: str):
    def check(rec) -> int:
        if measure == "delta" and not rec.AS <= 1:
            return 1
        return int(record_of(rec) != expected()["sweep-exhaustive"][exhaustive_key(measure, n, kind)])

    return check


def repaired_attractor_ok(T, e, out, report) -> bool:
    return len(out) == report.output_size <= report.bound and R.is_attractor(R.apply_edit(T, e), out)


def check_attractor_repairs(T, edits):
    """(gamma, [(out, report), ...]) for one text: gamma is an attractor and
    every repaired set is an attractor of its edited text within its bound."""

    def check(result) -> int:
        gamma, repairs = result
        failed = 0 if R.is_attractor(T, gamma) else 1
        failed += sum(not repaired_attractor_ok(T, e, *r) for e, r in zip(edits, repairs))
        return failed + len(edits) - len(repairs)

    return check


def check_attractor_repair(T, e):
    return lambda result: 0 if repaired_attractor_ok(T, e, *result) else 1


def check_bms_repair(T, e):
    def check(result) -> int:
        scheme, report = result
        ok = scheme.size == report.output_size <= report.bound and R.bms_is_valid(
            R.apply_edit(T, e), scheme
        )
        return 0 if ok else 1

    return check


def check_lzend_repair(T, e):
    def check(result) -> int:
        F, report = result
        ok = (
            F.flavor == "lzend"
            and F.size == report.output_size <= report.bound
            and R.verify_factorization(R.apply_edit(T, e), F)
        )
        return 0 if ok else 1

    return check


# -- operations ----------------------------------------------------------


def attractor_batch(T, edits):
    gamma = R.smallest_attractor(T)
    return gamma, [R.attractor_repair(T, gamma, e) for e in edits]


def bms_op(T, e):
    return R.bms_repair(T, R.as_bms(R.lzss_nonoverlapping(T)), e)


def lzend_op(T, e):
    return R.lzend_repair(T, R.lz_end_greedy(T), e)


def cli_sweep(path: Path):
    argv = [
        "sensitivity", "--measure", "lz78", "--witness", "lz78",
        "--p-min", str(CLI_P[0]), "--p-max", str(CLI_P[1]), "--fit",
        "--output", str(path),
    ]
    code = R.cli.main(argv)
    return code, path.read_text(encoding="utf-8")


def parse_ops(T, label: str, family: str, pins: dict | None) -> list:
    ops = []
    for fn, flavor in FACTORIZERS:
        size = None if pins is None else pins[fn]
        ops.append(Op(f"{label}:{fn}", functools.partial(call, fn, T), check_parse(T, flavor, size), family=family))
    pinned = None if pins is None else pins["delta"]
    ops.append(Op(f"{label}:delta", functools.partial(call, "delta", T), check_delta(T, pinned), family=family))
    return ops


def parse_long(rng: random.Random, scratch: Path) -> list:
    ops = []
    for sigma in RANDOM_SIGMAS:
        T = random_text(rng, RANDOM_N, sigma)
        ops += parse_ops(T, f"random-s{sigma}", "random", None)
    pins = expected()["parse-long"]
    for label, T in repetitive_texts().items():
        ops += parse_ops(T, label, "repetitive", pins[label])
    return ops


def sweep_witness(rng: random.Random, scratch: Path) -> list:
    ops = [Op("cli-lz78-sweep", functools.partial(cli_sweep, scratch / "lz78-sweep.csv"), check_lz78_csv)]
    for p in LZSS_P:
        base = R.lz_witness(p).base
        run = functools.partial(call, "sensitivity_of_string", "lzss_overlap", base, "sub", base.alphabet())
        ops.append(Op(f"lzss-witness-p{p}", run, check_lzss_witness(p)))
    return ops


def sweep_exhaustive(rng: random.Random, scratch: Path) -> list:
    return [
        Op(
            exhaustive_key(measure, n, kind),
            functools.partial(call, "exhaustive_sensitivity", measure, n, 2, kind),
            check_exhaustive(measure, n, kind),
        )
        for measure, n, kind in EXHAUSTIVE
    ]


def certify_repair(rng: random.Random, scratch: Path) -> list:
    ops = []
    for n in range(1, ALL_STRINGS_MAX_N + 1):
        for bits in itertools.product((0, 1), repeat=n):
            T = R.SymbolString(bits)
            edits = list(R.enumerate_edits(T, (0, 1, 2)))
            ops.append(
                Op(
                    f"attractor-all:{''.join(map(str, bits))}",
                    functools.partial(attractor_batch, T, edits),
                    check_attractor_repairs(T, edits),
                    count=1 + len(edits),
                )
            )
    for n in ATTRACTOR_NS:
        for label, T in (("random", random_text(rng, n, 2)), ("fibonacci", fibonacci(n))):
            gamma = frozenset(ph.end for ph in R.lzss_overlapping(T).phrases)
            for k in range(ATTRACTOR_EDITS):
                e = random_edit(rng, T, 2)
                ops.append(
                    Op(
                        f"attractor-{label}-n{n}-{k}",
                        functools.partial(call, "attractor_repair", T, gamma, e),
                        check_attractor_repair(T, e),
                    )
                )
    for k in range(REPAIR_TEXTS):
        sigma = rng.choice(REPAIR_SIGMAS)
        T = random_text(rng, REPAIR_N, sigma)
        e = random_edit(rng, T, sigma)
        ops.append(Op(f"bms-{k}", functools.partial(bms_op, T, e), check_bms_repair(T, e)))
        ops.append(Op(f"lzend-{k}", functools.partial(lzend_op, T, e), check_lzend_repair(T, e)))
    return ops


BUILDERS = {
    "parse-long": parse_long,
    "sweep-witness": sweep_witness,
    "sweep-exhaustive": sweep_exhaustive,
    "certify-repair": certify_repair,
}


def build(workload: str, seed: int, scratch: Path) -> list:
    """The workload's operations, in an order drawn from ``seed`` after the
    inputs are drawn from it."""
    rng = random.Random(seed)
    ops = BUILDERS[workload](rng, scratch)
    rng.shuffle(ops)
    return ops


def pins() -> dict:
    """The seed-independent outputs recorded in expected.json."""
    parse = {}
    for label, T in repetitive_texts().items():
        row = {fn: call(fn, T).size for fn, _ in FACTORIZERS}
        row["delta"] = str(R.delta(T))
        parse[label] = row
    exhaustive = {
        exhaustive_key(m, n, k): record_of(R.exhaustive_sensitivity(m, n, 2, k)) for m, n, k in EXHAUSTIVE
    }
    return {"parse-long": parse, "sweep-exhaustive": exhaustive}
