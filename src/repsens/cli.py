"""Command-line front end.

Subcommands: factorize, measure, repair, witness, sensitivity.  Texts come
from --text (bytes of the literal argument), or from --input with --format
bytes (raw file) or symbolic (whitespace-separated decimal symbols, one text
per line, first line used).  Identical flags and seed give byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys

from .core import (
    EDIT_KINDS,
    CapabilityError,
    Edit,
    InputError,
    SymbolString,
    format_symbolic,
    parse_symbolic,
)
from . import factorizers as fz
from . import measures as ms
from . import repair as rp
from . import sensitivity as sv
from . import witness as wt

FLAVOR_FLAGS = {name.replace("_", "-"): fn for name, (fn, _) in fz.FACTORIZERS.items()}


def _add_input_args(sub):
    sub.add_argument("--text", help="inline text; each byte is one symbol")
    sub.add_argument("--input", help="path to an input file")
    sub.add_argument(
        "--format",
        choices=("bytes", "symbolic"),
        help="file format for --input (default: bytes)",
    )


def _load_text(args) -> SymbolString:
    if args.text is not None:
        if args.input is not None:
            raise InputError("--text and --input are different inputs; give one")
        if args.format is not None:
            raise InputError("--format applies only to --input, not to --text")
        try:  # the argument's own bytes, also when they are not UTF-8
            return SymbolString.from_bytes(os.fsencode(args.text))
        except UnicodeEncodeError as exc:
            raise InputError(f"--text cannot be read as bytes: {exc}") from None
    if args.input is None:
        raise InputError("provide --text or --input")
    if args.format != "symbolic":
        with open(args.input, "rb") as fh:
            return SymbolString.from_bytes(fh.read())
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return parse_symbolic(line)
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.input} is not UTF-8 symbolic text: {exc}") from None
    raise InputError(f"no text found in {args.input}")


@contextlib.contextmanager
def _output(args):
    """A buffer for the command's output, written to the --output file or to
    stdout only once the command succeeds, so a failure leaves the file as
    it was."""
    buf = io.StringIO()
    yield buf
    if not args.output:
        sys.stdout.write(buf.getvalue())
        return
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def cmd_factorize(args) -> int:
    T = _load_text(args)
    factorize = FLAVOR_FLAGS[args.flavor]
    F = factorize(T)
    with _output(args) as out:
        out.write(fz.format_factorization(F, len(T)))
        out.write(f"{F.size} phrases\n")
    return 0


def cmd_measure(args) -> int:
    if args.positions is not None and args.what != "attractor-check":
        raise InputError("--positions applies only to --what attractor-check")
    T = _load_text(args)
    if not len(T):
        raise InputError("cannot measure the empty text")
    with _output(args) as out:
        if args.what == "delta":
            out.write(f"{ms.delta(T)}\n")
        elif args.what == "attractor-min":
            got = ms.smallest_attractor(T)
            out.write(f"{len(got)}\n")
            out.write(ms.format_attractor(got) + "\n")
        elif args.what == "attractor-check":
            if args.positions is None:
                raise InputError("attractor-check needs --positions")
            ok = ms.is_attractor(T, ms.parse_attractor(args.positions))
            out.write(("true" if ok else "false") + "\n")
        else:  # bms-min
            scheme = ms.smallest_bms(T)
            out.write(f"{scheme.size}\n")
            out.write(fz.format_factorization(scheme, len(T)))
    return 0


def cmd_repair(args) -> int:
    if args.edit == "del" and args.symbol is not None:
        raise InputError("--symbol applies only to sub and ins edits")
    if args.edit != "del" and args.symbol is None:
        raise InputError(f"--symbol is required for {args.edit}")
    if args.attractor is not None and args.proc != "attractor":
        raise InputError("--attractor applies only to --proc attractor")
    T = _load_text(args)
    edit = Edit(args.edit, args.pos, args.symbol)
    if args.proc == "attractor":
        gamma = (
            ms.parse_attractor(args.attractor)
            if args.attractor is not None
            else ms.smallest_attractor(T)
        )
        got, report = rp.attractor_repair(T, gamma, edit)
        payload = ms.format_attractor(got)
    elif args.proc == "bms":
        scheme = ms.as_bms(fz.lzss_nonoverlapping(T))
        got, report = rp.bms_repair(T, scheme, edit)
        payload = fz.format_factorization(got, report.n_out)
    else:
        F = fz.lz_end_greedy(T)
        got, report = rp.lzend_repair(T, F, edit)
        payload = fz.format_factorization(got, report.n_out)
    with _output(args) as out:
        out.write(rp.RepairReport.CSV_HEADER + "\n")
        out.write(report.csv_row() + "\n")
        if args.trace:
            for idx, label, count in report.ledger:
                out.write(f"# phrase {idx} {label} -> {count}\n")
            out.write(payload if payload.endswith("\n") else payload + "\n")
    return 0


def cmd_witness(args) -> int:
    bundle = wt.FAMILIES[args.family](args.p)
    sep = (",", ":")
    expected = {"record": "expected", "family": bundle.family, "p": bundle.p,
                "n": len(bundle.base)}
    expected.update(bundle.expected)
    expected.update({k + "_min": v for k, v in bundle.expected_min.items()})
    sidecar_lines = [
        json.dumps(expected, separators=sep),
        json.dumps(
            {
                "record": "symbols",
                "table": {str(k): v for k, v in sorted(bundle.symbol_names.items())},
            },
            separators=sep,
        ),
        json.dumps(
            {
                "record": "edits",
                "edits": {
                    kind: {"pos": ed.position, "symbol": ed.symbol}
                    for kind, ed in sorted(bundle.edits.items())
                },
            },
            separators=sep,
        ),
    ]
    text_lines = [format_symbolic(bundle.base)] + [
        format_symbolic(bundle.edited[kind]) for kind in EDIT_KINDS
    ]
    if args.output:
        texts = {args.output: text_lines, args.output + ".jsonl": sidecar_lines}
        new = [path for path in texts if not os.path.lexists(path)]
        with contextlib.ExitStack() as stack:
            try:  # open both, truncating neither, before writing either
                files = [stack.enter_context(open(path, "a", encoding="utf-8", newline="\n"))
                         for path in texts]
            except OSError:
                for path in new:  # created by an open before the one that failed
                    with contextlib.suppress(OSError):
                        os.remove(path)
                raise
            for fh, lines in zip(files, texts.values()):
                fh.truncate(0)
                fh.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines + sidecar_lines) + "\n")
    return 0


def _sweep_texts(args):
    """``(text, alphabet, source)`` per text of a witness, random or
    single-text sweep; the sweep's flags are checked before the first."""
    if args.witness:
        lo = 2 if args.p_min is None else args.p_min
        hi = lo if args.p_max is None else args.p_max
        if hi < lo:
            raise InputError(f"--p-max {hi} is below --p-min {lo}")
        if args.fit and hi - lo < 3:
            raise InputError(f"--fit needs at least 4 p values, got --p-min {lo} --p-max {hi}")
        for p in range(lo, hi + 1):
            base = wt.FAMILIES[args.witness](p).base
            yield base, base.alphabet(), "witness"
    elif args.random_count is not None:
        if min(args.random_count, args.n, args.sigma) < 1:
            raise InputError("--random, --n and --sigma must be at least 1")
        rng = random.Random(args.seed or 0)
        for _ in range(args.random_count):
            T = SymbolString(rng.randrange(args.sigma) for _ in range(args.n))
            yield T, range(args.sigma), "random"
    else:
        T = _load_text(args)
        yield T, T.alphabet(), "witness"


def cmd_sensitivity(args) -> int:
    kinds = EDIT_KINDS if args.edit == "all" else (args.edit,)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs != 1 and not args.exhaustive:
        raise InputError("--jobs applies only to --exhaustive sweeps")
    if not args.witness and (args.p_min is not None or args.p_max is not None):
        raise InputError("--p-min and --p-max apply only to --witness sweeps")
    if args.seed is not None and args.random_count is None:
        raise InputError("--seed applies only to --random sweeps")
    given = {
        "--exhaustive": args.exhaustive,
        "--witness": args.witness,
        "--random": args.random_count is not None,
    }
    sweeps = [flag for flag, on in given.items() if on]
    if len(sweeps) > 1:
        raise InputError(f"{' and '.join(sweeps)} are different sweeps; give one")
    for flag, value in (("--text", args.text), ("--input", args.input), ("--format", args.format)):
        if value is not None and sweeps:
            raise InputError(f"{flag} applies only to a single-text sweep, not to {sweeps[0]}")
    for flag, value in (("--n", args.n), ("--sigma", args.sigma)):
        if value is not None and not (args.exhaustive or args.random_count is not None):
            raise InputError(f"{flag} applies only to --exhaustive and --random sweeps")
    if args.fit and not args.witness:
        # every row of the other sweeps has the same n, and a fit needs four
        raise InputError("--fit applies only to --witness sweeps over at least 4 p values")
    if sweeps in (["--exhaustive"], ["--random"]) and None in (args.n, args.sigma):
        raise InputError(f"{sweeps[0]} needs --n and --sigma")
    if args.exhaustive:
        records = [
            sv.exhaustive_sensitivity(args.measure, args.n, args.sigma, kind, jobs=args.jobs)
            for kind in kinds
        ]
    else:
        records = [
            sv.sensitivity_of_string(args.measure, T, kind, alphabet, source=source)
            for T, alphabet, source in _sweep_texts(args)
            for kind in kinds
        ]
    with _output(args) as out:
        sv.write_csv(records, out)
        if args.fit:
            fit = sv.growth_fit(records)
            out.write(
                f"# slope={fit.slope:.6f} intercept={fit.intercept:.6f} rms={fit.residual:.6f}\n"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsens",
        description="Repetitiveness measures, LZ factorizers, edit repairs, and sensitivity sweeps",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fact = subs.add_parser("factorize", help="parse a text with one of the factorizers")
    p_fact.add_argument("--flavor", choices=sorted(FLAVOR_FLAGS), required=True)
    _add_input_args(p_fact)
    p_fact.add_argument("--output")
    p_fact.set_defaults(func=cmd_factorize)

    p_meas = subs.add_parser("measure", help="compute a repetitiveness measure")
    p_meas.add_argument(
        "--what",
        choices=("delta", "attractor-min", "attractor-check", "bms-min"),
        required=True,
    )
    p_meas.add_argument("--positions", help="positions for attractor-check")
    _add_input_args(p_meas)
    p_meas.add_argument("--output")
    p_meas.set_defaults(func=cmd_measure)

    p_rep = subs.add_parser("repair", help="repair a certificate across one edit")
    p_rep.add_argument("--proc", choices=("attractor", "bms", "lzend"), required=True)
    p_rep.add_argument("--edit", choices=EDIT_KINDS, required=True)
    p_rep.add_argument("--pos", type=int, required=True)
    p_rep.add_argument("--symbol", type=int)
    p_rep.add_argument("--attractor", help="explicit attractor positions (default: exact search)")
    p_rep.add_argument("--trace", action="store_true", help="dump the per-phrase ledger")
    _add_input_args(p_rep)
    p_rep.add_argument("--output")
    p_rep.set_defaults(func=cmd_repair)

    p_wit = subs.add_parser("witness", help="emit a lower-bound witness family member")
    p_wit.add_argument("--family", choices=wt.FAMILIES, required=True)
    p_wit.add_argument("--p", type=int, required=True)
    p_wit.add_argument("--output")
    p_wit.set_defaults(func=cmd_witness)

    p_sens = subs.add_parser("sensitivity", help="worst-case sensitivity records as CSV")
    p_sens.add_argument("--measure", choices=sorted(sv.MEASURES), required=True)
    p_sens.add_argument("--edit", choices=EDIT_KINDS + ("all",), default="sub")
    p_sens.add_argument("--exhaustive", action="store_true")
    p_sens.add_argument("--witness", choices=wt.FAMILIES)
    p_sens.add_argument("--p-min", type=int)
    p_sens.add_argument("--p-max", type=int)
    p_sens.add_argument("--random", dest="random_count", type=int,
                        help="number of random texts")
    p_sens.add_argument("--n", type=int)
    p_sens.add_argument("--sigma", type=int)
    p_sens.add_argument("--seed", type=int)
    p_sens.add_argument("--jobs", type=int, default=1)
    p_sens.add_argument("--fit", action="store_true", help="append a log-log growth fit line")
    _add_input_args(p_sens)
    p_sens.add_argument("--output")
    p_sens.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
