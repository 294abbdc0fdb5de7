"""In-memory span tracing around the public functions of repsens.

``Tracer.install`` replaces every wrapped function at each module attribute
and registry entry that callers resolve (``repsens.lz78``,
``repsens.sensitivity.lz78``, ``repsens.sensitivity.MEASURES["delta"]``,
``repsens.repair.is_attractor``, ``repsens.cli.FLAVOR_FLAGS[...]`` ...) and
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans are folded on exit into per-(parent, name) aggregates, so memory stays
bounded however long the run.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import repsens
import repsens.cli  # noqa: F401  (cli.main is wrapped; import registers the module)

MODULES = ("core", "factorizers", "measures", "repair", "witness", "sensitivity", "cli")

# Every (module, function) the traced run wraps with a span.  enumerate_edits
# is a generator: it gets one span per next() and counts one call per use.
WRAPPED = (
    ("core", "apply_edit"),
    ("core", "enumerate_edits"),
    ("factorizers", "lzss_overlapping"),
    ("factorizers", "lzss_nonoverlapping"),
    ("factorizers", "lz77_overlapping"),
    ("factorizers", "lz77_nonoverlapping"),
    ("factorizers", "lz_end_greedy"),
    ("factorizers", "lz_end_optimal"),
    ("factorizers", "lz78"),
    ("factorizers", "check_factorization"),
    ("measures", "delta"),
    ("measures", "is_attractor"),
    ("measures", "smallest_attractor"),
    ("measures", "smallest_bms"),
    ("measures", "bms_check"),
    ("measures", "as_bms"),
    ("repair", "attractor_repair"),
    ("repair", "bms_repair"),
    ("repair", "lzend_repair"),
    ("witness", "lz_witness"),
    ("witness", "lz78_witness"),
    ("sensitivity", "sensitivity_of_string"),
    ("sensitivity", "exhaustive_sensitivity"),
    ("sensitivity", "growth_fit"),
    ("cli", "main"),
)

# Text families whose factorizer self time is reported separately.
FAMILIES = ("random", "repetitive")


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, fn in WRAPPED:
        units[f"{module}.{fn}.calls"] = "count"
        units[f"{module}.{fn}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    for family in FAMILIES:
        units[f"factorizers.{family}.self_s"] = "s"
    units["sensitivity.distinct_eval_ratio"] = "ratio"
    units["sensitivity.kind_filter_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def canonical(symbols) -> tuple:
    """Representative of the symbol-renaming class: each first occurrence
    takes the next unused symbol, so renamed strings map to one tuple."""
    names: dict = {}
    return tuple(names.setdefault(s, len(names)) for s in symbols)


class Tracer:
    """Span aggregates for one traced pass.  The stack holds one
    ``[name, child_seconds]`` frame per open span; the root frame is ``""``."""

    def __init__(self):
        self.stack = [["", 0.0]]
        self.agg: dict = {}  # (parent, name) -> [calls, self_s]
        self.family: str | None = None  # text family of the running operation
        self.family_self: dict = {}  # family -> factorizer self seconds
        self.evaluations: list = []  # (measure, symbols) per sweep evaluation
        self.yielded = 0  # edits yielded by enumerate_edits
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _slot(self, name: str) -> list:
        key = (self.stack[-1][0], name)
        slot = self.agg.get(key)
        if slot is None:
            slot = self.agg[key] = [0, 0.0]
        return slot

    def _close(self, name: str, dur: float, child: float, calls: int) -> None:
        self.stack[-1][1] += dur
        slot = self._slot(name)
        slot[0] += calls
        slot[1] += dur - child
        if self.family is not None and name.startswith("factorizers."):
            self.family_self[self.family] = self.family_self.get(self.family, 0.0) + dur - child

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent outside the program (a speed probe run by
        a signal handler) out of the self time of the innermost open span."""
        self.stack[-1][1] += seconds

    def _span(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self._close(name, dur, frame[1], 1)

        return wrapper

    def _generator_span(self, name: str, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._slot(name)[0] += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    self._close(name, dur, frame[1], 0)
                self.yielded += 1
                yield item

        return wrapper

    def _recorder(self, measure: str, fn):
        evaluations = self.evaluations

        def wrapper(T):
            evaluations.append((measure, T.symbols))
            return fn(T)

        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for module, fn_name in WRAPPED:
            fn = getattr(sys.modules[f"repsens.{module}"], fn_name)
            name = f"{module}.{fn_name}"
            make = self._generator_span if fn_name == "enumerate_edits" else self._span
            wrappers[id(fn)] = (fn, make(name, fn))

        def swap(container, items):
            for key, value in list(items):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(container, key, hit[1])

        namespaces = [repsens] + [sys.modules[f"repsens.{m}"] for m in MODULES]
        for module in namespaces:
            swap(module, vars(module).items())
        measures = repsens.sensitivity.MEASURES
        swap(repsens.cli.FLAVOR_FLAGS, repsens.cli.FLAVOR_FLAGS.items())
        swap(measures, measures.items())
        for key, fn in list(measures.items()):
            self._set(measures, key, self._recorder(key, fn))

    def uninstall(self) -> None:
        while self._patches:
            container, key, value = self._patches.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, except ``trace.overhead_frac``."""
        out = {}
        for module, fn in WRAPPED:
            out[f"{module}.{fn}.calls"] = 0
            out[f"{module}.{fn}.self_s"] = 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for (_, name), (calls, self_s) in self.agg.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
        for family in FAMILIES:
            out[f"factorizers.{family}.self_s"] = self.family_self.get(family, 0.0)
        n_eval = len(self.evaluations)
        distinct = len({(m, canonical(s)) for m, s in self.evaluations})
        out["sensitivity.distinct_eval_ratio"] = distinct / n_eval if n_eval else 0.0
        evaluated = self.agg.get(("sensitivity.sensitivity_of_string", "core.apply_edit"), [0])[0]
        out["sensitivity.kind_filter_ratio"] = evaluated / self.yielded if self.yielded else 0.0
        return out
