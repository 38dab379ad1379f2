"""Span tracing of triqec's layers, done from outside the package.

A traced function is replaced, for the length of a run, under every
module-global name in the triqec package that is bound to it.  Python looks
such names up in the calling module's namespace at call time, so the wrapper
sees every call between modules (``triqec.protocol.phase_stream``,
``triqec.cli.run_pipeline_mc``, ...) and the calls a module makes to its own
functions.  Spans are kept in memory and summarised when the run ends.

Run as a script, this module executes one traced ``triqec`` command and
writes its spans as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json decay --model ... --out x.csv
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, function) pairs wrapped while tracing; the module is the layer.
TARGETS = (
    ("noise", "validate_covariance"),
    ("noise", "apply_channel_analytic"),
    ("noise", "apply_channel_mc"),
    ("noise", "phase_stream"),
    ("noise", "_propagator_batch"),
    ("protocol", "run_pipeline"),
    ("protocol", "run_pipeline_mc"),
    ("protocol", "mixed_ancilla_survival"),
    ("protocol", "ancilla_mixture_nogo_search"),
    ("analytics", "survival_factor"),
    ("analytics", "_triple_quantum_product"),
    ("analytics", "fit_exponential_rate"),
    ("gates", "encoder"),
    ("gates", "toffoli"),
    ("gates", "global_rotation"),
    ("operators", "partial_trace_ancillae"),
    ("operators", "bloch_of"),
    ("cli", "main"),
    ("cli", "_write_file_atomic"),
)


def _grid_n(step: float) -> int:
    # Same grid size rule as ancilla_mixture_nogo_search.
    return max(1, round(1.0 / step))


#: Counts taken from a call's arguments, keyed by span name.
_EXTRACTORS = {
    "protocol.run_pipeline_mc": lambda a: {"samples": int(a["samples"])},
    "analytics.survival_factor": lambda a: {"points": int(np.size(a["t"]))},
    "protocol.ancilla_mixture_nogo_search": lambda a: {"n": _grid_n(a.get("grid_step", 0.01))},
    "cli._write_file_atomic": lambda a: {
        "bytes": len(a["text"].encode("utf-8")),
        "manifest": str(a["path"]).endswith(".manifest.json"),
    },
}

# Computed, not measured: the per-sample work of run_pipeline_mc's kernel.
# Conjugation U rho U^H as two 8x8 complex matrix products (2 * 8^3 complex
# multiply-adds) plus three observable traces tr(rho_n O) (3 * 64), at 8 real
# flops per complex multiply-add.
MC_FLOPS_PER_SAMPLE = (2 * 8**3 + 3 * 8**2) * 8
# Compulsory traffic per sample: the phase vector read (3 float64), the 8x8
# complex128 propagator and conjugated state each written and read back
# once (4 * 1024 B), and three real observable values written (3 float64).
MC_BYTES_PER_SAMPLE = 3 * 8 + 4 * 8 * 8 * 16 + 3 * 8


def nogo_alloc_bytes(n: int) -> int:
    """Bytes of the int64 index grid the no-go search builds: 3 (n+1)^3 8."""
    return 3 * (n + 1) ** 3 * 8


def nogo_grid_points(n: int) -> int:
    """Mixtures on the simplex grid of step 1/n."""
    return (n + 1) * (n + 2) * (n + 3) // 6


class Tracer:
    """Records spans around the wrapped functions and the benchmark's own steps."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None, extra]
        self._local = threading.local()
        self._root_stack: list = []
        self._installed: list[tuple[object, str, object]] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Let wrapped functions run unrecorded, e.g. while results are checked."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, extra) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread: attribute its spans to the span the installing
            # thread is blocked in (e.g. run_pipeline_mc waiting on its pool).
            root = self._root_stack
            parent = root[-1] if root and stack is not root else None
        record = [name, time.perf_counter(), None, parent, extra]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str, extra=None):
        record = self._open(name, extra)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, name: str, func):
        extract = _EXTRACTORS.get(name)
        signature = inspect.signature(func) if extract else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            extra = None
            if extract is not None:
                try:
                    extra = extract(signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError):
                    # A changed signature loses the count, never the call.
                    extra = None
            record = tracer._open(name, extra)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(record)

        return wrapper

    def install(self) -> None:
        """Wrap every target under each triqec module-global name bound to it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        for module_name, func_name in TARGETS:
            # A target the code no longer has reports zeros.
            original = getattr(importlib.import_module(f"triqec.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "triqec" and not mod_name.startswith("triqec."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every attribute that install() replaced."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def records(self) -> list[tuple]:
        """Finished spans as (name, start, end, parent index or None, extra)."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            (name, start, end, None if parent is None else index.get(id(parent)), extra)
            for name, start, end, parent, extra in self.spans
        ]


def merge(*record_lists: list[tuple]) -> list[tuple]:
    """Concatenate span lists (e.g. from several processes), re-basing parents."""
    out: list[tuple] = []
    for records in record_lists:
        base = len(out)
        out.extend(
            (name, start, end, None if parent is None else parent + base, extra)
            for name, start, end, parent, extra in records
        )
    return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(records: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics from spans, each a total per traced pass."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(records):
        by_name[name].append(i)
        if parent is not None:
            children[parent].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(records[i][2] - records[i][1] for i in by_name[name])

    def self_time(name):
        total = 0.0
        for i in by_name[name]:
            start, end = records[i][1], records[i][2]
            spans = [
                (max(records[c][1], start), min(records[c][2], end)) for c in children[i]
            ]
            total += (end - start) - _covered([s for s in spans if s[1] > s[0]])
        return total

    def extras(name, key):
        return [records[i][4][key] for i in by_name[name] if records[i][4]]

    mc = "protocol.run_pipeline_mc"
    prologue = 0.0
    blocks = 0
    for i in by_name[mc]:
        kids = children[i]
        streams = [records[c][1] for c in kids if records[c][0] == "noise.phase_stream"]
        if streams:
            prologue += min(streams) - records[i][1]
        blocks += sum(1 for c in kids if records[c][0] == "noise._propagator_batch")
    nogo = "protocol.ancilla_mixture_nogo_search"
    grid_ns = extras(nogo, "n")
    writes = [records[i][4] for i in by_name["cli._write_file_atomic"] if records[i][4]]

    totals = {
        "noise.validate_covariance.calls": calls("noise.validate_covariance"),
        "noise.validate_covariance.busy_s": busy("noise.validate_covariance"),
        "noise.apply_channel_analytic.busy_s": busy("noise.apply_channel_analytic"),
        "noise.apply_channel_mc.busy_s": busy("noise.apply_channel_mc"),
        "noise.phase_stream.busy_s": busy("noise.phase_stream"),
        "noise._propagator_batch.busy_s": busy("noise._propagator_batch"),
        "protocol.run_pipeline_mc.busy_s": busy(mc),
        "protocol.run_pipeline_mc.self_s": self_time(mc),
        "protocol.run_pipeline_mc.prologue_s": prologue,
        "protocol.run_pipeline_mc.calls": calls(mc),
        "protocol.run_pipeline_mc.samples": sum(extras(mc, "samples")),
        "protocol.run_pipeline_mc.blocks": blocks,
        "protocol.run_pipeline.busy_s": busy("protocol.run_pipeline"),
        "protocol.mixed_ancilla_survival.busy_s": busy("protocol.mixed_ancilla_survival"),
        f"{nogo}.busy_s": busy(nogo),
        f"{nogo}.grid_points": sum(nogo_grid_points(n) for n in grid_ns),
        "analytics.survival_factor.calls": calls("analytics.survival_factor"),
        "analytics.survival_factor.points": sum(extras("analytics.survival_factor", "points")),
        "analytics.survival_factor.busy_s": busy("analytics.survival_factor"),
        "analytics._triple_quantum_product.busy_s": busy("analytics._triple_quantum_product"),
        "analytics.fit_exponential_rate.busy_s": busy("analytics.fit_exponential_rate"),
    }
    for gate in ("encoder", "toffoli", "global_rotation"):
        totals[f"gates.{gate}.calls"] = calls(f"gates.{gate}")
        totals[f"gates.{gate}.busy_s"] = busy(f"gates.{gate}")
    totals["operators.partial_trace_ancillae.busy_s"] = busy("operators.partial_trace_ancillae")
    totals["operators.bloch_of.busy_s"] = busy("operators.bloch_of")
    totals["cli.main.self_s"] = self_time("cli.main")
    totals["cli.csv_bytes"] = sum(w["bytes"] for w in writes if not w["manifest"])
    totals["cli.manifest_bytes"] = sum(w["bytes"] for w in writes if w["manifest"])

    out = {name: value / passes for name, value in totals.items()}
    # Computed counts: constants of the code path, reported where it ran.
    ran_mc = calls(mc) > 0
    out[f"{mc}.flops_per_sample_computed"] = MC_FLOPS_PER_SAMPLE if ran_mc else 0
    out[f"{mc}.bytes_per_sample_computed"] = MC_BYTES_PER_SAMPLE if ran_mc else 0
    out[f"{nogo}.alloc_bytes_computed"] = max((nogo_alloc_bytes(n) for n in grid_ns), default=0)
    return out


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    import triqec.cli

    tracer = Tracer()
    tracer.install()
    try:
        return triqec.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.records(), handle)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
