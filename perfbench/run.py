"""triqec benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload mc_curve --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src and
the CLI runs as ``python -m triqec.cli`` with PYTHONPATH=src.  Workloads are
described in workloads.py and BENCHMARK.json.

A run repeats passes of the workload's operations (one closed-loop client)
until --seconds have gone by, checks every result outside the timed region,
prints a report and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  wall_s is the mean time of
one pass (the sum of its operations' latencies); setup_s the median of
fresh-interpreter probes that import triqec and make the workload's first
call, taken before and after the passes.

--trace 0  end-to-end metrics, tracing off.
--trace 1  per-layer metrics.  Passes alternate untraced and traced, so the
           tracing overhead is the difference of their median pass times.
           Per-layer values are totals per traced pass.

Exit status is 2, with no result, when the checkout has no sources or the
set-up probe fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from source import MissingSource, use_source

#: Set-up probes before and again after the timed passes, so that one
#: burst of load on the machine does not set the whole median.
SETUP_REPEATS = 4
IMPORT_REPEATS = 3
PROBE_TIMEOUT_S = 60
TMP_DIR = ".perfbench_tmp"

#: The gated metrics.  Op latencies on this kind of shared host are bimodal
#: (the host's speed switches between two levels for tens of seconds), so
#: their median flips between modes from run to run; means over the run are
#: steadier and carry the gate, while the percentiles are reported beside.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed in the report only: the latency percentiles (see above), the MC
#: metrics, which two workloads have, and failed_fraction, 0 on correct code.
REPORT_ONLY = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "mc_samples_per_s": "1/s",
    "mc_time_to_se1e-3_s": "s",
    "failed_fraction": "1",
}
SE_TARGET = 1e-3


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.startswith("import."):
        return "s"
    if name.startswith("trace."):
        return "1" if name.endswith("share") else "s"
    if name.endswith("flops_per_sample_computed"):
        return "flop/sample"
    if name.endswith("bytes_per_sample_computed"):
        return "B/sample"
    if name.endswith("alloc_bytes_computed"):
        return "B"
    if name.endswith("_bytes"):
        return "B/pass"
    if name.endswith("_s"):
        return "s/pass"
    return "count/pass"


class Stats:
    """Latencies and outcomes of the operations of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.mc_samples = 0
        self.mc_seconds = 0.0
        self.step_walls: dict[str, list[float]] = {}
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_op(op, tracer, stats: Stats, timed: bool = True) -> float:
    """Run, time and check one operation; returns its latency."""
    stats.attempted += 1
    start = time.perf_counter()
    try:
        with tracer.span(f"op.{op.name}") if tracer else nullcontext():
            result = op.run()
    except Exception:
        # The run keeps going: a raising operation counts as failed.
        stats.failed += 1
        print(f"FAILED {op.name}:\n{traceback.format_exc()}", file=sys.stderr)
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    with tracer.paused() if tracer else nullcontext():
        try:
            errors = op.check(result)
        except Exception:
            errors = [f"{op.name}: check raised\n{traceback.format_exc()}"]
    if errors:
        stats.failed += 1
        for error in errors:
            print(f"MISMATCH {error}", file=sys.stderr)
    if timed:
        stats.latencies.append(elapsed)
        if not tracer:
            stats.step_walls.setdefault(op.name, []).append(elapsed)
            if op.samples:
                stats.mc_samples += op.samples
                stats.mc_seconds += elapsed
    return elapsed


def run_passes(workload, seconds: float, trace: bool):
    """Passes until the time is up; with trace, odd passes run traced."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    stats = Stats()
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        ops = workload.make_pass(index, traced)
        if traced:
            tracer.install()
        try:
            wall = 0.0
            for op in ops:
                wall += run_op(op, tracer if traced else None, stats)
        finally:
            if traced:
                tracer.uninstall()
        (stats.traced_walls if traced else stats.untraced_walls).append(wall)
        index += 1
        elapsed = time.perf_counter() - start
        # Stop before a pass that would mostly run past the deadline.
        if (not trace or index >= 2) and elapsed + wall / 2 >= seconds:
            break
    for op in workload.verification_ops():
        run_op(op, None, stats, timed=False)
    return stats, tracer


def run_probe(argv: list[str], workload) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        argv, cwd=workload.tmp_root, env=workload.env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} failed ({proc.returncode}): {proc.stderr[-500:]}")
    return proc


def measure_setup(workload) -> list[float]:
    """Wall times of fresh interpreters importing triqec and making the first call."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_probe(workload.setup_argv, workload)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(top-level triqec import, scipy.linalg import) cumulative seconds."""
    triqec_us = 0
    scipy_us = None
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2][1:]  # one space separates the column from the name
        if name.startswith("triqec"):
            triqec_us += cumulative
        elif name.strip() == "scipy.linalg" and scipy_us is None:
            scipy_us = cumulative
    return triqec_us / 1e6, (scipy_us or 0) / 1e6


def import_breakdown(workload) -> dict[str, float]:
    argv = [sys.executable, "-X", "importtime", "-c", "import triqec.cli"]
    samples = [parse_importtime(run_probe(argv, workload).stderr) for _ in range(IMPORT_REPEATS)]
    return {
        "import.triqec_s": statistics.median(s[0] for s in samples),
        "import.scipy_linalg_s": statistics.median(s[1] for s in samples),
    }


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least 10 samples beyond it (at least p50).

    Returns (percentile, value, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank, pct = n - 10, 100.0 * (n - 10) / n
    if rank < math.ceil(n / 2):
        rank, pct = math.ceil(n / 2), 50.0
    return pct, ordered[rank - 1], n - rank


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, stats: Stats, setup_s: float) -> tuple[dict, dict, str]:
    lat = stats.latencies
    pct, tail, beyond = tail_percentile(lat)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(stats.untraced_walls),
        "throughput_ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "failed_fraction": stats.failed / stats.attempted,
    }
    if stats.mc_samples:
        rate = stats.mc_samples / stats.mc_seconds
        extra["mc_samples_per_s"] = rate
        if hasattr(workload, "reference_variance"):
            extra["mc_time_to_se1e-3_s"] = workload.reference_variance() / SE_TARGET**2 / rate
    note = f"op_tail_ms is p{pct:.2f} of {len(lat)} operations, {beyond} beyond it"
    return metrics, extra, note


def per_layer(workload, stats: Stats, tracer) -> dict:
    from tracing import merge, summarize
    from workloads import CliSession

    records = merge(tracer.records(), *getattr(workload, "child_records", []))
    metrics = summarize(records, len(stats.traced_walls))
    # Command wall times as a user sees them: from the untraced passes.
    for step in CliSession.STEPS:
        walls = stats.step_walls.get(step)
        metrics[f"cli.command.{step}.wall_s"] = statistics.median(walls) if walls else 0.0
    metrics.update(import_breakdown(workload))
    untraced = statistics.median(stats.untraced_walls)
    traced = statistics.median(stats.traced_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc_curve", "exact_sweep", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        src = use_source()
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    tmp_root = Path.cwd() / TMP_DIR
    tmp_root.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, src, tmp_root)
    try:
        setup_times = [] if args.trace else measure_setup(workload)
        stats, tracer = run_passes(workload, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, stats, tracer)
            units = {name: layer_unit(name) for name in metrics}
            extra, note = {}, ""
        else:
            setup_times += measure_setup(workload)
            metrics, extra, note = end_to_end(workload, stats, statistics.median(setup_times))
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    for name, value in {**metrics, **extra}.items():
        print(f"{args.workload} {name} = {value:.6g} {units.get(name) or REPORT_ONLY[name]}")
    if note:
        print(f"{args.workload} {note}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
