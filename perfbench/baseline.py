"""Record the machine and the reference timings beside the benchmark.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Measures, min and median of several
repeats, the cases of the roadmap's baseline table: run_pipeline_mc at 100k
samples with 1 and 2 workers, the exact pipeline, survival_factor on 1e5
times, the triqec import, CLI ``decay`` and CLI ``decay --mc 20000``.  The
record is merged into perfbench/baseline.json, keeping its other sections.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from source import child_env, use_source

src = use_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from run import parse_importtime  # noqa: E402
from triqec import (  # noqa: E402
    NoiseChannel,
    PipelineConfig,
    run_pipeline,
    run_pipeline_mc,
    survival_factor,
    totally_correlated,
)


def timed(fn, repeats: int, per: int = 1) -> dict[str, float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(per):
            fn()
        times.append((time.perf_counter() - start) / per)
    return {"min_s": min(times), "median_s": statistics.median(times), "repeats": repeats}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    cov = totally_correlated(0.389)
    config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))
    times = np.linspace(0.0, 1.2, 100_000)
    env = child_env(src)
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as workdir:
        env["GIT_CEILING_DIRECTORIES"] = workdir

        def cli(*argv):
            subprocess.run([sys.executable, "-m", "triqec.cli", *argv], cwd=workdir, env=env,
                           check=True, capture_output=True, timeout=300)

        def import_triqec():
            subprocess.run([sys.executable, "-c", "import triqec"], env=env, check=True, timeout=60)

        importtimes = [
            parse_importtime(subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import triqec.cli"],
                env=env, check=True, capture_output=True, text=True, timeout=60,
            ).stderr)
            for _ in range(5)
        ]
        decay = ["decay", "--model", "correlated", "--tau", "0.389", "--out", "c.csv"]
        mc = [*decay, "--mc", "20000", "--points", "32", "--seed", "7"]
        cases = {
            "run_pipeline_mc_100k_workers1": timed(lambda: run_pipeline_mc(config, 0.4, 100_000, 7), 5),
            "run_pipeline_mc_100k_workers2": timed(
                lambda: run_pipeline_mc(config, 0.4, 100_000, 7, workers=2), 5
            ),
            "run_pipeline_exact": timed(lambda: run_pipeline(config, 0.4), 5, per=200),
            "survival_factor_1e5_times": timed(lambda: survival_factor(cov, times), 5),
            "python_import_triqec": timed(import_triqec, 5),
            "importtime_triqec_cli": {"median_s": statistics.median(t for t, _ in importtimes)},
            "importtime_scipy_linalg": {"median_s": statistics.median(s for _, s in importtimes)},
            "cli_decay": timed(lambda: cli(*decay), 5),
            "cli_decay_mc_20000_workers1": timed(lambda: cli(*mc), 3),
            "cli_decay_mc_20000_workers2": timed(lambda: cli(*mc, "--workers", "2"), 3),
        }

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "harness": cases,
    }
    out = Path("perfbench/baseline.json")
    previous = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    previous.update(record)
    out.write_text(json.dumps(previous, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
