"""Run the fixed set of 11 CLI commands and keep everything they produce.

    python tests/fixed_commands.py OUTDIR

Runs each command as its own ``python -W error -m triqec.cli`` process on
the ``src`` beside this file, in OUTDIR, so that any warning fails it.  It
writes there, per command NN (01-11): ``NN.argv`` (the command line),
``NN.exit``, ``NN.stdout`` and ``NN.stderr``, beside the CSVs and manifests
the commands write.  Each manifest's ``git_commit`` is removed, since it
differs between checkouts, so that two checkouts' outputs compare with
``diff -r``.  The inputs are
written into OUTDIR first: the covariance file ``cov.txt`` below and two
curve files for ``fit``.  Exits 1 if any command exits other than 0.
Not collected by pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The input files, by name: a covariance with every cross-rate nonzero, an
#: uncorrected decay curve and a corrected one on the same time grid.
INPUTS = {
    "cov.txt": "1.0 0.3 0.1\n0.3 0.8 0.2\n0.1 0.2 0.5\n",
    "uncorrected.csv": "t,v\n0,1\n0.1,0.78\n0.2,0.6\n0.3,0.47\n0.4,0.37\n0.5,0.29\n",
    "corrected.csv": "t,v\n0,1\n0.1,0.97\n0.2,0.9\n0.3,0.8\n0.4,0.7\n0.5,0.6\n",
}

COMMANDS = (
    ("decay", "--model", "correlated", "--tau", "0.389", "--out", "decay.csv"),
    ("decay", "--model", "uncorrelated", "--tau", "0.304", "--mc", "20000", "--seed", "7",
     "--workers", "1", "--out", "mc_workers1.csv"),
    ("decay", "--model", "uncorrelated", "--tau", "0.304", "--mc", "20000", "--seed", "7",
     "--workers", "2", "--out", "mc_workers2.csv"),
    ("decay", "--model", "correlated", "--tau", "0.389", "--correction", "off",
     "--out", "uncorrected_decay.csv"),
    ("decay", "--cov", "cov.txt", "--out", "cov_decay.csv"),
    ("decay", "--cov", "cov.txt", "--mc", "5000", "--seed", "3", "--out", "cov_mc.csv"),
    ("fit", "--in", "uncorrected.csv", "--model", "correlated", "--corrected", "corrected.csv",
     "--out", "fit.csv"),
    ("nogo", "--model", "uncorrelated", "--tau", "1", "--step", "0.01"),
    ("nogo", "--model", "correlated", "--tau", "0.389", "--step", "0.005"),
    ("derivatives", "--model", "correlated", "--tau", "0.413"),
    ("derivatives", "--cov", "cov.txt"),
)


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (outdir / name).write_text(text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "TRIQEC_SEED"}
    env["PYTHONPATH"] = str(SRC)
    failed = 0
    for number, command in enumerate(COMMANDS, start=1):
        argv = [sys.executable, "-W", "error", "-m", "triqec.cli", *command]
        done = subprocess.run(argv, cwd=outdir, env=env, capture_output=True, text=True)
        stem = outdir / f"{number:02d}"
        Path(f"{stem}.argv").write_text("triqec " + " ".join(command) + "\n", encoding="utf-8")
        Path(f"{stem}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
        Path(f"{stem}.stdout").write_text(done.stdout, encoding="utf-8")
        Path(f"{stem}.stderr").write_text(done.stderr, encoding="utf-8")
        failed += done.returncode != 0
    for manifest in outdir.glob("*.manifest.json"):
        record = json.loads(manifest.read_text(encoding="utf-8"))
        record.pop("git_commit", None)
        manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(Path(sys.argv[1])))
