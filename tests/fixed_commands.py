"""Run the fixed set of 11 CLI commands and keep everything they produce.

    python tests/fixed_commands.py OUTDIR [REFDIR]

Runs each command as its own ``python -W error -m triqec.cli`` process on
the ``src`` beside this file, in OUTDIR, so that any warning fails it.  It
writes there, per command NN (01-11): ``NN.argv`` (the command line),
``NN.exit``, ``NN.stdout`` and ``NN.stderr``, beside the CSVs and manifests
the commands write.  Each manifest's ``git_commit`` is removed, since it
differs between checkouts, so that two checkouts' outputs compare with
``diff -r``.  The inputs are
written into OUTDIR first: the covariance file ``cov.txt`` below and two
curve files for ``fit``.  Exits 1 if any command exits other than 0.

Given REFDIR, the OUTDIR of another checkout, it then names each file that
differs between the two (or is in one only) and, for a CSV with the same
header in both, prints each column's largest absolute and relative
difference; it exits 1 on any difference.  Not collected by pytest.
"""

from __future__ import annotations

import csv
import json
import math
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


def column_differences(path: Path, reference: Path) -> list[str]:
    """Each column's largest absolute and relative difference, or why there is none."""
    with path.open(newline="") as mine, reference.open(newline="") as theirs:
        rows, ref_rows = list(csv.reader(mine)), list(csv.reader(theirs))
    if not rows or not ref_rows or rows[0] != ref_rows[0]:
        return ["  headers differ"]
    if len(rows) != len(ref_rows):
        return [f"  {len(rows) - 1} rows against {len(ref_rows) - 1}"]
    lines = []
    for index, name in enumerate(rows[0]):
        largest, relative, text = 0.0, 0.0, False
        for row, ref_row in zip(rows[1:], ref_rows[1:]):
            try:
                value, ref = float(row[index]), float(ref_row[index])
            except (IndexError, ValueError):
                text = text or row[index:index + 1] != ref_row[index:index + 1]
                continue
            if value == ref or (math.isnan(value) and math.isnan(ref)):
                continue
            gap = abs(value - ref)
            if not gap < math.inf:  # a NaN or an infinity on one side only
                gap = math.inf
            largest = max(largest, gap)
            relative = max(relative, gap / abs(ref) if 0 < abs(ref) < math.inf else math.inf)
        note = ", text differs" if text else ""
        lines.append(f"  {name}: largest absolute {largest:.3g}, relative {relative:.3g}{note}")
    return lines


def compare(outdir: Path, refdir: Path) -> int:
    """Print each file that differs between the two directories; 1 if any does."""
    names = sorted({p.name for p in outdir.iterdir()} | {p.name for p in refdir.iterdir()})
    differs = 0
    for name in names:
        path, reference = outdir / name, refdir / name
        if not (path.is_file() and reference.is_file()):
            print(f"{name}: only in {outdir if path.exists() else refdir}")
        elif path.read_bytes() != reference.read_bytes():
            print(f"{name}: differs")
            if name.endswith(".csv"):
                print("\n".join(column_differences(path, reference)))
        else:
            continue
        differs += 1
    print(f"{differs} of {len(names)} files differ from {refdir}")
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    status = run(Path(sys.argv[1]))
    if len(sys.argv) == 3:
        status = max(status, compare(Path(sys.argv[1]), Path(sys.argv[2])))
    sys.exit(status)
