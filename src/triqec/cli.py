"""Command-line front end: decay curves, the fit workflow, and the no-go search.

Subcommands
-----------
decay        Write a CSV of the corrected (or uncorrected) decay curve, with
             an optional Monte Carlo column and its standard error.
fit          Estimate the decay rate of an uncorrected curve from the log of
             its amplitudes, predict the corrected curve, and optionally
             compare a measured corrected series against the prediction.
nogo         Search the ancilla-mixture simplex for zeros of the initial
             decay slope.
derivatives  Print the survival factor's derivatives at t = 0 and, for a
             named model, the inflection point.

All CSV output is UTF-8 with a header row, '.' decimal separator, and 17
significant digits, written atomically (write-then-rename) with a JSON run
manifest beside each file.  Exit codes: 0 success, 2 invalid parameters
(any ValueError), 3 file I/O failure (any OSError).  The environment
variable TRIQEC_SEED supplies the default Monte Carlo seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    DecayCurve,
    curve_correlation,
    fit_exponential_rate,
    inflection_point,
    predict_corrected_curve,
    scale_to_rms,
    survival_derivatives_at_zero,
    survival_factor,
    uncorrected_decay,
)
from .models import NAMED_MODELS, named_model, positive_finite
from .noise import MAX_SAMPLES, NoiseChannel, validate_covariance, validate_integer
from .protocol import PipelineConfig, ancilla_mixture_nogo_search, grid_count, run_pipeline_mc

SEED_ENV = "TRIQEC_SEED"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _naming(source: str, call, *args):
    # call(*args), with any ValueError prefixed by the flag or file at fault.
    try:
        return call(*args)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _read_text(path: str, what: str) -> str:
    # An input file's UTF-8 text; either failure names the path.
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {what}{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def read_covariance_file(path: str) -> np.ndarray:
    """Parse and check a covariance file: three rows of three reals, '#' comments."""
    text = _read_text(path, "covariance file ")
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 numbers per row, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: could not parse {body!r}") from None
    if len(rows) != 3:
        raise ValueError(f"{path}: expected 3 covariance rows, got {len(rows)}")
    return _naming(path, validate_covariance, rows)


def _resolve_covariance(args) -> np.ndarray:
    # The run's one covariance check; its ValueErrors exit with code 2 (see main).
    if args.cov:
        if args.model is not None or args.tau is not None:
            raise ValueError("give --cov FILE or --model with --tau, not both")
        return read_covariance_file(args.cov)
    if args.model is None:
        raise ValueError("give --cov FILE or --model with --tau")
    tau = positive_finite(args.tau, "--tau")
    return validate_covariance(_naming("--tau", named_model(args.model).covariance, tau))


def _resolve_seed(args) -> int:
    # --seed, else $TRIQEC_SEED, else 0; a seed below 0 is rejected under its source's name.
    if getattr(args, "seed", None) is not None:
        return validate_integer(args.seed, "--seed", 0)
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV}={raw!r} is not an integer") from None
    return validate_integer(seed, SEED_ENV, 0)


def _git_commit() -> str | None:
    # The commit of the checkout holding this package, not of the cwd.
    command = ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "HEAD"]
    try:
        out = subprocess.run(command, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _write_file_atomic(path: str, text: str) -> None:
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp_name, target)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


def _write_outputs(command: str, parameters: dict, path: str, header: list, columns: list) -> None:
    """Write the columns as one CSV atomically, then its manifest beside it."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    _write_file_atomic(path, "\n".join(lines) + "\n")
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "samples": parameters.get("mc"),
        "version": __version__,
        "git_commit": _git_commit(),
        "outputs": [path],
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write_file_atomic(path + ".manifest.json", manifest_text)


def read_curve_csv(path: str) -> DecayCurve:
    """Read a (t, value) curve from the first two CSV columns.

    Blank rows are skipped and the first other row may be a header; any
    later row that is not two numbers is an error naming its line.
    """
    reader = csv.reader(_read_text(path, "").splitlines())
    times, values = [], []
    for index, row in enumerate(row for row in reader if "".join(row).strip()):
        try:
            t, v = float(row[0]), float(row[1])
        except (IndexError, ValueError):
            if index == 0:
                continue  # header row
            raise ValueError(f"{path}:{reader.line_num}: expected t,value, got {row!r}") from None
        times.append(t)
        values.append(v)
    if len(times) < 2:
        raise ValueError(f"{path}: expected at least two (t, value) rows")
    return _naming(path, DecayCurve, np.array(times), np.array(values))


def cmd_decay(args) -> int:
    cov = _resolve_covariance(args)
    seed = _resolve_seed(args)
    validate_integer(args.points, "--points", 1, MAX_SAMPLES)
    positive_finite(args.tmax, "--tmax")
    if args.mc is not None:
        validate_integer(args.mc, "--mc", 1, MAX_SAMPLES)
    validate_integer(args.workers, "--workers", 1)  # no effect; the next benchmark change drops it
    times = np.linspace(0.0, args.tmax, args.points)
    corrected = args.correction == "on"
    decay = survival_factor if corrected else uncorrected_decay
    # The times are checked, so only C * tmax can overflow.
    analytic = np.atleast_1d(_naming(f"--tmax {args.tmax!r}", decay, cov, times))

    header = ["t", "theta_analytic"]
    columns = [times, analytic]
    if args.mc:
        channel = NoiseChannel(covariance=cov, axis="x")
        config = PipelineConfig(channel=channel, bloch=(0.0, 0.0, 1.0), correction=corrected)
        estimates = []
        for i, t in enumerate(times):
            result = run_pipeline_mc(config, float(t), args.mc, np.random.SeedSequence([seed, i]))
            estimates.append((result.survival, result.survival_stderr))
        header += ["theta_mc", "mc_stderr"]
        columns += zip(*estimates)

    parameters = {
        "model": args.model,
        "tau": args.tau,
        "cov": args.cov,
        "points": args.points,
        "tmax": args.tmax,
        "correction": args.correction,
        "mc": args.mc,
        "seed": seed if args.mc else None,
        "workers": args.workers,
    }
    _write_outputs("decay", parameters, args.out, header, columns)
    return 0


def cmd_fit(args) -> int:
    # Nothing is printed until both curves are checked and the outputs written.
    measured = read_curve_csv(args.infile)
    corrected = read_curve_csv(args.corrected) if args.corrected else None
    source = f"--in {args.infile}"  # read and checked, but its fit may give no decay rate
    fit = _naming(source, fit_exponential_rate, measured)
    predicted = _naming(source, predict_corrected_curve, fit.rate, args.model, measured.times)
    report = [f"rate = {_fmt(fit.rate)}", f"log_fit_correlation = {_fmt(fit.correlation)}"]

    header = ["t", "theta_predicted"]
    columns = [predicted.times, predicted.values]
    if corrected is not None:
        # The prediction is the rescale's reference: if its RMS is 0, the fit is at fault.
        if np.sqrt(np.mean(predicted.values**2)) == 0:
            raise ValueError(
                f"--in {args.infile}: the curve predicted at the fitted rate "
                f"{_fmt(fit.rate)} is identically zero"
            )
        scaled = _naming(f"--corrected {args.corrected}", scale_to_rms, corrected, predicted)
        report.append(f"prediction_correlation = {_fmt(curve_correlation(scaled, predicted))}")
        header.append("corrected_scaled")
        columns.append(scaled.values)

    parameters = {
        "infile": args.infile,
        "model": args.model,
        "corrected": args.corrected,
    }
    _write_outputs("fit", parameters, args.out, header, columns)
    print("\n".join(report))
    return 0


def _mixture(weights) -> str:
    return "(" + ", ".join(_fmt(w) for w in weights) + ")"


def cmd_nogo(args) -> int:
    cov = _resolve_covariance(args)
    grid_count(args.step, "--step")  # so that only a covariance file's c11 of 0 is left
    cert = _naming(args.cov, ancilla_mixture_nogo_search, cov, args.step)
    last = _mixture(cert.last_zero)
    if cert.zero_count == 1:
        print(f"zero-slope mixture: {last}")
    else:  # the zeros run along an edge from the ground mixture
        print(f"zero-slope segment: {cert.zero_count} mixtures from (1, 0, 0, 0) to {last}")
    print(f"unique_ground_zero = {str(cert.unique_ground_zero).lower()}")
    print(f"min_margin_off_vertex = {_fmt(cert.min_margin)}")
    print(f"argmin_mixture = {_mixture(cert.argmin)}")
    print(f"max_margin = {_fmt(cert.max_margin)}")
    return 0


def cmd_derivatives(args) -> int:
    cov = _resolve_covariance(args)
    first, second, third = _naming(args.cov or "--tau", survival_derivatives_at_zero, cov)
    print(f"first_derivative_at_zero = {_fmt(first)}")
    print(f"second_derivative_at_zero = {_fmt(second)}")
    print(f"third_derivative_at_zero = {_fmt(third)}")
    if args.model:
        print(f"inflection_point = {_fmt(inflection_point(args.model, args.tau))}")
    return 0


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=NAMED_MODELS, help="noise model")
    parser.add_argument("--tau", type=float, help="decay time constant of the model")
    parser.add_argument("--cov", help="covariance file (3x3, '#' comments), instead of --model")


@functools.cache  # built once per process (about 1.4 ms); parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqec",
        description="Three-spin error-corrected dephasing: decay curves, fits, no-go search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decay = sub.add_parser("decay", help="write a decay-curve CSV")
    _add_model_arguments(p_decay)
    p_decay.add_argument("--points", type=int, default=32, help="time grid size (default 32)")
    p_decay.add_argument("--tmax", type=float, default=1.2, help="last time point (s)")
    p_decay.add_argument("--correction", choices=("on", "off"), default="on")
    p_decay.add_argument("--mc", type=int, help="add a Monte Carlo column with this many samples")
    p_decay.add_argument("--seed", type=int, help=f"Monte Carlo seed (default ${SEED_ENV} or 0)")
    p_decay.add_argument("--workers", type=int, default=1, help="checked (>= 1); no effect")
    p_decay.add_argument("--out", required=True, help="output CSV path")
    p_decay.set_defaults(func=cmd_decay)

    p_fit = sub.add_parser("fit", help="fit an uncorrected curve, predict the corrected one")
    p_fit.add_argument("--in", dest="infile", required=True, help="uncorrected curve CSV")
    p_fit.add_argument("--model", choices=NAMED_MODELS, required=True)
    p_fit.add_argument("--corrected", help="measured corrected curve CSV to compare")
    p_fit.add_argument("--out", required=True, help="output CSV path")
    p_fit.set_defaults(func=cmd_fit)

    p_nogo = sub.add_parser("nogo", help="search ancilla mixtures for zero initial slope")
    _add_model_arguments(p_nogo)
    p_nogo.add_argument("--step", type=float, default=0.01, help="simplex grid step")
    p_nogo.set_defaults(func=cmd_nogo)

    p_der = sub.add_parser("derivatives", help="print decay-law derivatives at t = 0")
    _add_model_arguments(p_der)
    p_der.set_defaults(func=cmd_derivatives)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # invalid input, CovarianceError included
        print(f"triqec {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # file I/O
        print(f"triqec {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
