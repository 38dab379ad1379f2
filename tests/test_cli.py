import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import triqec
from triqec import cli
from triqec.analytics import fit_exponential_rate
from triqec.cli import SEED_ENV, main, read_covariance_file, read_curve_csv
from triqec.models import NAMED_MODELS


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_decay_writes_curve_and_manifest(tmp_path):
    out = tmp_path / "dec.csv"
    code = run_cli("decay", "--model", "correlated", "--tau", 0.389,
                   "--points", 32, "--tmax", 1.2, "--out", out)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "theta_analytic"]
    assert len(rows) == 32
    assert rows[0][0] == 0.0 and rows[0][1] == 1.0
    manifest = json.loads((tmp_path / "dec.csv.manifest.json").read_text())
    assert manifest["command"] == "decay"
    assert manifest["parameters"]["tau"] == 0.389
    assert "version" in manifest


def test_decay_is_deterministic(tmp_path):
    args = ("decay", "--model", "uncorrelated", "--tau", 0.5, "--points", 16,
            "--tmax", 1.0, "--mc", 2000, "--seed", 3)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", out1) == 0
    assert run_cli(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_decay_mc_csv_is_identical_across_worker_counts(tmp_path):
    args = ("decay", "--model", "correlated", "--tau", 0.389, "--mc", 2000,
            "--points", 4, "--seed", 3)
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(*args, "--workers", 1, "--out", one) == 0
    assert run_cli(*args, "--workers", 2, "--out", two) == 0
    assert one.read_bytes() == two.read_bytes()


def test_decay_mc_column_tracks_analytic(tmp_path):
    out = tmp_path / "mc.csv"
    code = run_cli("decay", "--model", "uncorrelated", "--tau", 0.304,
                   "--points", 8, "--tmax", 0.9, "--mc", 4000, "--seed", 7, "--out", out)
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t", "theta_analytic", "theta_mc", "mc_stderr"]
    for t, analytic, mc, stderr in rows:
        assert abs(mc - analytic) <= 3 * stderr + 1e-12


def test_decay_correction_off_gives_bare_exponential(tmp_path):
    out = tmp_path / "off.csv"
    tau = 0.5
    assert run_cli("decay", "--model", "correlated", "--tau", tau, "--points", 5,
                   "--tmax", 1.0, "--correction", "off", "--out", out) == 0
    _, rows = read_rows(out)
    for t, value in rows:
        assert value == pytest.approx(np.exp(-t / tau), abs=1e-12)


def test_decay_rejects_non_psd_covariance_file(tmp_path, capsys):
    cov = tmp_path / "bad.cov"
    cov.write_text("# indefinite\n1 0.9 -0.9\n0.9 1 0.9\n-0.9 0.9 1\n")
    out = tmp_path / "never.csv"
    code = run_cli("decay", "--cov", cov, "--out", out)
    assert code == 2
    assert "eigenvalue" in capsys.readouterr().err
    assert not out.exists()  # no partial output


def test_decay_missing_output_directory_is_io_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = run_cli("decay", "--model", "correlated", "--tau", 1.0, "--out", out)
    assert code == 3
    assert not out.exists()


def test_decay_bad_parameters(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("decay", "--model", "correlated", "--tau", -1, "--out", out) == 2
    assert run_cli("decay", "--model", "correlated", "--tau", 1, "--points", 0, "--out", out) == 2
    assert run_cli("decay", "--model", "correlated", "--tau", 1, "--mc", 0, "--out", out) == 2
    assert run_cli("decay", "--model", "correlated", "--tau", 1, "--workers", 0, "--out", out) == 2
    for tmax in ("nan", "inf"):
        assert run_cli("decay", "--model", "correlated", "--tau", 1, "--tmax", tmax, "--out", out) == 2
    assert run_cli("decay", "--out", out) == 2  # neither model nor cov file
    assert run_cli("decay", "--model", "correlated", "--out", out) == 2  # no --tau
    assert not out.exists()


@pytest.mark.parametrize("command", [("decay", "--out", "never.csv"), ("nogo",), ("derivatives",)],
                         ids=["decay", "nogo", "derivatives"])
@pytest.mark.parametrize("tau", [None, -1.0, 0.0, float("nan"), float("inf")],
                         ids=["missing", "negative", "zero", "nan", "inf"])
def test_named_model_rejects_a_bad_tau_by_its_flag(tmp_path, monkeypatch, capsys, command, tau):
    monkeypatch.chdir(tmp_path)
    tau_args = () if tau is None else ("--tau", tau)
    assert run_cli(*command, "--model", "correlated", *tau_args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"triqec {command[0]}: --tau must be positive and finite, got {tau!r}\n"
    assert captured.out == ""
    assert not (tmp_path / "never.csv").exists()


def test_manifest_commit_comes_from_the_package_not_the_cwd(tmp_path, monkeypatch):
    # Run from inside an unrelated repository: its HEAD must not be recorded.
    other = tmp_path / "other"
    other.mkdir()
    git = ["git", "-C", str(other), "-c", "user.name=t", "-c", "user.email=t@t"]
    try:
        subprocess.run([*git, "init", "-q"], check=True, timeout=30)
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "x"], check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git is not available")
    other_head = subprocess.run(
        [*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True, timeout=30
    ).stdout.strip()
    monkeypatch.chdir(other)
    assert run_cli("decay", "--model", "correlated", "--tau", 1, "--points", 2, "--out", "d.csv") == 0
    manifest = json.loads((other / "d.csv.manifest.json").read_text())
    assert manifest["git_commit"] != other_head


def test_covariance_file_parsing(tmp_path):
    cov = tmp_path / "c.cov"
    cov.write_text("# comment line\n2 0 0\n0 2 0   # trailing comment\n0 0 2\n")
    assert np.allclose(read_covariance_file(str(cov)), 2 * np.eye(3))


def test_fit_round_trip(tmp_path, capsys):
    rate = 2.5677
    times = np.linspace(0.0, 1.2, 32)
    source = tmp_path / "uncorr.csv"
    lines = ["t,amplitude"] + [f"{t},{np.exp(-rate * t)}" for t in times]
    source.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred.csv"
    assert run_cli("fit", "--in", source, "--model", "correlated", "--out", out) == 0
    printed = capsys.readouterr().out
    fitted = float(printed.split("rate = ")[1].splitlines()[0])
    corr = float(printed.split("log_fit_correlation = ")[1].splitlines()[0])
    assert fitted == pytest.approx(rate, abs=1e-6)
    assert corr == pytest.approx(-1.0, abs=1e-9)
    header, rows = read_rows(out)
    assert header == ["t", "theta_predicted"]
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


def test_fit_with_corrected_series_self_consistency(tmp_path, capsys):
    # Feeding the exact corrected curve back in yields correlation 1.
    rate = 2.0
    times = np.linspace(0.0, 1.0, 24)
    uncorr = tmp_path / "u.csv"
    uncorr.write_text("\n".join(["t,v"] + [f"{t},{np.exp(-rate * t)}" for t in times]) + "\n")
    theta = (9 * np.exp(-rate * times) - np.exp(-9 * rate * times)) / 8
    corr_file = tmp_path / "c.csv"
    corr_file.write_text("\n".join(["t,v"] + [f"{t},{v}" for t, v in zip(times, theta)]) + "\n")
    out = tmp_path / "pred.csv"
    code = run_cli("fit", "--in", uncorr, "--model", "correlated",
                   "--corrected", corr_file, "--out", out)
    assert code == 0
    printed = capsys.readouterr().out
    pred_corr = float(printed.split("prediction_correlation = ")[1].splitlines()[0])
    assert pred_corr == pytest.approx(1.0, abs=1e-9)
    header, rows = read_rows(out)
    assert header == ["t", "theta_predicted", "corrected_scaled"]
    for _, predicted, scaled in rows:
        assert scaled == pytest.approx(predicted, abs=1e-9)


def test_fit_rejects_nonpositive_amplitudes(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,v\n0,1.0\n0.5,0.0\n1.0,-0.3\n")
    assert run_cli("fit", "--in", bad, "--model", "correlated", "--out", tmp_path / "o.csv") == 2
    assert "positive" in capsys.readouterr().err


def test_fit_rejects_a_growing_curve(tmp_path, capsys):
    growing = tmp_path / "growing.csv"
    growing.write_text("t,v\n0,1\n0.5,1.3\n1,1.7\n")
    assert run_cli("fit", "--in", growing, "--model", "correlated", "--out", tmp_path / "o.csv") == 2
    assert "rate must be positive" in capsys.readouterr().err


def _uncorrected_curve(tmp_path):
    curve = tmp_path / "u.csv"
    curve.write_text("".join(f"{t},{np.exp(-2.0 * t)}\n" for t in np.linspace(0.0, 1.0, 24)))
    return curve


def test_fit_with_a_corrected_curve_on_another_grid_prints_nothing(tmp_path, capsys):
    corrected, out = tmp_path / "c.csv", tmp_path / "o.csv"
    corrected.write_text("".join(f"{t},{np.exp(-t * t)}\n" for t in np.linspace(0.0, 2.0, 24)))
    assert run_cli("fit", "--in", _uncorrected_curve(tmp_path), "--model", "correlated",
                   "--corrected", corrected, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"triqec fit: --corrected {corrected}: "
        "measured and reference curves are on different time grids\n"
    )
    assert not out.exists()


def test_fit_with_a_zero_prediction_names_the_fit_not_the_corrected_file(tmp_path, capsys):
    # The fitted rate is ln 10 and the prediction exp(-2300) underflows to 0
    # at both times: the rescale's reference is at fault, not --corrected.
    measured, corrected, out = tmp_path / "u.csv", tmp_path / "c.csv", tmp_path / "o.csv"
    measured.write_text("1000,1e-300\n1001,1e-301\n")
    corrected.write_text("1000,0.5\n1001,0.4\n")
    assert run_cli("fit", "--in", measured, "--model", "correlated",
                   "--corrected", corrected, "--out", out) == 2
    rate = fit_exponential_rate(read_curve_csv(str(measured))).rate
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"triqec fit: --in {measured}: the curve predicted at the fitted rate "
        f"{format(rate, '.17g')} is identically zero\n"
    )
    assert not out.exists()


def test_fit_with_a_missing_corrected_file_prints_nothing(tmp_path, capsys):
    absent, out = tmp_path / "absent.csv", tmp_path / "o.csv"
    assert run_cli("fit", "--in", _uncorrected_curve(tmp_path), "--model", "correlated",
                   "--corrected", absent, "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read {absent}" in captured.err
    assert not out.exists()


def test_fit_with_an_unwritable_output_prints_nothing(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert run_cli("fit", "--in", _uncorrected_curve(tmp_path), "--model", "correlated",
                   "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"triqec fit: cannot write {out}: ")


def test_fit_missing_input_is_io_error(tmp_path):
    assert run_cli("fit", "--in", tmp_path / "absent.csv", "--model", "correlated",
                   "--out", tmp_path / "o.csv") == 3


@pytest.mark.parametrize(
    "command,flag,prefix",
    [("decay", "--cov", "cannot read covariance file "), ("fit", "--in", "cannot read ")],
    ids=["decay", "fit"],
)
def test_unreadable_input_files_are_named(tmp_path, capsys, command, flag, prefix):
    # A file that is not UTF-8 is invalid input (exit 2), a missing one an I/O
    # failure (exit 3); both messages name the file.
    extra = ("--model", "correlated") if command == "fit" else ()
    out = tmp_path / "o.csv"
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"\xff\xfe1 0 0\n")
    assert run_cli(command, flag, binary, *extra, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"triqec {command}: {binary}: not UTF-8 text: ")
    absent = tmp_path / "absent.dat"
    assert run_cli(command, flag, absent, *extra, "--out", out) == 3
    assert capsys.readouterr().err == (
        f"triqec {command}: {prefix}{absent}: [Errno 2] No such file or directory: '{absent}'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("level", [0.0, 0.7])
def test_fit_against_a_constant_corrected_series(tmp_path, capsys, level):
    # Pearson's r is undefined for a constant series: 0 by the convention of
    # the log fit's correlation, with no numpy warning (an error in this
    # suite).  Scaled to the prediction's RMS, the 0.7 series has a standard
    # deviation of 1e-16 from rounding, yet is constant.
    times = np.linspace(0.0, 1.5, 24)
    uncorr, corrected = tmp_path / "u.csv", tmp_path / "c.csv"
    uncorr.write_text("".join(f"{t},{np.exp(-0.7 * t)}\n" for t in times))
    corrected.write_text("".join(f"{t},{level}\n" for t in times))
    code = run_cli("fit", "--in", uncorr, "--model", "correlated",
                   "--corrected", corrected, "--out", tmp_path / "o.csv")
    assert code == 0
    assert "prediction_correlation = 0\n" in capsys.readouterr().out


def test_nogo_reports_unique_vertex(capsys):
    assert run_cli("nogo", "--model", "uncorrelated", "--tau", 1.0, "--step", 0.05) == 0
    printed = capsys.readouterr().out
    assert "zero-slope mixture: (1, 0, 0, 0)" in printed
    assert printed.count("zero-slope mixture") == 1
    assert "unique_ground_zero = true" in printed
    margin = float(printed.split("min_margin_off_vertex = ")[1].splitlines()[0])
    assert margin > 0


def test_nogo_vertices_only_grid(capsys):
    assert run_cli("nogo", "--model", "correlated", "--tau", 1.0, "--step", 1.0) == 0
    printed = capsys.readouterr().out
    assert printed.count("zero-slope mixture") == 1


def test_nogo_prints_a_zero_segment_as_one_line(tmp_path, capsys):
    cov = tmp_path / "data_only.cov"
    cov.write_text("1 0 0\n0 0 0\n0 0 0\n")
    assert run_cli("nogo", "--cov", cov, "--step", 0.25) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("zero-slope segment: 5 mixtures from (1, 0, 0, 0) to (0, 0, 0, 1)\n")
    assert "zero-slope mixture" not in printed
    assert "unique_ground_zero = false" in printed


def test_decay_mc_rejects_bad_worker_count(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run_cli("decay", "--model", "uncorrelated", "--tau", 1.0, "--points", 2,
                   "--mc", 100, "--workers", 0, "--out", out) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", [sys.maxsize + 1, 10**30], ids=["maxsize+1", "10**30"])
def test_decay_rejects_a_sample_count_beyond_an_index(tmp_path, capsys, samples):
    # Refused before any work starts, so no huge valid count is ever run.
    out = tmp_path / "big.csv"
    assert run_cli("decay", "--model", "uncorrelated", "--tau", 1.0, "--points", 2,
                   "--mc", samples, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"triqec decay: --mc must be <= {sys.maxsize}, got {samples}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("points", [sys.maxsize + 1, 10**30], ids=["maxsize+1", "10**30"])
def test_decay_rejects_a_point_count_beyond_an_index(tmp_path, capsys, points):
    # Named by its flag and limit, where np.linspace would say only
    # "Maximum allowed size exceeded".
    out = tmp_path / "big.csv"
    assert run_cli("decay", "--model", "correlated", "--tau", 1.0,
                   "--points", points, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"triqec decay: --points must be <= {sys.maxsize}, got {points}\n"
    )
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(triqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, triqec.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    # Each parser made records its prog; the subcommands' are "triqec decay" etc.
    built, init = [], argparse.ArgumentParser.__init__

    def recording(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli("derivatives", "--model", "correlated", "--tau", 1.0) == 0
    assert built.count("triqec") == 1 and capsys.readouterr().err == ""


def test_cli_import_loads_no_thread_pool_or_logging():
    # The Monte Carlo stream is serial: nothing imports concurrent.futures,
    # which would pull in logging.
    src = str(Path(triqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, triqec.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_nogo_requires_data_variance(tmp_path, capsys):
    cov = tmp_path / "silent.cov"
    cov.write_text("0 0 0\n0 1 0\n0 0 1\n")
    assert run_cli("nogo", "--cov", cov) == 2
    assert "c11" in capsys.readouterr().err
    for step in ("nan", "5e-324", "1e-19"):
        assert run_cli("nogo", "--model", "uncorrelated", "--tau", 1.0, "--step", step) == 2
        assert "--step" in capsys.readouterr().err


def test_derivatives_output(capsys):
    assert run_cli("derivatives", "--model", "uncorrelated", "--tau", 1.0) == 0
    printed = capsys.readouterr().out
    assert "first_derivative_at_zero = 0" in printed
    second = float(printed.split("second_derivative_at_zero = ")[1].splitlines()[0])
    assert second == pytest.approx(-3.0, rel=1e-12)
    inflection = float(printed.split("inflection_point = ")[1].splitlines()[0])
    assert inflection == pytest.approx(np.log(3.0) / 2, rel=1e-12)


def test_derivatives_that_overflow_name_their_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("big.cov").write_text("1e300 0 0\n0 1 0\n0 0 1\n")
    for source, args in (("--tau", ("--model", "correlated", "--tau", 1e-200)),
                         ("big.cov", ("--cov", "big.cov"))):
        assert run_cli("derivatives", *args) == 2
        largest = "2e+200" if source == "--tau" else "1e+300"
        assert capsys.readouterr() == ("", f"triqec derivatives: {source}: survival derivatives "
                                       f"overflow: largest entry {largest}\n")


def test_seed_env_variable_is_the_default(tmp_path, monkeypatch):
    args = ("decay", "--model", "correlated", "--tau", 1.0, "--points", 4,
            "--tmax", 0.5, "--mc", 500)
    monkeypatch.setenv("TRIQEC_SEED", "11")
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli(*args, "--out", a) == 0
    assert run_cli(*args, "--out", b) == 0
    monkeypatch.setenv("TRIQEC_SEED", "12")
    assert run_cli(*args, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_decay_rejects_a_negative_seed_by_its_source(tmp_path, monkeypatch, capsys):
    out = tmp_path / "s.csv"
    args = ("decay", "--model", "correlated", "--tau", 1.0, "--points", 2, "--mc", 10, "--out", out)
    assert run_cli(*args, "--seed", -1) == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    monkeypatch.setenv("TRIQEC_SEED", "-5")
    assert run_cli(*args) == 2
    assert "TRIQEC_SEED must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_full_fit_workflow_against_monte_carlo(tmp_path, capsys):
    # End to end: simulate a corrected Monte Carlo run, fit the clean
    # uncorrected curve, and check the prediction tracks the simulation.
    tau = 0.389
    uncorr = tmp_path / "uncorr.csv"
    corrected = tmp_path / "corrected.csv"
    assert run_cli("decay", "--model", "correlated", "--tau", tau, "--points", 32,
                   "--tmax", 1.2, "--correction", "off", "--out", uncorr) == 0
    assert run_cli("decay", "--model", "correlated", "--tau", tau, "--points", 32,
                   "--tmax", 1.2, "--mc", 10_000, "--seed", 19, "--out", corrected) == 0
    # Use the Monte Carlo column as the measured corrected series.
    header, rows = read_rows(corrected)
    mc_csv = tmp_path / "mc_only.csv"
    mc_csv.write_text("\n".join(["t,theta_mc"] + [f"{r[0]},{r[2]}" for r in rows]) + "\n")

    out = tmp_path / "pred.csv"
    capsys.readouterr()
    assert run_cli("fit", "--in", uncorr, "--model", "correlated",
                   "--corrected", mc_csv, "--out", out) == 0
    printed = capsys.readouterr().out
    fitted = float(printed.split("rate = ")[1].splitlines()[0])
    log_corr = float(printed.split("log_fit_correlation = ")[1].splitlines()[0])
    pred_corr = float(printed.split("prediction_correlation = ")[1].splitlines()[0])
    assert fitted == pytest.approx(1.0 / tau, rel=1e-9)
    assert log_corr < -0.99
    assert pred_corr > 0.98


def test_no_temporary_files_left_behind(tmp_path):
    out = tmp_path / "clean.csv"
    assert run_cli("decay", "--model", "uncorrelated", "--tau", 1.0, "--out", out) == 0
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize(
    "command",
    [("decay", "--out", "never.csv"), ("nogo",), ("derivatives",)],
    ids=["decay", "nogo", "derivatives"],
)
@pytest.mark.parametrize(
    "model_args",
    [("--model", "correlated", "--tau", 0.4), ("--model", "correlated"), ("--tau", 0.4)],
    ids=["model-tau", "model", "tau"],
)
def test_cov_file_excludes_model_and_tau(tmp_path, monkeypatch, capsys, command, model_args):
    # One run, one noise model: a file next to a named model is refused,
    # not silently preferred.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eye.cov").write_text("1 0 0\n0 1 0\n0 0 1\n")
    assert run_cli(*command, "--cov", "eye.cov", *model_args) == 2
    captured = capsys.readouterr()
    assert "give --cov FILE or --model with --tau, not both" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("command", ["decay", "fit", "nogo", "derivatives"])
def test_only_named_models_are_offered(capsys, command):
    required = {"decay": ("--out", "o.csv"), "fit": ("--in", "in.csv", "--out", "o.csv")}
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--model", "custom", *required.get(command, ()))
    assert info.value.code == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows,message",
    [
        ("0,1\n0.5,0.6\ninf,0.3\n", "curve times must be finite, got inf"),
        ("0,1\nnan,0.6\n1,0.3\n", "curve times must be finite, got nan"),
        ("0,1\n0.5,nan\n1,0.3\n", "curve values must be finite, got nan"),
    ],
    ids=["infinite-time", "nan-time", "nan-value"],
)
def test_fit_names_a_non_finite_curve_file(tmp_path, capsys, rows, message):
    curve = tmp_path / "curve.csv"
    curve.write_text("t,v\n" + rows)
    out = tmp_path / "o.csv"
    assert run_cli("fit", "--in", curve, "--model", "correlated", "--out", out) == 2
    assert f"triqec fit: {curve}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_a_negative_time_by_its_file(tmp_path, monkeypatch, capsys):
    # The prediction's times go through the one time rule: no survival at t < 0.
    monkeypatch.chdir(tmp_path)
    Path("neg.csv").write_text("-1,1.2\n0,1\n1,0.6\n")
    assert run_cli("fit", "--in", "neg.csv", "--model", "correlated", "--out", "p.csv") == 2
    assert capsys.readouterr() == (
        "", "triqec fit: --in neg.csv: time must be finite and >= 0, got -1.0\n"
    )
    assert not Path("p.csv").exists()


@pytest.mark.parametrize(
    "text,line,row",
    [
        ("t,v\n0,1\n0.5,abc\n1,0.5\n", 3, "['0.5', 'abc']"),
        ("t,v\n\n0,1\n0.5\n1,0.5\n", 4, "['0.5']"),
        ("0,1\nt,v\n1,0.5\n2,0.25\n", 2, "['t', 'v']"),
    ],
    ids=["unparsable", "one-field", "late-header"],
)
def test_fit_names_a_malformed_curve_row(tmp_path, capsys, text, line, row):
    # Only the first non-blank row may be a header; a later bad row is not dropped.
    curve = tmp_path / "curve.csv"
    curve.write_text(text)
    out = tmp_path / "o.csv"
    assert run_cli("fit", "--in", curve, "--model", "correlated", "--out", out) == 2
    assert f"triqec fit: {curve}:{line}: expected t,value, got {row}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_skips_blank_rows_and_one_header(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("\n  \nt,v\n0,1\n\n1,0.5\n2,0.25\n")
    assert run_cli("fit", "--in", curve, "--model", "correlated", "--out", tmp_path / "o.csv") == 0
    assert capsys.readouterr().out.startswith("rate = 0.693147180559945")


#: Bad values of a number flag: zero, negatives, non-finite, extreme and
#: subnormal floats, bools, non-numbers and the empty string.
BAD_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "True", "x", "")
#: Bad counts, none of which may allocate: a count beyond a C index must be
#: rejected before any work.
BAD_COUNTS = ("0", "-1", "10" * 16, "1e4", "nan", "True", "x", "")
#: The flags whose value is a file path.
FILE_FLAGS = ("--cov", "--in", "--corrected", "--out")
#: Per command and flag, (valid values, bad values); "<omitted>" leaves the
#: flag out and "<no value>" gives it without its argument.
COMMAND_FLAGS = {
    "decay": {
        "--model": (("correlated", "uncorrelated"), ("<omitted>", "bogus")),
        "--tau": (("0.389", "1", "1e-300"), BAD_NUMBERS),
        "--cov": (("<omitted>",), ("cov.txt", "bad_cov.txt", "binary.dat", "absent.txt")),
        "--mc": (("<omitted>", "1", "2", "10000"), BAD_COUNTS),
        "--points": (("<omitted>", "1", "2", "8"), (*BAD_COUNTS, "10000")),
        "--tmax": (("<omitted>", "0.389", "1e-300"), BAD_NUMBERS),
        "--correction": (("on", "off"), ("maybe",)),
        "--seed": (("<omitted>", "0", "7", str(2**70)), ("-1", "1.5", "True")),
        "--workers": (("<omitted>", "1", "2"), ("0", "x")),
        "--out": (("out.csv",), ("<omitted>", "absent_dir/out.csv")),
    },
    "nogo": {
        "--model": (("correlated", "uncorrelated"), ("<omitted>", "bogus")),
        "--tau": (("0.389", "1"), BAD_NUMBERS),
        "--cov": (("<omitted>",), ("cov.txt", "bad_cov.txt", "absent.txt")),
        "--step": (("<omitted>", "0.25", "1", "1e-18"), BAD_NUMBERS),
    },
    "derivatives": {
        "--model": (("correlated", "uncorrelated"), ("<omitted>", "bogus")),
        "--tau": (("0.389", "1"), BAD_NUMBERS),
        "--cov": (("<omitted>",), ("cov.txt", "bad_cov.txt", "absent.txt")),
    },
    "fit": {
        "--in": (("curve.csv",), ("growing.csv", "binary.dat", "absent.csv", "<omitted>")),
        "--model": (("correlated", "uncorrelated"), ("bogus",)),
        "--corrected": (("<omitted>", "curve.csv"), ("other_grid.csv", "absent.csv")),
        "--out": (("out.csv",), ("<omitted>", "absent_dir/out.csv")),
    },
}


def _write_cli_inputs(folder):
    (folder / "cov.txt").write_text("1.0 0.3 0.1\n0.3 0.8 0.2\n0.1 0.2 0.5\n")
    (folder / "bad_cov.txt").write_text("1 2 0\n2 1 0\n0 0 1\n")
    (folder / "binary.dat").write_bytes(b"\xff\xfe1 0 0\n")
    (folder / "curve.csv").write_text("t,v\n0,1\n0.5,0.6\n1,0.37\n")
    (folder / "growing.csv").write_text("0,1\n1,2\n")
    (folder / "other_grid.csv").write_text("0,1\n0.4,0.8\n")


@st.composite
def cli_argvs(draw):
    """An argv of one command: up to three of its flags bad, missing or left out."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=3))
    values = {
        flag: draw(st.sampled_from((*invalid, "<no value>") if flag in bad else valid))
        for flag, (valid, invalid) in flags.items()
    }
    if command == "decay" and values["--mc"] != "<omitted>":
        # A Monte Carlo curve stays small: 8 points or fewer, and 2 samples
        # a point at the default 32 points.
        if values["--points"] == "10000":
            values["--points"] = "8"
        elif values["--points"] == "<omitted>" and values["--mc"] == "10000":
            values["--mc"] = "2"
    argv = [command]
    for flag, value in values.items():
        if value == "<no value>":
            argv.append(flag)
        elif value != "<omitted>":
            argv += [flag, value]
    return argv


def _main_exits_cleanly(argv):
    # Runs main(argv), which must end in exit 0, 2 (argparse's SystemExit(2)
    # included) or 3, with no traceback; a failure prints nothing to stdout,
    # and an invalid input's last stderr line, returned, names the command.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "", argv
    if code == 2:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(f"triqec {argv[0]}:"), argv
        return last
    return None


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=cli_argvs())
def test_main_exits_cleanly_on_any_flag_values(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV, raising=False)
    _write_cli_inputs(tmp_path)
    last = _main_exits_cleanly(argv)
    if last is not None:  # it names a flag or a file path
        paths = [value for flag, value in zip(argv, argv[1:]) if flag in FILE_FLAGS]
        assert re.search(r"--[a-z]", last) or any(path in last for path in paths), (argv, last)


#: Fields of an input file: numbers (negative, huge, beyond the float range,
#: subnormal, not finite), a bool, a non-number and an empty field.
FIELDS = ("0", "0.5", "-1", "1e300", "1e400", "5e-324", "nan", "inf", "True", "x", "")
#: A valid covariance file's rows and a valid curve file's rows, header first.
COVARIANCE_ROWS = (("1.0", "0.3", "0.1"), ("0.3", "0.8", "0.2"), ("0.1", "0.2", "0.5"))
CURVE_ROWS = (("t", "v"), ("0", "1"), ("0.5", "0.6"), ("1", "0.37"))


@st.composite
def edited_rows(draw, rows):
    """``rows`` after up to three edits: a field replaced by one of ``FIELDS``,
    a field dropped (a ragged row), a column added, a row dropped (the header
    too), repeated or swapped with another (unsorted or repeated times)."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("field", "ragged", "column", "drop", "repeat", "swap")))
        if not rows:
            break
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        if edit == "field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(FIELDS))
        elif edit == "ragged" and rows[i]:
            rows[i].pop()
        elif edit == "column":
            for row in rows:
                row.append(draw(st.sampled_from(FIELDS)))
        elif edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.insert(i, list(rows[i]))
        elif edit == "swap":
            rows[i], rows[j] = rows[j], rows[i]
    return rows


@st.composite
def cli_files(draw):
    """An argv that reads one or two drawn input files, and those files' rows."""
    command = draw(st.sampled_from(("decay", "derivatives", "fit", "nogo")))
    if command != "fit":
        argv = {
            "decay": ["decay", "--points", "4", "--out", "out.csv"],
            "derivatives": ["derivatives"],
            "nogo": ["nogo", "--step", "0.25"],
        }[command]
        if command == "decay" and draw(st.booleans()):
            argv += ["--mc", "2"]
        return [*argv, "--cov", "cov.txt"], {"cov.txt": (" ", draw(edited_rows(COVARIANCE_ROWS)))}
    argv = ["fit", "--model", "correlated", "--out", "out.csv", "--in", "in.csv"]
    files = {"in.csv": (",", draw(edited_rows(CURVE_ROWS)))}
    if draw(st.booleans()):
        argv += ["--corrected", "corrected.csv"]
        files["corrected.csv"] = (",", draw(edited_rows(CURVE_ROWS)))
    return argv, files


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cli_files())
def test_main_exits_cleanly_on_any_file_contents(tmp_path, monkeypatch, case):
    # The flag property's contract, over the contents of --cov, --in and
    # --corrected files: exit 0, 2 or 3, no traceback, and an invalid
    # input's last stderr line names the command and one of the files.
    argv, files = case
    monkeypatch.chdir(tmp_path)
    for name, (separator, rows) in files.items():
        (tmp_path / name).write_text("".join(separator.join(row) + "\n" for row in rows))
    last = _main_exits_cleanly(argv)
    assert last is None or any(name in last for name in files), (argv, files, last)
