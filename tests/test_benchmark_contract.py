"""The benchmark's contract with the package: what perfbench/ imports, calls and traces.

The benchmark under perfbench/ is run against the package in src/ and is not
edited alongside it, so a package change that drops or renames a name it
uses would break it silently.  These tests import its workload and tracing
modules against this package and run the first pass of each in-process
workload, then its verification operations, through their own independent
checks, as the benchmark run does: a kernel change that breaks a benchmark
check fails here.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import triqec
from triqec import cli, noise

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Traced names the benchmark still lists although the package dropped them
#: earlier; the tracer reports zeros for them.  No other traced name may go.
STALE_TARGETS = {("noise", "phase_stream"), ("noise", "_propagator_batch")}


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("workloads"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", ["mc_curve", "exact_sweep"])
def test_in_process_workloads_set_up_and_pass_their_checks(perfbench, tmp_path, name):
    workloads, _ = perfbench
    workload = workloads.WORKLOADS[name](0, Path(triqec.__file__).parents[1], tmp_path)
    exec(workload.setup_code, {})
    for op in workload.make_pass(0):
        assert op.check(op.run()) == [], op.name
    # Only now are the references that the verification operations re-run recorded.
    for op in workload.verification_ops():
        assert op.check(op.run()) == [], op.name


def test_cli_session_commands_parse(perfbench, tmp_path):
    # The session's processes run `python -m triqec.cli <argv>`: a renamed or
    # removed flag would fail only the benchmark.  Parsing starts no process.
    workloads, _ = perfbench
    workload = workloads.WORKLOADS["cli_session"](0, Path(triqec.__file__).parents[1], tmp_path)
    try:
        parser = cli.build_parser()
        for argv in [workload.setup_argv[3:], *(op.inputs for op in workload.make_pass(0))]:
            parser.parse_args(list(argv))
    finally:
        workload.close()


def test_every_traced_name_is_still_in_the_package(perfbench):
    _, tracing = perfbench
    missing = {
        (module, name)
        for module, name in tracing.TARGETS
        if getattr(importlib.import_module(f"triqec.{module}"), name, None) is None
    }
    assert missing <= STALE_TARGETS


def test_harness_channel_names_are_apply_channel():
    # The benchmark calls and traces apply_channel_analytic and
    # apply_channel_mc; they stay in triqec.noise, out of the package's public
    # names, and give apply_channel's results bit for bit.
    rng = np.random.default_rng(3)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T)
    cov = noise.uncorrelated(0.7) + 0.2
    for axis in ("x", "z"):
        exact = noise.NoiseChannel(cov, axis)
        sampled = noise.NoiseChannel(cov, axis, kind="monte-carlo", samples=3000, seed=4, workers=2)
        want = noise.apply_channel(rho, exact, 0.4)
        assert np.array_equal(noise.apply_channel_analytic(rho, cov, 0.4, axis), want)
        want = noise.apply_channel(rho, sampled, 0.4)
        assert np.array_equal(noise.apply_channel_mc(rho, sampled, 0.4), want)
    assert {"apply_channel_analytic", "apply_channel_mc"}.isdisjoint(dir(triqec))
