"""The benchmark's contract with the package: what perfbench/ imports, calls and traces.

The benchmark under perfbench/ is run against the package in src/ and is not
edited alongside it, so a package change that drops or renames a name it
uses would break it silently.  These tests import its workload and tracing
modules against this package and run one operation of each in-process
workload through its own independent check.
"""

import importlib
from pathlib import Path

import pytest

import triqec

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
    op = workload.make_pass(0)[0]
    assert op.check(op.run()) == []


def test_every_traced_name_is_still_in_the_package(perfbench):
    _, tracing = perfbench
    missing = {
        (module, name)
        for module, name in tracing.TARGETS
        if getattr(importlib.import_module(f"triqec.{module}"), name, None) is None
    }
    assert missing <= STALE_TARGETS
