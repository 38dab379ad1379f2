"""Self-tests of the benchmark: input generation, checkers, tracing and metric names.

    python3 perfbench/selfcheck.py        # from the root of a checkout

Exits 0 when every check passes.  The file is deliberately not named like a
pytest module, so the package's test run does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from source import use_source

use_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / run.TMP_DIR / "selfcheck"


def fingerprint(ops) -> str:
    def canon(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (tuple, list)):
            return [canon(v) for v in x]
        return x

    return json.dumps([(op.name, canon(op.inputs)) for op in ops])


def make(cls, seed):
    return cls(seed, ROOT / "src", SCRATCH)


def check_generator_is_deterministic():
    for cls in wl.WORKLOADS.values():
        a, b, c = make(cls, 5), make(cls, 5), make(cls, 6)
        try:
            for index in (0, 1, 2):
                first = fingerprint(a.make_pass(index))
                assert first == fingerprint(b.make_pass(index)), (cls.__name__, index)
                assert first != fingerprint(c.make_pass(index)), (cls.__name__, index)
            assert fingerprint(a.make_pass(0)) != fingerprint(a.make_pass(1))
        finally:
            for w in (a, b, c):
                w.close()


def rejects(errors) -> bool:
    return len(errors) > 0


def check_numeric_checkers_reject_perturbations():
    cov = wl.random_psd(np.random.default_rng(3), 2)
    t = np.linspace(0.0, 1.2, 7)
    law = wl.decay_law(cov, t)
    assert not wl.check_close("c", law, law)
    assert rejects(wl.check_close("c", law + 1e-6, law))
    assert rejects(wl.check_close("c", np.nan, 1.0))

    se = np.full_like(t, 2e-3)
    assert not wl.check_within_se("s", law + se, se, law)
    assert rejects(wl.check_within_se("s", law + 10 * se, se, law))
    assert rejects(wl.check_within_se("s", law - 10 * se, se, law))

    rho = wl.encoded_state((0.0, 0.6, 0.8))
    n = 100_000
    assert not wl.check_state("m", rho + 1 / math.sqrt(n), rho, n)
    perturbed = rho.copy()
    perturbed[0, 7] += 10 / math.sqrt(n)
    assert rejects(wl.check_state("m", perturbed, rho, n))

    derivs = wl.derivatives_law(cov)
    assert not wl.check_derivatives("d", derivs, cov)
    for k in range(3):
        bumped = list(derivs)
        bumped[k] += 1e-6
        assert rejects(wl.check_derivatives("d", bumped, cov)), k


def check_identity_checker_rejects_one_ulp():
    class Result:
        def __init__(self, survival, stderr, reduced):
            self.survival, self.survival_stderr, self.reduced = survival, stderr, reduced

    reduced = np.eye(2) / 2
    base = Result(0.5, 1e-3, reduced)
    assert not wl.check_identical("i", Result(0.5, 1e-3, reduced.copy()), base)
    assert rejects(wl.check_identical("i", Result(np.nextafter(0.5, 1), 1e-3, reduced), base))
    nudged = reduced.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 1)
    assert rejects(wl.check_identical("i", Result(0.5, 1e-3, nudged), base))


def check_law_matches_pattern_form():
    # The oracle's cosh/sinh form against the exponential expansion used for
    # its derivatives, including rank-deficient and edge covariances.
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.2, 50)
    for cov in (wl.random_psd(rng, 3), wl.random_psd(rng, 1), wl.edge_covariance(rng)):
        base = -np.trace(cov) / 2
        rates = [base + s1 * cov[0, 1] + s2 * cov[0, 2] + s3 * cov[1, 2]
                 for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1) if s1 * s2 * s3 == -1]
        series = 0.5 * (sum(np.exp(-t * cov[j, j] / 2) for j in range(3))
                        - 0.25 * sum(np.exp(t * r) for r in rates))
        assert not wl.check_close("law", wl.decay_law(cov, t), series, 1e-13)


def fake_run(workdir: Path, stdout: str = "") -> wl.CliRun:
    proc = subprocess.CompletedProcess(args=[], returncode=0, stdout=stdout, stderr="")
    return wl.CliRun(proc, workdir)


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = [",".join(names)]
    rows += [",".join(format(float(columns[n][i]), ".17g") for n in names) for i in range(len(columns[names[0]]))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    Path(f"{path}.manifest.json").write_text("{}\n", encoding="utf-8")


def tau_of(argv, model: str) -> float:
    i = argv.index("--model")
    assert argv[i + 1] == model
    return float(argv[argv.index("--tau") + 1])


def check_cli_checkers_reject_perturbations():
    session = make(wl.CliSession, 9)
    try:
        ops = {op.name: op for op in session.make_pass(0)}
        assert tuple(ops) == wl.CliSession.STEPS
        workdir = session._dirs[-1]
        tau_c = tau_of(ops["decay_correlated"].inputs, "correlated")
        tau_u = tau_of(ops["decay_uncorrelated"].inputs, "uncorrelated")
        t = np.linspace(0.0, 1.2, 32)
        cov_c = wl.named_covariance("totally-correlated", tau_c)

        def decay_case(name, csv_name, values, extra=None):
            write_csv(workdir / csv_name, {"t": t, "theta_analytic": values, **(extra or {})})
            ok = ops[name].check(fake_run(workdir))
            write_csv(workdir / csv_name, {"t": t, "theta_analytic": values + 1e-6, **(extra or {})})
            bad = ops[name].check(fake_run(workdir))
            assert not ok and rejects(bad), (name, ok)

        closed_c = (9 * np.exp(-t / tau_c) - np.exp(-9 * t / tau_c)) / 8
        closed_u = (3 * np.exp(-t / tau_u) - np.exp(-3 * t / tau_u)) / 2
        decay_case("decay_correlated", "corrected.csv", closed_c)
        decay_case("decay_uncorrelated", "uncorrelated.csv", closed_u)
        decay_case("decay_off", "uncorrected.csv", np.exp(-t / tau_c))

        se = np.full_like(t, 3e-3)
        mc_ok = {"theta_mc": closed_u + 2 * se, "mc_stderr": se}
        decay_case("decay_mc", "mc.csv", closed_u, mc_ok)
        write_csv(workdir / "mc.csv", {"t": t, "theta_analytic": closed_u,
                                       "theta_mc": closed_u + 10 * se, "mc_stderr": se})
        assert rejects(ops["decay_mc"].check(fake_run(workdir)))

        write_csv(workdir / "predicted.csv", {"t": t, "theta_predicted": closed_c})
        rate = 1 / tau_c
        assert not ops["fit"].check(fake_run(workdir, f"rate = {rate!r}\n"))
        assert rejects(ops["fit"].check(fake_run(workdir, f"rate = {rate * (1 + 1e-6)!r}\n")))

        _, d2, d3 = wl.derivatives_law(cov_c)
        inflection = math.log(3.0) * tau_c / 4

        def derivatives_text(d2):
            return (f"first_derivative_at_zero = 0\nsecond_derivative_at_zero = {d2!r}\n"
                    f"third_derivative_at_zero = {d3!r}\ninflection_point = {inflection!r}\n")

        assert not ops["derivatives"].check(fake_run(workdir, derivatives_text(d2)))
        assert rejects(ops["derivatives"].check(fake_run(workdir, derivatives_text(d2 + 1e-6))))

        assert not ops["nogo"].check(fake_run(workdir, "unique_ground_zero = true\n"))
        assert rejects(ops["nogo"].check(fake_run(workdir, "unique_ground_zero = false\n")))
    finally:
        session.close()


def module_bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "triqec" or name.startswith("triqec.")
        for attr, value in vars(module).items()
    }


def check_tracer_restores_bindings():
    import triqec.cli  # noqa: F401  (the CLI layer is traced too)
    from triqec import protocol
    from triqec.noise import NoiseChannel
    from triqec.protocol import PipelineConfig

    before = module_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = {key for key, ident in module_bindings().items() if before.get(key) != ident}
        assert ("triqec.protocol", "phase_stream") in changed
        assert ("triqec.cli", "run_pipeline_mc") in changed
        assert ("triqec.noise", "validate_covariance") in changed
        with tracer.span("op.small_mc"):
            channel = NoiseChannel(covariance=wl.named_covariance("uncorrelated", 0.4))
            config = PipelineConfig(channel=channel, bloch=(0.0, 0.0, 1.0))
            protocol.run_pipeline_mc(config, 0.3, 5000, 7)
    finally:
        tracer.uninstall()
    assert module_bindings() == before
    metrics = tracing.summarize(tracer.records(), 1)
    assert metrics["protocol.run_pipeline_mc.calls"] == 1
    assert metrics["protocol.run_pipeline_mc.blocks"] == 2
    assert metrics["protocol.run_pipeline_mc.samples"] == 5000
    assert 0 < metrics["protocol.run_pipeline_mc.self_s"] < metrics["protocol.run_pipeline_mc.busy_s"]


def check_self_time_subtracts_child_union():
    records = [
        ("protocol.run_pipeline_mc", 0.0, 10.0, None, {"samples": 1}),
        ("noise.phase_stream", 1.0, 3.0, 0, None),
        ("noise._propagator_batch", 2.0, 4.0, 0, None),
        ("noise._propagator_batch", 6.0, 7.0, 0, None),
    ]
    metrics = tracing.summarize(records, 1)
    assert metrics["protocol.run_pipeline_mc.self_s"] == 6.0
    assert metrics["protocol.run_pipeline_mc.prologue_s"] == 1.0
    assert metrics["protocol.run_pipeline_mc.blocks"] == 2
    assert tracing.nogo_alloc_bytes(200) == 3 * 201**3 * 8


def check_tail_percentile():
    pct, value, beyond = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)
    pct, value, beyond = run.tail_percentile([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (pct, value, beyond) == (50.0, 3.0, 2)


def check_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1004 |     275160 |       scipy.linalg\n"
        "import time:       757 |     407697 |   triqec\n"
        "import time:      5415 |     413112 | triqec.cli\n"
    )
    assert run.parse_importtime(text) == (0.413112, 0.27516)


def check_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = list(tracing.summarize([], 1))
    names += [f"cli.command.{step}.wall_s" for step in wl.CliSession.STEPS]
    names += ["import.triqec_s", "import.scipy_linalg_s"]
    names += ["trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_share"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def main() -> int:
    checks = [value for name, value in globals().items() if name.startswith("check_")]
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for check in checks:
            try:
                check()
                print(f"PASS {check.__name__}")
            except Exception:
                failures += 1
                print(f"FAIL {check.__name__}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print(f"{len(checks) - failures}/{len(checks)} self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
