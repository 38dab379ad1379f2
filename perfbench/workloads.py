"""Seeded inputs, timed operations and independent checks of the three workloads.

mc_curve     In-process Monte Carlo: run_pipeline_mc and apply_channel_mc at
             100k samples per point with one worker.  The MC kernel does
             almost all of the work; validation and the exact path do almost
             none.  This is the plain single-threaded baseline of the MC load.
exact_sweep  In-process exact-path calls over many random covariances, each
             well under a millisecond: covariance validation, gate
             construction and the analytic channel make up the time, and MC
             does nothing.
cli_session  A scripted sequence of ``triqec`` processes, one at a time, as a
             user runs them: process start and import dominate the short
             commands, ``nogo`` allocates its simplex grid, and ``decay --mc``
             pays the fixed cost of 32 threaded MC calls.

Every workload is closed-loop with one client.  Inputs derive from the
workload seed and the pass index only.  Each result is checked outside the
timed region against a route that shares no code with the one under test:
the paper's cosh/sinh decay law evaluated here in extended precision, the
exact channel for Monte Carlo, and the closed forms for the CLI output.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

from triqec import analytics, noise, protocol
from triqec.noise import NoiseChannel
from triqec.protocol import AncillaMixture, PipelineConfig

from source import child_env

T_MAX = 1.2
MC_SAMPLES = 100_000
#: The paper's totally correlated operating point; its per-sample spread sets
#: mc_time_to_se1e-3_s, so that metric does not move with the seed.
REFERENCE_TAU, REFERENCE_T = 0.389, 0.4
#: Dense time grid of the exact sweep's survival_factor calls.
GRID = np.linspace(0.0, T_MAX, 2048)
EXACT_TOL = 1e-12
MC_SIGMAS = 5.0
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One timed call and the check of its result (a list of mismatches)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    inputs: tuple = ()
    samples: int = 0


# --- inputs ---------------------------------------------------------------


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def draw_tau(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.3, 0.5))


def draw_time(rng: np.random.Generator) -> float:
    """A time in (0, T_MAX]."""
    return float(T_MAX * (1.0 - rng.random()))


def random_psd(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Covariance A A^T of the given rank with trace in [3, 18] rad^2/s."""
    a = rng.normal(size=(3, rank))
    cov = a @ a.T
    cov *= rng.uniform(3.0, 18.0) / np.trace(cov)
    return (cov + cov.T) / 2


def edge_covariance(rng: np.random.Generator) -> np.ndarray:
    """Only the data spin dephases: c22 = c33 = 0 (and so every cross rate)."""
    return np.diag([rng.uniform(3.0, 18.0), 0.0, 0.0])


def named_covariance(model: str, tau: float) -> np.ndarray:
    if model == "totally-correlated":
        return np.full((3, 3), 2.0 / tau)
    return np.diag(np.full(3, 2.0 / tau))


def draw_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """Unit Bloch vector with a protected (y, z) part of at least 0.3."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if math.hypot(v[1], v[2]) >= 0.3:
            return (float(v[0]), float(v[1]), float(v[2]))


def draw_mixture(rng: np.random.Generator) -> tuple[float, float, float, float]:
    w = rng.dirichlet(np.ones(4))
    return (float(1.0 - w[1:].sum()), float(w[1]), float(w[2]), float(w[3]))


def encoded_state(bloch) -> np.ndarray:
    """alpha|000> + beta|111> for the pure data state with this Bloch vector."""
    x, y, z = bloch
    theta, phi = math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(theta / 2)
    psi[7] = np.exp(1j * phi) * math.sin(theta / 2)
    return np.outer(psi, psi.conj())


# --- independent routes ---------------------------------------------------


def decay_law(cov, t, sign2: int = 1, sign3: int = 1):
    """Sector survival from the paper's cosh/sinh closed form.

    (F1 + s2 F2 + s3 F3 - s2 s3 F1 F2 F3 F123) / 2 with Fj = exp(-t c_jj / 2)
    and F123 = cosh a cosh b cosh d - sinh a sinh b sinh d over the cross
    rates t c12, t c13, t c23.  Evaluated in extended precision, which
    absorbs the cosh - sinh cancellation for the covariances drawn here.
    """
    c = np.asarray(cov, dtype=np.longdouble)
    t = np.asarray(t, dtype=np.longdouble)
    f1, f2, f3 = (np.exp(-t * c[j, j] / 2) for j in range(3))
    a, b, d = t * c[0, 1], t * c[0, 2], t * c[1, 2]
    f123 = np.cosh(a) * np.cosh(b) * np.cosh(d) - np.sinh(a) * np.sinh(b) * np.sinh(d)
    out = (f1 + sign2 * f2 + sign3 * f3 - sign2 * sign3 * f1 * f2 * f3 * f123) / 2
    return out.astype(float)


def mixture_law(weights, cov, t):
    sectors = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    return sum(w * decay_law(cov, t, s2, s3) for w, (s2, s3) in zip(weights, sectors))


def derivatives_law(cov) -> tuple[float, float, float]:
    """First three derivatives at t = 0 of the decay law, term by term.

    Expanding F123 into exponentials gives (F1 F2 F3 F123) = 1/4 sum over
    sign triples s with s1 s2 s3 = -1 of exp(t r_s), with
    r_s = -(c11 + c22 + c33)/2 + s . (c12, c13, c23).
    """
    c = np.asarray(cov, dtype=float)
    base = -(c[0, 0] + c[1, 1] + c[2, 2]) / 2
    rates = [
        base + s1 * c[0, 1] + s2 * c[0, 2] + s3 * c[1, 2]
        for s1, s2, s3 in product((1, -1), repeat=3)
        if s1 * s2 * s3 == -1
    ]
    singles = [-c[j, j] / 2 for j in range(3)]
    return tuple(
        float(0.5 * (sum(r**k for r in singles) - 0.25 * sum(r**k for r in rates)))
        for k in (1, 2, 3)
    )


# --- checks ---------------------------------------------------------------


def check_close(label: str, value, reference, tol: float = EXACT_TOL) -> list[str]:
    """Largest absolute difference within tol (NaN fails)."""
    value, reference = np.asarray(value), np.asarray(reference)
    if value.shape != reference.shape:
        return [f"{label}: shape {value.shape} != {reference.shape}"]
    err = float(np.max(np.abs(value - reference))) if value.size else 0.0
    if not err <= tol:
        return [f"{label}: off by {err:.3e} > {tol:.1e}"]
    return []


def check_within_se(label: str, value, stderr, reference) -> list[str]:
    """Monte Carlo estimates within MC_SIGMAS standard errors of the exact value."""
    value, stderr, reference = (np.asarray(x, dtype=float) for x in (value, stderr, reference))
    excess = np.abs(value - reference) - (MC_SIGMAS * stderr + EXACT_TOL)
    if not np.all(excess <= 0):
        worst = int(np.argmax(excess))
        return [
            f"{label}: |mc - exact| = {float(np.abs(value - reference).flat[worst]):.3e} "
            f"exceeds {MC_SIGMAS} SE = {float(MC_SIGMAS * stderr.flat[worst]):.3e}"
        ]
    return []


def check_state(label: str, state, exact, samples: int) -> list[str]:
    """Every matrix element of an MC state within 6/sqrt(samples) of the exact one."""
    return check_close(label, state, exact, 6 / math.sqrt(samples))


def check_identical(label: str, a, b) -> list[str]:
    """Bit-identical pipeline results (survival, its SE and the reduced state)."""
    same = (
        a.survival == b.survival
        and a.survival_stderr == b.survival_stderr
        and np.asarray(a.reduced).tobytes() == np.asarray(b.reduced).tobytes()
    )
    return [] if same else [f"{label}: results differ across worker counts"]


def check_derivatives(label: str, values, cov) -> list[str]:
    reference = derivatives_law(cov)
    scale = max(1.0, float(np.trace(np.asarray(cov))))
    errors = []
    for k, (value, ref) in enumerate(zip(values, reference), start=1):
        errors += check_close(f"{label} d{k}", value, ref, EXACT_TOL * scale**k)
    return errors


# --- workloads ------------------------------------------------------------


class Workload:
    """Passes of seeded operations; subclasses define make_pass."""

    #: Python run by the set-up probe: import triqec and make the first call.
    setup_code = ""

    def __init__(self, seed: int, src: Path, tmp_root: Path):
        self.seed = seed
        self.tmp_root = tmp_root
        self.env = child_env(src)

    @property
    def setup_argv(self) -> list[str]:
        return [sys.executable, "-c", self.setup_code]

    def make_pass(self, index: int, traced: bool = False) -> list[Op]:
        raise NotImplementedError

    def verification_ops(self) -> list[Op]:
        """Checks run once after the timed passes."""
        return []

    def close(self) -> None:
        """Remove whatever the passes left on disk."""


# --- mc_curve -------------------------------------------------------------


class McCurve(Workload):
    """100k-sample MC points and one MC channel application per pass, one worker."""

    setup_code = (
        "from triqec import NoiseChannel, PipelineConfig, run_pipeline_mc, totally_correlated\n"
        "run_pipeline_mc(PipelineConfig(channel=NoiseChannel(covariance=totally_correlated(0.389)),"
        " bloch=(0.0, 0.0, 1.0)), 0.4, 4096, 0)"
    )

    def __init__(self, seed: int, src: Path, tmp_root: Path):
        super().__init__(seed, src, tmp_root)
        # (inputs, result) of every reference point, in pass order.
        self.references: list[tuple[tuple, object]] = []

    def _point(self, name, cov, t, bloch, mc_seed, keep=False) -> Op:
        def run():
            config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=bloch)
            return protocol.run_pipeline_mc(config, t, MC_SAMPLES, mc_seed, workers=1)

        def check(result):
            if keep:
                self.references.append(((cov, t, bloch, mc_seed), result))
            exact = decay_law(cov, t)
            return check_within_se(name, result.survival, result.survival_stderr, exact) + (
                check_close(f"{name} survival_factor", analytics.survival_factor(cov, t), exact)
            )

        return Op(name, run, check, (cov, t, bloch, mc_seed), MC_SAMPLES)

    def make_pass(self, index: int, traced: bool = False) -> list[Op]:
        rng = rng_for(self.seed, 1, index)
        reference_cov = named_covariance("totally-correlated", REFERENCE_TAU)
        uncorrelated_cov = named_covariance("uncorrelated", draw_tau(rng))
        ops = [
            self._point(
                "mc_reference", reference_cov, REFERENCE_T, (0.0, 0.0, 1.0), draw_seed(rng), keep=True
            ),
            self._point("mc_uncorrelated", uncorrelated_cov, draw_time(rng), draw_bloch(rng), draw_seed(rng)),
            self._point("mc_random_full", random_psd(rng, 3), draw_time(rng), draw_bloch(rng), draw_seed(rng)),
            self._point(
                "mc_random_deficient", random_psd(rng, 1 + index % 2), draw_time(rng), draw_bloch(rng),
                draw_seed(rng),
            ),
        ]
        cov, t, bloch, mc_seed = random_psd(rng, 1 + index % 3), draw_time(rng), draw_bloch(rng), draw_seed(rng)
        rho = encoded_state(bloch)

        def run_channel():
            channel = NoiseChannel(covariance=cov, kind="monte-carlo", samples=MC_SAMPLES, seed=mc_seed)
            return noise.apply_channel_mc(rho, channel, t)

        def check_channel(state):
            exact = noise.apply_channel_analytic(rho, cov, t, "x")
            return check_state("mc_channel", state, exact, MC_SAMPLES)

        ops.append(Op("mc_channel", run_channel, check_channel, (cov, t, bloch, mc_seed), MC_SAMPLES))
        return ops

    def verification_ops(self) -> list[Op]:
        """Re-run the first reference point with two workers; it must be bit-identical."""
        if not self.references:
            return []
        (cov, t, bloch, mc_seed), first = self.references[0]

        def run():
            config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=bloch)
            return protocol.run_pipeline_mc(config, t, MC_SAMPLES, mc_seed, workers=2)

        return [Op("mc_workers2", run, lambda result: check_identical("mc_workers2", result, first))]

    def reference_variance(self) -> float:
        """Median per-sample variance of the survival estimate at the reference point."""
        return float(np.median([r.survival_stderr**2 * MC_SAMPLES for _, r in self.references]))


# --- exact_sweep ----------------------------------------------------------


class ExactSweep(Workload):
    """Exact pipeline, mixture and closed-form calls on seeded covariances."""

    OPS_PER_PASS = 16
    KINDS = ("rank3", "rank2", "rank1", "edge", "totally-correlated", "uncorrelated")

    setup_code = (
        "from triqec import NoiseChannel, PipelineConfig, run_pipeline, totally_correlated\n"
        "run_pipeline(PipelineConfig(channel=NoiseChannel(covariance=totally_correlated(0.389)),"
        " bloch=(0.0, 0.0, 1.0)), 0.4)"
    )

    def _covariance(self, rng, kind: str) -> np.ndarray:
        if kind.startswith("rank"):
            return random_psd(rng, int(kind[4:]))
        if kind == "edge":
            return edge_covariance(rng)
        return named_covariance(kind, draw_tau(rng))

    def _op(self, kind, cov, times, bloch, weights) -> Op:
        def run():
            mix = AncillaMixture(*weights)
            cfg_x = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=bloch)
            cfg_z = PipelineConfig(
                channel=NoiseChannel(covariance=cov, axis="z"), bloch=bloch, basis_rotation="y-pi/2"
            )
            cfg_mix = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=bloch, ancillae=mix)
            return {
                "x": [protocol.run_pipeline(cfg_x, t).survival for t in times],
                "z": [protocol.run_pipeline(cfg_z, t).survival for t in times],
                "factor": analytics.survival_factor(cov, times),
                "mix": protocol.run_pipeline(cfg_mix, times[1]).survival,
                "mix_formula": protocol.mixed_ancilla_survival(mix, cov, times[1]),
                "grid": analytics.survival_factor(cov, GRID),
                "mix_grid": protocol.mixed_ancilla_survival(mix, cov, GRID),
                "derivatives": analytics.survival_derivatives_at_zero(cov),
            }

        def check(out):
            law = decay_law(cov, times)
            return (
                check_close(f"{kind} x pipeline", out["x"], out["factor"])
                + check_close(f"{kind} z pipeline", out["z"], out["factor"])
                + check_close(f"{kind} survival(0)", out["x"][0], 1.0)
                + check_close(f"{kind} survival_factor", out["factor"], law)
                + check_close(f"{kind} mixture pipeline", out["mix"], out["mix_formula"])
                + check_close(f"{kind} mixture formula", out["mix_formula"], mixture_law(weights, cov, times[1]))
                + check_close(f"{kind} survival grid", out["grid"], decay_law(cov, GRID))
                + check_close(f"{kind} mixture grid", out["mix_grid"], mixture_law(weights, cov, GRID))
                + check_derivatives(f"{kind} derivatives", out["derivatives"], cov)
            )

        return Op(f"exact_{kind}", run, check, (cov, times, bloch, weights))

    def make_pass(self, index: int, traced: bool = False) -> list[Op]:
        rng = rng_for(self.seed, 2, index)
        ops = []
        for k in range(self.OPS_PER_PASS):
            kind = self.KINDS[k % len(self.KINDS)]
            cov = self._covariance(rng, kind)
            times = np.array([0.0, draw_time(rng), draw_time(rng)])
            ops.append(self._op(kind, cov, times, draw_bloch(rng), draw_mixture(rng)))
        return ops


# --- cli_session ----------------------------------------------------------


@dataclass
class CliRun:
    proc: subprocess.CompletedProcess
    workdir: Path
    spans_path: Path | None = None


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def stdout_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


class CliSession(Workload):
    """The scripted triqec session, each command a fresh process in a fresh directory."""

    STEPS = (
        "decay_correlated",
        "decay_uncorrelated",
        "decay_off",
        "fit",
        "derivatives",
        "nogo",
        "decay_mc",
    )
    MC_SAMPLES = 20_000
    MC_POINTS = 32

    def __init__(self, seed: int, src: Path, tmp_root: Path):
        super().__init__(seed, src, tmp_root)
        # The manifest runs `git rev-parse`; stop its search at the scratch
        # root so it costs the same whether or not the checkout is a repo.
        self.env["GIT_CEILING_DIRECTORIES"] = str(tmp_root)
        self.tracing_script = str(Path(__file__).resolve().with_name("tracing.py"))
        self.child_records: list[list] = []
        self._dirs: list[Path] = []

    @property
    def setup_argv(self) -> list[str]:
        return [sys.executable, "-m", "triqec.cli", "derivatives", "--model", "correlated", "--tau", "0.389"]

    def _fresh_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix="session-", dir=self.tmp_root))
        self._dirs.append(path)
        return path

    def _command(self, name, argv, workdir, traced, check, samples) -> Op:
        def run():
            spans_path = None
            if traced:
                spans_path = workdir / f"{name}.spans.json"
                cmd = [sys.executable, self.tracing_script, str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "triqec.cli", *argv]
            proc = subprocess.run(
                cmd, cwd=workdir, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
            return CliRun(proc, workdir, spans_path)

        def check_run(result: CliRun):
            if result.proc.returncode != 0:
                return [f"{name}: exit {result.proc.returncode}: {result.proc.stderr.strip()[-300:]}"]
            if result.spans_path is not None:
                self.child_records.append(json.loads(result.spans_path.read_text(encoding="utf-8")))
            return check(result)

        return Op(name, run, check_run, tuple(argv), samples)

    def make_pass(self, index: int, traced: bool = False) -> list[Op]:
        rng = rng_for(self.seed, 3, index)
        tau_c, tau_u, mc_seed = draw_tau(rng), draw_tau(rng), int(rng.integers(0, 2**31 - 1))
        cov_c = named_covariance("totally-correlated", tau_c)
        cov_u = named_covariance("uncorrelated", tau_u)
        workdir = self._fresh_dir()

        def decay_check(csv_name, cov, corrected=True, mc=False):
            def check(result: CliRun):
                data = read_csv(result.workdir / csv_name)
                t = data["t"]
                law = decay_law(cov, t) if corrected else np.exp(-t * cov[0, 0] / 2)
                errors = check_close(f"{csv_name} theta_analytic", data["theta_analytic"], law)
                if not (result.workdir / f"{csv_name}.manifest.json").is_file():
                    errors.append(f"{csv_name}: no manifest")
                if mc:
                    errors += check_within_se(f"{csv_name} theta_mc", data["theta_mc"], data["mc_stderr"], law)
                return errors

            return check

        def fit_check(result: CliRun):
            values = stdout_values(result.proc.stdout)
            # Uncorrected decay is exp(-t c11 / 2), so the fitted rate is c11 / 2.
            errors = check_close("fit rate", float(values.get("rate", "nan")), cov_c[0, 0] / 2, 1e-9 / tau_c)
            predicted = read_csv(result.workdir / "predicted.csv")
            return errors + check_close(
                "fit prediction", predicted["theta_predicted"], decay_law(cov_c, predicted["t"]), 1e-8
            )

        def derivatives_check(result: CliRun):
            values = stdout_values(result.proc.stdout)
            got = [float(values.get(f"{k}_derivative_at_zero", "nan")) for k in ("first", "second", "third")]
            errors = check_derivatives("derivatives", got, cov_c)
            return errors + check_close(
                "inflection point", float(values.get("inflection_point", "nan")), math.log(3.0) * tau_c / 4
            )

        def nogo_check(result: CliRun):
            if stdout_values(result.proc.stdout).get("unique_ground_zero") != "true":
                return ["nogo: unique_ground_zero is not true"]
            return []

        correlated = ["--model", "correlated", "--tau", repr(tau_c)]
        uncorrelated = ["--model", "uncorrelated", "--tau", repr(tau_u)]
        mc_args = ["--mc", str(self.MC_SAMPLES), "--points", str(self.MC_POINTS), "--workers", "2"]
        fit_args = ["--in", "uncorrected.csv", "--model", "correlated", "--corrected", "corrected.csv"]
        steps = [
            ("decay_correlated", ["decay", *correlated, "--out", "corrected.csv"],
             decay_check("corrected.csv", cov_c), 0),
            ("decay_uncorrelated", ["decay", *uncorrelated, "--out", "uncorrelated.csv"],
             decay_check("uncorrelated.csv", cov_u), 0),
            ("decay_off", ["decay", *correlated, "--correction", "off", "--out", "uncorrected.csv"],
             decay_check("uncorrected.csv", cov_c, corrected=False), 0),
            ("fit", ["fit", *fit_args, "--out", "predicted.csv"], fit_check, 0),
            ("derivatives", ["derivatives", *correlated], derivatives_check, 0),
            ("nogo", ["nogo", *uncorrelated, "--step", "0.005"], nogo_check, 0),
            ("decay_mc", ["decay", *uncorrelated, *mc_args, "--seed", str(mc_seed), "--out", "mc.csv"],
             decay_check("mc.csv", cov_u, mc=True), self.MC_SAMPLES * self.MC_POINTS),
        ]
        return [
            self._command(name, argv, workdir, traced, check, samples)
            for name, argv, check, samples in steps
        ]

    def close(self):
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()


WORKLOADS = {"mc_curve": McCurve, "exact_sweep": ExactSweep, "cli_session": CliSession}
