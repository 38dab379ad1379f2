import itertools
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    explicit_pipeline,
    forward_derivative,
    gate_derivatives,
    grid_nogo_search,
    mc_channel,
    polar_amplitudes,
    pure_data_state,
    random_propagator,
    random_psd,
    reference_stream,
    sector_mixture,
    trajectory_phases,
    z_scores,
)
from triqec import noise, protocol
from triqec.analytics import survival_derivatives_at_zero, survival_factor, uncorrected_decay
from triqec.diffusion import GradientDiffusionSpec
from triqec.gates import encoder, global_rotation, toffoli
from triqec.models import named_model
from triqec.noise import (
    _EPS,
    FRAMES,
    NoiseChannel,
    apply_channel,
    dephase,
    dephasing_factors,
    mean_phases,
    totally_correlated,
    uncorrelated,
)
from triqec.operators import (
    ANCILLA_SECTORS,
    PAULI,
    angular_momentum,
    bloch_of,
    data_state_from_bloch,
    embed,
    idempotent,
    partial_trace_ancillae,
    sector_index,
)
from triqec.protocol import (
    SLOPES,
    AncillaMixture,
    ConfigError,
    CorrelatedComponent,
    PipelineConfig,
    _initial_state,
    ancilla_mixture_nogo_search,
    correlated_mixture_residuals,
    mixed_ancilla_slope_at_zero,
    mixed_ancilla_survival,
    run_pipeline,
    run_pipeline_mc,
)

BLOCH = (0.3, 0.6, 0.64)


def make_config(cov, **kwargs):
    channel = NoiseChannel(covariance=cov, axis=kwargs.pop("axis", "x"))
    return PipelineConfig(channel=channel, **kwargs)


def test_config_validation():
    channel = NoiseChannel(covariance=np.eye(3))
    with pytest.raises(ConfigError):
        PipelineConfig(channel=channel)  # no data state
    with pytest.raises(ConfigError):
        PipelineConfig(channel=channel, bloch=(0, 0, 1), basis_rotation="x-pi")
    with pytest.raises(ConfigError):
        AncillaMixture(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ConfigError):
        AncillaMixture(0.5, 0.2, 0.2, 0.2)


def test_correlated_mixture_config_owns_the_data_state():
    channel = NoiseChannel(covariance=np.eye(3))
    comps = (CorrelatedComponent(1.0, (0, 0.5, 0.5), (+1, +1)),)
    with pytest.raises(ConfigError):
        PipelineConfig(channel=channel, bloch=(0, 0, 1), ancillae=comps)
    config = PipelineConfig(channel=channel, ancillae=comps)
    assert bloch_of(partial_trace_ancillae(_initial_state(config))).y == pytest.approx(0.5)


@pytest.mark.parametrize("basis_rotation,axis", [("none", "x"), ("y-pi/2", "z")])
def test_pipeline_is_identity_at_time_zero(basis_rotation, axis):
    cov = random_psd(np.random.default_rng(0))
    config = make_config(cov, bloch=BLOCH, axis=axis, basis_rotation=basis_rotation)
    result = run_pipeline(config, 0.0)
    reduced_in = partial_trace_ancillae(_initial_state(config))
    assert np.abs(result.reduced - reduced_in).max() < 1e-10
    assert result.survival == pytest.approx(1.0, abs=1e-12)


def test_pipeline_preserves_x_component():
    config = make_config(totally_correlated(0.5), bloch=(1.0, 0.0, 0.0))
    for t in (0.0, 0.2, 1.0, 3.0):
        for result in (run_pipeline(config, t), run_pipeline_mc(config, t, samples=500, seed=1)):
            assert result.bloch_out.x == pytest.approx(1.0, abs=1e-10)
            assert result.survival is None  # nothing in the protected plane
            assert result.survival_stderr is None


@pytest.mark.parametrize("basis_rotation,axis", [("none", "x"), ("y-pi/2", "z")])
def test_mc_survival_per_sample_matches_explicit_circuit(basis_rotation, axis):
    # Oracle: encode, propagate by the 8x8 random unitary, decode, correct,
    # and read the protected components, one trajectory at a time.  With
    # one sample the MC pipeline's survival is that trajectory's value.
    cov = random_psd(np.random.default_rng(14))
    config = make_config(cov, bloch=BLOCH, axis=axis, basis_rotation=basis_rotation)
    rho0 = _initial_state(config)
    enc = encoder()
    rot = global_rotation("y", np.pi / 2) if basis_rotation == "y-pi/2" else np.eye(8)
    t = 0.7
    for seed in range(64):
        chi = reference_stream(cov, t, seed, 1)[0]
        u = random_propagator(chi, axis)
        circuit = toffoli() @ enc @ rot.conj().T @ u @ rot @ enc
        reduced = partial_trace_ancillae(circuit @ rho0 @ circuit.conj().T)
        out = bloch_of(reduced)
        expected = (out.y * BLOCH[1] + out.z * BLOCH[2]) / (BLOCH[1] ** 2 + BLOCH[2] ** 2)
        result = run_pipeline_mc(config, t, samples=1, seed=seed)
        assert result.survival == pytest.approx(expected, abs=1e-12)
        assert np.abs(result.reduced - reduced).max() < 1e-12


@pytest.mark.parametrize("basis_rotation,axis", [("none", "x"), ("y-pi/2", "z")])
def test_mc_pipeline_matches_the_64_element_reference_kernel(basis_rotation, axis):
    # Reference: each trajectory's 64 factors exp(-i eps . chi) taken
    # directly, its survival Re sum(factors * contraction) with the protected
    # observable pulled back into the frame, and the mean table applied once.
    cov = random_psd(np.random.default_rng(21))
    config = make_config(cov, bloch=BLOCH, axis=axis, basis_rotation=basis_rotation)
    rot = global_rotation("y", np.pi / 2) if basis_rotation == "y-pi/2" else np.eye(8)
    pre = FRAMES[axis] @ rot @ encoder()
    post = toffoli() @ encoder() @ rot.conj().T @ FRAMES[axis].conj().T
    state = pre @ _initial_state(config) @ pre.conj().T
    observable = np.kron(BLOCH[1] * PAULI["y"] + BLOCH[2] * PAULI["z"], np.eye(4))
    weight = BLOCH[1] ** 2 + BLOCH[2] ** 2
    contraction = ((post.conj().T @ observable @ post).T * state).ravel() / weight
    t = 0.6
    for seed, samples in [(0, 5000), (3, 9000), (17, 100)]:
        phases = np.exp(-1j * reference_stream(cov, t, seed, samples) @ _EPS.T)
        per_sample = (phases @ contraction).real
        mean = phases.mean(axis=0).reshape(8, 8)
        reduced = partial_trace_ancillae(post @ (mean * state) @ post.conj().T)
        result = run_pipeline_mc(config, t, samples, seed)
        assert abs(result.survival - per_sample.mean()) < 1e-13
        assert abs(result.survival_stderr - per_sample.std(ddof=1) / np.sqrt(samples)) < 1e-13
        assert np.abs(result.reduced - reduced).max() < 1e-13


#: Every constant-gate key: correction on and off, both rotations, both axes.
GATE_KEYS = list(itertools.product((True, False), protocol.BASIS_ROTATIONS, ("x", "z")))


def _oracle_configs(rng, channel, correction, basis_rotation):
    # Ground, AncillaMixture and correlated-component ancillae on one channel,
    # each input with a protected part of length at least 0.5.
    phi, length = rng.uniform(0.0, 2 * np.pi), rng.uniform(0.5, 0.8)
    x, y, z = rng.uniform(-0.5, 0.5), length * np.cos(phi), length * np.sin(phi)
    common = dict(channel=channel, correction=correction, basis_rotation=basis_rotation)
    components = (
        CorrelatedComponent(0.6, (x, y, z), (+1, -1)),
        CorrelatedComponent(0.4, (-x, y, z), (-1, -1)),
    )
    mixture = AncillaMixture(*rng.dirichlet(np.ones(4)).tolist())
    return [
        PipelineConfig(bloch=(x, y, z), **common),
        PipelineConfig(bloch=(x, y, z), ancillae=mixture, **common),
        PipelineConfig(ancillae=components, **common),
    ]


@pytest.mark.parametrize("correction,basis_rotation,axis", GATE_KEYS)
def test_run_pipeline_matches_the_explicit_oracle(correction, basis_rotation, axis):
    rng = np.random.default_rng(31)
    for rank in (1, 2, 3):
        channel = NoiseChannel(random_psd(rng, scale=rng.uniform(0.1, 5.0), rank=rank), axis=axis)
        for config in _oracle_configs(rng, channel, correction, basis_rotation):
            for t in (0.0, *rng.uniform(0.0, 2.0, size=2).tolist()):
                expected, result = explicit_pipeline(config, t), run_pipeline(config, t)
                assert np.abs(result.reduced - expected.reduced).max() <= 1e-14
                assert abs(result.survival - expected.survival) <= 1e-14


@pytest.mark.parametrize("correction,basis_rotation,axis", GATE_KEYS)
def test_monte_carlo_pipeline_matches_the_explicit_oracle(correction, basis_rotation, axis):
    # On the sample mean table, the oracle's least squares and reduced state;
    # with the oracle's contraction as the survival weights, the same standard
    # error.  The package reads its weights off the readout, so the bounds
    # allow rounding.
    rng = np.random.default_rng(32)
    cov = random_psd(rng)
    channel = NoiseChannel(cov, axis=axis)
    for seed, config in enumerate(_oracle_configs(rng, channel, correction, basis_rotation)):
        t, samples = rng.uniform(0.1, 1.5), 4500
        contraction = explicit_pipeline(config, t).contraction
        mean, stderr = mean_phases(mc_channel(cov, samples, seed, axis=axis), t, contraction)
        result = run_pipeline_mc(config, t, samples, seed)
        expected = explicit_pipeline(config, t, factors=mean)
        assert abs(result.survival - expected.survival) <= 1e-14
        assert abs(result.survival_stderr - stderr) <= 1e-13 * stderr
        assert np.abs(result.reduced - expected.reduced).max() <= 1e-14


@pytest.mark.parametrize("correction,basis_rotation,axis", GATE_KEYS)
def test_both_averages_read_the_survival_by_one_rule(correction, basis_rotation, axis, monkeypatch):
    # The survival is the least squares of the output's protected components
    # on the input's, bit for bit, on either channel.  Only a Monte Carlo run
    # hands channel_factors survival weights, and they are the oracle's
    # contraction.
    rng = np.random.default_rng(35)
    cov = random_psd(rng)
    received, factors = [], protocol.channel_factors
    monkeypatch.setattr(
        protocol, "channel_factors", lambda *args: received.append(args[2]) or factors(*args)
    )
    for config in _oracle_configs(rng, NoiseChannel(cov, axis=axis), correction, basis_rotation):
        t = rng.uniform(0.1, 1.5)
        for result in (run_pipeline(config, t), run_pipeline_mc(config, t, 300, 4)):
            bloch_in, bloch_out = result.bloch_in, result.bloch_out
            weight = bloch_in.y**2 + bloch_in.z**2
            expected = (bloch_out.y * bloch_in.y + bloch_out.z * bloch_in.z) / weight
            assert result.survival == expected
        analytic, weights = received[-2:]
        contraction = explicit_pipeline(config, t).contraction.ravel()
        assert analytic is None and np.abs(weights - contraction).max() <= 1e-15


@pytest.mark.parametrize("t", [1e-3, 1e-2, 0.4, 1.2, 5.0])
@pytest.mark.parametrize("model", ["uncorrelated", "correlated"])
def test_shifted_survival_moments_match_an_exact_two_pass(model, t):
    # The stream sums each trajectory's deviation from the noiseless survival
    # and its square.  Against an exactly rounded two pass (math.fsum) over
    # the oracle's per-trajectory survivals, on four blocks of the same
    # seeded stream: the survival within 1e-14 and the standard error within
    # a relative 1e-12.  The bounds were fixed before the test was first run.
    cov = uncorrelated(0.304) if model == "uncorrelated" else totally_correlated(0.389)
    config, samples, seed = make_config(cov, bloch=BLOCH), 3 * noise.BLOCK + 5, 11
    factors = trajectory_phases(reference_stream(cov, t, seed, samples)).reshape(samples, 64)
    contraction = explicit_pipeline(config, t).contraction.ravel()
    survivals = (factors @ contraction).real.tolist()
    mean = math.fsum(survivals) / samples
    m2 = math.fsum([(v - mean) ** 2 for v in survivals])
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    result = run_pipeline_mc(config, t, samples, seed)
    assert abs(result.survival - mean) <= 1e-14
    assert abs(result.survival_stderr - stderr) <= 1e-12 * stderr


def test_analytic_run_pipeline_builds_no_state_and_checks_nothing(eigvalsh_calls, monkeypatch):
    # A configuration's constant part is built once, when it is made.
    config = make_config(random_psd(np.random.default_rng(33)), bloch=BLOCH)
    krons, kron = [], np.kron
    monkeypatch.setattr(np, "kron", lambda *args: krons.append(1) or kron(*args))
    eigvalsh_calls.clear()
    for t in (0.0, 0.3, 1.7):
        run_pipeline(config, t)
    assert krons == []
    assert eigvalsh_calls == []


def test_a_configuration_is_built_once_for_both_averages(monkeypatch):
    # Its constant part does not depend on how the channel averages, so
    # neither run rebuilds it.
    config = make_config(random_psd(np.random.default_rng(36)), bloch=BLOCH)

    def rebuild(config):
        raise AssertionError("the configuration was rebuilt")

    monkeypatch.setattr(protocol, "_constant_part", rebuild)
    assert run_pipeline(config, 0.4).survival_stderr is None
    assert run_pipeline_mc(config, 0.4, samples=50, seed=2).survival_stderr > 0


def test_monte_carlo_configuration_builds_no_kronecker_product(monkeypatch):
    # Neither the configuration nor a Monte Carlo run calls np.kron: the
    # survival weights are a row of the readout.
    cov = random_psd(np.random.default_rng(34))
    make_config(cov, bloch=BLOCH)  # the constant gates, cached from here on
    krons, kron = [], np.kron
    monkeypatch.setattr(np, "kron", lambda *args: krons.append(1) or kron(*args))
    config = PipelineConfig(channel=mc_channel(cov, samples=50), bloch=BLOCH)
    run_pipeline_mc(config, 0.4, samples=50, seed=2)
    assert krons == []


#: A unit input along each protected component.
UNIT_BLOCH = {"y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def symmetric(c11, c22, c33, c12, c13, c23) -> list:
    return [[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]]


#: The unit covariance of each entry: a linear decay's 6 coefficients are its values there.
UNIT_COVARIANCES = np.array([symmetric(*row) for row in np.eye(6)])

#: Every covariance with diagonal entries in {4, 5, 6, 7} and off-diagonal ones in
#: {-1, 0, 1, 2}: diagonally dominant, so PSD.  Four values of each entry fix
#: any polynomial of degree <= 3 in each, so polynomials that agree on these
#: 4096 matrices agree on every covariance.
LATTICE = np.array(
    [symmetric(*row) for row in itertools.product(*[range(4, 8)] * 3, *[range(-1, 3)] * 3)],
    dtype=float,
)


@pytest.fixture(scope="module")
def lattice_derivatives():
    # The closed form's (first, second, third) derivatives at 0 on the lattice.
    return np.array([survival_derivatives_at_zero(cov) for cov in LATTICE])


@pytest.mark.parametrize("component", ["y", "z"])
@pytest.mark.parametrize("axis,basis_rotation", [("x", "none"), ("z", "y-pi/2")])
def test_decay_law_matches_the_gates_to_third_order(
    axis, basis_rotation, component, lattice_derivatives
):
    # A certificate, not a sample.  The 6 coefficients in C of the gates'
    # linear decay are all zero, the closed form's first derivative is exactly
    # 0, and its first three derivatives are the gates' polynomials on the
    # lattice, so on every covariance.
    channel = NoiseChannel(np.eye(3), axis=axis)
    config = PipelineConfig(channel, UNIT_BLOCH[component], basis_rotation=basis_rotation)
    assert np.abs(gate_derivatives(config, component, UNIT_COVARIANCES, 1)).max() <= 1e-15
    assert not lattice_derivatives[:, 0].any()
    for order in (1, 2, 3):
        gates = gate_derivatives(config, component, LATTICE, order)
        np.testing.assert_allclose(gates, lattice_derivatives[:, order - 1], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("component", ["y", "z"])
def test_linear_decay_per_ancilla_sector_is_minus_slopes(component):
    # Derived from the gates, not from the decay law: sector k's linear term
    # is -SLOPES[:, k] . diag(C), with no cross-rate term.
    for k, sector in enumerate(ANCILLA_SECTORS):
        config = PipelineConfig(
            NoiseChannel(np.eye(3)), UNIT_BLOCH[component], sector_mixture(*sector)
        )
        coefficients = gate_derivatives(config, component, UNIT_COVARIANCES, 1)
        assert np.abs(coefficients[:3] + SLOPES[:, k]).max() <= 1e-15
        assert np.abs(coefficients[3:]).max() <= 1e-15


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_memory_does_not_grow_with_samples(workers):
    config = make_config(totally_correlated(0.389), bloch=BLOCH)
    small, large = (
        _traced_peak(lambda: run_pipeline_mc(config, 0.4, samples, seed=3, workers=workers))
        for samples in (10**4, 10**6)
    )
    assert large - small < 2e6


def test_multi_block_stream_starts_no_thread(monkeypatch):
    # The thread count seen at every block of a four-block stream, while the
    # stream runs, and after it: no other thread draws or reduces a block.
    counts, reduce = [], noise._block_sums

    def counting(*args):
        counts.append(threading.active_count())
        return reduce(*args)

    monkeypatch.setattr(noise, "_block_sums", counting)
    config = make_config(uncorrelated(1.0), bloch=BLOCH)
    before = threading.active_count()
    run_pipeline_mc(config, 0.3, 3 * noise.BLOCK + 5, seed=1)
    assert counts == [before] * 4 and threading.active_count() == before


def test_stream_leaves_no_thread_running(monkeypatch):
    config = make_config(totally_correlated(0.389), bloch=BLOCH)
    before = threading.enumerate()
    run_pipeline_mc(config, 0.4, 6 * noise.BLOCK + 5, seed=2)
    assert threading.enumerate() == before
    # A reduction that raises at the third block.
    reduce, calls = noise._block_sums, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("reduction failed")
        return reduce(*args)

    monkeypatch.setattr(noise, "_block_sums", failing)
    with pytest.raises(RuntimeError, match="reduction failed"):
        run_pipeline_mc(config, 0.4, 6 * noise.BLOCK + 5, seed=2)
    assert threading.enumerate() == before


def test_monte_carlo_z_scores_are_standard_normal():
    # 400 seeded random (C, t > 0), 4096 samples each: the errors in units of
    # their standard errors must look like 400 draws of N(0, 1).  The bounds
    # were fixed before the test was run: |mean z| <= 4 / sqrt(400), the
    # sample variance inside its chi-square 1e-4 and 1 - 1e-4 quantiles
    # (chi2(399) / 399: 0.75786 and 1.28497), and max |z| <= 4.5.
    rng = np.random.default_rng(17)
    mc, exact, stderr = [], [], []
    for index in range(400):
        cov, t = random_psd(rng), float(rng.uniform(0.05, 1.0))
        result = run_pipeline_mc(make_config(cov, bloch=(0.0, 0.0, 1.0)), t, 4096, seed=index)
        mc.append(result.survival)
        stderr.append(result.survival_stderr)
        exact.append(survival_factor(cov, t))
    z = z_scores(mc, exact, stderr)
    assert abs(z.mean()) <= 4 / np.sqrt(len(z))
    assert 0.7578636401009528 <= z.var(ddof=1) <= 1.2849731833336233
    assert np.abs(z).max() <= 4.5


def test_run_pipeline_mc_rejects_a_missing_seed():
    # Without the check, None would seed the stream from OS entropy: an
    # irreproducible run that looks like a seeded one.
    with pytest.raises(ValueError, match="seed must be an integer, got None"):
        run_pipeline_mc(make_config(np.eye(3), bloch=BLOCH), 0.3, 100, None)


@pytest.mark.parametrize(
    "cov,t",
    [(1e300 * np.eye(3), 1e300), (np.full((3, 3), 1e300), 1e16), (np.full((3, 3), 1e308), 1.0)],
)
def test_mc_names_an_overflowing_phase_covariance(cov, t):
    # C*t, or its largest eigenvalue (3e308 in the last case), overflows: a
    # named error, not a NaN survival or an eigh failure.
    config = make_config(cov, bloch=BLOCH)
    with pytest.raises(ValueError, match=r"covariance \* t overflows: largest entry 1e\+30\d, t = "):
        run_pipeline_mc(config, t, 100, seed=1)


def test_monte_carlo_routes_never_evaluate_the_gaussian_average(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Monte Carlo route evaluated the Gaussian average")

    monkeypatch.setattr(noise, "dephasing_factors", forbidden)
    cov = uncorrelated(0.5)
    for axis in ("x", "z"):
        channel = NoiseChannel(covariance=cov, axis=axis, kind="monte-carlo", samples=3000, seed=1)
        config = PipelineConfig(channel=channel, bloch=BLOCH)
        run_pipeline_mc(config, 0.3, samples=3000, seed=1, workers=2)
        run_pipeline(config, 0.3)  # dispatches to the Monte Carlo route
        apply_channel(np.eye(8) / 8, channel, 0.3)
    with pytest.raises(AssertionError, match="Gaussian average"):  # the guard is live
        run_pipeline(make_config(cov, bloch=BLOCH), 0.3)


def test_constant_gates_are_cached_read_only():
    gates = protocol._gates(True, "y-pi/2", "z")
    assert protocol._gates(True, "y-pi/2", "z") is gates
    frame_gates = protocol._gates(False, "none", "x")
    assert frame_gates[0] is FRAMES["x"]
    for gate in (*gates, *frame_gates, protocol._SECTORS):
        with pytest.raises(ValueError):
            gate[0, 0] = 0.0


FLOAT_MAX = float(np.finfo(float).max)

#: Each entry point where a time meets a covariance, as a function of both,
#: returning arrays that must be finite; "apply_channel_analytic" is
#: ``apply_channel`` on an analytic channel.
COVARIANCE_TIME_ENTRY_POINTS = {
    "survival_factor": lambda cov, t: survival_factor(cov, t),
    "survival_factor_array": lambda cov, t: survival_factor(cov, np.array([0.0, t])),
    "uncorrected_decay": lambda cov, t: uncorrected_decay(cov, t),
    "dephasing_factors": lambda cov, t: dephasing_factors(cov, t),
    "apply_channel_analytic": lambda cov, t: apply_channel(np.eye(8) / 8, NoiseChannel(cov), t),
    "mean_phases": lambda cov, t: mean_phases(mc_channel(cov), t)[0],
    "run_pipeline": lambda cov, t: run_pipeline(make_config(cov, bloch=BLOCH), t).reduced,
    "run_pipeline_mc": lambda cov, t: run_pipeline_mc(
        make_config(cov, bloch=BLOCH), t, samples=10, seed=0
    ).reduced,
}


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(-1.0, "time must be finite and >= 0, got -1.0", id="-1.0"),
        pytest.param(float("nan"), "time must be finite and >= 0, got nan", id="nan"),
        pytest.param(float("inf"), "time must be finite and >= 0, got inf", id="inf"),
        pytest.param(10**400, "times must be finite, got 1e+400", id="10**400"),
    ],
)
@pytest.mark.parametrize("entry_point", list(COVARIANCE_TIME_ENTRY_POINTS))
def test_entry_points_reject_bad_times(entry_point, bad, message):
    with pytest.raises(ValueError) as error:
        COVARIANCE_TIME_ENTRY_POINTS[entry_point](uncorrelated(0.389), bad)
    assert str(error.value) == message


@pytest.mark.parametrize("entry_point", list(COVARIANCE_TIME_ENTRY_POINTS))
@pytest.mark.parametrize("entry", [1e300, FLOAT_MAX / 4], ids=["1e300", "max/4"])
def test_entry_points_share_one_overflow_rule(entry_point, entry):
    # Every quadratic form t eps' C eps of a phase pattern, and every
    # eigenvalue of C*t, is at most 9 max|c_jk| t.  Just under the largest
    # float that bound is accepted with finite output (9 max|c_jk| alone
    # overflows for the second entry); just over it every route rejects.
    call = COVARIANCE_TIME_ENTRY_POINTS[entry_point]
    cov = np.full((3, 3), entry)
    limit = FLOAT_MAX / 9 / entry
    assert np.isfinite(call(cov, limit * (1 - 1e-9))).all()
    with pytest.raises(ValueError, match=r"covariance \* t overflows: largest entry "):
        call(cov, limit * (1 + 1e-9))


def _outputs(result):
    # A pipeline result's reduced state, survival and standard error as one array.
    return np.append(result.reduced, [result.survival, result.survival_stderr or 0.0])


#: Each entry point where a time meets a channel, as a function of the time;
#: "apply_channel_analytic" and "apply_channel_mc" are ``apply_channel`` on
#: each kind of channel.
SCALAR_TIME_ENTRY_POINTS = {
    "dephasing_factors": lambda t: dephasing_factors(np.eye(3), t),
    "apply_channel_analytic": lambda t: apply_channel(np.eye(8) / 8, NoiseChannel(np.eye(3)), t),
    "apply_channel_mc": lambda t: apply_channel(np.eye(8) / 8, mc_channel(np.eye(3)), t),
    "mean_phases": lambda t: mean_phases(mc_channel(np.eye(3)), t)[0],
    "run_pipeline": lambda t: _outputs(run_pipeline(make_config(np.eye(3), bloch=BLOCH), t)),
    "run_pipeline_monte_carlo_channel": lambda t: _outputs(
        run_pipeline(PipelineConfig(channel=mc_channel(np.eye(3)), bloch=BLOCH), t)
    ),
    "run_pipeline_mc": lambda t: _outputs(
        run_pipeline_mc(make_config(np.eye(3), bloch=BLOCH), t, samples=100, seed=1)
    ),
}


@pytest.mark.parametrize("entry_point", list(SCALAR_TIME_ENTRY_POINTS))
@pytest.mark.parametrize(
    "times",
    [[0.3], np.array([0.1, 0.2, 0.3]), np.linspace(0, 1, 8), np.full((2, 2), 0.3)],
    ids=["list", "three", "eight", "2x2"],
)
def test_times_meeting_a_channel_must_be_scalar(entry_point, times):
    # An array of times would broadcast against the 8x8 factor table (eight
    # times gave one survival, three a silently wrong one) or fail in numpy.
    with pytest.raises(ValueError, match=r"t must be a scalar time, got an array of shape"):
        SCALAR_TIME_ENTRY_POINTS[entry_point](times)


@pytest.mark.parametrize("entry_point", list(SCALAR_TIME_ENTRY_POINTS))
def test_zero_dimensional_times_give_the_float_results(entry_point):
    call = SCALAR_TIME_ENTRY_POINTS[entry_point]
    expected = call(0.3)
    for t in (np.float64(0.3), np.array(0.3)):
        assert np.array_equal(call(t), expected)


def test_closed_forms_keep_accepting_time_arrays():
    times, cov = np.linspace(0.0, 1.0, 8), uncorrelated(0.389)
    mix = AncillaMixture(0.4, 0.3, 0.2, 0.1)
    for values, scalar in (
        (survival_factor(cov, times), lambda t: survival_factor(cov, t)),
        (uncorrected_decay(cov, times), lambda t: uncorrected_decay(cov, t)),
        (mixed_ancilla_survival(mix, cov, times), lambda t: mixed_ancilla_survival(mix, cov, t)),
    ):
        np.testing.assert_allclose(values, [scalar(t) for t in times], rtol=1e-14, atol=0)


def test_a_huge_covariance_over_a_tiny_time_decays_to_zero():
    # C*t = 1e8 is representable although 9 max|c_jk| = 9e308 is not.
    cov, t = np.full((3, 3), 1e308), 1e-300
    mix = AncillaMixture(0.4, 0.3, 0.2, 0.1)
    assert survival_factor(cov, t) == 0.0
    assert mixed_ancilla_survival(mix, cov, t) == 0.0
    assert run_pipeline(make_config(cov, bloch=BLOCH), t).survival == 0.0
    result = run_pipeline_mc(make_config(cov, bloch=BLOCH), t, samples=100, seed=1)
    assert abs(result.survival) <= 5 * result.survival_stderr


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda v: AncillaMixture(v, 0.0, 0.0, 0.0), "mu_pp"),
        (lambda v: AncillaMixture(1.0, 0.0, 0.0, v), "mu_mm"),
        (lambda v: CorrelatedComponent(v, (0.0, 0.0, 1.0), (+1, +1)), "weight"),
        (lambda v: CorrelatedComponent(1.0, (0.0, v, 0.0), (+1, +1)), "Bloch"),
        (lambda v: data_state_from_bloch((0.0, v, 0.0)), "Bloch"),
        (lambda v: make_config(np.eye(3), bloch=(0.0, v, 0.0)), "Bloch"),
        (lambda v: GradientDiffusionSpec(v, 1e-9, 0.1), "gradient_wavenumber"),
        (lambda v: GradientDiffusionSpec(6e4, v, 0.1), "diffusion_coefficient"),
        (lambda v: GradientDiffusionSpec(6e4, 1e-9, v), "diffusion_time"),
    ],
)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_records_reject_non_finite_fields(make, field, bad):
    with pytest.raises(ValueError, match=field):
        make(bad)


def test_pipeline_correlated_landmark_value():
    tau = 0.43
    config = make_config(totally_correlated(tau), bloch=(0.0, 0.0, 1.0))
    result = run_pipeline(config, tau)
    assert result.survival == pytest.approx((9 * np.exp(-1) - np.exp(-9)) / 8, abs=1e-12)


def test_pipeline_matches_closed_form_on_random_covariances():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cov = random_psd(rng)
        config = make_config(cov, bloch=BLOCH)
        for t in rng.uniform(0.0, 2.0, size=5):
            result = run_pipeline(config, float(t))
            assert result.survival == pytest.approx(survival_factor(cov, t), abs=1e-9)
            assert result.bloch_out.x == pytest.approx(BLOCH[0], abs=1e-10)
            # Both protected components shrink by the same factor.
            assert result.bloch_out.y == pytest.approx(result.survival * BLOCH[1], abs=1e-9)
            assert result.bloch_out.z == pytest.approx(result.survival * BLOCH[2], abs=1e-9)


def test_pipeline_without_correction_decays_at_the_bare_rate():
    rng = np.random.default_rng(2)
    cov = random_psd(rng)
    config = make_config(cov, bloch=BLOCH, correction=False)
    for t in (0.1, 0.7, 1.9):
        result = run_pipeline(config, t)
        bare = uncorrected_decay(cov, t)
        assert result.bloch_out.x == pytest.approx(BLOCH[0], abs=1e-12)
        assert result.bloch_out.y == pytest.approx(BLOCH[1] * bare, abs=1e-12)
        assert result.bloch_out.z == pytest.approx(BLOCH[2] * bare, abs=1e-12)
        assert result.survival == pytest.approx(bare, abs=1e-12)


def test_corrected_evolution_is_linear_in_the_state():
    # The Bloch vector of a mixture is the mixture of the Bloch vectors.
    rng = np.random.default_rng(3)
    cov = random_psd(rng)
    b1, b2 = np.array([0, 0.8, 0.6]), np.array([0.5, -0.5, 0.2])
    t = 0.8

    def reduced(bloch):
        return run_pipeline(make_config(cov, bloch=tuple(bloch)), t).reduced

    lhs = reduced(0.25 * b1 + 0.75 * b2)
    rhs = 0.25 * reduced(b1) + 0.75 * reduced(b2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_each_public_call_checks_its_covariance_once(eigvalsh_calls):
    raw = random_psd(np.random.default_rng(9))
    mix = AncillaMixture(0.4, 0.3, 0.2, 0.1)
    calls = {
        "survival_factor": lambda: survival_factor(raw, np.array([0.1, 0.5])),
        "mixed_ancilla_survival": lambda: mixed_ancilla_survival(mix, raw, 0.3),
        "survival_derivatives_at_zero": lambda: survival_derivatives_at_zero(raw),
        "ancilla_mixture_nogo_search": lambda: ancilla_mixture_nogo_search(raw),
        "run_pipeline_mc": lambda: run_pipeline_mc(make_config(raw, bloch=BLOCH), 0.3, 500, 1),
    }
    for name, call in calls.items():
        call()
        assert len(eigvalsh_calls) == 1, name  # the first call's check serves them all
    config = make_config(raw, bloch=BLOCH)
    eigvalsh_calls.clear()
    run_pipeline(config, 0.3)
    assert eigvalsh_calls == []


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: NoiseChannel(np.eye(3), axis="y"), "axis must be one of 'x', 'z', got 'y'"),
        (lambda: NoiseChannel(np.eye(3), axis=["x"]), "axis must be one of 'x', 'z', got ['x']"),
        (lambda: dephase(np.eye(8), np.ones((8, 8)), "y"), "axis must be one of 'x', 'z', got 'y'"),
        (lambda: angular_momentum(1, "w"), "axis must be one of 'x', 'y', 'z', got 'w'"),
        (lambda: angular_momentum(1, ["x"]), "axis must be one of 'x', 'y', 'z', got ['x']"),
        (lambda: global_rotation("w", 1.0), "axis must be one of 'x', 'y', 'z', got 'w'"),
        (lambda: random_propagator(np.zeros(3), "w"), "axis must be one of 'x', 'y', 'z', got 'w'"),
        (
            lambda: NoiseChannel(np.eye(3), kind="exact"),
            "kind must be one of 'analytic', 'monte-carlo', got 'exact'",
        ),
        (
            lambda: named_model(["correlated"]),
            "model must be one of 'correlated', 'totally-correlated', 'uncorrelated', "
            "got ['correlated']",
        ),
        (
            lambda: GradientDiffusionSpec(1.0, 1.0, 1.0, scheme="correlated"),
            "scheme must be one of 'totally-correlated', 'uncorrelated', got 'correlated'",
        ),
        (
            lambda: make_config(np.eye(3), bloch=BLOCH, basis_rotation=["none"]),
            "basis_rotation must be one of 'none', 'y-pi/2', got ['none']",
        ),
        (
            lambda: make_config(np.eye(3), bloch=BLOCH, correction="no"),
            "correction must be a bool, got 'no'",
        ),
        (
            lambda: make_config(np.eye(3), bloch=BLOCH, correction=0.0),
            "correction must be a bool, got 0.0",
        ),
        (
            lambda: make_config(np.eye(3), bloch=BLOCH, correction=None),
            "correction must be a bool, got None",
        ),
        (
            lambda: make_config(np.eye(3), bloch=BLOCH, correction=[1]),
            "correction must be a bool, got [1]",
        ),
        (lambda: embed(PAULI["x"], 4), "spin index must be <= 3, got 4"),
        (lambda: global_rotation("x", 1.0, spins=(1, 0)), "spin index must be >= 1, got 0"),
        (
            lambda: global_rotation("x", 1.0, spins=(1.0,)),
            "spin index must be an integer, got 1.0",
        ),
        (lambda: angular_momentum(1.0, "x"), "spin index must be an integer, got 1.0"),
        (lambda: angular_momentum(True, "x"), "spin index must be an integer, got True"),
        (lambda: idempotent(2.0, 1), "spin index must be an integer, got 2.0"),
        (
            lambda: AncillaMixture(1.5, -0.5, 0.0, 0.0),
            "mixture weight mu_pm must be finite and >= 0, got -0.5",
        ),
        (lambda: AncillaMixture(0.5, 0.0, 0.0, 0.0), "mixture weights must sum to 1, got 0.5"),
        (
            lambda: CorrelatedComponent(-1.0, (0.0, 0.0, 1.0), (+1, +1)),
            "component weight must be finite and >= 0, got -1.0",
        ),
        (
            lambda: correlated_mixture_residuals(
                (CorrelatedComponent(0.5, (0, 0, 1), (+1, +1)),), np.eye(3)
            ),
            "correlated mixture weights must sum to 1, got 0.5",
        ),
    ],
)
def test_each_input_rule_keeps_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "ancillae, shown",
    [
        ((0.25,) * 4, "0.25"),
        (0.25, "0.25"),
        ([None], "None"),
        (
            AncillaMixture(1.0, 0.0, 0.0, 0.0),
            "AncillaMixture(mu_pp=1.0, mu_pm=0.0, mu_mp=0.0, mu_mm=0.0)",
        ),
    ],
    ids=["weights", "number", "none", "mixture"],
)
def test_correlated_mixtures_hold_only_components(ancillae, shown):
    # Both ways in (a configuration's ancillae, the residuals) name the first
    # entry that is no CorrelatedComponent; a configuration takes a mixture.
    calls = [lambda: correlated_mixture_residuals(ancillae, np.eye(3))]
    if not isinstance(ancillae, AncillaMixture):
        calls.append(lambda: make_config(np.eye(3), bloch=BLOCH, ancillae=ancillae))
    for call in calls:
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == (
            f"correlated mixture components must be CorrelatedComponents, got {shown}"
        )


def test_z_axis_noise_with_basis_rotation_is_protected():
    rng = np.random.default_rng(4)
    cov = random_psd(rng)
    config = make_config(cov, bloch=BLOCH, axis="z", basis_rotation="y-pi/2")
    for t in (0.15, 0.6, 1.4):
        result = run_pipeline(config, t)
        assert result.survival == pytest.approx(survival_factor(cov, t), abs=1e-9)


def test_pipeline_survival_bounded_by_one():
    rng = np.random.default_rng(5)
    bloch = bloch_of(partial_trace_ancillae(pure_data_state(*polar_amplitudes(1.2, 0.3))))
    for _ in range(5):
        cov = random_psd(rng)
        config = make_config(cov, bloch=bloch)
        for t in rng.uniform(0.0, 3.0, size=4):
            result = run_pipeline(config, float(t))
            assert abs(result.survival) <= 1 + 1e-12


def test_run_pipeline_dispatches_on_channel_kind():
    # run_pipeline_mc only swaps its settings into the channel: one body, so
    # every output is bit-identical, whatever its workers (checked, no effect).
    rng = np.random.default_rng(4)
    frames = (("x", "none", 11), ("z", "y-pi/2", np.random.SeedSequence(2)))
    for cov, workers, correction in ((uncorrelated(0.5), 1, True), (random_psd(rng), 3, False)):
        for axis, rotation, seed in frames:
            channel = mc_channel(cov, 5000, seed, axis=axis)
            settings = {"bloch": BLOCH, "correction": correction, "basis_rotation": rotation}
            via_run = run_pipeline(PipelineConfig(channel=channel, **settings), 0.3)
            config = make_config(cov, axis=axis, **settings)
            via_mc = run_pipeline_mc(config, 0.3, 5000, seed, workers)
            assert np.array_equal(_outputs(via_run), _outputs(via_mc))
            assert via_run.bloch_in == via_mc.bloch_in and via_run.bloch_out == via_mc.bloch_out


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"workers": 0}, "workers"),
        ({"workers": -2}, "workers"),
        ({"workers": 1.5}, "workers"),
        ({"samples": 1e3}, "samples"),
        ({"samples": 0}, "samples"),
    ],
)
def test_mc_pipeline_rejects_bad_counts(kwargs, name):
    config = make_config(uncorrelated(1.0), bloch=BLOCH)
    args = {"samples": 100, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=name):
        run_pipeline_mc(config, 0.2, **args)


def test_mc_pipeline_deterministic_across_workers():
    config = make_config(totally_correlated(0.7), bloch=BLOCH)
    one = run_pipeline_mc(config, 0.5, samples=9000, seed=2, workers=1)
    many = run_pipeline_mc(config, 0.5, samples=9000, seed=2, workers=4)
    assert one.survival == many.survival
    assert one.survival_stderr == many.survival_stderr
    assert np.array_equal(one.reduced, many.reduced)


@pytest.mark.parametrize("cov_factory", [uncorrelated, totally_correlated])
def test_mc_pipeline_within_three_standard_errors(cov_factory):
    tau = 0.4
    config = make_config(cov_factory(tau), bloch=(0.0, 0.0, 1.0))
    for t in (0.2, 0.45):
        mc = run_pipeline_mc(config, t, samples=20_000, seed=7)
        exact = survival_factor(cov_factory(tau), t)
        assert abs(mc.survival - exact) <= 3 * mc.survival_stderr + 1e-12


def test_mc_pipeline_at_time_zero_is_exact():
    config = make_config(uncorrelated(1.0), bloch=BLOCH)
    mc = run_pipeline_mc(config, 0.0, samples=500, seed=0)
    assert mc.survival == pytest.approx(1.0, abs=1e-12)
    assert mc.survival_stderr == pytest.approx(0.0, abs=1e-12)


def test_sector_survival_ground_sector_is_the_survival_factor():
    # A sector's survival is that of its one-hot mixture: the ground sector
    # gives the survival factor, and each other sector flips the signs of its
    # single-spin and three-spin terms.
    rng = np.random.default_rng(6)
    cov = random_psd(rng)
    for t in (0.0, 0.3, 1.1):
        ground = survival_factor(cov, t)
        assert mixed_ancilla_survival(sector_mixture(+1, +1), cov, t) == ground
        f1, f2, f3 = (np.exp(-0.5 * t * cov[j, j]) for j in range(3))
        triple = f1 + f2 + f3 - 2 * ground
        for s2, s3 in ANCILLA_SECTORS:
            expected = 0.5 * (f1 + s2 * f2 + s3 * f3 - s2 * s3 * triple)
            got = mixed_ancilla_survival(sector_mixture(s2, s3), cov, t)
            assert got == pytest.approx(expected, abs=1e-14)


def test_mixed_ancilla_survival_reduces_to_pure_case():
    rng = np.random.default_rng(7)
    cov = random_psd(rng)
    for t in (0.0, 0.4, 1.3):
        assert mixed_ancilla_survival(AncillaMixture(1, 0, 0, 0), cov, t) == pytest.approx(
            survival_factor(cov, t), abs=1e-14
        )


@pytest.mark.parametrize(
    "weights",
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0.4, 0.3, 0.2, 0.1)],
)
def test_mixture_formula_matches_pipeline(weights):
    # Oracle: the full pipeline run with the mixture as the ancilla state.
    rng = np.random.default_rng(8)
    cov = random_psd(rng)
    mix = AncillaMixture(*weights)
    config = make_config(cov, bloch=(0.0, 0.6, 0.8), ancillae=mix)
    for t in (0.0, 0.35, 0.9):
        assert run_pipeline(config, t).survival == pytest.approx(
            mixed_ancilla_survival(mix, cov, t), abs=1e-12
        )


def test_slope_table_reproduces_the_sector_formula():
    # Each column of SLOPES against the sign formula of the decay law's
    # first derivative, -(c11 + s2 c22 + s3 c33 - s2 s3 tr C) / 4.
    rng = np.random.default_rng(14)
    for _ in range(20):
        cov = random_psd(rng)
        c11, c22, c33 = np.diagonal(cov)
        for column, (s2, s3) in enumerate(ANCILLA_SECTORS):
            expected = -0.25 * (c11 + s2 * c22 + s3 * c33 - s2 * s3 * (c11 + c22 + c33))
            slope = mixed_ancilla_slope_at_zero(sector_mixture(s2, s3), cov)
            assert slope == pytest.approx(expected, abs=1e-14)
            assert -(np.diagonal(cov) @ SLOPES[:, column]) == pytest.approx(expected, abs=1e-14)
    assert not SLOPES[:, 0].any()
    assert not SLOPES.flags.writeable


@pytest.mark.parametrize("signs", [(2, 5), (0, 0), (1, 0), (-1, 2)])
def test_sector_slope_rejects_signs_other_than_pm1(signs):
    # A sector's slope enters through a correlated component's sector (see
    # correlated_mixture_residuals) or its position in ANCILLA_SECTORS.
    for call in (
        lambda: CorrelatedComponent(1.0, (0, 0, 1), signs),
        lambda: sector_index(*signs),
    ):
        with pytest.raises(ValueError, match=r"ancilla signs must be \+1 or -1"):
            call()


def test_mixture_slope_formula_closed_cases():
    rng = np.random.default_rng(9)
    cov = random_psd(rng)
    c11, c22, c33 = cov[0, 0], cov[1, 1], cov[2, 2]
    assert mixed_ancilla_slope_at_zero(AncillaMixture(1, 0, 0, 0), cov) == pytest.approx(0.0, abs=1e-14)
    assert mixed_ancilla_slope_at_zero(AncillaMixture(0, 1, 0, 0), cov) == pytest.approx(
        -0.25 * (2 * c11 + 2 * c22), rel=1e-12
    )
    assert mixed_ancilla_slope_at_zero(AncillaMixture(0, 0, 0, 1), cov) == pytest.approx(
        0.25 * (2 * c22 + 2 * c33), rel=1e-12
    )


@pytest.mark.parametrize(
    "weights",
    [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0.55, 0.2, 0.15, 0.1)],
)
def test_mixture_slope_matches_finite_difference(weights):
    rng = np.random.default_rng(10)
    cov = random_psd(rng)
    mix = AncillaMixture(*weights)
    h = 1e-5
    fd = forward_derivative(lambda s: mixed_ancilla_survival(mix, cov, s), 0.0, h, 1)
    assert fd == pytest.approx(mixed_ancilla_slope_at_zero(mix, cov), abs=1e-6)


@pytest.mark.parametrize(
    "cov_factory",
    [lambda: uncorrelated(1.0), lambda: totally_correlated(1.0), lambda: random_psd(np.random.default_rng(11)) + 0.5 * np.eye(3)],
)
def test_nogo_search_finds_only_the_ground_vertex(cov_factory):
    cert = ancilla_mixture_nogo_search(cov_factory(), grid_step=0.02)
    assert cert.unique_ground_zero
    assert (cert.zero_count, cert.last_zero) == (1, (1.0, 0.0, 0.0, 0.0))
    assert cert.min_margin > 0
    assert cert.max_margin >= cert.min_margin


def test_nogo_search_vertices_only_grid():
    cov = uncorrelated(1.0)
    cert = ancilla_mixture_nogo_search(cov, grid_step=1.0)
    # Four vertices: the ground one is the single zero, the other three have
    # margins equal to the magnitudes of their slopes.
    assert (cert.zero_count, cert.last_zero) == (1, (1.0, 0.0, 0.0, 0.0))
    margins = {
        cert.argmin: cert.min_margin,
        cert.argmax: cert.max_margin,
    }
    for mixture, margin in margins.items():
        mix = AncillaMixture(*mixture)
        assert margin == pytest.approx(abs(mixed_ancilla_slope_at_zero(mix, cov)), rel=1e-12)


def test_nogo_search_requires_data_spin_variance():
    silent_data = np.diag([0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="c11"):
        ancilla_mixture_nogo_search(silent_data)
    for step in (0.0, -0.1, 1.5, float("nan"), 5e-324, 1e-19, Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="grid_step"):
            ancilla_mixture_nogo_search(np.eye(3), grid_step=step)


def _assert_matches_the_grid(cov, step):
    cert = ancilla_mixture_nogo_search(cov, grid_step=step)
    grid = grid_nogo_search(cov, grid_step=step)
    assert cert.grid_step == grid.grid_step
    # The grid's zeros are exactly the first zero_count points of the
    # mu_pm = mu_mp = 0 edge; sorted, the farthest from the ground comes first.
    n = round(1 / cert.grid_step)
    edge = tuple(sorted((1.0 - k / n, 0.0, 0.0, k / n) for k in range(cert.zero_count)))
    assert grid.zeros == edge
    assert cert.zero_count == len(grid.zeros)
    assert cert.last_zero == grid.zeros[0]
    assert cert.unique_ground_zero == grid.unique_ground_zero
    assert cert.min_margin == grid.min_margin
    assert cert.argmin == grid.argmin
    # The grid's maximum can sit one ulp above the exact vertex value.
    assert grid.max_margin - np.spacing(grid.max_margin) <= cert.max_margin <= grid.max_margin
    assert sorted(cert.argmax) == [0.0, 0.0, 0.0, 1.0]


ORACLE_COVARIANCES = {
    "rank1": random_psd(np.random.default_rng(15), rank=1),
    "rank2": random_psd(np.random.default_rng(16), rank=2),
    "rank3": random_psd(np.random.default_rng(17), rank=3),
    "uncorrelated": uncorrelated(1.0),
    "correlated": totally_correlated(0.389),
    "data_only": np.diag([1.3, 0.0, 0.0]),
    "no_c33": np.diag([0.7, 2.1, 0.0]),
    "tiny_c22": np.diag([1.0, 3e-12, 0.0]),  # edge zeros, then a margin just above tol
    # At step 1/2 the grid's maximum is the face point (0, 1/2, 1/2, 0), one
    # ulp above the two vertices it averages.
    "face_ulp": np.diag([2.3825850917171816, 0.7941713846795612, 0.7941713846795612]),
}


@pytest.mark.parametrize("name", list(ORACLE_COVARIANCES))
def test_nogo_certificate_matches_the_grid(name):
    for step in (1, 0.5, 1 / 3, 0.1, 0.05, 0.013, 0.01, 0.005):
        _assert_matches_the_grid(ORACLE_COVARIANCES[name], step)


@st.composite
def nogo_covariances(draw):
    kind = draw(st.sampled_from(["rank1", "rank2", "rank3", "named", "data_only", "no_c33"]))
    entry = st.floats(-3.0, 3.0, allow_subnormal=False)
    variance = st.floats(1e-3, 10.0)
    if kind.startswith("rank"):
        rank = int(kind[-1])
        a = np.array(draw(st.lists(entry, min_size=3 * rank, max_size=3 * rank))).reshape(3, rank)
        cov = a @ a.T
    elif kind == "named":
        factory = draw(st.sampled_from([uncorrelated, totally_correlated]))
        cov = factory(draw(st.floats(0.05, 20.0)))
    else:
        c22 = draw(variance) if kind == "no_c33" else 0.0
        cov = np.diag([draw(variance), c22, 0.0])
    # A c11 below ~1e-12 n of the largest variance is the regime pinned by
    # test_nogo_certificate_with_a_negligible_data_variance.
    assume(cov[0, 0] > 1e-9 * np.diagonal(cov).max())
    return cov


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cov=nogo_covariances(), step=st.floats(0.02, 1.0))
def test_nogo_certificate_matches_the_grid_property(cov, step):
    _assert_matches_the_grid(cov, step)


def test_nogo_certificate_with_a_negligible_data_variance():
    # With c11 at 1e-13 of the other variances, the grid's 1e-12 relative
    # tolerance counts mixtures with a margin c11 k/n as zeros although their
    # slope has a c11 coefficient.  The certificate lists only the edge zeros.
    cov = np.diag([1e-13, 1.0, 1.0])
    cert = ancilla_mixture_nogo_search(cov, grid_step=1 / 3)
    grid = grid_nogo_search(cov, grid_step=1 / 3)
    assert grid.zeros[0][1:] == (1 / 3, 1 / 3, 1 / 3) and not grid.unique_ground_zero
    assert (cert.zero_count, cert.last_zero) == (1, (1.0, 0.0, 0.0, 0.0))
    assert cert.unique_ground_zero
    assert (cert.min_margin, cert.argmin) == (grid.min_margin, grid.argmin)
    # On a finer grid the grid's minimum moves onto that ray; the certificate
    # keeps the smallest margin among its candidates above the tolerance.
    cov = np.diag([1e-10, 1.0, 1.0])
    cert = ancilla_mixture_nogo_search(cov, grid_step=0.01)
    grid = grid_nogo_search(cov, grid_step=0.01)
    assert (grid.min_margin, grid.argmin) == (2e-12, (0.94, 0.02, 0.02, 0.02))
    assert cert.unique_ground_zero
    assert cert.min_margin == 0.5 * (1e-10 + 1.0) * 0.01
    assert cert.argmin == (0.99, 0.0, 0.01, 0.0)
    assert (cert.max_margin, cert.argmax) == (1.0, (0.0, 0.0, 0.0, 1.0))


def test_nogo_certificate_cost_does_not_grow_with_the_grid():
    tracemalloc.start()
    start = time.perf_counter()
    cert = ancilla_mixture_nogo_search(uncorrelated(1.0), grid_step=1e-6)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert cert.grid_step == 1e-6 and cert.unique_ground_zero
    assert cert.min_margin == pytest.approx(2e-6, rel=1e-12)
    assert elapsed < 0.1
    assert peak < 1 << 20


def test_nogo_certificate_counts_an_edge_of_zeros_without_listing_it():
    # With c22 = c33 = 0 the whole mu_pm = mu_mp = 0 edge is zero: 1e9 + 1
    # mixtures at step 1e-9, counted in bounded time and memory.
    tracemalloc.start()
    start = time.perf_counter()
    cert = ancilla_mixture_nogo_search(np.diag([1.0, 0.0, 0.0]), grid_step=1e-9)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (cert.zero_count, cert.last_zero) == (10**9 + 1, (0.0, 0.0, 0.0, 1.0))
    assert not cert.unique_ground_zero
    assert elapsed < 0.1
    assert peak < 1 << 20


def test_correlated_component_and_sector_index_share_the_sign_rule():
    messages = []
    for call in (
        lambda: CorrelatedComponent(1.0, (0, 0, 1), (2, 1)),
        lambda: sector_index(2, 1),
    ):
        with pytest.raises(ValueError, match=r"ancilla signs must be \+1 or -1") as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_correlated_mixture_all_ground_sector_is_flat():
    cov = random_psd(np.random.default_rng(12))
    comps = (
        CorrelatedComponent(0.5, (0.0, 0.7, 0.1), (+1, +1)),
        CorrelatedComponent(0.5, (0.2, -0.3, 0.5), (+1, +1)),
    )
    assert correlated_mixture_residuals(comps, cov) == pytest.approx((0.0, 0.0), abs=1e-14)


def test_correlated_mixture_engineered_cancellation():
    # Put weight on three excited sectors and solve for y and z contents that
    # null both first-order conditions, then verify through the pipeline.
    cov = np.diag([2.0, 3.0, 1.5])
    s_pm, s_mp, s_mm = (
        mixed_ancilla_slope_at_zero(sector_mixture(s2, s3), cov)
        for s2, s3 in ((+1, -1), (-1, +1), (-1, -1))
    )
    w = 1.0 / 3.0
    y_pm = y_mp = 0.2
    y_mm = -(s_pm + s_mp) * 0.2 / s_mm
    z_pm, z_mp = 0.3, -0.1
    z_mm = -(s_pm * 0.3 + s_mp * -0.1) / s_mm
    comps = (
        CorrelatedComponent(w, (0.0, y_pm, z_pm), (+1, -1)),
        CorrelatedComponent(w, (0.0, y_mp, z_mp), (-1, +1)),
        CorrelatedComponent(w, (0.0, y_mm, z_mm), (-1, -1)),
    )
    residuals = correlated_mixture_residuals(comps, cov)
    assert residuals == pytest.approx((0.0, 0.0), abs=1e-14)

    # Finite difference of the pipeline's output components at t = 0.
    config = PipelineConfig(channel=NoiseChannel(covariance=cov), ancillae=comps)

    def components(t):
        out = run_pipeline(config, t)
        return np.array([out.bloch_out.y, out.bloch_out.z])

    h = 1e-5
    fd = (-3 * components(0.0) + 4 * components(h) - components(2 * h)) / (2 * h)
    assert np.abs(fd).max() < 1e-6


def test_correlated_mixture_generic_residuals_match_pipeline_derivative():
    rng = np.random.default_rng(13)
    cov = random_psd(rng)
    comps = (
        CorrelatedComponent(0.6, (0.1, 0.5, 0.4), (+1, -1)),
        CorrelatedComponent(0.4, (0.0, -0.2, 0.7), (-1, -1)),
    )
    res_y, res_z = correlated_mixture_residuals(comps, cov)
    assert abs(res_y) > 1e-3 and abs(res_z) > 1e-3

    config = PipelineConfig(channel=NoiseChannel(covariance=cov), ancillae=comps)

    def components(t):
        out = run_pipeline(config, t)
        return np.array([out.bloch_out.y, out.bloch_out.z])

    h = 1e-5
    fd = (-3 * components(0.0) + 4 * components(h) - components(2 * h)) / (2 * h)
    assert fd[0] == pytest.approx(res_y, rel=1e-4)
    assert fd[1] == pytest.approx(res_z, rel=1e-4)


def test_correlated_mixture_weight_validation():
    cov = np.eye(3)
    with pytest.raises(ConfigError):
        correlated_mixture_residuals((), cov)
    with pytest.raises(ConfigError):
        correlated_mixture_residuals(
            (CorrelatedComponent(0.5, (0, 0, 1), (+1, +1)),), cov
        )
