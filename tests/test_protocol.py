import numpy as np
import pytest

from conftest import forward_derivative, random_psd
from triqec import noise, protocol
from triqec.analytics import survival_factor, uncorrected_decay
from triqec.diffusion import GradientDiffusionSpec
from triqec.gates import encoder, global_rotation, toffoli
from triqec.noise import (
    _EPS,
    FRAMES,
    NoiseChannel,
    apply_channel_analytic,
    apply_channel_mc,
    dephasing_factors,
    phase_stream,
    random_propagator,
    sample_phases,
    totally_correlated,
    uncorrelated,
)
from triqec.operators import (
    ANCILLA_SECTORS,
    PAULI,
    bloch_of,
    data_state_from_bloch,
    partial_trace_ancillae,
    polar_amplitudes,
)
from triqec.protocol import (
    AncillaMixture,
    ConfigError,
    CorrelatedComponent,
    GROUND_ANCILLAE,
    PipelineConfig,
    ancilla_mixture_nogo_search,
    correlated_mixture_residuals,
    evolve_corrected,
    initial_state,
    mixed_ancilla_slope_at_zero,
    mixed_ancilla_survival,
    run_pipeline,
    run_pipeline_mc,
    sector_slope_at_zero,
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
        PipelineConfig(channel=channel, alpha=1.0)  # beta missing
    with pytest.raises(ConfigError):
        PipelineConfig(channel=channel, alpha=1.0, beta=0.0, bloch=(0, 0, 1))
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
    assert bloch_of(partial_trace_ancillae(initial_state(config))).y == pytest.approx(0.5)


@pytest.mark.parametrize("basis_rotation,axis", [("none", "x"), ("y-pi/2", "z")])
def test_pipeline_is_identity_at_time_zero(basis_rotation, axis):
    cov = random_psd(np.random.default_rng(0))
    config = make_config(cov, bloch=BLOCH, axis=axis, basis_rotation=basis_rotation)
    result = run_pipeline(config, 0.0)
    reduced_in = partial_trace_ancillae(initial_state(config))
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
    rho0 = initial_state(config)
    enc = encoder()
    rot = global_rotation("y", np.pi / 2) if basis_rotation == "y-pi/2" else np.eye(8)
    t = 0.7
    for seed in range(64):
        chi = phase_stream(cov, t, seed, 1)[0]
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
    state = pre @ initial_state(config) @ pre.conj().T
    observable = np.kron(BLOCH[1] * PAULI["y"] + BLOCH[2] * PAULI["z"], np.eye(4))
    weight = BLOCH[1] ** 2 + BLOCH[2] ** 2
    contraction = ((post.conj().T @ observable @ post).T * state).ravel() / weight
    t = 0.6
    for seed, samples in [(0, 5000), (3, 9000), (17, 100)]:
        phases = np.exp(-1j * phase_stream(cov, t, seed, samples) @ _EPS.T)
        per_sample = (phases @ contraction).real
        mean = phases.mean(axis=0).reshape(8, 8)
        reduced = partial_trace_ancillae(post @ (mean * state) @ post.conj().T)
        result = run_pipeline_mc(config, t, samples, seed)
        assert abs(result.survival - per_sample.mean()) < 1e-13
        assert abs(result.survival_stderr - per_sample.std(ddof=1) / np.sqrt(samples)) < 1e-13
        assert np.abs(result.reduced - reduced).max() < 1e-13


def test_monte_carlo_routes_never_evaluate_the_gaussian_average(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Monte Carlo route evaluated the Gaussian average")

    monkeypatch.setattr(noise, "dephasing_factors", forbidden)
    monkeypatch.setattr(protocol, "dephasing_factors", forbidden)
    cov = uncorrelated(0.5)
    for axis in ("x", "z"):
        channel = NoiseChannel(covariance=cov, axis=axis, kind="monte-carlo", samples=3000, seed=1)
        config = PipelineConfig(channel=channel, bloch=BLOCH)
        run_pipeline_mc(config, 0.3, samples=3000, seed=1, workers=2)
        run_pipeline(config, 0.3)  # dispatches to the Monte Carlo route
        apply_channel_mc(np.eye(8) / 8, channel, 0.3)
    with pytest.raises(AssertionError, match="Gaussian average"):  # the guard is live
        run_pipeline(make_config(cov, bloch=BLOCH), 0.3)


def test_constant_gates_are_cached_read_only():
    pre, post = protocol._conjugators(True, "y-pi/2", "z")
    again = protocol._conjugators(True, "y-pi/2", "z")
    assert again[0] is pre and again[1] is post
    frame_pre, frame_post = protocol._conjugators(False, "none", "x")
    assert frame_pre is FRAMES["x"]
    for gate in (pre, post, frame_pre, frame_post, protocol._sector_projector(1, -1)):
        with pytest.raises(ValueError):
            gate[0, 0] = 0.0


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "entry_point",
    [
        lambda t: survival_factor(uncorrelated(0.389), t),
        lambda t: survival_factor(uncorrelated(0.389), np.array([0.0, t])),
        lambda t: uncorrected_decay(uncorrelated(0.389), t),
        lambda t: dephasing_factors(np.eye(3), t),
        lambda t: apply_channel_analytic(np.eye(8) / 8, np.eye(3), t),
        lambda t: sample_phases(np.eye(3), t, np.random.default_rng(0)),
        lambda t: run_pipeline(make_config(np.eye(3), bloch=BLOCH), t),
        lambda t: run_pipeline_mc(make_config(np.eye(3), bloch=BLOCH), t, samples=10, seed=0),
        lambda t: evolve_corrected(np.eye(8) / 8, np.eye(3), t),
    ],
    ids=[
        "survival_factor",
        "survival_factor_array",
        "uncorrected_decay",
        "dephasing_factors",
        "apply_channel_analytic",
        "sample_phases",
        "run_pipeline",
        "run_pipeline_mc",
        "evolve_corrected",
    ],
)
def test_entry_points_reject_bad_times(entry_point, bad):
    with pytest.raises(ValueError, match="time must be finite and >= 0"):
        entry_point(bad)


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda v: AncillaMixture(v, 0.0, 0.0, 0.0), "mu_pp"),
        (lambda v: AncillaMixture(1.0, 0.0, 0.0, v), "mu_mm"),
        (lambda v: CorrelatedComponent(v, (0.0, 0.0, 1.0), (+1, +1)), "weight"),
        (lambda v: CorrelatedComponent(1.0, (0.0, v, 0.0), (+1, +1)), "Bloch"),
        (lambda v: data_state_from_bloch((0.0, v, 0.0)), "Bloch"),
        (lambda v: make_config(np.eye(3), bloch=(0.0, v, 0.0)), "Bloch"),
        (lambda v: make_config(np.eye(3), alpha=v, beta=0.0), "alpha"),
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
    rng = np.random.default_rng(3)
    cov = random_psd(rng)
    rho1 = initial_state(make_config(cov, bloch=(0, 0.8, 0.6)))
    rho2 = initial_state(make_config(cov, bloch=(0.5, -0.5, 0.2)))
    mixed = 0.25 * rho1 + 0.75 * rho2
    t = 0.8
    lhs = evolve_corrected(mixed, cov, t)
    rhs = 0.25 * evolve_corrected(rho1, cov, t) + 0.75 * evolve_corrected(rho2, cov, t)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_z_axis_noise_with_basis_rotation_is_protected():
    rng = np.random.default_rng(4)
    cov = random_psd(rng)
    config = make_config(cov, bloch=BLOCH, axis="z", basis_rotation="y-pi/2")
    for t in (0.15, 0.6, 1.4):
        result = run_pipeline(config, t)
        assert result.survival == pytest.approx(survival_factor(cov, t), abs=1e-9)


def test_pipeline_survival_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        cov = random_psd(rng)
        config = make_config(cov, alpha=polar_amplitudes(1.2, 0.3)[0], beta=polar_amplitudes(1.2, 0.3)[1])
        for t in rng.uniform(0.0, 3.0, size=4):
            result = run_pipeline(config, float(t))
            assert abs(result.survival) <= 1 + 1e-12


def test_run_pipeline_dispatches_on_channel_kind():
    cov = uncorrelated(0.5)
    channel = NoiseChannel(covariance=cov, kind="monte-carlo", samples=4000, seed=11)
    config = PipelineConfig(channel=channel, bloch=(0.0, 0.0, 1.0))
    via_run = run_pipeline(config, 0.3)
    via_mc = run_pipeline_mc(config, 0.3, samples=4000, seed=11)
    assert via_run.survival == via_mc.survival
    assert via_run.survival_stderr == via_mc.survival_stderr


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


def test_corrected_deficit_is_second_order_uncorrected_first_order():
    tau = 1.0
    cov = totally_correlated(tau)
    config = make_config(cov, bloch=(0.0, 0.0, 1.0))
    h = 0.01 * tau
    corrected_deficit = 1.0 - run_pipeline(config, h).survival
    uncorrected_deficit = 1.0 - uncorrected_decay(cov, h)
    assert uncorrected_deficit >= 10 * corrected_deficit
    # Quadratic scaling: shrinking h by 10 shrinks the deficit by ~100.
    smaller = 1.0 - run_pipeline(config, h / 10).survival
    assert corrected_deficit / smaller == pytest.approx(100.0, rel=0.1)


def test_sector_survival_ground_sector_is_the_survival_factor():
    # The sector-aware survival_factor defaults to the ground sector, and each
    # other sector flips the signs of its single-spin and three-spin terms.
    rng = np.random.default_rng(6)
    cov = random_psd(rng)
    for t in (0.0, 0.3, 1.1):
        ground = survival_factor(cov, t)
        assert survival_factor(cov, t, +1, +1) == ground
        f1, f2, f3 = (np.exp(-0.5 * t * cov[j, j]) for j in range(3))
        triple = f1 + f2 + f3 - 2 * ground
        for s2, s3 in ANCILLA_SECTORS:
            expected = 0.5 * (f1 + s2 * f2 + s3 * f3 - s2 * s3 * triple)
            assert survival_factor(cov, t, s2, s3) == pytest.approx(expected, abs=1e-14)
    with pytest.raises(ValueError, match="signs"):
        survival_factor(cov, 0.3, 0, +1)


def test_mixed_ancilla_survival_reduces_to_pure_case():
    rng = np.random.default_rng(7)
    cov = random_psd(rng)
    for t in (0.0, 0.4, 1.3):
        assert mixed_ancilla_survival(GROUND_ANCILLAE, cov, t) == pytest.approx(
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


def test_mixture_slope_formula_closed_cases():
    rng = np.random.default_rng(9)
    cov = random_psd(rng)
    c11, c22, c33 = cov[0, 0], cov[1, 1], cov[2, 2]
    assert mixed_ancilla_slope_at_zero(GROUND_ANCILLAE, cov) == pytest.approx(0.0, abs=1e-14)
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
    assert cert.zeros == ((1.0, 0.0, 0.0, 0.0),)
    assert cert.min_margin > 0
    assert cert.max_margin >= cert.min_margin


def test_nogo_search_vertices_only_grid():
    cov = uncorrelated(1.0)
    cert = ancilla_mixture_nogo_search(cov, grid_step=1.0)
    # Four vertices: the ground one is the single zero, the other three have
    # margins equal to the magnitudes of their slopes.
    assert cert.zeros == ((1.0, 0.0, 0.0, 0.0),)
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
    for step in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="grid_step"):
            ancilla_mixture_nogo_search(np.eye(3), grid_step=step)


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
    s_pm = sector_slope_at_zero(cov, +1, -1)
    s_mp = sector_slope_at_zero(cov, -1, +1)
    s_mm = sector_slope_at_zero(cov, -1, -1)
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
