"""Derandomized property tests of the decay law, the exact channel, the Monte Carlo kernel
and the input validators."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import sector_mixture, validate_density_matrix
from triqec.analytics import survival_factor
from triqec.noise import (
    BLOCK,
    NoiseChannel,
    _checked,
    apply_channel,
    phase_scaled,
    validate_covariance,
    validate_integer,
    validate_seed,
)
from triqec.protocol import PipelineConfig, mixed_ancilla_survival, run_pipeline, run_pipeline_mc

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

entries = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def covariances(draw):
    """A positive semidefinite a a^T of rank 1 to 3."""
    rank = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(entries, min_size=3 * rank, max_size=3 * rank)))
    return a.reshape(3, rank) @ a.reshape(3, rank).T


@st.composite
def density_matrices(draw):
    """g g^dagger / tr of a complex 8 x r matrix g, r = 1 (pure) to 8 (full rank)."""
    rank = draw(st.integers(1, 8))
    parts = np.array(draw(st.lists(entries, min_size=16 * rank, max_size=16 * rank)))
    g = (parts[: 8 * rank] + 1j * parts[8 * rank :]).reshape(8, rank)
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


@st.composite
def bloch_vectors(draw):
    """A Bloch vector of length at most 1."""
    b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = np.linalg.norm(b)
    return tuple(b / norm) if norm > 1 else tuple(b)


@PROPERTY
@given(cov=covariances())
def test_survival_is_exactly_one_at_time_zero(cov):
    assert survival_factor(cov, 0.0) == 1.0


@PROPERTY
@given(cov=covariances(), x=st.floats(1e-5, 1e-2))
def test_decay_is_quadratic_at_the_origin(cov, x):
    # 1 - S(h) <= h^2 (tr C)^2 / 2 at h = x / tr C: the decay has no linear
    # term, so (1 - S(h)) / h vanishes as h shrinks.  (The library states the
    # first derivative as 0.0 outright; this checks the decay law itself.)
    trace = float(np.trace(cov))
    assume(trace > 1e-100)
    h = x / trace
    decay = 1.0 - survival_factor(cov, h)
    assert -1e-15 <= decay <= 0.5 * x**2 + 1e-15


@PROPERTY
@given(
    cov=covariances(),
    t=st.floats(0.0, 20.0),
    sign2=st.sampled_from([1, -1]),
    sign3=st.sampled_from([1, -1]),
)
def test_swapping_the_ancillae_leaves_the_survival_unchanged(cov, t, sign2, sign3):
    # Relabeling spins 2 and 3 swaps their covariance rows and columns and
    # their ancilla signs, so mu_pm and mu_mp.
    swap = [0, 2, 1]
    swapped = mixed_ancilla_survival(sector_mixture(sign3, sign2), cov[np.ix_(swap, swap)], t)
    assert abs(swapped - mixed_ancilla_survival(sector_mixture(sign2, sign3), cov, t)) <= 1e-14


@PROPERTY
@given(
    rho=density_matrices(),
    cov=covariances(),
    t=st.floats(0.0, 20.0),
    axis=st.sampled_from(["x", "z"]),
)
def test_exact_channel_maps_states_to_states(rho, cov, t, axis):
    # Hermitian, unit trace and positive semidefinite (within STATE_TOL).
    validate_density_matrix(apply_channel(rho, NoiseChannel(cov, axis), t))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    cov=covariances(),
    bloch=bloch_vectors(),
    axis=st.sampled_from(["x", "z"]),
    correction=st.booleans(),
    samples=st.integers(1, 2 * BLOCK + 3),
    seed=st.integers(0, 2**63),
)
def test_monte_carlo_at_time_zero_is_the_identity(cov, bloch, axis, correction, samples, seed):
    # At t = 0 every phase is 0, so one trajectory stands for all: the Monte
    # Carlo factor table is all ones, as the exact one, and the standard
    # error is exactly 0.  The sum's rounding, its distance from 1, scales as
    # 1 / (y^2 + z^2), the weight divided by.
    channel = NoiseChannel(covariance=cov, axis=axis)
    config = PipelineConfig(channel=channel, bloch=bloch, correction=correction)
    result = run_pipeline_mc(config, 0.0, samples, seed)
    weight = result.bloch_in.y**2 + result.bloch_in.z**2
    assume(weight > 0)
    assert np.array_equal(result.reduced, run_pipeline(config, 0.0).reduced)
    assert abs(result.survival - 1.0) * weight <= 1e-14
    assert result.survival_stderr == 0.0


@PROPERTY
@given(cov=covariances())
def test_a_checked_covariance_is_accepted_as_is(cov):
    checked = validate_covariance(cov)
    assert validate_covariance(checked) is checked
    assert np.array_equal(checked, cov)


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cov=covariances())
def test_a_copy_shares_the_check_and_a_one_ulp_change_is_checked_again(eigvalsh_calls, cov):
    _checked.cache_clear()  # hypothesis may repeat an example
    checked = validate_covariance(cov)
    eigvalsh_calls.clear()
    assert validate_covariance(checked.copy()) is checked
    assert eigvalsh_calls == []
    nudged = cov.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)  # a larger variance stays PSD
    again = validate_covariance(nudged)
    assert len(eigvalsh_calls) == 1
    assert again is not checked and np.array_equal(again, nudged)


@PROPERTY
@given(t=st.floats(0.0, allow_infinity=False) | st.lists(st.floats(0.0, 1e300), max_size=5))
def test_validate_time_returns_its_argument(t):
    # phase_scaled's time check; a zero covariance leaves the times unscaled.
    times = phase_scaled(np.zeros((3, 3)), t)[1]
    assert type(times) is (float if isinstance(t, float) else np.ndarray)
    assert np.array_equal(times, np.asarray(t, dtype=float))


@PROPERTY
@given(n=st.integers(-(2**63), 2**63 - 1))
def test_validate_integer_returns_the_python_int(n):
    count = validate_integer(np.int64(n), "n")
    assert type(count) is int and count == n


@PROPERTY
@given(seed=st.integers(0, 2**128) | st.builds(np.random.SeedSequence, st.integers(0, 2**128)))
def test_validate_seed_returns_the_seed_as_given(seed):
    checked = validate_seed(seed)
    if isinstance(seed, np.random.SeedSequence):
        assert checked is seed
    else:
        assert type(checked) is int and checked == seed
