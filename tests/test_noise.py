import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm
from scipy.special import ndtr

from conftest import (
    mc_channel,
    random_density,
    random_propagator,
    random_psd,
    reference_normals,
    reference_stream,
    trajectory_phases,
)
from triqec import noise
from triqec.noise import (
    _EPS,
    _FACTOR_MAP,
    _FEATURES,
    _MONOMIAL_ROWS,
    _REGISTRY_SIZE,
    _RIGHT,
    _ROWS,
    BLOCK,
    FRAMES,
    CovarianceError,
    NoiseChannel,
    _block_sums,
    _checked,
    _normals,
    _phase_loading,
    apply_channel,
    dephase,
    dephasing_factors,
    mean_phases,
    phase_scaled,
    totally_correlated,
    uncorrelated,
    validate_covariance,
)
from triqec.operators import IDENTITY8, angular_momentum, idempotent
from triqec.protocol import PipelineConfig, run_pipeline_mc


def mc_config(cov):
    return PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))


def test_validate_covariance_accepts_psd():
    validate_covariance(np.eye(3))
    validate_covariance(np.full((3, 3), 2.0))
    validate_covariance(np.zeros((3, 3)))


def test_validate_covariance_rejects_asymmetric():
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(CovarianceError, match="symmetric"):
        validate_covariance(bad)


def test_validate_covariance_rejects_negative_variance():
    with pytest.raises(CovarianceError, match="negative"):
        validate_covariance(np.diag([-1.0, 1.0, 1.0]))


def test_validate_covariance_rejects_cauchy_schwarz_violation():
    bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(CovarianceError, match="Cauchy-Schwarz"):
        validate_covariance(bad)


def test_validate_covariance_names_offending_eigenvalue():
    # Entries pass the pairwise bound but the matrix is indefinite.
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(CovarianceError, match="eigenvalue"):
        validate_covariance(bad)


def test_validate_covariance_does_not_overflow_at_huge_scale():
    # sqrt(c_jj c_kk) of the raw entries would overflow; the checks run in
    # units of the largest entry instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(validate_covariance(np.eye(3) * 1e300), np.eye(3) * 1e300)
        validate_covariance(np.full((3, 3), 1.7e308))
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) * 1e300
        with pytest.raises(CovarianceError, match="Cauchy-Schwarz"):
            validate_covariance(bad)
        indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]) * 1.7e308
        with pytest.raises(CovarianceError, match="eigenvalue"):
            validate_covariance(indefinite)


def test_checked_covariance_is_immutable_and_accepted_as_is():
    raw = random_psd(np.random.default_rng(2))
    c = validate_covariance(raw)
    assert validate_covariance(c) is c
    assert np.array_equal(c, raw) and c is not raw
    channel = NoiseChannel(covariance=c)
    assert channel.covariance is c
    for target in (c, c.base, NoiseChannel(covariance=raw).covariance):
        with pytest.raises(ValueError):
            target[0] = 7.0
        with pytest.raises(ValueError):
            target.setflags(write=True)
    raw[0, 0] = 7.0  # the caller's array is not the checked copy
    assert c[0, 0] != 7.0


def test_arrays_derived_from_a_checked_covariance_are_checked_by_value(eigvalsh_calls):
    # Equal values share one checked copy; other values run every check.
    c = validate_covariance(np.eye(3))
    with pytest.raises(CovarianceError, match="negative"):
        validate_covariance(-c)
    for derived in (c.copy(), c[:]):
        eigvalsh_calls.clear()
        assert validate_covariance(derived) is c
        assert eigvalsh_calls == []
    checked = validate_covariance(2 * c)
    assert np.array_equal(checked, 2 * np.eye(3)) and len(eigvalsh_calls) == 1


def test_equal_covariances_share_one_checked_copy(eigvalsh_calls):
    # A list, ints and float32 with the same float64 values are one entry.
    c = validate_covariance(np.eye(3))
    for same in (np.eye(3).tolist(), np.eye(3, dtype=int), np.eye(3, dtype=np.float32)):
        assert validate_covariance(same) is c
    assert len(eigvalsh_calls) == 1 and _checked.cache_info().currsize == 1


def test_a_caller_array_changed_in_place_is_checked_again(eigvalsh_calls):
    raw = random_psd(np.random.default_rng(4))
    validate_covariance(raw)
    raw[:] = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]  # within Cauchy-Schwarz
    with pytest.raises(CovarianceError, match="not positive semidefinite"):
        NoiseChannel(covariance=raw)
    assert len(eigvalsh_calls) == 2


def test_a_failing_covariance_fails_on_every_call(eigvalsh_calls):
    indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    for _ in range(3):
        with pytest.raises(CovarianceError, match="not positive semidefinite"):
            validate_covariance(indefinite)
    assert len(eigvalsh_calls) == 3 and _checked.cache_info().currsize == 0


def test_the_registry_keeps_its_bound_and_checks_an_evicted_covariance_again(eigvalsh_calls):
    first = np.eye(3)
    validate_covariance(first)
    for k in range(10_000):
        validate_covariance(np.diag([1.0, 1.0, 2.0 + k]))
    assert _checked.cache_info().currsize == _REGISTRY_SIZE
    assert len(eigvalsh_calls) == 10_001
    eigvalsh_calls.clear()
    validate_covariance(first)  # dropped as the least recently used entry
    assert len(eigvalsh_calls) == 1


def test_noise_channel_validation():
    with pytest.raises(ValueError):
        NoiseChannel(covariance=np.eye(3), axis="y")
    with pytest.raises(ValueError):
        NoiseChannel(covariance=np.eye(3), kind="monte-carlo")  # samples missing
    NoiseChannel(covariance=np.eye(3), kind="monte-carlo", samples=1)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"kind": "monte-carlo", "samples": 1e3}, "samples"),
        ({"kind": "monte-carlo", "samples": 0}, "samples"),
        ({"samples": 0}, "samples"),
        ({"samples": -5}, "samples"),
        ({"samples": "many"}, "samples"),
        ({"samples": 1.5}, "samples"),
        ({"kind": "monte-carlo", "samples": sys.maxsize + 1}, "samples"),
        ({"samples": 10**30}, "samples"),
        ({"kind": "monte-carlo", "samples": True}, "samples"),
        ({"kind": "monte-carlo", "samples": np.True_}, "samples"),
    ],
    # Explicit ids keep the names these cases ran under before the workers
    # cases (kwargs0, kwargs1, kwargs12, kwargs13) were dropped.
    ids=[f"kwargs{i}-samples" for i in range(2, 12)],
)
def test_noise_channel_rejects_bad_counts(kwargs, name):
    with pytest.raises(ValueError, match=name):
        NoiseChannel(covariance=np.eye(3), **kwargs)


@pytest.mark.parametrize("seed", [-1, None, 1.5, "3", np.random.default_rng(0), True, np.True_])
def test_monte_carlo_seed_is_checked_where_it_enters(seed):
    with pytest.raises(ValueError, match="seed"):
        NoiseChannel(covariance=np.eye(3), kind="monte-carlo", samples=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        run_pipeline_mc(mc_config(np.eye(3)), 0.3, 10, seed)


def test_monte_carlo_seed_accepts_integers_and_seed_sequences():
    channel = NoiseChannel(covariance=np.eye(3), kind="monte-carlo", samples=10, seed=np.int64(5))
    assert type(channel.seed) is int and channel.seed == 5
    sequence = np.random.SeedSequence([5, 1])
    assert NoiseChannel(covariance=np.eye(3), seed=sequence).seed is sequence
    weights = np.arange(64.0).reshape(8, 8)
    runs = [mean_phases(mc_channel(np.eye(3), 10, s), 0.3, weights) for s in (5, np.int64(5))]
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]
    mean_phases(mc_channel(np.eye(3), 10, sequence), 0.3)


def test_mean_phases_adds_the_block_sums_in_stream_order():
    # Reference: the package's own normals, drawn one BLOCK at a time from
    # the seeded generator as one row per direction of the loading, each
    # block's sums taken, the sums added in order and mapped to the factor
    # table once.
    cov, t, seed, n = random_psd(np.random.default_rng(8)), 0.3, 4, 3 * BLOCK + 5
    rng, buffer = np.random.Generator(np.random.SFC64(seed)), np.empty(9 * BLOCK // 2)
    half = 0.5 * _phase_loading(cov, t)
    total = 0
    for start in range(0, n, BLOCK):
        size = min(BLOCK, n - start)
        block = _normals(rng, 3 * size, buffer).reshape(3, size)
        total = total + _block_sums(block, half, np.empty((_ROWS, size)), None)
    expected = (_FACTOR_MAP @ (total / n)).reshape(8, 8)
    table, estimate = mean_phases(mc_channel(cov, n, seed), t)
    assert np.array_equal(table, expected) and estimate is None
    with pytest.raises(ValueError, match="workers"):
        run_pipeline_mc(mc_config(cov), t, n, seed, workers=0)
    with pytest.raises(ValueError, match="samples"):
        run_pipeline_mc(mc_config(cov), t, 1e3, seed)


def test_box_muller_normals_are_standard_normal():
    # 2^20 normals of one draw.  The bounds were fixed before the test was
    # run: |mean| <= 5 / sqrt(N); the sample variance inside the chi-square
    # 1e-6 and 1 - 1e-6 quantiles (chi2(N - 1) / (N - 1)); the Kolmogorov-
    # Smirnov distance to N(0, 1) below its 1e-4 critical value (scipy's
    # kstwo.isf(1e-4, N)); and each pair's (r cos, r sin), the normals i and
    # m + i, correlated by at most 5 / sqrt(N / 2).
    n = 2**20
    x = _normals(np.random.Generator(np.random.SFC64(2026)), n, np.empty(3 * n // 2))
    assert abs(x.mean()) <= 5 / np.sqrt(n)
    assert 0.993448919336969 <= x.var(ddof=1) <= 1.0065785401986271
    cdf = ndtr(np.sort(x))
    steps = np.arange(n + 1) / n
    assert max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()) < 0.0021729372167971855
    cosines, sines = x.reshape(2, -1)
    assert abs(np.corrcoef(cosines, sines)[0, 1]) <= 5 / np.sqrt(n / 2)


def test_box_muller_normals_match_the_cos_sin_oracle():
    # The stream's half-angle tangents against np.cos and np.sin of 2 pi v,
    # on the same uniforms, over two full blocks and a short one, each block
    # laid out as one row of normals per direction.
    rng, buffer = np.random.Generator(np.random.SFC64(9)), np.empty(9 * BLOCK // 2)
    blocks = [_normals(rng, 3 * n, buffer).reshape(3, n).T.copy() for n in (BLOCK, BLOCK, 7)]
    assert np.abs(np.concatenate(blocks) - reference_normals(9, 2 * BLOCK + 7)).max() <= 1e-14


def test_box_muller_edge_uniforms_give_finite_normals():
    # The extreme uniforms: u = 0 gives r = 0, u = 1 - 2^-53 the largest
    # radius sqrt(106 ln 2); v = 0.5 puts tan(pi v) near 1.6e16.  No warning
    # may be raised and every normal must be the oracle's.
    top = 1.0 - 2.0**-53
    u, v = np.repeat([0.0, top], 3), np.tile([0.0, 0.5, top], 2)

    class Edges:
        def random(self, out):
            out[:] = np.concatenate([u, v])
            return out

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        normals = _normals(Edges(), 12, np.empty(18))
    r = np.sqrt(-2.0 * np.log(1.0 - u))
    expected = np.concatenate([r * np.cos(2 * np.pi * v), r * np.sin(2 * np.pi * v)])
    assert np.isfinite(normals).all() and np.abs(normals - expected).max() <= 1e-14
    assert normals.max() == pytest.approx(np.sqrt(106 * np.log(2)), rel=1e-15)


def kernel_weights(weights) -> np.ndarray:
    """``mean_phases``' (3, 9) survival weights of an 8x8 table of element weights.

    As there, the noiseless survival Re sum(weights) is taken off the
    constant monomial's weight, so the kernel sums each trajectory's deviation
    from it.
    """
    w = np.asarray(weights, dtype=complex).ravel()
    folded = (w @ _FACTOR_MAP).real.reshape(9, 3)
    folded[_MONOMIAL_ROWS[-1], 2] -= w.sum().real
    return np.ascontiguousarray(folded.T)


def trajectory_sums(normals, half) -> np.ndarray:
    """The kernel's 27 sums of the one trajectory of these (r,) normals."""
    slot = np.empty((_ROWS, 1))
    return _block_sums(np.reshape(normals, (-1, 1)), half, slot, None)


def test_factor_map_takes_the_products_to_the_element_factors():
    # Each factor exp(-i eps . chi), expanded into monomials of the spins'
    # cos and sin, is its map row (entries 0, +-1 and +-i) times the
    # trajectory's sums; an element weight table W folds into the survival
    # weights Re(W @ map).  At ranks 1-3, through the loading, and with an
    # identity loading at odd multiples of pi, where tan(chi / 2) is about
    # 1e16.  Every one of the 27 sums is read by some factor.
    parts = np.stack([_FACTOR_MAP.real, _FACTOR_MAP.imag])
    assert _FACTOR_MAP.shape == (64, 27) and _FACTOR_MAP.any(axis=0).all()
    assert set(parts.ravel()) == {-1.0, 0.0, 1.0} and (np.abs(parts).sum(axis=0) <= 1).all()
    rng = np.random.default_rng(12)
    for case in (1, 2, 3, "odd-pi"):
        if case == "odd-pi":
            half, normals = 0.5 * np.eye(3), np.pi * (2 * rng.integers(-2, 2, size=(200, 3)) + 1)
        else:
            cov = random_psd(rng, rank=case)
            half = 0.5 * _phase_loading(cov / np.trace(cov), 4.0)
            assert half.shape == (3, case)
            normals = rng.standard_normal((200, case))
        weights = rng.normal(size=(200, 64)) + 1j * rng.normal(size=(200, 64))
        for normal, w in zip(normals, weights):
            sums = trajectory_sums(normal, half)
            factors = trajectory_phases(2 * half @ normal).ravel()
            assert np.abs(_FACTOR_MAP @ sums - factors).max() <= 1e-14, case
            assert abs((w @ _FACTOR_MAP).real @ sums - (w * factors).sum().real) <= 1e-12


def kernel_factors(chis) -> np.ndarray:
    """The kernel's 64 factors of each trajectory of the phases ``chis``, (n, 64) complex.

    One block of all the trajectories, through an identity loading (so the
    kernel's chi / 2 is exactly half of chis); each trajectory's factors are
    the map times its column of the feature rows times [cos chi1, sin chi1, 1].
    """
    chis = np.asarray(chis, dtype=float)
    slot = np.empty((_ROWS, len(chis)))
    _block_sums(np.ascontiguousarray(chis.T), 0.5 * np.eye(3), slot, None)
    products = np.einsum("fn,an->nfa", slot[_FEATURES], slot[_RIGHT]).reshape(len(chis), 27)
    return products @ _FACTOR_MAP.T


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pair_phasors_match_the_pair_angles(rank):
    # The kernel multiplies the spins' cos and sin instead of taking
    # exp(-i eps . chi); the two differ by rounding, which grows with |chi|
    # only on the angle side (the rounding of the sum eps . chi).
    rng = np.random.default_rng(30 + rank)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        cov = random_psd(rng, rank=rank)
        chis = reference_stream(cov / np.trace(cov), scale**2, rank, 2000)
        error = np.abs(kernel_factors(chis) - trajectory_phases(chis).reshape(-1, 64))
        bound = 1e-15 * (1 + np.abs(chis).sum(axis=1))
        assert (error.max(axis=1) <= bound).all(), scale


@pytest.mark.parametrize("magnitude", ["odd-pi", "huge"])
def test_pair_phasors_stay_finite_where_the_half_angle_tangent_is_large(magnitude):
    # At odd multiples of pi, tan(chi / 2) is about 1e16; far out it is
    # whatever the argument reduction gives.  Both must still give the
    # factors within the bound of test_pair_phasors_match_the_pair_angles,
    # and finite block sums.
    rng = np.random.default_rng(41)
    if magnitude == "odd-pi":
        chis = np.pi * (2 * rng.integers(-50, 50, size=(500, 3)) + 1)
    else:
        chis = rng.choice([-1.0, 1.0], size=(500, 3)) * 10.0 ** rng.uniform(0, 300, size=(500, 3))
        chis[:3] = [[1e300, -1e300, np.pi], [-np.pi, 1e300, 0.0], [1e-300, 3 * np.pi, -1e300]]
    factors = kernel_factors(chis)
    assert np.isfinite(factors).all()
    error = np.abs(factors - trajectory_phases(chis).reshape(-1, 64))
    bound = 1e-15 * (1 + np.abs(chis).sum(axis=1))
    assert (error.max(axis=1) <= bound).all()
    slot = np.empty((_ROWS, len(chis)))
    sums = _block_sums(np.ascontiguousarray(chis.T), 0.5 * np.eye(3), slot, None)
    assert np.isfinite(sums).all()


#: The elements whose factor is one spin's cos chi_k -+ i sin chi_k.
ONE_SPIN = np.count_nonzero(_EPS, axis=1) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(chis=arrays(float, (5, 3), elements=st.floats(-1e300, 1e300)))
def test_spin_phasors_have_unit_modulus(chis):
    # Wherever the half-angle tangent lands, however large |chi|, each spin's
    # cos and sin (its one-spin factors) are finite with cos^2 + sin^2 = 1,
    # and so every factor, a product of up to three, has modulus 1.
    tables = np.array([_FACTOR_MAP @ trajectory_sums(chi, 0.5 * np.eye(3)) for chi in chis])
    assert np.isfinite(tables).all()
    spins = tables[:, ONE_SPIN]
    assert np.abs(spins.real**2 + spins.imag**2 - 1.0).max() <= 1e-15
    assert np.abs(np.abs(tables) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("n", [BLOCK, 1000])
def test_block_sums_and_statistics_match_the_trajectory_oracle(n):
    # A block's sums map to the sums of its trajectories' factors: each
    # factor within 1e-14 of the oracle's, plus the rounding of two length-n
    # sums of terms of modulus <= 1 ((n + 8) n eps).  Its last two entries
    # are the sum and the sum of squares of the deviations d = v - v0 of the
    # survivals v = Re sum(W * factors) from the noiseless v0 = Re sum(W):
    # the mean of d within 64 eps of the oracle's per trajectory times W's
    # absolute sum, d . d within a relative 1e-10.
    rng = np.random.default_rng(50 + n)
    half = 0.5 * _phase_loading(random_psd(rng), 2.0)
    weights = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    normals = rng.standard_normal((3, n))
    slot = np.empty((_ROWS, n))
    sums = _block_sums(normals, half, slot, kernel_weights(weights))
    factors = trajectory_phases((2 * half @ normals).T).reshape(n, 64)
    difference = _FACTOR_MAP @ sums[:27] - factors.sum(axis=0)
    bound = n * 1e-14 + (n + 8) * n * np.finfo(float).eps
    assert np.abs(difference.real).max() <= bound and np.abs(difference.imag).max() <= bound
    deviations = (factors @ weights.ravel()).real - weights.sum().real
    scale = 64 * np.finfo(float).eps * np.abs(weights).sum()
    assert sums.shape == (29,) and abs(sums[27] / n - deviations.mean()) <= scale
    assert sums[28] == pytest.approx(deviations @ deviations, rel=1e-10)


def test_block_sums_allocate_nothing():
    # Every row of a block, from the phases to the survivals' deviations, is
    # written in place into its slot, whose head holds the normals as the
    # stream draws them: any temporary of a row or more (np.tan(0.5 * chis)
    # would make three, a copy of the normals one) exceeds this peak, and so
    # does a 64 KB ufunc iteration buffer.
    rng = np.random.default_rng(2)
    weights = kernel_weights(rng.normal(size=(8, 8)))
    for rank, n in itertools.product((1, 3), (BLOCK, 1000)):
        half = 0.5 * _phase_loading(random_psd(rng, rank=rank), 0.5)
        slot = np.empty((_ROWS, n))
        normals = slot.reshape(-1)[: rank * n].reshape(rank, n)
        normals[:] = rng.standard_normal((rank, n))
        _block_sums(normals, half, slot, weights)  # warm up
        normals[:] = rng.standard_normal((rank, n))
        tracemalloc.start()
        try:
            _block_sums(normals, half, slot, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK * 8, (rank, n)


def test_phase_loading_keeps_each_direction_above_the_variance_floor():
    # One column per eigen-direction of C*t with a phase variance above
    # 1e-12 rad^2.  The floor is absolute: a 1e3 rad^2 direction beside a
    # 1e15 one is kept, and exactly 1e-12 is dropped.
    loading = _phase_loading(np.diag([1e15, 1e3, 0.0]), 1.0)
    assert loading.shape == (3, 2)
    assert np.diag(loading @ loading.T) == pytest.approx([1e15, 1e3, 0.0], rel=1e-15)
    assert _phase_loading(np.diag([2e-12, 1e-12, 0.0]), 1.0).shape == (3, 1)
    for cov, t, rank in [
        (totally_correlated(0.389), 0.4, 1),
        (np.diag([1.0, 1.0, 0.0]), 0.4, 2),
        (uncorrelated(0.304), 0.4, 3),
        (uncorrelated(0.304), 0.0, 0),
        (np.zeros((3, 3)), 0.4, 0),
    ]:
        loading = _phase_loading(cov, t)
        assert loading.shape == (3, rank)
        assert np.abs(loading @ loading.T - cov * t).max() <= 1e-14 * max(1.0, cov.max() * t)


def test_a_stream_draws_one_normal_per_direction_of_its_noise(monkeypatch):
    # r normals per trajectory for a C*t of rank r: 1 for the totally
    # correlated model, 3 for the uncorrelated one, and none at rank 0
    # (t = 0 or C = 0), where one trajectory stands for all.
    counts, draw = [], noise._normals

    def recording(rng, count, buffer):
        counts.append(count)
        return draw(rng, count, buffer)

    monkeypatch.setattr(noise, "_normals", recording)
    n = BLOCK + 5
    for cov, t, rank in [
        (totally_correlated(0.389), 0.4, 1),
        (np.diag([1.0, 1.0, 0.0]), 0.4, 2),
        (uncorrelated(0.304), 0.4, 3),
    ]:
        counts.clear()
        mean_phases(mc_channel(cov, n, 1), t)
        assert counts == [rank * BLOCK, rank * 5]
    for cov, t in [(uncorrelated(0.304), 0.0), (np.zeros((3, 3)), 0.4)]:
        counts.clear()
        table, stderr = mean_phases(mc_channel(cov, n, 1), t, np.eye(8))
        assert counts == [0] and (table == 1.0).all() and stderr == 0.0


@pytest.mark.parametrize("samples", sorted({4097, 8193, 12289, BLOCK + 1, 2 * BLOCK + 1}))
@pytest.mark.parametrize("model", ["uncorrelated", "correlated"])
def test_monte_carlo_at_time_zero_has_no_spread(model, samples):
    # Every phase is 0 at t = 0, so every factor is exactly 1 and every
    # trajectory's survival the same: the standard error is exactly 0,
    # whatever the sample count, including a last block narrower than the
    # others.
    cov = uncorrelated(0.304) if model == "uncorrelated" else totally_correlated(0.389)
    assert run_pipeline_mc(mc_config(cov), 0.0, samples, seed=7).survival_stderr == 0.0
    table, _ = mean_phases(mc_channel(cov, samples, 7), 0.0)
    assert (table == 1.0).all()


#: The message of every time that is not finite and >= 0.
RANGE = "time must be finite and >= 0, got "


@pytest.mark.parametrize(
    "t, message",
    [
        pytest.param(float("nan"), RANGE + "nan", id="nan-nan"),
        pytest.param(float("inf"), RANGE + "inf", id="inf-inf"),
        pytest.param(-float("inf"), RANGE + "-inf", id="-inf--inf"),
        pytest.param(-1.0, RANGE + "-1.0", id="-1.0--1.0"),
        pytest.param(-2, RANGE + "-2.0", id="-2--2.0"),
        pytest.param(np.float64(-0.5), RANGE + "-0.5", id="-0.5--0.5"),
        pytest.param(np.array(float("nan")), RANGE + "nan", id="t6-nan"),
        pytest.param(np.array(float("inf")), RANGE + "inf", id="t7-inf"),
        pytest.param(np.array(-3.0), RANGE + "-3.0", id="t8--3.0"),
        pytest.param(np.array([0.5, -4.0]), RANGE + "-4.0", id="t9--4.0"),
        # An int beyond the float range and a bool fail the one array rule.
        pytest.param(10**400, "times must be finite, got 1e+400", id="10**400"),
        pytest.param(-(10**400), "times must be finite, got -1e+400", id="-10**400"),
        pytest.param(
            3**1000, "times must be finite, got 1.3220708194808066e+477", id="3**1000"
        ),
        pytest.param([0.5, 10**400], "times must be finite, got 1e+400", id="list-10**400"),
        pytest.param(True, "times must be real numbers, got True", id="True-True"),
        pytest.param(np.True_, "times must be real numbers, got np.True_", id="t15-True"),
        pytest.param(
            np.array([False, True]), "times must be real numbers, got False", id="t16-False"
        ),
    ],
)
def test_validate_time_names_the_bad_time(t, message):
    # phase_scaled is the one time check; a zero covariance tests the times alone.
    with pytest.raises(ValueError) as error:
        phase_scaled(np.zeros((3, 3)), t)
    assert str(error.value) == message


@pytest.mark.parametrize(
    "t, message",
    [
        (np.array([0.1, 0.2j]), "times must be real numbers, got (0.1+0j)"),
        (np.array([0.1, None], dtype=object), "times must be real numbers, got None"),
    ],
    ids=["complex-array", "object"],
)
def test_non_numeric_times_are_named(t, message):
    # Typed arrays of times are scanned entry by entry, as lists are.
    with pytest.raises(ValueError) as error:
        phase_scaled(np.zeros((3, 3)), t)
    assert str(error.value) == message


def test_mean_phases_totally_correlated_rank_one():
    # One shared phase: the elements whose pattern eps sums to 0 keep factor 1
    # in every trajectory.  The loading keeps only C*t's one direction above
    # the variance floor; square roots of its rounding-level eigenvalues would
    # add phases of 1e-9.
    table, _ = mean_phases(mc_channel(totally_correlated(1.0), 4096), 0.5)
    balanced = _EPS.sum(axis=1) == 0
    assert np.abs(table.ravel()[balanced] - 1.0).max() < 1e-13


def test_mean_phases_is_deterministic_per_seed():
    cov, weights = uncorrelated(1.0), np.arange(64.0).reshape(8, 8)
    a = mean_phases(mc_channel(cov, 100, 9), 0.3, weights)
    b = mean_phases(mc_channel(cov, 100, 9), 0.3, weights)
    c = mean_phases(mc_channel(cov, 100, 10), 0.3, weights)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not np.array_equal(a[0], c[0]) and a[1] != c[1]


def test_random_propagator_identity_at_zero():
    assert np.abs(random_propagator((0.0, 0.0, 0.0)) - IDENTITY8).max() < 1e-12


def test_random_propagator_pi_rotation_flips_spin():
    u = random_propagator((np.pi, 0.0, 0.0), axis="x")
    iz = angular_momentum(1, "z")
    assert np.abs(u @ iz @ u.conj().T + iz).max() < 1e-12


def test_random_propagator_is_exact_unitary():
    chi = (0.4, -1.3, 2.2)
    u = random_propagator(chi)
    assert np.abs(u @ u.conj().T - IDENTITY8).max() < 1e-12
    generator = sum(c * angular_momentum(k + 1, "x") for k, c in enumerate(chi))
    assert np.abs(u - expm(-1j * generator)).max() < 1e-12


def test_random_propagator_first_order_expansion():
    # Against the linear truncation 1 - i sum chi Ix the residual is O(chi^2):
    # shrinking chi by 2 shrinks the residual by 4.
    direction = np.array([0.6, -0.2, 0.9])
    linear_part = sum(
        direction[k] * angular_momentum(k + 1, "x") for k in range(3)
    )

    def residual(scale):
        u = random_propagator(scale * direction)
        return np.abs(u - (IDENTITY8 - 1j * scale * linear_part)).max()

    r1, r2 = residual(1e-3), residual(5e-4)
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("axis", ["x", "z"])
def test_trajectory_phases_reproduce_the_random_propagator(axis):
    # Per sample, the frame kernel equals conjugation by the 8x8 unitary.
    rng = np.random.default_rng(9)
    rho = random_density(rng)
    chis = reference_stream(random_psd(rng), 0.8, 9, 64)
    states = dephase(rho, trajectory_phases(chis), axis)
    for chi, state in zip(chis, states):
        u = random_propagator(chi, axis)
        assert np.abs(state - u @ rho @ u.conj().T).max() < 1e-12


def test_shared_tables_are_read_only():
    for table in (*FRAMES.values(), _FACTOR_MAP):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_dephasing_factors_structure():
    cov = random_psd(np.random.default_rng(1))
    t = 0.8
    factors = dephasing_factors(cov, t)
    assert np.allclose(np.diag(factors), 1.0)  # eps = 0 elements untouched
    # Single-quantum element |000><100|: eps = (1, 0, 0).
    assert factors[0b000, 0b100] == pytest.approx(np.exp(-0.5 * t * cov[0, 0]), rel=1e-12)
    # Two-spin double- and zero-quantum elements on spins 2, 3.
    double = np.exp(-0.5 * t * (cov[1, 1] + cov[2, 2] + 2 * cov[1, 2]))
    zero = np.exp(-0.5 * t * (cov[1, 1] + cov[2, 2] - 2 * cov[1, 2]))
    assert factors[0b000, 0b011] == pytest.approx(double, rel=1e-12)
    assert factors[0b010, 0b001] == pytest.approx(zero, rel=1e-12)


def test_coherence_order_squared_decay():
    tau, t = 1.3, 0.41
    factors = dephasing_factors(totally_correlated(tau), t)
    rates = {
        1: -np.log(factors[0b000, 0b100]) / t,
        2: -np.log(factors[0b000, 0b110]) / t,
        3: -np.log(factors[0b000, 0b111]) / t,
    }
    assert rates[1] == pytest.approx(1.0 / tau, rel=1e-12)
    assert rates[2] / rates[1] == pytest.approx(4.0, abs=1e-10)
    assert rates[3] / rates[1] == pytest.approx(9.0, abs=1e-10)


def channels(cov, axis: str) -> list[NoiseChannel]:
    """The exact channel of ``cov`` along ``axis`` and a seeded Monte Carlo one."""
    return [NoiseChannel(cov, axis), mc_channel(cov, 2000, 17, axis=axis)]


def test_channel_fixed_points_z_axis():
    cov = random_psd(np.random.default_rng(2))
    diag = np.diag(np.linspace(0.05, 0.2, 8)).astype(complex)
    diag /= np.trace(diag)
    for channel in channels(cov, "z"):
        assert np.abs(apply_channel(diag, channel, 1.3) - diag).max() < 1e-14, channel.kind


def test_channel_fixed_points_x_axis():
    cov = random_psd(np.random.default_rng(3))
    op = 2 * angular_momentum(1, "x") @ angular_momentum(2, "x")  # x-diagonal
    for channel in channels(cov, "x"):
        out = apply_channel(op, channel, 0.9)
        assert np.abs(out - op).max() < 1e-12, channel.kind


#: States apply_channel names as ``rho``: not finite, not 8x8, not numbers.
BAD_STATES = {
    "nan": np.full((8, 8), np.nan),
    "inf-entry": np.where(np.eye(8) > 0, np.inf, 0.0) + 0j,
    "stack": np.stack([np.eye(8) / 8] * 2),
    "4x4": np.eye(4) / 4,
    "one-by-one": [[1]],
    "string": "abc",
    "bools": np.eye(8, dtype=bool),
}


@pytest.mark.parametrize("rho", BAD_STATES.values(), ids=BAD_STATES.keys())
def test_apply_channel_names_a_bad_state(rho):
    # An 8x8 array of finite ints, floats or complex numbers, else one
    # ValueError naming rho, on either kind of channel and before any
    # arithmetic warns.
    for channel in channels(np.eye(3), "x"):
        with pytest.raises(ValueError, match="^rho must be"):
            apply_channel(rho, channel, 0.3)


def test_channel_is_linear_trace_preserving_positive():
    # A Monte Carlo channel of a fixed seed is one mean of unitary
    # conjugations, so it is linear and a state map, as the exact channel.
    rng = np.random.default_rng(4)
    cov = random_psd(rng)
    t = 0.6
    for axis in ("x", "z"):
        rho1, rho2 = random_density(rng), random_density(rng)
        mix = 0.3 * rho1 + 0.7 * rho2
        for channel in channels(cov, axis):
            out_mix = apply_channel(mix, channel, t)
            parts = [apply_channel(rho, channel, t) for rho in (rho1, rho2)]
            out_parts = 0.3 * parts[0] + 0.7 * parts[1]
            assert np.abs(out_mix - out_parts).max() < 1e-12
            assert np.trace(out_mix).real == pytest.approx(1.0, abs=1e-12)
            assert np.abs(out_mix - out_mix.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out_mix).min() > -1e-12


def test_channel_semigroup_property():
    # The exact average only: a Monte Carlo run at t1 + t2 draws other phases.
    rng = np.random.default_rng(5)
    cov = random_psd(rng)
    rho = random_density(rng)
    t1, t2 = 0.35, 0.85
    for axis in ("x", "z"):
        channel = NoiseChannel(cov, axis)
        stepwise = apply_channel(apply_channel(rho, channel, t1), channel, t2)
        direct = apply_channel(rho, channel, t1 + t2)
        assert np.abs(stepwise - direct).max() < 1e-10


def test_mc_single_spin_decay_matches_exponential():
    # <2Iz1> under x dephasing is exactly the sample mean of cos(chi1), so
    # its standard error is known in closed form.
    tau, t, n = 0.8, 0.5, 40_000
    cov = uncorrelated(tau)
    rho = (IDENTITY8 + 2 * angular_momentum(1, "z")) / 8
    channel = NoiseChannel(covariance=cov, kind="monte-carlo", samples=n, seed=12)
    out = apply_channel(rho, channel, t)
    measured = np.trace(out @ (2 * angular_momentum(1, "z"))).real
    variance_phase = 2 * t / tau
    var_cos = (1 + np.exp(-2 * variance_phase)) / 2 - np.exp(-variance_phase)
    se = np.sqrt(var_cos / n)
    assert abs(measured - np.exp(-t / tau)) < 3 * se + 1e-12


def test_mc_matches_analytic_channel_elementwise():
    # Rotate into the dephasing eigenframe where every element has a known
    # per-sample variance, then compare means elementwise at 3 SE.
    rng = np.random.default_rng(6)
    cov = random_psd(rng)
    t, n = 0.45, 100_000
    rho = random_density(rng)
    channel = NoiseChannel(covariance=cov, kind="monte-carlo", samples=n, seed=3)
    got = apply_channel(rho, channel, t)
    want = apply_channel(rho, NoiseChannel(covariance=cov, axis="x"), t)

    frame = expm(1j * (np.pi / 2) * sum(angular_momentum(k, "y") for k in (1, 2, 3)))
    rho_frame = frame @ rho @ frame.conj().T
    delta = frame @ (got - want) @ frame.conj().T
    damping = dephasing_factors(cov, t)
    var_re = (1 + damping**2) / 2 - damping  # Var cos of the random phase
    var_im = (1 - damping**2) / 2
    allowed = 3 * np.sqrt((var_re + var_im) / n) * np.abs(rho_frame) + 1e-12
    assert (np.abs(delta) <= allowed).all()


def test_mc_requires_monte_carlo_channel():
    # apply_channel averages an analytic channel exactly, even one given a
    # sample count; only the sampler itself insists on a Monte Carlo channel.
    analytic = NoiseChannel(covariance=np.eye(3), kind="analytic", samples=10)
    message = "sampled phases need a monte-carlo channel, got kind 'analytic'"
    with pytest.raises(ValueError, match=message):
        mean_phases(analytic, 0.1)
    exact = apply_channel(np.eye(8) / 8, NoiseChannel(covariance=np.eye(3)), 0.1)
    assert np.array_equal(apply_channel(np.eye(8) / 8, analytic, 0.1), exact)


def test_gauss_hermite_oracle_reproduces_analytic_channel():
    # Independent route: integrate U(chi) rho U(chi)† against the Gaussian
    # density by tensor-product Gauss-Hermite quadrature, with propagators
    # from scipy's expm rather than the library's closed form.
    rng = np.random.default_rng(8)
    cov = random_psd(rng) + 0.1 * np.eye(3)  # keep it nondegenerate
    t = 0.6
    rho = random_density(rng)

    eigvals, eigvecs = np.linalg.eigh(cov * t)
    loads = eigvecs * np.sqrt(np.clip(eigvals, 0, None))
    nodes, weights = np.polynomial.hermite.hermgauss(24)
    generators = [angular_momentum(k, "x") for k in (1, 2, 3)]

    averaged = np.zeros((8, 8), dtype=complex)
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            for k, wk in enumerate(weights):
                chi = np.sqrt(2.0) * loads @ np.array([nodes[i], nodes[j], nodes[k]])
                u = expm(-1j * sum(c * g for c, g in zip(chi, generators)))
                averaged += (wi * wj * wk) * (u @ rho @ u.conj().T)
    averaged /= np.pi ** 1.5

    want = apply_channel(rho, NoiseChannel(covariance=cov, axis="x"), t)
    assert np.abs(averaged - want).max() < 1e-8
