import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from conftest import (
    mc_channel,
    pair_phasor_products,
    random_density,
    random_propagator,
    random_psd,
    reference_stream,
    sample_phases,
    trajectory_phases,
)
from triqec.noise import (
    _EPS,
    _PAIR_INDEX,
    _PAIR_SIGN,
    _PHASOR_ROWS,
    _ROWS,
    _SURVIVAL,
    BLOCK,
    FRAMES,
    PAIRS,
    CovarianceError,
    NoiseChannel,
    _block_sums,
    _phase_loading,
    _phasors,
    _survival_weights,
    apply_channel,
    dephase,
    dephasing_factors,
    mean_phases,
    pair_weights,
    phase_table,
    totally_correlated,
    uncorrelated,
    validate_covariance,
    validate_time,
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


def test_arrays_derived_from_a_checked_covariance_are_checked_afresh(eigvalsh_calls):
    c = validate_covariance(np.eye(3))
    with pytest.raises(CovarianceError, match="negative"):
        validate_covariance(-c)
    for derived in (c.copy(), 2 * c, c[:]):
        eigvalsh_calls.clear()
        checked = validate_covariance(derived)
        assert checked is not derived and np.array_equal(checked, derived)
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
        ({"workers": -3}, "workers"),
        ({"workers": 0}, "workers"),
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
        ({"workers": True}, "workers"),
        ({"workers": np.True_}, "workers"),
    ],
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
    weights = pair_weights(np.arange(64.0).reshape(8, 8))
    runs = [mean_phases(mc_channel(np.eye(3), 10, s), 0.3, weights) for s in (5, np.int64(5))]
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]
    mean_phases(mc_channel(np.eye(3), 10, sequence), 0.3)


def test_mean_phases_adds_the_block_sums_in_stream_order():
    # Reference: the whole stream's normals drawn at once, cut into BLOCK
    # rows, each block's pair sums taken, the sums added in order and
    # scattered once.
    cov, t, seed, n = random_psd(np.random.default_rng(8)), 0.3, 4, 3 * BLOCK + 5
    normals = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 3))
    half = 0.5 * _phase_loading(cov, t)
    total = 0
    for start in range(0, n, BLOCK):
        block = normals[start : start + BLOCK]
        total = total + _block_sums(block, half, np.empty((_ROWS, len(block))), None)[0]
    expected = phase_table(total[: len(PAIRS)] / n, total[len(PAIRS) :] / n)
    for workers in (1, 3):
        table, estimate = mean_phases(mc_channel(cov, n, seed, workers=workers), t)
        assert np.array_equal(table, expected) and estimate is None
    with pytest.raises(ValueError, match="workers"):
        run_pipeline_mc(mc_config(cov), t, n, seed, workers=0)
    with pytest.raises(ValueError, match="samples"):
        run_pipeline_mc(mc_config(cov), t, 1e3, seed)


#: The pair index of each of the five phasors a block forms (z1, z2, z3,
#: z2 z3, z2 conj(z3)), and one element per pair with eps = +p.
FORMED_PAIRS = [int(np.flatnonzero((PAIRS == p).all(axis=1))[0]) for p in _PHASOR_ROWS]
PLUS_ELEMENT = [int(np.flatnonzero((_PAIR_INDEX == k) & (_PAIR_SIGN > 0))[0]) for k in range(13)]


def formed_phasors(chis, slot=None) -> np.ndarray:
    """The kernel's five phasors of the phases ``chis``, (n, 5) complex.

    With an identity loading the kernel's chi / 2 is exactly half of chis.
    """
    chis = np.asarray(chis, dtype=float)
    slot = np.empty((_ROWS, len(chis))) if slot is None else slot
    _phasors(chis, 0.5 * np.eye(3), slot)
    return np.array([slot[re] + 1j * slot[im] for re, im in _PHASOR_ROWS.values()]).T


def pair_phasors(chis) -> np.ndarray:
    """exp(i p . chi) of every pair, (n, 13), read off ``trajectory_phases``."""
    return trajectory_phases(chis).reshape(-1, 64)[:, PLUS_ELEMENT].conj()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_pair_phasors_match_the_pair_angles(rank):
    # The kernel multiplies spin phasors instead of taking cos and sin of
    # p . chi; the two differ by rounding, which grows with |chi| only on the
    # angle side (the rounding of the sum p . chi).
    rng = np.random.default_rng(30 + rank)
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        cov = random_psd(rng, rank=rank)
        chis = reference_stream(cov / np.trace(cov), scale**2, rank, 2000)
        error = np.abs(formed_phasors(chis) - pair_phasors(chis)[:, FORMED_PAIRS])
        bound = 1e-15 * (1 + np.abs(chis).sum(axis=1))
        assert (error.max(axis=1) <= bound).all(), scale


def test_pair_phasors_are_exact_at_zero_phase():
    # tan(0) = 0 makes every spin phasor exactly 1 + 0i, hence every formed
    # phasor, and every product with re z1 = 1, im z1 = 0 or 1 is exact.
    half = 0.5 * _phase_loading(random_psd(np.random.default_rng(4)), 0.7)
    slot = np.full((_ROWS, BLOCK), np.nan)
    sums, _ = _block_sums(np.zeros((BLOCK, 3)), half, slot, None)
    for re, im in _PHASOR_ROWS.values():
        assert (slot[re] == 1.0).all() and (slot[im] == 0.0).all()
    assert (sums[: len(PAIRS)] == BLOCK).all() and (sums[len(PAIRS) :] == 0.0).all()


@pytest.mark.parametrize("magnitude", ["odd-pi", "huge"])
def test_pair_phasors_stay_finite_where_the_half_angle_tangent_is_large(magnitude):
    # At odd multiples of pi, tan(chi / 2) is about 1e16; far out it is
    # whatever the argument reduction gives.  Both must still give the
    # phasors within the bound of test_pair_phasors_match_the_pair_angles,
    # and finite block sums.
    rng = np.random.default_rng(41)
    if magnitude == "odd-pi":
        chis = np.pi * (2 * rng.integers(-50, 50, size=(500, 3)) + 1)
    else:
        chis = rng.choice([-1.0, 1.0], size=(500, 3)) * 10.0 ** rng.uniform(0, 300, size=(500, 3))
        chis[:3] = [[1e300, -1e300, np.pi], [-np.pi, 1e300, 0.0], [1e-300, 3 * np.pi, -1e300]]
    phasors = formed_phasors(chis)
    assert np.isfinite(phasors).all()
    error = np.abs(phasors - pair_phasors(chis)[:, FORMED_PAIRS])
    bound = 1e-15 * (1 + np.abs(chis).sum(axis=1))
    assert (error.max(axis=1) <= bound).all()
    sums, _ = _block_sums(chis, 0.5 * np.eye(3), np.empty((_ROWS, len(chis))), None)
    assert np.isfinite(sums).all()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(chis=arrays(float, (5, 3), elements=st.floats(-1e300, 1e300)))
def test_spin_phasors_have_unit_modulus(chis):
    spins = formed_phasors(chis)[:, :3]  # z1, z2, z3
    assert np.abs(spins.real**2 + spins.imag**2 - 1.0).max() <= 1e-15


@pytest.mark.parametrize("n", [BLOCK, 1000])
def test_block_sums_match_the_pair_phasor_products(n):
    # Against all 13 pair phasors formed by complex multiplication of the
    # kernel's own spin phasors: the kernel takes each z1 pair sum as two
    # length-n dot products (error at most n eps/2 times the n terms of
    # modulus <= 1 each), the oracle rounds each product and sums pairwise,
    # so (n + 8) n eps bounds the difference.  A trajectory's survival is a
    # fixed combination of 26 terms per side: 64 eps times the weights'
    # absolute sum bounds it.
    rng = np.random.default_rng(50 + n)
    half = 0.5 * _phase_loading(random_psd(rng), 2.0)
    weights = pair_weights(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    normals, slot = rng.standard_normal((n, 3)), np.empty((_ROWS, n))
    sums, (count, mean, m2) = _block_sums(normals, half, slot, _survival_weights(weights))
    spins = np.array([slot[re] + 1j * slot[im] for re, im in list(_PHASOR_ROWS.values())[:3]])
    pairs = pair_phasor_products(spins)
    expected = np.concatenate([pairs.real.sum(axis=1), pairs.imag.sum(axis=1)])
    eps = np.finfo(float).eps
    assert np.abs(sums - expected).max() <= (n + 8) * n * eps
    w0, wc, ws = weights
    survivals = w0 + wc @ pairs.real + ws @ pairs.imag
    values = slot[_SURVIVAL][2]
    scale = abs(w0) + np.abs(wc).sum() + np.abs(ws).sum()
    assert np.abs(values - survivals).max() <= 64 * eps * scale
    assert count == n and mean == values.mean() and m2 == ((values - mean) ** 2).sum()


def test_pair_phasors_allocate_nothing():
    # Every row of a block, from the phases to the survivals' deviations, is
    # written in place into its slot: any temporary of a row or more
    # (np.tan(0.5 * chis) would make three) exceeds this peak, and so does a
    # 64 KB ufunc iteration buffer.
    rng = np.random.default_rng(2)
    half = 0.5 * _phase_loading(random_psd(rng), 0.5)
    weights = _survival_weights(pair_weights(rng.normal(size=(8, 8))))
    for n in (BLOCK, 1000):
        normals, slot = rng.standard_normal((n, 3)), np.empty((_ROWS, n))
        _block_sums(normals, half, slot, weights)  # warm up
        tracemalloc.start()
        try:
            _block_sums(normals, half, slot, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK * 8, n


@pytest.mark.parametrize(
    "t, shown",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (-float("inf"), "-inf"),
        (-1.0, "-1.0"),
        (-2, "-2.0"),
        (np.float64(-0.5), "-0.5"),
        (np.array(float("nan")), "nan"),
        (np.array(float("inf")), "inf"),
        (np.array(-3.0), "-3.0"),
        (np.array([0.5, -4.0]), "-4.0"),
        pytest.param(10**400, "1e+400", id="10**400"),
        pytest.param(-(10**400), "-1e+400", id="-10**400"),
        pytest.param(3**1000, "1.3220708194808066e+477", id="3**1000"),
        pytest.param([0.5, 10**400], "1e+400", id="list-10**400"),
        (True, "True"),
        (np.True_, "True"),
        (np.array([False, True]), "False"),
    ],
)
def test_validate_time_names_the_bad_time(t, shown):
    with pytest.raises(ValueError) as error:
        validate_time(t)
    assert str(error.value) == f"time must be finite and >= 0, got {shown}"


def test_sample_phases_zero_time():
    rng = np.random.default_rng(0)
    assert np.abs(sample_phases(np.eye(3), 0.0, rng)).max() == 0.0


def test_sample_phases_negative_time_rejected():
    with pytest.raises(ValueError):
        sample_phases(np.eye(3), -0.1, np.random.default_rng(0))


def test_sample_phases_covariance_statistics():
    # Empirical covariance within 4 standard errors of C*t; the estimator
    # variance for Gaussian data is (c_jj c_kk + c_jk^2) t^2 / n.
    tau, t, n = 0.7, 0.9, 200_000
    cov = uncorrelated(tau)
    draws = sample_phases(cov, t, np.random.default_rng(42), size=n)
    empirical = np.cov(draws.T, bias=True)
    target = cov * t
    for j in range(3):
        for k in range(3):
            se = np.sqrt((target[j, j] * target[k, k] + target[j, k] ** 2) / n)
            assert abs(empirical[j, k] - target[j, k]) < 4 * se


def test_sample_phases_totally_correlated_rank_one():
    draws = sample_phases(totally_correlated(1.0), 0.5, np.random.default_rng(7), size=1000)
    assert np.abs(draws - draws[:, [0]]).max() < 1e-12


@pytest.mark.parametrize("size", [None, 1, BLOCK, 2 * BLOCK + 5])
def test_sample_phases_load_every_row(size):
    # Every row must equal its normals times the loading.
    cov, t = random_psd(np.random.default_rng(3)), 0.8
    normals = np.random.default_rng(5).standard_normal(3 if size is None else (size, 3))
    eigvals, eigvecs = np.linalg.eigh(cov * t)
    expected = normals @ (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))).T
    draws = sample_phases(cov, t, np.random.default_rng(5), size=size)
    assert draws.shape == expected.shape
    np.testing.assert_allclose(draws, expected, rtol=0, atol=1e-12)


def test_mean_phases_is_deterministic_per_seed():
    cov, weights = uncorrelated(1.0), pair_weights(np.arange(64.0).reshape(8, 8))
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
    chis = sample_phases(random_psd(rng), 0.8, rng, size=64)
    states = dephase(rho, trajectory_phases(chis), axis)
    for chi, state in zip(chis, states):
        u = random_propagator(chi, axis)
        assert np.abs(state - u @ rho @ u.conj().T).max() < 1e-12


def test_pair_maps_cover_each_off_diagonal_element_once():
    # Element |r><c| has eps = s p for one of the 13 pairs p and s = +-1;
    # its conjugate |c><r| has the same pair and the opposite sign.
    eps = _EPS.reshape(8, 8, 3)
    index, sign = _PAIR_INDEX.reshape(8, 8), _PAIR_SIGN.reshape(8, 8)
    counts = np.zeros(len(PAIRS), dtype=int)
    for r in range(8):
        for c in range(8):
            if r == c:
                assert sign[r, c] == 0 and not eps[r, c].any()
                continue
            assert sign[r, c] in (-1, 1)
            assert np.array_equal(eps[r, c], sign[r, c] * PAIRS[index[r, c]])
            assert index[c, r] == index[r, c] and sign[c, r] == -sign[r, c]
            counts[index[r, c]] += sign[r, c] > 0
    assert PAIRS.shape == (13, 3)
    assert len({tuple(p) for p in PAIRS} | {tuple(-p) for p in PAIRS}) == 26
    # eps = +p for 4, 2 or 1 elements as p has 1, 2 or 3 nonzero entries,
    # and eps = -p for as many conjugates: 2 * 28 = 56 elements in all.
    assert counts.sum() == 28
    assert np.array_equal(counts, np.array([0, 4, 2, 1])[np.count_nonzero(PAIRS, axis=1)])


def test_pair_weights_fold_an_element_table_onto_the_pairs():
    rng = np.random.default_rng(12)
    weights = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    cos, sin = rng.normal(size=(2, 5, 13))
    w0, wc, ws = pair_weights(weights)
    direct = (phase_table(cos, sin) * weights).sum(axis=(1, 2)).real
    assert np.abs(w0 + cos @ wc + sin @ ws - direct).max() < 1e-12


def test_shared_tables_are_read_only():
    for table in (*FRAMES.values(), PAIRS):
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


def test_mc_deterministic_across_worker_counts():
    cov = totally_correlated(0.9)
    rho = random_density(np.random.default_rng(7))
    one = apply_channel(
        rho, NoiseChannel(covariance=cov, kind="monte-carlo", samples=9000, seed=5), 0.7
    )
    many = apply_channel(
        rho,
        NoiseChannel(covariance=cov, kind="monte-carlo", samples=9000, seed=5, workers=3),
        0.7,
    )
    assert np.array_equal(one, many)


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
