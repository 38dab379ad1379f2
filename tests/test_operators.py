import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    brute_partial_trace,
    polar_amplitudes,
    product_basis,
    product_operator,
    project_ancilla_sectors,
    pure_data_state,
    random_density,
    random_operator,
    validate_density_matrix,
)
from triqec.operators import (
    ANCILLA_SECTORS,
    IDENTITY8,
    PAULI,
    NormalizationError,
    angular_momentum,
    bloch_of,
    data_state_from_bloch,
    idempotent,
    partial_trace_ancillae,
)


def test_z_generator_is_diagonal_in_ket_order():
    expected = np.diag([0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -0.5])
    assert np.allclose(angular_momentum(1, "z"), expected, atol=1e-12)


@pytest.mark.parametrize("spin", [1, 2, 3])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_doubled_generators_are_involutions(spin, axis):
    doubled = 2 * angular_momentum(spin, axis)
    assert np.allclose(doubled @ doubled, IDENTITY8, atol=1e-12)
    assert np.allclose(doubled, doubled.conj().T, atol=1e-12)


def test_distinct_spin_generators_are_trace_orthogonal():
    assert abs(np.trace(angular_momentum(1, "x") @ angular_momentum(2, "x"))) < 1e-12


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        angular_momentum(0, "x")
    with pytest.raises(ValueError):
        angular_momentum(1, "q")


@pytest.mark.parametrize("spin", [1, 2, 3])
def test_idempotent_algebra(spin):
    plus = idempotent(spin, +1)
    minus = idempotent(spin, -1)
    assert np.allclose(plus @ plus, plus, atol=1e-12)
    assert np.allclose(minus @ minus, minus, atol=1e-12)
    assert np.abs(plus @ minus).max() < 1e-12
    assert np.allclose(plus + minus, IDENTITY8, atol=1e-12)


def test_product_basis_is_trace_orthogonal():
    mats = np.stack([mat for _, mat in product_basis()])
    assert mats.shape == (64, 8, 8)
    grams = np.einsum("iab,jba->ij", mats, mats)
    assert np.allclose(grams, 8 * np.eye(64), atol=1e-12)


def test_ground_state_is_triple_plus_idempotent():
    rho = pure_data_state(1.0, 0.0)
    product = idempotent(1, +1) @ idempotent(2, +1) @ idempotent(3, +1)
    assert np.allclose(rho, product, atol=1e-12)


def test_equal_superposition_points_along_x():
    rho = pure_data_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert bloch_of(partial_trace_ancillae(rho)) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 7))
@pytest.mark.parametrize("phi", np.linspace(0.0, 2 * np.pi, 5))
def test_polar_amplitudes_match_rotation_construction(theta, phi):
    # Oracle: rotate the ground projector by exp(-i theta Ix) then
    # exp(-i phi Iz) with explicit matrix exponentials.
    rot = expm(-1j * phi * angular_momentum(1, "z")) @ expm(-1j * theta * angular_momentum(1, "x"))
    oracle = rot @ pure_data_state(1.0, 0.0) @ rot.conj().T
    built = pure_data_state(*polar_amplitudes(theta, phi))
    assert np.abs(built - oracle).max() < 1e-12
    assert bloch_of(partial_trace_ancillae(built)).z == pytest.approx(np.cos(theta), abs=1e-12)


def test_pure_data_state_is_valid_and_rank_one():
    rho = pure_data_state(*polar_amplitudes(1.1, 0.4))
    validate_density_matrix(rho)
    eigvals = np.sort(np.linalg.eigvalsh(rho))
    assert eigvals[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(eigvals[:-1]).max() < 1e-12


def test_pure_data_state_rejects_unnormalized_amplitudes():
    with pytest.raises(NormalizationError):
        pure_data_state(1.0, 0.5)


def test_data_state_from_bloch_rejects_long_vectors():
    with pytest.raises(NormalizationError):
        data_state_from_bloch((1.0, 0.5, 0.0))


def test_partial_trace_of_product_state():
    rho = pure_data_state(1.0, 0.0)
    reduced = partial_trace_ancillae(rho)
    assert np.allclose(reduced, np.diag([1.0, 0.0]), atol=1e-12)


def test_partial_trace_of_maximally_mixed():
    reduced = partial_trace_ancillae(np.eye(8) / 8)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_entangled_state_is_mixed():
    # alpha|000> + beta|111> with equal weights reduces to the coin toss.
    ket = np.zeros(8, dtype=complex)
    ket[0b000] = ket[0b111] = 1 / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    reduced = partial_trace_ancillae(rho)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(reduced, brute_partial_trace(rho), atol=1e-12)


def test_partial_trace_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        op = random_operator(rng)
        assert np.abs(partial_trace_ancillae(op) - brute_partial_trace(op)).max() < 1e-12


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(ValueError):
        partial_trace_ancillae(np.eye(4))


def test_project_sectors_fixes_identity():
    assert np.allclose(project_ancilla_sectors(IDENTITY8), IDENTITY8, atol=1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.7])
def test_project_sectors_collapses_pair_coefficient(rate):
    # cosh(r) - 4 Ix1 Ix3 sinh(r) pinches to cosh(r) times the identity.
    pair = 4 * angular_momentum(1, "x") @ angular_momentum(3, "x")
    op = np.cosh(rate) * IDENTITY8 - np.sinh(rate) * pair
    assert np.abs(project_ancilla_sectors(op) - np.cosh(rate) * IDENTITY8).max() < 1e-12


def test_project_sectors_is_idempotent_superoperator():
    rng = np.random.default_rng(3)
    for _ in range(10):
        op = random_operator(rng)
        once = project_ancilla_sectors(op)
        assert np.abs(project_ancilla_sectors(once) - once).max() < 1e-12


def test_project_sectors_invisible_to_partial_trace():
    rng = np.random.default_rng(5)
    for _ in range(100):
        op = random_operator(rng)
        lhs = partial_trace_ancillae(project_ancilla_sectors(op))
        rhs = partial_trace_ancillae(op)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_sector_list_covers_the_ancilla_space():
    total = sum(
        idempotent(2, s2) @ idempotent(3, s3) for s2, s3 in ANCILLA_SECTORS
    )
    assert np.allclose(total, IDENTITY8, atol=1e-12)


def test_bloch_of_reads_off_components():
    up = np.diag([1.0, 0.0]).astype(complex)
    assert bloch_of(up) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)
    assert bloch_of(np.eye(2) / 2) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    # 1/2 + 0.3 * (2Ix) on one spin carries <2Ix> = 0.6.
    rho = 0.5 * np.eye(2) + 0.3 * np.array([[0, 1], [1, 0]])
    direct = np.trace(rho @ np.array([[0, 1], [1, 0]])).real
    assert bloch_of(rho).x == pytest.approx(0.6, abs=1e-12)
    assert bloch_of(rho).x == pytest.approx(direct, abs=1e-12)


def test_bloch_of_equals_the_trace_definition_bit_for_bit():
    # Re tr(r sigma_k) by matrix products, on matrices that need not be
    # Hermitian, real or normalized.
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        by_traces = tuple(float(np.trace(r @ PAULI[k]).real) for k in "xyz")
        assert tuple(bloch_of(r)) == by_traces
        assert tuple(bloch_of(r.real)) == tuple(float(np.trace(r.real @ PAULI[k]).real) for k in "xyz")


def test_validate_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(8))  # trace 8
    skew = np.eye(8, dtype=complex) / 8
    skew[0, 1] = 1j * 1e-3
    with pytest.raises(ValueError):
        validate_density_matrix(skew)  # not Hermitian
    negative = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(negative)


def test_validate_density_matrix_accepts_random_states():
    rng = np.random.default_rng(8)
    for _ in range(5):
        validate_density_matrix(random_density(rng))


def test_product_operator_units():
    # Scale doubles with every non-identity factor: 1, 2I, 4II, 8III.
    two_ix = product_operator(("x", None, None))
    assert np.allclose(two_ix, 2 * angular_momentum(1, "x"), atol=1e-12)
    eight = product_operator(("x", "y", "z"))
    expected = (
        8
        * angular_momentum(1, "x")
        @ angular_momentum(2, "y")
        @ angular_momentum(3, "z")
    )
    assert np.allclose(eight, expected, atol=1e-12)
