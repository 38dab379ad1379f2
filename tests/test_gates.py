import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    InvalidGateError,
    cnot,
    equal_up_to_phase,
    is_unitary,
    random_density,
    toffoli_product_expansion,
)
from triqec.gates import encoder, global_rotation, toffoli
from triqec.operators import (
    IDENTITY8,
    angular_momentum,
    idempotent,
    partial_trace_ancillae,
)


def ket(bits: str) -> np.ndarray:
    out = np.zeros(8, dtype=complex)
    out[int(bits, 2)] = 1.0
    return out


def test_cnot_worked_example():
    # Control down flips the target projector: E-1 E+2 -> E-1 E-2.
    gate = cnot(2, 1)
    before = idempotent(1, -1) @ idempotent(2, +1)
    after = idempotent(1, -1) @ idempotent(2, -1)
    assert np.abs(gate @ before @ gate - after).max() < 1e-12


def test_cnot_leaves_control_up_alone():
    gate = cnot(2, 1)
    state = idempotent(1, +1) @ idempotent(2, +1)
    assert np.abs(gate @ state @ gate - state).max() < 1e-12


def test_cnot_rejects_equal_spins():
    with pytest.raises(InvalidGateError):
        cnot(2, 2)


@pytest.mark.parametrize("make", [lambda: cnot(2, 1), lambda: cnot(3, 1), encoder, toffoli])
def test_code_gates_are_unitary_involutions(make):
    gate = make()
    assert is_unitary(gate, atol=1e-12)
    assert np.abs(gate @ gate - IDENTITY8).max() < 1e-12


def test_encoder_equals_cnot_product_in_both_orders():
    enc = encoder()
    assert np.abs(enc - cnot(2, 1) @ cnot(3, 1)).max() < 1e-12
    assert np.abs(enc - cnot(3, 1) @ cnot(2, 1)).max() < 1e-12


def test_encoder_turns_single_flip_into_triple_flip():
    enc = encoder()
    got = enc @ (2 * angular_momentum(1, "x")) @ enc
    expected = (
        8
        * angular_momentum(1, "x")
        @ angular_momentum(2, "x")
        @ angular_momentum(3, "x")
    )
    assert np.abs(got - expected).max() < 1e-12


def test_encoder_creates_the_entangled_superposition():
    alpha, beta = 0.6, 0.8j
    encoded = encoder() @ (alpha * ket("000") + beta * ket("100"))
    assert np.abs(encoded - (alpha * ket("000") + beta * ket("111"))).max() < 1e-12


def test_toffoli_truth_table():
    gate = toffoli()
    assert np.abs(gate @ ket("111") - ket("011")).max() < 1e-12
    assert np.abs(gate @ ket("011") - ket("111")).max() < 1e-12
    for bits in ("000", "001", "010", "100", "101", "110"):
        assert np.abs(gate @ ket(bits) - ket(bits)).max() < 1e-12


def test_toffoli_matches_matrix_exponential():
    # The generator needs the half-angle normalization: pi (1/2 - Ix1) on the
    # doubly-down ancilla sector.  The double-angle exponent is a full 2*pi
    # turn and collapses to the identity, so it cannot reproduce the gate.
    sector = idempotent(2, -1) @ idempotent(3, -1)
    half = expm(1j * np.pi * (0.5 * IDENTITY8 - angular_momentum(1, "x")) @ sector)
    assert np.abs(half - toffoli()).max() < 1e-12
    double = expm(1j * np.pi * (IDENTITY8 - 2 * angular_momentum(1, "x")) @ sector)
    assert np.abs(double - IDENTITY8).max() < 1e-12


def test_cnot_and_encoder_match_matrix_exponentials():
    # Idempotent closed forms against exp(i pi E-^c (1 - 2Ix^t) / 2); the
    # encoder generator is the sum of the two commuting flip generators.
    for target in (2, 3):
        generator = (
            np.pi
            / 2
            * idempotent(1, -1)
            @ (IDENTITY8 - 2 * angular_momentum(target, "x"))
        )
        assert np.abs(cnot(target, 1) - expm(1j * generator)).max() < 1e-12
    total = sum(
        np.pi / 2 * idempotent(1, -1) @ (IDENTITY8 - 2 * angular_momentum(t, "x"))
        for t in (2, 3)
    )
    assert np.abs(encoder() - expm(1j * total)).max() < 1e-12


def test_toffoli_commutes_with_ancilla_idempotents():
    gate = toffoli()
    for spin in (2, 3):
        for sign in (+1, -1):
            proj = idempotent(spin, sign)
            assert np.abs(gate @ proj - proj @ gate).max() < 1e-12


def test_global_rotation_at_zero_angle():
    assert np.abs(global_rotation("x", 0.0) - IDENTITY8).max() < 1e-12


def test_global_rotation_sign_convention():
    # exp(-i (pi/2) Iy) conjugation maps Ix -> -Iz and Iz -> +Ix.
    for spin in (1, 2, 3):
        rot = global_rotation("y", np.pi / 2, spins=(spin,))
        ix, iz = angular_momentum(spin, "x"), angular_momentum(spin, "z")
        assert np.abs(rot @ ix @ rot.conj().T + iz).max() < 1e-12
        assert np.abs(rot @ iz @ rot.conj().T - ix).max() < 1e-12


def test_global_rotation_full_turn_is_minus_one():
    rot = global_rotation("x", 2 * np.pi, spins=(1,))
    assert np.abs(rot + IDENTITY8).max() < 1e-12
    rho = random_density(np.random.default_rng(0))
    assert np.abs(rot @ rho @ rot.conj().T - rho).max() < 1e-12


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("spins", [(1,), (2, 3), (1, 2, 3)])
def test_global_rotation_matches_expm(axis, spins):
    angle = 0.7321
    generator = sum(angular_momentum(s, axis) for s in spins)
    assert np.abs(global_rotation(axis, angle, spins) - expm(-1j * angle * generator)).max() < 1e-12


def test_toffoli_expansion_product_and_commutativity():
    factors = toffoli_product_expansion()
    product = IDENTITY8
    for factor in factors:
        assert is_unitary(factor, atol=1e-12)
        product = product @ factor
    assert equal_up_to_phase(product, toffoli(), atol=1e-9)
    assert np.abs(product - toffoli()).max() < 1e-12
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            comm = factors[i] @ factors[j] - factors[j] @ factors[i]
            assert np.abs(comm).max() < 1e-12


def test_toffoli_expansion_factors_match_matrix_exponentials():
    ix1 = angular_momentum(1, "x")
    iz2 = angular_momentum(2, "z")
    iz3 = angular_momentum(3, "z")
    generators = [
        1j * np.pi / 8 * IDENTITY8,
        -1j * np.pi / 4 * ix1,
        -1j * np.pi / 4 * iz2,
        -1j * np.pi / 4 * iz3,
        1j * np.pi / 2 * ix1 @ iz2,
        1j * np.pi / 2 * ix1 @ iz3,
        1j * np.pi / 2 * iz2 @ iz3,
        -1j * np.pi * ix1 @ iz2 @ iz3,
    ]
    factors = toffoli_product_expansion()
    assert len(factors) == len(generators)
    for factor, generator in zip(factors, generators):
        assert np.abs(factor - expm(generator)).max() < 1e-12


def test_toffoli_expansion_ancilla_only_factors_drop_out():
    # Keeping only the factors that touch the data spin changes nothing that
    # survives the ancilla partial trace.
    factors = toffoli_product_expansion()
    data_only = factors[1] @ factors[4] @ factors[5] @ factors[7]
    full = toffoli()
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = random_density(rng)
        via_full = partial_trace_ancillae(full @ rho @ full.conj().T)
        via_short = partial_trace_ancillae(data_only @ rho @ data_only.conj().T)
        assert np.abs(via_full - via_short).max() < 1e-12


def test_equal_up_to_phase_detects_mismatch():
    assert equal_up_to_phase(IDENTITY8, np.exp(0.3j) * IDENTITY8)
    assert not equal_up_to_phase(IDENTITY8, toffoli())
