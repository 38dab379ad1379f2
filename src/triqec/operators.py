"""Operator algebra for a system of three spin-1/2 nuclei.

Everything lives on the 8-dimensional Hilbert space spin1 (x) spin2 (x) spin3,
with basis kets ordered |d1 d2 d3> (spin 1 is the most significant factor and
d = 0 comes first).  |0> is the +1/2 eigenstate of Iz, so the idempotent
projector (1 + 2Iz)/2 selects it.  Operators are dense complex ndarrays; all
functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DIM = 8
SPINS = (1, 2, 3)

#: Ancilla z-basis sectors in the order (+,+), (+,-), (-,+), (-,-).
ANCILLA_SECTORS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
IDENTITY2 = np.eye(2, dtype=complex)
IDENTITY8 = np.eye(DIM, dtype=complex)

STATE_TOL = 1e-9  # tolerance of the Bloch-length check


def pauli(axis: str) -> np.ndarray:
    """``PAULI[axis]``; an axis other than 'x', 'y' or 'z' raises ValueError."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return PAULI[axis]


def validate_spin(spin) -> int:
    """Return ``spin`` if it is 1, 2 or 3, else raise ValueError."""
    if spin not in SPINS:
        raise ValueError(f"spin index must be 1, 2 or 3, got {spin!r}")
    return spin


def validate_signs(*signs, name: str = "ancilla signs") -> tuple:
    """``signs`` if each is +1 or -1, else a ValueError naming them (the one sign rule)."""
    if not all(sign in (+1, -1) for sign in signs):
        raise ValueError(f"{name} must be +1 or -1, got {signs!r}")
    return signs


def sector_index(sign2, sign3) -> int:
    """Position of the sector (sign2, sign3) in ``ANCILLA_SECTORS``."""
    return ANCILLA_SECTORS.index(validate_signs(sign2, sign3))


class NormalizationError(ValueError):
    """A data-spin Bloch vector that is not finite or longer than one."""


class BlochVector(NamedTuple):
    """Expectation values (<2Ix>, <2Iy>, <2Iz>) of a single spin."""

    x: float
    y: float
    z: float


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def embed(op: np.ndarray, spin: int) -> np.ndarray:
    """Embed a 2x2 single-spin operator into the three-spin space."""
    factors = [IDENTITY2, IDENTITY2, IDENTITY2]
    factors[validate_spin(spin) - 1] = np.asarray(op, dtype=complex)
    return kron3(*factors)


def angular_momentum(spin: int, axis: str) -> np.ndarray:
    """Angular momentum operator I_axis of one spin, in units of hbar.

    Hermitian with eigenvalues +-1/2; (2 I_axis)^2 is the identity.
    """
    return embed(pauli(axis) / 2, spin)


def idempotent(spin: int, sign: int) -> np.ndarray:
    """Projector (1 + sign * 2Iz)/2 onto a spin's z eigenstate.

    sign = +1 selects |0> (spin up along z), sign = -1 selects |1>.
    """
    validate_signs(sign, name="sign")
    return embed((IDENTITY2 + sign * PAULI["z"]) / 2, spin)


def data_state_from_bloch(bloch) -> np.ndarray:
    """2x2 data-spin density matrix with the given (<2Ix>, <2Iy>, <2Iz>)."""
    x, y, z = bloch
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise NormalizationError(f"Bloch vector components must be finite, got {tuple(bloch)!r}")
    r2 = x * x + y * y + z * z
    if r2 > 1.0 + STATE_TOL:
        raise NormalizationError(f"Bloch vector has norm {np.sqrt(r2)!r} > 1")
    return 0.5 * (IDENTITY2 + x * PAULI["x"] + y * PAULI["y"] + z * PAULI["z"])


def partial_trace_ancillae(rho: np.ndarray) -> np.ndarray:
    """Trace out spins 2 and 3, leaving the 2x2 data-spin operator.

    Defined for any 8x8 operator; preserves the trace.
    """
    r = np.asarray(rho)
    if r.shape != (DIM, DIM):
        raise ValueError(f"expected an 8x8 operator, got shape {r.shape}")
    return r.reshape(2, 4, 2, 4).trace(axis1=1, axis2=3)


def bloch_of(rho: np.ndarray) -> BlochVector:
    """Bloch vector (<2Ix>, <2Iy>, <2Iz>) of a 2x2 density matrix.

    Component k is Re tr(rho sigma_k), read from the four entries:
    Re(r01 + r10), Im r10 - Im r01 and Re(r00 - r11).
    """
    r = np.asarray(rho)
    if r.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {r.shape}")
    (r00, r01), (r10, r11) = r.tolist()
    return BlochVector(
        float((r01 + r10).real), float(r10.imag - r01.imag), float((r00 - r11).real)
    )
