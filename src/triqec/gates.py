"""Unitary gates of the three-spin majority-vote code.

The controlled gates are built from their idempotent-algebra closed forms
(products of spin operators and z projectors), and every rotation from the
closed form exp(-i a P) = cos(a) - i sin(a) P of a Pauli matrix P; the
tests cross-check both against matrix exponentials.  Rotation propagators
follow the convention U = exp(-i * angle * I_axis), acting on operators by
conjugation U X U†.
Under that convention a +pi/2 rotation about y maps Ix -> -Iz and Iz -> +Ix.
"""

from __future__ import annotations

import numpy as np

from .models import FLOAT_MAX, real_in, validate_integer
from .operators import (
    IDENTITY2,
    IDENTITY8,
    SPINS,
    angular_momentum,
    idempotent,
    kron3,
    pauli,
)


def encoder() -> np.ndarray:
    """Joint c-NOT copying the data spin onto both ancillae.

    Equals the product, in either order, of the two c-NOTs from the data spin
    to each ancilla: 4Ix2Ix3 E-^1 + E+^1.
    Self-inverse; sends alpha|000> + beta|100> to alpha|000> + beta|111>.
    """
    return (
        4 * angular_momentum(2, "x") @ angular_momentum(3, "x") @ idempotent(1, -1)
        + idempotent(1, +1)
    )


def toffoli() -> np.ndarray:
    """Doubly-controlled NOT flipping the data spin when both ancillae are down.

    Closed form 2Ix1 E-^2 E-^3 + (1 - E-^2 E-^3); self-inverse, and commutes
    with every ancilla idempotent.
    """
    anc = idempotent(2, -1) @ idempotent(3, -1)
    return 2 * angular_momentum(1, "x") @ anc + (IDENTITY8 - anc)


def global_rotation(axis: str, angle: float, spins=SPINS) -> np.ndarray:
    """Propagator exp(-i * angle * sum of I_axis over ``spins``); the angle must be finite."""
    half = real_in(angle, "angle", -FLOAT_MAX, FLOAT_MAX, "finite") / 2
    single = np.cos(half) * IDENTITY2 - 1j * np.sin(half) * pauli(axis)
    spins = [validate_integer(spin, "spin index", 1, 3) for spin in spins]
    factors = [single if spin in spins else IDENTITY2 for spin in SPINS]
    return kron3(*factors)
