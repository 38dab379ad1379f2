"""Unitary gates of the three-spin majority-vote code.

The controlled gates are built from their idempotent-algebra closed forms
(products of spin operators and z projectors), and every propagator from the
closed form exp(-i a P) = cos(a) - i sin(a) P of a Pauli product P; the
tests cross-check both against matrix exponentials.  Rotation propagators
follow the convention U = exp(-i * angle * I_axis), acting on operators by
conjugation U X U†.
Under that convention a +pi/2 rotation about y maps Ix -> -Iz and Iz -> +Ix.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    IDENTITY2,
    IDENTITY8,
    SPINS,
    angular_momentum,
    idempotent,
    kron3,
    pauli,
    product_operator,
    validate_spin,
)


class InvalidGateError(ValueError):
    """Gate construction with inconsistent spin roles."""


def cnot(target: int, control: int) -> np.ndarray:
    """Controlled-NOT flipping ``target`` when ``control`` is down (|1>).

    Closed form 2Ix^target E-^control + E+^control; self-inverse.
    """
    if target == control:
        raise InvalidGateError(f"target and control must differ, both are {target!r}")
    return 2 * angular_momentum(target, "x") @ idempotent(control, -1) + idempotent(control, +1)


def encoder() -> np.ndarray:
    """Joint c-NOT copying the data spin onto both ancillae.

    Equals cnot(2, 1) @ cnot(3, 1) in either order: 4Ix2Ix3 E-^1 + E+^1.
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
    """Propagator exp(-i * angle * sum of I_axis over ``spins``)."""
    half = angle / 2
    single = np.cos(half) * IDENTITY2 - 1j * np.sin(half) * pauli(axis)
    spins = [validate_spin(spin) for spin in spins]
    factors = [single if spin in spins else IDENTITY2 for spin in SPINS]
    return kron3(*factors)


def toffoli_product_expansion() -> list[np.ndarray]:
    """The correction gate as an ordered product of commuting propagators.

    Returns eight factors (a global phase, three one-spin rotations, three
    two-spin propagators, one three-spin propagator) whose product equals
    toffoli() exactly.  The factors that act only on the ancillae can be
    dropped without changing any data-spin observable taken after the
    ancilla partial trace.
    """
    # Each factor is exp(-i angle P) for a Pauli product P, and P^2 = 1.
    angle = np.pi / 8
    factors = [
        (angle, ("x", None, None)),
        (angle, (None, "z", None)),
        (angle, (None, None, "z")),
        (-angle, ("x", "z", None)),
        (-angle, ("x", None, "z")),
        (-angle, (None, "z", "z")),
        (angle, ("x", "z", "z")),
    ]
    return [np.exp(1j * angle) * IDENTITY8] + [
        np.cos(a) * IDENTITY8 - 1j * np.sin(a) * product_operator(axes) for a, axes in factors
    ]
