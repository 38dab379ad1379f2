"""Shared helpers: seeded random corpora and independent brute-force oracles."""

from __future__ import annotations

import math

import numpy as np


def random_psd(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A generic symmetric positive semidefinite 3x3 matrix."""
    a = rng.normal(size=(3, 3))
    return scale * (a @ a.T)


def random_density(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    """A full-rank random density matrix (Wishart normalized to unit trace)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_operator(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def brute_partial_trace(rho: np.ndarray) -> np.ndarray:
    """Loop-based partial trace over spins 2 and 3 (oracle, no reshaping)."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for j in range(2):
                for k in range(2):
                    out[a, b] += rho[4 * a + 2 * j + k, 4 * b + 2 * j + k]
    return out


def richardson_second_derivative(f, t: float, h: float) -> float:
    """Central second difference with one Richardson extrapolation step."""

    def central(step: float) -> float:
        return (f(t + step) - 2.0 * f(t) + f(t - step)) / step**2

    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def forward_derivative(f, t: float, h: float, order: int) -> float:
    """One-sided difference for the given derivative order, error O(h^6).

    Samples only f(t), f(t + h), ..., so it works at t = 0, where the decay
    laws (defined for nonnegative times only) cannot be sampled on both
    sides.  The weights solve the Taylor conditions
    sum_j w_j j^m / m! = delta(m, order) for m < order + 6.
    """
    n = order + 6
    offsets = np.arange(n)
    taylor = np.array([offsets**m / math.factorial(m) for m in range(n)], dtype=float)
    weights = np.linalg.solve(taylor, np.eye(n)[order])
    return sum(w * f(t + j * h) for j, w in enumerate(weights)) / h**order


def asymmetric_third_derivative_at_zero(cov) -> float:
    """A rejected form of the survival's third derivative at t = 0.

    It differs from the library's symmetric formula in one term, 3 c33^2
    (c22 + c33) in place of 3 c33^2 (c11 + c22), which breaks the
    spin-relabeling symmetry of the decay law.  Kept as an oracle so tests
    can show that finite differences single out the symmetric form.
    """
    c = np.asarray(cov, dtype=float)
    c11, c22, c33 = c[0, 0], c[1, 1], c[2, 2]
    c12, c13, c23 = c[0, 1], c[0, 2], c[1, 2]
    return (
        3 * c11**2 * (c22 + c33)
        + 3 * c22**2 * (c11 + c33)
        + 3 * c33**2 * (c22 + c33)
        + 6 * c11 * c22 * c33
        + 12 * (c12**2 + c13**2 + c23**2) * (c11 + c22 + c33)
        + 48 * c12 * c13 * c23
    ) / 16
