"""Correlated random-field dephasing of the three spins.

The noise model: each spin k accumulates a random phase chi^k about a fixed
transverse axis, and the vector chi is multivariate Gaussian with covariance
C*t (C in rad^2/s).  A delta-correlated field makes a single Gaussian draw
per trajectory per evolution period exact, so no time stepping of the field
is ever performed.

Both routes work in the eigenbasis of the dephasing axis (``FRAMES``), where
a trajectory multiplies each matrix element |r><c| by exp(-i eps . chi), eps
being the halved difference of the two basis states' 2Iz signs.  ``dephase``
applies an 8x8 table of such factors; the routes differ only in how each
factor is averaged, and stay independent so they can cross-validate:

* ``apply_channel_analytic``: the exact Gaussian average
  exp(-(t/2) eps^T C eps) of ``dephasing_factors``.
* ``apply_channel_mc``: the sample mean of ``trajectory_phases``; it never
  evaluates the Gaussian formula.

Monte Carlo reproducibility: the phases come from a counter-based Philox
stream keyed by the seed, drawn in one deterministic block, and the reduction
sums fixed-size blocks in index order, so results are bit-identical no matter
how many workers split the blocks.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import TOTALLY_CORRELATED, UNCORRELATED, named_model
from .operators import IDENTITY2, IDENTITY8, PAULI, kron3

#: Samples per reduction block; fixed so the summation order never varies.
BLOCK = 4096

#: Unitary taking each dephasing axis to z under conjugation: for x a +pi/2
#: rotation about y (Ix -> Iz), for z the identity.
FRAMES = {
    "x": kron3(*[np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)] * 3),
    "z": IDENTITY8,
}

#: Per-basis-state signs of 2Iz for each spin, shape (8, 3).
_Z_SIGNS = 1.0 - 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)

#: Halved sign differences eps of the element |r><c|, row 8 r + c, shape (64, 3).
_EPS = ((_Z_SIGNS[:, None, :] - _Z_SIGNS[None, :, :]) / 2.0).reshape(64, 3)


class CovarianceError(ValueError):
    """Covariance matrix that is not symmetric positive semidefinite."""


def validate_covariance(cov) -> np.ndarray:
    """Validate a 3x3 dephasing-rate covariance matrix and return a copy.

    Checks symmetry, nonnegative diagonal, the Cauchy-Schwarz bound on the
    off-diagonal entries, and positive semidefiniteness (eigenvalues at worst
    -1e-12 at unit scale).
    """
    c = np.array(cov, dtype=float)
    if c.shape != (3, 3):
        raise CovarianceError(f"covariance must be 3x3, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise CovarianceError("covariance has non-finite entries")
    tol = 1e-12 * max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.T).max() > tol:
        raise CovarianceError("covariance is not symmetric")
    for j in range(3):
        if c[j, j] < -tol:
            raise CovarianceError(f"variance c[{j},{j}] = {float(c[j, j])!r} is negative")
    for j in range(3):
        for k in range(j + 1, 3):
            bound = np.sqrt(max(c[j, j], 0.0) * max(c[k, k], 0.0))
            if abs(c[j, k]) > bound + max(tol, 1e-12 * bound):
                raise CovarianceError(
                    f"cross-rate c[{j},{k}] = {float(c[j, k])!r} exceeds the "
                    f"Cauchy-Schwarz bound {float(bound)!r}"
                )
    lowest = float(np.linalg.eigvalsh(c).min())
    if lowest < -tol:
        raise CovarianceError(
            f"covariance is not positive semidefinite: eigenvalue {lowest!r} < 0"
        )
    return c


def validate_time(t):
    """Return ``t`` if every time in it is finite and >= 0, else raise ValueError."""
    times = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(times) & (times >= 0))
    if bad.any():
        raise ValueError(f"time must be finite and >= 0, got {float(times[bad].flat[0])!r}")
    return t


def totally_correlated(tau: float) -> np.ndarray:
    """Covariance with every entry 2/tau: one field shared by all spins."""
    return TOTALLY_CORRELATED.covariance(tau)


def uncorrelated(tau: float) -> np.ndarray:
    """Diagonal covariance 2/tau: independent, identically distributed fields."""
    return UNCORRELATED.covariance(tau)


def effective_covariance(model: str, tau: float | None = None, matrix=None) -> np.ndarray:
    """Build a covariance from a named model or validate a custom one.

    ``model`` is a name in :data:`models.NAMED_MODELS` or "custom".  Named
    models need ``tau`` > 0; "custom" validates ``matrix`` for symmetry and
    positive semidefiniteness.
    """
    if model == "custom":
        if matrix is None:
            raise ValueError("custom model requires a covariance matrix")
        return validate_covariance(matrix)
    return named_model(model).covariance(tau)


def _positive_count(value, name: str) -> int:
    """An integer count >= 1, or a ValueError naming the argument."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return count


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A dephasing channel: covariance, axis, and how to average over it.

    ``kind`` is "analytic" for the exact Gaussian average or "monte-carlo"
    for sampled trajectories (which then requires an integer ``samples`` >= 1).
    """

    covariance: np.ndarray
    axis: str = "x"
    kind: str = "analytic"
    samples: int | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "covariance", validate_covariance(self.covariance))
        if self.axis not in ("x", "z"):
            raise ValueError(f"axis must be 'x' or 'z', got {self.axis!r}")
        if self.kind not in ("analytic", "monte-carlo"):
            raise ValueError(f"kind must be 'analytic' or 'monte-carlo', got {self.kind!r}")
        object.__setattr__(self, "workers", _positive_count(self.workers, "workers"))
        if self.kind == "monte-carlo":
            object.__setattr__(self, "samples", _positive_count(self.samples, "samples"))


def _sqrt_factor(sigma: np.ndarray) -> np.ndarray:
    # Symmetric square root via eigendecomposition; tolerates rank-deficient
    # covariances (Cholesky would fail) by clamping tiny negatives to zero.
    eigvals, eigvecs = np.linalg.eigh(sigma)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_phases(
    cov, t: float, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw accumulated phase vectors chi ~ N(0, C*t).

    Returns shape (3,) or (size, 3).
    """
    c = validate_covariance(cov)
    t = validate_time(t)
    loads = _sqrt_factor(c * t)
    draws = rng.standard_normal(3 if size is None else (size, 3))
    return draws @ loads.T


def phase_stream(cov, t: float, seed: int, samples: int) -> np.ndarray:
    """Deterministic (samples, 3) phase block from a counter-based stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    return sample_phases(cov, t, rng, size=samples)


def random_propagator(chi, axis: str = "x") -> np.ndarray:
    """Exact unitary exp(-i sum_k chi^k I_axis^k), a kron of per-spin closed forms."""
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    half = np.asarray(chi, dtype=float).reshape(3) / 2.0
    return kron3(*(np.cos(h) * IDENTITY2 - 1j * np.sin(h) * PAULI[axis] for h in half))


def dephasing_factors(cov, t: float) -> np.ndarray:
    """The 8x8 Gaussian-averaged factors exp(-(t/2) eps^T C eps).

    Entry (r, c) multiplies the element |r><c| in the dephasing frame.
    """
    c = validate_covariance(cov)
    t = validate_time(t)
    quad = np.einsum("pj,jk,pk->p", _EPS, c, _EPS).reshape(8, 8)
    return np.exp(-0.5 * t * quad)


def trajectory_phases(chis) -> np.ndarray:
    """Per-trajectory factors exp(-i eps . chi): (..., 3) phases to (..., 8, 8) tables.

    Laid out like :func:`dephasing_factors`, whose table is their Gaussian mean.
    """
    chis = np.asarray(chis, dtype=float)
    return np.exp(-1j * (chis @ _EPS.T)).reshape(*chis.shape[:-1], 8, 8)


def dephase(rho: np.ndarray, factors: np.ndarray, axis: str = "x") -> np.ndarray:
    """Multiply rho's elements in the dephasing frame by one 8x8 table or a stack."""
    if axis not in FRAMES:
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    frame = FRAMES[axis]
    rotated = frame @ np.asarray(rho, dtype=complex) @ frame.conj().T
    return frame.conj().T @ (factors * rotated) @ frame


def apply_channel_analytic(rho: np.ndarray, cov, t: float, axis: str = "x") -> np.ndarray:
    """Exact Gaussian-averaged dephasing channel.

    Completely positive and trace preserving; operators diagonal in the
    dephasing-axis eigenbasis are fixed points.
    """
    return dephase(rho, dephasing_factors(cov, t), axis)


def map_phase_blocks(block_fn, cov, t: float, samples: int, seed: int, workers: int = 1) -> list:
    """Draw the seeded phase stream and apply ``block_fn`` to each block.

    The stream is cut into fixed blocks of ``BLOCK`` phase vectors and the
    results come back in block order, so any in-order reduction over them is
    bit-identical whatever the number of worker threads.
    """
    samples = _positive_count(samples, "samples")
    workers = _positive_count(workers, "workers")
    chis = phase_stream(cov, t, seed, samples)
    blocks = [chis[start : start + BLOCK] for start in range(0, samples, BLOCK)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(block_fn, blocks))
    return [block_fn(block) for block in blocks]


def apply_channel_mc(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    """Monte Carlo dephasing: mean over samples of U(chi) rho U(chi)†.

    Each element's factor is the sample mean of exp(-i eps . chi).
    Deterministic for a fixed seed regardless of the worker count.
    """
    if channel.kind != "monte-carlo":
        raise ValueError("apply_channel_mc requires a monte-carlo channel")
    def block_sum(block: np.ndarray) -> np.ndarray:
        return trajectory_phases(block).sum(axis=0)

    partials = map_phase_blocks(
        block_sum, channel.covariance, t, channel.samples, channel.seed, channel.workers
    )
    return dephase(rho, sum(partials) / channel.samples, channel.axis)
