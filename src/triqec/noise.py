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
* ``apply_channel_mc``: the sample mean of the factors over sampled phase
  vectors; it never evaluates the Gaussian formula.

A ``NoiseChannel`` is the one record of how to average: its kind and, for
Monte Carlo, its sample count, seed and workers, all checked when it is made
and read from it by ``mean_phases``.  A time that meets a channel must be a
scalar.

The 56 off-diagonal elements share only 13 conjugate pairs of patterns
eps = +-p (``PAIRS``), so the Monte Carlo kernel (``mean_phases``) averages
the real cos(p . chi) and sin(p . chi) of each pair and scatters the means
back to the 8x8 table once (``phase_table``); ``pair_weights`` folds a
64-element observable onto the same 13 pairs.  It never forms the angles
p . chi: each pair phasor exp(i p . chi) is a product of the three spin
phasors exp(i chi_k), so a trajectory costs 3 cosines, 3 sines and 10
complex products in real arithmetic.

Monte Carlo reproducibility and memory: the phases come from a counter-based
Philox stream keyed by the seed, drawn and reduced ``BLOCK`` vectors at a time
and added in stream order, so memory does not grow with the sample count and
results are bit-identical no matter how many worker threads reduce the blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import TOTALLY_CORRELATED, UNCORRELATED
from .operators import kron3

#: Samples per reduction block; fixed so the summation order never varies.
BLOCK = 4096


def _frozen(table: np.ndarray) -> np.ndarray:
    # Shared module tables are read-only so no caller can alter them.
    table.setflags(write=False)
    return table


#: Unitary taking each dephasing axis to z under conjugation: for x a +pi/2
#: rotation about y (Ix -> Iz), for z the identity.
FRAMES = {
    "x": _frozen(kron3(*[np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)] * 3)),
    "z": _frozen(np.eye(8, dtype=complex)),
}


def dephasing_frame(axis: str) -> np.ndarray:
    """``FRAMES[axis]``; an axis other than 'x' or 'z' raises ValueError."""
    if axis not in FRAMES:
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    return FRAMES[axis]


#: Per-basis-state signs of 2Iz for each spin, shape (8, 3).
_Z_SIGNS = 1.0 - 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)

#: Halved sign differences eps of the element |r><c|, row 8 r + c, shape (64, 3).
_EPS = ((_Z_SIGNS[:, None, :] - _Z_SIGNS[None, :, :]) / 2.0).reshape(64, 3)

#: One pattern p per conjugate pair +-p of nonzero eps, the one whose first
#: nonzero entry is positive, shape (13, 3).
PAIRS = _frozen(
    np.array([p for p in itertools.product((-1.0, 0.0, 1.0), repeat=3) if p > (0, 0, 0)])
)

#: Each element's pair: eps = _PAIR_SIGN * PAIRS[_PAIR_INDEX] row by row, with
#: sign 0 (and index 0) on the diagonal, where eps = 0.
_PAIR_SIGN = np.sign(_EPS[np.arange(64), np.argmax(_EPS != 0, axis=1)])
_PAIR_INDEX = np.argmax((_PAIR_SIGN[:, None, None] * _EPS[:, None] == PAIRS).all(axis=2), axis=1)
_DIAGONAL = _PAIR_SIGN == 0


class CovarianceError(ValueError):
    """Covariance matrix that is not symmetric positive semidefinite."""


#: Every array :func:`validate_covariance` returned that is still alive, by id.
_CHECKED = weakref.WeakValueDictionary()


def validate_covariance(cov) -> np.ndarray:
    """Validate a 3x3 dephasing-rate covariance matrix and return an immutable copy.

    Checks symmetry, nonnegative diagonal, the Cauchy-Schwarz bound on the
    off-diagonal entries, and positive semidefiniteness (eigenvalues at worst
    -1e-12 at unit scale).  The checks run on the matrix divided by its
    largest entry (when above 1), so no intermediate overflows.  The copy is
    backed by bytes, so nothing can make it writable; an array returned here
    is accepted as is, without a re-check, and any other array is checked.
    """
    if _CHECKED.get(id(cov)) is cov:
        return cov
    c = np.array(cov, dtype=float)
    if c.shape != (3, 3):
        raise CovarianceError(f"covariance must be 3x3, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise CovarianceError("covariance has non-finite entries")
    scale = max(1.0, float(np.abs(c).max()))
    u = c / scale
    tol = 1e-12
    if np.abs(u - u.T).max() > tol:
        raise CovarianceError("covariance is not symmetric")
    for j in range(3):
        if u[j, j] < -tol:
            raise CovarianceError(f"variance c[{j},{j}] = {float(c[j, j])!r} is negative")
    for j, k in itertools.combinations(range(3), 2):
        bound = np.sqrt(max(u[j, j], 0.0) * max(u[k, k], 0.0))
        if abs(u[j, k]) > bound + tol:
            raise CovarianceError(
                f"cross-rate c[{j},{k}] = {float(c[j, k])!r} exceeds the "
                f"Cauchy-Schwarz bound {float(bound * scale)!r}"
            )
    lowest = float(np.linalg.eigvalsh(u).min())
    if lowest < -tol:
        raise CovarianceError(
            f"covariance is not positive semidefinite: eigenvalue {lowest * scale!r} < 0"
        )
    c = np.frombuffer(c.tobytes()).reshape(3, 3)
    _CHECKED[id(c)] = c
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


def validate_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int (numpy integers too) >= ``minimum``, else a ValueError naming it."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return count


def validate_seed(seed):
    """A Monte Carlo seed: an int >= 0 (returned as int) or a SeedSequence, else ValueError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return validate_integer(seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A dephasing channel: covariance, axis, and how to average over it.

    ``kind`` is "analytic" for the exact Gaussian average or "monte-carlo" for
    sampled trajectories, which requires ``samples``.  Every setting is checked
    here: ``samples`` (when given) and ``workers`` >= 1, ``seed`` >= 0.
    """

    covariance: np.ndarray
    axis: str = "x"
    kind: str = "analytic"
    samples: int | None = None
    seed: int | np.random.SeedSequence = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "covariance", validate_covariance(self.covariance))
        dephasing_frame(self.axis)  # rejects axes other than 'x' and 'z'
        if self.kind not in ("analytic", "monte-carlo"):
            raise ValueError(f"kind must be 'analytic' or 'monte-carlo', got {self.kind!r}")
        object.__setattr__(self, "workers", validate_integer(self.workers, "workers", 1))
        object.__setattr__(self, "seed", validate_seed(self.seed))
        if self.kind == "monte-carlo" or self.samples is not None:
            object.__setattr__(self, "samples", validate_integer(self.samples, "samples", 1))


def phase_scaled(cov, t):
    """The checked (C, t) for the forms t eps' C eps, eps in {-1, 0, 1}^3.

    The one rule for a covariance meeting a time: those forms and the
    eigenvalues of C*t, at most 9 max|c_jk| t, must be finite floats, else
    ValueError.  If 9 max|c_jk| alone overflows, C comes back divided and t
    multiplied by 16 (exactly), so no intermediate overflows.
    """
    c = validate_covariance(cov)
    t = np.asarray(validate_time(t), dtype=float)
    largest = float(np.abs(c).max())
    longest = float(t.max()) if t.size else 0.0
    if not math.isfinite(9.0 * (largest * longest)):
        raise ValueError(f"covariance * t overflows: largest entry {largest!r}, t = {longest!r}")
    return (c, t) if math.isfinite(9.0 * largest) else (c / 16.0, t * 16.0)


def _scalar_time(t):
    # A time meeting a channel is one number (0-d arrays too): an array would
    # broadcast against the 8x8 factor table or the 3x3 covariance.
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a scalar time, got an array of shape {np.shape(t)}")
    return t


def _phase_loading(cov, t: float) -> np.ndarray:
    # The loading L of chi = L z, z standard normal: a symmetric square root
    # of C*t via eigendecomposition, which tolerates rank-deficient covariances
    # (Cholesky would fail) by clamping tiny negatives to zero.
    c = validate_covariance(cov)
    phase_scaled(c, _scalar_time(t))  # checks t, and that C*t does not overflow
    eigvals, eigvecs = np.linalg.eigh(c * t)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _draw(loading: np.ndarray, rng: np.random.Generator, size: int | None) -> np.ndarray:
    # The next ``size`` phase vectors of ``rng``'s stream (one if None).
    return rng.standard_normal(3 if size is None else (size, 3)) @ loading.T


def dephasing_factors(cov, t: float) -> np.ndarray:
    """The 8x8 Gaussian-averaged factors exp(-(t/2) eps^T C eps).

    Entry (r, c) multiplies the element |r><c| in the dephasing frame; t
    must be a scalar.
    """
    c, t = phase_scaled(cov, _scalar_time(t))
    quad = np.einsum("pj,jk,pk->p", _EPS, c, _EPS).reshape(8, 8)
    return np.exp(-0.5 * t * quad)


def phase_table(cos, sin) -> np.ndarray:
    """Scatter (..., 13) pair cosines and sines to (..., 8, 8) factor tables.

    The element with eps = s p gets cos - i s sin of pair p, the diagonal 1.
    Fed the sample means of cos(p . chi) and sin(p . chi), it gives the mean
    of the trajectories' factors exp(-i eps . chi).
    """
    cos, sin = np.asarray(cos), np.asarray(sin)
    table = cos[..., _PAIR_INDEX] - 1j * (_PAIR_SIGN * sin[..., _PAIR_INDEX])
    table[..., _DIAGONAL] = 1.0
    return table.reshape(*cos.shape[:-1], 8, 8)


def pair_weights(weights) -> tuple[float, np.ndarray, np.ndarray]:
    """Fold an 8x8 table of element weights onto the 13 pairs.

    Returns (w0, wc, ws) such that Re sum(weights * phase_table(cos, sin))
    equals w0 + cos @ wc + sin @ ws.
    """
    w = np.asarray(weights, dtype=complex).ravel()
    off = ~_DIAGONAL
    wc = np.bincount(_PAIR_INDEX[off], w[off].real, minlength=len(PAIRS))
    ws = np.bincount(_PAIR_INDEX[off], (_PAIR_SIGN * w)[off].imag, minlength=len(PAIRS))
    return float(w[_DIAGONAL].real.sum()), wc, ws


def dephase(rho: np.ndarray, factors: np.ndarray, axis: str = "x") -> np.ndarray:
    """Multiply rho's elements in the dephasing frame by one 8x8 table or a stack."""
    frame = dephasing_frame(axis)
    rotated = frame @ np.asarray(rho, dtype=complex) @ frame.conj().T
    return frame.conj().T @ (factors * rotated) @ frame


def apply_channel_analytic(rho: np.ndarray, cov, t: float, axis: str = "x") -> np.ndarray:
    """Exact Gaussian-averaged dephasing channel.

    Completely positive and trace preserving; operators diagonal in the
    dephasing-axis eigenbasis are fixed points.
    """
    return dephase(rho, dephasing_factors(cov, t), axis)


#: Rows of a block's buffer: the 13 pair cosines, the 13 pair sines and 4 scratch rows.
_ROWS = 2 * len(PAIRS) + 4


def _products(re, im, scratch, w, v, plus, minus) -> None:
    # Rows ``plus`` <- z_w z_v and rows ``minus`` <- z_w conj(z_v) of the
    # phasors z = re + i im, in real arithmetic; ``minus`` doubles as scratch.
    np.multiply(re[w], re[v], out=scratch)
    np.multiply(im[w], im[v], out=re[minus])
    np.subtract(scratch, re[minus], out=re[plus])
    np.add(scratch, re[minus], out=re[minus])
    np.multiply(im[w], re[v], out=scratch)
    np.multiply(re[w], im[v], out=im[minus])
    np.add(scratch, im[minus], out=im[plus])
    np.subtract(scratch, im[minus], out=im[minus])


def _pair_phasors(chis: np.ndarray, buffer: np.ndarray):
    # The (13, n) cosines and sines of the pair angles p . chi of n phase
    # vectors, written into ``buffer``'s rows.  Each pair phasor exp(i p . chi)
    # is a product of the spin phasors z_k = exp(i chi_k): in PAIRS order the
    # pairs are z3, z2 conj(z3), z2, z2 z3, then z1 times the conjugates of
    # those four in reverse, z1, and z1 times those four.
    n = len(chis)
    re, im, scratch = buffer[:13, :n], buffer[13:26, :n], buffer[26:, :n]
    for row, spin in ((0, 2), (2, 1), (8, 0)):
        np.cos(chis[:, spin], out=re[row])
        np.sin(chis[:, spin], out=im[row])
    _products(re, im, scratch[0], 2, 0, 3, 1)
    _products(re, im, scratch, 8, slice(0, 4), slice(9, 13), slice(7, 3, -1))
    return re, im


def _block_sums(chis: np.ndarray, buffer: np.ndarray, weights):
    # One block's 13 pair cosine and sine sums and, given pair weights, the
    # (count, mean, M2) of its survivals w0 + wc @ cos + ws @ sin.
    cos, sin = _pair_phasors(chis, buffer)
    stats = None
    if weights is not None:
        values = weights[0] + weights[1] @ cos + weights[2] @ sin
        mean = values.mean()
        stats = len(values), mean, ((values - mean) ** 2).sum()
    return cos.sum(axis=1), sin.sum(axis=1), stats


def _add(total, block):
    # The running total of the blocks so far plus the next block; the
    # (count, mean, M2) triples merge by Chan, Golub & LeVeque (1979).
    (cos, sin, a), (block_cos, block_sin, b) = total, block
    if a is not None:
        (na, ma, sa), (nb, mb, sb) = a, b
        n, delta = na + nb, mb - ma
        a = n, ma + delta * (nb / n), sa + sb + delta * delta * (na * nb / n)
    return cos + block_cos, sin + block_sin, a


def _stream(loading: np.ndarray, samples: int, seed, workers: int, weights):
    # _block_sums of each BLOCK of the seeded stream, in stream order.  The
    # calling thread draws while min(workers, CPUs) threads reduce, with one
    # block more in flight.  Each in-flight block reuses its slot of one
    # buffer allocated per call: fresh temporaries of 4 to 13 rows of BLOCK
    # floats, above the allocator's mmap threshold, would be mapped and
    # page-faulted per block.
    rng = np.random.Generator(np.random.Philox(seed))
    threads, blocks = min(workers, os.cpu_count() or 1), range(0, samples, BLOCK)
    slots = np.empty((min(threads + 1, len(blocks)), _ROWS, min(BLOCK, samples)))
    window = deque()
    with ThreadPoolExecutor(threads) as pool:
        for index, start in enumerate(blocks):
            chis = _draw(loading, rng, min(BLOCK, samples - start))
            if len(window) == len(slots):  # frees slot index % len(slots)
                yield window.popleft().result()
            window.append(pool.submit(_block_sums, chis, slots[index % len(slots)], weights))
        while window:
            yield window.popleft().result()


def mean_phases(channel: NoiseChannel, t: float, weights=None):
    """Sample mean of the factors exp(-i eps . chi) over a Monte Carlo channel's stream.

    Each block's 13 pair cosine and sine sums, added in stream order, are
    scattered to the 8x8 table once.  With ``weights`` from
    :func:`pair_weights`, also returns the mean and standard error of the
    trajectories' survivals w0 + cos @ wc + sin @ ws (else None).
    """
    if channel.kind != "monte-carlo":
        raise ValueError(f"sampled phases need a monte-carlo channel, got kind {channel.kind!r}")
    samples, loading = channel.samples, _phase_loading(channel.covariance, t)
    blocks = _stream(loading, samples, channel.seed, channel.workers, weights)
    cos, sin, stats = functools.reduce(_add, blocks)
    mean = phase_table(cos / samples, sin / samples)
    if stats is None:
        return mean, None
    _, survival, m2 = stats
    stderr = np.sqrt(m2 / (samples - 1)) / np.sqrt(samples) if samples > 1 else 0.0
    return mean, (float(survival), float(stderr))


def apply_channel_mc(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    """Monte Carlo dephasing: mean over samples of U(chi) rho U(chi)†.

    Each element's factor is the sample mean of exp(-i eps . chi).
    Deterministic for a fixed seed regardless of the worker count.
    """
    return dephase(rho, mean_phases(channel, t)[0], channel.axis)
