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
factor is averaged, and stay independent so they can cross-validate.
A ``NoiseChannel`` is the one record of how to average (its kind and, for
Monte Carlo, its sample count and seed, both checked when it is made), and
``channel_factors`` the one dispatch on its kind, which ``apply_channel`` and
``protocol.run_pipeline`` both call:

* "analytic": the exact Gaussian average exp(-(t/2) eps^T C eps) of
  ``dephasing_factors``.
* "monte-carlo": the sample mean of the factors over sampled phase vectors
  (``mean_phases``); it never evaluates the Gaussian formula.

``phase_scaled`` is the one check of a time, for the channels (where it must
be a scalar) and the closed forms alike.

The 56 off-diagonal elements share only 13 conjugate pairs of patterns
eps = +-p (``PAIRS``), and the Monte Carlo kernel (``mean_phases``) never
forms the angles p . chi: each pair phasor exp(i p . chi) is a product of
the three spin phasors z_k = exp(i chi_k), and a trajectory forms only five
of them.  3 half-angle tangents and a few rational operations give z1, z2
and z3, and 2 complex products in real arithmetic give z2 z3 and
z2 conj(z3).  The other eight pairs are z1 w or z1 conj(w) for w one of z3,
z2 conj(z3), z2 and z2 z3, so their real and imaginary parts are sums of
the products of the w rows with re z1 and im z1.  A block keeps only the 30
sums of those products, the phasor rows times [re z1, im z1, 1]; one
constant map (``_FACTOR_MAP``) takes them to the 64 elements' factor sums,
once per stream for the mean table, and folds a 64-element observable
into the 3 x 10 weights whose product with the phasor rows gives each
trajectory's survival.

Monte Carlo reproducibility and memory: the phases come from a counter-based
Philox stream keyed by the seed, drawn and reduced ``BLOCK`` vectors at a time
and added in stream order, so memory does not grow with the sample count.
The calling thread reduces each block in one slot while one background thread
draws the next two blocks ahead (see ``_stream``).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import TOTALLY_CORRELATED, UNCORRELATED, real_array
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

#: The products eps_j eps_k of each element, row 8 r + c, column 3 j + k, shape
#: (64, 9): the element's quadratic form eps^T C eps is its row times C raveled.
_EPS_PRODUCTS = (_EPS[:, :, None] * _EPS[:, None, :]).reshape(64, 9)

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


#: The index pairs (j, k), j < k, of a covariance's off-diagonal entries.
_INDEX_PAIRS = tuple(itertools.combinations(range(3), 2))

#: How many distinct checked covariances :func:`validate_covariance` keeps,
#: about 0.5 kB each; the least recently used one is dropped first.
_REGISTRY_SIZE = 256


def validate_covariance(cov) -> np.ndarray:
    """Validate a 3x3 dephasing-rate covariance matrix and return an immutable copy.

    Checks real entries (``models.real_array``, the one rule for arrays of
    reals: a bool is a flag, not a rate), the 3x3 shape, finite entries,
    symmetry, nonnegative diagonal, the Cauchy-Schwarz bound on the
    off-diagonal entries, and positive semidefiniteness (eigenvalues at
    worst -1e-12 at unit scale).
    The checks run on the matrix divided by its largest entry (when above
    1), so no intermediate overflows.  The copy is backed by bytes, so
    nothing can make it writable.  Checked copies are kept by content, the
    float64 bytes of the matrix: a matrix equal to one checked recently (a
    copy, a list or another dtype with the same values) gets the same copy
    back without a second check, and any other matrix runs every check.
    """
    c = real_array(cov, "covariance entries", CovarianceError)
    if c.shape != (3, 3):
        raise CovarianceError(f"covariance must be 3x3, got shape {c.shape}")
    # The entry checks run on Python floats: on 9 numbers numpy's per-call
    # cost outweighs the arithmetic, which is the same IEEE double either way.
    if not all(map(math.isfinite, c.ravel().tolist())):
        raise CovarianceError("covariance has non-finite entries")
    return _checked(c.tobytes())


@lru_cache(maxsize=_REGISTRY_SIZE)
def _checked(key: bytes) -> np.ndarray:
    # The rules on the matrix as a whole, run once per distinct 72-byte key;
    # a failure raises, so only a matrix that passed is kept.
    c = np.frombuffer(key).reshape(3, 3)
    scale = max(1.0, *map(abs, c.ravel().tolist()))
    u = c / scale
    rows = u.tolist()
    tol = 1e-12
    for j, k in _INDEX_PAIRS:
        if abs(rows[j][k] - rows[k][j]) > tol:
            raise CovarianceError("covariance is not symmetric")
    for j in range(3):
        if rows[j][j] < -tol:
            raise CovarianceError(f"variance c[{j},{j}] = {float(c[j, j])!r} is negative")
    for j, k in _INDEX_PAIRS:
        bound = math.sqrt(max(rows[j][j], 0.0) * max(rows[k][k], 0.0))
        if abs(rows[j][k]) > bound + tol:
            raise CovarianceError(
                f"cross-rate c[{j},{k}] = {float(c[j, k])!r} exceeds the "
                f"Cauchy-Schwarz bound {bound * scale!r}"
            )
    lowest = min(np.linalg.eigvalsh(u).tolist())
    if lowest < -tol:
        raise CovarianceError(
            f"covariance is not positive semidefinite: eigenvalue {lowest * scale!r} < 0"
        )
    return c


def totally_correlated(tau: float) -> np.ndarray:
    """Covariance with every entry 2/tau: one field shared by all spins."""
    return TOTALLY_CORRELATED.covariance(tau)


def uncorrelated(tau: float) -> np.ndarray:
    """Diagonal covariance 2/tau: independent, identically distributed fields."""
    return UNCORRELATED.covariance(tau)


def validate_integer(
    value, name: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    """``value`` as an int (numpy integers too) in [minimum, maximum], else a ValueError naming it.

    A bound of None is not checked.
    """
    try:
        if isinstance(value, (bool, np.bool_)):  # a flag, not a count
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and count > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return count


def validate_seed(seed):
    """A Monte Carlo seed: an int >= 0 (returned as int) or a SeedSequence, else ValueError."""
    return seed if isinstance(seed, np.random.SeedSequence) else validate_integer(seed, "seed", 0)


#: The largest Monte Carlo sample count: a count must fit a C index.
MAX_SAMPLES = sys.maxsize


@dataclass(frozen=True, eq=False)
class NoiseChannel:
    """A dephasing channel: covariance, axis, and how to average over it.

    ``kind`` is "analytic" for the exact Gaussian average or "monte-carlo" for
    sampled trajectories, which requires ``samples``.  Every setting is checked
    here: ``samples`` (when given) in [1, ``MAX_SAMPLES``], ``seed`` >= 0 or a
    SeedSequence.  The threads that draw and reduce the samples are not a setting.
    """

    covariance: np.ndarray
    axis: str = "x"
    kind: str = "analytic"
    samples: int | None = None
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        object.__setattr__(self, "covariance", validate_covariance(self.covariance))
        dephasing_frame(self.axis)  # rejects axes other than 'x' and 'z'
        if self.kind not in ("analytic", "monte-carlo"):
            raise ValueError(f"kind must be 'analytic' or 'monte-carlo', got {self.kind!r}")
        object.__setattr__(self, "seed", validate_seed(self.seed))
        if self.kind == "monte-carlo" or self.samples is not None:
            samples = validate_integer(self.samples, "samples", 1, MAX_SAMPLES)
            object.__setattr__(self, "samples", samples)


def phase_scaled(cov, t, scalar: bool = False):
    """The checked (C, t) for the forms t eps' C eps, eps in {-1, 0, 1}^3.

    The one check of every time: each must be a real number
    (``models.real_array``, the rule every array of reals goes through: a
    bool is a flag, not a time), finite and >= 0, one number if ``scalar``
    (a time meeting a channel, which an array would broadcast against), and
    the forms and the eigenvalues of C*t, at most 9 max|c_jk| t, must be
    finite floats, else ValueError.  An array is judged by its min and max
    (NaN fails both); only a failure looks for the first bad time, to name it.
    If 9 max|c_jk| alone overflows, C comes back divided and t multiplied by
    16 (exactly), so no intermediate overflows.  An int or float time
    (numpy's float64 included) comes back as a float, any other time as a
    float array.
    """
    fast = isinstance(t, (int, float)) and not isinstance(t, bool) and 0 <= t <= sys.float_info.max
    if fast:
        t = longest = float(t)  # a valid scalar, checked without numpy's per-call cost
    else:
        t = real_array(t, "times")
        if scalar and t.ndim:
            raise ValueError(f"t must be a scalar time, got an array of shape {t.shape}")
        longest = float(t.max()) if t.size else 0.0
        if t.size and not (t.min() >= 0 and longest <= sys.float_info.max):
            bad = ~(np.isfinite(t) & (t >= 0))
            raise ValueError(f"time must be finite and >= 0, got {float(t[bad].flat[0])!r}")
    c = validate_covariance(cov)
    largest = max(map(abs, c.ravel().tolist()))
    if not math.isfinite(9.0 * (largest * longest)):
        raise ValueError(f"covariance * t overflows: largest entry {largest!r}, t = {longest!r}")
    return (c, t) if math.isfinite(9.0 * largest) else (c / 16.0, t * 16.0)


def _phase_loading(cov, t: float) -> np.ndarray:
    # The loading L of chi = L z, z standard normal: a symmetric square root
    # of C*t via eigendecomposition, which tolerates rank-deficient covariances
    # (Cholesky would fail) by clamping tiny negatives to zero.
    c, t = phase_scaled(cov, t, scalar=True)
    eigvals, eigvecs = np.linalg.eigh(c * t)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def dephasing_factors(cov, t: float) -> np.ndarray:
    """The 8x8 Gaussian-averaged factors exp(-(t/2) eps^T C eps).

    Entry (r, c) multiplies the element |r><c| in the dephasing frame; t
    must be a scalar.
    """
    c, t = phase_scaled(cov, t, scalar=True)
    return np.exp(-0.5 * t * (_EPS_PRODUCTS @ c.ravel()).reshape(8, 8))


def dephase(rho: np.ndarray, factors: np.ndarray, axis: str = "x") -> np.ndarray:
    """Multiply rho's elements in the dephasing frame by one 8x8 table or a stack."""
    frame = dephasing_frame(axis)
    rotated = frame @ np.asarray(rho, dtype=complex) @ frame.conj().T
    return frame.conj().T @ (factors * rotated) @ frame


#: Rows of a block's slot: its 10 phasor rows, a row of ones (refilled per
#: block, as the survivals' three rows reuse it), and 2 scratch rows.
_ROWS = 13
#: Slot rows (real, imaginary) of the five phasors a block forms, by their
#: pattern p: z1, z2, z3, z2 z3 and z2 conj(z3), for the spin phasors
#: z_k = exp(i chi_k).  The spins' rows come in order, so that z1, z2, z3
#: span two 3-row blocks, and re z1, im z1 and the ones (row 10) are evenly
#: spaced: the right-hand side of a block's sums is one strided view.
_PHASOR_ROWS = {
    (1, 0, 0): (4, 7),
    (0, 1, 0): (5, 8),
    (0, 0, 1): (6, 9),
    (0, 1, 1): (0, 2),
    (0, 1, -1): (1, 3),
}
#: Slot rows of the phasors, cos chi_k, sin chi_k, [re z1, im z1, 1] and the survivals.
_PHASORS, _COS, _SIN, _RIGHT, _SURVIVAL = (
    slice(0, 10), slice(4, 7), slice(7, 10), slice(4, 11, 3), slice(10, 13)
)


def _factor_map() -> np.ndarray:
    # The (64, 30) map from a block's products P = phasor rows @ [re z1,
    # im z1, 1], raveled, to its sums of the factors exp(-i eps . chi) of
    # element 8 r + c, with zero rows on the diagonal.  Pair p's phasor is
    # a w: w = re w + i s im w is one of the five phasors (s = 1) or its
    # conjugate (s = -1), and a is z1 (P's columns 0 and 1) if p has a z1
    # factor that w leaves out, else 1 (column 2).  The element with
    # eps = +-p takes the pair's real part -+ i its imaginary part.
    fold = np.zeros((2, len(PAIRS), 10, 3))
    for k, (p1, p2, p3) in enumerate(PAIRS.astype(int)):
        if p2 == p3 == 0:
            (re, im), s, z1 = _PHASOR_ROWS[1, 0, 0], 1, False
        else:
            s = 1 if (p2, p3) > (0, 0) else -1
            (re, im), z1 = _PHASOR_ROWS[0, s * p2, s * p3], p1 == 1
        if z1:  # (re z1 + i im z1)(re w + i s im w)
            fold[:, k, re, :2] += np.eye(2)
            fold[:, k, im, :2] += s * np.array([[0, -1], [1, 0]])
        else:
            fold[0, k, re, 2], fold[1, k, im, 2] = 1, s
    real, imag = fold.reshape(2, len(PAIRS), 30)[:, _PAIR_INDEX]
    table = real - 1j * _PAIR_SIGN[:, None] * imag
    table[_DIAGONAL] = 0.0
    return _frozen(table)


#: Exact (entries 0 and +-1) map from a block's products to its factor sums.
_FACTOR_MAP = _factor_map()


def _phasors(normals: np.ndarray, half: np.ndarray, slot: np.ndarray) -> np.ndarray:
    # The (10, n) phasor rows of n normals' phases chi = 2 half @ normal,
    # written into the (_ROWS, n) ``slot`` with no temporaries.  chi / 2 goes
    # into the sine rows; z_k comes from h = tan(chi_k / 2), since numpy's
    # float64 tan is SIMD where its cos and sin may call scalar libm:
    # cos chi = 2 / (1 + h^2) - 1 and sin chi = h * 2 / (1 + h^2).  Row 11 is
    # the products' scratch.
    h, r, scratch = slot[_SIN], slot[_COS], slot[11]
    np.matmul(half, normals.T, out=h)
    np.tan(h, out=h)
    np.multiply(h, h, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)
    h *= r
    r -= 1.0
    (re_p, re_m, im_p, im_m), (re2, re3), (im2, im3) = slot[:4], r[1:], h[1:]
    np.multiply(re2, re3, out=scratch)
    np.multiply(im2, im3, out=re_m)
    np.subtract(scratch, re_m, out=re_p)
    np.add(scratch, re_m, out=re_m)
    np.multiply(im2, re3, out=scratch)
    np.multiply(re2, im3, out=im_m)
    np.add(scratch, im_m, out=im_p)
    np.subtract(scratch, im_m, out=im_m)
    return slot[_PHASORS]


def _block_sums(normals: np.ndarray, half: np.ndarray, slot: np.ndarray, weights):
    # One block's 30 products, the phasor rows times [re z1, im z1, 1] summed
    # over its trajectories, and, given the survival weights (w0, U) of
    # ``mean_phases``, the (count, mean, M2) of its survivals, left in slot
    # row 12.  The z1 pairs are sums of these products, so the 8 phasors z1 w
    # and z1 conj(w) are never formed.  The mean and M2 are the corrected two
    # pass's: with d = value - sum / n, the mean is sum / n + sum(d) / n and
    # M2 = sum(d^2) - sum(d)^2 / n (at least 0), so equal survivals (at t = 0,
    # say) give their value and an M2 of exactly 0.
    phasors, right = _phasors(normals, half, slot), slot[_RIGHT]
    right[2] = 1.0
    products = (phasors @ right.T).ravel()
    stats = None
    if weights is not None:
        w0, u = weights
        (re1, im1, _), (by_re1, by_im1, values) = right, slot[_SURVIVAL]
        np.matmul(u, phasors, out=slot[_SURVIVAL])
        by_re1 *= re1
        by_im1 *= im1
        values += by_re1
        values += by_im1
        values += w0
        n, mean = len(normals), values.mean()
        np.subtract(values, mean, out=by_re1)
        shift = by_re1.sum()
        by_re1 *= by_re1
        stats = n, mean + shift / n, max(by_re1.sum() - shift * shift / n, 0.0)
    return products, stats


def _add(total, block):
    # The running total of the blocks so far plus the next block; the
    # (count, mean, M2) triples merge by Chan, Golub & LeVeque (1979).
    (sums, a), (block_sums, b) = total, block
    if a is not None:
        (na, ma, sa), (nb, mb, sb) = a, b
        n, delta = na + nb, mb - ma
        a = n, ma + delta * (nb / n), sa + sb + delta * delta * (na * nb / n)
    return sums + block_sums, a


def _stream(half: np.ndarray, samples: int, seed, weights):
    # The total of _block_sums over each BLOCK of the seeded stream, added by
    # _add in stream order.  The calling thread draws block 0 and reduces each
    # block while one background thread keeps the next two blocks' normals
    # drawn ahead (with one, its wake-up falls on the critical path); a
    # one-block stream submits nothing, so it starts no thread.  Every block
    # works in the one slot allocated per call, as fresh BLOCK-float rows
    # would be mapped and page-faulted per block; a block of n samples takes
    # its first _ROWS * n floats as (_ROWS, n), so its rows are contiguous and
    # no ufunc allocates an iteration buffer.
    rng = np.random.Generator(np.random.Philox(seed))
    sizes = (min(BLOCK, samples - start) for start in range(0, samples, BLOCK))
    slot, total, ahead = np.empty(_ROWS * min(BLOCK, samples)), None, deque()
    with ThreadPoolExecutor(1) as pool:
        normals = rng.standard_normal((next(sizes), 3))
        while normals is not None:
            for size in itertools.islice(sizes, 2 - len(ahead)):
                ahead.append(pool.submit(rng.standard_normal, (size, 3)))
            n = len(normals)
            block = _block_sums(normals, half, slot[: _ROWS * n].reshape(_ROWS, n), weights)
            total = block if total is None else _add(total, block)
            normals = ahead.popleft().result() if ahead else None
    return total


def mean_phases(channel: NoiseChannel, t: float, weights=None):
    """Sample mean of the factors exp(-i eps . chi) over a Monte Carlo channel's stream.

    The blocks' products, added in stream order, are mapped to the 8x8 table
    once.  Given ``weights``, an 8x8 table of complex element weights, also
    returns the mean and standard error of the trajectories' survivals
    Re sum(weights * factors) (else None).
    """
    if channel.kind != "monte-carlo":
        raise ValueError(f"sampled phases need a monte-carlo channel, got kind {channel.kind!r}")
    samples, loading = channel.samples, _phase_loading(channel.covariance, t)
    if weights is not None:
        w = np.asarray(weights, dtype=complex).ravel()
        u = (w @ _FACTOR_MAP).real.reshape(10, 3).T
        weights = w[_DIAGONAL].real.sum(), np.ascontiguousarray(u)
    products, stats = _stream(0.5 * loading, samples, channel.seed, weights)
    mean = _FACTOR_MAP @ (products / samples)
    mean[_DIAGONAL] = 1.0
    if stats is None:
        return mean.reshape(8, 8), None
    _, survival, m2 = stats
    stderr = np.sqrt(m2 / (samples - 1)) / np.sqrt(samples) if samples > 1 else 0.0
    return mean.reshape(8, 8), (float(survival), float(stderr))


def channel_factors(channel: NoiseChannel, t: float, weights=None):
    """(8x8 factor table, estimate) at time t, averaged as the channel's kind says.

    Analytic: ``dephasing_factors`` and None; Monte Carlo: ``mean_phases``.
    """
    if channel.kind == "analytic":
        return dephasing_factors(channel.covariance, t), None
    return mean_phases(channel, t, weights)


def apply_channel(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    """Dephase rho along the channel's axis for time t, averaged as its kind says.

    Completely positive and trace preserving; operators diagonal in the
    dephasing-axis eigenbasis are fixed points.
    """
    return dephase(rho, channel_factors(channel, t)[0], channel.axis)


# The benchmark under perfbench/ still calls and traces these two names; the
# next change to the benchmark drops them.
def apply_channel_analytic(rho: np.ndarray, cov, t: float, axis: str = "x") -> np.ndarray:
    return apply_channel(rho, NoiseChannel(cov, axis), t)


def apply_channel_mc(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    return apply_channel(rho, channel, t)
