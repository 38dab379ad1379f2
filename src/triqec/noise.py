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

The Monte Carlo kernel (``mean_phases``) never forms the angles eps . chi.
Each factor is the product over the spins with eps_k != 0 of
cos chi_k - i eps_k sin chi_k, a sum of multilinear monomials in the spins'
cos and sin (from 3 half-angle tangents and a few rational operations).  A
trajectory's 9 feature rows are the monomials of spins 2 and 3 (1, their cos
and sin, and the 4 products of spin 2's cos or sin with spin 3's); a block
keeps only the 27 sums of the features times [cos chi1, sin chi1, 1].  One
constant map (``_FACTOR_MAP``, entries 0, +-1 and +-i) takes them to the 64
elements' factor sums, once per stream for the mean table, and folds a
64-element observable into the 3 x 9 weights whose product with the features
gives each trajectory's survival v, or, less the noiseless survival v0 on the
constant monomial, its deviation d = v - v0, whose sum and d . d follow the
27 sums.  The diagonal is the constant monomial, so its mean is exactly 1.

Monte Carlo reproducibility and memory: one serial stream reduces ``BLOCK``
trajectories at a time in one slot whose size does not grow with the sample
count, and adds each block's vector of sums to one running total in stream
order.  A trajectory draws one normal per eigen-direction of C*t with a phase
variance above 1e-12 rad^2, so the totally correlated model draws 1 normal
and a C*t of rank 0 (t = 0 or C = 0) none: one trajectory then stands for
all.  The normals are Box-Muller transforms (Box & Muller, 1958) of SFC64
uniforms seeded by the seed.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .models import TOTALLY_CORRELATED, UNCORRELATED, one_of, real_array, validate_integer
from .operators import kron3

#: Samples per reduction block; fixed so the summation order never varies.
BLOCK = 8192


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
    return FRAMES[one_of(axis, tuple(FRAMES), "axis")]


#: Per-basis-state signs of 2Iz for each spin, shape (8, 3).
_Z_SIGNS = 1.0 - 2 * ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)

#: Halved sign differences eps of the element |r><c|, row 8 r + c, shape (64, 3).
_EPS = ((_Z_SIGNS[:, None, :] - _Z_SIGNS[None, :, :]) / 2.0).reshape(64, 3)

#: The products eps_j eps_k of each element, row 8 r + c, column 3 j + k, shape
#: (64, 9): the element's quadratic form eps^T C eps is its row times C raveled.
_EPS_PRODUCTS = (_EPS[:, :, None] * _EPS[:, None, :]).reshape(64, 9)


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
    SeedSequence.  Samples are drawn serially: Box-Muller normals of SFC64 uniforms.
    """

    covariance: np.ndarray
    axis: str = "x"
    kind: str = "analytic"
    samples: int | None = None
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        object.__setattr__(self, "covariance", validate_covariance(self.covariance))
        dephasing_frame(self.axis)  # rejects axes other than 'x' and 'z'
        one_of(self.kind, ("analytic", "monte-carlo"), "kind")
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


#: The smallest phase variance (rad^2) a Monte Carlo stream draws a normal
#: for.  A direction dropped below it moves each Gaussian factor
#: exp(-(t/2) eps' C eps) by at most 1.5e-12, as |eps|^2 <= 3: far below the
#: standard error of any feasible sample count.
_MIN_PHASE_VARIANCE = 1e-12


def _phase_loading(cov, t: float) -> np.ndarray:
    # The (3, r) loading L of chi = L z, z r standard normals: the
    # eigen-directions of C*t whose variance exceeds _MIN_PHASE_VARIANCE, each
    # scaled by its standard deviation.  The threshold is absolute, so a
    # large variance never hides a small one that matters, and it drops the
    # rounding-level eigenvalues of a rank-deficient C*t (Cholesky would fail).
    c, t = phase_scaled(cov, t, scalar=True)
    eigvals, eigvecs = np.linalg.eigh(c * t)
    keep = eigvals > _MIN_PHASE_VARIANCE
    return eigvecs[:, keep] * np.sqrt(eigvals[keep])


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


#: Rows of a block's slot.  Rows 0-2 take the normals as they are drawn, then
#: the survivals' terms; cos chi1, sin chi1 and ones (3-5) are the right-hand
#: side of a block's sums; the 9 feature rows (5-13) are ones, cos chi2,
#: sin chi2, the product cos chi2 cos chi3, cos chi3, sin chi3 and the products
#: cos chi2 sin chi3, sin chi2 cos chi3 and sin chi2 sin chi3 (8, 11-13).
_ROWS = 14
_SURVIVAL, _COS, _SIN, _ONES, _RIGHT, _FEATURES = (
    slice(0, 3), slice(3, 12, 3), slice(4, 13, 3), 5, slice(3, 6), slice(5, 14)
)
#: Feature row of each monomial a2 a3 of spins 2 and 3, a factor each of
#: [cos, sin, 1], in row-major order of (a2, a3).
_MONOMIAL_ROWS = [3, 6, 1, 7, 8, 2, 4, 5, 0]


def _factor_map() -> np.ndarray:
    # The (64, 27) map from a block's sums, its feature rows times
    # [cos chi1, sin chi1, 1] raveled, to the sums of the factors
    # exp(-i eps . chi) of element 8 r + c.  A factor is the product over the
    # spins of cos chi_k - i eps_k sin chi_k (of 1 where eps_k = 0), each a
    # vector over [cos chi_k, sin chi_k, 1]; their outer product is the
    # element's coefficient on each monomial a1 a2 a3, which is column a1 of
    # the feature row of a2 a3.
    spins = np.stack([_EPS != 0, -1j * _EPS, _EPS == 0], axis=-1)
    terms = np.einsum("ea,eb,ec->ebca", spins[:, 0], spins[:, 1], spins[:, 2])
    table = np.zeros((64, 9, 3), dtype=complex)
    table[:, _MONOMIAL_ROWS] = terms.reshape(64, 9, 3)
    return _frozen(table.reshape(64, 27))


#: Exact (entries 0, +-1 and +-i) map from a block's sums to its factor sums.
_FACTOR_MAP = _factor_map()


def _double_angle(sine: np.ndarray, cosine: np.ndarray) -> None:
    # Half angles x in ``sine`` to sin 2x there and cos 2x in ``cosine`` from
    # h = tan x, as numpy's float64 tan is SIMD where its cos and sin may call
    # scalar libm: cos 2x = 2 / (1 + h^2) - 1 and sin 2x = h * 2 / (1 + h^2).
    np.tan(sine, out=sine)
    np.multiply(sine, sine, out=cosine)
    cosine += 1.0
    np.divide(2.0, cosine, out=cosine)
    sine *= cosine
    cosine -= 1.0


def _block_sums(normals: np.ndarray, half: np.ndarray, slot: np.ndarray, weights) -> np.ndarray:
    # One block's sums as one vector: its 27 feature rows times
    # [cos chi1, sin chi1, 1] summed over its trajectories, then, given the
    # (3, 9) survival weights of ``mean_phases``, which give each survival
    # less the noiseless one, d = v - v0, sum(d) and d . d.  The (r, n)
    # ``normals`` may lie in the slot's first 3 rows: they are read once, to
    # put chi / 2 = half @ normals into the sine rows.
    cos, sin, features, right = slot[_COS], slot[_SIN], slot[_FEATURES], slot[_RIGHT]
    if len(normals) == 1:  # numpy's matmul loops slowly over an inner dimension of 1
        for row, scale in zip(sin, half[:, 0]):
            np.multiply(normals[0], scale, out=row)
    else:
        np.matmul(half, normals, out=sin)
    _double_angle(sin, cos)
    (c2, c3), (s2, s3) = cos[1:], sin[1:]
    for row, (a, b) in zip((8, 11, 12, 13), ((c2, c3), (c2, s3), (s2, c3), (s2, s3))):
        np.multiply(a, b, out=slot[row])
    slot[_ONES] = 1.0
    sums = (features @ right.T).ravel()
    if weights is None:
        return sums
    by_cos, by_sin, deviations = survival = slot[_SURVIVAL]
    np.matmul(weights, features, out=survival)
    by_cos *= right[0]
    by_sin *= right[1]
    deviations += by_cos
    deviations += by_sin
    return np.append(sums, (deviations.sum(), np.dot(deviations, deviations)))


def _normals(rng: np.random.Generator, count: int, buffer: np.ndarray) -> np.ndarray:
    # ``count`` normals by Box-Muller from m = ceil(count / 2) uniform pairs
    # (u, v) in [0, 1), drawn as u's then v's into ``buffer`` (3 m floats, the
    # last m scratch): the first ``count`` of [r cos 2 pi v, r sin 2 pi v],
    # r = sqrt(-2 ln(1 - u)), by _double_angle of pi v.  1 - u >= 2^-53 and
    # |tan(pi v)| < 2e16, so nothing overflows.
    m = -(-count // 2)
    radius, sine, cosine = buffer[:m], buffer[m : 2 * m], buffer[2 * m : 3 * m]
    rng.random(out=buffer[: 2 * m])
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    sine *= np.pi
    _double_angle(sine, cosine)
    sine *= radius
    radius *= cosine
    return buffer[:count]


def _stream(half: np.ndarray, samples: int, seed, weights) -> np.ndarray:
    # The running total of _block_sums over each BLOCK of the seeded stream,
    # added with + in stream order.  Every block draws its r n normals, r rows
    # of n, into the head of the one slot allocated per call, as fresh
    # BLOCK-float rows would be mapped and page-faulted per block; a block of
    # n samples takes its first _ROWS * n floats as (_ROWS, n), so its rows
    # are contiguous and no ufunc allocates an iteration buffer.
    rng, size, total = np.random.Generator(np.random.SFC64(seed)), min(BLOCK, samples), 0.0
    rank, slot = half.shape[1], np.empty(_ROWS * size)
    for start in range(0, samples, BLOCK):
        n = min(BLOCK, samples - start)
        normals = _normals(rng, rank * n, slot).reshape(rank, n)
        total = total + _block_sums(normals, half, slot[: _ROWS * n].reshape(_ROWS, n), weights)
    return total


def mean_phases(channel: NoiseChannel, t: float, weights=None):
    """(8x8 sample mean of the factors exp(-i eps . chi), stderr) over a Monte Carlo stream.

    The blocks' sums, added in stream order, are mapped to the table once.
    ``weights``, 64 complex element weights raveled like the table, give the
    trajectories' survivals Re sum(weights * factors), whose standard error
    comes back (else None).  Where C*t has rank 0 every phase is 0, so one
    trajectory stands for all and nothing is drawn: every factor is exactly 1
    and the standard error exactly 0.
    """
    if channel.kind != "monte-carlo":
        raise ValueError(f"sampled phases need a monte-carlo channel, got kind {channel.kind!r}")
    loading = _phase_loading(channel.covariance, t)
    samples = channel.samples if loading.size else 1
    if weights is not None:
        # Less v0 = Re sum(weights), the survival at chi = 0, on the constant
        # monomial 1 1 1.  A trajectory's survival v is even in chi, so the
        # mean and the spread of d = v - v0 are of the same order, O(chi^2)
        # (O(chi^4) for a protected survival), at every C and t, and
        # M2 = d . d - sum(d)^2 / n cancels no more than rounding.
        w = np.asarray(weights, dtype=complex).ravel()
        folded = (w @ _FACTOR_MAP).real.reshape(9, 3)
        folded[_MONOMIAL_ROWS[-1], 2] -= w.sum().real
        weights = np.ascontiguousarray(folded.T)
    total = _stream(0.5 * loading, samples, channel.seed, weights)
    mean = (_FACTOR_MAP @ (total[:27] / samples)).reshape(8, 8)
    if weights is None:
        return mean, None
    first, second = total[27:]
    m2 = max(second - first * first / samples, 0.0)
    return mean, math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) if samples > 1 else 0.0


def channel_factors(channel: NoiseChannel, t: float, weights=None):
    """(8x8 factor table, stderr) at time t, averaged as the channel's kind says.

    Analytic: ``dephasing_factors`` and None; Monte Carlo: ``mean_phases``,
    whose standard error needs the survival ``weights`` (else None).
    """
    if channel.kind == "analytic":
        return dephasing_factors(channel.covariance, t), None
    return mean_phases(channel, t, weights)


def apply_channel(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    """Dephase rho along the channel's axis for time t, averaged as its kind says.

    Completely positive and trace preserving; operators diagonal in the
    dephasing-axis eigenbasis are fixed points.  ``rho`` may be any 8x8
    array of finite int, float or complex numbers, else ValueError.
    """
    try:
        state = np.asarray(rho)
    except ValueError:  # a ragged nested sequence
        state = np.asarray(None)
    if state.dtype.kind not in "iufc" or state.shape != (8, 8):
        raise ValueError(f"rho must be an 8x8 array of numbers, got {state.dtype} {state.shape}")
    if not np.isfinite(state).all():
        raise ValueError("rho must be finite, got a NaN or infinite entry")
    return dephase(state, channel_factors(channel, t)[0], channel.axis)


# The benchmark under perfbench/ still calls and traces these two names; the
# next change to the benchmark drops them.
def apply_channel_analytic(rho: np.ndarray, cov, t: float, axis: str = "x") -> np.ndarray:
    return apply_channel(rho, NoiseChannel(cov, axis), t)


def apply_channel_mc(rho: np.ndarray, channel: NoiseChannel, t: float) -> np.ndarray:
    return apply_channel(rho, channel, t)
