"""The full error-correction pipeline and its mixed-ancilla analysis.

A run is prepare -> encode -> dephase -> decode -> correct -> discard
ancillae.  The encoder doubles as the decoder (it is self-inverse), the
correction step is the doubly-controlled flip, and discarding the ancillae
is the partial trace.  With ground-state ancillae the protected (y, z)
components of the data spin come back scaled by the closed-form survival
factor; the x component is untouched by construction.

``run_pipeline`` is the one body: the encoded state, in the dephasing frame,
has its elements multiplied by an 8x8 factor table, then is decoded,
corrected and reduced.  All of that but the table is fixed by the
configuration, so a ``PipelineConfig`` builds it once, when it is made, as a
(4, 64) readout from the raveled table to the raveled reduced state; a run
is the table, one matrix-vector product and the Bloch read.  The channel
says how the table is averaged (``noise.channel_factors``): exactly over the
Gaussian phases, or as the sample mean of seeded trajectories, each of whose
survivals is the protected observable pulled back into that frame and folded
onto the 13 conjugate phase pairs, once per configuration.
``run_pipeline_mc`` is ``run_pipeline`` on the same configuration with a
Monte Carlo channel of the given settings.  The agreement of the two
averages is the central cross-check of the package.  The constant gates
(the encode/decode unitaries per correction, rotation and axis, their
reduction basis, and the ancilla sector projectors) are built once and
cached read-only.

The mixed-ancilla survival and slopes read one sign table, ``SECTOR_SIGNS``;
a single sector is its one-hot mixture.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytics import _decay_law
from .gates import encoder, global_rotation, toffoli
from .noise import (
    NoiseChannel,
    channel_factors,
    dephasing_frame,
    pair_weights,
    phase_scaled,
    validate_covariance,
    validate_integer,
)
from .operators import (
    ANCILLA_SECTORS,
    PAULI,
    BlochVector,
    bloch_of,
    data_state_from_bloch,
    partial_trace_ancillae,
    sector_index,
)

BASIS_ROTATIONS = ("none", "y-pi/2")


class ConfigError(ValueError):
    """Pipeline configuration that violates its invariants."""


def _nonnegative(weight, name: str) -> None:
    if not (-1e-12 <= weight < np.inf):
        raise ConfigError(f"{name} must be finite and >= 0, got {weight!r}")


def _unit_sum(weights, name: str) -> None:
    total = sum(weights)
    if not (abs(total - 1.0) <= 1e-12):
        raise ConfigError(f"{name} must sum to 1, got {total!r}")


@dataclass(frozen=True)
class AncillaMixture:
    """Statistical weights of the four diagonal ancilla states.

    Ordered (+,+), (+,-), (-,+), (-,-); nonnegative and summing to one.
    """

    mu_pp: float
    mu_pm: float
    mu_mp: float
    mu_mm: float

    def __post_init__(self):
        for field in fields(self):
            _nonnegative(getattr(self, field.name), f"mixture weight {field.name}")
        _unit_sum(self.weights, "mixture weights")

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.mu_pp, self.mu_pm, self.mu_mp, self.mu_mm)


#: The weights (s2, s3, s2 s3) that a sector's ancilla signs put on the F2, F3
#: and three-spin terms of the decay law, one row per sector in
#: ``ANCILLA_SECTORS`` order.
SECTOR_SIGNS = np.array([(s2, s3, s2 * s3) for s2, s3 in ANCILLA_SECTORS], dtype=float)
SECTOR_SIGNS.setflags(write=False)


@dataclass(frozen=True)
class CorrelatedComponent:
    """One term of an ancilla-diagonal state classically correlated with the data.

    ``bloch`` is the data-spin Bloch vector of this component and ``sector``
    the (sign2, sign3) ancilla z-basis sector it multiplies.
    """

    weight: float
    bloch: tuple[float, float, float]
    sector: tuple[int, int]

    def __post_init__(self):
        _nonnegative(self.weight, "component weight")
        data_state_from_bloch(self.bloch)  # rejects non-finite or too long Bloch vectors
        sector_index(*self.sector)  # rejects signs other than +-1


def _correlated_components(components) -> tuple[CorrelatedComponent, ...]:
    # A nonempty tuple of components whose weights sum to one.
    components = tuple(components)
    if not components:
        raise ConfigError("correlated mixture needs at least one component")
    _unit_sum((comp.weight for comp in components), "correlated mixture weights")
    return components


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """What to run: initial state, ancilla preparation, channel, options.

    The data state is given either as a Bloch vector or per component of a
    correlated ancilla mixture.  The optional y-pi/2 basis rotation (applied
    after encoding, undone before decoding) re-targets the code at z-axis
    noise.
    """

    channel: NoiseChannel
    bloch: tuple[float, float, float] | None = None
    ancillae: AncillaMixture | tuple[CorrelatedComponent, ...] | None = None
    correction: bool = True
    basis_rotation: str = "none"

    def __post_init__(self):
        _conjugators(self.correction, self.basis_rotation, self.channel.axis)  # checks the strings
        correlated = self.ancillae is not None and not isinstance(self.ancillae, AncillaMixture)
        if correlated:
            components = _correlated_components(self.ancillae)
            if self.bloch is not None:
                raise ConfigError("give no Bloch vector with a correlated mixture")
            object.__setattr__(self, "ancillae", components)
        elif self.bloch is None:
            raise ConfigError("no initial data state given")
        # Built once per configuration (``replace`` builds it afresh); the
        # initial state rejects non-finite or too long Bloch vectors.
        object.__setattr__(self, "_constant", _constant_part(self))


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Reduced output state, the Bloch vectors, and the measured survival.

    ``survival`` is the least-squares scalar mapping the protected input
    components (y, z) onto the output ones, or None when the input has no
    protected component.  Monte Carlo runs also report its standard error.
    """

    reduced: np.ndarray
    bloch_in: BlochVector
    bloch_out: BlochVector
    survival: float | None
    survival_stderr: float | None = None


@lru_cache(maxsize=4)
def _sector_projector(sign2: int, sign3: int) -> np.ndarray:
    # 4x4 projector onto one ancilla z-basis sector; the ancilla basis states
    # run in ANCILLA_SECTORS order.  Cached, hence read-only.
    projector = np.diag(np.eye(4, dtype=complex)[sector_index(sign2, sign3)])
    projector.setflags(write=False)
    return projector


def _product_state(data: np.ndarray, ancillae: np.ndarray) -> np.ndarray:
    # np.kron(data, ancillae) for a 2x2 data and a 4x4 ancilla operator: the
    # same products, without np.kron's per-call overhead.
    return (data[:, None, :, None] * ancillae[None, :, None, :]).reshape(8, 8)


def _initial_state(config: PipelineConfig) -> np.ndarray:
    # The 8x8 state the pipeline starts from; ground-state ancillae by default.
    ancillae = config.ancillae
    if ancillae is not None and not isinstance(ancillae, AncillaMixture):
        return sum(
            comp.weight
            * _product_state(data_state_from_bloch(comp.bloch), _sector_projector(*comp.sector))
            for comp in ancillae
        )
    weights = ancillae.weights if isinstance(ancillae, AncillaMixture) else (1.0, 0.0, 0.0, 0.0)
    return _product_state(data_state_from_bloch(config.bloch), np.diag(weights))


@lru_cache(maxsize=8)  # 2 correction flags x 2 basis rotations x 2 axes
def _conjugators(
    correction: bool, basis_rotation: str, axis: str
) -> tuple[np.ndarray, np.ndarray]:
    # Constant unitaries applied before and after the noise, with the
    # dephasing frame folded in: pre = frame (rotation) encode, post =
    # correct decode (rotation inverse) frame^-1.  Cached, hence read-only.
    frame = dephasing_frame(axis)
    if basis_rotation not in BASIS_ROTATIONS:
        raise ConfigError(
            f"basis_rotation must be one of {BASIS_ROTATIONS}, got {basis_rotation!r}"
        )
    if not correction:
        pre, post = frame, frame.conj().T
    else:
        enc = encoder()
        dec = toffoli() @ enc
        if basis_rotation == "y-pi/2":
            rot = global_rotation("y", np.pi / 2)
            enc, dec = rot @ enc, dec @ rot.conj().T
        pre, post = frame @ enc, dec @ frame.conj().T
    for gate in (pre, post):
        gate.setflags(write=False)
    return pre, post


@lru_cache(maxsize=8)  # one per _conjugators key
def _reduction_basis(correction: bool, basis_rotation: str, axis: str) -> np.ndarray:
    # Column 8 i + j is the raveled partial trace of post |i><j| post^H, so
    # a frame state S whose elements are scaled by a factor table F decodes
    # to the reduced state sum_ij F_ij S_ij column_ij.  Cached, hence read-only.
    post = _conjugators(correction, basis_rotation, axis)[1]
    columns = [
        partial_trace_ancillae(np.outer(post[:, i], post[:, j].conj())).ravel()
        for i in range(8)
        for j in range(8)
    ]
    basis = np.array(columns).T
    basis.setflags(write=False)
    return basis


class _ConstantPart(NamedTuple):
    # What run_pipeline needs of a configuration at every time.
    bloch_in: BlochVector
    weight: float  # squared length of bloch_in's protected (y, z) part
    fold: tuple | None  # the Monte Carlo survival weights, else None
    readout: np.ndarray  # (4, 64): raveled factor table -> raveled reduced state


def _constant_part(config: PipelineConfig) -> _ConstantPart:
    # The encoded state in the dephasing frame, folded once into the readout
    # (and, on a Monte Carlo channel, into the survival weights).
    channel = config.channel
    key = (config.correction, config.basis_rotation, channel.axis)
    rho0 = _initial_state(config)
    bloch_in = bloch_of(partial_trace_ancillae(rho0))
    pre, post = _conjugators(*key)
    state = pre @ rho0 @ pre.conj().T
    weight = bloch_in.y**2 + bloch_in.z**2
    fold = None
    if channel.kind == "monte-carlo" and weight > 0:
        # The protected observable, pulled back through the post-noise gates
        # and contracted with the frame state: a trajectory's factor table f
        # gives its survival Re sum(f * contraction), which the pair weights
        # turn into w0 + cos @ wc + sin @ ws.  The exact average skips it.
        observable = np.kron(bloch_in.y * PAULI["y"] + bloch_in.z * PAULI["z"], np.eye(4))
        fold = pair_weights((post.conj().T @ observable @ post).T * state / weight)
    return _ConstantPart(bloch_in, weight, fold, _reduction_basis(*key) * state.ravel())


def run_pipeline(config: PipelineConfig, t: float) -> PipelineResult:
    """Run the pipeline at decoherence time t, averaging as the channel says.

    The factor table comes from :func:`noise.channel_factors`.  On an
    analytic channel the survival is read off the output; a Monte Carlo
    channel also gives the mean and standard error of the trajectories'
    survivals.  t must be a scalar.
    """
    bloch_in, weight, fold, readout = config._constant
    factors, estimate = channel_factors(config.channel, t, fold)
    reduced = (readout @ factors.ravel()).reshape(2, 2)
    bloch_out = bloch_of(reduced)
    survival, stderr = estimate or (None, None)
    if estimate is None and weight > 0:  # least squares on the protected plane
        survival = (bloch_out.y * bloch_in.y + bloch_out.z * bloch_in.z) / weight
    return PipelineResult(reduced, bloch_in, bloch_out, survival, stderr)


def run_pipeline_mc(
    config: PipelineConfig, t: float, samples: int, seed, workers: int = 1
) -> PipelineResult:
    """:func:`run_pipeline` on ``config`` with a Monte Carlo channel of these settings.

    ``seed`` is an int >= 0 or a SeedSequence; ``workers`` (>= 1) has no effect.
    """
    validate_integer(workers, "workers", 1)  # the next benchmark change drops workers
    settings = dict(kind="monte-carlo", samples=samples, seed=seed)
    return run_pipeline(replace(config, channel=replace(config.channel, **settings)), t)


def mixed_ancilla_survival(mix: AncillaMixture, cov, t):
    """Survival of the protected components for a diagonal ancilla mixture.

    The decay law with the sector signs averaged over the mixture; a one-hot
    mixture gives that sector's survival, and (1, 0, 0, 0) the survival
    factor.  Accepts a scalar or array of times.
    """
    c, t = phase_scaled(cov, t)
    return _decay_law(c, t, *(mix.weights @ SECTOR_SIGNS))


#: First-order decay coefficients: rows c11, c22, c33, columns the ancilla
#: sectors in ``ANCILLA_SECTORS`` order.  Sector weights mu decay initially
#: with slope -(SLOPES @ mu) . diag(C), the t-derivative at 0 of the decay
#: law: column (1, s2, s3) - s2 s3, over 4.  The ground column is zero.
SLOPES = 0.25 * (np.c_[np.ones(4), SECTOR_SIGNS[:, :2]] - SECTOR_SIGNS[:, 2:]).T
SLOPES.setflags(write=False)


def _slope(weights, cov):
    # -(SLOPES @ weights) . diag(C) for sector weights of shape (4,) or (4, k).
    return -(np.diagonal(validate_covariance(cov)) @ (SLOPES @ weights))


def mixed_ancilla_slope_at_zero(mix: AncillaMixture, cov) -> float:
    """Initial decay slope of a diagonal ancilla mixture.

    The weighted sum of the sector slopes: zero for the ground mixture
    regardless of the covariance; any weight on the other sectors couples the
    slope to the variances.
    """
    return float(_slope(mix.weights, cov))


@dataclass(frozen=True)
class NoGoCertificate:
    """Outcome of the simplex search for first-order-protected mixtures.

    The grid mixtures whose initial slope vanishes for every covariance
    compatible with the model's variance signs are the first ``zero_count``
    points of the mu_pm = mu_mp = 0 edge, from the ground mixture to
    ``last_zero``; ``margins`` refer to the remaining grid points (min
    certifies uniqueness, max is the most fragile mixture).
    """

    grid_step: float
    zero_count: int
    last_zero: tuple[float, float, float, float]
    unique_ground_zero: bool
    min_margin: float
    argmin: tuple[float, float, float, float]
    max_margin: float
    argmax: tuple[float, float, float, float]


#: The unit steps {0,1}^3 off the mu_pm = mu_mp = 0 edge, as lexicographic
#: (mu_pm, mu_mp, mu_mm) counts.
_UNIT_STEPS = np.indices((2, 2, 2)).reshape(3, -1).T[2:]


def ancilla_mixture_nogo_search(cov, grid_step: float = 0.01) -> NoGoCertificate:
    """Certify that only the ground mixture has a zero initial slope.

    A zero must hold for *every* admissible covariance, not rely on
    cancellation between particular variances, so a mixture's margin is
    |SLOPES @ mu| . diag(C) >= |slope|.  The answer is that of the simplex
    grid of step 1/n, n = round(1 / grid_step), read off at most ten
    mixtures: the margin is convex (maximum at a vertex), never decreases
    along the mu_pm = mu_mp = 0 edge (the zeros are its first points), and
    is additive on the unimodular cones where each |.| keeps its sign (off
    the zeros, a unit step {0,1}^3/n or the first nonzero edge point has
    the minimum).  Ties go to the first mixture in lexicographic order of
    (mu_pm, mu_mp, mu_mm).  A c11 below about 1e-12 n times the largest
    variance puts margins off the edge under the zero tolerance; those
    mixtures are not counted as zeros.

    Raises
    ------
    ValueError
        If c11 is not strictly positive (the uniqueness statement is
        conditional on a dephasing data spin).
    """
    diag = np.diagonal(validate_covariance(cov))
    if diag[0] <= 0:
        raise ValueError("the no-go search requires a positive data-spin variance c11")
    if not (0 < grid_step <= 1):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step!r}")
    if not 1.0 / grid_step < 2.0**63:  # n must be a finite int64 count
        raise ValueError(f"grid_step must be above 2**-63, got {grid_step!r}")
    n = max(1, round(1.0 / grid_step))
    tol = 1e-12 * diag.max()

    def mixtures(counts):  # (mu_pp, mu_pm, mu_mp, mu_mm) from rows of counts
        mpm, mmp, mmm = np.asarray(counts).T / n
        return np.stack([1.0 - mpm - mmp - mmm, mpm, mmp, mmm], axis=-1)

    def margin(counts):
        return (np.abs(mixtures(counts) @ SLOPES.T) * diag).sum(axis=-1)

    # The first nonzero edge point (0, 0, k), k = n + 1 if none: double, then
    # bisect, so the cost grows with the number of zeros only.
    hi = 1
    while hi <= n and margin([0, 0, hi]) <= tol:
        hi *= 2
    edge = range(min(hi, n + 1))
    first = bisect.bisect_right(edge, tol, lo=hi // 2, key=lambda k: margin([0, 0, k]))

    steps = _UNIT_STEPS[_UNIT_STEPS.sum(axis=1) <= n]
    vertices = n * np.eye(3, dtype=int)
    # Sorted without repeats; np.unique(axis=0) would import numpy.ma (~40 ms).
    candidates = np.vstack([steps, vertices, [[0, 0, min(first, n)]]]).tolist()
    counts = np.array(sorted(set(map(tuple, candidates))))
    values = margin(counts)
    imin = np.where(values > tol, values, np.inf).argmin()
    imax = np.where((values > tol) & (counts.max(axis=1) == n), values, -np.inf).argmax()
    mus = mixtures(counts).tolist()
    return NoGoCertificate(
        grid_step=1.0 / n,
        zero_count=first,
        last_zero=tuple(mixtures([0, 0, first - 1]).tolist()),
        unique_ground_zero=first == 1,
        min_margin=float(values[imin]),
        argmin=tuple(mus[imin]),
        max_margin=float(values[imax]),
        argmax=tuple(mus[imax]),
    )


def correlated_mixture_residuals(components, cov) -> tuple[float, float]:
    """First-order protection conditions for a correlated diagonal mixture.

    Returns the pair (y residual, z residual): the initial time derivatives
    of the protected output components, the slopes of the per-sector y and
    z content of the data states.  Both vanish exactly when the mixture is
    protected to first order.
    """
    content = np.zeros((4, 2))  # per sector: weighted y and z components
    for comp in _correlated_components(components):
        content[sector_index(*comp.sector)] += comp.weight * np.asarray(comp.bloch[1:], float)
    residual_y, residual_z = _slope(content, cov)
    return float(residual_y), float(residual_z)
