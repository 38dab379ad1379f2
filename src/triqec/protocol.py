"""The full error-correction pipeline and its mixed-ancilla analysis.

A run is prepare -> encode -> dephase -> decode -> correct -> discard
ancillae.  The encoder doubles as the decoder (it is self-inverse), the
correction step is the doubly-controlled flip, and discarding the ancillae
is the partial trace.  With ground-state ancillae the protected (y, z)
components of the data spin come back scaled by the closed-form survival
factor; the x component is untouched by construction.

Both runs share one body: the encoded state, in the dephasing frame, has its
elements multiplied by an 8x8 factor table, then is decoded, corrected and
reduced.  All of that but the table is fixed by the configuration, whatever
its channel, so a ``PipelineConfig`` builds it once as a (4, 64) readout
from the raveled table to the raveled reduced state; a run is the table, one
matrix-vector product, the Bloch read and the least squares of the protected
output on the input.  The channel says how the table is averaged
(``noise.channel_factors``): exactly over the Gaussian phases, or as the
sample mean of seeded trajectories, whose survivals, one row of the readout
times each table, also give a standard error.  ``run_pipeline_mc`` swaps
only the channel.  The agreement of the two averages is the central
cross-check of the package.  The constant gates (the encode/decode unitaries
per correction, rotation and axis, and their reduction basis) are one
read-only record per key, built once and cached (``_gates``); the ancilla
sector projectors are rows of a constant identity.

The mixed-ancilla survival and slopes read one sign table, ``SECTOR_SIGNS``;
a single sector is its one-hot mixture.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .analytics import _decay_law
from .gates import encoder, global_rotation, toffoli
from .models import FLOAT_MAX, TINY, one_of, real_in
from .noise import (
    NoiseChannel,
    channel_factors,
    dephasing_frame,
    phase_scaled,
    validate_covariance,
    validate_integer,
)
from .operators import (
    ANCILLA_SECTORS,
    BlochVector,
    bloch_of,
    data_state_from_bloch,
    partial_trace_ancillae,
    sector_index,
)

BASIS_ROTATIONS = ("none", "y-pi/2")


class ConfigError(ValueError):
    """Pipeline configuration that violates its invariants."""


def _weight(value, name: str) -> float:
    return real_in(value, name, -1e-12, FLOAT_MAX, "finite and >= 0", ConfigError)


def _unit_sum(weights, name: str) -> None:
    total = sum(weights)  # checked floats: a float16 sum would round 1.0001 to 1
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
        names = [f"mixture weight {field.name}" for field in fields(self)]
        _unit_sum(map(_weight, self.weights, names), "mixture weights")

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
        _weight(self.weight, "component weight")
        data_state_from_bloch(self.bloch)  # rejects non-finite or too long Bloch vectors
        sector_index(*self.sector)  # rejects signs other than +-1


def _correlated_components(components) -> tuple[CorrelatedComponent, ...]:
    # A nonempty tuple of components whose weights sum to one.
    components = tuple(components) if isinstance(components, Iterable) else (components,)
    bad = [comp for comp in components if not isinstance(comp, CorrelatedComponent)]
    if bad:
        raise ConfigError(
            f"correlated mixture components must be CorrelatedComponents, got {bad[0]!r}"
        )
    if not components:
        raise ConfigError("correlated mixture needs at least one component")
    _unit_sum((float(comp.weight) for comp in components), "correlated mixture weights")
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
        if not isinstance(self.channel, NoiseChannel):
            raise ConfigError(f"channel must be a NoiseChannel, got {self.channel!r}")
        if not isinstance(self.correction, (bool, np.bool_)):
            raise ConfigError(f"correction must be a bool, got {self.correction!r}")
        one_of(self.basis_rotation, BASIS_ROTATIONS, "basis_rotation", ConfigError)
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
    protected component, whatever the channel.  Monte Carlo runs also report
    its standard error, from the spread of the trajectories' survivals.
    """

    reduced: np.ndarray
    bloch_in: BlochVector
    bloch_out: BlochVector
    survival: float | None
    survival_stderr: float | None = None


#: Row k is the diagonal of the projector onto ancilla sector k, the ancilla
#: basis states running in ``ANCILLA_SECTORS`` order.
_SECTORS = np.eye(4, dtype=complex)
_SECTORS.setflags(write=False)


def _product_state(data: np.ndarray, diagonal) -> np.ndarray:
    # np.kron(data, np.diag(diagonal)) for a 2x2 data and a diagonal 4x4
    # ancilla operator: the same products, without np.kron's per-call overhead.
    return (data[:, None, :, None] * np.diag(diagonal)[None, :, None, :]).reshape(8, 8)


def _initial_state(config: PipelineConfig) -> np.ndarray:
    # The 8x8 state the pipeline starts from; ground-state ancillae by default.
    ancillae = config.ancillae
    if ancillae is not None and not isinstance(ancillae, AncillaMixture):
        return sum(
            comp.weight
            * _product_state(
                data_state_from_bloch(comp.bloch), _SECTORS[sector_index(*comp.sector)]
            )
            for comp in ancillae
        )
    weights = ancillae.weights if isinstance(ancillae, AncillaMixture) else (1.0, 0.0, 0.0, 0.0)
    return _product_state(data_state_from_bloch(config.bloch), weights)


@lru_cache(maxsize=8)  # 2 correction flags x 2 basis rotations x 2 axes
def _gates(correction: bool, basis_rotation: str, axis: str) -> tuple[np.ndarray, ...]:
    # A configuration's constant gates, cached, hence read-only: pre and post,
    # the unitaries before and after the noise with the dephasing frame folded
    # in (pre = frame (rotation) encode, post = correct decode (rotation
    # inverse) frame^-1), and the reduction basis, whose column 8 i + j is the
    # raveled partial trace of post |i><j| post^H: a frame state S scaled by
    # a factor table F decodes to the reduced state sum_ij F_ij S_ij column_ij.
    frame = dephasing_frame(axis)
    if not correction:
        pre, post = frame, frame.conj().T
    else:
        enc = encoder()
        dec = toffoli() @ enc
        if basis_rotation == "y-pi/2":
            rot = global_rotation("y", np.pi / 2)
            enc, dec = rot @ enc, dec @ rot.conj().T
        pre, post = frame @ enc, dec @ frame.conj().T
    columns = [
        partial_trace_ancillae(np.outer(post[:, i], post[:, j].conj())).ravel()
        for i in range(8)
        for j in range(8)
    ]
    gates = pre, post, np.array(columns).T
    for gate in gates:
        gate.setflags(write=False)
    return gates


class _ConstantPart(NamedTuple):
    # What a run needs of a configuration at every time, on every channel.
    bloch_in: BlochVector
    weight: float  # squared length of bloch_in's protected (y, z) part
    readout: np.ndarray  # (4, 64): raveled factor table -> raveled reduced state


def _constant_part(config: PipelineConfig) -> _ConstantPart:
    # The encoded state in the dephasing frame, folded once into the readout.
    pre, _, basis = _gates(config.correction, config.basis_rotation, config.channel.axis)
    rho0 = _initial_state(config)
    bloch_in = bloch_of(partial_trace_ancillae(rho0))
    state = pre @ rho0 @ pre.conj().T
    return _ConstantPart(bloch_in, bloch_in.y**2 + bloch_in.z**2, basis * state.ravel())


def _run(constant: _ConstantPart, channel: NoiseChannel, t: float) -> PipelineResult:
    # The body of both runs.  A Monte Carlo trajectory's survival is
    # Re(row . f), f its raveled factor table: the row reads the protected
    # output off the readout's rows R00, R01, R10, R11 (z = R00 - R11,
    # y = -i (R10 - R01)), so its mean is the least squares below.
    bloch_in, weight, readout = constant
    _, y, z = bloch_in
    row = None
    if channel.kind == "monte-carlo" and weight > 0:
        row = np.array([z, 1j * y, -1j * y, -z]) / weight @ readout
    factors, stderr = channel_factors(channel, t, row)
    reduced = (readout @ factors.ravel()).reshape(2, 2)
    bloch_out = bloch_of(reduced)
    survival = None
    if weight > 0:  # least squares on the protected plane
        survival = (bloch_out.y * y + bloch_out.z * z) / weight
    return PipelineResult(reduced, bloch_in, bloch_out, survival, stderr)


def run_pipeline(config: PipelineConfig, t: float) -> PipelineResult:
    """Run the pipeline at decoherence time t, averaging as the channel says.

    The factor table comes from :func:`noise.channel_factors`, and the
    survival is read off the output the same way on every channel; a Monte
    Carlo channel also gives its standard error.  t must be a scalar.
    """
    return _run(config._constant, config.channel, t)


def run_pipeline_mc(
    config: PipelineConfig, t: float, samples: int, seed, workers: int = 1
) -> PipelineResult:
    """:func:`run_pipeline` on ``config`` with a Monte Carlo channel of these settings.

    Nothing of ``config`` is rebuilt.  ``seed`` is an int >= 0 or a
    SeedSequence; ``workers`` (>= 1) has no effect.
    """
    validate_integer(workers, "workers", 1)  # the next benchmark change drops workers
    settings = dict(kind="monte-carlo", samples=samples, seed=seed)
    return _run(config._constant, replace(config.channel, **settings), t)


def _mixture_weights(mix) -> tuple[float, float, float, float]:
    # The weights of an AncillaMixture; anything else is a ConfigError naming it.
    if not isinstance(mix, AncillaMixture):
        raise ConfigError(f"mix must be an AncillaMixture, got {mix!r}")
    return mix.weights


def mixed_ancilla_survival(mix: AncillaMixture, cov, t):
    """Survival of the protected components for a diagonal ancilla mixture.

    The decay law with the sector signs averaged over the mixture; a one-hot
    mixture gives that sector's survival, and (1, 0, 0, 0) the survival
    factor.  Accepts a scalar or array of times.
    """
    weights = _mixture_weights(mix)
    c, t = phase_scaled(cov, t)
    return _decay_law(c, t, *(weights @ SECTOR_SIGNS))


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
    return float(_slope(_mixture_weights(mix), cov))


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


def grid_count(grid_step, name: str) -> int:
    """n = round(1 / grid_step) for a real step in (0, 1] above 2**-63, else a ValueError."""
    grid_step = real_in(grid_step, name, TINY, 1.0, "in (0, 1]")
    if not 1.0 / grid_step < 2.0**63:
        raise ValueError(f"{name} must be above 2**-63, got {grid_step!r}")
    return max(1, round(1.0 / grid_step))


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
    n = grid_count(grid_step, "grid_step")
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
