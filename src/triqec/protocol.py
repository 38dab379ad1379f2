"""The full error-correction pipeline and its mixed-ancilla analysis.

A run is prepare -> encode -> dephase -> decode -> correct -> discard
ancillae.  The encoder doubles as the decoder (it is self-inverse), the
correction step is the doubly-controlled flip, and discarding the ancillae
is the partial trace.  With ground-state ancillae the protected (y, z)
components of the data spin come back scaled by the closed-form survival
factor; the x component is untouched by construction.

Both flavors share one body: the encoded state, in the dephasing frame, has
its elements multiplied by an 8x8 factor table, then is decoded, corrected
and reduced.  ``run_pipeline`` passes the exact Gaussian-averaged factors,
``run_pipeline_mc`` the sample mean of the trajectory phases.  It reads each
trajectory's survival off the protected observable pulled back into that
frame and folded once per run onto the 13 conjugate phase pairs, so a
trajectory costs 13 cosines and sines.  Their agreement is the central
cross-check of the package.  The constant gates (the encode/decode
unitaries per correction, rotation and axis, and the ancilla sector
projectors) are built once and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .analytics import survival_factor
from .gates import encoder, global_rotation, toffoli
from .noise import (
    FRAMES,
    NoiseChannel,
    dephasing_factors,
    mean_phases,
    pair_weights,
    validate_covariance,
    validate_time,
)
from .operators import (
    ANCILLA_SECTORS,
    IDENTITY2,
    PAULI,
    BlochVector,
    bloch_of,
    data_state_from_bloch,
    partial_trace_ancillae,
    pure_data_state,
)

BASIS_ROTATIONS = ("none", "y-pi/2")


class ConfigError(ValueError):
    """Pipeline configuration that violates its invariants."""


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
            weight = getattr(self, field.name)
            if not (-1e-12 <= weight < np.inf):
                raise ConfigError(
                    f"mixture weight {field.name} must be finite and >= 0, got {weight!r}"
                )
        if not (abs(sum(self.weights) - 1.0) <= 1e-12):
            raise ConfigError(f"mixture weights must sum to 1, got {sum(self.weights)!r}")

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.mu_pp, self.mu_pm, self.mu_mp, self.mu_mm)


GROUND_ANCILLAE = AncillaMixture(1.0, 0.0, 0.0, 0.0)


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
        if not (-1e-12 <= self.weight < np.inf):
            raise ConfigError(f"component weight must be finite and >= 0, got {self.weight!r}")
        data_state_from_bloch(self.bloch)  # rejects non-finite or too long Bloch vectors
        if self.sector not in ANCILLA_SECTORS:
            raise ConfigError(f"sector must be a pair of +-1, got {self.sector!r}")


def _correlated_components(components) -> tuple[CorrelatedComponent, ...]:
    # A nonempty tuple of components whose weights sum to one.
    components = tuple(components)
    if not components:
        raise ConfigError("correlated mixture needs at least one component")
    total = sum(comp.weight for comp in components)
    if not (abs(total - 1.0) <= 1e-12):
        raise ConfigError(f"correlated mixture weights must sum to 1, got {total!r}")
    return components


@dataclass(frozen=True, eq=False)
class PipelineConfig:
    """What to run: initial state, ancilla preparation, channel, options.

    The data state is given either as amplitudes (alpha, beta), as a Bloch
    vector, or per component of a correlated ancilla mixture.  The optional
    y-pi/2 basis rotation (applied after encoding, undone before decoding)
    re-targets the code at z-axis noise.
    """

    channel: NoiseChannel
    alpha: complex | None = None
    beta: complex | None = None
    bloch: tuple[float, float, float] | None = None
    ancillae: AncillaMixture | tuple[CorrelatedComponent, ...] | None = None
    correction: bool = True
    basis_rotation: str = "none"

    def __post_init__(self):
        if self.basis_rotation not in BASIS_ROTATIONS:
            raise ConfigError(
                f"basis_rotation must be one of {BASIS_ROTATIONS}, got {self.basis_rotation!r}"
            )
        has_amplitudes = self.alpha is not None or self.beta is not None
        if has_amplitudes and (self.alpha is None or self.beta is None):
            raise ConfigError("give both alpha and beta or neither")
        correlated = self.ancillae is not None and not isinstance(self.ancillae, AncillaMixture)
        if correlated:
            components = _correlated_components(self.ancillae)
            if has_amplitudes or self.bloch is not None:
                raise ConfigError(
                    "a correlated mixture carries its own data states; "
                    "do not also give alpha/beta or a Bloch vector"
                )
            object.__setattr__(self, "ancillae", components)
        elif has_amplitudes and self.bloch is not None:
            raise ConfigError("give either amplitudes or a Bloch vector, not both")
        elif not has_amplitudes and self.bloch is None:
            raise ConfigError("no initial data state given")
        elif self.bloch is not None:
            data_state_from_bloch(self.bloch)  # rejects non-finite or too long Bloch vectors
        else:
            pure_data_state(self.alpha, self.beta)  # rejects non-normalized amplitudes


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
    # 4x4 projector onto one ancilla z-basis sector.  Cached, hence read-only.
    half2 = (IDENTITY2 + sign2 * PAULI["z"]) / 2
    half3 = (IDENTITY2 + sign3 * PAULI["z"]) / 2
    projector = np.kron(half2, half3)
    projector.setflags(write=False)
    return projector


def initial_state(config: PipelineConfig) -> np.ndarray:
    """The 8x8 state the pipeline starts from."""
    ancillae = config.ancillae
    if ancillae is not None and not isinstance(ancillae, AncillaMixture):
        return sum(
            comp.weight
            * np.kron(data_state_from_bloch(comp.bloch), _sector_projector(*comp.sector))
            for comp in ancillae
        )
    if config.alpha is not None:
        # pure_data_state validates the normalization; keep its data factor.
        data = partial_trace_ancillae(pure_data_state(config.alpha, config.beta))
    else:
        data = data_state_from_bloch(config.bloch)
    mix = ancillae if isinstance(ancillae, AncillaMixture) else GROUND_ANCILLAE
    ancilla_state = sum(w * _sector_projector(*s) for w, s in zip(mix.weights, ANCILLA_SECTORS))
    return np.kron(data, ancilla_state)


@lru_cache(maxsize=8)  # 2 correction flags x 2 basis rotations x 2 axes
def _conjugators(
    correction: bool, basis_rotation: str, axis: str
) -> tuple[np.ndarray, np.ndarray]:
    # Constant unitaries applied before and after the noise, with the
    # dephasing frame folded in: pre = frame (rotation) encode, post =
    # correct decode (rotation inverse) frame^-1.  Cached, hence read-only.
    frame = FRAMES[axis]
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


def evolve_corrected(
    rho: np.ndarray, cov, t: float, axis: str = "x", basis_rotation: str = "none"
) -> np.ndarray:
    """Encode, dephase through the exact channel, decode, and correct."""
    pre, post = _conjugators(True, basis_rotation, axis)
    return post @ (dephasing_factors(cov, t) * (pre @ rho @ pre.conj().T)) @ post.conj().T


def _run(config: PipelineConfig, t: float, average) -> PipelineResult:
    # The body of both pipelines.  ``average(state, post, bloch_in)`` gets
    # the encoded frame state and the post-noise conjugator, and returns the
    # 8x8 factor table for that state plus the per-sample survivals (None
    # from the exact route, whose survival is read off the output).
    validate_time(t)
    rho0 = initial_state(config)
    bloch_in = bloch_of(partial_trace_ancillae(rho0))
    pre, post = _conjugators(config.correction, config.basis_rotation, config.channel.axis)
    state = pre @ rho0 @ pre.conj().T
    factors, per_sample = average(state, post, bloch_in)
    reduced = partial_trace_ancillae(post @ (factors * state) @ post.conj().T)
    bloch_out = bloch_of(reduced)
    weight = bloch_in.y**2 + bloch_in.z**2
    survival = stderr = None
    if per_sample is not None:
        survival = float(per_sample.mean())
        n = len(per_sample)
        stderr = float(per_sample.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    elif weight > 0:  # least squares on the protected plane
        survival = (bloch_out.y * bloch_in.y + bloch_out.z * bloch_in.z) / weight
    return PipelineResult(reduced, bloch_in, bloch_out, survival, stderr)


def run_pipeline(config: PipelineConfig, t: float) -> PipelineResult:
    """Run the pipeline at decoherence time t.

    Analytic channels evolve through the exact Gaussian average; Monte Carlo
    channels delegate to :func:`run_pipeline_mc` with the channel's sample
    count and seed.
    """
    channel = config.channel
    if channel.kind == "monte-carlo":
        return run_pipeline_mc(config, t, channel.samples, channel.seed, workers=channel.workers)
    return _run(config, t, lambda *_: (dephasing_factors(channel.covariance, t), None))


def run_pipeline_mc(
    config: PipelineConfig, t: float, samples: int, seed: int, workers: int = 1
) -> PipelineResult:
    """Monte Carlo pipeline: every sampled trajectory runs the full circuit.

    Each sample draws a phase vector; in the dephasing frame its propagator
    multiplies every element of the encoded state by exp(-i eps . chi), and
    its survival is the protected observable read through decoding and
    correction, a weighted sum of the cosines and sines of its 13 pair
    angles.  The trajectory average and the per-sample spread of the
    survival give the estimate and its standard error.  Results are
    bit-identical for a fixed seed regardless of ``workers``.
    """

    def average(state, post, bloch_in):
        # The protected observable, pulled back through the post-noise gates
        # and contracted with the frame state: a trajectory's factor table f
        # gives its survival Re sum(f * contraction), which the pair weights
        # turn into w0 + cos @ wc + sin @ ws.
        weight = bloch_in.y**2 + bloch_in.z**2
        weights = None
        if weight > 0:
            observable = np.kron(bloch_in.y * PAULI["y"] + bloch_in.z * PAULI["z"], np.eye(4))
            weights = pair_weights((post.conj().T @ observable @ post).T * state / weight)
        return mean_phases(config.channel.covariance, t, samples, seed, workers, weights)

    return _run(config, t, average)


def mixed_ancilla_survival(mix: AncillaMixture, cov, t):
    """Survival of the protected components for a diagonal ancilla mixture.

    The weighted combination of the four sector survivals; equals the
    pure-ancilla survival factor for the mixture (1, 0, 0, 0).
    """
    return sum(
        weight * survival_factor(cov, t, s2, s3)
        for weight, (s2, s3) in zip(mix.weights, ANCILLA_SECTORS)
        if weight != 0.0
    )


def sector_slope_at_zero(cov, sign2: int, sign3: int) -> float:
    """Initial time derivative of one sector's survival factor."""
    c = validate_covariance(cov)
    c11, c22, c33 = c[0, 0], c[1, 1], c[2, 2]
    return -0.25 * (c11 + sign2 * c22 + sign3 * c33 - sign2 * sign3 * (c11 + c22 + c33))


def mixed_ancilla_slope_at_zero(mix: AncillaMixture, cov) -> float:
    """Initial decay slope of a diagonal ancilla mixture.

    The weighted sum of the sector slopes: zero for the ground mixture
    regardless of the covariance; any weight on the other sectors couples the
    slope to the variances.
    """
    return sum(
        weight * sector_slope_at_zero(cov, s2, s3)
        for weight, (s2, s3) in zip(mix.weights, ANCILLA_SECTORS)
    )


@dataclass(frozen=True)
class NoGoCertificate:
    """Outcome of the simplex search for first-order-protected mixtures.

    ``zeros`` lists the grid mixtures whose initial slope vanishes for every
    covariance compatible with the model's variance signs; ``margins`` refer
    to the remaining grid points (min certifies uniqueness, max is the most
    fragile mixture).
    """

    grid_step: float
    zeros: tuple[tuple[float, float, float, float], ...]
    unique_ground_zero: bool
    min_margin: float
    argmin: tuple[float, float, float, float]
    max_margin: float
    argmax: tuple[float, float, float, float]


def ancilla_mixture_nogo_search(cov, grid_step: float = 0.01) -> NoGoCertificate:
    """Search the mixture simplex for zeros of the initial decay slope.

    The slope is linear in the three variances with coefficients fixed by the
    mixture, so it vanishes for *every* admissible covariance exactly when
    those coefficients all vanish; a zero that relies on cancellation between
    particular variance values offers no protection for unknown noise.  The
    margin reported for each grid mixture is therefore the cancellation-free
    magnitude (c11 (mu_pm + mu_mp) + c22 |mu_pm - mu_mm| + c33 |mu_mp -
    mu_mm|)/2 >= |slope|, evaluated with the model's variances.  With all
    variances positive the ground vertex (1, 0, 0, 0) is the unique zero.

    Raises
    ------
    ValueError
        If c11 is not strictly positive (the uniqueness statement is
        conditional on a dephasing data spin).
    """
    c = validate_covariance(cov)
    c11, c22, c33 = c[0, 0], c[1, 1], c[2, 2]
    if c11 <= 0:
        raise ValueError("the no-go search requires a positive data-spin variance c11")
    if not (0 < grid_step <= 1):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step!r}")
    n = max(1, round(1.0 / grid_step))

    counts = np.indices((n + 1, n + 1, n + 1)).reshape(3, -1).T
    counts = counts[counts.sum(axis=1) <= n]
    mpm, mmp, mmm = (counts[:, j] / n for j in range(3))
    mpp = 1.0 - mpm - mmp - mmm
    margins = 0.5 * (c11 * (mpm + mmp) + c22 * np.abs(mpm - mmm) + c33 * np.abs(mmp - mmm))

    def mixture(i: int) -> tuple[float, float, float, float]:
        return (float(mpp[i]), float(mpm[i]), float(mmp[i]), float(mmm[i]))

    tol = 1e-12 * max(c11, c22, c33)
    zero_idx = np.flatnonzero(margins <= tol)
    nonzero_idx = np.flatnonzero(margins > tol)
    zeros = tuple(sorted(mixture(i) for i in zero_idx))
    imin = nonzero_idx[np.argmin(margins[nonzero_idx])]
    imax = nonzero_idx[np.argmax(margins[nonzero_idx])]
    return NoGoCertificate(
        grid_step=1.0 / n,
        zeros=zeros,
        unique_ground_zero=zeros == ((1.0, 0.0, 0.0, 0.0),),
        min_margin=float(margins[imin]),
        argmin=mixture(imin),
        max_margin=float(margins[imax]),
        argmax=mixture(imax),
    )


def correlated_mixture_residuals(components, cov) -> tuple[float, float]:
    """First-order protection conditions for a correlated diagonal mixture.

    Returns the pair (y residual, z residual): the initial time derivatives
    of the protected output components, each a weighted sum of the sector
    slopes against the per-sector y and z content of the data states.  Both
    vanish exactly when the mixture is protected to first order.
    """
    c = validate_covariance(cov)
    residual_y = 0.0
    residual_z = 0.0
    for comp in _correlated_components(components):
        slope = sector_slope_at_zero(c, *comp.sector)
        _, y, z = comp.bloch
        residual_y += comp.weight * y * slope
        residual_z += comp.weight * z * slope
    return residual_y, residual_z
