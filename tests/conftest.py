"""Shared helpers: seeded random corpora, independent brute-force oracles, a check counter."""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from triqec.noise import (
    _EPS,
    BLOCK,
    NoiseChannel,
    _checked,
    _phase_loading,
    dephasing_factors,
    validate_covariance,
)
from triqec.operators import (
    DIM,
    IDENTITY2,
    IDENTITY8,
    PAULI,
    STATE_TOL,
    NormalizationError,
    angular_momentum,
    bloch_of,
    idempotent,
    kron3,
    partial_trace_ancillae,
    pauli,
    sector_index,
)
from triqec.protocol import AncillaMixture, _gates, _initial_state


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    # The covariance check is the package's only eigvalsh: count its calls,
    # from an empty registry of checked covariances.
    _checked.cache_clear()
    calls = []
    original = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def random_psd(rng: np.random.Generator, scale: float = 1.0, rank: int = 3) -> np.ndarray:
    """A generic symmetric positive semidefinite 3x3 matrix of the given rank."""
    a = rng.normal(size=(3, rank))
    return scale * (a @ a.T)


def sector_mixture(sign2: int, sign3: int) -> AncillaMixture:
    """The one-hot mixture with all ancilla weight on the sector (sign2, sign3)."""
    return AncillaMixture(*np.eye(4)[sector_index(sign2, sign3)].tolist())


def mc_channel(cov, samples: int = 100, seed=1, **kwargs) -> NoiseChannel:
    """A Monte Carlo channel of ``cov`` with these settings."""
    return NoiseChannel(cov, kind="monte-carlo", samples=samples, seed=seed, **kwargs)


def z_scores(mc, exact, stderr) -> np.ndarray:
    """(mc - exact) / stderr elementwise: Monte Carlo errors in units of their standard errors.

    z is undefined at t = 0: there the stderr is 0 and the survival is 1 - O(1e-15).
    """
    return (np.asarray(mc, dtype=float) - exact) / np.asarray(stderr, dtype=float)


def survival_correlated(tau: float, t):
    """The paper's corrected survival for totally correlated fields (oracle).

    (9 exp(-t/tau) - exp(-9t/tau)) / 8, the two-term form of the decay law
    at the covariance (2/tau) * ones.
    """
    t = np.asarray(t, dtype=float) / tau
    return 0.125 * (9 * np.exp(-t) - np.exp(-9 * t))


def survival_uncorrelated(tau: float, t):
    """The paper's corrected survival for uncorrelated fields (oracle).

    (3 exp(-t/tau) - exp(-3t/tau)) / 2, the two-term form of the decay law
    at the covariance (2/tau) * identity.
    """
    t = np.asarray(t, dtype=float) / tau
    return 0.5 * (3 * np.exp(-t) - np.exp(-3 * t))


def echo_attenuation(spec, order: int) -> float:
    """The echo exp(-n^2 k0^2 D t / 2) of an order-n coherence after gradient diffusion (oracle)."""
    return math.exp(-0.5 * order * order * spec.rate * spec.diffusion_time)


def reference_normals(seed, samples: int, rank: int = 3) -> np.ndarray:
    """The (samples, rank) normals of a seeded ``samples``-sample Monte Carlo stream (oracle).

    Drawn ``BLOCK`` samples at a time, as the stream draws them: a block of n
    takes 2m uniforms from an SFC64 generator, m = ceil(rank n / 2), the m
    u's then the m v's, and its normals are the first rank n of
    [r cos(2 pi v), r sin(2 pi v)] with r = sqrt(-2 ln(1 - u)), laid out as
    rank rows of n, one row per direction.  Written with np.cos and np.sin,
    independently of the package's half-angle tangents.
    """
    rng = np.random.Generator(np.random.SFC64(seed))
    blocks = []
    for start in range(0, samples, BLOCK):
        n = min(BLOCK, samples - start)
        u, v = rng.random(2 * -(-rank * n // 2)).reshape(2, -1)
        r, angle = np.sqrt(-2.0 * np.log(1.0 - u)), 2.0 * np.pi * v
        normals = np.concatenate([r * np.cos(angle), r * np.sin(angle)])[: rank * n]
        blocks.append(normals.reshape(rank, n).T)
    return np.concatenate(blocks)


def reference_stream(cov, t: float, seed, samples: int) -> np.ndarray:
    """The phases chi of a seeded ``samples``-sample Monte Carlo stream (oracle).

    One normal per direction of the stream's loading: its rank.
    """
    loading = _phase_loading(cov, t)
    return reference_normals(seed, samples, loading.shape[1]) @ loading.T


def trajectory_phases(chis) -> np.ndarray:
    """Per-trajectory factors exp(-i eps . chi): (..., 3) phases to (..., 8, 8) tables.

    Laid out like ``noise.dephasing_factors``, whose table is their Gaussian mean.
    """
    chis = np.asarray(chis, dtype=float)
    return np.exp(-1j * (chis @ _EPS.T)).reshape(*chis.shape[:-1], 8, 8)


class ExplicitRun(NamedTuple):
    """What :func:`explicit_pipeline` returns."""

    reduced: np.ndarray
    survival: float | None
    contraction: np.ndarray | None


def explicit_pipeline(config, t: float, factors=None) -> ExplicitRun:
    """The pipeline body written out, one 8x8 step at a time (oracle).

    The initial state is conjugated into the dephasing frame, its elements
    are scaled by the factor table (the exact Gaussian average unless
    ``factors`` is given), and the result is decoded, traced over the
    ancillae and read by ``bloch_of``.  ``contraction`` is the protected
    observable pulled back through the post-noise gates times the frame
    state, over the protected weight: ``noise.mean_phases`` takes it as the
    Monte Carlo survival weights (None when the input has no protected part).
    """
    channel = config.channel
    rho0 = _initial_state(config)
    bloch_in = bloch_of(partial_trace_ancillae(rho0))
    pre, post = _gates(config.correction, config.basis_rotation, channel.axis)[:2]
    state = pre @ rho0 @ pre.conj().T
    if factors is None:
        factors = dephasing_factors(channel.covariance, t)
    reduced = partial_trace_ancillae(post @ (factors * state) @ post.conj().T)
    bloch_out = bloch_of(reduced)
    weight = bloch_in.y**2 + bloch_in.z**2
    if weight == 0:
        return ExplicitRun(reduced, None, None)
    survival = (bloch_out.y * bloch_in.y + bloch_out.z * bloch_in.z) / weight
    observable = np.kron(bloch_in.y * PAULI["y"] + bloch_in.z * PAULI["z"], np.eye(4))
    contraction = (post.conj().T @ observable @ post).T * state / weight
    return ExplicitRun(reduced, survival, contraction)


_KEYS = [tuple(int(e) for e in eps * np.sign(eps[np.abs(eps).argmax()])) for eps in _EPS]
#: The 14 classes of eps up to sign, each keyed by its member whose first nonzero entry is +1.
EPS_CLASSES = sorted(set(_KEYS))


def gate_spectrum(config, component: str) -> dict[tuple[int, int, int], float]:
    """The exact route's output ``component`` as coefficients of 14 exponentials (oracle).

    The 64 weights W_e of exp(-(t/2) eps_e^T C eps_e) in that output, Re of its observable
    pulled back through the post-noise gates times the encoded frame state, added per class.
    """
    pre, post = _gates(config.correction, config.basis_rotation, config.channel.axis)[:2]
    state = pre @ _initial_state(config) @ pre.conj().T
    observable = np.kron(PAULI[component], np.eye(4))
    weights = ((post.conj().T @ observable @ post).T * state).real.ravel()
    classes = np.bincount([EPS_CLASSES.index(key) for key in _KEYS], weights)
    return dict(zip(EPS_CLASSES, classes.tolist()))


def polar_amplitudes(theta: float, phi: float) -> tuple[complex, complex]:
    """Superposition amplitudes (alpha, beta) of the state at polar angles.

    The state is the ground state rotated by theta about x then phi about z,
    which lands the Bloch vector at (sin(theta)sin(phi), -sin(theta)cos(phi),
    cos(theta)) in the (<2Ix>, <2Iy>, <2Iz>) convention used here.
    """
    return (
        np.cos(theta / 2) * np.exp(-0.5j * phi),
        -1j * np.sin(theta / 2) * np.exp(0.5j * phi),
    )


def random_propagator(chi, axis: str = "x") -> np.ndarray:
    """Exact unitary exp(-i sum_k chi^k I_axis^k), a kron of per-spin closed forms."""
    sigma = pauli(axis)
    half = np.asarray(chi, dtype=float).reshape(3) / 2.0
    return kron3(*(np.cos(h) * IDENTITY2 - 1j * np.sin(h) * sigma for h in half))


def product_operator(axes: tuple[str | None, str | None, str | None]) -> np.ndarray:
    """One element of the trace-orthogonal product-operator basis.

    ``axes`` gives the Cartesian component for each spin, with None for the
    identity.  The normalization carries a factor of 2 per non-identity spin
    (i.e. 1, 2I_a, 4I_aI_b, 8I_aI_bI_c), so every element squares to 1 and
    tr(P_i P_j) = 8 delta_ij.
    """
    factors = [IDENTITY2 if a is None else PAULI[a] for a in axes]
    return kron3(*factors)


def product_basis() -> list[tuple[tuple[str | None, str | None, str | None], np.ndarray]]:
    """All 64 product operators, keyed by their per-spin axis labels."""
    return [(axes, product_operator(axes)) for axes in product((None, "x", "y", "z"), repeat=3)]


def pure_data_state(alpha: complex, beta: complex) -> np.ndarray:
    """Density matrix of data spin alpha|0> + beta|1> with ground-state ancillae.

    Returns the rank-1 8x8 state (alpha|000> + beta|100>) times its adjoint.

    Raises
    ------
    NormalizationError
        If |alpha|^2 + |beta|^2 deviates from 1 beyond tolerance.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if not (abs(norm - 1.0) <= STATE_TOL):
        raise NormalizationError(f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1")
    ket = np.zeros(DIM, dtype=complex)
    ket[0b000] = alpha
    ket[0b100] = beta
    return np.outer(ket, ket.conj())


#: Elements |r><c| whose ancillae are in the same z-basis sector.
_SAME_SECTOR = np.arange(DIM)[:, None] % 4 == np.arange(DIM) % 4


def project_ancilla_sectors(op: np.ndarray) -> np.ndarray:
    """Pinch an operator over the four ancilla z-basis sectors.

    Sums P op P over the projectors P onto each joint ancilla eigenspace,
    i.e. keeps the elements inside one sector.  Idempotent as a
    superoperator, and invisible to the ancilla partial trace:
    partial_trace_ancillae(project_ancilla_sectors(X)) equals
    partial_trace_ancillae(X) for every X.
    """
    return np.where(_SAME_SECTOR, np.asarray(op, dtype=complex), 0)


class InvalidGateError(ValueError):
    """Gate construction with inconsistent spin roles."""


def cnot(target: int, control: int) -> np.ndarray:
    """Controlled-NOT flipping ``target`` when ``control`` is down (|1>).

    Closed form 2Ix^target E-^control + E+^control; self-inverse.
    """
    if target == control:
        raise InvalidGateError(f"target and control must differ, both are {target!r}")
    return 2 * angular_momentum(target, "x") @ idempotent(control, -1) + idempotent(control, +1)


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


def random_density(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    """A full-rank random density matrix (Wishart normalized to unit trace)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_operator(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def is_unitary(u: np.ndarray, atol: float = 1e-12) -> bool:
    u = np.asarray(u)
    return u.shape == (DIM, DIM) and bool(np.allclose(u @ u.conj().T, IDENTITY8, atol=atol))


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, atol: float = 1e-9) -> bool:
    """Phase-insensitive equality of unitaries: |tr(U† V)| = dim."""
    overlap = np.trace(np.asarray(u).conj().T @ np.asarray(v))
    return bool(abs(abs(overlap) - DIM) < atol)


def validate_density_matrix(rho: np.ndarray, atol: float = STATE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity (within -atol).

    Returns the input array on success; raises ValueError otherwise.  The
    negative-eigenvalue allowance absorbs Monte Carlo averaging noise.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {r.shape}")
    if not np.allclose(r, r.conj().T, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(r).real
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix has trace {tr!r}, expected 1")
    lowest = float(np.linalg.eigvalsh(r).min())
    if lowest < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")
    return r


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


class GridCertificate(NamedTuple):
    """The grid oracle's answer: every zero mixture, sorted, and the margins."""

    grid_step: float
    zeros: tuple[tuple[float, float, float, float], ...]
    unique_ground_zero: bool
    min_margin: float
    argmin: tuple[float, float, float, float]
    max_margin: float
    argmax: tuple[float, float, float, float]


def grid_nogo_search(cov, grid_step: float = 0.01) -> GridCertificate:
    """Brute-force no-go search over the whole simplex grid (oracle).

    Scans every mixture with weights on the grid of step 1/n and allocates
    3 (n+1)^3 int64, so keep n small.  The library's certificate must count
    the same zeros, end them at the same mixture, and return the same
    minimum and argmin, and the exact vertex maximum.
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
    return GridCertificate(
        grid_step=1.0 / n,
        zeros=zeros,
        unique_ground_zero=zeros == ((1.0, 0.0, 0.0, 0.0),),
        min_margin=float(margins[imin]),
        argmin=mixture(imin),
        max_margin=float(margins[imax]),
        argmax=mixture(imax),
    )
