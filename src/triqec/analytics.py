"""Closed-form decay laws, their landmarks, and the curve-fitting workflow.

The protected (y, z) Bloch components of the data spin survive the corrected
pipeline with a common factor

    survival(t) = (F1 + F2 + F3 - F1 F2 F3 F123) / 2,

where Fj = exp(-t c_jj / 2) and F123 is the cosh/sinh combination of the
cross rates t*c_jk.  The product F1 F2 F3 F123 is evaluated here as a sum of
four pure exponentials exp(-(t/2) eps^T C eps) over the triple-quantum sign
patterns eps, which is algebraically identical but avoids the catastrophic
cosh - sinh cancellation at large t.

Other diagonal ancilla states only reweight the F2, F3 and product terms, so
one private core evaluates the law for any weights, for ``survival_factor``
and ``protocol.mixed_ancilla_survival`` alike.  It puts time on the last,
contiguous axis of each table of exponentials and adds the rows in a fixed
order, so a time on a grid gives the same bits as the same time alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import named_model, positive_finite, real_array
from .noise import phase_scaled, validate_covariance

#: Triple-quantum sign patterns (one per pair +-eps) entering the product term.
_TRIPLE_PATTERNS = np.array(
    [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]], dtype=float
)


@dataclass(frozen=True)
class DecayCurve:
    """A sampled decay curve: strictly increasing times and matching values.

    Both are 1-d float arrays of equal length, made by ``models.real_array``
    (the one rule for arrays of reals, so a bool or a string is no number)
    and then checked finite.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = real_array(self.times, "curve times")
        values = real_array(self.values, "curve values")
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        for name, array in (("times", times), ("values", values)):
            bad = array[~np.isfinite(array)]
            if bad.size:
                raise ValueError(f"curve {name} must be finite, got {float(bad[0])!r}")
        if len(times) >= 2 and not (np.diff(times) > 0).all():
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FitResult:
    """Log-linear fit summary: decay rate 1/tau, intercept, and Pearson r."""

    rate: float
    intercept: float
    correlation: float

    def __post_init__(self):
        if not (np.isfinite(self.rate) and np.isfinite(self.intercept)):
            raise ValueError("fit produced non-finite parameters")
        if abs(self.correlation) > 1 + 1e-12:
            raise ValueError(f"correlation {self.correlation!r} outside [-1, 1]")


def _triple_quantum_product(cov: np.ndarray, t):
    # F1 F2 F3 F123 as a mean of decaying exponentials (stable for PSD cov),
    # one row of exponentials per pattern, added in pattern order.
    quads = np.einsum("pj,jk,pk->p", _TRIPLE_PATTERNS, cov, _TRIPLE_PATTERNS)
    e0, e1, e2, e3 = np.exp(-0.5 * np.multiply.outer(quads, t))
    return 0.25 * (e0 + e1 + e2 + e3)


def _decay_law(c: np.ndarray, t, a2, a3, b):
    # 0.5 (F1 + a2 F2 + a3 F3 - b F1 F2 F3 F123) for the checked (c, t) of
    # phase_scaled; (1, 1, 1) is the ground-state law.  Time runs along the
    # last, contiguous axis, so each exp is one pass over a (k, n) table.
    f1, f2, f3 = np.exp(-0.5 * np.multiply.outer(np.diagonal(c), t))
    out = 0.5 * (f1 + f2 * a2 + f3 * a3 - b * _triple_quantum_product(c, t))
    return float(out) if out.ndim == 0 else out


def survival_factor(cov, t):
    """Corrected survival of the protected Bloch components at time(s) t.

    Accepts a scalar or array of times; equals 1 at t = 0 for every valid
    covariance.  The ancillae start in their ground state, the code's working
    point; ``protocol.mixed_ancilla_survival`` takes any diagonal mixture.
    """
    c, t = phase_scaled(cov, t)
    return _decay_law(c, t, 1, 1, 1)


def uncorrected_decay(cov, t):
    """Survival exp(-t c11 / 2) of the unprotected transverse components."""
    c, t = phase_scaled(cov, t)
    out = np.exp(-0.5 * t * c[0, 0])
    return float(out) if out.ndim == 0 else out


def survival_derivatives_at_zero(cov) -> tuple[float, float, float]:
    """(first, second, third) time derivatives of the survival factor at 0.

    The first derivative vanishes identically: the code removes the linear
    decay for every covariance.  The second is strictly negative for nonzero
    noise, and the third is symmetric under relabeling the spins, like the
    decay law itself.  Sums that overflow are taken again on C / max|c_jk|
    and scaled back; derivatives that still overflow a float raise ValueError.
    """
    c = validate_covariance(cov)
    largest = float(abs(c).max())
    # On Python floats, the same IEEE arithmetic as numpy's scalars without
    # their per-operation cost or warnings: a product that overflows is inf,
    # a power raises.  The plain pass (s = 1) is exact, so it keeps its bits.
    for s in (1.0, largest):
        (c11, c12, c13), (_, c22, c23), (_, _, c33) = (c / s).tolist()
        try:
            off = 2 * (c12**2 + c13**2 + c23**2)
            diag = c11 * c22 + c11 * c33 + c22 * c33
            second = -0.25 * (off + diag) * s * s
            third = (
                3 * c11**2 * (c22 + c33)
                + 3 * c22**2 * (c11 + c33)
                + 3 * c33**2 * (c11 + c22)
                + 6 * c11 * c22 * c33
                + 12 * (c12**2 + c13**2 + c23**2) * (c11 + c22 + c33)
                + 48 * c12 * c13 * c23
            ) / 16 * s * s * s  # not s**3: 0 * inf would be NaN
        except OverflowError:
            continue
        if math.isfinite(second) and math.isfinite(third):
            return 0.0, second, third
    raise ValueError(f"survival derivatives overflow: largest entry {largest!r}")


def inflection_point(model: str, tau: float) -> float:
    """Time of the corrected curve's inflection for a named noise model.

    ln(3) tau / 2 for the uncorrelated model, ln(3) tau / 4 for the totally
    correlated one.
    """
    return float(named_model(model).inflection * positive_finite(tau, "tau"))


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2**e, e), 2**e the least power of two above max|x|.

    The scaling is exact, and it keeps squares and products of the entries
    within the float range: a curve of 1e200s or 1e-200s has an RMS and a
    Pearson r, and any other keeps the bits of both.
    """
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e), e


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r of two series; 0 by convention if either is constant (r is undefined)."""
    constant = np.ptp(x) == 0 or np.ptp(y) == 0  # exact: a std can round above 0
    return 0.0 if constant else float(np.corrcoef(_unit_scaled(x)[0], _unit_scaled(y)[0])[0, 1])


def fit_exponential_rate(curve: DecayCurve) -> FitResult:
    """Ordinary least squares of log(value) against time.

    The decay rate is minus the fitted slope.  The reported correlation is
    the Pearson coefficient of (t, log value); it is 0 by convention when
    either coordinate is constant.

    Raises
    ------
    ValueError
        If any value is nonpositive (the caller must truncate the curve).
    """
    if (curve.values <= 0).any():
        raise ValueError(
            "all amplitudes must be positive for a log-linear fit "
            f"(found {float(curve.values.min())!r}); truncate the curve first"
        )
    if len(curve.times) < 2:
        raise ValueError("need at least two points to fit a rate")
    logs = np.log(curve.values)
    slope, intercept = np.polyfit(curve.times, logs, 1)
    corr = _pearson(curve.times, logs)
    return FitResult(rate=float(-slope), intercept=float(intercept), correlation=corr)


def predict_corrected_curve(rate: float, model: str, times) -> DecayCurve:
    """Corrected decay predicted from an uncorrected rate 1/tau.

    Evaluates the closed form of the named model at the given times.  They
    pass the one time rule (``noise.phase_scaled``) on the model's
    covariance at that tau, as in every other function that takes times.
    A rate so large or so small that tau or the model's rate 2/tau is no
    float raises ValueError naming the rate.
    """
    named, rate = named_model(model), positive_finite(rate, "rate")
    tau = 1.0 / rate
    if not (math.isfinite(tau) and math.isfinite(2.0 / tau)):
        raise ValueError(f"rate is out of range: tau = 1/rate or 2/tau overflows, got {rate!r}")
    phase_scaled(named.covariance(tau), times)
    times = np.asarray(times, dtype=float)
    return DecayCurve(times=times, values=np.asarray(named.closed_form(tau, times)))


def scale_to_rms(measured: DecayCurve, reference: DecayCurve) -> DecayCurve:
    """Rescale a measured curve so its root-mean-square matches a reference.

    The time grids must agree; an all-zero measured curve is returned as is.
    """
    if measured.times.shape != reference.times.shape or not np.allclose(
        measured.times, reference.times
    ):
        raise ValueError("measured and reference curves are on different time grids")
    if not reference.values.any():
        raise ValueError("reference curve is identically zero")
    if not measured.values.any():
        return DecayCurve(measured.times, measured.values.copy())
    (ref, ref_exp), (meas, _) = _unit_scaled(reference.values), _unit_scaled(measured.values)
    ratio = np.sqrt(np.mean(ref**2)) / np.sqrt(np.mean(meas**2))
    return DecayCurve(measured.times, np.ldexp(meas * ratio, ref_exp))


def curve_correlation(a: DecayCurve, b: DecayCurve) -> float:
    """Pearson correlation between two curves on the same time grid (0 if either is constant)."""
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times):
        raise ValueError("curves are on different time grids")
    return _pearson(a.values, b.values)
