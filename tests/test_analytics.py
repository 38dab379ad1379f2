import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    forward_derivative,
    random_psd,
    richardson_second_derivative,
    sector_mixture,
)
from triqec.analytics import (
    DecayCurve,
    FitResult,
    curve_correlation,
    fit_exponential_rate,
    inflection_point,
    predict_corrected_curve,
    scale_to_rms,
    survival_derivatives_at_zero,
    survival_factor,
    uncorrected_decay,
)
from triqec.models import survival_correlated, survival_uncorrelated
from triqec.noise import totally_correlated, uncorrelated
from triqec.operators import ANCILLA_SECTORS
from triqec.protocol import AncillaMixture, mixed_ancilla_survival


def test_survival_is_one_at_time_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert survival_factor(random_psd(rng), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_closed_forms_on_a_grid_equal_their_scalar_calls_bit_for_bit():
    # Time runs along the table's last axis, so a grid point is evaluated
    # exactly as the same time alone; ranks 1-3, the four one-hot sectors
    # and random mixtures.
    rng = np.random.default_rng(43)
    grid = np.linspace(0.0, 3.0, 203)
    for rank in (1, 2, 3, 3):
        cov = random_psd(rng, scale=rng.uniform(0.1, 10.0), rank=rank)
        mixtures = [sector_mixture(*sector) for sector in ANCILLA_SECTORS]
        mixtures += [AncillaMixture(*rng.dirichlet(np.ones(4)).tolist()) for _ in range(2)]
        laws = [lambda t: survival_factor(cov, t), lambda t: uncorrected_decay(cov, t)]
        laws += [lambda t, mix=mix: mixed_ancilla_survival(mix, cov, t) for mix in mixtures]
        for law in laws:
            pointwise = np.array([law(t) for t in grid.tolist()])
            assert law(grid).tobytes() == pointwise.tobytes()


@pytest.mark.parametrize("tau", [0.1, 0.389, 1.0])
def test_uncorrelated_special_case(tau):
    times = np.linspace(0.0, 5 * tau, 100)
    general = survival_factor(uncorrelated(tau), times)
    special = survival_uncorrelated(tau, times)
    assert np.abs(general - special).max() < 1e-12


@pytest.mark.parametrize("tau", [0.1, 0.389, 1.0])
def test_correlated_special_case(tau):
    times = np.linspace(0.0, 5 * tau, 100)
    general = survival_factor(totally_correlated(tau), times)
    special = survival_correlated(tau, times)
    assert np.abs(general - special).max() < 1e-12


def test_survival_matches_cosh_sinh_form():
    # The stable sum-of-exponentials evaluation equals the textbook
    # cosh/sinh combination wherever the latter is well conditioned.
    rng = np.random.default_rng(1)
    cov = random_psd(rng)
    for t in np.linspace(0.0, 1.0, 9):
        f = [np.exp(-0.5 * t * cov[j, j]) for j in range(3)]
        args = t * np.array([cov[0, 1], cov[0, 2], cov[1, 2]])
        triple = np.cosh(args).prod() - np.sinh(args).prod()
        direct = 0.5 * (sum(f) - f[0] * f[1] * f[2] * triple)
        assert survival_factor(cov, t) == pytest.approx(direct, abs=1e-12)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(8):
        cov = random_psd(rng)
        cov *= 3.0 / np.trace(cov)  # keep rates of order one
        first, second, third = survival_derivatives_at_zero(cov)

        def theta(t):
            return survival_factor(cov, t)

        h = 1e-3
        fd_first = forward_derivative(theta, 0.0, h, 1)
        fd_second = forward_derivative(theta, 0.0, h, 2)
        fd_third = forward_derivative(theta, 0.0, h, 3)
        assert first == 0.0
        assert abs(fd_first - first) < 1e-5
        assert fd_second == pytest.approx(second, rel=1e-5)
        assert fd_third == pytest.approx(third, rel=1e-4)


def test_derivatives_that_overflow_are_named():
    # The third derivative of 1e300 I is about 1e900: no float, so no number.
    with pytest.raises(ValueError) as error:
        survival_derivatives_at_zero(np.eye(3) * 1e300)
    assert str(error.value) == "survival derivatives overflow: largest entry 1e+300"


def test_derivatives_that_overflow_only_in_their_sums_are_scaled():
    # For 1e102 everywhere the third derivative's terms add up to about
    # 1.8e308 before the division by 16, but the derivative is 11.25e306:
    # taken on C / 1e102 and scaled, it is a float.  At 1e160 it is not.
    _, second, third = survival_derivatives_at_zero(np.ones((3, 3)) * 1e102)
    assert second == pytest.approx(-2.25e204, rel=1e-14)
    assert third == pytest.approx(1.125e307, rel=1e-14)
    with pytest.raises(ValueError) as error:
        survival_derivatives_at_zero(np.ones((3, 3)) * 1e160)
    assert str(error.value) == "survival derivatives overflow: largest entry 1e+160"


def test_first_derivative_vanishes_for_every_covariance():
    rng = np.random.default_rng(4)
    h = 1e-4
    for _ in range(20):
        cov = random_psd(rng)
        slope = forward_derivative(lambda s: survival_factor(cov, s), 0.0, h, 1)
        assert abs(slope) < 1e-6


@pytest.mark.parametrize(
    "model,expected",
    [("uncorrelated", np.log(3.0) / 2), ("correlated", np.log(3.0) / 4)],
)
def test_inflection_point_formulas(model, expected):
    assert inflection_point(model, 1.0) == pytest.approx(expected, abs=1e-15)
    assert inflection_point(model, 0.7) == pytest.approx(0.7 * expected, abs=1e-15)


@pytest.mark.parametrize("model,tau", [("uncorrelated", 1.0), ("correlated", 0.389)])
def test_inflection_point_is_a_root_of_the_second_derivative(model, tau):
    cov = uncorrelated(tau) if model == "uncorrelated" else totally_correlated(tau)

    def second(t):
        return richardson_second_derivative(lambda s: survival_factor(cov, s), t, 1e-3)

    landmark = inflection_point(model, tau)
    root = brentq(second, 0.5 * landmark, 1.5 * landmark, xtol=1e-12)
    assert abs(root - landmark) < 1e-8


@pytest.mark.parametrize("tau", [0.389, 1.0])
@pytest.mark.parametrize("model_cov", [uncorrelated, totally_correlated])
def test_survival_bounded_and_monotone(tau, model_cov):
    times = np.linspace(0.0, 5 * tau, 400)
    values = survival_factor(model_cov(tau), times)
    assert (values <= 1 + 1e-12).all()
    assert (np.diff(values) < 0).all()


@pytest.mark.parametrize("model_cov", [uncorrelated, totally_correlated])
def test_uncorrected_decays_below_corrected(model_cov):
    tau = 0.6
    cov = model_cov(tau)
    times = np.linspace(1e-4, tau, 50)
    assert (uncorrected_decay(cov, times) < survival_factor(cov, times)).all()


def test_fit_recovers_exact_rate():
    rate = 2.5677
    times = np.linspace(0.0, 1.2, 32)
    fit = fit_exponential_rate(DecayCurve(times, np.exp(-rate * times)))
    assert fit.rate == pytest.approx(rate, abs=1e-9)
    assert fit.correlation == pytest.approx(-1.0, abs=1e-12)


def test_fit_constant_curve_has_zero_rate():
    fit = fit_exponential_rate(DecayCurve(np.linspace(0, 1, 10), np.full(10, 0.37)))
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.correlation == 0.0


def test_fit_with_multiplicative_noise():
    rate = 3.2931
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 32)
    values = np.exp(-rate * times) * (1 + 0.01 * rng.standard_normal(times.size))
    fit = fit_exponential_rate(DecayCurve(times, values))
    assert fit.rate == pytest.approx(rate, rel=0.02)


def test_fit_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        fit_exponential_rate(DecayCurve(np.array([0.0, 1.0]), np.array([1.0, 0.0])))


def test_predict_corrected_curve_values():
    times = np.linspace(0.0, 1.0, 8)
    curve = predict_corrected_curve(1.0, "correlated", times)
    assert curve.values[0] == pytest.approx(1.0, abs=1e-15)
    x = np.log(3.0) / 2
    one_point = predict_corrected_curve(1.0, "uncorrelated", np.array([0.0, x]))
    assert one_point.values[-1] == pytest.approx(0.5 * (3 * np.exp(-x) - np.exp(-3 * x)), abs=1e-15)
    with pytest.raises(ValueError):
        predict_corrected_curve(0.0, "correlated", times)
    with pytest.raises(ValueError):
        predict_corrected_curve(1.0, "no-such-model", times)


@pytest.mark.parametrize("rate", [1e308, 5e-324])
def test_predict_corrected_curve_names_a_rate_out_of_range(rate):
    # The rate is what the caller passed: 2/tau overflows at 1e308, and
    # tau = 1/rate itself at 5e-324.
    with pytest.raises(ValueError) as error:
        predict_corrected_curve(rate, "correlated", [0.0, 1.0])
    assert str(error.value) == f"rate is out of range: tau = 1/rate or 2/tau overflows, got {rate!r}"


def test_scale_to_rms_examples():
    times = np.linspace(0.0, 1.0, 16)
    reference = DecayCurve(times, np.exp(-2 * times))
    doubled = DecayCurve(times, 2 * np.exp(-2 * times))
    assert np.abs(scale_to_rms(doubled, reference).values - reference.values).max() < 1e-12

    zero = DecayCurve(times, np.zeros_like(times))
    assert np.abs(scale_to_rms(zero, reference).values).max() == 0.0

    rng = np.random.default_rng(6)
    noisy = DecayCurve(times, np.abs(rng.standard_normal(times.size)) + 0.1)
    scaled = scale_to_rms(noisy, reference)
    ref_rms = np.sqrt(np.mean(reference.values**2))
    assert np.sqrt(np.mean(scaled.values**2)) == pytest.approx(ref_rms, abs=1e-12)
    # Both scale by powers of two inside, which is exact: the plain formulas' bits.
    plain = noisy.values * (ref_rms / np.sqrt(np.mean(noisy.values**2)))
    assert scaled.values.tobytes() == plain.tobytes()
    assert curve_correlation(noisy, reference) == np.corrcoef(noisy.values, reference.values)[0, 1]


def test_scale_to_rms_rejects_grid_mismatch():
    a = DecayCurve(np.linspace(0, 1, 5), np.ones(5))
    b = DecayCurve(np.linspace(0, 2, 5), np.ones(5))
    with pytest.raises(ValueError):
        scale_to_rms(a, b)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_rms_scaling_and_correlation_of_curves_whose_squares_leave_the_float_range(scale):
    # Squares of 1e200 overflow and those of 1e-200 underflow; either way,
    # the curve rescales and correlates as its ordinary shape does.
    times = np.linspace(0.0, 1.0, 12)
    shape = DecayCurve(times, np.exp(-times) + 0.1 * np.sin(7 * times))
    extreme, other = DecayCurve(times, scale * shape.values), DecayCurve(times, np.exp(-2 * times))
    for got, expected in [
        (scale_to_rms(extreme, other).values, scale_to_rms(shape, other).values),
        (scale_to_rms(other, extreme).values, scale * scale_to_rms(other, shape).values),
        (curve_correlation(extreme, other), curve_correlation(shape, other)),
    ]:
        np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3))  # not increasing
    with pytest.raises(ValueError):
        DecayCurve(np.array([0.0, 1.0]), np.zeros(3))  # length mismatch


def test_fit_result_validation():
    with pytest.raises(ValueError):
        FitResult(rate=np.nan, intercept=0.0, correlation=0.0)
    with pytest.raises(ValueError):
        FitResult(rate=1.0, intercept=0.0, correlation=1.5)


def test_curve_correlation_of_identical_shapes():
    times = np.linspace(0.0, 1.0, 12)
    a = DecayCurve(times, np.exp(-times))
    b = DecayCurve(times, 3.0 * np.exp(-times))
    assert curve_correlation(a, b) == pytest.approx(1.0, abs=1e-12)
