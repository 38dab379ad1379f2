"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Criteria with runtime bounds assert the elapsed wall
time as well.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from conftest import (
    asymmetric_third_derivative_at_zero,
    forward_derivative,
    project_ancilla_sectors,
    random_psd,
    richardson_second_derivative,
    survival_correlated,
    survival_uncorrelated,
)
from triqec.analytics import (
    DecayCurve,
    curve_correlation,
    fit_exponential_rate,
    inflection_point,
    predict_corrected_curve,
    scale_to_rms,
    survival_derivatives_at_zero,
    survival_factor,
    uncorrected_decay,
)
from triqec.gates import encoder, toffoli
from triqec.noise import (
    NoiseChannel,
    dephasing_factors,
    totally_correlated,
    uncorrelated,
)
from triqec.operators import angular_momentum
from triqec.protocol import (
    AncillaMixture,
    PipelineConfig,
    ancilla_mixture_nogo_search,
    mixed_ancilla_slope_at_zero,
    mixed_ancilla_survival,
    run_pipeline,
    run_pipeline_mc,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def test_acceptance_01_closed_form_equivalence():
    with criterion(1, "named-model closed forms match the general survival factor"):
        start = time.perf_counter()
        for tau in (0.1, 0.389, 1.0):
            times = np.linspace(0.0, 5 * tau, 100)
            assert (
                np.abs(survival_factor(uncorrelated(tau), times) - survival_uncorrelated(tau, times)).max()
                < 1e-12
            )
            assert (
                np.abs(survival_factor(totally_correlated(tau), times) - survival_correlated(tau, times)).max()
                < 1e-12
            )
        assert time.perf_counter() - start < 1.0


def test_acceptance_02_pipeline_formula_oracle():
    with criterion(2, "analytic pipeline equals the closed form on random covariances"):
        start = time.perf_counter()
        rng = np.random.default_rng(17)
        bloch = (0.3, 0.6, 0.64)
        for _ in range(50):
            cov = random_psd(rng)
            config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=bloch)
            for t in rng.uniform(0.0, 2.0, size=10):
                result = run_pipeline(config, float(t))
                assert abs(result.survival - survival_factor(cov, t)) < 1e-9
                assert abs(result.bloch_out.x - bloch[0]) < 1e-10
        assert time.perf_counter() - start < 10.0


def test_acceptance_03_monte_carlo_matches_analytic():
    with criterion(3, "100k-sample Monte Carlo within 3 SE, bit-identical across workers"):
        start = time.perf_counter()
        models = [uncorrelated(0.304), totally_correlated(0.389)]
        for mi, cov in enumerate(models):
            config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))
            for pi, t in enumerate(np.linspace(0.0, 1.2, 10)):
                result = run_pipeline_mc(
                    config, float(t), samples=100_000, seed=np.random.SeedSequence([2026, mi, pi])
                )
                exact = survival_factor(cov, t)
                assert abs(result.survival - exact) <= 3 * result.survival_stderr + 1e-12

        config = PipelineConfig(channel=NoiseChannel(covariance=models[1]), bloch=(0.0, 0.0, 1.0))
        one = run_pipeline_mc(config, 0.4, samples=100_000, seed=99, workers=1)
        three = run_pipeline_mc(config, 0.4, samples=100_000, seed=99, workers=3)
        assert one.survival == three.survival
        assert one.survival_stderr == three.survival_stderr
        assert np.array_equal(one.reduced, three.reduced)
        assert time.perf_counter() - start < 120.0


def test_acceptance_04_first_order_protection():
    with criterion(4, "corrected deficit is quadratic; uncorrected is 10x worse"):
        for cov_factory, tau in [
            (uncorrelated, 0.389),
            (uncorrelated, 1.0),
            (totally_correlated, 0.389),
            (totally_correlated, 1.0),
        ]:
            cov = cov_factory(tau)
            config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))
            bound = 0.5 * abs(survival_derivatives_at_zero(cov)[1]) * 1.2
            for h in (1e-2 * tau, 1e-3 * tau):
                deficit = 1.0 - run_pipeline(config, h).survival
                assert abs(deficit) < bound * h**2
            h = 1e-2 * tau
            corrected = 1.0 - run_pipeline(config, h).survival
            bare = 1.0 - uncorrected_decay(cov, h)
            assert bare >= 10 * corrected


def test_acceptance_05_derivative_landmarks():
    with criterion(5, "second derivatives -3/tau^2 and -9/tau^2; inflections ln(3)tau/{2,4}"):
        for tau in (0.389, 1.0):
            second_u = survival_derivatives_at_zero(uncorrelated(tau))[1]
            second_c = survival_derivatives_at_zero(totally_correlated(tau))[1]
            assert abs(second_u + 3.0 / tau**2) < 1e-9
            assert abs(second_c + 9.0 / tau**2) < 1e-9
            for cov, second in [(uncorrelated(tau), second_u), (totally_correlated(tau), second_c)]:
                fd = forward_derivative(lambda s: survival_factor(cov, s), 0.0, 1e-3, 2)
                assert abs(fd - second) < 1e-5

            for model, cov, landmark in [
                ("uncorrelated", uncorrelated(tau), np.log(3.0) * tau / 2),
                ("correlated", totally_correlated(tau), np.log(3.0) * tau / 4),
            ]:
                assert abs(inflection_point(model, tau) - landmark) < 1e-12

                def curvature(t, cov=cov):
                    return richardson_second_derivative(lambda s: survival_factor(cov, s), t, 1e-3)

                root = brentq(curvature, 0.5 * landmark, 1.5 * landmark, xtol=1e-12)
                assert abs(root - landmark) < 1e-8


def test_acceptance_06_third_derivative_variant_resolution():
    with criterion(6, "exactly one third-derivative variant matches finite differences"):
        rng = np.random.default_rng(23)
        sym_ok, asym_ok = True, True
        for _ in range(25):
            cov = random_psd(rng)
            cov *= 3.0 / np.trace(cov)
            oracle = forward_derivative(lambda s: survival_factor(cov, s), 0.0, 5e-3, 3)
            sym = survival_derivatives_at_zero(cov)[2]
            asym = asymmetric_third_derivative_at_zero(cov)
            scale = max(abs(oracle), 1e-12)
            sym_ok &= abs(sym - oracle) / scale <= 1e-4
            asym_ok &= abs(asym - oracle) / scale <= 1e-4
        assert sym_ok != asym_ok, "exactly one variant must survive the oracle"
        assert sym_ok  # and it is the symmetric one


def test_acceptance_07_decode_correct_table():
    with criterion(7, "all eight decode/correct lines reproduced matrix-exactly"):
        rng = np.random.default_rng(31)
        cov = random_psd(rng)
        t = 0.63
        iz = {k: angular_momentum(k, "z") for k in (1, 2, 3)}
        ix = {k: angular_momentum(k, "x") for k in (1, 2, 3)}
        eye = np.eye(8, dtype=complex)
        enc, corr = encoder(), toffoli()

        def pair_coefficient(j, k):
            # The decoded coefficient is the encoder conjugate of the
            # averaged two-spin propagator for that cross rate.
            inner = expm(-t * cov[j - 1, k - 1] * 4 * ix[j] @ ix[k])
            return enc @ inner @ enc

        fd12, fd13, fd23 = pair_coefficient(1, 2), pair_coefficient(1, 3), pair_coefficient(2, 3)
        decoded = {
            "one": eye,
            "z1": 2 * iz[1],
            "z2": fd12 @ (2 * iz[2]),
            "z3": fd13 @ (2 * iz[3]),
            "z1z2": 4 * iz[1] @ iz[2],
            "z1z3": 4 * iz[1] @ iz[3],
            "z2z3": fd23 @ (4 * iz[2] @ iz[3]),
            "z1z2z3": fd12 @ fd13 @ fd23 @ (8 * iz[1] @ iz[2] @ iz[3]),
        }
        cosh = {key: np.cosh(t * val) for key, val in
                {"12": cov[0, 1], "13": cov[0, 2], "23": cov[1, 2]}.items()}
        sinh = {key: np.sinh(t * val) for key, val in
                {"12": cov[0, 1], "13": cov[0, 2], "23": cov[1, 2]}.items()}
        triple = cosh["12"] * cosh["13"] * cosh["23"] - sinh["12"] * sinh["13"] * sinh["23"]
        expected = {
            "one": eye,
            "z1": iz[1] + 2 * iz[1] @ iz[2] + 2 * iz[1] @ iz[3] - 4 * iz[1] @ iz[2] @ iz[3],
            "z2": cosh["12"] * 2 * iz[2],
            "z3": cosh["13"] * 2 * iz[3],
            "z1z2": iz[1] + 2 * iz[1] @ iz[2] - 2 * iz[1] @ iz[3] + 4 * iz[1] @ iz[2] @ iz[3],
            "z1z3": iz[1] - 2 * iz[1] @ iz[2] + 2 * iz[1] @ iz[3] + 4 * iz[1] @ iz[2] @ iz[3],
            "z2z3": cosh["23"] * 4 * iz[2] @ iz[3],
            "z1z2z3": triple
            * (-iz[1] + 2 * iz[1] @ iz[2] + 2 * iz[1] @ iz[3] + 4 * iz[1] @ iz[2] @ iz[3]),
        }
        for key, op in decoded.items():
            produced = corr @ project_ancilla_sectors(op) @ corr
            assert np.abs(produced - expected[key]).max() < 1e-12, key


def test_acceptance_08_mixed_ancilla_nogo():
    with criterion(8, "simplex search: unique ground-vertex zero; slope formula matches FD"):
        start = time.perf_counter()
        rng = np.random.default_rng(41)
        models = [
            uncorrelated(1.0),
            totally_correlated(0.389),
            random_psd(rng) + 0.5 * np.eye(3),
        ]
        for cov in models:
            cert = ancilla_mixture_nogo_search(cov, grid_step=0.01)
            assert (cert.zero_count, cert.last_zero) == (1, (1.0, 0.0, 0.0, 0.0))
            assert cert.unique_ground_zero
            assert cert.min_margin > 0

            for weights in [
                (1, 0, 0, 0),
                (0, 1, 0, 0),
                (0, 0, 1, 0),
                (0, 0, 0, 1),
                (0.7, 0.1, 0.1, 0.1),
                (0.25, 0.25, 0.25, 0.25),
                (0.5, 0.0, 0.3, 0.2),
            ]:
                mix = AncillaMixture(*weights)
                fd = forward_derivative(
                    lambda s, mix=mix: mixed_ancilla_survival(mix, cov, s), 0.0, 1e-3, 1
                )
                assert abs(fd - mixed_ancilla_slope_at_zero(mix, cov)) < 1e-6
        assert time.perf_counter() - start < 5.0


def test_acceptance_09_coherence_order_law():
    with criterion(9, "multiple-quantum decay exponents in ratio 1:4:9"):
        tau, t = 0.389, 0.57
        factors = dephasing_factors(totally_correlated(tau), t)
        rate1 = -np.log(factors[0b000, 0b100]) / t
        rate2 = -np.log(factors[0b000, 0b110]) / t
        rate3 = -np.log(factors[0b000, 0b111]) / t
        assert abs(rate2 / rate1 - 4.0) < 1e-10
        assert abs(rate3 / rate1 - 9.0) < 1e-10


def test_acceptance_10_fit_workflow_analogue():
    with criterion(10, "fit uncorrected, predict corrected, correlate with Monte Carlo"):
        rate = 2.5677
        rng = np.random.default_rng(53)
        times = np.linspace(0.0, 1.2, 32)
        noisy = np.exp(-rate * times) * (1 + 0.01 * rng.standard_normal(times.size))
        fit = fit_exponential_rate(DecayCurve(times, noisy))
        assert fit.correlation < -0.99
        assert fit.rate == pytest.approx(rate, rel=0.02)

        predicted = predict_corrected_curve(fit.rate, "correlated", times)

        cov = totally_correlated(1.0 / rate)
        config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))
        mc_values = [
            run_pipeline_mc(
                config, float(t), samples=10_000, seed=np.random.SeedSequence([77, i])
            ).survival
            for i, t in enumerate(times)
        ]
        measured = DecayCurve(times, np.array(mc_values))
        scaled = scale_to_rms(measured, predicted)
        assert curve_correlation(scaled, predicted) > 0.98
