import numpy as np
import pytest

from conftest import echo_attenuation, survival_uncorrelated
from triqec.analytics import survival_factor
from triqec.diffusion import GradientDiffusionSpec, spec_to_covariance
from triqec.noise import NoiseChannel, dephasing_factors
from triqec.protocol import PipelineConfig, run_pipeline


def make_spec(scheme="totally-correlated", k0=2.0e4, diffusion=2.0e-9, t=0.05):
    return GradientDiffusionSpec(
        gradient_wavenumber=k0,
        diffusion_coefficient=diffusion,
        diffusion_time=t,
        scheme=scheme,
    )


#: An element |r><c| of each coherence order n: n of the three spins flip.
ORDER_ELEMENT = {0: (0b000, 0b000), 1: (0b000, 0b100), 2: (0b000, 0b110), 3: (0b000, 0b111)}


def channel_echo(spec, order):
    """The analytic channel's damping of an order-n coherence at the spec's covariance."""
    factors = dephasing_factors(spec_to_covariance(spec), spec.diffusion_time)
    return factors[ORDER_ELEMENT[order]]


def test_attenuation_follows_order_squared_law():
    spec = make_spec()
    ratio = np.log(channel_echo(spec, 3)) / np.log(channel_echo(spec, 1))
    assert ratio == pytest.approx(9.0, rel=1e-12)
    ratio2 = np.log(channel_echo(spec, 2)) / np.log(channel_echo(spec, 1))
    assert ratio2 == pytest.approx(4.0, rel=1e-12)


def test_single_quantum_attenuation_matches_named_decay_time():
    # Choosing k0^2 D = 2/tau makes the order-1 echo decay exp(-t/tau).
    tau = 0.389
    k0 = 1.0
    spec = GradientDiffusionSpec(k0, 2.0 / tau, diffusion_time=0.3)
    assert echo_attenuation(spec, 1) == pytest.approx(np.exp(-0.3 / tau), rel=1e-12)
    assert channel_echo(spec, 1) == pytest.approx(echo_attenuation(spec, 1), rel=1e-12)


def test_covariance_shapes():
    corr = spec_to_covariance(make_spec("totally-correlated"))
    assert np.allclose(corr, corr[0, 0] * np.ones((3, 3)))
    uncorr = spec_to_covariance(make_spec("uncorrelated"))
    assert np.allclose(uncorr, np.diag(np.diag(uncorr)))
    assert uncorr[0, 0] == pytest.approx(corr[0, 0])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_channel_reproduces_attenuation_for_every_order(order):
    spec = make_spec()
    assert abs(channel_echo(spec, order) - echo_attenuation(spec, order)) < 1e-12


def test_uncorrelated_scheme_has_no_cross_damping():
    spec = make_spec("uncorrelated")
    factors = dephasing_factors(spec_to_covariance(spec), spec.diffusion_time)
    # Zero- and double-quantum two-spin elements damp identically.
    assert factors[0b000, 0b011] == pytest.approx(factors[0b010, 0b001], rel=1e-14)


def test_corrected_pipeline_reproduces_uncorrelated_law():
    spec = make_spec("uncorrelated", k0=1.0, diffusion=4.0, t=0.0)
    tau = 2.0 / spec.rate
    cov = spec_to_covariance(spec)
    config = PipelineConfig(channel=NoiseChannel(covariance=cov), bloch=(0.0, 0.0, 1.0))
    for t in (0.1, 0.5, 1.2):
        got = run_pipeline(config, t).survival
        assert got == pytest.approx(survival_uncorrelated(tau, t), abs=1e-12)
        assert got == pytest.approx(survival_factor(cov, t), abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(diffusion=-1.0)
    with pytest.raises(ValueError):
        make_spec(t=-0.1)
    with pytest.raises(ValueError):
        make_spec(scheme="partially-correlated")


@pytest.mark.parametrize(
    "k0, diffusion",
    [(1e154, 10.0), (1e200, 1e-9), (10**200, 1.0), (np.float64(1e160), 1.0)],
    ids=["1e154", "1e200", "10**200", "float64"],
)
def test_spec_rejects_a_rate_beyond_the_float_range(k0, diffusion):
    # k0^2 D of inf would give NaN attenuations and inf or NaN covariances.
    with pytest.raises(ValueError) as error:
        GradientDiffusionSpec(k0, diffusion, 1.0)
    assert str(error.value) == (
        "the rate k0^2 D must be a finite float, got gradient_wavenumber "
        f"{float(k0)!r} and diffusion_coefficient {float(diffusion)!r}"
    )
