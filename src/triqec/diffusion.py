"""Gradient-diffusion dephasing mapped onto covariance matrices.

A gradient pulse winds transverse magnetization into a spiral of wavenumber
k0; molecular diffusion with coefficient D then blurs it by a Gaussian of
variance D*t, so the echo recovered by the inverse gradient is attenuated by
exp(-n^2 k0^2 D t / 2) for a coherence of order n.  Because diffusion shifts
the phase of every spin in a molecule equally, one gradient-diffusion
interval realizes the totally correlated error model; winding each spin
during its own interval realizes the uncorrelated one.

The interface takes k0 directly: the physics enters only through k0^2 D.
(For a rectangular gradient pulse of strength g and duration delta on a
nucleus of gyromagnetic ratio gamma, k0 = gamma * g * delta.)
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import NAMED_MODELS, plain, real_number, shown
from .noise import validate_integer

#: The canonical named models (aliases excluded), each one pulse arrangement.
SCHEMES = tuple(name for name, model in NAMED_MODELS.items() if model.name == name)


@dataclass(frozen=True)
class GradientDiffusionSpec:
    """One gradient-diffusion decoherence setting.

    gradient_wavenumber in rad/m, diffusion_coefficient in m^2/s, and the
    diffusion_time in seconds; ``scheme`` picks which error model the pulse
    arrangement realizes.
    """

    gradient_wavenumber: float
    diffusion_coefficient: float
    diffusion_time: float
    scheme: str = SCHEMES[0]

    def __post_init__(self):
        wavenumber = self.gradient_wavenumber
        if not (real_number(wavenumber) and abs(plain(wavenumber)) <= sys.float_info.max):
            raise ValueError(f"gradient_wavenumber must be finite, got {shown(wavenumber)}")
        for name in ("diffusion_coefficient", "diffusion_time"):
            value = getattr(self, name)
            if not (real_number(value) and 0 <= plain(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be finite and >= 0, got {shown(value)}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not math.isfinite(self.rate):
            raise ValueError(
                "the rate k0^2 D must be a finite float, got gradient_wavenumber "
                f"{float(wavenumber)!r} and diffusion_coefficient "
                f"{float(self.diffusion_coefficient)!r}"
            )

    @property
    def rate(self) -> float:
        """The dephasing rate k0^2 D shared by all coherence formulas."""
        try:
            return float(self.gradient_wavenumber) ** 2 * float(self.diffusion_coefficient)
        except OverflowError:  # k0^2 is no float
            return math.inf if self.diffusion_coefficient else 0.0


def attenuation_factor(spec: GradientDiffusionSpec, order: int) -> float:
    """Echo attenuation exp(-n^2 k0^2 D t / 2) of an order-n coherence.

    Equals 1 for order 0 and decays with the square of the coherence order,
    to 0.0 where n^2 k0^2 D t overflows; a non-integer order, or one beyond
    the float range, raises ValueError.
    """
    order = validate_integer(order, "order")
    if not abs(order) <= sys.float_info.max:
        raise ValueError(f"order must be within the float range, got {shown(order)}")
    if not (order and spec.rate and spec.diffusion_time):
        return 1.0  # exactly: n^2 alone may overflow, and inf * 0 is NaN
    n = float(order)
    return float(np.exp(-0.5 * n * n * spec.rate * spec.diffusion_time))


def spec_to_covariance(spec: GradientDiffusionSpec) -> np.ndarray:
    """Effective phase covariance of the gradient-diffusion experiment.

    Totally correlated scheme: every entry k0^2 D (one shared random phase).
    Uncorrelated scheme: diag(k0^2 D), i.e. 2/tau with 1/tau = k0^2 D / 2.
    Feeding the result to the analytic dephasing channel reproduces
    :func:`attenuation_factor` for every coherence order.
    """
    return spec.rate * NAMED_MODELS[spec.scheme].pattern
