"""Gradient-diffusion dephasing mapped onto covariance matrices.

A gradient pulse winds transverse magnetization into a spiral of wavenumber
k0; molecular diffusion with coefficient D then blurs it by a Gaussian of
variance D*t, so the echo recovered by the inverse gradient is attenuated by
exp(-n^2 k0^2 D t / 2) for a coherence of order n.  Because diffusion shifts
the phase of every spin in a molecule equally, one gradient-diffusion
interval realizes the totally correlated error model; winding each spin
during its own interval realizes the uncorrelated one.  The echo law is
not coded here: ``noise.dephasing_factors`` of ``spec_to_covariance(spec)``
reproduces it for every coherence order.

The interface takes k0 directly: the physics enters only through k0^2 D.
(For a rectangular gradient pulse of strength g and duration delta on a
nucleus of gyromagnetic ratio gamma, k0 = gamma * g * delta.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import FLOAT_MAX, NAMED_MODELS, one_of, real_in

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
        wavenumber = real_in(
            self.gradient_wavenumber, "gradient_wavenumber", -FLOAT_MAX, FLOAT_MAX, "finite"
        )
        coefficient, _ = (
            real_in(getattr(self, name), name, 0.0, FLOAT_MAX, "finite and >= 0")
            for name in ("diffusion_coefficient", "diffusion_time")
        )
        one_of(self.scheme, SCHEMES, "scheme")
        if not math.isfinite(self.rate):
            raise ValueError(
                "the rate k0^2 D must be a finite float, got gradient_wavenumber "
                f"{wavenumber!r} and diffusion_coefficient {coefficient!r}"
            )

    @property
    def rate(self) -> float:
        """The dephasing rate k0^2 D shared by all coherence formulas."""
        try:
            return float(self.gradient_wavenumber) ** 2 * float(self.diffusion_coefficient)
        except OverflowError:  # k0^2 is no float
            return math.inf if self.diffusion_coefficient else 0.0


def spec_to_covariance(spec: GradientDiffusionSpec) -> np.ndarray:
    """Effective phase covariance of the gradient-diffusion experiment.

    Totally correlated scheme: every entry k0^2 D (one shared random phase).
    Uncorrelated scheme: diag(k0^2 D), i.e. 2/tau with 1/tau = k0^2 D / 2.
    Feeding the result to the analytic dephasing channel reproduces the
    echo attenuation exp(-n^2 k0^2 D t / 2) for every coherence order n.
    """
    return spec.rate * NAMED_MODELS[spec.scheme].pattern
