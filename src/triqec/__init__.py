"""Three-spin quantum error correction under correlated random-field dephasing.

The package simulates the majority-vote code on one data spin and two
ancillae, dephased by Gaussian random fields with an arbitrary 3x3 rate
covariance, and cross-validates three routes to the same answer: the exact
Gaussian-averaged channel, Monte Carlo trajectory averaging, and the
closed-form survival factor of the protected Bloch components.
"""

__version__ = "0.1.0"

from .analytics import (
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
from .diffusion import GradientDiffusionSpec, attenuation_factor, spec_to_covariance
from .gates import encoder, global_rotation, toffoli
from .noise import (
    CovarianceError,
    NoiseChannel,
    apply_channel_analytic,
    apply_channel_mc,
    dephasing_factors,
    totally_correlated,
    uncorrelated,
    validate_covariance,
)
from .operators import (
    BlochVector,
    NormalizationError,
    angular_momentum,
    bloch_of,
    idempotent,
    partial_trace_ancillae,
)
from .protocol import (
    AncillaMixture,
    ConfigError,
    CorrelatedComponent,
    NoGoCertificate,
    PipelineConfig,
    PipelineResult,
    ancilla_mixture_nogo_search,
    correlated_mixture_residuals,
    mixed_ancilla_slope_at_zero,
    mixed_ancilla_survival,
    run_pipeline,
    run_pipeline_mc,
)
