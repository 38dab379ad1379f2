"""The package's public names, pinned: adding or removing one is a deliberate edit here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import triqec

PUBLIC_NAMES = [
    "AncillaMixture",
    "BlochVector",
    "ConfigError",
    "CorrelatedComponent",
    "CovarianceError",
    "DecayCurve",
    "FitResult",
    "GradientDiffusionSpec",
    "NoGoCertificate",
    "NoiseChannel",
    "NormalizationError",
    "PipelineConfig",
    "PipelineResult",
    "analytics",
    "ancilla_mixture_nogo_search",
    "angular_momentum",
    "apply_channel",
    "attenuation_factor",
    "bloch_of",
    "correlated_mixture_residuals",
    "curve_correlation",
    "dephasing_factors",
    "diffusion",
    "encoder",
    "fit_exponential_rate",
    "gates",
    "global_rotation",
    "idempotent",
    "inflection_point",
    "mixed_ancilla_slope_at_zero",
    "mixed_ancilla_survival",
    "models",
    "noise",
    "operators",
    "partial_trace_ancillae",
    "predict_corrected_curve",
    "protocol",
    "run_pipeline",
    "run_pipeline_mc",
    "scale_to_rms",
    "spec_to_covariance",
    "survival_derivatives_at_zero",
    "survival_factor",
    "toffoli",
    "totally_correlated",
    "uncorrected_decay",
    "uncorrelated",
    "validate_covariance",
]


def test_public_names_are_pinned():
    # In a fresh interpreter: importing a submodule such as triqec.cli, as
    # other tests do, adds it to dir(triqec).
    src = str(Path(triqec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, triqec; print(json.dumps(sorted(n for n in dir(triqec) if not n.startswith('_'))))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert len(PUBLIC_NAMES) == 48
    assert json.loads(out.stdout) == PUBLIC_NAMES
