import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import survival_correlated, survival_uncorrelated
from triqec.analytics import (
    DecayCurve,
    inflection_point,
    predict_corrected_curve,
    survival_factor,
)
from triqec.diffusion import SCHEMES, GradientDiffusionSpec, spec_to_covariance
from triqec.models import NAMED_MODELS, named_model, positive_finite
from triqec.noise import (
    CovarianceError,
    NoiseChannel,
    totally_correlated,
    uncorrelated,
    validate_covariance,
)
from triqec.operators import NormalizationError, data_state_from_bloch
from triqec.protocol import (
    AncillaMixture,
    ConfigError,
    CorrelatedComponent,
    PipelineConfig,
    ancilla_mixture_nogo_search,
    grid_count,
)


@pytest.mark.parametrize("name", list(NAMED_MODELS))
def test_each_model_agrees_with_the_general_decay_law(name):
    model = named_model(name)
    tau = 0.389
    cov = model.covariance(tau)
    assert np.array_equal(cov, (2.0 / tau) * model.pattern)
    times = np.linspace(0.0, 3 * tau, 50)
    paper = {"totally-correlated": survival_correlated, "uncorrelated": survival_uncorrelated}
    assert np.abs(paper[model.name](tau, times) - survival_factor(cov, times)).max() < 1e-12
    assert inflection_point(name, tau) == pytest.approx(model.inflection * tau, rel=1e-15)


def test_alias_and_factories_share_one_table_entry():
    assert named_model("correlated") is named_model("totally-correlated")
    assert np.array_equal(totally_correlated(0.5), np.full((3, 3), 4.0))
    assert np.array_equal(uncorrelated(0.5), np.diag([4.0, 4.0, 4.0]))
    assert SCHEMES == ("totally-correlated", "uncorrelated")
    assert tuple(NAMED_MODELS) == ("correlated", "totally-correlated", "uncorrelated")


@pytest.mark.parametrize(
    "tau",
    [None, 0.0, -1.0, float("nan"), float("inf"), pytest.param(Fraction(1, 10**400), id="1/10**400")],
)
def test_named_models_require_a_positive_tau(tau):
    # A fraction that underflows is judged as the float 0.0 it becomes.
    for name in NAMED_MODELS:
        with pytest.raises(ValueError, match="tau"):
            named_model(name).covariance(tau)
        with pytest.raises(ValueError, match="tau"):
            inflection_point(name, tau)
        with pytest.raises(ValueError, match="rate"):
            predict_corrected_curve(tau, name, [0.0, 0.1])
    if tau is not None:
        for factory in (totally_correlated, uncorrelated):
            with pytest.raises(ValueError, match="tau"):
                factory(tau)


@pytest.mark.parametrize("tau", [5e-324, 1e-308, 2 / 1.7976931348623157e308])
def test_named_models_reject_a_tau_whose_rate_overflows(tau):
    # 2/tau must be a finite rate: a subnormal tau would give inf entries.
    for covariance in (*(model.covariance for model in NAMED_MODELS.values()), uncorrelated):
        with pytest.raises(ValueError, match=r"^tau is too small: the rate 2/tau overflows"):
            covariance(tau)
    assert np.isfinite(uncorrelated(1.2e-308)).all()


def covariance_with(value):
    """The identity covariance with ``value`` as its first entry, as an object array."""
    cov = np.eye(3, dtype=object)
    cov[0, 0] = value
    return cov


REAL_INPUTS = {
    "tau": (totally_correlated, "tau must be positive and finite"),
    "inflection-tau": (lambda v: inflection_point("correlated", v), "tau must be positive"),
    "rate": (lambda v: predict_corrected_curve(v, "correlated", [0.0]), "rate must be positive"),
    "wavenumber": (lambda v: GradientDiffusionSpec(v, 1.0, 1.0), "gradient_wavenumber must be"),
    "diffusion": (lambda v: GradientDiffusionSpec(1.0, v, 1.0), "diffusion_coefficient must be"),
    "diffusion-time": (lambda v: GradientDiffusionSpec(1.0, 1.0, v), "diffusion_time must be"),
    "mixture-weight": (lambda v: AncillaMixture(v, 0.0, 0.0, 0.0), "mixture weight mu_pp must"),
    "component-weight": (
        lambda v: CorrelatedComponent(v, (0.0, 0.0, 1.0), (1, 1)),
        "component weight must",
    ),
    "grid-step": (lambda v: ancilla_mixture_nogo_search(np.eye(3), v), "grid_step must be in"),
    "bloch": (
        lambda v: PipelineConfig(NoiseChannel(np.eye(3)), bloch=(v, 0.0, 0.0)),
        "Bloch vector components must be finite real numbers",
    ),
    "sector": (lambda v: CorrelatedComponent(1.0, (0.0, 0.0, 1.0), (v, -1)), "ancilla signs must"),
    "covariance": (
        lambda v: NoiseChannel(covariance_with(v)),
        "covariance entries must be real numbers",
    ),
}


@pytest.mark.parametrize("value", [True, False, np.True_, "x", "1.0", 1j, [1.0]], ids=repr)
@pytest.mark.parametrize("entry", list(REAL_INPUTS))
def test_real_inputs_reject_bools_and_non_numbers_by_name(entry, value):
    # A bool is a flag, not a number: True is not 1 (nor False 0), and a
    # string or a complex raises the input's own ValueError, not a TypeError.
    entry_point, message = REAL_INPUTS[entry]
    with pytest.raises(ValueError) as error:
        entry_point(value)
    assert str(error.value).startswith(message)
    assert str(error.value).endswith(f", got {value!r}")


BEYOND_FLOAT = {
    "tau": (totally_correlated, "tau must be positive and finite, got {}"),
    "inflection-tau": (
        lambda v: inflection_point("correlated", v),
        "tau must be positive and finite, got {}",
    ),
    "mixture-weight": (
        lambda v: AncillaMixture(v, 0, 0, 0),
        "mixture weight mu_pp must be finite and >= 0, got {}",
    ),
    "bloch": (
        lambda v: PipelineConfig(NoiseChannel(np.eye(3)), bloch=(v, 0, 0)),
        "Bloch vector components must be finite real numbers, got {}",
    ),
    "survival-times": (lambda v: survival_factor(np.eye(3), v), "times must be finite, got {}"),
    "curve-times": (lambda v: DecayCurve([0, v], [1, 0.5]), "curve times must be finite, got {}"),
    "curve-values": (lambda v: DecayCurve([0, 1], [1, v]), "curve values must be finite, got {}"),
    "wavenumber": (
        lambda v: GradientDiffusionSpec(v, 1.0, 1.0),
        "gradient_wavenumber must be finite, got {}",
    ),
    "diffusion-time": (
        lambda v: GradientDiffusionSpec(1.0, 1.0, v),
        "diffusion_time must be finite and >= 0, got {}",
    ),
    "covariance": (
        lambda v: validate_covariance([[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "covariance entries must be finite, got {}",
    ),
}


@pytest.mark.parametrize(
    "value, shown",
    [(10**400, "1e+400"), (10**5000, "1e+5000"), (Fraction(10**400), "1e+400")],
    ids=["10**400", "10**5000", "Fraction(10**400)"],
)
@pytest.mark.parametrize("entry", list(BEYOND_FLOAT))
def test_ints_beyond_the_float_range_get_the_named_error(entry, value, shown):
    # float(10**400) overflows; the check names the int, or the fraction, as a
    # float would show it.
    entry_point, message = BEYOND_FLOAT[entry]
    with pytest.raises(ValueError) as error:
        entry_point(value)
    assert str(error.value) == message.format(shown)


#: Each input that is an array of real numbers (``models.real_array``): a call
#: taking it, the name its errors give it, and their type.
ARRAY_INPUTS = {
    "covariance": (validate_covariance, "covariance entries", CovarianceError),
    "survival-times": (lambda t: survival_factor(np.eye(3), t), "times", ValueError),
    "curve-times": (lambda t: DecayCurve(t, [1.0, 0.5]), "curve times", ValueError),
    "curve-values": (lambda v: DecayCurve([0.0, 1.0], v), "curve values", ValueError),
    "predicted-times": (
        lambda t: predict_corrected_curve(1.0, "correlated", t),
        "times",
        ValueError,
    ),
}

#: Entries that are no real number or beyond the float range, and how the
#: error ends for each.
BAD_ENTRIES = [
    pytest.param(True, "real numbers, got True", id="True"),
    pytest.param("0.3", "real numbers, got '0.3'", id="string"),
    pytest.param(0.3 + 0j, "real numbers, got (0.3+0j)", id="complex"),
    pytest.param(None, "real numbers, got None", id="None"),
    pytest.param([[0.1, 0.2], [0.3]], "real numbers, got a ragged nested sequence", id="ragged"),
    pytest.param(10**400, "finite, got 1e+400", id="10**400"),
    pytest.param(Fraction(10**400), "finite, got 1e+400", id="Fraction(10**400)"),
]


@pytest.mark.parametrize("form", ["alone", "after-a-float"])
@pytest.mark.parametrize("value, ending", BAD_ENTRIES)
@pytest.mark.parametrize("entry", list(ARRAY_INPUTS))
def test_array_inputs_name_their_first_bad_entry(entry, value, ending, form):
    # One rule for every array of reals: a bool among floats is a flag, a
    # string is never parsed, and each failure names the input and the entry.
    call, name, error = ARRAY_INPUTS[entry]
    with pytest.raises(error) as raised:
        call(value if form == "alone" else [0.5, value])
    assert type(raised.value) is error
    assert str(raised.value) == f"{name} must be {ending}"


def test_typed_arrays_are_scanned_like_lists():
    # An array of another dtype than int or float is scanned entry by entry,
    # and a bool among a covariance's float rows is named as it is in a list.
    for values, shown in (
        (np.array([0.1, 0.2j]), "(0.1+0j)"),
        (np.array([0.1, None], dtype=object), "None"),
        (np.array(["0", "1"]), "'0'"),
        (np.array([False, True]), "False"),
    ):
        with pytest.raises(ValueError) as raised:
            survival_factor(np.eye(3), values)
        assert str(raised.value) == f"times must be real numbers, got {shown}"
    with pytest.raises(CovarianceError) as raised:
        validate_covariance([[True, 0, 0], [0, 1.0, 0], [0, 0, 1]])
    assert str(raised.value) == "covariance entries must be real numbers, got True"


def test_ragged_covariances_are_named():
    for cov in ([[1.0, 0], [0, 1, 0], [0, 0, 1]], [[[1.0], 0, 0], [0, 1, 0], [0, 0, 1]]):
        with pytest.raises(CovarianceError) as raised:
            NoiseChannel(cov)
        assert str(raised.value) == (
            "covariance entries must be real numbers, got a ragged nested sequence"
        )


def test_bloch_vectors_and_covariances_are_checked_whole():
    # Three Bloch components, not two; a flag or string array is no covariance.
    for bloch in ((0, 0), (0, 0, 0, 1), 0.5):
        with pytest.raises(NormalizationError, match="Bloch vector must have 3 components"):
            PipelineConfig(NoiseChannel(np.eye(3)), bloch=bloch)
    for cov in (np.eye(3, dtype=bool), [["1", 0, 0], [0, 1, 0], [0, 0, 1]], np.eye(3) * 1j):
        with pytest.raises(ValueError, match="covariance entries must be real numbers"):
            NoiseChannel(cov)


def test_unknown_model_names_are_rejected_everywhere():
    with pytest.raises(ValueError, match="^model must be one of"):
        named_model("partially-correlated")
    with pytest.raises(ValueError, match="^model must be one of"):
        inflection_point("partially-correlated", 1.0)
    with pytest.raises(ValueError, match="^model must be one of"):
        predict_corrected_curve(1.0, "partially-correlated", [0.0, 0.1])
    with pytest.raises(ValueError, match="scheme"):
        GradientDiffusionSpec(1.0, 1.0, 0.1, scheme="correlated")


def test_zero_diffusion_gives_a_zero_covariance():
    for scheme in SCHEMES:
        cov = spec_to_covariance(GradientDiffusionSpec(1.0e4, 0.0, 0.1, scheme=scheme))
        assert np.array_equal(cov, np.zeros((3, 3)))


#: Each entry point with a range check, as a function of one number x that a
#: plain float 1.0 passes, returning what it makes of it as an array.
RANGE_CHECKED = {
    "data_state_from_bloch": lambda x: data_state_from_bloch((type(x)(0), type(x)(0), x)),
    "positive_finite": lambda x: np.array(positive_finite(x, "x")),
    "totally_correlated": totally_correlated,
    "AncillaMixture": lambda x: np.array(AncillaMixture(x, 0, 0, 0).weights, dtype=float),
    "GradientDiffusionSpec": lambda x: spec_to_covariance(GradientDiffusionSpec(2 * x, 1.0, 1.0)),
    "inflection_point": lambda x: np.array(inflection_point("correlated", x)),
    "predict_corrected_curve": lambda x: predict_corrected_curve(x, "correlated", [0, 1]).values,
    "grid_count": lambda x: np.array(grid_count(x, "grid_step")),
}


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
@pytest.mark.parametrize("entry", list(RANGE_CHECKED))
def test_low_precision_scalars_pass_the_range_checks_without_a_warning(entry, dtype):
    # Compared with sys.float_info.max as numpy scalars, float16 and float32
    # would cast that bound to their own type and warn of an overflow.
    call = RANGE_CHECKED[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(dtype(1.0))
    assert np.array_equal(got, call(1.0))


def test_low_precision_mixture_weights_are_summed_as_floats():
    # Added in float16, these round to exactly 1; as floats they sum to 1.00012.
    weights = [np.float16(w) for w in (0.5, 0.25, 0.125, 0.1251)]
    for given in (weights, [float(w) for w in weights]):
        with pytest.raises(ConfigError, match="must sum to 1, got 1.0001220703125"):
            AncillaMixture(*given)
