"""The input rules and the named noise models.

Each outside input passes one of three rules, which raise a ValueError (or
the caller's subclass of it) naming the input: ``real_in``, a real number
in a range, judged as the float it becomes (``real_array`` scans arrays of
them the same way); ``validate_integer``, an integer within bounds (a bool
is a flag, in both); ``one_of``, a name from a fixed tuple.

A named covariance is 2/tau times a rate pattern: all-ones for one field
shared by the three spins ("totally-correlated", alias "correlated"), the
identity for independent, identically distributed fields ("uncorrelated").
Their corrected survival is ``analytics.survival_factor`` of that covariance.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np


def real_number(value) -> bool:
    """Whether ``value`` is one real number, numpy's and 0-d arrays included; a bool is not."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def shown(value) -> str:
    """``repr(value)``, but a nonzero rational beyond the float range in 17 digits (1e+400, 1e-400).

    Beyond the range is a magnitude outside [``TINY``, ``FLOAT_MAX``], where
    an int or a fraction has no float of its own.
    """
    if isinstance(value, numbers.Rational) and value and not TINY <= abs(value) <= FLOAT_MAX:
        from decimal import Context, Decimal  # only here: importing it costs 1.5 ms

        quotient = Context(prec=17).divide(Decimal(value.numerator), Decimal(value.denominator))
        return f"{quotient.normalize():e}"
    return repr(value)


#: The largest float, and the least positive one: a float x is > 0 if x >= TINY.
FLOAT_MAX = sys.float_info.max
TINY = math.ulp(0.0)


def _as_float(value) -> float:
    """``value`` as a float: +-inf beyond the float range, NaN if it is no real number."""
    if not real_number(value):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int or a fraction beyond the float range
        return math.inf if value > 0 else -math.inf


def real_array(values, name: str, error=ValueError) -> np.ndarray:
    """``values`` as a float64 array if it holds real numbers, else ``error`` naming them.

    An int or float ndarray is taken as it is; any other input is scanned
    entry by entry, so a bool (a flag, not a number), a string, a complex
    number or None among floats is named, as is a ragged nested sequence
    and a rational beyond the float range (shown as ``shown`` prints it).
    The range of each entry is the caller's to check.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            np.asarray(values)
        except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
            raise error(f"{name} must be real numbers, got a ragged nested sequence") from None
        for x in np.asarray(values, dtype=object).ravel().tolist():
            if not real_number(x):
                raise error(f"{name} must be real numbers, got {x!r}")
            if isinstance(x, numbers.Rational) and math.isinf(_as_float(x)):
                raise error(f"{name} must be finite, got {shown(x)}")
    return np.asarray(values, dtype=float)


def real_in(value, name: str, low: float, high: float, rule: str, error=ValueError) -> float:
    """``value`` as a float if that is in [low, high], else ``error`` naming it and the rule.

    Only the float is compared: a float16 would cast the bounds to its own type.
    """
    x = _as_float(value)
    if not low <= x <= high:
        raise error(f"{name} must be {rule}, got {shown(value)}")
    return x


def positive_finite(value, name: str) -> float:
    """``value`` as a float if that is > 0 and finite, else a ValueError naming it."""
    return real_in(value, name, TINY, FLOAT_MAX, "positive and finite")


def validate_integer(value, name: str, minimum=None, maximum=None) -> int:
    """``value`` as an int (numpy integers too) in [minimum, maximum], else a ValueError naming it.

    A bound of None is not checked.
    """
    try:
        if isinstance(value, (bool, np.bool_)):  # a flag, not a count
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and count > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return count


def one_of(value, choices: tuple, name: str, error=ValueError) -> str:
    """``value`` if it is a string in ``choices`` (by ==, never hashed), else ``error``."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class NamedModel:
    """A named covariance (2/tau) * pattern.

    ``inflection`` is the time, in units of tau, at which its corrected
    survival inflects.
    """

    name: str
    pattern: np.ndarray
    inflection: float

    def covariance(self, tau: float) -> np.ndarray:
        """The rate covariance for a decay time tau > 0 whose rate 2/tau is finite."""
        rate = 2.0 / positive_finite(tau, "tau")
        if rate == np.inf:
            raise ValueError(f"tau is too small: the rate 2/tau overflows, got {tau!r}")
        return rate * self.pattern


TOTALLY_CORRELATED = NamedModel("totally-correlated", np.ones((3, 3)), np.log(3.0) / 4)
UNCORRELATED = NamedModel("uncorrelated", np.eye(3), np.log(3.0) / 2)

#: Every accepted model name, in the order the command line offers them.
NAMED_MODELS = {
    "correlated": TOTALLY_CORRELATED,
    "totally-correlated": TOTALLY_CORRELATED,
    "uncorrelated": UNCORRELATED,
}


def named_model(name: str) -> NamedModel:
    """Look up a model by name or alias; any other name raises ValueError."""
    return NAMED_MODELS[one_of(name, tuple(NAMED_MODELS), "model")]
