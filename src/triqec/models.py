"""The named noise models: one table from each name to its closed forms.

A named covariance is 2/tau times a rate pattern: all-ones for one field
shared by the three spins ("totally-correlated", alias "correlated"), the
identity for independent, identically distributed fields ("uncorrelated").
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np


def survival_uncorrelated(tau: float, t):
    """Corrected survival (3 exp(-t/tau) - exp(-3t/tau)) / 2."""
    t = np.asarray(t, dtype=float) / tau
    out = 0.5 * (3 * np.exp(-t) - np.exp(-3 * t))
    return float(out) if out.ndim == 0 else out


def survival_correlated(tau: float, t):
    """Corrected survival (9 exp(-t/tau) - exp(-9t/tau)) / 8."""
    t = np.asarray(t, dtype=float) / tau
    out = 0.125 * (9 * np.exp(-t) - np.exp(-9 * t))
    return float(out) if out.ndim == 0 else out


def real_number(value) -> bool:
    """Whether ``value`` is one real number, numpy's and 0-d arrays included; a bool is not."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def plain(value):
    """A real number as a Python number: a rational (an int too) as it is, else a float.

    Range checks compare this against ``sys.float_info.max``: a numpy float16
    or float32 would cast that bound to its own type, which overflows.
    """
    return value if isinstance(value, numbers.Rational) else float(value)


def shown(value) -> str:
    """``repr(value)``, but an int beyond the float range shown as a float would be (1e+400)."""
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        from decimal import Context  # only here: importing it costs 1.5 ms

        return f"{Context(prec=17).create_decimal(value).normalize():e}"
    return repr(value)


def real_array(values, name: str, error=ValueError) -> np.ndarray:
    """``values`` as a float64 array if it holds real numbers, else ``error`` naming them.

    An int or float ndarray is taken as it is; any other input is scanned
    entry by entry, so a bool (a flag, not a number), a string, a complex
    number or None among floats is named, as is a ragged nested sequence
    and an int beyond the float range (shown as ``shown`` prints it).  The
    range of each entry is the caller's to check.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        try:
            np.asarray(values)
        except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
            raise error(f"{name} must be real numbers, got a ragged nested sequence") from None
        for x in np.asarray(values, dtype=object).ravel().tolist():
            if not real_number(x):
                raise error(f"{name} must be real numbers, got {x!r}")
            if isinstance(x, int) and not abs(x) <= sys.float_info.max:
                raise error(f"{name} must be finite, got {shown(x)}")
    return np.asarray(values, dtype=float)


def positive_finite(value, name: str) -> float:
    """``value`` as a float if it is a real number, finite and > 0, else a ValueError naming it."""
    if not (real_number(value) and 0 < plain(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be positive and finite, got {shown(value)}")
    return float(value)


@dataclass(frozen=True, eq=False)
class NamedModel:
    """A named covariance (2/tau) * pattern and its closed forms.

    ``closed_form(tau, t)`` is the corrected survival and ``inflection`` its
    inflection time in units of tau.
    """

    name: str
    pattern: np.ndarray
    closed_form: Callable
    inflection: float

    def covariance(self, tau: float) -> np.ndarray:
        """The rate covariance for a decay time tau > 0 whose rate 2/tau is finite."""
        rate = 2.0 / positive_finite(tau, "tau")
        if rate == np.inf:
            raise ValueError(f"tau is too small: the rate 2/tau overflows, got {tau!r}")
        return rate * self.pattern


TOTALLY_CORRELATED = NamedModel(
    "totally-correlated", np.ones((3, 3)), survival_correlated, np.log(3.0) / 4
)
UNCORRELATED = NamedModel("uncorrelated", np.eye(3), survival_uncorrelated, np.log(3.0) / 2)

#: Every accepted model name, in the order the command line offers them.
NAMED_MODELS = {
    "correlated": TOTALLY_CORRELATED,
    "totally-correlated": TOTALLY_CORRELATED,
    "uncorrelated": UNCORRELATED,
}


def named_model(name: str) -> NamedModel:
    """Look up a model by name or alias; unknown names raise ValueError."""
    if name not in NAMED_MODELS:
        raise ValueError(f"unknown model {name!r}")
    return NAMED_MODELS[name]
