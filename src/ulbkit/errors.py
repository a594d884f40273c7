"""Exception types shared across the library, and the parameter-name check."""

import numpy as np


class UlbkitError(Exception):
    """Base class for all ulbkit errors."""


class ParameterError(UlbkitError, ValueError):
    """Invalid space, potential, or query parameters."""


def check_parameter_names(what: str, params, names):
    """Raise ParameterError unless the names of params are exactly names."""
    missing, extras = sorted(set(names) - set(params)), sorted(set(params) - set(names))
    if missing:
        raise ParameterError(f"{what} needs parameters {missing}")
    if extras:
        raise ParameterError(f"{what} takes no parameters {extras}")


def integer(what: str, name: str, value) -> int:
    """value as an int; ParameterError unless it equals an integer and is not a bool."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"{what} needs an integer {name}, got {value!r}")
    return int(value)


class DegreeOverflowError(UlbkitError):
    """A degree past a space's cap or past the end of a system (the ceiling 2048, or
    norms past the float range), an empty system, or an M or s past the last level."""


class DomainError(UlbkitError, ValueError):
    """Evaluation outside a function's domain (e.g. a singular potential at t=1)."""


class ConvergenceError(UlbkitError):
    """A quadrature rule failed one of its checks in :mod:`ulbkit.levenshtein`, or the
    eta search of an improvement in :mod:`ulbkit.ulb` found no admissible eta."""


class MonotonicityError(UlbkitError):
    """A potential failed a required absolute-monotonicity check."""


class ConditionError(UlbkitError):
    """A bound-certificate condition failed.

    ``where`` carries the failing coefficient index or grid point.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where
