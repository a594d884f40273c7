"""Potential functions h(t) on [-1, 1) with derivatives of all orders.

The built-in families are absolutely monotone (all derivatives
nonnegative) except for the logarithmic kernel, whose value dips below
zero near t = -1; an explicit checker reports the first violation.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError, check_parameter_names, integer


@dataclass(frozen=True)
class Potential:
    """An evaluable potential with closed-form derivatives.

    ``deriv(t, j)`` returns the j-th derivative (j=0 is the value).
    ``_memo`` is what bounds with this instance share, whatever the space
    and M (see :mod:`ulbkit.ulb`); it takes no part in construction,
    comparison or repr, and ``dataclasses.replace`` starts a fresh one.
    """

    name: str
    params: dict = field(default_factory=dict)
    singular_at_one: bool = False
    _deriv: Callable = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, t):
        return self.deriv(t, 0)

    def deriv(self, t, order: int = 0):
        if order < 0:
            raise ParameterError("derivative order must be nonnegative")
        t = np.asarray(t, dtype=float)
        # fmax skips NaN, and the initial value answers an empty t
        if self.singular_at_one and np.fmax.reduce(t, axis=None, initial=-np.inf) >= 1.0:
            raise DomainError(f"{self.name} potential is singular at t=1; got t >= 1")
        out = self._deriv(t, order)
        return float(out) if out.shape == () else out

    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params.items())
        return f"{self.name}({inner})" if inner else self.name


# the parameters each built-in potential takes
_PARAMETERS = {
    "riesz": {"p"}, "gaussian": {"c"}, "log": set(), "monomial": {"j"}, "series": {"coeffs"},
}


def builtin(name: str, **params) -> Potential:
    """Construct a built-in potential.

    Parameters
    ----------
    name : str
        One of:

        - ``riesz`` (finite power p > 0): h(t) = (2 - 2t)^(-p/2), the p-Riesz
          kernel of Euclidean distance on the sphere;
        - ``gaussian`` (finite c > 0): h(t) = exp(c*t);
        - ``log``: h(t) = -log(2 - 2t)/2;
        - ``monomial`` (integer j >= 0): h(t) = (1 + t)^j;
        - ``series`` (coeffs, all finite and >= 0): h(t) = sum_j c_j (1 + t)^j.

    Raises
    ------
    ParameterError
        For an unknown name, or a parameter that is missing, invalid or
        not taken by the potential.
    """
    if name not in _PARAMETERS:
        raise ParameterError(f"unknown potential {name!r}")
    check_parameter_names(f"{name} potential", params, _PARAMETERS[name])
    if name == "riesz":
        p = float(params["p"])
        if not 0 < p < math.inf:
            raise ParameterError(f"riesz potential needs a finite p > 0, got {p}")

        def deriv(t, j):
            # h^(j) = 2^j (p/2)_j (2-2t)^(-p/2-j)
            if j < 2:
                power = (2.0 - 2.0 * t) ** (-p / 2.0 - j)
                return p * power if j else power
            # in logs: from order ~537 the coefficient alone overflows and
            # the power alone underflows at t = -1, and inf * 0 is nan; past
            # the float range the value is +inf, silently as a float product
            log_coef = j * math.log(2.0) + math.lgamma(p / 2.0 + j) - math.lgamma(p / 2.0)
            with np.errstate(over="ignore"):
                return np.exp(log_coef - (p / 2.0 + j) * np.log(2.0 - 2.0 * t))

        return Potential("riesz", {"p": p}, singular_at_one=True, _deriv=deriv)

    if name == "gaussian":
        c = float(params["c"])
        if not 0 < c < math.inf:
            raise ParameterError(f"gaussian potential needs a finite c > 0, got {c}")

        def deriv(t, j):
            # a numpy power overflows to inf where a float power raises:
            # past the float range c^j, or its product with exp(c t), is
            # +inf, silently as a Riesz derivative is
            with np.errstate(over="ignore"):
                return np.float64(c) ** j * np.exp(c * t)

        return Potential("gaussian", {"c": c}, _deriv=deriv)

    if name == "log":

        def deriv(t, j):
            if j == 0:
                return -0.5 * np.log(2.0 - 2.0 * t)
            return _float(math.factorial(j - 1) << (j - 1)) * (2.0 - 2.0 * t) ** (-j)

        return Potential("log", {}, singular_at_one=True, _deriv=deriv)

    if name == "monomial":
        jpow = integer("monomial potential", "j", params["j"])
        if jpow < 0:
            raise ParameterError("monomial potential needs an integer j >= 0")
        return _series("monomial", {"j": jpow}, {jpow: 1.0})

    # series, the last name left
    coeffs = np.asarray(params["coeffs"], dtype=float)
    if coeffs.size == 0 or not np.all((coeffs >= 0) & (coeffs < math.inf)):
        raise ParameterError("series potential needs finite nonnegative coefficients")
    terms = {jpow: c for jpow, c in enumerate(coeffs.tolist()) if c}
    return _series("series", {"coeffs": tuple(coeffs)}, terms)


def _series(name: str, params: dict, terms: dict) -> Potential:
    """The potential sum_j c_j (1 + t)^j, given its nonzero terms {j: c_j}."""

    def deriv(t, j):
        out = np.zeros_like(t)
        for jpow, c in terms.items():
            if j <= jpow:
                out = out + c * _float(math.perm(jpow, j)) * (1.0 + t) ** (jpow - j)
        return out

    return Potential(name, params, _deriv=deriv)


def _float(n: int) -> float:
    """n as a float, or inf past the float range."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


# where check_absolutely_monotone samples; read-only
_MONOTONE_GRID = np.linspace(-1.0, 1.0 - 1e-4, 201)
_MONOTONE_GRID.flags.writeable = False


def check_absolutely_monotone(h: Potential, max_order: int):
    """Check h^(i)(t) >= 0 for i = 0..max_order on 201 points of [-1, 1 - 1e-4].

    An improvement's step needs no sampling: h - eta*Q_j stays absolutely
    monotone to order j+1 exactly up to eta = min h^(m)(-1)/Q_j^(m)(-1)
    over the m <= j with Q_j^(m)(-1) > 0 (see :func:`ulbkit.ulb._admissible_eta`).

    Returns
    -------
    ok : bool
    violation : tuple or None
        First (order, t, value) with value < -1e-12 or nan, scanned in
        order.  +inf passes: a derivative that outgrows double precision
        is still positive.
    """
    # high orders overflow to inf, and inf*0 gives nan: the check decides
    # both below, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(max_order + 1):
            vals = np.asarray(h.deriv(_MONOTONE_GRID, order))
            bad = np.nonzero(~(vals >= -1e-12))[0]
            if bad.size:
                i = int(bad[0])
                return False, (order, float(_MONOTONE_GRID[i]), float(vals[i]))
    return True, None
