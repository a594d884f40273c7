"""Energy bounds for designs and for separated codes from user-supplied
polynomials.

These are validators: each operation checks its certificate conditions
on the requested inner-product set and emits the linear-programming
value M*(f_0*M - f(1)).  A polynomial that fails a condition never
yields a bound; the failure carries the offending index or point.
"""

from dataclasses import dataclass

import numpy as np

from . import pmspace
from .errors import ConditionError, ParameterError
from .orthopoly import poly_eval
from .pmspace import SpaceDescriptor
from .potentials import Potential

_COEFF_TOL = 1e-9
_GRID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DesignEnergyQuery:
    """One bound query.

    ``subset`` restricts the inner products of the codes considered:
    an (lo, hi) interval inside [-1, 1), an explicit array of values,
    or None for all of T(M) below 1.  ``separation`` is required for
    direction "separated_upper" and ignored otherwise.
    """

    space: SpaceDescriptor
    tau: int
    M: int
    h: Potential
    f: np.ndarray  # Q-coefficients f_0..f_deg
    direction: str  # "lower" | "upper" | "separated_upper"
    subset: object = None
    separation: float | None = None

    def __post_init__(self):
        if self.direction not in ("lower", "upper", "separated_upper"):
            raise ParameterError(f"unknown direction {self.direction!r}")
        if self.M < 2:
            raise ParameterError("M must be >= 2")
        if self.direction == "separated_upper" and self.separation is None:
            raise ParameterError("separated_upper needs a separation value")


def _subset_grid(query: DesignEnergyQuery, upper: float | None = None) -> np.ndarray:
    """Concrete t-grid on which pointwise conditions are checked."""
    space = query.space
    sub = query.subset
    grid = pmspace.verification_grid(space)
    if isinstance(sub, tuple):
        lo, hi = sub
        if not (-1.0 <= lo <= hi < 1.0):
            raise ParameterError(f"subset interval ({lo}, {hi}) must sit inside [-1, 1)")
        if space.is_finite:
            grid = grid[(grid >= lo - 1e-12) & (grid <= hi + 1e-12)]
        else:
            grid = np.linspace(lo, hi, 2000)
    elif sub is not None:
        grid = np.asarray(sub, dtype=float)
        if grid.size == 0 or grid.min() < -1.0 or grid.max() >= 1.0:
            raise ParameterError("explicit subset must lie inside [-1, 1)")
    if upper is not None:
        grid = grid[grid < upper]
    return grid


def _lp_value(query: DesignEnergyQuery) -> float:
    # f_0 is the constant Q-coefficient, f(1) the sum of all of them
    c = query.f
    return query.M * (float(c[0]) * query.M - float(np.sum(c)))


def _pointwise(query, grid, want_below: bool, label: str):
    fv = np.asarray(poly_eval(query.space, query.f, grid), dtype=float)
    hv = np.asarray(query.h(grid), dtype=float)
    gap = (hv - fv) if want_below else (fv - hv)
    tol = _GRID_TOL * (1.0 + np.abs(hv))
    bad = np.nonzero(gap < -tol)[0]
    if bad.size:
        i = int(bad[0])
        raise ConditionError(
            f"condition {label} fails at t={grid[i]:.12g}"
            f" (f={fv[i]:.12g}, h={hv[i]:.12g})",
            where=float(grid[i]),
        )


def _coefficient_sign(query, start: int, want_nonneg: bool, label: str):
    qc = query.f
    scale = max(1.0, float(np.max(np.abs(qc))))
    for i in range(start, len(qc)):
        c = qc[i]
        bad = c < -_COEFF_TOL * scale if want_nonneg else c > _COEFF_TOL * scale
        if bad:
            raise ConditionError(
                f"condition {label} fails at coefficient index {i} (value {c:.6g})",
                where=i,
            )


def design_lower_bound(query: DesignEnergyQuery) -> float:
    """Lower bound on the energy of M-point designs of strength tau.

    Needs f <= h on the inner-product set and nonnegative expansion
    coefficients above index tau.
    """
    if query.direction != "lower":
        raise ParameterError("query direction must be 'lower'")
    _pointwise(query, _subset_grid(query), want_below=True, label="(D1) f<=h")
    _coefficient_sign(query, query.tau + 1, True, "(D2) f_i>=0 for i>tau")
    return _lp_value(query)


def design_upper_bound(query: DesignEnergyQuery) -> float:
    """Upper bound on the energy of M-point designs of strength tau.

    Mirror image: g >= h pointwise, nonpositive coefficients above tau.
    """
    if query.direction != "upper":
        raise ParameterError("query direction must be 'upper'")
    _pointwise(query, _subset_grid(query), want_below=False, label="(E1) g>=h")
    _coefficient_sign(query, query.tau + 1, False, "(E2) g_i<=0 for i>tau")
    return _lp_value(query)


def separated_upper_bound(query: DesignEnergyQuery) -> float:
    """Upper bound on the energy of M-point codes with separation s.

    Needs f >= h on T(M) below s and nonpositive coefficients at every
    index from 1 up (the strictest reading of the index range).
    """
    if query.direction != "separated_upper":
        raise ParameterError("query direction must be 'separated_upper'")
    grid = _subset_grid(query, upper=query.separation)
    _pointwise(query, grid, want_below=False, label="(F1) f>=h below s")
    _coefficient_sign(query, 1, False, "(F2) f_i<=0 for i>=1")
    return _lp_value(query)
