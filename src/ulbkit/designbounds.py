"""Energy bounds for designs and for separated codes from user-supplied
polynomials.

These are validators: each operation checks its certificate conditions
on the requested inner-product set and emits the linear-programming
value M*(f_0*M - f(1)) (:func:`ulbkit.orthopoly.lp_value`).  A polynomial
that fails a condition never yields a bound; the failure carries the
offending index or point.

Each takes the space, the cardinality M >= 2, the potential h and the
candidate's Q-coefficients f = (f_0..f_deg).  ``subset`` restricts the
inner products of the codes considered: an (lo, hi) interval inside
[-1, 1), an explicit array of values, or None for all of T(M) below 1.
"""

import numpy as np

from . import pmspace
from .errors import ConditionError, ParameterError
from .orthopoly import lp_value, poly_eval
from .pmspace import SpaceDescriptor
from .potentials import Potential

_COEFF_TOL = 1e-9
_GRID_TOL = 1e-9
# slack around the ends of a cut on a finite space's grid
_PAD = 1e-12


def _check(M: int, tau: int = 0, s: float = -1.0):
    """Refuse inputs no bound is stated for."""
    if M < 2:
        raise ParameterError("M must be >= 2")
    if tau < 0:
        raise ParameterError(f"design strength tau must be >= 0, got {tau}")
    if not -1.0 <= s < 1.0:
        raise ParameterError(f"separation s must lie in [-1, 1), got {s}")


def _subset_grid(space: SpaceDescriptor, subset, s: float | None = None) -> np.ndarray:
    """Concrete t-grid on which pointwise conditions are checked, cut to t <= s if s is given."""
    grid = pmspace.verification_grid(space)
    lo, hi = -1.0, 1.0
    if isinstance(subset, tuple):
        lo, hi = subset
        if not (-1.0 <= lo <= hi < 1.0):
            raise ParameterError(f"subset interval ({lo}, {hi}) must sit inside [-1, 1)")
        if space.is_finite:
            grid = grid[(grid >= lo - _PAD) & (grid <= hi + _PAD)]
        else:
            grid = np.linspace(lo, hi, 2000)
    elif subset is not None:
        grid = np.asarray(subset, dtype=float)
        if grid.size == 0 or grid.min() < -1.0 or grid.max() >= 1.0:
            raise ParameterError("explicit subset must lie inside [-1, 1)")
        return grid if s is None else grid[grid <= s]
    if s is None:
        return grid
    if space.is_finite:
        return grid[grid <= s + _PAD]
    # a sampled interval: s itself is checked when the set reaches it
    return np.append(grid[grid < s], s) if lo <= s <= hi else grid[grid < s]


def _pointwise(space, h, f, grid, want_below: bool, label: str):
    fv = np.asarray(poly_eval(space, f, grid), dtype=float)
    hv = np.asarray(h(grid), dtype=float)
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


def _coefficient_sign(f, start: int, want_nonneg: bool, label: str):
    scale = max(1.0, float(np.max(np.abs(f))))
    for i in range(start, len(f)):
        c = f[i]
        bad = c < -_COEFF_TOL * scale if want_nonneg else c > _COEFF_TOL * scale
        if bad:
            raise ConditionError(
                f"condition {label} fails at coefficient index {i} (value {c:.6g})",
                where=i,
            )


def design_lower_bound(
    space: SpaceDescriptor, tau: int, M: int, h: Potential, f, subset=None
) -> float:
    """Lower bound on the energy of M-point designs of strength tau >= 0.

    Needs f <= h on the inner-product set and nonnegative expansion
    coefficients above index tau.
    """
    _check(M, tau=tau)
    _pointwise(space, h, f, _subset_grid(space, subset), want_below=True, label="(D1) f<=h")
    _coefficient_sign(f, tau + 1, True, "(D2) f_i>=0 for i>tau")
    return lp_value(f, M)


def design_upper_bound(
    space: SpaceDescriptor, tau: int, M: int, h: Potential, f, subset=None
) -> float:
    """Upper bound on the energy of M-point designs of strength tau >= 0.

    Mirror image: f >= h pointwise, nonpositive coefficients above tau.
    """
    _check(M, tau=tau)
    _pointwise(space, h, f, _subset_grid(space, subset), want_below=False, label="(E1) g>=h")
    _coefficient_sign(f, tau + 1, False, "(E2) g_i<=0 for i>tau")
    return lp_value(f, M)


def separated_upper_bound(
    space: SpaceDescriptor, M: int, h: Potential, f, s: float, subset=None
) -> float:
    """Upper bound on the energy of M-point codes with separation s in [-1, 1).

    Needs f >= h on the inner-product set within [-1, s], s included,
    and nonpositive coefficients at every index from 1 up (the strictest
    reading of the index range).
    """
    _check(M, s=s)
    grid = _subset_grid(space, subset, s)
    _pointwise(space, h, f, grid, want_below=False, label="(F1) f>=h below s")
    _coefficient_sign(f, 1, False, "(F2) f_i<=0 for i>=1")
    return lp_value(f, M)
