"""Energy bounds for designs and for separated codes from user-supplied
polynomials.

These are validators: each operation checks its certificate conditions
on the requested inner-product set with the code of
:func:`ulbkit.ulb.verify_certificate` (an upper bound's are a lower
bound's for -f and -h) and emits the linear-programming value
M*(f_0*M - f(1)) (:func:`ulbkit.orthopoly.lp_value`).  A polynomial that
fails a condition never yields a bound; the failure carries the first
coefficient index of the wrong sign, or the point where f is furthest past h.

Each takes the space, the cardinality M >= 2, the potential h and the
candidate's finite Q-coefficients f = (f_0..f_deg).  ``subset`` restricts
the inner products of the codes considered: an (lo, hi) interval inside
[-1, 1), an explicit array of values, or None for all of T(M) below 1.
"""

import numpy as np

from . import pmspace
from .errors import ConditionError, ParameterError, integer
from .orthopoly import lp_value
from .pmspace import SpaceDescriptor
from .potentials import Potential
from .ulb import _conditions, _values

_COEFF_TOL = 1e-9
# slack around the ends of a cut on a finite space's grid
_PAD = 1e-12


def _subset_grid(space: SpaceDescriptor, subset, s: float | None = None):
    """Points where pointwise conditions are checked, cut to t <= s if s is given; None for T(M)."""
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
        # NaN fails both comparisons, so a non-finite entry is refused too
        if grid.size == 0 or not ((grid >= -1.0) & (grid < 1.0)).all():
            raise ParameterError("explicit subset must lie inside [-1, 1)")
        return grid if s is None else grid[grid <= s]
    if s is None:
        return None if subset is None else grid
    if space.is_finite:
        return grid[grid <= s + _PAD]
    # a sampled interval: s itself is checked when the set reaches it
    return np.append(grid[grid < s], s) if lo <= s <= hi else grid[grid < s]


def _bound(space, M, h, f, subset, side, pointwise, sign, tau=0, s=None):
    """M*(f_0*M - f(1)), once side * f <= side * h and side * f_i >= 0 for i > tau.

    side 1 gives a lower bound's conditions, side -1 an upper bound's;
    the pointwise one holds on the subset, cut to t <= s if s is given.
    """
    M, tau = integer("designbounds", "M", M), integer("designbounds", "tau", tau)
    if M < 2:
        raise ParameterError("M must be >= 2")
    if tau < 0:
        raise ParameterError(f"design strength tau must be >= 0, got {tau}")
    if s is not None and not -1.0 <= s < 1.0:
        raise ParameterError(f"separation s must lie in [-1, 1), got {s}")
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or not np.isfinite(f).all():
        raise ParameterError("f must be a list of finite Q-coefficients")
    t = _subset_grid(space, subset, s)
    if t is not None and not t.size:
        raise ParameterError("no inner product of the subset is left to check")
    t, fv, hv, tol = _values(space, f, h, t)
    coeff_tol = _COEFF_TOL * max(1.0, float(np.abs(f).max()))
    below, worst, _, _, bad = _conditions(side * f, side * fv, side * hv, tol, tau + 1, coeff_tol)
    if not below:
        raise ConditionError(
            f"condition {pointwise} fails at t={t[worst]:.12g}"
            f" (f={fv[worst]:.12g}, h={hv[worst]:.12g})",
            where=float(t[worst]),
        )
    if bad is not None:
        raise ConditionError(
            f"condition {sign} fails at coefficient index {bad} (value {f[bad]:.6g})", where=bad
        )
    return lp_value(f, M)


def design_lower_bound(
    space: SpaceDescriptor, tau: int, M: int, h: Potential, f, subset=None
) -> float:
    """Lower bound on the energy of M-point designs of strength tau >= 0.

    Needs f <= h on the inner-product set and nonnegative expansion
    coefficients above index tau.
    """
    return _bound(space, M, h, f, subset, 1, "(D1) f<=h", "(D2) f_i>=0 for i>tau", tau=tau)


def design_upper_bound(
    space: SpaceDescriptor, tau: int, M: int, h: Potential, f, subset=None
) -> float:
    """Upper bound on the energy of M-point designs of strength tau >= 0.

    Mirror image: f >= h pointwise, nonpositive coefficients above tau.
    """
    return _bound(space, M, h, f, subset, -1, "(E1) g>=h", "(E2) g_i<=0 for i>tau", tau=tau)


def separated_upper_bound(
    space: SpaceDescriptor, M: int, h: Potential, f, s: float, subset=None
) -> float:
    """Upper bound on the energy of M-point codes with separation s in [-1, 1).

    Needs f >= h on the inner-product set within [-1, s], s included,
    and nonpositive coefficients at every index from 1 up (the strictest
    reading of the index range).
    """
    return _bound(space, M, h, f, subset, -1, "(F1) f>=h below s", "(F2) f_i<=0 for i>=1", s=s)
