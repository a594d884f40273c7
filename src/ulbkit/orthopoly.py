"""Adjacent orthogonal systems, Christoffel-Darboux kernels, and expansions.

For a space with orthogonality measure nu, the (a,b)-adjacent system
consists of the polynomials orthogonal under the extra weight
(1-t)^a (1+t)^b, normalized so that each polynomial equals 1 at t=1.
The base system is (a,b) = (0,0).  Every polynomial ulbkit computes is
held as a float array of its coefficients f_0..f_deg in the base system
(the Q-basis).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _recurrence as rec
from . import pmspace
from .errors import DegreeOverflowError, ParameterError
from .pmspace import SpaceDescriptor

# An infinite space has no degree cap: its systems are built to the degree
# a caller needs, rounded up to whole blocks so nearby needs share a system.
_BLOCK = 16


@dataclass(frozen=True, eq=False)
class OrthoSystem:
    """An (a,b)-adjacent system given by its monic recurrence.

    ``rec_beta``/``rec_gamma`` follow the convention of
    :mod:`ulbkit._recurrence`; ``norms`` holds the constants r_i^{a,b}
    from the orthogonality relation, and ``c_norm`` the normalization
    constant of the weighted measure.
    """

    space: SpaceDescriptor
    a: int
    b: int
    max_deg: int
    rec_beta: np.ndarray
    rec_gamma: np.ndarray
    value_at_one: np.ndarray
    norms: np.ndarray
    c_norm: float


def adjacent_system(space: SpaceDescriptor, a: int, b: int, deg: int = 0) -> OrthoSystem:
    """The (a,b)-adjacent system of a space, carrying at least degree deg.

    A finite space's system runs to the cap of its (weighted) measure;
    an infinite space's to the first multiple of 16 above deg.  Either
    stops earlier at the last degree whose monic value at t=1 is a
    normal float.  Systems are cached.

    Raises
    ------
    DegreeOverflowError
        If deg exceeds the cap of a finite space's (weighted) measure, or
        the last degree whose monic value at t=1 is a normal float.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ParameterError(f"adjacent exponents must be 0 or 1, got ({a}, {b})")
    system = _build_system(space, a, b, None if space.is_finite else _BLOCK * (1 + deg // _BLOCK))
    _check(system, deg)
    return system


@lru_cache(maxsize=None)
def _build_system(space: SpaceDescriptor, a: int, b: int, max_deg: int | None) -> OrthoSystem:
    if space.is_finite:
        t, mass = pmspace.t_grid(space)
        wts = mass * (1.0 - t) ** a * (1.0 + t) ** b
        keep = wts > 0
        t, wts = t[keep], wts[keep]
        max_deg = len(t) - 1
        beta, gamma = rec.stieltjes(t, wts, max_deg + 1)
    else:
        alpha0, beta0 = space.jacobi_exponents()
        beta, gamma = rec.jacobi_monic(alpha0 + a, beta0 + b, max_deg + 1)
        # gamma[0] is the raw Jacobi mass; relative to the unit mass of the
        # base measure nu it is a ratio of Beta functions, rational in the
        # exponents, which exp(lgamma) sums would give only to ~1e-13 at
        # large alpha0.  The rule weights are proportional to it.
        ab = alpha0 + beta0
        gamma[0] = (2 * (alpha0 + 1) / (ab + 2)) ** a * (2 * (beta0 + 1) / (ab + 2 + a)) ** b
    value_at_one = rec.eval_all(beta, gamma, max_deg, np.array(1.0))
    # Q_i = pi_i / pi_i(1) and r_i need pi_i(1) to full precision: a system
    # stops at the last degree where it is a normal float (S^2 (0,0): 1027;
    # the monic values at 1 fall like 2^-i and are 0 from 1080 on).
    normal = np.isfinite(value_at_one) & (np.abs(value_at_one) >= np.finfo(float).tiny)
    if not normal.all():
        max_deg = int(np.argmin(normal)) - 1
        head = slice(0, max_deg + 1)
        beta, gamma, value_at_one = beta[head], gamma[head], value_at_one[head]
    c_norm = 1.0 / gamma[0]
    # r_i = value_at_one_i^2 / (c_norm * gamma_0 ... gamma_i).  On long
    # systems the square and the product both leave the normal float range
    # (S^2 from degree ~520), so mantissas and binary exponents are carried
    # apart; scaling by a power of two is exact, so nothing changes where
    # they stay normal.
    mant, expo = np.frexp(value_at_one)
    prod_mant = np.empty(max_deg + 1)
    prod_expo = np.empty(max_deg + 1, dtype=int)
    m, e = 1.0, 0
    for i, g in enumerate(gamma.tolist()):
        m, de = math.frexp(m * g)
        e += de
        prod_mant[i], prod_expo[i] = m, e
    norms = np.ldexp(mant**2 / (c_norm * prod_mant), 2 * expo - prod_expo)
    for arr in (beta, gamma, value_at_one, norms):
        arr.flags.writeable = False  # shared by every caller through the cache
    return OrthoSystem(space, a, b, max_deg, beta, gamma, value_at_one, norms, c_norm)


# hit and miss counts of the system cache
adjacent_system.cache_info = _build_system.cache_info


def eval_q_all(system: OrthoSystem, deg: int, t):
    """Values of Q_0..Q_deg at t, shape (deg+1,) + shape(t)."""
    _check(system, deg)
    vals = rec.eval_all(system.rec_beta, system.rec_gamma, deg, np.asarray(t, dtype=float))
    shape = (deg + 1,) + (1,) * (vals.ndim - 1)
    return vals / system.value_at_one[: deg + 1].reshape(shape)


def eval_q_derivatives(system: OrthoSystem, deg: int, order: int, t):
    """Derivatives of orders 0..order of Q_0..Q_deg at t, shape (deg+1, order+1) + shape(t)."""
    _check(system, deg)
    vals = rec.eval_derivatives(system.rec_beta, system.rec_gamma, deg, order, t)
    shape = (deg + 1,) + (1,) * (vals.ndim - 1)
    return vals / system.value_at_one[: deg + 1].reshape(shape)


def zeros_of(system: OrthoSystem, i: int):
    """All zeros of Q_i^{a,b}, ascending."""
    _check(system, i)
    if i < 1:
        raise ParameterError("zeros are defined for degree >= 1")
    return rec.jacobi_zeros(system.rec_beta, system.rec_gamma, i)


def largest_zero(system: OrthoSystem, i: int) -> float:
    """Largest zero t_i^{a,b} of Q_i^{a,b}."""
    return float(zeros_of(system, i)[-1])


def cd_kernel(space: SpaceDescriptor, a: int, b: int, j: int, u, v):
    """Christoffel-Darboux kernel sum_{i<=j} r_i^{a,b} Q_i^{a,b}(u) Q_i^{a,b}(v)."""
    system = adjacent_system(space, a, b, j)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    qu = eval_q_all(system, j, np.broadcast_to(u, shape))
    qv = eval_q_all(system, j, np.broadcast_to(v, shape))
    r = system.norms[: j + 1].reshape((j + 1,) + (1,) * len(shape))
    out = np.sum(r * qu * qv, axis=0)
    return float(out) if out.shape == () else out


def poly_eval(space: SpaceDescriptor, coeffs, t):
    """Value at t of f = sum_i f_i Q_i, given its Q-coefficients f_0..f_deg."""
    coeffs = np.asarray(coeffs, dtype=float)
    deg = len(coeffs) - 1
    vals = eval_q_all(adjacent_system(space, 0, 0, deg), deg, t)
    out = np.tensordot(coeffs, vals, axes=(0, 0))
    return float(out) if np.ndim(t) == 0 else out


def expand_in_q(space: SpaceDescriptor, monomial) -> np.ndarray:
    """Q-coefficients f_i of f = sum_i f_i Q_i, given f's monomial coefficients, ascending."""
    monomial = np.asarray(monomial, dtype=float)
    return _project(space, lambda x: npoly.polyval(x, monomial), len(monomial) - 1)


def _project(space: SpaceDescriptor, fn, deg: int) -> np.ndarray:
    """Q-coefficients of the polynomial fn, of degree at most deg.

    f_i = r_i * integral(f * Q_i dnu), by the measure rule exact to
    degree 2*deg.  ``fn`` maps an array of t-values to f(t).
    """
    cap = space.max_degree
    if cap is not None and deg > cap:
        raise DegreeOverflowError(
            f"cannot expand degree {deg} in {space.label()} (cap {cap})"
        )
    x, wts = pmspace.measure_rule(space, 2 * deg)
    system = adjacent_system(space, 0, 0, deg)
    qx = eval_q_all(system, deg, x)
    return system.norms[: deg + 1] * (qx @ (wts * fn(x)))


def _check(system: OrthoSystem, i: int):
    if i < 0:
        raise ParameterError("degree must be nonnegative")
    if i > system.max_deg:
        raise DegreeOverflowError(
            f"degree {i} exceeds the ({system.a},{system.b})-system cap "
            f"{system.max_deg} of {system.space.label()}"
        )
