"""Adjacent orthogonal systems, Christoffel-Darboux kernels, and expansions.

For a space with orthogonality measure nu, the (a,b)-adjacent system
consists of the polynomials orthogonal under the extra weight
(1-t)^a (1+t)^b, normalized so that each polynomial equals 1 at t=1.
The base system is (a,b) = (0,0).  Every polynomial ulbkit computes is
held by its coefficients in the base system (the Q-basis).
"""

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
    an infinite space's to the first multiple of 16 above deg.  Systems
    are cached.

    Raises
    ------
    DegreeOverflowError
        If deg exceeds the cap of a finite space's (weighted) measure.
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
    norms_sq = np.cumprod(gamma)
    c_norm = 1.0 / gamma[0]
    norms = value_at_one**2 / (c_norm * norms_sq)
    return OrthoSystem(
        space, a, b, max_deg, beta, gamma, np.asarray(value_at_one), norms, c_norm
    )


# hit and miss counts of the system cache
adjacent_system.cache_info = _build_system.cache_info


def eval_q(system: OrthoSystem, i: int, t):
    """Q_i^{a,b}(t), normalized so Q_i^{a,b}(1) = 1."""
    _check(system, i)
    return rec.eval_one(system.rec_beta, system.rec_gamma, i, t) / system.value_at_one[i]


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


@dataclass(frozen=True, eq=False)
class PolyCoeffs:
    """Polynomial coefficients, ascending, in the monomial or Q basis.

    ulbkit returns Q-basis polynomials; monomial coefficients are an
    input format, converted by :func:`expand_in_q`.
    """

    coeffs: np.ndarray
    basis: str = "monomial"  # "monomial" | "q"

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        scale = np.max(np.abs(c)) if c.size else 0.0
        if scale > 0:
            nz = np.nonzero(np.abs(c) > 1e-14 * scale)[0]
            c = c[: nz[-1] + 1] if nz.size else c[:1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_eval(space: SpaceDescriptor, poly: PolyCoeffs, t):
    """Evaluate a polynomial in either basis."""
    if poly.basis == "monomial":
        out = npoly.polyval(np.asarray(t, dtype=float), poly.coeffs)
        return float(out) if np.ndim(t) == 0 else out
    system = adjacent_system(space, 0, 0, poly.degree)
    vals = eval_q_all(system, poly.degree, t)
    out = np.tensordot(poly.coeffs, vals, axes=(0, 0))
    return float(out) if np.ndim(t) == 0 else out


def expand_in_q(space: SpaceDescriptor, poly: PolyCoeffs) -> PolyCoeffs:
    """Coefficients f_i of f = sum_i f_i Q_i in the base system."""
    if poly.basis == "q":
        return poly
    return _project(space, lambda x: npoly.polyval(x, poly.coeffs), poly.degree)


def _project(space: SpaceDescriptor, fn, deg: int) -> PolyCoeffs:
    """Q-basis coefficients of the polynomial fn, of degree at most deg.

    f_i = r_i * integral(f * Q_i dnu): the discrete sum over the grid of
    a finite space, the (deg+1)-point Gauss rule (exact to degree
    2*deg+1) otherwise.  ``fn`` maps an array of t-values to f(t).
    """
    cap = space.max_degree
    if cap is not None and deg > cap:
        raise DegreeOverflowError(
            f"cannot expand degree {deg} in {space.label()} (cap {cap})"
        )
    if space.is_finite:
        x, wts = pmspace.t_grid(space)
    else:
        x, wts = pmspace.gauss_rule(space, deg + 1)
    system = adjacent_system(space, 0, 0, deg)
    qx = eval_q_all(system, deg, x)
    return PolyCoeffs(system.norms[: deg + 1] * (qx @ (wts * fn(x))), "q")


def _check(system: OrthoSystem, i: int):
    if i < 0:
        raise ParameterError("degree must be nonnegative")
    if i > system.max_deg:
        raise DegreeOverflowError(
            f"degree {i} exceeds the ({system.a},{system.b})-system cap "
            f"{system.max_deg} of {system.space.label()}"
        )
