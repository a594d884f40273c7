"""Adjacent orthogonal systems, Christoffel-Darboux kernels, and expansions.

For a space with orthogonality measure nu, the (a,b)-adjacent system
consists of the polynomials orthogonal under the extra weight
(1-t)^a (1+t)^b, normalized so that each polynomial equals 1 at t=1.
The base system is (a,b) = (0,0).  Every polynomial ulbkit computes is
held as a float array of its coefficients f_0..f_deg in the base system
(the Q-basis).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _recurrence as rec
from . import pmspace
from .errors import DegreeOverflowError, ParameterError
from .pmspace import SpaceDescriptor

# Every system is built to the degree a caller needs, rounded up to
# 16 * 2^j, so growing one to degree d builds about log2(d/16) systems,
# not d/16; each is a bit-identical prefix of the next.
_BLOCK = 16
# No system goes past this whole block 16 * 2^7, so that every level map
# ends (S^2's at tau 4097); a grid table takes 16 kB per degree, 32 MB here.
_MAX_DEGREE = 2048
# space -> read-only values of Q_0..Q_d on the space's verification grid,
# one table per space at the largest degree d asked for so far
_GRID_TABLES = {}


@dataclass(frozen=True, eq=False)
class OrthoSystem:
    """An (a,b)-adjacent system given by its monic recurrence.

    ``rec_beta``/``rec_gamma`` and ``value_at_one`` (P_i(1)) follow the
    convention of :mod:`ulbkit._recurrence`; ``norms`` holds the constants
    r_i^{a,b} from the orthogonality relation.  ``beta_floats`` and
    ``gamma_floats`` hold the recurrence coefficients as tuples of Python
    floats, made once, for the recurrence at one point.
    """

    space: SpaceDescriptor
    a: int
    b: int
    max_deg: int
    rec_beta: np.ndarray
    rec_gamma: np.ndarray
    value_at_one: np.ndarray
    norms: np.ndarray
    beta_floats: tuple
    gamma_floats: tuple


def adjacent_system(space: SpaceDescriptor, a: int, b: int, deg: int = 0) -> OrthoSystem:
    """The (a,b)-adjacent system of a space, carrying at least degree deg.

    Every system is built to the first 16 * 2^j above deg, up to
    ``_MAX_DEGREE``.  It ends earlier at the last degree whose r_i is a
    normal float, and a finite space's where the Stieltjes procedure
    ends.  Systems are cached.

    Raises
    ------
    DegreeOverflowError
        If deg lies past the end of the system.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ParameterError(f"adjacent exponents must be 0 or 1, got ({a}, {b})")
    system = _build_system(space, a, b, min(_BLOCK << (deg // _BLOCK).bit_length(), _MAX_DEGREE))
    _check(system, deg)
    return system


@lru_cache(maxsize=None)
def _build_system(space: SpaceDescriptor, a: int, b: int, max_deg: int) -> OrthoSystem:
    """The (a,b)-adjacent system to degree max_deg, or to where its floats end."""
    if space.is_finite:
        t, mass = pmspace.t_grid(space)
        wts = mass * (1.0 - t) ** a * (1.0 + t) ** b
        keep = wts > 0
        t, wts = t[keep], wts[keep]
        beta, gamma = rec.stieltjes(t, wts, min(max_deg, len(t) - 1) + 1)
        max_deg = len(beta) - 1
    else:
        alpha0, beta0 = space.jacobi_exponents()
        beta, gamma = rec.jacobi_monic(alpha0 + a, beta0 + b, max_deg + 1)
        # gamma[0] is the raw Jacobi mass; relative to the unit mass of the
        # base measure nu it is a ratio of Beta functions, rational in the
        # exponents, which exp(lgamma) sums would give only to ~1e-13 at
        # large alpha0.  The rule weights are proportional to it.
        ab = alpha0 + beta0
        gamma[0] = (2 * (alpha0 + 1) / (ab + 2)) ** a * (2 * (beta0 + 1) / (ab + 2 + a)) ** b
    beta_floats, gamma_floats = tuple(beta.tolist()), tuple(gamma.tolist())
    value_at_one = rec.eval_all(beta_floats, gamma_floats, max_deg, np.array(1.0))
    c_norm = 1.0 / gamma[0]
    # r_i = P_i(1)^2 / (c_norm ||P_i||^2), where ||P_i||^2 is gamma_0 times
    # the product of 4 gamma_j, j = 1..i.  The system ends at the last
    # degree whose r_i is a normal float (S^399: 686, S^999: 307); the
    # overflow past it is expected.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = value_at_one**2 / (c_norm * np.cumprod(np.append(gamma[0], 4.0 * gamma[1:])))
    normal = np.isfinite(norms) & (norms >= np.finfo(float).tiny)
    if not normal.all():
        max_deg = int(np.argmin(normal)) - 1
        head = slice(0, max_deg + 1)
        beta, gamma, value_at_one, norms = beta[head], gamma[head], value_at_one[head], norms[head]
        beta_floats, gamma_floats = beta_floats[head], gamma_floats[head]
    for arr in (beta, gamma, value_at_one, norms):
        arr.flags.writeable = False  # shared by every caller through the cache
    return OrthoSystem(
        space, a, b, max_deg, beta, gamma, value_at_one, norms, beta_floats, gamma_floats
    )


# hit and miss counts of the system cache
adjacent_system.cache_info = _build_system.cache_info


def eval_q_all(system: OrthoSystem, deg: int, t):
    """Values of Q_0..Q_deg at t, shape (deg+1,) + shape(t)."""
    _check(system, deg)
    vals = rec.eval_all(system.beta_floats, system.gamma_floats, deg, np.asarray(t, dtype=float))
    shape = (deg + 1,) + (1,) * (vals.ndim - 1)
    return vals / system.value_at_one[: deg + 1].reshape(shape)


def grid_table(space: SpaceDescriptor, deg: int) -> np.ndarray:
    """Values of Q_0..Q_deg on ``pmspace.verification_grid(space)``; read-only.

    Each space keeps one table.  A larger degree replaces it by one built
    at that degree; a smaller one is a prefix of it, equal bit for bit to
    :func:`eval_q_all` on the grid, since row i of the recurrence depends
    only on the rows before it.
    """
    system = adjacent_system(space, 0, 0, deg)  # refuses a degree past the cap
    table = _GRID_TABLES.get(space)
    if table is None or len(table) <= deg:
        # both references to the old table go before its successor is built
        del table
        _GRID_TABLES.pop(space, None)
        grid = pmspace.verification_grid(space)
        table = rec.eval_all(system.beta_floats, system.gamma_floats, deg, grid)
        table /= system.value_at_one[: deg + 1, None]
        table.flags.writeable = False
        _GRID_TABLES[space] = table
    return table[: deg + 1]


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


def lp_value(coeffs, M: int) -> float:
    """The linear-programming value M*(f_0*M - f(1)) of f = sum_i f_i Q_i and M points.

    f_0 is the constant Q-coefficient and f(1) the sum of all of them.
    """
    coeffs = np.asarray(coeffs)
    return M * (float(coeffs[0]) * M - float(coeffs.sum()))


def expand_in_q(space: SpaceDescriptor, monomial) -> np.ndarray:
    """Q-coefficients f_i of f = sum_i f_i Q_i, given f's monomial coefficients, ascending."""
    # imported here, its only use, to keep it out of every process's start-up
    from numpy.polynomial import polynomial as npoly

    monomial = np.asarray(monomial, dtype=float)
    # the change of basis would turn inf into NaN
    if monomial.ndim != 1 or not monomial.size or not np.isfinite(monomial).all():
        raise ParameterError("monomial coefficients must be a nonempty list of finite numbers,"
                             f" got {monomial.tolist()}")
    return _project(space, lambda x: npoly.polyval(x, monomial), len(monomial) - 1)


def _project(space: SpaceDescriptor, fn, deg: int) -> np.ndarray:
    """Q-coefficients of the polynomial fn, of degree at most deg.

    f_i = r_i * integral(f * Q_i dnu), by the measure rule exact to
    degree 2*deg.  ``fn`` maps an array of t-values to f(t).
    """
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
