"""Descriptors for the four families of polynomial metric spaces.

A space descriptor bundles the substitution image T(M), the orthogonality
measure of its polynomial system, multiplicities and the antipodality
flag.  This module alone turns the measure into nodes and weights
(:func:`measure_rule`), and from them into moments.  The four families
are the Euclidean sphere S^{n-1}, the Hamming space H(n,q), the Johnson
space J(n,w), and the projective spaces FP^{n-1} over R, C, H (field
dimension m = 1, 2, 4).
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import _recurrence as rec
from .errors import DegreeOverflowError, ParameterError, check_parameter_names


class Family(str, Enum):
    SPHERE = "sphere"
    HAMMING = "hamming"
    JOHNSON = "johnson"
    PROJECTIVE = "projective"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Immutable description of one polynomial metric space."""

    family: Family
    n: int
    q: int | None = None
    w: int | None = None
    field_dim: int | None = None  # 1, 2, or 4 for projective spaces

    @property
    def antipodal(self) -> bool:
        if self.family is Family.SPHERE:
            return True
        if self.family is Family.HAMMING:
            return self.q == 2
        if self.family is Family.JOHNSON:
            return self.n == 2 * self.w
        return False

    @property
    def max_degree(self) -> int | None:
        """Largest meaningful polynomial degree; None when unbounded."""
        if self.family is Family.HAMMING:
            return self.n
        if self.family is Family.JOHNSON:
            return self.w
        return None

    @property
    def is_finite(self) -> bool:
        return self.family in (Family.HAMMING, Family.JOHNSON)

    def jacobi_exponents(self) -> tuple[float, float]:
        """Exponents (alpha, beta) of the continuous orthogonality weight."""
        if self.family is Family.SPHERE:
            a = (self.n - 3) / 2.0
            return a, a
        if self.family is Family.PROJECTIVE:
            m = self.field_dim
            return m * (self.n - 1) / 2.0 - 1.0, m / 2.0 - 1.0
        raise ParameterError(f"{self.family.value} has a discrete measure")

    def label(self) -> str:
        if self.family is Family.SPHERE:
            return f"S^{self.n - 1}"
        if self.family is Family.HAMMING:
            return f"H({self.n},{self.q})"
        if self.family is Family.JOHNSON:
            return f"J({self.n},{self.w})"
        names = {1: "R", 2: "C", 4: "H"}
        return f"{names[self.field_dim]}P^{self.n - 1}"


def make_space(family, **params) -> SpaceDescriptor:
    """Construct and validate a space descriptor.

    Parameters
    ----------
    family : Family or str
        One of "sphere", "hamming", "johnson", "projective".
    **params
        sphere: n; hamming: n, q; johnson: n, w; projective: n and
        field_dim in {1, 2, 4}.
    """
    family = Family(family)
    check_parameter_names(family.value, params, _PARAMETERS[family])
    n = params["n"]
    if n is None or int(n) != n:
        raise ParameterError("every space needs an integer parameter n")
    n = int(n)
    if family is Family.SPHERE:
        if n < 2:
            raise ParameterError(f"sphere needs n >= 2, got {n}")
        return SpaceDescriptor(family, n)
    if family is Family.HAMMING:
        q = int(params["q"])
        if n < 2 or q < 2:
            raise ParameterError(f"Hamming needs n >= 2 and q >= 2, got n={n}, q={q}")
        return SpaceDescriptor(family, n, q=q)
    if family is Family.JOHNSON:
        w = int(params["w"])
        if n < 2 or w < 1 or w > n // 2:
            raise ParameterError(f"Johnson needs 1 <= w <= n/2, got n={n}, w={w}")
        return SpaceDescriptor(family, n, w=w)
    m = int(params["field_dim"])
    if n < 2:
        raise ParameterError(f"projective space needs n >= 2, got {n}")
    if m not in (1, 2, 4):
        raise ParameterError(f"projective field_dim must be 1, 2 or 4, got {m}")
    return SpaceDescriptor(family, n, field_dim=m)


_PARAMETERS = {
    Family.SPHERE: {"n"},
    Family.HAMMING: {"n", "q"},
    Family.JOHNSON: {"n", "w"},
    Family.PROJECTIVE: {"n", "field_dim"},
}


def verification_grid(space: SpaceDescriptor) -> np.ndarray:
    """T(M) without t=1: the points where pointwise conditions are checked.

    The grid itself for finite spaces; 2000 Chebyshev-spaced points of
    [-1, 1) otherwise.
    """
    if space.is_finite:
        t, _ = t_grid(space)
        return t[t < 1.0]
    return np.cos(np.pi * np.arange(1, 2001) / 2000)


@lru_cache(maxsize=None)
def _t_grid_cached(space: SpaceDescriptor):
    if space.family is Family.HAMMING:
        n, q = space.n, space.q
        ell = np.arange(n + 1)
        t = 1.0 - 2.0 * ell / n
        logmass = (
            ell * math.log(q - 1.0) if q > 2 else 0.0 * ell
        ) + np.array([math.lgamma(n + 1) - math.lgamma(l + 1) - math.lgamma(n - l + 1) for l in ell])
        mass = np.exp(logmass - n * math.log(q))
    else:
        n, w = space.n, space.w
        ell = np.arange(w + 1)
        t = 1.0 - 2.0 * ell / w
        mass = np.array(
            [math.comb(w, l) * math.comb(n - w, l) / math.comb(n, w) for l in ell],
            dtype=float,
        )
    t.flags.writeable = mass.flags.writeable = False  # shared by every caller
    return t, mass


def t_grid(space: SpaceDescriptor):
    """Grid t_ell (descending) and measure masses for a finite space; read-only."""
    if not space.is_finite:
        raise ParameterError("t_grid is defined for finite spaces only")
    return _t_grid_cached(space)


def measure_rule(space: SpaceDescriptor, deg: int):
    """Nodes and weights integrating every polynomial of degree <= deg against nu.

    The grid and its masses for a finite space; otherwise the
    (deg//2 + 1)-point Gauss rule (:func:`ulbkit._recurrence.gauss`).
    """
    if space.is_finite:
        return t_grid(space)
    npoints = deg // 2 + 1
    x, wts = rec.gauss(*rec.jacobi_monic(*space.jacobi_exponents(), npoints), npoints)
    return x, wts / np.sum(wts)


def multiplicity(space: SpaceDescriptor, i: int) -> int:
    """Dimension r_i of the i-th harmonic subspace."""
    _check_degree(space, i)
    if i == 0:
        return 1
    if space.family is Family.SPHERE:
        n = space.n
        return round((2 * i + n - 2) / (i + n - 2) * math.comb(i + n - 2, i))
    if space.family is Family.HAMMING:
        return math.comb(space.n, i) * (space.q - 1) ** i
    if space.family is Family.JOHNSON:
        return math.comb(space.n, i) - math.comb(space.n, i - 1)
    alpha, beta = space.jacobi_exponents()
    val = (
        (2 * i + alpha + beta + 1)
        * _gbinom(i + alpha + beta, i)
        * _gbinom(i + alpha, i)
        / ((alpha + beta + 1) * _gbinom(i + beta, i))
    )
    r = round(val)
    if abs(val - r) > 1e-6 * max(1.0, abs(val)):
        raise ParameterError(f"non-integer multiplicity {val} for {space.label()}, i={i}")
    return r


def _gbinom(x: float, k: int) -> float:
    """Generalized binomial coefficient C(x, k) for integer k >= 0."""
    out = 1.0
    for j in range(k):
        out *= (x - j) / (k - j)
    return out


@lru_cache(maxsize=None)
def moments(space: SpaceDescriptor, deg: int) -> np.ndarray:
    """Moments b_0..b_deg of the orthogonality measure; b_0 = 1.  Cached and read-only."""
    if deg < 0:
        raise ParameterError("moment order must be nonnegative")
    if space.family is Family.SPHERE:
        # b_{2j} = (2j-1)!! / (n (n+2) ... (n+2j-2)): a closed form keeps the
        # power-sum check of a sphere's rule independent of the Jacobi
        # recurrence that builds the rule
        j = np.arange(deg // 2)
        out = np.zeros(deg + 1)
        out[::2] = np.cumprod(np.append(1.0, (2 * j + 1) / (space.n + 2 * j)))
    else:
        x, wts = measure_rule(space, deg)
        out = np.array([np.dot(wts, x**m) for m in range(deg + 1)])
        out[0] = 1.0
        if space.antipodal:
            out[1::2] = 0.0
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def q1_value(space: SpaceDescriptor) -> float:
    """The constant 1 - 1/Q_1(-1) appearing in the universal bounds."""
    if space.family is Family.SPHERE:
        return 2.0
    if space.family is Family.HAMMING:
        return float(space.q)
    if space.family is Family.JOHNSON:
        return space.n / space.w
    return float(space.n)


def _check_degree(space: SpaceDescriptor, i: int):
    if i < 0:
        raise ParameterError("degree must be nonnegative")
    cap = space.max_degree
    if cap is not None and i > cap:
        raise DegreeOverflowError(
            f"degree {i} exceeds the cap {cap} of {space.label()}"
        )
