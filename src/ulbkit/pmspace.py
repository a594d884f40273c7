"""Descriptors for the four families of polynomial metric spaces.

A space descriptor bundles the substitution image T(M), the orthogonality
measure of its polynomial system, multiplicities and the antipodality
flag.  This module alone gives every system's recurrence coefficients
(:func:`adjacent_recurrence`) and the measure's nodes, weights
(:func:`measure_rule`) and moments.  The four families
are the Euclidean sphere S^{n-1}, the Hamming space H(n,q), the Johnson
space J(n,w), and the projective spaces FP^{n-1} over R, C, H (field
dimension m = 1, 2, 4).
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _recurrence as rec
from .errors import DegreeOverflowError, ParameterError, check_parameter_names, integer


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

    def __post_init__(self):
        # every cache is keyed by the space, so its hash is taken once, of
        # ints alone, and is the same in every process (hash(None) is not,
        # in Python 3.11)
        key = (tuple(Family).index(self.family), self.n, self.q or 0, self.w or 0, self.field_dim or 0)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self):
        return self._hash

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
        Integers (an integral float is taken as its integer): sphere: n;
        hamming: n, q; johnson: n, w; projective: n and field_dim in
        {1, 2, 4}.
    """
    family = Family(family)
    check_parameter_names(family.value, params, _PARAMETERS[family])
    what = f"{family.value} space"
    n = integer(what, "n", params["n"])
    if family is Family.SPHERE:
        if n < 2:
            raise ParameterError(f"sphere needs n >= 2, got {n}")
        return SpaceDescriptor(family, n)
    if family is Family.HAMMING:
        q = integer(what, "q", params["q"])
        if n < 2 or q < 2:
            raise ParameterError(f"Hamming needs n >= 2 and q >= 2, got n={n}, q={q}")
        return SpaceDescriptor(family, n, q=q)
    if family is Family.JOHNSON:
        w = integer(what, "w", params["w"])
        if n < 2 or w < 1 or w > n // 2:
            raise ParameterError(f"Johnson needs 1 <= w <= n/2, got n={n}, w={w}")
        return SpaceDescriptor(family, n, w=w)
    m = integer(what, "field_dim", params["field_dim"])
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
# (2 alpha, 2 beta) -> [r_0, r_0 + r_1, ...], exact, as long as asked for so far
_JACOBI_SUMS = {}


@lru_cache(maxsize=None)
def verification_grid(space: SpaceDescriptor) -> np.ndarray:
    """T(M) without t=1: the points where pointwise conditions are checked.

    The grid itself for finite spaces; 2000 Chebyshev-spaced points of
    [-1, 1) otherwise.  Built once per space and read-only; the values
    of Q_0..Q_deg on it are cached too (:func:`ulbkit.orthopoly.grid_table`).
    """
    if space.is_finite:
        t, _ = t_grid(space)
        grid = t[t < 1.0]
    else:
        grid = np.cos(np.pi * np.arange(1, 2001) / 2000)
    grid.flags.writeable = False  # shared by every caller through the cache
    return grid


def t_grid(space: SpaceDescriptor):
    """Grid t_ell (descending) and measure masses for a finite space; fresh arrays on each call."""
    if not space.is_finite:
        raise ParameterError("t_grid is defined for finite spaces only")
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
        total = math.comb(n, w)
        mass = np.array([math.comb(w, l) * math.comb(n - w, l) / total for l in ell], dtype=float)
    return t, mass


def adjacent_recurrence(space: SpaceDescriptor, a: int, b: int, count: int):
    """Monic recurrence coefficients in t of the (a,b)-adjacent system: at most count pairs.

    The weight is (1-t)^a (1+t)^b dnu, and gamma[0] its nu-mass.  Spheres and
    projective spaces are Jacobi's; H(n,q) is Krawtchouk's and J(n,w) Hahn's
    in the distance l, of degrees 0..N (Koekoek, Lesky & Swarttouw,
    *Hypergeometric Orthogonal Polynomials*, 2010, 9.11 and 9.5), mapped by
    t = 1 - 2l/L with L = n or w.
    """
    if not space.is_finite:
        alpha0, beta0 = space.jacobi_exponents()
        alpha, beta = alpha0 + a, beta0 + b
        ab = alpha + beta
        k = np.arange(float(count))
        d = 2 * k + ab
        with np.errstate(invalid="ignore"):
            offset = (beta * beta - alpha * alpha) / (d * (d + 2))
            gamma = 4 * k * (k + alpha) * (k + beta) * (k + ab) / (d * d * (d + 1) * (d - 1))
        # 0/0 at k = 0 where alpha + beta = 0 (S^2), and at k = 1 where it is -1 (S^1)
        offset[:1] = (beta - alpha) / (ab + 2)
        gamma[1:2] = 4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))
        # the nu-mass of (1-t)^a (1+t)^b: a ratio of Beta functions, rational
        # in the exponents; the rule weights are proportional to it
        ab0 = alpha0 + beta0
        gamma[:1] = (2 * (alpha0 + 1) / (ab0 + 2)) ** a * (2 * (beta0 + 1) / (ab0 + 2 + a)) ** b
        return offset, gamma
    n = space.n
    if space.family is Family.HAMMING:
        # Binomial(N, p) in l - a
        size, p, N = n, (space.q - 1) / space.q, n - a - b
        k = np.arange(float(min(count, N + 1)))
        beta = p * (N - k) + k * (1 - p) + a
        gamma = k * p * (1 - p) * (N - k + 1)
        mass = 4 * (n - 1) * p * (1 - p) / n if a == b == 1 else (2 * p) ** a * (2 * (1 - p)) ** b
    else:
        # Hahn in x = w - b - l, orthogonal under C(w-b, l) C(n-w-a, l-a)
        size = w = space.w
        N, al, be = w - a - b, b - w - 1, a - (n - w) - 1
        k = np.arange(float(min(count, N + 1)))
        s = 2 * k + al + be
        with np.errstate(invalid="ignore"):
            up = (k + al + be + 1) * (k + al + 1) * (N - k) / ((s + 1) * (s + 2))
        up[N:] = 0.0  # 0/0 at k = N where n = 2w and a = b = 0
        down = k * (k + al + be + N + 1) * (k + be) / (s * (s + 1))
        beta = w - b - (up + down)
        gamma = np.append(0.0, up[:-1]) * down
        mass = (4 * (w - 1) * (n - w) / (n * (n - 1)) if a == b == 1
                else (2 * (n - w) / n) ** a * (2 * w / n) ** b)
    gamma = (2.0 / size) ** 2 * gamma
    gamma[:1] = mass
    return 1.0 - 2.0 * beta / size, gamma


def measure_rule(space: SpaceDescriptor, deg: int):
    """Nodes and weights integrating every polynomial of degree <= deg against nu.

    The grid and its masses for a finite space; otherwise the
    (deg//2 + 1)-point Gauss rule (:func:`ulbkit._recurrence.gauss`).
    """
    if space.is_finite:
        return t_grid(space)
    npoints = deg // 2 + 1
    b, g = adjacent_recurrence(space, 0, 0, npoints)
    x, wts = rec.gauss(rec.jacobi_matrix(b, g, npoints), g[0])
    return x, wts / np.sum(wts)


def multiplicity(space: SpaceDescriptor, i: int) -> int:
    """Dimension r_i of the i-th harmonic subspace, exact."""
    _check_degree(space, i)
    if i == 0:
        return 1
    if space.family is Family.HAMMING:
        return math.comb(space.n, i) * (space.q - 1) ** i
    if space.family is Family.JOHNSON:
        return math.comb(space.n, i) - math.comb(space.n, i - 1)
    alpha, beta = space.jacobi_exponents()
    return int(jacobi_sum(alpha, beta, i) - jacobi_sum(alpha, beta, i - 1))


def jacobi_sum(alpha: float, beta: float, k: int):
    """r_0 + ... + r_k, exact, for the Jacobi weight (1-t)^alpha (1+t)^beta of unit mass.

    r_i = P_i(1)^2 / ||P_i||^2, for half-integers alpha and beta: a sphere's
    (alpha = beta) or projective space's multiplicity.  Each exponent pair
    keeps one list of the sums, grown by r_{i+1}/r_i to the largest k asked for.
    """
    if k < 0:
        raise ParameterError(f"jacobi_sum needs k >= 0, got {k}")
    a2, b2 = round(2 * alpha), round(2 * beta)
    sums = _JACOBI_SUMS.setdefault((a2, b2), [1])
    if len(sums) > k:
        return sums[k]
    # the sums so far end in r_i, which the ratios below extend to r_k
    r = sums[-1] - sums[-2] if len(sums) > 1 else 1
    for i in range(len(sums) - 1, k):
        # r_{i+1}/r_i = (2i+c+2)(i+alpha+1) / ((i+1)(i+beta+1)) * (i+c)/(2i+c), c = alpha+beta+1;
        # the last factor is 1 at i = 0, also where c = 0 (S^1)
        r *= Fraction((4 * i + a2 + b2 + 6) * (2 * i + a2 + 2), 2 * (i + 1) * (2 * i + b2 + 2))
        if i:
            r *= Fraction(2 * i + a2 + b2 + 2, 4 * i + a2 + b2 + 2)
        sums.append(sums[-1] + r)
    return sums[k]


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
