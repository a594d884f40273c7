"""Large-dimension behaviour of the energy bounds on spheres and binary
Hamming spaces.

For a fixed level tau = 2k - 1 + eps, cardinalities growing like
M_n = n^{k-1+eps} ((2-eps)/(k-1+eps)! + delta) keep the level fixed
while the dimension n grows.  The scaled remainder

    M_n ( sum_i rho_i h(alpha_i) - sum_{2j<=tau} h^{(2j)}(0) b_{2j} / (2j)! )

converges to a closed-form limit built from delta_k = 1 + delta*(k-1)!
and the Taylor polynomial R of h at 0 truncated at degree tau.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import levenshtein, pmspace
from .errors import ParameterError, UlbkitError, integer
from .potentials import Potential

_FAMILIES = ("sphere", "hamming")


@dataclass(frozen=True, eq=False)
class AsymptoticQuery:
    """Parameters of one asymptotic sweep.

    ``rho`` is the assumed limit of M_n * rho_0 and is required for even
    tau (the construction pins rho_0 only in the odd case); the sweep
    reports the empirical sequence so a consistent value can be chosen.
    """

    family: str
    tau: int
    h: Potential
    delta: float = 0.0
    rho: float | None = None
    n_range: tuple = ()

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"asymptotics cover {_FAMILIES}, got {self.family!r}")
        # frozen: an integral float tau is stored as its integer
        object.__setattr__(self, "tau", integer("asymptotics", "tau", self.tau))
        if self.tau < 1:
            raise ParameterError("tau must be >= 1")
        if not 0 <= self.delta < math.inf:
            raise ParameterError(f"delta must be finite and >= 0, got {self.delta}")
        if self.rho is not None and not (0.0 <= self.rho <= 1.0):
            raise ParameterError("rho must lie in [0, 1]")

    @property
    def k(self) -> int:
        return levenshtein._split(self.tau)[0]

    @property
    def epsilon(self) -> int:
        return levenshtein._split(self.tau)[1]

    @property
    def delta_k(self) -> float:
        return 1.0 + self.delta * math.factorial(self.k - 1)

    def space(self, n: int):
        if self.family == "sphere":
            return pmspace.make_space("sphere", n=n)
        return pmspace.make_space("hamming", n=n, q=2)

    def ns(self):
        hi = 64 if self.family == "sphere" else 48
        return tuple(self.n_range) if self.n_range else tuple(range(8, hi + 1, 4))


def cardinality_sequence(query: AsymptoticQuery, n: int):
    """Target cardinality at dimension n, clamped into the integers of its level.

    Returns (M_n, clamped).  The level's integers are those the level map
    gives level tau, so M_n is served at tau by construction; at the
    bottom level they include the design bound D(1) = 2 itself (the
    antipodal pair, the repetition code).
    """
    k, eps, tau = query.k, query.epsilon, query.tau
    target = round(n ** (k - 1 + eps) * ((2.0 - eps) / math.factorial(k - 1 + eps) + query.delta))
    # a sphere's or Hamming space's exact design bounds are increasing
    # integers, so every level holds an integer
    level = levenshtein._level_cardinalities(query.space(n), tau)
    M = min(max(target, level[0]), level[-1])
    return M, M != target


def taylor_coeffs(query: AsymptoticQuery):
    """Coefficients of the degree-tau Taylor polynomial of h at 0."""
    return np.array(
        [float(query.h.deriv(0.0, j)) / math.factorial(j) for j in range(query.tau + 1)]
    )


def limit_expression(query: AsymptoticQuery) -> float:
    """Closed-form limit of the scaled remainder sequence."""
    r = taylor_coeffs(query)
    r1 = float(npoly.polyval(1.0, r))
    if query.epsilon == 0:
        dk = query.delta_k
        at = -1.0 / dk
        return dk ** (2 * query.k - 1) * (float(query.h(at)) - float(npoly.polyval(at, r))) - r1
    if query.rho is None:
        raise ParameterError("even tau needs the rho limit of M_n * rho_0")
    return query.rho * (float(query.h(-1.0)) - float(npoly.polyval(-1.0, r))) - r1


def sweep(query: AsymptoticQuery):
    """Per-dimension rows of the asymptotic quantities.

    Each row carries n, M_n, the separation s, alpha_0, rho_0*M_n, the
    scaled remainder, the limit (NaN when rho is needed but missing),
    and the two limiting energy ratios.  Dimensions where the quadrature
    fails are skipped with a note.
    """
    try:
        limit = limit_expression(query)
    except ParameterError:
        limit = math.nan
    h = query.h
    r = taylor_coeffs(query)
    rows = []
    for n in query.ns():
        try:
            M, clamped = cardinality_sequence(query, n)
            rule = levenshtein.quadrature_rule(query.space(n), M)
        except UlbkitError as exc:
            rows.append({"n": n, "skipped": str(exc)})
            continue
        b = pmspace.moments(query.space(n), query.tau)
        quad = float(np.dot(rule.weights, h(rule.nodes)))
        # the Taylor terms h^(2j)(0)/(2j)! b_2j; b vanishes at odd orders
        compare = sum(r[2 * j] * b[2 * j] for j in range(query.tau // 2 + 1))
        remainder = M * (quad - compare)
        rows.append(
            {
                "n": n,
                "M": M,
                "clamped": clamped,
                "s": rule.s,
                "alpha_0": float(rule.nodes[0]),
                "rho_0_M": float(rule.weights[0]) * M,
                "remainder": remainder,
                "limit": limit,
                "ratio1": quad,
                "ratio2": n * (quad - float(r[0])),
            }
        )
    return rows
