"""Design bounds, the Levenshtein cardinality bound, and 1/M-quadrature rules.

Levels are indexed tau = 2k - 1 + eps with eps in {0, 1}.  A cardinality
M determines its level through the design-bound intervals
(D(tau), D(tau+1)].  The separation s, the root of L_tau(s) = M on the
level's validity interval, and the nodes alpha_i are the eigenvalues of
one bordered Jacobi matrix, and its eigenvectors give the positive
weights rho_i of the exact integration identity

    f_0 = f(1)/M + sum_i rho_i f(alpha_i),   deg f <= tau.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _recurrence as rec
from . import orthopoly, pmspace
from .errors import ConvergenceError, DegreeOverflowError, ParameterError, integer
from .orthopoly import OrthoSystem, adjacent_system, eval_q_all, largest_zero
from .pmspace import Family, SpaceDescriptor

_POWER_SUM_TOL = 1e-7
_SOLVE_RTOL = 1e-10
# space -> (tops, capped): tops is a tuple of Python ints, tops[0] =
# ceil(D(1)) - 1, the largest integer below level 1, and tops[tau] =
# floor(D(tau+1)), the last integer of level tau, with D exact; capped says
# the map's last level is in
_LEVEL_MAPS = {}


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """The 1/M-rule at level tau = 2k - 1 + eps.

    ``nodes`` are ascending with nodes[-1] = s; ``weights`` are strictly
    positive; eps = 1 exactly when -1 is a node, except at the bottom
    boundary M equal to the level-1 design bound, where s itself is -1
    (the mutually-farthest configuration: antipodal pairs, repetition
    codes, orthogonal lines).
    """

    space: SpaceDescriptor
    M: int
    k: int
    epsilon: int
    tau: int
    s: float
    nodes: np.ndarray
    weights: np.ndarray
    power_sum_residual: float


def design_bound(space: SpaceDescriptor, tau: int) -> float:
    """D(tau), the float nearest :func:`exact_design_bound`; refused past the (0,1-eps) system."""
    k, eps = _split(tau)
    adjacent_system(space, 0, 1 - eps, k - 1 + eps)
    try:
        return float(exact_design_bound(space, tau))
    except OverflowError:  # past the largest float, which rounds to inf
        return math.inf


def exact_design_bound(space: SpaceDescriptor, tau: int):
    """D(tau) = q1^(1-eps) sum_{i<k+eps} r_i^{0,1-eps}, exact (an int or a Fraction), by the closed
    forms of Delsarte, Goethals & Seidel (1977) and Levenshtein (1998); increasing in tau."""
    k, eps = _split(tau)
    n, q, comb = space.n, space.q, math.comb
    if space.family is Family.SPHERE:
        # 2 C(n+k-2, n-1) on an odd level, C(n+k-2, n-1) + C(n+k-1, n-1) on an even one
        return comb(n + k - 2, n - 1) + comb(n + k - 2 + eps, n - 1)
    if space.family is Family.HAMMING:
        return q ** (1 - eps) * sum(comb(n - 1 + eps, i) * (q - 1) ** i for i in range(k + eps))
    if space.family is Family.JOHNSON:
        return comb(n, k) if eps else Fraction(n, space.w) * comb(n - 1, k - 1)
    alpha, beta = space.jacobi_exponents()
    return n ** (1 - eps) * pmspace.jacobi_sum(alpha, beta + 1 - eps, k - 1 + eps)


class _Level(NamedTuple):
    """What every 1/M-rule at level 2k-1+eps shares, whatever M.

    Scalars and references to the shared systems only, O(1) per level:
    M enters a rule through the border of the Jacobi matrix and through s.
    """

    k: int
    eps: int
    interval: tuple  # the validity interval (lo, hi)
    # the (0,eps) system: the Jacobi matrix, the border's P_{k-1}(1) and
    # P_k(1), and P_k at s
    system: OrthoSystem
    # the border: g_k r_k and sum_{i<k} r_i, which is also L_tau's norm head
    g_r: float
    r_head: float
    # L_tau: q1^eps and the (1,eps) system
    q1_eps: float
    lev_system: OrthoSystem
    # the weight at -1 on an even level: the (1,0) system and Q_k^{1,0}(-1);
    # None on an odd level
    weight_system: OrthoSystem | None
    q_at_minus_one: float | None

    @property
    def tau(self) -> int:
        return 2 * self.k - 1 + self.eps


def _level_systems(space: SpaceDescriptor, k: int, eps: int):
    """The systems of level 2k-1+eps: (1,eps) to degree k, (1,1-eps) to k-1+eps, (0,eps) to k.

    In the order a rule first asks for them, so a level past a cap is refused as it was."""
    return tuple(adjacent_system(space, a, b, deg)
                 for a, b, deg in ((1, eps, k), (1, 1 - eps, k - 1 + eps), (0, eps, k)))


@lru_cache(maxsize=None)
def _level(space: SpaceDescriptor, k: int, eps: int) -> _Level:
    """The record of level 2k-1+eps; built once per (space, k, eps)."""
    lev_system, lower_system, system = _level_systems(space, k, eps)
    upper = largest_zero(lev_system, k)
    lower = -1.0 if k - 1 + eps == 0 else largest_zero(lower_system, k - 1 + eps)
    g, r = system.rec_gamma, system.norms
    weight_system = q_m1 = None
    if eps:
        weight_system = lower_system  # the (1,0) system
        q_m1 = eval_q_all(weight_system, k, -1.0)[k]
    return _Level(
        k, eps, (lower, upper), system, g[k] * r[k], float(np.sum(r[:k])),
        pmspace.q1_value(space) ** eps, lev_system, weight_system, q_m1,
    )


def validity_interval(space: SpaceDescriptor, tau: int):
    """Separation interval [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] of level tau; cached."""
    return _level(space, *_split(tau)).interval


def lev_bound(space: SpaceDescriptor, s: float) -> float:
    """Levenshtein's bound L(s) on the size of codes with separation s: L_tau(s) at s's level."""
    return _lev_value(_level(space, *_split(separation_level(space, s))), s)


def separation_level(space: SpaceDescriptor, s: float) -> int:
    """The level tau whose validity interval holds s; the lower one at a shared end.

    Found by doubling tau, then bisecting, so O(log tau) levels are built.  s outside
    [-1, 1) raises ParameterError; s past the last level, that level's DegreeOverflowError.
    """
    if not -1.0 <= s < 1.0:
        raise ParameterError(f"s={s} outside [-1, 1)")

    def reaches(tau):  # a level past the last one reaches every s
        try:
            return s <= validity_interval(space, tau)[1]
        except DegreeOverflowError:
            return True

    top = 1
    while not reaches(top):
        top *= 2
    # the ends increase with tau, so the first level that reaches s lies in (top/2, top]
    tau = bisect.bisect_left(range(top + 1), True, lo=top // 2 + 1, key=reaches)
    return _level(space, *_split(tau)).tau  # refuses a tau past the last level


def _lev_value(level: _Level, s: float) -> float:
    k = level.k
    num = _p_at(level.lev_system, k - 1, s) / level.lev_system.value_at_one[k - 1]
    den = _p_at(level.system, k, s) / level.system.value_at_one[k]
    return level.q1_eps * (1.0 - num / den) * level.r_head


def _p_at(system: OrthoSystem, deg: int, t: float):
    """P_deg(t) at one point, by the recurrence on Python floats."""
    return rec.eval_all(system.beta_floats, system.gamma_floats, deg, t)[deg]


def tau_for_cardinality(space: SpaceDescriptor, M: int):
    """Level (k, eps, tau) serving cardinality M: D(tau) < M <= D(tau+1).

    M is compared exactly with each level's top, the floor of the exact
    D(tau+1), so M = D(tau+1) is served at the top of level tau, where every
    weight is positive.  M = D(1), where an integer, is served by the level-1
    rule with s = -1.  M past the map's last level raises DegreeOverflowError.
    """
    if integer("a cardinality", "M", M) < 2:
        raise ParameterError("M must be an integer >= 2")
    return _level_of(space, M)


def _level_of(space: SpaceDescriptor, M):
    """(k, eps, tau) for M by the space's level map."""
    tops = _level_map(space, lambda tops: M <= tops[-1])
    # the first tau with M <= tops[tau]
    tau = bisect.bisect_left(tops, M)
    if tau == 0:
        d1 = design_bound(space, 1)
        raise ParameterError(
            f"M={M} is below the level-1 design bound {d1:g} of {space.label()};"
            " no quadrature rule exists"
        )
    if tau == len(tops):
        raise DegreeOverflowError(
            f"M={M} exceeds the level capacity of {space.label()}"
            f" (needs tau >= {tau})"
        )
    k, eps = _split(tau)
    return k, eps, tau


def _level_cardinalities(space: SpaceDescriptor, tau: int) -> range:
    """The integers M that the space's level map gives level tau; maybe none.

    They are tops[tau-1] < M <= tops[tau], and 2 up at tau 1: the integers
    that tau_for_cardinality serves at tau, however large.
    """
    tops = _level_map(space, lambda tops: len(tops) > tau)
    if len(tops) <= tau:
        raise DegreeOverflowError(f"{space.label()} has no level {tau}")
    return range(max(2, tops[tau - 1] + 1), tops[tau] + 1)


def _level_map(space: SpaceDescriptor, covers):
    """The level tops of the space's map, grown one level at a time until covers(tops).

    Level tau is listed while its rule's systems exist, and on a finite space
    the certificate's: a finite map ends at its last servable level.
    """
    tops, capped = _LEVEL_MAPS.get(space) or ((math.ceil(exact_design_bound(space, 1)) - 1,), False)
    while not capped and not covers(tops):
        tau = len(tops)
        k, eps = _split(tau)
        try:
            # the level's systems; on a finite space also (0,0) to the
            # certificate's degree tau, so tau <= n on H(n,q) and tau <= w on
            # J(n,w), or less where a system ends earlier
            _level_systems(space, k, eps)
            adjacent_system(space, 0, 0, tau if space.is_finite else 0)
        except DegreeOverflowError:
            capped = True
        else:
            tops += (math.floor(exact_design_bound(space, tau + 1)),)
        _LEVEL_MAPS[space] = (tops, capped)
    return tops


def quadrature_rule(space: SpaceDescriptor, M: int) -> QuadratureRule:
    """Build and validate the 1/M-quadrature rule for cardinality M."""
    level = _level(space, *tau_for_cardinality(space, M)[:2])
    lo, hi = level.interval
    nodes, weights = _bordered_rule(level, M)
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not lo - pad <= nodes[-1] <= hi + pad:
        raise ConvergenceError(
            f"separation {nodes[-1]} for M={M} outside the level-{level.tau}"
            f" validity interval [{lo}, {hi}]"
        )
    return _rule_from_nodes(level, M, nodes, weights)


def _bordered_rule(level: _Level, M: int):
    """Nodes and weights of the 1/M-rule at level 2k-1+eps; the last node is s.

    Against (1+t)^eps dnu the rule is a Gauss rule with the extra node
    t = 1 of prescribed weight (1+eps)/M.  It is the Gauss rule of the
    (0,eps) Jacobi matrix bordered by one row and column (Golub, SIAM
    Rev. 1973): the last diagonal entry c = 1 - g' pi_{k-1}(1)/pi_k(1) makes 1
    an eigenvalue, and the last off-diagonal sqrt(g') gives it that
    weight.  1 is the top eigenvalue; the k others are the nodes besides
    -1, with weights gamma_0 v_0i^2 / (1 + alpha_i)^eps.  The weight at
    -1 (eps = 1) is left 0 for :func:`_rule_from_nodes`.  The border is
    written into the matrix of the next degree, in place.
    """
    k, eps = level.k, level.eps
    b, g, v = level.system.rec_beta, level.system.rec_gamma, level.system.value_at_one
    # the denominator is (M - D(tau-1)) / q1^eps, with D(0) = 1: positive
    # for every M the level serves
    g_border = level.g_r / (M * g[0] / (1 + eps) - level.r_head)
    # pi_{k-1}(1) / pi_k(1) = 2 P_{k-1}(1) / P_k(1)
    J = rec.jacobi_matrix(b, g, k + 1)
    J[k, k] = 1.0 - 2.0 * g_border * v[k - 1] / v[k]
    J[k, k - 1] = J[k - 1, k] = math.sqrt(g_border)
    x, w = rec.gauss(J, g[0])
    if not eps:
        return x[:-1], w[:-1]
    nodes, weights = np.empty(k + 1), np.empty(k + 1)
    nodes[0], weights[0] = -1.0, 0.0
    nodes[1:] = x[:-1]
    np.add(1.0, x[:-1], out=weights[1:])
    np.divide(w[:-1], weights[1:], out=weights[1:])
    return nodes, weights


def _rule_from_nodes(level: _Level, M, nodes, weights) -> QuadratureRule:
    # every check is written so that a NaN fails it
    space, k, eps, tau = level.system.space, level.k, level.eps, level.tau
    s = float(nodes[-1])
    if not abs(_lev_value(level, s) - M) <= _SOLVE_RTOL * M:
        raise ConvergenceError(f"L_{tau}(s) misses M={M} at the separation s={s}")
    if not (nodes[1:] > nodes[:-1]).all():
        raise ConvergenceError("quadrature nodes are not strictly increasing")
    if eps:
        # The weight at -1 vanishes at the bottom of the level.  The rule
        # applied to (1-t) Q_k^{1,0}(t) prod_{i<k} (t - alpha_i), of degree
        # tau and mean 0, gives it as a product, accurate relative to its
        # size.  Where the products leave the float range (S^2 from tau
        # ~1720) the checks below refuse the inf, 0 or nan that gives.
        inner = nodes[1:-1]
        q_s = _p_at(level.weight_system, k, s) / level.weight_system.value_at_one[k]
        with np.errstate(all="ignore"):
            num, den = (s - inner).prod(), 2 * level.q_at_minus_one * (-1 - inner).prod()
            weights[0] = -weights[-1] * (1 - s) * q_s * num / den
    if not (weights > 0).all():
        raise ConvergenceError(
            f"nonpositive quadrature weight for M={M}: {weights}"
        )
    # 1/M + sum_i rho_i alpha_i^m against the moments b_m of the measure,
    # m <= tau
    powers = np.vander(nodes, tau + 1, increasing=True)
    residual = float(abs(1.0 / M + weights @ powers - pmspace.moments(space, tau)).max())
    if not residual <= _POWER_SUM_TOL:
        raise ConvergenceError(
            f"power-sum residual {residual:.2e} too large for M={M}"
        )
    return QuadratureRule(space, int(M), k, eps, tau, s, nodes, weights, residual)


def lev_polynomial(space: SpaceDescriptor, M: int) -> np.ndarray:
    """Q-coefficients of the level polynomial (t+1)^eps (t-s) T_{k-1}^{1,eps}(t,s)^2.

    Degree tau; vanishes at every node; attains f(1)/f_0 = M.
    """
    rule = quadrature_rule(space, M)
    k, eps, s = rule.k, rule.epsilon, rule.s

    def level(t):
        return (t + 1.0) ** eps * (t - s) * orthopoly.cd_kernel(space, 1, eps, k - 1, t, s) ** 2

    return orthopoly._project(space, level, rule.tau)


def _split(tau: int):
    """(k, eps) with tau = 2k - 1 + eps, for an integer tau >= 1 (ParameterError otherwise)."""
    if type(tau) is not int:
        tau = integer("a level", "tau", tau)
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    eps = (tau + 1) % 2
    k = (tau + 1 - eps) // 2
    return k, eps
