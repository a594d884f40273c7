"""Design bounds, the Levenshtein cardinality bound, and 1/M-quadrature rules.

Levels are indexed tau = 2k - 1 + eps with eps in {0, 1}.  A cardinality
M determines its level through the design-bound intervals
(D(tau), D(tau+1)].  The separation s, the root of L_tau(s) = M on the
level's validity interval, and the nodes alpha_i are the eigenvalues of
one bordered Jacobi matrix, and its eigenvectors give the positive
weights rho_i of the exact integration identity

    f_0 = f(1)/M + sum_i rho_i f(alpha_i),   deg f <= tau.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _recurrence as rec
from . import orthopoly, pmspace
from .errors import ConvergenceError, DegreeOverflowError, ParameterError
from .orthopoly import adjacent_system, eval_q_all, largest_zero
from .pmspace import SpaceDescriptor

_POWER_SUM_TOL = 1e-7
_SOLVE_RTOL = 1e-10
_LEVEL_RTOL = 1e-12
# levels added to a space's level map at a time
_LEVEL_BLOCK = 16
# space -> (D(1), tops, capped): tops[j] is the largest of
# design_bound(space, tau) * (1 + _LEVEL_RTOL) over tau = 2..j+2, and capped
# says a finite space's last level is in
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
    odd_branch: bool = False


def design_bound(space: SpaceDescriptor, tau: int) -> float:
    """Minimum-cardinality bound D(tau) for designs of strength tau.

    Nondecreasing in tau; attained by the tight configurations.
    """
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    k, eps = _split(tau)
    system = adjacent_system(space, 0, 1 - eps, k - 1 + eps)
    total = float(np.sum(system.norms[: k + eps]))
    return pmspace.q1_value(space) ** (1 - eps) * total


@lru_cache(maxsize=None)
def validity_interval(space: SpaceDescriptor, tau: int):
    """Separation interval [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] of level tau; cached."""
    k, eps = _split(tau)
    upper = largest_zero(adjacent_system(space, 1, eps, k), k)
    if k - 1 + eps == 0:
        lower = -1.0
    else:
        lower = largest_zero(adjacent_system(space, 1, 1 - eps, k - 1 + eps), k - 1 + eps)
    return lower, upper


def lev_bound(space: SpaceDescriptor, tau: int, s: float) -> float:
    """Levenshtein bound L_tau(s) on the size of codes with separation s."""
    lo, hi = validity_interval(space, tau)
    if not _in_interval(s, lo, hi):
        raise ParameterError(
            f"s={s} outside the level-{tau} validity interval [{lo}, {hi}]"
        )
    return _lev_value(space, tau, s)


def _in_interval(s: float, lo: float, hi: float) -> bool:
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    return lo - pad <= s <= hi + pad


def _lev_value(space: SpaceDescriptor, tau: int, s: float) -> float:
    k, eps = _split(tau)
    num = eval_q_all(adjacent_system(space, 1, eps, k - 1), k - 1, s)[k - 1]
    system = adjacent_system(space, 0, eps, k)
    den = eval_q_all(system, k, s)[k]
    head = float(np.sum(system.norms[:k]))
    return pmspace.q1_value(space) ** eps * (1.0 - num / den) * head


def tau_for_cardinality(space: SpaceDescriptor, M: int):
    """Level (k, eps, tau) serving cardinality M: D(tau) < M <= D(tau+1).

    M is compared with each design bound within a relative 1e-12, so a
    cardinality equal to D(tau+1) is served at the top of level tau,
    where every weight is positive, whatever the rounding of D(tau+1).
    The bottom boundary M equal to D(1) is served by the level tau=1
    rule with s = -1 whenever D(1) is an achievable integer cardinality.
    """
    if M < 2 or int(M) != M:
        raise ParameterError("M must be an integer >= 2")
    return _level_of(space, M)


def _level_of(space: SpaceDescriptor, M):
    """(k, eps, tau) for M by the space's level map, growing it as needed."""
    d1, tops, capped = _LEVEL_MAPS.get(space) or _grow_level_map(space)
    if M < d1 * (1.0 - _LEVEL_RTOL):
        raise ParameterError(
            f"M={M} is below the level-1 design bound {d1:g} of {space.label()};"
            " no quadrature rule exists"
        )
    while not capped and not M <= tops[-1]:
        d1, tops, capped = _grow_level_map(space)
    # the first tau >= 1 with M <= D(tau+1) * (1 + _LEVEL_RTOL); the running
    # maximum makes tops sorted without moving that first index
    j = int(np.searchsorted(tops, M, side="left"))
    if j == len(tops):
        raise DegreeOverflowError(
            f"M={M} exceeds the level capacity of {space.label()}"
            f" (needs tau > {j + 1})"
        )
    k, eps = _split(j + 1)
    return k, eps, j + 1


def _grow_level_map(space: SpaceDescriptor):
    """Add a block of levels to the space's level map, up to a finite space's cap."""
    d1, tops, capped = _LEVEL_MAPS.get(space) or (design_bound(space, 1), np.empty(0), False)
    block = []
    for tau in range(len(tops) + 2, len(tops) + 2 + _LEVEL_BLOCK):
        try:
            block.append(design_bound(space, tau) * (1.0 + _LEVEL_RTOL))
        except DegreeOverflowError:
            capped = True
            break
    tops = np.maximum.accumulate(np.concatenate([tops, block]))
    tops.flags.writeable = False
    _LEVEL_MAPS[space] = (d1, tops, capped)
    return _LEVEL_MAPS[space]


def solve_separation(space: SpaceDescriptor, M: int) -> float:
    """The unique s with L_tau(s) = M on the level's validity interval.

    It is the largest node of the 1/M-quadrature rule.
    """
    return quadrature_rule(space, M).s


def quadrature_rule(space: SpaceDescriptor, M: int) -> QuadratureRule:
    """Build and validate the 1/M-quadrature rule for cardinality M."""
    k, eps, tau = tau_for_cardinality(space, M)
    lo, hi = validity_interval(space, tau)
    nodes, weights = _bordered_rule(space, M, k, eps)
    if not _in_interval(nodes[-1], lo, hi):
        raise ConvergenceError(
            f"separation {nodes[-1]} for M={M} outside the level-{tau}"
            f" validity interval [{lo}, {hi}]"
        )
    return _rule_from_nodes(space, M, k, eps, tau, nodes, weights)


def odd_branch_rule(space: SpaceDescriptor, M: int) -> QuadratureRule:
    """Odd-level rule extended past its validity interval.

    For M in an even interval (D(2k), D(2k+1)] the level 2k-1 function
    keeps increasing on [t_k^{1,0}, t_k) where t_k is the largest zero of
    Q_k, so the same construction still yields a rule (generally weaker).
    For M served by an odd level this is the ordinary rule.
    """
    k, eps, tau = tau_for_cardinality(space, M)
    if eps == 0:
        return replace(quadrature_rule(space, M), odd_branch=True)
    lo = largest_zero(adjacent_system(space, 1, 0, k), k)
    hi = largest_zero(adjacent_system(space, 0, 0, k), k)
    nodes, weights = _bordered_rule(space, M, k, 0)
    s = nodes[-1]
    if not (lo - 1e-12 * (hi - lo) <= s < hi):
        raise ConvergenceError(f"odd-branch separation {s} escaped [{lo}, {hi})")
    return _rule_from_nodes(space, M, k, 0, 2 * k - 1, nodes, weights, odd_branch=True)


def _bordered_rule(space: SpaceDescriptor, M: int, k: int, eps: int):
    """Nodes and weights of the 1/M-rule at level 2k-1+eps; the last node is s.

    Against (1+t)^eps dnu the rule is a Gauss rule with the extra node
    t = 1 of prescribed weight (1+eps)/M.  It is the Gauss rule of the
    (0,eps) Jacobi matrix bordered by one row and column (Golub, SIAM
    Rev. 1973): the last diagonal entry c = 1 - g'*v_{k-1}/v_k makes 1
    an eigenvalue, and the last off-diagonal sqrt(g') gives it that
    weight.  1 is the top eigenvalue; the k others are the nodes besides
    -1, with weights gamma_0 v_0i^2 / (1 + alpha_i)^eps.  The weight at
    -1 (eps = 1) is left 0 for :func:`_rule_from_nodes`.
    """
    system = adjacent_system(space, 0, eps, k)
    b, g, r, v = system.rec_beta, system.rec_gamma, system.norms, system.value_at_one
    # the denominator is (M - D(tau-1)) / q1^eps, with D(0) = 1: positive
    # for every M the level serves
    g_border = g[k] * r[k] / (M * g[0] / (1 + eps) - np.sum(r[:k]))
    c = 1.0 - g_border * v[k - 1] / v[k]
    x, w = rec.gauss(np.append(b[:k], c), np.append(g[:k], g_border), k + 1)
    x, w = x[:-1], w[:-1] / (1.0 + x[:-1]) ** eps
    return np.concatenate([[-1.0] * eps, x]), np.concatenate([[0.0] * eps, w])


def _rule_from_nodes(space, M, k, eps, tau, nodes, weights, odd_branch=False) -> QuadratureRule:
    s = float(nodes[-1])
    if abs(_lev_value(space, tau, s) - M) > _SOLVE_RTOL * M:
        raise ConvergenceError(f"L_{tau}(s) misses M={M} at the separation s={s}")
    if np.any(np.diff(nodes) <= 0):
        raise ConvergenceError("quadrature nodes are not strictly increasing")
    if eps:
        # The weight at -1 vanishes at the bottom of the level.  The rule
        # applied to (1-t) Q_k^{1,0}(t) prod_{i<k} (t - alpha_i), of degree
        # tau and mean 0, gives it as a product, accurate relative to its
        # size.
        inner = nodes[1:-1]
        q = eval_q_all(adjacent_system(space, 1, 0, k), k, np.array([-1.0, s]))[k]
        weights[0] = (
            -weights[-1] * (1 - s) * q[1] * np.prod(s - inner) / (2 * q[0] * np.prod(-1 - inner))
        )
    if np.any(weights <= 0):
        raise ConvergenceError(
            f"nonpositive quadrature weight for M={M}: {weights}"
        )
    residual = 0.0
    for m, b_m in enumerate(pmspace.moments(space, tau).tolist()):
        lhs = 1.0 / M + float(np.dot(weights, nodes**m))
        residual = max(residual, abs(lhs - b_m))
    if residual > _POWER_SUM_TOL:
        raise ConvergenceError(
            f"power-sum residual {residual:.2e} too large for M={M}"
        )
    return QuadratureRule(
        space, int(M), k, eps, tau, s, nodes, weights, residual, odd_branch
    )


def lev_polynomial(space: SpaceDescriptor, M: int) -> np.ndarray:
    """Q-coefficients of the level polynomial (t+1)^eps (t-s) T_{k-1}^{1,eps}(t,s)^2.

    Degree tau; vanishes at every node; attains f(1)/f_0 = M.
    """
    rule = quadrature_rule(space, M)
    return _lev_polynomial_from_rule(space, rule)


def _lev_polynomial_from_rule(space: SpaceDescriptor, rule: QuadratureRule) -> np.ndarray:
    k, eps, s = rule.k, rule.epsilon, rule.s

    def level(t):
        return (t + 1.0) ** eps * (t - s) * orthopoly.cd_kernel(space, 1, eps, k - 1, t, s) ** 2

    return orthopoly._project(space, level, rule.tau)


def _split(tau: int):
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    eps = (tau + 1) % 2
    k = (tau + 1 - eps) // 2
    return k, eps
