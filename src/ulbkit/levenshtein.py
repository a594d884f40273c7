"""Design bounds, the Levenshtein cardinality bound, and 1/M-quadrature rules.

Levels are indexed tau = 2k - 1 + eps with eps in {0, 1}.  A cardinality
M determines its level through the design-bound intervals
(D(tau), D(tau+1)], and solving L_tau(s) = M on the validity interval
yields the separation s, the nodes alpha_i, and positive weights rho_i
of the exact integration identity

    f_0 = f(1)/M + sum_i rho_i f(alpha_i),   deg f <= tau.
"""

from dataclasses import dataclass

import numpy as np

from . import orthopoly, pmspace
from .errors import ConvergenceError, DegreeOverflowError, ParameterError
from .orthopoly import PolyCoeffs, adjacent_system, eval_q, eval_q_all, kernel_zeros, largest_zero
from .pmspace import SpaceDescriptor

_POWER_SUM_TOL = 1e-7
_MAX_BISECT = 200
_SOLVE_RTOL = 1e-10


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


def validity_interval(space: SpaceDescriptor, tau: int):
    """Separation interval [t_{k-1+eps}^{1,1-eps}, t_k^{1,eps}] of level tau."""
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
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - pad <= s <= hi + pad):
        raise ParameterError(
            f"s={s} outside the level-{tau} validity interval [{lo}, {hi}]"
        )
    return _lev_value(space, tau, s)


def _lev_value(space: SpaceDescriptor, tau: int, s: float) -> float:
    k, eps = _split(tau)
    num = eval_q(adjacent_system(space, 1, eps, k - 1), k - 1, s)
    system = adjacent_system(space, 0, eps, k)
    den = eval_q(system, k, s)
    head = float(np.sum(system.norms[:k]))
    return pmspace.q1_value(space) ** eps * (1.0 - num / den) * head


def tau_for_cardinality(space: SpaceDescriptor, M: int):
    """Level (k, eps, tau) serving cardinality M: D(tau) < M <= D(tau+1).

    The bottom boundary M equal to D(1) is served by the level tau=1
    rule with s = -1 whenever D(1) is an achievable integer cardinality.
    """
    if M < 2 or int(M) != M:
        raise ParameterError("M must be an integer >= 2")
    d1 = design_bound(space, 1)
    if M < d1 - 1e-9:
        raise ParameterError(
            f"M={M} is below the level-1 design bound {d1:g} of {space.label()};"
            " no quadrature rule exists"
        )
    if abs(M - d1) <= 1e-9:
        return 1, 0, 1
    tau = 1
    while True:
        try:
            d_next = design_bound(space, tau + 1)
        except DegreeOverflowError:
            raise DegreeOverflowError(
                f"M={M} exceeds the level capacity of {space.label()}"
                f" (needs tau > {tau})"
            ) from None
        if M <= d_next + 1e-9:
            k, eps = _split(tau)
            return k, eps, tau
        tau += 1


def solve_separation(space: SpaceDescriptor, M: int) -> float:
    """The unique s with L_tau(s) = M on the level's validity interval."""
    _, _, tau = tau_for_cardinality(space, M)
    lo, hi = validity_interval(space, tau)
    return _solve_on(space, tau, M, lo, hi)


def _solve_on(space: SpaceDescriptor, tau: int, M: int, lo: float, hi: float) -> float:
    f_lo = _lev_value(space, tau, lo) - M
    f_hi = _lev_value(space, tau, hi) - M
    # L at an end rounds to either side of M by an amount that grows with M,
    # so an end is held to the same residual check as a bisected s
    if abs(f_lo) <= _SOLVE_RTOL * M:
        return lo
    if abs(f_hi) <= _SOLVE_RTOL * M:
        return hi
    if f_lo > 0 or f_hi < 0:
        raise ConvergenceError(
            f"M={M} not bracketed by level {tau} on [{lo}, {hi}]"
        )
    a, b = lo, hi
    # bisect to the last representable midpoint: where dL/ds is large a
    # width tolerance in s would leave a residual the check below rejects
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = _lev_value(space, tau, mid) - M
        if fm == 0.0:
            return mid
        if fm < 0:
            a = mid
        else:
            b = mid
    s = 0.5 * (a + b)
    if abs(_lev_value(space, tau, s) - M) > _SOLVE_RTOL * M:
        raise ConvergenceError(f"separation solve did not converge for M={M}")
    return s


def quadrature_rule(space: SpaceDescriptor, M: int) -> QuadratureRule:
    """Build and validate the 1/M-quadrature rule for cardinality M."""
    k, eps, tau = tau_for_cardinality(space, M)
    s = solve_separation(space, M)
    return _rule_from_separation(space, M, k, eps, tau, s)


def odd_branch_rule(space: SpaceDescriptor, M: int) -> QuadratureRule:
    """Odd-level rule extended past its validity interval.

    For M in an even interval (D(2k), D(2k+1)] the level 2k-1 function
    keeps increasing on [t_k^{1,0}, t_k) where t_k is the largest zero of
    Q_k, so the same construction still yields a rule (generally weaker).
    For M served by an odd level this is the ordinary rule.
    """
    k, eps, tau = tau_for_cardinality(space, M)
    if eps == 0:
        rule = quadrature_rule(space, M)
        return QuadratureRule(
            space, M, rule.k, rule.epsilon, rule.tau, rule.s,
            rule.nodes, rule.weights, rule.power_sum_residual, odd_branch=True,
        )
    tau_odd = 2 * k - 1
    lo = largest_zero(adjacent_system(space, 1, 0, k), k)
    hi = largest_zero(adjacent_system(space, 0, 0, k), k)
    span = hi - lo
    s = _solve_on(space, tau_odd, M, lo, hi - 1e-13 * max(1.0, abs(hi)))
    if not (lo - 1e-12 * span <= s < hi):
        raise ConvergenceError(f"odd-branch separation {s} escaped [{lo}, {hi})")
    return _rule_from_separation(space, M, k, 0, tau_odd, s, odd_branch=True)


def _rule_from_separation(space, M, k, eps, tau, s, odd_branch=False) -> QuadratureRule:
    kernel_system = adjacent_system(space, 1, eps, k - 1)
    inner = kernel_zeros(kernel_system, k - 1, s)
    if len(inner) != k - 1:
        raise ConvergenceError(
            f"expected {k - 1} interior nodes, found {len(inner)}"
        )
    nodes = [s] if abs(s + 1.0) <= 1e-12 else ([-1.0] * eps + list(inner) + [s])
    nodes = np.array(sorted(nodes))
    if np.any(np.diff(nodes) <= 0):
        raise ConvergenceError("quadrature nodes are not strictly increasing")
    # f_0 = f(1)/M + sum_j rho_j f(alpha_j) for f = Q_i, i < len(nodes)
    deg = len(nodes) - 1
    rhs = np.full(deg + 1, -1.0 / M)
    rhs[0] += 1.0
    weights = np.linalg.solve(eval_q_all(adjacent_system(space, 0, 0, deg), deg, nodes), rhs)
    if np.any(weights <= 0):
        raise ConvergenceError(
            f"nonpositive quadrature weight for M={M}: {weights}"
        )
    residual = 0.0
    for m in range(tau + 1):
        lhs = 1.0 / M + float(np.dot(weights, nodes**m))
        residual = max(residual, abs(lhs - pmspace.moment(space, m)))
    if residual > _POWER_SUM_TOL:
        raise ConvergenceError(
            f"power-sum residual {residual:.2e} too large for M={M}"
        )
    return QuadratureRule(
        space, int(M), k, eps, tau, float(s), nodes, weights, residual, odd_branch
    )


def lev_polynomial(space: SpaceDescriptor, M: int) -> PolyCoeffs:
    """The level polynomial (t+1)^eps (t-s) T_{k-1}^{1,eps}(t,s)^2.

    Degree tau; vanishes at every node; attains f(1)/f_0 = M.
    """
    rule = quadrature_rule(space, M)
    return _lev_polynomial_from_rule(space, rule)


def _lev_polynomial_from_rule(space: SpaceDescriptor, rule: QuadratureRule) -> PolyCoeffs:
    k, eps, s = rule.k, rule.epsilon, rule.s
    system = adjacent_system(space, 1, eps, k - 1)
    # kernel coefficients r_i Q_i(s) of T_{k-1}(t, s) = sum_i r_i Q_i(t) Q_i(s)
    kern = system.norms[:k] * eval_q_all(system, k - 1, s)

    def level(t):
        return (t + 1.0) ** eps * (t - s) * (kern @ eval_q_all(system, k - 1, t)) ** 2

    return orthopoly._project(space, level, rule.tau)


def _split(tau: int):
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    eps = (tau + 1) % 2
    k = (tau + 1 - eps) // 2
    return k, eps
