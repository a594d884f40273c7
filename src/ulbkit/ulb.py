"""Universal lower bounds on code energy, with interpolation certificates.

For a cardinality M served by the level-tau quadrature rule, the energy
of every M-point code is at least M^2 * sum_i rho_i h(alpha_i) whenever
h is absolutely monotone.  The bound is witnessed by the Hermite
interpolant of h at the (mostly doubled) nodes: a polynomial below h
with nonnegative expansion coefficients, and it cannot be beaten by any
feasible polynomial of degree at most tau.  Test functions P_j decide
whether higher-degree polynomials can improve it.
"""

import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import orthopoly, pmspace
from .errors import ConditionError, ConvergenceError, MonotonicityError, ParameterError
from .levenshtein import QuadratureRule, odd_branch_rule, quadrature_rule
from .orthopoly import adjacent_system, eval_q_all, poly_eval
from .pmspace import SpaceDescriptor
from .potentials import Potential, check_absolutely_monotone

_FGEQ_TOL = -1e-8
_BELOW_TOL = 1e-9
_IDENTITY_TOL = 1e-9
# where the shifted potential of an improvement is checked for monotonicity
_ETA_GRID = np.linspace(-1.0, 1.0 - 1e-4, 401)
# derivative function -> highest order its potential passed the check at.
# Keyed on the instance's function, not on its name and parameters: a
# Potential is unhashable (params is a dict), and potentials that share a
# name can differ, as the shifted ones of an improvement do.
_MONOTONE_TO = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CertificateChecks:
    below_h: bool
    f_geq: bool
    min_q_coefficient: float
    max_excess: float  # most positive value of f - h on the grid
    worst_t: float


@dataclass(frozen=True, eq=False)
class UlbReport:
    space: SpaceDescriptor
    M: int
    rule: QuadratureRule
    value_sum: float
    value_mean: float
    certificate: np.ndarray  # Q-coefficients f_0..f_tau
    certificate_checks: CertificateChecks
    energy_convention: str = "sum"
    improvement: dict | None = None

    @property
    def value(self) -> float:
        return self.value_sum if self.energy_convention == "sum" else self.value_mean

    @property
    def odd_branch(self) -> bool:
        return self.rule.odd_branch


@dataclass(frozen=True, eq=False)
class TestFunctionReport:
    space: SpaceDescriptor
    M: int
    s: float
    tau: int
    js: tuple
    values: tuple
    first_negative_j: int | None


def ulb(
    space: SpaceDescriptor,
    M: int,
    h: Potential,
    convention: str = "sum",
    abs_tol: float = _BELOW_TOL,
    rel_tol: float = _IDENTITY_TOL,
) -> UlbReport:
    """Universal lower bound on the energy of M-point codes.

    Parameters
    ----------
    space : SpaceDescriptor
    M : int
        Cardinality, at least 2.
    h : Potential
        Must be absolutely monotone up to order tau + 1; checked, and
        refused otherwise since the bound's hypothesis would fail.
    convention : str
        "sum" bounds the full ordered pair sum; "mean" divides by M.
    abs_tol, rel_tol : float
        Grid tolerance of the pointwise certificate check, and relative
        tolerance of the certificate-vs-quadrature value cross-check.

    Returns
    -------
    UlbReport
        Bound values in both conventions plus the validated certificate.
    """
    rule = quadrature_rule(space, M)
    return _report_from_rule(space, rule, h, convention, abs_tol=abs_tol, rel_tol=rel_tol)


def ulb_odd_branch(
    space: SpaceDescriptor,
    M: int,
    h: Potential,
    convention: str = "sum",
    abs_tol: float = _BELOW_TOL,
    rel_tol: float = _IDENTITY_TOL,
) -> UlbReport:
    """The odd-level bound, valid on even intervals as well (weaker there)."""
    rule = odd_branch_rule(space, M)
    return _report_from_rule(space, rule, h, convention, abs_tol=abs_tol, rel_tol=rel_tol)


def _report_from_rule(
    space, rule, h, convention="sum", certificate=None, value_sum=None, check_value=True,
    abs_tol=_BELOW_TOL, rel_tol=_IDENTITY_TOL,
):
    if convention not in ("sum", "mean"):
        raise ParameterError(f"unknown energy convention {convention!r}")
    _require_monotone(h, rule.tau + 1)
    M = rule.M
    if value_sum is None:
        value_sum = M * M * float(np.dot(rule.weights, h(rule.nodes)))
    if certificate is None:
        certificate = hermite_certificate(rule, h)
    checks = verify_certificate(space, certificate, h, below_tol=abs_tol)
    if check_value:
        _check_value_identity(rule, certificate, value_sum, rel_tol)
    return UlbReport(
        space, M, rule, value_sum, value_sum / M, certificate, checks, convention
    )


def _require_monotone(h: Potential, order: int):
    """Refuse h unless absolutely monotone to order; a pass is remembered, a failure not."""
    deriv = getattr(h, "_deriv", None)
    try:
        if _MONOTONE_TO.get(deriv, -1) >= order:
            return
    except TypeError:  # no weak reference to it: checked on every call
        deriv = None
    ok, violation = check_absolutely_monotone(h, order)
    if not ok:
        raise MonotonicityError(
            f"{h.label()} is not absolutely monotone to order {order}; "
            f"first violation {violation}"
        )
    if deriv is not None:
        _MONOTONE_TO[deriv] = order


def _check_value_identity(rule, certificate, value_sum, rel_tol=_IDENTITY_TOL):
    # the certificate must reproduce the bound through M*(f_0*M - f(1)),
    # where f_0 is the constant Q-coefficient and f(1) their sum
    f0 = float(certificate[0])
    f1 = float(np.sum(certificate))
    alt = rule.M * (f0 * rule.M - f1)
    if not (abs(alt - value_sum) <= rel_tol * max(1.0, abs(value_sum))):
        raise ConditionError(
            f"certificate value {alt} disagrees with quadrature value {value_sum}",
            where=None,
        )


def hermite_certificate(rule: QuadratureRule, h: Potential) -> np.ndarray:
    """Hermite interpolant of h at the rule's nodes, in the Q-basis.

    Every node is matched to first order except a node at -1, which is
    matched to order zero only.  The tau+1 coefficients f_0..f_tau solve
    sum_i f_i Q_i(a) = h(a) and sum_i f_i Q_i'(a) = h'(a) over the
    matched nodes a.
    """
    nodes = rule.nodes
    skip = int(rule.epsilon == 1 and abs(nodes[0] + 1.0) <= 1e-12)  # no slope at -1
    deg = 2 * len(nodes) - 1 - skip
    q = orthopoly.eval_q_derivatives(adjacent_system(rule.space, 0, 0, deg), deg, 1, nodes)
    lhs = np.hstack([q[:, 0], q[:, 1, skip:]]).T
    rhs = np.concatenate([h(nodes), h.deriv(nodes[skip:], 1)])
    return np.linalg.solve(lhs, rhs)


def verify_certificate(
    space: SpaceDescriptor, f: np.ndarray, h: Potential, below_tol: float = _BELOW_TOL
) -> CertificateChecks:
    """Check the two bound conditions for a candidate polynomial, given its Q-coefficients.

    ``below_h``: f <= h on a dense grid of T(M) minus the point 1,
    with tolerance below_tol * (1 + |h|); ``f_geq``: all coefficients of
    the expansion in the Q-system are nonnegative (within -1e-8).
    Failures are reported as data.
    """
    grid = pmspace.verification_grid(space)
    fv = poly_eval(space, f, grid)
    hv = np.asarray(h(grid), dtype=float)
    excess = fv - hv
    tol = below_tol * (1.0 + np.abs(hv))
    worst = int(np.argmax(excess - tol))
    below = bool(np.all(excess <= tol))
    minq = float(np.min(f))
    return CertificateChecks(
        below_h=below,
        f_geq=bool(minq >= _FGEQ_TOL),
        min_q_coefficient=minq,
        max_excess=float(excess[worst]),
        worst_t=float(grid[worst]),
    )


def test_functions(space: SpaceDescriptor, M: int, j_range) -> TestFunctionReport:
    """Values P_j = 1/M + sum_i rho_i Q_j(alpha_i).

    P_j vanishes for 1 <= j <= tau; a negative value at some j > tau
    flags that degree-j polynomials can improve the bound.
    """
    rule = quadrature_rule(space, M)
    return _test_functions_from_rule(space, rule, j_range)


def _test_functions_from_rule(space, rule, j_range) -> TestFunctionReport:
    js = sorted(set(int(j) for j in j_range))
    if js and js[0] < 0:
        raise ParameterError("test function indices must be nonnegative")
    jmax = max(js) if js else 0
    system = adjacent_system(space, 0, 0, jmax)
    qvals = eval_q_all(system, jmax, rule.nodes) if js else np.zeros((1, 0))
    values = []
    for j in js:
        values.append(1.0 / rule.M + float(np.dot(rule.weights, qvals[j])))
    first_neg = next((j for j, v in zip(js, values) if j > rule.tau and v < -1e-8), None)
    return TestFunctionReport(
        space, rule.M, rule.s, rule.tau, tuple(js), tuple(values), first_neg
    )


def improve_with_qj(
    space: SpaceDescriptor,
    M: int,
    h: Potential,
    j: int,
    eta: float | None = None,
    convention: str = "sum",
) -> UlbReport:
    """Improve the bound using the degree-j system polynomial.

    Requires P_j < 0 and h strictly absolutely monotone through order
    j+1.  The improved certificate is eta*Q_j plus the Hermite
    interpolant of h - eta*Q_j, and the bound increases by exactly
    M^2 * eta * |P_j|.
    """
    rule = quadrature_rule(space, M)
    return _improve_given_rule(space, rule, h, j, eta, convention)


def _improve_given_rule(space, rule, h, j, eta=None, convention="sum", check_value=True):
    if j <= rule.tau:
        raise ParameterError(f"improvement needs j > tau={rule.tau}, got {j}")
    report = _test_functions_from_rule(space, rule, [j])
    pj = report.values[0]
    if pj >= -1e-8:
        raise ParameterError(
            f"test function P_{j} = {pj:.3e} is not negative; no improvement available"
        )
    _require_monotone(h, j + 1)
    system = adjacent_system(space, 0, 0, j)

    def qj(order, t):
        # derivatives of Q_j of orders 0..order at t
        return orthopoly.eval_q_derivatives(system, j, order, t)[j]

    if eta is None:
        eta = _admissible_eta(h, qj, j)
    else:
        if eta <= 0:
            raise ParameterError("eta must be positive")
        if not check_absolutely_monotone(_shifted(h, qj, eta), j + 1, _ETA_GRID)[0]:
            raise ParameterError(f"supplied eta={eta} breaks absolute monotonicity")
    g = hermite_certificate(rule, _shifted(h, qj, eta))
    f = np.zeros(j + 1)  # the Hermite part has degree <= tau < j
    f[: len(g)] = g
    f[j] = eta
    M = rule.M
    base = M * M * float(np.dot(rule.weights, h(rule.nodes)))
    improved = base - M * M * eta * pj
    out = _report_from_rule(
        space, rule, h, convention, certificate=f, value_sum=improved, check_value=check_value
    )
    return replace(out, improvement={"j": j, "eta": eta, "p_j": pj, "base_value_sum": base})


def _admissible_eta(h, qj, j, floor=1e-12):
    """Largest convenient eta > 0 keeping h - eta*Q_j absolutely monotone.

    Starts from the smallest derivative margin on a grid and halves
    until the shifted potential passes the monotonicity check.
    """
    grid = np.linspace(-1.0, 1.0 - 1e-4, 201)
    eta0 = np.inf
    dq = np.abs(qj(j + 1, grid))
    for order in range(j + 2):
        hv = np.asarray(h.deriv(grid, order), dtype=float)
        mask = dq[order] > 1e-14
        if np.any(mask):
            eta0 = min(eta0, float(np.min(hv[mask] / dq[order][mask])))
    eta = eta0 if np.isfinite(eta0) and eta0 > 0 else 1.0
    while eta >= floor:
        if check_absolutely_monotone(_shifted(h, qj, eta), j + 1, _ETA_GRID)[0]:
            return eta
        eta *= 0.5
    raise ConvergenceError(f"no admissible eta found for improvement with j={j}")


def _shifted(h, qj, eta):
    """The potential h - eta*Q_j."""
    return Potential(
        f"{h.name}-eta*Q_j",
        _deriv=lambda t, order: h.deriv(t, order) - eta * qj(order, t)[order],
    )
