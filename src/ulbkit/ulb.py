"""Universal lower bounds on code energy, with interpolation certificates.

For a cardinality M served by the level-tau quadrature rule, the energy
of every M-point code is at least M^2 * sum_i rho_i h(alpha_i) whenever
h is absolutely monotone.  The bound is witnessed by the Hermite
interpolant of h at the (mostly doubled) nodes: a polynomial below h
with nonnegative expansion coefficients, and it cannot be beaten by any
feasible polynomial of degree at most tau.  Test functions P_j decide
whether higher-degree polynomials can improve it.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import orthopoly, pmspace
from .errors import ConditionError, ConvergenceError, MonotonicityError, ParameterError, integer
from .levenshtein import QuadratureRule, quadrature_rule
from .orthopoly import adjacent_system, eval_q_all
from .pmspace import SpaceDescriptor
from .potentials import Potential, check_absolutely_monotone

_FGEQ_TOL = -1e-8
# a test function P_j below this is negative: degree j can improve the bound
_PJ_NEGATIVE = -1e-8
_BELOW_TOL = 1e-9
_IDENTITY_TOL = 1e-9
# A potential's own record, h._memo, holds what bounds with that instance
# share, whatever the space and M: under "monotone_to" the highest order at
# which it passed the monotonicity check, and under each space the
# read-only h and _BELOW_TOL * (1 + |h|) on the space's verification grid.


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
    improvement: dict | None = None


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
    *,
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
    rel_tol : float
        Relative tolerance of the certificate-vs-quadrature value
        cross-check; must be finite and >= 0 (ParameterError otherwise).
        The pointwise certificate check has one fixed tolerance, see
        :func:`verify_certificate`.

    Returns
    -------
    UlbReport
        The bound on the ordered pair sum (``value_sum``) and that sum
        divided by M (``value_mean``), with the validated certificate.
    """
    rule = quadrature_rule(space, M)
    return _report_from_rule(rule, h, rel_tol=rel_tol)


def _report_from_rule(rule, h, certificate=None, value_sum=None, rel_tol=_IDENTITY_TOL):
    if not 0.0 <= rel_tol < np.inf:  # NaN fails too
        raise ParameterError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    _require_monotone(h, rule.tau + 1)
    M = rule.M
    m_squared = _float_square(M)
    h_nodes = h(rule.nodes) if value_sum is None or certificate is None else None
    if value_sum is None:
        value_sum = m_squared * float(np.dot(rule.weights, h_nodes))
    if certificate is None:
        certificate = hermite_certificate(rule, h, h_nodes)
    checks = verify_certificate(rule.space, certificate, h)
    _check_value_identity(rule, certificate, value_sum, rel_tol)
    return UlbReport(rule.space, M, rule, value_sum, value_sum / M, certificate, checks)


def _float_square(M: int) -> float:
    """M^2 as a float; ConditionError where it is past the float range (M > ~1.34e154)."""
    try:
        return float(M * M)
    except OverflowError:
        raise ConditionError(f"M={M} is too large: M^2 is past the float range") from None


def _require_monotone(h: Potential, order: int):
    """Refuse h unless absolutely monotone to order; a pass is remembered, a failure not."""
    if h._memo.get("monotone_to", -1) >= order:
        return
    ok, violation = check_absolutely_monotone(h, order)
    if not ok:
        raise MonotonicityError(
            f"{h.label()} is not absolutely monotone to order {order}; "
            f"first violation {violation}"
        )
    h._memo["monotone_to"] = order


def _check_value_identity(rule, certificate, value_sum, rel_tol=_IDENTITY_TOL):
    # the certificate must reproduce the bound through its LP value
    alt = orthopoly.lp_value(certificate, rule.M)
    if not (abs(alt - value_sum) <= rel_tol * max(1.0, abs(value_sum))):
        raise ConditionError(
            f"certificate value {alt} disagrees with quadrature value {value_sum}",
            where=None,
        )


def hermite_certificate(rule: QuadratureRule, h: Potential, h_nodes=None) -> np.ndarray:
    """Hermite interpolant of h at the rule's nodes, in the Q-basis.

    Every node is matched to first order except a node at -1, which is
    matched to order zero only.  The tau+1 coefficients f_0..f_tau solve
    sum_i f_i Q_i(a) = h(a) and sum_i f_i Q_i'(a) = h'(a) over the
    matched nodes a.  ``h_nodes``, when given, is h(rule.nodes).
    """
    nodes = rule.nodes
    m = len(nodes)
    skip = rule.epsilon  # no slope at -1, the first node of an even level
    deg = 2 * m - 1 - skip
    # row i: Q_i at the nodes, then Q_i' at the nodes; one equation per column
    table = orthopoly.eval_q_derivatives(adjacent_system(rule.space, 0, 0, deg), deg, 1, nodes)
    table = table.reshape(deg + 1, 2 * m)
    if skip:
        table[:, m:-1] = table[:, m + 1:]  # the slopes after the one at -1 move over it
    rhs = np.empty(deg + 1)
    rhs[:m] = h(nodes) if h_nodes is None else h_nodes
    rhs[m:] = h.deriv(nodes[skip:], 1)
    try:
        return np.linalg.solve(table[:, : deg + 1].T, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditionError(f"Hermite certificate solve failed ({exc}) on {rule.space.label()}"
                             f" at M={rule.M}, tau={rule.tau}") from None


def verify_certificate(space: SpaceDescriptor, f: np.ndarray, h: Potential) -> CertificateChecks:
    """Check the two bound conditions for a candidate polynomial, given its Q-coefficients.

    ``below_h``: f <= h on :func:`ulbkit.pmspace.verification_grid`, a
    dense grid of T(M) minus the point 1, with tolerance
    1e-9 * (1 + |h|); ``f_geq``: all coefficients of the expansion
    in the Q-system are nonnegative (within -1e-8).  f is evaluated from
    the space's cached table of Q_0..Q_deg on the grid
    (:func:`ulbkit.orthopoly.grid_table`), and h and the tolerance from
    the potential's cached row.  Failures are reported as data.
    """
    f = np.asarray(f, dtype=float)
    grid, fv, hv, tol = _values(space, f, h)
    below, worst, excess, minq, bad = _conditions(f, fv, hv, tol)
    return CertificateChecks(below, bad is None, minq, excess, float(grid[worst]))


def _values(space, f, h, t=None):
    """t, and f, h and _BELOW_TOL * (1 + |h|) at t; by default the verification grid, cached."""
    if t is not None:
        hv = np.asarray(h(t), dtype=float)
        return t, orthopoly.poly_eval(space, f, t), hv, _BELOW_TOL * (1.0 + np.abs(hv))
    grid = pmspace.verification_grid(space)
    fv = f @ orthopoly.grid_table(space, len(f) - 1)
    rows = h._memo.get(space)
    if rows is None:
        hv = np.array(h(grid), dtype=float)
        tol = _BELOW_TOL * (1.0 + np.abs(hv))
        hv.flags.writeable = tol.flags.writeable = False
        rows = h._memo[space] = hv, tol
    return (grid, fv, *rows)


def _conditions(f, fv, hv, tol, start=0, coeff_tol=-_FGEQ_TOL):
    """A lower bound's conditions, fv <= hv + tol and f_i >= -coeff_tol from i = start; NaN fails.

    Returns whether fv <= hv + tol holds, the index of the largest fv - hv - tol and fv - hv
    there, the least f_i from start (inf if none), and the first i that fails, or None.
    """
    excess = fv - hv
    worst = int((excess - tol).argmax())
    below = bool((excess <= tol).all())
    minq = float(f[start:].min(initial=np.inf))
    bad = None if minq >= -coeff_tol else start + int((f[start:] >= -coeff_tol).argmin())
    return below, worst, float(excess[worst]), minq, bad


def test_functions(space: SpaceDescriptor, M: int, j_range) -> TestFunctionReport:
    """Values P_j = 1/M + sum_i rho_i Q_j(alpha_i).

    P_j vanishes for 1 <= j <= tau; a negative value at some j > tau
    flags that degree-j polynomials can improve the bound.  ``j_range``
    must hold at least one index, each an integer >= 0 (ParameterError
    otherwise).
    """
    rule = quadrature_rule(space, M)
    return _test_functions_from_rule(rule, j_range)


def _test_functions_from_rule(rule, j_range) -> TestFunctionReport:
    js = sorted({integer("test_functions", "j", j) for j in j_range})
    if not js:
        raise ParameterError("test functions need at least one index")
    if js[0] < 0:
        raise ParameterError("test function indices must be nonnegative")
    qvals = eval_q_all(adjacent_system(rule.space, 0, 0, js[-1]), js[-1], rule.nodes)
    values = []
    for j in js:
        values.append(1.0 / rule.M + float(np.dot(rule.weights, qvals[j])))
    first_neg = next((j for j, v in zip(js, values) if j > rule.tau and v < _PJ_NEGATIVE), None)
    return TestFunctionReport(
        rule.space, rule.M, rule.s, rule.tau, tuple(js), tuple(values), first_neg
    )


def improve_with_qj(space: SpaceDescriptor, M: int, h: Potential, j: int) -> UlbReport:
    """Improve the bound using the degree-j system polynomial.

    Requires P_j < 0 and h strictly absolutely monotone through order
    j+1.  The improved certificate is eta*Q_j plus the Hermite
    interpolant of h - eta*Q_j, and the bound increases by exactly
    M^2 * eta * |P_j|, so eta is the largest step that keeps h - eta*Q_j
    absolutely monotone (see :func:`_admissible_eta`).
    """
    rule = quadrature_rule(space, M)
    return _improve_given_rule(rule, h, j)


def _improve_given_rule(rule, h, j):
    j = integer("improve_with_qj", "j", j)
    if j <= rule.tau:
        raise ParameterError(f"improvement needs j > tau={rule.tau}, got {j}")
    report = _test_functions_from_rule(rule, [j])
    pj = report.values[0]
    if pj >= _PJ_NEGATIVE:
        raise ParameterError(
            f"test function P_{j} = {pj:.3e} is not negative; no improvement available"
        )
    _require_monotone(h, j + 1)
    m_squared = _float_square(rule.M)
    system = adjacent_system(rule.space, 0, 0, j)

    def qj(order, t):
        # derivatives of Q_j of orders 0..order at t
        return orthopoly.eval_q_derivatives(system, j, order, t)[j]

    eta = _admissible_eta(h, qj, j)
    g = hermite_certificate(rule, _shifted(h, qj, eta))
    f = np.zeros(j + 1)  # the Hermite part has degree <= tau < j
    f[: len(g)] = g
    f[j] = eta
    base = m_squared * float(np.dot(rule.weights, h(rule.nodes)))
    improved = base - m_squared * eta * pj
    out = _report_from_rule(rule, h, certificate=f, value_sum=improved)
    return replace(out, improvement={"j": j, "eta": eta, "p_j": pj, "base_value_sum": base})


def _admissible_eta(h, qj, j, floor=1e-12):
    """The largest eta > 0 that keeps h - eta*Q_j absolutely monotone to order j+1.

    g = h - eta*Q_j has g^(j+1) = h^(j+1) >= 0 (Q_j has degree j, and h
    passed the monotonicity check to order j+1), so integrating up from -1
    gives g^(m) >= g^(m)(-1) on [-1, 1) for m = j down to 0: g is
    absolutely monotone exactly when every g^(m)(-1) >= 0, m <= j.  Only
    the orders with Q_j^(m)(-1) > 0 bind, so eta is the least
    h^(m)(-1)/Q_j^(m)(-1) over them; refused unless finite and >= ``floor``.
    """
    dq = qj(j, -1.0)
    up = dq > 0
    hv = np.array([h.deriv(-1.0, m) for m in np.flatnonzero(up)])
    eta = float(np.min(hv / dq[up]))  # NaN propagates, and is refused
    if not (np.isfinite(eta) and eta >= floor):
        raise ConvergenceError(f"no admissible eta found for improvement with j={j}")
    return eta


def _shifted(h, qj, eta):
    """The potential h - eta*Q_j."""
    return Potential(
        f"{h.name}-eta*Q_j",
        _deriv=lambda t, order: h.deriv(t, order) - eta * qj(order, t)[order],
    )
