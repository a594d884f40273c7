import math

import numpy as np
import pytest

from ulbkit import asymptotics as asy
from ulbkit import levenshtein as lev
from ulbkit.errors import ParameterError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin

GAUSS = builtin("gaussian", c=1)


def _query(family="sphere", tau=3, delta=0.0, rho=None, ns=(), h=GAUSS):
    return asy.AsymptoticQuery(family, tau, h, delta=delta, rho=rho, n_range=tuple(ns))


def remainder_sequence(query):
    """(n, remainder) pairs from the sweep."""
    return [(row["n"], row["remainder"]) for row in asy.sweep(query) if "remainder" in row]


def corollary_ratios(query):
    """(n, ratio1, ratio2) with ratio1 = bound/M^2, ratio2 = n*(ratio1 - h(0))."""
    return [
        (row["n"], row["ratio1"], row["ratio2"]) for row in asy.sweep(query) if "ratio1" in row
    ]


def test_query_validation():
    with pytest.raises(ParameterError):
        _query(family="johnson")
    with pytest.raises(ParameterError):
        _query(delta=-0.5)
    with pytest.raises(ParameterError):
        _query(rho=1.5)
    with pytest.raises(ParameterError, match="tau must be >= 1"):
        _query(tau=0)


@pytest.mark.parametrize("field, value", [("tau", 2.5), ("tau", math.nan), ("delta", math.nan),
                                          ("delta", math.inf)])
def test_query_needs_an_integer_tau_and_a_finite_delta(field, value):
    # tau 2.5 and a NaN or infinite delta used to be accepted
    with pytest.raises(ParameterError, match=f"{field}"):
        _query(**{field: value})
    query = _query(tau=3.0)
    assert query.tau == 3 and type(query.tau) is int
    assert asy.cardinality_sequence(query, 8) == asy.cardinality_sequence(_query(tau=3), 8)


def test_cardinality_targets():
    # bottom level: the target 2 is admitted exactly
    q1 = _query(tau=1, delta=0.0)
    for n in (8, 20, 64):
        M, clamped = asy.cardinality_sequence(q1, n)
        assert M == 2 and not clamped
    # degenerate low level with positive delta: M ~ (2 + delta) stays constant
    q1b = _query(tau=1, delta=1.0)
    M, _ = asy.cardinality_sequence(q1b, 16)
    assert M == 3
    # even level: M ~ n^2 (2-eps)/(k-1+eps)! = n^2/2, clamped at small n
    q4 = _query(tau=4, delta=0.0)
    M, clamped = asy.cardinality_sequence(q4, 30)
    d4 = lev.design_bound(make_space("sphere", n=30), 4)
    d5 = lev.design_bound(make_space("sphere", n=30), 5)
    assert d4 < M <= d5
    # tau=2 with delta=1: M ~ 2n
    q2 = _query(tau=2, delta=1.0)
    M, _ = asy.cardinality_sequence(q2, 24)
    assert M == 48


def test_cardinality_sequence_stays_on_its_level():
    # at delta=0 the targets of these levels often meet a design bound
    # D(tau) that rounds just below its integer (S^135 tau 9: M=29783252,
    # D(9)=29783251.999999993); each M_n is served at the query's level
    grid = [("sphere", tau, range(8, 2049, 8)) for tau in (6, 7, 8, 9)]
    grid += [("hamming", tau, range(8, 1001, 8)) for tau in (4, 6)]
    for family, tau, ns in grid:
        q = _query(family=family, tau=tau)
        for n in ns:
            M, _ = asy.cardinality_sequence(q, n)
            assert lev.tau_for_cardinality(q.space(n), M)[2] == tau, (family, tau, n, M)


@pytest.mark.parametrize(
    "family, tau, n", [("sphere", 9, 136), ("sphere", 8, 160), ("hamming", 6, 128)]
)
def test_sweep_builds_the_rule_at_the_query_level(family, tau, n):
    (row,) = asy.sweep(_query(family=family, tau=tau, rho=0.5, ns=(n,)))
    rule = lev.quadrature_rule(_query(family=family, tau=tau).space(n), row["M"])
    assert rule.tau == tau
    # -1 is a node exactly on even levels
    assert (row["alpha_0"] == -1.0) == (tau % 2 == 0)


def test_limit_expression_examples():
    # odd bottom level, delta=0: e^{-1} - 2
    assert asy.limit_expression(_query(tau=1)) == pytest.approx(math.exp(-1) - 2, abs=1e-14)
    # even level with rho=0: minus the Taylor value at 1
    q = _query(tau=2, rho=0.0)
    r1 = sum(GAUSS.deriv(0.0, j) / math.factorial(j) for j in range(3))
    assert asy.limit_expression(q) == pytest.approx(-r1, abs=1e-14)
    # a polynomial h of degree <= tau makes the difference term vanish
    poly_h = builtin("monomial", j=1)  # 1 + t, degree 1 = tau
    q = _query(tau=1, h=poly_h)
    assert asy.limit_expression(q) == pytest.approx(-poly_h(1.0), abs=1e-13)


def test_limit_needs_rho_for_even_levels():
    with pytest.raises(ParameterError):
        asy.limit_expression(_query(tau=2))


def test_remainder_sequence_bottom_level_exact():
    q = _query(tau=1, ns=range(8, 65, 4))
    rows = remainder_sequence(q)
    limit = asy.limit_expression(q)
    assert len(rows) == 15
    for _, value in rows:
        assert value == pytest.approx(limit, abs=1e-12)


def test_remainder_sequence_converges_at_higher_level():
    q = _query(tau=5, ns=range(8, 65, 4))
    limit = asy.limit_expression(q)
    errors = [abs(v - limit) for _, v in remainder_sequence(q)]
    # trend assertion over the top half of the range
    half = len(errors) // 2
    assert errors[-1] < errors[half] < errors[0]
    assert errors[-1] < 5e-5


def test_antipodal_moments_vanish_at_odd_orders():
    from ulbkit import pmspace

    for n in (8, 32):
        assert pmspace.moments(make_space("sphere", n=n), 3)[3] == 0.0
        assert pmspace.moments(make_space("hamming", n=n, q=2), 5)[5] == 0.0


def test_node_and_weight_limits_odd_case():
    # alpha_0 -> -1/delta_k and M rho_0 -> delta_k^{2k-1}; the errors
    # must shrink monotonically over the top half of the range
    for delta in (0.0, 1.0):
        q = _query(tau=3, delta=delta, ns=range(8, 65, 8))
        rows = asy.sweep(q)
        dk = q.delta_k
        a_err = [abs(r["alpha_0"] + 1.0 / dk) for r in rows]
        w_err = [abs(r["rho_0_M"] - dk ** (2 * q.k - 1)) for r in rows]
        half = len(rows) // 2
        assert all(x > y for x, y in zip(a_err[half:], a_err[half + 1 :]))
        assert all(x > y for x, y in zip(w_err[half:], w_err[half + 1 :]))
        assert a_err[-1] < 0.2 * max(1.0, 1.0 / dk)
        assert w_err[-1] < 0.1 * dk ** (2 * q.k - 1)


def test_node_and_weight_limits_even_case():
    q = _query(tau=4, ns=range(8, 49, 8))
    for row in asy.sweep(q):
        assert row["alpha_0"] == pytest.approx(-1.0, abs=1e-12)
        assert -1e-9 <= row["rho_0_M"] <= 1.0 + 1e-9


def test_inner_node_scaling_even_levels():
    # sqrt(n) * |alpha_1| stays inside a fixed positive bracket when tau = 2k
    q = _query(tau=4, ns=range(8, 65, 8))
    scaled = []
    for row in asy.sweep(q):
        space = make_space("sphere", n=row["n"])
        rule = lev.quadrature_rule(space, row["M"])
        scaled.append(math.sqrt(row["n"]) * abs(rule.nodes[1]))
    scaled = np.asarray(scaled)
    assert scaled.min() > 0.2
    assert scaled.max() < 4 * scaled.min()


def test_hamming_family_sweep():
    q = asy.AsymptoticQuery("hamming", 3, GAUSS, n_range=tuple(range(8, 49, 4)))
    rows = asy.sweep(q)
    limit = asy.limit_expression(q)
    errs = [abs(r["remainder"] - limit) for r in rows if "remainder" in r]
    assert errs and errs[-1] < 0.02
    # past n = 500, where the norms of the full systems underflow
    q = asy.AsymptoticQuery("hamming", 3, GAUSS, n_range=tuple(range(100, 1301, 200)))
    rows = asy.sweep(q)
    assert not [r for r in rows if "skipped" in r]
    errs = [abs(r["remainder"] - limit) for r in rows]
    assert all(a > b for a, b in zip(errs, errs[1:])) and errs[-1] < 3e-5


def test_corollary_ratios():
    q = _query(tau=5, ns=range(16, 65, 8))
    rows = corollary_ratios(q)
    h0 = GAUSS(0.0)
    for n, ratio1, ratio2 in rows:
        assert ratio1 >= h0 - 1e-9
    # second ratio approaches h''(0)/2 from below at this level
    ratio2_tail = [r2 for _, _, r2 in rows[len(rows) // 2 :]]
    target = GAUSS.deriv(0.0, 2) / 2
    assert all(r2 <= target + 1e-9 for r2 in ratio2_tail)
    assert ratio2_tail[-1] > target - 0.06
    assert ratio2_tail == sorted(ratio2_tail)


def test_constant_potential_degenerate_ratio():
    # a constant potential keeps ratio1 pinned at (M-1)/M * h(0)
    const = builtin("series", coeffs=[2.0])
    q = _query(tau=3, ns=(16, 32), h=const)
    for n, ratio1, _ in corollary_ratios(q):
        M = asy.cardinality_sequence(q, n)[0]
        assert ratio1 == pytest.approx(2.0 * (M - 1) / M, rel=1e-12)


def test_csv_columns_present():
    q = _query(tau=3, ns=(8, 12))
    row = asy.sweep(q)[0]
    for col in ("n", "M", "s", "alpha_0", "rho_0_M", "remainder", "limit", "ratio1", "ratio2"):
        assert col in row
