import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ulbkit import levenshtein as lev
from ulbkit import orthopoly, pmspace
from ulbkit.errors import DegreeOverflowError, ParameterError
from ulbkit.pmspace import make_space

ALL_SPACES = [
    make_space("sphere", n=3),
    make_space("sphere", n=5),
    make_space("hamming", n=8, q=2),
    make_space("hamming", n=7, q=3),
    make_space("johnson", n=10, w=5),
    make_space("johnson", n=12, w=4),
    make_space("projective", n=4, field_dim=2),
    make_space("projective", n=3, field_dim=4),
]


def test_design_bound_examples():
    assert lev.design_bound(make_space("sphere", n=3), 3) == pytest.approx(6.0, abs=1e-10)
    assert lev.design_bound(make_space("sphere", n=3), 5) == pytest.approx(12.0, abs=1e-10)
    for n in (5, 8):
        assert lev.design_bound(make_space("hamming", n=n, q=2), 3) == pytest.approx(
            2 * n, abs=1e-9
        )


def test_design_bound_classical_values():
    import math

    # spheres: 2*C(n+k-2, n-1) at odd levels, C(n+k-1,n-1)+C(n+k-2,n-1) at even
    for n in (3, 4, 6):
        s = make_space("sphere", n=n)
        for k in (1, 2, 3):
            odd = 2 * math.comb(n + k - 2, n - 1)
            even = math.comb(n + k - 1, n - 1) + math.comb(n + k - 2, n - 1)
            assert lev.design_bound(s, 2 * k - 1) == pytest.approx(odd, rel=1e-12)
            assert lev.design_bound(s, 2 * k) == pytest.approx(even, rel=1e-12)
    # Hamming: the classical combinatorial bound
    for n, q in ((8, 2), (7, 3)):
        h = make_space("hamming", n=n, q=q)
        for k in (1, 2, 3):
            odd = q * sum(math.comb(n - 1, i) * (q - 1) ** i for i in range(k))
            even = sum(math.comb(n, i) * (q - 1) ** i for i in range(k + 1))
            assert lev.design_bound(h, 2 * k - 1) == pytest.approx(odd, rel=1e-10)
            assert lev.design_bound(h, 2 * k) == pytest.approx(even, rel=1e-10)
    # Johnson: (n/w)^(1-eps) style values with the telescoping even sums
    j = make_space("johnson", n=12, w=4)
    assert lev.design_bound(j, 2) == pytest.approx(12.0, abs=1e-9)
    assert lev.design_bound(j, 3) == pytest.approx(3 * math.comb(11, 1), abs=1e-9)
    assert lev.design_bound(j, 4) == pytest.approx(math.comb(12, 2), abs=1e-8)
    assert lev.design_bound(j, 5) == pytest.approx(3 * math.comb(11, 2), abs=1e-8)


def test_design_bound_nondecreasing():
    for space in ALL_SPACES:
        vals = []
        for tau in range(1, 8):
            try:
                vals.append(lev.design_bound(space, tau))
            except DegreeOverflowError:
                break
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_lev_bound_examples():
    for n in (3, 4, 7):
        s = make_space("sphere", n=n)
        assert lev.lev_bound(s, 1, -1 / n) == pytest.approx(n + 1, abs=1e-10)
    with pytest.raises(ParameterError):
        lev.lev_bound(make_space("sphere", n=3), 1, 0.4)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_endpoint_agreement(space):
    for tau in range(1, 8):
        try:
            lo, hi = lev.validity_interval(space, tau)
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            break
        assert lev.lev_bound(space, tau, lo) == pytest.approx(d_lo, abs=1e-7)
        assert lev.lev_bound(space, tau, hi) == pytest.approx(d_hi, abs=1e-7)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_lev_bound_strictly_increasing(space):
    for tau in (2, 3):
        lo, hi = lev.validity_interval(space, tau)
        grid = np.linspace(lo, hi, 100)
        vals = [lev.lev_bound(space, tau, s) for s in grid]
        assert np.all(np.diff(vals) > 0)


def test_tau_for_cardinality_examples():
    assert lev.tau_for_cardinality(make_space("sphere", n=3), 5) == (1, 1, 2)
    for n in (3, 5, 8):
        assert lev.tau_for_cardinality(make_space("sphere", n=n), n + 1) == (1, 0, 1)
    assert lev.tau_for_cardinality(make_space("hamming", n=8, q=2), 16) == (1, 1, 2)
    assert lev.tau_for_cardinality(make_space("sphere", n=3), 2) == (1, 0, 1)


def test_tau_for_cardinality_errors():
    with pytest.raises(ParameterError):
        lev.tau_for_cardinality(make_space("sphere", n=3), 1)
    with pytest.raises(ParameterError):
        lev.tau_for_cardinality(make_space("hamming", n=6, q=3), 2)  # below q1
    # a level needing kernel degrees beyond the space's cap fails loudly
    with pytest.raises(DegreeOverflowError):
        lev.quadrature_rule(make_space("johnson", n=12, w=4), 230)


def test_solve_separation_examples():
    for n in (3, 4, 6):
        s = make_space("sphere", n=n)
        assert lev.solve_separation(s, n + 1) == pytest.approx(-1 / n, abs=1e-11)
        assert lev.solve_separation(s, 2 * n) == pytest.approx(0.0, abs=1e-11)
    for space in ALL_SPACES:
        m = int(lev.design_bound(space, 2)) + 2
        sep = lev.solve_separation(space, m)
        _, _, tau = lev.tau_for_cardinality(space, m)
        assert lev.lev_bound(space, tau, sep) == pytest.approx(m, rel=1e-10)


@pytest.mark.parametrize(
    "n,M", [(290, 285), (262, 262), (353, 705), (318, 51038), (388, 75853)]
)
def test_solve_separation_where_lev_bound_is_steep(n, M):
    # large dL/ds: the solve must bisect to the last representable midpoint
    # to meet the residual check relative to M
    space = make_space("sphere", n=n)
    sep = lev.solve_separation(space, M)
    _, _, tau = lev.tau_for_cardinality(space, M)
    assert abs(lev.lev_bound(space, tau, sep) - M) <= 1e-10 * M


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 8}, 591261),
        ("sphere", {"n": 10}, 184756),
        ("sphere", {"n": 23}, 1937520),
        ("hamming", {"n": 30, "q": 2}, 32979092),
    ],
)
def test_solve_separation_at_large_design_bounds(family, params, M):
    # M equal to a design bound: s is an end of the validity interval, where
    # L rounds to either side of M by an amount that grows with M
    space = make_space(family, **params)
    _, _, tau = lev.tau_for_cardinality(space, M)
    sep = lev.solve_separation(space, M)
    assert sep in lev.validity_interval(space, tau)
    assert abs(lev.lev_bound(space, tau, sep) - M) <= 1e-10 * M


def test_quadrature_rule_closed_forms():
    for n in (3, 5, 8):
        s = make_space("sphere", n=n)
        rule = lev.quadrature_rule(s, n + 1)
        assert np.allclose(rule.nodes, [-1 / n], atol=1e-11)
        assert np.allclose(rule.weights, [n / (n + 1)], atol=1e-11)
        rule = lev.quadrature_rule(s, 2 * n)
        assert np.allclose(rule.nodes, [-1, 0], atol=1e-11)
        assert np.allclose(rule.weights, [1 / (2 * n), 1 - 1 / n], atol=1e-11)


def test_quadrature_rule_bottom_boundary():
    rule = lev.quadrature_rule(make_space("sphere", n=6), 2)
    assert rule.tau == 1 and rule.epsilon == 0
    assert np.allclose(rule.nodes, [-1.0])
    assert np.allclose(rule.weights, [0.5])
    # non-antipodal bottom: M equal to the level-1 bound q
    rule = lev.quadrature_rule(make_space("hamming", n=7, q=3), 3)
    assert rule.tau == 1
    assert np.allclose(rule.nodes, [-1.0])
    assert np.allclose(rule.weights, [2 / 3])


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_quadrature_rule_structure(space):
    for tau in range(1, 6):
        try:
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            break
        m = int(np.ceil((d_lo + d_hi) / 2))
        rule = lev.quadrature_rule(space, m)
        assert rule.tau == tau
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[-1] == rule.s
        assert (rule.epsilon == 1) == (abs(rule.nodes[0] + 1.0) < 1e-9)
        assert len(rule.nodes) == rule.k + rule.epsilon
        # power sums hold for every order up to tau, not just the solved ones
        for mm in range(tau + 1):
            lhs = 1 / rule.M + float(np.dot(rule.weights, rule.nodes**mm))
            assert lhs == pytest.approx(pmspace.moment(space, mm), abs=1e-8)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_quadrature_exactness_random_polys(space):
    rng = np.random.default_rng(11)
    for tau in (2, 3):
        d_hi = lev.design_bound(space, tau + 1)
        m = int(d_hi)  # right end of the interval, inclusive
        rule = lev.quadrature_rule(space, m)
        for _ in range(200):
            c = rng.uniform(-1, 1, rule.tau + 1)
            f0 = sum(ci * pmspace.moment(space, i) for i, ci in enumerate(c))
            resid = f0 - npoly.polyval(1.0, c) / m
            resid -= float(np.dot(rule.weights, npoly.polyval(rule.nodes, c)))
            assert abs(resid) <= 1e-9 * np.sum(np.abs(c))


def test_node_ordering_for_antipodal_spaces():
    # zig-zag ordering |a_last| > |a_{1+eps}| > |a_{last-1}| > |a_{2+eps}| > ...
    for space in [make_space("sphere", n=4), make_space("hamming", n=10, q=2)]:
        for tau in (5, 6, 7):
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
            rule = lev.quadrature_rule(space, int((d_lo + d_hi) // 2))
            upper = orthopoly.largest_zero(
                orthopoly.adjacent_system(space, 1, rule.epsilon), rule.k
            )
            seq = []
            left, right = 1 + rule.epsilon, len(rule.nodes) - 1
            toggle = True
            while right >= left:
                if toggle:
                    seq.append(abs(rule.nodes[right]))
                    right -= 1
                else:
                    seq.append(abs(rule.nodes[left]))
                    left += 1
                toggle = not toggle
            assert upper >= seq[0] - 1e-12
            assert all(a > b - 1e-12 for a, b in zip(seq, seq[1:]))


def test_lev_polynomial_examples():
    for n in (3, 6):
        s = make_space("sphere", n=n)
        poly = lev.lev_polynomial(s, n + 1)
        # linear polynomial proportional to t + 1/n
        assert poly.degree == 1
        assert poly.coeffs[0] / poly.coeffs[1] == pytest.approx(1 / n, abs=1e-11)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_lev_polynomial_properties(space):
    for m in (int(lev.design_bound(space, 2)) + 1, int(lev.design_bound(space, 4))):
        rule = lev.quadrature_rule(space, m)
        if space.max_degree is not None and rule.tau > space.max_degree:
            continue
        poly = lev.lev_polynomial(space, m)
        assert poly.degree == rule.tau
        scale = np.max(np.abs(orthopoly.poly_eval(space, poly, np.linspace(-1, 1, 101))))
        # vanishes at every node
        node_vals = orthopoly.poly_eval(space, poly, rule.nodes)
        assert np.max(np.abs(node_vals)) <= 1e-9 * scale
        # value at 1 over mean coefficient reproduces the cardinality
        qc = orthopoly.expand_in_q(space, poly).coeffs
        f1 = orthopoly.poly_eval(space, poly, 1.0)
        assert f1 / qc[0] == pytest.approx(m, rel=1e-8)
        # nonnegative expansion
        assert qc.min() >= -1e-8 * np.max(np.abs(qc))


def test_odd_branch_rule():
    s3 = make_space("sphere", n=3)
    rule = lev.odd_branch_rule(s3, 5)
    assert rule.odd_branch and rule.tau == 1
    assert np.allclose(rule.nodes, [-0.25], atol=1e-10)
    assert np.allclose(rule.weights, [0.8], atol=1e-10)
    # at the boundary cardinality both branches coincide
    main = lev.quadrature_rule(s3, 4)
    odd = lev.odd_branch_rule(s3, 4)
    assert np.allclose(main.nodes, odd.nodes, atol=1e-10)
    assert np.allclose(main.weights, odd.weights, atol=1e-10)


def test_rule_rejects_bad_cardinality():
    with pytest.raises(ParameterError):
        lev.quadrature_rule(make_space("sphere", n=3), 1)


def test_circle_design_bounds_are_polygon_sizes():
    s2 = make_space("sphere", n=2)
    for tau in range(1, 8):
        assert lev.design_bound(s2, tau) == pytest.approx(tau + 1, abs=1e-9)


def test_larger_alphabet_rule():
    rule = lev.quadrature_rule(make_space("hamming", n=9, q=5), 100)
    assert rule.power_sum_residual < 1e-12
    assert np.all(rule.weights > 0)
