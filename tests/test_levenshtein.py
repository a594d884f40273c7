import mpmath
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


def _linear_level(space, M):
    """The level map as a scan over the levels: the reference for lev._level_of."""
    d1 = lev.design_bound(space, 1)
    if M < d1 * (1.0 - lev._LEVEL_RTOL):
        raise ParameterError(
            f"M={M} is below the level-1 design bound {d1:g} of {space.label()};"
            " no quadrature rule exists"
        )
    tau = 1
    while True:
        try:
            d_next = lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            raise DegreeOverflowError(
                f"M={M} exceeds the level capacity of {space.label()}"
                f" (needs tau > {tau})"
            ) from None
        if M <= d_next * (1.0 + lev._LEVEL_RTOL):
            k, eps = lev._split(tau)
            return k, eps, tau
        tau += 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ParameterError, DegreeOverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "family, params",
    [
        ("sphere", {"n": 3}),
        ("sphere", {"n": 10}),
        ("hamming", {"n": 30, "q": 2}),
        ("johnson", {"n": 80, "w": 40}),
        ("projective", {"n": 4, "field_dim": 4}),
        ("projective", {"n": 3, "field_dim": 2}),
        ("hamming", {"n": 8, "q": 2}),
        ("johnson", {"n": 7, "w": 3}),
    ],
)
def test_level_map_matches_the_level_scan(family, params):
    space = make_space(family, **params)
    bounds = []
    for tau in range(1, 61):
        try:
            bounds.append(lev.design_bound(space, tau))
        except DegreeOverflowError:
            break
    # past a finite space's last level the scan and the map both overflow
    candidates = [2 * bounds[-1]]
    for d in bounds:
        candidates += [d - 1, d, d + 1, d * (1 - 1e-13), d * (1 + 1e-13)]
    for M in candidates:
        assert _outcome(lev._level_of, space, M) == _outcome(_linear_level, space, M), M
        if M >= 2 and int(M) == M:
            got = _outcome(lev.tau_for_cardinality, space, M)
            assert got == _outcome(_linear_level, space, M), M


def test_level_map_past_the_s2_norm_overflow():
    # D(2k-1) = k(k+1) and D(2k) = (k+1)^2 on S^2; the norms behind these
    # levels once overflowed, and both M mapped to tau 1076
    space = make_space("sphere", n=3)
    assert lev.tau_for_cardinality(space, 300000) == (547, 0, 1093)
    assert lev.tau_for_cardinality(space, 400000) == (631, 1, 1262)
    for tau, d in ((1093, 547 * 548), (1094, 548**2), (1262, 632**2), (1263, 632 * 633)):
        assert lev.design_bound(space, tau) == pytest.approx(d, rel=1e-11)


def test_level_map_stops_where_the_systems_stop():
    # S^2's systems end near degree 1027, where the monic values at 1 leave
    # the normal float range, so its levels end at tau 2054; the design
    # bounds once stopped growing there and this call never returned
    space = make_space("sphere", n=3)
    assert lev.design_bound(space, 2054) == pytest.approx(1028**2, rel=1e-11)
    for M in (2_000_000, 10**12):
        got = _outcome(lev.tau_for_cardinality, space, M)
        assert got == (DegreeOverflowError, f"M={M} exceeds the level capacity of S^2 (needs tau > 2054)")
        assert got == _outcome(_linear_level, space, M)


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
    # large dL/ds: an error of a few ulps in s must still meet the residual
    # check relative to M
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
    # M equal to a design bound: s is an end of the validity interval, up to
    # the rounding lev_bound allows, where L rounds to either side of M by an
    # amount that grows with M
    space = make_space(family, **params)
    _, _, tau = lev.tau_for_cardinality(space, M)
    sep = lev.solve_separation(space, M)
    lo, hi = lev.validity_interval(space, tau)
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert min(abs(sep - lo), abs(sep - hi)) <= pad
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
        b = pmspace.moments(space, tau)
        for mm in range(tau + 1):
            lhs = 1 / rule.M + float(np.dot(rule.weights, rule.nodes**mm))
            assert lhs == pytest.approx(b[mm], abs=1e-8)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_quadrature_exactness_random_polys(space):
    rng = np.random.default_rng(11)
    for tau in (2, 3):
        d_hi = lev.design_bound(space, tau + 1)
        m = int(d_hi)  # right end of the interval, inclusive
        rule = lev.quadrature_rule(space, m)
        b = pmspace.moments(space, rule.tau)
        for _ in range(200):
            c = rng.uniform(-1, 1, rule.tau + 1)
            f0 = sum(ci * bi for ci, bi in zip(c, b))
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
        assert len(poly) == 2
        assert poly[0] / poly[1] == pytest.approx(1 / n, abs=1e-11)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_lev_polynomial_properties(space):
    for m in (int(lev.design_bound(space, 2)) + 1, int(lev.design_bound(space, 4))):
        rule = lev.quadrature_rule(space, m)
        if space.max_degree is not None and rule.tau > space.max_degree:
            continue
        poly = lev.lev_polynomial(space, m)
        assert len(poly) == rule.tau + 1
        scale = np.max(np.abs(orthopoly.poly_eval(space, poly, np.linspace(-1, 1, 101))))
        # vanishes at every node
        node_vals = orthopoly.poly_eval(space, poly, rule.nodes)
        assert np.max(np.abs(node_vals)) <= 1e-9 * scale
        # value at 1 over mean coefficient reproduces the cardinality
        f1 = orthopoly.poly_eval(space, poly, 1.0)
        assert f1 / poly[0] == pytest.approx(m, rel=1e-8)
        # nonnegative expansion
        assert poly.min() >= -1e-8 * np.max(np.abs(poly))


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


def _mp_jacobi(alpha, beta, count):
    """Monic Jacobi recurrence (b, g) in mpmath; g[0] is left out (unused)."""
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
    ab = alpha + beta
    b, g = [(beta - alpha) / (ab + 2)], [None]
    for k in range(1, count):
        d = 2 * k + ab
        b.append((beta**2 - alpha**2) / (d * (d + 2)))
        if k == 1:
            g.append(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))
        else:
            g.append(4 * k * (k + alpha) * (k + beta) * (k + ab) / (d * d * (d + 1) * (d - 1)))
    return b, g


def _mp_monic(rec, deg, t):
    b, g = rec
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(deg):
        prev, cur = cur, (t - b[k]) * cur - (g[k] if k else 0) * prev
    return cur


def _mp_eigs(rec, deg, shift=0):
    b, g = rec
    J = mpmath.matrix(deg, deg)
    for i in range(deg):
        J[i, i] = b[i]
        if i:
            J[i, i - 1] = J[i - 1, i] = mpmath.sqrt(g[i])
    J[deg - 1, deg - 1] += shift
    return sorted(mpmath.eigsy(J, eigvals_only=True))


def _mp_rule_nodes(space, M):
    """Nodes of the 1/M-rule at 50 digits: L_tau(s) = M by bisection, and the
    interior nodes as zeros of the kernel T_{k-1}^{1,eps}(t, s)."""
    k, eps, _ = lev.tau_for_cardinality(space, M)
    a0, b0 = space.jacobi_exponents()
    rec0 = _mp_jacobi(a0, b0 + eps, k + 1)
    rec1 = _mp_jacobi(a0 + 1, b0 + eps, k + 1)
    one = mpmath.mpf(1)

    def q(rec, deg, t):
        return _mp_monic(rec, deg, t) / _mp_monic(rec, deg, one)

    # r_j = pi_j(1)^2 / (g_1 ... g_j); the mass of the measure cancels
    head, prod = mpmath.mpf(0), mpmath.mpf(1)
    for j in range(k):
        prod *= rec0[1][j] if j else 1
        head += _mp_monic(rec0, j, one) ** 2 / prod

    def lev_value(s):
        return pmspace.q1_value(space) ** eps * (1 - q(rec1, k - 1, s) / q(rec0, k, s)) * head

    lo = -one if k - 1 + eps == 0 else _mp_eigs(_mp_jacobi(a0 + 1, b0 + 1 - eps, k), k - 1 + eps)[-1]
    hi = _mp_eigs(rec1, k)[-1]
    assert lev_value(lo) <= M <= lev_value(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if lev_value(mid) < M:
            lo = mid
        else:
            hi = mid
    s = (lo + hi) / 2
    # T_{k-1}(t, s) is pi_k - c*pi_{k-1} of the (1,eps) system up to the root t = s
    c = _mp_monic(rec1, k, s) / _mp_monic(rec1, k - 1, s)
    roots = _mp_eigs(rec1, k, c)
    inner = [z for z in roots if abs(z - s) > mpmath.mpf(10) ** -30]
    assert len(inner) == k - 1
    return [-one] * eps + inner + [s]


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 3}, 825),
        ("sphere", {"n": 10}, 44264512),
        ("projective", {"n": 4, "field_dim": 4}, 5125840720),
        ("projective", {"n": 3, "field_dim": 2}, 118638),
    ],
)
def test_rule_nodes_match_mp_reference(family, params, M):
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    with mpmath.workdps(50):
        ref = np.array([float(z) for z in _mp_rule_nodes(space, M)])
    assert np.max(np.abs(rule.nodes - ref)) <= 1e-13


def _mp_rule_weights(space, nodes, M):
    """Weights of the rule at the 50-digit nodes: the Q-basis solve of
    f_0 = f(1)/M + sum_j rho_j f(alpha_j) for f = Q_0..Q_{len(nodes)-1}."""
    n = len(nodes)
    rec = _mp_jacobi(*space.jacobi_exponents(), n)
    one = mpmath.mpf(1)
    A = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = _mp_monic(rec, i, nodes[j]) / _mp_monic(rec, i, one)
    rhs = mpmath.matrix([(1 if i == 0 else 0) - one / M for i in range(n)])
    return mpmath.lu_solve(A, rhs)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 20}, 488494126),
        ("sphere", {"n": 40}, 1991564140),
        ("projective", {"n": 8, "field_dim": 2}, 231072490232),
    ],
)
def test_weight_at_minus_one_near_the_bottom_of_an_even_level(family, params, M):
    # a few units above D(tau) the weight at -1 is tiny but positive: its
    # sign and its digits must not be left to rounding
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    assert rule.epsilon == 1 and M - lev.design_bound(space, rule.tau) < 1e-6 * M
    with mpmath.workdps(50):
        ref = float(_mp_rule_weights(space, _mp_rule_nodes(space, M), M)[0])
    assert rule.weights[0] == pytest.approx(ref, rel=2e-4, abs=0)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("hamming", {"n": 40, "q": 2}, 23242039),
        ("hamming", {"n": 30, "q": 2}, 22964087),
        ("projective", {"n": 4, "field_dim": 4}, 150233760),
        ("projective", {"n": 3, "field_dim": 4}, 1456560),
        ("sphere", {"n": 10}, 1314610),
        ("hamming", {"n": 30, "q": 2}, 53009102),
    ],
)
def test_cardinality_equal_to_an_even_design_bound(family, params, M):
    # M = D(tau) up to rounding is served at the top of level tau-1, not at
    # the bottom of level tau, where the weight at -1 is zero in theory
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    assert lev.design_bound(space, rule.tau + 1) == pytest.approx(M, rel=1e-12)
    assert rule.tau % 2 == 1
    assert rule.weights.min() > 1e-8


def _mp_weights_at(space, nodes, M):
    """Weights of the rule at its own float nodes, solved at 40 digits:
    sum_j rho_j Q_i(alpha_j) = delta_i0 - 1/M for i < len(nodes), with the
    (0,0) recurrence coefficients converted to mp."""
    n = len(nodes)
    system = orthopoly.adjacent_system(space, 0, 0, n - 1)
    rec = ([mpmath.mpf(x) for x in system.rec_beta[:n]],
           [mpmath.mpf(x) for x in system.rec_gamma[:n]])
    one = mpmath.mpf(1)
    A = mpmath.matrix(n, n)
    for i in range(n):
        at_one = _mp_monic(rec, i, one)
        for j in range(n):
            A[i, j] = _mp_monic(rec, i, mpmath.mpf(nodes[j])) / at_one
    rhs = mpmath.matrix([(1 if i == 0 else 0) - one / M for i in range(n)])
    return mpmath.lu_solve(A, rhs)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("johnson", {"n": 80, "w": 40}, 5831250618),
        ("johnson", {"n": 80, "w": 40}, 2226245434203),
        ("hamming", {"n": 30, "q": 2}, 53199091),
        ("projective", {"n": 4, "field_dim": 4}, 193450991360),
        ("sphere", {"n": 10}, 44264512),
    ],
)
def test_rule_weights_match_mp_reference(family, params, M):
    # the interior weights are Golub-Welsch weights, sums of positive terms:
    # they keep their digits where a linear solve at high degree loses them
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    with mpmath.workdps(40):
        ref = np.array([float(w) for w in _mp_weights_at(space, rule.nodes, M)])
    inner = slice(rule.epsilon, None)
    assert np.max(np.abs(rule.weights[inner] / ref[inner] - 1)) <= 1e-10
