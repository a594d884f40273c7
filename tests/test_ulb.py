import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ulbkit import _recurrence as rec
from ulbkit import levenshtein as lev
from ulbkit import orthopoly, pmspace
from ulbkit.errors import (
    ConditionError, ConvergenceError, DegreeOverflowError, MonotonicityError, ParameterError,
)
from ulbkit.pmspace import make_space
from ulbkit.potentials import Potential, builtin
from ulbkit.ulb import (
    hermite_certificate,
    improve_with_qj,
    ulb,
    ulb_odd_branch,
    verify_certificate,
)
from ulbkit.ulb import test_functions as compute_test_functions
from ulbkit.ulb import _check_value_identity, _improve_given_rule, _test_functions_from_rule

RIESZ1 = builtin("riesz", p=1)
GAUSS = builtin("gaussian", c=1)


def test_simplex_value_matches_tetrahedron():
    rep = ulb(make_space("sphere", n=3), 4, RIESZ1)
    assert rep.value_sum == pytest.approx(12 * (3 / 8) ** 0.5, rel=1e-12)
    assert rep.value_sum == pytest.approx(7.348469, abs=1e-6)
    assert rep.value_mean == rep.value_sum / 4
    assert rep.certificate_checks.below_h and rep.certificate_checks.f_geq


@pytest.mark.parametrize("n", range(3, 9))
def test_cross_polytope_closed_form(n):
    space = make_space("sphere", n=n)
    for h in (RIESZ1, GAUSS):
        rep = ulb(space, 2 * n, h)
        expected = 2 * n * h(-1.0) + 4 * n * (n - 1) * h(0.0)
        assert rep.value_sum == pytest.approx(expected, rel=1e-12)


def test_hamming_pair_value():
    rep = ulb(make_space("hamming", n=8, q=2), 2, RIESZ1)
    assert rep.rule.tau == 1
    assert np.allclose(rep.rule.nodes, [-1.0])
    assert rep.value_sum == pytest.approx(2 * RIESZ1(-1.0), rel=1e-13)


def test_value_identity_against_certificate():
    # M^2 sum(rho h) must equal M (f_0 M - f(1)) for the certificate
    for space, M, h in [
        (make_space("sphere", n=4), 11, GAUSS),
        (make_space("hamming", n=8, q=2), 20, GAUSS),
        (make_space("projective", n=4, field_dim=2), 30, GAUSS),
        # tau 37..55, where certificates in monomial coefficients broke down
        (make_space("sphere", n=3), 400, RIESZ1),
        (make_space("sphere", n=3), 825, GAUSS),
        (make_space("sphere", n=3), 825, RIESZ1),
        (make_space("projective", n=3, field_dim=2), 27702, RIESZ1),
    ]:
        rep = ulb(space, M, h)
        f0 = rep.certificate[0]
        f1 = orthopoly.poly_eval(space, rep.certificate, 1.0)
        assert M * (f0 * M - f1) == pytest.approx(rep.value_sum, rel=1e-8)
        assert rep.certificate_checks.below_h and rep.certificate_checks.f_geq
        # every coefficient is kept, and the checks read all of them
        assert len(rep.certificate) == rep.rule.tau + 1
        assert rep.certificate_checks.min_q_coefficient == rep.certificate.min()


def test_hermite_reproduces_low_degree_polynomials():
    space = make_space("sphere", n=3)
    h = builtin("series", coeffs=[0.5, 0.2, 0.1, 0.05])  # degree 3
    rep = ulb(space, 9, h)  # level 3
    tt = np.linspace(-1, 1, 21)
    err = orthopoly.poly_eval(space, rep.certificate, tt) - h(tt)
    assert np.max(np.abs(err)) < 1e-12


def test_hermite_single_node_is_tangent_line():
    n = 4
    space = make_space("sphere", n=n)
    h = builtin("riesz", p=2)
    rule = lev.quadrature_rule(space, n + 1)
    f = hermite_certificate(rule, h)
    assert len(f) == 2
    a = -1.0 / n
    assert orthopoly.poly_eval(space, f, a) == pytest.approx(h(a), rel=1e-13)
    # Q_1(t) = t on the sphere, so the Q_1-coefficient is the slope
    assert f[1] == pytest.approx(h.deriv(a, 1), rel=1e-13)


def test_hermite_interpolation_residuals():
    for space, M in [(make_space("sphere", n=3), 11), (make_space("hamming", n=10, q=2), 40)]:
        rule = lev.quadrature_rule(space, M)
        f = hermite_certificate(rule, GAUSS)
        deg = len(f) - 1
        system = orthopoly.adjacent_system(space, 0, 0, deg)
        scale = max(1.0, np.max(np.abs(GAUSS(rule.nodes))))
        for i, a in enumerate(rule.nodes):
            assert abs(orthopoly.poly_eval(space, f, a) - GAUSS(a)) < 1e-10 * scale
            if not (rule.epsilon == 1 and i == 0):
                dq = orthopoly.eval_q_derivatives(system, deg, 1, a)[:, 1]
                df = float(np.dot(f, dq))
                assert abs(df - GAUSS.deriv(a, 1)) < 1e-9 * scale


def test_verify_certificate_negative_cases():
    space = make_space("sphere", n=3)
    rep = ulb(space, 4, RIESZ1)
    shifted = rep.certificate + np.eye(len(rep.certificate))[0]
    checks = verify_certificate(space, shifted, RIESZ1)
    assert not checks.below_h
    neg_q1 = np.array([0.0, -1.0])
    checks = verify_certificate(space, neg_q1, RIESZ1)
    assert not checks.f_geq
    assert checks.min_q_coefficient == pytest.approx(-1.0, abs=1e-12)


def test_f_geq_refuses_a_coefficient_just_below_its_tolerance():
    # J(80,40) tau 14: the certificate's most negative Q-coefficient is
    # -1.28e-8, past the tolerance -1e-8 but well inside -1e-6; the bound is
    # returned with f_geq false, and below_h holds
    rep = ulb(make_space("johnson", n=80, w=40), 4487111914, GAUSS)
    checks = rep.certificate_checks
    assert rep.rule.tau == 14
    assert checks.below_h and not checks.f_geq
    assert -1.3e-8 < checks.min_q_coefficient < -1.25e-8


def test_refuses_non_monotone_potential():
    with pytest.raises(MonotonicityError):
        ulb(make_space("sphere", n=3), 4, builtin("log"))


def test_test_function_identities():
    for space, M in [
        (make_space("sphere", n=3), 7),
        (make_space("hamming", n=8, q=2), 25),
        (make_space("johnson", n=10, w=5), 40),
        (make_space("projective", n=4, field_dim=2), 60),
    ]:
        rep = compute_test_functions(space, M, range(0, rep_tau(space, M) + 1))
        assert rep.values[0] == pytest.approx(1.0, abs=1e-12)  # j=0 gives b_0
        for j, v in zip(rep.js, rep.values):
            if 1 <= j <= rep.tau:
                assert abs(v) < 1e-8


def rep_tau(space, M):
    return lev.tau_for_cardinality(space, M)[2]


def test_test_functions_deterministic_roundtrip():
    space = make_space("sphere", n=4)
    a = compute_test_functions(space, 24, range(1, 11))
    b = compute_test_functions(space, 24, range(1, 11))
    assert np.max(np.abs(np.array(a.values) - np.array(b.values))) < 1e-10
    # an independently rebuilt rule gives the same values
    rule = lev.quadrature_rule(space, 24)
    c = _test_functions_from_rule(rule, range(1, 11))
    assert np.max(np.abs(np.array(a.values) - np.array(c.values))) < 1e-10


def test_negative_test_function_found_on_sphere_sweep():
    found = []
    for M in range(5, 30):
        rep = compute_test_functions(make_space("sphere", n=3), M, range(1, 12))
        if rep.first_negative_j is not None:
            found.append((M, rep.first_negative_j))
    assert found, "expected at least one improvable configuration"


def test_improvement_identity():
    space = make_space("sphere", n=3)
    M, j = 7, 6
    base = ulb(space, M, RIESZ1)
    imp = improve_with_qj(space, M, RIESZ1, j)
    info = imp.improvement
    assert info["p_j"] < -1e-8
    gain = imp.value_sum - info["base_value_sum"]
    assert gain == pytest.approx(-(M**2) * info["eta"] * info["p_j"], rel=1e-10)
    assert imp.value_sum > base.value_sum
    assert imp.certificate_checks.below_h and imp.certificate_checks.f_geq


def test_improvement_with_explicit_eta():
    space = make_space("sphere", n=3)
    imp = improve_with_qj(space, 7, RIESZ1, 6, eta=1e-6)
    assert imp.improvement["eta"] == 1e-6
    # vanishing eta recovers the base value
    base = ulb(space, 7, RIESZ1).value_sum
    tiny = improve_with_qj(space, 7, RIESZ1, 6, eta=1e-12)
    assert tiny.value_sum == pytest.approx(base, rel=1e-9)


def test_improvement_preconditions():
    space = make_space("sphere", n=3)
    with pytest.raises(ParameterError):
        improve_with_qj(space, 7, RIESZ1, 7)  # P_7 > 0
    with pytest.raises(ParameterError):
        improve_with_qj(space, 7, RIESZ1, 2)  # j <= tau
    with pytest.raises(ParameterError):
        improve_with_qj(space, 7, RIESZ1, 6, eta=-1.0)


def test_negative_test_function_indices_and_a_too_large_eta_are_refused():
    space = make_space("sphere", n=3)
    with pytest.raises(ParameterError, match="test function indices must be nonnegative"):
        compute_test_functions(space, 7, [-1, 2])
    # the admissible eta is about 4.3e-5
    with pytest.raises(ParameterError, match="supplied eta=10.0 breaks absolute monotonicity"):
        improve_with_qj(space, 7, RIESZ1, 6, eta=10.0)


def test_a_test_function_just_below_its_threshold_is_negative():
    # P_9 of S^4 M=140 (tau 8) vanishes up to rounding, and P_12 is -1.8e-2:
    # the weights scaled so that P_9 is -1e-7 flag degree 9, so that it is
    # -1e-9 they do not
    rule = lev.quadrature_rule(make_space("sphere", n=5), 140)
    p9 = _test_functions_from_rule(rule, [9]).values[0]
    for target, first in ((-1e-7, 9), (-1e-9, 12)):
        scale = 1.0 + (target - p9) / (p9 - 1.0 / rule.M)
        report = _test_functions_from_rule(replace(rule, weights=rule.weights * scale), range(9, 13))
        assert report.values[0] == pytest.approx(target, rel=1e-6)
        assert report.first_negative_j == first


def test_test_function_indices_must_be_integers():
    # 1.5 and 7.9 used to be truncated to 1 and 7
    space = make_space("sphere", n=3)
    for js in ([1.5, 7.9], [2, math.nan], [math.inf]):
        with pytest.raises(ParameterError, match="needs an integer j"):
            compute_test_functions(space, 7, js)
    assert compute_test_functions(space, 7, [1.0, 7.0]).values == compute_test_functions(
        space, 7, [1, 7]).values


def test_improvement_needs_an_integer_j_and_a_finite_eta():
    # j = 6.0 raised TypeError; a non-finite eta was refused as breaking monotonicity
    space = make_space("sphere", n=3)
    as_float, as_int = (improve_with_qj(space, 7, RIESZ1, j) for j in (6.0, 6))
    assert as_float.value_sum == as_int.value_sum and as_float.improvement == as_int.improvement
    assert as_float.certificate.tobytes() == as_int.certificate.tobytes()
    with pytest.raises(ParameterError, match="needs an integer j"):
        improve_with_qj(space, 7, RIESZ1, 6.5)
    for eta in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="eta must be finite and positive"):
            improve_with_qj(space, 7, RIESZ1, 6, eta=eta)


def test_improvement_on_synthetic_rule():
    # a perturbed-weight rule has a negative test function where every real
    # one is nonnegative, but it is not exact, so the certificate's LP value
    # misses the claimed bound and the value identity refuses it
    space = make_space("sphere", n=5)
    rule = lev.quadrature_rule(space, 12)
    bad = lev.QuadratureRule(
        space, rule.M, rule.k, rule.epsilon, rule.tau, rule.s,
        rule.nodes, rule.weights * np.array([1.0, 1.3]), rule.power_sum_residual,
    )
    rep = _test_functions_from_rule(bad, range(rule.tau + 1, rule.tau + 6))
    j = next(j for j, v in zip(rep.js, rep.values) if v < -1e-6)
    with pytest.raises(ConditionError, match="disagrees with quadrature value"):
        _improve_given_rule(bad, GAUSS, j)


def test_odd_branch_reports():
    space = make_space("sphere", n=3)
    main = ulb(space, 5, RIESZ1)
    odd = ulb_odd_branch(space, 5, RIESZ1)
    assert odd.odd_branch and odd.rule.tau == 1
    assert odd.value_sum <= main.value_sum + 1e-12
    # boundary cardinality: both branches give the same rule and value
    at_boundary = ulb_odd_branch(space, 4, RIESZ1)
    assert at_boundary.value_sum == pytest.approx(ulb(space, 4, RIESZ1).value_sum, rel=1e-12)


def test_odd_branch_below_oracle_minimum():
    from ulbkit import oracle

    space = make_space("sphere", n=3)
    _, best, _ = oracle.minimize_sphere(3, 5, RIESZ1, restarts=8, seed=3)
    assert ulb_odd_branch(space, 5, RIESZ1).value_sum <= best + 1e-8
    assert ulb(space, 5, RIESZ1).value_sum <= best + 1e-8


@pytest.mark.parametrize(
    "space,M",
    [
        (make_space("sphere", n=3), 9),
        (make_space("sphere", n=5), 16),
        (make_space("hamming", n=8, q=2), 20),
        (make_space("johnson", n=12, w=4), 50),
        (make_space("projective", n=4, field_dim=2), 60),
    ],
    ids=lambda x: getattr(x, "label", lambda: str(x))(),
)
def test_level_optimality_feasible_polynomials(space, M):
    # no feasible polynomial of degree <= tau beats the bound
    rng = np.random.default_rng(5)
    rep = ulb(space, M, GAUSS)
    grid = np.cos(np.pi * np.arange(1, 501) / 500)
    cmin = float(np.min(GAUSS(grid)))
    for _ in range(50):
        theta = rng.uniform(0.0, 1.0)
        F = theta * rep.certificate
        F[0] += (1 - theta) * cmin
        f0 = F[0]
        f1 = orthopoly.poly_eval(space, F, 1.0)
        assert M * (f0 * M - f1) <= rep.value_sum + 1e-8 * max(1.0, rep.value_sum)


def test_circle_bound_attained_by_regular_polygons():
    # n=2 exercises the half-integer weight-exponent corner, and every
    # cardinality is attained by the regular polygon
    s2 = make_space("sphere", n=2)
    for M in (2, 3, 4, 5, 6, 8):
        rep = ulb(s2, M, RIESZ1)
        ang = 2 * np.pi * np.arange(M) / M
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        from ulbkit import oracle

        direct = oracle.energy(s2, oracle.make_code(s2, pts), RIESZ1)
        assert rep.value_sum == pytest.approx(direct, rel=1e-12)
        assert rep.certificate_checks.below_h and rep.certificate_checks.f_geq


def _polygon_energy(M, h_of_angle):
    # the regular M-gon's energy, each pair term from its angle 2 pi j / M
    return M * math.fsum(h_of_angle(2 * math.pi * j / M) for j in range(1, M))


@pytest.mark.parametrize("h, h_of_angle, Ms", [
    (GAUSS, lambda a: math.exp(math.cos(a)), (2, 3, 256, 257, 1000, 1001, 1500, 2049)),
    (RIESZ1, lambda a: 0.5 / math.sin(a / 2), (2, 3, 256, 257, 1000, 1001, 1024, 1025)),
], ids=["gaussian", "riesz"])
def test_circle_bound_equals_the_polygon_energy_up_to_the_degree_ceiling(h, h_of_angle, Ms):
    # the ULB on S^1 is the regular M-gon's energy at every M.  M is
    # served at level tau = M - 2, so M = 2049 needs Q_2047, one below the
    # degree ceiling.  Measured relative error: 2.5e-12 (Gaussian, M=1500)
    # and 1.8e-12 (Riesz, M=1000) on these lists, at most 8.3e-12 over a
    # scan of the verified M <= 1580
    s1 = make_space("sphere", n=2)
    for M in Ms:
        rep = ulb(s1, M, h)
        assert rep.certificate_checks.below_h and rep.certificate_checks.f_geq, M
        assert rep.value_sum == pytest.approx(_polygon_energy(M, h_of_angle), rel=1e-11, abs=0), M


def test_circle_refusals_near_the_degree_ceiling():
    # where double precision runs out on S^1: the weight at -1 of an even
    # level loses digits as M grows (relative error 1.9e-10 at M=1590),
    # its rule is refused from ~1600 and the weight leaves the float range
    # from ~1718; Riesz certificates sit at the noise floor of below_h from
    # M ~850.  The pinned Riesz cells end the same way with 1 to 4 BLAS
    # threads; near the ceiling many do not (M=1500 and 2049 among them)
    s1 = make_space("sphere", n=2)
    with pytest.raises(ConvergenceError, match="power-sum residual inf"):
        ulb(s1, 2048, GAUSS)
    with pytest.raises(ConditionError, match="certificate value"):
        ulb(s1, 1400, RIESZ1)
    for M in (1026, 2041):
        checks = ulb(s1, M, RIESZ1).certificate_checks
        assert not checks.below_h and checks.f_geq, M


def test_quadrature_identity_on_reports():
    rng = np.random.default_rng(9)
    for space, M in [(make_space("sphere", n=4), 12), (make_space("hamming", n=6, q=2), 10)]:
        rep = ulb(space, M, GAUSS)
        rule = rep.rule
        b = pmspace.moments(space, rule.tau)
        for _ in range(200):
            c = rng.uniform(-1, 1, rule.tau + 1)
            f0 = sum(ci * bi for ci, bi in zip(c, b))
            resid = f0 - npoly.polyval(1.0, c) / M
            resid -= float(np.dot(rule.weights, npoly.polyval(rule.nodes, c)))
            assert abs(resid) <= 1e-9 * np.sum(np.abs(c))


def _mp_hermite(nodes, epsilon, h, dh):
    """The Hermite interpolant of the certificate, as a 50-digit Newton form."""
    z = []
    for a in nodes:
        z += [mpmath.mpf(float(a))] * (1 if epsilon == 1 and a == -1.0 else 2)
    m = len(z)
    table = [[h(zi)] for zi in z]
    for col in range(1, m):
        for i in range(m - col):
            if z[i + col] == z[i]:
                table[i].append(dh(z[i]))
            else:
                table[i].append((table[i + 1][col - 1] - table[i][col - 1]) / (z[i + col] - z[i]))

    def value(t):
        t = mpmath.mpf(float(t))
        out = table[0][m - 1]
        for i in range(m - 2, -1, -1):
            out = out * (t - z[i]) + table[0][i]
        return out

    return value


@pytest.mark.parametrize(
    "M,name", [(225, "riesz"), (400, "riesz"), (825, "riesz"), (825, "gaussian")]
)
def test_certificate_matches_mp_reference(M, name):
    space = make_space("sphere", n=3)
    if name == "riesz":
        h = RIESZ1
        mp_h, mp_dh = (lambda t: (2 - 2 * t) ** -0.5), (lambda t: (2 - 2 * t) ** -1.5)
    else:
        h, mp_h, mp_dh = GAUSS, mpmath.exp, mpmath.exp
    rep = ulb(space, M, h)
    with mpmath.workdps(50):
        ref = _mp_hermite(rep.rule.nodes, rep.rule.epsilon, mp_h, mp_dh)
        grid = np.linspace(-1.0, 1.0, 200, endpoint=False)
        ref_vals = np.array([float(ref(t)) for t in grid])
        ref_one = float(ref(1.0))
    err = np.abs(orthopoly.poly_eval(space, rep.certificate, grid) - ref_vals)
    assert np.all(err <= 1e-9 * (1 + np.abs(h(grid))))
    assert float(np.sum(rep.certificate)) == pytest.approx(ref_one, rel=1e-9)


def test_value_identity_refuses_nan():
    rep = ulb(make_space("sphere", n=3), 4, RIESZ1)
    _check_value_identity(rep.rule, rep.certificate, rep.value_sum)
    with pytest.raises(ConditionError):
        _check_value_identity(rep.rule, rep.certificate, float("nan"))


def test_one_measure_rule_per_ulb(monkeypatch):
    # a warm CP^2 op at tau 33 solves one eigenproblem, for its rule: the
    # moments of its power-sum check are cached per level
    space = make_space("projective", n=3, field_dim=2)
    lo = lev.design_bound(space, 33)
    M = int(round(0.5 * (lo + lev.design_bound(space, 34))))
    ulb(space, M, RIESZ1)
    calls = []
    gauss = rec.gauss

    def counting_gauss(*args):
        calls.append(args)
        return gauss(*args)

    monkeypatch.setattr(rec, "gauss", counting_gauss)
    assert ulb(space, M, RIESZ1).rule.tau == 33
    assert len(calls) == 1


def test_monomial_overflow_is_a_monotonicity_refusal():
    # the order-149 coefficient 200!/51! overflows to inf, and inf * 0 at
    # t = -1 is nan, which the monotonicity check counts as a violation
    with pytest.raises(MonotonicityError, match="first violation \\(149, -1.0, nan\\)"):
        ulb(make_space("sphere", n=3), 12000, builtin("monomial", j=200))


def test_certificate_past_the_system_cap_is_a_degree_refusal():
    # tau 2049 needs Q_2049, one past the degree ceiling 2048 of S^2's
    # systems; dividing by a monic value at 1 of 0 once gave a nan
    # certificate and RuntimeWarnings at tau 1093
    with pytest.raises(DegreeOverflowError, match="degree 2049 exceeds the \\(0,0\\)-system cap 2048"):
        ulb(make_space("sphere", n=3), 1052000, builtin("gaussian", c=1))


@pytest.mark.parametrize(
    "space", [make_space("hamming", n=1000, q=2), make_space("johnson", n=1000, w=500),
              make_space("hamming", n=3000, q=2)], ids=lambda s: s.label())
@pytest.mark.parametrize("h", [builtin("gaussian", c=1), builtin("riesz", p=1)], ids=lambda h: h.name)
def test_verified_bounds_on_large_finite_spaces(space, h):
    # the full systems of these spaces lose their norms to underflow near
    # degree 300 or below; a tau 5 bound needs only their first degrees
    M = round((lev.design_bound(space, 5) + lev.design_bound(space, 6)) / 2)
    report = ulb(space, M, h)
    assert report.rule.tau == 5
    assert report.certificate_checks.below_h and report.certificate_checks.f_geq


def test_log_is_refused_on_every_call():
    # a failed check is never remembered as a pass
    h = builtin("log")
    for _ in range(2):
        with pytest.raises(MonotonicityError):
            ulb(make_space("sphere", n=3), 12, h)


def test_potentials_sharing_a_name_are_checked_apart():
    # equal names and parameters, different derivatives: the third
    # derivative of the second is negative
    good = Potential("p", _deriv=lambda t, j: np.exp(t))
    bad = Potential("p", _deriv=lambda t, j: -np.exp(t) if j == 3 else np.exp(t))
    space = make_space("sphere", n=3)
    for h in (good, bad, good, bad):
        if h is good:
            ulb(space, 12, h)
        else:
            with pytest.raises(MonotonicityError):
                ulb(space, 12, h)


def test_monotonicity_is_checked_once_per_potential_and_order():
    grid_calls = []

    def deriv(t, j):
        if t.shape == (201,):  # the check's default grid
            grid_calls.append(j)
        return np.exp(t)

    h = Potential("counted", _deriv=deriv)
    space = make_space("sphere", n=3)
    tau = ulb(space, 12, h).rule.tau
    assert sorted(grid_calls) == list(range(tau + 2))
    grid_calls.clear()
    ulb(space, 12, h)
    assert ulb(space, 6, h).rule.tau < tau  # a lower order passes too
    assert grid_calls == []
    tau = ulb(space, 30, h).rule.tau  # a higher order is checked again
    assert sorted(grid_calls) == list(range(tau + 2))


def test_verification_runs_no_recurrence_on_the_grid(monkeypatch):
    # a warm HP^3 op at tau 53 checks its certificate against the space's
    # cached table of Q_0..Q_53 on the 2000-point verification grid
    space = make_space("projective", n=4, field_dim=4)
    lo = lev.design_bound(space, 53)
    M = int(round(0.5 * (lo + lev.design_bound(space, 54))))
    ulb(space, M, RIESZ1)
    sizes = []
    eval_all = rec.eval_all

    def counting_eval_all(b, g, deg, t):
        sizes.append(np.size(t))
        return eval_all(b, g, deg, t)

    monkeypatch.setattr(rec, "eval_all", counting_eval_all)
    assert ulb(space, M, RIESZ1).rule.tau == 53
    assert len(pmspace.verification_grid(space)) == 2000
    assert 2000 not in sizes


@pytest.mark.parametrize("tau", [53, 54])
def test_point_values_run_the_float_recurrence(monkeypatch, tau):
    # a warm HP^3 op evaluates its systems at s one point at a time (Q_k
    # at -1, for the weight at -1 of an even level, is in the level's
    # record), and only the recurrence on Python floats sees those points
    space = make_space("projective", n=4, field_dim=4)
    lo = lev.design_bound(space, tau)
    M = int(round(0.5 * (lo + lev.design_bound(space, tau + 1))))
    ulb(space, M, GAUSS)
    shapes = []
    eval_all = rec.eval_all

    def recording_eval_all(b, g, deg, t):
        shapes.append(np.shape(t))
        return eval_all(b, g, deg, t)

    monkeypatch.setattr(rec, "eval_all", recording_eval_all)
    rule = ulb(space, M, GAUSS).rule
    assert rule.tau == tau
    # L_tau(s) takes two values at s; the weight at -1 one at s
    assert shapes.count(()) == 2 + rule.epsilon
    # and none of them as an array of two points
    assert not [shape for shape in shapes if shape and math.prod(shape) == 2]
