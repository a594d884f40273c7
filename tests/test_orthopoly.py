import numpy as np
import pytest

from ulbkit import levenshtein, orthopoly, pmspace
from ulbkit.errors import DegreeOverflowError, ParameterError
from ulbkit.orthopoly import adjacent_system
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import (
    _BELOW_TOL, _FGEQ_TOL, CertificateChecks, hermite_certificate, verify_certificate,
)

def _q(system, i, t):
    return orthopoly.eval_q_all(system, i, t)[i]


SPACES = [
    make_space("sphere", n=3),
    make_space("sphere", n=6),
    make_space("hamming", n=8, q=2),
    make_space("hamming", n=7, q=3),
    make_space("johnson", n=12, w=4),
    make_space("johnson", n=10, w=5),
    make_space("projective", n=4, field_dim=2),
    make_space("projective", n=3, field_dim=4),
]


def _inner_product_rule(space, deg, a, b):
    x, wts = pmspace.measure_rule(space, 2 * (deg + a + b + 4) - 1)
    return x, wts * (1 - x) ** a * (1 + x) ** b


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_adjacent_orthogonality_and_normalization(space, a, b):
    system = adjacent_system(space, a, b)
    deg = min(8, system.max_deg)
    x, wab = _inner_product_rule(space, deg, a, b)
    # unit mass of the reweighted measure, whose raw mass is gamma_0
    c_norm = 1.0 / system.rec_gamma[0]
    assert c_norm * wab.sum() == pytest.approx(1.0, abs=1e-12)
    q = orthopoly.eval_q_all(system, deg, x)
    gram = (q * wab) @ q.T * (c_norm * system.norms[: deg + 1, None])
    assert np.max(np.abs(gram - np.eye(deg + 1))) < 1e-10
    # normalization at t = 1
    assert np.max(np.abs(orthopoly.eval_q_all(system, deg, np.array(1.0)) - 1)) < 1e-11


def test_base_system_is_the_q_system():
    s = make_space("sphere", n=7)
    system = adjacent_system(s, 0, 0)
    tt = np.linspace(-1, 1, 7)
    assert np.allclose(_q(system, 1, tt), tt, atol=1e-14)
    assert np.allclose(
        system.norms[:6], [pmspace.multiplicity(s, i) for i in range(6)], rtol=1e-12
    )


def test_sphere_adjacent_one_one_is_shifted_jacobi():
    # weight (1-t^2) * (1-t^2)^((n-3)/2) gives the (n-1)/2 exponent pair
    n = 5
    sys11 = adjacent_system(make_space("sphere", n=n), 1, 1)
    sysbase = adjacent_system(make_space("sphere", n=n + 2), 0, 0)
    tt = np.linspace(-1, 1, 11)
    for i in range(1, 7):
        assert np.allclose(
            _q(sys11, i, tt), _q(sysbase, i, tt), atol=1e-11
        )


def test_hamming_one_zero_system_matches_gram_schmidt():
    space = make_space("hamming", n=8, q=2)
    t, mass = pmspace.t_grid(space)
    w = mass * (1 - t)
    keep = w > 0
    t, w = t[keep], w[keep]
    # direct Gram-Schmidt on the grid as an independent oracle
    basis = [np.ones_like(t)]
    for deg in range(1, 6):
        v = t**deg
        for u in basis:
            v = v - u * np.dot(w, v * u) / np.dot(w, u * u)
        basis.append(v)
    system = adjacent_system(space, 1, 0)
    for deg in range(6):
        got = _q(system, deg, t)
        v = basis[deg]
        scale = np.dot(w, got * v) / np.dot(w, v * v)
        assert np.max(np.abs(got - scale * v)) < 1e-8


def test_largest_zero_examples():
    s3 = make_space("sphere", n=3)
    assert orthopoly.largest_zero(adjacent_system(s3, 0, 0), 1) == pytest.approx(0.0, abs=1e-13)
    s4 = make_space("sphere", n=4)
    assert orthopoly.largest_zero(adjacent_system(s4, 0, 0), 2) == pytest.approx(0.5, abs=1e-12)
    for n in (3, 5, 9):
        sn = make_space("sphere", n=n)
        assert orthopoly.largest_zero(adjacent_system(sn, 0, 0), 2) == pytest.approx(
            1 / np.sqrt(n), abs=1e-12
        )


def test_largest_zero_sqrt_n_scaling():
    # fixed degree, growing dimension: sqrt(n) * t_k^{1,eps} stays in a bracket
    for k, eps in [(2, 0), (2, 1), (3, 0)]:
        scaled = []
        for n in range(8, 65, 8):
            system = adjacent_system(make_space("sphere", n=n), 1, eps)
            scaled.append(np.sqrt(n) * orthopoly.largest_zero(system, k))
        scaled = np.asarray(scaled)
        assert scaled.min() > 0.5
        assert scaled.max() < 2.0 * scaled.min()


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_zero_interlacing(space):
    system = adjacent_system(space, 0, 0)
    for i in range(1, min(8, system.max_deg)):
        lo = orthopoly.zeros_of(system, i)
        hi = orthopoly.zeros_of(system, i + 1)
        assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])


def test_cd_kernel_basics():
    s3 = make_space("sphere", n=3)
    assert orthopoly.cd_kernel(s3, 1, 1, 0, 0.2, -0.5) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-1, 1, 2)
    for a, b in [(0, 0), (1, 0), (1, 1)]:
        assert orthopoly.cd_kernel(s3, a, b, 4, u, v) == pytest.approx(
            orthopoly.cd_kernel(s3, a, b, 4, v, u), rel=1e-13
        )
    for n in (3, 6):
        sn = make_space("sphere", n=n)
        assert orthopoly.cd_kernel(sn, 0, 0, 1, 1.0, 1.0) == pytest.approx(1 + n)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_kernel_ratio_identity(space):
    # Q_i^{1,0}(t) = T_i(t,1) / T_i(1,1)
    sys10 = adjacent_system(space, 1, 0)
    tt = np.linspace(-1, 1, 15)
    for i in range(1, min(8, sys10.max_deg) + 1):
        lhs = _q(sys10, i, tt)
        rhs = orthopoly.cd_kernel(space, 0, 0, i, tt, 1.0) / orthopoly.cd_kernel(
            space, 0, 0, i, 1.0, 1.0
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_expand_in_q_examples():
    s4 = make_space("sphere", n=4)
    q3 = [0.0, -1.0, 0.0, 2.0]  # Q_3 = 2t^3 - t on S^3
    coeffs = orthopoly.expand_in_q(s4, q3)
    assert np.allclose(coeffs, [0, 0, 0, 1], atol=1e-12)
    coeffs = orthopoly.expand_in_q(s4, [0.0, 1.0])
    assert np.allclose(coeffs, [0, 1], atol=1e-13)
    for n in (3, 5):
        sn = make_space("sphere", n=n)
        f0 = orthopoly.expand_in_q(sn, [0, 0, 1.0])[0]
        assert f0 == pytest.approx(1 / n, abs=1e-13)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_expand_roundtrip(space):
    rng = np.random.default_rng(7)
    deg = min(9, space.max_degree or 9)
    poly = rng.uniform(-1, 1, deg + 1)
    fq = orthopoly.expand_in_q(space, poly)
    if space.is_finite:
        tt, _ = pmspace.t_grid(space)
    else:
        tt = np.linspace(-1, 1, 25)
    err = np.abs(np.polynomial.polynomial.polyval(tt, poly) - orthopoly.poly_eval(space, fq, tt))
    assert np.max(err) < 1e-9


def test_expand_degree_overflow():
    space = make_space("johnson", n=8, w=4)
    with pytest.raises(DegreeOverflowError):
        orthopoly.expand_in_q(space, np.arange(1.0, 8.0))


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_product_expansions_nonnegative(space):
    # products of system polynomials stay in the nonnegative cone
    cap = space.max_degree or 12
    worst = 0.0
    for i in range(7):
        for j in range(i, 7):
            if i + j > min(12, cap):
                continue
            system = adjacent_system(space, 0, 0, j)

            def prod(x):
                return _q(system, i, x) * _q(system, j, x)

            worst = min(worst, float(orthopoly._project(space, prod, i + j).min()))
    assert worst >= -1e-9


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_shifted_product_expansions_nonnegative(space):
    sys11 = adjacent_system(space, 1, 1)
    cap = space.max_degree or 11
    worst = 0.0
    for i in range(min(5, sys11.max_deg) + 1):
        for j in range(i, min(5, sys11.max_deg) + 1):
            if i + j + 1 > cap:
                continue

            def prod(x):
                return _q(sys11, i, x) * _q(sys11, j, x) * (1 + x)

            worst = min(worst, float(orthopoly._project(space, prod, i + j + 1).min()))
    assert worst >= -1e-9


def test_multiplicities_sum_to_space_size():
    # the harmonic dimensions add up to the number of points
    h = make_space("hamming", n=7, q=3)
    assert sum(pmspace.multiplicity(h, i) for i in range(8)) == 3**7
    j = make_space("johnson", n=12, w=4)
    assert sum(pmspace.multiplicity(j, i) for i in range(5)) == 495  # C(12,4)


def test_jacobi_and_grid_paths_agree_on_sphere():
    # closed-form recurrence vs the discrete procedure on a Gauss grid
    from ulbkit import _recurrence as rec

    space = make_space("sphere", n=4)
    x, w = pmspace.measure_rule(space, 99)
    for a, b in [(0, 1), (1, 0), (1, 1)]:
        wab = w * (1 - x) ** a * (1 + x) ** b
        beta_g, gamma_g = rec.stieltjes(x, wab, 12)
        system = adjacent_system(space, a, b)
        assert np.max(np.abs(beta_g - system.rec_beta[:12])) < 1e-12
        assert np.max(np.abs(gamma_g[1:] - system.rec_gamma[1:12])) < 1e-12


@pytest.mark.parametrize(
    "space", [make_space("sphere", n=142), make_space("projective", n=38, field_dim=4)],
    ids=["S^141", "HP^37"],
)
def test_adjacent_masses_to_rounding(space):
    # gamma_0 of the (a,b) system is the nu-mass of (1-t)^a (1+t)^b, and the
    # 1/M-rule weights are proportional to it
    _, m1, m2 = pmspace.moments(space, 2)
    masses = {(0, 0): 1.0, (0, 1): 1 + m1, (1, 0): 1 - m1, (1, 1): 1 - m2}
    for (a, b), mass in masses.items():
        assert orthopoly.adjacent_system(space, a, b).rec_gamma[0] == pytest.approx(mass, rel=1e-14, abs=0)


def test_sphere_norms_past_the_float_range_of_their_factors():
    # r_i = 2i+1 on S^2.  The squared monic value at 1 and the product of
    # the gammas both leave the normal float range from degree ~520, where
    # r_i went inf at 539; scaled by 2^i, both grow polynomially
    system = adjacent_system(make_space("sphere", n=3), 0, 0, 2048)
    assert system.max_deg == 2048
    np.testing.assert_allclose(system.norms, 2 * np.arange(2049) + 1, rtol=1e-11, atol=0)
    # S^399's r_i pass 1e308 near degree 686: its system ends there,
    # without an inf norm or a RuntimeWarning
    s399 = orthopoly._build_system(make_space("sphere", n=400), 0, 0, 2048)
    assert s399.max_deg == 686
    assert np.all(np.isfinite(s399.norms)) and np.all(np.isfinite(s399.value_at_one))


def test_cached_arrays_are_read_only():
    # every caller shares these through the caches: one caller's write
    # would change every later bound in the process
    t, mass = pmspace.t_grid(make_space("hamming", n=30, q=2))
    with pytest.raises(ValueError):
        mass *= 2
    s9 = make_space("sphere", n=10)
    system = adjacent_system(s9, 0, 0, 5)
    with pytest.raises(ValueError):
        system.norms[3] *= 1.001
    levenshtein.tau_for_cardinality(s9, 200)
    assert isinstance(levenshtein._LEVEL_MAPS[s9][0], tuple)  # integer level tops
    for arr in (t, system.rec_beta, system.rec_gamma, system.value_at_one, pmspace.moments(s9, 7),
                pmspace.moments(make_space("johnson", n=7, w=3), 5)):
        assert not arr.flags.writeable


def test_systems_stop_at_the_degree_ceiling():
    # the monic Legendre values at 1 fall like 2^-i and were subnormal
    # from degree 1028 on, where S^2's systems ended; scaled by 2^i they
    # reach the ceiling 2048, past which every degree is refused
    s2 = make_space("sphere", n=3)
    system = adjacent_system(s2, 0, 0, 2048)
    assert system.max_deg == orthopoly._MAX_DEGREE == 2048
    assert np.all(np.abs(system.value_at_one) >= np.finfo(float).tiny)
    with pytest.raises(DegreeOverflowError, match="degree 2049 exceeds the \\(0,0\\)-system cap 2048"):
        adjacent_system(s2, 0, 0, 2049)


def test_shorter_systems_are_prefixes_of_longer_ones():
    # a system is cached per length, so a bound must not depend on which
    # length served it
    spaces = [make_space("sphere", n=3), make_space("sphere", n=10),
              make_space("projective", n=4, field_dim=4), make_space("projective", n=3, field_dim=2),
              make_space("hamming", n=30, q=2), make_space("johnson", n=80, w=40)]
    for space in spaces:
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            long = orthopoly._build_system(space, a, b, 2048)
            for length in (16, 32):
                short = orthopoly._build_system(space, a, b, length)
                assert short.max_deg == min(length, long.max_deg)
                for name in ("rec_beta", "rec_gamma", "value_at_one", "norms"):
                    head = getattr(short, name)
                    assert np.array_equal(head, getattr(long, name)[: len(head)])


def test_growing_a_space_builds_few_systems(monkeypatch):
    # systems are built to 16 * 2^j: S^2 grown to degree ~630 builds at
    # most 8 per (a, b), where 16-degree blocks built ~20 each
    monkeypatch.setattr(levenshtein, "_LEVEL_MAPS", {})
    levenshtein._level.cache_clear()
    orthopoly._build_system.cache_clear()
    assert levenshtein.tau_for_cardinality(make_space("sphere", n=3), 400000) == (631, 1, 1262)
    assert orthopoly.adjacent_system.cache_info().currsize <= 8 * 4


def test_a_low_level_of_a_finite_space_builds_no_system_past_degree_16(monkeypatch):
    # the level map grows one level at a time, only as far as M needs: a
    # cold level 15 of J(80,40) asks for a certificate of degree 15 at most,
    # so no level past it builds the (0,0) system to degree 32
    monkeypatch.setattr(levenshtein, "_LEVEL_MAPS", {})
    levenshtein._level.cache_clear()
    orthopoly._build_system.cache_clear()
    built, build = [], orthopoly._build_system
    monkeypatch.setattr(orthopoly, "_build_system", lambda *args: built.append(args[-1]) or build(*args))
    space = make_space("johnson", n=80, w=40)
    M = levenshtein.exact_design_bound(space, 16)
    assert levenshtein.tau_for_cardinality(space, M) == (8, 0, 15)
    assert built and max(built) == 16


TABLE_SPACES = [
    make_space("sphere", n=3),
    make_space("sphere", n=10),
    make_space("projective", n=3, field_dim=2),
    make_space("projective", n=4, field_dim=4),
    make_space("hamming", n=30, q=2),
    make_space("johnson", n=80, w=40),
]


@pytest.mark.parametrize("space", TABLE_SPACES, ids=lambda s: s.label())
def test_grid_table_prefixes_are_fresh_evaluations(space, monkeypatch):
    # one table per space, grown to the largest degree asked for; every
    # prefix must be what a fresh evaluation on the grid gives, bit for bit
    monkeypatch.setattr(orthopoly, "_GRID_TABLES", {})
    grid = pmspace.verification_grid(space)
    cap = space.max_degree
    asked = [20, 55 if cap is None else min(55, cap), 20]
    for i, deg in enumerate(asked):
        table = orthopoly.grid_table(space, deg)
        fresh = orthopoly.eval_q_all(adjacent_system(space, 0, 0, deg), deg, grid)
        assert table.shape == fresh.shape
        assert np.array_equal(table, fresh)
        assert list(orthopoly._GRID_TABLES) == [space]
        assert len(orthopoly._GRID_TABLES[space]) == max(asked[: i + 1]) + 1
    with pytest.raises(ValueError):
        table[1, 0] = 0.0
    with pytest.raises(ValueError):
        orthopoly._GRID_TABLES[space][-1] *= 2
    with pytest.raises(ValueError):
        grid[0] = 0.0
    assert pmspace.verification_grid(space) is grid


def _checks_by_poly_eval(space, f, h, below_tol=_BELOW_TOL):
    # the verification as it was before the table: poly_eval on a fresh,
    # writable copy of the grid
    grid = np.array(pmspace.verification_grid(space))
    fv = orthopoly.poly_eval(space, f, grid)
    hv = np.asarray(h(grid), dtype=float)
    excess = fv - hv
    tol = below_tol * (1.0 + np.abs(hv))
    worst = int(np.argmax(excess - tol))
    minq = float(np.min(f))
    return CertificateChecks(
        below_h=bool(np.all(excess <= tol)),
        f_geq=bool(minq >= _FGEQ_TOL),
        min_q_coefficient=minq,
        max_excess=float(excess[worst]),
        worst_t=float(grid[worst]),
    )


@pytest.mark.parametrize(
    "family,params,M,potential,below_h",
    [
        ("sphere", {"n": 3}, 825, ("gaussian", {"c": 1}), True),
        ("projective", {"n": 4, "field_dim": 4}, 193450991360, ("gaussian", {"c": 1}), True),
        ("projective", {"n": 4, "field_dim": 4}, 193450991360, ("riesz", {"p": 1}), True),
        ("projective", {"n": 4, "field_dim": 4}, 5125840719, ("gaussian", {"c": 1}), False),
    ],
)
def test_verification_from_the_table_matches_poly_eval(family, params, M, potential, below_h):
    # HP^3 at tau 53 and, failing below_h, at tau 37
    space = make_space(family, **params)
    h = builtin(potential[0], **potential[1])
    f = hermite_certificate(levenshtein.quadrature_rule(space, M), h)
    checks = verify_certificate(space, f, h)
    assert checks == _checks_by_poly_eval(space, f, h)
    assert checks.below_h is below_h


@pytest.mark.parametrize("monomial", [[np.nan, 1.0], [np.inf], [0.0, -np.inf, 1.0], [], [[0.3]]])
def test_expand_in_q_refuses_non_finite_coefficients(monomial):
    # a NaN used to pass through as NaN coefficients, inf turned into NaN, and an
    # empty list raised IndexError
    with pytest.raises(ParameterError, match="nonempty list of finite numbers"):
        orthopoly.expand_in_q(make_space("sphere", n=3), monomial)


def test_exponents_past_1_and_a_degree_0_zero_set_are_refused():
    s2 = make_space("sphere", n=3)
    with pytest.raises(ParameterError, match=r"adjacent exponents must be 0 or 1, got \(2, 0\)"):
        adjacent_system(s2, 2, 0)
    with pytest.raises(ParameterError, match="zeros are defined for degree >= 1"):
        orthopoly.zeros_of(adjacent_system(s2, 0, 0, 3), 0)
