import numpy as np
import pytest

from ulbkit import orthopoly, pmspace
from ulbkit.errors import DegreeOverflowError
from ulbkit.orthopoly import PolyCoeffs, adjacent_system
from ulbkit.pmspace import make_space

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
    if space.is_finite:
        x, wts = pmspace.t_grid(space)
    else:
        x, wts = pmspace.gauss_rule(space, deg + a + b + 4)
    return x, wts * (1 - x) ** a * (1 + x) ** b


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_adjacent_orthogonality_and_normalization(space, a, b):
    system = adjacent_system(space, a, b)
    deg = min(8, system.max_deg)
    x, wab = _inner_product_rule(space, deg, a, b)
    # unit mass of the reweighted measure
    assert system.c_norm * wab.sum() == pytest.approx(1.0, abs=1e-12)
    q = orthopoly.eval_q_all(system, deg, x)
    gram = (q * wab) @ q.T * (system.c_norm * system.norms[: deg + 1, None])
    assert np.max(np.abs(gram - np.eye(deg + 1))) < 1e-10
    # normalization at t = 1
    assert np.max(np.abs(orthopoly.eval_q_all(system, deg, np.array(1.0)) - 1)) < 1e-11


def test_base_system_is_the_q_system():
    s = make_space("sphere", n=7)
    system = adjacent_system(s, 0, 0)
    tt = np.linspace(-1, 1, 7)
    assert np.allclose(orthopoly.eval_q(system, 1, tt), tt, atol=1e-14)
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
            orthopoly.eval_q(sys11, i, tt), orthopoly.eval_q(sysbase, i, tt), atol=1e-11
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
        got = orthopoly.eval_q(system, deg, t)
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
        lhs = orthopoly.eval_q(sys10, i, tt)
        rhs = orthopoly.cd_kernel(space, 0, 0, i, tt, 1.0) / orthopoly.cd_kernel(
            space, 0, 0, i, 1.0, 1.0
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_expand_in_q_examples():
    s4 = make_space("sphere", n=4)
    q3 = PolyCoeffs([0.0, -1.0, 0.0, 2.0])  # Q_3 = 2t^3 - t on S^3
    coeffs = orthopoly.expand_in_q(s4, q3).coeffs
    assert np.allclose(coeffs, [0, 0, 0, 1], atol=1e-12)
    coeffs = orthopoly.expand_in_q(s4, PolyCoeffs([0.0, 1.0])).coeffs
    assert np.allclose(coeffs, [0, 1], atol=1e-13)
    for n in (3, 5):
        sn = make_space("sphere", n=n)
        f0 = orthopoly.expand_in_q(sn, PolyCoeffs([0, 0, 1.0])).coeffs[0]
        assert f0 == pytest.approx(1 / n, abs=1e-13)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_expand_roundtrip(space):
    rng = np.random.default_rng(7)
    deg = min(9, space.max_degree or 9)
    poly = PolyCoeffs(rng.uniform(-1, 1, deg + 1))
    fq = orthopoly.expand_in_q(space, poly)
    if space.is_finite:
        tt, _ = pmspace.t_grid(space)
    else:
        tt = np.linspace(-1, 1, 25)
    err = np.abs(orthopoly.poly_eval(space, poly, tt) - orthopoly.poly_eval(space, fq, tt))
    assert np.max(err) < 1e-9


def test_expand_degree_overflow():
    space = make_space("johnson", n=8, w=4)
    with pytest.raises(DegreeOverflowError):
        orthopoly.expand_in_q(space, PolyCoeffs(np.arange(1.0, 8.0)))


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
                return orthopoly.eval_q(system, i, x) * orthopoly.eval_q(system, j, x)

            worst = min(worst, float(orthopoly._project(space, prod, i + j).coeffs.min()))
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
                return orthopoly.eval_q(sys11, i, x) * orthopoly.eval_q(sys11, j, x) * (1 + x)

            worst = min(worst, float(orthopoly._project(space, prod, i + j + 1).coeffs.min()))
    assert worst >= -1e-9


def test_polycoeffs_trims_trailing_zeros():
    p = PolyCoeffs([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert PolyCoeffs([0.0]).degree == 0
    q = PolyCoeffs([0.0, 0.0, 1e-20, 3.0, 3e-16])
    assert q.degree == 3


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
    x, w = pmspace.gauss_rule(space, 50)
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
    m1, m2 = pmspace.moment(space, 1), pmspace.moment(space, 2)
    masses = {(0, 0): 1.0, (0, 1): 1 + m1, (1, 0): 1 - m1, (1, 1): 1 - m2}
    for (a, b), mass in masses.items():
        assert orthopoly.adjacent_system(space, a, b).rec_gamma[0] == pytest.approx(mass, rel=1e-14, abs=0)
