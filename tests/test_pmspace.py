import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ulbkit import levenshtein, orthopoly, pmspace
from ulbkit.errors import DegreeOverflowError, ParameterError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb


def _q(space, i, t):
    """Q_i of the base system at t."""
    return orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, i), i, t)[i]


def test_make_space_examples():
    h72 = make_space("hamming", n=7, q=2)
    assert h72.antipodal
    assert h72.is_finite
    t, _ = pmspace.t_grid(h72)
    assert np.allclose(t, [1 - 2 * l / 7 for l in range(8)])

    assert make_space("johnson", n=8, w=4).antipodal
    assert not make_space("johnson", n=9, w=4).antipodal
    with pytest.raises(ParameterError):
        make_space("johnson", n=9, w=5)


def test_equal_descriptors_hash_equal_in_every_process():
    # the hash is taken of ints alone, so a descriptor unpickled in a process
    # with another string hash seed hashes as one made there, and as here
    spaces = [make_space("sphere", n=3), make_space("hamming", n=30, q=2),
              make_space("johnson", n=80, w=40), make_space("projective", n=4, field_dim=4)]
    twins = [make_space("sphere", n=3.0), make_space("hamming", n=30.0, q=2),
             make_space("johnson", n=80, w=40.0), make_space("projective", n=4, field_dim=4.0)]
    assert twins == spaces and [hash(s) for s in twins] == [hash(s) for s in spaces]
    assert pickle.loads(pickle.dumps(spaces)) == spaces
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = (
        "import pickle, sys\n"
        "from ulbkit.pmspace import make_space\n"
        "spaces = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = [make_space(s.family.value, n=s.n, **{k: v for k, v in"
        " (('q', s.q), ('w', s.w), ('field_dim', s.field_dim)) if v is not None}) for s in spaces]\n"
        "assert fresh == spaces\n"
        "print(*[hash(s) for s in spaces + fresh])\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(spaces), capture_output=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
    assert proc.returncode == 0, proc.stderr
    assert [int(h) for h in proc.stdout.split()] == [hash(s) for s in spaces] * 2


@pytest.mark.parametrize(
    "family,params",
    [
        ("hamming", {"n": 1, "q": 2}),
        ("hamming", {"n": 5, "q": 1}),
        ("sphere", {"n": 1}),
        ("projective", {"n": 3, "field_dim": 3}),
        ("johnson", {"n": 4, "w": 0}),
        ("hamming", {"n": 8}),
        ("sphere", {"n": 3, "q": 2}),
        ("projective", {"n": 1, "field_dim": 2}),
    ],
)
def test_make_space_rejects_bad_params(family, params):
    with pytest.raises(ParameterError):
        make_space(family, **params)



@pytest.mark.parametrize(
    "family, params, name",
    [("hamming", {"n": 5, "q": 2.5}, "q"), ("johnson", {"n": 10, "w": 2.7}, "w"),
     ("projective", {"n": 3, "field_dim": 1.5}, "field_dim")],
    ids=["q", "w", "field_dim"],
)
def test_make_space_refuses_non_integer_parameters(family, params, name):
    # these were truncated: q=2.5 gave H(5,2), w=2.7 J(10,2), field_dim=1.5 RP^2
    with pytest.raises(ParameterError, match=f"{family} space needs an integer {name}, got"):
        make_space(family, **params)
    # an integral float is that integer
    whole = {key: math.ceil(value) if key == name else value for key, value in params.items()}
    assert make_space(family, **{k: float(v) for k, v in whole.items()}) == make_space(family, **whole)

def test_antipodality_flags():
    assert make_space("sphere", n=5).antipodal
    assert make_space("hamming", n=6, q=2).antipodal
    assert not make_space("hamming", n=6, q=3).antipodal
    assert not make_space("projective", n=4, field_dim=2).antipodal


def test_t_grid_masses_sum_to_one():
    for space in [make_space("hamming", n=9, q=3), make_space("johnson", n=11, w=4)]:
        t, mass = pmspace.t_grid(space)
        assert t[0] == 1.0
        assert np.all(np.diff(t) < 0)
        assert mass.sum() == pytest.approx(1.0, abs=1e-14)


def test_q_eval_examples():
    s5 = make_space("sphere", n=5)
    for t in (-0.7, 0.0, 0.31):
        assert _q(s5, 1, t) == pytest.approx(t, abs=1e-14)
    for space in [s5, make_space("hamming", n=6, q=2), make_space("projective", n=3, field_dim=1)]:
        assert _q(space, 0, 0.3) == pytest.approx(1.0, abs=1e-14)
    h62 = make_space("hamming", n=6, q=2)
    assert _q(h62, 1, -1.0) == pytest.approx(-1.0, abs=1e-12)
    h63 = make_space("hamming", n=6, q=3)
    assert _q(h63, 1, -1.0) == pytest.approx(-0.5, abs=1e-12)


def test_q_at_one_is_one():
    spaces = [
        make_space("sphere", n=4),
        make_space("hamming", n=8, q=2),
        make_space("johnson", n=10, w=5),
        make_space("projective", n=4, field_dim=2),
    ]
    for space in spaces:
        cap = min(10, space.max_degree or 10)
        for i in range(cap + 1):
            assert _q(space, i, 1.0) == pytest.approx(1.0, abs=1e-11)


def test_q_eval_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        _q(make_space("johnson", n=8, w=4), 5, 0.0)


def test_multiplicity_examples():
    assert pmspace.multiplicity(make_space("sphere", n=3), 2) == 5
    assert pmspace.multiplicity(make_space("hamming", n=7, q=2), 3) == 35
    assert pmspace.multiplicity(make_space("johnson", n=8, w=4), 1) == 7
    assert pmspace.multiplicity(make_space("sphere", n=8), 0) == 1


def test_multiplicities_are_exact_integers():
    # S^2047 r_10 = C(2057,10) - C(2055,8), about 6e26: a float product
    # was wrong from the 8th digit
    r = pmspace.multiplicity(make_space("sphere", n=2048), 10)
    assert type(r) is int and r == math.comb(2057, 10) - math.comb(2055, 8)
    # S^1: r_i = 2, where the Jacobi formula's 1/(alpha + beta + 1) is 1/0
    assert [pmspace.multiplicity(make_space("sphere", n=2), i) for i in range(6)] == [1] + [2] * 5
    # CP^2: r_i = (i+1)^3; RP^2: the even harmonics of S^2, 4i + 1
    assert [pmspace.multiplicity(make_space("projective", n=3, field_dim=2), i)
            for i in range(40)] == [(i + 1) ** 3 for i in range(40)]
    assert [pmspace.multiplicity(make_space("projective", n=3, field_dim=1), i)
            for i in range(40)] == [4 * i + 1 for i in range(40)]


@pytest.mark.parametrize(
    "n, m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (5, 4)])
def test_projective_multiplicities_match_the_system_norms(n, m):
    space = make_space("projective", n=n, field_dim=m)
    norms = orthopoly.adjacent_system(space, 0, 0, 12).norms
    got = [pmspace.multiplicity(space, i) for i in range(13)]
    np.testing.assert_allclose(got, norms[:13], rtol=1e-12, atol=0)


def test_multiplicity_and_moments_refusals():
    with pytest.raises(DegreeOverflowError, match=r"degree 8 exceeds the cap 7 of H\(7,2\)"):
        pmspace.multiplicity(make_space("hamming", n=7, q=2), 8)
    with pytest.raises(ParameterError, match="degree must be nonnegative"):
        pmspace.multiplicity(make_space("sphere", n=3), -1)
    with pytest.raises(ParameterError, match="moment order must be nonnegative"):
        pmspace.moments(make_space("sphere", n=3), -1)
    with pytest.raises(ParameterError, match="t_grid is defined for finite spaces only"):
        pmspace.t_grid(make_space("sphere", n=3))
    with pytest.raises(ParameterError, match="hamming has a discrete measure"):
        make_space("hamming", n=8, q=2).jacobi_exponents()


@pytest.mark.parametrize("k", [-1, -2])
def test_a_jacobi_sum_below_k_0_is_refused(monkeypatch, k):
    # refused on a fresh list and on a grown one, where a negative index
    # would count from the end
    monkeypatch.setattr(pmspace, "_JACOBI_SUMS", {})
    with pytest.raises(ParameterError, match=f"jacobi_sum needs k >= 0, got {k}"):
        pmspace.jacobi_sum(0.0, 0.0, k)
    grown = pmspace.jacobi_sum(0.0, 0.0, 5)
    with pytest.raises(ParameterError, match=f"jacobi_sum needs k >= 0, got {k}"):
        pmspace.jacobi_sum(0.0, 0.0, k)
    assert pmspace._JACOBI_SUMS[(0, 0)][-1] == grown


@pytest.mark.parametrize(
    "space",
    [make_space("sphere", n=n) for n in (2, 3, 4, 10)]
    + [make_space("projective", n=n, field_dim=m) for n, m in ((3, 1), (3, 2), (4, 4), (7, 2))],
    ids=lambda space: space.label(),
)
@pytest.mark.parametrize("shift", [0, 1], ids=["multiplicity", "design-bound"])
def test_jacobi_sums_grown_in_one_call_equal_those_grown_in_many(monkeypatch, space, shift):
    # each exponent pair keeps one exact list, grown by the ratio
    # r_{i+1}/r_i: its sums do not depend on the calls that grew it; the
    # design bounds of even levels take beta + 1
    alpha, beta = space.jacobi_exponents()
    beta += shift
    monkeypatch.setattr(pmspace, "_JACOBI_SUMS", {})
    many = [pmspace.jacobi_sum(alpha, beta, k) for k in range(301)]
    monkeypatch.setattr(pmspace, "_JACOBI_SUMS", {})
    assert pmspace.jacobi_sum(alpha, beta, 300) == many[-1]
    assert pmspace._JACOBI_SUMS == {(round(2 * alpha), round(2 * beta)): many}
    assert [type(x) for x in many] == [int] + [Fraction] * 300
    monkeypatch.setattr(pmspace, "_JACOBI_SUMS", {})
    ks = (7, 3, 40, 39, 170, 300)
    assert [pmspace.jacobi_sum(alpha, beta, k) for k in ks] == [many[k] for k in ks]


def test_multiplicity_krawtchouk_general_q():
    h = make_space("hamming", n=6, q=4)
    assert pmspace.multiplicity(h, 2) == math.comb(6, 2) * 9


def test_moment_examples():
    for n in (3, 4, 7):
        b = pmspace.moments(make_space("sphere", n=n), 4)
        assert b[0] == 1.0
        assert b[2] == pytest.approx(1 / n, abs=1e-14)
        assert b[4] == pytest.approx(3 / (n * (n + 2)), abs=1e-14)
        assert b[3] == 0.0
    for n in (5, 8):
        b = pmspace.moments(make_space("hamming", n=n, q=2), 6)
        assert b[4] == pytest.approx((3 * n - 2) / n**3, abs=1e-14)
        assert b[6] == pytest.approx(
            (15 * n**2 - 30 * n + 16) / n**5, abs=1e-14
        )


def test_moments_match_quadrature():
    # closed forms against direct integration / discrete sums
    for space in [make_space("sphere", n=6), make_space("projective", n=4, field_dim=2)]:
        x, w = pmspace.measure_rule(space, 47)
        b = pmspace.moments(space, 12)
        for m in range(13):
            assert b[m] == pytest.approx(
                float(np.dot(w, x**m)), abs=1e-10
            )
    for space in [make_space("hamming", n=9, q=3), make_space("johnson", n=12, w=4)]:
        t, mass = pmspace.t_grid(space)
        b = pmspace.moments(space, 12)
        for m in range(13):
            assert b[m] == pytest.approx(
                float(np.dot(mass, t**m)), abs=1e-10
            )


@pytest.mark.parametrize("field_dim,n,exponents", [(2, 3, (1, 0)), (4, 4, (5, 1))],
                         ids=["CP^2", "HP^3"])
def test_projective_moments_exact(field_dim, n, exponents):
    # integer Jacobi exponents make b_m rational: integrate the polynomial
    # t^m (1-t)^alpha (1+t)^beta term by term over [-1, 1]
    space = make_space("projective", n=n, field_dim=field_dim)
    assert space.jacobi_exponents() == exponents
    alpha, beta = exponents
    weight = [Fraction(1)]  # ascending coefficients
    for sign in [-1] * alpha + [1] * beta:  # times (1 + sign*t)
        weight = [a + sign * b for a, b in zip(weight + [0], [0] + weight)]

    def integral(m):
        return sum(c * Fraction(2, m + j + 1) for j, c in enumerate(weight) if (m + j) % 2 == 0)

    b = pmspace.moments(space, 60)
    for m in range(61):
        assert abs(b[m] - float(integral(m) / integral(0))) <= 1e-14


def test_measure_rule_is_the_grid_of_a_finite_space():
    for space in [make_space("hamming", n=9, q=3), make_space("johnson", n=12, w=4)]:
        x, w = pmspace.measure_rule(space, 40)
        t, mass = pmspace.t_grid(space)
        assert np.array_equal(x, t) and np.array_equal(w, mass)


def test_q1_examples():
    assert pmspace.q1_value(make_space("sphere", n=9)) == 2.0
    assert pmspace.q1_value(make_space("hamming", n=5, q=4)) == 4.0
    assert pmspace.q1_value(make_space("johnson", n=9, w=3)) == 3.0
    assert pmspace.q1_value(make_space("projective", n=5, field_dim=2)) == 5.0
    # consistency with the defining expression 1 - 1/Q_1(-1)
    for space in [make_space("hamming", n=7, q=3), make_space("johnson", n=11, w=4),
                  make_space("projective", n=3, field_dim=4)]:
        q1m1 = _q(space, 1, -1.0)
        assert pmspace.q1_value(space) == pytest.approx(1 - 1 / q1m1, abs=1e-10)


def test_discrete_orthogonality():
    for space in [make_space("hamming", n=8, q=2), make_space("hamming", n=6, q=3),
                  make_space("johnson", n=12, w=4), make_space("johnson", n=10, w=5)]:
        t, mass = pmspace.t_grid(space)
        deg = min(space.max_degree, 12)
        system = orthopoly.adjacent_system(space, 0, 0)
        q = orthopoly.eval_q_all(system, deg, t)
        gram = (q * mass) @ q.T * system.norms[: deg + 1, None]
        assert np.max(np.abs(gram - np.eye(deg + 1))) < 1e-10


def test_continuous_orthogonality_via_gauss():
    for space in [make_space("sphere", n=3), make_space("sphere", n=8),
                  make_space("projective", n=4, field_dim=2),
                  make_space("projective", n=3, field_dim=4)]:
        x, w = pmspace.measure_rule(space, 31)
        system = orthopoly.adjacent_system(space, 0, 0)
        q = orthopoly.eval_q_all(system, 12, x)
        gram = (q * w) @ q.T * system.norms[:13, None]
        assert np.max(np.abs(gram - np.eye(13))) < 1e-9


def test_kravchuk_closed_form_agreement():
    # Q_i(t_l) = K_i(l) / r_i, with the Krawtchouk values K_i(l) in integers,
    # by (i+1) K_{i+1} = ((n-i)(q-1) + i - q l) K_i - (q-1)(n-i+1) K_{i-1},
    # on every (n//50)-th grid point.  Each space is checked up to the last
    # degree where the float recurrence in t stays within 1e-9 of them: the
    # whole system on H(6,q), H(60,4), H(3000,2) and H(1000,3) (whose r_i
    # leave the normal floats past 191 and 237), 97 of 128 on H(128,2), 266
    # of 400 on H(400,2), and 689 of 706 on H(1000,2)
    for n, q, top in ((6, 2, 6), (6, 3, 6), (128, 2, 97), (400, 2, 266), (60, 4, 60),
                      (1000, 2, 689), (3000, 2, 191), (1000, 3, 237)):
        space = make_space("hamming", n=n, q=q)
        ells = range(0, n + 1, max(n // 50, 1))
        got = orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, top), top,
                                   np.array([1 - 2 * ell / n for ell in ells]))
        r = [pmspace.multiplicity(space, i) for i in range(top + 1)]
        for col, ell in enumerate(ells):
            prev, cur = 0, 1
            for i in range(top + 1):
                # a quotient of Python integers is correctly rounded
                assert abs(got[i, col] - cur / r[i]) <= 1e-9, (space.label(), i, ell)
                prev, cur = cur, (((n - i) * (q - 1) + i - q * ell) * cur
                                  - (q - 1) * (n - i + 1) * prev) // (i + 1)


def test_hahn_closed_form_agreement():
    # Q_i(t_l) = sum_j (-1)^j C(i,j) C(n+1-i,j) C(l,j) / (C(w,j) C(n-w,j)),
    # summed exactly, term by term from the ratio of consecutive terms: the
    # terms alternate in sign, and their float sum loses ~5e-14 at
    # J(1000,500).  The whole system on J(10,4) and J(80,40)
    def hahn(n, w, i, z):
        term = total = Fraction(1)
        for j in range(min(i, z)):
            term *= Fraction(-(i - j) * (n + 1 - i - j) * (z - j), (j + 1) * (w - j) * (n - w - j))
            total += term
        return float(total)

    for n, w, top in ((10, 4, 4), (80, 40, 40), (1000, 500, 6)):
        space = make_space("johnson", n=n, w=w)
        got = orthopoly.eval_q_all(orthopoly.adjacent_system(space, 0, 0, top), top,
                                   np.array([1 - 2 * ell / w for ell in range(w + 1)]))
        for i in range(top + 1):
            for ell in range(w + 1):
                assert abs(got[i, ell] - hahn(n, w, i, ell)) <= 1e-12, (space.label(), i, ell)


@pytest.mark.parametrize("n, zeros", [(1100, 6), (3000, 984)])
def test_moments_where_masses_underflow(n, zeros):
    # the edge masses C(n, l) / 2^n of a large binary Hamming space are
    # 0.0 in floats; the moments up to order 10, which levels up to 5
    # use, must still match the exact rational ones
    space = make_space("hamming", n=n, q=2)
    _, mass = pmspace.t_grid(space)
    assert np.count_nonzero(mass == 0.0) == zeros
    got = pmspace.moments(space, 10)
    combs = [math.comb(n, l) for l in range(n + 1)]
    for m in range(11):
        # a quotient of Python integers is correctly rounded, as the float
        # of a Fraction is, without reducing integers near 2^n
        exact = sum(c * (n - 2 * l) ** m for l, c in enumerate(combs)) / (2**n * n**m)
        assert got[m] == pytest.approx(exact, rel=5e-12, abs=0), m


def test_sphere_recurrence_agreement():
    # the classical normalized three-term recurrence, checked directly
    n = 5
    space = make_space("sphere", n=n)
    tt = np.linspace(-1, 1, 9)
    q = [np.ones_like(tt), tt.copy()]
    for i in range(1, 8):
        q.append(((2 * i + n - 2) * tt * q[i] - i * q[i - 1]) / (i + n - 2))
    for i in range(9):
        assert np.max(np.abs(_q(space, i, tt) - q[i])) < 1e-11


def _jacobi_loop(alpha, beta, count):
    """Monic Jacobi beta_k and gamma_k for k = 0..count-1, one k at a time; gamma_0 left out (None)."""
    ab = alpha + beta
    offsets, gammas = [], []
    for k in range(count):
        d = 2 * k + ab
        if k == 0:
            offsets.append((beta - alpha) / (ab + 2))
            gammas.append(None)
            continue
        offsets.append((beta * beta - alpha * alpha) / (d * (d + 2)))
        if k == 1:
            gammas.append(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))
        else:
            gammas.append(4 * k * (k + alpha) * (k + beta) * (k + ab) / (d * d * (d + 1) * (d - 1)))
    return offsets, gammas


@pytest.mark.parametrize("family, params", [
    ("sphere", {"n": 2}), ("sphere", {"n": 3}), ("sphere", {"n": 10}), ("sphere", {"n": 2004}),
    ("projective", {"n": 3, "field_dim": 1}), ("projective", {"n": 3, "field_dim": 2}),
    ("projective", {"n": 4, "field_dim": 4}),
], ids=["S^1", "S^2", "S^9", "S^2003", "RP^2", "CP^2", "HP^3"])
def test_jacobi_recurrence_equals_the_per_k_loop(family, params):
    # S^1 (alpha + beta = -1) and S^2 (alpha + beta = 0) are where the
    # general gamma_1 and beta_0 are 0/0; S^2003 has alpha = 1000.5
    space = make_space(family, **params)
    alpha0, beta0 = space.jacobi_exponents()
    for a in (0, 1):
        for b in (0, 1):
            ref_b, ref_g = _jacobi_loop(alpha0 + a, beta0 + b, 2049)
            # the nu-mass of (1-t)^a (1+t)^b, as a ratio of Beta functions
            mass = math.exp((a + b) * math.log(2.0) + math.lgamma(alpha0 + a + 1) + math.lgamma(beta0 + b + 1)
                            - math.lgamma(alpha0 + beta0 + a + b + 2) - math.lgamma(alpha0 + 1)
                            - math.lgamma(beta0 + 1) + math.lgamma(alpha0 + beta0 + 2))
            for count in (1, 2, 3, 17, 33, 2049):
                beta, gamma = pmspace.adjacent_recurrence(space, a, b, count)
                assert beta.tolist() == ref_b[:count], (a, b, count)
                assert gamma[1:].tolist() == ref_g[1:count], (a, b, count)
                assert gamma[0] == pytest.approx(mass, rel=1e-11), (a, b)


@pytest.mark.parametrize("n, field_dim", [(523, 4), (1035, 2), (2057, 1)], ids=["HP^522", "CP^1034", "RP^2056"])
def test_large_projective_spaces_give_verified_bounds(n, field_dim):
    # the first dimensions where the Jacobi weight's raw mass, 2^(alpha+beta+1)
    # B(alpha+1, beta+1), is past the largest float; no result depends on it
    space = make_space("projective", n=n, field_dim=field_dim)
    for a in (0, 1):
        for b in (0, 1):
            assert np.isfinite(orthopoly.adjacent_system(space, a, b, 3).norms[:4]).all()
    _, w = pmspace.measure_rule(space, 6)
    assert np.sum(w) == pytest.approx(1.0) and (w > 0).all()
    for tau in (1, 2, 3):
        D = levenshtein.design_bound(space, tau)
        assert D == pytest.approx(float(levenshtein.exact_design_bound(space, tau)))
        lo, hi = levenshtein.validity_interval(space, tau)
        assert levenshtein.lev_bound(space, (lo + hi) / 2) >= D
        level = levenshtein._level_cardinalities(space, tau)
        checks = ulb(space, level[len(level) // 2], builtin("gaussian", c=1)).certificate_checks
        assert checks.below_h and checks.f_geq, (tau, checks)
