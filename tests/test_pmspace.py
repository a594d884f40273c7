import math

import numpy as np
import pytest

from ulbkit import pmspace
from ulbkit.errors import DegreeOverflowError, ParameterError
from ulbkit.pmspace import make_space


def test_make_space_examples():
    h72 = make_space("hamming", n=7, q=2)
    assert h72.antipodal
    tv = pmspace.t_values(h72)
    assert tv.kind == "grid"
    assert np.allclose(tv.values, [1 - 2 * l / 7 for l in range(8)])

    assert make_space("johnson", n=8, w=4).antipodal
    assert not make_space("johnson", n=9, w=4).antipodal
    with pytest.raises(ParameterError):
        make_space("johnson", n=9, w=5)


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
    ],
)
def test_make_space_rejects_bad_params(family, params):
    with pytest.raises(ParameterError):
        make_space(family, **params)


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
        assert pmspace.q_eval(s5, 1, t) == pytest.approx(t, abs=1e-14)
    for space in [s5, make_space("hamming", n=6, q=2), make_space("projective", n=3, field_dim=1)]:
        assert pmspace.q_eval(space, 0, 0.3) == pytest.approx(1.0, abs=1e-14)
    h62 = make_space("hamming", n=6, q=2)
    assert pmspace.q_eval(h62, 1, -1.0) == pytest.approx(-1.0, abs=1e-12)
    h63 = make_space("hamming", n=6, q=3)
    assert pmspace.q_eval(h63, 1, -1.0) == pytest.approx(-0.5, abs=1e-12)


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
            assert pmspace.q_eval(space, i, 1.0) == pytest.approx(1.0, abs=1e-11)


def test_q_eval_degree_overflow():
    with pytest.raises(DegreeOverflowError):
        pmspace.q_eval(make_space("johnson", n=8, w=4), 5, 0.0)


def test_multiplicity_examples():
    assert pmspace.multiplicity(make_space("sphere", n=3), 2) == 5
    assert pmspace.multiplicity(make_space("hamming", n=7, q=2), 3) == 35
    assert pmspace.multiplicity(make_space("johnson", n=8, w=4), 1) == 7
    assert pmspace.multiplicity(make_space("sphere", n=8), 0) == 1


def test_multiplicity_krawtchouk_general_q():
    h = make_space("hamming", n=6, q=4)
    assert pmspace.multiplicity(h, 2) == math.comb(6, 2) * 9


def test_moment_examples():
    for n in (3, 4, 7):
        s = make_space("sphere", n=n)
        assert pmspace.moment(s, 0) == 1.0
        assert pmspace.moment(s, 2) == pytest.approx(1 / n, abs=1e-14)
        assert pmspace.moment(s, 4) == pytest.approx(3 / (n * (n + 2)), abs=1e-14)
        assert pmspace.moment(s, 3) == 0.0
    for n in (5, 8):
        h = make_space("hamming", n=n, q=2)
        assert pmspace.moment(h, 4) == pytest.approx((3 * n - 2) / n**3, abs=1e-14)
        assert pmspace.moment(h, 6) == pytest.approx(
            (15 * n**2 - 30 * n + 16) / n**5, abs=1e-14
        )


def test_moments_match_quadrature():
    # closed forms against direct integration / discrete sums
    for space in [make_space("sphere", n=6), make_space("projective", n=4, field_dim=2)]:
        x, w = pmspace.gauss_rule(space, 24)
        for m in range(13):
            assert pmspace.moment(space, m) == pytest.approx(
                float(np.dot(w, x**m)), abs=1e-10
            )
    for space in [make_space("hamming", n=9, q=3), make_space("johnson", n=12, w=4)]:
        t, mass = pmspace.t_grid(space)
        for m in range(13):
            assert pmspace.moment(space, m) == pytest.approx(
                float(np.dot(mass, t**m)), abs=1e-10
            )


def test_q1_examples():
    assert pmspace.q1_value(make_space("sphere", n=9)) == 2.0
    assert pmspace.q1_value(make_space("hamming", n=5, q=4)) == 4.0
    assert pmspace.q1_value(make_space("johnson", n=9, w=3)) == 3.0
    assert pmspace.q1_value(make_space("projective", n=5, field_dim=2)) == 5.0
    # consistency with the defining expression 1 - 1/Q_1(-1)
    for space in [make_space("hamming", n=7, q=3), make_space("johnson", n=11, w=4),
                  make_space("projective", n=3, field_dim=4)]:
        q1m1 = pmspace.q_eval(space, 1, -1.0)
        assert pmspace.q1_value(space) == pytest.approx(1 - 1 / q1m1, abs=1e-10)


def test_discrete_orthogonality():
    from ulbkit import orthopoly

    for space in [make_space("hamming", n=8, q=2), make_space("hamming", n=6, q=3),
                  make_space("johnson", n=12, w=4), make_space("johnson", n=10, w=5)]:
        t, mass = pmspace.t_grid(space)
        deg = min(space.max_degree, 12)
        system = orthopoly.adjacent_system(space, 0, 0)
        q = orthopoly.eval_q_all(system, deg, t)
        gram = (q * mass) @ q.T * system.norms[: deg + 1, None]
        assert np.max(np.abs(gram - np.eye(deg + 1))) < 1e-10


def test_continuous_orthogonality_via_gauss():
    from ulbkit import orthopoly

    for space in [make_space("sphere", n=3), make_space("sphere", n=8),
                  make_space("projective", n=4, field_dim=2),
                  make_space("projective", n=3, field_dim=4)]:
        x, w = pmspace.gauss_rule(space, 16)
        system = orthopoly.adjacent_system(space, 0, 0)
        q = orthopoly.eval_q_all(system, 12, x)
        gram = (q * w) @ q.T * system.norms[:13, None]
        assert np.max(np.abs(gram - np.eye(13))) < 1e-9


def test_kravchuk_closed_form_agreement():
    # recurrence evaluation against the signed binomial sum at small n
    def kraw(n, q, i, z):
        return sum(
            (-1) ** j * (q - 1) ** (i - j) * math.comb(z, j) * math.comb(n - z, i - j)
            for j in range(i + 1)
        )

    for q in (2, 3):
        n = 6
        space = make_space("hamming", n=n, q=q)
        for i in range(n + 1):
            r_i = pmspace.multiplicity(space, i)
            for ell in range(n + 1):
                t = 1 - 2 * ell / n
                assert pmspace.q_eval(space, i, t) == pytest.approx(
                    kraw(n, q, i, ell) / r_i, abs=1e-9
                )


def test_hahn_closed_form_agreement():
    def hahn(n, w, i, z):
        return sum(
            (-1) ** j
            * math.comb(i, j) * math.comb(n + 1 - i, j)
            / (math.comb(w, j) * math.comb(n - w, j))
            * math.comb(z, j)
            for j in range(i + 1)
        )

    n, w = 10, 4
    space = make_space("johnson", n=n, w=w)
    for i in range(w + 1):
        for ell in range(w + 1):
            t = 1 - 2 * ell / w
            assert pmspace.q_eval(space, i, t) == pytest.approx(
                hahn(n, w, i, ell), abs=1e-9
            )


def test_sphere_recurrence_agreement():
    # the classical normalized three-term recurrence, checked directly
    n = 5
    space = make_space("sphere", n=n)
    tt = np.linspace(-1, 1, 9)
    q = [np.ones_like(tt), tt.copy()]
    for i in range(1, 8):
        q.append(((2 * i + n - 2) * tt * q[i] - i * q[i - 1]) / (i + n - 2))
    for i in range(9):
        assert np.max(np.abs(pmspace.q_eval(space, i, tt) - q[i])) < 1e-11
