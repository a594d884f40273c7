import itertools
import math

import numpy as np
import pytest

from ulbkit import _recurrence as rec
from ulbkit import levenshtein as lev
from ulbkit import orthopoly
from ulbkit.orthopoly import adjacent_system
from ulbkit.pmspace import make_space

# the spaces of the bound-table and high-degree benchmark lists, with the
# highest level each is tested at
SPACES = (
    (make_space("sphere", n=3), 55),
    (make_space("sphere", n=10), 46),
    (make_space("hamming", n=30, q=2), 20),
    (make_space("johnson", n=80, w=40), 20),
    (make_space("projective", n=4, field_dim=4), 54),
    (make_space("projective", n=3, field_dim=2), 50),
)
IDS = [space.label() for space, _ in SPACES]


def _separations(space, top):
    """s of the rule in the middle of every level 1..top."""
    out = []
    for tau in range(1, top + 1):
        M = int(round(0.5 * (lev.design_bound(space, tau) + lev.design_bound(space, tau + 1))))
        if M > lev.design_bound(space, tau):
            out.append(lev.quadrature_rule(space, M).s)
    return out


@pytest.mark.parametrize("space,top", SPACES, ids=IDS)
def test_point_recurrence_equals_the_array_path(space, top):
    points = [-1.0, 1.0] + _separations(space, top)
    deg_top = (top + 1) // 2 + 1  # above the degree of every Lev or weight system
    for a, b in itertools.product((0, 1), repeat=2):
        system = adjacent_system(space, a, b, 0 if space.is_finite else deg_top)
        deg = min(system.max_deg, deg_top)
        beta, gamma = system.rec_beta, system.rec_gamma
        table = rec.eval_all(beta, gamma, deg, np.array(points))
        for j, t in enumerate(points):
            assert np.array_equal(rec.eval_all(beta, gamma, deg, t), table[:, j]), (a, b, t)


def _derivatives_by_new_arrays(b, g, deg, order, t):
    # the monic recurrence loop as it was before it wrote into its output
    # in place and before it was scaled to P_k = 2^k pi_k
    t = np.asarray(t, dtype=float)
    r = np.arange(1, order + 1).reshape((order,) + (1,) * t.ndim)
    out = np.zeros((deg + 1, order + 1) + t.shape)
    out[0, 0] = 1.0
    for k in range(deg):
        out[k + 1] = (t - b[k]) * out[k]
        out[k + 1, 1:] += r * out[k, :-1]
        if k > 0:
            out[k + 1] -= g[k] * out[k - 1]
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("space,top", SPACES, ids=IDS)
def test_derivatives_equal_the_reference_loop(space, top, order):
    deg = min(top + 2, space.max_degree or top + 2)
    system = adjacent_system(space, 0, 0, deg)
    b, g = system.rec_beta, system.rec_gamma
    rng = np.random.default_rng(top)
    nodes = np.sort(rng.uniform(-1.0, 1.0, 27))
    for t in (nodes, nodes.reshape(3, 9), 0.3, np.array([-1.0]), np.linspace(-1, 1, 401)):
        got = rec.eval_derivatives(b, g, deg, order, t)
        scale = 2.0 ** np.arange(deg + 1).reshape((deg + 1,) + (1,) * (got.ndim - 1))
        assert np.array_equal(got, scale * _derivatives_by_new_arrays(b, g, deg, order, t))
    assert rec.eval_derivatives(b, g, 0, order, nodes).shape == (1, order + 1, 27)


def _derivatives_by_five_calls(b, g, deg, order, t):
    # the loop as it was before it carried the slope rows scaled: five
    # ufunc calls per degree, every order multiplied by 2r
    t = np.asarray(t, dtype=float)
    x = t.reshape(-1)
    out = np.zeros((deg + 1, order + 1, x.size))
    out[0, 0] = 1.0
    shift = np.empty((deg, order + 1, x.size))
    shift[...] = (2.0 * (x - np.reshape(b[:deg], (deg, 1))))[:, None]
    r = np.empty((order, x.size))
    r[...] = np.arange(2.0, 2.0 * order + 1.0, 2.0)[:, None]
    tmp = np.empty((order + 1, x.size))
    tmp_high = tmp[1:]
    rows, highs, lows = list(out), list(out[:, 1:]), list(out[:, :-1])
    for k, g_k in enumerate((4.0 * g[:deg]).tolist()):
        row = rows[k + 1]
        np.multiply(shift[k], rows[k], row)
        if order:
            np.multiply(r, lows[k], tmp_high)
            np.add(highs[k + 1], tmp_high, highs[k + 1])
        if k:
            np.multiply(rows[k - 1], g_k, tmp)
            np.subtract(row, tmp, row)
    return out.reshape((deg + 1, order + 1) + t.shape)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("deg", [0, 1, 2, 21, 300])
def test_derivatives_equal_the_five_call_loop(deg, order):
    rng = np.random.default_rng(deg)
    nodes = np.concatenate([[-1.0, 1.0], np.sort(rng.uniform(-1.0, 1.0, 25))])
    for n, a in ((3, 0), (10, 0), (3, 1)):
        system = adjacent_system(make_space("sphere", n=n), a, 0, deg)
        b, g = system.rec_beta, system.rec_gamma
        # at t = beta_k the shift 2 (t - beta_k) is +0, and at t = -0.0 on a
        # sphere's (0,0) system, where every beta_k is +0, it is -0
        on_beta = np.concatenate([[0.0, -0.0], b[:deg:7]])
        for t in (np.float64(0.3), nodes, nodes.reshape(3, 9), on_beta):
            got = rec.eval_derivatives(b, g, deg, order, t)
            want = _derivatives_by_five_calls(b, g, deg, order, t)
            assert got.shape == want.shape == (deg + 1, order + 1) + np.shape(t)
            assert got.tobytes() == want.tobytes(), (n, np.shape(t))


def _frexp_norms(value_at_one, gamma, c_norm):
    # r_i as formed from the monic values at 1 before the recurrence was
    # scaled by 2^k, with mantissas and binary exponents carried apart
    mant, expo = np.frexp(value_at_one)
    prod_mant = np.empty(len(gamma))
    prod_expo = np.empty(len(gamma), dtype=int)
    m, e = 1.0, 0
    for i, g in enumerate(gamma.tolist()):
        m, de = math.frexp(m * g)
        e += de
        prod_mant[i], prod_expo[i] = m, e
    return np.ldexp(mant**2 / (c_norm * prod_mant), 2 * expo - prod_expo)


def _where_the_monic_loop_stays_normal(b, g, t, mono):
    # per degree and point, whether the monic loop formed every value and
    # product up to that degree as a normal float or 0: past a subnormal
    # one the monic digits are lost, and the scaled values keep more
    tiny = np.finfo(float).tiny

    def normal(x):
        return ((np.abs(x) >= tiny) | (x == 0)).all(axis=1)

    deg = len(mono) - 1
    ok = normal(mono)
    ok[1:] &= normal((t - b[:deg, None, None]) * mono[:-1])
    ok[2:] &= normal(g[1:deg, None, None] * mono[:-2])
    return np.logical_and.accumulate(ok, axis=0)


@pytest.mark.parametrize("space,top", SPACES, ids=IDS)
def test_scaled_recurrence_equals_the_monic_path(space, top):
    # Q_i, Q_i' and r_i formed from the monic values, divided by the monic
    # values at 1, are the reference: every factor 2 and 4 of the scaled
    # recurrence is exact, so they agree bit for bit wherever the monic
    # loop stays normal (at t = 1 on S^2 up to degree 1027)
    deg_top = space.max_degree or 1000
    t = np.concatenate([[-1.0, 1.0], np.linspace(-0.999, 0.999, 37), _separations(space, top)])
    for a, b in itertools.product((0, 1), repeat=2):
        system = adjacent_system(space, a, b, 0 if space.is_finite else deg_top)
        deg = min(system.max_deg, deg_top)
        beta, gamma = system.rec_beta, system.rec_gamma
        mono = _derivatives_by_new_arrays(beta, gamma, deg, 1, t)
        normal = _where_the_monic_loop_stays_normal(beta, gamma, t, mono)
        assert normal[:, 1].all() and normal.mean() > 0.95
        mono_one = mono[:, 0, 1]
        q_ref = mono / mono_one[:, None, None]
        q = orthopoly.eval_q_derivatives(system, deg, 1, t)
        assert np.array_equal(q.transpose(1, 0, 2)[:, normal], q_ref.transpose(1, 0, 2)[:, normal]), (a, b)
        q = orthopoly.eval_q_all(system, deg, t)
        assert np.array_equal(q[normal], q_ref[:, 0][normal]), (a, b)
        assert np.array_equal(system.norms[: deg + 1], _frexp_norms(mono_one, gamma[: deg + 1], 1.0 / gamma[0]))
