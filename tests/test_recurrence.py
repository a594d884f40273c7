import itertools

import numpy as np
import pytest

from ulbkit import _recurrence as rec
from ulbkit import levenshtein as lev
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
    # the recurrence loop as it was before it wrote into its output in place
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
        assert np.array_equal(got, _derivatives_by_new_arrays(b, g, deg, order, t))
    assert rec.eval_derivatives(b, g, 0, order, nodes).shape == (1, order + 1, 27)
