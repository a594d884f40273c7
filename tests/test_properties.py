"""Property tests of the 1/M-quadrature rule over random spaces and cardinalities."""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ulbkit import levenshtein as lev
from ulbkit.errors import DegreeOverflowError, UlbkitError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import test_functions as p_values
from ulbkit.ulb import ulb

SPACES = st.one_of(
    st.builds(lambda n: ("sphere", {"n": n}), st.integers(2, 40)),
    st.builds(lambda n, q: ("hamming", {"n": n, "q": q}), st.integers(3, 40), st.integers(2, 5)),
    st.integers(6, 80).flatmap(
        lambda n: st.builds(lambda w: ("johnson", {"n": n, "w": w}), st.integers(2, n // 2))
    ),
    st.builds(
        lambda n, m: ("projective", {"n": n, "field_dim": m}),
        st.integers(3, 12),
        st.sampled_from([1, 2, 4]),
    ),
)


@st.composite
def level_cases(draw):
    """(space, tau, M) with the integer M strictly inside (D(tau), D(tau+1))."""
    family, params = draw(SPACES)
    space = make_space(family, **params)
    tau = draw(st.integers(1, min(20, space.max_degree or 20)))
    try:
        d_lo, d_hi = lev.design_bound(space, tau), lev.design_bound(space, tau + 1)
    except DegreeOverflowError:
        assume(False)
    # the same margin as the benchmark's draws: the level of M is unambiguous
    lo = int(np.floor(d_lo * (1 + 1e-9))) + 1
    hi = int(np.ceil(d_hi * (1 - 1e-9))) - 1
    assume(lo <= hi)
    return space, tau, draw(st.integers(lo, hi))


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(level_cases())
# 21 above D(18) = 2.03e10, where the weight at -1 is about 1e-16
@example((make_space("johnson", n=62, w=26), 18, 20286591291))
def test_rule_invariants(case):
    space, tau, M = case
    try:
        rule = lev.quadrature_rule(space, M)
    except DegreeOverflowError:
        # the kernel of the level needs a degree beyond a finite space's cap
        assume(False)
    assert rule.tau == tau
    assert np.all(rule.weights > 0)
    assert abs(np.sum(rule.weights) - (1 - 1 / M)) <= 1e-10
    lo, hi = lev.validity_interval(space, tau)
    assert lo <= rule.s <= hi
    assert abs(lev.lev_bound(space, rule.s) - M) <= 1e-10 * M
    values = p_values(space, M, range(1, tau + 1)).values
    assert np.max(np.abs(values)) < 1e-8


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(SPACES, st.integers(1, 12), st.sampled_from([("riesz", {"p": 1.0}), ("gaussian", {"c": 1.0})]))
def test_ulb_increases_across_level_ends(space_params, tau, potential):
    # the last two integers of level tau and the first two of level tau+1,
    # whose bounds come from different rules: every bound that ulb returns
    # grows with M
    space = make_space(space_params[0], **space_params[1])
    try:
        top = lev._level_cardinalities(space, tau).stop - 1
    except DegreeOverflowError:
        assume(False)
    h = builtin(potential[0], **potential[1])
    values = []
    for M in range(max(2, top - 1), top + 3):
        try:
            values.append(ulb(space, M, h).value_sum)
        except UlbkitError:
            continue
    assert all(a < b for a, b in zip(values, values[1:])), (space.label(), top, values)
