"""What a bound caches per level and per potential changes no bit of it."""

import dataclasses
import importlib

import numpy as np
import pytest

from ulbkit import levenshtein as lev
from ulbkit import orthopoly, pmspace
from ulbkit.errors import ConditionError, ParameterError
from ulbkit.pmspace import make_space
from ulbkit.potentials import Potential, builtin
from ulbkit.ulb import improve_with_qj, ulb, verify_certificate

ULB = importlib.import_module("ulbkit.ulb")
RIESZ1 = builtin("riesz", p=1)
GAUSS = builtin("gaussian", c=1)
S2 = make_space("sphere", n=3)
H30 = make_space("hamming", n=30, q=2)
HP3 = make_space("projective", n=4, field_dim=4)


def _mid_level(space, tau):
    return int(round(0.5 * (lev.design_bound(space, tau) + lev.design_bound(space, tau + 1))))


def _report_bytes(report):
    rule, checks = report.rule, report.certificate_checks
    return (
        rule.k, rule.epsilon, rule.tau, rule.s.hex(), rule.nodes.tobytes(),
        rule.weights.tobytes(), float(rule.power_sum_residual).hex(), report.value_sum.hex(),
        report.certificate.tobytes(), checks.below_h, checks.f_geq,
        checks.min_q_coefficient.hex(), checks.max_excess.hex(), checks.worst_t.hex(),
    )


def _clear_every_cache(monkeypatch):
    monkeypatch.setattr(lev, "_LEVEL_MAPS", {})
    monkeypatch.setattr(orthopoly, "_GRID_TABLES", {})
    monkeypatch.setattr(pmspace, "_JACOBI_SUMS", {})
    for h in (RIESZ1, GAUSS):
        h._memo.clear()
    for cached in (lev._level, orthopoly._build_system, pmspace.moments,
                   pmspace.verification_grid):
        cached.cache_clear()


@pytest.mark.parametrize(
    "space, tau, h",
    [(S2, 10, GAUSS), (S2, 11, RIESZ1), (H30, 6, GAUSS), (H30, 7, RIESZ1),
     (HP3, 12, RIESZ1), (HP3, 13, GAUSS), (S2, 10, RIESZ1), (HP3, 12, GAUSS)],
    ids=["S^2-even", "S^2-odd", "H(30,2)-even", "H(30,2)-odd", "HP^3-even", "HP^3-odd",
         "S^2-even-riesz", "HP^3-even-gaussian"],
)
def test_a_cold_report_equals_the_warm_one(monkeypatch, space, tau, h):
    # the level's record is built by a neighbour in the level
    M = _mid_level(space, tau)
    ulb(space, M + 1, h)
    warm = ulb(space, M, h)
    assert warm.rule.tau == tau
    _clear_every_cache(monkeypatch)
    cold = ulb(space, M, h)
    assert _report_bytes(cold) == _report_bytes(warm)
    assert _report_bytes(ulb(space, M, h)) == _report_bytes(warm)


def test_a_warm_bound_builds_no_level_record():
    M = _mid_level(S2, 14)
    ulb(S2, M, GAUSS)
    built = lev._level.cache_info().misses
    for m in (M, M + 1, M - 1):
        assert ulb(S2, m, GAUSS).rule.tau == 14
        assert ulb(S2, m, RIESZ1).rule.tau == 14
    assert lev._level.cache_info().misses == built


@pytest.mark.parametrize("tau", [40, 41])
def test_a_level_record_holds_only_scalars_and_shared_systems(tau):
    # no array of its own, so a sweep over every level costs O(1) per level
    k, eps = lev._split(tau)
    record = lev._level(S2, k, eps)
    assert (record.k, record.eps, record.tau) == (k, eps, tau)
    for name, value in zip(record._fields, record):
        if name in ("k", "eps"):
            assert type(value) is int, name
        elif isinstance(value, tuple):
            assert len(value) == 2 and all(isinstance(x, float) for x in value)
        else:
            assert value is None or isinstance(value, (float, orthopoly.OrthoSystem)), name
    assert (record.weight_system is None) == (eps == 0)


def test_potentials_keep_their_own_grid_values():
    space = S2
    grid = pmspace.verification_grid(space)
    base = improve_with_qj(space, 7, RIESZ1, 6)
    f = base.certificate
    g1, g2 = builtin("gaussian", c=1), builtin("gaussian", c=2)
    checks = {}
    for h in (g1, g2, g1, g2):
        checks.setdefault(h.params["c"], []).append(verify_certificate(space, f, h))
    assert checks[1.0][0] == checks[1.0][1] and checks[2.0][0] == checks[2.0][1]
    assert checks[1.0][0].max_excess != checks[2.0][0].max_excess
    # the shifted potentials of an improvement are checked on their own
    system = orthopoly.adjacent_system(space, 0, 0, 6)

    def qj(order, t):
        return orthopoly.eval_q_derivatives(system, 6, order, t)[6]

    shifted = [ULB._shifted(RIESZ1, qj, eta) for eta in (base.improvement["eta"], 1e-3)]
    for h in [g1, g2, RIESZ1] + shifted:
        verify_certificate(space, f, h)
    cached = [h._memo[space][0] for h in [g1, g2, RIESZ1] + shifted]
    for h, hv in zip([g1, g2, RIESZ1] + shifted, cached):
        assert np.array_equal(hv, h(grid))
    assert len({hv.tobytes() for hv in cached}) == len(cached)
    # the improved report itself is checked against h, not a shifted one
    assert base.certificate_checks == verify_certificate(space, f, RIESZ1)


def test_cached_grid_values_are_read_only():
    space = HP3
    ulb(space, _mid_level(space, 9), GAUSS)
    verify_certificate(space, np.ones(3), GAUSS)
    hv, tol = GAUSS._memo[space]
    assert np.array_equal(tol, ULB._BELOW_TOL * (1.0 + np.abs(hv)))
    for arr in (hv, tol):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_a_potential_is_evaluated_on_the_grid_once_per_space():
    # a derivative function without a weak reference takes the same path as any other
    class Exp:
        __slots__ = ()

        def __call__(self, t, order):
            calls.append(np.shape(t))
            return np.exp(t)

    calls = []
    h = Potential("exp", _deriv=Exp())
    grid_size = len(pmspace.verification_grid(S2))
    first = verify_certificate(S2, np.ones(3), h)
    assert verify_certificate(S2, np.ones(3), h) == first
    assert calls == [(grid_size,)]
    verify_certificate(H30, np.ones(3), h)
    verify_certificate(S2, np.ones(3), h)
    assert calls == [(grid_size,), (len(pmspace.verification_grid(H30)),)]
    assert set(h._memo) == {S2, H30}


def test_each_potential_instance_keeps_its_own_memo():
    def deriv(t, order):
        return np.exp(t)

    a, b = Potential("exp", _deriv=deriv), Potential("exp", _deriv=deriv)
    verify_certificate(S2, np.ones(3), a)
    assert S2 in a._memo and b._memo == {}
    assert a == b and repr(a) == repr(b) and "_memo=" not in repr(a)
    fresh = dataclasses.replace(a)
    assert fresh._memo == {} and fresh._memo is not a._memo and fresh == a
    with pytest.raises(TypeError):
        Potential("exp", _deriv=deriv, _memo={})


@pytest.mark.parametrize("bad", [float("nan"), -1e-9, float("inf")])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_refused(bad):
    M = _mid_level(S2, 6)
    ulb(S2, M, GAUSS)
    rows = GAUSS._memo
    before = dict(rows)
    with pytest.raises(ParameterError, match="rel_tol must be finite and >= 0"):
        ulb(S2, M, GAUSS, rel_tol=bad)
    # rel_tol is keyword-only: a fourth positional argument is refused
    with pytest.raises(TypeError):
        ulb(S2, M, GAUSS, bad)
    assert rows == before
    # the pointwise tolerance is the library's own
    for call in (lambda: ulb(S2, M, GAUSS, abs_tol=bad),
                 lambda: verify_certificate(S2, np.ones(3), GAUSS, below_tol=bad),
                 lambda: verify_certificate(S2, np.ones(3), GAUSS, bad)):
        with pytest.raises(TypeError):
            call()
    # zero is a tolerance; at M the cross-check then refuses on the last bit, at 4 it passes
    with pytest.raises(ConditionError, match="disagrees with quadrature value"):
        ulb(S2, M, GAUSS, rel_tol=0.0)
    assert ulb(S2, 4, GAUSS, rel_tol=0.0).rule.M == 4
