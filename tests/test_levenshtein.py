import functools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ulbkit import _recurrence as rec
from ulbkit import levenshtein as lev
from ulbkit import orthopoly, pmspace
from ulbkit.errors import ConvergenceError, DegreeOverflowError, ParameterError
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb

ALL_SPACES = [
    make_space("sphere", n=3),
    make_space("sphere", n=5),
    make_space("hamming", n=8, q=2),
    make_space("hamming", n=7, q=3),
    make_space("johnson", n=10, w=5),
    make_space("johnson", n=12, w=4),
    make_space("projective", n=4, field_dim=2),
    make_space("projective", n=3, field_dim=4),
]


def test_design_bound_examples():
    assert lev.design_bound(make_space("sphere", n=3), 3) == pytest.approx(6.0, abs=1e-10)
    assert lev.design_bound(make_space("sphere", n=3), 5) == pytest.approx(12.0, abs=1e-10)
    for n in (5, 8):
        assert lev.design_bound(make_space("hamming", n=n, q=2), 3) == pytest.approx(
            2 * n, abs=1e-9
        )


def test_design_bound_classical_values():
    import math

    # spheres: 2*C(n+k-2, n-1) at odd levels, C(n+k-1,n-1)+C(n+k-2,n-1) at even
    for n in (3, 4, 6):
        s = make_space("sphere", n=n)
        for k in (1, 2, 3):
            odd = 2 * math.comb(n + k - 2, n - 1)
            even = math.comb(n + k - 1, n - 1) + math.comb(n + k - 2, n - 1)
            assert lev.design_bound(s, 2 * k - 1) == pytest.approx(odd, rel=1e-12)
            assert lev.design_bound(s, 2 * k) == pytest.approx(even, rel=1e-12)
    # Hamming: the classical combinatorial bound
    for n, q in ((8, 2), (7, 3)):
        h = make_space("hamming", n=n, q=q)
        for k in (1, 2, 3):
            odd = q * sum(math.comb(n - 1, i) * (q - 1) ** i for i in range(k))
            even = sum(math.comb(n, i) * (q - 1) ** i for i in range(k + 1))
            assert lev.design_bound(h, 2 * k - 1) == pytest.approx(odd, rel=1e-10)
            assert lev.design_bound(h, 2 * k) == pytest.approx(even, rel=1e-10)
    # Johnson: (n/w)^(1-eps) style values with the telescoping even sums
    j = make_space("johnson", n=12, w=4)
    assert lev.design_bound(j, 2) == pytest.approx(12.0, abs=1e-9)
    assert lev.design_bound(j, 3) == pytest.approx(3 * math.comb(11, 1), abs=1e-9)
    assert lev.design_bound(j, 4) == pytest.approx(math.comb(12, 2), abs=1e-8)
    assert lev.design_bound(j, 5) == pytest.approx(3 * math.comb(11, 2), abs=1e-8)


def test_design_bound_nondecreasing():
    for space in ALL_SPACES:
        vals = []
        for tau in range(1, 8):
            try:
                vals.append(lev.design_bound(space, tau))
            except DegreeOverflowError:
                break
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def _lev_at(space, tau, s):
    """L_tau(s), of level tau whichever level lev_bound takes s to."""
    return lev._lev_value(lev._level(space, *lev._split(tau)), s)


def test_lev_bound_examples():
    for n in (3, 4, 7):
        s = make_space("sphere", n=n)
        assert lev.lev_bound(s, -1 / n) == pytest.approx(n + 1, abs=1e-10)
    s2 = make_space("sphere", n=3)
    for s in (-1.5, 1.0, math.nan):
        with pytest.raises(ParameterError, match=r"outside \[-1, 1\)"):
            lev.lev_bound(s2, s)
    # past the last level of H(8,2), whose last interval ends at 0.744
    with pytest.raises(DegreeOverflowError, match="exceeds the"):
        lev.lev_bound(make_space("hamming", n=8, q=2), 0.9)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_endpoint_agreement(space):
    for tau in range(1, 8):
        try:
            lo, hi = lev.validity_interval(space, tau)
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            break
        assert _lev_at(space, tau, lo) == pytest.approx(d_lo, abs=1e-7)
        assert _lev_at(space, tau, hi) == pytest.approx(d_hi, abs=1e-7)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_lev_bound_strictly_increasing(space):
    for tau in (2, 3):
        lo, hi = lev.validity_interval(space, tau)
        grid = np.linspace(lo, hi, 100)
        vals = [lev.lev_bound(space, s) for s in grid]
        assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("tau", [2, 3])
def test_lev_bound_takes_s_to_within_1e_12_of_its_interval(tau):
    # s just past an end of level tau's interval is served by the
    # neighbouring level, whose L meets L_tau at the end
    s2 = make_space("sphere", n=3)
    lo, hi = lev.validity_interval(s2, tau)
    assert lev.separation_level(s2, lo) == tau - 1 and lev.separation_level(s2, hi) == tau
    for end, out in ((lo, -1.0), (hi, 1.0)):
        for step in (1e-13, 1e-9):
            s = end + out * step
            assert lev.separation_level(s2, s) == tau + int(out)
            assert lev.lev_bound(s2, s) == pytest.approx(_lev_at(s2, tau, s), rel=1e-8)


@pytest.mark.parametrize(
    "space",
    [make_space("sphere", n=3), make_space("sphere", n=10), make_space("projective", n=4, field_dim=4),
     make_space("hamming", n=30, q=2), make_space("johnson", n=80, w=40),
     make_space("hamming", n=8, q=2)],
    ids=lambda s: s.label(),
)
def test_lev_bound_is_one_increasing_function_across_levels(space):
    # levels 1..80, or to the last one of a finite space
    intervals = []
    for tau in range(1, 81):
        try:
            intervals.append(lev.validity_interval(space, tau))
        except DegreeOverflowError:
            break
    # the intervals tile [-1, the last end], each shared end bit for bit
    assert intervals[0][0] == -1.0
    assert all(a[1] == b[0] for a, b in zip(intervals, intervals[1:]))
    grid = np.linspace(-1.0, intervals[-1][1], 3001)
    vals = np.array([lev.lev_bound(space, s) for s in grid.tolist()])
    assert (np.diff(vals) > 0).all()
    # the two levels of a shared end agree there; lev_bound takes the lower
    for tau, (_, hi) in enumerate(intervals[:-1], start=1):
        below, above = _lev_at(space, tau, hi), _lev_at(space, tau + 1, hi)
        assert abs(below - above) <= 1e-13 * below, tau
        assert lev.separation_level(space, hi) == tau and lev.lev_bound(space, hi) == below


def test_separation_level_builds_a_logarithmic_number_of_levels():
    # doubling tau, then bisecting: a walk up from level 1 took 42 s to
    # S^2 s = 0.99999 (level 1711), building every level below it
    space = make_space("sphere", n=6)
    misses = lev._level.cache_info().misses
    tau = lev.separation_level(space, 0.999)
    assert lev._level.cache_info().misses - misses <= 2 * math.ceil(math.log2(tau)) + 1
    # the first level whose interval reaches s, by the walk
    assert tau == next(t for t in range(1, 1000) if 0.999 <= lev.validity_interval(space, t)[1]) > 64


def test_tau_for_cardinality_examples():
    assert lev.tau_for_cardinality(make_space("sphere", n=3), 5) == (1, 1, 2)
    for n in (3, 5, 8):
        assert lev.tau_for_cardinality(make_space("sphere", n=n), n + 1) == (1, 0, 1)
    assert lev.tau_for_cardinality(make_space("hamming", n=8, q=2), 16) == (1, 1, 2)
    assert lev.tau_for_cardinality(make_space("sphere", n=3), 2) == (1, 0, 1)
    # J(11,3): D(3) = 110/3, so level 2 ends at 36 and 37 starts level 3
    j113 = make_space("johnson", n=11, w=3)
    assert [lev.tau_for_cardinality(j113, M)[2] for M in (36, 37)] == [2, 3]


def test_tau_for_cardinality_errors():
    with pytest.raises(ParameterError):
        lev.tau_for_cardinality(make_space("sphere", n=3), 1)
    with pytest.raises(ParameterError):
        lev.tau_for_cardinality(make_space("hamming", n=6, q=3), 2)  # below q1
    # a level needing kernel degrees beyond the space's cap fails loudly
    with pytest.raises(DegreeOverflowError):
        lev.quadrature_rule(make_space("johnson", n=12, w=4), 230)


def _linear_level(space, M):
    """The level map as a scan over the exact design bounds: the reference for lev._level_of.

    A finite space's levels end at its degree cap, an infinite space's
    where design_bound refuses the bound above a level.
    """
    d1 = _exact_design_bound(space, 1)
    if M <= math.ceil(d1) - 1:
        raise ParameterError(
            f"M={M} is below the level-1 design bound {float(d1):g} of {space.label()};"
            " no quadrature rule exists"
        )
    tau = 1
    while True:
        try:
            if tau > (space.max_degree or math.inf):
                raise DegreeOverflowError
            lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            raise DegreeOverflowError(
                f"M={M} exceeds the level capacity of {space.label()}"
                f" (needs tau >= {tau})"
            ) from None
        if M <= math.floor(_exact_design_bound(space, tau + 1)):
            k, eps = lev._split(tau)
            return k, eps, tau
        tau += 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ParameterError, DegreeOverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "family, params",
    [
        ("sphere", {"n": 3}),
        ("sphere", {"n": 10}),
        ("hamming", {"n": 30, "q": 2}),
        ("johnson", {"n": 80, "w": 40}),
        ("projective", {"n": 4, "field_dim": 4}),
        ("projective", {"n": 3, "field_dim": 2}),
        ("hamming", {"n": 8, "q": 2}),
        ("johnson", {"n": 7, "w": 3}),
    ],
)
def test_level_map_matches_the_level_scan(family, params):
    space = make_space(family, **params)
    bounds = []
    for tau in range(1, 61):
        try:
            bounds.append(lev.design_bound(space, tau))
        except DegreeOverflowError:
            break
    # past a finite space's last level the scan and the map both overflow
    candidates = [2 * bounds[-1]]
    for d in bounds:
        candidates += [d - 1, d, d + 1, d * (1 - 1e-13), d * (1 + 1e-13)]
    for M in candidates:
        assert _outcome(lev._level_of, space, M) == _outcome(_linear_level, space, M), M
        if M >= 2 and int(M) == M:
            got = _outcome(lev.tau_for_cardinality, space, M)
            assert got == _outcome(_linear_level, space, M), M


def test_level_map_past_the_s2_norm_overflow():
    # D(2k-1) = k(k+1) and D(2k) = (k+1)^2 on S^2; the norms behind these
    # levels once overflowed, and both M mapped to tau 1076
    space = make_space("sphere", n=3)
    assert lev.tau_for_cardinality(space, 300000) == (547, 0, 1093)
    assert lev.tau_for_cardinality(space, 400000) == (631, 1, 1262)
    for tau, d in ((1093, 547 * 548), (1094, 548**2), (1262, 632**2), (1263, 632 * 633)):
        assert lev.design_bound(space, tau) == pytest.approx(d, rel=1e-11)


def test_level_map_stops_where_the_systems_stop():
    # S^2's systems end at the degree ceiling 2048, so its levels end at
    # tau 4097, where D(2k-1) = k(k+1); the design bounds once stopped
    # growing at a system's end and this call never returned
    space = make_space("sphere", n=3)
    assert lev.design_bound(space, 4097) == pytest.approx(2049 * 2050, rel=1e-11)
    for M in (5_000_000, 10**12):
        got = _outcome(lev.tau_for_cardinality, space, M)
        assert got == (DegreeOverflowError, f"M={M} exceeds the level capacity of S^2 (needs tau >= 4097)")
        assert got == _outcome(_linear_level, space, M)


def test_level_map_past_the_largest_float():
    # S^399's design bounds pass the largest float before its systems end:
    # design_bound gives inf there, and the map, in integers, ends at its
    # last level (a float top once raised a bare OverflowError)
    space = make_space("sphere", n=400)
    assert lev.design_bound(space, 1369) < math.inf == lev.design_bound(space, 1370)
    assert lev.exact_design_bound(space, 1370) > 2**1024
    with pytest.raises(DegreeOverflowError, match=r"capacity of S\^399"):
        lev.tau_for_cardinality(space, 10**400)


@pytest.mark.parametrize(
    "space, last", [(make_space("hamming", n=1000, q=2), 706), (make_space("johnson", n=1000, w=500), 500)],
    ids=["H(1000,2)", "J(1000,500)"])
def test_level_map_stops_where_a_finite_space_systems_stop(space, last):
    # H(1000,2)'s (0,0) system ends at degree 706, the last whose r_i is a
    # normal float, and J(1000,500)'s at its last degree w; a certificate's
    # degree ends there too, so the levels end at that tau, although
    # D(tau + 1) is still defined.  The first M past the last level needs
    # the next one
    M = math.floor(lev.exact_design_bound(space, last + 1)) + 1
    got = _outcome(lev._level_of, space, M)
    assert got == (DegreeOverflowError,
                   f"M={M} exceeds the level capacity of {space.label()} (needs tau >= {last + 1})")
    assert lev._level_cardinalities(space, last)[-1] == M - 1
    with pytest.raises(DegreeOverflowError):
        lev._level_cardinalities(space, last + 1)


def _level_or_error(space, M):
    try:
        return lev.tau_for_cardinality(space, M)[2]
    except (ParameterError, DegreeOverflowError) as exc:
        return type(exc)


@pytest.mark.parametrize(
    "family, params, last",
    [
        ("sphere", {"n": 3}, None),
        ("sphere", {"n": 136}, None),
        ("hamming", {"n": 128, "q": 2}, 128),
        ("johnson", {"n": 80, "w": 40}, 40),
        ("projective", {"n": 4, "field_dim": 4}, None),
    ],
)
def test_level_cardinalities_round_trip(family, params, last):
    # every M the level map gives level tau maps back to tau, and the two
    # integers just outside the range map to the levels beside it
    space = make_space(family, **params)
    assert (2 in lev._level_cardinalities(space, 1)) == (lev.design_bound(space, 1) <= 2)
    for tau in range(1, 13):
        level = lev._level_cardinalities(space, tau)
        lo, hi = level[0], level[-1]
        sample = level if hi - lo < 200 else [lo + (hi - lo) * i // 49 for i in range(50)]
        assert {_level_or_error(space, M) for M in [*sample, lo + 1, hi - 1]} == {tau}, tau
        assert _level_or_error(space, lo - 1) == (tau - 1 if tau > 1 else ParameterError), tau
        assert _level_or_error(space, hi + 1) == tau + 1, tau
    if last:
        # a finite space's map ends at its last servable level, the space's
        # degree cap: a bound there needs a certificate of degree tau
        assert lev._level_cardinalities(space, last)
        with pytest.raises(DegreeOverflowError):
            lev._level_cardinalities(space, last + 1)
        with pytest.raises(DegreeOverflowError, match=r"needs tau >= "):
            lev.tau_for_cardinality(space, lev._level_cardinalities(space, last)[-1] + 1)


def _gbinom(x, k):
    """C(x, k) for a Fraction x and an integer k >= 0."""
    return math.prod((x - j) / (k - j) for j in range(k))


@functools.lru_cache(maxsize=None)
def _jacobi_r(alpha, beta, i):
    """The Jacobi multiplicity r_i by its product formula, exact; alpha + beta > -1."""
    c = alpha + beta + 1
    return (2 * i + c) / c * _gbinom(i + c - 1, i) * _gbinom(i + alpha, i) / _gbinom(i + beta, i)


@functools.lru_cache(maxsize=None)
def _exact_design_bound(space, tau):
    """D(tau) in exact arithmetic, from the closed forms, apart from the library."""
    n, k, odd = space.n, (tau + 1) // 2, tau % 2
    if space.family is pmspace.Family.SPHERE:
        if odd:
            return 2 * math.comb(n + k - 2, n - 1)
        return math.comb(n + k - 1, n - 1) + math.comb(n + k - 2, n - 1)
    if space.family is pmspace.Family.HAMMING:
        q = space.q
        if odd:
            return q * sum(math.comb(n - 1, i) * (q - 1) ** i for i in range(k))
        return sum(math.comb(n, i) * (q - 1) ** i for i in range(k + 1))
    if space.family is pmspace.Family.JOHNSON:
        return Fraction(n, space.w) * math.comb(n - 1, k - 1) if odd else math.comb(n, k)
    alpha, beta = map(Fraction, space.jacobi_exponents())
    if odd:
        return n * sum(_jacobi_r(alpha, beta + 1, i) for i in range(k))
    return sum(_jacobi_r(alpha, beta, i) for i in range(k + 1))


@pytest.mark.parametrize(
    "space, last",
    [pytest.param(space, last, id=space.label()) for space, last in (
        (make_space("hamming", n=30, q=2), 30), (make_space("hamming", n=128, q=2), 128),
        (make_space("johnson", n=7, w=3), 3), (make_space("johnson", n=8, w=4), 4),
        (make_space("johnson", n=30, w=15), 15), (make_space("johnson", n=80, w=40), 40),
        (make_space("hamming", n=9, q=3), 9), (make_space("sphere", n=2048), 20),
        (make_space("projective", n=4, field_dim=4), 40))],
)
def test_level_boundaries_at_exact_design_bounds(space, last):
    # every level's cardinalities run from floor(D(tau)) + 1 to
    # floor(D(tau+1)) with D exact, however far D passes 2^53, and
    # design_bound is the float nearest D (H(128,2) tau 20: the float norm
    # sum once read 1.6 below it)
    for tau in range(1, last + 2):
        exact = _exact_design_bound(space, tau)
        assert lev.exact_design_bound(space, tau) == exact, tau
        assert lev.design_bound(space, tau) == float(exact), tau
    for tau in range(1, last + 1):
        lo = max(2, math.ceil(_exact_design_bound(space, 1))) if tau == 1 else (
            math.floor(_exact_design_bound(space, tau)) + 1)
        level = lev._level_cardinalities(space, tau)
        assert level == range(lo, math.floor(_exact_design_bound(space, tau + 1)) + 1), tau
        if level:
            assert lev.tau_for_cardinality(space, level[0])[2] == tau, tau
            assert lev.tau_for_cardinality(space, level[-1])[2] == tau, tau
    if space.is_finite:
        with pytest.raises(DegreeOverflowError):
            lev._level_cardinalities(space, last + 1)


def test_an_exact_design_bound_past_the_float_error_ends_its_level():
    # the float norm sum read D(10) = 8291875042451 of H(1000,2) 1.26 low
    # and served it at level 10, where its weight at -1 came out negative;
    # in exact arithmetic it is the top of level 9
    h1000 = make_space("hamming", n=1000, q=2)
    d10 = sum(math.comb(1000, i) for i in range(6))
    assert d10 == 8291875042451 == lev.exact_design_bound(h1000, 10)
    assert lev.tau_for_cardinality(h1000, d10) == (5, 0, 9)
    assert lev.tau_for_cardinality(h1000, d10 + 1) == (5, 1, 10)


def test_a_finite_map_ends_at_its_last_servable_level():
    # H(12,2) once listed levels 13-21, where every bound was refused from
    # inside the build; M = 2973 lies past D(13)
    h12 = make_space("hamming", n=12, q=2)
    assert lev.tau_for_cardinality(h12, 2972)[2] == 12
    with pytest.raises(DegreeOverflowError, match=r"capacity of H\(12,2\)"):
        lev.tau_for_cardinality(h12, 2973)
    # a rule's (1,1) or (1,0) system can end first: on J(7,2) the (1,1)
    # system has degree 0, so level 2 has no rule, and on J(7,1) the (1,0)
    # system has degree 0, so no level has one
    j72, j71 = make_space("johnson", n=7, w=2), make_space("johnson", n=7, w=1)
    assert lev.tau_for_cardinality(j72, 7)[2] == 1
    for space, M in ((j72, 8), (j71, 7)):
        with pytest.raises(DegreeOverflowError, match="exceeds the level capacity"):
            lev.tau_for_cardinality(space, M)


def test_level_ends_where_floats_no_longer_tell_integers_apart():
    # H(128,2) levels 24 (2.6e16, past 2^53) and 30 (1.5e19, past int64):
    # the ends of a level and the integers beside them map exactly
    h128 = make_space("hamming", n=128, q=2)
    for tau in (24, 30):
        level = lev._level_cardinalities(h128, tau)
        assert [lev.tau_for_cardinality(h128, M)[2]
                for M in (level[0] - 1, level[0], level[-1], level[-1] + 1)] == [
                    tau - 1, tau, tau, tau + 1], tau
    # S^2047: D(9) = 2 C(2051, 4) is a float exactly, and ends level 8
    s2047 = make_space("sphere", n=2048)
    d9 = 2 * math.comb(2051, 4)
    assert lev.design_bound(s2047, 9) == d9 == 1470314316800
    assert lev.tau_for_cardinality(s2047, d9)[2] == 8
    assert lev.tau_for_cardinality(s2047, d9 + 1)[2] == 9


@pytest.mark.parametrize("tau", [2.5, 0.5, math.nan, math.inf, "3"])
def test_a_level_needs_an_integer_tau(tau):
    # 3.0 used to raise AttributeError, 2.5 a misleading "adjacent exponents" error
    s2 = make_space("sphere", n=3)
    assert lev.design_bound(s2, 3.0) == lev.design_bound(s2, 3)
    assert lev.validity_interval(s2, 3.0) == lev.validity_interval(s2, 3)
    for call in (lev.design_bound, lev.validity_interval):
        with pytest.raises(ParameterError, match="needs an integer tau"):
            call(s2, tau)


@pytest.mark.parametrize("M", [math.nan, math.inf, 10.5])
def test_a_cardinality_must_be_an_integer(M):
    # NaN and inf used to raise a bare ValueError and OverflowError
    s2 = make_space("sphere", n=3)
    with pytest.raises(ParameterError, match="needs an integer M"):
        lev.tau_for_cardinality(s2, M)
    with pytest.raises(ParameterError, match="needs an integer M"):
        ulb(s2, M, builtin("riesz", p=1))
    assert lev.tau_for_cardinality(s2, 10.0) == lev.tau_for_cardinality(s2, 10)


def test_solve_separation_examples():
    for n in (3, 4, 6):
        s = make_space("sphere", n=n)
        assert lev.quadrature_rule(s, n + 1).s == pytest.approx(-1 / n, abs=1e-11)
        assert lev.quadrature_rule(s, 2 * n).s == pytest.approx(0.0, abs=1e-11)
    for space in ALL_SPACES:
        m = int(lev.design_bound(space, 2)) + 2
        sep = lev.quadrature_rule(space, m).s
        assert lev.lev_bound(space, sep) == pytest.approx(m, rel=1e-10)


@pytest.mark.parametrize(
    "n,M", [(290, 285), (262, 262), (353, 705), (318, 51038), (388, 75853)]
)
def test_solve_separation_where_lev_bound_is_steep(n, M):
    # large dL/ds: an error of a few ulps in s must still meet the residual
    # check relative to M
    space = make_space("sphere", n=n)
    sep = lev.quadrature_rule(space, M).s
    assert abs(lev.lev_bound(space, sep) - M) <= 1e-10 * M


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 8}, 591261),
        ("sphere", {"n": 10}, 184756),
        ("sphere", {"n": 23}, 1937520),
        ("hamming", {"n": 30, "q": 2}, 32979092),
    ],
)
def test_solve_separation_at_large_design_bounds(family, params, M):
    # M equal to a design bound: s is an end of the validity interval, up to
    # the rounding lev_bound allows, where L rounds to either side of M by an
    # amount that grows with M
    space = make_space(family, **params)
    _, _, tau = lev.tau_for_cardinality(space, M)
    sep = lev.quadrature_rule(space, M).s
    lo, hi = lev.validity_interval(space, tau)
    pad = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert min(abs(sep - lo), abs(sep - hi)) <= pad
    assert abs(_lev_at(space, tau, sep) - M) <= 1e-10 * M
    assert abs(lev.lev_bound(space, sep) - M) <= 1e-10 * M


def test_quadrature_rule_closed_forms():
    for n in (3, 5, 8):
        s = make_space("sphere", n=n)
        rule = lev.quadrature_rule(s, n + 1)
        assert np.allclose(rule.nodes, [-1 / n], atol=1e-11)
        assert np.allclose(rule.weights, [n / (n + 1)], atol=1e-11)
        rule = lev.quadrature_rule(s, 2 * n)
        assert np.allclose(rule.nodes, [-1, 0], atol=1e-11)
        assert np.allclose(rule.weights, [1 / (2 * n), 1 - 1 / n], atol=1e-11)


def test_quadrature_rule_bottom_boundary():
    rule = lev.quadrature_rule(make_space("sphere", n=6), 2)
    assert rule.tau == 1 and rule.epsilon == 0
    assert np.allclose(rule.nodes, [-1.0])
    assert np.allclose(rule.weights, [0.5])
    # non-antipodal bottom: M equal to the level-1 bound q
    rule = lev.quadrature_rule(make_space("hamming", n=7, q=3), 3)
    assert rule.tau == 1
    assert np.allclose(rule.nodes, [-1.0])
    assert np.allclose(rule.weights, [2 / 3])


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_quadrature_rule_structure(space):
    # a finite space's levels end at its degree cap
    for tau in range(1, 1 + min(5, space.max_degree or 5)):
        try:
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
        except DegreeOverflowError:
            break
        m = int(np.ceil((d_lo + d_hi) / 2))
        rule = lev.quadrature_rule(space, m)
        assert rule.tau == tau
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[-1] == rule.s
        assert (rule.epsilon == 1) == (abs(rule.nodes[0] + 1.0) < 1e-9)
        assert len(rule.nodes) == rule.k + rule.epsilon
        # power sums hold for every order up to tau, not just the solved ones
        b = pmspace.moments(space, tau)
        for mm in range(tau + 1):
            lhs = 1 / rule.M + float(np.dot(rule.weights, rule.nodes**mm))
            assert lhs == pytest.approx(b[mm], abs=1e-8)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_quadrature_exactness_random_polys(space):
    rng = np.random.default_rng(11)
    for tau in (2, 3):
        d_hi = lev.design_bound(space, tau + 1)
        m = int(d_hi)  # right end of the interval, inclusive
        rule = lev.quadrature_rule(space, m)
        b = pmspace.moments(space, rule.tau)
        for _ in range(200):
            c = rng.uniform(-1, 1, rule.tau + 1)
            f0 = sum(ci * bi for ci, bi in zip(c, b))
            resid = f0 - npoly.polyval(1.0, c) / m
            resid -= float(np.dot(rule.weights, npoly.polyval(rule.nodes, c)))
            assert abs(resid) <= 1e-9 * np.sum(np.abs(c))


def test_node_ordering_for_antipodal_spaces():
    # zig-zag ordering |a_last| > |a_{1+eps}| > |a_{last-1}| > |a_{2+eps}| > ...
    for space in [make_space("sphere", n=4), make_space("hamming", n=10, q=2)]:
        for tau in (5, 6, 7):
            d_lo = lev.design_bound(space, tau)
            d_hi = lev.design_bound(space, tau + 1)
            rule = lev.quadrature_rule(space, int((d_lo + d_hi) // 2))
            upper = orthopoly.largest_zero(
                orthopoly.adjacent_system(space, 1, rule.epsilon), rule.k
            )
            seq = []
            left, right = 1 + rule.epsilon, len(rule.nodes) - 1
            toggle = True
            while right >= left:
                if toggle:
                    seq.append(abs(rule.nodes[right]))
                    right -= 1
                else:
                    seq.append(abs(rule.nodes[left]))
                    left += 1
                toggle = not toggle
            assert upper >= seq[0] - 1e-12
            assert all(a > b - 1e-12 for a, b in zip(seq, seq[1:]))


def test_lev_polynomial_examples():
    for n in (3, 6):
        s = make_space("sphere", n=n)
        poly = lev.lev_polynomial(s, n + 1)
        # linear polynomial proportional to t + 1/n
        assert len(poly) == 2
        assert poly[0] / poly[1] == pytest.approx(1 / n, abs=1e-11)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.label())
def test_lev_polynomial_properties(space):
    for m in (int(lev.design_bound(space, 2)) + 1, int(lev.design_bound(space, 4))):
        rule = lev.quadrature_rule(space, m)
        if space.max_degree is not None and rule.tau > space.max_degree:
            continue
        poly = lev.lev_polynomial(space, m)
        assert len(poly) == rule.tau + 1
        scale = np.max(np.abs(orthopoly.poly_eval(space, poly, np.linspace(-1, 1, 101))))
        # vanishes at every node
        node_vals = orthopoly.poly_eval(space, poly, rule.nodes)
        assert np.max(np.abs(node_vals)) <= 1e-9 * scale
        # value at 1 over mean coefficient reproduces the cardinality
        f1 = orthopoly.poly_eval(space, poly, 1.0)
        assert f1 / poly[0] == pytest.approx(m, rel=1e-8)
        # nonnegative expansion
        assert poly.min() >= -1e-8 * np.max(np.abs(poly))


@pytest.mark.parametrize("side", ["rule-below", "rule-above"])
def test_a_separation_just_outside_its_interval_is_refused(monkeypatch, side):
    # S^2 M=10 is served at level 4, (D(4), D(5)]: its rule's s lies in the
    # level-4 validity interval
    s2 = make_space("sphere", n=3)
    lo, hi = lev.validity_interval(s2, 4)
    assert lo <= lev.quadrature_rule(s2, 10).s <= hi
    s = lo - 1e-9 if side == "rule-below" else hi + 1e-9
    bordered = lev._bordered_rule

    def moved(level, M):
        nodes, weights = bordered(level, M)
        nodes[-1] = s
        return nodes, weights

    monkeypatch.setattr(lev, "_bordered_rule", moved)
    with pytest.raises(ConvergenceError, match="for M=10 outside the level-4 validity interval"):
        lev.quadrature_rule(s2, 10)


def test_rule_rejects_bad_cardinality():
    with pytest.raises(ParameterError):
        lev.quadrature_rule(make_space("sphere", n=3), 1)


@pytest.mark.parametrize("field", ["nodes", "weights"])
def test_a_nan_in_the_rule_fails_its_checks(field):
    # a NaN compares false with everything: each check must fail on it
    space = make_space("sphere", n=3)
    k, eps, _ = lev.tau_for_cardinality(space, 100)
    level = lev._level(space, k, eps)
    nodes, weights = lev._bordered_rule(level, 100)
    lev._rule_from_nodes(level, 100, nodes.copy(), weights.copy())
    {"nodes": nodes, "weights": weights}[field][3] = np.nan
    with pytest.raises(ConvergenceError):
        lev._rule_from_nodes(level, 100, nodes, weights)


def _rule_parts(M):
    # S^2 M=100 is served at tau 17, an odd level: no weight at -1
    space = make_space("sphere", n=3)
    k, eps, tau = lev.tau_for_cardinality(space, M)
    assert (k, eps, tau) == (9, 0, 17)
    level = lev._level(space, k, eps)
    nodes, weights = lev._bordered_rule(level, M)
    return level, nodes, weights


def test_rule_from_nodes_refuses_a_power_sum_residual_just_past_its_tolerance():
    level, nodes, weights = _rule_parts(100)
    nodes[4] += 2e-5  # an inner node: L_tau(s) and the weights stay as they were
    with pytest.raises(ConvergenceError, match="power-sum residual") as err:
        lev._rule_from_nodes(level, 100, nodes, weights)
    residual = float(re.search(r"residual (\S+)", str(err.value)).group(1))
    assert 1e-7 < residual < 1e-4


def test_rule_from_nodes_refuses_a_separation_just_past_its_tolerance():
    level, nodes, weights = _rule_parts(100)
    nodes[-1] += 2e-10
    miss = abs(lev._lev_value(level, float(nodes[-1])) - 100) / 100
    assert 1e-10 < miss < 1e-7
    with pytest.raises(ConvergenceError, match="misses M=100"):
        lev._rule_from_nodes(level, 100, nodes, weights)


def test_rule_from_nodes_refuses_a_weight_just_below_zero():
    # the power-sum check would refuse it too: the message tells which fired
    level, nodes, weights = _rule_parts(100)
    weights[3] = -1e-20
    with pytest.raises(ConvergenceError, match="nonpositive quadrature weight"):
        lev._rule_from_nodes(level, 100, nodes, weights)


def _bordered_rule_by_appends(space, M, k, eps):
    # the rule as it was before the border was written into the matrix in
    # place: appended to copies of the recurrence coefficients
    level = lev._level(space, k, eps)
    b, g, v = level.system.rec_beta, level.system.rec_gamma, level.system.value_at_one
    g_border = level.g_r / (M * g[0] / (1 + eps) - level.r_head)
    c = 1.0 - 2.0 * g_border * v[k - 1] / v[k]
    b2, g2 = np.append(b[:k], c), np.append(g[:k], g_border)
    x, w = rec.gauss(rec.jacobi_matrix(b2, g2, k + 1), g2[0])
    x, w = x[:-1], w[:-1]
    if not eps:
        return x, w
    return np.concatenate([[-1.0], x]), np.concatenate([[0.0], w / (1.0 + x)])


@pytest.mark.parametrize("space", [make_space("sphere", n=3), make_space("hamming", n=30, q=2),
                                   make_space("projective", n=4, field_dim=4)],
                         ids=lambda space: space.label())
def test_bordered_rule_equals_the_appended_border(space):
    levels = set()
    for tau in (1, 2, 9, 10, 19, 20):
        lo, hi = lev.design_bound(space, tau), lev.design_bound(space, tau + 1)
        M = int(round(0.5 * (lo + hi)))
        k, eps, tau_m = lev.tau_for_cardinality(space, M)
        levels.add(eps)
        for got, want in zip(lev._bordered_rule(lev._level(space, k, eps), M),
                             _bordered_rule_by_appends(space, M, k, eps)):
            assert got.tobytes() == want.tobytes(), (tau_m, M)
    assert levels == {0, 1}


def test_circle_design_bounds_are_polygon_sizes():
    s2 = make_space("sphere", n=2)
    for tau in range(1, 8):
        assert lev.design_bound(s2, tau) == pytest.approx(tau + 1, abs=1e-9)


def test_larger_alphabet_rule():
    rule = lev.quadrature_rule(make_space("hamming", n=9, q=5), 100)
    assert rule.power_sum_residual < 1e-12
    assert np.all(rule.weights > 0)


def _mp_jacobi(alpha, beta, count):
    """Monic Jacobi recurrence (b, g) in mpmath; g[0] is left out (unused)."""
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
    ab = alpha + beta
    b, g = [(beta - alpha) / (ab + 2)], [None]
    for k in range(1, count):
        d = 2 * k + ab
        b.append((beta**2 - alpha**2) / (d * (d + 2)))
        if k == 1:
            g.append(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))
        else:
            g.append(4 * k * (k + alpha) * (k + beta) * (k + ab) / (d * d * (d + 1) * (d - 1)))
    return b, g


def _mp_monic(rec, deg, t):
    b, g = rec
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(deg):
        prev, cur = cur, (t - b[k]) * cur - (g[k] if k else 0) * prev
    return cur


def _mp_eigs(rec, deg, shift=0):
    b, g = rec
    J = mpmath.matrix(deg, deg)
    for i in range(deg):
        J[i, i] = b[i]
        if i:
            J[i, i - 1] = J[i - 1, i] = mpmath.sqrt(g[i])
    J[deg - 1, deg - 1] += shift
    return sorted(mpmath.eigsy(J, eigvals_only=True))


@functools.lru_cache(maxsize=None)
def _mp_rule_nodes(space, M):
    """Nodes of the 1/M-rule at 50 digits: L_tau(s) = M by bisection, and the
    interior nodes as zeros of the kernel T_{k-1}^{1,eps}(t, s).  Cached:
    every caller works at 50 digits."""
    k, eps, _ = lev.tau_for_cardinality(space, M)
    a0, b0 = space.jacobi_exponents()
    rec0 = _mp_jacobi(a0, b0 + eps, k + 1)
    rec1 = _mp_jacobi(a0 + 1, b0 + eps, k + 1)
    one = mpmath.mpf(1)

    def q(rec, deg, t):
        return _mp_monic(rec, deg, t) / _mp_monic(rec, deg, one)

    # r_j = pi_j(1)^2 / (g_1 ... g_j); the mass of the measure cancels
    head, prod = mpmath.mpf(0), mpmath.mpf(1)
    for j in range(k):
        prod *= rec0[1][j] if j else 1
        head += _mp_monic(rec0, j, one) ** 2 / prod

    def lev_value(s):
        return pmspace.q1_value(space) ** eps * (1 - q(rec1, k - 1, s) / q(rec0, k, s)) * head

    lo = -one if k - 1 + eps == 0 else _mp_eigs(_mp_jacobi(a0 + 1, b0 + 1 - eps, k), k - 1 + eps)[-1]
    hi = _mp_eigs(rec1, k)[-1]
    assert lev_value(lo) <= M <= lev_value(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if lev_value(mid) < M:
            lo = mid
        else:
            hi = mid
    s = (lo + hi) / 2
    # T_{k-1}(t, s) is pi_k - c*pi_{k-1} of the (1,eps) system up to the root t = s
    c = _mp_monic(rec1, k, s) / _mp_monic(rec1, k - 1, s)
    roots = _mp_eigs(rec1, k, c)
    inner = [z for z in roots if abs(z - s) > mpmath.mpf(10) ** -30]
    assert len(inner) == k - 1
    return [-one] * eps + inner + [s]


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 3}, 825),
        ("sphere", {"n": 10}, 44264512),
        ("projective", {"n": 4, "field_dim": 4}, 5125840720),
        ("projective", {"n": 3, "field_dim": 2}, 118638),
    ],
)
def test_rule_nodes_match_mp_reference(family, params, M):
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    with mpmath.workdps(50):
        ref = np.array([float(z) for z in _mp_rule_nodes(space, M)])
    assert np.max(np.abs(rule.nodes - ref)) <= 1e-13


def _mp_rule_weights(space, nodes, M):
    """Weights of the rule at the 50-digit nodes: the Q-basis solve of
    f_0 = f(1)/M + sum_j rho_j f(alpha_j) for f = Q_0..Q_{len(nodes)-1}."""
    n = len(nodes)
    rec = _mp_jacobi(*space.jacobi_exponents(), n)
    one = mpmath.mpf(1)
    A = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = _mp_monic(rec, i, nodes[j]) / _mp_monic(rec, i, one)
    rhs = mpmath.matrix([(1 if i == 0 else 0) - one / M for i in range(n)])
    return mpmath.lu_solve(A, rhs)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 3}, 825),
        ("sphere", {"n": 10}, 44264512),
        ("projective", {"n": 4, "field_dim": 4}, 5125840720),
        ("projective", {"n": 3, "field_dim": 2}, 118638),
    ],
)
def test_bound_value_matches_mp_reference(family, params, M):
    # M^2 sum_j rho_j h(alpha_j) from the 50-digit nodes and weights
    space = make_space(family, **params)
    potentials = ((builtin("riesz", p=1), lambda t: (2 - 2 * t) ** mpmath.mpf(-0.5)),
                  (builtin("gaussian", c=1), mpmath.exp))
    with mpmath.workdps(50):
        nodes = _mp_rule_nodes(space, M)
        weights = _mp_rule_weights(space, nodes, M)
        for h, mp_h in potentials:
            ref = M * M * mpmath.fsum(w * mp_h(a) for w, a in zip(weights, nodes))
            assert ulb(space, M, h).value_sum == pytest.approx(float(ref), rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 20}, 488494126),
        ("sphere", {"n": 40}, 1991564140),
        ("projective", {"n": 8, "field_dim": 2}, 231072490232),
    ],
)
def test_weight_at_minus_one_near_the_bottom_of_an_even_level(family, params, M):
    # a few units above D(tau) the weight at -1 is tiny but positive: its
    # sign and its digits must not be left to rounding
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    assert rule.epsilon == 1 and M - lev.design_bound(space, rule.tau) < 1e-6 * M
    with mpmath.workdps(50):
        ref = float(_mp_rule_weights(space, _mp_rule_nodes(space, M), M)[0])
    assert rule.weights[0] == pytest.approx(ref, rel=2e-4, abs=0)


def test_weight_at_minus_one_out_of_the_float_range_is_a_convergence_refusal():
    # at S^2 tau 2000 the two products over the nodes leave the float
    # range; dividing them once leaked a divide-by-zero RuntimeWarning
    with pytest.raises(ConvergenceError, match="power-sum residual inf"):
        lev.quadrature_rule(make_space("sphere", n=3), 1002502)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("hamming", {"n": 40, "q": 2}, 23242039),
        ("hamming", {"n": 30, "q": 2}, 22964087),
        ("projective", {"n": 4, "field_dim": 4}, 150233760),
        ("projective", {"n": 3, "field_dim": 4}, 1456560),
        ("sphere", {"n": 10}, 1314610),
        ("hamming", {"n": 30, "q": 2}, 53009102),
    ],
)
def test_cardinality_equal_to_an_even_design_bound(family, params, M):
    # M = D(tau) up to rounding is served at the top of level tau-1, not at
    # the bottom of level tau, where the weight at -1 is zero in theory
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    assert lev.design_bound(space, rule.tau + 1) == pytest.approx(M, rel=1e-12)
    assert rule.tau % 2 == 1
    assert rule.weights.min() > 1e-8


def _mp_weights_at(space, nodes, M):
    """Weights of the rule at its own float nodes, solved at 40 digits:
    sum_j rho_j Q_i(alpha_j) = delta_i0 - 1/M for i < len(nodes), with the
    (0,0) recurrence coefficients converted to mp."""
    n = len(nodes)
    system = orthopoly.adjacent_system(space, 0, 0, n - 1)
    rec = ([mpmath.mpf(x) for x in system.rec_beta[:n]],
           [mpmath.mpf(x) for x in system.rec_gamma[:n]])
    one = mpmath.mpf(1)
    A = mpmath.matrix(n, n)
    for i in range(n):
        at_one = _mp_monic(rec, i, one)
        for j in range(n):
            A[i, j] = _mp_monic(rec, i, mpmath.mpf(nodes[j])) / at_one
    rhs = mpmath.matrix([(1 if i == 0 else 0) - one / M for i in range(n)])
    return mpmath.lu_solve(A, rhs)


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("johnson", {"n": 80, "w": 40}, 5831250618),
        ("johnson", {"n": 80, "w": 40}, 2226245434203),
        ("hamming", {"n": 30, "q": 2}, 53199091),
        ("projective", {"n": 4, "field_dim": 4}, 193450991360),
        ("sphere", {"n": 10}, 44264512),
    ],
)
def test_rule_weights_match_mp_reference(family, params, M):
    # the interior weights are Golub-Welsch weights, sums of positive terms:
    # they keep their digits where a linear solve at high degree loses them
    space = make_space(family, **params)
    rule = lev.quadrature_rule(space, M)
    with mpmath.workdps(40):
        ref = np.array([float(w) for w in _mp_weights_at(space, rule.nodes, M)])
    inner = slice(rule.epsilon, None)
    assert np.max(np.abs(rule.weights[inner] / ref[inner] - 1)) <= 1e-10


def _residual_by_loop(rule):
    # the power-sum check as it was before it became one matrix product
    residual = 0.0
    for m, b_m in enumerate(pmspace.moments(rule.space, rule.tau).tolist()):
        lhs = 1.0 / rule.M + float(np.dot(rule.weights, rule.nodes**m))
        residual = max(residual, abs(lhs - b_m))
    return residual


@pytest.mark.parametrize(
    "family,params,M",
    [
        ("sphere", {"n": 3}, 825),
        ("sphere", {"n": 10}, 44264512),
        ("projective", {"n": 4, "field_dim": 4}, 5125840720),
        ("projective", {"n": 3, "field_dim": 2}, 118638),
        ("johnson", {"n": 80, "w": 40}, 5831250618),
        ("johnson", {"n": 80, "w": 40}, 2226245434203),
        ("hamming", {"n": 30, "q": 2}, 53199091),
        ("projective", {"n": 4, "field_dim": 4}, 193450991360),
    ],
)
def test_power_sum_residual_matches_the_loop(family, params, M):
    # the cells pinned by the 50-digit references above
    rule = lev.quadrature_rule(make_space(family, **params), M)
    assert abs(rule.power_sum_residual - _residual_by_loop(rule)) <= 4.5e-16
