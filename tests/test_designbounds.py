import re

import numpy as np
import pytest

from ulbkit import designbounds, oracle, orthopoly, pmspace
from ulbkit.designbounds import design_lower_bound, design_upper_bound, separated_upper_bound
from ulbkit.errors import ConditionError, ParameterError
from ulbkit.levenshtein import design_bound
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb

S3 = make_space("sphere", n=3)
RIESZ1 = builtin("riesz", p=1)
GAUSS = builtin("gaussian", c=1)


def test_lower_bound_reproduces_main_bound():
    for space, M in [(S3, 12), (make_space("hamming", n=8, q=2), 16)]:
        rep = ulb(space, M, RIESZ1)
        bound = design_lower_bound(space, rep.rule.tau, M, RIESZ1, rep.certificate)
        assert bound == pytest.approx(rep.value_sum, abs=1e-9 * rep.value_sum)


def test_constant_polynomials():
    M = 10
    c = 0.25  # below min h = h(-1) = 0.5 for riesz(1)
    assert design_lower_bound(S3, 3, M, RIESZ1, np.array([c])) == pytest.approx(
        c * M * (M - 1), rel=1e-12
    )
    grid = np.cos(np.pi * np.arange(1, 2001) / 2000)
    top = float(np.max(GAUSS(grid))) + 1e-6
    assert design_upper_bound(S3, 3, M, GAUSS, np.array([top])) == pytest.approx(
        top * M * (M - 1), rel=1e-12
    )


def test_lower_bound_condition_violations():
    # a coefficient above the design strength with the wrong sign
    bad = np.concatenate([np.zeros(4), [-1.0]])
    with pytest.raises(ConditionError) as err:
        design_lower_bound(S3, 3, 10, RIESZ1, bad)
    assert err.value.where == 4
    # exceeding h somewhere on the grid
    rep = ulb(S3, 12, RIESZ1)
    shifted = rep.certificate + np.eye(len(rep.certificate))[0]
    with pytest.raises(ConditionError):
        design_lower_bound(S3, rep.rule.tau, 12, RIESZ1, shifted)


def test_upper_bound_condition_violation():
    bad = np.concatenate([np.zeros(4), [1.0]])
    with pytest.raises(ConditionError):
        design_upper_bound(S3, 3, 12, GAUSS, bad)


def test_meaningless_inputs_rejected():
    one = np.array([0.1])
    for fn in (design_lower_bound, design_upper_bound):
        with pytest.raises(ParameterError, match="M must be"):
            fn(S3, 3, 1, RIESZ1, one)
        # tau <= -2 would index the coefficients from the end
        with pytest.raises(ParameterError, match="tau must be >= 0"):
            fn(S3, -3, 10, RIESZ1, np.array([0.3, 0, 0, 0, 0]))
    assert design_lower_bound(S3, 0, 10, RIESZ1, one) == pytest.approx(0.1 * 90, rel=1e-12)
    # s = -2 leaves no grid point, so no pointwise check would run
    for s in (-2.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ParameterError, match="separation s"):
            separated_upper_bound(S3, 6, GAUSS, one, s)
    with pytest.raises(ParameterError, match="M must be"):
        separated_upper_bound(S3, 1, GAUSS, one, 0.0)


def _upper_tangent_certificate(space, M, h):
    """A degree-2 polynomial above h on [-1, 1): secant-style construction."""
    # h convex increasing: the chord over [-1, u] lies above h on [-1, u]
    u = 0.999999
    slope = (h(u) - h(-1.0)) / (u + 1.0)
    # line through (-1, h(-1)), (u, h(u))
    return orthopoly.expand_in_q(space, [h(-1.0) + slope, slope])


def test_icosahedron_sandwich():
    code = oracle.named_config(S3, "icosahedron")
    energy = oracle.energy(S3, code, GAUSS)
    rep = ulb(S3, 12, GAUSS)
    lo = design_lower_bound(S3, 5, 12, GAUSS, rep.certificate)
    hi = design_upper_bound(S3, 5, 12, GAUSS, _upper_tangent_certificate(S3, 12, GAUSS))
    assert lo <= energy + 1e-9
    assert energy <= hi + 1e-9


def test_sandwich_on_tight_configurations():
    cases = [
        (S3, "cross_polytope", 3),
        (make_space("hamming", n=8, q=2), "extended_hamming_8", 3),
    ]
    for space, name, tau in cases:
        code = oracle.named_config(space, name)
        energy = oracle.energy(space, code, GAUSS)
        rep = ulb(space, code.size, GAUSS)
        lo = design_lower_bound(space, tau, code.size, GAUSS, rep.certificate)
        hi = design_upper_bound(
            space, tau, code.size, GAUSS, _upper_tangent_certificate(space, code.size, GAUSS)
        )
        assert lo - 1e-8 <= energy <= hi + 1e-8


def test_separated_upper_bound():
    h = GAUSS
    M, s = 6, 0.0
    # h increases, so its largest value on [-1, s] is h(s)
    sup_h = float(h(s)) + 1e-9
    bound = separated_upper_bound(S3, M, h, np.array([sup_h]), s)
    assert bound == pytest.approx(sup_h * M * (M - 1), rel=1e-9)
    # every code with that separation stays below the bound
    code = oracle.named_config(S3, "cross_polytope")
    assert oracle.energy(S3, code, h) <= bound + 1e-9


def test_separated_upper_rejects_positive_coefficient():
    # shifted first-degree polynomial: pointwise fine, sign condition fails
    with pytest.raises(ConditionError) as err:
        separated_upper_bound(S3, 6, GAUSS, orthopoly.expand_in_q(S3, [3.0, 1.0]), 0.0)
    assert err.value.where == 1


def test_separated_upper_nonconstant_certificate():
    # decreasing line pinned at h(s): above h on [-1, s) since h increases
    h = GAUSS
    s = 0.0
    down = [float(h(s)) + 0.1 * s + 1e-12, -0.1]
    tt = np.linspace(-1, s, 500)
    assert np.all(np.polynomial.polynomial.polyval(tt, down) >= h(tt) - 1e-12)
    down_q = orthopoly.expand_in_q(S3, down)
    bound = separated_upper_bound(S3, 6, h, down_q, s)
    code = oracle.named_config(S3, "cross_polytope")
    assert oracle.energy(S3, code, h) <= bound + 1e-9


def test_subset_interval_restriction():
    # restricting the inner-product set admits certificates that fail globally
    h = RIESZ1
    const = np.array([float(h(-0.2))])  # exceeds h on t < -0.2 (h increasing)
    with pytest.raises(ConditionError):
        design_lower_bound(S3, 2, 8, h, const)
    assert design_lower_bound(S3, 2, 8, h, const, subset=(-0.2, 0.5)) == pytest.approx(
        float(h(-0.2)) * 8 * 7, rel=1e-12
    )


def test_separated_upper_checks_t_equal_to_s():
    # the code {00000000, 11110000} of H(8,2) has its one inner product
    # at t = s = 0 and energy 2 h(0) = 2.0 > 1.6 = M*(f_0*M - f(1)) for
    # f = 0.8, which lies above h on every grid point below 0 only
    h8 = make_space("hamming", n=8, q=2)
    code = oracle.make_code(h8, [[0] * 8, [1, 1, 1, 1, 0, 0, 0, 0]])
    assert oracle.energy(h8, code, GAUSS) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ConditionError) as err:
        separated_upper_bound(h8, 2, GAUSS, np.array([0.8]), 0.0)
    assert err.value.where == 0.0
    # on the sphere s itself is checked, not only the sampled points below it
    with pytest.raises(ConditionError) as err:
        separated_upper_bound(S3, 2, GAUSS, np.array([float(GAUSS(0.0)) - 1e-6]), 0.0)
    assert err.value.where == 0.0
    # an explicit subset keeps its points up to s, s included
    with pytest.raises(ConditionError):
        separated_upper_bound(h8, 2, GAUSS, np.array([0.8]), 0.0, subset=np.array([-0.25, 0.0]))
    assert separated_upper_bound(
        h8, 2, GAUSS, np.array([0.8]), 0.0, subset=np.array([-0.25, 0.5])
    ) == pytest.approx(1.6, rel=1e-12)


# The validators' checks as they were before they shared the code of
# ulb.verify_certificate: poly_eval and h on the points, afresh per call,
# the first failing point reported.  Kept as a reference.
def _pointwise(space, h, f, grid, want_below: bool, label: str):
    fv = np.asarray(orthopoly.poly_eval(space, f, grid), dtype=float)
    hv = np.asarray(h(grid), dtype=float)
    gap = (hv - fv) if want_below else (fv - hv)
    tol = 1e-9 * (1.0 + np.abs(hv))
    bad = np.nonzero(gap < -tol)[0]
    if bad.size:
        i = int(bad[0])
        raise ConditionError(
            f"condition {label} fails at t={grid[i]:.12g}"
            f" (f={fv[i]:.12g}, h={hv[i]:.12g})",
            where=float(grid[i]),
        )


def _coefficient_sign(f, start: int, want_nonneg: bool, label: str):
    scale = max(1.0, float(np.max(np.abs(f))))
    for i in range(start, len(f)):
        c = f[i]
        bad = c < -1e-9 * scale if want_nonneg else c > 1e-9 * scale
        if bad:
            raise ConditionError(
                f"condition {label} fails at coefficient index {i} (value {c:.6g})",
                where=i,
            )


def _reference(kind, space, M, h, f, subset, tau, s):
    """What the old validators gave: ("ok", bound) or (condition label, where)."""
    labels = {
        "lower": ("(D1) f<=h", "(D2) f_i>=0 for i>tau"),
        "upper": ("(E1) g>=h", "(E2) g_i<=0 for i>tau"),
        "separated": ("(F1) f>=h below s", "(F2) f_i<=0 for i>=1"),
    }[kind]
    grid = designbounds._subset_grid(space, subset, s)
    if grid is None:
        grid = pmspace.verification_grid(space)
    try:
        _pointwise(space, h, f, grid, kind == "lower", labels[0])
        _coefficient_sign(f, tau + 1 if s is None else 1, kind == "lower", labels[1])
    except ConditionError as exc:
        return str(exc).split(" fails")[0], exc.where
    return "ok", orthopoly.lp_value(f, M)


def _verdict(kind, space, M, h, f, subset, tau, s):
    try:
        if kind == "separated":
            value = separated_upper_bound(space, M, h, f, s, subset)
        else:
            fn = design_lower_bound if kind == "lower" else design_upper_bound
            value = fn(space, tau, M, h, f, subset)
    except ConditionError as exc:
        return str(exc).split(" fails")[0], exc.where
    return "ok", value


def _candidates(rng, f):
    """A ulb certificate, perturbed: shifted, noisy, a coefficient added
    above its degree, mirrored above h, and random."""
    scale = float(np.abs(f).max())
    out = [f, f + 1e-6 * scale * np.eye(len(f))[0], f - 1e-3 * scale * np.eye(len(f))[0]]
    for size in (1e-4, 1e-2):
        out.append(f + size * scale * rng.standard_normal(len(f)))
    for top in (-1e-3, 1e-3):
        out.append(np.append(f, top * scale))
    for top in (0.0, 1e-3):
        out.append(np.append(-f, top * scale) + 2.5 * scale * np.eye(len(f) + 1)[0])
    out.append(rng.standard_normal(len(f) + 1))
    return out


@pytest.mark.parametrize(
    "family,params",
    [("sphere", {"n": 3}), ("hamming", {"n": 8, "q": 2}), ("johnson", {"n": 10, "w": 5}),
     ("projective", {"n": 3, "field_dim": 2})],
)
def test_validators_agree_with_the_reference(family, params):
    # same pass or fail, same condition, same coefficient index; a failing
    # point may differ, since the worst point is reported, not the first
    space = make_space(family, **params)
    rng = np.random.default_rng(2201)
    subsets = [None, (-0.5, 0.5), (-1.0, 0.0), rng.uniform(-1.0, 1.0, 40)]
    if space.is_finite:
        subsets.append(np.array(pmspace.verification_grid(space)[::2]))
    outcomes = set()
    for h in (GAUSS, RIESZ1):
        for level in (2, 4):
            M = int(np.ceil(0.5 * (design_bound(space, level) + design_bound(space, level + 1))))
            rep = ulb(space, M, h)
            for f in _candidates(rng, rep.certificate):
                for subset in subsets:
                    cases = [("lower", tau, None) for tau in (0, rep.rule.tau)]
                    cases += [("upper", tau, None) for tau in (0, rep.rule.tau)]
                    cases += [("separated", 0, s) for s in (-0.5, rep.rule.s)]
                    for kind, tau, s in cases:
                        args = (kind, space, M, h, f, subset, tau, s)
                        grid = designbounds._subset_grid(space, subset, s)
                        if grid is not None and not grid.size:
                            with pytest.raises(ParameterError, match="left to check"):
                                _verdict(*args)
                            continue
                        old, new = _reference(*args), _verdict(*args)
                        assert new[0] == old[0], args
                        if old[0] == "ok" or "f_i" in old[0] or "g_i" in old[0]:
                            assert new[1] == old[1], args
                        outcomes.add((kind, old[0][:13]))
    # each validator passes, and fails each of its two conditions, somewhere
    assert len(outcomes) == 9, sorted(outcomes)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_pointwise_condition_on_a_given_set_holds_to_its_tolerance(side):
    # a constant f past h at t = -0.75 (h = 0.47) by 0.5e-9 (1 + |h|)
    # passes, by 1.5e-9 (1 + |h|) fails: the tolerance is 1e-9 (1 + |h|)
    s2 = make_space("sphere", n=3)
    t = np.array([-0.75])
    hv = float(GAUSS(t)[0])
    sign, fn, name = (1, design_lower_bound, "(D1)") if side == "lower" else (
        -1, design_upper_bound, "(E1)")
    for slack in (0.5e-9, 1.5e-9):
        f = [hv + sign * slack * (1.0 + hv)]
        if slack < 1e-9:
            assert fn(s2, 0, 4, GAUSS, f, t) == pytest.approx(4 * (4 * f[0] - f[0]))
        else:
            with pytest.raises(ConditionError, match=re.escape(name)):
                fn(s2, 0, 4, GAUSS, f, t)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_coefficient_condition_holds_to_its_tolerance(side):
    # a constant f well inside h, with f_3 of the wrong sign by 0.5e-9
    # (within the tolerance 1e-9 max(1, |f|)) or by 5e-9 (past it)
    s2 = make_space("sphere", n=3)
    sign, fn, name = (1, design_lower_bound, "(D2)") if side == "lower" else (
        -1, design_upper_bound, "(E2)")
    f0 = 0.1 if side == "lower" else 3.0  # Gaussian c=1 lies in [1/e, e]
    for wrong in (0.5e-9, 5e-9):
        f = [f0, 0.0, 0.0, -sign * wrong]
        if wrong < 1e-9:
            assert fn(s2, 0, 4, GAUSS, f) == pytest.approx(4 * (4 * f0 - sum(f)))
        else:
            with pytest.raises(ConditionError, match=re.escape(name) + ".* index 3"):
                fn(s2, 0, 4, GAUSS, f)


def test_a_certificate_ulb_finds_above_h_yields_no_design_bound():
    # HP^3 at tau 37 with Gaussian h: the Hermite interpolant rises above
    # h near t = 1 by more than the grid tolerance
    hp3 = make_space("projective", n=4, field_dim=4)
    rep = ulb(hp3, 5125840719, GAUSS)
    assert rep.rule.tau == 37 and not rep.certificate_checks.below_h
    with pytest.raises(ConditionError, match=r"\(D1\)") as err:
        design_lower_bound(hp3, 37, rep.M, GAUSS, rep.certificate)
    assert err.value.where == rep.certificate_checks.worst_t


@pytest.mark.parametrize("f", [[np.nan], [3.0, np.inf], [3.0, 0.0, -np.inf], 0.3, [[0.3]]])
def test_coefficients_that_are_not_a_finite_list_are_refused(f):
    # a NaN coefficient used to pass every comparison and yield a NaN bound
    for call in (
        lambda: design_lower_bound(S3, 0, 10, RIESZ1, f),
        lambda: design_upper_bound(S3, 0, 10, GAUSS, f),
        lambda: separated_upper_bound(S3, 6, GAUSS, f, 0.0),
    ):
        with pytest.raises(ParameterError, match="list of finite"):
            call()


@pytest.mark.parametrize("name, value", [("M", np.nan), ("M", np.inf), ("M", 2.5), ("tau", 1.5)])
def test_sizes_that_are_not_integers_are_refused(name, value):
    # M = nan, inf and 2.5 gave nan, inf and 0.375; tau = 1.5 raised TypeError
    sizes = {"tau": 0, "M": 10, name: value}
    with pytest.raises(ParameterError, match=f"needs an integer {name}"):
        design_lower_bound(S3, sizes["tau"], sizes["M"], RIESZ1, [0.1])
    assert design_lower_bound(S3, 0.0, 10.0, RIESZ1, [0.1]) == design_lower_bound(
        S3, 0, 10, RIESZ1, [0.1])


def test_non_finite_subset_entries_are_refused():
    # f = 10 lies above h everywhere; NaN compares false with every bound
    for subset in (np.array([np.nan]), np.array([0.0, np.nan]), np.array([np.inf]),
                   np.array([-np.inf, 0.0])):
        with pytest.raises(ParameterError, match="explicit subset"):
            design_lower_bound(S3, 0, 10, RIESZ1, np.array([10.0]), subset=subset)
        with pytest.raises(ParameterError, match="explicit subset"):
            separated_upper_bound(S3, 6, GAUSS, np.array([10.0]), 0.0, subset=subset)
    with pytest.raises(ParameterError, match="subset interval"):
        design_lower_bound(S3, 0, 10, RIESZ1, np.array([10.0]), subset=(np.nan, 0.5))


def test_an_empty_set_of_inner_products_is_refused():
    h8 = make_space("hamming", n=8, q=2)
    for call in (
        # no point of H(8,2)'s grid (steps of 1/4) lies in the interval
        lambda: design_lower_bound(h8, 0, 4, GAUSS, np.array([0.1]), subset=(0.1, 0.2)),
        # nor in one that misses 0.25 and 0.5 by 1e-6: a grid point is taken
        # within 1e-12 of an end
        lambda: design_lower_bound(h8, 0, 4, GAUSS, np.array([0.1]), subset=(0.25 + 1e-6, 0.5 - 1e-6)),
        # no point of the subset lies at or below s
        lambda: separated_upper_bound(S3, 6, GAUSS, np.array([3.0]), 0.0,
                                      subset=np.array([0.5, 0.6])),
        lambda: separated_upper_bound(S3, 6, GAUSS, np.array([3.0]), 0.0, subset=(0.2, 0.5)),
    ):
        with pytest.raises(ParameterError, match="left to check"):
            call()
    # the grid points at the ends of an interval or at s are checked
    assert design_lower_bound(h8, 0, 4, GAUSS, np.array([0.1]), subset=(0.25, 0.5)) == pytest.approx(1.2)
    with pytest.raises(ConditionError, match=r"\(F1\) f>=h below s fails at t=0.5"):
        separated_upper_bound(h8, 4, GAUSS, np.array([1.6]), 0.5 - 1e-13)
