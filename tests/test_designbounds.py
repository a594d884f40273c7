import numpy as np
import pytest

from ulbkit import oracle, orthopoly
from ulbkit.designbounds import design_lower_bound, design_upper_bound, separated_upper_bound
from ulbkit.errors import ConditionError, ParameterError
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
