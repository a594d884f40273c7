import numpy as np
import pytest

from ulbkit.errors import DomainError, ParameterError
from ulbkit.potentials import Potential, builtin, check_absolutely_monotone


def test_riesz_example():
    h = builtin("riesz", p=1)
    assert h(-1 / 3) == pytest.approx((8 / 3) ** -0.5, abs=1e-12)
    assert h(-1 / 3) == pytest.approx(0.612372, abs=1e-6)


def test_gaussian_derivatives():
    g = builtin("gaussian", c=1)
    assert g.deriv(0.0, 5) == pytest.approx(1.0, abs=1e-14)
    g2 = builtin("gaussian", c=2.5)
    assert g2.deriv(0.3, 3) == pytest.approx(2.5**3 * np.exp(0.75), rel=1e-13)


def test_series_example():
    h = builtin("series", coeffs=[1, 1])  # 2 + t
    tt = np.linspace(-1, 0.9, 5)
    assert np.allclose(h(tt), 2 + tt)
    assert np.allclose(h.deriv(tt, 2), 0.0)


def test_monomial_derivatives():
    h = builtin("monomial", j=3)
    assert h(0.5) == pytest.approx(1.5**3)
    assert h.deriv(0.5, 2) == pytest.approx(6 * 1.5)
    assert h.deriv(0.5, 4) == 0.0


def test_log_convention():
    h = builtin("log")
    assert h(0.5) == pytest.approx(-0.5 * np.log(1.0))
    assert h.deriv(0.0, 1) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "h",
    [
        builtin("riesz", p=1),
        builtin("riesz", p=2.5),
        builtin("gaussian", c=1),
        builtin("log"),
        builtin("monomial", j=4),
        builtin("series", coeffs=[0.3, 0.0, 2.0]),
    ],
    ids=lambda h: h.label(),
)
def test_derivatives_match_finite_differences(h):
    # fourth-order central stencils at interior points for orders 1..4;
    # tolerance = 1e-6 relative plus the stencil's machine-eps amplification
    tt = np.linspace(-0.8, 0.2, 8)
    stencils = {
        1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
        2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
        3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8]),
        4: ([-3, -2, -1, 0, 1, 2, 3], [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
    }
    for order, (off, wts) in stencils.items():
        step = 1e-2 if order <= 2 else 6e-3
        approx = sum(w * h(tt + o * step) for o, w in zip(off, wts)) / step**order
        exact = h.deriv(tt, order)
        magnitude = sum(abs(w) * np.abs(h(tt + o * step)) for o, w in zip(off, wts)) / step**order
        tol = 1e-6 * np.maximum(1.0, np.abs(exact)) + 64 * np.finfo(float).eps * magnitude
        assert np.max(np.abs(approx - exact) / tol) < 1.0


def test_singular_domain_error():
    for h in (builtin("riesz", p=2), builtin("log")):
        with pytest.raises(DomainError):
            h(1.0)
        with pytest.raises(DomainError):
            h(np.array([0.0, 1.0]))
    # nonsingular potentials evaluate fine at 1
    assert builtin("gaussian", c=1)(1.0) == pytest.approx(np.e)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        builtin("riesz", p=0)
    with pytest.raises(ParameterError):
        builtin("gaussian", c=-1)
    with pytest.raises(ParameterError):
        builtin("series", coeffs=[1, -2])
    with pytest.raises(ParameterError):
        builtin("nope")


def test_parameters_a_potential_does_not_take():
    with pytest.raises(ParameterError, match=r"\['c'\]"):
        builtin("riesz", p=1, c=2)
    with pytest.raises(ParameterError):
        builtin("log", p=1)
    with pytest.raises(ParameterError, match=r"needs parameters \['p'\]"):
        builtin("riesz")


def test_absolutely_monotone_riesz():
    ok, violation = check_absolutely_monotone(builtin("riesz", p=2), 10)
    assert ok and violation is None
    # closed form sign check: every derivative is a positive multiple of
    # a positive power of 1/(2-2t)
    h = builtin("riesz", p=2)
    for order in range(11):
        assert h.deriv(-0.999, order) > 0


def test_absolutely_monotone_gaussian_all_orders():
    ok, _ = check_absolutely_monotone(builtin("gaussian", c=1), 25)
    assert ok


def test_linear_potential_fails_at_order_zero():
    h = Potential("line", {}, _deriv=lambda t, j: t if j == 0 else (np.ones_like(t) if j == 1 else np.zeros_like(t)))
    ok, violation = check_absolutely_monotone(h, 2)
    assert not ok
    order, t, value = violation
    assert order == 0 and value < 0 and t < 0


def test_log_fails_at_order_zero():
    ok, violation = check_absolutely_monotone(builtin("log"), 3)
    assert not ok and violation[0] == 0


def test_nan_derivatives_are_a_violation():
    h = Potential("nan", {}, _deriv=lambda t, j: np.full_like(t, np.nan))
    ok, violation = check_absolutely_monotone(h, 3)
    assert not ok
    assert violation[0] == 0 and np.isnan(violation[2])


def test_riesz_nan_order_is_reported():
    # the coefficient overflows to inf and (2-2t)^(-p/2-j) underflows to 0
    # at t = -1, so inf*0 = nan from order 537 on; +inf values still pass
    ok, violation = check_absolutely_monotone(builtin("riesz", p=1), 540)
    assert not ok
    order, t, value = violation
    assert order == 537 and t == -1.0 and np.isnan(value)
    assert check_absolutely_monotone(builtin("riesz", p=1), 536) == (True, None)


@pytest.mark.parametrize("c, order", [(2.0, 1100), (1.5, 1800)])
def test_gaussian_coefficient_overflows_to_inf(c, order):
    # c**j passes 1e308 below the order checked; +inf still passes
    assert check_absolutely_monotone(builtin("gaussian", c=c), order) == (True, None)


@pytest.mark.parametrize(
    "h, order",
    [(builtin("monomial", j=200), 149), (builtin("series", coeffs=[0.0] * 200 + [1.0]), 149),
     (builtin("log"), 200)],
    ids=["monomial", "series", "log"],
)
def test_factorial_coefficients_overflow_to_inf(h, order):
    # 200!/51! and 199! 2^199 pass the float range
    assert h.deriv(0.0, order) == np.inf
