import numpy as np
import pytest

from ulbkit import oracle, orthopoly
from ulbkit.designbounds import (
    DesignEnergyQuery,
    design_lower_bound,
    design_upper_bound,
    separated_upper_bound,
)
from ulbkit.errors import ConditionError, ParameterError
from ulbkit.orthopoly import PolyCoeffs
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import ulb

S3 = make_space("sphere", n=3)
RIESZ1 = builtin("riesz", p=1)
GAUSS = builtin("gaussian", c=1)


def test_lower_bound_reproduces_main_bound():
    for space, M in [(S3, 12), (make_space("hamming", n=8, q=2), 16)]:
        rep = ulb(space, M, RIESZ1)
        query = DesignEnergyQuery(
            space, rep.rule.tau, M, RIESZ1, rep.certificate, "lower"
        )
        assert design_lower_bound(query) == pytest.approx(rep.value_sum, abs=1e-9 * rep.value_sum)


def test_constant_polynomials():
    M = 10
    c = 0.25  # below min h = h(-1) = 0.5 for riesz(1)
    query = DesignEnergyQuery(S3, 3, M, RIESZ1, PolyCoeffs([c]), "lower")
    assert design_lower_bound(query) == pytest.approx(c * M * (M - 1), rel=1e-12)
    grid = np.cos(np.pi * np.arange(1, 2001) / 2000)
    top = float(np.max(GAUSS(grid))) + 1e-6
    query = DesignEnergyQuery(S3, 3, M, GAUSS, PolyCoeffs([top]), "upper")
    assert design_upper_bound(query) == pytest.approx(top * M * (M - 1), rel=1e-12)


def test_lower_bound_condition_violations():
    # a coefficient above the design strength with the wrong sign
    bad = PolyCoeffs(np.concatenate([np.zeros(4), [-1.0]]), "q")
    query = DesignEnergyQuery(S3, 3, 10, RIESZ1, bad, "lower")
    with pytest.raises(ConditionError) as err:
        design_lower_bound(query)
    assert err.value.where == 4
    # exceeding h somewhere on the grid
    rep = ulb(S3, 12, RIESZ1)
    shifted = PolyCoeffs(rep.certificate.coeffs + np.eye(len(rep.certificate.coeffs))[0], "q")
    query = DesignEnergyQuery(S3, rep.rule.tau, 12, RIESZ1, shifted, "lower")
    with pytest.raises(ConditionError):
        design_lower_bound(query)


def test_upper_bound_condition_violation():
    bad = PolyCoeffs(np.concatenate([np.zeros(4), [1.0]]), "q")
    query = DesignEnergyQuery(S3, 3, 12, GAUSS, bad, "upper")
    with pytest.raises(ConditionError):
        design_upper_bound(query)


def test_direction_mismatch_rejected():
    query = DesignEnergyQuery(S3, 3, 10, RIESZ1, PolyCoeffs([0.1]), "lower")
    with pytest.raises(ParameterError):
        design_upper_bound(query)
    with pytest.raises(ParameterError):
        DesignEnergyQuery(S3, 3, 10, RIESZ1, PolyCoeffs([0.1]), "sideways")
    with pytest.raises(ParameterError):
        DesignEnergyQuery(S3, 3, 10, RIESZ1, PolyCoeffs([0.1]), "separated_upper")


def _upper_tangent_certificate(space, M, h):
    """A degree-2 polynomial above h on [-1, 1): secant-style construction."""
    # h convex increasing: the chord over [-1, u] lies above h on [-1, u]
    u = 0.999999
    slope = (h(u) - h(-1.0)) / (u + 1.0)
    return PolyCoeffs([h(-1.0) + slope, slope])  # line through (-1, h(-1)), (u, h(u))


def test_icosahedron_sandwich():
    code = oracle.named_config(S3, "icosahedron")
    energy = oracle.energy(S3, code, GAUSS)
    rep = ulb(S3, 12, GAUSS)
    lower_q = DesignEnergyQuery(S3, 5, 12, GAUSS, rep.certificate, "lower")
    lo = design_lower_bound(lower_q)
    g = _upper_tangent_certificate(S3, 12, GAUSS)
    upper_q = DesignEnergyQuery(S3, 5, 12, GAUSS, g, "upper")
    hi = design_upper_bound(upper_q)
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
        lo = design_lower_bound(
            DesignEnergyQuery(space, tau, code.size, GAUSS, rep.certificate, "lower")
        )
        hi = design_upper_bound(
            DesignEnergyQuery(
                space, tau, code.size, GAUSS,
                _upper_tangent_certificate(space, code.size, GAUSS), "upper",
            )
        )
        assert lo - 1e-8 <= energy <= hi + 1e-8


def test_separated_upper_bound():
    h = GAUSS
    M, s = 6, 0.0
    grid = np.cos(np.pi * np.arange(1, 2001) / 2000)
    sup_h = float(np.max(h(grid[grid <= s]))) + 1e-9
    query = DesignEnergyQuery(
        S3, 0, M, h, PolyCoeffs([sup_h]), "separated_upper", separation=s
    )
    bound = separated_upper_bound(query)
    assert bound == pytest.approx(sup_h * M * (M - 1), rel=1e-9)
    # every code with that separation stays below the bound
    code = oracle.named_config(S3, "cross_polytope")
    assert oracle.energy(S3, code, h) <= bound + 1e-9


def test_separated_upper_rejects_positive_coefficient():
    # shifted first-degree polynomial: pointwise fine, sign condition fails
    query = DesignEnergyQuery(
        S3, 0, 6, GAUSS, PolyCoeffs([3.0, 1.0]), "separated_upper", separation=0.0
    )
    with pytest.raises(ConditionError) as err:
        separated_upper_bound(query)
    assert err.value.where == 1


def test_separated_upper_nonconstant_certificate():
    # decreasing line pinned at h(s): above h on [-1, s) since h increases
    h = GAUSS
    s = 0.0
    down = PolyCoeffs([float(h(s)) + 0.1 * s + 1e-12, -0.1])
    tt = np.linspace(-1, s, 500)
    assert np.all(np.polynomial.polynomial.polyval(tt, down.coeffs) >= h(tt) - 1e-12)
    query = DesignEnergyQuery(S3, 0, 6, h, down, "separated_upper", separation=s)
    bound = separated_upper_bound(query)
    code = oracle.named_config(S3, "cross_polytope")
    assert oracle.energy(S3, code, h) <= bound + 1e-9


def test_subset_interval_restriction():
    # restricting the inner-product set admits certificates that fail globally
    h = RIESZ1
    const = PolyCoeffs([float(h(-0.2))])  # exceeds h on t < -0.2 (h increasing)
    full = DesignEnergyQuery(S3, 2, 8, h, const, "lower")
    with pytest.raises(ConditionError):
        design_lower_bound(full)
    narrow = DesignEnergyQuery(S3, 2, 8, h, const, "lower", subset=(-0.2, 0.5))
    assert design_lower_bound(narrow) == pytest.approx(
        float(h(-0.2)) * 8 * 7, rel=1e-12
    )
