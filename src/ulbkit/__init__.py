"""Universal lower bounds for the potential energy of codes in polynomial
metric spaces, with the companion quadrature, design, and oracle tooling.
"""

__version__ = "0.1.0"

from .pmspace import Family, SpaceDescriptor, make_space
from .potentials import Potential, builtin, check_absolutely_monotone
from .levenshtein import (
    QuadratureRule,
    design_bound,
    lev_bound,
    lev_polynomial,
    quadrature_rule,
    tau_for_cardinality,
)
from .ulb import (
    UlbReport,
    TestFunctionReport,
    hermite_certificate,
    improve_with_qj,
    test_functions,
    ulb,
    verify_certificate,
)

__all__ = [
    "Family",
    "SpaceDescriptor",
    "make_space",
    "Potential",
    "builtin",
    "check_absolutely_monotone",
    "QuadratureRule",
    "design_bound",
    "lev_bound",
    "lev_polynomial",
    "quadrature_rule",
    "tau_for_cardinality",
    "UlbReport",
    "TestFunctionReport",
    "hermite_certificate",
    "improve_with_qj",
    "test_functions",
    "ulb",
    "verify_certificate",
    "__version__",
]
