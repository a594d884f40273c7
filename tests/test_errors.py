"""errors.integer, the one integer check behind every integer parameter."""

import numpy as np
import pytest

from ulbkit import oracle
from ulbkit.errors import ParameterError, integer
from ulbkit.pmspace import make_space
from ulbkit.potentials import builtin
from ulbkit.ulb import test_functions as compute_test_functions
from ulbkit.ulb import ulb

S2 = make_space("sphere", n=3)
RIESZ1 = builtin("riesz", p=1)
# each call passes the bool b where an integer belongs, which True would
# fill as 1 (field_dim=True would build RP^2, j=True the monomial j = 1)
CALLS = {
    "make_space": lambda b: make_space("projective", n=3, field_dim=b),
    "ulb": lambda b: ulb(S2, b, RIESZ1),
    "minimize_sphere-restarts": lambda b: oracle.minimize_sphere(3, 4, RIESZ1, restarts=b, seed=0),
    "minimize_sphere-seed": lambda b: oracle.minimize_sphere(3, 4, RIESZ1, restarts=1, seed=b),
    "exhaustive_hamming": lambda b: oracle.exhaustive_hamming(4, b, RIESZ1),
    "monomial": lambda b: builtin("monomial", j=b),
    "test_functions": lambda b: compute_test_functions(S2, 6, [0, b]),
}


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_integer_refuses_a_bool(value):
    with pytest.raises(ParameterError, match=f"^a level needs an integer tau, got {value!r}$"):
        integer("a level", "tau", value)
    assert integer("a level", "tau", np.int64(3)) == 3 and integer("a level", "tau", 3.0) == 3


@pytest.mark.parametrize("value", [True, np.True_], ids=repr)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_every_integer_parameter_refuses_a_bool(call, value):
    with pytest.raises(ParameterError, match=rf"needs an integer \w+, got {value!r}$"):
        call(value)
