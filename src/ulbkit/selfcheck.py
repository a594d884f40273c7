"""Built-in invariant suite behind the ``selfcheck`` CLI subcommand.

Each check returns (name, ok, detail); a healthy build passes all of
them in a few seconds.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import levenshtein, oracle, orthopoly, pmspace
from .ulb import test_functions as _test_functions, ulb as _ulb
from .potentials import builtin

_SPACES = (
    ("sphere", {"n": 3}),
    ("sphere", {"n": 5}),
    ("hamming", {"n": 8, "q": 2}),
    ("hamming", {"n": 6, "q": 3}),
    ("johnson", {"n": 10, "w": 5}),
    ("projective", {"n": 4, "field_dim": 2}),
)


def _spaces():
    return [pmspace.make_space(f, **p) for f, p in _SPACES]


def check_orthogonality():
    worst = 0.0
    for space in _spaces():
        deg = min(10, space.max_degree or 10)
        system = orthopoly.adjacent_system(space, 0, 0, deg)
        x, wts = pmspace.measure_rule(space, 2 * deg)
        q = orthopoly.eval_q_all(system, deg, x)
        gram = (q * wts) @ q.T * system.norms[: deg + 1, None]
        worst = max(worst, float(np.max(np.abs(gram - np.eye(deg + 1)))))
    return worst < 1e-9, f"max orthogonality defect {worst:.2e}"


def check_quadrature_exactness():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for space in _spaces():
        for M in (int(levenshtein.design_bound(space, 2)) + 2, 25):
            rule = levenshtein.quadrature_rule(space, M)
            b = pmspace.moments(space, rule.tau)
            for _ in range(40):
                c = rng.uniform(-1.0, 1.0, rule.tau + 1)
                f0 = float(np.dot(c, b))
                lhs = f0 - npoly.polyval(1.0, c) / rule.M
                lhs -= float(np.dot(rule.weights, npoly.polyval(rule.nodes, c)))
                worst = max(worst, abs(lhs) / np.sum(np.abs(c)))
    return worst < 1e-9, f"max quadrature residual {worst:.2e}"


def check_test_functions_vanish():
    worst = 0.0
    for space in _spaces():
        tau = levenshtein.tau_for_cardinality(space, 25)[2]
        rep = _test_functions(space, 25, range(1, tau + 1))
        worst = max(worst, max(abs(v) for v in rep.values))
    return worst < 1e-8, f"max |P_j| for j<=tau: {worst:.2e}"


def check_endpoint_agreement():
    worst = 0.0
    for space in _spaces():
        for tau in range(1, 6):
            lo, hi = levenshtein.validity_interval(space, tau)
            e = max(
                abs(levenshtein.lev_bound(space, tau, lo) - levenshtein.design_bound(space, tau)),
                abs(levenshtein.lev_bound(space, tau, hi) - levenshtein.design_bound(space, tau + 1)),
            )
            worst = max(worst, e)
    return worst < 1e-7, f"max endpoint defect {worst:.2e}"


def check_sharp_configurations():
    s3 = pmspace.make_space("sphere", n=3)
    h = builtin("riesz", p=1)
    worst = 0.0
    for name, M in (("simplex", 4), ("cross_polytope", 6), ("icosahedron", 12)):
        code = oracle.named_config(s3, name)
        direct = oracle.energy(s3, code, h)
        bound = _ulb(s3, M, h).value_sum
        worst = max(worst, abs(direct - bound) / direct)
    return worst < 1e-8, f"max sharp-configuration mismatch {worst:.2e}"


def check_certificates():
    h = builtin("gaussian", c=1)
    for space in _spaces():
        rep = _ulb(space, 14, h)
        if not (rep.certificate_checks.below_h and rep.certificate_checks.f_geq):
            return False, f"certificate failed for {space.label()}"
    return True, "all certificates valid"


ALL_CHECKS = (
    ("orthogonality", check_orthogonality),
    ("quadrature-exactness", check_quadrature_exactness),
    ("test-functions-vanish", check_test_functions_vanish),
    ("endpoint-agreement", check_endpoint_agreement),
    ("sharp-configurations", check_sharp_configurations),
    ("certificates", check_certificates),
)


def run_all():
    """Run every check; returns (all_ok, [(name, ok, detail), ...])."""
    results = []
    all_ok = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        all_ok = all_ok and ok
    return all_ok, results
