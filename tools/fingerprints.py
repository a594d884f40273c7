"""One SHA-1 per library ``ulb`` op and per oracle op of the benchmark lists.

The ``ulb`` ops are those of the bound-table and high-degree lists, the
oracle ops those of oracle-sandwich.  Each ``ulb`` digest covers the bound (``value_sum``), the rule's nodes
and weights, the certificate and every field of its checks.  The
rule's power-sum residual, a check on the rule rather than a result, is
printed beside it as a float hex, so a change that moves only the
residual reads as such.  An oracle op (``minimize_sphere`` or
``exhaustive_hamming``, Riesz p=1 as in the benchmark) prints a digest
of its code's points and its energy as a float hex.  An op that raises
prints its error instead.  Under Riesz p=1 and Gaussian c=1, each
oracle op also prints the energy it returns beside ``oracle.energy`` of
the code it returns, and each finite anchor
(``extended_hamming_8`` on H(8,2), ``fano`` on J(7,3),
``steiner_quadruple_8`` on J(8,4)) its ``oracle.energy``, all as float
hexes.  Last come the rows of ``asymptotics.sweep`` over a fixed query
set (sphere tau 5-9, Hamming tau 4-6, Gaussian c=1, rho 0.5), one line
per row with every numeric field as a float hex, or the row's note
where the sweep skipped it.  Then, for the spaces of the bound-table and
high-degree lists and for S^2047, H(128,2), H(1000,2), J(80,40) and
J(100,30), ``design_bound`` as a float hex for tau = 1..40, up to where it
is refused, and the top of every level of the space's level map as an
int (the last integer the map gives that level), up to the error that
ends the map.  Running this on two checkouts and diffing the output
tells whether a change leaves every bound, every oracle result, every
asymptotics row, every design bound and every level end bit-identical:

    python tools/fingerprints.py --seeds 11 12 > after.txt

The op lists come from ``perfbench/workloads.py``, imported as is.
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import ulbkit  # noqa: E402
import workloads  # noqa: E402
from ulbkit import asymptotics, levenshtein, oracle  # noqa: E402
from ulbkit.errors import UlbkitError  # noqa: E402

WORKLOADS = ("bound-table", "high-degree")
ORACLE_WORKLOAD = "oracle-sandwich"
# (family, levels, dimensions) of the asymptotics rows; the dimensions
# reach the range where design bounds round just below their integers
ASYMPTOTICS = (
    ("sphere", range(5, 10), (*range(8, 65, 8), 136, 160, 256, 360, 512, 1024, 2048)),
    ("hamming", range(4, 7), (*range(8, 49, 8), 128, 280, 500, 1000)),
)
ASYMPTOTIC_FIELDS = ("M", "s", "alpha_0", "rho_0_M", "remainder", "limit", "ratio1", "ratio2")
# the spaces whose design bounds and level tops are printed, besides those
# of the workloads
LEVEL_SPACES = (
    ("sphere", {"n": 2048}), ("hamming", {"n": 128, "q": 2}), ("hamming", {"n": 1000, "q": 2}),
    ("johnson", {"n": 80, "w": 40}), ("johnson", {"n": 100, "w": 30}),
)
DESIGN_TAUS = range(1, 41)
# the finite anchors whose oracle.energy is printed
FINITE_ANCHORS = (
    (("hamming", {"n": 8, "q": 2}), "extended_hamming_8"),
    (("johnson", {"n": 7, "w": 3}), "fano"),
    (("johnson", {"n": 8, "w": 4}), "steiner_quadruple_8"),
)


def _bits(x):
    """Exact bytes of a float, a bool or an array of floats."""
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, bool):
        return bytes([x])
    return float(x).hex().encode()


def fingerprint(report):
    rule, checks = report.rule, report.certificate_checks
    digest = hashlib.sha1()
    for part in (report.value_sum, rule.nodes, rule.weights,
                 np.asarray(report.certificate, dtype=float),
                 *vars(checks).values()):
        digest.update(_bits(part))
    return f"{digest.hexdigest()} residual {float(rule.power_sum_residual).hex()}"


def run_oracle(op, h):
    """The code and energy an oracle op returns."""
    if op["kind"] == "minimize":
        code, energy, _ = oracle.minimize_sphere(
            op["n"], op["M"], h, restarts=op["restarts"], seed=op["seed"])
        return code, energy
    return oracle.exhaustive_hamming(op["n"], op["M"], h)


def oracle_fingerprint(op, h):
    code, energy = run_oracle(op, h)
    digest = hashlib.sha1(np.asarray(code.points).tobytes()).hexdigest()
    return f"{digest} energy {float(energy).hex()}"


def energy_line(op, h):
    """The energy an oracle op returns and oracle.energy of its code."""
    code, energy = run_oracle(op, h)
    label = "minimize" if op["kind"] == "minimize" else "search"
    exact = oracle.energy(code.space, code, h)
    return f"{label} {float(energy).hex()} oracle.energy {exact.hex()}"


def anchor_lines(potentials):
    for (family, params), name in FINITE_ANCHORS:
        space = ulbkit.make_space(family, **params)
        code = oracle.named_config(space, name)
        for pname, h in potentials.items():
            yield f"anchor {space.label()} {name} {pname}: {oracle.energy(space, code, h).hex()}"


def asymptotics_lines(h):
    for family, levels, ns in ASYMPTOTICS:
        for tau in levels:
            query = asymptotics.AsymptoticQuery(family, tau, h, rho=0.5, n_range=ns)
            for row in asymptotics.sweep(query):
                if "skipped" in row:
                    line = f"skipped: {row['skipped']}"
                else:
                    line = " ".join(f"{f}={float(row[f]).hex()}" for f in ASYMPTOTIC_FIELDS)
                    line += f" clamped={row['clamped']}"
                yield f"asymptotics {family} tau{tau} n{row['n']}: {line}"


def level_lines():
    """Design bounds and level tops of each space; an error ends a space's lines.

    An OverflowError is printed like a library error, so a checkout whose
    float level map overflows (S^2047 past tau 416 once did) shows that in
    the diff.
    """
    spaces = dict.fromkeys(ulbkit.make_space(family, **params) for family, params
                           in (*workloads.SPACES.values(), *LEVEL_SPACES))
    for space in spaces:
        for tau in DESIGN_TAUS:
            try:
                yield f"design_bound {space.label()} tau{tau}: {levenshtein.design_bound(space, tau).hex()}"
            except (UlbkitError, OverflowError) as exc:
                yield f"design_bound {space.label()} tau{tau}: {type(exc).__name__}: {exc}"
                break
        for tau in itertools.count(1):
            try:
                top = levenshtein._level_cardinalities(space, tau).stop - 1
            except (UlbkitError, OverflowError) as exc:
                yield f"level {space.label()} tau{tau}: {type(exc).__name__}: {exc}"
                break
            yield f"level {space.label()} tau{tau}: {top}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    potentials = {name: ulbkit.builtin(name, **params)
                  for name, params in workloads.POTENTIALS.items()}
    for seed in args.seeds:
        for workload in WORKLOADS:
            for i, op in enumerate(workloads.generate(workload, seed)):
                if op["kind"] != "ulb":
                    continue
                kwargs = {"rel_tol": op["rel_tol"]} if op.get("rel_tol") else {}
                try:
                    rep = ulbkit.ulb(workloads.make(op["space"]), op["M"],
                                     potentials[op["potential"]], **kwargs)
                    line = fingerprint(rep)
                except UlbkitError as exc:
                    line = f"{type(exc).__name__}: {exc}"
                print(f"{workload} s{seed} #{i}: {line}")
        for i, op in enumerate(workloads.generate(ORACLE_WORKLOAD, seed)):
            try:
                line = oracle_fingerprint(op, potentials["riesz"])
            except UlbkitError as exc:
                line = f"{type(exc).__name__}: {exc}"
            print(f"{ORACLE_WORKLOAD} s{seed} #{i}: {line}")
            for name, h in potentials.items():
                print(f"{ORACLE_WORKLOAD} s{seed} #{i} {name}: {energy_line(op, h)}")
    for line in anchor_lines(potentials):
        print(line)
    for line in asymptotics_lines(ulbkit.builtin("gaussian", c=1.0)):
        print(line)
    for line in level_lines():
        print(line)


if __name__ == "__main__":
    main()
