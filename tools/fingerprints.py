"""Fingerprints of every bound, oracle result, asymptotics row, design bound and level end.

One SHA-1 per library ``ulb`` op and per oracle op of the fixed op
lists below.  Each ``ulb`` digest covers the bound (``value_sum``), the
rule's nodes and weights, the certificate and every field of its checks.
The rule's power-sum residual, a check on the rule rather than a result,
is printed beside it as a float hex, so a change that moves only the
residual reads as such; an op that raises a ulbkit error prints the
error instead.  An oracle op (``minimize_sphere`` or
``exhaustive_hamming``, Riesz p=1) prints a digest of its code's points
and its energy as a float hex.  Under Riesz p=1 and Gaussian c=1, each oracle op also prints
the energy it returns beside ``oracle.energy`` of the code it returns,
and each finite anchor (``extended_hamming_8`` on H(8,2), ``fano`` on
J(7,3), ``steiner_quadruple_8`` on J(8,4)) its ``oracle.energy``, all as
float hexes.  Last come the rows of ``asymptotics.sweep`` over a fixed
query set (sphere tau 5-9, Hamming tau 4-6, Gaussian c=1, rho 0.5), one
line per row with every numeric field as a float hex, or the row's note
where the sweep skipped it.  Then, for the spaces of the ``ulb`` op
lists and for S^2047, H(128,2), H(1000,2) and J(100,30),
``design_bound`` as a float hex for tau = 1..40, up to where it is
refused, and the top of every level of the space's level map (the last
integer the map gives that level), up to the error that ends the map.
The level tops are exact ints, so each space's level lines are printed
as one SHA-256 of them; ``level_lines(space)`` gives the lines behind a
digest.  The first line names the Python, numpy and BLAS versions.

``tests/data/fingerprints.txt`` is this tool's output, and
``tests/test_fingerprints.py`` checks it.  A change that moves a bit
regenerates the file, whose diff is then the list of moved lines:

    python tools/fingerprints.py > tests/data/fingerprints.txt

The op lists are the benchmark's bound-table, high-degree and
oracle-sandwich lists at seeds 11 and 12, written out, so that a change
to the benchmark's lists leaves the fingerprints where they are.
"""

import argparse
import hashlib
import itertools
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ulbkit  # noqa: E402
from ulbkit import asymptotics, levenshtein, oracle  # noqa: E402
from ulbkit.errors import UlbkitError  # noqa: E402

SPACES = {
    "S^2": ("sphere", {"n": 3}),
    "S^9": ("sphere", {"n": 10}),
    "H(30,2)": ("hamming", {"n": 30, "q": 2}),
    "J(80,40)": ("johnson", {"n": 80, "w": 40}),
    "HP^3": ("projective", {"n": 4, "field_dim": 4}),
    "CP^2": ("projective", {"n": 3, "field_dim": 2}),
    "H(8,2)": ("hamming", {"n": 8, "q": 2}),
    "J(7,3)": ("johnson", {"n": 7, "w": 3}),
    "J(8,4)": ("johnson", {"n": 8, "w": 4}),
    "S^2047": ("sphere", {"n": 2048}),
    "H(128,2)": ("hamming", {"n": 128, "q": 2}),
    "H(1000,2)": ("hamming", {"n": 1000, "q": 2}),
    "J(100,30)": ("johnson", {"n": 100, "w": 30}),
}
POTENTIALS = {"riesz": ulbkit.builtin("riesz", p=1.0), "gaussian": ulbkit.builtin("gaussian", c=1.0)}
# The ulb ops, "space M potential" each, r for Riesz and g for Gaussian,
# with a rel_tol after a slash; a bound-table list starts with its anchors
# and goes on in rounds of one op per space
ULB_OPS = {
    ("bound-table", 11): """
        S^2 4 r  S^2 6 g  S^2 12 g  S^9 11 r  S^9 20 r  H(8,2) 16 g  J(7,3) 7 r  J(8,4) 14 g  S^2 8 g
        S^2 98 g  S^9 663 r  H(30,2) 40 r  J(80,40) 542094070 g  HP^3 20379671 r  CP^2 506 g
        S^2 11 r  S^9 19173 g  H(30,2) 129456 g  J(80,40) 1577885478841 r  HP^3 9380 g  CP^2 2591 r
        S^2 5 r  S^9 8820 g  H(30,2) 13005 g  J(80,40) 231068065776 r  HP^3 1637 g  CP^2 1943 r
        S^2 37 r  S^9 181274 g  H(30,2) 8183474 g  J(80,40) 16486 r  HP^3 532337 g  CP^2 22 r
        S^2 35 g  S^9 119031 r  H(30,2) 3702508 r  J(80,40) 5591 g  HP^3 288697 r  CP^2 13 g
        S^2 17 r  S^9 45531 g  H(30,2) 488988 g  J(80,40) 62 r  HP^3 46685 g  CP^2 4004 r
        S^2 3 g  S^9 6006 r  H(30,2) 5597 r  J(80,40) 33785562702 g  HP^3 777 r  CP^2 1324 g
        S^2 108 r  S^9 1069 g  H(30,2) 142 g  J(80,40) 2004147857 r  HP^3 20 g  CP^2 687 r
        S^2 45 g  S^9 10 r  H(30,2) 9060472 r  J(80,40) 151974 g  HP^3 793435 r  CP^2 51 g
        S^2 66 r  S^9 81 g  H(30,2) 38004018 g  J(80,40) 7232263 r  HP^3 4751729 g  CP^2 170 r
        S^2 7 g  S^9 14199 r  H(30,2) 43838 r  J(80,40) 370231175232 g  HP^3 4918 r  CP^2 2181 g
        S^2 128 r  S^9 3628 g  H(30,2) 2996 g  J(80,40) 22473740615 r  HP^3 274 g  CP^2 1103 r
        S^2 114 g  S^9 2131 r  H(30,2) 721 r  J(80,40) 3593920784 g  HP^3 66 r  CP^2 931 g
        S^2 53 r  S^9 18 g  H(30,2) 19745443 g  J(80,40) 1063671 r  HP^3 1970932 g  CP^2 90 r
        S^2 24 g  S^9 59812 r  H(30,2) 1046193 r  J(80,40) 136 g  HP^3 91198 r  CP^2 4821 g
        S^2 83 r  S^9 394 g  H(30,2) 26 g  J(80,40) 143086059 r  HP^3 13953551 g  CP^2 339 r
        S^2 29 r  S^9 91867 g  H(30,2) 2043689 g  J(80,40) 2643 r  HP^3 132545 g  CP^2 5 r
        S^2 57 g  S^9 64 r  H(30,2) 29225321 r  J(80,40) 2417025 g  HP^3 3347757 r  CP^2 102 g
        S^2 75 g  S^9 239 r  H(30,2) 71561786 r  J(80,40) 32232412 g  HP^3 7577884 r  CP^2 311 g
        S^2 14 g  S^9 24789 r  H(30,2) 198879 r  J(80,40) 2546465768158 g  HP^3 17357 r  CP^2 3065 g
    """,
    ("bound-table", 12): """
        S^2 4 g  S^2 6 r  S^2 12 g  S^9 11 r  S^9 20 g  H(8,2) 16 r  J(7,3) 7 r  J(8,4) 14 g  S^2 8 r
        S^2 85 r  S^9 305 g  H(30,2) 9 g  J(80,40) 68832513 r  HP^3 9067007 g  CP^2 434 r
        S^2 128 r  S^9 2910 g  H(30,2) 3547 g  J(80,40) 5831250618 r  HP^3 269 g  CP^2 1291 r
        S^2 10 r  S^9 17511 g  H(30,2) 172838 g  J(80,40) 725227310842 r  HP^3 10914 g  CP^2 2806 r
        S^2 116 g  S^9 1765 r  H(30,2) 794 r  J(80,40) 4595253015 g  HP^3 56 r  CP^2 940 g
        S^2 44 g  S^9 8 r  H(30,2) 11945978 r  J(80,40) 103019 g  HP^3 1223760 r  CP^2 53 g
        S^2 3 g  S^9 4340 r  H(30,2) 7894 r  J(80,40) 29349829791 g  HP^3 677 r  CP^2 1524 g
        S^2 15 g  S^9 27321 r  H(30,2) 200396 r  J(80,40) 2009620500488 g  HP^3 21195 r  CP^2 3137 g
        S^2 37 r  S^9 154508 g  H(30,2) 8038211 g  J(80,40) 60338 r  HP^3 524084 g  CP^2 22 r
        S^2 55 r  S^9 15 g  H(30,2) 17667597 g  J(80,40) 1232959 r  HP^3 1605833 g  CP^2 91 r
        S^2 63 g  S^9 35 r  H(30,2) 24651698 r  J(80,40) 1900491 g  HP^3 2436894 r  CP^2 119 g
        S^2 18 r  S^9 43445 g  H(30,2) 690542 g  J(80,40) 61 r  HP^3 56239 g  CP^2 3727 r
        S^2 29 r  S^9 86980 g  H(30,2) 2321619 g  J(80,40) 2144 r  HP^3 134740 g  CP^2 6 r
        S^2 96 g  S^9 531 r  H(30,2) 47 r  J(80,40) 517881729 g  HP^3 14220849 r  CP^2 537 g
        S^2 66 r  S^9 98 g  H(30,2) 47942451 g  J(80,40) 18471858 r  HP^3 5682524 g  CP^2 166 r
        S^2 32 g  S^9 105931 r  H(30,2) 3720305 r  J(80,40) 5697 g  HP^3 274849 r  CP^2 13 g
        S^2 24 g  S^9 66555 r  H(30,2) 1168417 r  J(80,40) 131 g  HP^3 88503 r  CP^2 4587 g
        S^2 8 g  S^9 14589 r  H(30,2) 51236 r  J(80,40) 263332418730 g  HP^3 2610 r  CP^2 2350 g
        S^2 104 r  S^9 1339 g  H(30,2) 377 g  J(80,40) 2569125050 r  HP^3 27 g  CP^2 751 r
        S^2 5 r  S^9 7071 g  H(30,2) 14106 g  J(80,40) 104925870288 r  HP^3 1385 g  CP^2 1728 r
        S^2 77 g  S^9 139 r  H(30,2) 67182381 r  J(80,40) 35207772 g  HP^3 8516417 r  CP^2 264 g
    """,
    ("high-degree", 11): """
        S^2 225 r  S^2 400 r  S^2 825 g/1e-08
        CP^2 118638 r  CP^2 27702 r  S^9 44264512 g  HP^3 193450991360 g
        S^2 189 r  S^9 1879537 g  S^2 473 r  HP^3 5125840720 g
    """,
    ("high-degree", 12): """
        S^2 225 r  S^2 400 r  S^2 825 g/1e-08
        S^9 44264512 g  CP^2 27702 r  HP^3 193450991360 g  HP^3 5125840720 g
        S^2 473 r  S^9 1879537 g  S^2 189 r  CP^2 118638 r
    """,
}
# "minimize n M" is minimize_sphere on S^(n-1) with the restarts and seed
# below, "exhaustive n M" is exhaustive_hamming on H(n,2)
ORACLE_OPS = {
    11: (
        "minimize 3 4, exhaustive 5 5, minimize 3 8, minimize 3 6, exhaustive 5 4, "
        "minimize 3 10, exhaustive 6 5, minimize 3 9, minimize 3 5, exhaustive 6 4, "
        "minimize 3 11, minimize 3 12, minimize 3 7"),
    12: (
        "minimize 3 4, minimize 3 8, minimize 3 6, exhaustive 6 5, exhaustive 5 4, "
        "exhaustive 6 4, minimize 3 9, minimize 3 12, minimize 3 10, exhaustive 5 5, "
        "minimize 3 7, minimize 3 11, minimize 3 5"),
}
ORACLE_RESTARTS, ORACLE_SEED = 20, 2024
# (family, levels, dimensions) of the asymptotics rows; the dimensions
# reach the range where design bounds round just below their integers
ASYMPTOTICS = (
    ("sphere", range(5, 10), (*range(8, 65, 8), 136, 160, 256, 360, 512, 1024, 2048)),
    ("hamming", range(4, 7), (*range(8, 49, 8), 128, 280, 500, 1000)),
)
ASYMPTOTIC_FIELDS = ("M", "s", "alpha_0", "rho_0_M", "remainder", "limit", "ratio1", "ratio2")
# the spaces whose design bounds and level tops are printed
LEVEL_SPACES = ("S^2", "S^9", "H(30,2)", "J(80,40)", "HP^3", "CP^2",
                "S^2047", "H(128,2)", "H(1000,2)", "J(100,30)")
DESIGN_TAUS = range(1, 41)
# the finite anchors whose oracle.energy is printed
FINITE_ANCHORS = (("H(8,2)", "extended_hamming_8"), ("J(7,3)", "fano"),
                  ("J(8,4)", "steiner_quadruple_8"))


def make(label):
    family, params = SPACES[label]
    return ulbkit.make_space(family, **params)


def versions():
    """The line that names the versions the fingerprints were taken under."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (f"# python {platform.python_version()}, numpy {np.__version__},"
            f" {blas.get('name', 'blas')} {blas.get('version', 'unknown')}")


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


def ulb_ops(workload, seed):
    """The ops of one ``ULB_OPS`` list, as (space, M, potential, keyword arguments of ``ulb``)."""
    tokens = ULB_OPS[workload, seed].split()
    for label, M, potential in zip(*[iter(tokens)] * 3):
        potential, *rel_tol = potential.split("/")
        kwargs = {"rel_tol": float(rel_tol[0])} if rel_tol else {}
        yield make(label), int(M), POTENTIALS["riesz" if potential == "r" else "gaussian"], kwargs


def ulb_lines(workload, seed):
    for i, (space, M, h, kwargs) in enumerate(ulb_ops(workload, seed)):
        try:
            line = fingerprint(ulbkit.ulb(space, M, h, **kwargs))
        except UlbkitError as exc:
            line = f"{type(exc).__name__}: {exc}"
        yield f"{workload} s{seed} #{i}: {line}"


def run_oracle(kind, n, M, h):
    """The code and energy an oracle op returns."""
    if kind == "minimize":
        code, energy, _ = oracle.minimize_sphere(n, M, h, restarts=ORACLE_RESTARTS,
                                                 seed=ORACLE_SEED)
        return code, energy
    return oracle.exhaustive_hamming(n, M, h)


def oracle_lines(seed, results):
    """The lines of one oracle list; ``results`` keeps each op's result for the next list."""
    for i, op in enumerate(ORACLE_OPS[seed].split(", ")):
        kind, n, M = op.split()
        head = f"oracle-sandwich s{seed} #{i}"
        for name, h in POTENTIALS.items():
            if (op, name) not in results:
                results[op, name] = run_oracle(kind, int(n), int(M), h)
        code, energy = results[op, "riesz"]
        digest = hashlib.sha1(np.asarray(code.points).tobytes()).hexdigest()
        yield f"{head}: {digest} energy {float(energy).hex()}"
        label = "minimize" if kind == "minimize" else "search"
        for name, h in POTENTIALS.items():
            code, energy = results[op, name]
            exact = oracle.energy(code.space, code, h)
            yield f"{head} {name}: {label} {float(energy).hex()} oracle.energy {exact.hex()}"


def anchor_lines():
    for label, name in FINITE_ANCHORS:
        space = make(label)
        code = oracle.named_config(space, name)
        for pname, h in POTENTIALS.items():
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


def level_lines(space):
    """The level tops of a space, up to the error that ends its map.

    An OverflowError is printed like a library error, so a checkout whose
    float level map overflows (S^2047 past tau 416 once did) shows that.
    """
    for tau in itertools.count(1):
        try:
            top = levenshtein._level_cardinalities(space, tau).stop - 1
        except (UlbkitError, OverflowError) as exc:
            yield f"level {space.label()} tau{tau}: {type(exc).__name__}: {exc}"
            return
        yield f"level {space.label()} tau{tau}: {top}"


def space_lines():
    """Design bounds and level-top digests of each space; an error ends a space's design bounds."""
    for space in map(make, LEVEL_SPACES):
        for tau in DESIGN_TAUS:
            head = f"design_bound {space.label()} tau{tau}"
            try:
                yield f"{head}: {levenshtein.design_bound(space, tau).hex()}"
            except (UlbkitError, OverflowError) as exc:
                yield f"{head}: {type(exc).__name__}: {exc}"
                break
        levels = list(level_lines(space))
        digest = hashlib.sha256("".join(f"{line}\n" for line in levels).encode()).hexdigest()
        yield f"level {space.label()}: {len(levels)} lines, sha256 {digest}"


def lines():
    """Every line of the output, the versions first."""
    yield versions()
    results = {}
    for seed in (11, 12):
        for workload in ("bound-table", "high-degree"):
            yield from ulb_lines(workload, seed)
        yield from oracle_lines(seed, results)
    yield from anchor_lines()
    yield from asymptotics_lines(POTENTIALS["gaussian"])
    yield from space_lines()


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n", 1)[0]).parse_args(argv)
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
