"""Mutation check of the library's gates: does tier-1 notice each one loosened?

Each mutant replaces one piece of text in one file of ``src/ulbkit`` (a
tolerance, a check's comparison, a level-map end, an oracle constant, a
designbounds side, one ulp of a certificate's data) in a copy of
``src/``, ``tests/``, ``docs/`` and ``tools/`` in a temporary directory,
and runs tier-1 there with ``-x``, the mutant's most likely test file
(``test_<file>``) first.  A mutant is killed when a test fails,
survives when tier-1 passes, and times out when tier-1 has not finished
after ``TIMEOUT_S``.  A run of the unmutated copy comes first and must
pass, or no kill means anything.  Two runs at a time, each with one
OpenBLAS thread; one line per run, then a summary; the result is
written as JSON:

    python tools/mutants.py --out mutants.json

Exit status 0 when the unmutated copy passes and every mutant is killed or
is listed in ``EQUIVALENT`` with the reason it cannot change a result; 1
when the unmutated copy fails or a mutant survives or times out; 2 when a
mutant's old text is no longer found once in its file (the list must then
be rewritten against the code).  Standard library only; not part of tier-1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 240
JOBS = 2

# (file under src/ulbkit, old text, new text, label); the old text occurs
# exactly once in its file, and the label says what the mutant loosens
MUTANTS = (
    # ulb: the certificate's tolerances and checks
    ("ulb.py", "_FGEQ_TOL = -1e-8", "_FGEQ_TOL = -1e-6", "_FGEQ_TOL -1e-8 -> -1e-6"),
    ("ulb.py", "_BELOW_TOL = 1e-9", "_BELOW_TOL = 1e-8", "_BELOW_TOL 1e-9 -> 1e-8"),
    ("ulb.py", "_IDENTITY_TOL = 1e-9", "_IDENTITY_TOL = 1e-6", "_IDENTITY_TOL 1e-9 -> 1e-6"),
    ("ulb.py", "_PJ_NEGATIVE = -1e-8", "_PJ_NEGATIVE = -1e-6", "_PJ_NEGATIVE -1e-8 -> -1e-6"),
    ("ulb.py", "rel_tol * max(1.0, abs(value_sum))", "rel_tol * max(1e3, abs(value_sum))",
     "_check_value_identity: scale floor 1 -> 1e3"),
    ("ulb.py", "below = bool((excess <= tol).all())", "below = bool((excess <= 10 * tol).all())",
     "_conditions: below_h slack x10"),
    ("ulb.py", "worst = int((excess - tol).argmax())", "worst = int(excess.argmax())",
     "_conditions: worst point chosen without the tolerance"),
    ("ulb.py", "minq = float(f[start:].min(initial=np.inf))",
     "minq = float(f[start + 1:].min(initial=np.inf))",
     "_conditions: coefficient check starts one index late"),
    ("ulb.py", "return t, orthopoly.poly_eval(space, f, t), hv, _BELOW_TOL * (1.0 + np.abs(hv))",
     "return t, orthopoly.poly_eval(space, f, t), hv, _BELOW_TOL * (2.0 + np.abs(hv))",
     "_values: tolerance on a given set 1 + |h| -> 2 + |h|"),
    ("ulb.py", "tol = _BELOW_TOL * (1.0 + np.abs(hv))\n", "tol = _BELOW_TOL * (2.0 + np.abs(hv))\n",
     "_values: tolerance on the grid 1 + |h| -> 2 + |h|"),
    ("ulb.py", "if not 0.0 <= rel_tol < np.inf:", "if not 0.0 <= rel_tol:",
     "_report_from_rule: infinite rel_tol accepted"),
    ("ulb.py", "rhs[:m] = h(nodes) if h_nodes is None else h_nodes",
     "rhs[:m] = np.nextafter(h(nodes) if h_nodes is None else h_nodes, np.inf)",
     "hermite_certificate: h at the nodes one ulp up"),
    ("ulb.py", "    if not js:\n", "    if False:\n",
     "_test_functions_from_rule: empty index set accepted"),
    ("ulb.py", "except OverflowError:\n        raise ConditionError(f\"M={M}",
     "except ZeroDivisionError:\n        raise ConditionError(f\"M={M}",
     "_float_square: M^2 past the float range let through"),
    ("ulb.py", "except np.linalg.LinAlgError as exc:", "except ZeroDivisionError as exc:",
     "hermite_certificate: a singular solve let through"),
    ("ulb.py", "dq = qj(j + 1, _ETA_GRID)", "dq = np.abs(qj(j + 1, _ETA_GRID))",
     "_admissible_eta: first try bound by Q_j^(r) < 0 too"),
    # levenshtein: the rule's checks and the level map
    ("levenshtein.py", "_POWER_SUM_TOL = 1e-7", "_POWER_SUM_TOL = 1e-4", "_POWER_SUM_TOL 1e-7 -> 1e-4"),
    ("levenshtein.py", "_SOLVE_RTOL = 1e-10", "_SOLVE_RTOL = 1e-7", "_SOLVE_RTOL 1e-10 -> 1e-7"),
    ("levenshtein.py", "if not (weights > 0).all():", "if not (weights > -1e-12).all():",
     "_rule_from_nodes: weights > 0 -> > -1e-12"),
    ("levenshtein.py", "if not (nodes[1:] > nodes[:-1]).all():",
     "if not (nodes[1:] >= nodes[:-1]).all():",
     "_rule_from_nodes: strict node order -> non-strict"),
    ("levenshtein.py", "pad = 1e-12 * max(1.0, abs(lo), abs(hi))",
     "pad = 1e-6 * max(1.0, abs(lo), abs(hi))", "quadrature_rule: pad 1e-12 -> 1e-6"),
    ("levenshtein.py", "if not lo - pad <= nodes[-1] <= hi + pad:", "if False:",
     "quadrature_rule: separation outside the validity interval accepted"),
    ("levenshtein.py", "return s <= validity_interval(space, tau)[1]",
     "return s < validity_interval(space, tau)[1]", "separation_level: upper level at a shared end"),
    ("levenshtein.py", "tops += (math.floor(exact_design_bound(space, tau + 1)),)",
     "tops += (math.ceil(exact_design_bound(space, tau + 1)),)", "level map: floor top -> ceil"),
    ("levenshtein.py", "(math.ceil(exact_design_bound(space, 1)) - 1,)",
     "(math.floor(exact_design_bound(space, 1)),)", "level map: ceil(D(1)) - 1 -> floor(D(1))"),
    ("levenshtein.py", "adjacent_system(space, 0, 0, tau if space.is_finite else 0)",
     "adjacent_system(space, 0, 0, 0)", "level map: certificate's system not listed"),
    # orthopoly: the empty system
    ("orthopoly.py", "    if not len(beta):", "    if False:",
     "_build_system: an empty system let through"),
    # oracle
    ("oracle.py", "_COINCIDENT = 1.0 - 1e-12", "_COINCIDENT = 1.0 - 1e-6", "_COINCIDENT 1-1e-12 -> 1-1e-6"),
    ("oracle.py", "for a, hd in zip(counts.T, hval):", "for a, hd in zip(counts.T[::-1], hval[::-1]):",
     "_distribution_sum: d descending"),
    ("oracle.py", "return float(np.max(vals)), float(np.min(vals))",
     "return float(np.max(vals)), float(np.sort(vals)[1])", "separation: ell the second smallest"),
    ("oracle.py", "if space != code.space:", "if space.family != code.space.family:",
     "_check_space: family only"),
    ("oracle.py", 'if integer("minimize_sphere", "seed", seed) < 0:',
     'if seed is not None and integer("minimize_sphere", "seed", seed) < 0:',
     "minimize_sphere: seed None let through"),
    ("oracle.py", "abs(totals[i]) > 1e-8 * M * M", "abs(totals[i]) > 1e-6 * M * M",
     "design_strength: tolerance x100"),
    ("oracle.py", "exact_design_bound(space, tau_max + 1) <= M", "exact_design_bound(space, tau_max + 1) < M",
     "design_strength: orders up to D(tau) < M only"),
    # errors: the integer check every integer parameter shares
    ("errors.py", "ok = not isinstance(value, (bool, np.bool_)) and int(value) == value",
     "ok = int(value) == value", "integer: bool accepted"),
    # pmspace: the exact Jacobi sums
    ("pmspace.py", "(2 * i + a2 + 2), 2 * (i + 1) * (2 * i + b2 + 2))",
     "(2 * i + b2 + 2), 2 * (i + 1) * (2 * i + a2 + 2))", "jacobi_sum: alpha and beta swapped in the ratio"),
    ("pmspace.py", "        if i:\n            r *= Fraction(2 * i + a2 + b2 + 2",
     "        if i > 1:\n            r *= Fraction(2 * i + a2 + b2 + 2", "jacobi_sum: last factor skipped at i = 1"),
    ("pmspace.py", "if k < 0:\n        raise ParameterError(f\"jacobi_sum",
     "if k < -1:\n        raise ParameterError(f\"jacobi_sum", "jacobi_sum: k = -1 accepted"),
    # pmspace: the closed-form recurrences, Jacobi's first
    ("pmspace.py", "        offset[:1] = (beta - alpha) / (ab + 2)\n", "",
     "adjacent_recurrence: Jacobi beta_0 special case dropped"),
    ("pmspace.py", "        gamma[1:2] = 4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))\n", "",
     "adjacent_recurrence: Jacobi gamma_1 special case dropped"),
    ("pmspace.py", "beta = p * (N - k) + k * (1 - p) + a", "beta = p * (N - k) + k * (1 - p)",
     "adjacent_recurrence: Krawtchouk shift + a dropped"),
    ("pmspace.py", "size, p, N = n, (space.q - 1) / space.q, n - a - b",
     "size, p, N = n, 1 / space.q, n - a - b", "adjacent_recurrence: Krawtchouk p -> 1 - p"),
    ("pmspace.py", "N, al, be = w - a - b, b - w - 1, a - (n - w) - 1",
     "N, be, al = w - a - b, b - w - 1, a - (n - w) - 1", "adjacent_recurrence: Hahn alpha and beta swapped"),
    ("pmspace.py", "up[N:] = 0.0", "up[N + 1:] = 0.0", "adjacent_recurrence: Hahn A_N left at 0/0"),
    ("pmspace.py", "mass = 4 * (n - 1) * p * (1 - p) / n if", "mass = 4 * p * (1 - p) if",
     "adjacent_recurrence: (1,1) mass of H(n,q) without its factor (n-1)/n"),
    ("pmspace.py", "4 * (w - 1) * (n - w) / (n * (n - 1))", "4 * w * (n - w) / (n * n)",
     "adjacent_recurrence: (1,1) mass of J(n,w) without its factor n(w-1)/(w(n-1))"),
    # designbounds: the tolerances and the sides
    ("designbounds.py", "_COEFF_TOL = 1e-9", "_COEFF_TOL = 1e-6", "_COEFF_TOL 1e-9 -> 1e-6"),
    ("designbounds.py", "_PAD = 1e-12", "_PAD = 1e-3", "_PAD 1e-12 -> 1e-3"),
    ("designbounds.py", "side * hv, tol, tau + 1, coeff_tol)", "side * hv, tol, tau + 2, coeff_tol)",
     "_bound: coefficient check starts one index late"),
    ("designbounds.py", 'subset, -1, "(E1) g>=h"', 'subset, 1, "(E1) g>=h"',
     "design_upper_bound: lower side"),
    ("designbounds.py", 'subset, -1, "(F1) f>=h below s"', 'subset, 1, "(F1) f>=h below s"',
     "separated_upper_bound: lower side"),
    ("designbounds.py", "return grid[grid <= s + _PAD]", "return grid[grid < s - _PAD]",
     "_subset_grid: s itself left out of a finite cut"),
    # cli: fail closed
    ("cli.py", 'for name in ("below_h", "f_geq") if not', 'for name in ("below_h",) if not',
     "_report_payload: f_geq failure emitted"),
    ("cli.py", 'code = op if name == "named" else op.add_mutually_exclusive_group(required=True)',
     "code = op", "_oracle_args: --config and --points-json accepted together"),
    ("cli.py", 'p.add_argument("--potential", required=True,', 'p.add_argument("--potential",',
     "_add_potential_args: --potential not required"),
    ("cli.py", "hi + (1 if step > 0 else -1)", "hi + 1",
     "_int_range: a descending range drops its end"),
    ("cli.py", "args.jmax = min(10, space.max_degree or 10)", "args.jmax = 10",
     "_cmd_testfns: default range past the degree cap"),
)

# label -> why the mutant cannot change a result
EQUIVALENT = {
    "_rule_from_nodes: strict node order -> non-strict":
        "the nodes are eigenvalues of an unreduced Jacobi matrix (every off-diagonal entry is"
        " positive), which are distinct, so no rule has two equal nodes",
}

# the run of the unmutated copy, in the shape of a mutant
BASELINE = ("ulb.py", None, None, "no mutation")


def _apply(src: Path, file: str, old: str, new: str):
    path = src / "ulbkit" / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"old text found {text.count(old)} times in {file}"
    path.write_text(text.replace(old, new))
    return None


def run_mutant(mutant):
    file, old, new, label = mutant
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ulbkit-mutant-") as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests", "docs", "tools"):
            shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        stale = old is not None and _apply(tmp / "src", file, old, new)
        if stale:
            return {"label": label, "file": file, "status": "stale", "by": stale, "seconds": 0.0}
        tests = sorted(p.name for p in (tmp / "tests").glob("test_*.py"))
        first = f"test_{file}"
        order = [first] + [t for t in tests if t != first]
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{t}" for t in order)]
        # one BLAS thread per run: two runs share two cores, and OpenBLAS's
        # thread handoffs in small eigh calls cost more than they save
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status, by = "timeout", f"no result after {TIMEOUT_S} s"
        else:
            failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))]
            if proc.returncode == 0:
                status, by = "survived", None
            elif failed:
                status, by = "killed", failed[0]
            else:
                # a collection or internal error: its last line tells which
                last = (proc.stdout.strip() or proc.stderr.strip() or "?").splitlines()[-1]
                status, by = "killed", f"pytest exit {proc.returncode}: {last[:160]}"
    if old is None and status in ("survived", "killed"):
        # the unmutated copy passes where a mutant survives
        status = "passed" if status == "survived" else "failed"
    elif status == "survived" and label in EQUIVALENT:
        status, by = "equivalent", EQUIVALENT[label]
    return {"label": label, "file": file, "status": status, "by": by,
            "seconds": round(time.perf_counter() - start, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default="mutants.json", help="JSON result path (default mutants.json)")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    results = []
    with ThreadPoolExecutor(JOBS) as pool:
        for res in pool.map(run_mutant, (BASELINE, *MUTANTS)):
            results.append(res)
            print(f"{res['status']:10} {res['seconds']:6.1f}s  {res['file']:15} {res['label']}"
                  + (f"  [{res['by']}]" if res["by"] else ""), flush=True)
    baseline, results = results[0], results[1:]
    counts = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "equivalent", "survived", "timeout", "stale")}
    wall = round(time.perf_counter() - start, 1)
    print(f"unmutated copy {baseline['status']}; {len(results)} mutants: "
          + ", ".join(f"{n} {s}" for s, n in counts.items()) + f"; {wall} s with {JOBS} jobs")
    Path(args.out).write_text(json.dumps(
        {"baseline": baseline, "mutants": results, "counts": counts, "wall_seconds": wall,
         "jobs": JOBS}, indent=2) + "\n")
    if counts["stale"]:
        return 2
    return 1 if baseline["status"] != "passed" or counts["survived"] or counts["timeout"] else 0


if __name__ == "__main__":
    sys.exit(main())
