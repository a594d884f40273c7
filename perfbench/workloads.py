"""Seeded inputs, op execution, output checks and the shared failure classifier.

An op is a JSON-able dict, so the op list written next to the results
replays any op: ``Runner().run(op)``.  ulbkit sees only these inputs.
Library ops call the layer functions through their module attributes at
call time, so the tracer's wrappers apply when it is installed.
"""

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

import ulbkit
from ulbkit import errors, levenshtein, oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ULB = importlib.import_module("ulbkit.ulb")

WORKLOADS = ("bound-table", "high-degree", "cli-oneshot", "oracle-sandwich")

SPACES = {
    "S^2": ("sphere", {"n": 3}),
    "S^9": ("sphere", {"n": 10}),
    "H(30,2)": ("hamming", {"n": 30, "q": 2}),
    "J(80,40)": ("johnson", {"n": 80, "w": 40}),
    "HP^3": ("projective", {"n": 4, "field_dim": 4}),
    "CP^2": ("projective", {"n": 3, "field_dim": 2}),
}
POTENTIALS = {"riesz": {"p": 1.0}, "gaussian": {"c": 1.0}}
POTENTIAL_NAMES = tuple(POTENTIALS)
CLI_POTENTIAL_ARGS = {"riesz": ["--potential", "riesz", "--p", "1"],
                      "gaussian": ["--potential", "gaussian", "--c", "1"]}

# Sharp configurations attain the bound; the cube is a non-sharp control.
ANCHORS = (
    ("S^2", 4, "simplex", True),
    ("S^2", 6, "cross_polytope", True),
    ("S^2", 12, "icosahedron", True),
    ("S^9", 11, "simplex", True),
    ("S^9", 20, "cross_polytope", True),
    (("hamming", {"n": 8, "q": 2}), 16, "extended_hamming_8", True),
    (("johnson", {"n": 7, "w": 3}), 7, "fano", True),
    (("johnson", {"n": 8, "w": 4}), 14, "steiner_quadruple_8", True),
    ("S^2", 8, "cube", False),
)
# Per-space level offsets: every round of a table spans the whole level
# range, so any prefix of the op list costs about the same for every seed.
# The potential alternates with the level, so every seed holds the same
# (space, level, potential) cells and the same known certificate breakdowns
# (J(80,40) with Gaussian h at levels 16, 18 and 20); the seed draws M.
TABLE_OFFSETS = (0, 10, 5, 15, 3, 13)
# A fixed schedule over levels 25..53, two levels per space, with the
# potential alternating and M the integer nearest the middle of the level.
# Which of these bounds come out certified depends on M within a level, so
# M is fixed and the seed draws only the order: every seed then measures
# the same ops and the same known breakdowns.
HIGH_LEVELS = (("S^2", 25, "riesz"), ("S^9", 29, "gaussian"), ("CP^2", 33, "riesz"),
               ("HP^3", 37, "gaussian"), ("S^2", 41, "riesz"), ("S^9", 45, "gaussian"),
               ("CP^2", 49, "riesz"), ("HP^3", 53, "gaussian"))
# Each pass runs this fixed mix of families, commands and potentials, at
# the levels 2..9 in seeded order, on seeded dimensions: the mix of
# process costs then varies little from seed to seed.
CLI_MIX = (("sphere", "ulb", "riesz"), ("hamming", "ulb", "gaussian"),
           ("johnson", "quadrature", None), ("projective", "ulb", "riesz"),
           ("sphere", "quadrature", None), ("hamming", "ulb", "riesz"),
           ("johnson", "ulb", "gaussian"), ("projective", "ulb", "gaussian"))
CLI_LEVELS = tuple(range(2, 10))
ORACLE_MS = (4, 5, 6, 7, 8, 9, 10, 11, 12)
# The minimizer's run time depends on its seed by up to half for one M,
# so every minimize op uses the criterion-5 seed and the benchmark seed
# only draws the order of the ops; each pass holds all four searches.
ORACLE_SEED = 2024
SHARP_SPHERE_MS = (4, 6, 12)

BELOW_TOL = 1e-9  # the default abs_tol of ulb() and of the CLI
ANCHOR_RTOL = 1e-8
SANDWICH_ATOL = 1e-8
SHARP_GAP = 1e-5
WEIGHT_SUM_TOL = 1e-7  # the library's own power-sum tolerance
VALUE_RTOL = 1e-9
CLI_TIMEOUT_S = 150


class BenchError(Exception):
    """An output check could not be evaluated; the run prints no result."""


# --- inputs -------------------------------------------------------------------


def generate(workload, seed):
    """The op list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def _space_of(key):
    return SPACES[key] if isinstance(key, str) else key


def _interior_M(space, tau, rng):
    """Integer M drawn uniformly strictly inside (D(tau), D(tau+1)).

    The margin keeps float rounding of D off the level boundaries, so the
    level of every drawn M is unambiguous.
    """
    lo = math.floor(levenshtein.design_bound(space, tau) * (1 + 1e-9)) + 1
    hi = math.ceil(levenshtein.design_bound(space, tau + 1) * (1 - 1e-9)) - 1
    if hi < lo:
        raise ValueError(f"no integer strictly inside level {tau} of {space.label()}")
    return rng.randint(lo, hi)


def _ulb_op(space, M, potential, tau=None, rel_tol=None, anchor=None, sharp=False):
    return {"kind": "ulb", "space": list(space), "M": M, "potential": potential,
            "tau": tau, "rel_tol": rel_tol, "anchor": anchor, "sharp": sharp}


def _bound_table(rng):
    ops = [_ulb_op(_space_of(key), M, rng.choice(list(POTENTIALS)), anchor=name, sharp=sharp)
           for key, M, name, sharp in ANCHORS]
    order = rng.sample(range(20), 20)
    for first in order:
        for i, (key, off) in enumerate(zip(SPACES, TABLE_OFFSETS)):
            tau = 1 + (first + off) % 20
            space = make(SPACES[key])
            ops.append(_ulb_op(SPACES[key], _interior_M(space, tau, rng),
                               POTENTIAL_NAMES[(tau + i) % 2], tau=tau))
    return ops


def _middle_M(space, tau):
    """The integer nearest the middle of (D(tau), D(tau+1))."""
    lo = levenshtein.design_bound(space, tau)
    return int(round(0.5 * (lo + levenshtein.design_bound(space, tau + 1))))


def _high_degree(rng):
    s2 = SPACES["S^2"]
    # the ROADMAP breakdown points: below_h fails, ConditionError, below_h fails
    ops = [_ulb_op(s2, 225, "riesz"), _ulb_op(s2, 400, "riesz"),
           _ulb_op(s2, 825, "gaussian", rel_tol=1e-8)]
    levels = [_ulb_op(SPACES[key], _middle_M(make(SPACES[key]), tau), potential, tau=tau)
              for key, tau, potential in HIGH_LEVELS]
    rng.shuffle(levels)
    return ops + levels


def _cli_space(family, rng):
    if family == "sphere":
        return family, {"n": rng.randint(3, 400)}
    if family == "hamming":
        return family, {"n": rng.randint(10, 60), "q": rng.choice([2, 3, 4])}
    if family == "johnson":
        n = rng.randint(20, 120)
        return family, {"n": n, "w": rng.randint(10, n // 2)}
    return family, {"n": rng.randint(3, 40), "field_dim": rng.choice([1, 2, 4])}


def _cli_argv(command, family, params, M, potential, extra=()):
    argv = [command, "--space", family]
    for key, flag in (("n", "--n"), ("q", "--q"), ("w", "--w"), ("field_dim", "--field-dim")):
        if key in params:
            argv += [flag, str(params[key])]
    argv += ["--M", str(M)]
    if potential:
        argv += CLI_POTENTIAL_ARGS[potential]
    return argv + list(extra)


def _cli_op(command, family, params, M, potential, tau=None, extra=()):
    return {"kind": "cli", "command": command, "space": [family, params], "M": M,
            "potential": potential, "tau": tau,
            "argv": _cli_argv(command, family, params, M, potential, extra)}


def _cli_oneshot(rng):
    ops = [_cli_op("ulb", "sphere", {"n": 3}, 12, "riesz"),
           # exits 0 today although below_h is false: counted as not verified
           _cli_op("ulb", "sphere", {"n": 3}, 825, "gaussian", extra=["--rel-tol", "1e-8"])]
    for (family, command, potential), tau in zip(CLI_MIX, rng.sample(CLI_LEVELS, 8)):
        params = _cli_space(family, rng)[1]
        M = _interior_M(make((family, params)), tau, rng)
        ops.append(_cli_op(command, family, params, M, potential, tau=tau))
    return ops


def _oracle_sandwich(rng):
    ops = [{"kind": "minimize", "n": 3, "M": M, "restarts": 20, "seed": ORACLE_SEED}
           for M in ORACLE_MS]
    ops += [{"kind": "exhaustive", "n": n, "M": M} for n in (5, 6) for M in (4, 5)]
    rest = ops[1:]
    rng.shuffle(rest)
    return ops[:1] + rest


_GENERATORS = {
    "bound-table": _bound_table,
    "high-degree": _high_degree,
    "cli-oneshot": _cli_oneshot,
    "oracle-sandwich": _oracle_sandwich,
}


def make(space):
    family, params = space
    return ulbkit.make_space(family, **params)


def adjacent_cache():
    """ulbkit's orthogonal-system cache; None once the package has none."""
    from ulbkit import orthopoly

    return getattr(orthopoly, "adjacent_system", None)


def child_env():
    """Environment of every child process: this checkout's sources, no thread override."""
    env = dict(os.environ)
    env.pop("ULBKIT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "child_thread_env": {k: v for k, v in sorted(child_env().items()) if "THREAD" in k},
    }


# --- the classifier ------------------------------------------------------------

# An op fails when its output is wrong or it broke down without a ulbkit
# error: the run then counts it in `failed` and is not `correct`.
FAILURES = ("crash", "anchor", "sandwich", "invariant", "nondeterministic")
# An op is unverified when ulbkit declined, correctly and in its own terms,
# to give a verified result: it raised a ulbkit error (the CLI exits 1 with
# that error) or its report says the certificate check failed.  These are
# the known breakdowns; they lower verified_share.
UNVERIFIED = ("refused", "certificate")


def classify(outcome):
    """Why an op gave no verified output, or None.  Shared by every workload."""
    if outcome.get("nondeterministic"):
        return "nondeterministic"
    if outcome.get("error") or outcome.get("exit", 0) != 0:
        return "refused" if outcome.get("ulbkit_error") else "crash"
    if outcome.get("anchor_ok") is False:
        return "anchor"
    if outcome.get("sandwich_ok") is False:
        return "sandwich"
    if outcome.get("wrong"):
        return "invariant"
    if outcome.get("below_h") is False or outcome.get("f_geq") is False:
        return "certificate"
    return None


def _is_ulbkit_error(type_name):
    cls = getattr(errors, type_name, None)
    return isinstance(cls, type) and issubclass(cls, errors.UlbkitError)


# --- execution ------------------------------------------------------------------


class CountingPotential:
    """Counts h(t) and h.deriv(t, j) calls and passes them to the wrapped potential."""

    def __init__(self, h, counts):
        self._h = h
        self._counts = counts

    def __call__(self, t):
        self._counts["oracle.energy_evals"] += 1
        return self._h(t)

    def deriv(self, t, order=0):
        self._counts["oracle.descent_steps"] += 1
        return self._h.deriv(t, order)


class Runner:
    """Runs ops, timing only the call into ulbkit, then checks the outputs."""

    def __init__(self, scratch=None):
        self.scratch = Path(scratch) if scratch else None
        self.tracer = None  # set for a traced replay
        self.child_traces = []
        self._spaces = {}
        self._potentials = {}
        self._refs = {}

    def space(self, spec):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._spaces:
            self._spaces[key] = make(spec)
        return self._spaces[key]

    def potential(self, name):
        if name not in self._potentials:
            self._potentials[name] = ulbkit.builtin(name, **POTENTIALS[name])
        return self._potentials[name]

    def warm(self, ops):
        """One low-level bound per space, so the table runs on warm caches."""
        seen = set()
        for op in ops:
            key = json.dumps(op.get("space"), sort_keys=True)
            if op["kind"] == "ulb" and key not in seen:
                seen.add(key)
                space = self.space(op["space"])
                ULB.ulb(space, _interior_M(space, 1, random.Random(0)), self.potential("riesz"))

    def run(self, op, traced=False):
        """(seconds, outcome) of one op."""
        kind = op["kind"]
        if kind == "ulb":
            return self._run_ulb(op)
        if kind == "cli":
            return self._run_cli(op, traced)
        return self._run_oracle(op, traced)

    def _run_ulb(self, op):
        space, h = self.space(op["space"]), self.potential(op["potential"])
        kwargs = {"rel_tol": op["rel_tol"]} if op.get("rel_tol") else {}
        fn = ULB.ulb
        t0 = time.perf_counter()
        try:
            rep, error = fn(space, op["M"], h, **kwargs), None
        except Exception as exc:  # classified below: a ulbkit error or a crash
            rep, error = None, exc
        seconds = time.perf_counter() - t0
        out = {"error": error and f"{type(error).__name__}: {error}",
               "ulbkit_error": isinstance(error, errors.UlbkitError)}
        if rep is not None:
            rule, checks = rep.rule, rep.certificate_checks
            out.update(self._bound_facts(op, rule.tau, rule.nodes, rule.weights,
                                         rule.power_sum_residual, rep.value_sum, vars(checks)))
            fingerprint = (rep.value_sum, rule.nodes.tobytes(), rule.weights.tobytes(),
                           sorted(vars(checks).items()))
        else:
            fingerprint = out["error"]
        out["fingerprint"] = _digest(fingerprint)
        return seconds, out

    def _bound_facts(self, op, tau, nodes, weights, residual, value_sum, checks):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        M = op["M"]
        wrong = []
        if op.get("tau") is not None and tau != op["tau"]:
            wrong.append(f"level {tau} != drawn level {op['tau']}")
        if not np.all(weights > 0):
            wrong.append("nonpositive weight")
        if abs(1.0 / M + float(np.sum(weights)) - 1.0) > WEIGHT_SUM_TOL:
            wrong.append("weights do not sum to 1 - 1/M")
        out = {"tau": tau, "residual": float(residual), "wrong": wrong}
        if value_sum is None:
            return out
        h = self.potential(op["potential"])
        recomputed = M * M * float(np.dot(weights, h(nodes)))
        if not abs(recomputed - value_sum) <= VALUE_RTOL * abs(value_sum):
            wrong.append("bound differs from M^2 sum rho_i h(alpha_i)")
        out.update(
            value_sum=value_sum,
            below_h=bool(checks["below_h"]),
            f_geq=bool(checks["f_geq"]),
            min_q=float(checks["min_q_coefficient"]),
            excess_ratio=float(checks["max_excess"])
            / (BELOW_TOL * (1.0 + abs(float(h(checks["worst_t"]))))),
        )
        if op.get("anchor"):
            energy = self._anchor_energy(op)
            if op["sharp"]:
                out["anchor_ok"] = abs(value_sum - energy) <= ANCHOR_RTOL * energy
            else:
                out["anchor_ok"] = value_sum < energy
        return out

    def _anchor_energy(self, op):
        key = ("anchor", json.dumps(op["space"]), op["anchor"], op["potential"])
        if key not in self._refs:
            space = self.space(op["space"])
            code = oracle.named_config(space, op["anchor"])
            self._refs[key] = oracle.energy(space, code, self.potential(op["potential"]))
        return self._refs[key]

    def sandwich_bound(self, op):
        """The ULB an oracle result must not beat; computed untimed."""
        if op["kind"] == "minimize":
            spec = ("sphere", {"n": op["n"]})
        else:
            spec = ("hamming", {"n": op["n"], "q": 2})
        key = ("sandwich", json.dumps(spec), op["M"])
        if key not in self._refs:
            self._refs[key] = ULB.ulb(self.space(spec), op["M"], self.potential("riesz"))
        return self._refs[key]

    def sandwich_reports(self):
        return [rep for key, rep in self._refs.items() if key[0] == "sandwich"]

    def _run_oracle(self, op, traced):
        h = self.potential("riesz")
        if traced and self.tracer is not None:
            h = CountingPotential(h, self.tracer.counts)
        t0 = time.perf_counter()
        if op["kind"] == "minimize":
            code, energy, _ = oracle.minimize_sphere(
                op["n"], op["M"], h, restarts=op["restarts"], seed=op["seed"])
        else:
            code, energy = oracle.exhaustive_hamming(op["n"], op["M"], h)
        seconds = time.perf_counter() - t0
        bound = self.sandwich_bound(op).value_sum
        gap = (energy - bound) / bound
        ok = energy >= bound - SANDWICH_ATOL
        if op["kind"] == "minimize" and op["n"] == 3 and op["M"] in SHARP_SPHERE_MS:
            ok = ok and gap <= SHARP_GAP
        out = {"error": None, "energy": energy, "gap": gap, "sandwich_ok": bool(ok),
               "fingerprint": _digest((energy, np.asarray(code.points).tobytes()))}
        return seconds, out

    def _run_cli(self, op, traced):
        if traced:
            trace_path = self.scratch / f"child-{len(self.child_traces)}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "child.py"), "cli",
                   str(trace_path), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "ulbkit.cli", *op["argv"]]
        spawned = time.time()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"CLI op did not finish in {CLI_TIMEOUT_S} s: {op['argv']}") from exc
        seconds = time.perf_counter() - t0
        stderr = proc.stderr.decode(errors="replace").splitlines()
        messages = [ln for ln in stderr if not ln.startswith("import time:")]
        out = {"error": None, "exit": proc.returncode, "stderr": "\n".join(messages)[-300:],
               "ulbkit_error": proc.returncode == 1 and _is_ulbkit_error(_cli_error_type(messages)),
               "fingerprint": _digest((proc.returncode, proc.stdout, messages))}
        if traced:
            info = json.loads(trace_path.read_text())
            trace_path.unlink()
            info.update(spawned=spawned, seconds=seconds,
                        import_ms=import_ms(stderr, "ulbkit"),
                        import_scipy_ms=import_ms(stderr, "scipy"))
            self.child_traces.append(info)
        if proc.returncode != 0:
            return seconds, out
        try:
            result = json.loads(proc.stdout)["result"]
            rule = result["rule"] if op["command"] == "ulb" else result
            facts = self._bound_facts(
                op, rule["tau"], rule["nodes"], rule["weights"], rule["power_sum_residual"],
                result.get("value_sum") if op["command"] == "ulb" else None,
                result.get("certificate_checks"))
        except (ValueError, KeyError, TypeError) as exc:
            raise BenchError(f"unreadable CLI report for {op['argv']}: {exc!r}") from exc
        out.update(facts)
        return seconds, out


def _cli_error_type(stderr_lines):
    """The exception type named in the CLI's JSON error report, or ''."""
    try:
        return json.loads("\n".join(stderr_lines))["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return ""


def _digest(obj):
    return hashlib.sha1(repr(obj).encode()).hexdigest()


def import_ms(stderr_lines, package):
    """Cumulative -X importtime of ``package``, counting nested imports once."""
    total_us, stack = 0, []
    for line in reversed(stderr_lines):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2][1:]
        name, depth = raw.strip(), len(raw) - len(raw.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total_us += int(parts[1])
        stack.append((depth, inside or mine))
    return total_us / 1000.0


def setup_run(workload, first_op, traced=False):
    """A fresh interpreter imports ulbkit and completes the workload's first op.

    Returns (wall seconds, child report or None).  Timed from outside,
    so interpreter start and import are included.
    """
    flags = ["-X", "importtime"] if traced else []
    if first_op["kind"] == "cli":
        cmd = [sys.executable, *flags, "-m", "ulbkit.cli", *first_op["argv"]]
    else:
        cmd = [sys.executable, *flags, str(HERE / "child.py"), "lib", json.dumps(first_op)]
    spawned = time.time()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if first_op["kind"] != "cli":
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.decode(errors='replace')[-500:]}")
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        stderr = proc.stderr.decode(errors="replace").splitlines()
        report.update(spawned=spawned, seconds=seconds,
                      import_ms=import_ms(stderr, "ulbkit"),
                      import_scipy_ms=import_ms(stderr, "scipy"))
        return seconds, report
    return seconds, None
