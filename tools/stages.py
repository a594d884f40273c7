"""Median milliseconds per op spent in each stage of a warm library ``ulb`` and of the oracle.

Wraps pipeline functions from outside the package, by their current
names, and runs each ``ulb`` op of the bound-table and high-degree op
lists of ``tools/fingerprints.py`` (the benchmark's at seeds 11 and 12,
written out, so a change to the benchmark leaves these times comparable)
warm, ``--reps`` times:

    python tools/stages.py --reps 25

Per stage: the median over ops of the op's median time, and its share of
the median op.  ``_lev_value`` runs inside ``_rule_from_nodes``, and
``eval_q_derivatives`` and ``linalg.solve`` inside ``hermite_certificate``.
``verify_certificate`` is the certificate check, the one the validators of
``designbounds`` share.  A stage that no op of a list calls stops the
script with an error, so a renamed or bypassed function cannot leave its
row reading zero or missing.  Warm, ``_level`` only looks up the level's
record; ``COLD_REPS`` more runs per op, each after the record cache is
emptied, time building it (``levenshtein._level, cold``, their median).

Then, for the fingerprints' oracle lists, it prints one line per op instead:
the op's median time and the medians of the sphere minimizer's L-BFGS
loop (``_descend``, its own time without the two calls below), its
directions (``_direction``), its energies and gradients
(``_energy_and_gradient``) and the Hamming search over symmetry classes
(``_search_classes``).  Each wrapped call adds about a microsecond.
"""

import argparse
import contextlib
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

import fingerprints  # noqa: E402
import ulbkit  # noqa: E402
from numpy import linalg  # noqa: E402
from ulbkit import levenshtein, oracle, orthopoly  # noqa: E402
from ulbkit.errors import UlbkitError  # noqa: E402

ULB = sys.modules["ulbkit.ulb"]
# (namespace the pipeline looks the name up in, attribute)
STAGES = ((levenshtein, "tau_for_cardinality"), (levenshtein, "_level"),
          (levenshtein, "_bordered_rule"), (levenshtein, "_rule_from_nodes"),
          (levenshtein, "_lev_value"),
          (ULB, "_require_monotone"), (ULB, "hermite_certificate"),
          (orthopoly, "eval_q_derivatives"), (linalg, "solve"),
          (ULB, "verify_certificate"))
STAGE_NAMES = [f"{module.__name__.split('.')[-1]}.{attr}" for module, attr in STAGES]
COLD_REPS = 5
ORACLE_STAGES = ("_descend", "_direction", "_energy_and_gradient", "_search_classes")
SEEDS = (11, 12)  # the seeds of the fingerprints' op lists
SPENT = defaultdict(float)
LEVELS = levenshtein._level  # the cache, whose wrapper below hides cache_clear


def _timed(name, fn):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            SPENT[name] += perf_counter() - start

    return wrapper


def ulb_stages(workload, reps):
    per_op = defaultdict(list)  # stage -> one median per op
    for seed in SEEDS:
        for space, M, h, kwargs in fingerprints.ulb_ops(workload, seed):
            runs = defaultdict(list)
            # the first run warms the caches, the last COLD_REPS build the
            # level's record afresh
            for rep in range(reps + 1 + COLD_REPS):
                cold = rep > reps
                if cold:
                    LEVELS.cache_clear()
                SPENT.clear()
                start = perf_counter()
                with contextlib.suppress(UlbkitError):
                    ulbkit.ulb(space, M, h, **kwargs)
                SPENT["total"] = perf_counter() - start
                if cold:
                    runs["levenshtein._level, cold"].append(SPENT["levenshtein._level"])
                elif rep:
                    for name, sec in SPENT.items():
                        runs[name].append(sec)
            for name, secs in runs.items():
                per_op[name].append(statistics.median(secs))
    missing = [name for name in STAGE_NAMES if name not in per_op]
    if missing:
        sys.exit(f"{workload}: no op called {', '.join(missing)}; wrap what the pipeline calls now")
    ms = {name: 1e3 * statistics.median(meds) for name, meds in per_op.items()}
    print(f"{workload} ({len(per_op['total'])} ops, {reps} reps)")
    for name in sorted(ms, key=ms.get, reverse=True):
        print(f"  {name:32s} {ms[name]:8.4f} ms {100 * ms[name] / ms['total']:6.1f}%")


def oracle_stages(reps):
    h = fingerprints.POTENTIALS["riesz"]
    runs = defaultdict(lambda: defaultdict(list))  # op -> stage -> seconds per run
    for seed in SEEDS:
        for op in fingerprints.ORACLE_OPS[seed].split(", "):
            kind, n, M = op.split()
            n, M = int(n), int(M)
            label = (f"minimize S^{n - 1} M={M:<2d}" if kind == "minimize"
                     else f"exhaustive H({n},2) M={M}")
            # the first run is a warm-up
            for rep in range(reps + 1):
                SPENT.clear()
                start = perf_counter()
                fingerprints.run_oracle(kind, n, M, h)
                SPENT["total"] = perf_counter() - start
                SPENT["_descend"] -= SPENT["_direction"] + SPENT["_energy_and_gradient"]
                if rep:
                    for name in ("total", *ORACLE_STAGES):
                        runs[label][name].append(SPENT[name])
    print(f"oracle ({len(runs)} ops, {reps} reps): median ms per op")
    print(f"  {'op':26s} {'whole':>8s} {'_descend':>9s} {'_direction':>11s}"
          f" {'_energy_and_gradient':>21s} {'_search_classes':>16s}")
    for label, stages in sorted(runs.items()):
        med = [1e3 * statistics.median(stages[name]) for name in ("total", *ORACLE_STAGES)]
        print(f"  {label:26s} {med[0]:8.2f} {med[1]:9.2f} {med[2]:11.2f} {med[3]:21.2f}"
              f" {med[4]:16.2f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--reps", type=int, default=25)
    args = ap.parse_args(argv)
    for (module, attr), name in zip(STAGES, STAGE_NAMES):
        setattr(module, attr, _timed(name, getattr(module, attr)))
    for attr in ORACLE_STAGES:
        setattr(oracle, attr, _timed(attr, getattr(oracle, attr)))
    for workload in ("bound-table", "high-degree"):
        ulb_stages(workload, args.reps)
    oracle_stages(args.reps)


if __name__ == "__main__":
    main()
