"""Median milliseconds per op spent in each stage of a warm library ``ulb``.

Wraps pipeline functions from outside the package, by their current
names, and runs each ``ulb`` op of the bound-table and high-degree
benchmark lists (``perfbench/workloads.py``) warm, ``--reps`` times:

    python tools/stages.py --seeds 11 12 --reps 25

Per stage: the median over ops of the op's median time, and its share of
the median op.  ``_lev_value`` runs inside ``_rule_from_nodes``, and
``eval_q_derivatives`` and ``linalg.solve`` inside ``hermite_certificate``.
Warm, ``_level`` only looks up the level's record; one more run per op,
after the record cache is emptied, times building it
(``levenshtein._level, cold``).
"""

import argparse
import contextlib
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ulbkit  # noqa: E402
import workloads  # noqa: E402
from numpy import linalg  # noqa: E402
from ulbkit import levenshtein, orthopoly  # noqa: E402
from ulbkit.errors import UlbkitError  # noqa: E402

ULB = sys.modules["ulbkit.ulb"]
# (namespace the pipeline looks the name up in, attribute)
STAGES = ((levenshtein, "tau_for_cardinality"), (levenshtein, "_level"),
          (levenshtein, "_bordered_rule"), (levenshtein, "_rule_from_nodes"),
          (levenshtein, "_lev_value"),
          (ULB, "_require_monotone"), (ULB, "hermite_certificate"),
          (orthopoly, "eval_q_derivatives"), (linalg, "solve"),
          (ULB, "verify_certificate"))
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    ap.add_argument("--reps", type=int, default=25)
    args = ap.parse_args(argv)
    for module, attr in STAGES:
        setattr(module, attr, _timed(f"{module.__name__.split('.')[-1]}.{attr}",
                                     getattr(module, attr)))
    potentials = {name: ulbkit.builtin(name, **params)
                  for name, params in workloads.POTENTIALS.items()}
    for workload in ("bound-table", "high-degree"):
        per_op = defaultdict(list)  # stage -> one median per op
        for seed in args.seeds:
            for op in workloads.generate(workload, seed):
                if op["kind"] != "ulb":
                    continue
                space, h = workloads.make(op["space"]), potentials[op["potential"]]
                kwargs = {"rel_tol": op["rel_tol"]} if op.get("rel_tol") else {}
                runs = defaultdict(list)
                # the first run warms the caches, the last builds the level's
                # record afresh
                for rep in range(args.reps + 2):
                    cold = rep == args.reps + 1
                    if cold:
                        LEVELS.cache_clear()
                    SPENT.clear()
                    start = perf_counter()
                    with contextlib.suppress(UlbkitError):
                        ulbkit.ulb(space, op["M"], h, **kwargs)
                    SPENT["total"] = perf_counter() - start
                    if cold:
                        runs["levenshtein._level, cold"].append(SPENT["levenshtein._level"])
                    elif rep:
                        for name, sec in SPENT.items():
                            runs[name].append(sec)
                for name, secs in runs.items():
                    per_op[name].append(statistics.median(secs))
        ms = {name: 1e3 * statistics.median(meds) for name, meds in per_op.items()}
        print(f"{workload} ({len(per_op['total'])} ops, {args.reps} reps)")
        for name in sorted(ms, key=ms.get, reverse=True):
            print(f"  {name:32s} {ms[name]:8.4f} ms {100 * ms[name] / ms['total']:6.1f}%")


if __name__ == "__main__":
    main()
