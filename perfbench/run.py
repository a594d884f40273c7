"""ulbkit benchmark: one seeded workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload bound-table --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  It prints a table of every metric with
its unit, then one JSON line {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics with tracing off.  --trace 1 runs
the ops untraced for half the time, replays exactly those ops under the
tracer, checks that both give identical outputs, and reports the
per-layer metrics.  The op list, environment, per-op outcomes and spans
are written to perfbench/out/<workload>-s<seed>-t<trace>/.

Exit codes: 0 with a result line; 2 without ulbkit sources next to the
benchmark; 3 when an output check could not be evaluated.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 5
PROCESS_SAMPLES_PER_SETUP = 2


def measure(runner, ops, seconds, stats, traced=False, schedule=None):
    """Closed loop with one caller, over whole passes of the op list.

    Passes repeat until `seconds` have gone by, so every run measures the
    same mix of ops whatever the seed.  With a schedule, run exactly
    those op indices instead.  A repeat of an op whose output differs from
    its first run is marked nondeterministic.  Returns [(op index, scaled
    seconds, outcome)]; the outcome keeps the raw wall time and the scale
    factor.
    """
    probe, processes = stats.SpeedProbe(), stats.ProcessProbe()
    done = []
    first = {}

    def run(idx):
        if runner.tracer is not None:
            runner.tracer.op = len(done)
        took, outcome = runner.run(ops[idx], traced)
        if first.setdefault(idx, outcome["fingerprint"]) != outcome["fingerprint"]:
            outcome["nondeterministic"] = True
        done.append((idx, took, outcome))
        probe.sample()
        if ops[idx]["kind"] == "cli":
            processes.sample()

    if schedule is not None:
        for idx in schedule:
            run(idx)
    else:
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            for idx in range(len(ops)):
                run(idx)
    factors = probe.factors([(took, True) for _, took, _ in done])
    if processes.times:
        factors = [processes.factor() if ops[idx]["kind"] == "cli" else factor
                   for (idx, _, _), factor in zip(done, factors)]
    results = []
    for (idx, took, outcome), factor in zip(done, factors):
        outcome.update(raw_ms=1e3 * took, speed=factor)
        results.append((idx, took * factor, outcome))
    return results


def setup_times(workloads, stats, workload, first_op):
    """Scaled and raw seconds of SETUP_RUNS fresh-interpreter set-ups.

    Reference processes run before and after each set-up, and each set-up
    is scaled by the ones right around it: the machine's speed for child
    processes shifts between regimes that last a few seconds.
    """
    probe = stats.ProcessProbe()
    for _ in range(PROCESS_SAMPLES_PER_SETUP):
        probe.sample()
    raw = []
    for _ in range(SETUP_RUNS):
        raw.append(workloads.setup_run(workload, first_op)[0])
        for _ in range(PROCESS_SAMPLES_PER_SETUP):
            probe.sample()
    k = PROCESS_SAMPLES_PER_SETUP
    return [took * probe.factor(probe.times[i * k:(i + 2) * k])
            for i, took in enumerate(raw)], raw


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def verified(results, classify):
    """(verified ops, distinct ops): each op of the list counted once.

    Runs measure whole passes, so every op of the list is in; a repeat
    gives the same output or is itself a failure.
    """
    classes = {}
    for idx, _, outcome in results:
        classes.setdefault(idx, classify(outcome))
    return sum(c is None for c in classes.values()), len(classes)


def end_to_end(workload, results, setups, stats, classify):
    """The gated metrics, and a note per metric for the table."""
    n = len(results)
    ms = [1e3 * t for _, t, _ in results]
    raw = [o["raw_ms"] for _, _, o in results]
    good, distinct = verified(results, classify)
    metrics = {
        "setup_s": statistics.median(setups[0]),
        "ops_per_s": 1e3 * n / sum(ms),
        "op_p50_ms": stats.percentile(ms, 50),
        "op_p90_ms": stats.percentile(ms, 90),
        "peak_rss_mb": peak_rss_mb(workload == "cli-oneshot"),
        "verified_share": good / distinct,
    }
    support = "" if stats.supported(n, 90) else f", below the {stats.MIN_BEYOND}-sample rule"
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters; raw "
                   f"{statistics.median(setups[1]):.4g} s",
        "ops_per_s": f"{n} ops in {sum(ms) / 1e3:.2f} s; raw {1e3 * n / sum(raw):.4g} 1/s",
        "op_p50_ms": f"n={n}; raw {stats.percentile(raw, 50):.4g} ms",
        "op_p90_ms": f"n={n}, {stats.ranked_beyond(n, 90)} ranked beyond p90{support}; "
                     f"raw {stats.percentile(raw, 90):.4g} ms",
        "peak_rss_mb": "this process" + (" plus its largest child"
                                          if workload == "cli-oneshot" else ""),
        "verified_share": f"{good} of the {distinct} ops in the list",
    }
    return metrics, notes


def quality(results):
    """The ungated quality metrics: {name: (value or None, samples)}."""
    outcomes = [o for _, _, o in results]
    residuals = [o["residual"] for o in outcomes if "residual" in o]
    ratios = [o["excess_ratio"] for o in outcomes if "excess_ratio" in o]
    gaps = [o["gap"] for o in outcomes if "gap" in o]
    worst = max(ratios, default=None)
    return {
        "residual_digits": (-math.log10(max(max(residuals), 1e-300)) if residuals else None,
                            len(residuals)),
        # a certificate entirely below h has no positive excess: -inf
        "cert_excess_log10": (None if worst is None else
                              math.log10(worst) if worst > 0 else -math.inf, len(ratios)),
        "upper_gap_rel": (statistics.fmean(gaps) if gaps else None, len(gaps)),
    }


def layer_metrics(names, summary, counts, n_ops, special):
    """Per-op means: <layer>.calls, .ms (whole spans) and .self_ms, or a counter."""
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        key, _, field = name.rpartition(".")
        calls, total, own = summary.get(key, (0, 0.0, 0.0))
        if field == "calls":
            value = calls + counts.get(key, 0)
        elif field == "ms":
            value = 1e3 * total
        elif field == "self_ms":
            value = 1e3 * own
        else:
            value = counts.get(name, 0)
        out[name] = value / n_ops
    return out


def process_split(children):
    """Mean interpreter, import, scipy-import and compute ms of child processes."""
    keys = ("cli.interpreter_ms", "cli.import_ms", "cli.import_scipy_ms", "cli.compute_ms")
    rows = []
    for c in children:
        interpreter = 1e3 * (c["started"] - c["spawned"])
        rows.append((interpreter, c["import_ms"], c["import_scipy_ms"],
                     1e3 * c["seconds"] - interpreter - c["import_ms"]))
    return {k: statistics.fmean(col) for k, col in zip(keys, zip(*rows))}


def traced_run(args, ops, runner, mods, outdir):
    spec, stats, tracer_mod, workloads = mods
    untraced = measure(runner, ops, args.seconds / 2.0, stats)
    tracer = tracer_mod.Tracer()
    runner.tracer = tracer
    cache = getattr(workloads.adjacent_cache(), "cache_info", None)
    before = cache() if cache else None
    tracer.install()
    try:
        traced = measure(runner, ops, 0, stats, traced=True,
                         schedule=[idx for idx, _, _ in untraced])
    finally:
        tracer.uninstall()
    after = cache() if cache else None
    mismatched = [i for i, (a, b) in enumerate(zip(untraced, traced))
                  if a[2]["fingerprint"] != b[2]["fingerprint"]]

    # CLI children trace themselves; their span indices are local to each child
    spans, summaries, counts = list(tracer.spans), [tracer_mod.summarize(tracer.spans)], \
        dict(tracer.counts)
    hits = misses = 0
    if before is not None:
        hits, misses = after.hits - before.hits, after.misses - before.misses
    for op_id, child in enumerate(runner.child_traces):
        base = len(spans)
        child_spans = [[name, start, end, parent + base if parent >= 0 else -1, op_id]
                       for name, start, end, parent, _ in child["spans"]]
        spans.extend(child_spans)
        summaries.append(tracer_mod.summarize(child["spans"]))
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
        hits, misses = hits + child["cache"][0], misses + child["cache"][1]
    tracer_mod.write_spans(outdir / "spans.jsonl", spans)

    if args.workload == "cli-oneshot":
        children = runner.child_traces
    else:
        children = [workloads.setup_run(args.workload, ops[0], traced=True)[1]
                    for _ in range(SETUP_RUNS)]
    min_qs = [o["min_q"] for _, _, o in traced if "min_q" in o]
    if not min_qs:  # oracle ops return no certificate: use the sandwich's bounds
        min_qs = [r.certificate_checks.min_q_coefficient for r in runner.sandwich_reports()]
    n = len(traced)
    t_untraced = sum(t for _, t, _ in untraced)
    special = {
        "ulb.min_q_coefficient": min(min_qs, default=0.0),
        "orthopoly.adjacent_system.hits": hits / n,
        "orthopoly.adjacent_system.misses": misses / n,
        "trace.overhead_share": (sum(t for _, t, _ in traced) - t_untraced) / t_untraced,
        **process_split(children),
    }
    names = [m[0] for m in spec.PER_LAYER]
    metrics = layer_metrics(names, tracer_mod.merge_summaries(summaries), counts, n, special)
    return untraced, mismatched, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ulbkit" / "__init__.py").is_file():
        print(f"perfbench: no ulbkit sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spec
    import stats
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    outdir = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.generate(args.workload, args.seed)
    env = workloads.environment()
    (outdir / "ops.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env, "ops": ops}, indent=1))

    runner = workloads.Runner(scratch=outdir)
    notes, mismatched = {}, []
    try:
        if not args.trace:
            setups = setup_times(workloads, stats, args.workload, ops[0])
        runner.warm(ops)
        for op in ops:
            if op["kind"] in ("minimize", "exhaustive"):
                runner.sandwich_bound(op)
        if args.trace:
            results, mismatched, metrics = traced_run(
                args, ops, runner, (spec, stats, tracer_mod, workloads), outdir)
            units = {m[0]: m[1] for m in spec.PER_LAYER}
        else:
            results = measure(runner, ops, args.seconds, stats)
            metrics, notes = end_to_end(args.workload, results, setups, stats,
                                        workloads.classify)
            quality_rows = quality(results)
            units = {m[0]: m[1] for m in spec.END_TO_END}
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    classes = [workloads.classify(o) for _, _, o in results]
    with open(outdir / "results.jsonl", "w") as fh:
        for (idx, took, outcome), cls in zip(results, classes):
            fh.write(json.dumps({"op": idx, "ms": 1e3 * took, "class": cls, **outcome}) + "\n")
    failed = sum(c in workloads.FAILURES for c in classes)
    reasons = {c: classes.count(c) for c in sorted(set(classes) - {None})}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"(nproc={env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']})")
    print(f"  {len(results)} ops attempted, {failed} failed; not verified or failed, by "
          f"reason: {reasons or 'none'}")
    if args.trace:
        print(f"  traced replay of the same {len(results)} ops: "
              + (f"{len(mismatched)} outputs differ" if mismatched else "identical outputs"))
    for name, unit, _ in spec.QUALITY if not args.trace else ():
        value, count = quality_rows[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit} (n={count}; not gated)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": not mismatched and not failed,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
