"""Fresh-interpreter runs for the benchmark.

    python [-X importtime] perfbench/child.py lib OP_JSON
        import ulbkit and run one library op (the set-up measurement);
    python -X importtime perfbench/child.py cli TRACE_JSON ARG...
        run ``ulbkit.cli.main(ARG...)`` under the tracer and write the spans,
        call counts and cache statistics to TRACE_JSON.

Both record when the script started, so the parent can split process
time into interpreter start, import and compute.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _cache_info():
    from ulbkit import orthopoly

    cache_info = getattr(orthopoly.adjacent_system, "cache_info", None)
    if cache_info is None:
        return [0, 0]
    info = cache_info()
    return [info.hits, info.misses]


def main(argv):
    if argv[0] == "lib":
        import ulbkit  # noqa: F401  first, so -X importtime charges numpy to it as in the CLI
        import workloads

        _, outcome = workloads.Runner().run(json.loads(argv[1]))
        print(json.dumps({"started": STARTED, "class": workloads.classify(outcome)}))
        return 0
    trace_path, cli_args = argv[1], argv[2:]
    import ulbkit.cli
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = ulbkit.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(trace_path).write_text(json.dumps(
            {"started": STARTED, "spans": tracer.spans, "counts": tracer.counts,
             "cache": _cache_info()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
