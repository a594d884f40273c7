"""Same bits: the fingerprints of tools/fingerprints.py against the committed file."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "tests" / "data" / "fingerprints.txt"
SHOWN = 10  # differing lines shown on a mismatch


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprints", ROOT / "tools" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprints_match_the_committed_file():
    # The first line names the Python, numpy and BLAS versions: under other
    # versions the test fails on it, with the lines that differ besides, and
    # the file is regenerated only once those lines are explained.
    want = COMMITTED.read_text().splitlines()
    got = list(_tool().lines())
    diffs = [(i + 1, w, g) for i, (w, g) in enumerate(zip(want, got)) if w != g]
    if len(want) != len(got):
        diffs.append((min(len(want), len(got)) + 1, f"{len(want)} lines", f"{len(got)} lines"))
    if diffs:
        shown = "\n".join(f"line {i}:\n  committed: {w}\n  now:       {g}"
                          for i, w, g in diffs[:SHOWN])
        pytest.fail(
            f"{len(diffs)} fingerprint lines differ from {COMMITTED.relative_to(ROOT)}; the first:\n"
            f"{shown}\nregenerate it with `python tools/fingerprints.py > tests/data/fingerprints.txt`"
            " once every moved line is explained", pytrace=False)


@pytest.mark.parametrize("workload, count", [("bound-table", 258), ("high-degree", 22)],
                         ids=["bound-table", "high-degree"])
def test_bounds_do_not_depend_on_the_blas_thread_count(workload, count):
    # each child reads OPENBLAS_NUM_THREADS when it loads numpy; both run at once
    script = ("import sys\nsys.path.insert(0, 'tools')\nimport fingerprints\n"
              "for seed in (11, 12):\n"
              f"    print(*fingerprints.ulb_lines({workload!r}, seed), sep='\\n')\n")
    children = [subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
    (one, err1), (two, err2) = (child.communicate(timeout=120) for child in children)
    assert [child.returncode for child in children] == [0, 0], err1 + err2
    assert len(one.splitlines()) == count and one.startswith(f"{workload} s11 #0: ")
    assert one == two
