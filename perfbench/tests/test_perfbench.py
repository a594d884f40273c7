"""Tests of the benchmark's own helpers: python -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spec  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_harrell_davis_percentile():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == pytest.approx(50.5, abs=1e-6)
    assert stats.percentile(xs, 90) == pytest.approx(90.5, abs=1e-6)
    assert stats.percentile(xs[::-1], 90) == stats.percentile(xs, 90)
    assert stats.percentile([7.0], 90) == 7.0
    # two clusters: the median weighs both instead of jumping to one
    assert stats.percentile([1.0] * 5 + [10.0] * 5, 50) == pytest.approx(5.5)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p90_needs_ten_samples_ranked_beyond():
    assert stats.ranked_beyond(100, 90) == 10
    assert stats.supported(100, 90)
    assert stats.supported(92, 90)
    assert not stats.supported(91, 90)
    assert not stats.supported(20, 90)
    assert stats.supported(20, 50)
    assert not stats.supported(0, 50)


def test_speed_probe_scales_by_run_mean_and_nearby_kernel_times():
    probe = stats.SpeedProbe()
    probe.times = [2e-3, 4e-3, 4e-3]
    run_factor = stats.REF_NOMINAL_S / (10e-3 / 3)
    short, long_ = probe.factors([(0.0, True), (1e9, True)])
    assert short == pytest.approx(stats.REF_NOMINAL_S / 3e-3)
    assert long_ == pytest.approx(run_factor)
    assert probe.factors([(0.0, False)]) == [pytest.approx(run_factor)]


def test_process_probe_scales_by_the_mean_reference_process_time():
    probe = stats.ProcessProbe()
    probe.times = [0.1, 0.3]
    assert probe.factor() == pytest.approx(stats.REF_PROCESS_NOMINAL_S / 0.2)
    assert probe.factor([0.1]) == pytest.approx(stats.REF_PROCESS_NOMINAL_S / 0.1)
    probe.sample()
    assert len(probe.times) == 3 and probe.times[-1] > 0


def _ulb_outcome(M, potential="riesz"):
    op = workloads._ulb_op(("sphere", {"n": 3}), M, potential)
    return workloads.Runner().run(op)[1]


def test_classifier_passes_a_verified_bound():
    outcome = _ulb_outcome(12)
    assert outcome["below_h"] and outcome["f_geq"] and not outcome["wrong"]
    assert workloads.classify(outcome) is None


def test_classifier_counts_the_known_s2_m225_breakdown():
    # ROADMAP: S^2, M=225, Riesz p=1 returns below_h=False
    outcome = _ulb_outcome(225)
    assert outcome["below_h"] is False
    assert workloads.classify(outcome) == "certificate"


def test_classifier_counts_the_known_s2_m400_condition_error():
    # ROADMAP: S^2, M=400, Riesz p=1 raises ConditionError
    outcome = _ulb_outcome(400)
    assert outcome["error"].startswith("ConditionError")
    assert workloads.classify(outcome) == "refused"


@pytest.mark.parametrize("outcome, reason", [
    ({"error": "ConditionError: x", "ulbkit_error": True}, "refused"),
    ({"error": "TypeError: x", "ulbkit_error": False}, "crash"),
    ({"error": None, "exit": 1, "ulbkit_error": True}, "refused"),
    ({"error": None, "exit": 2, "ulbkit_error": False}, "crash"),
    ({"error": None, "exit": 0, "below_h": True, "f_geq": False}, "certificate"),
    ({"error": None, "below_h": True, "f_geq": True, "anchor_ok": False}, "anchor"),
    ({"error": None, "sandwich_ok": False}, "sandwich"),
    ({"error": None, "wrong": ["nonpositive weight"]}, "invariant"),
    ({"error": None, "below_h": False, "wrong": ["nonpositive weight"]}, "invariant"),
    ({"error": None, "nondeterministic": True}, "nondeterministic"),
])
def test_classifier_reasons(outcome, reason):
    assert workloads.classify(outcome) == reason
    assert (reason in workloads.FAILURES) != (reason in workloads.UNVERIFIED)


def test_cli_error_report_names_a_ulbkit_error():
    report = ['{', '  "error": {"message": "x", "type": "ConvergenceError"}', '}']
    assert workloads._is_ulbkit_error(workloads._cli_error_type(report))
    assert not workloads._is_ulbkit_error(workloads._cli_error_type(['Traceback (most']))
    assert not workloads._is_ulbkit_error("TypeError")


def test_known_breakdowns_are_the_same_for_every_seed():
    def cells(seed):
        return sorted((json.dumps(op["space"]), op["tau"], op["potential"])
                      for op in workloads.generate("bound-table", seed) if op["tau"])

    assert cells(1) == cells(2)
    high = workloads.generate("high-degree", 1)
    assert sorted(map(json.dumps, high)) == sorted(map(json.dumps, workloads.generate(
        "high-degree", 2)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    ops = workloads.generate(workload, 7)
    assert ops == workloads.generate(workload, 7)
    assert ops != workloads.generate(workload, 8)
    json.dumps(ops)  # the op list is written out for replay


def test_generator_draws_in_domain_levels():
    from ulbkit.levenshtein import design_bound

    for workload, top in (("bound-table", 20), ("high-degree", 57), ("cli-oneshot", 9)):
        for op in workloads.generate(workload, 3):
            if op.get("tau") is None:
                continue
            space = workloads.make(op["space"])
            assert op["tau"] <= top
            assert space.max_degree is None or op["tau"] + 1 <= space.max_degree
            assert design_bound(space, op["tau"]) < op["M"] < design_bound(space, op["tau"] + 1)


def test_tracer_keeps_outputs_and_restores_functions():
    from ulbkit import levenshtein

    op = workloads._ulb_op(("sphere", {"n": 5}), 40, "gaussian")
    plain = workloads.Runner().run(op)[1]
    original = levenshtein.kernel_zeros
    tr = tracer.Tracer().install()
    try:
        traced = workloads.Runner().run(op)[1]
    finally:
        tr.uninstall()
    assert levenshtein.kernel_zeros is original
    assert traced["fingerprint"] == plain["fingerprint"]
    summary = tracer.summarize(tr.spans)
    assert summary["levenshtein.tau_for_cardinality"][0] == 2
    assert tr.counts["recurrence.eval_one"] > 0
    calls, total, own = summary["ulb.ulb"]
    assert calls == 1 and 0 < own < total


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 0]]
    summary = tracer.summarize(spans)
    assert summary["a"] == [1, 10.0, 6.0]
    assert summary["b"] == [2, 4.0, 3.0]
    assert summary["c"] == [1, 1.0, 1.0]


def test_import_ms_counts_nested_imports_once():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy",
        "import time:       500 |        600 |   scipy.special",
        "import time:       200 |        800 | ulbkit",
        "import time:        50 |         50 | scipy.linalg",
        "ulbkit: not an importtime line",
    ]
    assert workloads.import_ms(lines, "ulbkit") == pytest.approx(0.8)
    assert workloads.import_ms(lines, "scipy") == pytest.approx(0.65)


def test_benchmark_json_matches_the_metric_specs():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [m[:3] for m in spec.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
