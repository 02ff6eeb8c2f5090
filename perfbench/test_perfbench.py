"""Self-tests of the benchmark's own logic; they run no qgwb scenario."""

import json
import os
from collections import Counter

import pytest

import oracle
import run
import tracing
import workloads

DRAWN = ("t_grid", "t", "eps")


def _sizes(scenarios):
    return Counter((sc["name"], sc.get("preset"), sc["experiment"],
                    json.dumps({k: v for k, v in sc["parameters"].items() if k not in DRAWN},
                               sort_keys=True))
                   for sc in scenarios)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_scenarios(workload):
    assert workloads.scenarios(workload, 7) == workloads.scenarios(workload, 7)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_other_seed_same_presets_and_sizes(workload):
    a, b = workloads.scenarios(workload, 1), workloads.scenarios(workload, 2)
    assert a != b
    assert _sizes(a) == _sizes(b)


def test_small_mix_covers_every_experiment():
    experiments = {sc["experiment"] for sc in workloads.scenarios("small-mix", 0)}
    assert experiments == {"axioms", "semigroup", "kazhdan", "v_matrices", "theorem69",
                           "lemma74", "action_suite", "fock_suite", "dense_image"}
    assert len(workloads.items("small-mix")) >= run.P90_MIN_SAMPLES


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [5, 6]; [1, 4] has child [2, 3];
    # a second root [20, 21] has no children
    spans = [("a.root", 0.0, 10.0, -1, "s1"),
             ("b.child", 1.0, 4.0, 0, "s1"),
             ("c.grandchild", 2.0, 3.0, 1, "s1"),
             ("b.child", 5.0, 6.0, 0, "s1"),
             ("a.root", 20.0, 21.0, -1, "s2")]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    table = tracing.summarize(spans)
    assert table["b.child"] == {"calls": 2, "self_s": pytest.approx(3.0)}
    assert table["a.root"] == {"calls": 2, "self_s": pytest.approx(7.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, None), ("c", 2.0, 6.0, 0, None),
             ("c", 4.0, 8.0, 0, None), ("c", 9.0, 12.0, 0, None)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_p90_only_with_enough_samples():
    assert "scenario_s.p90" not in run.scenario_percentiles([1.0] * 99)
    out = run.scenario_percentiles([float(i) for i in range(1, 101)])
    assert out["scenario_s.p50"] == pytest.approx(50.5)
    assert out["scenario_s.p90"] == pytest.approx(90.5, abs=1e-6)


def test_hd_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert run.hd_quantile([5.0, 1.0, 3.0], 0.5) == pytest.approx(3.0)
    # a swap of the two middle ranks moves the estimate a little, not by the gap
    a = run.hd_quantile([1.0, 2.0, 10.0, 11.0, 20.0], 0.5)
    b = run.hd_quantile([1.0, 2.0, 10.5, 11.0, 20.0], 0.5)
    assert 0 < b - a < 0.5


def test_end_to_end_timings_take_the_best_of_the_passes():
    def row(name, seconds):
        return {"name": name, "code": 0, "seconds": seconds}
    passes = [{"traced": False, "batch_s": 3.0, "peak_rss_mb": 10.0,
               "scenarios": [row("a", 1.0), row("b", 2.0)]},
              {"traced": True, "batch_s": 0.5, "peak_rss_mb": 30.0,
               "scenarios": [row("a", 0.1), row("b", 0.1)]},
              {"traced": False, "batch_s": 2.5, "peak_rss_mb": 20.0,
               "scenarios": [row("a", 1.5), row("b", 1.0)]}]
    assert run.best_times(passes[::2]) == [1.0, 1.0]
    metrics, n = run.end_to_end({"setups": [0.3, 0.1, 0.2], "passes": passes})
    assert n == 2
    assert metrics == pytest.approx({"setup_s": 0.2, "batch_s": 2.0, "peak_rss_mb": 15.0,
                                     "scenario_s.p50": 1.0})


def test_benchmark_json_matches_the_metrics_emitted():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_metrics()


def _report(checks):
    return json.dumps({"checks": [{"name": n, "passed": p, "value": v}
                                  for n, p, v in checks]}, sort_keys=True)


def test_oracle_gates_on_exit_code_names_and_flags_not_bytes(tmp_path):
    golden = _report([("a", True, 0.0), ("b", True, 1e-12)])

    def check(text, code=0, golden_code=0, golden_text=golden):
        (tmp_path / "x.report.json").write_text(text, encoding="utf-8")
        return oracle.check_scenario("x", code, str(tmp_path), golden_code, golden_text)

    assert check(golden) == (None, True)
    assert check(_report([("a", True, 0.0), ("b", True, 2e-12)])) == (None, False)
    assert check(golden, code=4)[0] == "exit code 4, golden 0"
    assert check(_report([("a", True, 0.0), ("c", True, 0.0)]))[0] is not None
    assert check(_report([("a", True, 0.0), ("b", False, 1.0)]))[0] is not None
    assert check(_report([]))[0] == "report has no checks"
    assert check(_report([("a", False, 1.0)]), golden_text=None)[0] is not None
    assert check(golden, golden_code=None)[0] == "no golden exit code"


def test_oracle_accepts_a_known_failure_only_with_its_golden_exit_code(tmp_path):
    assert oracle.check_scenario("x", 2, str(tmp_path), 2) == (None, False)
    assert oracle.check_scenario("x", 3, str(tmp_path), 2)[0] == "exit code 3, golden 2"
    assert oracle.check_scenario("x", 0, str(tmp_path), 2)[0] == "exit code 0, golden 2"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_goldens_name_every_scenario(workload):
    codes, texts = oracle.load_goldens(workload)
    names = {sc["name"] for sc in workloads.scenarios(workload, workloads.GOLDEN_SEED)}
    assert set(codes) == names
    assert set(texts) == {n for n, c in codes.items() if c == 0}


@pytest.mark.parametrize("seed", range(5))
def test_late_experiments_run_after_every_preset_group(seed):
    order = [sc["experiment"] for sc in workloads.scenarios("small-mix", seed)]
    late = [i for i, e in enumerate(order) if e in workloads.LATE_EXPERIMENTS]
    assert late == list(range(len(order) - len(late), len(order)))
