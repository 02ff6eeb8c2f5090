"""qgwb benchmark: scenario batches through qgwb.cli.run_scenario.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each pass is one runner process, a closed loop with one client: it imports
qgwb.cli and runs the workload's scenario list in sequence.  Passes repeat
while one more fits within --seconds.  Every report is checked (see oracle.py).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 passes alternate untraced and traced and it holds the per-layer
metrics.  --seconds defaults to run_seconds of BENCHMARK.json.  The exit
status is 1 when a result is wrong.  See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import betainc

import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER = os.path.join(HERE, "runner.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "_out")

SETUP_PROBES = 4          # import-only spawns before the timed passes
P90_MIN_SAMPLES = 100     # p90 needs ten samples beyond it
RUN_LIMIT_S = 170.0       # no pass starts that could end past this

END_TO_END = [("setup_s", "s", 0.25), ("batch_s", "s", 0.25),
              ("scenario_s.p50", "s", 0.25), ("peak_rss_mb", "MB", 0.2)]


class BenchError(Exception):
    pass


def per_layer_metrics():
    """(name, unit, better) of every metric the traced run reports."""
    out = []
    for name in tracing.span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in tracing.TRACED]
    out += [("windows.mul.calls", "count", "lower"),
            ("windows.elements_built", "count", "lower"),
            ("cli.report_bytes", "bytes", "lower"),
            ("fock.operator_mb", "MB-computed", "lower"),
            ("cli.reports_byte_identical", "count", "higher"),
            ("cli.reports_compared", "count", "higher"),
            ("trace.overhead_s", "s", "lower"),
            ("prediction.dominant_share", "ratio", "lower")]
    return out


def hd_quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta weights centred on
    rank p*n.  Where neighbouring scenarios differ a lot in time, it moves
    smoothly when two of them swap ranks, where the plain sample quantile
    jumps from one scenario to the other.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def scenario_percentiles(samples):
    """Median always; p90 only when at least ten samples lie beyond it."""
    out = {"scenario_s.p50": hd_quantile(samples, 0.5)}
    if len(samples) >= P90_MIN_SAMPLES:
        out["scenario_s.p90"] = hd_quantile(samples, 0.9)
    return out


def _child_env():
    # One BLAS thread: with one per CPU, a BLAS call on a shared host waits
    # for its slowest thread, and a single dual-Z(48) kazhdan call was seen
    # to take 19 s instead of 4 s.
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def spawn(scenarios, run_dir, tag, trace, deadline):
    """One runner process; returns (seconds from spawn to ready, result or None)."""
    paths = {k: os.path.join(run_dir, f"{tag}.{k}") for k in
             ("scenarios.json", "reports", "result.json", "spans.json", "stderr")}
    with open(paths["scenarios.json"], "w", encoding="utf-8") as fh:
        json.dump(scenarios, fh)
    argv = [sys.executable, RUNNER, paths["scenarios.json"], paths["reports"],
            paths["result.json"], "1" if trace else "0", paths["spans.json"]]
    with open(paths["stderr"], "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=_child_env(), text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - t0
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line != "ready\n" or proc.returncode != 0:
        with open(paths["stderr"], encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"runner {tag} failed (exit {proc.returncode}):\n{tail}")
    if not scenarios:
        return setup, None
    with open(paths["result.json"], encoding="utf-8") as fh:
        return setup, json.load(fh)


def run_workload(workload, seed, seconds, trace):
    """Run passes for `seconds`; returns the measurements of the run."""
    run_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    scenarios = workloads.scenarios(workload, seed)
    codes, texts = oracle.load_goldens(workload)
    if seed != workloads.GOLDEN_SEED:
        texts = {}
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    setups = [spawn([], run_dir, f"probe{i}", False, deadline)[0]
              for i in range(SETUP_PROBES)]
    passes, failures, wrong = [], [], []
    measure_start = time.monotonic()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        setup, result = spawn(scenarios, run_dir, f"pass{len(passes)}", traced, deadline)
        setups.append(setup)
        reports_dir = os.path.join(run_dir, f"pass{len(passes)}.reports")
        identical = compared = 0
        for row in result["scenarios"]:
            name, code = row["name"], row["code"]
            reason, same = oracle.check_scenario(name, code, reports_dir,
                                                 codes.get(name), texts.get(name))
            compared += name in texts
            identical += same
            where = f"pass {len(passes)} {name}"
            if reason is not None:
                wrong.append(f"{where}: {reason}")
            elif code != 0:
                failures.append(f"{where}: exit code {code}, a known failure")
        shutil.rmtree(reports_dir, ignore_errors=True)
        result.update(traced=traced, identical=identical, compared=compared)
        passes.append(result)
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        # stop before a pass as long as the longest so far would run past
        # `seconds`, so a run measures at most about `seconds`
        done = now + longest > measure_start + seconds and len(passes) >= (2 if trace else 1)
        if done or now + longest > started + RUN_LIMIT_S:
            break
    return {"workload": workload, "seed": seed, "setups": setups, "passes": passes,
            "failures": failures + wrong, "wrong": wrong,
            "scenarios_per_pass": len(scenarios)}


def best_times(passes):
    """Each scenario's shortest time over the passes, in scenario order."""
    best = {}
    for p in passes:
        for row in p["scenarios"]:
            best[row["name"]] = min(best.get(row["name"], row["seconds"]), row["seconds"])
    return list(best.values())


def end_to_end(run):
    # The host this was built on runs ~1.4x slower for stretches of seconds
    # to minutes, and that noise only adds time, so the timings start from
    # each scenario's fastest call over the run's passes: batch_s is their
    # sum and the percentiles are taken over them.
    plain = [p for p in run["passes"] if not p["traced"]]
    samples = best_times(plain)
    metrics = {"setup_s": statistics.median(run["setups"]),
               "batch_s": sum(samples),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    metrics.update(scenario_percentiles(samples))
    return metrics, len(samples)


def per_layer(run):
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    dominant = workloads.PREDICTED_DOMINANT[run["workload"]]
    per_pass = []
    for p in traced:
        table = p["callables"]
        layers = tracing.layer_self_times(table)
        values = {}
        for name, row in table.items():
            values[f"{name}.calls"] = row["calls"]
            values[f"{name}.self_s"] = row["self_s"]
        values.update({f"{layer}.self_s": v for layer, v in layers.items()})
        values.update(p["counters"])
        values["cli.reports_byte_identical"] = p["identical"]
        values["cli.reports_compared"] = p["compared"]
        values["prediction.dominant_share"] = sum(layers[l] for l in dominant) / p["batch_s"]
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass)
               for name, _, _ in per_layer_metrics() if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(p["batch_s"] for p in traced)
                                   - statistics.median(p["batch_s"] for p in plain))
    return metrics, traced[-1]["unseen"]


def _attempted(run):
    return sum(len(p["scenarios"]) for p in run["passes"])


def report_end_to_end(run, metrics, n_samples):
    plain = [p for p in run["passes"] if not p["traced"]]
    print(f"workload {run['workload']} seed {run['seed']}: {len(plain)} passes of "
          f"{run['scenarios_per_pass']} scenarios; scenarios_failed "
          f"{len(run['failures'])}/{_attempted(run)} scenarios_attempted")
    print(f"  setup_s         {metrics['setup_s']:.4f} s   "
          f"(median of {len(run['setups'])} spawns)")
    print(f"  batch_s         {metrics['batch_s']:.4f} s   (sum of best calls over {len(plain)} passes; "
          f"{run['scenarios_per_pass'] / metrics['batch_s']:.2f} scenarios/s)")
    for key in ("scenario_s.p50", "scenario_s.p90"):
        if key in metrics:
            print(f"  {key:<15} {metrics[key]:.4f} s   (Harrell-Davis over n={n_samples} "
                  f"scenarios, each its fastest of {len(plain)} calls)")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB  (median of {len(plain)} passes)")


def report_per_layer(run, metrics, unseen):
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.TRACED)
    print(f"workload {run['workload']} seed {run['seed']} traced: "
          f"overhead {metrics['trace.overhead_s']:+.4f} s per pass")
    for layer in tracing.TRACED:
        v = metrics[f"{layer}.self_s"]
        print(f"  {layer:<12} self {v:9.4f} s  {v / total:6.1%}")
    dominant = workloads.PREDICTED_DOMINANT[run["workload"]]
    share = metrics["prediction.dominant_share"]
    verdict = "holds" if share >= 0.5 else "DOES NOT HOLD"
    print(f"  prediction: {' + '.join(dominant)} >= half of traced batch_s: "
          f"{verdict} (share {share:.3f})")
    for key in ("windows.mul.calls", "windows.elements_built", "cli.report_bytes"):
        print(f"  {key:<27} {metrics[key]:.0f}")
    print(f"  fock.operator_mb (computed) {metrics['fock.operator_mb']:.1f}")
    print(f"  cli.reports_byte_identical  {metrics['cli.reports_byte_identical']:.0f}"
          f"/{metrics['cli.reports_compared']:.0f} compared with goldens")
    print(f"  unseen references: {', '.join(unseen) if unseen else 'none found'}")


def _env_line(run):
    env = run["passes"][0]["env"]
    return "env: " + " ".join(f"{k}={v}" for k, v in env.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite the goldens from one pass at the golden seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qgwb", "cli.py")):
        sys.stderr.write(f"qgwb sources not found under {ROOT}/src\n")
        return 2
    if args.seconds is None:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.update_goldens:
        return update_goldens(names)
    results, ok, attempted, failed = {}, True, 0, 0
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        print(_env_line(run))
        for line in run["failures"]:
            print(f"  FAILED {line}")
        if args.trace:
            metrics, unseen = per_layer(run)
            report_per_layer(run, metrics, unseen)
            units = {n: u for n, u, _ in per_layer_metrics()}
        else:
            metrics, n_samples = end_to_end(run)
            report_end_to_end(run, metrics, n_samples)
            units = {n: u for n, u, _ in END_TO_END}
        prefix = "" if len(names) == 1 else f"{name}."
        results.update({prefix + k: {"value": metrics[k], "unit": u} for k, u in units.items()})
        attempted += _attempted(run)
        failed += len(run["failures"])
        ok = ok and not run["wrong"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if ok else 1


def update_goldens(names):
    for name in names:
        run_dir = os.path.join(OUT_DIR, f"{name}-goldens")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        scenarios = workloads.scenarios(name, workloads.GOLDEN_SEED)
        _, result = spawn(scenarios, run_dir, "pass0", False,
                          time.monotonic() + RUN_LIMIT_S)
        for row in result["scenarios"]:
            if row["code"] != 0:
                print(f"{name}: {row['name']} exits {row['code']}; recorded as a known failure")
        oracle.write_goldens(name, result["scenarios"], os.path.join(run_dir, "pass0.reports"))
        print(f"{name}: wrote the goldens of {len(result['scenarios'])} scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
