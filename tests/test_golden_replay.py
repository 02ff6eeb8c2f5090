"""Replay the benchmark's golden reports: the behaviour oracle for refactors.

Each golden under perfbench/goldens/{small-mix,qg-fock}/ is rebuilt into a
scenario from the report's own fields and run again.  The run must exit 0
with the same check names and pass flags, and every report must be
byte-identical to its golden except fock_suite reports, whose identical
count is only printed: the goldens hold the residuals of the dense Fock
layer, and the sparse one rounds some of them differently in the last
digits.  test_fock_suite_reports_repeat checks instead that a fock_suite
report does not depend on what the process ran before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgwb
from qgwb.cli import run_scenario

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


def _scenario(report):
    scenario = {key: report[key] for key in
                ("name", "experiment", "parameters", "tol_scale", "seed")}
    if report["parent_id"] is not None:
        scenario["preset"] = report["parent_id"]
    return scenario


def _verdicts(report):
    return [(check["name"], check["passed"]) for check in report["checks"]]


@pytest.mark.parametrize("workload", ["small-mix", "qg-fock"])
def test_golden_replay(workload, tmp_path):
    paths = sorted((GOLDENS / workload).glob("*.report.json"))
    assert paths, f"no goldens under {GOLDENS / workload}"
    mismatches, noisy, noisy_identical = [], 0, 0
    for path in paths:
        golden = json.loads(path.read_text(encoding="utf-8"))
        code, out = run_scenario(_scenario(golden), str(tmp_path))
        if code != 0:
            mismatches.append(f"{path.name}: exit {code}")
            continue
        replayed = Path(out).read_text(encoding="utf-8")
        if _verdicts(json.loads(replayed)) != _verdicts(golden):
            mismatches.append(f"{path.name}: check names or pass flags differ")
        identical = replayed == path.read_text(encoding="utf-8")
        if golden["experiment"] == "fock_suite":
            noisy += 1
            noisy_identical += identical
        elif not identical:
            mismatches.append(f"{path.name}: report bytes differ")
    print(f"{workload}: fock_suite {noisy_identical}/{noisy} reports byte-identical")
    assert not mismatches, "\n".join(mismatches)


def test_fock_suite_reports_repeat(tmp_path):
    """Every fock_suite golden scenario writes the same bytes twice in one
    process, with a dual-Z(24) kazhdan run in between, and in fresh
    processes with one and with two BLAS threads."""
    scenarios = []
    for workload in ("small-mix", "qg-fock"):
        for path in sorted((GOLDENS / workload).glob("*.report.json")):
            golden = json.loads(path.read_text(encoding="utf-8"))
            if golden["experiment"] == "fock_suite":
                scenarios.append(dict(_scenario(golden),
                                      name=f"{workload}-{golden['name']}"))
    assert scenarios

    def reports(out_dir):
        return [(out_dir / f"{sc['name']}.report.json").read_bytes()
                for sc in scenarios]

    for sc in scenarios:
        assert run_scenario(sc, str(tmp_path))[0] == 0, sc["name"]
    first = reports(tmp_path)
    assert run_scenario({"name": "between", "preset": "dual-Z(24)",
                         "experiment": "kazhdan"}, str(tmp_path))[0] == 0
    for sc in scenarios:
        run_scenario(sc, str(tmp_path))
    assert reports(tmp_path) == first
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(scenarios), encoding="utf-8")
    src = str(Path(qgwb.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "qgwb.cli", str(batch), "--out",
                        str(out)], env=env, check=True)
        assert reports(out) == first, f"{threads} BLAS threads"


def test_rounding_level_reports_match_goldens_in_fresh_processes(tmp_path):
    """Every v_matrices, axioms, kazhdan and action_suite golden, whose
    reports print rounding-level residuals and gaps, is written byte for
    byte again by a fresh process with one and with two BLAS threads (the
    benchmark runs with one)."""
    src = str(Path(qgwb.__file__).resolve().parents[1])
    for workload in ("small-mix", "qg-fock"):
        goldens = {}
        for path in sorted((GOLDENS / workload).glob("*.report.json")):
            golden = json.loads(path.read_text(encoding="utf-8"))
            if golden["experiment"] in ("v_matrices", "axioms", "kazhdan", "action_suite"):
                goldens[path.name] = (_scenario(golden), path.read_bytes())
        assert goldens
        batch = tmp_path / f"{workload}.json"
        batch.write_text(json.dumps([sc for sc, _ in goldens.values()]), encoding="utf-8")
        for threads in ("1", "2"):
            out = tmp_path / f"{workload}-threads-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "qgwb.cli", str(batch), "--out",
                            str(out)], env=env, check=True)
            differ = [name for name, (_, data) in goldens.items()
                      if (out / name).read_bytes() != data]
            assert not differ, f"{workload}, {threads} BLAS threads: {differ}"
