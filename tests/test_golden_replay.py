"""Replay the benchmark's golden reports: the behaviour oracle for refactors.

Each golden under perfbench/goldens/{small-mix,qg-fock}/ is rebuilt into a
scenario from the report's own fields and run again.  The run must exit 0
with the same check names and pass flags, and every report must be
byte-identical to its golden except fock_suite reports, whose identical
count is only printed: their word_multiplicativity value differs in the last
digit between process histories (a known rounding fault of
InducedAction.multiplicativity_residual, listed in CHANGES.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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
