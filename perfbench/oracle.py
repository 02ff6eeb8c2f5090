"""Correctness oracle for the benchmark's reports.

`goldens/<workload>/exit_codes.json` holds the exit code each scenario name
gives at this commit.  A name fixes the preset, experiment and size under
every seed, so the codes hold at every seed.  A scenario is wrong when its
exit code differs from the golden one; when it exits 0 but its report is
missing, has no checks or has a failed check; and, at the golden seed, when
its check names or pass flags differ from the committed golden report.
A scenario whose golden exit code is not 0 is a known failure: it is still
counted as failed, but it does not make the run wrong.  Byte-identical
reports are counted but do not gate: a change in the last bits of a
residual is not a failure.
"""

from __future__ import annotations

import json
import os
import shutil

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")
EXIT_CODES = "exit_codes.json"


def _report_path(reports_dir, name):
    return os.path.join(reports_dir, f"{name}.report.json")


def _check_signature(report):
    return [(c["name"], c["passed"]) for c in report["checks"]]


def check_scenario(name, code, reports_dir, golden_code, golden_text=None):
    """(reason the scenario is wrong, or None; byte identical to golden_text)."""
    if golden_code is None:
        return "no golden exit code", False
    if code != golden_code:
        return f"exit code {code}, golden {golden_code}", False
    if code != 0:
        return None, False
    try:
        with open(_report_path(reports_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return f"report unreadable: {exc}", False
    if not report.get("checks"):
        return "report has no checks", False
    if not all(c["passed"] for c in report["checks"]):
        return "report has a failed check", False
    if golden_text is None:
        return None, False
    if _check_signature(report) != _check_signature(json.loads(golden_text)):
        return "check names or pass flags differ from the golden report", False
    return None, text == golden_text


def load_goldens(workload):
    """(name -> exit code, name -> golden report text) of the workload."""
    root = os.path.join(GOLDEN_DIR, workload)
    with open(os.path.join(root, EXIT_CODES), encoding="utf-8") as fh:
        codes = json.load(fh)
    texts = {}
    for name in codes:
        path = _report_path(root, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                texts[name] = fh.read()
    return codes, texts


def write_goldens(workload, rows, reports_dir):
    """Replace the workload's goldens with the exit codes and reports of one pass."""
    root = os.path.join(GOLDEN_DIR, workload)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    codes = {}
    for row in sorted(rows, key=lambda r: r["name"]):
        codes[row["name"]] = row["code"]
        if row["code"] == 0:
            shutil.copyfile(_report_path(reports_dir, row["name"]),
                            _report_path(root, row["name"]))
    with open(os.path.join(root, EXIT_CODES), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")
