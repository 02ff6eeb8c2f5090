import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from documents import rotated_document
from qgwb import cli, linalg, presets
from qgwb.errors import SchemaError


def run(tmp_path, scenario):
    code, path = cli.run_scenario(scenario, out_dir=str(tmp_path))
    report = None
    if path and os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
    return code, report


def test_axioms_scenario(tmp_path):
    code, report = run(tmp_path, {
        "name": "kp-axioms", "preset": "kac-paljutkin", "experiment": "axioms"})
    assert code == 0
    assert all(c["passed"] for c in report["checks"])
    assert all({"name", "value", "tol", "passed"} <= set(c) for c in report["checks"])


def test_lemma74_scenario_bounds_increase(tmp_path):
    code, report = run(tmp_path, {
        "name": "l74", "preset": "free(2) r=6", "experiment": "lemma74",
        "parameters": {"t": 1.0}})
    assert code == 0
    bounds = [row["bound"] for row in report["per_stage"]]
    assert bounds == sorted(bounds)


def test_unknown_experiment(tmp_path):
    code, report = run(tmp_path, {
        "name": "bad", "preset": "kac-paljutkin", "experiment": "nope"})
    assert code == 2
    assert report is None


def test_unknown_preset(tmp_path):
    code, _ = run(tmp_path, {
        "name": "bad2", "preset": "not-a-preset", "experiment": "axioms"})
    assert code == 2


def test_reports_reproducible(tmp_path):
    sc = {"name": "rep", "preset": "dual-Z(4)", "experiment": "semigroup"}
    cli.run_scenario(sc, out_dir=str(tmp_path / "a"))
    cli.run_scenario(sc, out_dir=str(tmp_path / "b"))
    a = (tmp_path / "a" / "rep.report.json").read_bytes()
    b = (tmp_path / "b" / "rep.report.json").read_bytes()
    assert a == b
    a_csv = (tmp_path / "a" / "rep.report.csv").read_bytes()
    b_csv = (tmp_path / "b" / "rep.report.csv").read_bytes()
    assert a_csv == b_csv


def test_list_presets_contents():
    rows = presets.preset_table()
    names = {r["name"]: r for r in rows}
    assert "kac-paljutkin" in names
    kp = names["kac-paljutkin"]
    assert kp["dim"] == 8 and kp["kac"] and kp["max_block_dim"] == 2
    z4 = names["dual-Z(4)"]
    assert z4["max_block_dim"] == 1
    assert [r["name"] for r in rows] == sorted(r["name"] for r in rows)


def test_batch_main(tmp_path):
    batch = [
        {"name": "s1", "preset": "dual-Z(3)", "experiment": "axioms"},
        {"name": "s2", "preset": "dual-Z(3)", "experiment": "kazhdan"},
    ]
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code = cli.main([str(path), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "s1.report.json").exists()
    assert (tmp_path / "s2.report.json").exists()
    assert (tmp_path / "s2.meta.json").exists()


def test_inline_main(tmp_path):
    code = cli.main(["--preset", "dual-Z(8)", "--experiment", "kazhdan",
                     "--name", "inline", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "inline.report.json").read_text())
    assert abs(report["gap"] - report["expected"]) < 1e-9


def test_tol_scale_flag(tmp_path):
    code, report = run(tmp_path, {
        "name": "scaled", "preset": "dual-Z(4)", "experiment": "axioms",
        "tol_scale": 100.0})
    assert code == 0
    assert report["checks"][0]["tol"] == pytest.approx(1e-7)


def test_preset_dir_env(tmp_path, monkeypatch):
    from qgwb import presets as P
    from qgwb.serialize import qg_to_dict
    doc = qg_to_dict(P.load_preset("dual-Z(2)"))
    doc["name"] = "custom-z2"
    (tmp_path / "custom-z2.json").write_text(json.dumps(doc))
    monkeypatch.setenv("QGWB_PRESET_DIR", str(tmp_path))
    code, report = run(tmp_path, {
        "name": "env", "preset": "custom-z2", "experiment": "axioms"})
    assert code == 0
    assert report["parent_id"] == "custom-z2"


def test_csv_mirror_includes_stages(tmp_path):
    code, _ = run(tmp_path, {
        "name": "stages", "preset": "free(2) r=6", "experiment": "lemma74"})
    assert code == 0
    text = (tmp_path / "stages.report.csv").read_text()
    assert "bound" in text and "expected" in text


@pytest.mark.parametrize("value,code", [
    ("13", 0),            # sparse operators: a dense one would be 4.3 GB
    ("foo", 2), ("2.5", 2), ("0", 2), ("true", 2), ('"8"', 2),
    ("1000000000", 5),    # over the Fock byte budget
])
def test_fock_suite_depth_param(tmp_path, value, code):
    assert cli.main(["--experiment", "fock_suite", "--param", f"depth={value}",
                     "--name", "depth", "--out", str(tmp_path)]) == code


@pytest.mark.parametrize("preset,experiment,param,code,error", [
    # the 7th power of a generator leaves a radius-6 window
    ("free(2) r=6", "lemma74", "l_max=9", 5, "WindowTruncation"),
    ("Z(1)", "v_matrices", "l_max=9", 5, "WindowTruncation"),
    # no stages means no checks, and a report without checks does not pass
    ("Z(1)", "v_matrices", "l_max=0", 4, None),
    # a parent that fails to build exits like the experiment body would
    ("free(2) r=11", "lemma74", "t=1.0", 5, "RadiusTooLarge"),
])
def test_main_exit_codes(tmp_path, preset, experiment, param, code, error):
    assert cli.main(["--preset", preset, "--experiment", experiment,
                     "--param", param, "--name", "x", "--out", str(tmp_path)]) == code
    report = json.loads((tmp_path / "x.report.json").read_text())
    assert report["checks"] == []
    assert report.get("error", {}).get("type") == error


@pytest.mark.parametrize("preset,experiment,param", [
    ("dual-Z(4)", "v_matrices", "alpha=foo"),
    ("dual-Z(4)", "v_matrices", "alpha=9"),       # dual-Z(4) has 4 blocks
    ("dual-Z(4)", "semigroup", "t_grid=5"),
    ("free(2) r=6", "lemma74", "t=foo"),
    ("Z(1)", "v_matrices", "l_max=-3"),
    ("dual-Z(4)", "v_matrices", "beta=true"),
    ("dual-Z(4)", "semigroup", 't_grid=[0.1, "x"]'),
    ("dual-Z(4)", "semigroup", "h=0"),             # the difference step divides by h
    ("dual-Z(4)", "semigroup", "h=-0.001"),
    ("dual-Z(4)", "semigroup", "t_grid=[]"),       # an empty grid checks nothing
    ("free(2) r=4", "semigroup", "t_grid=[]"),
    # json reads NaN, Infinity and 1e309 (inf) as floats; none is a finite number
    ("free(2) r=6", "lemma74", "t=NaN"),
    (None, "theorem69", "eps=Infinity"),
    ("dual-Z(4)", "semigroup", "t_grid=[0.1,NaN]"),
    ("Z(1) r=20", "semigroup", "t_grid=[1e308,1e309]"),
    # finite times whose scaled generator, or grid sum s + t, leaves the
    # float range
    ("dual-Z(4)", "semigroup", "t_grid=[1e200]"),
    ("dual-Z(4)", "semigroup", "t_grid=[1e308,1e308]"),
    ("Z(1) r=20", "semigroup", "t_grid=[1e308,1e308]"),
    ("free(2) r=6", "lemma74", "t=1e308"),
    # a convolution semigroup lives on t >= 0
    ("free(2) r=6", "lemma74", "t=-1000"),
    ("Z(1) r=20", "semigroup", "t_grid=[-1000]"),
    ("dual-Z(4)", "semigroup", "t_grid=[-1.0]"),
    # finite times whose blockwise exponential (of t, or of the grid sum
    # 2t) leaves the float range
    ("kac-paljutkin", "semigroup", "t_grid=[1e18]"),
    ("kac-paljutkin", "semigroup", "t_grid=[1e19]"),
    # finite times that lift the rounding of L(1) past the states tolerance
    ("fn-S3", "semigroup", "t_grid=[1e7]"),
    ("fn-S3", "semigroup", "t_grid=[1e20]"),
    ("kac-paljutkin", "semigroup", "t_grid=[1e16]"),
    # a parameter or parent the experiment never reads, rejected before any
    # parent is built (a window of radius 100000 would exit 5)
    ("fn-Z(2)", "axioms", "alhpa=1"),
    ("free(2) r=4", "v_matrices", "alpha=1"),     # alpha is read on quantum groups
    ("free(2) r=4", "semigroup", "h=0.1"),
    ("fn-Z(2)", "theorem69", "eps=0.5"),
    ("free(2) r=100000", "dense_image", None),
    ("free(2) r=4", "fock_suite", None),
    ("free(2) r=100000", "kazhdan", None),
    (None, "axioms", None),
])
def test_malformed_parameter_exits_2(tmp_path, preset, experiment, param):
    argv = ["--experiment", experiment, "--name", "x", "--out", str(tmp_path)]
    argv += [] if preset is None else ["--preset", preset]
    argv += [] if param is None else ["--param", param]
    assert cli.main(argv) == 2
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("n_windows", [41, 10 ** 6])
def test_theorem69_windows_past_the_stage_cap_exit_2(tmp_path, n_windows):
    # no stage past genfun.MAX_STAGES (40) is grown, so no later window is read
    start = time.perf_counter()
    assert cli.main(["--experiment", "theorem69", "--param", f"n_windows={n_windows}",
                     "--name", "x", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "x.report.json").exists()


def test_rejected_scenario_does_not_abort_a_batch(tmp_path, capsys):
    batch = [{"name": "bad", "preset": "free(2) r=4", "experiment": "fock_suite"},
             {"name": "good", "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    out = tmp_path / "out"
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(out)]) == 2
    assert "fock_suite takes no parent or a quantum group parent" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "good.meta.json", "good.report.csv", "good.report.json"]
    good = json.loads((out / "good.report.json").read_text())
    assert good["checks"] and all(c["passed"] for c in good["checks"])


def test_an_unusable_output_path_exits_2_and_the_batch_goes_on(tmp_path, capsys, monkeypatch):
    attempted = []
    real = cli.run_scenario

    def counting(scenario, out_dir="."):
        attempted.append(scenario["name"])
        return real(scenario, out_dir=out_dir)
    monkeypatch.setattr(cli, "run_scenario", counting)
    batch = [{"name": "first", "preset": "dual-Z(2)", "experiment": "axioms"},
             {"name": "second", "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(out)]) == 2
    assert attempted == ["first", "second"]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(f"cannot write {out}") == 2
    assert out.read_text() == "a file, not a directory"


def test_param_reader_rules():
    assert cli._param({}, "n", 8, 1) == 8
    assert cli._param({"n": 3}, "n", 8, 1, 4) == 3
    assert cli._param({"t": 2}, "t", 1.0) == 2.0
    assert isinstance(cli._param({"t": 2}, "t", 1.0), float)
    assert cli._param({"g": [1, 0.5]}, "g", [0.1]) == [1, 0.5]
    for params, default, lo, hi in [({"n": 2.0}, 8, None, None),
                                    ({"n": True}, 8, None, None),
                                    ({"n": 0}, 8, 1, None),
                                    ({"n": 4}, 8, 0, 4),
                                    ({"n": True}, 1.0, None, None),
                                    ({"n": 10 ** 400}, 1.0, None, None),
                                    ({"n": [0.1, -10 ** 400]}, [0.1], None, None),
                                    ({"n": (1, 2)}, [0.1], None, None),
                                    ({"n": []}, [0.1], None, None)]:
        with pytest.raises(SchemaError):
            cli._param(params, "n", default, lo, hi)


def test_parent_build_errors_do_not_abort_a_batch(tmp_path):
    from qgwb import presets as P
    from qgwb.serialize import qg_to_dict
    doc = qg_to_dict(P.load_preset("fn-Z(2)"))
    doc["antipode"][0][0] = 2.0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    batch = [{"name": "bad", "preset": str(tmp_path / "bad.json"), "experiment": "axioms"},
             {"name": "good", "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(tmp_path)]) == 3
    bad = json.loads((tmp_path / "bad.report.json").read_text())
    assert bad["parent_id"] is None and bad["checks"] == []
    assert bad["error"]["type"] == "AxiomViolation"
    good = json.loads((tmp_path / "good.report.json").read_text())
    assert good["checks"] and all(c["passed"] for c in good["checks"])


@pytest.mark.parametrize("preset,param,named", [
    ("Z(0)", "radius=2", "Z"),
    ("cyclic(0)", "radius=2", "cyclic"),
    ("cyclic(1)", "radius=2", "cyclic"),
    ("Z(3)^0", "radius=2", "Z"),
    ("free(0)", "radius=2", "free"),
    ("free(2)", "radius=true", "'radius'"),
    ("free(2)", "radius=-1", "'radius'"),
])
def test_out_of_range_window_exits_2(tmp_path, capsys, preset, param, named):
    assert cli.main(["--preset", preset, "--experiment", "lemma74", "--param", param,
                     "--name", "x", "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("preset", [
    "cyclic(9223372036854775808) r=1",
    "free(9223372036854775808) r=1",
    "Z(9223372036854775808) r=1",
    "Z(1)^9223372036854775808 r=1",
])
def test_a_group_argument_past_int64_exits_2(tmp_path, capsys, preset):
    assert cli.main(["--preset", preset, "--experiment", "axioms", "--name", "x",
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "below 2^63" in err
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("preset,experiment", [
    ("free(2) r=6", "lemma74"),   # the spec already carries a radius
    ("fn-Z(2)", "axioms"),        # no window
    (None, "theorem69"),          # no parent at all
])
def test_conflicting_radius_exits_2(tmp_path, capsys, preset, experiment):
    argv = ["--experiment", experiment, "--param", "radius=4", "--name", "x",
            "--out", str(tmp_path)]
    if preset is not None:
        argv += ["--preset", preset]
    assert cli.main(argv) == 2
    assert "'radius'" in capsys.readouterr().err
    assert not (tmp_path / "x.report.json").exists()


def test_radius_suffix_on_a_quantum_group_exits_2(tmp_path, capsys, monkeypatch):
    # rejected before any parent is built
    monkeypatch.setattr(presets, "load_preset", lambda *a: pytest.fail("parent built"))
    assert cli.main(["--preset", "dual-Z(4) r=3", "--experiment", "axioms",
                     "--name", "x", "--out", str(tmp_path)]) == 2
    assert "'dual-Z(4)' is no window preset" in capsys.readouterr().err
    assert not (tmp_path / "x.report.json").exists()


@pytest.mark.parametrize("preset, t", [("dual-Z(4)", 1e6), ("Z(1) r=20", 1e6),
                                       ("Z(1) r=20", 1e300), ("dual-Z(4)", 1e100),
                                       ("dual-Z(6)", 1e100), ("fn-S3", 1e6)])
def test_large_finite_time_passes(tmp_path, preset, t):
    code, report = run(tmp_path, {"name": "x", "preset": preset, "experiment": "semigroup",
                                  "parameters": {"t_grid": [t]}})
    assert code == 0 and report["checks"]


@pytest.mark.parametrize("preset, error, named", [
    ("Z(1)^1000000 r=1", "RadiusTooLarge", "has more than 200000 elements"),
    ("Z(1) r=1000000", "RadiusTooLarge", "has more than 200000 elements"),
    ("Z(2)^40 r=40", "RadiusTooLarge", "has more than 200000 elements"),
    ("free(100) r=3", "RadiusTooLarge", "has more than 200000 elements"),
    # 150,001 elements, under the cap, but 16 m^2 bytes of generators
    ("Z(2)^150000 r=1", "BudgetExceeded", "sphere_growth"),
])
def test_a_window_past_its_caps_exits_5_before_it_is_built(tmp_path, capsys, preset, error,
                                                           named):
    start = time.perf_counter()
    code, report = run(tmp_path, {"name": "x", "preset": preset, "experiment": "axioms"})
    assert time.perf_counter() - start < 1.0
    assert code == 5 and "Traceback" not in capsys.readouterr().err
    assert report["error"]["type"] == error and named in report["error"]["message"]


def test_the_homomorphism_law_counts_its_pruned_factor_before_forming_it(tmp_path):
    # dense structure constants: the pruned factor has d^4 entries
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(rotated_document("dual-Z(32)")))
    tracemalloc.start()
    try:
        code, report = run(tmp_path, {"name": "x", "preset": str(path), "experiment": "axioms"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5 and report["error"]["type"] == "BudgetExceeded"
    assert report["error"]["message"].startswith("hom_residual")
    assert peak <= 2 * linalg.BYTE_BUDGET


SMALL_QG_PRESETS = [row["name"] for row in presets.preset_table()
                    if row["kind"] == "qg" and row["dim"] <= 8]
QG_EXPERIMENTS = ["axioms", "semigroup", "kazhdan", "v_matrices", "action_suite", "fock_suite"]
# (preset, experiment) -> the check counts on the preset and on its rotated
# document, where the two differ by design.  cli.delta_action needs a diagonal
# mult, so the rotated fn-S3 and fn-Z(n) take the conjugation actions; the
# kazhdan closed form holds only under presets.is_dual_z (as dual-Z(16)
# writes 2 checks and its document 1); grading_action reads the name dual-Z(2)
BASIS_CHANGE_DIFFERENCES = {
    ("fn-S3", "action_suite"): (11, 6),
    **{(f"fn-Z({n})", "action_suite"): (6, 6) for n in (2, 3, 4, 6, 8)},
    **{(f"dual-Z({n})", "kazhdan"): (2, 1) for n in range(2, 9)},
    ("dual-Z(2)", "action_suite"): (6, 6),
}


@pytest.mark.parametrize("name", SMALL_QG_PRESETS)
def test_a_rotated_document_reports_as_its_preset(tmp_path, name):
    # a rotated document takes no permutation shortcut: the dense routes
    # against the preset's gathers
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(rotated_document(name)))
    differences = {}
    for experiment in QG_EXPERIMENTS:
        (code, report), (doc_code, doc_report) = (
            run(tmp_path, {"name": f"{experiment}-{i}", "preset": spec, "experiment": experiment})
            for i, spec in enumerate((name, str(path))))
        assert code == doc_code == 0
        checks, doc_checks = ([(c["name"], c["passed"]) for c in r["checks"]]
                              for r in (report, doc_report))
        assert all(passed for _, passed in checks + doc_checks)
        if checks != doc_checks:
            differences[name, experiment] = (len(checks), len(doc_checks))
        elif "gap" in report:
            assert doc_report["gap"] == pytest.approx(report["gap"], rel=1e-9)
    assert differences == {k: v for k, v in BASIS_CHANGE_DIFFERENCES.items() if k[0] == name}


def test_radius_law_over_the_pair_cap_exits_5(tmp_path):
    # 180,601 elements, under the element cap, but 5.4e9 radius-law products
    start = time.perf_counter()
    code, report = run(tmp_path, {"name": "x", "preset": "Z(1)^2 r=300",
                                  "experiment": "axioms"})
    assert time.perf_counter() - start < 1.0
    assert code == 5 and report["error"]["type"] == "RadiusTooLarge"
    assert "5436300801 products" in report["error"]["message"]


def test_radius_sets_a_window_radius(tmp_path):
    code, report = run(tmp_path, {"name": "r6", "preset": "free(2)", "experiment": "lemma74",
                                  "parameters": {"radius": 6}})
    assert code == 0 and report["parent_id"] == "free(2) r=6"


@pytest.mark.parametrize("field,value", [
    ("name", "a/b"), ("name", "../x"), ("name", "."), ("name", ".."), ("name", ""),
    ("name", 7), ("seed", 1.7), ("seed", True), ("seed", "1"),
    ("tol_scale", 0), ("tol_scale", -1.0), ("tol_scale", "2"), ("tol_scale", float("nan")),
])
def test_bad_scenario_fields_exit_2(tmp_path, field, value):
    scenario = {"name": "ok", "preset": "fn-Z(2)", "experiment": "axioms", field: value}
    code, _ = cli.run_scenario(scenario, out_dir=str(tmp_path / "out"))
    assert code == 2
    assert not any(tmp_path.rglob("*.json"))


def test_bad_scenario_name_does_not_abort_a_batch(tmp_path):
    batch = [{"name": "a/b", "preset": "fn-Z(2)", "experiment": "axioms"},
             {"name": "good", "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    out = tmp_path / "out"
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == [
        "good.meta.json", "good.report.csv", "good.report.json"]


def test_long_scenario_name_does_not_abort_a_batch(tmp_path):
    # "<name>.report.json" may take 255 bytes, the file-name limit
    at_limit = "\u00e9" * 100 + "x" * (255 - 200 - len(".report.json"))
    batch = [{"name": "x" * 300, "preset": "fn-Z(2)", "experiment": "axioms"},
             {"name": "good", "preset": "fn-Z(2)", "experiment": "axioms"},
             {"name": at_limit + "x", "preset": "fn-Z(2)", "experiment": "axioms"},
             {"name": at_limit, "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    out = tmp_path / "out"
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.glob("*.report.json")) == sorted(
        [at_limit + ".report.json", "good.report.json"])
    for name in ("good", at_limit):
        report = json.loads((out / f"{name}.report.json").read_text(encoding="utf-8"))
        assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_unexpected_exception_is_recorded(tmp_path, monkeypatch, capsys):
    def broken(parent, params, tol_scale, seed):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(cli.EXPERIMENTS, "broken", (broken, {"qg": ()}))
    batch = [{"name": "broken", "preset": "fn-Z(2)", "experiment": "broken"},
             {"name": "good", "preset": "fn-Z(2)", "experiment": "axioms"}]
    (tmp_path / "batch.json").write_text(json.dumps(batch))
    assert cli.main([str(tmp_path / "batch.json"), "--out", str(tmp_path)]) == 4
    broken_report = json.loads((tmp_path / "broken.report.json").read_text())
    assert broken_report["checks"] == []
    assert broken_report["error"] == {"type": "RuntimeError", "message": "injected failure"}
    assert "Traceback" in capsys.readouterr().err
    good = json.loads((tmp_path / "good.report.json").read_text())
    assert good["checks"] and all(c["passed"] for c in good["checks"])


def test_readme_lists_every_experiment_with_its_parents_and_parameters():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(text.split("Experiment ids")[1].split("\n\n")[0].split())
    listed = dict(re.findall(r"`(\w+)` \(([^)]*)\)", paragraph))
    assert sorted(listed) == sorted(cli.EXPERIMENTS)
    labels = {"quantum group": "qg", "window": "window", "no parent": "none"}
    for name, (_, takes) in cli.EXPERIMENTS.items():
        params = re.findall(r"`(\w+)`", listed[name])
        kinds = re.sub(r"`\w+`", "", listed[name])
        assert {kind for label, kind in labels.items() if label in kinds} == set(takes), name
        assert set(params) == set().union(*takes.values()), name


@pytest.mark.parametrize("path,value", [
    (("dim",), 2.7),
    (("dim",), "2"),
    (("irreps", 0, "dim"), 1.9),
    (("mult", 1, 0), 0.5),
    (("mult", 1, 0), True),
    (("mult", 0, 3), float("nan")),
    (("haar", 0, 0), float("nan")),
    (("haar", 1, 0), 10 ** 400),
    (("star", 0, 0, 0), float("inf")),
    (("basis",), "ab"),
    (("basis",), {"x": 1, "y": 2}),
    (("basis",), [1, 2]),
    (("basis",), []),
    (("basis",), None),
    (("name",), 5),
    (("name",), [1]),
], ids=["dim-float", "dim-string", "irrep-dim-float", "index-float", "index-bool",
        "mult-nan", "haar-nan", "haar-huge-int", "star-infinity", "basis-string",
        "basis-object", "basis-numbers", "basis-empty", "basis-null", "name-number",
        "name-list"])
def test_malformed_document_exits_2(tmp_path, path, value):
    # json writes and reads the NaN and Infinity literals
    from qgwb import presets as P
    from qgwb.serialize import qg_to_dict
    doc = qg_to_dict(P.load_preset("fn-Z(2)"))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code, report = run(tmp_path, {"name": "x", "preset": str(tmp_path / "doc.json"),
                                  "experiment": "axioms"})
    assert (code, report) == (2, None)
    assert not (tmp_path / "x.report.json").exists()


def test_document_basis_and_name_are_kept_or_defaulted(tmp_path):
    from qgwb import presets as P
    from qgwb.serialize import load_qg, qg_to_dict
    doc = qg_to_dict(P.load_preset("fn-Z(2)"))
    doc.update(name="two points", basis=["a", "b"])
    g = load_qg(doc)
    assert (g.key, g.basis_names) == ("two points", ["a", "b"])
    del doc["name"], doc["basis"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    g = load_qg(str(path))
    assert (g.key, g.basis_names) == (str(path), ["e0", "e1"])


def test_importing_the_cli_leaves_out_scipy_sparse_linalg():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, qgwb.cli; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# -- the parent grammar ---------------------------------------------------------

@pytest.mark.parametrize("spec,param,code,parent_id", [
    # quantum-group names
    ("kac-paljutkin", None, 0, "kac-paljutkin"),
    ("dual-Z(4)", None, 0, "dual-Z(4)"),
    ("fn-Z(3)", None, 0, "fn-Z(3)"),
    ("fn-S3", None, 0, "fn-S3"),
    ("grp-S3", None, 0, "grp-S3"),
    # windows: NAME r=R, a radius parameter, the default radius 4
    ("free(2) r=3", None, 0, "free(2) r=3"),
    ("Z(1) r=5", None, 0, "Z(1) r=5"),
    ("free(2)", "radius=3", 0, "free(2) r=3"),
    ("free(1)", None, 0, "free(1) r=4"),
    ("Z(3)^2", None, 0, "Z(3)^2 r=4"),
    ("cyclic(6)", None, 0, "Z(6) r=4"),
    # rejected before or while the parent is built
    ("dual-Z(4) r=3", None, 2, None),
    ("dual-Z(1)", None, 2, None),
    ("fn-Z(65)", None, 2, None),
    ("free(2) r=x", None, 2, None),
    ("Z(0)", None, 2, None),
    ("Z(3)^0", None, 2, None),
    ("cyclic(1)", None, 2, None),
    ("free(0)", None, 2, None),
    ("no-such-parent", None, 2, None),
    # a parent over the element cap: a report, naming no parent
    ("free(2) r=11", None, 5, None),
])
def test_parent_spec_forms(tmp_path, spec, param, code, parent_id):
    argv = ["--preset", spec, "--experiment", "axioms", "--name", "x", "--out", str(tmp_path)]
    argv += [] if param is None else ["--param", param]
    assert cli.main(argv) == code
    path = tmp_path / "x.report.json"
    report = json.loads(path.read_text()) if path.exists() else None
    assert (report is None) == (code == 2)
    assert (report or {}).get("parent_id") == parent_id


def _document(directory, preset, name):
    """A structure-constant document of a preset, under another name."""
    from qgwb.serialize import qg_to_dict
    doc = qg_to_dict(presets.load_preset(preset))
    doc["name"] = name
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("by_env", [False, True])
def test_parent_document_forms(tmp_path, monkeypatch, by_env):
    path = _document(tmp_path, "fn-Z(2)", "two-points")
    if by_env:
        monkeypatch.setenv("QGWB_PRESET_DIR", str(tmp_path))
    spec = "two-points" if by_env else str(path)
    assert cli.main(["--preset", spec, "--experiment", "axioms", "--name", "x",
                     "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "x.report.json").read_text())
    assert report["parent_id"] == "two-points"


@pytest.mark.parametrize("source,name,closed_form", [
    ("kac-paljutkin", "dual-Z(8)", False),   # the name of C[Z_8], not its structure
    ("dual-Z(5)", "mine", True),             # the structure of C[Z_5], under another name
])
def test_kazhdan_closed_form_reads_structure_not_the_name(tmp_path, source, name, closed_form):
    path = _document(tmp_path, source, name)
    assert cli.main(["--preset", str(path), "--experiment", "kazhdan", "--name", "x",
                     "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "x.report.json").read_text())
    assert report["parent_id"] == name
    checks = {c["name"] for c in report["checks"]}
    assert ("gap_generator_vs_closed_form" in checks) == closed_form
