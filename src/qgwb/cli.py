"""Batch scenario runner.

Runs named experiment suites against presets or structure-constant
documents and writes machine-readable reports.  Reports are deterministic:
identical inputs produce byte-identical JSON (fixed iteration orders, no
wall-clock data in the payload; timings live in the .meta.json sidecar).

Exit codes: 0 all contracts passed; 2 schema errors; 3 axiom violations;
4 contract failures (report still written); 5 resource caps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import actions, coreps, fock, functionals, genfun, linalg, presets
from ._rng import CounterRNG
from .core import FiniteQG, dense_image_report
from .errors import (
    RESOURCE_CAP_ERRORS,
    AxiomViolation,
    HaarNotFound,
    NonUnique,
    NotAMorphism,
    QGWBError,
    SchemaError,
    UnknownPreset,
    WindowTruncation,
)
from .serialize import load_qg

EXPERIMENTS = {}  # id -> (body, {parent kind: parameter names})
PARENT_KINDS = {"qg": "a quantum group parent", "window": "a window parent",
                "none": "no parent"}
PRESET_DIR_ENV = "QGWB_PRESET_DIR"
NAME_MAX = 255  # bytes in one file name on common file systems


def experiment(name, **takes):
    """Register an experiment body.  Each keyword names a parent kind the
    experiment runs on ("qg", "window" or "none") and gives the parameter
    names it reads on that kind; run_scenario rejects anything else."""
    def deco(fn):
        EXPERIMENTS[name] = (fn, takes)
        return fn
    return deco


def _check(name, value, tol, passed=None):
    value = float(value)
    if passed is None:
        passed = bool(value <= tol)
    return {"name": name, "value": value, "tol": float(tol), "passed": bool(passed)}


def _param(params, key, default, lo=None, hi=None):
    """Read one experiment parameter, default when absent.  The default's
    type sets the rule: int, an int that is not a bool; float, an int or
    float, returned as a float; list, a non-empty list of numbers.  A value
    that breaks its rule or the bounds lo <= value < hi raises SchemaError."""
    value = params.get(key, default)

    def number(x, kinds=(int, float)):
        return isinstance(x, kinds) and not isinstance(x, bool)

    if isinstance(default, list):
        rule = "a non-empty list of numbers"
        ok = isinstance(value, list) and len(value) > 0 and all(map(number, value))
    elif isinstance(default, float):
        rule, ok = "a number", number(value)
    else:
        rule, ok = "an integer", number(value, int)
    ok = ok and (lo is None or value >= lo) and (hi is None or value < hi)
    if not ok:
        bounds = " and".join(f" {op} {b}" for op, b in ((">=", lo), ("<", hi)) if b is not None)
        raise SchemaError(f"parameter {key!r} must be {rule}{bounds}, got {value!r}")
    return float(value) if isinstance(default, float) else value


def _positive(params, key, default):
    """_param for a float that must also be finite and > 0."""
    value = _param(params, key, default)
    if not 0 < value < math.inf:
        raise SchemaError(f"parameter {key!r} must be a finite number > 0, got {value!r}")
    return value


def _word_length(window):
    """The word-length generating functional L(g) = |g| on a window."""
    return functionals.Functional(window, window.lengths)


def _generator_powers(window, l_max):
    """g, g^2, ..., g^l_max for the first generator g of a window; raises
    WindowTruncation when a power leaves the window."""
    gen_label = window.elements[1]
    powers, cur = [], window.identity
    for l in range(1, l_max + 1):
        cur = window.mul(cur, gen_label)
        if cur is None:
            raise WindowTruncation(f"power {l} of {gen_label!r} leaves the window")
        powers.append(cur)
    return powers


def _resolve_parent(spec, radius):
    """Preset name, 'NAME r=R' window form, or a document path.  Only a name
    that is no preset is looked up as a document; a spec or document that
    cannot be read raises SchemaError."""
    spec = str(spec).strip()
    try:
        if " r=" in spec:
            name, _, r = spec.rpartition(" r=")
            return presets.load_preset(name.strip(), radius=int(r))
        with contextlib.suppress(UnknownPreset):
            return presets.load_preset(spec, radius=radius)
        candidates = [spec]
        extra = os.environ.get(PRESET_DIR_ENV)
        if extra:
            for root in extra.split(os.pathsep):
                candidates.append(os.path.join(root, spec))
                candidates.append(os.path.join(root, spec + ".json"))
        for path in candidates:
            if os.path.isfile(path):
                return load_qg(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"cannot read parent {spec!r}: {exc}") from exc
    raise SchemaError(f"unknown preset or document {spec!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@experiment("axioms", qg=(), window=())
def _run_axioms(parent, params, tol_scale, seed):
    checks = []
    if isinstance(parent, FiniteQG):
        tol = 1e-9 * tol_scale
        for name in sorted(parent.residuals):
            checks.append(_check(f"axiom:{name}", parent.residuals[name], tol))
        for name in sorted(parent.dual().residuals):
            checks.append(_check(f"dual:{name}", parent.dual().residuals[name], tol))
        checks.append(_check("kac", 0.0 if parent.kac else 1.0, 0.5))
    else:
        checks.append(_check("window:size", parent.d, float("inf"), True))
        checks.append(_check("window:identity_length", parent.lengths[0], 0.0,
                             parent.lengths[0] == 0))
    return {"checks": checks}


@experiment("semigroup", qg=("t_grid", "h"), window=("t_grid",))
def _run_semigroup(parent, params, tol_scale, seed):
    checks = []
    if isinstance(parent, FiniteQG):
        grid = _param(params, "t_grid", [0.1, 0.5, 1.0])
        h = _positive(params, "h", 1e-4)
        rng = CounterRNG(seed)
        mu = functionals.vector_state(parent, rng.unit_vector(parent.d))
        lf = 3.0 * (functionals.counit_functional(parent) - mu)
        gen = genfun.validate_generating(lf)
        states = functionals.semigroup_state(lf, grid)
        law = functionals.semigroup_law_residuals(lf, grid, states)
        worst = max([0.0] + [resid for _, resid in law])
        checks.append(_check("semigroup_law", worst, 1e-9 * tol_scale))
        state_ok = all(functionals.is_state(s, 1e-9 * tol_scale) for s in states)
        checks.append(_check("members_are_states", 0.0 if state_ok else 1.0, 0.5))
        rec = functionals.derivative_recovery(lf, h, order=2)
        err = float(np.max(np.abs(rec.coeffs - lf.coeffs)))
        checks.append(_check("derivative_recovery", err, 1e-5 * tol_scale))
    else:
        grid = _param(params, "t_grid", [0.1, 1.0, 10.0])
        wl = _word_length(parent)
        genfun.validate_generating(wl)
        checks.append(_check("generator_valid", 0.0, 0.5, True))
        for t, mu_t in zip(grid, functionals.semigroup_state(wl, grid)):
            gram = functionals.positivity_matrix(mu_t)
            lam = linalg.min_eig(0.5 * (gram + gram.conj().T))
            checks.append(_check(f"gram_min_eig:t={t}", max(0.0, -lam),
                                 1e-9 * tol_scale))
    return {"checks": checks}


@experiment("kazhdan", qg=())
def _run_kazhdan(parent, params, tol_scale, seed):
    checks = []
    nontrivial = [a for a in range(len(parent.block_dims))
                  if a != parent.trivial_block]
    u = coreps.direct_sum(*[coreps.block_corep(parent, a) for a in nontrivial])
    gap_units = coreps.kazhdan_gap(u, coreps.dual_matrix_units(parent))
    checks.append(_check("gap_matrix_units_positive", 0.0 if gap_units > 0 else 1.0, 0.5))
    if parent.key.startswith("dual-Z("):
        n = parent.d
        xg = np.exp(2j * np.pi * np.arange(n) / n)
        gap = coreps.kazhdan_gap(u, [xg])
        expected = 2.0 * math.sin(math.pi / n)
        checks.append(_check("gap_generator_vs_closed_form", abs(gap - expected),
                             1e-9 * tol_scale))
        return {"checks": checks, "gap": float(gap), "expected": expected}
    return {"checks": checks, "gap": float(gap_units)}


def _conjugate_block(parent: FiniteQG, alpha: int) -> int:
    """Index of the block carrying the conjugate irrep, via the dual antipode."""
    q0 = int(parent.block_offsets[alpha])
    col = np.abs(parent.dual().antipode[:, q0])
    q_target = int(np.argmax(col))
    for a, (n, off) in enumerate(zip(parent.block_dims, parent.block_offsets)):
        if off <= q_target < off + n * n:
            return a
    raise AxiomViolation("dual antipode does not permute the blocks")


def _central_index_generator(parent: FiniteQG):
    """Index-weighted central generator, symmetrised over conjugate blocks;
    falls back to a multiple of (counit - haar), which is central and
    conditionally negative definite on every parent."""
    idx = np.arange(len(parent.block_dims), dtype=float)
    idx[parent.trivial_block] = 0.0
    cvals = np.array([0.5 * (idx[a] + idx[_conjugate_block(parent, a)])
                      for a in range(len(parent.block_dims))])
    blocks = [cvals[a] * np.eye(n) for a, n in enumerate(parent.block_dims)]
    try:
        return genfun.validate_generating(functionals.from_blocks(parent, blocks))
    except genfun.NotCND:
        scale = float(len(parent.block_dims))
        lf = scale * (functionals.counit_functional(parent)
                      - functionals.haar_functional(parent))
        return genfun.validate_generating(lf)


@experiment("v_matrices", qg=("alpha", "beta"), window=("l_max",))
def _run_v_matrices(parent, params, tol_scale, seed):
    checks = []
    stage_rows = []
    if isinstance(parent, FiniteQG):
        n_blocks = len(parent.block_dims)
        alpha = _param(params, "alpha", 1 % n_blocks, 0, n_blocks)
        beta = _param(params, "beta", 2 % n_blocks, 0, n_blocks)
        gen = _central_index_generator(parent)
        triple = genfun.schurmann_triple(gen)
        gammas = list(range(n_blocks))
        rows = genfun.triple_form_matrices(gen, alpha, beta, gammas, triple=triple)
        for r in rows:
            stage_rows.append({
                "gamma": int(r["gamma"]),
                "min_eig": r["min_eig"],
                "lower_bound": r["lower_bound"],
                "hermiticity": r["hermiticity"],
                "route_residual": r["route_residual"],
            })
            checks.append(_check(f"hermitian:gamma={r['gamma']}",
                                 r["hermiticity"], 1e-10 * tol_scale))
            checks.append(_check(f"routes_agree:gamma={r['gamma']}",
                                 r["route_residual"], 1e-10 * tol_scale))
            tn = genfun.cocycle_norm_residual(triple, int(r["gamma"]))
            checks.append(_check(f"cocycle_norms:gamma={r['gamma']}", tn,
                                 1e-8 * tol_scale))
    else:
        l_max = _param(params, "l_max", min(parent.radius, 10), 0)
        wl = _word_length(parent)
        gen = genfun.validate_generating(wl)
        e = parent.identity
        rows = genfun.triple_form_matrices(gen, e, e, _generator_powers(parent, l_max))
        for l, r in enumerate(rows, start=1):
            stage_rows.append({"gamma": repr(r["gamma"]), "min_eig": r["min_eig"],
                               "lower_bound": r["lower_bound"]})
            checks.append(_check(f"min_eig_exact:l={l}", abs(r["min_eig"] - l),
                                 1e-12 * tol_scale))
    return {"checks": checks, "per_stage": stage_rows}


@experiment("theorem69", none=("eps", "n_windows"))
def _run_unbounded_growth(parent, params, tol_scale, seed):
    eps = _param(params, "eps", 0.5)
    n_windows = _param(params, "n_windows", 8, 1)
    report, gen = genfun.unbounded_generator_on_z(
        lambda k, m: math.exp(-abs(m) / k), eps=eps, n_windows=n_windows)
    checks = []
    stage_rows = []
    for st in report["stages"]:
        ok = st["witness_norm"] >= st["witness_bound"] - 1e-12
        checks.append(_check(f"witness_bound:l={st['l']}",
                             max(0.0, st["witness_bound"] - st["witness_norm"]),
                             1e-9 * tol_scale, ok))
        stage_rows.append({"l": st["l"], "k": st["k"],
                           "witness": int(st["witness"]),
                           "witness_norm": st["witness_norm"],
                           "witness_bound": st["witness_bound"]})
    checks.append(_check("stages_completed", len(report["stages"]),
                         float("inf"), len(report["stages"]) >= n_windows))
    checks.append(_check("generator_valid_on_windows", 0.0, 0.5, True))
    return {"checks": checks, "per_stage": stage_rows}


@experiment("lemma74", window=("t", "l_max"))
def _run_pair_bounds(parent, params, tol_scale, seed):
    t = _param(params, "t", 1.0)
    l_max = _param(params, "l_max", 3, 0)
    wl = _word_length(parent)
    gen = genfun.validate_generating(wl)
    e = parent.identity
    rows = genfun.pair_invariance_bounds(gen, t, [(e, e)],
                                         _generator_powers(parent, l_max))
    checks = []
    stage_rows = []
    prev = -np.inf
    for l, r in enumerate(rows, start=1):
        expected = 1.0 - 2.0 * math.exp(-2.0 * t * l)
        stage_rows.append({"l": l, "gamma": repr(r["gamma"]),
                           "bound": r["bound"], "expected": expected})
        checks.append(_check(f"bound_closed_form:l={l}",
                             abs(r["bound"] - expected), 1e-12 * tol_scale))
        checks.append(_check(f"bound_increasing:l={l}",
                             0.0 if r["bound"] > prev else 1.0, 0.5))
        prev = r["bound"]
    return {"checks": checks, "per_stage": stage_rows}


def grading_action(parent: FiniteQG) -> actions.Action:
    """The degree action of the two-element dual on M_2."""
    if parent.d != 2 or not parent.key.startswith("dual-Z(2"):
        raise SchemaError("the grading action lives over dual-Z(2)")
    alpha = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            alpha[(a - b) % 2, a, b, a, b] = 1.0
    return actions.Action(parent, [2], alpha, invariant_state=np.eye(2) / 2)


def delta_action(parent: FiniteQG) -> actions.Action:
    """Self-action by the coproduct for pointwise (diagonal) parents."""
    d = parent.d
    diag = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        diag[i, i, i] = 1.0
    if np.linalg.norm(parent.mult - diag) > 1e-12:
        raise SchemaError("the coproduct self-action needs a pointwise parent")
    alpha = np.zeros((d, d, d, d, d), dtype=complex)
    g, a, b = np.nonzero(np.abs(parent.comult) > 1e-12)
    alpha[a, b, b, g, g] = parent.comult[g, a, b]
    theta = np.diag(parent.haar).astype(complex)
    return actions.Action(parent, [1] * d, alpha, invariant_state=theta)


@experiment("action_suite", qg=())
def _run_action_suite(parent, params, tol_scale, seed):
    checks = []
    acts = []
    if parent.key.startswith("dual-Z(2"):
        acts.append(("grading", grading_action(parent)))
    try:
        acts.append(("coproduct", delta_action(parent)))
    except SchemaError:
        pass
    # corepresentation-induced actions on B(K) for the small blocks
    for a, n in enumerate(parent.block_dims):
        if n >= 2 or (n == 1 and a != parent.trivial_block and len(acts) == 0):
            acts.append((f"conjugation:block={a}",
                         actions.action_from_corep(coreps.block_corep(parent, a))))
            break
    for name, act in acts:
        impl = act.implement()
        checks.append(_check(f"{name}:implementation", impl.implementation_residual,
                             1e-9 * tol_scale))
        checks.append(_check(f"{name}:condition_r",
                             0.0 if impl.condition_r else 1.0, 0.5))
        fixed, expectation = actions.fixed_point_expectation(act)
        checks.append(_check(f"{name}:fixed_dim", len(fixed), float("inf"), True))
        if parent.kac:
            basis = [np.eye(parent.d)[i] for i in range(min(parent.d, 2))]
            ok = actions.cone_preservation_check(act, basis)
            checks.append(_check(f"{name}:cone", 0.0 if ok else 1.0, 0.5))
        rep = actions.spectral_gap_report(act)
        checks.append(_check(f"{name}:gap_consistent",
                             0.0 if rep["consistent"] else 1.0, 0.5))
    # the implementation-comparison identity on the largest block corep
    big = int(np.argmax(parent.block_dims))
    ok, resid = actions.v_vbar_implementation_check(coreps.block_corep(parent, big))
    checks.append(_check("conjugate_pair_implementation",
                         resid if np.isfinite(resid) else 1.0, 1e-8 * tol_scale, ok))
    return {"checks": checks}


@experiment("fock_suite", none=("depth",), qg=("depth",))
def _run_fock_suite(parent, params, tol_scale, seed):
    depth = _param(params, "depth", 8, 1)
    checks = []
    f2 = fock.TruncatedFock(2, depth)
    zeta = np.array([1.0, 0.0])
    s = f2.s_operator(zeta)
    moments = f2.vacuum_moments(s, [2, 4, 6, 8])
    catalan = {2: 1.0, 4: 2.0, 6: 5.0, 8: 14.0}
    for k in sorted(catalan):
        checks.append(_check(f"catalan_m{k}", abs(moments[k] - catalan[k]),
                             1e-12 * tol_scale))
    s1, s2 = f2.s_operator(np.array([1.0, 0.0])), f2.s_operator(np.array([0.0, 1.0]))
    words = []
    import itertools as it
    for length in range(1, 5):
        for combo in it.product([s1, s2], repeat=length):
            words.append(list(combo))
    checks.append(_check("vacuum_traciality", fock.trace_check(f2, words),
                         1e-9 * tol_scale))
    if parent is not None:
        # GNS of the dimension-weighted invariant dual state, lifted
        w = np.zeros(parent.d)
        for n, off in zip(parent.block_dims, parent.block_offsets):
            for i in range(n):
                w[off + i * n + i] = n / parent.d
        corep, omega, jm = coreps.gns(parent, w)
        if jm is None:
            raise AxiomViolation("dual trace state is not conjugation-invariant")
        fk = fock.TruncatedFock(corep.space_dim, 2, j_conj=jm)
        lifted = fock.lift_rep(fk, corep)
        act = fock.induced_action(lifted)
        omegas = [np.eye(parent.d)[i] for i in range(parent.d)]
        # a J-real unit vector in the corep space
        v = np.ones(corep.space_dim, dtype=complex)
        v = v + fk.apply_j(v)
        v = v / np.linalg.norm(v)
        checks.append(_check("generator_intertwining",
                             act.generator_intertwining_residual(v, omegas),
                             1e-9 * tol_scale))
        sv = fk.s_operator(v)
        checks.append(_check("vacuum_invariance",
                             act.vacuum_invariance_residual([[sv]]),
                             1e-8 * tol_scale))
        checks.append(_check("word_multiplicativity",
                             act.multiplicativity_residual([sv]),
                             1e-9 * tol_scale))
    return {"checks": checks}


@experiment("dense_image", none=())
def _run_dense_image(parent, params, tol_scale, seed):
    kp = presets.load_preset("kac-paljutkin")
    ident = np.eye(kp.d)
    rep1 = dense_image_report(kp, kp, ident)
    z4, z2 = presets.load_preset("fn-Z(4)"), presets.load_preset("fn-Z(2)")
    restrict = np.zeros((2, 4))
    restrict[0, 0] = 1.0
    restrict[1, 2] = 1.0
    rep2 = dense_image_report(z4, z2, restrict)
    pullback = np.zeros((4, 2))
    pullback[0, 0] = pullback[2, 0] = 1.0
    pullback[1, 1] = pullback[3, 1] = 1.0
    rep3 = dense_image_report(z2, z4, pullback)
    checks = []
    for name, rep, expected in [("identity", rep1, True),
                                ("restriction", rep2, True),
                                ("pullback", rep3, False)]:
        verdicts = [rep["injective_dual"], rep["injective_dual_reduced"],
                    rep["bicharacter_span"], rep["surjective"]]
        checks.append(_check(f"{name}:verdict", 0.0 if rep["dense_image"] == expected else 1.0, 0.5))
        checks.append(_check(f"{name}:conditions_agree",
                             0.0 if len(set(verdicts)) == 1 else 1.0, 0.5))
    return {"checks": checks}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_scenario(scenario, out_dir="."):
    """Execute one scenario; returns (exit_code, report_path or None).  An
    error while building the parent exits as one in the experiment body; an
    exception outside the workbench's own errors is a failed contract (exit
    4) with a report that names it."""
    try:
        name = scenario["name"]
        experiment_id = scenario["experiment"]
        parent_spec = scenario.get("parent", scenario.get("preset"))
        params = dict(scenario.get("parameters", {}))
        if not isinstance(name, str) or name in ("", ".", "..") or \
                os.path.basename(name) != name or "\0" in name:
            raise SchemaError(f"scenario name {name!r} is not a plain file name")
        if len(f"{name}.report.json".encode("utf-8")) > NAME_MAX:
            raise SchemaError(f"scenario name makes a report file name over "
                              f"{NAME_MAX} bytes: {name[:40]!r}...")
        tol_scale = _positive(scenario, "tol_scale", 1.0)
        seed = _param(scenario, "seed", 0)
        if experiment_id not in EXPERIMENTS:
            raise SchemaError(f"unknown experiment {experiment_id!r}")
        run, takes = EXPERIMENTS[experiment_id]
        spec = str(parent_spec).strip()
        kind = ("none" if parent_spec is None else
                "window" if presets.is_window_preset(spec) else "qg")
        if kind == "qg" and " r=" in spec:
            raise SchemaError(f"a ' r=R' radius names a window, and "
                              f"{spec.rpartition(' r=')[0].strip()!r} is no window preset")
        if kind not in takes:
            raise SchemaError(f"{experiment_id} takes "
                              f"{' or '.join(PARENT_KINDS[k] for k in takes)}, "
                              f"got {parent_spec!r}")
        # a window preset named without a radius takes it as a parameter
        reads = takes[kind] + (("radius",) if kind == "window" and " r=" not in spec else ())
        unknown = sorted(set(params) - set(reads))
        if unknown:
            raise SchemaError(f"{experiment_id} with {PARENT_KINDS[kind]} reads no "
                              f"parameter {', '.join(map(repr, unknown))}; it reads "
                              f"{', '.join(map(repr, reads)) or 'none'}")
        radius = _param(params, "radius", 4, 1) if "radius" in params else None
    except (SchemaError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2, None

    parent, started = None, time.time()
    try:
        if parent_spec is not None:
            parent = _resolve_parent(parent_spec, radius)
        body = run(parent, params, tol_scale, seed)
        failure = None
    except RESOURCE_CAP_ERRORS as exc:
        body, failure = {"checks": []}, (5, exc)
    except (AxiomViolation, HaarNotFound, NonUnique, NotAMorphism) as exc:
        body, failure = {"checks": []}, (3, exc)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2, None
    except QGWBError as exc:
        body, failure = {"checks": []}, (4, exc)
    except Exception as exc:
        traceback.print_exc()  # an unexpected error: show where it came from
        body, failure = {"checks": []}, (4, exc)
    elapsed = time.time() - started

    report = {
        "name": name,
        "experiment": experiment_id,
        "parent_id": getattr(parent, "key", None),
        "parameters": params,
        "tol_scale": tol_scale,
        "seed": seed,
        "checks": body.get("checks", []),
        "per_stage": body.get("per_stage", []),
    }
    for key, value in body.items():
        if key not in report:
            report[key] = value
    if failure is not None:
        report["error"] = {"type": type(failure[1]).__name__,
                           "message": str(failure[1])}
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, f"{name}.report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")
    with open(os.path.join(out_dir, f"{name}.report.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value", "tol", "passed"])
        for c in report["checks"]:
            writer.writerow([c["name"], repr(c["value"]), repr(c["tol"]), c["passed"]])
        if report["per_stage"]:
            cols = sorted({k for row in report["per_stage"] for k in row})
            writer.writerow([])
            writer.writerow(cols)
            for row in report["per_stage"]:
                writer.writerow([repr(row.get(c, "")) for c in cols])
    with open(os.path.join(out_dir, f"{name}.meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"elapsed_seconds": elapsed, "version": "0.1.0"}, fh, sort_keys=True)
        fh.write("\n")
    if failure is not None:
        sys.stderr.write(f"{type(failure[1]).__name__}: {failure[1]}\n")
        return failure[0], report_path
    # a report with no checks verifies nothing, so it does not pass
    if not report["checks"] or not all(c["passed"] for c in report["checks"]):
        return 4, report_path
    return 0, report_path


def list_presets_table():
    return presets.preset_table()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qgwb", description="finite quantum group workbench runner")
    parser.add_argument("batch", nargs="?", help="scenario JSON file (object or array)")
    parser.add_argument("--list-presets", action="store_true")
    parser.add_argument("--preset", help="preset name or document path")
    parser.add_argument("--experiment", help="experiment id")
    parser.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="experiment parameter")
    parser.add_argument("--name", default="scenario")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.list_presets:
        rows = list_presets_table()
        widths = (max(len(r["name"]) for r in rows), 6)
        print(f"{'name':<{widths[0]}}  kind    dim  kac    max_block")
        for r in rows:
            dim = "-" if r["dim"] is None else r["dim"]
            print(f"{r['name']:<{widths[0]}}  {r['kind']:<6}  {dim!s:<3}  "
                  f"{str(r['kac']).lower():<5}  {r['max_block_dim']}")
        return 0

    scenarios = []
    if args.batch:
        try:
            with open(args.batch, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"schema error: {exc}\n")
            return 2
        scenarios = doc if isinstance(doc, list) else [doc]
    elif args.experiment:
        params = {}
        for kv in args.param:
            k, _, v = kv.partition("=")
            try:
                params[k] = json.loads(v)
            except json.JSONDecodeError:
                params[k] = v
        scenarios = [{
            "name": args.name,
            "preset": args.preset,
            "experiment": args.experiment,
            "parameters": params,
            "tol_scale": args.tol_scale,
            "seed": args.seed,
        }]
    else:
        parser.print_usage()
        return 2

    worst = 0
    for sc in scenarios:
        code, _ = run_scenario(sc, out_dir=args.out)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
