"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line."""

import itertools
import math
import time

import numpy as np

from qgwb import actions, coreps, fock, genfun, linalg, presets
from qgwb import functionals as F
from qgwb._rng import CounterRNG
from qgwb.cli import delta_action, grading_action
from qgwb.core import dense_image_report
from qgwb.windows import build_window


def report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label} {detail}")
    assert passed, f"criterion {num} failed: {label} {detail}"


# -- 1: preset validation ------------------------------------------------------

def test_criterion_01_preset_validation():
    worst_time = 0.0
    worst_resid = 0.0
    for row in presets.preset_table():
        name, radius = row["name"], 4 if row["kind"] == "window" else None
        obj = presets.load_preset(name, radius=radius)
        t0 = time.time()
        if hasattr(obj, "validate"):
            resid = max(obj.validate().values())
            worst_resid = max(worst_resid, resid)
            assert resid < 1e-9, f"{name} residual {resid:.2e}"
        else:
            # windows run their invariant checks on construction
            presets.load_preset(name, radius=4)
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        assert elapsed < 1.0, f"{name} validation took {elapsed:.2f}s"
    report(1, "preset validation", True,
           f"(worst residual {worst_resid:.1e}, worst time {worst_time:.2f}s)")


# -- 2: semigroup round trip ------------------------------------------------------

def test_criterion_02_semigroup_round_trip():
    t0 = time.time()
    g = presets.load_preset("kac-paljutkin")
    rng = CounterRNG(0)
    mu = F.vector_state(g, rng.unit_vector(g.d))
    lf = 3.0 * (F.counit_functional(g) - mu)
    genfun.validate_generating(lf)
    grid = [0.1, 0.5, 1.0]
    states = {t: F.semigroup_state(lf, t) for t in grid}
    law = 0.0
    for s in grid:
        for t in grid:
            prod = F.convolve(states[s], states[t])
            direct = F.semigroup_state(lf, s + t)
            law = max(law, float(np.max(np.abs(prod.coeffs - direct.coeffs))))
    rec = F.derivative_recovery(lf, 1e-4)
    err = float(np.max(np.abs(rec.coeffs - lf.coeffs)))
    elapsed = time.time() - t0
    ok = law < 1e-9 and err < 1e-5 and elapsed < 2.0
    report(2, "generator/semigroup round trip", ok,
           f"(law {law:.1e}, recovery {err:.1e}, {elapsed:.2f}s)")


# -- 3: positive-definite semigroup on the free window ----------------------------

def test_criterion_03_free_window_semigroup():
    t0 = time.time()
    w = build_window("free(2)", 6)
    wl = F.Functional(w, np.array([float(w.length(g)) for g in w.elements]))
    genfun.validate_generating(wl)
    worst = -np.inf
    for t in (0.1, 1.0, 10.0):
        mu_t = F.semigroup_state(wl, t)
        gram = F.positivity_matrix(mu_t)
        lam = linalg.min_eig(0.5 * (gram + gram.conj().T))
        worst = max(worst, -lam)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(3, "word-length semigroup positive on free(2)", ok,
           f"(worst negativity {worst:.1e}, {elapsed:.2f}s)")


# -- 4: triple-form suite ----------------------------------------------------------

def test_criterion_04_triple_forms():
    t0 = time.time()
    g = presets.load_preset("kac-paljutkin")
    cvals = np.arange(5, dtype=float)
    blocks = [cvals[a] * np.eye(n) for a, n in enumerate(g.block_dims)]
    gen = genfun.validate_generating(F.from_blocks(g, blocks))
    assert gen.central and gen.s_invariant
    triple = genfun.schurmann_triple(gen)
    herm = routes = 0.0
    tnorm = 0.0
    for alpha in range(5):
        for beta in range(5):
            rows = genfun.triple_form_matrices(gen, alpha, beta, list(range(5)),
                                               triple=triple)
            for r in rows:
                herm = max(herm, r["hermiticity"])
                routes = max(routes, r["route_residual"])
    for gamma in range(5):
        tnorm = max(tnorm, genfun.cocycle_norm_residual(triple, gamma))
    w = build_window("Z(1)", 12)
    wl = F.Functional(w, np.array([float(w.length(x)) for x in w.elements]))
    wgen = genfun.validate_generating(wl)
    rows = genfun.triple_form_matrices(wgen, (0,), (0,),
                                       [(l,) for l in range(1, 11)])
    eig_exact = max(abs(r["min_eig"] - l) for l, r in enumerate(rows, start=1))
    elapsed = time.time() - t0
    ok = (herm < 1e-10 and routes < 1e-10 and tnorm < 1e-8
          and eig_exact == 0.0 and elapsed < 5.0)
    report(4, "central triple forms", ok,
           f"(herm {herm:.1e}, routes {routes:.1e}, norms {tnorm:.1e}, "
           f"eig exactness {eig_exact:.1e}, {elapsed:.2f}s)")


# -- 5: strongly unbounded generator growth -----------------------------------------

def test_criterion_05_unbounded_generator():
    t0 = time.time()
    report_out, gen = genfun.unbounded_generator_on_z(
        lambda k, m: math.exp(-abs(m) / k), eps=0.5, n_windows=8)
    stages = report_out["stages"]
    bounds_ok = all(st["witness_norm"] >= 2.0 ** st["l"] * 0.5 - 1e-12
                    for st in stages)
    elapsed = time.time() - t0
    ok = len(stages) >= 8 and bounds_ok and gen is not None and elapsed < 5.0
    report(5, "unbounded generator growth", ok,
           f"({len(stages)} stages, {elapsed:.2f}s)")


# -- 6: pair-representation bounds ---------------------------------------------------

def test_criterion_06_pair_bounds():
    t0 = time.time()
    w = build_window("free(2)", 6)
    wl = F.Functional(w, np.array([float(w.length(g)) for g in w.elements]))
    gen = genfun.validate_generating(wl)
    e = w.identity
    gammas = [(1,), (1, 1), (1, 1, 1)]
    rows = genfun.pair_invariance_bounds(gen, 1.0, [(e, e)], gammas)
    resid = max(abs(r["bound"] - (1 - 2 * math.exp(-2.0 * l)))
                for l, r in enumerate(rows, start=1))
    increasing = all(rows[i]["bound"] < rows[i + 1]["bound"]
                     for i in range(len(rows) - 1))
    elapsed = time.time() - t0
    ok = resid < 1e-12 and increasing and elapsed < 2.0
    report(6, "pair-representation bounds", ok,
           f"(residual {resid:.1e}, increasing={increasing}, {elapsed:.2f}s)")


# -- 7: Catalan moments and traciality -----------------------------------------------

def test_criterion_07_catalan_and_trace():
    t0 = time.time()
    f = fock.TruncatedFock(2, 8)
    s = f.s_operator(np.array([1.0, 0.0]))
    moments = f.vacuum_moments(s, [2, 4, 6, 8])
    catalan = {2: 1.0, 4: 2.0, 6: 5.0, 8: 14.0}
    moment_err = max(abs(moments[k] - catalan[k]) for k in catalan)
    s2 = f.s_operator(np.array([0.0, 1.0]))
    words = [list(c) for length in range(1, 5)
             for c in itertools.product([s, s2], repeat=length)]
    trace_resid = fock.trace_check(f, words)
    elapsed = time.time() - t0
    ok = moment_err < 1e-12 and trace_resid < 1e-9 and elapsed < 10.0
    report(7, "semicircular moments and vacuum trace", ok,
           f"(moments {moment_err:.1e}, trace {trace_resid:.1e}, {elapsed:.2f}s)")


# -- 8: lifted actions and the asymptotic-invariance experiment ----------------------

def compatible_preset_coreps():
    """(label, corep, conjugation, fock depth) for the standing test family."""
    out = []
    g2 = presets.load_preset("dual-Z(2)")
    out.append(("dual-Z(2):sign", coreps.block_corep(g2, 1), np.eye(1), 6))
    for n in (3, 4):
        g = presets.load_preset(f"dual-Z({n})")
        u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(n)])
        jm = np.zeros((n, n))
        for k in range(n):
            jm[(-k) % n, k] = 1.0
        out.append((f"dual-Z({n}):full", u, jm, 3))
    s3 = presets.load_preset("fn-S3")
    out.append(("fn-S3:std", coreps.block_corep(s3, 2), np.eye(2), 4))
    kp = presets.load_preset("kac-paljutkin")
    jkp = np.array([[-1.0, -1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    out.append(("kac-paljutkin:2dim", coreps.block_corep(kp, 4), jkp, 4))
    # constructive conjugations from the GNS of the dimension-weighted state
    for name in ("fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        w = np.zeros(g.d)
        for n, off in zip(g.block_dims, g.block_offsets):
            for i in range(n):
                w[off + i * n + i] = n / g.d
        c, _, jm = coreps.gns(g, w)
        out.append((f"{name}:gns-trace", c, jm, 2))
    return out


def test_criterion_08_lifted_action_identities():
    t0 = time.time()
    worst_inv = worst_int = 0.0
    for label, u, jm, depth in compatible_preset_coreps():
        assert coreps.check_condition_r(u, jm), label
        f = fock.TruncatedFock(u.space_dim, depth, j_conj=jm)
        act = fock.induced_action(fock.lift_rep(f, u))
        omegas = [np.eye(u.parent.d)[i] for i in range(u.parent.d)]
        rng = CounterRNG(8)
        z = rng.complex_vector(u.space_dim)
        worst_int = max(worst_int,
                        act.generator_intertwining_residual(z, omegas))
        zr = z + f.apply_j(z)
        zr = zr / np.linalg.norm(zr)
        s_op = f.s_operator(zr)
        words = [[s_op]]
        if depth >= 4:
            words.append([s_op, s_op])
        worst_inv = max(worst_inv, act.vacuum_invariance_residual(words))
    # asymptotic invariance on the 32-element dual
    n = 32
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(n)])
    jm = np.zeros((n, n))
    for k in range(n):
        jm[(-k) % n, k] = 1.0
    f = fock.TruncatedFock(n, 2, j_conj=jm)
    om = np.exp(2j * np.pi * np.arange(n) / n)
    zetas = []
    for k in (1, 2, 4, 8):
        z = np.zeros(n)
        z[k] = z[(-k) % n] = 1 / np.sqrt(2)
        zetas.append(z)
    rows = fock.asymptotic_invariance_experiment(f, u, zetas, om)
    trace_max = max(abs(r["trace"]) for r in rows)
    norm_err = max(abs(r["gns_norm"] - 1.0) for r in rows)
    defect_err = max(abs(r["action_defect"] - r["corep_defect"]) for r in rows)
    elapsed = time.time() - t0
    ok = (worst_inv < 1e-8 and worst_int < 1e-9 and trace_max <= 1e-10
          and norm_err < 1e-10 and defect_err < 1e-9 and elapsed < 20.0)
    report(8, "lifted actions and invariance experiment", ok,
           f"(invariance {worst_inv:.1e}, intertwining {worst_int:.1e}, "
           f"defect match {defect_err:.1e}, {elapsed:.2f}s)")


# -- 9: projection oracle and intertwiner counting -------------------------------------

def test_criterion_09_projection_oracle():
    worst = 0.0
    for name in ("dual-Z(4)", "fn-Z(3)", "fn-S3", "grp-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        cands = [coreps.block_corep(g, a) for a in range(len(g.block_dims))]
        cands.append(coreps.regular_corep(g))
        cands.append(coreps.direct_sum(cands[0], cands[-1]))
        for u in cands:
            p = np.tensordot(g.haar, u.u_coef(), axes=([0], [0]))
            p_checked = u.invariant_projection()
            worst = max(worst, float(np.linalg.norm(p - p_checked)))
    schur_ok = True
    for name in ("fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        blocks = [coreps.block_corep(g, a) for a in range(len(g.block_dims))]
        for a, u in enumerate(blocks):
            for b, v in enumerate(blocks):
                rank = coreps.tensor(u, coreps.contragredient(v)).invariant_rank()
                schur_ok = schur_ok and rank == (1 if a == b else 0)
    report(9, "projection averaging vs joint eigenspace", worst < 1e-8 and schur_ok,
           f"(projection deviation {worst:.1e}, intertwiner counts ok={schur_ok})")


# -- 10: Kazhdan gap closed form ---------------------------------------------------------

def test_criterion_10_gap_closed_form():
    worst = 0.0
    for n in (3, 8, 32):
        g = presets.load_preset(f"dual-Z({n})")
        u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(1, n)])
        xg = np.exp(2j * np.pi * np.arange(n) / n)
        gap = coreps.kazhdan_gap(u, [xg])
        worst = max(worst, abs(gap - 2.0 * math.sin(math.pi / n)))
    report(10, "spectral gap closed form", worst < 1e-9, f"(deviation {worst:.1e})")


# -- 11: action suite ---------------------------------------------------------------------

def test_criterion_11_action_suite():
    act = grading_action(presets.load_preset("dual-Z(2)"))
    impl = act.implement()
    unitary_ok = impl.implementation_residual < 1e-9
    fixed, expectation = actions.fixed_point_expectation(act)
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    e_ok = np.linalg.norm(expectation(x) - np.diag([1.0, 4.0])) < 1e-10
    p = impl.corep.invariant_projection()
    epap = max(float(np.linalg.norm(impl.pi(expectation(b)) @ p
                                    - p @ impl.pi(b) @ p)) for b in act.basis)
    cone_ok = actions.cone_preservation_check(act, [np.eye(2)[0], np.eye(2)[1]])
    s3 = presets.load_preset("fn-S3")
    vv_ok, vv_resid = actions.v_vbar_implementation_check(
        coreps.block_corep(s3, 2))
    consistent = True
    suite = [act, delta_action(presets.load_preset("fn-Z(4)")),
             delta_action(s3),
             actions.action_from_corep(
                 coreps.block_corep(presets.load_preset("kac-paljutkin"), 4))]
    for a in suite:
        rep = actions.spectral_gap_report(a)
        consistent = consistent and rep["consistent"]
    ok = (unitary_ok and e_ok and epap < 1e-9 and cone_ok and vv_ok
          and vv_resid < 1e-8 and consistent)
    report(11, "action implementation suite", ok,
           f"(E(a)p=pap {epap:.1e}, conjugate-pair residual {vv_resid:.1e})")


# -- 12: dense-image analyzer ----------------------------------------------------------------

def test_criterion_12_dense_image():
    kp = presets.load_preset("kac-paljutkin")
    z4, z2 = presets.load_preset("fn-Z(4)"), presets.load_preset("fn-Z(2)")
    restrict = np.zeros((2, 4))
    restrict[0, 0] = restrict[1, 2] = 1.0
    pullback = np.zeros((4, 2))
    pullback[0, 0] = pullback[2, 0] = 1.0
    pullback[1, 1] = pullback[3, 1] = 1.0
    reports = [
        dense_image_report(kp, kp, np.eye(kp.d)),
        dense_image_report(z4, z2, restrict),
        dense_image_report(z2, z4, pullback),
    ]
    verdicts = [r["dense_image"] for r in reports]
    agree = all(
        len({r["injective_dual"], r["injective_dual_reduced"],
             r["bicharacter_span"], r["surjective"]}) == 1 for r in reports)
    ok = verdicts == [True, True, False] and agree
    report(12, "dense-image analyzer", ok, f"(verdicts {verdicts})")
