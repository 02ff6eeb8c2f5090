import math

import numpy as np
import pytest

from qgwb import functionals as F
from qgwb import genfun, linalg, presets
from qgwb.errors import (
    NotCentral,
    NotCND,
    NotNormalized,
    NotSelfadjoint,
    SelectionFailed,
    WindowTruncation,
)
from qgwb.windows import build_window


def word_length_functional(w):
    return F.Functional(w, np.array([float(w.length(g)) for g in w.elements]))


def central_kp_generator(cvals=(0.0, 1.0, 2.0, 3.0, 4.0)):
    g = presets.load_preset("kac-paljutkin")
    blocks = [cvals[a] * np.eye(n) for a, n in enumerate(g.block_dims)]
    return genfun.validate_generating(F.from_blocks(g, blocks))


def test_zero_generator():
    g = presets.load_preset("kac-paljutkin")
    gen = genfun.validate_generating(F.Functional(g, np.zeros(g.d)))
    assert gen.central and gen.s_invariant and gen.selfadjoint
    tri = genfun.schurmann_triple(gen)
    assert tri.dim == 0


def test_word_length_is_generating():
    w = build_window("Z(1)", 6)
    gen = genfun.validate_generating(word_length_functional(w))
    assert gen.central and gen.s_invariant


def test_negative_word_length_witnessed():
    w = build_window("Z(1)", 6)
    with pytest.raises(NotCND) as err:
        genfun.validate_generating(-1.0 * word_length_functional(w))
    assert err.value.witness is not None


def test_non_selfadjoint_rejected():
    g = presets.load_preset("dual-Z(3)")
    lf = F.Functional(g, np.array([0.0, 1j, -1j])) * 1j
    with pytest.raises(NotSelfadjoint):
        genfun.validate_generating(lf)


def test_free_group_word_length_generating():
    w = build_window("free(2)", 6)
    gen = genfun.validate_generating(word_length_functional(w))
    assert gen.s_invariant


# -- Schurmann triples ---------------------------------------------------------

def test_window_parent_has_no_triple():
    w = build_window("Z(1)", 6)
    gen = genfun.validate_generating(word_length_functional(w))
    with pytest.raises(NotCentral):
        genfun.schurmann_triple(gen)


def test_dual_z2_cocycle():
    g = presets.load_preset("dual-Z(2)")
    gen = genfun.validate_generating(F.Functional(g, np.array([0.0, 2.0])))
    tri = genfun.schurmann_triple(gen)
    assert tri.dim == 1
    # the defining identity gives <c(chi), c(chi)> = 2 L(chi) - L(chi^2 part)
    assert abs(tri.cocycle_gram[1, 1] - 4.0) < 1e-12


def test_gram_real_for_invariant_generator():
    gen = central_kp_generator()
    tri = genfun.schurmann_triple(gen)
    assert float(np.max(np.abs(tri.cocycle_gram.imag))) < 1e-8


def test_kp_cocycle_rule():
    gen = central_kp_generator()
    tri = genfun.schurmann_triple(gen)
    assert tri.cocycle_rule_residual < 1e-8


# -- triple-product matrices -----------------------------------------------------

def test_zero_generator_zero_forms():
    g = presets.load_preset("kac-paljutkin")
    gen = genfun.validate_generating(F.Functional(g, np.zeros(g.d)))
    rows = genfun.triple_form_matrices(gen, 0, 0, [0, 4])
    for r in rows:
        assert np.linalg.norm(r["matrix"]) < 1e-12


def test_window_scalar_form():
    w = build_window("Z(1)", 12)
    gen = genfun.validate_generating(word_length_functional(w))
    rows = genfun.triple_form_matrices(gen, (1,), (2,), [(3,)])
    # V = L(-1 + 3 + 2) = |4|
    assert abs(rows[0]["matrix"][0, 0] - 4.0) < 1e-12


def test_window_min_eig_exact():
    w = build_window("Z(1)", 12)
    gen = genfun.validate_generating(word_length_functional(w))
    gammas = [(l,) for l in range(1, 11)]
    rows = genfun.triple_form_matrices(gen, (0,), (0,), gammas)
    for l, r in enumerate(rows, start=1):
        assert r["min_eig"] == pytest.approx(float(l), abs=1e-12)
        assert r["lower_bound"] == pytest.approx(float(l), abs=1e-12)


def test_counit_legs_collapse():
    gen = central_kp_generator()
    g = gen.parent
    triv = g.trivial_block
    rows = genfun.triple_form_matrices(gen, triv, triv, list(range(5)))
    for a, r in enumerate(rows):
        n = g.block_dims[a]
        expected = gen.central_values[a].real * np.eye(n)
        assert np.linalg.norm(r["matrix"] - expected) < 1e-10


def test_kp_forms_hermitian_and_matching():
    gen = central_kp_generator()
    tri = genfun.schurmann_triple(gen)
    for alpha in range(5):
        for beta in range(5):
            rows = genfun.triple_form_matrices(gen, alpha, beta, list(range(5)),
                                               triple=tri)
            for r in rows:
                assert r["hermiticity"] < 1e-10
                assert r["route_residual"] < 1e-10
                assert r["min_eig"] >= r["lower_bound"] - 1e-9


def test_cocycle_norm_identity():
    gen = central_kp_generator()
    tri = genfun.schurmann_triple(gen)
    for gamma in range(5):
        assert genfun.cocycle_norm_residual(tri, gamma) < 1e-8


def test_cocycle_norm_trivial_block():
    gen = central_kp_generator()
    tri = genfun.schurmann_triple(gen)
    assert genfun.cocycle_norm_residual(tri, gen.parent.trivial_block) < 1e-12


def test_cocycle_norm_dual_z():
    n = 8
    g = presets.load_preset(f"dual-Z({n})")
    cvals = 1.0 - np.cos(2 * np.pi * np.arange(n) / n)
    gen = genfun.validate_generating(F.Functional(g, cvals))
    tri = genfun.schurmann_triple(gen)
    assert genfun.cocycle_norm_residual(tri, 1) < 1e-8
    # T^*T = ||c(chi_1)||^2 = 2 L(chi_1) in the one-dimensional case
    assert abs(tri.cocycle_gram[1, 1] - 2 * cvals[1]) < 1e-10


# -- unbounded generator construction ----------------------------------------------

def test_growth_constructor_eight_stages():
    report, gen = genfun.unbounded_generator_on_z(
        lambda k, m: math.exp(-abs(m) / k), eps=0.5, n_windows=8)
    assert len(report["stages"]) == 8
    for st in report["stages"]:
        assert st["witness_norm"] >= 2.0 ** st["l"] * 0.5 - 1e-9
    assert gen.central and gen.s_invariant


def test_growth_constant_sequence_fails():
    with pytest.raises(SelectionFailed) as err:
        genfun.construct_unbounded_generator(
            lambda k, m: 1.0, 0.5, [[0, 1]], [1, 2, 4, 8], [1, 2, 3, 4])
    assert err.value.condition == "escape"


def test_growth_norm_convergent_sequence_fails():
    # gauge -> 0 uniformly: no escape witness exists beyond some stage
    with pytest.raises(SelectionFailed) as err:
        genfun.construct_unbounded_generator(
            lambda k, m: math.exp(-1.0 / k), 0.5,
            [[0, 1], [0, 1, 2]], [1, 2, 4, 8, 16, 256, 1024],
            [1, 2, 4, 8, 16, 256, 1024])
    assert err.value.condition in ("escape", "smallness")


# -- pair-invariance bounds --------------------------------------------------------

def test_pair_bounds_z_window():
    w = build_window("Z(1)", 8)
    gen = genfun.validate_generating(word_length_functional(w))
    e = w.identity
    rows = genfun.pair_invariance_bounds(gen, 1.0, [(e, e)],
                                         [(l,) for l in (1, 2, 3)])
    for l, r in zip((1, 2, 3), rows):
        assert r["bound"] == pytest.approx(1 - 2 * math.exp(-2 * l), abs=1e-12)


def test_pair_bounds_t_zero_vacuous():
    w = build_window("Z(1)", 8)
    gen = genfun.validate_generating(word_length_functional(w))
    e = w.identity
    rows = genfun.pair_invariance_bounds(gen, 0.0, [(e, e)], [(1,)])
    assert rows[0]["bound"] == pytest.approx(-1.0)


def test_pair_bounds_free2_increasing():
    w = build_window("free(2)", 6)
    gen = genfun.validate_generating(word_length_functional(w))
    e = w.identity
    gammas = [(2,), (2, 2), (2, 2, 2)]
    # zeta spread over {e, g_1}: normalise first
    mu1 = F.semigroup_state(gen.base, 1.0)
    g1 = (1,)
    gram = np.array([[1.0, mu1.value(g1).real], [mu1.value(g1).real, 1.0]])
    c = 1.0 / math.sqrt(gram.sum())
    with pytest.raises(NotNormalized):
        genfun.pair_invariance_bounds(gen, 1.0, [(e, e), (g1, g1)], gammas)
    # normalised variant via a single pair
    rows = genfun.pair_invariance_bounds(gen, 1.0, [(e, e)], gammas)
    assert rows[0]["bound"] < rows[1]["bound"] < rows[2]["bound"]


def test_pair_bounds_window_truncation():
    w = build_window("Z(1)", 3)
    gen = genfun.validate_generating(word_length_functional(w))
    e = w.identity
    with pytest.raises(WindowTruncation):
        genfun.pair_invariance_bounds(gen, 1.0, [(e, e)], [(5,)])


# -- round trips ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dual-Z(4)", "kac-paljutkin"])
def test_derivative_round_trip(name):
    g = presets.load_preset(name)
    from qgwb._rng import CounterRNG
    rng = CounterRNG(3)
    mu = F.vector_state(g, rng.unit_vector(g.d))
    lf = 3.0 * (F.counit_functional(g) - mu)
    genfun.validate_generating(lf)
    norm = max(np.linalg.norm(b, 2) for b in lf.blocks())
    for h in (1e-3, 1e-4):
        rec = F.derivative_recovery(lf, h)
        err = float(np.max(np.abs(rec.coeffs - lf.coeffs)))
        assert err <= 5 * h * (1.0 + norm)


def test_schoenberg_forward():
    gen = central_kp_generator()
    for t in (0.1, 1.0, 10.0):
        assert F.is_state(F.semigroup_state(gen.base, t))


def test_schoenberg_converse_witness():
    # a non-CND selfadjoint vanishing functional gives a non-positive
    # semigroup member for small t
    w = build_window("Z(1)", 6)
    bad = -1.0 * word_length_functional(w)
    with pytest.raises(NotCND):
        genfun.validate_generating(bad)
    found_bad_t = False
    for t in (0.1, 1.0, 10.0):
        mu_t = F.semigroup_state(bad, t)
        if not F.is_positive(mu_t):
            found_bad_t = True
    assert found_bad_t


def test_growth_windows_come_from_the_preset_cache():
    runs = [genfun.unbounded_generator_on_z(
        lambda k, m: math.exp(-abs(m) / k), eps=0.5, n_windows=3)[1] for _ in range(2)]
    assert runs[0].parent is runs[1].parent is presets.load_preset("Z(1)", radius=6)


# -- stacked irrep-entry products against the per-entry loops ----------------------
# The loops below are the per-entry forms the stacked products replaced; the
# v_matrices reports print rounding-level residuals, so the stacked forms
# must reproduce them bit for bit, not within a tolerance.

def _loop_rhos(tri):
    f, g = tri.cocycle_vectors, tri.gen.parent
    pinv_ft = np.linalg.pinv(f.T)
    rhos = np.zeros((g.d, tri.dim, tri.dim), dtype=complex)
    for p in range(g.d):
        targets = np.zeros((g.d, tri.dim), dtype=complex)
        for q in range(g.d):
            targets[q] = np.asarray(g.mult[p, q], dtype=complex) @ f - g.counit[q] * f[p]
        rhos[p] = targets.T @ pinv_ft
    return rhos


def _loop_triple_form_direct(g, l, alpha, gamma, beta):
    u = [g.irreps[x].coeffs for x in (alpha, gamma, beta)]
    na, ng, nb = (len(x) for x in u)
    v = np.zeros((na * ng * nb, na * ng * nb), dtype=complex)
    for i in range(na):
        for p in range(na):
            a_star = g.star @ np.conj(u[0][i, p])
            for j in range(ng):
                for r in range(ng):
                    left = np.einsum("i,j,ijk->k", a_star, u[1][j, r], g.mult)
                    for k in range(nb):
                        for s in range(nb):
                            full = np.einsum("i,j,ijk->k", left, u[2][k, s], g.mult)
                            v[(i * ng + j) * nb + k, (p * ng + r) * nb + s] = l(full)
    return v


def _loop_triple_form_cocycle(g, tri, cvals, alpha, gamma, beta):
    u = [g.irreps[x].coeffs for x in (alpha, gamma, beta)]
    na, ng, nb = (len(x) for x in u)
    ca, cg, cb = cvals[alpha].real, cvals[gamma].real, cvals[beta].real
    f = tri.cocycle_vectors

    def cvec(x):
        return np.asarray(x, dtype=complex) @ f

    v = np.zeros((na * ng * nb, na * ng * nb), dtype=complex)
    for i in range(na):
        for p in range(na):
            c_a = cvec(u[0][i, p])
            for j in range(ng):
                for r in range(ng):
                    c_g = cvec(u[1][j, r])
                    c_g_star = cvec(g.star @ np.conj(u[1][j, r]))
                    rho_g = np.tensordot(u[1][j, r], tri.rhos, axes=([0], [0]))
                    for k in range(nb):
                        for s in range(nb):
                            c_b = cvec(u[2][k, s])
                            val = 0.0
                            if i == p and j == r and k == s:
                                val += ca + cg + cb
                            if i == p:
                                val -= np.vdot(c_g_star, c_b)
                            if k == s:
                                val -= np.vdot(c_a, c_g)
                            val -= np.vdot(c_a, rho_g @ c_b)
                            v[(i * ng + j) * nb + k, (p * ng + r) * nb + s] = val
    return v


def _loop_cocycle_norm_residual(g, tri, cg, gamma):
    u = g.irreps[gamma].coeffs
    ng = len(u)
    f = tri.cocycle_vectors
    cvecs = {(a, b): u[a, b] @ f for a in range(ng) for b in range(ng)}
    cstar = {(a, b): (g.star @ np.conj(u[a, b])) @ f
             for a in range(ng) for b in range(ng)}
    t_mat = np.zeros((ng, ng), dtype=complex)
    tt_mat = np.zeros((ng, ng), dtype=complex)
    for i in range(ng):
        for j in range(ng):
            t_mat[i, j] = sum(np.vdot(cvecs[i, a], cvecs[j, a]) for a in range(ng))
            tt_mat[i, j] = sum(np.vdot(cstar[a, i], cstar[a, j]) for a in range(ng))
    target = 2.0 * cg * np.eye(ng)
    return max(float(np.linalg.norm(t_mat - target)),
               float(np.linalg.norm(tt_mat - target)))


def _loop_cocycle_rule_residual(tri):
    f, g = tri.cocycle_vectors, tri.gen.parent
    worst = 0.0
    for b in range(g.d):
        for dd in range(g.d):
            cbd = np.asarray(g.mult[b, dd], dtype=complex) @ f
            rhs = tri.rhos[b] @ f[dd] + g.counit[dd] * f[b]
            worst = max(worst, float(np.linalg.norm(cbd - rhs)))
    return worst


@pytest.mark.parametrize("name,v_alpha", [
    ("fn-S3", None), ("kac-paljutkin", None), ("fn-Z(8)", None), ("dual-Z(5)", None),
    # v_matrices with alpha on the 2-dim block, which no golden covers
    ("fn-S3", 2), ("kac-paljutkin", 4),
], ids=["fn-S3", "kac-paljutkin", "fn-Z(8)", "dual-Z(5)", "fn-S3-alpha=2",
        "kac-paljutkin-alpha=4"])
def test_stacked_triple_paths_match_entry_loops(name, v_alpha):
    from qgwb.cli import _central_index_generator, _run_v_matrices
    g = presets.load_preset(name)
    gen = _central_index_generator(g)
    tri = genfun.schurmann_triple(gen)
    assert np.array_equal(tri.rhos, _loop_rhos(tri))
    assert tri.cocycle_rule_residual == _loop_cocycle_rule_residual(tri)
    x = np.random.default_rng(0).normal(size=(3, 2, g.d))
    assert np.array_equal(tri.cocycle(x), np.array(
        [[np.asarray(v, dtype=complex) @ tri.cocycle_vectors for v in row] for row in x]))
    assert np.array_equal(tri.rho(x), np.array(
        [[np.tensordot(v, tri.rhos, axes=([0], [0])) for v in row] for row in x]))
    cvals = gen.central_values
    blocks = range(len(g.block_dims))
    for alpha in blocks:
        for beta in blocks:
            # one call over all gammas, as triple_form_matrices makes it
            direct = list(genfun._triple_forms_direct(g, gen.base, alpha, blocks, beta))
            cocycle = {int(k): v for pos, stack in genfun._triple_forms_cocycle(
                g, tri, cvals, alpha, blocks, beta) for k, v in zip(pos, stack)}
            for gamma in blocks:
                args = (alpha, gamma, beta)
                assert np.array_equal(direct[gamma],
                                      _loop_triple_form_direct(g, gen.base, *args)), args
                assert np.array_equal(cocycle[gamma],
                                      _loop_triple_form_cocycle(g, tri, cvals, *args)), args
    for gamma in blocks:
        assert genfun.cocycle_norm_residual(tri, gamma) == \
            _loop_cocycle_norm_residual(g, tri, cvals[gamma].real, gamma)
    # the v_matrices report rows (alpha, beta as the experiment reads them)
    params = {} if v_alpha is None else {"alpha": v_alpha}
    alpha, beta = params.get("alpha", 1 % len(blocks)), 2 % len(blocks)
    assert g.block_dims[alpha] == (1 if v_alpha is None else 2)
    for row in _run_v_matrices(g, params, 1.0, 0)["per_stage"]:
        args = (alpha, row["gamma"], beta)
        direct = _loop_triple_form_direct(g, gen.base, *args)
        cocycle = _loop_triple_form_cocycle(g, tri, cvals, *args)
        assert row["route_residual"] == float(np.max(np.abs(cocycle - direct))), args
        assert row["hermiticity"] == float(np.linalg.norm(direct - direct.conj().T)), args
        assert row["min_eig"] == float(np.linalg.eigvalsh(0.5 * (direct + direct.conj().T))[0])


# -- the v_matrices rows against the per-gamma loops they replaced --------------------

def loop_triple_forms_cocycle(g, triple, cvals, alpha, gamma, beta):
    """The cocycle route for one gamma, as it was made before the stacks."""
    ua, ub = g.irreps[alpha].coeffs, g.irreps[beta].coeffs
    ca, cb = cvals[alpha].real, cvals[beta].real
    c_a = triple.cocycle(ua)[:, :, None, None, None, None]
    c_b = triple.cocycle(ub)
    ip = np.eye(len(ua), dtype=bool)[:, :, None, None, None, None]
    ks = np.eye(len(ub), dtype=bool)
    ug, cg = g.irreps[gamma].coeffs, cvals[gamma].real
    c_g = triple.cocycle(ug)[:, :, None, None]
    c_g_star = triple.cocycle(genfun._star(g, ug))[:, :, None, None]
    rho_c_b = linalg.rowmul(c_b, triple.rho(ug)[:, :, None, None].swapaxes(-1, -2))
    jr = np.eye(len(ug), dtype=bool)[:, :, None, None]
    v = np.where(ip & jr & ks, ca + cg + cb, 0.0)
    v = v - np.where(ip, linalg.vdots(c_g_star, c_b), 0.0)
    v = v - np.where(ks, linalg.vdots(c_a, c_g), 0.0)
    v = v - linalg.vdots(c_a, rho_c_b)
    return genfun._entry_matrix(v)


def loop_cocycle_norm(triple, gamma):
    g, cvals = triple.gen.parent, triple.gen.central_values
    ug = g.irreps[gamma].coeffs
    ng = len(ug)
    cvecs = triple.cocycle(ug)
    cvecs_star = triple.cocycle(genfun._star(g, ug))
    terms = linalg.vdots(cvecs[:, None], cvecs[None, :])
    terms_star = linalg.vdots(cvecs_star[:, :, None], cvecs_star[:, None, :])
    t_mat = sum(terms[:, :, a] for a in range(ng))
    tt_mat = sum(terms_star[a] for a in range(ng))
    target = 2.0 * cvals[gamma].real * np.eye(ng)
    return max(float(np.linalg.norm(t_mat - target)), float(np.linalg.norm(tt_mat - target)))


def loop_v_rows(g, gen, alpha, beta):
    """The v_matrices rows, one gamma at a time."""
    triple = genfun.schurmann_triple(gen)
    rows = []
    for gamma in range(len(g.block_dims)):
        v_direct, = genfun._triple_forms_direct(g, gen.base, alpha, [gamma], beta)
        v_primary = loop_triple_forms_cocycle(g, triple, gen.central_values, alpha, gamma, beta)
        rows.append({
            "gamma": gamma,
            "route_residual": float(np.max(np.abs(v_primary - v_direct))),
            "hermiticity": float(np.linalg.norm(v_direct - v_direct.conj().T)),
            "min_eig": float(np.linalg.eigvalsh(0.5 * (v_direct + v_direct.conj().T))[0]),
            "cocycle_norms": loop_cocycle_norm(triple, gamma)})
    return rows


V_QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]


def scaled_generator(g):
    """A central generator with inexact values: 1.2345 (counit - haar)."""
    return genfun.validate_generating(
        1.2345 * (F.counit_functional(g) - F.haar_functional(g)))


@pytest.mark.parametrize("name", V_QG_PRESETS)
def test_v_matrices_rows_match_the_gamma_loop(name):
    from qgwb.cli import _central_index_generator, _run_v_matrices
    g = presets.load_preset(name)
    n_blocks = len(g.block_dims)
    gammas = list(range(n_blocks))
    # the experiment's default (alpha, beta), and a 2-dim alpha where one exists
    pairs = [(1 % n_blocks, 2 % n_blocks)]
    pairs += [(a, 2 % n_blocks) for a in range(n_blocks) if g.block_dims[a] == 2][:1]
    for alpha, beta in pairs:
        report = _run_v_matrices(g, {"alpha": alpha, "beta": beta}, 1.0, 0)
        norms = {c["name"]: c["value"] for c in report["checks"]}
        ref_rows = loop_v_rows(g, _central_index_generator(g), alpha, beta)
        for row, ref in zip(report["per_stage"], ref_rows, strict=True):
            assert row["gamma"] == ref["gamma"]
            for key in ("route_residual", "hermiticity", "min_eig"):
                assert row[key] == ref[key], (alpha, beta, row["gamma"], key)
            assert norms[f"cocycle_norms:gamma={row['gamma']}"] == ref["cocycle_norms"]
        gen = scaled_generator(g)
        triple = genfun.schurmann_triple(gen)
        rows = genfun.triple_form_matrices(gen, alpha, beta, gammas, triple=triple)
        cocycle_norms = genfun.cocycle_norm_residual(triple, gammas)
        for row, tn, ref in zip(rows, cocycle_norms, loop_v_rows(g, gen, alpha, beta),
                                strict=True):
            assert [row[k] for k in ("gamma", "route_residual", "hermiticity", "min_eig")] \
                == [ref[k] for k in ("gamma", "route_residual", "hermiticity", "min_eig")]
            assert tn == ref["cocycle_norms"]


def test_cocycle_norm_residual_takes_a_gamma_or_a_sequence():
    from qgwb.cli import _central_index_generator
    g = presets.load_preset("kac-paljutkin")
    triple = genfun.schurmann_triple(_central_index_generator(g))
    gammas = [4, 0, 4, 2]
    got = genfun.cocycle_norm_residual(triple, gammas)
    assert isinstance(got, list) and got == [loop_cocycle_norm(triple, k) for k in gammas]
    assert isinstance(genfun.cocycle_norm_residual(triple, 4), float)


def test_form_checks_match_each_matrix():
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        a, b = (rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n)) for _ in range(2))
        b[0] = b[0] + b[0].conj().T        # a Hermitian one, as the routes give
        entry, herm, low = genfun._form_checks(a, b)
        for k in range(5):
            assert entry[k] == float(np.max(np.abs(a[k] - b[k])))
            assert herm[k] == float(np.linalg.norm(b[k] - b[k].conj().T))
            assert low[k] == float(np.linalg.eigvalsh(0.5 * (b[k] + b[k].conj().T))[0])


@pytest.mark.parametrize("name", ["fn-S3", "kac-paljutkin", "dual-Z(5)"])
def test_stacked_cocycle_norms_match_the_gamma_loop_on_random_cocycles(name):
    # random cocycle vectors make every sum inexact, so a change of order shows
    from qgwb.cli import _central_index_generator
    g = presets.load_preset(name)
    triple = genfun.schurmann_triple(_central_index_generator(g))
    rng = np.random.default_rng(17)
    shape = (g.d, max(triple.dim, 3))
    triple.cocycle_vectors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gammas = list(range(len(g.block_dims)))
    assert genfun.cocycle_norm_residual(triple, gammas) == [
        loop_cocycle_norm(triple, k) for k in gammas]
