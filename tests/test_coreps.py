import copy
import time
import tracemalloc

import numpy as np
import pytest

from qgwb import cli, coreps, linalg, presets
from qgwb._rng import CounterRNG
from qgwb.errors import AxiomViolation, BudgetExceeded, EmptyQ, NotAState


def all_block_coreps(g):
    return [coreps.block_corep(g, a) for a in range(len(g.block_dims))]


@pytest.mark.parametrize("name", ["dual-Z(4)", "fn-S3", "grp-S3", "kac-paljutkin"])
def test_block_coreps_validate(name):
    g = presets.load_preset(name)
    for c in all_block_coreps(g):
        assert max(c.validate().values()) < 1e-9


QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]


def _nontrivial_sum(g):
    return coreps.direct_sum(*[coreps.block_corep(g, a) for a in range(len(g.block_dims))
                               if a != g.trivial_block])


@pytest.mark.parametrize("name", QG_PRESETS)
def test_carried_bounds_hold_against_full_validation(name):
    # the block coreps and the kazhdan direct sum skip validation on their
    # carried bounds; the full residuals stay within them
    g = presets.load_preset(name)
    for u in all_block_coreps(g) + [_nontrivial_sum(g)]:
        full = u.validate()
        assert full.keys() == u.residuals.keys()
        for key in ("star", "unital", "product"):
            assert full[key] == 0.0 == u.residuals[key], key
        for key in ("corep", "unitary"):
            assert full[key] <= u.residuals[key] + 1e-15, (key, full[key], u.residuals[key])


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    validate = coreps.Corep.validate

    def counted(self):
        calls.append(self.space_dim)
        return validate(self)

    monkeypatch.setattr(coreps.Corep, "validate", counted)
    return calls


@pytest.mark.parametrize("key", ["irrep_coproduct", "irrep_unitary"])
def test_bounds_past_tol_fall_back_to_full_validation(key, validate_calls):
    g = presets.load_preset("kac-paljutkin")
    big = g.block_dims.index(2)
    inflated = copy.copy(g)
    inflated.residuals = dict(g.residuals, **{key: 1.01 * coreps.DEFAULT_TOL / 2})
    u = coreps.block_corep(inflated, big)
    assert validate_calls == [2]
    assert max(u.residuals.values()) < 1e-12  # the full table, not the bounds
    # a character's bound is n = 1 times the parent's: within tol, and the
    # root-sum-square of four of them is not
    chi = coreps.block_corep(inflated, 1)
    coreps.direct_sum(chi, chi)
    assert validate_calls == [2]
    coreps.direct_sum(chi, chi, chi, chi)
    assert validate_calls == [2, 4]


def test_kazhdan_scenario_makes_no_corep_validation(tmp_path, validate_calls):
    code, _ = cli.run_scenario({"name": "kz", "preset": "dual-Z(16)",
                                "experiment": "kazhdan"}, str(tmp_path))
    assert code == 0
    assert validate_calls == []


def _kp_phis():
    """phi data of chi_1 (+) the 2-dim block corep of kac-paljutkin."""
    g = presets.load_preset("kac-paljutkin")
    u = coreps.direct_sum(coreps.block_corep(g, 1), coreps.block_corep(g, 4))
    return g, np.array(u.phis)


def _conjugated_by_nonunitary():
    # S phi S^-1 stays a unital homomorphism but stops being a *-map
    g, phis = _kp_phis()
    s = np.diag([1.0, 1.0, 1.5])
    return g, s @ phis @ np.linalg.inv(s)


def _padded_with_zero():
    # phi (+) 0 is a *-homomorphism that is not unital
    g, phis = _kp_phis()
    out = np.zeros((g.d, 4, 4), dtype=complex)
    out[:, :3, :3] = phis
    return g, out


def _diagonal_units_shifted():
    # phi(e_00) + H, phi(e_11) - H keeps phi(1) and phi(x^*) = phi(x)^*
    g, phis = _kp_phis()
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1], h[1, 2], h[2, 1] = 0.1, 0.05, 0.05
    off = g.block_offsets[4]     # the 2-dim block: e_ij at off + 2 i + j
    phis[off] += h
    phis[off + 3] -= h
    return g, phis


def _block_transposed():
    # e_ij -> E_ji on the 2-dim block: a unital *-anti-homomorphism whose U
    # is still unitary
    g, phis = _kp_phis()
    for i in range(2):
        for j in range(2):
            q = g.block_offsets[4] + 2 * i + j
            phis[q, 1:, 1:] = phis[q, 1:, 1:].T.copy()
    return g, phis


# The identities are not independent: 'corep' holds exactly when 'product'
# does, and for a homomorphism 'unitary' follows from 'star' and 'unital'.
# Each corruption breaks one identity and names it with its consequences.
@pytest.mark.parametrize("corrupt, failing", [
    (_conjugated_by_nonunitary, {"star", "unitary"}),
    (_padded_with_zero, {"unital", "unitary"}),
    (_diagonal_units_shifted, {"product", "corep", "unitary"}),
    (_block_transposed, {"product", "corep"}),
], ids=["star", "unital", "product", "corep"])
def test_corep_validate_names_failing_identity(corrupt, failing):
    g, phis = corrupt()
    with pytest.raises(AxiomViolation) as exc:
        coreps.Corep(g, phis)
    message = str(exc.value)
    for name in ("star", "unital", "product", "corep", "unitary"):
        assert (f"'{name}'" in message) == (name in failing), message


def test_tensor_unit():
    g = presets.load_preset("kac-paljutkin")
    u = coreps.block_corep(g, 4)
    one = coreps.trivial_corep(g)
    t = coreps.tensor(one, u)
    # 1 (x) u is u after the canonical identification C (x) H = H
    assert np.linalg.norm(t.phis - u.phis) < 1e-12


def test_characters_multiply():
    g = presets.load_preset("dual-Z(5)")
    for a in range(5):
        for b in range(5):
            t = coreps.tensor(coreps.block_corep(g, a), coreps.block_corep(g, b))
            expected = coreps.block_corep(g, (a + b) % 5)
            assert np.linalg.norm(t.phis - expected.phis) < 1e-12


def test_tensor_oracle_on_kac_paljutkin():
    g = presets.load_preset("kac-paljutkin")
    u = coreps.block_corep(g, 4)
    t = coreps.tensor(u, u)
    assert t.space_dim == 4
    # fusion: the square of the 2-dim irrep is the sum of the four characters
    mults = [len(coreps.intertwiners(coreps.block_corep(g, a), t))
             for a in range(5)]
    assert mults == [1, 1, 1, 1, 0]


def test_contragredient_characters():
    g = presets.load_preset("dual-Z(4)")
    for a in range(4):
        cc = coreps.contragredient(coreps.block_corep(g, a))
        expected = coreps.block_corep(g, (-a) % 4)
        assert np.linalg.norm(cc.phis - expected.phis) < 1e-12


def test_double_contragredient():
    g = presets.load_preset("kac-paljutkin")
    u = coreps.block_corep(g, 4)
    cc = coreps.contragredient(coreps.contragredient(u))
    ok, resid = coreps.unitarily_equivalent(u, cc)
    assert ok and resid < 1e-8


def test_std_rep_self_conjugate():
    g = presets.load_preset("fn-S3")
    sig = coreps.block_corep(g, 2)
    ok, resid = coreps.unitarily_equivalent(sig, coreps.contragredient(sig))
    assert ok and resid < 1e-8


# -- invariant vectors -----------------------------------------------------

def test_trivial_projection_full():
    g = presets.load_preset("dual-Z(3)")
    c = coreps.trivial_corep(g, 3)
    assert np.allclose(c.invariant_projection(), np.eye(3))


def test_invariant_projection_is_computed_once(monkeypatch):
    u = coreps.regular_corep(presets.load_preset("kac-paljutkin"))
    calls = []
    null_space = linalg.null_space
    monkeypatch.setattr(linalg, "null_space",
                        lambda *args: calls.append(args) or null_space(*args))
    first = u.invariant_projection()
    second = u.invariant_projection()
    assert len(calls) == 1 and np.array_equal(first, second)
    assert not second.flags.writeable
    # the corep copies phis, so a later write to the caller's array does not reach it
    phis = np.array(u.phis)
    v = coreps.Corep(u.parent, phis)
    phis[:] = 0.0
    assert np.array_equal(v.phis, u.phis)


def test_sign_character_projection_zero():
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    assert sign.invariant_rank() == 0
    # (h (x) id)(U) = (1 + (-1))/2 = 0
    p = np.tensordot(g.haar, sign.u_coef(), axes=([0], [0]))
    assert abs(p[0, 0]) < 1e-12


def test_regular_corep_rank_one():
    g = presets.load_preset("fn-S3")
    reg = coreps.regular_corep(g)
    assert reg.space_dim == 6
    assert reg.invariant_rank() == 1


@pytest.mark.parametrize("name", ["fn-S3", "kac-paljutkin"])
def test_schur_intertwiner_count(name):
    g = presets.load_preset(name)
    blocks = all_block_coreps(g)
    for a, u in enumerate(blocks):
        for b, v in enumerate(blocks):
            t = coreps.tensor(u, coreps.contragredient(v))
            assert t.invariant_rank() == (1 if a == b else 0)


def test_oracle_mismatch_guard():
    # feeding a corrupted projection path: corrupt haar weights via subclass
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    # sanity: the honest call does not raise
    sign.invariant_projection()


# -- Kazhdan gaps ------------------------------------------------------------

def test_gap_sign_character():
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    gap = coreps.kazhdan_gap(sign, [np.array([1.0, -1.0])])
    assert abs(gap - 2.0) < 1e-12


@pytest.mark.parametrize("n", [3, 8, 32])
def test_gap_closed_form(n):
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(1, n)])
    xg = np.exp(2j * np.pi * np.arange(n) / n)
    gap = coreps.kazhdan_gap(u, [xg])
    assert abs(gap - 2.0 * np.sin(np.pi / n)) < 1e-9


def test_gap_unit_element_detects_nothing():
    g = presets.load_preset("dual-Z(4)")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(1, 4)])
    unit_hat = np.zeros(4)
    for n, off in zip(g.block_dims, g.block_offsets):
        for i in range(n):
            unit_hat[off + i * n + i] = 1.0
    assert coreps.kazhdan_gap(u, [unit_hat]) < 1e-12


def test_gap_monotone_in_q():
    g = presets.load_preset("dual-Z(8)")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(1, 8)])
    xg = np.exp(2j * np.pi * np.arange(8) / 8)
    small = coreps.kazhdan_gap(u, [xg])
    big = coreps.kazhdan_gap(u, [xg, np.asarray(xg) ** 2])
    assert big >= small - 1e-12


def test_gap_infinite_on_trivial():
    g = presets.load_preset("dual-Z(2)")
    t = coreps.trivial_corep(g, 2)
    assert coreps.kazhdan_gap(t, [np.array([1.0, -1.0])]) == np.inf


def test_gap_empty_q():
    g = presets.load_preset("dual-Z(2)")
    with pytest.raises(EmptyQ):
        coreps.kazhdan_gap(coreps.block_corep(g, 1), [])


def test_gap_positive_against_matrix_units():
    for name in ("dual-Z(4)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        nontrivial = [a for a in range(len(g.block_dims)) if a != g.trivial_block]
        u = coreps.direct_sum(*[coreps.block_corep(g, a) for a in nontrivial])
        gap = coreps.kazhdan_gap(u, coreps.dual_matrix_units(g))
        assert gap > 0.1


# -- ergodicity and weak mixing ------------------------------------------------

def test_trivial_not_weakly_mixing():
    g = presets.load_preset("dual-Z(2)")
    assert not coreps.is_weakly_mixing(coreps.trivial_corep(g))


def test_irreducibles_never_weakly_mixing():
    for name in ("dual-Z(3)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        for a in range(len(g.block_dims)):
            assert not coreps.is_weakly_mixing(coreps.block_corep(g, a))


def test_ergodic_but_not_weakly_mixing():
    g = presets.load_preset("dual-Z(3)")
    u = coreps.direct_sum(coreps.block_corep(g, 1), coreps.block_corep(g, 2))
    assert u.invariant_rank() == 0  # ergodic
    assert not coreps.is_weakly_mixing(u)


def test_weak_mixing_tensor_stability_vacuous():
    # at finite dimension no corep is weakly mixing (u (x) u^c always
    # contains the trivial corep), so the stability implication holds
    g = presets.load_preset("kac-paljutkin")
    blocks = [coreps.block_corep(g, a) for a in range(5)]
    for u in blocks:
        if coreps.is_weakly_mixing(u):
            for v in blocks:
                assert coreps.is_weakly_mixing(coreps.tensor(v, u))


# -- GNS ------------------------------------------------------------------------

def test_gns_counit_trivial():
    g = presets.load_preset("kac-paljutkin")
    c, omega, j = coreps.gns(g, g.dual().counit)
    assert c.space_dim == 1
    assert j is not None


def test_gns_trace_state_dimension():
    g = presets.load_preset("kac-paljutkin")
    w = np.zeros(g.d)
    for n, off in zip(g.block_dims, g.block_offsets):
        for i in range(n):
            w[off + i * n + i] = n / g.d
    c, omega, j = coreps.gns(g, w)
    assert c.space_dim == 8
    assert abs(np.linalg.norm(omega) - 1.0) < 1e-9
    assert j is not None
    assert coreps.check_condition_r(c, j)


def test_gns_mixture_two_dim():
    g = presets.load_preset("dual-Z(2)")
    c, omega, j = coreps.gns(g, np.array([0.5, 0.5]))
    assert c.space_dim == 2
    assert np.allclose(np.abs(omega), [np.sqrt(0.5)] * 2, atol=1e-9)


def test_gns_rejects_non_state():
    g = presets.load_preset("dual-Z(2)")
    with pytest.raises(NotAState):
        coreps.gns(g, np.array([0.5, -0.5]))
    with pytest.raises(NotAState):
        coreps.gns(g, np.array([2.0, 1.0]))


def test_gns_state_recovery():
    g = presets.load_preset("kac-paljutkin")
    rng = CounterRNG(5)
    blocks = []
    for n in g.block_dims:
        m = rng.complex_matrix(n, n)
        blocks.append(m @ m.conj().T)
    tot = sum(np.trace(b).real for b in blocks)
    w = g.u_vec_of_blocks([b / tot for b in blocks])
    c, omega, j = coreps.gns(g, w)
    for q in range(g.d):
        assert abs(omega.conj() @ c.phis[q] @ omega - w[q]) < 1e-9


# -- condition R ------------------------------------------------------------------

def test_condition_r_trivial():
    g = presets.load_preset("dual-Z(4)")
    assert coreps.check_condition_r(coreps.trivial_corep(g), np.eye(1))


def test_condition_r_sign_character():
    g = presets.load_preset("dual-Z(2)")
    assert coreps.check_condition_r(coreps.block_corep(g, 1), np.eye(1))


def test_condition_r_chi1_fails():
    g = presets.load_preset("dual-Z(4)")
    assert not coreps.check_condition_r(coreps.block_corep(g, 1), np.eye(1))


def test_condition_r_full_character_sum():
    n = 8
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(n)])
    jm = np.zeros((n, n))
    for k in range(n):
        jm[(-k) % n, k] = 1.0
    assert coreps.check_condition_r(u, jm)


def test_defect_gauge():
    g = presets.load_preset("dual-Z(4)")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(4)])
    family = coreps.dual_matrix_units(g)
    inv = np.eye(4)[0]  # supported on the trivial character block
    assert u.defect(inv, family) < 1e-12
    other = np.eye(4)[1]
    assert u.defect(other, family) > 0.5


# -- stacked checks against the per-item loops they replaced -----------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def loop_product_rows(rows, x):
    """The residual x_p x_r - sum_s t[p,r,s] x_s, one row p at a time."""
    for p, (r, s, w) in enumerate(rows):
        diff = x[p] @ x
        np.subtract.at(diff, r, w[:, None, None] * x[s])
        yield diff


def loop_product_and_corep(c):
    g = c.parent
    rows = loop_product_rows(g.dual().product_nz.rows(), c.phis)
    product = max(linalg.max_frob(diff) for diff in rows)
    rows = loop_product_rows(g.comult_nz.permuted((1, 2, 0)).rows(), c.u_coef())
    return product, float(np.sqrt(sum(linalg.frob(diff) ** 2 for diff in rows)))


def suite_coreps(g):
    """Block coreps, a contragredient, the implementation of a block's
    conjugation action and, for d <= 16, the nontrivial sum and the regular
    corep."""
    from qgwb import actions
    blocks = [coreps.block_corep(g, a) for a in range(len(g.block_dims))]
    out = blocks + [coreps.contragredient(blocks[-1]),
                    actions.action_from_corep(blocks[-1]).implement().corep]
    if g.d <= 16:
        out += [_nontrivial_sum(g), coreps.regular_corep(g)]
    return out


@pytest.mark.parametrize("name", QG_PRESETS)
def test_stacked_corep_validation_matches_the_row_loop(name):
    g = presets.load_preset(name)
    for c in suite_coreps(g):
        res = c.validate()
        assert (res["product"], res["corep"]) == loop_product_and_corep(c)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_product_diffs_match_the_row_loop_on_random_families(name, monkeypatch):
    # random families make every sum inexact, so a change of order shows
    g = presets.load_preset(name)
    rng = np.random.default_rng(7)
    dense = linalg.Structure(rng.normal(size=(g.d, g.d, g.d)) * (rng.random((g.d,) * 3) < 0.5))
    for store, n in ((g.dual().product_nz, 3), (g.comult_nz.permuted((1, 2, 0)), 2), (dense, 2)):
        x = rng.normal(size=(g.d, n, n)) + 1j * rng.normal(size=(g.d, n, n))
        ref = np.array(list(loop_product_rows(store.rows(), x)))
        assert same_bits(np.concatenate(list(coreps._product_diffs(store, x, "k"))), ref)
        monkeypatch.setattr(linalg, "SLICE_BYTES", 1)
        assert same_bits(np.concatenate(list(coreps._product_diffs(store, x, "k"))), ref)
        monkeypatch.undo()


def test_stacked_corep_validation_in_small_slices(monkeypatch):
    g = presets.load_preset("kac-paljutkin")
    cs = suite_coreps(g)
    ref = [c.validate() for c in cs]
    monkeypatch.setattr(linalg, "SLICE_BYTES", 64)
    assert [c.validate() for c in cs] == ref


def loop_kazhdan_gap(u, q_elements):
    """kazhdan_gap with one phi, product and gram per element of Q."""
    eps = u.parent.dual().counit
    n = u.space_dim
    comp = linalg.null_space(u.invariant_projection())
    if not comp:
        return np.inf
    w = np.array(comp).T
    acc = np.zeros((w.shape[1], w.shape[1]), dtype=complex)
    for x in q_elements:
        x = np.asarray(x, dtype=complex)
        dx = u.phi(x) - complex(eps @ x) * np.eye(n)
        dxw = dx @ w
        acc += dxw.conj().T @ dxw
    return float(np.sqrt(max(linalg.min_eig(acc), 0.0)))


@pytest.mark.parametrize("name", QG_PRESETS)
def test_stacked_kazhdan_gap_matches_the_element_loop(name):
    g = presets.load_preset(name)
    rng = CounterRNG(3)
    families = [coreps.dual_matrix_units(g), [np.exp(2j * np.pi * np.arange(g.d) / g.d)],
                [rng.complex_vector(g.d) for _ in range(3)]]
    corep_list = [coreps.block_corep(g, len(g.block_dims) - 1)]
    if g.d <= 16:
        corep_list += [_nontrivial_sum(g), coreps.regular_corep(g)]
    for u in corep_list:
        for q in families:
            assert coreps.kazhdan_gap(u, q) == loop_kazhdan_gap(u, q)


def loop_gns(g, w):
    """The phis, Omega and J of gns, one row, unit and target at a time."""
    w = np.asarray(w, dtype=complex)
    d = g.d
    gram = np.zeros((d, d), dtype=complex)
    for a, (n, off) in enumerate(zip(g.block_dims, g.block_offsets)):
        for i in range(n):
            span = slice(off + i * n, off + (i + 1) * n)
            gram[span, span] = g.blocks_of(w)[a]
    f = linalg.psd_factor_vectors(gram)
    r = f.shape[1]
    pinv_ft = np.linalg.pinv(f.T)
    phis = np.zeros((d, r, r), dtype=complex)
    for p, (q, s, _) in enumerate(g.dual().product_nz.rows()):
        fx = np.zeros((d, r), dtype=complex)
        fx[q] = f[s]
        phis[p] = fx.T @ pinv_ft
    omega = g.dual().unit @ f
    vals = [omega.conj() @ phis[q] @ omega for q in range(d)]
    rhat, perm = g.dual().antipode, g.dual().star_perm
    targets = np.zeros((d, r), dtype=complex)
    for q in range(d):
        targets[q] = rhat[:, perm[q]] @ f
    return phis, omega, np.array(vals), targets.T @ np.linalg.pinv(np.conj(f).T)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_stacked_gns_matches_the_row_loops(name, monkeypatch):
    g = presets.load_preset(name)
    trace = np.zeros(g.d)
    for n, off in zip(g.block_dims, g.block_offsets):
        trace[off + np.arange(n) * (n + 1)] = n / g.d
    # a random state: blocks x x^* / trace, so every sum is inexact
    rng = np.random.default_rng(11)
    blocks = [x @ x.conj().T for x in (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                                       for n in g.block_dims)]
    mixed = g.u_vec_of_blocks(blocks) / sum(np.trace(b) for b in blocks)
    # the GNS space of a faithful state is C^d, whose corep validation takes d^4 n^2
    for w in [g.dual().counit] + ([trace, mixed] if g.d <= 16 else []):
        phis, omega, vals, j_mat = loop_gns(g, w)
        corep, got_omega, got_j = coreps.gns(g, w)
        assert same_bits(corep.phis, phis) and same_bits(got_omega, omega)
        assert got_j is None or same_bits(got_j, j_mat)
    # the state recovery reads <Omega, phi(e_q) Omega> for every q at once
    recorded = []
    real = linalg.rowmul

    def recording(x, m):
        out = real(x, m)
        recorded.append(out)
        return out
    monkeypatch.setattr(linalg, "rowmul", recording)
    coreps.gns(g, w)
    assert any(same_bits(out[..., 0], vals) for out in recorded)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_intertwiner_system_matches_the_kron_concatenation(name, monkeypatch):
    from qgwb import actions
    g = presets.load_preset(name)
    calls, systems = [], []
    real_null, real_solve = linalg.null_space, linalg.solve_intertwiner

    def null_space(system, shape=None):
        systems.append(np.array(system))
        return real_null(system, shape)

    def solve_intertwiner(left, right):
        out = real_solve(left, right)
        calls.append((np.array(left), np.array(right), systems[-1]))
        return out
    monkeypatch.setattr(linalg, "null_space", null_space)
    monkeypatch.setattr(linalg, "solve_intertwiner", solve_intertwiner)
    blocks = [coreps.block_corep(g, a) for a in range(min(len(g.block_dims), 3))]
    sums = [(_nontrivial_sum(g),) * 2] if g.d <= 16 else []
    for u, v in [(u, v) for u in blocks for v in blocks] + sums:
        coreps.intertwiners(u, v)
    # the unitary search of the action suite's comparison
    actions.v_vbar_implementation_check(coreps.block_corep(g, int(np.argmax(g.block_dims))))
    assert len(calls) == len(blocks) ** 2 + len(sums) + 1
    for left, right, system in calls:
        eye_s, eye_t = np.eye(left.shape[-1]), np.eye(right.shape[-1])
        ref = np.concatenate([np.kron(rk, eye_s) - np.kron(eye_t, lk.T)
                              for lk, rk in zip(left, right)])
        assert same_bits(system, ref)


# the nontrivial block sum of dual-Z(n) has k = n generators on t = s = n - 1,
# so its system and the SVD's thin factor hold 2 * 16 * n (n - 1)^4 bytes:
# 24.7 MiB at n = 16, 205 MiB at n = 24
def test_an_intertwiner_system_over_the_budget_raises_before_it_is_formed():
    u = _nontrivial_sum(presets.load_preset("dual-Z(24)"))
    held = 2 * 16 * 24 * 23 ** 4
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            coreps.intertwiners(u, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2 * 2 ** 20
    assert str(info.value) == (f"solve_intertwiner: index 0 needs {held} bytes, "
                               f"over the budget of {linalg.BYTE_BUDGET}")
    u16 = _nontrivial_sum(presets.load_preset("dual-Z(16)"))
    assert 2 * 16 * 16 * 15 ** 4 <= linalg.BYTE_BUDGET
    assert len(coreps.intertwiners(u16, u16)) == 15
