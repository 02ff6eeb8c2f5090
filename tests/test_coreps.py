import copy

import numpy as np
import pytest

from qgwb import cli, coreps, presets
from qgwb._rng import CounterRNG
from qgwb.errors import AxiomViolation, EmptyQ, NotAState


def all_block_coreps(g):
    return [coreps.block_corep(g, a) for a in range(len(g.block_dims))]


@pytest.mark.parametrize("name", ["dual-Z(4)", "fn-S3", "grp-S3", "kac-paljutkin"])
def test_block_coreps_validate(name):
    g = presets.load_preset(name)
    for c in all_block_coreps(g):
        assert max(c.validate().values()) < 1e-9


QG_PRESETS = [name for name in presets.preset_names() if not presets.is_window_preset(name)]


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
