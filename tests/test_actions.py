import tracemalloc
import types

import numpy as np
import pytest

from qgwb import actions, coreps, linalg, presets
from qgwb._rng import CounterRNG
from qgwb.cli import delta_action, grading_action
from qgwb.errors import AxiomViolation, NoInvariantState, SchemaError


@pytest.fixture(scope="module")
def grading():
    return grading_action(presets.load_preset("dual-Z(2)"))


def matrix_units(pattern):
    """The matrix units of the block-diagonal algebra of a block pattern,
    block by block in row-major order."""
    n = sum(pattern)
    units, off = [], 0
    for nb in pattern:
        for a in range(off, off + nb):
            for b in range(off, off + nb):
                e = np.zeros((n, n), dtype=complex)
                e[a, b] = 1.0
                units.append(e)
        off += nb
    return units


def trivial_action(parent, pattern):
    """x |-> 1 (x) x on the block-diagonal algebra of a block pattern."""
    n = sum(pattern)
    alpha = np.zeros((parent.d, n, n, n, n), dtype=complex)
    for e in matrix_units(pattern):
        (a, b), = np.argwhere(e)
        alpha[:, a, b, a, b] = parent.unit
    return actions.Action(parent, pattern, alpha, invariant_state=np.eye(n) / n)


def test_action_validation(grading):
    res = grading.validate()
    assert set(res) == {"unital", "star", "homomorphism", "action_equation",
                        "invariant_state"}
    assert max(res.values()) < 1e-9


def _grading_alpha(odd_phase):
    """The grading of M_2 over dual-Z(2), its odd part scaled by odd_phase."""
    alpha = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            alpha[(a - b) % 2, a, b, a, b] = 1.0 if a == b else odd_phase
    return alpha


def _constant_grading():
    """x |-> g (x) x on M_2 over dual-Z(2): a wrong degree assignment."""
    alpha = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            alpha[1, a, b, a, b] = 1.0
    return alpha


# Each corruption of the grading action breaks the identities it names
# and no other: x |-> g (x) x is neither unital nor multiplicative and moves
# theta; an odd part scaled by -1 is still a *-homomorphism but no action;
# scaled by i it is not even a *-homomorphism; a non-diagonal state is not
# invariant under the grading.
@pytest.mark.parametrize("alpha, theta, failing", [
    (_constant_grading(), np.eye(2) / 2, {"unital", "homomorphism", "invariant_state"}),
    (_grading_alpha(-1.0), np.eye(2) / 2, {"action_equation"}),
    (_grading_alpha(1j), np.eye(2) / 2, {"star", "homomorphism", "action_equation"}),
    (_grading_alpha(1.0), np.array([[0.5, 0.1], [0.1, 0.5]]), {"invariant_state"}),
], ids=["constant", "odd-sign", "odd-phase", "state"])
def test_action_validate_names_failing_identity(alpha, theta, failing):
    g = presets.load_preset("dual-Z(2)")
    with pytest.raises(AxiomViolation) as exc:
        actions.Action(g, [2], alpha, invariant_state=theta)
    message = str(exc.value)
    for name in ("unital", "star", "homomorphism", "action_equation", "invariant_state"):
        assert (f"'{name}'" in message) == (name in failing), message


def _brute_vec(units, x):
    """Coordinates of x: its entry at the single 1 of each matrix unit."""
    return np.array([x[tuple(np.argwhere(e)[0])] for e in units])


@pytest.mark.parametrize("make", [
    lambda: grading_action(presets.load_preset("dual-Z(2)")),
    lambda: delta_action(presets.load_preset("fn-Z(3)")),
    lambda: trivial_action(presets.load_preset("fn-Z(2)"), [1, 2]),
], ids=["[2]", "[1,1,1]", "[1,2]"])
def test_index_table_matches_matrix_units(make):
    act = make()
    units = matrix_units(act.block_pattern)
    assert act.dimN == len(units)
    assert np.array_equal(act.basis, units) and not act.basis.flags.writeable
    rng = CounterRNG(4)
    x, y = rng.complex_matrix(act.n, act.n), rng.complex_matrix(act.n, act.n)
    assert np.array_equal(act.vec(x), _brute_vec(units, x))
    assert np.array_equal(act.vec(np.array([x, y])),
                          [_brute_vec(units, x), _brute_vec(units, y)])
    c = rng.complex_vector(act.dimN)
    assert np.array_equal(act.unvec(c), sum(cq * e for cq, e in zip(c, units)))
    gram = [[np.trace(act.theta @ ea.conj().T @ eb) for eb in units] for ea in units]
    assert np.array_equal(act.gns_gram(), gram)
    impl = act.implement()
    # left_raw[q, :, y] = vec(e_q e_y)
    left = [[_brute_vec(units, eq @ ey) for ey in units] for eq in units]
    assert np.array_equal(impl.left_raw, np.transpose(left, (0, 2, 1)))
    # a_raw[i, :, q] = vec(alpha_i(e_q))
    legs = [[_brute_vec(units, np.einsum("abcd,cd->ab", act.alpha[i], e)) for e in units]
            for i in range(act.parent.d)]
    assert np.array_equal(impl.a_raw, np.transpose(legs, (0, 2, 1)))


def test_action_equation_failure_detected():
    g = presets.load_preset("dual-Z(2)")
    with pytest.raises((AxiomViolation, NoInvariantState)):
        actions.Action(g, [2], _constant_grading(), invariant_state=np.eye(2) / 2)


def test_trivial_action_implementation():
    g = presets.load_preset("dual-Z(2)")
    act = trivial_action(g, [2])
    impl = act.implement()
    assert impl.implementation_residual < 1e-9
    # U = 1: every vector invariant
    assert impl.corep.invariant_rank() == 4
    fixed, expectation = actions.fixed_point_expectation(act)
    assert len(fixed) == 4
    x = CounterRNG(1).complex_matrix(2, 2)
    assert np.linalg.norm(expectation(x) - x) < 1e-12


def test_grading_action_unitary_implementation(grading):
    impl = grading.implement()
    assert impl.implementation_residual < 1e-9
    assert impl.condition_r
    u = impl.corep
    assert u.space_dim == 4
    # U = 1 + 1 + sign + sign on L^2(M_2)
    assert u.invariant_rank() == 2


def test_grading_expectation_is_diagonal_compression(grading):
    fixed, expectation = actions.fixed_point_expectation(grading)
    assert len(fixed) == 2
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.linalg.norm(expectation(x) - np.diag([1.0, 4.0])) < 1e-10


def test_expectation_compression_identity(grading):
    impl = grading.implement()
    p = impl.corep.invariant_projection()
    _, expectation = actions.fixed_point_expectation(grading)
    for x in grading.basis:
        lhs = impl.pi(expectation(x)) @ p
        rhs = p @ impl.pi(x) @ p
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_expectation_uniqueness_perturbation(grading):
    impl = grading.implement()
    p = impl.corep.invariant_projection()
    _, expectation = actions.fixed_point_expectation(grading)

    def perturbed(x):
        return expectation(x) + 0.01 * np.trace(x) * np.array([[0, 1], [0, 0]])

    bad = 0.0
    for x in grading.basis:
        lhs = impl.pi(perturbed(x)) @ p
        rhs = p @ impl.pi(x) @ p
        bad = max(bad, np.linalg.norm(lhs - rhs))
    assert bad > 1e-4


def test_invariant_state_search(grading):
    g = presets.load_preset("dual-Z(2)")
    act = actions.Action(g, [2], grading.alpha)
    assert np.linalg.norm(act.theta - np.eye(2) / 2) < 1e-9


def test_cone_preservation(grading):
    basis = [np.eye(2)[0], np.eye(2)[1]]
    assert actions.cone_preservation_check(grading, basis)


def test_cone_violated_by_scrambled_unitary(grading):
    impl = grading.implement()
    g = grading.parent
    # V' = (1 (x) W) U with W in the commutant: still satisfies the
    # implementation identity but is not the canonical unitary
    w_right = np.zeros((grading.dimN, grading.dimN), dtype=complex)
    for q, x in enumerate(grading.basis):
        # right multiplication by diag(1, i): J d^* J with d = diag(1, i)
        dmat = np.diag([1.0, 1j])
        w_right[:, q] = grading.vec(x @ dmat)
    w_l2 = impl.c_mat @ w_right @ impl.c_inv
    scrambled = np.einsum("iab,bc->iac", impl.corep.u_coef(), w_l2)
    class Fake:
        def u_coef(self):
            return scrambled
    # build the entrywise matrices directly and run the cone test
    xis = [np.eye(g.d)[0], np.eye(g.d)[1]]
    regs = [g.reg(np.eye(g.d)[k]) for k in range(g.d)]
    u = [[sum((xis[j].conj() @ regs[k] @ xis[i]) * scrambled[k]
              for k in range(g.d)) for j in range(2)] for i in range(2)]
    from qgwb.linalg import psd_sqrt
    rho_half_inv = np.linalg.inv(psd_sqrt(grading.theta))
    rng = CounterRNG(77)
    violated = False
    n = grading.n
    for _ in range(12):
        v = rng.complex_vector(2 * grading.dimN)
        blocks = [grading.unvec(v[i * grading.dimN:(i + 1) * grading.dimN])
                  for i in range(2)]
        x_big = np.zeros((2 * n, 2 * n), dtype=complex)
        for i in range(2):
            for j in range(2):
                x_big[i * n:(i + 1) * n, j * n:(j + 1) * n] = \
                    blocks[i] @ blocks[j].conj().T
        z = x_big @ np.kron(np.eye(2), rho_half_inv)
        z_out = np.zeros_like(z)
        for i in range(2):
            for j in range(2):
                zij = z[i * n:(i + 1) * n, j * n:(j + 1) * n]
                lam = impl.c_mat @ grading.vec(zij)     # Lambda(zij)
                wv = grading.unvec(impl.c_inv @ (u[i][j] @ lam))
                z_out[i * n:(i + 1) * n, j * n:(j + 1) * n] = wv
        if not actions.cone_member_test(np.kron(np.eye(2), grading.theta), z_out):
            violated = True
            break
    assert violated


def test_spectral_gap_report(grading):
    rep = actions.spectral_gap_report(grading)
    assert rep["rank_invariant"] == 2
    assert rep["projection_in_image"]
    assert rep["kazhdan_gap"] > 0
    assert rep["consistent"]


def test_delta_action_dual_z():
    g = presets.load_preset("fn-Z(4)")
    act = delta_action(g)
    impl = act.implement()
    assert impl.corep.invariant_rank() == 1
    fixed, expectation = actions.fixed_point_expectation(act)
    assert len(fixed) == 1
    x = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    ex = expectation(x)
    assert np.linalg.norm(ex - np.trace(x) / 4 * np.eye(4)) < 1e-9


def test_delta_action_fn_s3():
    g = presets.load_preset("fn-S3")
    act = delta_action(g)
    impl = act.implement()
    assert impl.corep.invariant_rank() == 1
    rep = actions.spectral_gap_report(act)
    assert rep["rank_invariant"] == 1 and rep["consistent"]


def test_delta_action_needs_pointwise_parent():
    g = presets.load_preset("dual-Z(3)")
    with pytest.raises(SchemaError):
        delta_action(g)


def test_spectral_gap_dual_z_closed_form():
    g = presets.load_preset("fn-Z(8)")
    act = delta_action(g)
    rep = actions.spectral_gap_report(act)
    assert rep["rank_invariant"] == 1


@pytest.mark.parametrize("name,block", [("fn-S3", 2), ("dual-Z(2)", 1),
                                        ("kac-paljutkin", 4)])
def test_v_vbar_implementation(name, block):
    g = presets.load_preset(name)
    u = coreps.block_corep(g, block)
    ok, resid = actions.v_vbar_implementation_check(u)
    assert ok and resid < 1e-8


def test_v_vbar_one_dimensional_trivial():
    g = presets.load_preset("dual-Z(2)")
    ok, resid = actions.v_vbar_implementation_check(coreps.trivial_corep(g))
    assert ok


def test_asymptotic_invariance_bridge(grading):
    # family with defect delta: the corep defect of Lambda(x) is bounded by
    # a theta-computable constant times the action defect
    impl = grading.implement()
    g = grading.parent
    u = impl.corep
    dual = g.dual()
    rng = CounterRNG(13)
    c_const = np.sqrt(np.linalg.eigvalsh(grading.theta)[-1].real) * 2
    for _ in range(4):
        x = rng.complex_matrix(2, 2)
        delta = 0.0
        for i in range(g.d):
            for omega_idx in range(g.d):
                om = np.eye(g.d)[omega_idx]
                avg = sum(om[k] * grading.leg(k, x) for k in range(g.d))
                delta = max(delta, np.linalg.norm(avg - g.unit[omega_idx] * x))
        vec = impl.c_mat @ grading.vec(x)
        vec = vec / np.linalg.norm(vec)
        defect = u.defect(vec, coreps.dual_matrix_units(g))
        # fixed-point elements have defect 0
        if delta < 1e-12:
            assert defect < 1e-9
    # exact bridge on a fixed point
    fixed, _ = actions.fixed_point_expectation(grading)
    vec = impl.c_mat @ grading.vec(fixed[0])
    vec = vec / np.linalg.norm(vec)
    assert u.defect(vec, coreps.dual_matrix_units(g)) < 1e-9


def test_conjugation_action_from_corep():
    g = presets.load_preset("kac-paljutkin")
    act = actions.action_from_corep(coreps.block_corep(g, 4))
    impl = act.implement()
    assert impl.implementation_residual < 1e-9
    rep = actions.spectral_gap_report(act)
    assert rep["consistent"]


def test_invariant_rank_equals_fixed_dimension():
    suite = [grading_action(presets.load_preset("dual-Z(2)")),
             delta_action(presets.load_preset("fn-Z(4)")),
             delta_action(presets.load_preset("fn-S3")),
             actions.action_from_corep(
                 coreps.block_corep(presets.load_preset("kac-paljutkin"), 4))]
    for act in suite:
        impl = act.implement()
        fixed, _ = actions.fixed_point_expectation(act)
        assert impl.corep.invariant_rank() == len(fixed)


def test_quantitative_asymptotic_bridge(grading):
    # perturb a fixed point: the GNS vector's corep defect is bounded by
    # sqrt(max eig of theta) times the operator-norm action defect
    impl = grading.implement()
    g = grading.parent
    u = impl.corep
    fixed, _ = actions.fixed_point_expectation(grading)
    y = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # degree-1 part
    c_const = np.sqrt(np.linalg.eigvalsh(grading.theta)[-1].real)
    for delta in (0.5, 0.1, 0.01):
        x = fixed[0] + delta * y
        action_defect = 0.0
        for i in range(g.d):
            avg = grading.leg(i, x)
            action_defect = max(action_defect,
                                np.linalg.norm(avg - g.unit[i] * x, 2))
        vec = impl.c_mat @ grading.vec(x)
        scale = np.linalg.norm(vec)
        defect = u.defect(vec / scale, coreps.dual_matrix_units(g))
        assert defect * scale <= 2 * g.d * c_const * action_defect + 1e-12


# -- stacked cone check against the per-trial loop ------------------------------------

QG_PRESETS = [row["name"] for row in presets.preset_table() if row["kind"] == "qg"]


def suite_actions(g):
    """The actions the action suite checks on a preset: the grading action
    over dual-Z(2), the coproduct self-action of a pointwise parent, and the
    conjugation action of the first block corep it takes."""
    acts = [grading_action(g)] if g.key == "dual-Z(2)" else []
    try:
        acts.append(delta_action(g))
    except SchemaError:
        pass
    for a, n in enumerate(g.block_dims):
        if n >= 2 or (n == 1 and a != g.trivial_block and not acts):
            acts.append(actions.action_from_corep(coreps.block_corep(g, a)))
            break
    return acts


def cone_member_per_matrix(rho_big, z, tol=1e-8):
    """cone_member_test on one matrix, as it was written."""
    k = linalg.psd_sqrt(rho_big) @ np.asarray(z).conj().T
    scale = max(1.0, linalg.frob(k))
    if linalg.hermiticity_defect(k) > tol * scale:
        return False
    return linalg.min_eig(0.5 * (k + k.conj().T)) >= -tol


def cone_verdicts_per_trial(action, xi_family, tol=1e-8, trials=12):
    """The (element, image) verdicts of each trial, from the per-trial loop
    and the stack of regular-representation matrices: the reference of
    cone_preservation_check."""
    g = action.parent
    impl = action.implement()
    xis = np.asarray(xi_family, dtype=complex)
    m, n, nn = len(xis), action.n, action.dimN
    omegas = np.einsum("ja,kab,ib->kij", np.conj(xis), g.reg(np.eye(g.d)), xis)
    u_raw = impl.c_inv @ np.einsum("kij,kab->ijab", omegas, impl.corep.u_coef()) @ impl.c_mat
    rho_big = np.kron(np.eye(m), action.theta)
    rho_half_inv = np.kron(np.eye(m), np.linalg.inv(linalg.psd_sqrt(action.theta)))
    rng = CounterRNG(23)
    verdicts = []
    for _ in range(trials):
        v = rng.complex_vector(m * nn)
        col = action.unvec(v.reshape(m, nn)).reshape(m * n, n)
        z = col @ col.conj().T @ rho_half_inv
        blocks = action.vec(z.reshape(m, n, m, n).transpose(0, 2, 1, 3))
        out = action.unvec(np.einsum("ijpq,ijq->ijp", u_raw, blocks))
        image = out.transpose(0, 2, 1, 3).reshape(m * n, m * n)
        verdicts.append((cone_member_per_matrix(rho_big, z, tol),
                         cone_member_per_matrix(rho_big, image, tol)))
    return verdicts


@pytest.mark.parametrize("name", QG_PRESETS)
def test_vector_functionals_match_the_regular_representation(name):
    g = presets.load_preset(name)
    assert g.kac
    rng = CounterRNG(41)
    for xis in (np.eye(g.d)[:min(g.d, 2)], np.array([rng.unit_vector(g.d) for _ in range(2)])):
        ref = np.einsum("ja,kab,ib->kij", np.conj(xis), g.reg(np.eye(g.d)), xis)
        assert np.allclose(actions._vector_functionals(g, xis), ref, rtol=0, atol=1e-13)


def test_vector_functionals_of_a_dense_document_stay_small():
    """A dense d = 32 product with a general basis change C: no d x d x d
    stack of regular-representation matrices (an 8.8 MiB gather) is built."""
    d = 32
    rng = np.random.default_rng(5)
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = types.SimpleNamespace(d=d, mult_nz=linalg.Structure(rng.standard_normal((d, d, d))),
                              _C=c, _Cinv=np.linalg.inv(c))
    xis = np.array([CounterRNG(s).unit_vector(d) for s in (1, 2)])
    g.mult_nz.csr(1)
    tracemalloc.start()
    try:
        got = actions._vector_functionals(g, xis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    lmat = np.transpose(g.mult_nz.csr(1).toarray().reshape(d, d, d), (0, 2, 1))
    ref = np.einsum("ja,kab,ib->kij", np.conj(xis), c @ lmat @ g._Cinv, xis)
    assert np.allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_cone_check_matches_the_per_trial_loop(name, monkeypatch):
    g = presets.load_preset(name)
    recorded = []
    real = actions.cone_member_test

    def recording(rho_big, z):
        out = real(rho_big, z)
        recorded.append(out)
        return out
    monkeypatch.setattr(actions, "cone_member_test", recording)
    basis = [np.eye(g.d)[i] for i in range(min(g.d, 2))]
    for act in suite_actions(g):
        recorded.clear()
        ref = cone_verdicts_per_trial(act, basis)
        assert actions.cone_preservation_check(act, basis) == all(e and i for e, i in ref)
        verdicts, = recorded
        assert [(bool(e), bool(i)) for e, i in zip(verdicts[:12], verdicts[12:])] == ref


def test_stacked_cone_member_test_matches_each_matrix(grading):
    rng = CounterRNG(43)
    rho_big = np.kron(np.eye(2), grading.theta)
    members = [x @ x.conj().T @ np.linalg.inv(linalg.psd_sqrt(rho_big)) for x in
               (rng.complex_matrix(4, 4) for _ in range(3))]
    stack = np.array(members + [-members[0], members[1] + 1e-3 * rng.complex_matrix(4, 4),
                                np.zeros((4, 4))])
    expected = [cone_member_per_matrix(rho_big, z) for z in stack]
    assert expected == [True, True, True, False, False, True]
    assert list(actions.cone_member_test(rho_big, stack)) == expected


@pytest.mark.parametrize("fail, outcome", [
    (None, True), (("element", 0), "raise"), (("image", 0), False),
    (("element", 5), "raise"), (("image", 5), False),
    # an earlier trial's failing image comes before a later failing element
    (("image", 3, "element", 7), False), (("element", 3, "image", 7), "raise"),
    # a trial's element comes before its own image
    (("image", 4, "element", 4), "raise")])
def test_cone_check_reports_the_first_failure_in_trial_order(grading, monkeypatch, fail, outcome):
    def failing(rho_big, z):
        verdicts = np.ones(len(z), dtype=bool)
        spec = fail or ()
        for kind, trial in zip(spec[::2], spec[1::2]):
            verdicts[trial + (12 if kind == "image" else 0)] = False
        return verdicts
    monkeypatch.setattr(actions, "cone_member_test", failing)
    basis = [np.eye(2)[0], np.eye(2)[1]]
    if outcome == "raise":
        with pytest.raises(AxiomViolation, match="generated element"):
            actions.cone_preservation_check(grading, basis)
    else:
        assert actions.cone_preservation_check(grading, basis) is outcome
