import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from qgwb import cli, core, linalg, presets
from qgwb.core import dense_image_report, solve_haar
from qgwb.errors import (
    HaarNotFound,
    AxiomViolation,
    NonUnique,
    NotAMorphism,
    RadiusTooLarge,
    SchemaError,
)
from qgwb.serialize import qg_from_dict, qg_to_dict
from qgwb.windows import build_window

QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]
ALL_QG_PRESETS = ["dual-Z(2)", "dual-Z(3)", "dual-Z(4)", "dual-Z(8)",
                  "fn-Z(2)", "fn-Z(3)", "fn-Z(4)", "fn-S3", "grp-S3",
                  "kac-paljutkin"]


@pytest.mark.parametrize("name", ALL_QG_PRESETS)
def test_preset_axioms(name):
    g = presets.load_preset(name)
    res = g.validate()
    assert max(res.values()) < 1e-9
    assert g.kac


@pytest.mark.parametrize("name", ["dual-Z(8)", "fn-S3", "kac-paljutkin"])
def test_residuals_kept_from_construction(name):
    g = presets.load_preset(name)
    assert g.residuals == g.validate()


@pytest.mark.parametrize("fn_name,grp_name", [(f"fn-Z({n})", f"dual-Z({n})")
                                               for n in (2, 3, 8, 16)] + [("fn-S3", "grp-S3")])
def test_function_and_group_algebras_are_dual(fn_name, grp_name):
    # C(G) and C[G] come from one product table; on the non-abelian S_3 a
    # table read transposed in one of them breaks the first identity
    fn, grp = presets.load_preset(fn_name), presets.load_preset(grp_name)
    assert np.array_equal(fn.comult, grp.mult.transpose(2, 0, 1))
    assert np.array_equal(fn.mult, grp.comult)
    assert np.array_equal(fn.antipode, grp.antipode)
    assert np.array_equal(fn.unit, grp.counit) and np.array_equal(fn.counit, grp.unit)


def test_dual_z4_profile():
    g = presets.load_preset("dual-Z(4)")
    assert g.d == 4
    assert g.block_dims == [1, 1, 1, 1]
    # haar is the character average: h(lambda_j) = delta_{j0}
    assert np.allclose(g.haar, [1, 0, 0, 0])
    # direct bi-invariance check
    for i in range(4):
        lhs = np.einsum("jk,j->k", g.comult[i], g.haar)
        assert np.allclose(lhs, g.haar[i] * g.unit)


def test_kac_paljutkin_profile():
    g = presets.load_preset("kac-paljutkin")
    assert g.d == 8
    assert sorted(g.block_dims) == [1, 1, 1, 1, 2]
    assert g.max_block_dim == 2


def test_solve_haar_group_algebra_z2():
    g = presets.load_preset("dual-Z(2)")
    h = solve_haar(g)
    assert np.allclose(h, [1.0, 0.0], atol=1e-10)


def test_solve_haar_function_algebra_z3():
    g = presets.load_preset("fn-Z(3)")
    h = solve_haar(g)
    assert np.allclose(h, [1 / 3] * 3, atol=1e-10)


def test_solve_haar_kac_paljutkin_state():
    g = presets.load_preset("kac-paljutkin")
    h = solve_haar(g)
    assert abs(h @ g.unit - 1.0) < 1e-10
    assert np.allclose(h, g.haar, atol=1e-10)


def test_solve_haar_flags_degenerate_input():
    # a zero coproduct gives a fully degenerate invariance system, which
    # must be reported as non-uniqueness rather than silently normalised
    class Fake:
        d = 2
        mult = np.zeros((2, 2, 2), dtype=complex)
        comult = np.zeros((2, 2, 2), dtype=complex)
        unit = np.zeros(2, dtype=complex)
        star = np.eye(2, dtype=complex)

    with pytest.raises(NonUnique):
        solve_haar(Fake())


def test_solve_haar_no_solution_for_disjoint_union():
    # C(Z_2 disjoint-union Z_2): no functional is bi-invariant against the
    # global unit
    g = presets.load_preset("fn-Z(2)")

    class Fake:
        d = 4
        mult = np.zeros((4, 4, 4), dtype=complex)
        comult = np.zeros((4, 4, 4), dtype=complex)
        unit = np.zeros(4, dtype=complex)
        star = np.eye(4, dtype=complex)

    f = Fake()
    f.mult[:2, :2, :2] = g.mult
    f.mult[2:, 2:, 2:] = g.mult
    f.comult[:2, :2, :2] = g.comult
    f.comult[2:, 2:, 2:] = g.comult
    f.unit[:2] = g.unit
    f.unit[2:] = g.unit
    with pytest.raises(HaarNotFound):
        solve_haar(f)


def _kron_solve_haar(g):
    """solve_haar's invariance system as it was once built, from two
    np.kron(np.eye(d), unit) d^3 arrays, then solved as solve_haar does."""
    d, c = g.d, g.comult
    left = c.transpose(0, 2, 1).reshape(d * d, d) - np.kron(np.eye(d), g.unit.reshape(d, 1))
    right = c.reshape(d * d, d) - np.kron(np.eye(d), g.unit.reshape(d, 1))
    (h,) = linalg.null_space(np.vstack([left, right]))
    return h / complex(h @ g.unit)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_solve_haar_matches_the_kron_system(name):
    doc = qg_to_dict(presets.load_preset(name))
    del doc["haar"]
    g = qg_from_dict(doc)
    assert np.array_equal(g.haar, _kron_solve_haar(g))


def test_dual_z48_without_haar_builds_within_8_mib():
    g = presets.load_preset("dual-Z(48)")
    args = (g.key, g.mult.copy(), g.unit.copy(), g.comult.copy(), g.counit.copy(),
            g.star.copy(), g.antipode.copy(), g.irreps)
    tracemalloc.start()
    try:
        core.FiniteQG(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_document_roundtrip():
    g = presets.load_preset("kac-paljutkin")
    doc = qg_to_dict(g)
    g2 = qg_from_dict(doc)
    assert g2.d == g.d
    assert np.allclose(g2.mult, g.mult)
    assert np.allclose(g2.haar, g.haar)
    assert g2.block_dims == g.block_dims


def test_document_missing_counit():
    doc = qg_to_dict(presets.load_preset("dual-Z(2)"))
    del doc["counit"]
    with pytest.raises(SchemaError):
        qg_from_dict(doc)


def test_document_bad_axioms():
    doc = qg_to_dict(presets.load_preset("dual-Z(2)"))
    doc["antipode"] = [[1.0, 0.0], [0.0, 1.0]]  # wrong: S must swap grouplikes
    # still a valid antipode here? for Z_2 inversion is the identity map
    qg_from_dict(doc)  # fine: every element is its own inverse
    doc["counit"] = [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(AxiomViolation):
        qg_from_dict(doc)


def test_a_corrupted_coproduct_names_every_failing_law_worst_first(tmp_path):
    doc = qg_to_dict(presets.load_preset("fn-Z(3)"))
    doc["comult"][0][3] = 2.0
    with pytest.raises(AxiomViolation) as err:
        qg_from_dict(doc)
    message = str(err.value)
    assert message.startswith("axiom identity residuals ") and message.endswith(" > 1.0e-09")
    named = re.findall(r"'(\w+)' ([0-9.e+-]+)", message)
    assert {law for law, _ in named} == {
        "coassociativity", "coproduct_homomorphism", "counit", "coproduct_unital",
        "antipode", "irrep_coproduct", "haar_invariance"}
    values = [float(v) for _, v in named]
    assert values == sorted(values, reverse=True)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _ = cli.run_scenario({"name": "bad", "preset": str(path), "experiment": "axioms"},
                               out_dir=str(tmp_path))
    assert code == 3


# -- dual block algebra ------------------------------------------------------

def test_dual_z_blocks():
    g = presets.load_preset("dual-Z(5)")
    dual = g.dual()
    assert dual.blocks == [1] * 5
    # transported coproduct of the dual is the group multiplication table:
    # comult of e_q is supported on pairs (a, b) with a + b = q (mod 5)
    c = dual.comult_tensor()
    for q in range(5):
        support = {(int(a), int(b)) for a, b in np.argwhere(np.abs(c[q]) > 1e-12)}
        assert support == {(a, (q - a) % 5) for a in range(5)}


def test_fn_s3_dual_blocks():
    g = presets.load_preset("fn-S3")
    assert sorted(g.dual().blocks) == [1, 1, 2]


def test_kac_paljutkin_self_dual_pattern():
    g = presets.load_preset("kac-paljutkin")
    assert sorted(g.dual().blocks) == [1, 1, 1, 1, 2]


def test_double_dual_block_multiset():
    # re-dualising: the dual of the dual block algebra has the same size
    # and block multiset as the original coefficient algebra demands
    for name in ("dual-Z(3)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        dual = g.dual()
        assert sum(n * n for n in dual.blocks) == g.d


def test_dual_counit_is_counit():
    g = presets.load_preset("kac-paljutkin")
    dual = g.dual()
    c = dual.comult_tensor()
    d = g.d
    left = np.tensordot(c, dual.counit, axes=([1], [0]))
    right = np.tensordot(c, dual.counit, axes=([2], [0]))
    assert np.linalg.norm(left - np.eye(d)) < 1e-9
    assert np.linalg.norm(right - np.eye(d)) < 1e-9


def test_dual_antipode_duality():
    g = presets.load_preset("kac-paljutkin")
    dual = g.dual()
    # <S-hat(x), a> = <x, S(a)> on basis pairs
    lhs = dual.antipode
    s_u = g.Binv @ g.antipode @ g.B
    assert np.linalg.norm(lhs - s_u.T) < 1e-12


# -- dense image --------------------------------------------------------------

def test_dense_image_identity():
    kp = presets.load_preset("kac-paljutkin")
    rep = dense_image_report(kp, kp, np.eye(kp.d))
    assert rep["dense_image"] is True
    assert all(rep[k] for k in ("injective_dual", "injective_dual_reduced",
                                "bicharacter_span", "surjective"))


def test_dense_image_restriction_true():
    z4, z2 = presets.load_preset("fn-Z(4)"), presets.load_preset("fn-Z(2)")
    pi = np.zeros((2, 4))
    pi[0, 0] = pi[1, 2] = 1.0
    rep = dense_image_report(z4, z2, pi)
    assert rep["dense_image"] is True


def test_dense_image_pullback_false():
    z4, z2 = presets.load_preset("fn-Z(4)"), presets.load_preset("fn-Z(2)")
    pi = np.zeros((4, 2))
    pi[0, 0] = pi[2, 0] = 1.0
    pi[1, 1] = pi[3, 1] = 1.0
    rep = dense_image_report(z2, z4, pi)
    assert rep["dense_image"] is False
    verdicts = [rep["injective_dual"], rep["injective_dual_reduced"],
                rep["bicharacter_span"], rep["surjective"]]
    assert len(set(verdicts)) == 1


def test_dense_image_rejects_non_morphism():
    z4, z2 = presets.load_preset("fn-Z(4)"), presets.load_preset("fn-Z(2)")
    pi = np.ones((2, 4))
    with pytest.raises(NotAMorphism):
        dense_image_report(z4, z2, pi)


# -- windows -------------------------------------------------------------------

def test_free2_radius2_count():
    w = build_window("free(2)", 2)
    assert w.d == 17  # 1 + 4 + 12


def test_z1_radius3():
    w = build_window("Z(1)", 3)
    assert sorted(e[0] for e in w.elements) == list(range(-3, 4))
    assert w.mul((1,), (2,)) == (3,)
    assert w.mul((2,), (2,)) is None


def test_free1_matches_z1():
    w1 = build_window("free(1)", 4)
    w2 = build_window("Z(1)", 4)
    assert w1.d == w2.d
    assert sorted(w1.lengths) == sorted(w2.lengths)


def test_radius_cap():
    with pytest.raises(RadiusTooLarge):
        build_window("free(3)", 9)


def test_window_length_profile():
    w = build_window("free(2)", 3)
    counts = np.bincount(w.lengths)
    assert list(counts) == [1, 4, 12, 36]


def test_custom_window():
    table = {
        "label": "z2-custom",
        "elements": ["e", "g"],
        "lengths": [0, 1],
        "inverse": ["e", "g"],
        "product": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"],
                    ["g", "g", "e"]],
    }
    w = build_window(("custom", table), 1)
    assert w.mul("g", "g") == "e"


def test_low_dual_certificate():
    assert presets.load_preset("kac-paljutkin").max_block_dim == 2
    assert presets.load_preset("dual-Z(4)").max_block_dim == 1
    assert build_window("free(2)", 2).max_block_dim == 1


# -- representation-level identities -----------------------------------------

def test_w_unitary_in_regular_representation():
    # W = sum u_q (x) e_q acting on L^2(A) tensor the regular dual module,
    # blockwise per irrep with multiplicity n_a (total dual dim sum n_a^2)
    for name in ("dual-Z(4)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        for r in g.irreps:
            n = r.dim
            w_block = np.zeros((g.d * n, g.d * n), dtype=complex)
            for i in range(n):
                for j in range(n):
                    unit = np.zeros((n, n))
                    unit[i, j] = 1.0
                    w_block += np.kron(g.reg(r.coeffs[i, j]), unit)
            resid = np.linalg.norm(
                w_block.conj().T @ w_block - np.eye(g.d * n))
            assert resid < 1e-9, (name, resid)


def test_w_bicharacter_identity_via_regular_corep():
    # (Delta (x) id) W = W_13 W_23 is the corepresentation identity of the
    # regular corep, which validates it on construction
    from qgwb import coreps
    for name in ("dual-Z(3)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        assert max(coreps.regular_corep(g).validate().values()) < 1e-9


def test_double_dual_transport():
    # transporting the dual coproduct back through the pairing recovers the
    # product tensor in u-coordinates
    for name in ("dual-Z(4)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        dual = g.dual()
        c = dual.comult_tensor()           # c[q, a, b] over u-coords
        # bidual product: <e_a e_b, u_q> = <e_a (x) e_b, dual_comult-dualised>
        # equals the coefficient of u_q in u_a u_b
        p_back = c.transpose(2, 1, 0)      # undo the leg flip and read off
        assert np.linalg.norm(p_back - dual.P) < 1e-12
        # the bidual product has the unit of A (in u-coordinates) as unit
        u_a = g.Binv @ g.unit
        left = np.tensordot(u_a, dual.P, axes=([0], [0]))
        right = np.tensordot(dual.P, u_a, axes=([1], [0]))
        assert np.linalg.norm(left - np.eye(g.d)) < 1e-9
        assert np.linalg.norm(right - np.eye(g.d)) < 1e-9


def test_zpow_window():
    w = build_window("Z(3)^2", 2)
    # Z_3 x Z_3 ball of radius 2 under the standard generators
    assert w.d == 1 + 4 + 4  # e, four length-1, four length-2
    assert w.mul((1, 0), (2, 0)) == (0, 0)
    assert w.length((1, 1)) == 2


def test_cyclic_window_covers_group():
    w = build_window("cyclic(5)", 2)
    assert w.d == 5
    assert w.mul((3,), (4,)) == (2,)


# -- window validation: each failure names the first offending pair or triple --

def _twisted_zn_table(n):
    """Z_n on the labels 0..n-1 with g∘h = g + 2h except on identity and
    inverse pairs, so only associativity fails."""
    def prod(g, h):
        return (g + 2 * h) % n if g and h and (g + h) % n else (g + h) % n
    return {"label": f"z{n}", "elements": list(range(n)),
            "lengths": [min(g, n - g) for g in range(n)],
            "inverse": [(-g) % n for g in range(n)],
            "product": [[g, h, prod(g, h)] for g in range(n) for h in range(n)]}


_Z2_LABELS = {"elements": ["e", "g"], "lengths": [0, 1], "inverse": ["e", "g"]}


@pytest.mark.parametrize("table,radius,message", [
    (dict(_Z2_LABELS, product=[["e", "e", "e"], ["e", "g", "e"], ["g", "e", "g"],
                               ["g", "g", "e"]]), 1, "identity law fails"),
    (dict(_Z2_LABELS, product=[["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"],
                               ["g", "g", "g"]]), 1, "inverse law fails"),
    # a·a and A·A are undefined, so radius 2 is too large
    ({"elements": ["e", "a", "A"], "lengths": [0, 1, 1], "inverse": ["e", "A", "a"],
      "product": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"], ["e", "A", "A"],
                  ["A", "e", "A"], ["a", "A", "e"], ["A", "a", "e"]]},
     2, "product of 'A', 'A' undefined inside radius"),
    (_twisted_zn_table(5), 2, "associativity fails on (1, 1, 1)"),      # all n³ triples
    (_twisted_zn_table(41), 20, "associativity fails on (19, 5, 37)"),  # sampled triples
])
def test_window_check_failures(table, radius, message):
    with pytest.raises(AxiomViolation) as err:
        build_window(("custom", table), radius)
    assert str(err.value) == message


# -- Hopf-axiom residual kernels against dense einsum evaluations -------------
# Every primal residual the preset goldens print is exactly 0.0, so only
# generic tensors show an index slip in the sparse regrouping.

def _random_tensor(rng, shape):
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return t * (rng.random(shape) < 0.6)        # sparse, as structure constants are


def _close(value, expected):
    return abs(value - expected) <= 1e-12 * max(1.0, expected)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_residual_kernels_match_dense_einsum(d):
    rng = np.random.default_rng(100 + d)
    m, c = _random_tensor(rng, (d, d, d)), _random_tensor(rng, (d, d, d))
    unit, counit = _random_tensor(rng, d), _random_tensor(rng, d)
    star = _random_tensor(rng, (d, d))
    eye, norm = np.eye(d), np.linalg.norm

    coassoc = norm(np.einsum("ipk,pab->iabk", c, c) - np.einsum("iap,pbk->iabk", c, c))
    assert _close(core.coassoc_residual(c), coassoc)
    hom = norm(np.einsum("ijk,kab->ijab", m, c)
               - np.einsum("ipq,jrs,pra,qsb->ijab", c, c, m, m, optimize=True))
    assert _close(core.hom_residual(m, c), hom)
    counit_law = max(norm(np.einsum("iab,a->ib", c, counit) - eye),
                     norm(np.einsum("iab,b->ia", c, counit) - eye))
    assert _close(core.counit_residual(c, counit), counit_law)
    unital = norm(np.einsum("i,iab->ab", unit, c) - np.outer(unit, unit))
    assert _close(core.unital_residual(c, unit), unital)
    star_law = norm(np.einsum("qi,qab->iab", star, c)
                    - np.einsum("iab,pa,qb->ipq", np.conj(c), star, star))
    assert _close(core.star_residual(c, star), star_law)

    # the algebra laws, through the product read as a coproduct
    mt = m.transpose(2, 0, 1)
    assoc = norm(np.einsum("ijk,klp->ijlp", m, m) - np.einsum("jlk,ikp->ijlp", m, m))
    assert _close(core.coassoc_residual(mt), assoc)
    unit_law = max(norm(np.einsum("i,ijk->kj", unit, m) - eye),
                   norm(np.einsum("j,ijk->ki", unit, m) - eye))
    assert _close(core.counit_residual(mt, unit), unit_law)
    counit_hom = norm(np.einsum("ijk,k->ij", m, counit) - np.outer(counit, counit))
    assert _close(core.unital_residual(mt, counit), counit_hom)


def test_sparse_kernels_on_zero_tensors():
    z, eye, ones = np.zeros((3, 3, 3), dtype=complex), np.eye(3), np.ones(3)
    assert core.coassoc_residual(z) == 0.0
    assert core.hom_residual(z, z) == 0.0
    assert core.antipode_residual(z, z, eye, ones, ones) == 3.0
    assert core.star_product_residual(z, eye, z) == 0.0
    assert core.haar_residual(z, ones, ones) == 3.0


# The kernels as they were before the structure store: dense einsums, and csr
# matrices rebuilt from dense arrays and regrouped by a sort.  The store's
# kernels add the same terms in the same order, so they must agree bit for bit.

def _ref_csr_sorted(flat, data, shape):
    rows, cols = np.divmod(flat, shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((data, cols, indptr), shape=shape)


def _ref_csr(a2d):
    flat = np.flatnonzero(a2d)
    return _ref_csr_sorted(flat, np.ravel(a2d)[flat], a2d.shape)


def _ref_regroup(mat, d, axes, n_rows):
    dims = (d,) * len(axes)
    idx = np.unravel_index(np.repeat(np.arange(mat.shape[0]) * mat.shape[1],
                                     np.diff(mat.indptr)) + mat.indices, dims)
    flat = np.ravel_multi_index([idx[a] for a in axes], dims)
    order = np.argsort(flat)
    return _ref_csr_sorted(flat[order], mat.data[order],
                           (d ** n_rows, d ** (len(axes) - n_rows)))


def _ref_coassoc(c):
    d = c.shape[0]
    x = _ref_csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _ref_csr(c.reshape(d, d * d))
    y = _ref_csr(c.reshape(d * d, d)) @ _ref_csr(c.reshape(d, d * d))
    y.sort_indices()
    return float(spla.norm(_ref_regroup(x, d, (0, 2, 3, 1), 2) - y))


def _ref_hom(m, c):
    d = m.shape[0]
    lhs = _ref_csr(m.reshape(d * d, d)) @ _ref_csr(c.reshape(d, d * d))
    f = _ref_csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _ref_csr(m.reshape(d, d * d))
    e = _ref_regroup(f, d, (0, 1, 3, 2), 3) @ _ref_csr(np.transpose(c, (1, 0, 2)).reshape(d, d * d))
    r = _ref_regroup(e, d, (0, 2, 3, 1, 4), 3) @ _ref_csr(m.reshape(d * d, d))
    return float(spla.norm(lhs - _ref_regroup(r, d, (0, 2, 1, 3), 2)))


def _ref_antipode(m, c, s, counit, unit):
    left = np.einsum("ipk,pkq->iq", np.einsum("ijk,pj->ipk", c, s), m)
    right = np.einsum("ijp,jpq->iq", np.einsum("ijk,pk->ijp", c, s), m)
    target = np.outer(counit, unit)
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def _ref_star_product(m, st):
    lhs = np.einsum("ijk,pk->ijp", np.conj(m), st)
    rhs = np.einsum("ri,jrp->ijp", st, np.tensordot(st, m, axes=([0], [0])))
    return float(np.linalg.norm(lhs - rhs))


def _ref_haar(c, h, unit):
    return max(float(np.linalg.norm(np.einsum("ijk,j->ik", c, h) - np.outer(h, unit))),
               float(np.linalg.norm(np.einsum("ijk,k->ij", c, h) - np.outer(h, unit))))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
def test_store_kernels_match_the_dense_kernels_bit_for_bit(d):
    # many small draws: the antipode and Haar residuals are maxima over two
    # sides, so a changed order of terms shows only where its side is larger
    rng = np.random.default_rng(200 + d)
    for density in np.linspace(0.05, 0.95, 24):

        def tensor(shape):
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return t * (rng.random(shape) < density)

        m, c, s, st = tensor((d, d, d)), tensor((d, d, d)), tensor((d, d)), tensor((d, d))
        unit, counit, h = tensor(d), tensor(d), tensor(d)
        star_mult = np.tensordot(st, m, axes=([0], [0]))
        for t in (m, c, m.transpose(2, 0, 1)):
            assert core.coassoc_residual(t) == _ref_coassoc(t)
        assert core.hom_residual(m, c) == _ref_hom(m, c)
        assert (core.antipode_residual(m, c, s, counit, unit)
                == _ref_antipode(m, c, s, counit, unit))
        assert core.star_product_residual(m, st, star_mult) == _ref_star_product(m, st)
        assert core.haar_residual(c, h, unit) == _ref_haar(c, h, unit)
        # the dual's star is the involutive index permutation of the matrix
        # units, and its coproduct is P.transpose(2, 1, 0): the gathers of the
        # dense kernel, in that layout, are the reference
        perm = np.arange(d)
        perm[:d - d % 2] = perm[:d - d % 2].reshape(-1, 2)[:, ::-1].ravel()
        dual_c = c.transpose(2, 1, 0)
        assert (core._permuted_star_residual(c, perm)
                == float(np.linalg.norm(dual_c[perm] - np.conj(dual_c)[:, perm][:, :, perm])))


with open(Path(__file__).with_name("residual_tables.json")) as _f:
    RESIDUAL_TABLES = json.load(_f)


@pytest.mark.parametrize("name", sorted(RESIDUAL_TABLES))
def test_residual_tables_match_the_recorded_ones(name):
    # recorded from the dense kernels: the rounding-level irrep, Schur and
    # dual residuals of fn-Z(n) and fn-S3 pin the order of every sum
    g = presets.load_preset(name)
    assert {k: repr(v) for k, v in g.residuals.items()} == RESIDUAL_TABLES[name]["residuals"]
    assert ({k: repr(v) for k, v in g.dual().residuals.items()}
            == RESIDUAL_TABLES[name]["dual_residuals"])


def test_dual_z64_load_and_dual_stay_within_50_mib():
    # the gathers hold about d^3 numbers at once, never a stack times d^3
    tracemalloc.start()
    try:
        presets.build("dual-Z(64)").dual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2 ** 20


def test_quantum_group_preset_takes_no_radius():
    with pytest.raises(SchemaError, match="takes no radius"):
        presets.load_preset("dual-Z(4)", radius=3)
    with pytest.raises(SchemaError, match="takes no radius"):
        presets.load_preset("kac-paljutkin", radius=4)
    assert presets.load_preset("dual-Z(4)", radius=None) is presets.load_preset("dual-Z(4)")


def test_one_cache_entry_per_canonical_key():
    assert presets.load_preset("dual-Z( 04 )") is presets.load_preset("dual-Z(4)")
    assert presets.build("dual-Z(4)") is not presets.load_preset("dual-Z(4)")
    w = presets.load_preset("free(2)", radius=3)
    assert presets.load_preset(" free(2)  r=3") is w and w.key == "free(2) r=3"
    # a radius that is no integer is rejected, never served from the entry of 3
    for radius in (3.0, True, "3"):
        with pytest.raises(SchemaError, match="integer"):
            presets.load_preset("free(2)", radius=radius)
    with pytest.raises(SchemaError, match="takes no radius"):
        presets.load_preset("free(2) r=3", radius=3)


@pytest.mark.parametrize("name,kind", [("kac-paljutkin", "haar"), ("fn-S3", "haar"),
                                       ("grp-S3", "antipode")])
def test_check_morphism_multiplicativity_matches_basis_pair_loop(name, kind):
    # x -> h(x) 1, and on a cocommutative parent the antipode, are unital,
    # *-preserving coalgebra maps that are not multiplicative, so their
    # residual is the multiplicativity one alone
    g = presets.load_preset(name)
    pi = np.outer(g.unit, g.haar) if kind == "haar" else np.asarray(g.antipode)
    expected = max(np.linalg.norm(pi @ g.mult[i, j] - g.mul(pi[:, i], pi[:, j]))
                   for i in range(g.d) for j in range(g.d))
    assert expected > 0.1
    assert _close(core.check_morphism(g, g, pi, tol=np.inf), expected)
    with pytest.raises(NotAMorphism):
        core.check_morphism(g, g, pi)


# -- stacked products against the per-entry loops --------------------------------
# axioms reports print the irrep residuals to the last digit, so the stacked
# forms must reproduce the per-entry loops they replaced bit for bit.

def _loop_irrep_coproduct_residual(g):
    worst = 0.0
    for r in g.irreps:
        for i in range(r.dim):
            for j in range(r.dim):
                lhs = np.tensordot(r.coeffs[i, j], g.comult, axes=([0], [0]))
                rhs = np.zeros_like(lhs)
                for k in range(r.dim):
                    rhs += np.outer(r.coeffs[i, k], r.coeffs[k, j])
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def _loop_irrep_unitarity_residual(g):
    worst = 0.0
    for r in g.irreps:
        starred = np.einsum("pq,ijq->ijp", g.star, np.conj(r.coeffs))
        for i in range(r.dim):
            for j in range(r.dim):
                acc1 = np.zeros(g.d, dtype=complex)
                acc2 = np.zeros(g.d, dtype=complex)
                for k in range(r.dim):
                    acc1 += np.einsum("i,j,ijk->k", r.coeffs[i, k], starred[j, k], g.mult)
                    acc2 += np.einsum("i,j,ijk->k", starred[k, i], r.coeffs[k, j], g.mult)
                target = g.unit if i == j else 0.0
                worst = max(worst, float(np.linalg.norm(acc1 - target)),
                            float(np.linalg.norm(acc2 - target)))
    return worst


@pytest.mark.parametrize("name", [row["name"] for row in presets.preset_table()
                                  if row["kind"] == "qg"])
def test_irrep_residuals_match_entry_loops(name):
    g = presets.load_preset(name)
    assert g.residuals["irrep_coproduct"] == _loop_irrep_coproduct_residual(g)
    assert g.residuals["irrep_unitary"] == _loop_irrep_unitarity_residual(g)


QG_PRESETS = [row["name"] for row in presets.preset_table() if row["kind"] == "qg"]


@pytest.mark.parametrize("name", QG_PRESETS)
def test_stacked_mul_matches_pairs(name):
    g = presets.load_preset(name)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, g.d)) + 1j * rng.normal(size=(4, g.d))
    b = rng.normal(size=(3, g.d)) + 1j * rng.normal(size=(3, g.d))
    pairs = np.array([[np.einsum("i,j,ijk->k", x, y, g.mult) for y in b] for x in a])
    assert np.array_equal(g.mul(a[:, None], b[None]), pairs)
    assert np.array_equal(g.mul(a[0], b), pairs[0])
    assert np.array_equal(g.mul(a[0], b[0]), pairs[0, 0])


@pytest.mark.parametrize("name", QG_PRESETS)
def test_stacked_lmat_matches_einsum(name):
    g = presets.load_preset(name)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3, g.d)) + 1j * rng.normal(size=(2, 3, g.d))
    for x in (a, a[0, 0], np.eye(g.d), -np.eye(g.d)[1]):
        got, want = g.lmat(x), np.einsum("...i,iqp->...pq", x, g.mult)
        assert np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


# -- single-term contractions through the stores ------------------------------------

def store_sites(g):
    """Every (name, store, axis, matrix) contraction that validation and the
    dual take through core.single_terms, in chains as the kernels take them."""
    c, m, dual = g.comult_nz, g.mult_nz, g.dual()
    conj_c = linalg.Structure.from_entries(c.shape, c.idx, np.conj(c.w))
    yield "counit", [(c, 1, g.counit[:, None])], [(c, 2, g.counit[:, None])]
    yield "unit", [(m.permuted((2, 0, 1)), 1, g.unit[:, None])], \
        [(m.permuted((2, 0, 1)), 2, g.unit[:, None])]
    yield "dual_counit", [(dual.P_nz.permuted((2, 1, 0)), 1, dual.counit[:, None])], \
        [(dual.P_nz.permuted((2, 1, 0)), 2, dual.counit[:, None])]
    yield "star_coproduct", [(c, 0, g.star)], [(conj_c, 1, g.star.T), (None, 2, g.star.T)]
    yield "irrep_coproduct", [(c, 0, g.B)]
    yield "star_mult", [(m, 0, g.star)]
    yield "u_product", [(m, 1, g.B), (None, 0, g.B), (None, 2, g.Binv.T)]


UNITS = (1, -1, 1j, -1j)


def dense_single_terms(t, axis, mat):
    """single_terms from the dense tensor: the contraction, or None when some
    entry has two nonzero terms or a term has no factor in UNITS."""
    t, mat = np.asarray(t), np.asarray(mat)
    count = np.moveaxis(np.tensordot((t != 0).astype(int), (mat != 0).astype(int),
                                     axes=([axis], [0])), -1, axis)
    odd_t, odd_m = ~np.isin(t, UNITS) & (t != 0), ~np.isin(mat, UNITS) & (mat != 0)
    inexact = np.tensordot(odd_t.astype(int), odd_m.astype(int), axes=([axis], [0]))
    if count.max(initial=0) > 1 or inexact.any():
        return None
    return np.moveaxis(np.tensordot(t, mat, axes=([axis], [0])), -1, axis)


@pytest.mark.parametrize("name", QG_PRESETS)
def test_store_routes_count_their_terms(name, monkeypatch):
    # every contraction, however small, so the count runs on all presets
    monkeypatch.setattr(core, "STORE_MIN_WORK", 0)
    g = presets.load_preset(name)
    routes = {}
    for name_, *chains in store_sites(g):
        taken = True
        for chain in chains:
            store, dense = None, None
            for t, axis, mat in chain:
                if t is None:
                    if store is None:
                        break
                    t, dense_t = store, dense
                else:
                    dense_t = t.dense()
                store, dense = core.single_terms(t, axis, mat), dense_single_terms(dense_t, axis, mat)
                assert (store is None) == (dense is None), (name_, axis)
                if store is not None:
                    # the store's products are those of the dense contraction
                    assert np.array_equal(store.dense(), dense)
                    assert np.count_nonzero(dense) == store.w.size
            taken &= store is not None
        routes[name_] = taken
    if presets.is_dual_z(g):
        assert all(routes.values())
    if name == "kac-paljutkin":
        assert [k for k, v in routes.items() if v] == ["unit", "dual_counit"]


@pytest.mark.parametrize("name", QG_PRESETS)
def test_store_routes_keep_the_residual_tables(name, monkeypatch):
    # the stores at every size give the recorded (dense) residuals
    monkeypatch.setattr(core, "STORE_MIN_WORK", 0)
    g = presets.build(name)
    assert {k: repr(v) for k, v in g.residuals.items()} == RESIDUAL_TABLES[name]["residuals"]
    assert ({k: repr(v) for k, v in g.dual().residuals.items()}
            == RESIDUAL_TABLES[name]["dual_residuals"])


def test_small_contractions_stay_dense():
    g = presets.load_preset("dual-Z(8)")     # d^4 = 4096 multiply-adds
    assert core.single_terms(g.comult_nz, 0, g.star) is None
    g = presets.load_preset("dual-Z(16)")    # d^4 = 65536
    assert core.single_terms(g.comult_nz, 0, g.star) is not None
