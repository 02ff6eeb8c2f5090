import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qgwb import linalg, presets
from qgwb._rng import CounterRNG
from qgwb.errors import DimensionMismatch, NotHermitian


def jacobi_eigvals(h, sweeps=60, tol=1e-14):
    """Independent oracle: cyclic Jacobi with explicit 2x2 rotations."""
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diagonal(a))) ** 2))
        if off < tol * max(1.0, np.linalg.norm(a)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-18:
                    continue
                app, aqq = a[p, p].real, a[q, q].real
                # strip the phase, then rotate the real 2x2 block
                phase = apq / abs(apq)
                theta = 0.5 * np.arctan2(2 * abs(apq), app - aqq)
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[p, q] = -s * phase
                rot[q, p] = s * np.conj(phase)
                rot[q, q] = c
                a = rot.conj().T @ a @ rot
    return np.sort(np.diagonal(a).real)


def test_diagonal_eigenvalues():
    vals, vecs = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_pauli_x():
    vals, _ = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_reconstruction_random_6x6():
    rng = CounterRNG(1)
    h = rng.hermitian(6)
    vals, vecs = linalg.hermitian_eig(h)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(recon - h) <= 1e-8 * np.linalg.norm(h)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(6)) <= 1e-8


def test_reconstruction_dimension_256():
    rng = CounterRNG(2)
    h = rng.complex_matrix(256, 256)
    h = 0.5 * (h + h.conj().T)
    vals, vecs = linalg.hermitian_eig(h)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.linalg.norm(recon - h) <= 1e-8 * np.linalg.norm(h)


def test_eigenvalues_match_jacobi_oracle():
    rng = CounterRNG(3)
    h = rng.hermitian(8)
    vals, _ = linalg.hermitian_eig(h)
    assert np.allclose(vals, jacobi_eigvals(h), atol=1e-9)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_zero_is_identity():
    assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    out = linalg.expm(np.diag([1.0, -1.0]))
    assert np.allclose(out, np.diag([np.e, 1.0 / np.e]), atol=1e-12)


def test_expm_matches_taylor_series():
    rng = CounterRNG(4)
    m = rng.complex_matrix(4, 4)
    m = m / (2.0 * np.linalg.norm(m, 2))
    series = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(31):
        series += term
        term = term @ m / (k + 1)
    assert np.linalg.norm(linalg.expm(m) - series) <= 1e-12


def test_expm_addition_on_commuting_diagonals():
    rng = CounterRNG(5)
    a = np.diag(rng.complex_vector(5))
    b = np.diag(rng.complex_vector(5))
    lhs = linalg.expm(a + b)
    rhs = linalg.expm(a) @ linalg.expm(b)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))


def test_expm_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        linalg.expm(np.zeros((2, 3)))


# -- stacked spectral path ---------------------------------------------------------

def expm_per_matrix(m):
    """The exponential of one matrix as it was computed matrix by matrix:
    the reference of the stacked path."""
    m = np.asarray(m, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m)))
    if float(np.linalg.norm(m - m.conj().T)) <= linalg.HERM_RTOL * scale:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        return (vecs * np.exp(vals)) @ vecs.conj().T
    return scipy.linalg.expm(m)


def _spectral_stack(kind, n, count=12, seed=0):
    """count n x n matrices: Hermitian, general, or a mix that also holds
    nearly Hermitian (within the gate), triangular and diagonal ones."""
    rng = CounterRNG(100 * n + seed)
    out = []
    for i in range(count):
        pick = {"hermitian": 0, "general": 1}.get(kind, i % 5)
        scale = 0.5 + 3.0 * rng.uniforms(1)[0]
        if pick == 0:
            m = rng.hermitian(n)
        elif pick == 1:
            m = rng.complex_matrix(n, n)
        elif pick == 2:
            m = rng.hermitian(n) + 1e-12 * rng.complex_matrix(n, n)
        elif pick == 3:
            m = np.triu(rng.complex_matrix(n, n))
        else:
            m = np.diag(rng.complex_vector(n))
        out.append(scale * m)
    return np.array(out)


@pytest.mark.parametrize("kind", ["hermitian", "general", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expm_stack_is_bit_identical_to_per_matrix(kind, n):
    stack = _spectral_stack(kind, n)
    ref = np.array([expm_per_matrix(m) for m in stack])
    assert np.array_equal(linalg.expm(stack), ref)
    # any leading shape, and each matrix alone
    assert np.array_equal(linalg.expm(stack.reshape(3, 4, n, n)), ref.reshape(3, 4, n, n))
    for m, r in zip(stack, ref):
        assert np.array_equal(linalg.expm(m), r)


def test_expm_of_an_empty_stack():
    assert linalg.expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_expm_rejects_a_nonfinite_stack():
    stack = _spectral_stack("mixed", 2)
    stack[5, 1, 0] = np.nan
    with pytest.raises(DimensionMismatch):
        linalg.expm(stack)


def test_hermitian_gates_on_stacks_match_each_matrix():
    stack = _spectral_stack("mixed", 3)
    herm = stack[[0, 2, 5, 7]]
    defects = linalg.hermiticity_defect(stack)
    lows = linalg.min_eig(herm)
    for m, dm in zip(stack, defects):
        assert dm == linalg.hermiticity_defect(m) == float(np.linalg.norm(m - m.conj().T))
    for m, low in zip(herm, lows):
        assert low == linalg.min_eig(m) == float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    assert np.array_equal(linalg.require_hermitian(herm),
                          [linalg.require_hermitian(m) for m in herm])
    with pytest.raises(NotHermitian, match="defect"):
        linalg.min_eig(stack)


def test_single_matrix_routines_reject_a_stack():
    stack = np.array([np.eye(2), 2.0 * np.eye(2)])
    for routine in (linalg.hermitian_eig, linalg.psd_sqrt, linalg.psd_factor_vectors,
                    linalg.psd_check):
        with pytest.raises(DimensionMismatch):
            routine(stack)


def test_hermitian_gates_validate_their_input_once(monkeypatch):
    calls = []
    real = linalg.require_square

    def counted(m):
        calls.append(np.shape(m))
        return real(m)
    monkeypatch.setattr(linalg, "require_square", counted)
    h = CounterRNG(12).hermitian(4)
    for gate in (linalg.require_hermitian, linalg.min_eig, linalg.hermitian_eig,
                 linalg.hermiticity_defect, linalg.expm):
        calls.clear()
        gate(h)
        assert calls == [(4, 4)], gate.__name__


def test_kron_identity():
    assert np.allclose(linalg.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_mixed_product():
    rng = CounterRNG(6)
    a, b, c, d = (rng.complex_matrix(2, 2) for _ in range(4))
    lhs = linalg.kron(a, b) @ linalg.kron(c, d)
    rhs = linalg.kron(a @ c, b @ d)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_kron_trace_multiplicative():
    rng = CounterRNG(7)
    a, b = rng.complex_matrix(3, 3), rng.complex_matrix(2, 2)
    assert abs(np.trace(linalg.kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_kron_associative_exactly():
    # exact equality of the flattening convention: use entries whose triple
    # products are exact in floating point
    rng = CounterRNG(8)
    mats = []
    for _ in range(3):
        v = [int(x) % 5 - 2 for x in rng.u64s(8)]
        m = (np.array(v[0::2]) + 1j * np.array(v[1::2])).reshape(2, 2)
        mats.append(m)
    a, b, c = mats
    assert np.array_equal(linalg.kron(linalg.kron(a, b), c),
                          linalg.kron(a, linalg.kron(b, c)))


def test_kron_matches_numpy_on_matrices_and_stacks():
    rng = CounterRNG(9)
    a = rng.complex_matrix(2, 3)
    b = np.array([rng.complex_matrix(4, 1) for _ in range(5)])
    assert np.array_equal(linalg.kron(a, b[0]), np.kron(a, b[0]))
    assert np.array_equal(linalg.kron(a, b), np.kron(a, b))
    assert linalg.kron(a, b[:0]).shape == (0, 8, 3)


def test_psd_check():
    assert linalg.psd_check(np.eye(3))
    assert not linalg.psd_check(np.diag([1.0, -0.5]))
    rng = CounterRNG(9)
    g = rng.complex_matrix(4, 4)
    assert linalg.psd_check(g.conj().T @ g)


def test_psd_factor_vectors_roundtrip():
    rng = CounterRNG(10)
    g = rng.complex_matrix(5, 3)
    gram = g @ g.conj().T  # rank 3 PSD
    f = linalg.psd_factor_vectors(gram)
    assert f.shape == (5, 3)
    recon = np.conj(f) @ f.T
    assert np.linalg.norm(recon - gram) <= 1e-10 * max(1.0, np.linalg.norm(gram))


def test_intertwiner_solver():
    # commutant of a direct sum of two inequivalent characters is diagonal
    left = [np.diag([1.0, 1.0]), np.diag([1.0, -1.0])]
    sols = linalg.solve_intertwiner(left, left)
    assert len(sols) == 2
    for t in sols:
        assert abs(t[0, 1]) < 1e-12 and abs(t[1, 0]) < 1e-12


def brute_structure_sum(c, x, y, pair):
    out = np.zeros((c.shape[2],) + pair(x[0], y[0]).shape, dtype=complex)
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            for k in range(c.shape[2]):
                out[k] += c[i, j, k] * pair(x[i], y[j])
    return out


def _stacks(d, seed):
    rng = CounterRNG(seed)
    x = np.array([rng.complex_matrix(2, 3) for _ in range(d)])
    y = np.array([rng.complex_matrix(3, 2) for _ in range(d)])
    return x, y


def _kac_paljutkin_dual_product():
    p = np.array(presets.load_preset("kac-paljutkin").dual().P)
    # the case the kernel must get right: one (i, j) feeding several k
    assert np.any(np.sum(np.abs(p) > 1e-16, axis=2) > 1)
    return p


def _dual_z5_mult():
    return np.array(presets.load_preset("dual-Z(5)").mult)


def _zero_row_tensor():
    c = _dual_z5_mult()
    c[2] = 0.0
    return c


def _scattered_tensor():
    # rows whose j have gaps and repeats, and a row with a single entry
    c = np.zeros((6, 6, 3), dtype=complex)
    c[0, [0, 2, 2, 5], [1, 0, 2, 1]] = [1.0, 2.0 - 1.0j, 0.5, -3.0]
    c[1, [1, 2, 3], [0, 0, 0]] = [1.0, 1.0j, -1.0]
    c[3, 4, 2] = 0.25
    return c


@pytest.mark.parametrize("pair", [np.matmul, np.kron, linalg.kron],
                         ids=["matmul", "kron", "linalg-kron"])
@pytest.mark.parametrize("make_c", [
    _kac_paljutkin_dual_product, _dual_z5_mult, _zero_row_tensor, _scattered_tensor,
], ids=["kac-paljutkin-P", "dual-Z5-mult", "zero-row", "scattered"])
def test_structure_sum_matches_triple_loop(make_c, pair):
    c = make_c()
    x, y = _stacks(c.shape[0], 12)
    got = linalg.structure_sum(c, x, y, pair)
    want = brute_structure_sum(c, x, y, pair)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def per_entry_structure_sum(c, x, y, pair):
    """The per-entry loop structure_sum replaced: each row's runs of
    consecutive j paired once, then out[k] += w * pair(x[i], y[j]) for each
    nonzero c[i, j, k] in row-major order."""
    probe = pair(x[0], y[0])
    out = np.zeros((c.shape[2],) + probe.shape, dtype=np.result_type(c, probe))
    for i, (js, ks, w) in enumerate(linalg.Structure(c).cut(1e-16).rows()):
        js = js.tolist()
        need, prods = set(js), {}
        for lo in js:
            if lo not in prods:
                hi = lo + 1
                while hi in need:
                    hi += 1
                prods.update(zip(range(lo, hi), pair(x[i], y[lo:hi])))
        for j, k, wk in zip(js, ks.tolist(), w.tolist()):
            out[k] += wk * prods[j]
    return out


QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]


@pytest.mark.parametrize("name", QG_PRESETS)
def test_structure_sum_is_bit_identical_to_the_per_entry_loop(name):
    # every tensor a call site passes, with every pair
    g = presets.load_preset(name)
    tensors = {"mult": g.mult, "star_mult": np.tensordot(g.star, g.mult, axes=([0], [0])),
               "mult.T(1,0,2)": g.mult.transpose(1, 0, 2), "dual.P": g.dual().P}
    x, y = _stacks(g.d, 14)
    for label, c in tensors.items():
        for pair in (np.matmul, np.kron, linalg.kron):
            got = linalg.structure_sum(c, x, y, pair)
            assert np.array_equal(got, per_entry_structure_sum(c, x, y, pair)), \
                (label, pair.__name__)


@pytest.mark.parametrize("pair, shape", [
    (np.matmul, (4, 2, 2)), (np.kron, (4, 6, 6)), (linalg.kron, (4, 6, 6)),
], ids=["matmul", "kron", "linalg-kron"])
def test_structure_sum_of_zero_tensor(pair, shape):
    x, y = _stacks(3, 13)
    out = linalg.structure_sum(np.zeros((3, 3, 4)), x, y, pair)
    assert out.shape == shape
    assert not np.any(out)


def test_null_space_of_a_tall_system_needs_no_full_u():
    # the shape of dual-Z(64)'s kazhdan invariant-projection stack; a full
    # U would be 4032 x 4032 complex numbers, 248 MiB
    rng = np.random.default_rng(0)
    system = (rng.standard_normal((4032, 60)) @ rng.standard_normal((60, 63))).astype(complex)
    tracemalloc.start()
    try:
        basis = linalg.null_space(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 3
    assert np.linalg.norm(system @ np.array(basis).T) < 1e-9
    assert peak < 32 * 2 ** 20


# -- contract -------------------------------------------------------------------

SIZES = dict(zip("abijkpqrs", (2, 3, 4, 3, 2, 3, 2, 4, 3)))
# (a's letters, b's letters, out): one summed letter, two summed letters, a
# batch letter both operands name, and out led by a letter only b names
CONTRACTIONS = [("ijk", "kab", "ijab"), ("ipk", "pkq", "iq"), ("iqra", "qrjs", "qiajs"),
                ("pab", "ipk", "iabk")]


def _sparse_tensor(rng, letters, density=0.4):
    shape = [SIZES[x] for x in letters]
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.where(rng.random(shape) < density, t, 0)


def _lettered(t, letters):
    """t as a Lettered, by a contraction with the identity on its last axis."""
    z = linalg.Structure(np.eye(t.shape[-1]))
    return linalg.contract(linalg.Structure(t), letters[:-1] + "z", z, "z" + letters[-1], letters)


@pytest.mark.parametrize("a_letters, b_letters, out", CONTRACTIONS)
@pytest.mark.parametrize("form", ["stores", "dense b", "lettered a"])
def test_contract_matches_einsum(a_letters, b_letters, out, form):
    rng = np.random.default_rng(len(out) + 7 * len(form))
    for _ in range(3):
        a, b = _sparse_tensor(rng, a_letters), _sparse_tensor(rng, b_letters)
        want = np.einsum(f"{a_letters},{b_letters}->{out}", a, b)
        left = _lettered(a, a_letters) if form == "lettered a" else linalg.Structure(a)
        right = b if form == "dense b" else linalg.Structure(b)
        got = linalg.contract(left, a_letters, right, b_letters, out)
        assert got.letters == out and got.shape == want.shape
        np.testing.assert_allclose(got.dense(), want, rtol=1e-12, atol=1e-14)
        part = slice(1, SIZES[out[0]] - 1)
        got = linalg.contract(left, a_letters, right, b_letters, out, part)
        np.testing.assert_allclose(got.dense(), want[part], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("a_letters, b_letters, out", CONTRACTIONS)
def test_contract_of_an_operand_with_no_entries(a_letters, b_letters, out):
    rng = np.random.default_rng(5)
    a, b = np.zeros([SIZES[x] for x in a_letters], dtype=complex), _sparse_tensor(rng, b_letters)
    got = linalg.contract(linalg.Structure(a), a_letters, linalg.Structure(b), b_letters, out)
    assert got.mat.nnz == 0
    assert np.array_equal(got.dense(), np.einsum(f"{a_letters},{b_letters}->{out}", a, b))


def test_contract_rejects_a_letter_it_cannot_place():
    t = linalg.Structure(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="cannot contract"):
        linalg.contract(t, "ijk", t, "kab", "iajb")     # a letter of a after one of b
    with pytest.raises(ValueError, match="cannot contract"):
        linalg.contract(t, "ijk", t, "kab", "ija")      # b's b neither summed nor kept


def test_contract_differences_merge_rows_in_order():
    rng = np.random.default_rng(11)
    c = _sparse_tensor(rng, "ppp")
    x = linalg.contract(linalg.Structure(c), "pab", linalg.Structure(c), "ipk", "iabk")
    y = linalg.contract(linalg.Structure(c), "iap", linalg.Structure(c), "pbk", "iabk")
    assert (x.n_rows, y.n_rows) == (3, 2)
    diff = x - y
    assert diff.n_rows == 2 and diff.mat.has_canonical_format
    np.testing.assert_allclose(diff.dense(), x.dense() - y.dense(), rtol=1e-12, atol=1e-14)
    assert linalg.frob_stack([diff.mat]) == np.linalg.norm(diff.mat.data)
