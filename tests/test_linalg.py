import tracemalloc

import numpy as np
import pytest

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
        m = np.array([[complex(rng.next_u64() % 5 - 2, rng.next_u64() % 5 - 2)
                       for _ in range(2)] for _ in range(2)])
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
    assert linalg.psd_check(np.eye(3), 1e-9)
    assert not linalg.psd_check(np.diag([1.0, -0.5]), 1e-9)
    rng = CounterRNG(9)
    g = rng.complex_matrix(4, 4)
    assert linalg.psd_check(g.conj().T @ g, 1e-9)


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
    for i, (js, ks, w) in enumerate(linalg.nonzero_rows(c, 1e-16)):
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


QG_PRESETS = [name for name in presets.preset_names() if not presets.is_window_preset(name)]


@pytest.mark.parametrize("name", QG_PRESETS)
def test_structure_sum_is_bit_identical_to_the_per_entry_loop(name):
    # every tensor a call site passes, with every pair
    g = presets.load_preset(name)
    tensors = {"mult": g.mult, "star_mult": g.star_mult,
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
