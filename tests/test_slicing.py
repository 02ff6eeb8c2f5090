"""Sliced kernels against the unsliced ones, and the memory they hold.

The residual kernels, the dual product, the Schurmann triple and the
window products run in slices along their leading index, each of at most
linalg.SLICE_BYTES, cut by linalg.byte_slices.  The unsliced kernels they
replaced are kept below as references.  With the slice size forced down to
a few KiB every kernel takes many slices, and each result must equal the
reference's with ==.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import qgwb
from qgwb import cli, core, genfun, linalg, presets, serialize
from qgwb.errors import BudgetExceeded, WindowTruncation
from qgwb.windows import build_window

SMALL_SLICE = 4096
MiB = 2 ** 20
QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]


# -- the unsliced kernels ------------------------------------------------------
# The csr staging the kernels used before linalg.contract, kept here so the
# references share no code with the kernels they check.

def _block_diagonal(a, n: int) -> sp.csr_matrix:
    """kron(identity(n), a) for a csr matrix a with sorted rows: n copies of
    a down the diagonal, rows sorted."""
    (rows, cols), nnz = a.shape, a.indptr[-1]
    copy = np.arange(n)
    indptr = np.append((copy * nnz)[:, None] + a.indptr[:-1], n * nnz)
    indices = ((copy * cols)[:, None] + a.indices).ravel()
    return sp.csr_matrix((np.tile(a.data, n), indices, indptr), shape=(n * rows, n * cols))


def _row_lengths(mat):
    # as np.intp: np.repeat is several times slower with int32 counts
    return np.diff(mat.indptr).astype(np.intp)


def _pairs(a, b, n: int):
    """All (x, y) with a[x] == b[y], for keys in range(n), x major."""
    counts = np.bincount(b, minlength=n)
    count = counts[a]
    x = np.repeat(np.arange(a.size), count)
    first = (np.cumsum(counts) - counts)[a] - (np.cumsum(count) - count)
    return x, np.argsort(b, kind="stable")[np.repeat(first, count) + np.arange(x.size)]


def _sorted(mat) -> sp.csr_matrix:
    mat.sort_indices()
    return mat


def _merged(mat, k: int) -> sp.csr_matrix:
    """A csr matrix with sorted rows as the matrix whose row r is its rows
    k r, ..., k r + k - 1 side by side: the same entries in the same
    row-major order."""
    part = np.repeat(np.tile(np.arange(k), mat.shape[0] // k), _row_lengths(mat))
    return sp.csr_matrix((mat.data, part * mat.shape[1] + mat.indices, mat.indptr[::k]),
                         shape=(mat.shape[0] // k, mat.shape[1] * k))

def _ref_digits(mat, d, n_rows, n_cols):
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr).astype(np.intp))
    return np.unravel_index(rows, (d,) * n_rows) + np.unravel_index(mat.indices, (d,) * n_cols)


def _ref_regrouped(digits, data, d, rows, cols):
    n_cols = d ** len(cols)
    flat = (np.ravel_multi_index([digits[a] for a in rows], (d,) * len(rows)) * n_cols
            + np.ravel_multi_index([digits[a] for a in cols], (d,) * len(cols)))
    order = np.argsort(flat)
    return linalg.csr_sorted(flat[order], data[order], (d ** len(rows), n_cols))


def ref_coassoc(c):
    c = linalg.Structure(c)
    d = c.shape[0]
    x = _block_diagonal(c.permuted((1, 2, 0)).csr(2), d) @ c.csr(2)
    y = c.csr(2) @ c.csr(1)
    return linalg.frob(_merged(_sorted(x), d) - _sorted(y))


def ref_hom(m, c):
    m, c = linalg.Structure(m), linalg.Structure(c)
    d = m.shape[0]
    lhs = m.csr(2) @ c.csr(1)
    f = c.permuted((0, 2, 1)).csr(2) @ m.csr(1)
    live_q, live_s = np.divmod(np.flatnonzero(np.diff(m.csr(2).indptr)), d)
    j, r, s = c.idx
    x, y = _pairs(live_s, s, d)
    cq = _ref_regrouped((live_q[x], r[y], j[y], s[y]), c.w[y], d, (0, 1), (2, 3))
    e = _ref_regrouped(_ref_digits(f, d, 2, 2), f.data, d, (1, 0, 3), (1, 2)) @ cq
    e = _ref_regrouped(_ref_digits(e, d, 3, 2), e.data, d, (1, 3, 2), (0, 4))
    r = e @ m.csr(2)
    return linalg.frob(_sorted(lhs) - _merged(_sorted(r), d))


def ref_star(c, star):
    lhs = np.tensordot(star, c, axes=([0], [0]))
    rhs = np.tensordot(np.conj(c), star, axes=([1], [1]))
    rhs = np.tensordot(rhs, star, axes=([1], [1]))
    return float(np.linalg.norm(lhs - rhs))


def ref_antipode(m, c, s, counit, unit):
    m, c = linalg.Structure(m), linalg.Structure(c)
    d = m.shape[0]
    s_t = np.asarray(s).T
    sd = (c.permuted((0, 2, 1)).csr(2) @ s_t).reshape(d, d, d).transpose(0, 2, 1)
    left = sd.reshape(d, d * d) @ m.csr(2)
    right = (c.csr(2) @ s_t).reshape(d, d * d) @ m.csr(2)
    target = np.outer(counit, unit)
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def ref_star_product(m, star, star_mult):
    m, star_mult = linalg.Structure(m), linalg.Structure(star_mult)
    d = m.shape[0]
    st_t = np.asarray(star).T
    lhs = m.csr(2).conj() @ st_t
    rhs = st_t @ star_mult.permuted((1, 0, 2)).csr(1)
    return float(np.linalg.norm(lhs.reshape(d, d * d) - rhs))


def ref_dual_star(p, perm):
    c = p.transpose(2, 1, 0)      # the dual's coproduct, as comult_tensor() reads it
    return float(np.linalg.norm(c[perm] - np.conj(c)[:, perm][:, :, perm]))


def ref_u_product(parent):
    b, binv = parent.B, parent.Binv
    mb = np.tensordot(parent.mult, b, axes=([1], [0])).transpose(0, 2, 1)
    p0 = np.tensordot(b, mb, axes=([0], [0]))
    return np.tensordot(p0, binv, axes=([2], [1]))


def ref_irrep_unitary(g):
    def resid(u):
        n = u.shape[1]
        starred = np.einsum("pq,aijq->aijp", g.star, np.conj(u))
        target = np.where(np.eye(n, dtype=bool)[..., None], g.unit, 0.0)
        acc1 = sum(g.mul(u[:, :, None, k], starred[:, None, :, k]) for k in range(n))
        acc2 = sum(g.mul(starred[:, k, :, None], u[:, k, None, :]) for k in range(n))
        return max(linalg.norms(acc1 - target).max(), linalg.norms(acc2 - target).max())
    return float(max(resid(np.array([r.coeffs for r in g.irreps if r.dim == n]))
                     for n in sorted(set(g.block_dims))))


def ref_triple(triple, parent):
    """rhos and the cocycle rule residual, formed for all p at once."""
    f = triple.cocycle_vectors
    c_products = triple.cocycle(parent.mult)
    targets = c_products - parent.counit[:, None] * f[:, None, :]
    rhos = targets.swapaxes(1, 2) @ np.linalg.pinv(f.T)
    rhs = (linalg.rowmul(f, rhos[:, None].swapaxes(-1, -2))
           + parent.counit[:, None] * f[:, None, :])
    return rhos, float(linalg.norms(c_products - rhs).max())


# -- helpers --------------------------------------------------------------------

@pytest.fixture
def small_slices(monkeypatch):
    """Slices of SMALL_SLICE bytes, and the most slices a call of each
    kernel took, by kernel name."""
    counts = {}
    real = linalg.byte_slices

    def counting(n, nbytes, kernel):
        out = real(n, nbytes, kernel)
        counts[kernel] = max(counts.get(kernel, 0), len(out))
        return out
    monkeypatch.setattr(linalg, "SLICE_BYTES", SMALL_SLICE)
    monkeypatch.setattr(linalg, "byte_slices", counting)
    return counts


def traced(build):
    """(result, tracemalloc peak, memory kept) of build()."""
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


# -- bit for bit ----------------------------------------------------------------

@pytest.mark.parametrize("name", QG_PRESETS)
def test_sliced_kernels_equal_the_unsliced_ones_on_presets(name, small_slices):
    g = presets.load_preset(name)
    dual = g.dual()
    p = dual.P
    assert core.coassoc_residual(g.mult_nz.permuted((2, 0, 1))) == ref_coassoc(
        g.mult.transpose(2, 0, 1))
    assert core.coassoc_residual(g.comult_nz) == ref_coassoc(g.comult)
    assert core.hom_residual(g.mult_nz, g.comult_nz) == ref_hom(g.mult, g.comult)
    assert (core.antipode_residual(g.mult_nz, g.comult_nz, g.antipode, g.counit, g.unit)
            == ref_antipode(g.mult, g.comult, g.antipode, g.counit, g.unit))
    assert (core.star_product_residual(g.mult_nz, g.star, g.star_mult_nz)
            == ref_star_product(g.mult, g.star, np.tensordot(g.star, g.mult, axes=([0], [0]))))
    assert core.star_residual(g.comult, g.star) == ref_star(g.comult, g.star)
    assert g._irrep_unitarity_residual() == ref_irrep_unitary(g)
    assert np.array_equal(core._u_product(g).dense(), ref_u_product(g))
    c = p.transpose(2, 1, 0)
    assert core.coassoc_residual(dual.P_nz.permuted((2, 1, 0))) == ref_coassoc(c)
    assert core.hom_residual(dual.product_nz, c) == ref_hom(dual.product_nz.dense(), c)
    assert core._permuted_star_residual(dual.P_nz, dual.star_perm) == ref_dual_star(
        p, dual.star_perm)
    if g.d >= 4:
        assert max(small_slices.values()) > 1


@pytest.mark.parametrize("name", QG_PRESETS)
def test_builds_in_small_slices_keep_every_residual(name, small_slices):
    g, built = presets.load_preset(name), presets.build(name)   # anew, outside the cache
    assert built.residuals == g.residuals
    assert built.dual().residuals == g.dual().residuals
    assert np.array_equal(built.dual().P, g.dual().P)


@pytest.mark.parametrize("name", ["dual-Z(6)", "fn-Z(6)", "fn-S3", "kac-paljutkin"])
def test_schurmann_triple_in_small_slices(name, small_slices):
    g = presets.load_preset(name)
    triple = genfun.schurmann_triple(cli._central_index_generator(g))
    rhos, worst = ref_triple(triple, g)
    assert np.array_equal(triple.rhos, rhos)
    assert triple.cocycle_rule_residual == worst
    assert small_slices["schurmann_triple"] > 1


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_sliced_kernels_equal_the_unsliced_ones_on_dense_tensors(d, small_slices):
    rng = np.random.default_rng(300 + d)

    def tensor(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(4):
        m, c, p = tensor((d, d, d)), tensor((d, d, d)), tensor((d, d, d))
        s, st, b = tensor((d, d)), tensor((d, d)), tensor((d, d))
        unit, counit = tensor(d), tensor(d)
        star_mult = np.tensordot(st, m, axes=([0], [0]))
        for t in (m, c, m.transpose(2, 0, 1)):
            assert core.coassoc_residual(t) == ref_coassoc(t)
        assert core.hom_residual(m, c) == ref_hom(m, c)
        assert core.antipode_residual(m, c, s, counit, unit) == ref_antipode(m, c, s, counit, unit)
        assert core.star_product_residual(m, st, star_mult) == ref_star_product(m, st, star_mult)
        assert core.star_residual(c, st) == ref_star(c, st)
        perm = np.arange(d)
        perm[:d - d % 2] = perm[:d - d % 2].reshape(-1, 2)[:, ::-1].ravel()
        assert core._permuted_star_residual(p, perm) == ref_dual_star(p, perm)
        parent = types.SimpleNamespace(mult=m, mult_nz=linalg.Structure(m), B=b,
                                       Binv=np.linalg.inv(b))
        assert np.array_equal(core._u_product(parent).dense(), ref_u_product(parent))
    assert max(small_slices.values()) > 1


# windows of the benchmark's small-mix workload, free(2) r=8, and Z(1)^3
# r=4, whose spheres alone here outgrow one small slice
SLICED_WINDOWS = [("free(1)", 6), ("free(2)", 4), ("free(2)", 6), ("free(3)", 4), ("Z(1)", 20),
                  ("Z(1)", 40), ("Z(1)^2", 6), ("free(2)", 8), ("Z(1)^3", 4)]


def window_tables(w):
    return [w.lengths, w.inv_index] + [w.diff_index(s) for s in range(w.radius // 2 + 1)]


@pytest.fixture(scope="module")
def unsliced_window_tables():
    return {spec: window_tables(build_window(*spec)) for spec in SLICED_WINDOWS}


def test_windows_in_small_slices_keep_every_table(unsliced_window_tables, small_slices):
    for spec, tables in unsliced_window_tables.items():
        w = build_window(*spec)     # its _check passes, as unsliced
        for got, want in zip(window_tables(w), tables, strict=True):
            assert np.array_equal(got, want)
    for kernel in ("window_products", "diff_index", "sphere_growth"):
        assert small_slices[kernel] > 1


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 5000])
@pytest.mark.parametrize("x", [0, 1, 160, SMALL_SLICE, linalg.SLICE_BYTES // 3,
                               linalg.SLICE_BYTES, linalg.SLICE_BYTES + 1, linalg.BYTE_BUDGET])
def test_one_cost_for_every_index_slices_as_an_array_of_it(n, x):
    slices = linalg.byte_slices(n, x, "k")
    assert slices == linalg.byte_slices(n, np.full(n, x), "k")
    assert [i for part in slices for i in range(n)[part]] == list(range(n))


@pytest.mark.parametrize("n", [1, 3])
def test_one_cost_over_the_budget_raises_as_an_array_of_it(n):
    over = linalg.BYTE_BUDGET + 1
    messages = []
    for nbytes in (over, np.full(n, over)):
        with pytest.raises(BudgetExceeded) as info:
            linalg.byte_slices(n, nbytes, "k")
        messages.append(str(info.value))
    assert messages == [f"k: index 0 needs {over} bytes, "
                        f"over the budget of {linalg.BYTE_BUDGET}"] * 2
    assert linalg.byte_slices(0, over, "k") == linalg.byte_slices(0, np.full(0, over), "k") == []


# -- resource caps ----------------------------------------------------------------

def test_one_index_over_the_budget_names_the_kernel(monkeypatch):
    monkeypatch.setattr(linalg, "BYTE_BUDGET", 1024)
    g = presets.load_preset("dual-Z(8)")
    with pytest.raises(BudgetExceeded, match=r"coassoc_residual: index \d+ needs \d+ bytes"):
        core.coassoc_residual(g.comult_nz)
    with pytest.raises(BudgetExceeded, match="hom_residual"):
        core.hom_residual(g.mult_nz, g.comult_nz)


def test_a_document_over_the_budget_exits_5(tmp_path, monkeypatch):
    path = tmp_path / "z8.json"
    path.write_text(json.dumps(serialize.qg_to_dict(presets.load_preset("dual-Z(8)"))))
    monkeypatch.setattr(linalg, "BYTE_BUDGET", 1024)
    code, report = cli.run_scenario({"name": "x", "preset": str(path), "experiment": "axioms"},
                                    out_dir=str(tmp_path))
    assert code == 5
    with open(report) as fh:
        assert "BudgetExceeded" in fh.read()


# a sphere element of Z(1)^m holds 16 m^2 bytes of work, over the budget
# from m = 1449 on
@pytest.mark.parametrize("m", [1449, 1500])
def test_a_sphere_element_over_the_budget_exits_5(m, tmp_path):
    assert 16 * 1448 ** 2 <= linalg.BYTE_BUDGET < 16 * 1449 ** 2
    start = time.perf_counter()
    code, report = cli.run_scenario({"name": "x", "preset": f"Z(1)^{m} r=1",
                                     "experiment": "axioms"}, out_dir=str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 5
    error = json.loads(Path(report).read_text())["error"]
    assert error["type"] == "BudgetExceeded"
    assert error["message"] == (f"sphere_growth: index 0 needs {16 * m * m} bytes, "
                                f"over the budget of {linalg.BYTE_BUDGET}")


# -- memory -----------------------------------------------------------------------

def test_dual_z48_load_and_dual_hold_at_most_9_mib():
    (g, dual), peak, kept = traced(lambda: (lambda g: (g, g.dual()))(presets.build("dual-Z(48)")))
    assert peak <= 9 * MiB
    assert kept <= 6 * MiB
    # no dense derived d^3 tensor and no form that only validation reads
    assert "star_mult" not in vars(g)
    for obj in (g, dual):
        big = [k for k, v in vars(obj).items() if isinstance(v, np.ndarray) and v.size >= g.d ** 3]
        assert sorted(big) == (["comult", "mult"] if obj is g else [])
    kept = {"mult_nz": {("csr", 1), ("grouped", (2,))}, "comult_nz": {("permuted", (1, 2, 0))},
            "star_mult_nz": set(), "P_nz": set(), "product_nz": set()}
    for name, keys in kept.items():
        assert set(getattr(dual if name in ("P_nz", "product_nz") else g, name)._kept) == keys


def test_dual_z64_load_and_dual_hold_at_most_20_mib():
    _, peak, _ = traced(lambda: presets.build("dual-Z(64)").dual())
    assert peak <= 20 * MiB


def test_dual_z48_schurmann_triple_transient_at_most_3_5_mib():
    gen = cli._central_index_generator(presets.load_preset("dual-Z(48)"))
    _, peak, _ = traced(lambda: genfun.schurmann_triple(gen))
    assert peak <= 3.5 * MiB


# fn-Z(48) is not shipped but builds: its dual product has rounding-level
# entries everywhere, so its coassociativity difference alone has about
# 5.2 million entries (79 MiB), which the one norm reads.  The norms of such
# long vectors follow BLAS's thread split, so the recorded values (those of
# the unsliced kernels) are taken with one BLAS thread, as the benchmark
# runs, in a fresh process.
FN_Z48_DUAL_RESIDUALS = {
    "dual_coassociativity": 6.070181683042866e-13,
    "dual_homomorphism": 1.9791898446104604e-12,
    "dual_counit": 1.2153517099253734e-14,
    "dual_star": 1.832908296882785e-12,
}
FN_Z48 = """
import json, tracemalloc
from qgwb import presets
tracemalloc.start()
dual = presets.fn_z(48).dual()
print(json.dumps({"residuals": dual.residuals, "peak": tracemalloc.get_traced_memory()[1]}))
"""


def test_fn_z48_load_and_dual_keep_their_residuals_within_128_mib():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(qgwb.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", FN_Z48], env=env, check=True,
                         capture_output=True, text=True)
    got = json.loads(out.stdout)
    assert got["residuals"] == FN_Z48_DUAL_RESIDUALS
    assert got["peak"] <= 128 * MiB


# -- window tables -----------------------------------------------------------------

def test_diff_index_over_the_window_raises_early():
    w = build_window("free(2)", 8)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(WindowTruncation, match="leaves the window"):
            w.diff_index(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak <= 64 * MiB


@pytest.mark.parametrize("radius", [2, 3, 4])
def test_diff_index_in_row_blocks_matches_the_whole_table(radius, monkeypatch):
    w = build_window("free(2)", 4)
    m = int(np.searchsorted(w.lengths, radius, side="right"))
    whole = w.products(w.inv_index[:m, None], np.arange(m))
    # blocks of 7 rows, the last one short (no ball size here is a multiple of 7)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 7 * m * w._pair_bytes)
    if np.all(whole >= 0):
        assert np.array_equal(w.diff_index(radius), whole)
        return
    a, b = np.unravel_index(np.argmax(whole < 0), whole.shape)
    message = f"product of {w.elements[w.inv_index[a]]!r}, {w.elements[b]!r} leaves the window"
    with pytest.raises(WindowTruncation) as info:
        w.diff_index(radius)
    assert str(info.value) == message
