"""Complex linear algebra kernel.

All other modules go through these wrappers instead of calling numpy/scipy
directly for spectral work, so the Hermiticity gates and tolerance
conventions live in one place.  Matrices are plain complex ndarrays, except
in the Fock layer, whose operators are scipy sparse arrays that report the
bytes they hold (`SparseMatrix`, `SparseStack`); tolerances are absolute
unless stated relative.

`structure_sum` is the one kernel for sums of coefficient matrices against
structure constants, out[k] = sum_{i,j} c[i,j,k] X_i Y_j (or X_i (x) Y_j),
with one np.add.at per row i;
`structure_sum_sparse` is its form for sparse families.  `rowmul`, `vdots`
and `norms` act on stacks of vectors, bit for bit as on each vector alone.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import DimensionMismatch, NotHermitian

HERM_RTOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionMismatch("matrix entries must be finite")
    return m


def frob(m) -> float:
    """Frobenius norm, of an ndarray or a scipy sparse array."""
    if sparse.issparse(m):
        m = sparse.csr_array(m)
        m.sum_duplicates()
        m = m.data
    return float(np.linalg.norm(np.asarray(m)))


def max_frob(stack, lead: int = 1) -> float:
    """Largest Frobenius norm among the slices of a stack over its first
    lead axes."""
    stack = np.asarray(stack)
    flat = stack.reshape(int(np.prod(stack.shape[:lead])), -1)
    return float(np.linalg.norm(flat, axis=1).max())


def rowmul(x, m) -> np.ndarray:
    """x @ m for each vector x of a stack (m a matrix or a broadcasting stack
    of them), summed as for a lone vector: one matrix product over the stack
    may sum in another order.  m @ v is rowmul(v, m.swapaxes(-1, -2))."""
    return (np.asarray(x)[..., None, :] @ m)[..., 0, :]


def vdots(x, y) -> np.ndarray:
    """np.vdot of each pair of vectors of two broadcasting stacks."""
    return rowmul(np.conj(x), np.asarray(y)[..., None])[..., 0]


def norms(x) -> np.ndarray:
    """np.linalg.norm of each vector of a stack, summed as for a lone vector
    (np.linalg.norm(x, axis=-1) sums in another order)."""
    re, im = np.real(x), np.imag(x)
    return np.sqrt(rowmul(re, re[..., None])[..., 0] + rowmul(im, im[..., None])[..., 0])


def opnorm(m) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(np.asarray(m), 2))


def require_square(m) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    return m


def hermiticity_defect(m) -> float:
    m = require_square(m)
    return frob(m - m.conj().T)


def require_hermitian(m, rtol: float = HERM_RTOL) -> np.ndarray:
    m = require_square(m)
    defect = hermiticity_defect(m)
    scale = max(1.0, frob(m))
    if defect > rtol * scale:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {rtol:.1e}*{scale:.3e}")
    # work with the symmetrised matrix so downstream residuals are clean
    return 0.5 * (m + m.conj().T)


def hermitian_eig(m, rtol: float = HERM_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Satisfies
    m v_k = lambda_k v_k with residual <= 1e-8 * ||m||_F and orthonormal
    columns.  Raises NotHermitian when the input fails the Hermiticity gate.
    """
    h = require_hermitian(m, rtol)
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def min_eig(m, rtol: float = HERM_RTOL) -> float:
    h = require_hermitian(m, rtol)
    return float(np.linalg.eigvalsh(h)[0])


def psd_check(m, tol: float, rtol: float = HERM_RTOL) -> bool:
    """True iff m is Hermitian (within rtol) with min eigenvalue >= -tol."""
    return min_eig(m, rtol) >= -tol


def expm(m) -> np.ndarray:
    """Matrix exponential.

    Hermitian inputs go through the eigendecomposition (exact functional
    calculus); everything else through scaling-and-squaring Pade.
    """
    m = require_square(m)
    scale = max(1.0, frob(m))
    if hermiticity_defect(m) <= HERM_RTOL * scale:
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        return (vecs * np.exp(vals)) @ vecs.conj().T
    return scipy.linalg.expm(m)


def kron(a, b) -> np.ndarray:
    """Tensor product, row-major flattening, left factor outermost.

    b may be a stack of matrices; the result is then the stack of a (x) b[l],
    as np.kron gives, without np.kron's per-call overhead on small blocks.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[..., None, :, None, :]
    (m, n), (p, q) = a.shape, b.shape[-2:]
    return out.reshape(b.shape[:-2] + (m * p, n * q))


def nonzero_rows(t, tol: float = 0.0):
    """Per first index p of a 3-tensor, the entries (j, k, t[p, j, k]) with
    |t[p, j, k]| > tol, as three arrays in row-major order."""
    t = np.asarray(t)
    p, j, k = np.nonzero(np.abs(t) > tol)
    w = t[p, j, k]
    bounds = np.searchsorted(p, np.arange(t.shape[0] + 1)).tolist()
    return [(j[a:b], k[a:b], w[a:b]) for a, b in zip(bounds, bounds[1:])]


def structure_sum(c, x, y, pair=np.matmul) -> np.ndarray:
    """out[k] = sum_{i,j} c[i,j,k] pair(x[i], y[j]) over |c[i,j,k]| > 1e-16.

    pair is np.matmul or kron (this module's or numpy's): a map that takes
    a matrix and a stack of matrices to the stack of pairs.  Row i makes one
    call pair(x[i], y[lo:hi]) per run of consecutive j it needs, so every
    product is formed once, and adds the row's weighted products with one
    np.add.at.  add.at applies repeated k in order, so terms are added in
    (i, j, k) order, bit for bit as a plain loop over np.argwhere(c) would.
    """
    c, x, y = np.asarray(c), np.asarray(x), np.asarray(y)
    probe = pair(x[0], y[0])
    out = np.zeros((c.shape[2],) + probe.shape, dtype=np.result_type(c, probe))
    i, j, k = np.nonzero(np.abs(c) > 1e-16)
    if not len(i):
        return out
    w = c[i, j, k].reshape((-1,) + (1,) * probe.ndim)
    # entry e takes product slot[e], the distinct (i, j) in row-major
    # order; a run of them starts where i changes or j skips
    fresh = np.concatenate(([True], (i[1:] != i[:-1]) | (j[1:] != j[:-1])))
    slot = np.cumsum(fresh) - 1
    pi, pj = i[fresh], j[fresh]
    run = np.flatnonzero(np.concatenate(([True], (pi[1:] != pi[:-1]) | (pj[1:] != pj[:-1] + 1))))
    rows = np.arange(c.shape[0] + 1)
    entry_at, pair_at, run_at = (np.searchsorted(a, rows).tolist() for a in (i, pi, pi[run]))
    run, pj = run.tolist() + [len(pi)], pj.tolist()
    for r in np.unique(i).tolist():
        lo, hi = run_at[r], run_at[r + 1]
        prods = np.concatenate([pair(x[r], y[pj[s]:pj[s] + t - s])
                                for s, t in zip(run[lo:hi], run[lo + 1:hi + 1])])
        a, b = entry_at[r], entry_at[r + 1]
        np.add.at(out, k[a:b], w[a:b] * prods[slot[a:b] - pair_at[r]])
    return out


def structure_sum_sparse(c, left, right):
    """out[k] = sum_{i,j} c[i,j,k] X_i Y_j over |c[i,j,k]| > 1e-16, sparse.

    The form of structure_sum (pair np.matmul) for sparse families.  left
    is the vertical stack [X_0; X_1; ...] (d1*m x n) and right the
    horizontal stack [Y_0 | Y_1 | ...] (n x d2*p), sparse or dense.  One
    product left @ right forms every X_i Y_j at once (block (i, j)), and one
    sparse product with c sums them.  Returns the csr array of shape
    (c.shape[2], m*p) whose row k is out[k] flattened row-major.
    """
    c = np.asarray(c)
    d1, d2, nk = c.shape
    m, p = left.shape[0] // d1, right.shape[1] // d2
    prod = sparse.coo_array(left @ right)
    i, a = np.divmod(prod.coords[0].astype(np.int64), m)
    j, b = np.divmod(prod.coords[1].astype(np.int64), p)
    pairs = sparse.csr_array((prod.data, (i * d2 + j, a * p + b)),
                             shape=(d1 * d2, m * p))
    weights = np.where(np.abs(c) > 1e-16, c, 0).reshape(d1 * d2, nk).T
    return sparse.csr_array(weights) @ pairs


class SparseMatrix(sparse.csr_array):
    """csr_array whose nbytes, as for an ndarray, is the bytes it holds."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


class SparseStack(sparse.coo_array):
    """n-D coo_array (a stack of sparse matrices) whose nbytes is the bytes
    it holds."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + sum(c.nbytes for c in self.coords)


def solve_intertwiner(left_blocks, right_blocks):
    """Solve T @ L_k = R_k @ T for all k; returns (basis of solutions, dims).

    left_blocks act on the source space, right_blocks on the target space.
    The solution space is returned as a list of target_dim x source_dim
    matrices spanning {T : R_k T = T L_k for all k}.
    """
    left_blocks = [as_complex_matrix(x) for x in left_blocks]
    right_blocks = [as_complex_matrix(x) for x in right_blocks]
    ns = left_blocks[0].shape[0] if left_blocks else 0
    nt = right_blocks[0].shape[0] if right_blocks else 0
    rows = []
    eye_s = np.eye(ns)
    eye_t = np.eye(nt)
    for lk, rk in zip(left_blocks, right_blocks):
        # row-major vec: vec(R T) = (R kron I) vec T, vec(T L) = (I kron L^T) vec T
        rows.append(np.kron(rk, eye_s) - np.kron(eye_t, lk.T))
    system = np.vstack(rows) if rows else np.zeros((0, nt * ns))
    return null_space(system, (nt, ns))


def null_space(system, shape=None, tol: float = 1e-10):
    """Orthonormal basis of ker(system); optionally reshaped to matrices."""
    system = np.asarray(system, dtype=complex)
    if system.size == 0:
        dim = system.shape[1]
        basis = np.eye(dim)
    else:
        # the kernel lies in vh's rows past the rank; a thin vh has them all
        # unless the system has fewer rows than columns
        _, s, vh = np.linalg.svd(system, full_matrices=system.shape[0] < system.shape[1])
        scale = s[0] if len(s) and s[0] > 0 else 1.0
        rank = int(np.sum(s > tol * max(1.0, scale)))
        basis = vh[rank:].conj()
    vectors = list(basis)
    if shape is None:
        return vectors
    return [v.reshape(shape) for v in vectors]


def matrix_rank(m, tol: float = 1e-10) -> int:
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, s[0])))


def psd_sqrt(m, rtol: float = HERM_RTOL):
    """Positive square root of a PSD matrix (eigenvalue clipping at 0)."""
    vals, vecs = hermitian_eig(m, rtol)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def psd_factor_vectors(gram, tol: float = 1e-10):
    """Vectors v_1..v_n with <v_i, v_j> = gram[i, j], via eigendecomposition.

    Tolerates rank deficiency: the returned vectors live in C^rank.
    Small negative eigenvalues (>= -tol relative) are clipped to zero.
    """
    vals, vecs = hermitian_eig(gram)
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    if len(vals) and vals[0] < -tol * scale:
        from .errors import GramNotPSD
        raise GramNotPSD(f"gram matrix has eigenvalue {vals[0]:.3e}")
    keep = vals > tol * scale
    root = np.sqrt(vals[keep])
    # rows are the realising vectors: v_i[k] = sqrt(lam_k) * conj(V[i,k])
    return vecs[:, keep].conj() * root[None, :]
