"""Complex linear algebra kernel.

All other modules go through these wrappers instead of calling numpy/scipy
directly for spectral work, so the Hermiticity gates and tolerance
conventions live in one place.  Matrices are plain complex ndarrays, except
in the Fock layer, whose operators are scipy sparse arrays that report the
bytes they hold (`SparseMatrix`, `SparseStack`); tolerances are absolute
unless stated relative.

The gates (`require_square`, `hermiticity_defect`, `require_hermitian`,
`min_eig`) and `expm` take a matrix or a stack (..., n, n) of them,
validate their input once, and give each matrix of a stack the bits it
gets alone: `expm` makes one eigh call for a stack's Hermitian matrices
and one scipy call for the rest.

Structure constants live in `Structure` stores: the exact nonzeros of a
3-tensor as index arrays and values in canonical (row-major) order, with
the forms kernels read (transposes, csr matrices, rows, per-output groups)
built once and kept.  `structure_sum` is the one kernel for sums of
coefficient matrices against structure constants, out[k] = sum_{i,j}
c[i,j,k] X_i Y_j (or X_i (x) Y_j), over a store's triples with one
np.add.at per row i; `structure_sum_sparse` is its form for sparse
families.  `rowmul`, `vdots` and `norms` act on stacks of vectors, bit for
bit as on each vector alone.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import DimensionMismatch, GramNotPSD, NotHermitian

HERM_RTOL = 1e-9   # the Hermiticity gate, relative to max(1, ||m||_F)
RANK_TOL = 1e-10   # singular values and eigenvalues below this, relative, count as 0


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
    """m as a complex square matrix, or a stack (..., n, n) of them, with
    finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionMismatch("matrix entries must be finite")
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    return m


def _one_matrix(m):
    """m, which must have the shape of one matrix (the gates also take
    stacks)."""
    if np.ndim(m) != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {np.shape(m)}")
    return m


def adjoint(m):
    """The conjugate transpose of a matrix or of each matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def _frobs(m):
    """frob of each matrix of a stack, bit for bit (0-d for one matrix)."""
    return norms(m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],)))


def hermiticity_defect(m):
    """||m - m^*||_F: a float for a matrix, an array for a stack."""
    m = require_square(m)
    defect = _frobs(m - adjoint(m))
    return float(defect) if m.ndim == 2 else defect


def _hermitian(m):
    """Per matrix of the validated stack m, whether its defect is within
    HERM_RTOL * max(1, ||m||_F), with the defects and scales."""
    defect, scale = _frobs(m - adjoint(m)), np.maximum(1.0, _frobs(m))
    return defect <= HERM_RTOL * scale, defect, scale


def require_hermitian(m) -> np.ndarray:
    """The symmetrised matrix (or stack), once every matrix passes the
    Hermiticity gate; the input is validated once."""
    m = require_square(m)
    ok, defect, scale = _hermitian(m)
    if not ok.all():
        i = np.argmin(ok)
        raise NotHermitian(f"hermiticity defect {defect.flat[i]:.3e} exceeds "
                           f"{HERM_RTOL:.1e}*{scale.flat[i]:.3e}")
    # work with the symmetrised matrix so downstream residuals are clean
    return 0.5 * (m + adjoint(m))


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Satisfies
    m v_k = lambda_k v_k with residual <= 1e-8 * ||m||_F and orthonormal
    columns.  Raises NotHermitian when the input fails the Hermiticity gate.
    """
    h = require_hermitian(_one_matrix(m))
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def min_eig(m):
    """Smallest eigenvalue of a Hermitian matrix (a float), or of each
    matrix of a stack (an array)."""
    low = np.linalg.eigvalsh(require_hermitian(m))[..., 0]
    return float(low) if low.ndim == 0 else low


def psd_check(m, tol: float) -> bool:
    """True iff m passes the Hermiticity gate with min eigenvalue >= -tol."""
    return min_eig(_one_matrix(m)) >= -tol


def expm(m) -> np.ndarray:
    """Matrix exponential of a matrix or of each matrix of a stack (..., n, n).

    Hermitian matrices go through the eigendecomposition (exact functional
    calculus), the others through scaling-and-squaring Pade.  A stack makes
    one eigh call for its Hermitian matrices and one scipy call for the
    rest, and each matrix gets the bits it gets alone.
    """
    m = require_square(m)
    stack = m.reshape((int(np.prod(m.shape[:-2])),) + m.shape[-2:])
    herm = _hermitian(stack)[0]
    out = np.empty(stack.shape, dtype=complex)
    if herm.any():
        h = stack[herm]
        vals, vecs = np.linalg.eigh(0.5 * (h + adjoint(h)))
        out[herm] = (vecs * np.exp(vals)[:, None, :]) @ adjoint(vecs)
    if not herm.all():
        out[~herm] = scipy.linalg.expm(stack[~herm])
    return out.reshape(m.shape)


def kron(a, b) -> np.ndarray:
    """Tensor product, row-major flattening, left factor outermost.

    b may be a stack of matrices; the result is then the stack of a (x) b[l],
    as np.kron gives, without np.kron's per-call overhead on small blocks.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[:, None, :, None] * b[..., None, :, None, :]
    (m, n), (p, q) = a.shape, b.shape[-2:]
    return out.reshape(b.shape[:-2] + (m * p, n * q))


def csr_sorted(flat, data, shape) -> sparse.csr_matrix:
    """The csr matrix with entries data at the ascending row-major positions
    flat (the canonical entry order)."""
    rows, cols = np.divmod(flat, shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sparse.csr_matrix((data, cols, indptr), shape=shape)


class Structure:
    """The exact nonzeros of a structure-constant tensor t[i, j, k].

    idx holds their positions (i, j, k) as three index arrays and w their
    values, in canonical (row-major) order.  Every kernel that reads them
    meets a tensor's terms in the order a dense loop over t would, so
    skipping the zeros changes no sum.  The derived forms (`permuted`,
    `cut`, `csr`, `rows`, `grouped`, `sum_plan`) are built once and kept;
    a Structure is read-only.
    """

    def __init__(self, t):
        t = np.asarray(t)
        self.shape = t.shape
        self.idx = np.nonzero(t)
        self.w = t[self.idx]
        self._kept = {}

    @classmethod
    def of(cls, t):
        """t itself when it is a Structure, else the Structure of the array t."""
        return t if isinstance(t, cls) else cls(t)

    @classmethod
    def from_entries(cls, shape, idx, w):
        """The tensor of the given shape with values w at the distinct
        positions idx (three index arrays), given in any order."""
        out = cls.__new__(cls)
        order = np.argsort(np.ravel_multi_index(idx, shape))
        out.shape = tuple(shape)
        out.idx = tuple(np.asarray(a)[order] for a in idx)
        out.w = np.asarray(w)[order]
        out._kept = {}
        return out

    def _keep(self, key, make):
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def permuted(self, axes):
        """The Structure of t.transpose(axes)."""
        return self._keep(("permuted", tuple(axes)), lambda: Structure.from_entries(
            [self.shape[a] for a in axes], [self.idx[a] for a in axes], self.w))

    def cut(self, tol):
        """The entries with |w| > tol, as a Structure."""
        def make():
            keep = np.abs(self.w) > tol
            return Structure.from_entries(self.shape, [a[keep] for a in self.idx], self.w[keep])
        return self._keep(("cut", tol), make)

    def csr(self, n_rows):
        """t as a csr matrix: its first n_rows indices (row-major) index the
        rows, the others the columns."""
        def make():
            shape = (int(np.prod(self.shape[:n_rows])), int(np.prod(self.shape[n_rows:])))
            return csr_sorted(np.ravel_multi_index(self.idx, self.shape), self.w, shape)
        return self._keep(("csr", n_rows), make)

    def rows(self):
        """Per first index i, the entries (j, k, w) of row i as three arrays."""
        def make():
            i, j, k = self.idx
            bounds = np.searchsorted(i, np.arange(self.shape[0] + 1)).tolist()
            return [(j[a:b], k[a:b], self.w[a:b]) for a, b in zip(bounds, bounds[1:])]
        return self._keep("rows", make)

    def grouped(self, axes):
        """The entries grouped by their indices at axes (groups in row-major
        order), each group in canonical order, as tables with one column per
        group: the positions (3, L, n) and the values (L, n).  Column g holds
        group g, padded to length L >= 1 with value-0 entries at position
        (0, 0, 0)."""
        def make():
            shape = [self.shape[a] for a in axes]
            key = np.ravel_multi_index([self.idx[a] for a in axes], shape)
            counts = np.bincount(key, minlength=int(np.prod(shape)))
            order = np.argsort(key, kind="stable")
            rank = np.arange(key.size) - np.repeat(np.cumsum(counts) - counts, counts)
            slot = np.full((counts.max(initial=1), counts.size), key.size)
            slot[rank, key[order]] = order
            idx = np.array(self.idx).reshape(3, -1)
            return (np.concatenate((idx, np.zeros((3, 1), dtype=idx.dtype)), axis=1)[:, slot],
                    np.append(self.w, 0)[slot])
        return self._keep(("grouped", tuple(axes)), make)

    def sum_plan(self):
        """structure_sum's schedule for the entries with |w| > 1e-16: per row
        i that has some, (i, the runs [lo, hi) of consecutive j it needs, the
        positions of its entries, the product slot of each entry)."""
        def make():
            c = self.cut(1e-16)
            plan, start = [], 0
            for i, (j, _, _) in enumerate(c.rows()):
                if j.size:
                    # the row's products are its distinct j, ascending, made
                    # by one pair call per run of consecutive j
                    distinct, slot = np.unique(j, return_inverse=True)
                    runs = np.split(distinct, np.flatnonzero(np.diff(distinct) != 1) + 1)
                    spans = [(int(run[0]), int(run[-1]) + 1) for run in runs]
                    plan.append((i, spans, slice(start, start + j.size), slot))
                start += j.size
            return c.idx[2], c.w, plan
        return self._keep("sum_plan", make)


def structure_sum(c, x, y, pair=np.matmul) -> np.ndarray:
    """out[k] = sum_{i,j} c[i,j,k] pair(x[i], y[j]) over |c[i,j,k]| > 1e-16.

    c is a Structure or an array.  pair is np.matmul or kron (this module's
    or numpy's): a map that takes a matrix and a stack of matrices to the
    stack of pairs.  Row i makes one call pair(x[i], y[lo:hi]) per run of
    consecutive j it needs, so every product is formed once, and adds the
    row's weighted products with one np.add.at.  add.at applies repeated k
    in order, so terms are added in (i, j, k) order, bit for bit as a plain
    loop over np.argwhere(c) would.
    """
    x, y = np.asarray(x), np.asarray(y)
    c = Structure.of(c)
    k, w, plan = c.sum_plan()
    probe = pair(x[0], y[0])
    out = np.zeros((c.shape[2],) + probe.shape, dtype=np.result_type(w, probe))
    w = w.reshape((-1,) + (1,) * probe.ndim)
    for r, spans, entries, slot in plan:
        prods = np.concatenate([pair(x[r], y[lo:hi]) for lo, hi in spans])
        np.add.at(out, k[entries], w[entries] * prods[slot])
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
    matrices spanning {T : R_k T = T L_k for all k}; empty when a family is.
    """
    if len(left_blocks) == 0 or len(right_blocks) == 0:
        return []
    left, right = require_square(left_blocks), require_square(right_blocks)
    eye_s, eye_t = np.eye(left.shape[-1]), np.eye(right.shape[-1])
    # row-major vec: vec(R T) = (R kron I) vec T, vec(T L) = (I kron L^T) vec T
    system = np.concatenate([np.kron(rk, eye_s) - np.kron(eye_t, lk.T)
                             for lk, rk in zip(left, right)])
    return null_space(system, (len(eye_t), len(eye_s)))


def null_space(system, shape=None, tol: float = RANK_TOL):
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


def matrix_rank(m) -> int:
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * max(1.0, s[0])))


def psd_sqrt(m):
    """Positive square root of a PSD matrix (eigenvalue clipping at 0)."""
    vals, vecs = hermitian_eig(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def psd_factor_vectors(gram):
    """Vectors v_1..v_n with <v_i, v_j> = gram[i, j], via eigendecomposition.

    Tolerates rank deficiency: the returned vectors live in C^rank.
    Small negative eigenvalues (>= -RANK_TOL relative) are clipped to zero.
    """
    vals, vecs = hermitian_eig(gram)
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    if len(vals) and vals[0] < -RANK_TOL * scale:
        raise GramNotPSD(f"gram matrix has eigenvalue {vals[0]:.3e}")
    keep = vals > RANK_TOL * scale
    root = np.sqrt(vals[keep])
    # rows are the realising vectors: v_i[k] = sqrt(lam_k) * conj(V[i,k])
    return vecs[:, keep].conj() * root[None, :]
