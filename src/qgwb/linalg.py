"""Complex linear algebra kernel.

All other modules go through these wrappers instead of calling numpy/scipy
directly for spectral work, so the Hermiticity gates and tolerance
conventions live in one place.  Matrices are plain complex ndarrays, except
contract's results and the Fock layer's operators: every sparse matrix is
a scipy csr_array, most of them a `SparseMatrix`, which reports the bytes
it holds.  `frob` takes dense arrays; `frob_stack` is the one norm of a
sparse difference.  Tolerances are absolute unless stated relative.

The gates (`require_square`, `hermiticity_defect`, `require_hermitian`,
`min_eig`) and `expm` take a matrix or a stack (..., n, n) of them,
validate their input once, and give each matrix of a stack the bits it
gets alone: `expm` makes one eigh call for a stack's Hermitian matrices
and one scipy call for the rest.

Structure constants live in `Structure` stores: the exact nonzeros of a
3-tensor as index arrays and values in canonical (row-major) order, with
the forms kernels read (transposes, csr matrices, rows, per-output groups)
built once and kept; only this module reads their csr forms.
`structure_sum` is the one kernel for sums of dense coefficient matrices
against structure constants, out[k] = sum_{i,j} c[i,j,k] X_i Y_j (or
X_i (x) Y_j), over a store's triples with one np.add.at per row i.
`contract` is the one sparse product, behind the sparse Hopf-law kernels,
the Fock sums and the cone functionals: one csr product per call, each
sum in ascending order of its summed letters, the result a csr matrix
tagged with its letters (`Lettered`); a result read again in the layout
it was formed in keeps its stored order, so a chain of contractions sums
as the chain of scipy products does.  `rowmul`, `vdots` and `norms` act
on stacks of vectors, bit for bit as on each vector alone.

Working memory: `byte_slices` is the one slicer of every kernel that
grows with its input (the validation kernels, the Schurmann triple and
the window products): it cuts the kernel's leading index range into
slices of at most `SLICE_BYTES`, and raises BudgetExceeded (a resource
cap) when one index alone needs more than `BYTE_BUDGET`, which also
bounds each array of the Fock layer.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from .errors import BudgetExceeded, DimensionMismatch, GramNotPSD, NotHermitian

HERM_RTOL = 1e-9   # the Hermiticity gate, relative to max(1, ||m||_F)
RANK_TOL = 1e-10   # singular values and eigenvalues below this, relative, count as 0
PSD_TOL = 1e-9     # psd_check: the least accepted min eigenvalue is -PSD_TOL
# Bytes one working array of a kernel that grows with its input may take:
# the Fock layer checks its arrays against it, and byte_slices the work of
# each index.
BYTE_BUDGET = 32 * 2 ** 20
# Bytes one slice of a kernel sliced along its leading index takes: a
# kernel that fits takes one slice, so small inputs run unsliced.
SLICE_BYTES = BYTE_BUDGET // 16


def byte_slices(n, nbytes, kernel):
    """Slices of consecutive leading indices covering range(n), where the
    work for index i holds nbytes bytes (one number for every index) or
    nbytes[i] (an array of n): each slice holds at most SLICE_BYTES, or is
    one index; n = 0 gives none.  Raises BudgetExceeded, naming the kernel
    and the count, when one index alone holds more than BYTE_BUDGET."""
    if n == 0:
        return []
    nbytes = np.asarray(nbytes, dtype=float)
    worst = 0 if nbytes.ndim == 0 else int(np.argmax(nbytes))
    if nbytes.flat[worst] > BYTE_BUDGET:
        raise BudgetExceeded(f"{kernel}: index {worst} needs {int(nbytes.flat[worst])} bytes, "
                             f"over the budget of {BYTE_BUDGET}")
    if nbytes.ndim == 0:
        step = n if nbytes <= 0 else max(1, int(SLICE_BYTES // nbytes))
        return [slice(k, min(k + step, n)) for k in range(0, n, step)]
    # greedy packing: a slice from lo ends before the first index whose
    # running total from lo passes SLICE_BYTES
    ends, out, lo = np.cumsum(nbytes), [], 0
    while lo < n:
        held = ends[lo - 1] if lo else 0.0
        hi = max(lo + 1, int(np.searchsorted(ends, held + SLICE_BYTES, side="right")))
        out.append(slice(lo, hi))
        lo = hi
    return out


def frob(m) -> float:
    """Frobenius norm of a dense array."""
    return float(np.linalg.norm(m))


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


def psd_check(m) -> bool:
    """True iff m passes the Hermiticity gate with min eigenvalue >= -PSD_TOL."""
    return min_eig(_one_matrix(m)) >= -PSD_TOL


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


class SparseMatrix(sparse.csr_array):
    """csr_array whose nbytes, as for an ndarray, is the bytes it holds: the
    type of contract's sparse results and of the Fock layer's operators."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


def _csr(data, indices, indptr, shape) -> SparseMatrix:
    """The csr matrix of these arrays, indices cast to scipy's dtype first."""
    dtype = np.int32 if max(*shape, len(data)) < 2 ** 31 else np.int64
    return SparseMatrix((data, indices.astype(dtype, copy=False),
                         indptr.astype(dtype, copy=False)), shape=shape)


def csr_sorted(flat, data, shape) -> SparseMatrix:
    """The csr matrix with entries data at the ascending row-major positions
    flat (the canonical entry order)."""
    rows, cols = np.divmod(flat, shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return _csr(data, cols, indptr, shape)


class Structure:
    """The exact nonzeros of a structure-constant tensor t[i, j, k].

    idx holds their positions (i, j, k) as three index arrays and w their
    values, in canonical (row-major) order.  Every kernel that reads them
    meets a tensor's terms in the order a dense loop over t would, so
    skipping the zeros changes no sum.  The derived forms (`permuted`,
    `cut`, `csr`, `rows`, `grouped`, `sum_plan`) are built once and kept
    until `release`; a Structure is read-only.
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

    def release(self, keep=()):
        """Drop the derived forms built so far but those keyed in keep (as
        ("csr", 1) or ("permuted", (1, 2, 0))); a later read builds them
        again."""
        self._kept = {key: form for key, form in self._kept.items() if key in keep}

    def dense(self):
        """The tensor as a new read-only array."""
        out = np.zeros(self.shape, dtype=self.w.dtype)
        out[self.idx] = self.w
        out.flags.writeable = False
        return out

    def permuted(self, axes):
        """The Structure of t.transpose(axes) (t itself for the identity)."""
        if tuple(axes) == tuple(range(len(self.shape))):
            return self
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


class Lettered:
    """A tensor whose axes letters name, held as a matrix (csr or dense)
    whose rows its first n_rows axes index, row-major, and whose columns
    the others: contract's results, and their differences."""

    def __init__(self, mat, letters, shape, n_rows):
        self.mat, self.letters, self.shape, self.n_rows = mat, letters, tuple(shape), n_rows

    @classmethod
    def from_entries(cls, letters, shape, idx, w, n_rows):
        """The tensor with values w at the distinct positions idx (given in
        any order) as its csr matrix alone: no store outlasts it."""
        return cls(Structure.from_entries(shape, idx, w).csr(n_rows), letters, shape, n_rows)

    def matrix(self, n_rows):
        """The matrix whose rows the first n_rows <= self.n_rows axes index,
        csr with sorted rows: each row k old ones side by side, so the
        entries keep their row-major order."""
        mat, k = self.mat, math.prod(self.shape[n_rows:self.n_rows])
        if not sparse.issparse(mat):
            return mat.reshape(mat.shape[0] // k, -1)
        mat.sort_indices()
        if k == 1:
            return mat
        # as np.intp: np.repeat is several times slower with int32 counts
        part = np.repeat(np.tile(np.arange(k), mat.shape[0] // k),
                         np.diff(mat.indptr).astype(np.intp))
        return _csr(mat.data, part * mat.shape[1] + mat.indices, mat.indptr[::k],
                    (mat.shape[0] // k, mat.shape[1] * k))

    def __sub__(self, other):
        n = min(self.n_rows, other.n_rows)
        return Lettered(self.matrix(n) - other.matrix(n), self.letters, self.shape, n)

    def dense(self):
        return (self.mat.toarray() if sparse.issparse(self.mat) else self.mat).reshape(self.shape)


def _layout(t, axes, n_rows, part):
    """t (a Structure, a Lettered or an array) as the matrix whose rows its
    axes[:n_rows] index and whose columns the others (a batch axis may do
    both), cut to the rows whose first axis lies in the slice part.  A
    Lettered in the layout it was formed in is taken as stored, one whose
    rows merge is sorted in place, and one whose axes change order is laid
    out anew."""
    mat, shape = getattr(t, "mat", t), t.shape
    if isinstance(t, Structure):
        mat = t.permuted(axes).csr(n_rows)
    elif isinstance(t, Lettered) and axes == tuple(range(len(shape))) and n_rows <= t.n_rows:
        mat = mat if n_rows == t.n_rows else t.matrix(n_rows)
    else:
        rows, cols = [shape[a] for a in axes[:n_rows]], [shape[a] for a in axes[n_rows:]]
        size = math.prod(rows), math.prod(cols)
        if isinstance(mat, np.ndarray):
            mat = mat.reshape(shape).transpose(axes).reshape(size)
        else:
            row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr).astype(np.intp))
            digits = (np.unravel_index(row, shape[:t.n_rows])
                      + np.unravel_index(mat.indices, shape[t.n_rows:]))
            flat = (np.ravel_multi_index([digits[a] for a in axes[:n_rows]], rows) * size[1]
                    + np.ravel_multi_index([digits[a] for a in axes[n_rows:]], cols))
            del row, digits    # the largest working arrays go before the copy
            keep = np.argsort(flat)
            mat = csr_sorted(flat[keep], mat.data[keep], size)
    if part is None or part == slice(0, shape[axes[0]]):
        return mat
    lo, hi = (x * mat.shape[0] // shape[axes[0]] for x in (part.start, part.stop))
    if not sparse.issparse(mat):
        return mat[lo:hi]
    a, b = mat.indptr[lo], mat.indptr[hi]
    return _csr(mat.data[a:b], mat.indices[a:b], mat.indptr[lo:hi + 1] - a, (hi - lo, mat.shape[1]))


@functools.lru_cache(maxsize=256)
def _plan(a_letters, b_letters, out):
    """contract's reading of its letters: how many leading letters of out
    only b names, how many letters index the rows, and a's and b's layouts."""
    lead = len(out) - len(out.lstrip("".join(set(b_letters) - set(a_letters))))
    rows = out[:lead] + "".join(x for x in out[lead:] if x in a_letters)
    if not out.startswith(rows) or (set(a_letters) ^ set(b_letters)) - set(out):
        raise ValueError(f"cannot contract {a_letters},{b_letters}->{out}")
    batch = out[:lead] + "".join(x for x in rows[lead:] if x in b_letters)
    summed = "".join(x for x in b_letters if x in a_letters and x not in out)
    left = tuple(map(a_letters.index, rows[lead:] + batch[lead:] + summed)), len(rows) - lead
    right = tuple(map(b_letters.index, batch + summed + out[len(rows):])), len(batch + summed)
    return lead, len(rows), left, right


def contract(a, a_letters, b, b_letters, out, part=None) -> Lettered:
    """out = sum of a b over the letters both name and out drops, by one
    scipy product of a csr matrix and a csr or dense one, so each entry
    adds its terms in ascending order of the summed letters (in b's order),
    but that a Lettered a read in the layout it was formed in adds them in
    its stored order.
    a and b are Structures, Lettereds or arrays (then the result is dense)
    whose axes a_letters and b_letters name.  out takes a's letters before
    those only b names; a letter of both that out keeps is a batch index,
    as is a leading letter of out that only b names, which puts copies of
    a (a sparse one) down the diagonal.  With part, only that slice of
    out's leading letter is formed."""
    lead, n_rows, left, right = _plan(a_letters, b_letters, out)
    left = _layout(a, *left, None if lead else part)
    right = _layout(b, *right, part if lead else None)
    size = dict(zip(a_letters + b_letters, a.shape + b.shape))
    if part is not None:
        size[out[0]] = part.stop - part.start
    if lead:
        n, (rows, cols), nnz = math.prod(size[x] for x in out[:lead]), left.shape, left.nnz
        copy = np.arange(n)
        left = _csr(np.tile(left.data, n), ((copy * cols)[:, None] + left.indices).ravel(),
                    np.append((copy * nnz)[:, None] + left.indptr[:-1], n * nnz),
                    (n * rows, n * cols))
    return Lettered(left @ right, out, [size[x] for x in out], n_rows)


def frob_stack(parts) -> float:
    """Frobenius norm of the vertical stack of the sparse matrices parts, in
    order: the one norm of a sparse difference.  Each part's entries,
    duplicates summed, join one buffer as it comes, so one part is held."""
    data = np.empty(0, dtype=complex)
    for part in parts:
        part.sum_duplicates()
        n = data.size
        data.resize(n + part.nnz, refcheck=False)   # no view of it exists
        data[n:] = part.data
    return float(np.linalg.norm(data))


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


def solve_intertwiner(left_blocks, right_blocks):
    """Solve T @ L_k = R_k @ T for all k; returns (basis of solutions, dims).

    left_blocks act on the source space, right_blocks on the target space.
    The solution space is returned as a list of target_dim x source_dim
    matrices spanning {T : R_k T = T L_k for all k}; empty when a family is.
    """
    if len(left_blocks) == 0 or len(right_blocks) == 0:
        return []
    left, right = require_square(left_blocks), require_square(right_blocks)
    (s, t), k = (left.shape[-1], right.shape[-1]), min(len(left), len(right))
    # the (k t s, t s) system and the SVD's thin factor of its size, counted
    # before either is formed
    byte_slices(1, 2 * 16 * k * (t * s) ** 2, "solve_intertwiner")
    eye_s, eye_t = np.eye(s), np.eye(t)
    # row-major vec: vec(R T) = (R kron I) vec T, vec(T L) = (I kron L^T) vec T;
    # the rows (k, a) of both krons by broadcast products, as np.kron forms
    # them, in slices of those rows (two products and a transpose per row)
    rows, left_t = right[:k].reshape(k * t, t), left[:k].swapaxes(-1, -2)
    system = np.empty((k * t, s, t * s), dtype=complex)
    for part in byte_slices(k * t, 16 * (2 * s * t * s + s * s), "solve_intertwiner"):
        lk, a = np.divmod(np.arange(part.start, part.stop), t)
        system[part] = (rows[part, None, :, None] * eye_s[:, None, :]
                        - eye_t[a, None, :, None] * left_t[lk, :, None, :]).reshape(-1, s, t * s)
    return null_space(system.reshape(k * t * s, t * s), (t, s))


def null_space(system, shape=None):
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
        rank = int(np.sum(s > RANK_TOL * max(1.0, scale)))
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
