"""Finite quantum groups from structure constants.

A FiniteQG is a finite-dimensional Hopf *-algebra A with a distinguished
basis e_0..e_{d-1}, carrying

    mult[i, j, k]    e_i e_j = sum_k mult[i,j,k] e_k
    comult[i, j, k]  Delta(e_i) = sum_{j,k} comult[i,j,k] e_j (x) e_k
    unit, counit     coefficient vectors
    star             coefficients of x* are  star @ conj(coeffs of x)
    antipode         linear map S on coefficients
    haar             the bi-invariant state as a coefficient functional
    irreps           complete list of irreducible unitary corepresentation
                     matrices, entries given as coefficient vectors

Validation contracts every Hopf axiom, the Haar state, and the
corepresentation calculus to Frobenius residual <= DEFAULT_TOL (1e-9),
once, at construction; the residual table is kept as `residuals`.
The dual object is the block algebra  (+)_a M_{n_a}  with the coproduct
transported through the canonical pairing.

The structure constants live twice: as the dense arrays above, which the
public attributes, the serialisers and the Fock layer read, and as their
exact nonzeros, the linalg.Structure stores `mult_nz`, `comult_nz` and
`star_mult_nz` (the dual's `P_nz` and `product_nz`), built once per object.
Products, residual kernels and the corep calculus read the stores, adding
each sum's terms in the order of the dense contraction they replaced, so
residuals and reports are the same to the last bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import (
    AxiomViolation,
    HaarNotFound,
    NonUnique,
    NotAMorphism,
    SchemaError,
)

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Hopf-axiom residual kernels
# ---------------------------------------------------------------------------
# Each kernel returns the Frobenius residual of one law of a coproduct
# c[i, a, b], Delta(e_i) = sum c[i,a,b] e_a (x) e_b.  Read as a coproduct,
# m.transpose(2, 0, 1), a product m[i, j, k] has the algebra laws as the same
# kernels: associativity, the unit law and a multiplicative counit are
# coassociativity, the counit law and a unital coproduct.
#
# The sparse kernels take Structures (or arrays) and work on csr matrices
# whose rows and columns are strings of indices.  Each sum runs over its
# terms in ascending order of the summed indices, and each side of a law
# comes out in canonical (row-major) entry order, so the norm of the
# difference adds the same numbers in the same order for every layout.

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


def _digits(mat, d: int, n_rows: int, n_cols: int):
    """The digits (in range(d)) of the row and column indices of the entries
    of a csr matrix, its indices n_rows and n_cols digits long."""
    rows = np.repeat(np.arange(mat.shape[0]), _row_lengths(mat))
    return np.unravel_index(rows, (d,) * n_rows) + np.unravel_index(mat.indices, (d,) * n_cols)


def _regrouped(digits, data, d: int, rows, cols) -> sp.csr_matrix:
    """The csr matrix of the entries data whose row index is made of the
    digits at positions rows and the column index of those at cols."""
    n_cols = d ** len(cols)
    flat = (np.ravel_multi_index([digits[a] for a in rows], (d,) * len(rows)) * n_cols
            + np.ravel_multi_index([digits[a] for a in cols], (d,) * len(cols)))
    order = np.argsort(flat)
    return linalg.csr_sorted(flat[order], data[order], (d ** len(rows), n_cols))


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


def coassoc_residual(c) -> float:
    """(Delta (x) id)Delta = (id (x) Delta)Delta for a coproduct c[i,a,b]."""
    c = linalg.Structure.of(c)
    d = c.shape[0]
    # (Delta (x) id)Delta: X[(i,a,b),k] = sum_p c[p,a,b] c[i,p,k]
    x = _block_diagonal(c.permuted((1, 2, 0)).csr(2), d) @ c.csr(2)
    # (id (x) Delta)Delta: Y[(i,a),(b,k)] = sum_p c[i,a,p] c[p,b,k]
    y = c.csr(2) @ c.csr(1)
    return linalg.frob(_merged(_sorted(x), d) - _sorted(y))


def hom_residual(m, c) -> float:
    """Residual of Delta(xy) = Delta(x)Delta(y) for product m, coproduct c."""
    m, c = linalg.Structure.of(m), linalg.Structure.of(c)
    d = m.shape[0]
    lhs = m.csr(2) @ c.csr(1)
    # rhs[(i,j),(a,b)] = sum c[i,p,q] c[j,r,s] m[p,r,a] m[q,s,b], in stages:
    # F[(i,q),(r,a)] = sum_p c[i,p,q] m[p,r,a]
    f = c.permuted((0, 2, 1)).csr(2) @ m.csr(1)
    # E[(i,q,a),(j,s)] = sum_r F[(i,q,a),r] c[j,r,s] reaches R only where
    # some m[q,s,b] is nonzero.  With q also a column digit of F and a row
    # digit of the factor C[(q,r),(j,s)] = c[j,r,s], kept for those (q, s)
    # alone, one product forms just these entries.
    live_q, live_s = np.divmod(np.flatnonzero(np.diff(m.csr(2).indptr)), d)
    j, r, s = c.idx
    x, y = _pairs(live_s, s, d)
    cq = _regrouped((live_q[x], r[y], j[y], s[y]), c.w[y], d, (0, 1), (2, 3))
    e = _regrouped(_digits(f, d, 2, 2), f.data, d, (1, 0, 3), (1, 2)) @ cq
    # R[(i,j,a),b] = sum_{q,s} E[(i,j,a),(q,s)] m[q,s,b]
    e = _regrouped(_digits(e, d, 3, 2), e.data, d, (1, 3, 2), (0, 4))
    r = e @ m.csr(2)
    return linalg.frob(_sorted(lhs) - _merged(_sorted(r), d))


def counit_residual(c, counit) -> float:
    """(counit (x) id)Delta = id = (id (x) counit)Delta."""
    eye = np.eye(c.shape[0])
    return max(float(np.linalg.norm(np.tensordot(c, counit, axes=([1], [0])) - eye)),
               float(np.linalg.norm(np.tensordot(c, counit, axes=([2], [0])) - eye)))


def unital_residual(c, unit) -> float:
    """Delta(1) = 1 (x) 1."""
    return float(np.linalg.norm(
        np.tensordot(unit, c, axes=([0], [0])) - np.outer(unit, unit)))


def star_residual(c, star) -> float:
    """Delta(x^*) = (* (x) *)Delta(x) for x^* with coefficients star @ conj(x)."""
    lhs = np.tensordot(star, c, axes=([0], [0]))                  # Delta(e_i^*)
    rhs = np.tensordot(np.conj(c), star, axes=([1], [1]))         # (i, b, p)
    rhs = np.tensordot(rhs, star, axes=([1], [1]))                # (i, p, q)
    return float(np.linalg.norm(lhs - rhs))


def antipode_residual(m, c, s, counit, unit) -> float:
    """m(S (x) id)Delta = counit(.) 1 = m(id (x) S)Delta for product m,
    coproduct c and antipode matrix s, each sum over its indices in
    ascending order (a csr matrix times a dense one sums so)."""
    m, c = linalg.Structure.of(m), linalg.Structure.of(c)
    d = m.shape[0]
    s_t = np.asarray(s).T
    # SD[(i,k),p] = sum_j c[i,j,k] s[p,j]; left[i,q] = sum_{p,k} SD m[p,k,q]
    sd = (c.permuted((0, 2, 1)).csr(2) @ s_t).reshape(d, d, d).transpose(0, 2, 1)
    left = sd.reshape(d, d * d) @ m.csr(2)
    # DS[(i,j),p] = sum_k c[i,j,k] s[p,k]; right[i,q] = sum_{j,p} DS m[j,p,q]
    right = (c.csr(2) @ s_t).reshape(d, d * d) @ m.csr(2)
    target = np.outer(counit, unit)
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def star_product_residual(m, star, star_mult) -> float:
    """(xy)^* = y^* x^* on basis pairs, for product m and star_mult[j,r,p] =
    sum_q star[q,j] m[q,r,p], the coefficients of e_j^* e_r."""
    m, star_mult = linalg.Structure.of(m), linalg.Structure.of(star_mult)
    d = m.shape[0]
    st_t = np.asarray(star).T
    # lhs[(i,j),p] = sum_k conj(m[i,j,k]) star[p,k]
    lhs = m.csr(2).conj() @ st_t
    # rhs[i,(j,p)] = sum_r star[r,i] star_mult[j,r,p]
    rhs = st_t @ star_mult.permuted((1, 0, 2)).csr(1)
    return float(np.linalg.norm(lhs.reshape(d, d * d) - rhs))


def haar_residual(c, haar, unit) -> float:
    """(h (x) id)Delta = h(.)1 = (id (x) h)Delta for coproduct c, each sum
    over its index in ascending order."""
    c = linalg.Structure.of(c)
    d = c.shape[0]
    target = np.outer(haar, unit)
    left = (c.permuted((0, 2, 1)).csr(2) @ haar).reshape(d, d)    # sum over j
    right = (c.csr(2) @ haar).reshape(d, d)                        # sum over k
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def _permuted_star_residual(c, perm) -> float:
    """star_residual(c, np.eye(d)[perm]) for an involutive permutation perm:
    each entry of its products has one term 1 * x, so the gathers give the
    same numbers."""
    return float(np.linalg.norm(c[perm] - np.conj(c)[:, perm][:, :, perm]))


# ---------------------------------------------------------------------------
# FiniteQG
# ---------------------------------------------------------------------------

@dataclass
class Irrep:
    dim: int
    coeffs: np.ndarray  # shape (dim, dim, d)


class FiniteQG:
    """A finite quantum group given by structure constants.

    Immutable after construction; `validate()` runs at load time, raises
    AxiomViolation naming the failing axiom, and its residual table is
    kept as `residuals`.
    """

    def __init__(self, key, mult, unit, comult, counit, star, antipode,
                 irreps, haar=None, basis_names=None):
        self.key = str(key)
        self.mult = np.asarray(mult, dtype=complex)
        self.d = self.mult.shape[0]
        d = self.d
        if self.mult.shape != (d, d, d):
            raise SchemaError(f"mult must be (d,d,d), got {self.mult.shape}")
        self.unit = np.asarray(unit, dtype=complex).reshape(d)
        self.comult = np.asarray(comult, dtype=complex)
        if self.comult.shape != (d, d, d):
            raise SchemaError(f"comult must be (d,d,d), got {self.comult.shape}")
        self.counit = np.asarray(counit, dtype=complex).reshape(d)
        self.star = np.asarray(star, dtype=complex)
        if self.star.shape != (d, d):
            raise SchemaError(f"star must be (d,d), got {self.star.shape}")
        self.antipode = np.asarray(antipode, dtype=complex)
        if self.antipode.shape != (d, d):
            raise SchemaError(f"antipode must be (d,d), got {self.antipode.shape}")
        self.basis_names = ([f"e{i}" for i in range(d)] if basis_names is None
                            else list(basis_names))
        if len(self.basis_names) != d:
            raise SchemaError("basis names length mismatch")
        self.irreps = []
        for rec in irreps:
            if isinstance(rec, Irrep):
                n, coeff = rec.dim, rec.coeffs
            else:
                n, coeff = rec
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (n, n, d):
                raise SchemaError(f"irrep coeffs must be (n,n,d), got {coeff.shape}")
            self.irreps.append(Irrep(int(n), coeff))
        self.mult_nz = linalg.Structure(self.mult)
        self.comult_nz = linalg.Structure(self.comult)

        if sum(r.dim ** 2 for r in self.irreps) != d:
            raise AxiomViolation(
                "irrep dimension count: sum n_a^2 = "
                f"{sum(r.dim ** 2 for r in self.irreps)} != d = {d}")

        # block bookkeeping: flat index q = offset[a] + i*n_a + j
        self.block_dims = [r.dim for r in self.irreps]
        self.block_offsets = np.cumsum([0] + [n * n for n in self.block_dims])[:-1]

        # basis change: column q of B = coefficient vector of u_q
        self.B = np.concatenate([r.coeffs.reshape(-1, d) for r in self.irreps]).T
        if linalg.matrix_rank(self.B) != d:
            raise AxiomViolation("irrep coefficients do not form a basis")
        self.Binv = np.linalg.inv(self.B)

        self.haar = None if haar is None else np.asarray(haar, dtype=complex).reshape(d)
        if self.haar is None:
            self.haar = solve_haar(self)

        # h(e_i e_j), which the GNS gram, the Kac check and the Schur
        # orthogonality residual read
        self._haar_mult = np.tensordot(self.mult, self.haar, axes=([2], [0]))
        # GNS data for the Haar state; e_i^* has coefficient vector star[:, i]
        self.gram = self.star.T @ self._haar_mult  # h(e_i* e_j), as form(haar)
        self.gram = 0.5 * (self.gram + self.gram.conj().T)
        vals = np.linalg.eigvalsh(self.gram)
        if vals[0] < -DEFAULT_TOL:
            raise AxiomViolation(f"haar gram not PSD: min eigenvalue {vals[0]:.3e}")
        if vals[0] < 1e-12:
            raise AxiomViolation("haar state not faithful at working precision")
        self._C = linalg.psd_sqrt(self.gram)
        self._Cinv = np.linalg.inv(self._C)

        self.trivial_block = self._find_trivial_block()
        self.kac = self._kac_check()
        self._dual = None

        self.residuals = self.validate()

        for arr in (self.mult, self.unit, self.comult, self.counit, self.star,
                    self.antipode, self.haar, self._haar_mult, self.B, self.Binv, self.gram):
            arr.flags.writeable = False

    # -- algebra operations ------------------------------------------------

    def mul(self, a, b):
        """The product ab of coefficient vectors, or of each pair of two
        broadcasting stacks of them: out[k] = sum_{i,j} a_i b_j mult[i,j,k],
        each (a_i b_j) mult[i,j,k] added in (i, j) order."""
        # einsum over the nonzeros, grouped by k: the same terms, added in
        # the same order, as the einsum over all of mult
        (i, j, _), w = self.mult_nz.grouped((2,))
        return np.einsum("...lk,...lk,lk->...k", np.asarray(a)[..., i], np.asarray(b)[..., j], w)

    def form(self, coeffs, radius=None):
        """The matrix [mu(e_i^* e_j)] of the functional with coefficients
        coeffs.  The same member on a window takes a sub-window radius; here
        it is ignored."""
        return self.star.T @ np.tensordot(self.mult, coeffs, axes=([2], [0]))

    @functools.cached_property
    def star_mult(self):
        """c[i, j, k]: coefficient of e_k in e_i^* e_j (read-only)."""
        out = np.tensordot(self.star, self.mult, axes=([0], [0]))
        out.flags.writeable = False
        return out

    @functools.cached_property
    def star_mult_nz(self):
        """The nonzeros of star_mult."""
        return linalg.Structure(self.star_mult)

    def lmat(self, a):
        """Left multiplication by a (or by each vector of a stack) in basis
        coordinates: out[p, q] = sum_i a_i mult[i,q,p], added in i order."""
        (i, _, _), w = self.mult_nz.grouped((2, 1))
        out = np.einsum("...ln,ln->...n", np.asarray(a)[..., i], w)
        return out.reshape(out.shape[:-1] + (self.d, self.d))

    def reg(self, a):
        """Left regular representation on L^2(A, h), orthonormal coordinates;
        a may be a stack."""
        return self._C @ self.lmat(a) @ self._Cinv

    # -- block (dual) coordinates -------------------------------------------

    def u_coords(self, functional_coeffs):
        """Map a functional mu(e_i) = c_i to the vector (mu(u_q))_q."""
        return self.B.T @ np.asarray(functional_coeffs)

    def from_u_coords(self, u_vec):
        return self.Binv.T @ np.asarray(u_vec)

    def blocks_of(self, u_vec):
        """Split a u-coordinate vector into the tuple of block matrices."""
        u_vec = np.asarray(u_vec)
        return [u_vec[off:off + n * n].reshape(n, n)
                for n, off in zip(self.block_dims, self.block_offsets)]

    def u_vec_of_blocks(self, blocks):
        return np.concatenate([np.asarray(b, dtype=complex).ravel() for b in blocks])

    @functools.cached_property
    def blocks_by_size(self):
        """Per block size n, the u-coordinate positions of the blocks of
        that size, in block order: an (count, n, n) index array."""
        out = {}
        for n, off in zip(self.block_dims, self.block_offsets):
            out.setdefault(n, []).append(off + np.arange(n * n).reshape(n, n))
        return {n: np.array(idx) for n, idx in out.items()}

    @property
    def max_block_dim(self):
        """Low-dual certificate: the largest irrep dimension."""
        return max(self.block_dims)

    def dual(self):
        if self._dual is None:
            self._dual = DualBlockAlgebra(self)
        return self._dual

    # -- internal ------------------------------------------------------------

    def _find_trivial_block(self):
        for a, r in enumerate(self.irreps):
            if r.dim == 1 and np.linalg.norm(r.coeffs[0, 0] - self.unit) <= 1e-9:
                return a
        raise AxiomViolation("no trivial corepresentation among the irreps")

    def _kac_check(self):
        s2 = self.antipode @ self.antipode
        involutive = np.linalg.norm(s2 - np.eye(self.d)) <= DEFAULT_TOL * self.d
        hm = self._haar_mult
        tracial = np.linalg.norm(hm - hm.T) <= DEFAULT_TOL * self.d
        return bool(involutive and tracial)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check every axiom; returns the residual table, raises on failure."""
        d = self.d
        m, c = self.mult_nz, self.comult_nz
        st, s = self.star, self.antipode
        res = {}

        mt = self.mult.transpose(2, 0, 1)    # the product read as a coproduct
        res["associativity"] = coassoc_residual(m.permuted((2, 0, 1)))
        res["unit"] = counit_residual(mt, self.unit)
        res["coassociativity"] = coassoc_residual(c)
        res["counit"] = counit_residual(self.comult, self.counit)
        res["coproduct_homomorphism"] = hom_residual(m, c)
        res["coproduct_unital"] = unital_residual(self.comult, self.unit)
        res["counit_homomorphism"] = unital_residual(mt, self.counit)

        res["antipode"] = antipode_residual(m, c, s, self.counit, self.unit)

        # star: involutive, antimultiplicative, coproduct-compatible
        res["star_involutive"] = float(np.linalg.norm(st @ np.conj(st) - np.eye(d)))
        res["star_antimultiplicative"] = star_product_residual(m, st, self.star_mult_nz)
        res["star_coproduct"] = star_residual(self.comult, st)
        # S(S(x*)*) = x  (standard Hopf *-compatibility)
        inner = st @ np.conj(s @ st)
        res["antipode_star"] = float(np.linalg.norm(s @ inner - np.eye(d)))

        res["haar_state"] = abs(self.haar @ self.unit - 1.0)
        res["haar_invariance"] = haar_residual(c, self.haar, self.unit)

        res["irrep_coproduct"] = self._irrep_coproduct_residual()
        res["irrep_unitary"] = self._irrep_unitarity_residual()
        res["irrep_counit"] = self._irrep_counit_residual()
        res["schur_orthogonality"] = self._schur_residual()

        bad = {k: v for k, v in res.items() if v > DEFAULT_TOL}
        if bad:
            worst = max(bad, key=bad.get)
            raise AxiomViolation(
                f"axiom '{worst}' residual {bad[worst]:.3e} > {DEFAULT_TOL:.1e}")
        return res

    def _irrep_coproduct_residual(self):
        # Delta(u_ij) = sum_k u_ik (x) u_kj, per entry (i, j); the sum over k
        # is kept in its order
        def resid(u):
            lhs = linalg.rowmul(u, self.comult.reshape(self.d, -1))
            rhs = sum(u[:, k, None, :, None] * u[None, k, :, None, :] for k in range(len(u)))
            return linalg.norms(lhs - rhs.reshape(lhs.shape)).max()
        return float(max(resid(r.coeffs) for r in self.irreps))

    def _irrep_unitarity_residual(self):
        # sum_k u_ik u_jk^* = sum_k u_ki^* u_kj = delta_ij 1, per entry (i, j),
        # for the stack u of the irreps of one dimension n
        def resid(u):
            n = u.shape[1]
            starred = np.einsum("pq,aijq->aijp", self.star, np.conj(u))
            target = np.where(np.eye(n, dtype=bool)[..., None], self.unit, 0.0)
            acc1 = sum(self.mul(u[:, :, None, k], starred[:, None, :, k]) for k in range(n))
            acc2 = sum(self.mul(starred[:, k, :, None], u[:, k, None, :]) for k in range(n))
            return max(linalg.norms(acc1 - target).max(),
                       linalg.norms(acc2 - target).max())
        dims = sorted(set(self.block_dims))
        return float(max(resid(np.array([r.coeffs for r in self.irreps if r.dim == n]))
                         for n in dims))

    def _irrep_counit_residual(self):
        worst = 0.0
        for r in self.irreps:
            eps = np.einsum("ijq,q->ij", r.coeffs, self.counit)
            worst = max(worst, float(np.linalg.norm(eps - np.eye(r.dim))))
        return worst

    def _schur_residual(self):
        # h(u_w u_v^*) = delta_{ab} delta_{ik} delta_{jl} / n_a
        x = np.einsum("pq,qv->pv", self.star, np.conj(self.B))
        mwv = self.B.T @ self._haar_mult @ x
        expected = np.zeros((self.d, self.d), dtype=complex)
        for n, off in zip(self.block_dims, self.block_offsets):
            expected[off:off + n * n, off:off + n * n] = np.eye(n * n) / n
        return float(np.linalg.norm(mwv - expected))


# ---------------------------------------------------------------------------
# Haar solver
# ---------------------------------------------------------------------------

def solve_haar(g: FiniteQG):
    """Solve for the unique bi-invariant state from the invariance system.

    Least squares on (h (x) id)Delta = h(.)1 = (id (x) h)Delta followed by
    normalisation and a PSD check of the GNS gram matrix.
    """
    d = g.d
    c = g.comult
    # unknown h_j: rows indexed by (i,k)
    left = c.transpose(0, 2, 1).reshape(d * d, d) - np.kron(np.eye(d), g.unit.reshape(d, 1))
    right = c.reshape(d * d, d) - np.kron(np.eye(d), g.unit.reshape(d, 1))
    system = np.vstack([left, right])
    basis = linalg.null_space(system)
    if not basis:
        raise HaarNotFound("invariance system has no solution")
    if len(basis) > 1:
        raise NonUnique(f"invariance solution space has dimension {len(basis)}")
    h = basis[0]
    norm = complex(h @ g.unit)
    if abs(norm) < 1e-12:
        raise HaarNotFound("invariant functional is degenerate at the unit")
    h = h / norm
    # state check
    if not linalg.psd_check(g.form(h), 1e-9):
        raise HaarNotFound("bi-invariant functional is not positive")
    return h


# ---------------------------------------------------------------------------
# Dual block algebra
# ---------------------------------------------------------------------------

def _u_product(parent: FiniteQG):
    """The product in the u-basis: u_p u_r = sum_q P[p,r,q] u_q."""
    b, binv = parent.B, parent.Binv
    # step 1: mB[i, r, k] = sum_j B[j,r] m[i,j,k]
    mb = np.tensordot(parent.mult, b, axes=([1], [0]))  # (i, k, r)
    mb = mb.transpose(0, 2, 1)                          # (i, r, k)
    # step 2: P0[p, r, k] = sum_i B[i,p] mb[i,r,k]
    p0 = np.tensordot(b, mb, axes=([0], [0]))           # (p, r, k)
    # step 3: P[p, r, q] = sum_k Binv[q,k] P0[p,r,k]
    return np.tensordot(p0, binv, axes=([2], [1]))      # (p, r, q)


class DualBlockAlgebra:
    """The dual Hopf algebra (+)_a M_{n_a} of a FiniteQG.

    Elements are stored in the matrix-unit coordinates q = (a, i, j); the
    coproduct is fixed by the pairing identity (id (x) dual_comult)(W) =
    W_13 W_12 for W = sum_q u_q (x) e_q.
    """

    def __init__(self, parent: FiniteQG):
        self.parent = parent
        d = parent.d
        self.blocks = list(parent.block_dims)

        b, binv = parent.B, parent.Binv
        self.P = _u_product(parent)       # its d^3 temporaries go before _verify
        self.P_nz = linalg.Structure(self.P)

        self.counit = binv @ parent.unit                  # pairing with 1
        # in q-coords, q = off_a + i n_a + j for e^a_ij: the unit (+)_a 1_{n_a},
        # the involution as the index permutation (e^a_ij)^* = e^a_ji, and the
        # block product e_q e_r = e_s for r = (a,j,k), s = (a,i,k)
        sizes = np.array(self.blocks)
        n = np.repeat(sizes, sizes ** 2)
        off = np.repeat(parent.block_offsets, sizes ** 2)
        i, j = np.divmod(np.arange(d) - off, n)
        self.unit = (i == j).astype(float)
        self.star_perm = off + j * n + i
        q = np.repeat(np.arange(d), n)
        k = np.arange(q.size) - np.repeat(np.cumsum(n) - n, n)
        self.product_nz = linalg.Structure.from_entries(
            (d, d, d), (q, off[q] + j[q] * n[q] + k, off[q] + i[q] * n[q] + k),
            np.ones(q.size, dtype=complex))
        s_u = binv @ parent.antipode @ b
        self.antipode = s_u.T                             # matrix on u-coords

        self._verify()

        for arr in (self.P, self.counit, self.unit, self.star_perm):
            arr.flags.writeable = False

    # coproduct: dual_comult(e_q) = sum_{p,r} P[p,r,q] e_r (x) e_p
    def comult_tensor(self):
        """c[q, a, b]: coefficient of e_a (x) e_b in dual_comult(e_q)."""
        return self.P.transpose(2, 1, 0)

    def _verify(self):
        c = self.P_nz.permuted((2, 1, 0))
        res = {"dual_coassociativity": coassoc_residual(c),
               "dual_homomorphism": hom_residual(self.product_nz, c),
               "dual_counit": counit_residual(self.comult_tensor(), self.counit),
               "dual_star": _permuted_star_residual(self.comult_tensor(), self.star_perm)}
        bad = {k: v for k, v in res.items() if v > DEFAULT_TOL}
        if bad:
            worst = max(bad, key=bad.get)
            raise AxiomViolation(
                f"dual axiom '{worst}' residual {bad[worst]:.3e} > {DEFAULT_TOL:.1e}")
        self.residuals = res


# ---------------------------------------------------------------------------
# Morphisms and the dense-image analyzer
# ---------------------------------------------------------------------------

def check_morphism(source: FiniteQG, target: FiniteQG, pi, tol=1e-9):
    """Verify pi : source -> target is a unital *-homomorphism intertwining
    the coproducts; returns the worst residual, raises NotAMorphism."""
    pi = np.asarray(pi, dtype=complex)
    if pi.shape != (target.d, source.d):
        raise NotAMorphism(f"expected shape {(target.d, source.d)}, got {pi.shape}")
    res = float(np.linalg.norm(pi @ source.unit - target.unit))
    # multiplicativity on basis pairs: pi(e_i e_j) = pi(e_i) pi(e_j)
    lhs = np.tensordot(source.mult, pi, axes=([2], [1]))             # (i, j, a)
    rhs = np.einsum("bj,ibk->ijk", pi,
                    np.tensordot(pi, target.mult, axes=([0], [0])))  # (i, j, k)
    res = max(res, float(np.linalg.norm(lhs - rhs, axis=2).max()))
    # star
    res = max(res, float(np.linalg.norm(pi @ source.star - target.star @ np.conj(pi))))
    # coproduct intertwining: (pi (x) pi) Delta_S = Delta_T pi
    lhs = np.einsum("ijk,aj,bk->iab", source.comult, pi, pi)
    rhs = np.tensordot(pi.T, target.comult, axes=([1], [0]))
    res = max(res, float(np.linalg.norm(lhs - rhs)))
    if res > tol:
        raise NotAMorphism(f"coproduct/star/product intertwining residual {res:.3e}")
    return res


def dense_image_report(source: FiniteQG, target: FiniteQG, pi):
    """Four equivalent dense-image verdicts for the dualised morphism.

    pi : source -> target is a coproduct-intertwining unital *-homomorphism;
    the verdicts answer whether the associated dual morphism (running
    between the dual block algebras, from target-dual to source-dual) has
    dense image.  At finite dimension all four conditions are rank
    computations and the report asserts they agree:

      1. injectivity of the dual morphism on dual coordinates;
      2. the same through the faithful block realisation (reduced picture);
      3. the slices of the associated bicharacter span the full dual
         block algebra of the source;
      4. surjectivity of pi itself (range density of the double dual).
    """
    check_morphism(source, target, pi)
    pi = np.asarray(pi, dtype=complex)
    d_t = target.d

    # dual morphism matrix on u-coordinates: target-dual -> source-dual
    mhat = (target.Binv @ pi @ source.B).T  # (d_source, d_target)
    cond1 = linalg.matrix_rank(mhat) == d_t

    # reduced picture: realise each image as concrete block matrices
    cols = [source.u_vec_of_blocks(source.blocks_of(mhat[:, w])) for w in range(d_t)]
    cond2 = linalg.matrix_rank(np.array(cols).T) == d_t

    # bicharacter slices: N[q, e] = sum_w mhat[q,w] B_target[e,w]
    n_mat = mhat @ target.B.T
    cond3 = linalg.matrix_rank(n_mat) == d_t

    cond4 = linalg.matrix_rank(pi) == d_t

    verdicts = (cond1, cond2, cond3, cond4)
    if len(set(verdicts)) != 1:
        raise AxiomViolation(f"dense-image conditions disagree: {verdicts}")
    return {
        "injective_dual": cond1,
        "injective_dual_reduced": cond2,
        "bicharacter_span": cond3,
        "surjective": cond4,
        "dense_image": cond1,
    }
