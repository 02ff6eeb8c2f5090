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
corepresentation calculus to Frobenius residual <= tol (default 1e-9),
once, at construction; the residual table is kept as `residuals`.
The dual object is the block algebra  (+)_a M_{n_a}  with the coproduct
transported through the canonical pairing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

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

def _csr_sorted(flat, data, shape) -> sp.csr_matrix:
    """The csr matrix with entries data at the ascending row-major positions
    flat (the canonical entry order)."""
    rows, cols = np.divmod(flat, shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((data, cols, indptr), shape=shape)


def _csr(a2d) -> sp.csr_matrix:
    flat = np.flatnonzero(a2d)
    return _csr_sorted(flat, np.ravel(a2d)[flat], a2d.shape)


def _regroup(mat, d: int, axes, n_rows: int) -> sp.csr_matrix:
    """Read a csr matrix as a tensor with len(axes) indices of range d (row
    indices first), permute its indices to `axes` and regroup the first
    n_rows of them as the rows of a new csr matrix."""
    dims = (d,) * len(axes)
    idx = np.unravel_index(np.repeat(np.arange(mat.shape[0]) * mat.shape[1],
                                     np.diff(mat.indptr)) + mat.indices, dims)
    flat = np.ravel_multi_index([idx[a] for a in axes], dims)
    del idx                 # index arrays freed before the sort
    order = np.argsort(flat)
    return _csr_sorted(flat[order], mat.data[order],
                       (d ** n_rows, d ** (len(axes) - n_rows)))


def coassoc_residual(c) -> float:
    """(Delta (x) id)Delta = (id (x) Delta)Delta for a coproduct c[i,a,b]."""
    d = c.shape[0]
    # (Delta (x) id)Delta: X[(i,k),(a,b)] = sum_p c[i,p,k] c[p,a,b]
    x = _csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # (id (x) Delta)Delta: Y[(i,a),(b,k)] = sum_p c[i,a,p] c[p,b,k]
    y = _csr(c.reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # both as [(i,a),(b,k)]; canonical entry order fixes the norm's summation order
    y.sort_indices()
    return float(sp.linalg.norm(_regroup(x, d, (0, 2, 3, 1), 2) - y))


def hom_residual(m, c) -> float:
    """Residual of Delta(xy) = Delta(x)Delta(y) for product m, coproduct c."""
    d = m.shape[0]
    lhs = _csr(m.reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # rhs[(i,j),(a,b)] = sum c[i,p,q] c[j,r,s] m[p,r,a] m[q,s,b], in stages:
    # F[(i,q),(r,a)] = sum_p c[i,p,q] m[p,r,a]
    f = _csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _csr(m.reshape(d, d * d))
    # E[(i,q,a),(j,s)] = sum_r F[(i,q,a),r] c[j,r,s]
    e = _regroup(f, d, (0, 1, 3, 2), 3) @ _csr(np.transpose(c, (1, 0, 2)).reshape(d, d * d))
    # R[(i,a,j),b] = sum_{q,s} E[(i,a,j),(q,s)] m[q,s,b]
    r = _regroup(e, d, (0, 2, 3, 1, 4), 3) @ _csr(m.reshape(d * d, d))
    return float(sp.linalg.norm(lhs - _regroup(r, d, (0, 2, 1, 3), 2)))


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
                 irreps, haar=None, basis_names=None, tol=DEFAULT_TOL):
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
        self.basis_names = list(basis_names) if basis_names else [f"e{i}" for i in range(d)]
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
        self.tol = float(tol)

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

        # GNS data for the Haar state; e_i^* has coefficient vector star[:, i]
        self.gram = self.form(self.haar)  # h(e_i* e_j)
        self.gram = 0.5 * (self.gram + self.gram.conj().T)
        vals = np.linalg.eigvalsh(self.gram)
        if vals[0] < -self.tol:
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
                    self.antipode, self.haar, self.B, self.Binv, self.gram):
            arr.flags.writeable = False

    # -- algebra operations ------------------------------------------------

    def mul(self, a, b):
        """The product ab of coefficient vectors, or of each pair of two
        broadcasting stacks of them."""
        return np.einsum("...i,...j,ijk->...k", np.asarray(a), np.asarray(b), self.mult)

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
    def coproduct_rows(self):
        """Per a, the entries (b, i, Delta[i, a, b]) of the coproduct, as
        linalg.nonzero_rows gives them: U_a U_b = sum_i Delta[i, a, b] U_i."""
        return linalg.nonzero_rows(self.comult.transpose(1, 2, 0))

    def lmat(self, a):
        """Left multiplication by a (or by each vector of a stack) in basis
        coordinates."""
        return np.einsum("...i,iqp->...pq", np.asarray(a), self.mult)

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

    def q_index(self, alpha, i, j):
        return int(self.block_offsets[alpha] + i * self.block_dims[alpha] + j)

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
        involutive = np.linalg.norm(s2 - np.eye(self.d)) <= self.tol * self.d
        hm = np.tensordot(self.mult, self.haar, axes=([2], [0]))
        tracial = np.linalg.norm(hm - hm.T) <= self.tol * self.d
        return bool(involutive and tracial)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check every axiom; returns the residual table, raises on failure."""
        tol = self.tol
        d = self.d
        m, c = self.mult, self.comult
        st, s = self.star, self.antipode
        res = {}

        mt = m.transpose(2, 0, 1)            # the product read as a coproduct
        res["associativity"] = coassoc_residual(mt)
        res["unit"] = counit_residual(mt, self.unit)
        res["coassociativity"] = coassoc_residual(c)
        res["counit"] = counit_residual(c, self.counit)
        res["coproduct_homomorphism"] = hom_residual(m, c)
        res["coproduct_unital"] = unital_residual(c, self.unit)
        res["counit_homomorphism"] = unital_residual(mt, self.counit)

        # antipode: m(S (x) id)Delta = counit(.) 1 = m(id (x) S)Delta
        sd = np.einsum("ijk,pj->ipk", c, s)
        left = np.einsum("ipk,pkq->iq", sd, m)
        ds = np.einsum("ijk,pk->ijp", c, s)
        right = np.einsum("ijp,jpq->iq", ds, m)
        target = np.outer(self.counit, self.unit)
        res["antipode"] = max(float(np.linalg.norm(left - target)),
                              float(np.linalg.norm(right - target)))

        # star: involutive, antimultiplicative, coproduct-compatible
        res["star_involutive"] = float(np.linalg.norm(st @ np.conj(st) - np.eye(d)))
        lhs = np.einsum("ijk,pk->ijp", np.conj(m), st)
        t1 = np.tensordot(st, m, axes=([0], [0]))       # t1[j,r,p] = sum_q st[q,j] m[q,r,p]
        rhs = np.einsum("ri,jrp->ijp", st, t1)
        res["star_antimultiplicative"] = float(np.linalg.norm(lhs - rhs))
        res["star_coproduct"] = star_residual(c, st)
        # S(S(x*)*) = x  (standard Hopf *-compatibility)
        inner = st @ np.conj(s @ st)
        res["antipode_star"] = float(np.linalg.norm(s @ inner - np.eye(d)))

        # Haar state
        res["haar_state"] = abs(self.haar @ self.unit - 1.0)
        left_inv = np.einsum("ijk,j->ik", c, self.haar) - np.outer(self.haar, self.unit)
        right_inv = np.einsum("ijk,k->ij", c, self.haar) - np.outer(self.haar, self.unit)
        res["haar_invariance"] = max(float(np.linalg.norm(left_inv)),
                                     float(np.linalg.norm(right_inv)))

        res["irrep_coproduct"] = self._irrep_coproduct_residual()
        res["irrep_unitary"] = self._irrep_unitarity_residual()
        res["irrep_counit"] = self._irrep_counit_residual()
        res["schur_orthogonality"] = self._schur_residual()

        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            worst = max(bad, key=bad.get)
            raise AxiomViolation(f"axiom '{worst}' residual {bad[worst]:.3e} > {tol:.1e}")
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
        # sum_k u_ik u_jk^* = sum_k u_ki^* u_kj = delta_ij 1, per entry (i, j)
        def resid(u):
            n = len(u)
            starred = np.einsum("pq,ijq->ijp", self.star, np.conj(u))
            target = np.where(np.eye(n, dtype=bool)[..., None], self.unit, 0.0)
            acc1 = sum(self.mul(u[:, None, k], starred[None, :, k]) for k in range(n))
            acc2 = sum(self.mul(starred[k, :, None], u[k, None, :]) for k in range(n))
            return max(linalg.norms(acc1 - target).max(),
                       linalg.norms(acc2 - target).max())
        return float(max(resid(r.coeffs) for r in self.irreps))

    def _irrep_counit_residual(self):
        worst = 0.0
        for r in self.irreps:
            eps = np.einsum("ijq,q->ij", r.coeffs, self.counit)
            worst = max(worst, float(np.linalg.norm(eps - np.eye(r.dim))))
        return worst

    def _schur_residual(self):
        # h(u_w u_v^*) = delta_{ab} delta_{ik} delta_{jl} / n_a
        x = np.einsum("pq,qv->pv", self.star, np.conj(self.B))
        h2 = np.tensordot(self.mult, self.haar, axes=([2], [0]))
        mwv = self.B.T @ h2 @ x
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

class DualBlockAlgebra:
    """The dual Hopf algebra (+)_a M_{n_a} of a FiniteQG.

    Elements are stored in the matrix-unit coordinates q = (a, i, j); the
    coproduct is fixed by the pairing identity (id (x) dual_comult)(W) =
    W_13 W_12 for W = sum_q u_q (x) e_q.
    """

    def __init__(self, parent: FiniteQG, tol=None):
        self.parent = parent
        self.tol = parent.tol if tol is None else tol
        d = parent.d
        self.blocks = list(parent.block_dims)
        self.offsets = list(parent.block_offsets)

        # product-in-u-basis tensor: u_p u_r = sum_q P[p,r,q] u_q
        b, binv, m = parent.B, parent.Binv, parent.mult
        # step 1: mB[i, r, k] = sum_j B[j,r] m[i,j,k]
        mb = np.tensordot(m, b, axes=([1], [0]))          # (i, k, r)
        mb = mb.transpose(0, 2, 1)                        # (i, r, k)
        # step 2: P0[p, r, k] = sum_i B[i,p] mb[i,r,k]
        p0 = np.tensordot(b, mb, axes=([0], [0]))         # (p, r, k)
        # step 3: P[p, r, q] = sum_k Binv[q,k] P0[p,r,k]
        self.P = np.tensordot(p0, binv, axes=([2], [1]))  # (p, r, q)

        self.counit = binv @ parent.unit                  # pairing with 1
        # in q-coords: the unit (+)_a 1_{n_a}, the involution as the index
        # permutation (e^a_ij)^* = e^a_ji, and the block product as rows:
        # e_q e_r = e_s for q = (a,i,j) and the (r, s) = ((a,j,k), (a,i,k))
        self.unit = np.zeros(d)
        self.star_perm = np.zeros(d, dtype=int)
        self.product_rows = []
        for n, off in zip(self.blocks, self.offsets):
            self.unit[off + np.arange(n) * (n + 1)] = 1.0
            i, j = np.indices((n, n)).reshape(2, -1)
            self.star_perm[off + i * n + j] = off + j * n + i
            k = np.arange(n)
            self.product_rows += [(off + jj * n + k, off + ii * n + k, np.ones(n))
                                  for ii, jj in zip(i.tolist(), j.tolist())]
        s_u = binv @ parent.antipode @ b
        self.antipode = s_u.T                             # matrix on u-coords
        self.unitary_antipode = self.antipode             # Kac: R-hat = S-hat

        self._verify()

        for arr in (self.P, self.counit, self.unit, self.star_perm):
            arr.flags.writeable = False

    # coproduct: dual_comult(e_q) = sum_{p,r} P[p,r,q] e_r (x) e_p
    def comult_tensor(self):
        """c[q, a, b]: coefficient of e_a (x) e_b in dual_comult(e_q)."""
        return self.P.transpose(2, 1, 0)

    def block_mult_tensor(self):
        """M[q, r, s]: structure constants of the concrete block product,
        e_q e_r = sum_s M[q,r,s] e_s in q-coords."""
        d = self.parent.d
        out = np.zeros((d, d, d), dtype=complex)
        for q, (r, s, w) in enumerate(self.product_rows):
            out[q, r, s] = w
        return out

    def _verify(self):
        tol = self.tol
        c = self.comult_tensor()
        res = {"dual_coassociativity": coassoc_residual(c),
               "dual_homomorphism": hom_residual(self.block_mult_tensor(), c),
               "dual_counit": counit_residual(c, self.counit),
               # the involution (e^a_ij)^* = e^a_ji as a permutation matrix
               "dual_star": star_residual(c, np.eye(self.parent.d)[self.star_perm])}
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            worst = max(bad, key=bad.get)
            raise AxiomViolation(
                f"dual axiom '{worst}' residual {bad[worst]:.3e} > {tol:.1e}")
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


def dense_image_report(source: FiniteQG, target: FiniteQG, pi, tol=1e-10):
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
    cond1 = linalg.matrix_rank(mhat, tol) == d_t

    # reduced picture: realise each image as concrete block matrices
    cols = [source.u_vec_of_blocks(source.blocks_of(mhat[:, w])) for w in range(d_t)]
    cond2 = linalg.matrix_rank(np.array(cols).T, tol) == d_t

    # bicharacter slices: N[q, e] = sum_w mhat[q,w] B_target[e,w]
    n_mat = mhat @ target.B.T
    cond3 = linalg.matrix_rank(n_mat, tol) == d_t

    cond4 = linalg.matrix_rank(pi, tol) == d_t

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
