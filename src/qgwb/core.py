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
# sparse tensor residuals (used by the axiom checks; exact, order-free)
# ---------------------------------------------------------------------------

def _csr(a2d) -> sp.csr_matrix:
    return sp.csr_matrix(np.ascontiguousarray(a2d))


def _coo_permute(mat: sp.spmatrix, d: int, perm) -> sp.csr_matrix:
    """Reindex a (d^2, d^2) sparse matrix [(a,b),(c,e)] by a 4-index permutation.

    perm maps the tuple (a, b, c, e) to the new (row-pair, col-pair) order,
    given as a tuple like ('a', 'c', 'b', 'e') meaning new row = (a,c),
    new col = (b,e).
    """
    coo = mat.tocoo()
    idx = {
        "a": coo.row // d,
        "b": coo.row % d,
        "c": coo.col // d,
        "e": coo.col % d,
    }
    r = idx[perm[0]] * d + idx[perm[1]]
    c = idx[perm[2]] * d + idx[perm[3]]
    return sp.csr_matrix((coo.data, (r, c)), shape=mat.shape)


def assoc_residual(m) -> float:
    """Frobenius residual of sum_k m[i,j,k]m[k,l,p] = sum_k m[j,l,k]m[i,k,p]."""
    d = m.shape[0]
    lhs = _csr(m.reshape(d * d, d)) @ _csr(m.reshape(d, d * d))
    # rhs[(j,l),(i,p)] = sum_k m[j,l,k] m[i,k,p]
    rhs = _csr(m.reshape(d * d, d)) @ _csr(np.transpose(m, (1, 0, 2)).reshape(d, d * d))
    # reindex rhs rows (j,l), cols (i,p) -> rows (i,j), cols (l,p)
    rhs = _coo_permute(rhs, d, ("c", "a", "b", "e"))
    diff = lhs - rhs
    return float(sp.linalg.norm(diff)) if diff.nnz else 0.0


def coassoc_residual(c) -> float:
    """Coassociativity of a coproduct tensor c[i,a,b]."""
    d = c.shape[0]
    # (Delta (x) id)Delta: X[(i,k),(a,b)] = sum_p c[i,p,k] c[p,a,b]
    x = _csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # (id (x) Delta)Delta: Y[(i,a),(b,k)] = sum_p c[i,a,p] c[p,b,k]
    y = _csr(c.reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # align on (i, a, b, k): x has rows (i,k) cols (a,b); y rows (i,a) cols (b,k)
    x = _coo_permute(x, d, ("a", "c", "e", "b"))
    y = _coo_permute(y, d, ("a", "b", "c", "e"))
    diff = x - y
    return float(sp.linalg.norm(diff)) if diff.nnz else 0.0


def hom_residual(m, c) -> float:
    """Residual of Delta(xy) = Delta(x)Delta(y) for product m, coproduct c."""
    d = m.shape[0]
    lhs = _csr(m.reshape(d * d, d)) @ _csr(c.reshape(d, d * d))
    # rhs[(i,j),(a,b)] = sum c[i,p,q] c[j,r,s] m[p,r,a] m[q,s,b]
    # F[(i,q),(r,a)] = sum_p c[i,p,q] m[p,r,a]
    f = _csr(np.transpose(c, (0, 2, 1)).reshape(d * d, d)) @ _csr(m.reshape(d, d * d))
    # fold a into the row: F2[(i,q,a), r]
    f = f.tocoo()
    rows2 = (f.row * d) + f.col % d
    cols2 = f.col // d
    f2 = sp.csr_matrix((f.data, (rows2, cols2)), shape=(d * d * d, d))
    # E[(i,q,a),(j,s)] = sum_r F2[(i,q,a),r] c[j,r,s]
    e = f2 @ _csr(np.transpose(c, (1, 0, 2)).reshape(d, d * d))
    # RHS[(i,j),(a,b)] = sum_{q,s} E[(i,q,a),(j,s)] m[q,s,b]
    e = e.tocoo()
    i_idx = e.row // (d * d)
    q_idx = (e.row // d) % d
    a_idx = e.row % d
    j_idx = e.col // d
    s_idx = e.col % d
    rows3 = (i_idx * d + a_idx) * d + j_idx
    cols3 = q_idx * d + s_idx
    e3 = sp.csr_matrix((e.data, (rows3, cols3)), shape=(d * d * d, d * d))
    r3 = e3 @ _csr(m.reshape(d * d, d))  # [(i,a,j), b]
    r3 = r3.tocoo()
    i_idx = r3.row // (d * d)
    a_idx = (r3.row // d) % d
    j_idx = r3.row % d
    rhs = sp.csr_matrix(
        (r3.data, (i_idx * d + j_idx, a_idx * d + r3.col)), shape=(d * d, d * d)
    )
    diff = lhs - rhs
    return float(sp.linalg.norm(diff)) if diff.nnz else 0.0


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
        cols = []
        for r in self.irreps:
            for i in range(r.dim):
                for j in range(r.dim):
                    cols.append(r.coeffs[i, j])
        self.B = np.array(cols, dtype=complex).T  # (d, d)
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
        return np.einsum("i,j,ijk->k", np.asarray(a), np.asarray(b), self.mult)

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
        """Left multiplication by a in basis coordinates."""
        return np.einsum("i,iqp->pq", np.asarray(a), self.mult)

    def reg(self, a):
        """Left regular representation on L^2(A, h), orthonormal coordinates."""
        return self._C @ self.lmat(a) @ self._Cinv

    # -- block (dual) coordinates -------------------------------------------

    def u_coords(self, functional_coeffs):
        """Map a functional mu(e_i) = c_i to the vector (mu(u_q))_q."""
        return self.B.T @ np.asarray(functional_coeffs)

    def from_u_coords(self, u_vec):
        return self.Binv.T @ np.asarray(u_vec)

    def blocks_of(self, u_vec):
        """Split a u-coordinate vector into the tuple of block matrices."""
        out = []
        for n, off in zip(self.block_dims, self.block_offsets):
            out.append(np.asarray(u_vec)[off:off + n * n].reshape(n, n))
        return out

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

        res["associativity"] = assoc_residual(m)
        res["unit"] = max(
            float(np.linalg.norm(np.tensordot(self.unit, m, axes=([0], [0])) - np.eye(d))),
            float(np.linalg.norm(np.tensordot(self.unit, m.transpose(1, 0, 2), axes=([0], [0])) - np.eye(d))),
        )
        res["coassociativity"] = coassoc_residual(c)
        res["counit"] = max(
            float(np.linalg.norm(np.tensordot(c, self.counit, axes=([1], [0])) - np.eye(d))),
            float(np.linalg.norm(np.tensordot(c, self.counit, axes=([2], [0])) - np.eye(d))),
        )
        res["coproduct_homomorphism"] = hom_residual(m, c)
        res["coproduct_unital"] = float(np.linalg.norm(
            np.tensordot(self.unit, c, axes=([0], [0])) - np.outer(self.unit, self.unit)))
        res["counit_homomorphism"] = float(np.linalg.norm(
            np.tensordot(m, self.counit, axes=([2], [0])) - np.outer(self.counit, self.counit)))

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
        lhs = np.tensordot(st, c, axes=([0], [0]))      # Delta(e_i^*)
        rhs = np.tensordot(np.conj(c), st, axes=([1], [1]))   # (i, b, p)
        rhs = np.tensordot(rhs, st, axes=([1], [1]))          # (i, p, q)
        res["star_coproduct"] = float(np.linalg.norm(lhs - rhs))
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
        worst = 0.0
        for r in self.irreps:
            n = r.dim
            for i in range(n):
                for j in range(n):
                    lhs = np.tensordot(r.coeffs[i, j], self.comult, axes=([0], [0]))
                    rhs = np.zeros_like(lhs)
                    for k in range(n):
                        rhs += np.outer(r.coeffs[i, k], r.coeffs[k, j])
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst

    def _irrep_unitarity_residual(self):
        worst = 0.0
        for r in self.irreps:
            n = r.dim
            starred = np.einsum("pq,ijq->ijp", self.star, np.conj(r.coeffs))
            for i in range(n):
                for j in range(n):
                    acc1 = np.zeros(self.d, dtype=complex)
                    acc2 = np.zeros(self.d, dtype=complex)
                    for k in range(n):
                        acc1 += self.mul(r.coeffs[i, k], starred[j, k])
                        acc2 += self.mul(starred[k, i], r.coeffs[k, j])
                    target = (self.unit if i == j else 0.0)
                    worst = max(worst, float(np.linalg.norm(acc1 - target)),
                                float(np.linalg.norm(acc2 - target)))
        return worst

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

    def counit_of(self, u_vec):
        return complex(self.counit @ np.asarray(u_vec))

    def adjoint(self, x):
        g = self.parent
        return g.u_vec_of_blocks([b.conj().T for b in g.blocks_of(x)])

    def _verify(self):
        tol = self.tol
        c = self.comult_tensor()
        res = {"dual_coassociativity": coassoc_residual(c)}
        res["dual_homomorphism"] = hom_residual(self.block_mult_tensor(), c)
        # counit law for the dual coproduct
        d = self.parent.d
        res["dual_counit"] = max(
            float(np.linalg.norm(np.tensordot(c, self.counit, axes=([1], [0])) - np.eye(d))),
            float(np.linalg.norm(np.tensordot(c, self.counit, axes=([2], [0])) - np.eye(d))),
        )
        # star compatibility: dual_comult(x^*) = (* (x) *) dual_comult(x)
        perm = self.star_perm
        lhs = c[perm]
        rhs = np.conj(c)[:, perm][:, :, perm]
        res["dual_star"] = float(np.linalg.norm(lhs - rhs))
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
    # multiplicativity on basis pairs
    d = source.d
    for i in range(d):
        for j in range(d):
            lhs = pi @ source.mult[i, j]
            rhs = target.mul(pi[:, i], pi[:, j])
            res = max(res, float(np.linalg.norm(lhs - rhs)))
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
    cols = []
    for w in range(d_t):
        blocks = source.blocks_of(mhat[:, w])
        cols.append(np.concatenate([b.ravel() for b in blocks]))
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
