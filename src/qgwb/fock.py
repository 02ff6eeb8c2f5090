"""Truncated full Fock space and the induced actions on its operator algebra.

The Fock space over K = C^k truncated at depth N is
(+)_{n=0}^{N} K^(x n), with the vacuum in degree 0.  Creation is cut hard
at the top degree; every operation that could leak past the cutoff carries
a degree budget and raises DepthExceeded instead of silently truncating.
The field operators are s(zeta) = ell(zeta) + ell(J zeta)^* for a
conjugate-linear involution J on K: the involution T of the free Gaussian
functor is J, the tracial (free-group-factor) case of a Kac parent.

Every sum over structure constants here (the lift's folds, the induced
action's sandwiches and pair products) is a linalg.contract chain: the
products of two families first, then one contraction of those with the
constants' store, cut at |c| > 1e-16.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from . import linalg
from .coreps import Corep
from .errors import (
    AxiomViolation,
    CompatibilityFailed,
    DepthExceeded,
    SchemaError,
)
from .linalg import BYTE_BUDGET

FOLD_TOL = 1e-9     # lift_rep: the two folds of a topbar power
DEFECT_TOL = 1e-9   # asymptotic_invariance_experiment: action vs corep defect


def _reserve(nbytes, what):
    """Raise DepthExceeded before an allocation of more than BYTE_BUDGET:
    an array of this layer that grows with the truncation, a field
    operator's storage, a dense (d, total, total) family or a dense
    (total, total) matrix."""
    if nbytes > BYTE_BUDGET:
        raise DepthExceeded(
            f"{what} needs {nbytes} bytes, over the budget of {BYTE_BUDGET}")


def _field_bytes(total):
    """Bytes of a field operator on a space of dimension total: 2 (total - 1)
    complex entries with int32 column indices, and int32 row pointers."""
    return 40 * (total - 1) + 4 * (total + 1)


class TruncatedFock:
    """(+)_{n<=N} K^(x n) with a conjugate-linear involution T = J on K.

    Basis vectors of degree n >= 1 are words: the one at local index
    letter * k^(n-1) + q is e_letter (x) (vector q of degree n-1), so
    creation maps each basis vector of degree < N to k children.
    """

    def __init__(self, base_dim: int, depth: int, j_conj=None):
        self.base_dim = int(base_dim)
        self.depth = int(depth)
        if self.base_dim < 1 or self.depth < 1:
            raise SchemaError("base_dim and depth must be >= 1")
        k = self.base_dim
        # stop adding degrees once a field operator is over the budget, so
        # that a huge depth fails before anything of its size is built
        dims, total = [1], 1
        while len(dims) <= self.depth and _field_bytes(total) <= BYTE_BUDGET:
            dims.append(dims[-1] * k)
            total += dims[-1]
        _reserve(_field_bytes(total), "a field operator")
        self.degree_dims = dims
        self.degree_offsets = np.cumsum([0] + dims)[:-1]
        self.total_dim = total
        # every basis vector past the vacuum: its letter and its parent
        deg = np.repeat(np.arange(self.depth + 1), dims)[1:]
        below = np.asarray(dims)[deg - 1]
        local = np.arange(1, self.total_dim) - self.degree_offsets[deg]
        self._letter = local // below
        # int32 indices: the budget keeps total far below 2**31
        self._parent = (self.degree_offsets[deg - 1] + local % below).astype(np.int32)
        self.j_conj = np.eye(k, dtype=complex) if j_conj is None else \
            np.asarray(j_conj, dtype=complex)
        if np.linalg.norm(self.j_conj @ np.conj(self.j_conj) - np.eye(k)) > 1e-10:
            raise AxiomViolation("J is not an involutive anti-unitary")

    def apply_j(self, zeta):
        return self.j_conj @ np.conj(np.asarray(zeta, dtype=complex))

    # -- basis bookkeeping ---------------------------------------------------

    def vacuum(self):
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v

    # -- operators --------------------------------------------------------------

    def creation(self, zeta):
        """ell(zeta): degree n -> n+1, hard cut at the top.

        One stored entry per basis vector past the vacuum: its row holds
        zeta[letter] in the column of its parent.
        """
        zeta = np.asarray(zeta, dtype=complex).reshape(self.base_dim)
        n = self.total_dim
        indptr = np.arange(-1, n, dtype=np.int32)
        indptr[0] = 0
        return linalg.SparseMatrix((zeta[self._letter], self._parent, indptr),
                                   shape=(n, n))

    def s_operator(self, zeta):
        """s(zeta) = ell(zeta) + ell(J zeta)^*; selfadjoint iff J zeta = zeta."""
        zeta = np.asarray(zeta, dtype=complex).reshape(self.base_dim)
        n = self.total_dim
        child = np.arange(1, n, dtype=np.int32)
        rows = np.concatenate([child, self._parent])
        cols = np.concatenate([self._parent, child])
        vals = np.concatenate([zeta[self._letter],
                               np.conj(self.apply_j(zeta)[self._letter])])
        return linalg.SparseMatrix((vals, (rows, cols)), shape=(n, n))

    def _s_rows(self, zetas):
        """The rows form of the family s(zeta_w) for a stack of vectors
        zeta_w: row w holds s(zeta_w) flattened row-major, with the values
        s_operator stores."""
        zetas = np.asarray(zetas, dtype=complex).reshape(-1, self.base_dim)
        n = self.total_dim
        child = np.arange(1, n)
        flat = np.concatenate([child * n + self._parent, self._parent * n + child])
        j_zetas = linalg.rowmul(np.conj(zetas), self.j_conj.T)     # J zeta_w
        vals = np.concatenate([zetas[:, self._letter],
                               np.conj(j_zetas[:, self._letter])], axis=1)
        order = np.argsort(flat)
        return sparse.csr_array(
            (vals[:, order].ravel(), np.tile(flat[order], len(zetas)),
             np.arange(len(zetas) + 1) * flat.size), shape=(len(zetas), n * n))

    def vacuum_moments(self, op, orders):
        out = {}
        v = self.vacuum()
        w = v.copy()
        top = max(orders)
        for n in range(1, top + 1):
            w = op @ w
            if n in orders:
                out[n] = complex(v.conj() @ w)
        return out

    def word_operator(self, ops):
        """Product of operators; raises when the degree budget is blown."""
        if len(ops) > self.depth:
            raise DepthExceeded(
                f"word of length {len(ops)} on depth {self.depth} truncation")
        out = linalg.SparseMatrix(sparse.eye_array(self.total_dim, dtype=complex))
        for op in ops:
            out = out @ op
        return out


# ---------------------------------------------------------------------------
# sparse families
# ---------------------------------------------------------------------------
# A family X_0..X_{d-1} of m x n matrices is a Structure or a linalg.Lettered
# over (i, a, b), whose csr matrix (d, m*n) holds X_i flattened row-major in
# row i (its rows form).  contract sorts a Lettered's rows in place when it
# regroups them, so a family owns its matrix: no other array shares its
# buffers.

def _family(mat, d, m, n):
    return linalg.Lettered(mat, "iab", (d, m, n), 1)


def _stack(family):
    """The (d, m, n) coo stack of a Lettered family, on a copy of its
    entries."""
    entries = family.mat.tocoo(copy=True)
    i, ab = (c.astype(np.int64) for c in entries.coords)
    a, b = np.divmod(ab, family.shape[2])
    return linalg.SparseStack((entries.data, (i, a, b)), shape=family.shape)


def _kron_sum(c, x, y):
    """out[p] = sum_{i,j} c[i,j,p] X_i (x) Y_j as a family: the outer product
    of the two families, then one contraction with the constants
    (|c| > 1e-16), over (i, j) in ascending order."""
    (_, m1, n1), (_, m2, n2) = x.shape, y.shape
    pairs = linalg.contract(x, "iab", y, "jce", "iabjce")
    out = linalg.contract(linalg.Structure.of(c).cut(1e-16), "ijp", pairs, "iabjce", "pacbe")
    return _family(out.mat, c.shape[2], m1 * m2, n1 * n2)


# ---------------------------------------------------------------------------
# lifted corepresentation
# ---------------------------------------------------------------------------

class LiftedRep:
    """F(U) = (+)_n U^(topbar n), degree-block-diagonal and sparse."""

    def __init__(self, fock: TruncatedFock, base: Corep, blocks):
        self.fock = fock
        self.base = base
        self.parent = base.parent
        # per degree n, the (d, k^n, k^n) stack of coefficient blocks
        self.degree_blocks = blocks
        # the horizontal stack [F_0 | ... | F_{d-1}] (total x d*total)
        total = fock.total_dim
        rows, cols = [], []
        for o, blk in zip(fock.degree_offsets, blocks):
            p, a, b = blk.coords
            rows.append(o + a)
            cols.append(p * total + o + b)
        vals = np.concatenate([blk.data for blk in blocks])
        self.coef = linalg.SparseMatrix(
            (vals, (np.concatenate(rows), np.concatenate(cols))),
            shape=(total, self.parent.d * total))


def compatibility_residual(fock: TruncatedFock, u: Corep) -> float:
    """Residual of (omega (x) id)(U^*) J <= J (omega-bar (x) id)(U^*)."""
    g = u.parent
    uc = u.u_coef()
    # U^* = sum_k e_k (x) W_k
    w = np.einsum("ki,iba->kab", g.star, np.conj(uc))
    worst = 0.0
    jm = fock.j_conj
    for i in range(g.d):
        lhs = w[i] @ jm
        rhs = jm @ np.conj(np.tensordot(g.star[i], w, axes=([0], [0])))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def lift_rep(fock: TruncatedFock, u: Corep) -> LiftedRep:
    """Lift a corep on K to the truncated Fock space, degreewise.

    Requires the compatibility of U with the involution J (for Kac parents
    this is the conjugation symmetry).  The degree-n block is the
    n-fold product U_{1(n+1)} ... U_{12}; the recursion is cross-checked
    against folding from the other end.
    """
    if u.space_dim != fock.base_dim:
        raise SchemaError("corep space does not match the Fock base")
    resid = compatibility_residual(fock, u)
    if resid > 1e-9:
        raise CompatibilityFailed(
            f"involution compatibility fails: {resid:.3e}", worst_residual=resid)
    g = u.parent
    uc = linalg.Structure(u.u_coef())
    # m[i, j, p] with the two factors swapped: both folds sum over it
    mt = g.mult_nz.permuted((1, 0, 2))
    cur = alt = _family(sparse.csr_array(g.unit.reshape(g.d, 1)), g.d, 1, 1)
    blocks = []
    for n in range(fock.depth + 1):
        if n:
            # the new K leg in front (sum m[k,j,p] U[j] (x) prev[k]), and
            # peeling the highest leg instead (sum m[j,k,p] prev[k] (x) U[j])
            cur = _kron_sum(mt, uc, cur)
            alt = _kron_sum(mt, alt, uc)
            # two independent groupings of the same leg product
            if linalg.frob((cur - alt).mat) > FOLD_TOL:
                raise AxiomViolation("topbar power folds disagree")
        blocks.append(_stack(cur))
    return LiftedRep(fock, u, blocks)


# ---------------------------------------------------------------------------
# induced action on the generated algebra
# ---------------------------------------------------------------------------

class InducedAction:
    """alpha_U(x) = F(U)^*(1 (x) x)F(U) on the truncated algebra.

    Every sum is a linalg.contract chain: F_i^* x, then the sandwiches
    F_i^* x F_j (or pair products), then one contraction of those with the
    structure constants (|c| > 1e-16) over (i, j) in ascending order.
    """

    def __init__(self, lifted: LiftedRep):
        self.lifted = lifted
        self.fock = lifted.fock
        g = lifted.parent
        self.parent = g
        d, total = g.d, self.fock.total_dim
        # [F_0 | ... | F_{d-1}] over (n, j, b) and its adjoint over (i, a, n)
        self.coef = linalg.Lettered(lifted.coef, "njb", (total, d, total), 1)
        self.coef_adj = linalg.Lettered(sparse.csr_array(lifted.coef.conj().T), "ian",
                                        (d, total, total), 2)
        # products e_i^* e_j expressed over the basis
        self.prodstar = g.star_mult_nz.dense()

    def _left(self, x):
        """F_i^* x over (i, a, m) for an operator x, which contract reads
        as it is stored."""
        x = sparse.csr_array(x)
        return linalg.contract(self.coef_adj, "ian", linalg.Lettered(x, "nm", x.shape, 1),
                               "nm", "iam")

    def _alpha(self, x, c):
        """Rows form of sum_{i,j} c[i,j,k] F_i^* x F_j."""
        sandwich = linalg.contract(self._left(x), "iam", self.coef, "mjb", "iajb")
        return linalg.contract(linalg.Structure.of(c).cut(1e-16), "ijk",
                               sandwich, "iajb", "kab").mat

    def _omega_table(self, omega_coeffs):
        """omega(e_i^* e_j) as structure constants with one output, or with
        one output per omega of a stack (n_omega, d)."""
        d = self.parent.d
        return np.einsum("ijk,...k->ij...", self.prodstar,
                         np.asarray(omega_coeffs)).reshape(d, d, -1)

    def alpha_of(self, x):
        """Full coefficient family of alpha_U(x), a dense (d, total, total)."""
        d, total = self.parent.d, self.fock.total_dim
        _reserve(16 * d * total * total, "the coefficient family of alpha_U(x)")
        return self._alpha(x, self.parent.star_mult_nz).toarray().reshape(d, total, total)

    def averaged(self, omega_coeffs, x):
        """(omega (x) id) alpha_U(x) without materialising alpha_U."""
        total = self.fock.total_dim
        _reserve(16 * total * total, "(omega (x) id) alpha_U(x)")
        return self._alpha(x, self._omega_table(omega_coeffs)).toarray() \
            .reshape(total, total)

    def averaged_vector(self, omega_coeffs, x, vec):
        """[(omega (x) id) alpha_U(x)] vec through matrix-vector products."""
        # column j is F_j vec
        fv = linalg.contract(self.coef, "mjb", np.asarray(vec), "b", "mj")
        pairs = linalg.contract(self._left(x), "iam", fv, "mj", "iaj")
        table = linalg.Structure(self._omega_table(omega_coeffs)).cut(1e-16)
        return linalg.contract(table, "ijk", pairs, "iaj", "ka").dense()[0]

    def generator_intertwining_residual(self, zeta, omega_family):
        """(omega (x) id) alpha_U(s(zeta)) = s((omega (x) id)(U^*) zeta).

        The worst residual over the family.  One structure sum over the
        (d, d, n_omega) table forms every left side; the right sides are
        one rows-form family, as they share the pattern of s.
        """
        fock = self.fock
        g = self.parent
        k = fock.base_dim
        oms = np.asarray(omega_family, dtype=complex).reshape(-1, g.d)
        lhs = self._alpha(fock.s_operator(zeta), self._omega_table(oms))
        ustar = np.einsum("ki,iba->kab", g.star, np.conj(self.lifted.base.u_coef()))
        # (omega (x) id)(U^*) zeta, one vector-matrix product per omega
        moved = linalg.rowmul(oms, ustar.reshape(g.d, k * k)).reshape(-1, k, k) \
            @ np.asarray(zeta)
        diff = lhs - fock._s_rows(moved)
        # each row's entries in column order, as linalg.frob of that row
        # alone sums them
        diff.sum_duplicates()
        ends = diff.indptr
        return max((float(np.linalg.norm(diff.data[a:b])) for a, b in zip(ends, ends[1:])),
                   default=0.0)

    def vacuum_invariance_residual(self, words):
        """(id (x) omega_Omega) alpha_U(w) = omega_Omega(w) 1 on test words."""
        fock = self.fock
        g = self.parent
        worst = 0.0
        for ops in words:
            if 2 * len(ops) > fock.depth:
                raise DepthExceeded("test word too long for the truncation")
            x = fock.word_operator(ops)
            # omega_Omega reads entry (0, 0), column 0 of the rows form
            vals = self._alpha(x, g.star_mult_nz)[:, [0]].toarray()[:, 0]
            target = complex(x[0, 0]) * g.unit
            worst = max(worst, float(np.linalg.norm(vals - target)))
        return worst

    def multiplicativity_residual(self, ops):
        """alpha_U(w^2) vs alpha_U(w)^2 for a word w."""
        total = self.fock.total_dim
        g = self.parent
        x = self.fock.word_operator(ops)
        ax = _family(self._alpha(x, g.star_mult_nz), g.d, total, total)
        axx = self._alpha(x @ x, g.star_mult_nz)
        pairs = linalg.contract(ax, "iab", ax, "jbc", "iajc")
        prod = linalg.contract(g.mult_nz.cut(1e-16), "ijk", pairs, "iajc", "kac")
        return linalg.frob(axx - prod.mat)


def induced_action(lifted: LiftedRep) -> InducedAction:
    return InducedAction(lifted)


# ---------------------------------------------------------------------------
# asymptotic-invariance experiment and traciality
# ---------------------------------------------------------------------------

def asymptotic_invariance_experiment(fock: TruncatedFock, u: Corep,
                                     zetas, omega_coeffs):
    """Trace-zero, norm-one elements whose action defect matches the corep
    defect, exhibiting asymptotically invariant families.

    Per zeta (unit, J-real): reports tau(s(zeta)) (must vanish),
    ||s(zeta) Omega|| (must be 1), the corep defect
    ||(omega (x) id)(U^*) zeta - zeta|| and the action defect
    ||[(omega (x) id) alpha_U(s(zeta)) - s(zeta)] Omega||; the two defects
    agree through the generator intertwining identity.
    """
    lifted = lift_rep(fock, u)
    act = InducedAction(lifted)
    g = u.parent
    om = np.asarray(omega_coeffs, dtype=complex)
    ustar = np.einsum("ki,iba->kab", g.star, np.conj(u.u_coef()))
    u_om = np.tensordot(om, ustar, axes=([0], [0]))
    vac = fock.vacuum()
    rows = []
    for zeta in zetas:
        zeta = np.asarray(zeta, dtype=complex)
        if abs(np.linalg.norm(zeta) - 1.0) > 1e-9:
            raise AxiomViolation("zeta must be a unit vector")
        if np.linalg.norm(fock.apply_j(zeta) - zeta) > 1e-9:
            raise AxiomViolation("zeta must be J-real")
        s_op = fock.s_operator(zeta)
        trace = complex(vac.conj() @ s_op @ vac)
        gns_norm = float(np.linalg.norm(s_op @ vac))
        corep_defect = float(np.linalg.norm(u_om @ zeta - zeta))
        lhs_vec = act.averaged_vector(om, s_op, vac)
        action_defect = float(np.linalg.norm(lhs_vec - s_op @ vac))
        if abs(action_defect - corep_defect) > DEFECT_TOL:
            raise AxiomViolation(
                f"defect mismatch: action {action_defect:.3e} vs "
                f"corep {corep_defect:.3e}")
        rows.append({
            "trace": trace,
            "gns_norm": gns_norm,
            "corep_defect": corep_defect,
            "action_defect": action_defect,
        })
    return rows


def trace_check(fock: TruncatedFock, words):
    """max |omega_Omega(w1 w2) - omega_Omega(w2 w1)| over word pairs.

    Words are lists of selfadjoint field operators; the degree budget of
    each product must fit the truncation.  A word of length L takes the
    vacuum only to degrees <= L, so its vectors live on that prefix of the
    Fock space.  The vectors of all words of one length are built as one
    stack, each letter applied once per step to the words that carry it,
    and the values of all word pairs of two lengths come from one vdots.
    """
    if 2 * max(map(len, words), default=0) > fock.depth:
        raise DepthExceeded("word pair exceeds the depth budget")
    stacks = []                 # per length: (W Omega, W^* Omega) of its words
    for length in sorted({len(ops) for ops in words}):
        group = [ops for ops in words if len(ops) == length]
        n = int(fock.degree_offsets[length] + fock.degree_dims[length])
        letters = {id(op): op for ops in group for op in ops}
        cut = {key: op[:n, :n] for key, op in letters.items()}
        v = np.zeros((len(group), n), dtype=complex)
        v[:, 0] = 1.0
        w = v.copy()
        for step in range(length):
            # W Omega applies the word's letters last to first, W^* Omega
            # first to last
            v = _apply_letters(cut, [ops[length - 1 - step] for ops in group], v)
            w = _apply_letters(cut, [ops[step] for ops in group], w)
        stacks.append((v, w))
    worst = 0.0
    for v1, w1 in stacks:
        for v2, w2 in stacks:
            # <Omega, W1 W2 Omega> = <W1^* Omega, W2 Omega>; selfadjoint
            # letters make W^* Omega the reversed-word vector.  Past the
            # shorter of two prefixes one of the vectors vanishes.
            m = min(v1.shape[1], v2.shape[1])
            val1 = linalg.vdots(w1[:, None, :m], v2[None, :, :m])
            val2 = linalg.vdots(w2[None, :, :m], v1[:, None, :m])
            worst = max(worst, float(np.abs(val1 - val2).max()))
    return worst


def _apply_letters(cut, letters, vecs):
    """Row r of vecs times its letter letters[r], each distinct letter
    applied once to all the rows that carry it."""
    rows = {}
    for r, op in enumerate(letters):
        rows.setdefault(id(op), []).append(r)
    out = np.empty_like(vecs)
    for key, idx in rows.items():
        out[idx] = (cut[key] @ vecs[idx].T).T
    return out
