"""Corepresentation calculus.

A corep of a FiniteQG parent A is stored as a unital *-representation phi
of the dual block algebra (+)_a M_{n_a}, through the matrices
phi(e^a_{ij}) on the corep space.  The unitary U = sum_q u_q (x) phi(e_q)
is assembled on demand as the coefficient tensor Ucoef[i] in the basis of
A.  Dual-algebra elements are passed around as u-coordinate vectors; the
block form of a functional is exactly such a vector, so characters of A
become grouplike dual elements for free.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .core import DEFAULT_TOL, FiniteQG
from .errors import (
    AxiomViolation,
    EmptyQ,
    NotAState,
    NotInvolutive,
    NotKac,
    OracleMismatch,
    ParentMismatch,
)

EQUIVALENCE_TOL = 1e-8    # unitarily_equivalent: the accepted intertwiner residual
CONDITION_R_TOL = 1e-8    # check_condition_r: ||(R (x) j)(U) - U||


def named_residuals(res, tol, what):
    """The residual table res, after raising AxiomViolation naming, worst
    first, every identity of res whose residual exceeds tol."""
    bad = sorted((k for k, v in res.items() if v > tol), key=res.get, reverse=True)
    if bad:
        named = ", ".join(f"'{k}' {res[k]:.3e}" for k in bad)
        raise AxiomViolation(f"{what} identity residuals {named} > {tol:.1e}")
    return res


def _product_rows(rows, x):
    """Residual of x_p x_r = sum_s t[p,r,s] x_s, one row p (all r) at a time,
    from the entries (r, s, t[p,r,s]) of each row p of t."""
    for p, (r, s, w) in enumerate(rows):
        diff = x[p] @ x
        np.subtract.at(diff, r, w[:, None, None] * x[s])
        yield diff


class Corep:
    """Unitary corepresentation via its dual-side *-representation.

    Construction validates, and the residual table is kept as `residuals`.
    The derived constructors block_corep and direct_sum pass _bounds, a
    table of upper bounds on those residuals drawn from tables already
    checked; when every bound is within DEFAULT_TOL it stands in for the
    table and validation is skipped, otherwise validation runs as for any
    input.
    """

    def __init__(self, parent: FiniteQG, phis, *, _bounds=None):
        self.parent = parent
        self.phis = np.asarray(phis, dtype=complex)  # (d, N, N), index q
        if self.phis.ndim != 3 or self.phis.shape[0] != parent.d:
            raise AxiomViolation(f"phi data must be (d, N, N), got {self.phis.shape}")
        self.space_dim = self.phis.shape[1]
        if _bounds is not None and max(_bounds.values()) <= DEFAULT_TOL:
            self.residuals = _bounds
        else:
            self.residuals = self.validate()
        self.phis.flags.writeable = False

    # -- assembly -----------------------------------------------------------

    def phi(self, x):
        """phi(x) for a dual element given in u-coordinates."""
        return np.tensordot(np.asarray(x, dtype=complex), self.phis, axes=([0], [0]))

    def u_coef(self):
        """Coefficient tensor of U: U = sum_i e_i (x) u_coef[i]."""
        return np.tensordot(self.parent.B, self.phis, axes=([1], [0]))

    # -- validation -----------------------------------------------------------

    def validate(self):
        """Check the corep identities; returns the residual table.

        Raises AxiomViolation naming the failing identities: 'star' and
        'unital' (phi is a unital *-map), 'product' (phi is multiplicative),
        'corep' ((Delta (x) id)U = U_13 U_23) and 'unitary' (U^*U = 1).
        """
        g = self.parent
        dual = g.dual()
        phis = self.phis
        eye = np.eye(self.space_dim)
        res = {}
        # unital *-map on matrix units: phi(e_q)^* = phi(e_q^*), phi(1) = 1
        res["star"] = linalg.max_frob(np.conj(phis.transpose(0, 2, 1)) - phis[dual.star_perm])
        res["unital"] = linalg.frob(self.phi(dual.unit) - eye)
        # product: phi(e_q) phi(e_r) = sum_s M[q,r,s] phi(e_s), max over (q, r)
        rows = _product_rows(dual.product_nz.rows(), phis)
        res["product"] = max(linalg.max_frob(diff) for diff in rows)
        # corep identity on coefficients: U_a U_b = sum_i Delta[i,a,b] U_i;
        # the residual is the Frobenius norm over all (a, b)
        uc = self.u_coef()
        rows = _product_rows(g.comult_nz.permuted((1, 2, 0)).rows(), uc)
        res["corep"] = float(np.sqrt(sum(linalg.frob(diff) ** 2 for diff in rows)))
        # U^* U = 1: sum_{i,j} (e_i^* e_j)[k] U_i^dag U_j = unit_k 1
        acc = linalg.structure_sum(g.star_mult_nz, np.conj(uc.transpose(0, 2, 1)), uc)
        res["unitary"] = linalg.max_frob(acc - g.unit[:, None, None] * eye)
        return named_residuals(res, DEFAULT_TOL, "corep")

    # -- invariant vectors -----------------------------------------------------

    def invariant_projection(self, oracle_tol: float = 1e-8):
        """p = (h (x) id)(U), cross-checked against the joint eigenspace.

        The oracle computes ker{phi(e_q) - dual_counit(e_q) I} by brute
        force and compares the two orthogonal projections.
        """
        g = self.parent
        p = np.tensordot(g.haar, self.u_coef(), axes=([0], [0]))
        if (np.linalg.norm(p @ p - p) > DEFAULT_TOL or
                np.linalg.norm(p - p.conj().T) > DEFAULT_TOL):
            raise AxiomViolation("averaged operator is not an orthogonal projection")
        eps = g.dual().counit
        stack = np.vstack([self.phis[q] - eps[q] * np.eye(self.space_dim)
                           for q in range(g.d)])
        basis = linalg.null_space(stack)
        if basis:
            vs = np.array(basis)
            # orthonormalise for safety
            qmat, _ = np.linalg.qr(vs.T)
            p_oracle = qmat @ qmat.conj().T
        else:
            p_oracle = np.zeros_like(p)
        if np.linalg.norm(p - p_oracle) > oracle_tol:
            raise OracleMismatch(
                f"averaging and joint-eigenspace projections differ by "
                f"{np.linalg.norm(p - p_oracle):.3e}")
        return p

    def invariant_rank(self):
        p = self.invariant_projection()
        return int(round(np.trace(p).real))

    def defect(self, xi, family):
        """max over x in family of ||phi(x) xi - dual_counit(x) xi||."""
        xi = np.asarray(xi, dtype=complex)
        eps = self.parent.dual().counit
        out = 0.0
        for x in family:
            x = np.asarray(x, dtype=complex)
            e = complex(eps @ x)
            out = max(out, float(np.linalg.norm(self.phi(x) @ xi - e * xi)))
        return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def block_corep(parent: FiniteQG, alpha: int) -> Corep:
    """The canonical irreducible corep supported on block alpha.

    Its U is the irrep u^alpha itself, so its residuals are bounded by the
    parent's: 'corep' and 'unitary' are norms over the n^2 entries (i, j)
    whose largest residual the parent's irrep checks took, hence at most n
    times it, and the matrix units make the *-map identities exact.
    """
    n = parent.block_dims[alpha]
    off = parent.block_offsets[alpha]
    phis = np.zeros((parent.d, n, n), dtype=complex)
    phis[off:off + n * n] = np.eye(n * n).reshape(n * n, n, n)
    res = parent.residuals
    bounds = {"star": 0.0, "unital": 0.0, "product": 0.0,
              "corep": n * res["irrep_coproduct"], "unitary": n * res["irrep_unitary"]}
    return Corep(parent, phis, _bounds=bounds)


def trivial_corep(parent: FiniteQG, k: int = 1) -> Corep:
    return Corep(parent, parent.dual().counit[:, None, None] * np.eye(k))


def direct_sum(*coreps: Corep) -> Corep:
    """The block-diagonal sum.  Every residual of a block-diagonal phi is
    at most the root-sum-square of the summands' (equal for the summed
    'unital' and 'corep', a bound for the maxima over an index), so those
    bound its residuals."""
    parent = coreps[0].parent
    if any(c.parent is not parent for c in coreps):
        raise ParentMismatch("direct sum needs a common parent")
    n = sum(c.space_dim for c in coreps)
    phis = np.zeros((parent.d, n, n), dtype=complex)
    pos = 0
    for c in coreps:
        phis[:, pos:pos + c.space_dim, pos:pos + c.space_dim] = c.phis
        pos += c.space_dim
    bounds = {k: math.hypot(*(c.residuals[k] for c in coreps)) for k in coreps[0].residuals}
    return Corep(parent, phis, _bounds=bounds)


def regular_corep(parent: FiniteQG) -> Corep:
    """phi(x) = (+)_a (x^a (x) I_{n_a}) on C^(sum n_a^2) = C^d."""
    d = parent.d
    phis = np.zeros((d, d, d), dtype=complex)
    for a, (n, off) in enumerate(zip(parent.block_dims, parent.block_offsets)):
        for i in range(n):
            for j in range(n):
                # e_ij (x) 1: the identity in block (i, j) of the n x n grid
                phis[off + i * n + j, off + i * n:off + (i + 1) * n,
                     off + j * n:off + (j + 1) * n] = np.eye(n)
    return Corep(parent, phis)


# ---------------------------------------------------------------------------
# tensor product and contragredient
# ---------------------------------------------------------------------------

def tensor(u: Corep, v: Corep) -> Corep:
    """Tensor product corep on H_u (x) H_v.

    Primary route: phi = (phi_u (x) phi_v) o flip o dual_comult.  Verified
    against the direct leg product U_12 V_13 on the coefficient tensors.
    """
    if u.parent is not v.parent:
        raise ParentMismatch("tensor needs a common parent")
    g = u.parent
    # u_p u_r = sum_q P[p,r,q] u_q
    out = Corep(g, linalg.structure_sum(g.dual().P_nz, u.phis, v.phis, linalg.kron))
    # oracle: coefficient tensor of U_12 V_13
    direct = linalg.structure_sum(g.mult_nz, u.u_coef(), v.u_coef(), linalg.kron)
    if float(np.linalg.norm(direct - out.u_coef())) > DEFAULT_TOL:
        raise OracleMismatch("tensor legs and dual-coproduct routes disagree")
    return out


def contragredient(u: Corep) -> Corep:
    """U^c = (R (x) transpose) U on the conjugate space (Kac parents)."""
    g = u.parent
    if not g.kac:
        raise NotKac("contragredient implemented for Kac parents")
    uc = u.u_coef()
    # R = S on coefficients; transpose is entrywise in the chosen basis
    cc = np.einsum("ji,iab->jba", g.antipode, uc)
    return corep_from_u_coef(g, cc)


def corep_from_u_coef(parent: FiniteQG, u_coef) -> Corep:
    """Recover phi from a coefficient tensor via the basis change."""
    phis = np.tensordot(parent.Binv, np.asarray(u_coef, dtype=complex),
                        axes=([1], [0]))
    return Corep(parent, phis)


def intertwiners(u: Corep, v: Corep):
    """Basis of {T : phi_v(x) T = T phi_u(x) for all x}."""
    return linalg.solve_intertwiner(list(u.phis), list(v.phis))


def unitarily_equivalent(u: Corep, v: Corep):
    """Search the intertwiner space for a unitary; returns (bool, residual).

    A generic invertible intertwiner T yields a unitary one through its
    polar factor T (T^*T)^(-1/2), which still intertwines because T^*T
    commutes with the source representation.
    """
    if u.space_dim != v.space_dim:
        return False, np.inf
    basis = intertwiners(u, v)
    if not basis:
        return False, np.inf
    from ._rng import CounterRNG
    rng = CounterRNG(41)
    candidates = list(basis)
    for _ in range(8):
        candidates.append(sum(rng.complex_normal() * b for b in basis))
    best = np.inf
    n = u.space_dim
    for t in candidates:
        s = np.linalg.svd(t, compute_uv=False)
        if s[0] < 1e-12 or s[-1] < 1e-9 * s[0]:
            continue
        w = t @ np.linalg.inv(linalg.psd_sqrt(t.conj().T @ t))
        resid = float(np.linalg.norm(w.conj().T @ w - np.eye(n)))
        # one norm call per q: the residual is reported, and a batched norm
        # would sum in another order
        resid = max(resid, float(max(map(np.linalg.norm, v.phis @ w - w @ u.phis))))
        best = min(best, resid)
        if best <= EQUIVALENCE_TOL:
            return True, best
    return False, best


# ---------------------------------------------------------------------------
# spectral quantities
# ---------------------------------------------------------------------------

def kazhdan_gap(u: Corep, q_elements):
    """min over unit xi orthogonal to the invariant subspace of
    max_{x in Q} ||phi(x) xi - dual_counit(x) xi||.

    Computed as the square root of the smallest eigenvalue of
    sum_x (phi(x) - eps(x))^* (phi(x) - eps(x)) compressed to the
    orthocomplement of the invariant vectors; +inf when that space is 0.
    """
    q_elements = list(q_elements)
    if not q_elements:
        raise EmptyQ("kazhdan_gap needs a non-empty Q")
    g = u.parent
    eps = g.dual().counit
    p = u.invariant_projection()
    n = u.space_dim
    comp = linalg.null_space(p)  # orthocomplement basis (rows)
    if not comp:
        return np.inf
    w = np.array(comp).T  # (n, m) isometry onto the complement
    acc = np.zeros((w.shape[1], w.shape[1]), dtype=complex)
    for x in q_elements:
        x = np.asarray(x, dtype=complex)
        dx = u.phi(x) - complex(eps @ x) * np.eye(n)
        dxw = dx @ w
        acc += dxw.conj().T @ dxw
    lam = linalg.min_eig(acc)
    return float(np.sqrt(max(lam, 0.0)))


def dual_matrix_units(parent: FiniteQG):
    """All matrix units of the dual block algebra, as u-coordinate vectors."""
    return [np.eye(parent.d)[q] for q in range(parent.d)]


def is_weakly_mixing(u: Corep) -> bool:
    """No invariant vectors in U (x) U^c (Kac parents)."""
    if not u.parent.kac:
        raise NotKac("weak mixing test implemented for Kac parents")
    return tensor(u, contragredient(u)).invariant_rank() == 0


# ---------------------------------------------------------------------------
# GNS construction and condition-R
# ---------------------------------------------------------------------------

def gns(parent: FiniteQG, dual_state):
    """GNS corep of a state on the dual block algebra.

    dual_state: u-coordinate vector w with w_q = mu(e_q); positivity means
    every block of w is PSD.  Returns (corep, cyclic vector Omega, J) where
    J realises the conjugation of an R-hat-invariant state (else None).
    """
    g = parent
    w = np.asarray(dual_state, dtype=complex).reshape(g.d)
    blocks = g.blocks_of(w)
    for b in blocks:
        if not linalg.psd_check(b, 1e-9):
            raise NotAState("dual functional is not positive")
    if abs(sum(np.trace(b) for b in blocks) - 1.0) > 1e-9:
        raise NotAState("dual functional is not normalised")

    d = g.d
    gram = np.zeros((d, d), dtype=complex)
    for a, (n, off) in enumerate(zip(g.block_dims, g.block_offsets)):
        for i in range(n):
            # <e_ij, e_kl> = delta_ik w^a_{jl}
            span = slice(off + i * n, off + (i + 1) * n)
            gram[span, span] = blocks[a]
    f = linalg.psd_factor_vectors(gram)  # rows = Lambda(e_q)
    r = f.shape[1]
    pinv_ft = np.linalg.pinv(f.T)

    phis = np.zeros((d, r, r), dtype=complex)
    for p, (q, s, _) in enumerate(g.dual().product_nz.rows()):
        fx = np.zeros((d, r), dtype=complex)                # rows Lambda(e_p e_q):
        fx[q] = f[s]                                       # e_p e_q = e_s
        phis[p] = fx.T @ pinv_ft
    corep = Corep(g, phis)

    # cyclic vector: Lambda(1) with 1 = sum of diagonal matrix units
    omega = g.dual().unit @ f
    # state recovery check
    for q in range(d):
        val = omega.conj() @ phis[q] @ omega
        if abs(val - w[q]) > DEFAULT_TOL:
            raise OracleMismatch(f"GNS state mismatch at unit {q}: {abs(val - w[q]):.3e}")

    j_mat = None
    dual = g.dual()
    rhat = dual.antipode                    # Kac: R-hat = S-hat
    perm = dual.star_perm
    # R-hat invariance: mu(Rhat(x)) = mu(x) on the basis
    rw = rhat.T @ w
    if np.max(np.abs(rw - w)) <= 1e-9:
        # J Lambda(x) = Lambda(Rhat(x^*)), antiunitary involution
        targets = np.zeros((d, r), dtype=complex)
        for q in range(d):
            coords = rhat[:, perm[q]]
            targets[q] = coords @ f
        j_mat = targets.T @ np.linalg.pinv(np.conj(f).T)
        if np.linalg.norm(j_mat @ np.conj(j_mat) - np.eye(r)) > 1e-8:
            raise NotInvolutive("constructed conjugation is not involutive")
        if not check_condition_r(corep, j_mat):
            raise OracleMismatch("GNS of an invariant state fails condition R")
    return corep, omega, j_mat


def check_condition_r(u: Corep, j_conj) -> bool:
    """(R (x) j)(U) = U for j(x) = J x^* J, with J xi = j_conj conj(xi)."""
    j_conj = np.asarray(j_conj, dtype=complex)
    if np.linalg.norm(j_conj @ np.conj(j_conj) - np.eye(u.space_dim)) > 1e-9:
        raise NotInvolutive("candidate conjugation is not an involution")
    g = u.parent
    uc = u.u_coef()
    # j(x) = J x^T conj(J) as a matrix identity
    jx = np.einsum("ab,ibc,cd->iad", j_conj, np.transpose(uc, (0, 2, 1)),
                   np.conj(j_conj))
    lhs = np.tensordot(g.antipode, jx, axes=([1], [0]))
    return float(np.linalg.norm(lhs - uc)) <= CONDITION_R_TOL
