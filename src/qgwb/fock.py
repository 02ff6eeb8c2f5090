"""Truncated full Fock space and the induced actions on its operator algebra.

The Fock space over K = C^k truncated at depth N is
(+)_{n=0}^{N} K^(x n), with the vacuum in degree 0.  Creation is cut hard
at the top degree; every operation that could leak past the cutoff carries
a degree budget and raises DepthExceeded instead of silently truncating.
The field operators are s(zeta) = ell(zeta) + ell(T zeta)^* for a
conjugate-linear involution T = J Q^(1/2); Q = I gives the tracial
(free-group-factor) case used by the asymptotic-invariance experiments.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .coreps import Corep
from .errors import (
    AxiomViolation,
    CompatibilityFailed,
    DepthExceeded,
    NotTracial,
    SchemaError,
)

TOTAL_DIM_CAP = 120_000


class TruncatedFock:
    """(+)_{n<=N} K^(x n) with an involution T = J Q^(1/2) on K."""

    def __init__(self, base_dim: int, depth: int, j_conj=None, q_mat=None,
                 cap: int = TOTAL_DIM_CAP):
        self.base_dim = int(base_dim)
        self.depth = int(depth)
        if self.base_dim < 1 or self.depth < 1:
            raise SchemaError("base_dim and depth must be >= 1")
        k = self.base_dim
        dims = [k ** n for n in range(self.depth + 1)]
        self.degree_dims = dims
        self.degree_offsets = np.cumsum([0] + dims)[:-1]
        self.total_dim = int(sum(dims))
        if self.total_dim > cap:
            raise DepthExceeded(
                f"total dimension {self.total_dim} exceeds cap {cap}")
        self.j_conj = np.eye(k, dtype=complex) if j_conj is None else \
            np.asarray(j_conj, dtype=complex)
        self.q_mat = np.eye(k, dtype=complex) if q_mat is None else \
            np.asarray(q_mat, dtype=complex)
        if np.linalg.norm(self.j_conj @ np.conj(self.j_conj) - np.eye(k)) > 1e-10:
            raise AxiomViolation("J is not an involutive anti-unitary")
        if not linalg.psd_check(self.q_mat, 0.0) or \
                np.linalg.eigvalsh(0.5 * (self.q_mat + self.q_mat.conj().T))[0] <= 0:
            raise AxiomViolation("Q must be positive definite")
        # T xi = Jm conj(Q^(1/2)) conj(xi)
        self.t_conj = self.j_conj @ np.conj(linalg.psd_sqrt(self.q_mat))
        if np.linalg.norm(self.t_conj @ np.conj(self.t_conj) - np.eye(k)) > 1e-9:
            raise AxiomViolation("T^2 is not the identity on K")

    @property
    def tracial(self):
        return bool(np.linalg.norm(self.q_mat - np.eye(self.base_dim)) <= 1e-12)

    def apply_t(self, zeta):
        return self.t_conj @ np.conj(np.asarray(zeta, dtype=complex))

    def apply_j(self, zeta):
        return self.j_conj @ np.conj(np.asarray(zeta, dtype=complex))

    # -- basis bookkeeping ---------------------------------------------------

    def vacuum(self):
        v = np.zeros(self.total_dim, dtype=complex)
        v[0] = 1.0
        return v

    # -- operators --------------------------------------------------------------

    def creation(self, zeta):
        """ell(zeta): degree n -> n+1, hard cut at the top."""
        zeta = np.asarray(zeta, dtype=complex).reshape(self.base_dim)
        k = self.base_dim
        op = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for n in range(self.depth):
            src, dst = self.degree_offsets[n], self.degree_offsets[n + 1]
            dim = self.degree_dims[n]
            for letter in range(k):
                rows = dst + letter * dim + np.arange(dim)
                op[rows, src + np.arange(dim)] += zeta[letter]
        return op

    def s_operator(self, zeta):
        """s(zeta) = ell(zeta) + ell(T zeta)^*; selfadjoint iff T zeta = zeta."""
        l1 = self.creation(zeta)
        l2 = self.creation(self.apply_t(zeta))
        return l1 + l2.conj().T

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
        out = np.eye(self.total_dim, dtype=complex)
        for op in ops:
            out = out @ op
        return out


# ---------------------------------------------------------------------------
# lifted corepresentation
# ---------------------------------------------------------------------------

class LiftedRep:
    """F(U) = (+)_n U^(topbar n), degree-block-diagonal."""

    def __init__(self, fock: TruncatedFock, base: Corep, blocks, coef):
        self.fock = fock
        self.base = base
        self.degree_blocks = blocks      # list of (d, k^n, k^n) coefficient tensors
        self.coef = coef                 # (d, total, total)
        self.parent = base.parent

    def corep(self):
        """The lifted corep object, validated like every corep."""
        return Corep(self.parent, np.tensordot(
            self.parent.Binv, self.coef, axes=([1], [0])))


def compatibility_residual(fock: TruncatedFock, u: Corep) -> float:
    """Residual of (omega (x) id)(U^*) T <= T (omega-bar (x) id)(U^*)."""
    g = u.parent
    uc = u.u_coef()
    # U^* = sum_k e_k (x) W_k
    w = np.einsum("ki,iba->kab", g.star, np.conj(uc))
    worst = 0.0
    tm = fock.t_conj
    for i in range(g.d):
        lhs = w[i] @ tm
        rhs = tm @ np.conj(np.tensordot(g.star[i], w, axes=([0], [0])))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def lift_rep(fock: TruncatedFock, u: Corep, tol: float = 1e-9) -> LiftedRep:
    """Lift a corep on K to the truncated Fock space, degreewise.

    Requires the compatibility of U with the involution T (for Kac parents
    and Q = I this is the conjugation symmetry).  The degree-n block is the
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
    d = g.d
    uc = u.u_coef()

    def fold_new_first(prev):
        # U topbar prev: sum_{k,j} m[k,j,p] U[j] (x) prev[k], the new K leg
        # in front (lowest leg index, applied last)
        t1 = np.tensordot(g.mult, uc, axes=([1], [0]))      # (k, p, a, b)
        dp = prev.shape[1]
        k_dim = fock.base_dim
        out = np.tensordot(t1, prev, axes=([0], [0]))       # (p, a, b, c, dd)
        out = out.transpose(0, 1, 3, 2, 4).reshape(d, k_dim * dp, k_dim * dp)
        return np.ascontiguousarray(out)

    def fold_new_last(prev):
        # peel the highest leg instead: sum_{j,k} m[j,k,p] prev[k] (x) U[j]
        t1 = np.tensordot(np.transpose(g.mult, (1, 0, 2)), uc,
                          axes=([1], [0]))                  # (k, p, a, b)
        dp = prev.shape[1]
        k_dim = fock.base_dim
        out = np.tensordot(prev, t1, axes=([0], [0]))       # (c, dd, p, a, b)
        out = out.transpose(2, 0, 3, 1, 4).reshape(d, dp * k_dim, dp * k_dim)
        return np.ascontiguousarray(out)

    blocks = [np.einsum("i,ab->iab", g.unit, np.eye(1, dtype=complex))]
    alt = blocks[0]
    for n in range(1, fock.depth + 1):
        prev = blocks[-1]
        cur = fold_new_first(prev)
        alt = fold_new_last(alt)
        # two independent groupings of the same leg product
        if float(np.linalg.norm(cur - alt)) > tol:
            raise AxiomViolation("topbar power folds disagree")
        blocks.append(cur)
    coef = np.zeros((d, fock.total_dim, fock.total_dim), dtype=complex)
    for n, b in enumerate(blocks):
        o = fock.degree_offsets[n]
        dim = fock.degree_dims[n]
        coef[:, o:o + dim, o:o + dim] = b
    return LiftedRep(fock, u, blocks, coef)


# ---------------------------------------------------------------------------
# induced action on the generated algebra
# ---------------------------------------------------------------------------

class InducedAction:
    """alpha_U(x) = F(U)^*(1 (x) x)F(U) on the truncated algebra."""

    def __init__(self, lifted: LiftedRep):
        self.lifted = lifted
        self.fock = lifted.fock
        g = lifted.parent
        self.parent = g
        self.coef = lifted.coef
        # products e_i^* e_j expressed over the basis
        self.prodstar = g.star_mult

    def alpha_of(self, x):
        """Full coefficient family of alpha_U(x); cost d^2 sandwiches."""
        return linalg.structure_sum(self.prodstar, self.coef, self.coef,
                                    lambda a, b: (a.conj().T @ x) @ b)

    def averaged(self, omega_coeffs, x):
        """(omega (x) id) alpha_U(x) without materialising alpha_U."""
        g = self.parent
        d = g.d
        x = np.asarray(x, dtype=complex)
        # omega(e_i^* e_j) table
        table = np.einsum("ijk,k->ij", self.prodstar, np.asarray(omega_coeffs))
        out = np.zeros_like(x)
        for i in range(d):
            acc = np.zeros_like(x)
            for j in range(d):
                if abs(table[i, j]) > 1e-16:
                    acc += table[i, j] * self.coef[j]
            out += self.coef[i].conj().T @ (x @ acc)
        return out

    def averaged_vector(self, omega_coeffs, x, vec):
        """[(omega (x) id) alpha_U(x)] vec through matrix-vector products."""
        g = self.parent
        d = g.d
        table = np.einsum("ijk,k->ij", self.prodstar, np.asarray(omega_coeffs))
        m_j = [x @ (self.coef[j] @ vec) for j in range(d)]
        out = np.zeros(self.fock.total_dim, dtype=complex)
        for i in range(d):
            inner = np.zeros(self.fock.total_dim, dtype=complex)
            for j in range(d):
                if abs(table[i, j]) > 1e-16:
                    inner += table[i, j] * m_j[j]
            out += self.coef[i].conj().T @ inner
        return out

    def generator_intertwining_residual(self, zeta, omega_family):
        """(omega (x) id) alpha_U(s(zeta)) = s((omega (x) id)(U^*) zeta)."""
        fock = self.fock
        s_op = fock.s_operator(zeta)
        g = self.parent
        ustar = np.einsum("ki,iba->kab", g.star, np.conj(self.lifted.base.u_coef()))
        worst = 0.0
        for om in omega_family:
            om = np.asarray(om, dtype=complex)
            lhs = self.averaged(om, s_op)
            moved = np.tensordot(om, ustar, axes=([0], [0])) @ np.asarray(zeta)
            rhs = fock.s_operator(moved)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst

    def vacuum_invariance_residual(self, words):
        """(id (x) omega_Omega) alpha_U(w) = omega_Omega(w) 1 on test words."""
        fock = self.fock
        vac = fock.vacuum()
        g = self.parent
        worst = 0.0
        for ops in words:
            if 2 * len(ops) > fock.depth:
                raise DepthExceeded("test word too long for the truncation")
            x = fock.word_operator(ops)
            ax = self.alpha_of(x)
            vals = np.array([vac.conj() @ ax[i] @ vac for i in range(g.d)])
            target = complex(vac.conj() @ x @ vac) * g.unit
            worst = max(worst, float(np.linalg.norm(vals - target)))
        return worst

    def multiplicativity_residual(self, ops):
        """alpha_U(w^2) vs alpha_U(w)^2 for a word w."""
        x = self.fock.word_operator(ops)
        ax = self.alpha_of(x)
        axx = self.alpha_of(x @ x)
        prod = linalg.structure_sum(self.parent.mult, ax, ax)
        return float(np.linalg.norm(axx - prod))

    def action_equation_residual(self, x):
        """(Delta (x) id) alpha_U(x) = (id (x) alpha_U) alpha_U(x)."""
        g = self.parent
        ax = self.alpha_of(np.asarray(x, dtype=complex))
        worst = 0.0
        for j in range(g.d):
            rhs = self.alpha_of(ax[j])
            lhs = np.tensordot(g.comult[:, j, :], ax, axes=([0], [0]))
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst


def induced_action(lifted: LiftedRep) -> InducedAction:
    return InducedAction(lifted)


# ---------------------------------------------------------------------------
# asymptotic-invariance experiment and traciality
# ---------------------------------------------------------------------------

def asymptotic_invariance_experiment(fock: TruncatedFock, u: Corep,
                                     zetas, omega_coeffs, tol: float = 1e-9):
    """Trace-zero, norm-one elements whose action defect matches the corep
    defect, exhibiting asymptotically invariant families.

    Per zeta (unit, J-real): reports tau(s(zeta)) (must vanish),
    ||s(zeta) Omega|| (must be 1), the corep defect
    ||(omega (x) id)(U^*) zeta - zeta|| and the action defect
    ||[(omega (x) id) alpha_U(s(zeta)) - s(zeta)] Omega||; the two defects
    agree through the generator intertwining identity.
    """
    if not fock.tracial:
        raise NotTracial("the experiment needs Q = I")
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
        if abs(action_defect - corep_defect) > tol:
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
    each product must fit the truncation.
    """
    if not fock.tracial:
        raise NotTracial("vacuum traciality needs Q = I")
    vac = fock.vacuum()
    vecs = []
    for ops in words:
        for other in words:
            if len(ops) + len(other) > fock.depth:
                raise DepthExceeded("word pair exceeds the depth budget")
    apply_cache = []
    for ops in words:
        v = vac.copy()
        for op in reversed(ops):
            v = op @ v
        w = vac.copy()
        for op in ops:
            w = op @ w          # reversed word applied: w = op_1 ... acting
        apply_cache.append((v, w))
    worst = 0.0
    for (v1, w1) in apply_cache:
        for (v2, w2) in apply_cache:
            # <Omega, W1 W2 Omega> = <W1^* Omega, W2 Omega>; selfadjoint
            # letters make W^* Omega the reversed-word vector
            val1 = complex(w1.conj() @ v2)
            val2 = complex(w2.conj() @ v1)
            worst = max(worst, abs(val1 - val2))
    return worst
