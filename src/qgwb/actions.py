"""Actions of finite quantum groups on finite-dimensional von Neumann algebras.

An action is an injective unital *-homomorphism alpha : N -> A (x) N
satisfying the action equation (Delta (x) id) alpha = (id (x) alpha) alpha,
where N is a block-diagonal matrix algebra.  With a faithful invariant
state theta, the canonical implementation U on L^2(N, theta) is defined by

    (omega (x) id)(U^*) Lambda(x) = Lambda((omega (x) id) alpha(x)),

is a corepresentation, implements alpha(x) = U^*(1 (x) x)U, and satisfies
the conjugation-symmetry condition with respect to the modular conjugation
of theta.  The fixed-point algebra carries the conditional expectation
E = (h (x) id) alpha with E(a) p = p a p.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from ._rng import CounterRNG
from .core import FiniteQG
from .coreps import Corep, check_condition_r, contragredient, corep_from_u_coef, \
    dual_matrix_units, kazhdan_gap, unitarily_equivalent
from .errors import (
    AxiomViolation,
    NoInvariantState,
    NotKac,
    NotUnitary,
    SchemaError,
)

DEFAULT_TOL = 1e-9


class Action:
    """alpha : N -> A (x) N with N = (+)_i M_{n_i} inside M_n."""

    def __init__(self, parent: FiniteQG, block_pattern, alpha_tensor,
                 invariant_state=None, tol: float = DEFAULT_TOL):
        self.parent = parent
        self.block_pattern = [int(b) for b in block_pattern]
        self.n = sum(self.block_pattern)
        self.alpha = np.asarray(alpha_tensor, dtype=complex)
        if self.alpha.shape != (parent.d, self.n, self.n, self.n, self.n):
            raise SchemaError(
                f"alpha tensor must be (d, n, n, n, n), got {self.alpha.shape}")
        self.tol = tol
        # matrix-unit basis of N (block-diagonal support only)
        self.basis = []
        off = 0
        for nb in self.block_pattern:
            for i in range(nb):
                for j in range(nb):
                    m = np.zeros((self.n, self.n), dtype=complex)
                    m[off + i, off + j] = 1.0
                    self.basis.append(m)
            off += nb
        self.dimN = len(self.basis)
        if invariant_state is not None:
            self.theta = np.asarray(invariant_state, dtype=complex)
        else:
            self.theta = find_invariant_state(self)
        self.validate()
        self._impl = None

    # -- evaluation -----------------------------------------------------------

    def apply(self, x):
        """alpha(x) as the coefficient family (alpha_i(x))_i."""
        return np.einsum("iabcd,cd->iab", self.alpha, np.asarray(x, dtype=complex))

    def leg(self, i, x):
        return np.einsum("abcd,cd->ab", self.alpha[i], np.asarray(x, dtype=complex))

    def theta_of(self, x):
        return complex(np.trace(self.theta @ np.asarray(x)))

    # -- validation ------------------------------------------------------------

    def validate(self):
        g = self.parent
        tol = self.tol
        n = self.n
        worst = 0.0
        # unital: alpha(1_N) = 1_A (x) 1_N
        ident = np.zeros((n, n), dtype=complex)
        off = 0
        for nb in self.block_pattern:
            ident[off:off + nb, off:off + nb] = np.eye(nb)
            off += nb
        au = self.apply(ident)
        target = np.einsum("i,ab->iab", g.unit, ident)
        worst = max(worst, float(np.linalg.norm(au - target)))
        # homomorphism and star on basis pairs
        images = np.array([self.apply(x) for x in self.basis])  # [y, i]: alpha_i(y)
        legs = images.transpose(1, 0, 2, 3)                      # [i, y]
        for x, ax in zip(self.basis, images):
            asx = self.apply(x.conj().T)
            star_route = np.einsum("ki,iab->kba", g.star, np.conj(ax))
            worst = max(worst, float(np.linalg.norm(asx - star_route)))
            # prods[k, y] = sum_{i,j} m[i,j,k] alpha_i(x) alpha_j(y), all y at once
            prods = linalg.structure_sum(g.mult, ax, legs)
            for q, y in enumerate(self.basis):
                worst = max(worst, float(np.linalg.norm(self.apply(x @ y) - prods[:, q])))
        # injectivity
        rows = self.alpha.reshape(g.d * n * n, n * n)
        cols = np.array([rows @ x.ravel() for x in self.basis]).T
        if linalg.matrix_rank(cols) != self.dimN:
            raise AxiomViolation("action is not injective")
        # action equation
        for ax in images:
            lhs = np.einsum("ijk,iab->jkab", g.comult, ax)
            rhs = np.array([[self.leg(k, ax[j]) for k in range(g.d)]
                            for j in range(g.d)])
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        # invariant faithful state
        worst = max(worst, float(np.linalg.norm(self.theta - self.theta.conj().T)))
        worst = max(worst, abs(np.trace(self.theta) - 1.0))
        vals = np.linalg.eigvalsh(0.5 * (self.theta + self.theta.conj().T))
        if vals[0] <= 1e-12:
            raise NoInvariantState("state is not faithful")
        for x, ax in zip(self.basis, images):
            lhs = np.array([np.trace(self.theta @ ax[i]) for i in range(g.d)])
            worst = max(worst, float(np.linalg.norm(lhs - self.theta_of(x) * g.unit)))
        if worst > tol:
            raise AxiomViolation(f"action residual {worst:.3e} > {tol:.1e}")
        return worst

    # -- GNS of theta -----------------------------------------------------------

    def gns_gram(self):
        gram = np.zeros((self.dimN, self.dimN), dtype=complex)
        for a, x in enumerate(self.basis):
            for b, y in enumerate(self.basis):
                gram[a, b] = np.trace(self.theta @ x.conj().T @ y)
        return gram

    def vec(self, x):
        """Coordinates of x in the matrix-unit basis of N."""
        out = np.zeros(self.dimN, dtype=complex)
        for q, e in enumerate(self.basis):
            idx = np.argwhere(np.abs(e) > 0.5)[0]
            out[q] = np.asarray(x)[idx[0], idx[1]]
        return out

    def unvec(self, coords):
        return sum(c * e for c, e in zip(np.asarray(coords), self.basis))

    def implement(self) -> "Implementation":
        if self._impl is None:
            self._impl = Implementation(self)
        return self._impl


class Implementation:
    """The canonical unitary implementation of an action."""

    def __init__(self, action: Action, tol: float = DEFAULT_TOL):
        self.action = action
        g = action.parent
        gram = action.gns_gram()
        self.c_mat = linalg.psd_sqrt(gram)
        self.c_inv = np.linalg.inv(self.c_mat)
        d, nn = g.d, action.dimN

        # raw matrices of the coefficient legs on Lambda-coordinates
        a_raw = np.zeros((d, nn, nn), dtype=complex)
        for q, x in enumerate(action.basis):
            ax = action.apply(x)
            for i in range(d):
                a_raw[i, :, q] = action.vec(ax[i])
        # U^* = sum_i e_i (x) K_i with K_i = Lambda alpha_i Lambda^{-1}
        ustar_coef = np.einsum("ab,ibc,cd->iad", self.c_mat, a_raw, self.c_inv)
        # U = (U^*)^*: coefficient k: sum_i star[k,i] K_i^dagger
        u_coef = np.einsum("ki,iba->kab", g.star, np.conj(ustar_coef))
        try:
            self.corep = corep_from_u_coef(g, u_coef)
        except AxiomViolation as exc:
            raise NotUnitary(f"implementation is not a corepresentation: {exc}")

        # left multiplication representation of N on L^2(N)
        lm = np.zeros((nn, nn, nn), dtype=complex)
        for q, x in enumerate(action.basis):
            for q2, y in enumerate(action.basis):
                lm[q, :, q2] = action.vec(x @ y)
        self.left_raw = lm

        # implementation identity alpha(x) = U^*(1 (x) x)U
        worst = 0.0
        for x in action.basis:
            rhs = linalg.structure_sum(g.mult, ustar_coef @ self.pi(x), u_coef)
            lhs = np.array([self.pi(m) for m in action.apply(x)])
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        if worst > tol:
            raise NotUnitary(f"implementation identity residual {worst:.3e}")
        self.implementation_residual = worst

        # modular conjugation of theta and the conjugation symmetry
        rho = action.theta
        rho_h = linalg.psd_sqrt(rho)
        rho_hi = np.linalg.inv(rho_h)
        targets = np.zeros((nn, nn), dtype=complex)
        for q, x in enumerate(action.basis):
            jx = rho_h @ x.conj().T @ rho_hi
            targets[q] = action.vec(jx)
        # J Lambda(x) = Lambda(rho^(1/2) x^* rho^(-1/2)); orthonormal coords
        jraw = targets.T  # conjugate-linear matrix on raw coords
        self.j_mat = self.c_mat @ jraw @ np.conj(self.c_inv)
        self.condition_r = check_condition_r(self.corep, self.j_mat)
        if not self.condition_r:
            raise NotUnitary("implementation fails the conjugation symmetry")

    def pi(self, x):
        """Left multiplication by x on L^2(N, theta), orthonormal coords."""
        coords = self.action.vec(x)
        raw = np.tensordot(coords, self.left_raw, axes=([0], [0]))
        return self.c_mat @ raw @ self.c_inv

    def lambda_vec(self, x):
        return self.c_mat @ self.action.vec(x)

    def unlambda(self, v):
        return self.action.unvec(self.c_inv @ np.asarray(v))


# ---------------------------------------------------------------------------
# invariant state search
# ---------------------------------------------------------------------------

def find_invariant_state(action: Action, tol: float = 1e-10):
    """Solve the invariance system and search its affine section for a
    strictly positive density matrix."""
    g = action.parent
    n = action.n
    rows = []
    # unknown rho (selfadjoint): equations Tr(rho alpha_i(x)) = Tr(rho x) unit_i
    for x in action.basis:
        ax = action.apply(x)
        for i in range(g.d):
            row = (ax[i].T - g.unit[i] * x.T).ravel()
            rows.append(row)
    system = np.array(rows)
    sols = linalg.null_space(system, tol=1e-12)
    candidates = []
    for v in sols:
        m = v.reshape(n, n)
        for h in (0.5 * (m + m.conj().T), 0.5j * (m - m.conj().T)):
            if np.linalg.norm(h) > 1e-12:
                candidates.append(h / np.linalg.norm(h))
    if not candidates:
        raise NoInvariantState("invariance system has no selfadjoint solution")
    # normalise and hunt for a strictly positive combination
    best, best_val = None, -np.inf
    rng = CounterRNG(3)
    trials = [np.ones(len(candidates))]
    for _ in range(200):
        trials.append(np.array([rng.normal() for _ in candidates]))
    for t in trials:
        m = sum(c * cand for c, cand in zip(t, candidates))
        tr = np.trace(m).real
        if abs(tr) < 1e-9:
            continue
        m = m / tr
        val = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if val > best_val:
            best_val, best = val, m
    if best is None or best_val <= tol:
        raise NoInvariantState(
            f"no faithful invariant state (best min eigenvalue {best_val:.3e})")
    return 0.5 * (best + best.conj().T)


# ---------------------------------------------------------------------------
# fixed points and conditional expectation
# ---------------------------------------------------------------------------

def fixed_point_expectation(action: Action, tol: float = DEFAULT_TOL):
    """Fixed-point algebra basis and the conditional expectation onto it.

    E = (h (x) id) alpha; verified idempotent, unital, positive on a PSD
    test family, compatible with the invariant projection (E(a)p = pap)
    and invariant under averaging the action legs.
    """
    g = action.parent
    nn = action.dimN
    # kernel of alpha(x) - 1 (x) x over x in N
    rows = []
    for i in range(g.d):
        block = np.zeros((nn, nn), dtype=complex)
        for q, x in enumerate(action.basis):
            block[:, q] = action.vec(action.leg(i, x)) - g.unit[i] * np.eye(nn)[:, q]
        rows.append(block)
    sols = linalg.null_space(np.vstack(rows))
    fixed_basis = [action.unvec(v) for v in sols]

    def expectation(x):
        ax = action.apply(x)
        return sum(g.haar[i] * ax[i] for i in range(g.d))

    impl = action.implement()
    p = impl.corep.invariant_projection()
    worst = 0.0
    ident = action.unvec(action.vec(np.eye(action.n)))
    worst = max(worst, float(np.linalg.norm(expectation(ident) - ident)))
    for x in action.basis:
        ex = expectation(x)
        worst = max(worst, float(np.linalg.norm(expectation(ex) - ex)))
        # E lands in the fixed-point algebra
        axe = action.apply(ex)
        target = np.einsum("i,ab->iab", g.unit, ex)
        worst = max(worst, float(np.linalg.norm(axe - target)))
        # E(a) p = p a p on L^2(N)
        worst = max(worst, float(np.linalg.norm(
            impl.pi(ex) @ p - p @ impl.pi(x) @ p)))
        # averaging invariance: E(alpha_i(a)) = unit_i E(a)
        for i in range(g.d):
            worst = max(worst, float(np.linalg.norm(
                expectation(action.leg(i, x)) - g.unit[i] * ex)))
    # positivity on a deterministic PSD family
    rng = CounterRNG(9)
    for _ in range(6):
        v = rng.complex_matrix(action.n, action.n)
        mask = action.unvec(action.vec(v))  # compress to N
        x = mask @ mask.conj().T
        ex = expectation(x)
        if linalg.min_eig(0.5 * (ex + ex.conj().T)) < -tol:
            raise AxiomViolation("expectation fails positivity")
    if worst > tol:
        raise AxiomViolation(f"expectation residual {worst:.3e}")
    return fixed_basis, expectation


# ---------------------------------------------------------------------------
# positive cone
# ---------------------------------------------------------------------------

def cone_member_test(rho_big, z_mat, tol: float = 1e-8) -> bool:
    """Dual test for membership of Lambda(z) in the standard cone.

    Lambda(z) pairs with the generating cone elements Lambda(v v^* rho^(-1/2))
    through v |-> v^* (rho^(1/2) z^*) v, so membership means that matrix is
    Hermitian PSD within tolerance.
    """
    k = linalg.psd_sqrt(rho_big) @ np.asarray(z_mat).conj().T
    scale = max(1.0, linalg.frob(k))
    if linalg.hermiticity_defect(k) > tol * scale:
        return False
    return linalg.min_eig(0.5 * (k + k.conj().T)) >= -tol


def cone_preservation_check(action: Action, xi_family, tol: float = 1e-8,
                            trials: int = 12) -> bool:
    """Check that the matrices ((omega_{xi_j, xi_i} (x) id)(U)) preserve the
    standard positive cone of M_m (x) N in M_m (x) L^2(N)."""
    g = action.parent
    if not g.kac:
        raise NotKac("cone preservation is stated for Kac parents")
    impl = action.implement()
    u_coef = impl.corep.u_coef()
    xis = [np.asarray(x, dtype=complex) for x in xi_family]
    m = len(xis)
    n = action.n
    # u[i][j] = (omega_{xi_j, xi_i} (x) id)(U), omega_{a,b}(T) = <a, T b>
    regs = [g.reg(np.eye(g.d)[k]) for k in range(g.d)]
    u = [[sum((xis[j].conj() @ regs[k] @ xis[i]) * u_coef[k] for k in range(g.d))
          for j in range(m)] for i in range(m)]
    rho_half_inv = np.linalg.inv(linalg.psd_sqrt(action.theta))
    rng = CounterRNG(23)
    for _ in range(trials):
        v = rng.complex_vector(m * action.dimN)
        # build X = v v^* inside M_m (x) N via the compressed coordinates
        blocks = [action.unvec(v[i * action.dimN:(i + 1) * action.dimN])
                  for i in range(m)]
        x_big = np.zeros((m * n, m * n), dtype=complex)
        for i in range(m):
            for j in range(m):
                x_big[i * n:(i + 1) * n, j * n:(j + 1) * n] = blocks[i] @ blocks[j].conj().T
        z = x_big @ np.kron(np.eye(m), rho_half_inv)
        if not cone_member_test(np.kron(np.eye(m), action.theta), z, tol):
            raise AxiomViolation("generated element fails the cone test")
        # apply u entrywise on the Lambda picture
        z_out = np.zeros_like(z)
        for i in range(m):
            for j in range(m):
                zij = z[i * n:(i + 1) * n, j * n:(j + 1) * n]
                w = impl.unlambda(u[i][j] @ impl.lambda_vec(zij))
                z_out[i * n:(i + 1) * n, j * n:(j + 1) * n] = w
        if not cone_member_test(np.kron(np.eye(m), action.theta), z_out, tol):
            return False
    return True


# ---------------------------------------------------------------------------
# B(K) actions from corepresentations
# ---------------------------------------------------------------------------

def action_from_corep(v: Corep) -> Action:
    """alpha(x) = V^*(1 (x) x)V on B(K) with the normalised trace."""
    g = v.parent
    k = v.space_dim
    vc = v.u_coef()
    # alpha_m(x) = sum (e_i^* e_j)[m] Vc_i^dag x Vc_j: the coefficient of
    # x[c,d] in entry [a,b] is (Vc_i^dag)[a,c] (Vc_j^T)[b,d], a kron entry
    alpha = linalg.structure_sum(g.star_mult, np.conj(vc.transpose(0, 2, 1)),
                                 vc.transpose(0, 2, 1), linalg.kron)
    alpha = alpha.reshape(g.d, k, k, k, k)
    theta = np.eye(k) / k
    return Action(g, [k], alpha, invariant_state=theta)


def v_vbar_implementation_check(v: Corep, tol: float = 1e-8):
    """The implementation of alpha(x) = V^*(1 (x) x)V is V-topbar-V^c.

    Builds both corepresentations on the (dim K)^2-dimensional space and
    finds a unitary intertwiner between them.
    """
    g = v.parent
    if not g.kac:
        raise NotKac("the comparison needs a Kac parent")
    action = action_from_corep(v)
    impl = action.implement()
    # coefficient i of V-topbar-V^c: sum_{j,k} m[j,k,i] Vc_k (x) Vcc_j
    direct = linalg.structure_sum(g.mult.transpose(1, 0, 2), v.u_coef(),
                                  contragredient(v).u_coef(), linalg.kron)
    direct_corep = corep_from_u_coef(g, direct)
    ok, resid = unitarily_equivalent(impl.corep, direct_corep, tol)
    return ok, resid


# ---------------------------------------------------------------------------
# spectral gap report
# ---------------------------------------------------------------------------

def spectral_gap_report(action: Action, tol: float = 1e-8):
    """rank p^U, the Kazhdan gap on the complement, and whether p^U lies in
    the image of the dual representation; asserts the indicators agree."""
    impl = action.implement()
    u = impl.corep
    p = u.invariant_projection()
    rank = int(round(np.trace(p).real))
    gap = kazhdan_gap(u, dual_matrix_units(action.parent))
    # membership of p in span{phi(e_q)}: least-squares projection
    basis = u.phis.reshape(action.parent.d, -1).T
    target = p.ravel()
    coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
    resid = float(np.linalg.norm(basis @ coeff - target))
    member = resid < tol
    consistent = member and (gap > 0 or rank == u.space_dim)
    if not consistent:
        raise AxiomViolation(
            f"spectral-gap indicators disagree: gap={gap}, member={member}")
    return {
        "rank_invariant": rank,
        "kazhdan_gap": float(gap) if np.isfinite(gap) else float("inf"),
        "projection_in_image": member,
        "projection_residual": resid,
        "consistent": True,
    }
