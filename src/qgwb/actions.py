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

N is stored as one index table: its matrix unit e_q has its single 1 at
(rows[q], cols[q]).  Coordinates, the GNS gram of theta, the images
alpha_i(e_q), the raw coefficient legs of U, left multiplication and the
modular conjugation are gathers through that table, so every identity is
checked on all matrix units at once.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from ._rng import CounterRNG
from .core import DEFAULT_TOL, FiniteQG
from .coreps import Corep, check_condition_r, contragredient, corep_from_u_coef, \
    dual_matrix_units, kazhdan_gap, named_residuals, unitarily_equivalent
from .errors import (
    AxiomViolation,
    NoInvariantState,
    NotKac,
    NotUnitary,
    SchemaError,
)

FAITHFUL_TOL = 1e-10      # find_invariant_state: the least accepted min eigenvalue
CONE_TOL = 1e-8           # cone_member_test: Hermiticity and PSD slack
CONE_TRIALS = 12          # cone_preservation_check: generated elements tested
MEMBER_TOL = 1e-8         # spectral_gap_report: least-squares residual of p in the image


class Action:
    """alpha : N -> A (x) N with N = (+)_i M_{n_i} inside M_n."""

    def __init__(self, parent: FiniteQG, block_pattern, alpha_tensor,
                 invariant_state=None):
        self.parent = parent
        self.block_pattern = [int(b) for b in block_pattern]
        self.n = sum(self.block_pattern)
        self.alpha = np.asarray(alpha_tensor, dtype=complex)
        if self.alpha.shape != (parent.d, self.n, self.n, self.n, self.n):
            raise SchemaError(
                f"alpha tensor must be (d, n, n, n, n), got {self.alpha.shape}")
        # the matrix units of N, block by block in row-major order: the
        # block-diagonal support of M_n
        block = np.repeat(np.arange(len(self.block_pattern)), self.block_pattern)
        self.rows, self.cols = np.nonzero(block[:, None] == block[None, :])
        self.dimN = len(self.rows)
        self.basis = self.unvec(np.eye(self.dimN))
        self.basis.flags.writeable = False
        # images[i, a, b, q] = alpha_i(e_q)[a, b]
        self.images = self.alpha[..., self.rows, self.cols]
        if invariant_state is not None:
            self.theta = np.asarray(invariant_state, dtype=complex)
        else:
            self.theta = find_invariant_state(self)
        self.validate()
        self._impl = None

    # -- evaluation -----------------------------------------------------------

    def apply(self, x):
        """alpha(x) as the coefficient family (alpha_i(x))_i; x may be a stack."""
        return np.einsum("iabcd,...cd->...iab", self.alpha, np.asarray(x, dtype=complex))

    def leg(self, i, x):
        return np.einsum("abcd,cd->ab", self.alpha[i], np.asarray(x, dtype=complex))

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Check the action identities on the matrix units; returns the
        residual table.

        Raises AxiomViolation naming the failing identities: 'unital'
        (alpha(1) = 1 (x) 1), 'star' (alpha(x^*) = alpha(x)^*),
        'homomorphism' (alpha(xy) = alpha(x) alpha(y)), 'action_equation'
        ((Delta (x) id) alpha = (id (x) alpha) alpha) and 'invariant_state'
        (theta is a selfadjoint, trace-one, invariant density).  A
        non-injective action raises AxiomViolation, a non-faithful state
        NoInvariantState.
        """
        g = self.parent
        rows, cols = self.rows, self.cols
        images = np.moveaxis(self.images, -1, 0)            # [q, i]
        res = {}
        one = self.unvec(rows == cols)
        res["unital"] = linalg.frob(self.apply(one) - np.einsum("i,ab->iab", g.unit, one))
        # alpha(e_q^*), with e_q^* = e_(c_q, r_q), against alpha(e_q)^*
        star_images = np.moveaxis(self.alpha[..., cols, rows], -1, 0)
        res["star"] = linalg.max_frob(
            star_images - np.einsum("ki,qiab->qkba", g.star, np.conj(images)))
        # alpha(e_q) alpha(e_y) for every pair, against e_q e_y = [c_q == r_y] e_(r_q, c_y)
        legs = np.moveaxis(self.images, -1, 1)               # [i, q]
        prods = linalg.structure_sum(g.mult_nz, legs[:, :, None], legs[:, None])  # [k, q, y]
        composable = cols[:, None] == rows[None, :]
        target = composable * self.alpha[..., rows[:, None], cols[None, :]]
        res["homomorphism"] = linalg.max_frob(
            np.moveaxis(prods, 0, 2) - np.moveaxis(target, (3, 4), (0, 1)), lead=2)
        if linalg.matrix_rank(self.images.reshape(-1, self.dimN)) != self.dimN:
            raise AxiomViolation("action is not injective")
        lhs = np.einsum("ijk,qiab->qjkab", g.comult, images)
        rhs = np.einsum("kabcd,qjcd->qjkab", self.alpha, images)
        res["action_equation"] = linalg.max_frob(lhs - rhs)
        theta = self.theta
        vals = np.linalg.eigvalsh(0.5 * (theta + theta.conj().T))
        if vals[0] <= 1e-12:
            raise NoInvariantState("state is not faithful")
        # theta(alpha_i(e_q)) = theta(e_q) unit_i, with theta(e_q) = theta[c_q, r_q]
        invariance = (np.einsum("ab,qiba->qi", theta, images)
                      - theta[cols, rows][:, None] * g.unit)
        res["invariant_state"] = max(linalg.frob(theta - theta.conj().T),
                                     abs(np.trace(theta) - 1.0), linalg.max_frob(invariance))
        return named_residuals(res, DEFAULT_TOL, "action")

    # -- GNS of theta -----------------------------------------------------------

    def gns_gram(self):
        """theta(e_a^* e_b) = [r_a == r_b] theta[c_b, c_a]."""
        same_row = self.rows[:, None] == self.rows[None, :]
        return np.where(same_row, self.theta[self.cols[None, :], self.cols[:, None]], 0)

    def vec(self, x):
        """Coordinates of x (or of each matrix of a stack) in the matrix-unit
        basis of N."""
        return np.asarray(x, dtype=complex)[..., self.rows, self.cols]

    def unvec(self, coords):
        """The element of N (a stack, for stacked coords) with these coordinates."""
        coords = np.asarray(coords)
        out = np.zeros(coords.shape[:-1] + (self.n, self.n), dtype=complex)
        out[..., self.rows, self.cols] = coords
        return out

    def implement(self) -> "Implementation":
        if self._impl is None:
            self._impl = Implementation(self)
        return self._impl


class Implementation:
    """The canonical unitary implementation of an action."""

    def __init__(self, action: Action):
        self.action = action
        g = action.parent
        rows, cols = action.rows, action.cols
        self.c_mat = linalg.psd_sqrt(action.gns_gram())
        self.c_inv = np.linalg.inv(self.c_mat)

        # raw matrices of the coefficient legs on Lambda-coordinates:
        # a_raw[i, p, q] = vec(alpha_i(e_q))[p]
        self.a_raw = action.images[:, rows, cols]
        # U^* = sum_i e_i (x) K_i with K_i = Lambda alpha_i Lambda^{-1}
        ustar_coef = np.einsum("ab,ibc,cd->iad", self.c_mat, self.a_raw, self.c_inv)
        # U = (U^*)^*: coefficient k: sum_i star[k,i] K_i^dagger
        u_coef = np.einsum("ki,iba->kab", g.star, np.conj(ustar_coef))
        try:
            self.corep = corep_from_u_coef(g, u_coef)
        except AxiomViolation as exc:
            raise NotUnitary(f"implementation is not a corepresentation: {exc}")

        # left multiplication representation of N on L^2(N):
        # left_raw[q, p, y] = vec(e_q e_y)[p], with e_q e_y = [c_q == r_y] e_(r_q, c_y)
        self.left_raw = ((cols[:, None, None] == rows[None, None, :])
                         & (rows[:, None, None] == rows[None, :, None])
                         & (cols[None, :, None] == cols[None, None, :])).astype(complex)

        # implementation identity alpha(x) = U^*(1 (x) x)U on every matrix unit;
        # one norm call per unit: the residual is reported, and a batched norm
        # would sum in another order
        pis = self.pi(action.basis)
        rhs = linalg.structure_sum(g.mult_nz, ustar_coef[:, None] @ pis, u_coef[:, None])
        lhs = self.pi(np.moveaxis(action.images, -1, 0))
        diff = lhs - np.moveaxis(rhs, 0, 1)
        worst = max((float(np.linalg.norm(r)) for r in diff), default=0.0)
        if worst > DEFAULT_TOL:
            raise NotUnitary(f"implementation identity residual {worst:.3e}")
        self.implementation_residual = worst

        # modular conjugation of theta and the conjugation symmetry:
        # J Lambda(x) = Lambda(rho^(1/2) x^* rho^(-1/2)), and e_q^* = e_(c_q, r_q)
        # makes target q the outer product of column c_q of rho^(1/2) with
        # row r_q of rho^(-1/2)
        rho_h = linalg.psd_sqrt(action.theta)
        rho_hi = np.linalg.inv(rho_h)
        targets = rho_h[rows[None, :], cols[:, None]] * rho_hi[rows[:, None], cols[None, :]]
        jraw = targets.T  # conjugate-linear matrix on raw coords
        self.j_mat = self.c_mat @ jraw @ np.conj(self.c_inv)
        self.condition_r = check_condition_r(self.corep, self.j_mat)
        if not self.condition_r:
            raise NotUnitary("implementation fails the conjugation symmetry")

    def pi(self, x):
        """Left multiplication by x (or by each matrix of a stack) on
        L^2(N, theta), orthonormal coords."""
        raw = np.tensordot(self.action.vec(x), self.left_raw, axes=([-1], [0]))
        return self.c_mat @ raw @ self.c_inv


# ---------------------------------------------------------------------------
# invariant state search
# ---------------------------------------------------------------------------

def find_invariant_state(action: Action):
    """Solve the invariance system and search its affine section for a
    strictly positive density matrix."""
    g = action.parent
    n = action.n
    # unknown rho (selfadjoint): equations Tr(rho alpha_i(x)) = Tr(rho x) unit_i,
    # one row per (q, i)
    system = (action.images.transpose(3, 0, 2, 1)
              - g.unit[:, None, None] * action.basis.transpose(0, 2, 1)[:, None])
    sols = linalg.null_space(system.reshape(-1, n * n), tol=1e-12)
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
    if best is None or best_val <= FAITHFUL_TOL:
        raise NoInvariantState(
            f"no faithful invariant state (best min eigenvalue {best_val:.3e})")
    return 0.5 * (best + best.conj().T)


# ---------------------------------------------------------------------------
# fixed points and conditional expectation
# ---------------------------------------------------------------------------

def fixed_point_expectation(action: Action):
    """Fixed-point algebra basis and the conditional expectation onto it.

    E = (h (x) id) alpha; verified idempotent, unital, positive on a PSD
    test family, compatible with the invariant projection (E(a)p = pap)
    and invariant under averaging the action legs.
    """
    g = action.parent
    nn = action.dimN
    impl = action.implement()
    # kernel of alpha(x) - 1 (x) x over x in N, one row per (i, p)
    system = impl.a_raw - g.unit[:, None, None] * np.eye(nn)
    sols = linalg.null_space(system.reshape(-1, nn))
    fixed_basis = [action.unvec(v) for v in sols]

    def expectation(x):
        return np.einsum("i,...iab->...ab", g.haar, action.apply(x))

    p = impl.corep.invariant_projection()
    one = action.unvec(action.rows == action.cols)
    units = action.basis
    ex = expectation(units)
    images = np.moveaxis(action.images, -1, 0)              # [q, i]
    worst = max(
        linalg.frob(expectation(one) - one),
        linalg.max_frob(expectation(ex) - ex),
        # E lands in the fixed-point algebra
        linalg.max_frob(action.apply(ex) - g.unit[:, None, None] * ex[:, None]),
        # E(a) p = p a p on L^2(N)
        linalg.max_frob(impl.pi(ex) @ p - p @ impl.pi(units) @ p),
        # averaging invariance: E(alpha_i(a)) = unit_i E(a)
        linalg.max_frob(expectation(images) - g.unit[:, None, None] * ex[:, None], lead=2))
    # positivity on a deterministic PSD family, tested as one stack
    v = CounterRNG(9).complex_vector(6 * action.n ** 2).reshape(6, action.n, action.n)
    mask = action.unvec(action.vec(v))  # compress to N
    ex = expectation(mask @ linalg.adjoint(mask))
    if (linalg.min_eig(0.5 * (ex + linalg.adjoint(ex))) < -DEFAULT_TOL).any():
        raise AxiomViolation("expectation fails positivity")
    if worst > DEFAULT_TOL:
        raise AxiomViolation(f"expectation residual {worst:.3e}")
    return fixed_basis, expectation


# ---------------------------------------------------------------------------
# positive cone
# ---------------------------------------------------------------------------

def cone_member_test(rho_big, z_mat):
    """Dual test for membership of Lambda(z) in the standard cone, for a
    matrix z or for each matrix of a stack (then an array of verdicts).

    Lambda(z) pairs with the generating cone elements Lambda(v v^* rho^(-1/2))
    through v |-> v^* (rho^(1/2) z^*) v, so membership means that matrix is
    Hermitian PSD within tolerance.
    """
    k = linalg.psd_sqrt(rho_big) @ linalg.adjoint(np.asarray(z_mat))
    scale = np.maximum(1.0, linalg.norms(k.reshape(k.shape[:-2] + (k.shape[-1] ** 2,))))
    hermitian = linalg.hermiticity_defect(k) <= CONE_TOL * scale
    return hermitian & (linalg.min_eig(0.5 * (k + linalg.adjoint(k))) >= -CONE_TOL)


def _vector_functionals(g: FiniteQG, xis):
    """omega[k, i, j] = <xi_j, reg(e_k) xi_i> for the rows xi of xis.

    With reg(e_k) = C L_k C^-1 and L_k[p, q] = mult[k, q, p], this is one
    sparse product of mult (rows k, columns (q, p)) with the table of
    (C^-1 xi_i)[q] conj(C^* xi_j)[p]; no regular-representation matrix is
    formed.
    """
    right = xis @ g._Cinv.T                  # row i: C^-1 xi_i
    left = np.conj(xis) @ g._C               # row j: conj(C^* xi_j)
    pairs = np.einsum("iq,jp->qpij", right, left).reshape(g.d ** 2, -1)
    return (g.mult_nz.csr(1) @ pairs).reshape(g.d, len(xis), len(xis))


def cone_preservation_check(action: Action, xi_family) -> bool:
    """Check that the matrices ((omega_{xi_j, xi_i} (x) id)(U)) preserve the
    standard positive cone of M_m (x) N in M_m (x) L^2(N).

    The trials' generated elements and their images are tested as one
    stack; the first failure in trial order decides: a failing element
    raises AxiomViolation, a failing image returns False.
    """
    g = action.parent
    if not g.kac:
        raise NotKac("cone preservation is stated for Kac parents")
    impl = action.implement()
    u_coef = impl.corep.u_coef()
    xis = np.asarray(xi_family, dtype=complex)
    m, n, nn = len(xis), action.n, action.dimN
    # u[i, j] = (omega_{xi_j, xi_i} (x) id)(U), omega_{a,b}(T) = <a, T b>
    u = np.einsum("kij,kab->ijab", _vector_functionals(g, xis), u_coef)
    # u[i, j] on the raw coordinates of the Lambda picture
    u_raw = impl.c_inv @ u @ impl.c_mat
    rho_big = np.kron(np.eye(m), action.theta)
    rho_half_inv = np.kron(np.eye(m), np.linalg.inv(linalg.psd_sqrt(action.theta)))
    v = CounterRNG(23).complex_vector(CONE_TRIALS * m * nn).reshape(CONE_TRIALS, m, nn)
    # X = v v^* inside M_m (x) N via the compressed coordinates: the blocks
    # x_i of v stacked in a column, X = [x_i x_j^*]
    col = action.unvec(v).reshape(CONE_TRIALS, m * n, n)
    z = col @ linalg.adjoint(col) @ rho_half_inv
    # apply u entrywise on the Lambda picture, block (i, j) at [i, j]
    blocks = action.vec(z.reshape(CONE_TRIALS, m, n, m, n).transpose(0, 1, 3, 2, 4))
    out = action.unvec(np.einsum("ijpq,tijq->tijp", u_raw, blocks))
    images = out.transpose(0, 1, 3, 2, 4).reshape(CONE_TRIALS, m * n, m * n)
    verdicts = cone_member_test(rho_big, np.concatenate([z, images]))
    for element_ok, image_ok in zip(verdicts[:CONE_TRIALS], verdicts[CONE_TRIALS:]):
        if not element_ok:
            raise AxiomViolation("generated element fails the cone test")
        if not image_ok:
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
    alpha = linalg.structure_sum(g.star_mult_nz, np.conj(vc.transpose(0, 2, 1)),
                                 vc.transpose(0, 2, 1), linalg.kron)
    alpha = alpha.reshape(g.d, k, k, k, k)
    theta = np.eye(k) / k
    return Action(g, [k], alpha, invariant_state=theta)


def v_vbar_implementation_check(v: Corep):
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
    direct = linalg.structure_sum(g.mult_nz.permuted((1, 0, 2)), v.u_coef(),
                                  contragredient(v).u_coef(), linalg.kron)
    direct_corep = corep_from_u_coef(g, direct)
    return unitarily_equivalent(impl.corep, direct_corep)


# ---------------------------------------------------------------------------
# spectral gap report
# ---------------------------------------------------------------------------

def spectral_gap_report(action: Action):
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
    member = resid < MEMBER_TOL
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
