"""Generating functionals and their cocycle calculus.

A generating functional L is selfadjoint, vanishes at the unit and is
conditionally negative definite (the form -L(a^* b) is PSD on ker eps).
It generates the convolution semigroup mu_t = exp_*(-t L).  The
conditional GNS construction produces a representation rho and a cocycle
c with

    c(ab) = rho(a) c(b) + c(a) eps(b),
    L(a^* b) = conj(L(a)) eps(b) + conj(eps(a)) L(b) - <c(a), c(b)>,

from which the triple-product matrices and their norm identities follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, presets
from .errors import (
    GramNotPSD,
    NotCentral,
    NotCND,
    NotKac,
    NotNormalized,
    NotSelfadjoint,
    NotVanishing,
    SelectionFailed,
    StageOverflow,
    WindowTruncation,
)
from .functionals import Functional, adjoint, semigroup_state
from .windows import GroupDualWindow

CND_TOL = 1e-9
FLAG_TOL = 1e-10
TRIPLE_TOL = 1e-8         # the Schurmann triple's cocycle rule residual
TRIPLE_FORM_TOL = 1e-10   # triple forms: route agreement and Hermiticity
PAIR_NORM_TOL = 1e-9      # pair bounds: |<zeta, zeta> - 1|
MAX_STAGES = 40           # stages of the unbounded-generator growth
SEARCH_LIMIT = 10 ** 7    # largest doubling integer searched for witnesses


@dataclass
class GenFunctional:
    """A validated generating functional with its structure flags."""

    base: Functional
    selfadjoint: bool
    vanishes_at_unit: bool
    central: bool
    s_invariant: bool
    central_values: np.ndarray | None = None   # c_a per irrep when central

    @property
    def parent(self):
        return self.base.parent


def cnd_gram(l: Functional, sub_radius=None):
    """The matrix -L(b_i^* b_j) over the parent's form basis.

    FiniteQG: the full coefficient basis.  Windows: the elements of the
    half-radius sub-window (or of length <= sub_radius), a prefix of the
    window.
    """
    return -l.parent.form(l.coeffs, sub_radius)


def validate_generating(l: Functional, sub_radius=None) -> GenFunctional:
    """Check the generating-functional axioms and compute structure flags."""
    parent = l.parent
    # vanishing at the unit
    if abs(l.at_unit()) > FLAG_TOL:
        raise NotVanishing(f"L(1) = {l.at_unit():.3e}")
    # selfadjointness: L(a^*) = conj(L(a))
    sa_resid = float(np.max(np.abs(adjoint(l).coeffs - l.coeffs)))
    if sa_resid > FLAG_TOL:
        raise NotSelfadjoint(f"selfadjointness residual {sa_resid:.3e}")
    # conditional negative definiteness on ker eps; the form basis is a
    # prefix of the parent's basis
    gram = cnd_gram(l, sub_radius)
    counit = parent.counit[:len(gram)]
    kmat = np.array(linalg.null_space(counit.reshape(1, -1))).T
    comp = kmat.conj().T @ gram @ kmat
    herm = 0.5 * (comp + comp.conj().T)
    if np.linalg.norm(comp - herm) > CND_TOL * max(1.0, np.linalg.norm(comp)):
        raise NotCND("restricted form is not Hermitian")
    vals, vecs = linalg.hermitian_eig(herm)
    if vals[0] < -CND_TOL:
        witness = kmat @ vecs[:, 0]
        raise NotCND(f"negative-definiteness fails: form value {-vals[0]:.3e}",
                     witness=witness)
    # flags
    if isinstance(parent, GroupDualWindow):
        central = True
        s_inv = bool(np.all(np.abs(l.coeffs[parent.inv_index] - l.coeffs) <= FLAG_TOL))
        central_values = np.real_if_close(l.coeffs.copy())
    else:
        blocks = l.blocks()
        central = all(
            np.linalg.norm(b - np.trace(b) / b.shape[0] * np.eye(b.shape[0])) <= FLAG_TOL
            for b in blocks)
        s_inv = float(np.max(np.abs(parent.antipode.T @ l.coeffs - l.coeffs))) <= FLAG_TOL
        central_values = (np.array([np.trace(b) / b.shape[0] for b in blocks])
                          if central else None)
    return GenFunctional(l, True, True, central, s_inv, central_values)


# ---------------------------------------------------------------------------
# Schurmann triple (conditional GNS)
# ---------------------------------------------------------------------------

class SchurmannTriple:
    """Representation rho and cocycle c reconstructing the generator."""

    def __init__(self, gen: GenFunctional):
        self.gen = gen
        parent = gen.parent
        l = gen.base
        # <c(b_i), c(b_j)> = conj(L(b_i)) eps(b_j) + conj(eps(b_i)) L(b_j)
        # - L(b_i^* b_j) over the form basis, a prefix of the parent's basis
        star_prod = parent.form(l.coeffs)
        nb = len(star_prod)
        lvals, eps = l.coeffs[:nb], parent.counit[:nb]
        gram = (np.outer(np.conj(lvals), eps) +
                np.outer(np.conj(eps), lvals) - star_prod)
        self.cocycle_gram = gram
        try:
            self.cocycle_vectors = linalg.psd_factor_vectors(gram)
        except GramNotPSD as exc:
            raise GramNotPSD(f"cocycle gram not PSD: {exc}") from exc
        self.dim = self.cocycle_vectors.shape[1]
        self._parent = parent
        if isinstance(parent, GroupDualWindow):
            self.basis = parent.elements[:nb]
            self.rhos = None
            self._verify_window_rule()
        else:
            self.basis = list(range(nb))
            c_products = self.cocycle(parent.mult)  # c(b_p b_q)
            self._build_rho(c_products)
            self._verify(c_products)
        if gen.s_invariant:
            imag = float(np.max(np.abs(self.cocycle_gram.imag)))
            if imag > 1e-8:
                raise GramNotPSD(
                    f"gram of an antipode-invariant generator not real: {imag:.3e}")

    def cocycle(self, coeffs):
        """c on a coefficient vector, or on each vector of a stack."""
        return linalg.rowmul(np.asarray(coeffs, dtype=complex), self.cocycle_vectors)

    def _build_rho(self, c_products):
        # rho(b_p) c(b_q) = c(b_p b_q) - eps(b_q) c(b_p), solved for rho(b_p)
        # against the cocycle vectors
        f = self.cocycle_vectors
        targets = c_products - self._parent.counit[:, None] * f[:, None, :]
        self.rhos = targets.swapaxes(1, 2) @ np.linalg.pinv(f.T)

    def rho(self, coeffs):
        """rho on a coefficient vector, or on each vector of a stack."""
        if self.rhos is None:
            raise WindowTruncation("window triples expose only the cocycle gram")
        flat = linalg.rowmul(np.asarray(coeffs, dtype=complex),
                             self.rhos.reshape(len(self.rhos), -1))
        return flat.reshape(flat.shape[:-1] + self.rhos.shape[1:])

    def _verify_window_rule(self):
        """Gram-level cocycle rule on windows.

        The rule c(bd) = rho(b)c(d) + c(b) with rho(b) unitary is, at the
        level of inner products, <c(bd) - c(b), c(bd') - c(b)> = <c(d), c(d')>
        whenever the products stay inside the cocycle basis.  The basis is
        the prefix of the form's sub-window, so bd has index diff[inv(b), d],
        diff the form of the index vector.
        """
        diff = self._parent.form(np.arange(self._parent.d))
        f = self.cocycle_vectors
        nb = len(diff)
        # <c(d), c(d')> on views of f (a gathered copy of its rows may round
        # differently); one step per b, since all pairs of all b at once take
        # nb^3 numbers (1.8 GB at free(2) r=10, nb = 485)
        rhs = linalg.vdots(f[:, None], f[None, :])
        worst = 0.0
        for b in range(nb):
            bd = diff[self._parent.inv_index[b]]
            d = np.flatnonzero(bd < nb)
            shifted = f[bd[d]] - f[b]  # c(bd) - c(b)
            lhs = linalg.vdots(shifted[:, None], shifted[None, :])
            worst = max(worst, float(np.abs(lhs - rhs[np.ix_(d, d)]).max()))
        if worst > TRIPLE_TOL:
            raise GramNotPSD(f"window cocycle rule residual {worst:.3e}")
        self.cocycle_rule_residual = worst

    def _verify(self, c_products):
        # cocycle rule residual on basis pairs:
        # c(bd) = rho(b) c(d) + eps(d) c(b)
        f = self.cocycle_vectors
        rhs = (linalg.rowmul(f, self.rhos[:, None].swapaxes(-1, -2))
               + self._parent.counit[:, None] * f[:, None, :])
        worst = float(linalg.norms(c_products - rhs).max())
        if worst > TRIPLE_TOL:
            raise GramNotPSD(f"cocycle rule residual {worst:.3e}")
        self.cocycle_rule_residual = worst
        # defining identity residual: the gram is [<c(e_i), c(e_j)>]
        resid = float(np.linalg.norm(self.cocycle_gram - np.conj(f) @ f.T))
        if resid > 1e-9:
            raise GramNotPSD(f"defining identity residual {resid:.3e}")


def schurmann_triple(gen: GenFunctional) -> SchurmannTriple:
    return SchurmannTriple(gen)


# ---------------------------------------------------------------------------
# central triple-product matrices and the cocycle norm identity
# ---------------------------------------------------------------------------

def _require_central_kac(gen: GenFunctional):
    if not gen.parent.kac:
        raise NotKac("triple forms need a Kac parent")
    if not gen.central or not gen.s_invariant:
        raise NotCentral("triple forms need a central antipode-invariant generator")


def triple_form_matrices(gen: GenFunctional, alpha, beta, gammas,
                         triple: SchurmannTriple | None = None):
    """Hermitian matrices V[(i,j,k),(p,r,s)] = L((u^a_ip)^* u^g_jr u^b_ks).

    Primary route: the cocycle expansion
        V = delta(c_a + c_g + c_b)
            - delta_ip <c((u^g_jr)^*), c(u^b_ks)>
            - delta_ks <c(u^a_ip), c(u^g_jr)>
            - <c(u^a_ip), rho(u^g_jr) c(u^b_ks)>
    cross-checked entrywise against direct evaluation of L on the expanded
    triple products.  Returns per gamma a record with the matrix, its
    minimum eigenvalue and the operator-norm lower bound
    c_g + c_a + c_b - 2 sqrt(c_a c_g) - 2 sqrt(c_g c_b) - 2 sqrt(c_a c_b)
    assembled from ||T_g|| = sqrt(2 c_g).
    """
    _require_central_kac(gen)
    parent = gen.parent
    if isinstance(parent, GroupDualWindow):
        return _window_triple_forms(gen, alpha, beta, gammas)
    if triple is None:
        triple = SchurmannTriple(gen)
    cvals = gen.central_values
    gammas = list(gammas)
    out = []
    for gamma, v_primary, v_direct in zip(
            gammas, _triple_forms_cocycle(parent, triple, cvals, alpha, gammas, beta),
            _triple_forms_direct(parent, gen.base, alpha, gammas, beta)):
        entry_resid = float(np.max(np.abs(v_primary - v_direct)))
        if entry_resid > TRIPLE_FORM_TOL:
            raise GramNotPSD(
                f"triple-form routes disagree by {entry_resid:.3e} at gamma={gamma}")
        herm = float(np.linalg.norm(v_direct - v_direct.conj().T))
        if herm > TRIPLE_FORM_TOL:
            raise GramNotPSD(f"triple form not Hermitian: {herm:.3e}")
        vals = np.linalg.eigvalsh(0.5 * (v_direct + v_direct.conj().T))
        ca, cg, cb = (max(float(cvals[alpha].real), 0.0),
                      max(float(cvals[gamma].real), 0.0),
                      max(float(cvals[beta].real), 0.0))
        bound = (ca + cg + cb - 2.0 * math.sqrt(ca * cg)
                 - 2.0 * math.sqrt(cg * cb) - 2.0 * math.sqrt(ca * cb))
        out.append({
            "gamma": gamma,
            "matrix": v_direct,
            "hermiticity": herm,
            "route_residual": entry_resid,
            "min_eig": float(vals[0]),
            "lower_bound": bound,
        })
    return out


def _star(parent, x):
    """Coefficients of x^* for each coefficient vector x of a stack."""
    return linalg.rowmul(np.conj(x), parent.star.T)


def _entry_matrix(v):
    """v[i, p, j, r, k, s] as the matrix V[(i,j,k), (p,r,s)]."""
    rows = v.shape[0] * v.shape[2] * v.shape[4]
    return v.transpose(0, 2, 4, 1, 3, 5).reshape(rows, rows)


def _triple_forms_direct(parent, l, alpha, gammas, beta):
    """Per gamma, L on the expanded triple products (the cross-check route)."""
    ua_star, ub = _star(parent, parent.irreps[alpha].coeffs), parent.irreps[beta].coeffs
    for gamma in gammas:
        left = parent.mul(ua_star[:, :, None, None], parent.irreps[gamma].coeffs)
        full = parent.mul(left[..., None, None, :], ub)
        yield _entry_matrix((l.coeffs @ full[..., None])[..., 0])


def _triple_forms_cocycle(parent, triple, cvals, alpha, gammas, beta):
    """Per gamma, the cocycle expansion of the triple form (the primary route)."""
    ua, ub = parent.irreps[alpha].coeffs, parent.irreps[beta].coeffs
    ca, cb = cvals[alpha].real, cvals[beta].real
    # axes (i, p, j, r, k, s) of the entry (u^a_ip)^* u^g_jr u^b_ks
    c_a = triple.cocycle(ua)[:, :, None, None, None, None]
    c_b = triple.cocycle(ub)
    ip = np.eye(len(ua), dtype=bool)[:, :, None, None, None, None]
    ks = np.eye(len(ub), dtype=bool)
    for gamma in gammas:
        ug, cg = parent.irreps[gamma].coeffs, cvals[gamma].real
        c_g = triple.cocycle(ug)[:, :, None, None]
        c_g_star = triple.cocycle(_star(parent, ug))[:, :, None, None]
        rho_c_b = linalg.rowmul(c_b, triple.rho(ug)[:, :, None, None].swapaxes(-1, -2))
        jr = np.eye(len(ug), dtype=bool)[:, :, None, None]
        v = np.where(ip & jr & ks, ca + cg + cb, 0.0)
        v = v - np.where(ip, linalg.vdots(c_g_star, c_b), 0.0)
        v = v - np.where(ks, linalg.vdots(c_a, c_g), 0.0)
        v = v - linalg.vdots(c_a, rho_c_b)
        yield _entry_matrix(v)


def _window_triple_forms(gen, alpha, beta, gammas):
    w = gen.parent
    l = gen.base
    out = []
    ai = w.inv(alpha)
    for gamma in gammas:
        left = w.mul(ai, gamma)
        if left is None:
            raise WindowTruncation("triple product escapes the window")
        full = w.mul(left, beta)
        if full is None:
            raise WindowTruncation("triple product escapes the window")
        val = l.value(full)
        ca, cg, cb = (l.value(alpha).real, l.value(gamma).real,
                      l.value(beta).real)
        bound = (ca + cg + cb - 2.0 * math.sqrt(max(ca * cg, 0.0))
                 - 2.0 * math.sqrt(max(cg * cb, 0.0))
                 - 2.0 * math.sqrt(max(ca * cb, 0.0)))
        out.append({
            "gamma": gamma,
            "matrix": np.array([[val]]),
            "hermiticity": float(abs(val - np.conj(val))),
            "route_residual": 0.0,
            "min_eig": float(val.real),
            "lower_bound": bound,
        })
    return out


def cocycle_norm_residual(triple: SchurmannTriple, gamma):
    """Residual of T^*T = 2 c_g I for the cocycle block operators.

    T(e_j) = sum_a c(u^g_{ja}) (x) e_a and the tilde version uses
    c((u^g_{aj})^*); both must have squared norm 2 c_g.
    """
    gen = triple.gen
    _require_central_kac(gen)
    parent = gen.parent
    if isinstance(parent, GroupDualWindow):
        # 1-dim blocks: ||c(g)||^2 = 2 L(g) and the same for the inverse;
        # the basis is a length prefix, so it holds gamma^{-1} if it holds gamma
        g_idx = parent.index.get(gamma, len(triple.basis))
        if g_idx >= len(triple.basis):
            raise WindowTruncation("gamma outside the cocycle basis window")
        gi_idx = parent.inv_index[g_idx]
        cg = gen.base.value(gamma).real
        return max(abs(triple.cocycle_gram[g_idx, g_idx].real - 2.0 * cg),
                   abs(triple.cocycle_gram[gi_idx, gi_idx].real - 2.0 * cg))
    ug = parent.irreps[gamma].coeffs
    ng = len(ug)
    cvecs = triple.cocycle(ug)
    cvecs_star = triple.cocycle(_star(parent, ug))
    # t_mat[i, j] = sum_a <c(u_ia), c(u_ja)>, tt_mat[i, j] = sum_a
    # <c(u_ai^*), c(u_aj^*)>; the sum over a is kept in its order
    terms = linalg.vdots(cvecs[:, None], cvecs[None, :])
    terms_star = linalg.vdots(cvecs_star[:, :, None], cvecs_star[:, None, :])
    t_mat = sum(terms[:, :, a] for a in range(ng))
    tt_mat = sum(terms_star[a] for a in range(ng))
    target = 2.0 * gen.central_values[gamma].real * np.eye(ng)
    return max(float(np.linalg.norm(t_mat - target)),
               float(np.linalg.norm(tt_mat - target)))


# ---------------------------------------------------------------------------
# strongly unbounded generator constructor
# ---------------------------------------------------------------------------

def construct_unbounded_generator(block_at, eps, eval_windows, search_labels,
                                  k_candidates, max_stages: int = MAX_STAGES):
    """Grow a strongly unbounded central generator from a vanishing sequence.

    block_at(k, label) returns the block of the k-th element at an irrep
    label (a scalar or a matrix).  Stage l selects k_l with
    sup_{label in K_l} ||I - a_{k_l}|| <= eps/4^l (smallness) and a witness
    label with ||I - a_{k_l}|| >= eps (escape), then accumulates
    L = sum_l 2^l (1 - a_{k_l}).  Stages are capped and weights guarded
    against overflow.
    """
    if max_stages > 60:
        raise StageOverflow("stage weights exceed double precision beyond 60")
    stages = []
    k_prev = -1
    k_list = list(k_candidates)
    search = list(search_labels)
    n_stages = min(max_stages, len(eval_windows))

    def gauge(k, label):
        b = np.asarray(block_at(k, label))
        if b.ndim == 0:
            return float(abs(1.0 - complex(b)))
        return linalg.opnorm(b - np.eye(b.shape[0]))

    for l in range(1, n_stages + 1):
        window = list(eval_windows[l - 1])
        small_bound = eps / (4.0 ** l)
        chosen = None
        witness = None
        small_ok_seen = False
        for k in k_list:
            if k <= k_prev:
                continue
            if max(gauge(k, lab) for lab in window) > small_bound:
                continue
            small_ok_seen = True
            for lab in search:
                if gauge(k, lab) >= eps:
                    chosen, witness = k, lab
                    break
            if chosen is not None:
                break
        if chosen is None:
            cond = "escape" if small_ok_seen else "smallness"
            raise SelectionFailed(
                f"stage {l}: no candidate satisfies the {cond} condition",
                condition=cond, stage=l)
        stages.append({"l": l, "k": chosen, "witness": witness,
                       "weight": 2.0 ** l})
        k_prev = chosen

    def generator_block(label):
        acc = None
        for st in stages:
            b = np.asarray(block_at(st["k"], label), dtype=complex)
            term = st["weight"] * ((np.eye(b.shape[0]) if b.ndim == 2 else 1.0) - b)
            acc = term if acc is None else acc + term
            if np.max(np.abs(np.atleast_1d(acc))) > 1e300:
                raise StageOverflow("generator value exceeded double precision")
        return acc

    for st in stages:
        val = generator_block(st["witness"])
        norm = (abs(complex(val)) if np.asarray(val).ndim == 0
                else linalg.opnorm(np.asarray(val)))
        st["witness_norm"] = float(norm)
        st["witness_bound"] = st["weight"] * eps
        if norm < st["witness_bound"] - 1e-9:
            raise SelectionFailed(
                f"stage {st['l']}: witness norm {norm:.3e} below "
                f"{st['witness_bound']:.3e}", condition="escape", stage=st["l"])
    return {"stages": stages, "generator_block": generator_block}


def unbounded_generator_on_z(a_fn, eps, n_windows):
    """The integer-lattice specialisation of the unbounded-generator growth.

    a_fn(k, m) gives the (scalar) block of the k-th positive-definite
    function at the integer m; evaluation windows are {-n..n} for
    n = 1..n_windows.  Witnesses are searched along doubling integers.
    Validates the resulting generator on every evaluation window and
    returns (report, validated GenFunctional on the largest window).
    """
    windows = [list(range(-n, n + 1)) for n in range(1, n_windows + 1)]
    search = []
    m = 1
    while m <= SEARCH_LIMIT:
        search.append(m)
        m *= 2
    k_candidates = search  # doubling candidates work for smooth families
    report = construct_unbounded_generator(a_fn, eps, windows, search, k_candidates)
    gen_block = report["generator_block"]
    results = []
    largest = None
    for n in range(1, n_windows + 1):
        # host window of radius 2n so the gram over {-n..n} is fully defined
        w = presets.load_preset("Z(1)", radius=2 * n)
        vals = np.array([complex(gen_block(g[0])) for g in w.elements])
        lf = Functional(w, vals)
        gen = validate_generating(lf, sub_radius=n)
        largest = gen
        results.append({"n": n, "max_abs": float(np.max(np.abs(vals)))})
    report["window_validation"] = results
    return report, largest


# ---------------------------------------------------------------------------
# no-invariant-vector bounds for the doubled GNS representation
# ---------------------------------------------------------------------------

def pair_invariance_bounds(gen: GenFunctional, t: float, zeta_spec,
                           gamma_seq):
    """Lower bounds forcing ||(pi_t * pi_t)(z) zeta - zeta|| away from zero.

    On a group-dual window with semigroup mu_t = exp(-t L):
        bound(gamma) = 1 - 2 sum_{i,j} Re[mu_t(a_j^-1 gamma a_i)
                                          mu_t(b_j^-1 gamma b_i)]
    for zeta = sum_i pi(a_i) Omega (x) pi(b_i) Omega, which must be
    normalised in the GNS norm of mu_t (x) mu_t.
    """
    w = gen.parent
    if not isinstance(w, GroupDualWindow):
        raise NotCentral("pair bounds are a window experiment")
    mu = semigroup_state(gen.base, t)

    def mu_at(g):
        return mu.value(g)

    pairs = list(zeta_spec)
    norm_sq = 0.0
    for (ai, bi) in pairs:
        for (aj, bj) in pairs:
            pa = w.mul(w.inv(aj), ai)
            pb = w.mul(w.inv(bj), bi)
            if pa is None or pb is None:
                raise WindowTruncation("zeta gram product escapes the window")
            norm_sq += (mu_at(pa) * mu_at(pb)).real
    if abs(norm_sq - 1.0) > PAIR_NORM_TOL:
        raise NotNormalized(f"zeta norm^2 = {norm_sq:.6f}")

    bounds = []
    for gamma in gamma_seq:
        acc = 0.0
        for (ai, bi) in pairs:
            for (aj, bj) in pairs:
                left = w.mul(w.inv(aj), gamma)
                right = w.mul(w.inv(bj), gamma)
                if left is None or right is None:
                    raise WindowTruncation("gamma product escapes the window")
                pa = w.mul(left, ai)
                pb = w.mul(right, bi)
                if pa is None or pb is None:
                    raise WindowTruncation("gamma product escapes the window")
                acc += (mu_at(pa) * mu_at(pb)).real
        bounds.append({"gamma": gamma, "bound": 1.0 - 2.0 * acc})
    return bounds
