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
        if isinstance(parent, GroupDualWindow):
            raise NotCentral("Schurmann triples are built over a quantum-group parent")
        l = gen.base
        # <c(b_i), c(b_j)> = conj(L(b_i)) eps(b_j) + conj(eps(b_i)) L(b_j)
        # - L(b_i^* b_j) over the coefficient basis
        gram = (np.outer(np.conj(l.coeffs), parent.counit) +
                np.outer(np.conj(parent.counit), l.coeffs) - parent.form(l.coeffs))
        self.cocycle_gram = gram
        try:
            self.cocycle_vectors = linalg.psd_factor_vectors(gram)
        except GramNotPSD as exc:
            raise GramNotPSD(f"cocycle gram not PSD: {exc}") from exc
        self.dim = self.cocycle_vectors.shape[1]
        self._build(parent)
        if gen.s_invariant:
            imag = float(np.max(np.abs(self.cocycle_gram.imag)))
            if imag > 1e-8:
                raise GramNotPSD(
                    f"gram of an antipode-invariant generator not real: {imag:.3e}")

    def cocycle(self, coeffs):
        """c on a coefficient vector, or on each vector of a stack."""
        return linalg.rowmul(np.asarray(coeffs, dtype=complex), self.cocycle_vectors)

    def _build(self, parent):
        """rho and the cocycle rule residual, in slices over p: each slice
        forms c(b_p b_q) for its p alone."""
        f, eps, d = self.cocycle_vectors, parent.counit, parent.d
        solve = np.linalg.pinv(f.T)
        self.rhos = np.empty((d, self.dim, self.dim), dtype=complex)
        worst = 0.0
        # per p, c(b_p b_q), the targets, rowmul's product, the right side and
        # the difference, d x dim each, with room for numpy's temporaries
        for p in linalg.byte_slices(d, 16 * 6 * d * self.dim, "schurmann_triple"):
            c_products = self.cocycle(parent.mult[p])  # c(b_p b_q)
            # rho(b_p) c(b_q) = c(b_p b_q) - eps(b_q) c(b_p), solved for rho(b_p)
            # against the cocycle vectors
            self.rhos[p] = (c_products - eps[:, None] * f[p, None, :]).swapaxes(1, 2) @ solve
            # cocycle rule residual on basis pairs: c(bd) = rho(b) c(d) + eps(d) c(b)
            rhs = (linalg.rowmul(f, self.rhos[p, None].swapaxes(-1, -2))
                   + eps[:, None] * f[p, None, :])
            worst = max(worst, float(linalg.norms(c_products - rhs).max()))
        if worst > TRIPLE_TOL:
            raise GramNotPSD(f"cocycle rule residual {worst:.3e}")
        self.cocycle_rule_residual = worst
        # defining identity residual: the gram is [<c(e_i), c(e_j)>]
        resid = float(np.linalg.norm(self.cocycle_gram - np.conj(f) @ f.T))
        if resid > 1e-9:
            raise GramNotPSD(f"defining identity residual {resid:.3e}")

    def rho(self, coeffs):
        """rho on a coefficient vector, or on each vector of a stack."""
        flat = linalg.rowmul(np.asarray(coeffs, dtype=complex),
                             self.rhos.reshape(len(self.rhos), -1))
        return flat.reshape(flat.shape[:-1] + self.rhos.shape[1:])


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
    direct = list(_triple_forms_direct(parent, gen.base, alpha, gammas, beta))
    entry_resid, herm, low = (np.empty(len(gammas)) for _ in range(3))
    # the checks take the stacks of the primary route
    for pos, v_primary in _triple_forms_cocycle(parent, triple, cvals, alpha, gammas, beta):
        entry_resid[pos], herm[pos], low[pos] = _form_checks(
            v_primary, np.array([direct[k] for k in pos]))
    out = []
    for gamma, v_direct, resid, h, lam in zip(gammas, direct, entry_resid, herm, low):
        if resid > TRIPLE_FORM_TOL:
            raise GramNotPSD(
                f"triple-form routes disagree by {float(resid):.3e} at gamma={gamma}")
        if h > TRIPLE_FORM_TOL:
            raise GramNotPSD(f"triple form not Hermitian: {float(h):.3e}")
        ca, cg, cb = (max(float(cvals[alpha].real), 0.0),
                      max(float(cvals[gamma].real), 0.0),
                      max(float(cvals[beta].real), 0.0))
        bound = (ca + cg + cb - 2.0 * math.sqrt(ca * cg)
                 - 2.0 * math.sqrt(cg * cb) - 2.0 * math.sqrt(ca * cb))
        out.append({
            "gamma": gamma,
            "matrix": v_direct,
            "hermiticity": float(h),
            "route_residual": float(resid),
            "min_eig": float(lam),
            "lower_bound": bound,
        })
    return out


def _form_checks(v_primary, v_direct):
    """Per matrix of two stacks of triple forms: the largest entry difference
    of the routes, the Hermiticity defect of v_direct and the least
    eigenvalue of its Hermitian part, each with the bits it gets alone."""
    entry_resid = np.max(np.abs(v_primary - v_direct), axis=(1, 2))
    defect = v_direct - linalg.adjoint(v_direct)
    herm = linalg.norms(defect.reshape(len(defect), -1))
    return entry_resid, herm, np.linalg.eigvalsh(0.5 * (v_direct + linalg.adjoint(v_direct)))[:, 0]


def _by_dimension(parent, gammas, nbytes, kernel):
    """Stacks of gammas whose blocks have one dimension n, cut by
    linalg.byte_slices where one gamma's work holds nbytes(n) bytes: per
    stack, (n, the positions of its gammas, their irreps' coefficients)."""
    dims = np.array([parent.block_dims[g] for g in gammas], dtype=int)
    for n in sorted(set(dims.tolist())):
        same = np.flatnonzero(dims == n)
        for part in linalg.byte_slices(len(same), nbytes(n), kernel):
            pos = same[part]
            yield n, pos, np.array([parent.irreps[gammas[k]].coeffs for k in pos])


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
    """The cocycle expansion of the triple form (the primary route): per
    dimension of the gamma blocks, (the positions of those gammas, the stack
    of their matrices), each matrix with the bits it gets alone."""
    ua, ub = parent.irreps[alpha].coeffs, parent.irreps[beta].coeffs
    ca, cb = cvals[alpha].real, cvals[beta].real
    # axes (gamma, i, p, j, r, k, s) of the entry (u^a_ip)^* u^g_jr u^b_ks
    c_a = triple.cocycle(ua)[:, :, None, None, None, None]
    c_b = triple.cocycle(ub)
    ip = np.eye(len(ua), dtype=bool)[:, :, None, None, None, None]
    ks = np.eye(len(ub), dtype=bool)
    dim, na, nb = triple.dim, len(ua), len(ub)

    def nbytes(n):
        # per gamma, rho on its block, the cocycles, rho c_b and the form
        return 16 * n * n * (dim * dim + 3 * dim + nb * nb * dim + 4 * (na * nb) ** 2)
    for n, pos, ug in _by_dimension(parent, gammas, nbytes, "triple_forms"):
        cg = cvals[[gammas[k] for k in pos]].real
        at_jr = (slice(None), None, None, slice(None), slice(None), None, None)
        c_g = triple.cocycle(ug)[at_jr]
        c_g_star = triple.cocycle(_star(parent, ug))[at_jr]
        rho_c_b = linalg.rowmul(c_b, triple.rho(ug)[at_jr].swapaxes(-1, -2))
        jr = np.eye(n, dtype=bool)[:, :, None, None]
        v = np.where(ip & jr & ks, (ca + cg + cb)[:, None, None, None, None, None, None], 0.0)
        v = v - np.where(ip, linalg.vdots(c_g_star, c_b), 0.0)
        v = v - np.where(ks, linalg.vdots(c_a, c_g), 0.0)
        v = v - linalg.vdots(c_a, rho_c_b)
        rows = v.shape[1] * v.shape[3] * v.shape[5]
        yield pos, v.transpose(0, 1, 3, 5, 2, 4, 6).reshape(len(pos), rows, rows)


def _window_triple_forms(gen, alpha, beta, gammas):
    w = gen.parent
    l = gen.base
    index = w.index
    # -1 marks a label outside the window, and products pass it on
    full = w.products(w.products(w.inv_index[index[alpha]],
                                 [index.get(g, -1) for g in gammas]), index[beta])
    if np.any(full < 0):
        raise WindowTruncation("triple product escapes the window")
    out = []
    for gamma, at in zip(gammas, full.tolist()):
        val = complex(l.coeffs[at])
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
    c((u^g_{aj})^*); both must have squared norm 2 c_g.  For a sequence of
    gammas, the list of their residuals, from one stack per dimension of
    the gamma blocks, each with the bits it gets alone.
    """
    gen = triple.gen
    _require_central_kac(gen)
    parent = gen.parent
    gammas = np.atleast_1d(gamma).tolist()
    out = np.empty(len(gammas))
    # per gamma, the cocycles and the terms of the two matrices
    for n, pos, ug in _by_dimension(parent, gammas, lambda n: 16 * 4 * n * n * (triple.dim + n),
                                    "cocycle_norms"):
        cvecs = triple.cocycle(ug)
        cvecs_star = triple.cocycle(_star(parent, ug))
        # t_mat[i, j] = sum_a <c(u_ia), c(u_ja)>, tt_mat[i, j] = sum_a
        # <c(u_ai^*), c(u_aj^*)>; the sum over a is kept in its order
        terms = linalg.vdots(cvecs[:, :, None], cvecs[:, None, :])
        terms_star = linalg.vdots(cvecs_star[:, :, :, None], cvecs_star[:, :, None, :])
        t_mat = sum(terms[..., a] for a in range(n))
        tt_mat = sum(terms_star[:, a] for a in range(n))
        cg = gen.central_values[[gammas[k] for k in pos]].real
        target = (2.0 * cg)[:, None, None] * np.eye(n)
        out[pos] = np.maximum(linalg.norms((t_mat - target).reshape(len(pos), -1)),
                              linalg.norms((tt_mat - target).reshape(len(pos), -1)))
    return float(out[0]) if np.ndim(gamma) == 0 else out.tolist()


# ---------------------------------------------------------------------------
# strongly unbounded generator constructor
# ---------------------------------------------------------------------------

def construct_unbounded_generator(block_at, eps, eval_windows, search_labels,
                                  k_candidates):
    """Grow a strongly unbounded central generator from a vanishing sequence.

    block_at(k, label) returns the (scalar) block of the k-th element at an
    irrep label.  Stage l selects k_l with
    sup_{label in K_l} |1 - a_{k_l}| <= eps/4^l (smallness) and a witness
    label with |1 - a_{k_l}| >= eps (escape), then accumulates
    L = sum_l 2^l (1 - a_{k_l}).  Stages are capped at MAX_STAGES and
    weights guarded against overflow.
    """
    stages = []
    k_prev = -1
    k_list = list(k_candidates)
    search = list(search_labels)
    n_stages = min(MAX_STAGES, len(eval_windows))

    def gauge(k, label):
        return abs(1.0 - complex(block_at(k, label)))

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
            term = st["weight"] * (1.0 - b)
            acc = term if acc is None else acc + term
            if abs(acc) > 1e300:
                raise StageOverflow("generator value exceeded double precision")
        return acc

    for st in stages:
        norm = abs(complex(generator_block(st["witness"])))
        st["witness_norm"] = norm
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
    # the evaluation windows the stages read: no stage past MAX_STAGES is grown
    windows = [list(range(-n, n + 1)) for n in range(1, min(n_windows, MAX_STAGES) + 1)]
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

    def pair_sum(pa, pb):
        # sum_{i,j} Re[mu(pa[..., i, j]) mu(pb[..., i, j])], term by term
        acc = 0.0
        for x, y in zip(mu.coeffs[pa].ravel().tolist(), mu.coeffs[pb].ravel().tolist()):
            acc += (x * y).real
        return acc

    # [i, j] = pair i against pair j; -1 marks a label outside the window,
    # and products pass it on
    a, b = (np.array([w.index.get(g, -1) for g in side]) for side in zip(*zeta_spec))
    a_inv, b_inv = (np.where(x < 0, -1, w.inv_index[x]) for x in (a, b))
    pa, pb = w.products(a_inv, a[:, None]), w.products(b_inv, b[:, None])
    if np.any(pa < 0) or np.any(pb < 0):
        raise WindowTruncation("zeta gram product escapes the window")
    norm_sq = pair_sum(pa, pb)
    if abs(norm_sq - 1.0) > PAIR_NORM_TOL:
        raise NotNormalized(f"zeta norm^2 = {norm_sq:.6f}")

    # [gamma, i, j] = a_j^-1 gamma a_i against b_j^-1 gamma b_i
    gam = np.array([w.index.get(g, -1) for g in gamma_seq], dtype=int)[:, None, None]
    pa = w.products(w.products(a_inv, gam), a[:, None])
    pb = w.products(w.products(b_inv, gam), b[:, None])
    if np.any(pa < 0) or np.any(pb < 0):
        raise WindowTruncation("gamma product escapes the window")
    return [{"gamma": gamma, "bound": 1.0 - 2.0 * pair_sum(x, y)}
            for gamma, x, y in zip(gamma_seq, pa, pb)]
