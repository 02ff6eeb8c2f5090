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
public attributes and the serialisers read, and as their exact nonzeros,
the linalg.Structure stores `mult_nz`, `comult_nz` and `star_mult_nz`
(the dual's `P_nz` and `product_nz`), built once per object.  Products,
residual kernels, the corep calculus and the Fock sums read the stores,
adding each sum's terms in the order of the dense contraction they
replaced, so residuals and reports are the same to the last bit.  No
dense derived tensor is kept: `star_mult_nz` is taken from a product that
is dropped, the dual's `P` is formed on each read, and the store forms
that only validation reads are released when it returns.

Where every entry of a d^3 or d^4 contraction has one nonzero term with a
factor in {1, -1, i, -i} (`single_terms`), it is formed from the stores:
such a product is exact, so the dense contraction gives it to the bit.
That holds for the counit and star-coproduct laws, the irrep coproduct,
`star_mult_nz` and the dual's u-basis product on every dual-Z(n) (B = I,
a permutation star, a diagonal coproduct); a parent that fails the count,
or a contraction under STORE_MIN_WORK, takes the dense contraction.

The sparse Hopf-law kernels are chains of linalg.contract over the
stores, each sum over its terms in ascending order of the summed indices.
The kernels that grow with their input run in slices along their leading
output index, cut by linalg.byte_slices from counts made before anything
is formed (BudgetExceeded, naming the kernel, past linalg.BYTE_BUDGET);
each output entry is summed within one slice, so slicing moves no bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AxiomViolation,
    HaarNotFound,
    NonUnique,
    NotAMorphism,
    SchemaError,
)

DEFAULT_TOL = 1e-9


def named_residuals(res, tol, what):
    """The residual table res, after raising AxiomViolation naming, worst
    first, every identity of res whose residual exceeds tol."""
    bad = sorted((k for k, v in res.items() if v > tol), key=res.get, reverse=True)
    if bad:
        named = ", ".join(f"'{k}' {res[k]:.3e}" for k in bad)
        raise AxiomViolation(f"{what} identity residuals {named} > {tol:.1e}")
    return res


# ---------------------------------------------------------------------------
# Hopf-axiom residual kernels
# ---------------------------------------------------------------------------
# Each kernel returns the Frobenius residual of one law of a coproduct
# c[i, a, b], Delta(e_i) = sum c[i,a,b] e_a (x) e_b.  Read as a coproduct,
# m.transpose(2, 0, 1), a product m[i, j, k] has the algebra laws as the same
# kernels: associativity, the unit law and a multiplicative counit are
# coassociativity, the counit law and a unital coproduct.  The sparse
# kernels take Structures (or arrays); each side of a law comes out in
# canonical entry order, so the norm adds the same numbers in the same
# order for every layout.

def _pairs(a, b, n: int):
    """All (x, y) with a[x] == b[y], for keys in range(n), x major."""
    counts = np.bincount(b, minlength=n)
    count = counts[a]
    x = np.repeat(np.arange(a.size), count)
    first = (np.cumsum(counts) - counts)[a] - (np.cumsum(count) - count)
    return x, np.argsort(b, kind="stable")[np.repeat(first, count) + np.arange(x.size)]


# single_terms leaves a contraction of fewer multiply-adds (tensor entries
# times output columns) to the dense call, which costs less there than the
# store route's bookkeeping: d^4 kernels take the store from d = 16
STORE_MIN_WORK = 2 ** 16


def _units(w):
    """Whether each value is 1, -1, i or -i."""
    re, im = np.abs(np.real(w)), np.abs(np.imag(w))
    return ((re == 1) & (im == 0)) | ((re == 0) & (im == 1))


def single_terms(t, axis: int, mat):
    """The Structure of sum_j t[..., j, ...] mat[j, x], x in place of j at
    axis, when every entry of it has one nonzero term and each term a factor
    1, -1, i or -i; else None, and None for a contraction under
    STORE_MIN_WORK.  Such a product is exact, and so is a dense
    contraction's sum of it and exact zeros in any order, so a kernel that
    takes this route has the bits of the dense one."""
    t, mat = linalg.Structure.of(t), np.asarray(mat)
    if np.prod(t.shape) * mat.shape[1] < STORE_MIN_WORK:
        return None
    j, x = np.nonzero(mat)
    n = t.shape[axis]
    shape = list(t.shape)
    shape[axis] = mat.shape[1]
    # more terms than entries: some entry has two
    if np.bincount(t.idx[axis], minlength=n) @ np.bincount(j, minlength=n) > np.prod(shape):
        return None
    a, b = _pairs(t.idx[axis], j, n)
    left, right = t.w[a], mat[j[b], x[b]]
    if not (_units(left) | _units(right)).all():
        return None
    idx = [k[a] for k in t.idx]
    idx[axis] = x[b]
    flat = np.ravel_multi_index(idx, shape)
    order = np.argsort(flat)
    if (flat[order[1:]] == flat[order[:-1]]).any():
        return None
    return linalg.Structure.from_entries(shape, idx, left * right)


def _placed(*terms):
    """The dense array of the first Structure less the others."""
    out = np.zeros(terms[0].shape, dtype=complex)
    out[terms[0].idx] = terms[0].w
    for t in terms[1:]:
        out[t.idx] -= t.w
    return out


def _per_row(t, weights):
    """Per first index i of a Structure, the sum of weights over the entries
    of row t[i]."""
    return np.bincount(t.idx[0], weights=weights, minlength=t.shape[0])


def coassoc_residual(c) -> float:
    """(Delta (x) id)Delta = (id (x) Delta)Delta for a coproduct c[i,a,b],
    formed in slices along the leading output index i."""
    c = linalg.Structure.of(c)
    d = c.shape[0]
    # per i, the pairs each side forms, at most its d^3 output entries (48
    # bytes each with the merged indices and the difference), and the
    # slice's copies of c down the diagonal with the row pointers of X's d^2 rows
    sizes, cap = np.bincount(c.idx[0], minlength=d), d ** 3
    nbytes = (48 * (np.minimum(_per_row(c, sizes[c.idx[1]]), cap)
                    + np.minimum(_per_row(c, sizes[c.idx[2]]), cap))
              + 24 * (c.w.size + d * d))
    # sum_p c[p,a,b] c[i,p,k] - sum_p c[i,a,p] c[p,b,k]
    return linalg.frob_stack(
        linalg.contract(c, "pab", c, "ipk", "iabk", part)
        - linalg.contract(c, "iap", c, "pbk", "iabk", part)
        for part in linalg.byte_slices(d, nbytes, "coassoc_residual"))


def hom_residual(m, c) -> float:
    """Residual of Delta(xy) = Delta(x)Delta(y) for product m, coproduct c,
    formed in slices along the leading output index i."""
    m, c = linalg.Structure.of(m), linalg.Structure.of(c)
    d = m.shape[0]
    # rhs[i,j,a,b] = sum c[i,p,q] c[j,r,s] m[p,r,a] m[q,s,b] in stages F, E,
    # R below; E reaches R only where some m[q,s,b] is nonzero, so its factor
    # C[q,r,j,s] = c[j,r,s] is kept for those (q, s) alone
    ra = np.bincount(m.idx[0] * d + m.idx[1], minlength=d * d)
    live_q, live_s = np.divmod(np.flatnonzero(ra), d)
    j, r, s = c.idx
    x, y = _pairs(live_s, s, d)
    # C as its csr matrix alone: the index arrays of a store would outlast it
    cq = linalg.Lettered.from_entries("qrjs", (d,) * 4, (live_q[x], r[y], j[y], s[y]), c.w[y], 2)
    # per i, the pairs each product forms, at most its output entries (96
    # bytes each with the digits and the regrouped copy; each F term
    # (i,p,q; p,r,a) meets the row (q, r) of C, and each E entry (q,s) the
    # row (q, s) of m), and the row pointers of E's d^2 rows
    p, q = c.idx[1], c.idx[2]
    m_sizes, c_sizes = np.bincount(m.idx[0], minlength=d), np.bincount(c.idx[0], minlength=d)
    q_r = live_q[x] * d + r[y]
    to_e = np.bincount(q_r, minlength=d * d).reshape(d, d)
    to_r = np.bincount(q_r, weights=ra[live_q[x] * d + s[y]], minlength=d * d).reshape(d, d)
    ra = ra.reshape(d, d)
    nbytes = 96 * (np.minimum(_per_row(m, c_sizes[m.idx[2]]), d ** 3)
                   + np.minimum(_per_row(c, m_sizes[p]), d ** 3)
                   + np.minimum(_per_row(c, (ra @ to_e.T)[p, q]), d ** 4)
                   + np.minimum(_per_row(c, (ra @ to_r.T)[p, q]), d ** 3)) + 24 * d * d

    def parts():
        for part in linalg.byte_slices(d, nbytes, "hom_residual"):
            lhs = linalg.contract(m, "ijk", c, "kab", "ijab", part)
            f = linalg.contract(c, "ipq", m, "pra", "iqra", part)     # sum over p
            e = linalg.contract(f, "iqra", cq, "qrjs", "qiajs")       # over r
            yield lhs - linalg.contract(e, "qiajs", m, "qsb", "ijab")  # over (q, s)
    return linalg.frob_stack(parts())


def counit_residual(c, counit) -> float:
    """(counit (x) id)Delta = id = (id (x) counit)Delta, through the store
    where single_terms takes both sides, else dense."""
    c = linalg.Structure.of(c)
    d = c.shape[0]
    eye, col = np.eye(d), np.asarray(counit)[:, None]
    sides = [single_terms(c, axis, col) for axis in (1, 2)]
    if all(sides):
        sides = [_placed(side).reshape(d, d) for side in sides]
    else:
        dense = c.dense()
        sides = [np.tensordot(dense, counit, axes=([axis], [0])) for axis in (1, 2)]
    return max(float(np.linalg.norm(side - eye)) for side in sides)


def unital_residual(c, unit) -> float:
    """Delta(1) = 1 (x) 1."""
    return float(np.linalg.norm(
        np.tensordot(unit, c, axes=([0], [0])) - np.outer(unit, unit)))


def star_residual(c, star) -> float:
    """Delta(x^*) = (* (x) *)Delta(x) for x^* with coefficients star @ conj(x),
    through the store where single_terms takes every product, else dense,
    the right side in slices along i, subtracted in place."""
    c = linalg.Structure.of(c)
    d, st_t = c.shape[0], np.asarray(star).T
    lhs = single_terms(c, 0, star)                                 # Delta(e_i^*)
    rhs = lhs and single_terms(
        linalg.Structure.from_entries(c.shape, c.idx, np.conj(c.w)), 1, st_t)
    rhs = rhs and single_terms(rhs, 2, st_t)
    if lhs and rhs:
        return float(np.linalg.norm(_placed(lhs, rhs)))
    c = c.dense()
    out = np.tensordot(star, c, axes=([0], [0]))
    # per i, the conjugate, the two products and a transposed copy: d^2 each
    for part in linalg.byte_slices(d, 16 * 4 * d * d, "star_residual"):
        rhs = np.tensordot(np.conj(c[part]), star, axes=([1], [1]))   # (i, b, p)
        out[part] -= np.tensordot(rhs, star, axes=([1], [1]))          # (i, p, q)
    return float(np.linalg.norm(out))


def antipode_residual(m, c, s, counit, unit) -> float:
    """m(S (x) id)Delta = counit(.) 1 = m(id (x) S)Delta for product m,
    coproduct c and antipode matrix s, each sum over its indices in
    ascending order."""
    m, c, s = linalg.Structure.of(m), linalg.Structure.of(c), np.asarray(s)
    d = m.shape[0]
    left, right = np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)
    # in slices along i, four d^2 arrays per i
    for part in linalg.byte_slices(d, 16 * 4 * d * d, "antipode_residual"):
        # left[i,q] = sum_{p,k} (sum_j c[i,j,k] s[p,j]) m[p,k,q]
        sd = linalg.contract(c, "ijk", s, "pj", "ikp", part)
        left[part] = linalg.contract(sd, "ikp", m, "pkq", "iq").dense()
        # right[i,q] = sum_{j,p} (sum_k c[i,j,k] s[p,k]) m[j,p,q]
        ds = linalg.contract(c, "ijk", s, "pk", "ijp", part)
        right[part] = linalg.contract(ds, "ijp", m, "jpq", "iq").dense()
    target = np.outer(counit, unit)
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def star_product_residual(m, star, star_mult) -> float:
    """(xy)^* = y^* x^* on basis pairs, for product m and star_mult[j,r,p] =
    sum_q star[q,j] m[q,r,p], the coefficients of e_j^* e_r."""
    m, star_mult, star = linalg.Structure.of(m), linalg.Structure.of(star_mult), np.asarray(star)
    d = m.shape[0]
    # lhs[i,j,p] = sum_k conj(m[i,j,k]) star[p,k] is taken as the conjugate
    # of sum_k m[i,j,k] conj(star[p,k]): conjugation commutes with each
    # rounded product and sum, so the two are equal bit for bit
    star_conj, out = np.conj(star), np.empty((d, d, d), dtype=complex)
    # in slices along i, three d^2 arrays per i
    for part in linalg.byte_slices(d, 16 * 3 * d * d, "star_product_residual"):
        out[part] = np.conj(linalg.contract(m, "ijk", star_conj, "pk", "ijp", part).dense())
        # rhs[i,j,p] = sum_r star[r,i] star_mult[j,r,p]
        out[part] -= linalg.contract(star, "ri", star_mult, "jrp", "ijp", part).dense()
    return float(np.linalg.norm(out))


def haar_residual(c, haar, unit) -> float:
    """(h (x) id)Delta = h(.)1 = (id (x) h)Delta for coproduct c, each sum
    over its index in ascending order."""
    c, haar = linalg.Structure.of(c), np.asarray(haar)
    target = np.outer(haar, unit)
    left = linalg.contract(c, "ijk", haar, "j", "ik").dense()
    right = linalg.contract(c, "ijk", haar, "k", "ij").dense()
    return max(float(np.linalg.norm(left - target)), float(np.linalg.norm(right - target)))


def _permuted_star_residual(p, perm) -> float:
    """The dual's star law: star_residual(c, np.eye(d)[perm]) for its
    coproduct c = P.transpose(2, 1, 0) and an involutive permutation perm,
    from P or its store.  Each entry of the products has one term 1 * x, so
    D[q,a,b] = c[perm[q],a,b] - conj(c[q,perm[a],perm[b]]) is placed from
    the entries of P; the norm adds D in (q, b, a) order, the memory order
    numpy gives those two gathers of c."""
    p = linalg.Structure.of(p)
    (x, y, z), w = p.idx, p.w
    out = np.zeros(p.shape, dtype=complex)      # D[q, a, b] at out[q, b, a]
    out[perm[z], x, y] = w                      # c[perm[q], a, b] = P[b, a, perm[q]]
    out[z, perm[x], perm[y]] -= np.conj(w)      # c[q, perm[a], perm[b]] = P[perm[b], perm[a], q]
    return float(np.linalg.norm(out))


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
    AxiomViolation naming every failing axiom, worst first, and its
    residual table is kept as `residuals`.
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
        # the forms that only validation reads go; those the experiments read
        # (products, the corep calculus) stay
        self.mult_nz.release(keep=(("csr", 1), ("grouped", (2,))))
        self.comult_nz.release(keep=(("permuted", (1, 2, 0)),))
        self.star_mult_nz.release()

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
    def star_mult_nz(self):
        """c[i, j, k], the coefficient of e_k in e_i^* e_j, as its nonzeros:
        through the store where single_terms takes it, else taken from a
        dense product that is not kept."""
        return (single_terms(self.mult_nz, 0, self.star)
                or linalg.Structure(np.tensordot(self.star, self.mult, axes=([0], [0]))))

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
        res["unit"] = counit_residual(m.permuted((2, 0, 1)), self.unit)
        res["coassociativity"] = coassoc_residual(c)
        res["counit"] = counit_residual(c, self.counit)
        res["coproduct_homomorphism"] = hom_residual(m, c)
        res["coproduct_unital"] = unital_residual(self.comult, self.unit)
        res["counit_homomorphism"] = unital_residual(mt, self.counit)

        res["antipode"] = antipode_residual(m, c, s, self.counit, self.unit)

        # star: involutive, antimultiplicative, coproduct-compatible
        res["star_involutive"] = float(np.linalg.norm(st @ np.conj(st) - np.eye(d)))
        res["star_antimultiplicative"] = star_product_residual(m, st, self.star_mult_nz)
        res["star_coproduct"] = star_residual(c, st)
        # S(S(x*)*) = x  (standard Hopf *-compatibility)
        inner = st @ np.conj(s @ st)
        res["antipode_star"] = float(np.linalg.norm(s @ inner - np.eye(d)))

        res["haar_state"] = abs(self.haar @ self.unit - 1.0)
        res["haar_invariance"] = haar_residual(c, self.haar, self.unit)

        res["irrep_coproduct"] = self._irrep_coproduct_residual()
        res["irrep_unitary"] = self._irrep_unitarity_residual()
        res["irrep_counit"] = self._irrep_counit_residual()
        res["schur_orthogonality"] = self._schur_residual()
        return named_residuals(res, DEFAULT_TOL, "axiom")

    def _irrep_coproduct_residual(self):
        # Delta(u_ij) = sum_k u_ik (x) u_kj, per entry (i, j), for the stack u
        # of the irreps of one dimension n, in slices over the stack; the sum
        # over k is kept in its order.  Delta(u_q) (column q of B is u_q) is
        # placed from the store where single_terms takes it, else a rowmul.
        d = self.d
        store = single_terms(self.comult_nz, 0, self.B)
        placed = None if store is None else _placed(store).reshape(d, d * d)
        worst = 0.0
        for n, idx in self.blocks_by_size.items():
            u = np.array([r.coeffs for r in self.irreps if r.dim == n])
            # per irrep, both sides, their difference and a product: n^2 d^2 each
            for a in linalg.byte_slices(len(u), 16 * 4 * n * n * d * d, "irrep_coproduct"):
                lhs = (linalg.rowmul(u[a], self.comult.reshape(d, -1)) if placed is None
                       else placed[idx[a]])
                rhs = sum(u[a, :, k, None, :, None] * u[a, None, k, :, None, :] for k in range(n))
                worst = max(worst, linalg.norms(lhs - rhs.reshape(lhs.shape)).max())
        return float(worst)

    def _irrep_unitarity_residual(self):
        # sum_k u_ik u_jk^* = sum_k u_ki^* u_kj = delta_ij 1, per entry (i, j),
        # for the stack u of the irreps of one dimension n, in slices over the
        # stack (mul gathers n^2 (L, d) tables per irrep)
        def resid(u):
            n = u.shape[1]
            starred = np.einsum("pq,aijq->aijp", self.star, np.conj(u))
            target = np.where(np.eye(n, dtype=bool)[..., None], self.unit, 0.0)
            gathered = 3 * self.mult_nz.grouped((2,))[1].size + 4 * self.d
            worst = 0.0
            for a in linalg.byte_slices(len(u), 16 * n * n * gathered, "irrep_unitary"):
                acc1 = sum(self.mul(u[a, :, None, k], starred[a, None, :, k]) for k in range(n))
                acc2 = sum(self.mul(starred[a, k, :, None], u[a, k, None, :]) for k in range(n))
                worst = max(worst, linalg.norms(acc1 - target).max(),
                            linalg.norms(acc2 - target).max())
            return worst
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
    # unknown h_j; the left law's rows (i, k) hold c[i,j,k], the right law's
    # rows (i, k) hold c[i,k,j], less unit[k] in column i
    system = np.empty((2, d, d, d), dtype=complex)
    system[0] = g.comult.transpose(0, 2, 1)
    system[1] = g.comult
    i = np.arange(d)
    system[:, i, :, i] -= g.unit
    basis = linalg.null_space(system.reshape(2 * d * d, d))
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
    if not linalg.psd_check(g.form(h)):
        raise HaarNotFound("bi-invariant functional is not positive")
    return h


# ---------------------------------------------------------------------------
# Dual block algebra
# ---------------------------------------------------------------------------

def _u_product(parent: FiniteQG):
    """The store of the product in the u-basis: u_p u_r = sum_q P[p,r,q] u_q.
    Through the stores where single_terms takes each step, else dense, each
    step one matrix product, holding its operand and its result alone."""
    b, binv = parent.B, parent.Binv
    mb = single_terms(parent.mult_nz, 1, b)
    p0 = mb and single_terms(mb, 0, b)
    p = p0 and single_terms(p0, 2, binv.T)
    if p:
        return p
    # step 1: mB[i, r, k] = sum_j B[j,r] m[i,j,k], made contiguous in (i, r, k)
    # as the next product reads it
    mb = np.ascontiguousarray(np.tensordot(parent.mult, b, axes=([1], [0])).transpose(0, 2, 1))
    # step 2: P0[p, r, k] = sum_i B[i,p] mb[i,r,k]
    p0 = np.tensordot(b, mb, axes=([0], [0]))           # (p, r, k)
    del mb
    # step 3: P[p, r, q] = sum_k Binv[q,k] P0[p,r,k]
    return linalg.Structure(np.tensordot(p0, binv, axes=([2], [1])))      # (p, r, q)


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
        self.P_nz = _u_product(parent)                  # P is rebuilt on demand

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
        # the forms that only validation reads go
        for store in (self.P_nz, self.product_nz):
            store.release()

        for arr in (self.counit, self.unit, self.star_perm):
            arr.flags.writeable = False

    @property
    def P(self):
        """P[p, r, q], rebuilt from P_nz on each read (read-only)."""
        return self.P_nz.dense()

    # coproduct: dual_comult(e_q) = sum_{p,r} P[p,r,q] e_r (x) e_p
    def comult_tensor(self):
        """c[q, a, b]: coefficient of e_a (x) e_b in dual_comult(e_q)."""
        return self.P.transpose(2, 1, 0)

    def _verify(self):
        c = self.P_nz.permuted((2, 1, 0))
        res = {"dual_coassociativity": coassoc_residual(c),
               "dual_homomorphism": hom_residual(self.product_nz, c),
               "dual_counit": counit_residual(c, self.counit),
               "dual_star": _permuted_star_residual(self.P_nz, self.star_perm)}
        self.residuals = named_residuals(res, DEFAULT_TOL, "dual axiom")


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
