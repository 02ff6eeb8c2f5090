"""Convolution calculus for functionals on finite quantum groups and windows.

A functional mu on a FiniteQG is a coefficient vector (mu(e_i))_i; its
block form is the tuple of matrices mu^a with (mu^a)_{ij} = mu(u^a_{ij}).
On a GroupDualWindow a functional is simply a function on the window
elements (all blocks are one-dimensional).  Convolution is
(mu * nu)(a) = (mu (x) nu)(Delta a); on windows it is the pointwise
product.

Both parents share four members, so the counit, evaluation at the unit
and positivity need no branch on the parent kind: the dimension `d`, the
`counit` and `unit` coefficient vectors, and `form(coeffs)`, the matrix
[mu(b_i^* b_j)] whose PSD-ness is positivity (on a window, the Bochner
gram over the half-radius sub-window).

`semigroup_state` takes one time or a sequence of them.  Over a FiniteQG
it exponentiates the blocks of every time with one `linalg.expm` stack per
block size (`FiniteQG.blocks_by_size`), each block getting the bits it
gets alone; `conv_exp_semigroup`, `derivative_recovery` and
`exp_transform` go through the same path.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .core import FiniteQG
from .errors import (
    NotAState,
    NotHermitian,
    ParentMismatch,
    PositivityLost,
    SeriesDivergence,
)
from .windows import GroupDualWindow

SERIES_TERM_TOL = 1e-15
SERIES_MAX_TERMS = 60


class Functional:
    """Linear functional over a FiniteQG or GroupDualWindow parent."""

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = np.asarray(coeffs, dtype=complex).reshape(parent.d)
        self.coeffs.flags.writeable = False

    @property
    def is_window(self):
        return isinstance(self.parent, GroupDualWindow)

    def __call__(self, vec):
        """Evaluate on a coefficient vector (FiniteQG parents)."""
        return complex(self.coeffs @ np.asarray(vec))

    def value(self, g):
        """Evaluate at a window element."""
        return complex(self.coeffs[self.parent.index[g]])

    def blocks(self):
        """Block form (mu^a)_a; on windows the plain value vector."""
        if self.is_window:
            return self.coeffs
        return self.parent.blocks_of(self.parent.u_coords(self.coeffs))

    def u_coords(self):
        if self.is_window:
            return self.coeffs
        return self.parent.u_coords(self.coeffs)

    def block_norm(self):
        """Sup of the operator norms of the blocks."""
        if self.is_window:
            return float(np.max(np.abs(self.coeffs)))
        return max(linalg.opnorm(b) for b in self.blocks())

    def at_unit(self):
        return complex(self.coeffs @ self.parent.unit)

    def __add__(self, other):
        _same_parent(self, other)
        return Functional(self.parent, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_parent(self, other)
        return Functional(self.parent, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Functional(self.parent, self.coeffs * scalar)

    __rmul__ = __mul__


def _same_parent(mu, nu):
    if mu.parent is not nu.parent:
        raise ParentMismatch("functionals live over different parents")


# -- distinguished functionals ----------------------------------------------

def counit_functional(parent) -> Functional:
    return Functional(parent, parent.counit)


def haar_functional(parent: FiniteQG) -> Functional:
    return Functional(parent, parent.haar)


def from_blocks(parent: FiniteQG, blocks) -> Functional:
    return Functional(parent, parent.from_u_coords(parent.u_vec_of_blocks(blocks)))


def vector_state(parent: FiniteQG, xi) -> Functional:
    """The state a |-> <xi, reg(a) xi> of the regular representation."""
    xi = np.asarray(xi, dtype=complex)
    xi = xi / np.linalg.norm(xi)
    coeffs = np.array([xi.conj() @ parent.reg(np.eye(parent.d)[i]) @ xi
                       for i in range(parent.d)])
    return Functional(parent, coeffs)


def adjoint(mu: Functional) -> Functional:
    """mu-bar (a) = conj(mu(a^*))."""
    if mu.is_window:
        return Functional(mu.parent, np.conj(mu.coeffs[mu.parent.inv_index]))
    return Functional(mu.parent, np.conj(mu.parent.star.T @ mu.coeffs))


def sharp(mu: Functional) -> Functional:
    """The sharp involution conj o mu o S (exposed for test use)."""
    if mu.is_window:
        return adjoint(mu)
    return Functional(mu.parent, np.conj(mu.parent.antipode.T @ mu.coeffs))


def antipode_adjoint(mu: Functional) -> Functional:
    """The functional whose block form is the blockwise adjoint of mu's.

    Equals the adjoint of mu o S; on Kac parents positivity is preserved.
    """
    if mu.is_window:
        return Functional(mu.parent, np.conj(mu.coeffs))
    g = mu.parent
    # nu(e_i) = conj(mu(S(e_i^*)))
    mat = g.antipode @ g.star
    return Functional(g, np.conj(mat.T @ mu.coeffs))


# -- convolution --------------------------------------------------------------

def convolve(mu: Functional, nu: Functional) -> Functional:
    """(mu * nu)(a) = (mu (x) nu)(Delta a); pointwise product on windows."""
    _same_parent(mu, nu)
    if mu.is_window:
        return Functional(mu.parent, mu.coeffs * nu.coeffs)
    g = mu.parent
    out = np.einsum("ijk,j,k->i", g.comult, mu.coeffs, nu.coeffs)
    return Functional(g, out)


def convolve_blockwise(mu: Functional, nu: Functional) -> Functional:
    """Independent route: blockwise matrix product of the block forms."""
    _same_parent(mu, nu)
    if mu.is_window:
        return Functional(mu.parent, mu.coeffs * nu.coeffs)
    g = mu.parent
    blocks = [a @ b for a, b in zip(mu.blocks(), nu.blocks())]
    return from_blocks(g, blocks)


# -- positivity ----------------------------------------------------------------

def positivity_matrix(mu: Functional):
    """The matrix whose PSD-ness witnesses positivity of mu.

    FiniteQG: M[i,j] = mu(e_i^* e_j).  Window of radius r: the Bochner gram
    [mu(g^{-1} h)] over the elements of length <= max(r // 2, 1); raises
    WindowTruncation when a product leaves the window.
    """
    return mu.parent.form(mu.coeffs)


def is_positive(mu: Functional, tol: float = 1e-9) -> bool:
    """The gram is Hermitian (within min_eig's gate) and PSD within tol."""
    try:
        return linalg.min_eig(positivity_matrix(mu)) >= -tol
    except NotHermitian:
        return False


def is_state(mu: Functional, tol: float = 1e-9) -> bool:
    return abs(mu.at_unit() - 1.0) <= tol and is_positive(mu, tol)


# -- positive-definite elements -------------------------------------------------

class PDElement:
    """Normalised positive-definite element of the dual, as a block tuple."""

    def __init__(self, parent, blocks, central_tol=1e-10):
        self.parent = parent
        if isinstance(parent, GroupDualWindow):
            self.values = np.asarray(blocks, dtype=complex)
            self.blocks = [self.values[i].reshape(1, 1) for i in range(len(self.values))]
            self.central = True
        else:
            self.blocks = [np.asarray(b, dtype=complex) for b in blocks]
            self.central = all(
                np.linalg.norm(b - np.trace(b) / b.shape[0] * np.eye(b.shape[0])) <= central_tol
                for b in self.blocks)

    def functional(self) -> Functional:
        if isinstance(self.parent, GroupDualWindow):
            return Functional(self.parent, self.values)
        return from_blocks(self.parent, self.blocks)

    def gauge_norm(self) -> float:
        """max_a || a^a - I ||, the norm distance to the unit."""
        return max(linalg.opnorm(b - np.eye(b.shape[0])) for b in self.blocks)

    def gauge_strict(self, window) -> float:
        """Same, but only over a finite set of block indices."""
        return max(linalg.opnorm(self.blocks[a] - np.eye(self.blocks[a].shape[0]))
                   for a in window)

    def adjoint_blocks(self):
        return [b.conj().T for b in self.blocks]


def pd_element(mu: Functional, tol: float = 1e-9) -> PDElement:
    """The normalised positive-definite element attached to a state."""
    if not is_state(mu, tol):
        raise NotAState("pd_element needs a positive normalised functional")
    if mu.is_window:
        return PDElement(mu.parent, mu.coeffs)
    return PDElement(mu.parent, mu.blocks())


def re_transform(a: PDElement, tol: float = 1e-9) -> PDElement:
    """(a + a^*)/2, again normalised positive-definite."""
    parent = a.parent
    if isinstance(parent, GroupDualWindow):
        mu = a.functional()
        nu = antipode_adjoint(mu)
        half = 0.5 * (mu + nu)
        if not is_state(half, tol):
            raise PositivityLost("real part is not positive-definite")
        return PDElement(parent, half.coeffs)
    blocks = [0.5 * (b + bs) for b, bs in zip(a.blocks, a.adjoint_blocks())]
    out = PDElement(parent, blocks)
    if not is_state(out.functional(), tol):
        raise PositivityLost("real part is not positive-definite")
    return out


def exp_transform(a: PDElement, tol: float = 1e-9) -> PDElement:
    """exp(a - 1) blockwise; verified against the convolution series."""
    parent = a.parent
    mu = a.functional()
    eps = counit_functional(parent)
    series = exp_star(mu - eps)
    if isinstance(parent, GroupDualWindow):
        direct = np.exp(a.values - 1.0)
        if np.max(np.abs(direct - series.coeffs)) > 1e-9:
            raise SeriesDivergence("series and pointwise exponentials disagree")
        out = PDElement(parent, direct)
    else:
        unit = parent.u_vec_of_blocks(np.eye(n) for n in parent.block_dims)
        direct = parent.blocks_of(_block_expm(parent, parent.u_vec_of_blocks(a.blocks) - unit))
        series_blocks = series.blocks()
        resid = max(linalg.frob(x - y) for x, y in zip(direct, series_blocks))
        if resid > 1e-9:
            raise SeriesDivergence(f"series route residual {resid:.3e}")
        out = PDElement(parent, direct)
    if not is_state(out.functional(), tol):
        raise PositivityLost("exponential is not positive-definite")
    return out


# -- convolution exponentials -----------------------------------------------------

def exp_star(l: Functional, max_terms: int = SERIES_MAX_TERMS,
             term_tol: float = SERIES_TERM_TOL) -> Functional:
    """exp_*(l) = sum_k l^{*k} / k!, adaptive truncation."""
    out = counit_functional(l.parent)
    term = counit_functional(l.parent)
    for k in range(1, max_terms + 1):
        term = convolve(term, l) * (1.0 / k)
        out = out + term
        if term.block_norm() < term_tol:
            break
    return out


def _block_expm(g: FiniteQG, u):
    """The u-coordinates of the blockwise exponential of each u-coordinate
    vector of the stack u: one linalg.expm call per block size."""
    out = np.empty(u.shape, dtype=complex)
    for idx in g.blocks_by_size.values():
        out[..., idx] = linalg.expm(u[..., idx])
    return out


def semigroup_state(l: Functional, t):
    """mu_t = exp_*(-t l) through the blockwise closed form; for a sequence
    of times, the list of the mu_t."""
    times = np.asarray(t, dtype=float)
    scaled = -times.reshape(-1, 1) * l.u_coords()
    if l.is_window:
        coeffs = np.exp(scaled)
    else:
        coeffs = [l.parent.from_u_coords(u) for u in _block_expm(l.parent, scaled)]
    states = [Functional(l.parent, c) for c in coeffs]
    return states[0] if times.ndim == 0 else states


def conv_exp_semigroup(l, t_grid, check: bool = True, tol: float = 1e-9):
    """The convolution semigroup mu_t = exp_*(-t l) on a grid of times.

    l may be a Functional or a validated GenFunctional.  With check=True the
    generating property is (re)validated, each mu_t is confirmed to be a
    state, and the semigroup law mu_s * mu_t = mu_{s+t} is spot-checked on
    the grid.
    """
    from .genfun import validate_generating  # deferred: genfun imports us
    if hasattr(l, "base"):
        lf = l.base
    else:
        lf = l
        if check:
            validate_generating(lf)
    times = [float(t) for t in t_grid]
    out = semigroup_state(lf, times)
    if check:
        for t, mu_t in zip(t_grid, out):
            if abs(t) < 1e-14:
                eps = counit_functional(lf.parent)
                if np.max(np.abs(mu_t.coeffs - eps.coeffs)) > tol:
                    raise SeriesDivergence("mu_0 differs from the counit")
            if not is_state(mu_t, tol):
                raise NotAState(f"semigroup member at t={t} is not a state")
    if check and len(times) >= 2:
        pairs = [(i, j) for i in range(len(times)) for j in range(len(times))]
        sums = semigroup_state(lf, [times[i] + times[j] for i, j in pairs])
        for (i, j), direct in zip(pairs, sums):
            prod = convolve(out[i], out[j])
            if np.max(np.abs(prod.coeffs - direct.coeffs)) > tol:
                raise SeriesDivergence(
                    f"semigroup law fails at s={t_grid[i]}, t={t_grid[j]}")
    return out


def derivative_recovery(l, h: float, order: int = 2) -> Functional:
    """Recover the generator from the semigroup at step h.

    order=1: (eps - mu_h)/h, error O(h).  order=2: Richardson extrapolation
    2 D(h/2) - D(h), error O(h^2).
    """
    lf = l.base if hasattr(l, "base") else l
    eps = counit_functional(lf.parent)
    steps = [h] if order == 1 else [h, h / 2.0]
    diffs = [(eps - mu) * (1.0 / step)
             for step, mu in zip(steps, semigroup_state(lf, steps))]
    if order == 1:
        return diffs[0]
    return 2.0 * diffs[1] - diffs[0]
