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

`semigroup_state` is the one exponential route: mu_t = exp_*(-t l) through
the blockwise closed form.  It takes one time or a sequence of them; over a
FiniteQG it exponentiates the blocks of every time with one `linalg.expm`
stack per block size (`FiniteQG.blocks_by_size`), each block getting the
bits it gets alone.  `semigroup_law_residuals` and `derivative_recovery`
go through it.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .core import FiniteQG
from .errors import NotHermitian, ParentMismatch
from .windows import GroupDualWindow


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


# -- convolution semigroups -----------------------------------------------------

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


def semigroup_law_residuals(l: Functional, times, states):
    """max |mu_s * mu_t - mu_{s+t}| over the coefficients, for each pair
    (s, t) of the grid times in row-major order; states are the mu_t."""
    pairs = [(i, j) for i in range(len(times)) for j in range(len(times))]
    sums = semigroup_state(l, [times[i] + times[j] for i, j in pairs])
    return [((i, j), float(np.max(np.abs(convolve(states[i], states[j]).coeffs
                                         - direct.coeffs))))
            for (i, j), direct in zip(pairs, sums)]


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
