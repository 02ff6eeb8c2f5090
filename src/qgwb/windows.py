"""Finite balls in discrete groups, modelling truncated duals.

A GroupDualWindow is the radius-r ball of a discrete group under a word
metric, with a partial multiplication table.  Products falling outside the
window are reported as None; computations raise WindowTruncation rather
than zero-fill.  Like a FiniteQG, a window has a dimension `d`, `counit`
and `unit` coefficient vectors and the form [mu(b_i^* b_j)]; here that
form is the Bochner gram [mu(g^{-1} h)] over a sub-window, a gather
through the integer table `diff_index`.
"""

from __future__ import annotations

import numpy as np

from ._rng import CounterRNG
from .errors import AxiomViolation, RadiusTooLarge, SchemaError, WindowTruncation

ELEMENT_CAP = 200_000
# pairs per batch of `mul` calls: bounds the Python index lists on large windows
_CHUNK = 1 << 16


class GroupDualWindow:
    """Ball of radius `radius` in a discrete group.

    Elements are hashable canonical labels sorted by (length, label); the
    identity sits at index 0, and the elements of length <= s form a prefix.
    `mul` returns the product label or None when it leaves the window;
    `inv_index[i]` is the index of the inverse of element i.  A function on
    the window is a coefficient vector of length `d`; `counit` is all ones
    and `unit` the indicator of the identity.
    """

    def __init__(self, key, elements, lengths, inv_fn, mul_fn, radius):
        order = sorted(range(len(elements)), key=lambda i: (lengths[i], repr(elements[i])))
        self.key = str(key)
        self.elements = [elements[i] for i in order]
        self.lengths = np.array([lengths[i] for i in order], dtype=int)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self._inv_fn = inv_fn
        self._mul_fn = mul_fn
        self.radius = int(radius)
        self.d = len(self.elements)
        self.counit = np.ones(self.d)
        self.unit = np.zeros(self.d)
        self.unit[0] = 1.0
        self.counit.flags.writeable = self.unit.flags.writeable = False
        # -1 marks an inverse outside the window, which _check rejects
        self.inv_index = np.array([self.index.get(inv_fn(g), -1) for g in self.elements],
                                  dtype=int)
        self._diff_index = {}
        self._check()

    @property
    def size(self):
        """The element count `d`, under the name perfbench/tracing.py reads."""
        return self.d

    @property
    def identity(self):
        return self.elements[0]

    def length(self, g) -> int:
        return int(self.lengths[self.index[g]])

    def inv(self, g):
        return self._inv_fn(g)

    def mul(self, g, h):
        """Product label, or None when it leaves the window."""
        p = self._mul_fn(g, h)
        if p is None or p not in self.index:
            return None
        return p

    def _products(self, a, b):
        """Index of g_a g_b over the broadcast index arrays a, b; -1 where
        `mul` returns None or an input index is -1.  One `mul` call per pair,
        so label `mul` stays the one definition of a window product."""
        a, b = np.broadcast_arrays(a, b)
        shape, a, b = a.shape, a.ravel(), b.ravel()
        els, index, mul = self.elements, self.index, self.mul
        out = np.empty(a.size, dtype=int)
        for k in range(0, a.size, _CHUNK):
            out[k:k + _CHUNK] = [
                -1 if i < 0 or j < 0 or (p := mul(els[i], els[j])) is None else index[p]
                for i, j in zip(a[k:k + _CHUNK].tolist(), b[k:k + _CHUNK].tolist())]
        return out.reshape(shape)

    def diff_index(self, radius):
        """Index of g_a^{-1} g_b for a, b over the elements of length <= radius.

        An m x m int array, m the size of that prefix; built through `mul`
        once per radius and kept.  Raises WindowTruncation when a product
        leaves the window.
        """
        if radius not in self._diff_index:
            m = int(np.searchsorted(self.lengths, radius, side="right"))
            table = self._products(self.inv_index[:m, None], np.arange(m))
            if np.any(table < 0):
                a, b = np.unravel_index(np.argmax(table < 0), table.shape)
                gi, h = self.elements[self.inv_index[a]], self.elements[b]
                raise WindowTruncation(f"product of {gi!r}, {h!r} leaves the window")
            table.flags.writeable = False
            self._diff_index[radius] = table
        return self._diff_index[radius]

    def form(self, coeffs, radius=None):
        """The Bochner gram [mu(g_a^{-1} g_b)] of the coefficient vector coeffs
        over the elements of length <= radius (default radius // 2 of the
        window), at least 1; raises WindowTruncation when a product leaves
        the window."""
        if radius is None:
            radius = self.radius // 2
        return np.asarray(coeffs)[self.diff_index(max(radius, 1))]

    # max irrep dimension: all blocks of a group dual are one-dimensional
    max_block_dim = 1
    kac = True

    def _check(self):
        if self.lengths[0] != 0:
            raise AxiomViolation("identity element missing or |e| != 0")
        inv, n = self.inv_index, self.d
        if np.any(inv < 0):
            g = self.elements[int(np.argmin(inv))]
            raise AxiomViolation(f"inverse of {g!r} escapes the window")
        every = np.arange(n)
        if np.any(inv[inv] != every):
            raise AxiomViolation("inverse is not an involution")
        if np.any(self.lengths[inv] != self.lengths):
            raise AxiomViolation("inverse does not preserve length")
        # report the law that the first failing element breaks, identity first
        bad_unit = (self._products(every, 0) != every) | (self._products(0, every) != every)
        bad_inverse = self._products(every, inv) != 0
        first = int(np.argmax(bad_unit | bad_inverse))
        if bad_unit[first]:
            raise AxiomViolation("identity law fails")
        if bad_inverse[first]:
            raise AxiomViolation("inverse law fails")
        # products must exist whenever |g| + |h| <= radius; elements are
        # sorted by length, so the partners of a length class are a prefix
        for length in np.unique(self.lengths):
            rows = np.flatnonzero(self.lengths == length)
            table = self._products(rows[:, None], np.arange(
                np.searchsorted(self.lengths, self.radius - length, side="right")))
            if np.any(table < 0):
                i, j = np.unravel_index(np.argmax(table < 0), table.shape)
                g, h = self.elements[rows[i]], self.elements[j]
                raise AxiomViolation(f"product of {g!r}, {h!r} undefined inside radius")
        # associativity: every triple of a small window, by lookups in its
        # product table, whose extra row and column of -1 stand for
        # "undefined"; 2000 fixed random triples of a larger one
        if n <= 40:
            table = np.full((n + 1, n + 1), -1)
            table[:n, :n] = self._products(every[:, None], every)
            a, b, c = np.indices((n, n, n)).reshape(3, -1)

            def product(x, y):
                return table[x, y]
        else:
            rng = CounterRNG(17)
            a, b, c = np.array([rng.next_u64() % n for _ in range(3 * 2000)]).reshape(-1, 3).T
            product = self._products
        left, right = product(product(a, b), c), product(a, product(b, c))
        bad = np.flatnonzero((left >= 0) & (right >= 0) & (left != right))
        if bad.size:
            triple = tuple(self.elements[i[bad[0]]] for i in (a, b, c))
            raise AxiomViolation(f"associativity fails on {triple!r}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _ball(key, identity, gens, product, length, inv, radius, cap):
    """The radius ball of a group, grown one sphere at a time by right
    multiplication with the generators; its `mul` is `product` cut to the
    ball (by `GroupDualWindow.mul`).  Raises RadiusTooLarge beyond `cap`
    elements."""
    elements, seen, start = [identity], {identity}, 0
    for _ in range(radius):
        frontier, start = elements[start:], len(elements)
        for w in frontier:
            for g in gens:
                t = product(w, g)
                if t not in seen and length(t) == length(w) + 1:
                    seen.add(t)
                    elements.append(t)
                    if len(elements) > cap:
                        raise RadiusTooLarge(f"{key} radius {radius} exceeds cap {cap}")
    return GroupDualWindow(f"{key} r={radius}", elements, [length(t) for t in elements],
                           inv, product, radius)


def _free_product(a, b):
    """The reduced word of a b, for reduced words a and b."""
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _build_free(k, radius, cap):
    letters = list(range(1, k + 1)) + list(range(-1, -k - 1, -1))
    return _ball(f"free({k})", (), [(x,) for x in letters],
                 _free_product, len,
                 lambda w: tuple(-x for x in reversed(w)), radius, cap)


def _build_zpow(d, m, radius, cap):
    """Window in (Z_d)^m for d >= 2, or Z^m for d = 1."""
    def norm(t):
        return tuple(x % d for x in t) if d >= 2 else t

    def length(t):
        return sum(min(x % d, -x % d) if d >= 2 else abs(x) for x in t)

    gens = [tuple(sgn if j == i else 0 for j in range(m)) for i in range(m) for sgn in (1, -1)]
    return _ball(f"Z({d})^{m}" if m > 1 else f"Z({d})", (0,) * m, gens,
                 lambda a, b: norm(tuple(p + q for p, q in zip(a, b))), length,
                 lambda t: norm(tuple(-x for x in t)), radius, cap)


def _build_custom(table, radius):
    inverse = dict(zip(table["elements"], table["inverse"]))
    product = {(a, b): p for a, b, p in table["product"]}
    return GroupDualWindow(table.get("label", "custom"), list(table["elements"]),
                           list(table["lengths"]), inverse.__getitem__,
                           lambda a, b: product.get((a, b)), radius)


# the least arguments of each group kind: free(k), Z(d)^m, cyclic(N)
_LEAST_ARGS = {"free": (1,), "Z": (1, 1), "cyclic": (2,)}


def build_window(group, radius, cap=ELEMENT_CAP):
    """Build a GroupDualWindow.

    group: ("free", k) | ("Z", d, m) | ("cyclic", N) | ("custom", table)
           or a string like "free(2)", "Z(1)", "Z(3)^2", "cyclic(6)".
    Raises SchemaError for k, d or m < 1 and for N < 2.
    """
    if radius < 1:
        raise SchemaError("radius must be >= 1")
    if isinstance(group, str):
        group = _parse_group_spec(group)
    kind = group[0]
    if kind == "custom":
        return _build_custom(group[1], radius)
    if kind not in _LEAST_ARGS:
        raise SchemaError(f"unknown group kind {kind!r}")
    args, least = tuple(int(x) for x in group[1:]), _LEAST_ARGS[kind]
    if len(args) != len(least) or any(x < lo for x, lo in zip(args, least)):
        raise SchemaError(f"{kind} group arguments {args} out of range (least {least})")
    if kind == "free":
        return _build_free(args[0], radius, cap)
    d, m = args if kind == "Z" else (args[0], 1)
    return _build_zpow(d, m, radius, cap)


def _parse_group_spec(s):
    s = s.strip()
    if s.startswith("free(") and s.endswith(")"):
        return ("free", int(s[5:-1]))
    if s.startswith("cyclic(") and s.endswith(")"):
        return ("cyclic", int(s[7:-1]))
    if s.startswith("Z("):
        inner, _, power = s.partition(")^")
        d = int(inner[2:].rstrip(")"))
        m = int(power) if power else 1
        return ("Z", d, m)
    raise SchemaError(f"cannot parse group spec {s!r}")
