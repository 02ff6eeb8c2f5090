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

    def diff_index(self, radius):
        """Index of g_a^{-1} g_b for a, b over the elements of length <= radius.

        An m x m int array, m the size of that prefix; built through `mul`
        once per radius and kept.  Raises WindowTruncation when a product
        leaves the window.
        """
        if radius not in self._diff_index:
            m = int(np.searchsorted(self.lengths, radius, side="right"))
            sub = self.elements[:m]
            table = np.empty((m, m), dtype=int)
            for a, ia in enumerate(self.inv_index[:m]):
                gi = self.elements[ia]
                for b, h in enumerate(sub):
                    p = self.mul(gi, h)
                    if p is None:
                        raise WindowTruncation(
                            f"product of {gi!r}, {h!r} leaves the window")
                    table[a, b] = self.index[p]
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
        inv = self.inv_index
        if np.any(inv < 0):
            g = self.elements[int(np.argmin(inv))]
            raise AxiomViolation(f"inverse of {g!r} escapes the window")
        if np.any(inv[inv] != np.arange(self.d)):
            raise AxiomViolation("inverse is not an involution")
        if np.any(self.lengths[inv] != self.lengths):
            raise AxiomViolation("inverse does not preserve length")
        e = self.identity
        for g, ig in zip(self.elements, inv.tolist()):
            gi = self.elements[ig]
            if self.mul(g, e) != g or self.mul(e, g) != g:
                raise AxiomViolation("identity law fails")
            if self.mul(g, gi) != e:
                raise AxiomViolation("inverse law fails")
        # products must exist whenever |g| + |h| <= radius; elements are
        # sorted by length, so cut the partner range per length class
        bound = np.searchsorted(self.lengths, self.radius - self.lengths, side="right")
        for i, g in enumerate(self.elements):
            for j in range(int(bound[i])):
                if self.mul(g, self.elements[j]) is None:
                    raise AxiomViolation(
                        f"product of {g!r}, {self.elements[j]!r} undefined inside radius")
        self._check_associativity()

    def _check_associativity(self, samples=2000):
        n = self.d
        if n <= 40:
            triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
        else:
            rng = CounterRNG(17)
            triples = [(rng.next_u64() % n, rng.next_u64() % n, rng.next_u64() % n)
                       for _ in range(samples)]
        for ia, ib, ic in triples:
            a, b, c = self.elements[ia], self.elements[ib], self.elements[ic]
            ab = self.mul(a, b)
            bc = self.mul(b, c)
            if ab is None or bc is None:
                continue
            left = self.mul(ab, c)
            right = self.mul(a, bc)
            if left is not None and right is not None and left != right:
                raise AxiomViolation(f"associativity fails on {(a, b, c)!r}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _build_free(k, radius, cap):
    gens = [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]
    elements = [()]
    seen = {()}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                r = _free_reduce(w + (g,))
                if len(r) == len(w) + 1 and r not in seen:
                    seen.add(r)
                    nxt.append(r)
                    elements.append(r)
                    if len(elements) > cap:
                        raise RadiusTooLarge(
                            f"free({k}) radius {radius} exceeds cap {cap}")
        frontier = nxt
    lengths = [len(w) for w in elements]

    def inv(w):
        return tuple(-x for x in reversed(w))

    def mul(a, b):
        r = _free_reduce(a + b)
        return r if len(r) <= radius else None

    return GroupDualWindow(f"free({k}) r={radius}", elements, lengths, inv, mul, radius)


def _zd_length(x, d):
    if d == 1:
        return abs(x)
    return min(x % d, (-x) % d)


def _build_zpow(d, m, radius, cap):
    """Window in (Z_d)^m for d >= 2, or Z^m for d = 1."""
    elements = [(0,) * m]
    seen = {(0,) * m}
    frontier = [(0,) * m]
    gens = []
    for i in range(m):
        for sgn in (1, -1):
            e = [0] * m
            e[i] = sgn
            gens.append(tuple(e))

    def norm(t):
        return tuple(x % d for x in t) if d >= 2 else t

    def length(t):
        return sum(_zd_length(x, d) for x in t)

    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                t = norm(tuple(a + b for a, b in zip(w, g)))
                if t not in seen and length(t) == length(w) + 1:
                    seen.add(t)
                    nxt.append(t)
                    elements.append(t)
                    if len(elements) > cap:
                        raise RadiusTooLarge(f"Z({d})^{m} radius {radius} exceeds cap {cap}")
        frontier = nxt
    lengths = [length(t) for t in elements]

    def inv(t):
        return norm(tuple(-x for x in t))

    def mul(a, b):
        t = norm(tuple(p + q for p, q in zip(a, b)))
        return t if length(t) <= radius else None

    name = f"Z({d})^{m} r={radius}" if m > 1 else f"Z({d}) r={radius}"
    return GroupDualWindow(name, elements, lengths, inv, mul, radius)


def _build_custom(table, radius):
    elements = list(table["elements"])
    lengths = list(table["lengths"])
    inv_map = dict(zip(elements, table["inverse"]))
    prod = {(a, b): p for a, b, p in table["product"]}

    def inv(g):
        return inv_map[g]

    def mul(a, b):
        return prod.get((a, b))

    return GroupDualWindow(table.get("label", "custom"), elements, lengths,
                           inv, mul, radius)


def build_window(group, radius, cap=ELEMENT_CAP):
    """Build a GroupDualWindow.

    group: ("free", k) | ("Z", d, m) | ("cyclic", N) | ("custom", table)
           or a string like "free(2)", "Z(1)", "Z(3)^2", "cyclic(6)".
    """
    if radius < 1:
        raise SchemaError("radius must be >= 1")
    if isinstance(group, str):
        group = _parse_group_spec(group)
    kind = group[0]
    if kind == "free":
        return _build_free(int(group[1]), radius, cap)
    if kind == "Z":
        d, m = int(group[1]), int(group[2])
        return _build_zpow(d, m, radius, cap)
    if kind == "cyclic":
        return _build_zpow(int(group[1]), 1, radius, cap)
    if kind == "custom":
        return _build_custom(group[1], radius)
    raise SchemaError(f"unknown group kind {kind!r}")


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
