"""Finite balls in discrete groups, modelling truncated duals.

A GroupDualWindow is the radius-r ball of a discrete group under a word
metric, with a partial multiplication table.  Its product is computed on
index arrays: the exact group product, cut to the ball, with -1 where it
leaves the window; computations raise WindowTruncation rather than
zero-fill.  Like a FiniteQG, a window has a dimension `d`, `counit` and
`unit` coefficient vectors and the form [mu(b_i^* b_j)]; here that form is
the Bochner gram [mu(g^{-1} h)] over a sub-window, a gather through the
integer table `diff_index`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from ._rng import CounterRNG
from .errors import AxiomViolation, RadiusTooLarge, SchemaError, WindowTruncation

ELEMENT_CAP = 200_000
# products the radius-law check may form, about 20 times those of
# free(2) r=10 (1.6M) or Z(1)^2 r=40 (1.8M)
PAIR_CAP = 1 << 25


class GroupDualWindow:
    """Ball of radius `radius` in a discrete group.

    Elements are hashable canonical labels sorted by (length, repr(label));
    the identity sits at index 0, and the elements of length <= s form a
    prefix.  `products(a, b)` is the index of each product g_a g_b over
    index arrays, -1 where it leaves the window; `mul` is the same product
    on labels, None outside.  `inv_index[i]` is the index of the inverse of
    element i.  A function on the window is a coefficient vector of length
    `d`; `counit` is all ones and `unit` the indicator of the identity.
    """

    def __init__(self, key, labels, lengths, inv_index, product, pair_bytes, radius):
        """labels() gives the element labels in window order, on first use;
        lengths are in that order; inv_index has -1 for an inverse outside
        the window, which _check rejects; product(a, b) is the index product
        over two index arrays of one length (-1 in, -1 out), taking about
        pair_bytes working bytes per pair."""
        self.key = str(key)
        self._labels = labels
        self.lengths = np.asarray(lengths, dtype=int)
        self.inv_index = inv_index
        self._product = product
        self._pair_bytes = pair_bytes
        self.radius = int(radius)
        self.d = len(self.lengths)
        self.counit = np.ones(self.d)
        self.unit = np.zeros(self.d)
        self.unit[0] = 1.0
        self.counit.flags.writeable = self.unit.flags.writeable = False
        self._diff_index = {}
        self._check()

    @functools.cached_property
    def elements(self):
        return self._labels()

    @functools.cached_property
    def index(self):
        return {g: i for i, g in enumerate(self.elements)}

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
        return self.elements[self.inv_index[self.index[g]]]

    def mul(self, g, h):
        """Product label, or None when it leaves the window (or a factor is
        no element): a lookup over `products`."""
        p = int(self.products(self.index.get(g, -1), self.index.get(h, -1)))
        return None if p < 0 else self.elements[p]

    def products(self, a, b):
        """Index of g_a g_b over the broadcast index arrays a, b; -1 where the
        product leaves the window or an input index is -1.  Computed in
        the slices of linalg.byte_slices."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=int), np.asarray(b, dtype=int))
        shape, a, b = a.shape, a.ravel(), b.ravel()
        out = np.empty(a.size, dtype=int)
        for part in linalg.byte_slices(a.size, self._pair_bytes, "window_products"):
            out[part] = self._product(a[part], b[part])
        return out.reshape(shape)

    def diff_index(self, radius):
        """Index of g_a^{-1} g_b for a, b over the elements of length <= radius.

        An m x m int array, m the size of that prefix; built once per radius
        and kept.  Raises WindowTruncation when a product leaves the window,
        at the first row block (of rows whose products fill one slice of
        linalg.byte_slices) that holds one.
        """
        if radius not in self._diff_index:
            m = int(np.searchsorted(self.lengths, radius, side="right"))
            blocks, inv = [], self.inv_index[:m]
            for rows in linalg.byte_slices(m, m * self._pair_bytes, "diff_index"):
                block = self.products(inv[rows, None], np.arange(m))
                if np.any(block < 0):
                    a, b = np.unravel_index(np.argmax(block < 0), block.shape)
                    gi, h = self.elements[inv[rows.start + a]], self.elements[b]
                    raise WindowTruncation(f"product of {gi!r}, {h!r} leaves the window")
                blocks.append(block)
            table = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
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
        # products must exist whenever |g| + |h| <= radius; elements are
        # sorted by length, so the partners of a length class are a prefix
        classes, sizes = np.unique(self.lengths, return_counts=True)
        partners = np.searchsorted(self.lengths, self.radius - classes, side="right")
        pairs = int(sizes @ partners)
        if pairs > PAIR_CAP:
            raise RadiusTooLarge(f"{self.key}: the radius law needs {pairs} products, "
                                 f"over the cap of {PAIR_CAP}")
        # report the law that the first failing element breaks, identity first
        bad_unit = (self.products(every, 0) != every) | (self.products(0, every) != every)
        bad_inverse = self.products(every, inv) != 0
        first = int(np.argmax(bad_unit | bad_inverse))
        if bad_unit[first]:
            raise AxiomViolation("identity law fails")
        if bad_inverse[first]:
            raise AxiomViolation("inverse law fails")
        for length, count in zip(classes, partners):
            rows = np.flatnonzero(self.lengths == length)
            table = self.products(rows[:, None], np.arange(count))
            if np.any(table < 0):
                i, j = np.unravel_index(np.argmax(table < 0), table.shape)
                g, h = self.elements[rows[i]], self.elements[j]
                raise AxiomViolation(f"product of {g!r}, {h!r} undefined inside radius")
        # associativity: every triple of a small window, by lookups in its
        # product table, whose extra row and column of -1 stand for
        # "undefined"; 2000 fixed random triples of a larger one
        if n <= 40:
            table = np.full((n + 1, n + 1), -1)
            table[:n, :n] = self.products(every[:, None], every)
            a, b, c = np.indices((n, n, n)).reshape(3, -1)

            def product(x, y):
                return table[x, y]
        else:
            a, b, c = (CounterRNG(17).u64s(3 * 2000) % n).astype(int).reshape(-1, 3).T
            product = self.products
        left, right = product(product(a, b), c), product(a, product(b, c))
        bad = np.flatnonzero((left >= 0) & (right >= 0) & (left != right))
        if bad.size:
            triple = tuple(self.elements[i[bad[0]]] for i in (a, b, c))
            raise AxiomViolation(f"associativity fails on {triple!r}")


# ---------------------------------------------------------------------------
# constructors: each grows its ball one sphere at a time by index gathers,
# in (length, repr) order, and defines the exact group product on index
# arrays, cut to the ball
# ---------------------------------------------------------------------------

def _too_large(key, radius):
    return RadiusTooLarge(f"the ball of {key} r={radius} has more than {ELEMENT_CAP} "
                          f"elements, the element cap")


def _build_free(k, radius):
    """Window in the free group on k letters, its elements the reduced
    words.  Letters get codes in repr order, so the words of one length
    are in lexicographic code order, and a word's index is its length's
    offset plus its code digits in base 2k - 1 (2k for the first letter; a
    letter does not count its predecessor's inverse).  Per element: its
    length, parent (the word less its last letter), tail (less its first
    letter), first and last letter code, and inverse."""
    key = f"free({k})"
    letters = sorted([*range(1, k + 1), *range(-1, -k - 1, -1)], key=str)
    flip = np.array([letters.index(-x) for x in letters])
    offsets = [0, 1]  # the words of length l are offsets[l]:offsets[l + 1]
    for l in range(1, radius + 1):
        offsets.append(offsets[-1] + 2 * k * (2 * k - 1) ** (l - 1))
        if offsets[-1] > ELEMENT_CAP:
            raise _too_large(key, radius)
    n, offsets = offsets[-1], np.array(offsets)
    power = np.array([(2 * k - 1) ** j for j in range(radius + 1)])
    length = np.repeat(np.arange(radius + 1), np.diff(offsets))
    # int32 halves what a kept window holds; index arithmetic promotes to int
    parent, tail, first, last = (np.zeros(n, dtype=np.int32) for _ in range(4))
    inv = np.zeros(n, dtype=int)

    def join(u, v):
        """Index of the word u v for |u| + |v| <= radius when nothing
        cancels; meaningless elsewhere."""
        lu, lv = length[u], length[v]
        skip = flip[last[u]] < first[v]
        rank = (u - offsets[lu]) * power[lv] + v - offsets[lv] - skip * power[lv - 1]
        return np.where(lu == 0, v, np.where(lv == 0, u,
                                             offsets[np.minimum(lu + lv, radius)] + rank))

    # grow each sphere from the last, word by word and code by code
    for l in range(1, radius + 1):
        w = np.repeat(np.arange(offsets[l - 1], offsets[l]), 2 * k)
        x = np.tile(np.arange(2 * k), offsets[l] - offsets[l - 1])
        if l > 1:
            keep = x != flip[last[w]]
            w, x = w[keep], x[keep]
        new = np.arange(offsets[l], offsets[l + 1])
        parent[new], last[new] = w, x
        first[new] = first[w] if l > 1 else x
        tail[new] = join(tail[w], 1 + x) if l > 1 else 0
        # (x_1 ... x_l)^-1 = (x_2 ... x_l)^-1 x_1^-1
        inv[new] = join(inv[tail[new]], 1 + flip[first[new]])

    def cancels(u, v):
        """Whether the last letter of u undoes the first letter of v."""
        return (length[u] > 0) & (length[v] > 0) & (flip[last[u]] == first[v])

    def product(a, b):
        # x y: drop the last letter of x and the first of y while they
        # cancel, at most radius steps, then join what is left
        ok = (a >= 0) & (b >= 0)
        u, v = np.where(ok, a, 0), np.where(ok, b, 0)
        live = np.flatnonzero(cancels(u, v))
        while live.size:
            u[live], v[live] = parent[u[live]], tail[v[live]]
            live = live[cancels(u[live], v[live])]
        return np.where(ok & (length[u] + length[v] <= radius), join(u, v), -1)

    def labels():
        words = [()]
        for p, c in zip(parent[1:].tolist(), last[1:].tolist()):
            words.append(words[p] + (letters[c],))
        return words

    return GroupDualWindow(f"{key} r={radius}", labels, length, inv, product, 160, radius)


def _zpow_ball(d, m, radius):
    """The element count of the radius ball of Z(d)^m, or ELEMENT_CAP + 1
    when it is larger, before any array of the window exists: the length
    polynomial of one coordinate raised to the m-th power and truncated at
    degree t, its coefficients cut at ELEMENT_CAP + 1 after each product
    (so int64 holds them exactly).  t doubles from 1 to the radius, so a
    ball far past the cap is told at a small t."""
    top, t = ELEMENT_CAP + 1, 1

    def mul(a, b):
        return np.minimum(np.convolve(a, b)[:t + 1], top)

    while True:
        t = min(t, radius)
        # one coordinate of length 0, two of each length below d/2, one of d/2
        l = np.arange((t if d == 1 else min(t, d // 2)) + 1)
        base, power, k = np.where((l == 0) | (2 * l == d), 1, 2), np.ones(1, dtype=int), m
        while k:
            power = mul(power, base) if k & 1 else power
            k >>= 1
            base = mul(base, base) if k else base
        # past the group's diameter (the power's degree) a larger t adds none
        if power.sum() > ELEMENT_CAP or t == radius or len(power) <= t:
            return min(top, int(power.sum()))
        t *= 2


def _build_zpow(d, m, radius):
    """Window in (Z_d)^m for d >= 2, or Z^m for d = 1: an (n, m) array of
    coordinates, in [0, d) for d >= 2.  A product adds coordinates (mod d)
    and finds the sum by its key, its coordinate row read as one np.void."""
    key = f"Z({d})^{m}" if m > 1 else f"Z({d})"

    def normal(c):
        return c % d if d >= 2 else c

    def length(c):
        return (np.minimum(c, d - c) if d >= 2 else np.abs(c)).sum(-1)

    def row_keys(c):
        # one coordinate is its own key, and an int compares faster than a void
        return np.ascontiguousarray(c, dtype=np.int64).view(
            np.int64 if m == 1 else np.dtype((np.void, 8 * m)))[:, 0]

    if _zpow_ball(d, m, radius) > ELEMENT_CAP:
        raise _too_large(key, radius)
    # a sphere element's 2m neighbours, counted before the generators exist
    linalg.byte_slices(1, 16 * m * m, "sphere_growth")
    gens = np.concatenate([np.eye(m, dtype=int), -np.eye(m, dtype=int)])
    spheres = [np.zeros((1, m), dtype=int)]
    for l in range(1, radius + 1):
        found = [np.empty((0, m), dtype=int)]
        for part in linalg.byte_slices(len(spheres[-1]), 16 * m * m, "sphere_growth"):
            grown = normal(spheres[-1][part, None] + gens).reshape(-1, m)
            found.append(grown[length(grown) == l])
        found = np.concatenate(found)
        if not len(found):
            break  # the ball is the whole group
        spheres.append(found[np.unique(row_keys(found), return_index=True)[1]])
    coords = np.concatenate(spheres)
    lengths = np.repeat(np.arange(len(spheres)), [len(s) for s in spheres])
    # repr order within a length: coordinate by coordinate, as strings
    values = np.unique(coords)
    rank = np.empty(len(values), dtype=int)
    rank[sorted(range(len(values)), key=lambda i: str(values[i]))] = np.arange(len(values))
    order = np.lexsort([*rank[np.searchsorted(values, coords)].T[::-1], lengths])
    coords, lengths = coords[order], lengths[order]

    keys = row_keys(coords)
    by_key = np.argsort(keys)
    keys = keys[by_key]

    def find(c):
        k = row_keys(c)
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return np.where(keys[pos] == k, by_key[pos], -1)

    def product(a, b):
        return np.where((a < 0) | (b < 0), -1, find(normal(coords[a] + coords[b])))

    return GroupDualWindow(f"{key} r={radius}", lambda: list(map(tuple, coords.tolist())), lengths,
                           find(normal(-coords)), product, 8 * (6 * m + 8), radius)


def _build_custom(table, radius):
    """A window from an explicit table: one (d+1)^2 product lookup, whose
    last row and column (index -1) stand for an undefined factor."""
    given, lengths = list(table["elements"]), list(table["lengths"])
    order = sorted(range(len(given)), key=lambda i: (lengths[i], repr(given[i])))
    elements = [given[i] for i in order]
    index = {g: i for i, g in enumerate(elements)}
    inverse = dict(zip(given, table["inverse"]))
    lookup = np.full((len(elements) + 1,) * 2, -1)
    for a, b, p in table["product"]:
        if a in index and b in index:
            lookup[index[a], index[b]] = index.get(p, -1)
    return GroupDualWindow(table.get("label", "custom"), lambda: elements,
                           [lengths[i] for i in order],
                           np.array([index.get(inverse[g], -1) for g in elements], dtype=int),
                           lambda a, b: lookup[a, b], 8, radius)


# the least arguments of each group kind: free(k), Z(d)^m, cyclic(N); every
# argument is also below 2^63, as the window's index arrays are int64
_LEAST_ARGS = {"free": (1,), "Z": (1, 1), "cyclic": (2,)}


def build_window(group, radius):
    """Build a GroupDualWindow.

    group: ("free", k) | ("Z", d, m) | ("cyclic", N) | ("custom", table)
           or a string like "free(2)", "Z(1)", "Z(3)^2", "cyclic(6)".
    Raises SchemaError for k, d or m < 1, for N < 2 and for an argument
    >= 2^63.
    """
    if radius < 1:
        raise SchemaError("radius must be >= 1")
    if isinstance(group, str):
        group = parse_group_spec(group)
    kind = group[0]
    if kind == "custom":
        return _build_custom(group[1], radius)
    if kind not in _LEAST_ARGS:
        raise SchemaError(f"unknown group kind {kind!r}")
    args, least = tuple(int(x) for x in group[1:]), _LEAST_ARGS[kind]
    if len(args) != len(least) or any(not lo <= x < 2 ** 63 for x, lo in zip(args, least)):
        raise SchemaError(f"{kind} group arguments {args} out of range "
                          f"(least {least}, below 2^63)")
    if kind == "free":
        return _build_free(args[0], radius)
    d, m = args if kind == "Z" else (args[0], 1)
    return _build_zpow(d, m, radius)


def names_group(s):
    """Whether s starts with a group family: "free(", "Z(" or "cyclic("."""
    return s.strip().startswith(tuple(k + "(" for k in _LEAST_ARGS))


def parse_group_spec(s):
    """The group tuple of a string group spec, for build_window; SchemaError
    when it does not parse."""
    s = s.strip()
    kind = next((k for k in _LEAST_ARGS if s.startswith(k + "(")), None)
    try:
        if kind == "Z":
            inner, _, power = s.partition(")^")
            return ("Z", int(inner[2:].rstrip(")")), int(power) if power else 1)
        if kind is not None and s.endswith(")"):
            return (kind, int(s[len(kind) + 1:-1]))
    except ValueError:
        pass
    raise SchemaError(f"cannot parse group spec {s!r}")
