"""Built-in quantum groups and windows, and the one reader of parent specs.

The finite quantum group presets span the commutative (function algebras),
cocommutative (group algebras) and genuinely quantum (the 8-dimensional
Kac-Paljutkin algebra) Kac cases.  Windows cover free groups and free
abelian / cyclic groups.  `parse` reads a parent spec without building
anything; `load_preset` builds each preset or window once per process.
"""

from __future__ import annotations

import os
from collections import namedtuple

import numpy as np

from .core import FiniteQG, Irrep
from .errors import SchemaError, UnknownPreset
from .serialize import load_qg
from .windows import build_window, names_group, parse_group_spec

# ---------------------------------------------------------------------------
# group algebras C[G] and function algebras C(G) of a finite group
# ---------------------------------------------------------------------------
# A group is its product table: table[i, j] is the index of g_i g_j, and
# element 0 is the identity.

def _group_algebra(key, table, names) -> FiniteQG:
    """C[G] with grouplike basis; irreps are the |G| grouplikes."""
    d = len(table)
    idx = np.arange(d)
    inv = np.argmax(table == 0, axis=1)
    # complex from the start, so FiniteQG keeps these arrays and no copy
    mult = np.zeros((d, d, d), dtype=complex)
    mult[idx[:, None], idx, table] = 1.0
    comult = np.zeros((d, d, d), dtype=complex)
    comult[idx, idx, idx] = 1.0
    perm = np.zeros((d, d))
    perm[inv, idx] = 1.0
    delta_e = np.eye(d)[0]
    irreps = [(1, e.reshape(1, 1, d)) for e in np.eye(d)]
    return FiniteQG(key, mult, delta_e, comult, np.ones(d), perm, perm,
                    irreps, haar=delta_e, basis_names=names)


def _function_algebra(key, table, names, irreps) -> FiniteQG:
    """C(G) with delta-function basis; `irreps` are the (n, n, |G|)
    coefficient arrays of the irreducible representations of G."""
    d = len(table)
    idx = np.arange(d)
    inv = np.argmax(table == 0, axis=1)
    mult = np.zeros((d, d, d), dtype=complex)
    mult[idx, idx, idx] = 1.0
    comult = np.zeros((d, d, d), dtype=complex)
    comult[table, idx[:, None], idx] = 1.0
    antipode = np.zeros((d, d))
    antipode[inv, idx] = 1.0
    return FiniteQG(key, mult, np.ones(d), comult, np.eye(d)[0], np.eye(d), antipode,
                    [(len(c), c) for c in irreps], haar=np.full(d, 1.0 / d),
                    basis_names=names)


def _cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


def dual_z(n: int) -> FiniteQG:
    """C[Z_n] with grouplike basis; irreps are the n grouplikes."""
    return _group_algebra(f"dual-Z({n})", _cyclic_table(n), [f"g{i}" for i in range(n)])


def fn_z(n: int) -> FiniteQG:
    """C(Z_n) with delta-function basis; irreps are the n characters."""
    k = np.arange(n)
    chars = np.exp(2j * np.pi / n) ** (k[:, None] * k)
    return _function_algebra(f"fn-Z({n})", _cyclic_table(n), [f"d{i}" for i in range(n)],
                             chars[:, None, None, :])


_S3 = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
# element g as a map i -> g[i]; composition (g h)[i] = g[h[i]]
_S3_TABLE = np.array([[_S3.index(tuple(g[i] for i in h)) for h in _S3] for g in _S3])


def fn_s3() -> FiniteQG:
    """C(S_3); irreps: trivial, sign, and the 2-dim standard representation
    (real orthogonal, from the permutation action on sum-zero vectors)."""
    sign = [(-1) ** sum(g[a] > g[b] for a, b in ((0, 1), (0, 2), (1, 2))) for g in _S3]
    q = np.array([[1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [-1 / np.sqrt(2), 1 / np.sqrt(6)],
                  [0.0, -2 / np.sqrt(6)]])
    std = np.stack([q.T @ np.eye(3)[:, g] @ q for g in _S3], axis=-1)
    irreps = [np.ones((1, 1, 6)), np.reshape(sign, (1, 1, 6)), std]
    return _function_algebra("fn-S3", _S3_TABLE, ["".join(map(str, g)) for g in _S3], irreps)


def grp_s3() -> FiniteQG:
    """C[S_3]; the six grouplikes are the irreducible corepresentations."""
    return _group_algebra("grp-S3", _S3_TABLE, ["l" + "".join(map(str, g)) for g in _S3])


# ---------------------------------------------------------------------------
# the 8-dimensional Kac-Paljutkin quantum group
# ---------------------------------------------------------------------------

def kac_paljutkin() -> FiniteQG:
    """The 8-dimensional quantum group that is neither commutative nor
    cocommutative.

    Presentation: generators x, y, z with x^2 = y^2 = 1, xy = yx,
    zx = yz, zy = xz, z^2 = (1 + x + y - xy)/2, x and y grouplike and

        Delta(z) = ((1 (x) 1 + 1 (x) x + y (x) 1 - y (x) x) / 2)(z (x) z).

    Basis 1, x, y, xy, z, xz, yz, xyz (index g + 4k).  Irrep dimensions
    {1, 1, 1, 1, 2}; the 2-dim corepresentation is

        u = 1/2 [[ z + xz,  yz - xyz ],
                 [ z - xz,  yz + xyz ]].
    """
    d, g = 8, np.arange(4)  # g in Z_2 x Z_2 coded as two bits: the product is XOR
    sigma = ((g & 1) << 1) | (g >> 1)  # the x <-> y swap
    tvec = np.array([0.5, 0.5, 0.5, -0.5])  # z^2 = (1 + x + y - xy)/2
    gi, ki = np.arange(d) & 3, np.arange(d) >> 2

    # (g1 z^k1)(g2 z^k2) = g1 sigma^k1(g2) z^(k1 + k2), and z^2 = t
    gg = gi[:, None] ^ np.where(ki[:, None] == 1, sigma[gi], gi)
    kk = ki[:, None] + ki
    mult = np.zeros((d, d, d))
    i, j = np.nonzero(kk < 2)
    mult[i, j, gg[i, j] + 4 * kk[i, j]] = 1.0
    i, j = np.nonzero(kk == 2)
    mult[i[:, None], j[:, None], gg[i, j][:, None] ^ g] = tvec

    comult = np.zeros((d, d, d))
    comult[g, g, g] = 1.0
    # Delta(w z) = (w (x) w) Delta(z)
    for (gp, gq), v in {(0, 0): 0.5, (0, 1): 0.5, (2, 0): 0.5, (2, 1): -0.5}.items():
        comult[g + 4, (g ^ gp) + 4, (g ^ gq) + 4] = v

    antipode = np.zeros((d, d))
    antipode[g, g] = antipode[sigma + 4, g + 4] = 1.0
    star = np.zeros((d, d))
    star[g, g] = 1.0
    # (w z)^* = z^{-1} w = (z^2) z w = t sigma(w) z
    star[(g[:, None] ^ sigma) + 4, g + 4] = tvec[:, None]

    two = np.zeros((2, 2, d))
    two[..., 4:] = 0.5 * np.array([[[1, 1, 0, 0], [0, 0, 1, -1]],
                                   [[1, -1, 0, 0], [0, 0, 1, 1]]])
    irreps = [Irrep(1, np.eye(d)[a].reshape(1, 1, d)) for a in range(4)] + [Irrep(2, two)]

    names = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
    return FiniteQG("kac-paljutkin", mult, np.eye(d)[0], comult, np.ones(d), star,
                    antipode, irreps, haar=np.eye(d)[0], basis_names=names)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

PRESET_DIR_ENV = "QGWB_PRESET_DIR"
WINDOW_RADIUS = 4  # the radius of a window spec that carries none
# quantum-group family -> (constructor, argument range or None, listed arguments)
_FAMILIES = {
    "dual-Z": (dual_z, range(2, 65), [*range(2, 9), 12, 16, 24, 32, 48, 64]),
    "fn-Z": (fn_z, range(2, 65), [2, 3, 4, 6, 8]),
    "fn-S3": (fn_s3, None, [None]), "grp-S3": (grp_s3, None, [None]),
    "kac-paljutkin": (kac_paljutkin, None, [None])}
_WINDOWS_LISTED = ["free(1)", "free(2)", "free(3)", "Z(1)"]
_BUILT = {}  # (kind, key, radius) -> the parent, built once per process
Spec = namedtuple("Spec", "kind key radius")


def parse(spec) -> Spec:
    """Read a parent spec, building nothing.  kind is "window" or "qg" (a
    quantum-group preset or a document); key is (family, *argument) of a
    preset, the group tuple of a window and None for a document; radius is
    the R of a "NAME r=R" window, else None.  A spec that names a family
    but breaks its grammar or argument range raises SchemaError."""
    text = str(spec).strip()
    name, sep, r = text.rpartition(" r=")
    name = name.strip() if sep else text
    family, paren, arg = name.partition("(")
    args = _FAMILIES.get(family, (None, None))[1]
    try:
        if names_group(name):
            return Spec("window", parse_group_spec(name), int(r) if sep else None)
        if sep:
            raise SchemaError(f"a ' r=R' radius names a window, and {name!r} is no window preset")
        if args is not None and paren and name.endswith(")"):
            n = int(arg[:-1])
            if n not in args:
                raise SchemaError(f"{family}(n) shipped for {args.start} <= n <= {args[-1]}")
            return Spec("qg", (family, n), None)
    except ValueError as exc:
        raise SchemaError(f"cannot read parent {text!r}: {exc}") from None
    named = family in _FAMILIES and args is None and not paren
    return Spec("qg", (family,) if named else None, None)


def _target(spec, radius):
    """(kind, key, radius) of a spec and a radius: a window's radius is the
    spec's, else the given one, else WINDOW_RADIUS; a quantum group has none."""
    kind, key, carried = parse(spec)
    if radius is not None and (kind == "qg" or carried is not None):
        raise SchemaError(f"{str(spec).strip()!r} takes no radius")
    if kind == "window":
        radius = next(r for r in (carried, radius, WINDOW_RADIUS) if r is not None)
        if type(radius) is not int:
            raise SchemaError(f"a window radius is an integer, got {radius!r}")
    return kind, key, radius


def _document(spec):
    """The structure-constant document a spec names: the spec as a path,
    then NAME and NAME.json under each directory of QGWB_PRESET_DIR."""
    spec = str(spec).strip()
    extra = os.environ.get(PRESET_DIR_ENV)
    roots = extra.split(os.pathsep) if extra else []
    for path in [spec] + [os.path.join(root, n) for root in roots for n in (spec, spec + ".json")]:
        if os.path.isfile(path):
            try:
                return load_qg(path)
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"cannot read parent {spec!r}: {exc}") from exc
    raise UnknownPreset(f"unknown preset or document {spec!r}")


def build(spec, radius=None):
    """The parent a spec names, built anew; radius sets the radius of a
    window spec that carries none."""
    kind, key, radius = _target(spec, radius)
    if key is None:
        return _document(spec)
    return build_window(key, radius) if kind == "window" else _FAMILIES[key[0]][0](*key[1:])


def load_preset(spec, radius=None):
    """The parent a spec names, as `build` gives it: a preset or window
    built once per process and canonical key, a document read on each call."""
    target = _target(spec, radius)
    if target[1] is None:
        return _document(spec)
    if target not in _BUILT:
        _BUILT[target] = build(spec, radius)
    return _BUILT[target]


def is_dual_z(g) -> bool:
    """Whether g has the product, coproduct and irrep order (B) of the
    dual-Z(d) preset, d = g.d, read from its structure, whatever its name."""
    d, i = g.d, np.arange(g.d)
    return bool(d in _FAMILIES["dual-Z"][1] and np.count_nonzero(g.mult) == d * d
                and np.count_nonzero(g.comult) == d and np.array_equal(g.B, np.eye(d))
                and np.all(g.mult[i[:, None], i, _cyclic_table(d)] == 1)
                and np.all(g.comult[i, i, i] == 1))


def preset_names():
    """Stable sorted list of the shipped preset names."""
    return sorted([family if n is None else f"{family}({n})"
                   for family, (_, _, listed) in _FAMILIES.items() for n in listed]
                  + _WINDOWS_LISTED)


def preset_table():
    """Rows of (name, kind, dim, kac, max block dim) for every listed preset."""
    rows = []
    for name in preset_names():
        g = load_preset(name) if parse(name).kind == "qg" else None
        rows.append({"name": name, "kind": "window" if g is None else "qg",
                     "dim": None if g is None else g.d, "kac": True if g is None else g.kac,
                     "max_block_dim": 1 if g is None else g.max_block_dim})
    return rows
