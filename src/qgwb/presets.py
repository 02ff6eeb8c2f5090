"""Built-in quantum groups and windows.

The finite quantum group presets span the commutative (function algebras),
cocommutative (group algebras) and genuinely quantum (the 8-dimensional
Kac-Paljutkin algebra) Kac cases.  Windows cover free groups and free
abelian / cyclic groups.  Every preset is validated on construction and
built once per process.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import FiniteQG, Irrep
from .errors import SchemaError, UnknownPreset
from .windows import build_window

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


@functools.lru_cache(maxsize=None)
def dual_z(n: int) -> FiniteQG:
    """C[Z_n] with grouplike basis; irreps are the n grouplikes."""
    if not 2 <= n <= 64:
        raise SchemaError("dual-Z(n) shipped for 2 <= n <= 64")
    return _group_algebra(f"dual-Z({n})", _cyclic_table(n), [f"g{i}" for i in range(n)])


@functools.lru_cache(maxsize=None)
def fn_z(n: int) -> FiniteQG:
    """C(Z_n) with delta-function basis; irreps are the n characters."""
    if not 2 <= n <= 64:
        raise SchemaError("fn-Z(n) shipped for 2 <= n <= 64")
    k = np.arange(n)
    chars = np.exp(2j * np.pi / n) ** (k[:, None] * k)
    return _function_algebra(f"fn-Z({n})", _cyclic_table(n), [f"d{i}" for i in range(n)],
                             chars[:, None, None, :])


_S3 = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
# element g as a map i -> g[i]; composition (g h)[i] = g[h[i]]
_S3_TABLE = np.array([[_S3.index(tuple(g[i] for i in h)) for h in _S3] for g in _S3])


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def grp_s3() -> FiniteQG:
    """C[S_3]; the six grouplikes are the irreducible corepresentations."""
    return _group_algebra("grp-S3", _S3_TABLE, ["l" + "".join(map(str, g)) for g in _S3])


# ---------------------------------------------------------------------------
# the 8-dimensional Kac-Paljutkin quantum group
# ---------------------------------------------------------------------------

def _kp_gmul(g1, g2):
    # Z_2 x Z_2 coded as two bits
    return g1 ^ g2


def _kp_sigma(g):
    # the x <-> y swap
    return ((g & 1) << 1) | (g >> 1)


@functools.lru_cache(maxsize=None)
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
    d = 8
    tvec = np.array([0.5, 0.5, 0.5, -0.5])  # z^2 = (1 + x + y - xy)/2

    mult = np.zeros((d, d, d))
    for g1 in range(4):
        for k1 in range(2):
            for g2 in range(4):
                for k2 in range(2):
                    i, j = g1 + 4 * k1, g2 + 4 * k2
                    gg = _kp_gmul(g1, _kp_sigma(g2) if k1 else g2)
                    if k1 + k2 < 2:
                        mult[i, j, gg + 4 * (k1 + k2)] = 1.0
                    else:
                        for g3 in range(4):
                            mult[i, j, _kp_gmul(gg, g3)] += tvec[g3]

    unit = np.zeros(d)
    unit[0] = 1.0
    counit = np.ones(d)

    comult = np.zeros((d, d, d))
    for g in range(4):
        comult[g, g, g] = 1.0
    dz = {(4, 4): 0.5, (4, 5): 0.5, (6, 4): 0.5, (6, 5): -0.5}
    for g in range(4):
        for (p, q), v in dz.items():
            gp, kp = p & 3, p >> 2
            gq, kq = q & 3, q >> 2
            comult[g + 4, _kp_gmul(g, gp) + 4 * kp, _kp_gmul(g, gq) + 4 * kq] += v

    antipode = np.zeros((d, d))
    star = np.zeros((d, d))
    for g in range(4):
        antipode[g, g] = 1.0
        star[g, g] = 1.0
        antipode[_kp_sigma(g) + 4, g + 4] = 1.0
        # (w z)^* = z^{-1} w = (z^2) z w = t sigma(w) z
        for g3 in range(4):
            star[_kp_gmul(g3, _kp_sigma(g)) + 4, g + 4] += tvec[g3]

    haar = np.zeros(d)
    haar[0] = 1.0

    irreps = []
    for g in range(4):
        coeff = np.zeros((1, 1, d))
        coeff[0, 0, g] = 1.0
        irreps.append(Irrep(1, coeff))
    two = np.zeros((2, 2, d))
    two[0, 0, 4] = two[0, 0, 5] = 0.5
    two[0, 1, 6], two[0, 1, 7] = 0.5, -0.5
    two[1, 0, 4], two[1, 0, 5] = 0.5, -0.5
    two[1, 1, 6] = two[1, 1, 7] = 0.5
    irreps.append(Irrep(2, two))

    names = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
    return FiniteQG("kac-paljutkin", mult, unit, comult, counit, star,
                    antipode, irreps, haar=haar, basis_names=names)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_DUAL_Z_LISTED = list(range(2, 9)) + [12, 16, 24, 32, 48, 64]
_FN_Z_LISTED = [2, 3, 4, 6, 8]


def preset_names():
    """Stable sorted list of the shipped preset names."""
    names = [f"dual-Z({n})" for n in _DUAL_Z_LISTED]
    names += [f"fn-Z({n})" for n in _FN_Z_LISTED]
    names += ["fn-S3", "grp-S3", "kac-paljutkin"]
    names += ["free(1)", "free(2)", "free(3)", "Z(1)"]
    return sorted(names)


def is_window_preset(name: str) -> bool:
    return name.startswith("free(") or name.startswith("Z(") or name.startswith("cyclic(")


def load_preset(name: str, radius: int | None = None):
    """Build a preset by name; windows take a radius (default 4), and a
    quantum group preset takes none (SchemaError)."""
    name = name.strip()
    if is_window_preset(name):
        return _window(name, 4 if radius is None else radius)
    if name.startswith("dual-Z(") and name.endswith(")"):
        build = functools.partial(dual_z, int(name[7:-1]))
    elif name.startswith("fn-Z(") and name.endswith(")"):
        build = functools.partial(fn_z, int(name[5:-1]))
    else:
        build = {"fn-S3": fn_s3, "grp-S3": grp_s3, "kac-paljutkin": kac_paljutkin}.get(name)
        if build is None:
            raise UnknownPreset(f"unknown preset {name!r}")
    if radius is not None:
        raise SchemaError(f"{name!r} is a quantum group preset and takes no radius")
    return build()


@functools.lru_cache(maxsize=None, typed=True)
def _window(name, radius):
    return build_window(name, radius)


def preset_table():
    """Rows of (name, kind, dim, kac, max block dim) for every listed preset."""
    rows = []
    for name in preset_names():
        if is_window_preset(name):
            rows.append({"name": name, "kind": "window", "dim": None,
                         "kac": True, "max_block_dim": 1})
        else:
            g = load_preset(name)
            rows.append({"name": name, "kind": "qg", "dim": g.d,
                         "kac": g.kac, "max_block_dim": g.max_block_dim})
    return rows
