"""Structure-constant documents of presets written in another basis."""

import numpy as np

from qgwb import presets


def pair(z):
    return [float(z.real), float(z.imag)]


def basis_changed_document(name, p):
    """The document of a preset in the basis of the columns of p: the
    structure constants, the unit, counit, Haar state, star, antipode and
    irrep coefficients each moved by p or its inverse."""
    g = presets.load_preset(name)
    pi = np.linalg.inv(p)

    def rows(t):
        return [[int(i), int(j), int(k), *pair(t[i, j, k])] for i, j, k in np.argwhere(t != 0)]

    return {"name": f"rotated {name}", "dim": g.d,
            "mult": rows(np.einsum("ia,jb,ijk,ck->abc", p, p, g.mult, pi)),
            "comult": rows(np.einsum("ia,ijk,bj,ck->abc", p, g.comult, pi, pi)),
            "unit": [pair(z) for z in pi @ g.unit],
            "counit": [pair(z) for z in p.T @ g.counit],
            "haar": [pair(z) for z in p.T @ g.haar],
            "star": [[pair(z) for z in row] for row in pi @ g.star @ np.conj(p)],
            "antipode": [[pair(z) for z in row] for row in pi @ g.antipode @ p],
            "irreps": [{"dim": r.dim, "matrix": [[[pair(z) for z in pi @ r.coeffs[i, j]]
                                                  for j in range(r.dim)] for i in range(r.dim)]}
                       for r in g.irreps]}


def rotated_document(name, seed=0):
    """The document of a preset in a seeded orthogonal basis, the Q factor of
    a normal matrix."""
    d = presets.load_preset(name).d
    return basis_changed_document(name, np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0])


def relabelled_document(name, seed=0):
    """The document of a preset with its basis vectors relabelled by a seeded
    permutation s that is not an involution: e'_a = e_{s[a]}."""
    d = presets.load_preset(name).d
    rng = np.random.default_rng(seed)
    s = rng.permutation(d)
    while np.array_equal(s[s], np.arange(d)):
        s = rng.permutation(d)
    return basis_changed_document(name, np.eye(d)[:, s])
