"""JSON serialisation for structure-constant documents and derived objects.

The structure-constant document is the exchange format for finite quantum
groups: fields dim, basis, mult, unit, comult, counit, star, antipode,
optional haar, irreps.  Sparse tensors are arrays of [i, j, k, re, im]
rows; coefficient vectors encode complex numbers as [re, im] pairs
(plain numbers are accepted on input).  All indices are 0-based.
"""

from __future__ import annotations

import json

import numpy as np

from .core import FiniteQG, Irrep
from .errors import SchemaError


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def _pair2c(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise SchemaError(f"expected number or [re, im] pair, got {v!r}")


def _vector(doc, key, d):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    v = [_pair2c(x) for x in doc[key]]
    if len(v) != d:
        raise SchemaError(f"field {key!r} must have length {d}")
    return np.array(v)


def _matrix(doc, key, d):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    rows = doc[key]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise SchemaError(f"field {key!r} must be {d}x{d}")
    return np.array([[_pair2c(x) for x in r] for r in rows])


def _sparse_tensor(doc, key, d):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    out = np.zeros((d, d, d), dtype=complex)
    for row in doc[key]:
        if len(row) != 5:
            raise SchemaError(f"{key!r} rows must be [i, j, k, re, im]")
        i, j, k, re, im = row
        if not all(0 <= int(x) < d for x in (i, j, k)):
            raise SchemaError(f"{key!r} index out of range in {row!r}")
        out[int(i), int(j), int(k)] += complex(float(re), float(im))
    return out


def qg_from_dict(doc, key="document") -> FiniteQG:
    """Build and validate a FiniteQG from a structure-constant document."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if "dim" not in doc:
        raise SchemaError("missing field 'dim'")
    d = int(doc["dim"])
    if d < 1:
        raise SchemaError("dim must be positive")
    basis = doc.get("basis", [f"e{i}" for i in range(d)])
    mult = _sparse_tensor(doc, "mult", d)
    comult = _sparse_tensor(doc, "comult", d)
    unit = _vector(doc, "unit", d)
    counit = _vector(doc, "counit", d)
    star = _matrix(doc, "star", d)
    antipode = _matrix(doc, "antipode", d)
    haar = _vector(doc, "haar", d) if "haar" in doc else None
    if "irreps" not in doc:
        raise SchemaError("missing field 'irreps'")
    irreps = []
    for rec in doc["irreps"]:
        if "dim" not in rec or "matrix" not in rec:
            raise SchemaError("irrep records need 'dim' and 'matrix'")
        n = int(rec["dim"])
        mat = rec["matrix"]
        if len(mat) != n or any(len(r) != n for r in mat):
            raise SchemaError("irrep matrix must be n x n of coefficient vectors")
        coeffs = np.zeros((n, n, d), dtype=complex)
        for i in range(n):
            for j in range(n):
                vec = [_pair2c(x) for x in mat[i][j]]
                if len(vec) != d:
                    raise SchemaError("irrep coefficient vector has wrong length")
                coeffs[i, j] = vec
        irreps.append(Irrep(n, coeffs))
    return FiniteQG(doc.get("name", key), mult, unit, comult, counit, star,
                    antipode, irreps, haar=haar, basis_names=basis)


def qg_to_dict(g: FiniteQG) -> dict:
    def tensor_rows(t):
        rows = []
        for (i, j, k) in np.argwhere(np.abs(t) > 0):
            z = t[i, j, k]
            rows.append([int(i), int(j), int(k), float(z.real), float(z.imag)])
        return rows

    return {
        "name": g.key,
        "dim": g.d,
        "basis": list(g.basis_names),
        "mult": tensor_rows(g.mult),
        "comult": tensor_rows(g.comult),
        "unit": [_c2pair(z) for z in g.unit],
        "counit": [_c2pair(z) for z in g.counit],
        "star": [[_c2pair(z) for z in row] for row in g.star],
        "antipode": [[_c2pair(z) for z in row] for row in g.antipode],
        "haar": [_c2pair(z) for z in g.haar],
        "irreps": [
            {"dim": r.dim,
             "matrix": [[[_c2pair(z) for z in r.coeffs[i, j]]
                         for j in range(r.dim)] for i in range(r.dim)]}
            for r in g.irreps
        ],
    }


def load_qg(path_or_doc) -> FiniteQG:
    """Load a validated FiniteQG from a JSON file path or a parsed dict."""
    if isinstance(path_or_doc, dict):
        return qg_from_dict(path_or_doc)
    with open(path_or_doc, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return qg_from_dict(doc, key=str(path_or_doc))
