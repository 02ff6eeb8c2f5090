"""Only qgwb.linalg and qgwb.fock reach scipy.sparse, and only linalg reads
a store's csr form.

The csr layout of the structure-constant kernels is linalg's decision:
every other module forms its sparse products through linalg (the
Structure stores and contract), and the Fock layer keeps its own sparse
operators.  So no other module imports scipy.sparse, in any form, or
reads it as an attribute of scipy, and no module but linalg calls
`.csr(` on a store: a product with that matrix is a contract call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qgwb

SRC = Path(qgwb.__file__).resolve().parent
OWNERS = {"linalg.py", "fock.py"}


def _is_sparse(name):
    return name == "scipy.sparse" or name.startswith("scipy.sparse.")


def _offences(source, module):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(_is_sparse(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = _is_sparse(node.module or "") or any(
                _is_sparse(f"{node.module}.{alias.name}") for alias in node.names)
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "sparse"
                   and isinstance(node.value, ast.Name) and node.value.id == "scipy")
        if hit:
            found.append(f"{module}:{node.lineno}")
    return found


def test_only_linalg_and_fock_reach_scipy_sparse():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in OWNERS)
    assert modules
    assert [o for p in modules for o in _offences(p.read_text(encoding="utf-8"), p.name)] == []


def test_the_guard_sees_every_form():
    probe = ("import scipy.sparse as sp\n"
             "from scipy import sparse\n"
             "from scipy.sparse import csr_matrix\n"
             "import scipy\n"
             "x = scipy.sparse.eye(2)\n"
             "import scipy.linalg\n"
             "from scipy import linalg\n")
    assert _offences(probe, "probe.py") == ["probe.py:1", "probe.py:2", "probe.py:3", "probe.py:5"]


def _csr_reads(source, module):
    return sorted(f"{module}:{node.lineno}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "csr")


def test_only_linalg_reads_a_store_csr_form():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert modules
    assert [o for p in modules for o in _csr_reads(p.read_text(encoding="utf-8"), p.name)] == []


def test_the_csr_guard_sees_a_read():
    probe = ("a = g.mult_nz.csr(1) @ pairs\n"
             "b = csr\n"
             "c = store.permuted((1, 0, 2)).csr(2)\n")
    assert _csr_reads(probe, "probe.py") == ["probe.py:1", "probe.py:3"]
