"""Only qgwb.linalg and qgwb.fock reach scipy.sparse, only linalg reads a
store's csr form, and every sparse matrix is a csr_array.

The csr layout of the structure-constant kernels is linalg's decision:
every other module forms its sparse products through linalg (the
Structure stores and contract), and the Fock layer keeps its own sparse
operators.  So no other module imports scipy.sparse, in any form, or
reads it as an attribute of scipy, and no module but linalg calls
`.csr(` on a store: a product with that matrix is a contract call.
One sparse type means no module names the sparse matrix class, the coo
arrays or a conversion to them, and `linalg.frob` takes dense arrays
alone: `frob_stack` is the one norm of a sparse difference.
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


RETIRED = {"csr_matrix", "coo_array", "SparseStack", "tocoo"}


def _identifiers(tree):
    """(name, line) of each name, attribute, imported name and definition
    in an ast."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name, node.lineno


def _retired(source, module):
    return sorted(f"{module}:{line}" for name, line in _identifiers(ast.parse(source))
                  if name in RETIRED)


def test_every_sparse_matrix_is_a_csr_array():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [o for p in modules for o in _retired(p.read_text(encoding="utf-8"), p.name)] == []


def test_the_type_guard_sees_every_form():
    probe = ("from scipy.sparse import coo_array\n"
             "a = sparse.csr_matrix(x)\n"
             "b = m.tocoo(copy=True)\n"
             "class SparseStack:\n"
             "    pass\n"
             "c = csr_array(x)\n")
    assert _retired(probe, "probe.py") == ["probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4"]


def test_frob_has_no_sparse_branch():
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    frob = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "frob")
    assert not [name for name, _ in _identifiers(frob) if "sparse" in name]
