"""Only qgwb.linalg and qgwb.fock reach scipy.sparse.

The csr layout of the structure-constant kernels is linalg's decision:
every other module forms its sparse products through linalg (the
Structure stores, contract, structure_sum_sparse), and the Fock layer
keeps its own sparse operators.  So no other module imports scipy.sparse,
in any form, or reads it as an attribute of scipy.
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
