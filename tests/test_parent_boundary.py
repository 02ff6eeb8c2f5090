"""Only qgwb.presets and qgwb.windows read parent specs.

presets parses, caches and classifies every parent spec, and windows reads
the group specs it hands on.  Every other module takes a parent, or the
registry's reading of one, and branches on structure; so outside those two
no string constant (docstrings aside) holds the " r=" radius form or a
family prefix, except a whole spec given to load_preset, and no code reads
`parent.key`.  The named exception: the two grading lines of qgwb.cli, which
test `parent.key.startswith("dual-Z(2")` until the benchmark goldens that
record their exit codes are regenerated.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qgwb

SRC = Path(qgwb.__file__).resolve().parent
READERS = {"presets.py", "windows.py"}
MARKERS = (" r=", "dual-Z(", "fn-Z(", "free(", "Z(", "cyclic(")
GRADING = {("cli.py", "grading_action"), ("cli.py", "_run_action_suite")}


def _docstrings(tree):
    nodes = [tree, *(n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def _is_parent_key(node):
    return (isinstance(node, ast.Attribute) and node.attr == "key"
            and isinstance(node.value, ast.Name) and node.value.id == "parent")


def _allowed(tree, module):
    """ids of the nodes the rules let through: a load_preset call's first
    argument, and both sides of a grading line."""
    allowed = set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        if name == "load_preset" and call.args:
            allowed.add(id(call.args[0]))
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        if (module, fn.name) not in GRADING:
            continue
        for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
            func = call.func
            if (isinstance(func, ast.Attribute) and func.attr == "startswith"
                    and _is_parent_key(func.value) and len(call.args) == 1
                    and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value == "dual-Z(2"):
                allowed |= {id(func.value), id(call.args[0])}
    return allowed


def _offences(source, module):
    tree = ast.parse(source)
    skip = _docstrings(tree) | _allowed(tree, module)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(m in node.value for m in MARKERS)):
            found.append(f"{module}:{node.lineno} literal {node.value!r}")
        if _is_parent_key(node):
            found.append(f"{module}:{node.lineno} reads parent.key")
    return found


def test_only_the_registry_reads_parent_specs():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in READERS)
    assert modules
    assert [o for p in modules for o in _offences(p.read_text(encoding="utf-8"), p.name)] == []


def test_the_guard_sees_a_spec_test():
    probe = ('def f(parent, spec):\n'
             '    """a docstring may say free(2) r=6"""\n'
             '    load_preset("Z(1)", radius=3)\n'
             '    return " r=" in spec or parent.key.startswith("fn-Z(")\n')
    assert sorted(_offences(probe, "probe.py")) == [
        "probe.py:4 literal ' r='", "probe.py:4 literal 'fn-Z('", "probe.py:4 reads parent.key"]
