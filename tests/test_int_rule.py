"""The package spells "an int that is not a bool" one way: ``type(x) is int``.

``isinstance(x, int)`` also takes a bool and any other int subclass, so
an ``isinstance`` test whose class argument names ``int`` or ``bool`` is
refused everywhere in ``src/pwcheck`` except the two coefficient helpers,
which promote or refuse a scalar rather than check an integer input.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pwcheck"

# (module, qualified function name) pairs that may name int or bool.
ALLOWED = {("laurent", "_coerce"), ("laurent", "_SparsePoly._as_poly")}


def _offences(tree, module):
    """Lines with an isinstance call naming int or bool outside ALLOWED."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and (module, scope) not in ALLOWED):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            if names & {"int", "bool"}:
                found.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sorted(found)


def test_the_guard_sees_an_isinstance_int():
    tree = ast.parse("def f(x):\n    return isinstance(x, (bool, str)) or isinstance(x, int)\n")
    assert _offences(tree, "laurent") == [2]
    assert _offences(ast.parse("def _coerce(x):\n    isinstance(x, int)\n"), "laurent") == []


def test_no_isinstance_names_int_or_bool():
    offences = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _offences(ast.parse(path.read_text()), path.stem)
        if lines:
            offences[path.name] = lines
    assert offences == {}, "use type(x) is int, or _frozen.require_int"
