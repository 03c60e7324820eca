"""The package spells "an int that is not a bool" one way: ``type(x) is int``.

``isinstance(x, int)`` also takes a bool and any other int subclass, so
an ``isinstance`` test whose class argument names ``int`` or ``bool`` is
refused everywhere in ``src/pwcheck``, the coefficient checks included:
every coefficient is an exact int too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pwcheck"


def _offences(tree):
    """Lines with an isinstance call naming int or bool."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            if names & {"int", "bool"}:
                found.add(node.lineno)
    return sorted(found)


def test_the_guard_sees_an_isinstance_int():
    tree = ast.parse("def f(x):\n    return isinstance(x, (bool, str)) or isinstance(x, int)\n")
    assert _offences(tree) == [2]
    # No function is exempt, not even a coefficient check.
    assert _offences(ast.parse("def _value(x):\n    isinstance(x, int)\n")) == [2]


def test_no_isinstance_names_int_or_bool():
    offences = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _offences(ast.parse(path.read_text()))
        if lines:
            offences[path.name] = lines
    assert offences == {}, "use type(x) is int, or _frozen.require_int"
