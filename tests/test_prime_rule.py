"""A prime rank is checked in one place: where the rank enters.

``ModuliParams.__init__`` refuses a composite rank, so a function taking
params never re-checks it; ``special_hook`` takes a raw rank and keeps its
own guard.  A ``require_prime`` call anywhere else in ``src/pwcheck`` is
refused, so per-route guards cannot grow back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pwcheck"

# (module, qualified function name) of the only require_prime calls.
ALLOWED = {("epoly", "ModuliParams.__init__"), ("hookchar", "special_hook")}


def _callers(tree, module):
    """(module, scope) of each require_prime call, by name or attribute."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "require_prime":
                found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_guard_sees_a_require_prime_call():
    tree = ast.parse("def closed_e(p):\n    require_prime(p.n)\n\n"
                     "class C:\n    def f(self):\n        epoly.require_prime(2)\n")
    assert _callers(tree, "epoly") == {("epoly", "closed_e"), ("epoly", "C.f")}


def test_require_prime_is_called_only_where_a_rank_enters():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        callers |= _callers(ast.parse(path.read_text()), path.stem)
    assert callers == ALLOWED, "a rank is checked prime once, in ModuliParams or special_hook"
