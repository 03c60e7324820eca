"""The package's export list names exactly what the package binds."""

import ast
import types
from pathlib import Path

import pwcheck


def test_all_is_sorted_and_matches_the_public_names():
    exported = pwcheck.__all__
    assert exported == sorted(exported)
    for name in exported:
        assert hasattr(pwcheck, name), name
    public = {name for name, value in vars(pwcheck).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public and len(exported) == len(public)


def test_every_export_is_used_inside_the_package():
    # An export that no other module of the package reads is dead code
    # kept alive only by its export; import statements do not count.
    src = Path(pwcheck.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(pwcheck.__all__) - read) == []
