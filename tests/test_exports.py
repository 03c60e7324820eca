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


# Public methods of an exported class that the package itself never
# reads, each with the reason it stays.
KEPT_UNREAD = {
    "swap": "demo 02 exchanges the mirror's two variables",
    "to_json": "demo 04 writes a criterion report as JSON",
}


def _public_methods(cls):
    """The public methods and properties cls defines or inherits from a
    package class, as (defining class, name) pairs."""
    for owner in cls.__mro__:
        if owner.__module__.startswith("pwcheck."):
            for name, value in vars(owner).items():
                if not name.startswith("_") and isinstance(
                        value, (types.FunctionType, classmethod, staticmethod, property)):
                    yield owner.__name__, name


def test_every_export_is_used_inside_the_package():
    # An export, or a public method of an exported class, that no module
    # of the package reads is dead code kept alive only by its export;
    # import statements do not count.
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
    exports = [getattr(pwcheck, name) for name in pwcheck.__all__]
    methods = {(owner, name) for cls in exports if isinstance(cls, type)
               for owner, name in _public_methods(cls)}
    assert sorted(f"{owner}.{name}" for owner, name in methods
                  if name not in read and name not in KEPT_UNREAD) == []
    # Each allowance still names a method.
    assert KEPT_UNREAD.keys() <= {name for _, name in methods}
