"""The package's export list names exactly what the package binds, and
a bare import of the package binds each export on its first read."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import pwcheck

# The package's modules that `pwcheck.<module>` gives after a bare import;
# `cli` is not one of them.
MODULES = sorted({path.stem for path in Path(pwcheck.__file__).parent.glob("*.py")}
                 - {"__init__", "cli"})


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


def _is_package_module(name):
    return name == "pwcheck" or name.startswith("pwcheck.")


@pytest.fixture
def fresh():
    """The package imported anew, with none of its modules loaded; the
    modules loaded before are put back afterwards."""
    saved = {name: module for name, module in sys.modules.items() if _is_package_module(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield importlib.import_module("pwcheck")
    finally:
        for name in [name for name in sys.modules if _is_package_module(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_a_bare_import_binds_an_export_on_its_first_read(fresh):
    assert set(vars(fresh)).isdisjoint(fresh.__all__ + MODULES)
    value = fresh.LaurentPoly
    assert vars(fresh)["LaurentPoly"] is value


def test_every_export_is_the_object_its_module_defines(fresh):
    for name in fresh.__all__:
        value = getattr(fresh, name)
        module = sys.modules[value.__module__]
        assert module is getattr(fresh, value.__module__.removeprefix("pwcheck.")), name
        assert getattr(module, name) is value, name


def test_every_module_resolves_as_an_attribute(fresh):
    for module in MODULES:
        assert getattr(fresh, module) is sys.modules[f"pwcheck.{module}"]


def test_an_unknown_name_raises_attribute_error(fresh):
    with pytest.raises(AttributeError, match="^module 'pwcheck' has no attribute 'no_such_name'$"):
        fresh.no_such_name


def test_dir_lists_every_export(fresh):
    assert set(fresh.__all__ + MODULES) <= set(dir(fresh))
