"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
is a string until something such as a documentation tool asks for it
with ``typing.get_type_hints``; a name the module does not bind then
raises ``NameError``.  An annotation names a builtin, such as ``int``
for a coefficient, or a name its module imports.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import pwcheck

MODULES = [importlib.import_module(f"pwcheck.{info.name}")
           for info in pkgutil.iter_modules(pwcheck.__path__)]


def _functions(module):
    """(qualified name, function) for every function, method, static
    method and class method defined in module."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
                elif isinstance(member, property):
                    yield f"{name}.{attr}", member.fget


def test_every_module_is_scanned():
    assert {m.__name__ for m in MODULES} >= {
        "pwcheck.cli", "pwcheck.epoly", "pwcheck.filtration", "pwcheck.hitchin",
        "pwcheck.hookchar", "pwcheck.laurent", "pwcheck._frozen"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    failures = {}
    for qualname, function in _functions(module):
        try:
            typing.get_type_hints(function)
        except Exception as exc:  # report every failure, not just the first
            failures[qualname] = repr(exc)
    assert failures == {}
