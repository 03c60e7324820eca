"""Every annotation in the package resolves.

No module defers its annotations, so each is evaluated where it is
written, and a module whose annotation names an unbound name fails to
import.  A reference to the class being defined is quoted, as in
``-> "LaurentPoly"``, and stays a string until something such as a
documentation tool asks for it with ``typing.get_type_hints``; a quoted
name the module does not bind then raises ``NameError``.  An annotation
names a builtin, such as ``int`` for a coefficient, or a name its module
imports or defines.
"""

import typing

import pytest

from package_code import MODULES, functions


def test_every_module_is_scanned():
    assert {m.__name__ for m in MODULES} >= {
        "pwcheck.cli", "pwcheck.epoly", "pwcheck.filtration", "pwcheck.hitchin",
        "pwcheck.hookchar", "pwcheck.laurent", "pwcheck._frozen"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    failures = {}
    for qualname, function in functions(module):
        try:
            typing.get_type_hints(function)
        except Exception as exc:  # report every failure, not just the first
            failures[qualname] = repr(exc)
    assert failures == {}
