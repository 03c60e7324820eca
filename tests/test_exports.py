"""The package's export list names exactly what the package binds."""

import types

import pwcheck


def test_all_is_sorted_and_matches_the_public_names():
    exported = pwcheck.__all__
    assert exported == sorted(exported)
    for name in exported:
        assert hasattr(pwcheck, name), name
    public = {name for name, value in vars(pwcheck).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public and len(exported) == len(public)
