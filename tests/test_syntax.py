"""The package and the demos parse as the oldest supported Python.

``pyproject.toml`` declares ``requires-python = ">=3.10"``, and the test
suite runs on a newer interpreter, which would accept syntax that 3.10
refuses.  ``ast.parse`` with ``feature_version`` refuses most such syntax,
``except*`` for one, though not every form: it is a check, not a 3.10 run.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "pwcheck").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _oldest_python():
    pyproject = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    return int(major), int(minor)


def test_every_file_is_collected():
    assert len(FILES) == 13


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_oldest_python())
