"""The demos and the README session run as documented."""

import doctest
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name == "02_mirror_refinement.py":
        assert "equals the closed form:  True" in out


def test_readme_session():
    failures, tried = doctest.testfile(
        str(ROOT / "README.md"), module_relative=False)
    assert tried == 5
    assert failures == 0
