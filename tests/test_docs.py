"""The demos and the README session run as documented."""

import doctest
import pathlib
import runpy

import pytest

import pwcheck.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Lines a demo must print, where it states a check's outcome.
EXPECTED_LINES = {
    "02_mirror_refinement.py": ["equals the closed form:  True"],
    "03_character_sum.py": ["routes agree:         True", "matches closed E:     True"],
}


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    for expected in EXPECTED_LINES.get(path.name, []):
        assert expected in out


def test_readme_session():
    failures, tried = doctest.testfile(
        str(ROOT / "README.md"), module_relative=False)
    assert tried == 5
    assert failures == 0


def test_readme_check_table_is_the_verify_table():
    """README's table of verify's checks and their routes is cli._CHECKS."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = text.split("| check | routes it reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = []
    for row in rows.splitlines():
        _, check, routes, _ = row.split("|")
        table.append((check.strip(" `"), tuple(route.strip(" `") for route in routes.split(","))))
    assert table == [(name, reads) for name, (reads, _) in cli._CHECKS.items()]
