"""A pwcheck call loads no module it has no use for.

Every CLI call is a fresh interpreter, so each module the package imports
is paid for on every call.  `dataclasses` alone pulled in `inspect`,
`ast`, `dis`, `tokenize` and `linecache`, about 10 ms of start-up, and
`typing` is the next largest; `json` is needed only to write or read
JSON, and `fractions` (with `decimal`, about 3.5 ms) only where a
coefficient is a proper fraction, which no verb makes.  `argparse`
(which loads `gettext` and, on its first message, `locale`) is about
7 ms of start-up with its parser built, so a plain command line is
parsed without it.  The child runs under `python -S`, because a `site`
`.pth` file may import `typing` before pwcheck does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv[1] is the comma-separated module names to look for; the rest, if
# any, is a pwcheck command line, which main() reads from sys.argv.
PROGRAM = """
import sys
import pwcheck
names = sys.argv.pop(1)
code = 0
if sys.argv[1:]:
    from pwcheck.cli import main
    try:
        code = main()
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
print(sorted(name for name in names.split(",") if name in sys.modules))
sys.exit(code)
"""

VERIFY = ["verify", "--n", "5", "--g", "2"]


def _loaded(names, argv=VERIFY):
    """Those of names that `import pwcheck` and then a call with argv load."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-S", "-c", PROGRAM, ",".join(names), *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_a_verify_call_loads_neither_dataclasses_nor_inspect():
    assert _loaded(["dataclasses", "inspect"]) == "[]"


def test_a_verify_call_loads_no_typing():
    assert _loaded(["typing"]) == "[]"


def test_a_verify_call_loads_no_json():
    assert _loaded(["json"]) == "[]"


@pytest.mark.parametrize("argv", [
    pytest.param([], id="import-pwcheck"),
    pytest.param(VERIFY, id="verify-text"),
    pytest.param(["pw", "--n", "5", "--g", "2", "--format", "json"], id="pw-json"),
    pytest.param(["epoly", "--n", "5", "--g", "2", "--format", "csv"], id="epoly-csv"),
    pytest.param(["betti", "--n", "5", "--g", "2", "--format", "json"], id="betti-json"),
    pytest.param(["ksearch"], id="ksearch"),
])
def test_no_call_loads_fractions_or_decimal(argv):
    assert _loaded(["fractions", "decimal"], argv) == "[]"


PLAIN = [
    pytest.param(VERIFY, id="verify"),
    pytest.param(["pw", "--format", "json", "--n", "5", "--g", "2", "--verbose"], id="pw-json"),
    pytest.param(["epoly", "--n", "5", "--g", "2", "--d", "2", "--format", "csv"], id="epoly-csv"),
    pytest.param(["betti", "--n", "5", "--g", "2"], id="betti"),
    pytest.param(["ksearch", "--criterion", "first", "--i-max", "2"], id="ksearch"),
]
ARGPARSE = ["argparse", "gettext", "locale"]


@pytest.mark.parametrize("argv", PLAIN)
def test_a_plain_command_line_loads_no_argparse(argv):
    assert _loaded(ARGPARSE, argv) == "[]"


def test_help_still_goes_through_argparse():
    assert "argparse" in _loaded(ARGPARSE, ["--help"])
