"""A pwcheck call loads no module it has no use for.

Every CLI call is a fresh interpreter, so each module the package imports
is paid for on every call.  `dataclasses` alone pulled in `inspect`,
`ast`, `dis`, `tokenize` and `linecache`, about 10 ms of start-up, and
`typing` is the next largest; `json` is needed only to read JSON, since
JSON is written with the C string encoder of `_json` alone.  Every
coefficient is an int, so `fractions` (with `decimal`, about 3.5 ms)
and `numbers` are never needed.  No module defers its annotations, so
none imports `__future__`.  `argparse`
(which loads `gettext` and, on its first message, `locale`) is about
7 ms of start-up with its parser built, so a plain command line is
parsed without it.  The child runs under `python -S`, because a `site`
`.pth` file may import `typing` before pwcheck does.

The package's own modules import each other in layers: the formulas
(`epoly`) never reach the criteria that judge their tables (`filtration`).
A bare `import pwcheck` loads none of them, and a name imported from the
package loads its own module and the layers under it alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The program first runs an import statement, `import pwcheck` unless a
# test gives another.  argv[1] is the comma-separated module names to
# look for; the rest, if any, is a pwcheck command line, which main()
# reads from sys.argv.
PROGRAM = """
import sys
{statement}
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


def _loaded(names, argv=VERIFY, statement="import pwcheck"):
    """Those of names that statement and then a call with argv load."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    program = PROGRAM.format(statement=statement)
    result = subprocess.run([sys.executable, "-S", "-c", program, ",".join(names), *argv],
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
    *(pytest.param([verb, "--n", "5", "--g", "2", "--format", "json"], id=f"{verb}-json")
      for verb in ("pw", "betti", "epoly", "verify")),
    pytest.param(["ksearch", "--format", "json"], id="ksearch-json"),
    pytest.param(["epoly", "--n", "5", "--g", "2", "--format", "json", "--out", os.devnull],
                 id="epoly-json-out"),
])
def test_a_json_call_loads_no_json(argv):
    # JSON is written with _json's string encoder alone; json is read only.
    assert _loaded(["json", "json.decoder", "json.encoder"], argv) == "[]"


@pytest.mark.parametrize("argv, statement", [
    # verify_pw's module sits on every other layer, so this case imports
    # each module of the package whatever the CLI loads.
    pytest.param([], "from pwcheck import verify_pw", id="import-pwcheck"),
    *(pytest.param(argv, "import pwcheck", id=case) for argv, case in [
        (VERIFY, "verify-text"),
        (["pw", "--n", "5", "--g", "2", "--format", "json"], "pw-json"),
        (["epoly", "--n", "5", "--g", "2", "--format", "csv"], "epoly-csv"),
        (["betti", "--n", "5", "--g", "2", "--format", "json"], "betti-json"),
        (["ksearch"], "ksearch"),
    ]),
])
def test_no_call_loads_fractions_or_decimal(argv, statement):
    # Nor __future__: no module defers its annotations.
    assert _loaded(["fractions", "decimal", "numbers", "__future__"], argv, statement) == "[]"


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


# The package modules each module may import; `cli` and `__init__` sit on
# top and may import any.
LAYERS = {
    "_frozen": set(),
    "laurent": {"_frozen"},
    "filtration": {"_frozen"},
    "epoly": {"_frozen", "laurent"},
    "hookchar": {"_frozen", "epoly", "laurent"},
    "hitchin": {"_frozen", "epoly", "filtration", "hookchar"},
}
TOP = {"cli", "__init__"}


def _package_imports(path):
    """The package modules that the `from .x import` lines of path name."""
    return {node.module for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level}


def test_every_module_has_a_layer():
    modules = {path.stem for path in (SRC / "pwcheck").glob("*.py")}
    assert modules == LAYERS.keys() | TOP


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_a_module_imports_only_the_layers_below_it(module):
    imported = _package_imports(SRC / "pwcheck" / f"{module}.py")
    assert imported <= LAYERS[module], f"{module} imports {sorted(imported - LAYERS[module])}"


# The package and every module in it, by the name it has in sys.modules.
PACKAGE = ["pwcheck", *(f"pwcheck.{module}" for module in sorted(LAYERS.keys() | {"cli"}))]


def test_a_bare_import_loads_no_module_of_the_package():
    assert _loaded(PACKAGE, []) == "['pwcheck']"


def test_an_imported_name_loads_its_module_and_the_layers_under_it():
    assert _loaded(PACKAGE, [], "from pwcheck import LaurentPoly") == \
        "['pwcheck', 'pwcheck._frozen', 'pwcheck.laurent']"
