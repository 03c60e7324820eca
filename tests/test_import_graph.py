"""A pwcheck call loads no module it has no use for.

Every CLI call is a fresh interpreter, so each module the package imports
is paid for on every call.  `dataclasses` alone pulled in `inspect`,
`ast`, `dis`, `tokenize` and `linecache`, about 10 ms of start-up, and
`typing` is the next largest; `json` is needed only to write or read
JSON.  The child runs under `python -S`, because a `site` `.pth` file
may import `typing` before pwcheck does.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
from pwcheck.cli import main
code = main(["verify", "--n", "5", "--g", "2"])
print(sorted(name for name in sys.argv[1:] if name in sys.modules))
sys.exit(code)
"""


def _loaded(*names):
    """Those of names that a verify call loads."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-S", "-c", PROGRAM, *names],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_a_verify_call_loads_neither_dataclasses_nor_inspect():
    assert _loaded("dataclasses", "inspect") == "[]"


def test_a_verify_call_loads_no_typing():
    assert _loaded("typing") == "[]"


def test_a_verify_call_loads_no_json():
    assert _loaded("json") == "[]"
