"""A pwcheck call loads no module it has no use for.

Every CLI call is a fresh interpreter, so each module the package imports
is paid for on every call.  `dataclasses` alone pulled in `inspect`,
`ast`, `dis`, `tokenize` and `linecache`, about 10 ms of start-up.
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
print(sorted(name for name in ("dataclasses", "inspect") if name in sys.modules))
sys.exit(code)
"""


def test_a_verify_call_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
