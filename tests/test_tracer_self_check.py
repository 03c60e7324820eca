"""perfbench/tracer.py counts the same calls by both of its routes.

In ``count`` mode the tracer replaces every binding of each target; in
``profile`` mode it counts calls through ``sys.setprofile`` by code
object, with nothing patched.  A traced method that moves into a base
class, or that two classes share, is counted differently by the two, and
would otherwise show only in a traced benchmark run.  This test runs the
tracer by path, as the benchmark's self-check does, and does not edit it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
VERIFY = ["verify", "--n", "5", "--g", "2"]


def _marker():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STATS_MARKER


def _calls(mode, marker):
    """The calls dict the tracer prints after running verify in mode."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, str(TRACER_PATH), mode, "--", *VERIFY],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=False)
    assert result.returncode == 0, result.stderr
    last = result.stderr.splitlines()[-1]
    assert last.startswith(marker), result.stderr
    return json.loads(last[len(marker):])["calls"]


def test_count_and_profile_modes_agree_on_one_verify():
    marker = _marker()
    counted, profiled = _calls("count", marker), _calls("profile", marker)
    assert counted == profiled
    for name in ("epoly.closed_e", "epoly.variant_bracket", "laurent.mul"):
        assert counted.get(name), name
