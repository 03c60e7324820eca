"""Every function perfbench/tracer.py instruments is where the tracer looks.

The tracer replaces each binding of a target in its owner's own namespace
(``vars`` of the module or class) and counts profile calls by
``__code__``.  A method that a class only inherits, or a target that is
not a plain function, would silently be counted as never called.  This
test loads the tracer by path and only reads its tables.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
BINDINGS = [(module, qualname) for _, module, qualname in tracer.TARGETS + tracer.HOT]
BINDINGS.append(tracer._TABLE_INIT)


@pytest.mark.parametrize("module, qualname", BINDINGS, ids=[q for _, q in BINDINGS])
def test_tracer_binding_is_patchable(module, qualname):
    importlib.import_module(module)
    obj = tracer._resolve(module, qualname)
    assert hasattr(obj, "__code__"), f"{qualname} is not a plain function"
    owner, _, name = qualname.rpartition(".")
    if owner:
        assert vars(tracer._resolve(module, owner)).get(name) is obj, (
            f"{qualname} is inherited, not bound in {owner}'s own namespace")
