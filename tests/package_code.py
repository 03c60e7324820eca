"""The functions the pwcheck package defines, and a name for each code object.

A profile hook sees a frame's code object, and Python 3.10 gives a code
object no ``co_qualname``.  So the trace tests name code from a map
built from the package's functions: each function, method, static
method, class method and property getter under ``module.qualname``, and
each code object nested in one (a local function, a comprehension or a
lambda) under ``<outer>.<locals>.<name>``, as ``co_qualname`` would.
A lambda in a module's table, and code nested in it, is named
``module.<name>``.
"""

import collections
import importlib
import inspect
import pkgutil
import sys
import types

import pwcheck

MODULES = [importlib.import_module(f"pwcheck.{info.name}")
           for info in pkgutil.iter_modules(pwcheck.__path__)]
# The module of each of the package's files, by the path its code records.
FILES = {module.__file__: module.__name__ for module in MODULES}


def functions(module):
    """(qualified name, function) for every function, method, static
    method and class method defined in module."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
                elif isinstance(member, property):
                    yield f"{name}.{attr}", member.fget


class _CodeNames(dict):
    def __missing__(self, code):
        # Raises KeyError for code from outside the package.
        return f"{FILES[code.co_filename]}.{code.co_name}"


def _name(names, code, name):
    names[code] = name
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _name(names, const, f"{name}.<locals>.{const.co_name}")


def code_names():
    """{code object: "module.qualname"} for all the package's code that
    runs in a call.  An alias such as ``terms = SparseMap.items`` shares its
    code, so it takes the name the function was defined under; a member
    a class takes from the stdlib, such as an enum's ``__new__``, is left out.
    Indexing names any other code of the package's files by its module."""
    names = _CodeNames()
    for module in MODULES:
        for _, function in functions(module):
            if function.__code__.co_filename == module.__file__:
                _name(names, function.__code__, f"{function.__module__}.{function.__qualname__}")
    return names


def traced(call, *args):
    """(call(*args), a Counter of the code objects of the package's files
    it enters, by calls), traced under sys.setprofile; the previous
    profile hook is restored afterwards."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in FILES:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return result, counts
