"""Run one pwcheck CLI call in this interpreter with its layers instrumented.

    PYTHONPATH=src python3 perfbench/tracer.py <mode> -- <pwcheck arguments>

The CLI output goes to stdout exactly as `python -m pwcheck.cli` writes
it, and the exit code is the CLI's. The stats go to stderr as the last
line, after the marker `STATS_MARKER`. Modes:

- span:    time every function in TARGETS (calls, self and total time).
           HOT methods are left alone: a timing wrapper on
           FiltrationTable.get triples the cost of `pw` at (13,4).
- count:   count calls of TARGETS and HOT, plus the work counts
           (coefficient products, mirror terms, search tables) that need
           a look at arguments or results.
- profile: count calls of the same functions through sys.setprofile,
           with nothing patched. It is the independent route the
           benchmark's self-check compares `count` with.

The functions are patched from outside: every binding of the original
object is replaced, in every pwcheck module (names imported by value,
such as `closed_e` in cli) and in the class (aliases such as __rmul__).
"""

from __future__ import annotations

import collections
import json
import sys
import time

STATS_MARKER = "PERFBENCH_STATS "

# (metric prefix, module, qualified name) of the functions traced in
# every mode.
TARGETS = (
    ("laurent.mul", "pwcheck.laurent", "LaurentPoly.__mul__"),
    ("laurent.pow", "pwcheck.laurent", "LaurentPoly.__pow__"),
    ("laurent.divide_exact", "pwcheck.laurent", "LaurentPoly.divide_exact"),
    ("laurent.add", "pwcheck.laurent", "LaurentPoly.__add__"),
    ("laurent.bimul", "pwcheck.laurent", "BiLaurentPoly.__mul__"),
    ("laurent.bipow", "pwcheck.laurent", "BiLaurentPoly.__pow__"),
    ("laurent.diagonal", "pwcheck.laurent", "BiLaurentPoly.diagonal"),
    ("epoly.variant_bracket", "pwcheck.epoly", "variant_bracket"),
    ("epoly.closed_e", "pwcheck.epoly", "closed_e"),
    ("epoly.variant_betti", "pwcheck.epoly", "variant_betti"),
    ("epoly.mirror_difference", "pwcheck.epoly", "mirror_difference"),
    ("hookchar.evar_from_types", "pwcheck.hookchar", "evar_from_types"),
    ("hookchar.evar_type_route", "pwcheck.hookchar", "evar_type_route"),
    ("hookchar.type_contribution", "pwcheck.hookchar", "type_contribution"),
    ("hitchin.verify_pw", "pwcheck.hitchin", "verify_pw"),
    ("hitchin.perverse_table", "pwcheck.hitchin", "perverse_table"),
    ("hitchin.weight_table", "pwcheck.hitchin", "weight_table"),
    ("filtration.check_first_criterion", "pwcheck.filtration", "check_first_criterion"),
    ("filtration.check_second_criterion", "pwcheck.filtration", "check_second_criterion"),
    ("filtration.is_k_sequence", "pwcheck.filtration", "is_k_sequence"),
    ("filtration.falsification_search", "pwcheck.filtration", "falsification_search"),
    ("cli.main", "pwcheck.cli", "main"),
)

# Methods called millions of times per command; counted, never timed.
HOT = (
    ("filtration.table_get", "pwcheck.filtration", "FiltrationTable.get"),
)

_TABLE_INIT = ("pwcheck.filtration", "FiltrationTable.__init__")


def _resolve(module: str, qualname: str):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _patch(module: str, qualname: str, wrapper) -> None:
    """Replace every binding of the original object with `wrapper`."""
    original = _resolve(module, qualname)
    owner, _, _ = qualname.rpartition(".")
    if owner:
        namespaces = [_resolve(module, owner)]
    else:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "pwcheck" or name.startswith("pwcheck.")]
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, wrapper)


def _size(obj) -> int:
    """Number of stored terms of a polynomial; 1 for a scalar operand."""
    cells = getattr(obj, "_c", None)
    return len(cells) if cells is not None else 1


def install_span(stats: dict) -> None:
    """Time every TARGETS function; self time excludes traced callees."""
    clock = time.perf_counter
    stack: list[list[float]] = []

    def make(name: str, fn):
        rec = stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        depth = [0]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                rec["calls"] += 1
                rec["self_s"] += elapsed - frame[0]
                if not depth[0]:
                    rec["total_s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
        return wrapper

    for name, module, qualname in TARGETS:
        _patch(module, qualname, make(name, _resolve(module, qualname)))


def install_count(stats: dict) -> None:
    """Count calls of TARGETS and HOT, and the work counts named below."""
    calls = stats["calls"] = collections.Counter()
    work = stats["work"] = collections.Counter()
    in_search = [0]

    def make(name: str, fn):
        if name in ("laurent.mul", "laurent.bimul"):
            key = name + ".coeff_ops"

            def wrapper(a, b):
                calls[name] += 1
                work[key] += _size(a) * _size(b)
                return fn(a, b)
        elif name == "epoly.mirror_difference":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                work["epoly.mirror_difference.terms"] += _size(result)
                return result
        elif name == "filtration.falsification_search":
            def wrapper(which, i_max, j_max, v_max, m_range, k_range, **kwargs):
                calls[name] += 1
                m_range, k_range = list(m_range), list(k_range)
                tables = work["filtration.search.tables"]
                in_search[0] += 1
                try:
                    return fn(which, i_max, j_max, v_max, m_range, k_range, **kwargs)
                finally:
                    in_search[0] -= 1
                    work["filtration.search.cases"] += (
                        (work["filtration.search.tables"] - tables)
                        * len(set(m_range)) * len(set(k_range)))
        elif name == "filtration.is_k_sequence":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if in_search[0]:
                    work["filtration.search.k_seq_calls"] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    for name, module, qualname in TARGETS + HOT:
        _patch(module, qualname, make(name, _resolve(module, qualname)))

    table_init = _resolve(*_TABLE_INIT)

    def init_wrapper(self, *args, **kwargs):
        if in_search[0]:
            work["filtration.search.tables"] += 1
        return table_init(self, *args, **kwargs)
    _patch(*_TABLE_INIT, init_wrapper)


def install_profile(stats: dict):
    """Count calls by code object through sys.setprofile; returns the hook."""
    calls = stats["calls"] = collections.Counter()
    codes = {_resolve(module, qualname).__code__: name
             for name, module, qualname in TARGETS + HOT}

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                calls[name] += 1
    return hook


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("span", "count", "profile") or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, cli_args = argv[0], argv[2:]
    import pwcheck.cli

    stats: dict = {}
    hook = None
    if mode == "span":
        install_span(stats)
    elif mode == "count":
        install_count(stats)
    else:
        hook = install_profile(stats)
    code = 0
    try:
        sys.setprofile(hook)
        try:
            code = pwcheck.cli.main(cli_args)
        finally:
            sys.setprofile(None)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        print(STATS_MARKER + json.dumps(stats, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
