"""Command line front end: the verbs epoly, betti, pw, verify and
ksearch, whose help texts and options are in the _VERBS table.

ksearch gives its verdict by checking each criterion's proof
certificate on the box (filtration.certify_criterion); it enumerates
no tables.

Exit codes: 0 all good, 1 a verification failed or a ksearch
certificate failed, 2 usage or domain error or an unwritable --out, 3
an internal error: any exception that is neither a DomainError nor a
VerificationError is a bug, reported on stderr as
"internal error: <Type>: <message>".

A plain command line (the verb, then exact long flags, each once, with
values that do not start with "-") is read without importing argparse,
which with its parser costs a fresh interpreter several ms; every other
form, help included, goes to the argparse parser, which gives the same
namespace.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace

from ._frozen import DomainError, VerificationError, compact_json
from .epoly import (
    CohomologyProfile, ModuliParams, closed_e, euler_variant, mirror_difference, variant_betti)
from .filtration import DEFAULT_BUDGET, Criterion, certify_criterion, count_search_tables
from .hitchin import verify_pw
from .hookchar import evar_type_route
from .laurent import LaurentPoly

# Each cmd_* returns (exit code, output for --format): a JSON-ready object
# for json, the text otherwise. Only main renders and writes it.


def _params(args: SimpleNamespace) -> ModuliParams:
    params = ModuliParams(args.n, args.g, args.d)
    if args.verbose:
        print(
            f"n={params.n} g={params.g} d={params.d} dim={params.dim} "
            f"m={params.half_dim} c={params.curious_shift}",
            file=sys.stderr)
    return params


def cmd_epoly(args: SimpleNamespace) -> tuple[int, object]:
    poly = closed_e(_params(args))
    if args.format == "json":
        return 0, poly.to_json_obj()
    if args.format == "csv":
        return 0, "\n".join(["twice_exponent,coefficient",
                             *(f"{2 * e},{c}" for e, c in poly.terms())])
    return 0, str(poly)


def cmd_betti(args: SimpleNamespace) -> tuple[int, object]:
    profile = variant_betti(_params(args))
    if args.format == "json":
        return 0, profile.to_json_obj()
    if args.format == "csv":
        return 0, profile.to_csv()
    lines = [f"H^{d}: {v}" for d, v in profile.items()]
    lines.append(f"total: {profile.total()}")
    return 0, "\n".join(lines)


def cmd_pw(args: SimpleNamespace) -> tuple[int, object]:
    report = verify_pw(_params(args))
    code = 0 if report.holds else 1
    if args.format == "json":
        return code, report.to_json_obj()
    if args.format == "csv":
        return code, report.perverse.to_csv()
    return code, report.summary()


def _compare(detail: str, left_name: str, a: LaurentPoly,
             right_name: str, b: LaurentPoly) -> tuple[bool, str]:
    """(a == b, detail); when they differ, the detail goes on to the least
    exponent where they do and the coefficient each has there."""
    if a == b:
        return True, detail
    a, b = dict(a.terms()), dict(b.terms())
    e = min(key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0))
    return False, (f"{detail}; first difference at q^{e}: "
                   f"{left_name} = {a.get(e, 0)}, {right_name} = {b.get(e, 0)}")


def _palindromic(params: ModuliParams, e: LaurentPoly) -> tuple[bool, str]:
    weight = params.dim + 2 * params.type_shift
    return _compare(f"weight {weight}", "E", e, f"q^{weight}*E(1/q)", e.reverse(weight))


def _euler(params: ModuliParams, value: int, profile: CohomologyProfile) -> tuple[bool, str]:
    chi = profile.euler()
    return chi == value, f"chi {value}" + ("" if chi == value else f"; the Betti numbers give {chi}")


def _support(params: ModuliParams, profile: CohomologyProfile) -> tuple[bool, str]:
    low, high = profile.support()
    floor = 2 * params.curious_shift + 1
    top = params.dim - 1
    # variant_bracket runs from q^1 to q^((n-1)(2g-2)-1), so the support is [floor, top].
    detail = f"[{low},{high}] within [{floor},{top}]"
    for end, value, bound in (("low", low, floor), ("high", high, top)):
        if value != bound:
            detail += f"; {end} end {value} {'<' if value < bound else '>'} {bound}"
    return low == floor and high == top, detail


def _curious(params: ModuliParams, profile: CohomologyProfile) -> tuple[bool, str]:
    center = params.half_dim + params.curious_shift
    low, high = profile.support()
    detail = f"center {center}"
    for i in range(1, max(center - low, high - center) + 1):
        below, above = profile[center - i], profile[center + i]
        if below != above:
            return False, (f"{detail}; first difference at offset {i}: "
                           f"H^{center - i} = {below}, H^{center + i} = {above}")
    return True, detail


# verify's checks in output order: name -> (the routes it reads, a comparison
# of params and those routes' values that gives (passed, detail)).
_CHECKS = {
    "palindromic": (("closed",), _palindromic),
    "mirror-diagonal": (("mirror", "closed"), lambda params, mirror, e: _compare(
        "u=v=q", "mirror diagonal", mirror.diagonal(), "closed_e", e)),
    "evar-shift": (("type", "closed"), lambda params, type_route, e: _compare(
        f"shift q^{params.type_shift}", "shifted type route",
        type_route * LaurentPoly({params.type_shift: 1}), "closed_e", e)),
    "euler": (("euler", "betti"), _euler),
    "support-bound": (("betti",), _support),
    "curious-symmetry": (("betti",), _curious),
    "pw": (("pw",), lambda params, report: (report.holds, report.verdict)),
}


def _verify_checks(params: ModuliParams) -> list[tuple[str, bool, str]]:
    # Each route is built once per call; one that raises fails the checks that read it.
    routes: dict[str, object] = {}
    for route, build in (("closed", closed_e), ("mirror", mirror_difference),
                         ("type", evar_type_route), ("euler", euler_variant),
                         ("betti", variant_betti), ("pw", verify_pw)):
        try:
            routes[route] = build(params)
        except Exception as exc:
            routes[route] = exc
    checks: list[tuple[str, bool, str]] = []
    for name, (reads, compare) in _CHECKS.items():
        values = [routes[route] for route in reads]
        try:
            for value in values:
                if isinstance(value, Exception):
                    raise value
            ok, detail = compare(params, *values)
        except Exception as exc:  # keep going; report the check as failed
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))
    return checks


def cmd_verify(args: SimpleNamespace) -> tuple[int, object]:
    params = _params(args)
    checks = _verify_checks(params)
    failed = [name for name, ok, _ in checks if not ok]
    code = 0 if not failed else 1
    if args.format == "json":
        return code, {
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "all_passed": not failed,
        }
    if args.format == "csv":
        lines = ["check,passed"]
        lines += [f"{name},{'true' if ok else 'false'}" for name, ok, _ in checks]
        return code, "\n".join(lines)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name} ({detail})"
        for name, ok, detail in checks
    ]
    lines.append("all checks passed" if not failed
                 else f"{len(failed)} check(s) failed: {', '.join(failed)}")
    return code, "\n".join(lines)


def cmd_ksearch(args: SimpleNamespace) -> tuple[int, object]:
    which = ([Criterion.FIRST, Criterion.SECOND] if args.criterion == "both"
             else [Criterion(args.criterion)])
    m_range = range(args.m_min, args.m_max + 1)
    k_range = range(args.k_min, args.k_max + 1)
    tables = count_search_tables(args.i_max, args.j_max, args.v_max,
                                 m_range, k_range, budget=args.budget)
    if args.verbose:
        print(f"scanning {tables} tables per criterion", file=sys.stderr)

    for criterion in which:
        start = time.perf_counter()
        # With v_max 0 the one table is the zero table, a k-sequence for
        # every (m, k); a failed certificate raises VerificationError.
        if args.v_max:
            certify_criterion(criterion, args.i_max, args.j_max, m_range, k_range)
        if args.verbose:
            print(f"criterion {criterion.value}: {tables} tables, 0 hit(s), "
                  f"{time.perf_counter() - start:.3f} s", file=sys.stderr)
    names = sorted(criterion.value for criterion in which)

    if args.format == "json":
        return 0, {
            "i_max": args.i_max,
            "j_max": args.j_max,
            "v_max": args.v_max,
            "m_range": [args.m_min, args.m_max],
            "k_range": [args.k_min, args.k_max],
            "tables_scanned": tables,
            "results": {name: [] for name in names},
            "counterexamples": 0,
        }
    if args.format == "csv":
        return 0, "criterion,m,k,i,j,value"
    return 0, "\n".join(
        f"criterion {name}: no counterexamples ({tables} tables, "
        f"m in [{args.m_min},{args.m_max}], k in [{args.k_min},{args.k_max}])"
        for name in names)


# Every verb option, written once: flag -> (kind, default, help).  The
# kind is int, str, a tuple of choices, or bool for the one switch that
# takes no value; the default _REQUIRED marks a flag that must be given.
# build_parser and _parse_direct both read these tables.
_REQUIRED = object()
_COMMON = {
    "--format": (("json", "csv", "text"), "text", "output format"),
    "--out": (str, None, "write output to a file instead of stdout"),
    "--verbose": (bool, False, "extra diagnostics on stderr"),
}
_MODULI = {
    **_COMMON,
    "--n": (int, _REQUIRED, "rank (prime)"),
    "--g": (int, _REQUIRED, "genus (>= 2)"),
    "--d": (int, 1, "twisting degree, coprime to n (default 1)"),
}
_SEARCH = {
    **_COMMON,
    "--criterion": (("first", "second", "both"), "both", None),
    "--i-max": (int, 3, None),
    "--j-max": (int, 2, None),
    "--v-max": (int, 1, None),
    "--m-min": (int, 1, None),
    "--m-max": (int, 3, None),
    "--k-min": (int, 0, None),
    "--k-max": (int, 2, None),
    "--budget": (int, DEFAULT_BUDGET, "abort if the case count exceeds this"),
}
# verb -> (cmd_* function, help text, options), in --help's order.
_VERBS = {
    "epoly": (cmd_epoly, "closed E-polynomial of the variant part", _MODULI),
    "betti": (cmd_betti, "variant Betti numbers", _MODULI),
    "pw": (cmd_pw, "perverse/weight tables and their comparison", _MODULI),
    "verify": (cmd_verify, "run every identity check", _MODULI),
    "ksearch": (cmd_ksearch, "search small tables for criterion counterexamples",
                _SEARCH),
}


def _dest(flag: str) -> str:
    """The attribute a flag sets, named as argparse names it: "--i-max" -> "i_max"."""
    return flag[2:].replace("-", "_")


def build_parser():
    """The argparse.ArgumentParser for every form of command line.

    It writes every usage, help and error message; argparse is imported
    only when it is built.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="pwcheck",
        description="exact checks for prime-rank perverse/weight identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (func, verb_help, options) in _VERBS.items():
        p = sub.add_parser(verb, help=verb_help)
        for flag, (kind, default, help_text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
                continue
            required = default is _REQUIRED
            p.add_argument(flag, dest=_dest(flag), required=required,
                           default=None if required else default,
                           type=int if kind is int else None,
                           choices=kind if type(kind) is tuple else None,
                           help=help_text)
        p.set_defaults(func=func)
    return parser


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives for a plain command line, else None.

    A plain command line is a verb, then flags each given once and every
    required one given: an exact flag with a value that does not start
    with "-" (converted by int, or one of the flag's choices), or the
    bare --verbose.  Any other form (help, an abbreviation, --n=3, "--",
    a negative or invalid value, a repeat) is left to argparse.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    func, _, options = _VERBS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        kind = options[flag][0]
        if kind is bool:
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, (_, default, _) in options.items():
        value = given.get(flag, default)
        if value is _REQUIRED:
            return None
        setattr(args, _dest(flag), value)
    return args


def _write(path: str, mode: str, text: str) -> bool:
    """Write text to the file at path; on an OSError say so on stderr and give False."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # The program entry: move everything allocated so far (the
        # interpreter's, site's and the package's objects) into the
        # collector's permanent generation, which no collection scans,
        # so the full collections at interpreter exit skip them.  A
        # library call main([...]) leaves the caller's collector alone.
        gc.freeze()
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    # An unwritable --out is refused before the work.  Opening for append
    # creates a missing file, empty, and leaves an existing file's bytes
    # alone; they are replaced only once the output is ready.
    if args.out and not _write(args.out, "a", ""):
        return 2
    try:
        code, output = args.func(args)
        if args.format == "json":
            output = compact_json(output)
        text = output if output.endswith("\n") else output + "\n"
        if not args.out:
            sys.stdout.write(text)
            return code
        return code if _write(args.out, "w", text) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # neither a refused input nor a verdict: a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
