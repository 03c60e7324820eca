"""Command line front end.

Verbs:
  epoly    closed E-polynomial of the variant cohomology
  betti    variant Betti numbers
  pw       perverse/weight tables and their comparison
  verify   run every identity check for one parameter choice
  ksearch  exhaustive counterexample search for the criteria

Exit codes: 0 all good, 1 a verification failed or a counterexample
was found, 2 usage or domain error or an unwritable --out.
"""

from __future__ import annotations

import argparse
import sys

from ._frozen import compact_json
from .epoly import (
    ModuliParams, closed_e, euler_variant, mirror_difference, variant_betti)
from .filtration import DEFAULT_BUDGET, Criterion, count_search_tables, falsification_search
from .hitchin import endoscopic_bound, verify_pw
from .hookchar import evar_from_types
from .laurent import LaurentPoly

# Each cmd_* returns (exit code, output for --format): a JSON-ready object
# for json, the text otherwise. Only main renders and writes it.


def _params(args: argparse.Namespace) -> ModuliParams:
    params = ModuliParams(args.n, args.g, args.d)
    if args.verbose:
        print(
            f"n={params.n} g={params.g} d={params.d} dim={params.dim} "
            f"m={params.half_dim} c={params.curious_shift}",
            file=sys.stderr)
    return params


def cmd_epoly(args: argparse.Namespace) -> tuple[int, object]:
    poly = closed_e(_params(args))
    if args.format == "json":
        return 0, poly.to_json_obj()
    if args.format == "csv":
        return 0, "\n".join(["twice_exponent,coefficient",
                             *(f"{2 * e},{c}" for e, c in poly.terms())])
    return 0, str(poly)


def cmd_betti(args: argparse.Namespace) -> tuple[int, object]:
    profile = variant_betti(_params(args))
    if args.format == "json":
        return 0, profile.to_json_obj()
    if args.format == "csv":
        return 0, profile.to_csv()
    lines = [f"H^{d}: {v}" for d, v in profile.items()]
    lines.append(f"total: {profile.total()}")
    return 0, "\n".join(lines)


def cmd_pw(args: argparse.Namespace) -> tuple[int, object]:
    report = verify_pw(_params(args))
    code = 0 if report.holds else 1
    if args.format == "json":
        return code, report.to_json_obj()
    if args.format == "csv":
        return code, report.perverse.to_csv()
    return code, report.summary()


def _verify_checks(params: ModuliParams) -> list[tuple[str, bool, str]]:
    n, g = params.n, params.g
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # keep going; report the check as failed
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        checks.append((name, ok, detail))

    def palindromic():
        weight = (2 * g - 2) * (2 * n * n + n - 3)
        return closed_e(params).is_palindromic(weight), f"weight {weight}"

    def mirror_diag():
        return mirror_difference(params).diagonal() == closed_e(params), "u=v=q"

    def evar_shift():
        shift = (n * n + n - 2) * (g - 1)
        lhs = evar_from_types(params) * LaurentPoly({shift: 1})
        return lhs == closed_e(params), f"shift q^{shift}"

    def euler():
        value = euler_variant(params)
        return variant_betti(params).euler() == value, f"chi {value}"

    def support():
        low, high = variant_betti(params).support()
        floor = 2 * endoscopic_bound(n, g) + 1
        ok = low >= floor and high <= params.dim - 1
        return ok, f"[{low},{high}] within [{floor},{params.dim - 1}]"

    def curious():
        profile = variant_betti(params)
        center = params.half_dim + params.curious_shift
        _, top = profile.support()
        ok = all(profile[center - i] == profile[center + i]
                 for i in range(1, top + 1))
        return ok, f"center {center}"

    def pw():
        report = verify_pw(params)
        return report.holds, report.verdict

    run("palindromic", palindromic)
    run("mirror-diagonal", mirror_diag)
    run("evar-shift", evar_shift)
    run("euler", euler)
    run("support-bound", support)
    run("curious-symmetry", curious)
    run("pw", pw)
    return checks


def cmd_verify(args: argparse.Namespace) -> tuple[int, object]:
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


def cmd_ksearch(args: argparse.Namespace) -> tuple[int, object]:
    which = ([Criterion.FIRST, Criterion.SECOND] if args.criterion == "both"
             else [Criterion(args.criterion)])
    m_range = range(args.m_min, args.m_max + 1)
    k_range = range(args.k_min, args.k_max + 1)
    tables = count_search_tables(args.i_max, args.j_max, args.v_max,
                                 m_range, k_range, budget=args.budget)
    if args.verbose:
        print(f"scanning {tables} tables per criterion", file=sys.stderr)

    results = {}
    for criterion in which:
        results[criterion.value] = falsification_search(
            criterion, args.i_max, args.j_max, args.v_max,
            m_range, k_range, budget=args.budget)
    found = sum(len(v) for v in results.values())
    code = 1 if found else 0

    if args.format == "json":
        return code, {
            "i_max": args.i_max,
            "j_max": args.j_max,
            "v_max": args.v_max,
            "m_range": [args.m_min, args.m_max],
            "k_range": [args.k_min, args.k_max],
            "tables_scanned": tables,
            "results": {
                name: [
                    {"table": table.to_json_obj(), "m": m, "k": k}
                    for table, m, k in hits
                ]
                for name, hits in sorted(results.items())
            },
            "counterexamples": found,
        }
    if args.format == "csv":
        lines = ["criterion,m,k,i,j,value"]
        for name, hits in sorted(results.items()):
            for table, m, k in hits:
                for (i, j), v in table.items():
                    lines.append(f"{name},{m},{k},{i},{j},{v}")
        return code, "\n".join(lines)
    lines = []
    for name, hits in sorted(results.items()):
        if hits:
            lines.append(f"criterion {name}: {len(hits)} counterexample(s)")
            for table, m, k in hits:
                lines.append(f"  m={m} k={k} {table!r}")
        else:
            lines.append(
                f"criterion {name}: no counterexamples "
                f"({tables} tables, m in [{args.m_min},{args.m_max}], "
                f"k in [{args.k_min},{args.k_max}])")
    return code, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwcheck",
        description="exact checks for prime-rank perverse/weight identities")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="text", help="output format")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument("--verbose", action="store_true",
                        help="extra diagnostics on stderr")

    moduli = argparse.ArgumentParser(add_help=False, parents=[common])
    moduli.add_argument("--n", type=int, required=True, help="rank (prime)")
    moduli.add_argument("--g", type=int, required=True, help="genus (>= 2)")
    moduli.add_argument("--d", type=int, default=1,
                        help="twisting degree, coprime to n (default 1)")

    for name, func, help_text in (
            ("epoly", cmd_epoly, "closed E-polynomial of the variant part"),
            ("betti", cmd_betti, "variant Betti numbers"),
            ("pw", cmd_pw, "perverse/weight tables and their comparison"),
            ("verify", cmd_verify, "run every identity check")):
        sub.add_parser(name, parents=[moduli], help=help_text).set_defaults(func=func)

    p = sub.add_parser("ksearch", parents=[common],
                       help="search small tables for criterion counterexamples")
    p.add_argument("--criterion", choices=("first", "second", "both"),
                   default="both")
    p.add_argument("--i-max", type=int, default=3, dest="i_max")
    p.add_argument("--j-max", type=int, default=2, dest="j_max")
    p.add_argument("--v-max", type=int, default=1, dest="v_max")
    p.add_argument("--m-min", type=int, default=1, dest="m_min")
    p.add_argument("--m-max", type=int, default=3, dest="m_max")
    p.add_argument("--k-min", type=int, default=0, dest="k_min")
    p.add_argument("--k-max", type=int, default=2, dest="k_max")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="abort if the case count exceeds this")
    p.set_defaults(func=cmd_ksearch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, output = args.func(args)
        if args.format == "json":
            output = compact_json(output)
        text = output if output.endswith("\n") else output + "\n"
        if not args.out:
            sys.stdout.write(text)
            return code
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return code
    except ValueError as exc:  # BudgetExceededError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
