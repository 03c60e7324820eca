"""Each route of a dual-route check is computed without the other route.

Every function the other route is built from is swapped for one that
raises.  The route must still return what it returns unpatched, so a
change that lets one route reuse the other's value fails here.  A
profile hook then records every function a route enters, by its code
object, so a call through a binding the swap cannot reach, such as a
captured default argument, fails too.  Code objects are named from the
package's functions (``package_code``), since Python 3.10 has no
``co_qualname``.
"""

import sys

import pytest

import pwcheck.cli as cli
import pwcheck.epoly as epoly
import pwcheck.hitchin as hitchin
import pwcheck.hookchar as hookchar
from pwcheck.cli import main
from pwcheck.epoly import ModuliParams
from pwcheck.laurent import LaurentPoly, _SparsePoly

from package_code import code_names, traced

POINTS = [(2, 2), (3, 2), (5, 3), (7, 2)]

# (the route, the bindings of the other route that it must never call)
ROUTES = [
    pytest.param(hookchar.evar_type_route,
                 [(hookchar, "closed_e"), (epoly, "closed_e"), (epoly, "variant_bracket")],
                 id="evar_type_route"),
    pytest.param(epoly.mirror_difference,
                 [(epoly, "closed_e"), (epoly, "variant_bracket")],
                 id="mirror_difference"),
    pytest.param(hitchin.perverse_table, [(hitchin, "evar_type_route")],
                 id="perverse_table"),
    pytest.param(hitchin.weight_table,
                 [(hitchin, "variant_betti"), (hookchar, "closed_e"), (epoly, "closed_e"),
                  (epoly, "variant_bracket")],
                 id="weight_table"),
]


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return call


@pytest.mark.parametrize("n,g", POINTS)
@pytest.mark.parametrize("route,others", ROUTES)
def test_route_never_calls_the_other_route(monkeypatch, route, others, n, g):
    params = ModuliParams(n, g)
    expected = route(params)
    for module, name in others:
        monkeypatch.setattr(module, name, _forbidden(f"{module.__name__}.{name}"))
    assert route(params) == expected


NAMES = code_names()


def _entered(route, params):
    """The names, as module.qualname, of the pwcheck functions route(params) enters."""
    return {NAMES[code] for code in traced(route, params)[1]}


# The builder of each route that verify's dual-route checks read.
BUILDERS = {"closed": epoly.closed_e, "mirror": epoly.mirror_difference,
            "type": hookchar.evar_type_route}
DUAL_ROUTE_READS = [reads for reads, _ in cli._CHECKS.values() if len(reads) == 2]


def _route_functions(builder, params):
    """The functions of epoly and hookchar, the routes' modules, that
    builder(params) enters, less the parameter record and the prime
    guard, which every route reads; the kernel modules are shared by design."""
    return {name for name in _entered(builder, params)
            if name.startswith(("pwcheck.epoly.", "pwcheck.hookchar."))
            and not name.startswith(("pwcheck.epoly.ModuliParams.", "pwcheck.epoly.require_"))}


def test_every_dual_route_check_reads_two_built_routes():
    assert DUAL_ROUTE_READS
    assert {route for reads in DUAL_ROUTE_READS for route in reads} <= BUILDERS.keys()


@pytest.mark.parametrize("n,g", POINTS)
@pytest.mark.parametrize("reads", DUAL_ROUTE_READS, ids="-".join)
def test_neither_route_of_a_dual_route_check_enters_the_other(reads, n, g):
    params = ModuliParams(n, g)
    left, right = (BUILDERS[route] for route in reads)
    left_functions, right_functions = (_route_functions(builder, params)
                                       for builder in (left, right))
    assert f"{left.__module__}.{left.__qualname__}" in left_functions
    assert f"{right.__module__}.{right.__qualname__}" in right_functions
    assert not left_functions & right_functions


CLOSED = {"pwcheck.epoly.closed_e", "pwcheck.epoly.variant_bracket"}


@pytest.mark.parametrize("n,g", POINTS)
def test_each_route_enters_none_of_the_other_route(n, g):
    # The routes verify's table does not pair: the tables pw compares and
    # the Euler count.
    params = ModuliParams(n, g)
    perverse = _entered(hitchin.perverse_table, params)
    assert not {name for name in perverse if name.startswith("pwcheck.hookchar.")}
    assert not _entered(epoly.euler_variant, params) & CLOSED
    weight = _entered(hitchin.weight_table, params)
    assert not weight & (CLOSED | {"pwcheck.epoly.variant_betti"})
    assert "pwcheck.hookchar.evar_type_route" in weight
    assert "pwcheck.epoly.closed_e" in perverse
    # What the tables share: one extraction and one column builder.
    shared = {"pwcheck.epoly.signed_profile", "pwcheck.hitchin._column"}
    assert shared <= perverse and shared <= weight


def test_weight_route_does_not_bind_the_cross_check():
    # evar_from_types reads closed_e, so through it the weight table
    # would raise on a disagreement instead of reporting it.
    assert not hasattr(hitchin, "evar_from_types")


def test_verify_does_not_run_the_library_cross_check(monkeypatch, capsys):
    # evar-shift compares the shifted type route with closed_e itself: a
    # comparison inside evar_from_types would raise on a disagreement
    # before evar-shift could name the first unequal exponent.
    cross_check = hookchar.evar_from_types
    for name, module in list(sys.modules.items()):
        if name.startswith("pwcheck") and vars(module).get("evar_from_types") is cross_check:
            monkeypatch.setattr(module, "evar_from_types", _forbidden(f"{name}.evar_from_types"))
    assert main(["verify", "--n", "5", "--g", "3"]) == 0
    assert "PASS evar-shift (shift q^56)" in capsys.readouterr().out.splitlines()


KERNEL = [(LaurentPoly, "__mul__"), (LaurentPoly, "__add__"), (LaurentPoly, "__sub__"),
          (LaurentPoly, "divide_exact"), (_SparsePoly, "_power")]


@pytest.mark.parametrize("n,g", [*POINTS, (13, 4)])
def test_the_closed_route_runs_off_the_polynomial_kernel(monkeypatch, n, g):
    # closed_e and variant_bracket are binomial sums on ints, so a kernel
    # fault can bend the type route and the mirror, never both routes.
    params = ModuliParams(n, g)
    expected = epoly.closed_e(params), epoly.variant_bracket(n, g)
    for cls, name in KERNEL:
        monkeypatch.setattr(cls, name, _forbidden(f"{cls.__name__}.{name}"))
    assert (epoly.closed_e(params), epoly.variant_bracket(n, g)) == expected


@pytest.mark.parametrize("n,g", POINTS)
def test_the_closed_route_enters_no_kernel_method(n, g):
    # The trace also sees a kernel method reached through a binding the
    # patching above cannot swap, such as a captured default argument.
    qualnames = {name.split(".", 2)[2] for name in _entered(epoly.closed_e, ModuliParams(n, g))}
    assert "variant_bracket" in qualnames
    assert not {name for name in qualnames
                if name.startswith(("LaurentPoly.", "_SparsePoly.", "BiLaurentPoly."))}


@pytest.mark.parametrize("n,g", POINTS)
def test_the_mirror_runs_on_the_polynomial_kernel(monkeypatch, n, g):
    # The mirror's univariate powers are the kernel's, so the kernel is
    # checked against the closed route by mirror-diagonal as well.
    params = ModuliParams(n, g)
    for cls, name in KERNEL:
        monkeypatch.setattr(cls, name, _forbidden(f"{cls.__name__}.{name}"))
    with pytest.raises(AssertionError, match="was called"):
        epoly.mirror_difference(params)
    assert epoly.closed_e(params)


def test_a_kernel_fault_that_bends_the_type_route_fails_evar_shift(monkeypatch, capsys):
    # A LaurentPoly ** that drops its top term: the type route and the
    # mirror take their powers on the dict kernel, closed_e does not.
    power = _SparsePoly._power

    def drops_its_top_term(self, e):
        terms = dict(power(self, e).terms())
        terms.pop(max(terms), None)
        return LaurentPoly(terms)

    params = ModuliParams(5, 3)
    expected = epoly.closed_e(params)
    monkeypatch.setattr(LaurentPoly, "_power", drops_its_top_term)
    assert main(["verify", "--n", "5", "--g", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL evar-shift (") for line in lines)
    assert ("FAIL mirror-diagonal (u=v=q; first difference at q^105: "
            "mirror diagonal = -35935200, closed_e = -35997696)") in lines
    assert epoly.closed_e(params) == expected
