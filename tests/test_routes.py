"""Each route of a dual-route check is computed without the other route.

Every function the other route is built from is swapped for one that
raises.  The route must still return what it returns unpatched, so a
change that lets one route reuse the other's value fails here.
"""

import pytest

import pwcheck.epoly as epoly
import pwcheck.hitchin as hitchin
import pwcheck.hookchar as hookchar
from pwcheck.epoly import ModuliParams

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


def test_weight_route_does_not_bind_the_cross_check():
    # evar_from_types reads closed_e, so through it the weight table
    # would raise on a disagreement instead of reporting it.
    assert not hasattr(hitchin, "evar_from_types")
