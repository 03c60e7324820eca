"""One `verify` does no more work than it did when these bounds were set.

A profile hook counts the calls of each pwcheck function, by code
object, during one in-process `main(["verify", ...])`.  A count does
not depend on machine noise, so a change that makes `verify` run a
route or a kernel method more often fails here, where a timing would
not.  A change that lowers a count should lower its bound too.  The
falsification search is pinned the same way: it reads the lines of
each table it enumerates once, for all of its (m, k).
"""

import collections
import sys

import pytest

from pwcheck.cli import main
from pwcheck.filtration import Criterion, falsification_search

from package_code import code_names, traced

# The most calls of each function in one verify, as counted at both points.
ROUTES = {
    "pwcheck.epoly.closed_e": 3,
    "pwcheck.epoly.variant_bracket": 3,
    "pwcheck.epoly.variant_betti": 2,
    "pwcheck.epoly.signed_profile": 3,
    "pwcheck.hitchin._column": 2,
    "pwcheck.filtration._lines": 2,  # once per table, for its three conditions
    "pwcheck.hookchar.evar_type_route": 2,
    "pwcheck.hookchar.type_contribution": 4,
    "pwcheck.epoly.mirror_difference": 1,
    "pwcheck.laurent._SparsePoly._power": 8,
    "pwcheck.laurent.LaurentPoly.divide_exact": 4,
}
MUL = "pwcheck.laurent.LaurentPoly.__mul__"


def _calls(call, *args):
    """call(*args)'s result and its calls of each pwcheck function."""
    names = code_names()
    result, codes = traced(call, *args)
    counts = collections.Counter()
    for code, calls in codes.items():
        counts[names[code]] += calls
    return result, counts


@pytest.mark.parametrize("n, g, products", [(5, 2, 25), (13, 4, 43)])
def test_verify_stays_within_its_call_bounds(capsys, n, g, products):
    previous = sys.getprofile()
    status, counts = _calls(main, ["verify", "--n", str(n), "--g", str(g)])
    assert sys.getprofile() is previous
    assert status == 0 and capsys.readouterr().out.endswith("all checks passed\n")
    bounds = {**ROUTES, MUL: products}
    # Each bounded function runs, so a name that no longer matches cannot pass.
    assert all(counts[name] for name in bounds), counts
    assert {name: counts[name] for name in bounds if counts[name] > bounds[name]} == {}


def test_the_search_builds_each_tables_lines_once():
    # 2 x 2 cells with values in {0, 1}: 16 tables, each read at 4 (m, k)
    hits, counts = _calls(falsification_search, Criterion.FIRST, 1, 1, 1, [1, 2], [0, 1])
    assert hits == [] and counts["pwcheck.filtration._lines"] == 16
