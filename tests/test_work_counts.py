"""One `verify` does no more work than it did when these bounds were set.

A profile hook counts the calls of each pwcheck function, by code
object, during one in-process `main(["verify", ...])`.  A count does
not depend on machine noise, so a change that makes `verify` run a
route or a kernel method more often fails here, where a timing would
not.  A change that lowers a count should lower its bound too.
"""

import collections
import sys

import pytest

from pwcheck.cli import main

from package_code import code_names

# The most calls of each function in one verify, as counted at both points.
ROUTES = {
    "pwcheck.epoly.closed_e": 4,
    "pwcheck.epoly.variant_bracket": 4,
    "pwcheck.epoly.variant_betti": 2,
    "pwcheck.hookchar.evar_type_route": 2,
    "pwcheck.hookchar.type_contribution": 4,
    "pwcheck.epoly.mirror_difference": 1,
    "pwcheck.laurent._SparsePoly._power": 8,
    "pwcheck.laurent.LaurentPoly.divide_exact": 4,
}
MUL = "pwcheck.laurent.LaurentPoly.__mul__"


def _calls(argv):
    """main(argv)'s exit status and its calls of each pwcheck function."""
    names = code_names()
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = main(argv)
    finally:
        sys.setprofile(previous)
    return status, counts


@pytest.mark.parametrize("n, g, products", [(5, 2, 27), (13, 4, 45)])
def test_verify_stays_within_its_call_bounds(capsys, n, g, products):
    previous = sys.getprofile()
    status, counts = _calls(["verify", "--n", str(n), "--g", str(g)])
    assert sys.getprofile() is previous
    assert status == 0 and capsys.readouterr().out.endswith("all checks passed\n")
    bounds = {**ROUTES, MUL: products}
    # Each bounded function runs, so a name that no longer matches cannot pass.
    assert all(counts[name] for name in bounds), counts
    assert {name: counts[name] for name in bounds if counts[name] > bounds[name]} == {}
