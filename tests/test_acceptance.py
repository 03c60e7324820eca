"""Acceptance battery.

Nine headline checks, each printing exactly one PASS/FAIL line.  All
arithmetic is exact; the parameter grid is every prime rank in
{2, 3, 5, 7} against every genus in {2, 3, 4}.
"""

import random

from pwcheck.epoly import ModuliParams, closed_e, euler_variant, mirror_difference, variant_betti
from pwcheck.filtration import (
    Criterion,
    FiltrationTable,
    check_first_criterion,
    check_second_criterion,
    falsification_search,
    is_k_sequence,
)
from pwcheck.hitchin import verify_pw
from pwcheck.hookchar import evar_type_route
from pwcheck.laurent import LaurentPoly

GRID = [(n, g) for n in (2, 3, 5, 7) for g in (2, 3, 4)]


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {num} ({name})"


def test_criterion_1_base_case():
    profile = variant_betti(ModuliParams(2, 2))
    ok = dict(profile.items()) == {5: 30} and profile.total() == 30 and profile[5] == 30
    _report(1, "rank 2 genus 2 has a single 30-dimensional group", ok)


def test_criterion_2_palindromy():
    ok = True
    for n, g in GRID:
        weight = (2 * g - 2) * (2 * n * n + n - 3)
        poly = closed_e(ModuliParams(n, g))
        ok = ok and poly == poly.reverse(weight)
        ok = ok and poly != poly.reverse(weight + 2)
    _report(2, "E-polynomial palindromic at its exact weight", ok)


def test_criterion_3_mirror_diagonal():
    ok = all(
        mirror_difference(ModuliParams(n, g)).diagonal() == closed_e(ModuliParams(n, g))
        for n, g in GRID)
    _report(3, "two-variable refinement collapses to closed form", ok)


def test_criterion_4_character_sum_route():
    ok = all(
        evar_type_route(params) * LaurentPoly({params.type_shift: 1}) == closed_e(params)
        for params in (ModuliParams(n, g) for n, g in GRID))
    _report(4, "character sum equals closed form up to the degree shift", ok)


def test_criterion_5_pw_tables():
    ok = True
    for n, g in GRID:
        report = verify_pw(ModuliParams(n, g))
        ok = ok and report.holds and report.tables_equal
        ok = ok and report.perverse_check.passed and report.weight_check.passed
        ok = ok and report.perverse_check.is_k_seq and report.weight_check.is_k_seq
    _report(5, "perverse and weight tables agree and satisfy both criteria", ok)


def _random_non_k_sequence(rng: random.Random):
    while True:
        cells = {}
        for _ in range(rng.randint(1, 6)):
            cells[(rng.randint(0, 4), rng.randint(0, 3))] = rng.randint(1, 3)
        table = FiltrationTable(cells)
        m = rng.randint(1, 4)
        k = rng.randint(0, 3)
        if not is_k_sequence(table, m, k):
            return table, m, k


def test_criterion_6_falsification_search():
    empty = all(
        falsification_search(which, 3, 2, 1, range(1, 4), range(0, 3)) == []
        for which in Criterion)

    rng = random.Random(97)
    contrapositive = True
    for _ in range(10_000):
        table, m, k = _random_non_k_sequence(rng)
        if check_first_criterion(table, m, k).passed:
            contrapositive = False
            break
        if check_second_criterion(table, m, k).passed:
            contrapositive = False
            break
    _report(6, "no counterexample found, randomized contrapositive holds",
            empty and contrapositive)


def test_criterion_7_curious_symmetry():
    ok = True
    for n, g in GRID:
        params = ModuliParams(n, g)
        profile = variant_betti(params)
        center = params.half_dim + params.curious_shift
        ok = ok and all(
            profile[center - i] == profile[center + i]
            for i in range(1, params.dim + 1))
    _report(7, "Betti numbers symmetric about the shifted middle", ok)


def test_criterion_8_euler_characteristic():
    ok = True
    for n, g in GRID:
        params = ModuliParams(n, g)
        expected = -(n ** (2 * g) - 1) * n ** (2 * g - 3)
        ok = ok and euler_variant(params) == expected
        ok = ok and variant_betti(params).euler() == expected
    _report(8, "signed dimension count matches the closed Euler number", ok)


def test_criterion_9_support_bound():
    ok = True
    for n, g in GRID:
        params = ModuliParams(n, g)
        low, high = variant_betti(params).support()
        ok = ok and low >= 2 * params.curious_shift + 1
        ok = ok and high <= params.dim - 1
    _report(9, "support within the codimension window", ok)
