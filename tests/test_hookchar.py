from fractions import Fraction

import pytest

from pwcheck.epoly import (
    NotPrimeError, closed_e, make_params, mirror_difference, require_prime, variant_betti)
from pwcheck.hookchar import (
    IdentityFailureError,
    SpecialType,
    count_multiplier,
    evar_closed_route,
    evar_from_types,
    evar_type_route,
    special_hook,
    type_contribution,
)
from pwcheck.laurent import LaurentPoly

GRID = [(2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (3, 4), (7, 4)]


def test_split_hook_rank_two():
    hook = special_hook(SpecialType.SPLIT, 2)
    assert dict(hook.terms()) == {1: Fraction(1), 2: Fraction(-2), 3: Fraction(1)}


def test_nonsplit_hook_rank_two():
    hook = special_hook(SpecialType.NONSPLIT, 2)
    assert dict(hook.terms()) == {1: Fraction(1), 3: Fraction(-1)}


def test_split_hook_rank_three():
    # q^3 (1 - q)^3: the shift (n^2 - n)/2 is an integer for every n.
    hook = special_hook(SpecialType.SPLIT, 3)
    assert dict(hook.terms()) == {3: 1, 4: -3, 5: 3, 6: -1}


def test_hooks_require_prime_rank():
    with pytest.raises(NotPrimeError):
        special_hook(SpecialType.SPLIT, 4)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: special_hook(SpecialType.SPLIT, 5.0), NotPrimeError, id="hook-float-n"),
    pytest.param(lambda: require_prime(5.0), NotPrimeError, id="require-prime-float"),
    pytest.param(lambda: count_multiplier(SpecialType.SPLIT, 4, 2), NotPrimeError,
                 id="count-composite-n"),
    pytest.param(lambda: count_multiplier(SpecialType.SPLIT, True, 2), NotPrimeError,
                 id="count-bool-n"),
    pytest.param(lambda: count_multiplier(SpecialType.SPLIT, 3, 1.5), ValueError,
                 id="count-float-g"),
    pytest.param(lambda: type_contribution(special_hook(SpecialType.SPLIT, 3), 1), ValueError,
                 id="contribution-genus-one"),
])
def test_character_route_refuses_a_bad_rank_or_genus(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("n, message", [
    ("5", "rank '5' is not prime"),
    (5.0, "rank 5.0 is not prime"),
    (4, "rank 4 is not prime"),
])
def test_require_prime_names_the_rank_by_its_repr(n, message):
    with pytest.raises(NotPrimeError) as caught:
        require_prime(n)
    assert str(caught.value) == message


def test_type_contribution_rank_two():
    split = type_contribution(special_hook(SpecialType.SPLIT, 2), 2)
    nonsplit = type_contribution(special_hook(SpecialType.NONSPLIT, 2), 2)
    assert dict(split.terms()) == {2: Fraction(1), 3: Fraction(-2), 4: Fraction(1)}
    assert dict(nonsplit.terms()) == {2: Fraction(1), 3: Fraction(2), 4: Fraction(1)}


def test_count_multipliers():
    split = count_multiplier(SpecialType.SPLIT, 2, 2)
    nonsplit = count_multiplier(SpecialType.NONSPLIT, 2, 2)
    assert split == Fraction(-1, 2) + 8
    assert nonsplit == Fraction(1, 2) - 8
    # the two multipliers are exact negatives of each other
    assert split == -nonsplit


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (5, 3), (7, 2), (13, 4)])
def test_count_multiplier_keeps_its_value_and_type(n, g):
    for kind, unit_sign, power_sign in [(SpecialType.SPLIT, -1, 1),
                                        (SpecialType.NONSPLIT, 1, -1)]:
        got = count_multiplier(kind, n, g)
        assert got == Fraction(unit_sign, n) + power_sign * n ** (2 * g - 1)
        assert type(got) is Fraction


@pytest.mark.parametrize("n,g", [(2, 2), (3, 3), (5, 2), (7, 2), (13, 4)])
def test_every_route_runs_on_ints(n, g):
    # Every coefficient is a signed Betti number or dimension, and each
    # route divides by n only at the end, exactly.
    params = make_params(n, g)
    for poly in (closed_e(params), evar_type_route(params), mirror_difference(params)):
        assert poly and all(type(c) is int for _, c in poly.terms())


@pytest.mark.parametrize("n,g", GRID)
def test_both_routes_agree(n, g):
    params = make_params(n, g)
    assert evar_type_route(params) == evar_closed_route(params)


def test_evar_small_values():
    assert dict(evar_from_types(make_params(2, 2)).terms()) == {3: Fraction(-30)}
    assert dict(evar_from_types(make_params(3, 2)).terms()) == {
        7: Fraction(-160), 8: Fraction(80), 9: Fraction(-160)}


@pytest.mark.parametrize("n,g", GRID)
def test_evar_shift_reproduces_closed_e(n, g):
    params = make_params(n, g)
    shift = (n * n + n - 2) * (g - 1)
    lifted = evar_from_types(params) * LaurentPoly({shift: 1})
    assert lifted == closed_e(params)


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_evar_expands_in_betti_numbers(n, g):
    # sum over degrees d of (-1)^d b_d q^(2m + c - d)
    params = make_params(n, g)
    total = LaurentPoly.zero()
    center = 2 * params.half_dim + params.curious_shift
    for d, v in variant_betti(params).items():
        total = total + LaurentPoly({center - d: v if d % 2 == 0 else -v})
    assert total == evar_from_types(params)


def test_identity_failure_is_detected(monkeypatch):
    # a corrupted route cannot sneak through evar_from_types
    import pwcheck.hookchar as hookchar

    monkeypatch.setattr(hookchar, "evar_closed_route",
                        lambda params: LaurentPoly.zero())
    with pytest.raises(IdentityFailureError):
        hookchar.evar_from_types(make_params(2, 2))
