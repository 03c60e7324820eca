import enum
import json
import math
from fractions import Fraction

import pytest

import pwcheck.epoly as epoly
from pwcheck import DomainError
from pwcheck.epoly import (
    CohomologyProfile,
    ModuliParams,
    NotPrimeError,
    closed_e,
    euler_variant,
    mirror_difference,
    variant_betti,
)
from pwcheck.laurent import BiLaurentPoly, LaurentPoly

# Reference values computed with the standalone convolution oracle below
# and frozen.  Keys are plain q-exponents.
CLOSED_E = {
    (2, 2): {7: -30},
    (3, 2): {17: -160, 18: 80, 19: -160},
    (2, 3): {13: -252, 15: -252},
    (5, 2): {49: -1248, 50: 3120, 51: -7488, 52: 8112,
             53: -7488, 54: 3120, 55: -1248},
    (2, 4): {19: -1530, 21: -5100, 23: -1530},
    (3, 3): {33: -2912, 34: 4368, 35: -17472, 36: 12376,
             37: -17472, 38: 4368, 39: -2912},
}

BETTI = {
    (2, 2): {5: 30},
    (3, 2): {13: 160, 14: 80, 15: 160},
    (2, 3): {9: 252, 11: 252},
    (5, 2): {41: 1248, 42: 3120, 43: 7488, 44: 8112,
             45: 7488, 46: 3120, 47: 1248},
    (2, 4): {13: 1530, 15: 5100, 17: 1530},
    (3, 3): {25: 2912, 26: 4368, 27: 17472, 28: 12376,
             29: 17472, 30: 4368, 31: 2912},
}

EULER = {(2, 2): -30, (3, 2): -240, (2, 3): -504,
         (5, 2): -3120, (2, 4): -8160, (3, 3): -19656}


# Independent oracle: the same closed formula evaluated with nothing but
# dict convolution, no LaurentPoly involved.

def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _pow(a, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = _mul(out, a)
    return out


def _scale(a, s):
    return {e: s * c for e, c in a.items()}


def _oracle_closed_e(n, g):
    dim = (n * n - 1) * (2 * g - 2)
    bracket = _pow({1: Fraction(1), 0: Fraction(-1)}, (n - 1) * (2 * g - 2))
    cyc = _pow({e: Fraction(1) for e in range(n)}, 2 * g - 2)
    diff = dict(bracket)
    for e, c in cyc.items():
        diff[e] = diff.get(e, Fraction(0)) - c
    diff = {e: c for e, c in diff.items() if c}
    shifted = {e + dim: c for e, c in diff.items()}
    return _scale(shifted, Fraction(n ** (2 * g) - 1, n))


@pytest.mark.parametrize("n,g", sorted(CLOSED_E))
def test_closed_e_matches_frozen_values(n, g):
    got = dict(closed_e(ModuliParams(n, g)).terms())
    assert {e: int(c) for e, c in got.items()} == CLOSED_E[(n, g)]


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 4), (7, 2),
                                 (13, 4), (17, 3), (13, 8), (31, 4)])
def test_closed_e_agrees_with_convolution_oracle(n, g):
    assert dict(closed_e(ModuliParams(n, g)).terms()) == _oracle_closed_e(n, g)


@pytest.mark.parametrize("n,g", [(n, g) for n in (2, 3, 5, 7, 11, 13) for g in range(2, 9)])
def test_the_bracket_equals_both_powers_on_the_dict_kernel(n, g):
    # The binomial sums against (q-1)^N - S^M taken by LaurentPoly **.
    big_n, big_m = (n - 1) * (2 * g - 2), 2 * g - 2
    powers = (LaurentPoly({1: 1, 0: -1}) ** big_n
              - LaurentPoly(dict.fromkeys(range(n), 1)) ** big_m)
    assert epoly.variant_bracket(n, g) == powers


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (5, 3), (13, 4), (31, 4)])
def test_the_bracket_top_digit_cancels(n, g):
    # (q-1)^N and S^M are both monic of degree N (and both 1 at q^0), so
    # the bracket runs from q^1 to q^(N-1), with -nM at the top.
    big_n, big_m = (n - 1) * (2 * g - 2), 2 * g - 2
    bracket = epoly.variant_bracket(n, g)
    assert bracket.degree_bounds() == (1, big_n - 1)
    assert dict(bracket.terms())[big_n - 1] == -n * big_m


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n,g", [(n, g) for n in (2, 3, 5, 7, 11, 13) for g in range(2, 10)])
def test_the_support_lemma(n, g):
    # S = 1+q+...+q^(n-1) <= (1+q)^(n-1) coefficientwise, so s_k = [q^k]S^M
    # <= C(N,k).  N is even, so (-1)^k times the bracket's q^k coefficient,
    # C(N,k) - (-1)^k s_k, is the Betti number in degree dim - k up to the
    # factor (n^(2g)-1)/n: never negative, zero only at k = 0, N (and even
    # k when n = 2), so the support is [2c+1, dim-1], the guard hitchin's
    # _column keeps.  On int lists, off the polynomial kernel.
    big_n, big_m = (n - 1) * (2 * g - 2), 2 * g - 2
    s = [1]
    for _ in range(big_m):
        s = _convolve(s, [1] * n)
    binom = [math.comb(big_n, k) for k in range(big_n + 1)]
    q_minus_1 = [(-1) ** (big_n - k) * b for k, b in enumerate(binom)]
    assert len(s) == big_n + 1
    assert s == s[::-1] and q_minus_1 == q_minus_1[::-1]
    bracket = [c - s_k for c, s_k in zip(q_minus_1, s)]
    assert dict(epoly.variant_bracket(n, g).terms()) == {k: c for k, c in enumerate(bracket) if c}
    assert all(s_k <= b for s_k, b in zip(s, binom))
    if n >= 3:
        assert all(s_k < b for s_k, b in zip(s[1:-1], binom[1:-1]))
    betti = [b - (-1) ** k * s_k for k, (b, s_k) in enumerate(zip(binom, s))]
    assert min(betti) == 0
    zeros = {k for k, b in enumerate(betti) if b == 0}
    assert zeros == {0, big_n} | (set(range(0, big_n, 2)) if n == 2 else set())
    params = ModuliParams(n, g)
    assert variant_betti(params).support() == (2 * params.curious_shift + 1, params.dim - 1)


@pytest.mark.parametrize("n,g", sorted(BETTI))
def test_variant_betti_matches_frozen_values(n, g):
    assert dict(variant_betti(ModuliParams(n, g)).items()) == BETTI[(n, g)]


@pytest.mark.parametrize("n,g", sorted(EULER))
def test_euler_characteristic(n, g):
    params = ModuliParams(n, g)
    assert euler_variant(params) == EULER[(n, g)]
    assert variant_betti(params).euler() == EULER[(n, g)]


def test_closed_e_reads_the_bracket_on_every_call(monkeypatch):
    # closed_e keeps nothing between calls: a patched bracket shows on the
    # very next call at the (n, g) just computed.
    params = ModuliParams(5, 2)
    first = closed_e(params)
    two = LaurentPoly({0: 2})
    bracket = epoly.variant_bracket
    monkeypatch.setattr(epoly, "variant_bracket", lambda n, g: two * bracket(n, g))
    assert closed_e(params) == two * first


def test_mirror_difference_small_case():
    got = mirror_difference(ModuliParams(2, 2))
    assert got == BiLaurentPoly({(4, 3): -15, (3, 4): -15})


@pytest.mark.parametrize("n,g", [(3, 2), (5, 2), (3, 3), (2, 4), (5, 3), (7, 2)])
def test_mirror_difference_matches_the_dense_formula(n, g):
    # The docstring's formula, with the bivariate factors multiplied out
    # before they are raised to a power.
    u_minus_1 = BiLaurentPoly({(1, 0): 1, (0, 0): -1})
    v_minus_1 = BiLaurentPoly({(0, 1): 1, (0, 0): -1})
    s_u = BiLaurentPoly({(e, 0): 1 for e in range(n)})
    s_v = BiLaurentPoly({(0, e): 1 for e in range(n)})
    # On ints, so the scale's 1/n moves to the other side.
    m = (n * n - 1) * (g - 1)
    n_times_expected = (BiLaurentPoly({(m, m): n ** (2 * g) - 1})
                        * ((u_minus_1 * v_minus_1) ** ((n - 1) * (g - 1))
                           - (s_u * s_v) ** (g - 1)))
    assert BiLaurentPoly({(0, 0): n}) * mirror_difference(ModuliParams(n, g)) == n_times_expected


@pytest.mark.parametrize("n,g", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_mirror_difference_diagonal_and_symmetry(n, g):
    params = ModuliParams(n, g)
    two_var = mirror_difference(params)
    assert two_var.diagonal() == closed_e(params)
    assert two_var.swap() == two_var


def test_params_numerology():
    params = ModuliParams(3, 2)
    assert params.dim == 16
    assert params.half_dim == 8
    assert params.curious_shift == 6
    assert ModuliParams(2, 4).dim == 18


def test_params_validation():
    with pytest.raises(ValueError):
        ModuliParams(1, 2)
    with pytest.raises(ValueError):
        ModuliParams(2, 1)
    with pytest.raises(ValueError):
        ModuliParams(3, 2, 6)   # gcd(3, 6) != 1
    ModuliParams(3, 2, 5)       # coprime degree is fine
    with pytest.raises(NotPrimeError, match="^rank 4 is not prime$"):
        ModuliParams(4, 2)


@pytest.mark.parametrize("n", [1, True, 5.0, enum.IntEnum("Rank", {"FIVE": 5}).FIVE],
                         ids=["one", "True", "float", "IntEnum"])
def test_params_refuse_a_non_rank_before_primality(n):
    # a DomainError (a ValueError) of its own, not a NotPrimeError
    with pytest.raises(ValueError) as info:
        ModuliParams(n, 2)
    assert type(info.value) is DomainError
    assert str(info.value) == "rank n must be an integer >= 2"


def test_composite_rank_rejected_by_formulas():
    with pytest.raises(NotPrimeError):
        closed_e(ModuliParams(4, 2, 1))
    with pytest.raises(NotPrimeError):
        mirror_difference(ModuliParams(6, 2, 1))
    with pytest.raises(NotPrimeError):
        euler_variant(ModuliParams(9, 2, 1))


def test_params_reject_bool():
    # True is an int coprime to every n, but not a degree; an IntEnum
    # member is an int too, but not an exact one.
    three = enum.IntEnum("Rank", {"THREE": 3}).THREE
    for args in ((True, 2), (3, True), (3, 2, True), (three, 2)):
        with pytest.raises(ValueError):
            ModuliParams(*args)


def test_betti_independent_of_degree():
    assert variant_betti(ModuliParams(3, 2, 1)) == variant_betti(ModuliParams(3, 2, 2))


def test_profile_serialization_round_trip():
    profile = variant_betti(ModuliParams(3, 2))
    assert json.loads(profile.to_json()) == profile.to_json_obj()
    assert profile.to_json() == '{"13":160,"14":80,"15":160}'
    assert profile.to_csv() == "degree,dimension\n13,160\n14,80\n15,160\n"


def test_profile_rejects_bad_values():
    with pytest.raises(ValueError):
        CohomologyProfile({3: -1})
    with pytest.raises(ValueError):
        CohomologyProfile({3: True})


def test_profile_support_and_total():
    profile = variant_betti(ModuliParams(5, 2))
    assert profile.support() == (41, 47)
    assert profile.total() == 31824
    assert profile[0] == 0
