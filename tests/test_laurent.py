import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwcheck.laurent
from pwcheck.laurent import (
    BiLaurentPoly,
    EvalDomainError,
    InexactDivisionError,
    LaurentPoly,
    ParityError,
)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(st.integers(-8, 8), coeffs, max_size=6).map(LaurentPoly)
bipolys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), coeffs, max_size=5
).map(BiLaurentPoly)


def test_docstrings_hold():
    failures, tried = doctest.testmod(pwcheck.laurent)
    assert tried > 0
    assert failures == 0


def test_basic_arithmetic():
    p = LaurentPoly.from_q_powers({1: 1, 0: -1})
    assert p + 1 == LaurentPoly.from_q_powers({1: 1})
    assert 1 + p == p + 1
    assert p - p == LaurentPoly.zero()
    assert not (p - p)
    assert 2 * p == p + p
    assert p * LaurentPoly.one() == p
    assert p ** 0 == LaurentPoly.one()
    assert p ** 1 == p


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="^float coefficients are not allowed; use Fraction$"):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError, match="^bool coefficients are not allowed; use Fraction$"):
        LaurentPoly({0: True})
    with pytest.raises(TypeError, match="^bool coefficients"):
        LaurentPoly.one() * True


def test_zero_coefficients_dropped():
    assert LaurentPoly({2: 0, 4: 1}) == LaurentPoly({4: 1})
    assert len(dict(LaurentPoly({2: 0}).terms())) == 0


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, polys, polys)
@settings(deadline=None)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, st.integers(0, 4))
@settings(deadline=None)
def test_pow_matches_repeated_multiplication(p, n):
    expected = LaurentPoly.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


@given(polys, polys, st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=5))
def test_eval_is_a_ring_homomorphism(a, b, r):
    # x = r**2 so that half-integer exponents evaluate exactly
    x = r * r
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


def test_eval_domain_errors():
    half = LaurentPoly({1: 1})
    with pytest.raises(EvalDomainError):
        half.eval_at(2)
    with pytest.raises(EvalDomainError):
        half.eval_at(-4)
    with pytest.raises(EvalDomainError):
        LaurentPoly({-2: 1}).eval_at(0)
    assert LaurentPoly({2: 3, 0: 5}).eval_at(0) == 5


@given(polys, st.integers(-4, 4))
def test_reverse_is_an_involution(p, w):
    assert p.reverse(w).reverse(w) == p


@given(polys, st.integers(-4, 4))
def test_palindromic_means_equal_to_reverse(p, w):
    sym = p + p.reverse(w)
    assert sym.is_palindromic(w)
    assert p.is_palindromic(w) == (p == p.reverse(w))


@given(polys, polys)
@settings(deadline=None)
def test_division_undoes_multiplication(p, d):
    if not d:
        return
    assert (p * d).divide_exact(d) == p


def test_division_rejects_inexact():
    q_minus_1 = LaurentPoly.from_q_powers({1: 1, 0: -1})
    q_plus_1 = LaurentPoly.from_q_powers({1: 1, 0: 1})
    with pytest.raises(InexactDivisionError):
        q_plus_1.divide_exact(q_minus_1)
    with pytest.raises(ZeroDivisionError):
        q_plus_1.divide_exact(LaurentPoly.zero())


def test_parity_guard():
    with pytest.raises(ParityError):
        LaurentPoly({1: 1}).to_q_dict()
    assert LaurentPoly({2: 1}).to_q_dict() == {1: Fraction(1)}


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


def test_json_wire_shape():
    p = LaurentPoly({3: Fraction(1, 2), -2: -4})
    assert p.to_json() == '[[-2,"-4"],[3,"1/2"]]'


@given(bipolys, bipolys)
def test_bivariate_diagonal_is_multiplicative(a, b):
    assert (a * b).diagonal() == a.diagonal() * b.diagonal()


@given(bipolys, bipolys)
def test_bivariate_swap_distributes_over_product(a, b):
    assert (a * b).swap() == a.swap() * b.swap()


SHARED_CORE_CASES = [
    (LaurentPoly, {4: 3, 0: "1/2"},
     "LaurentPoly({0: Fraction(1, 2), 4: Fraction(3, 1)})"),
    (BiLaurentPoly, {(2, 0): 3, (0, 0): "1/2"},
     "BiLaurentPoly({(0, 0): Fraction(1, 2), (2, 0): Fraction(3, 1)})"),
]


@pytest.mark.parametrize("cls,coeffs,expected_repr", SHARED_CORE_CASES)
def test_shared_core(cls, coeffs, expected_repr):
    p = cls(coeffs)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        p._c = {}
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        p.other = 1
    assert not hasattr(p, "__dict__")
    three = cls.one() * 3
    assert three == 3 and hash(three) == hash(3)
    assert three == Fraction(3) and three != 4
    assert hash(cls.zero()) == hash(0)
    assert type(cls.zero()) is cls and not cls.zero()
    assert type(cls.one()) is cls and cls.one() == 1
    assert type(-p) is cls and type(1 - p) is cls and type(p ** 2) is cls
    assert repr(p) == expected_repr
    assert repr(cls.zero()) == f"{cls.__name__}({{}})"
    assert cls.from_json(p.to_json()) == p


def test_polynomials_in_different_variables_never_compare_equal():
    assert LaurentPoly({}) != BiLaurentPoly({})
    assert LaurentPoly.one() != BiLaurentPoly.one()
    with pytest.raises(TypeError):
        LaurentPoly.one() + BiLaurentPoly.one()


def test_pow_rejects_a_bad_exponent():
    for p in (LaurentPoly.one(), BiLaurentPoly.one()):
        for n in (-1, 1.0, "2"):
            with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
                p ** n


@given(bipolys)
def test_bivariate_json_round_trip(p):
    assert BiLaurentPoly.from_json(p.to_json()) == p


def test_bivariate_arithmetic():
    u = BiLaurentPoly.from_uv_powers({(1, 0): 1})
    v = BiLaurentPoly.from_uv_powers({(0, 1): 1})
    assert (u + v) ** 2 == u * u + 2 * u * v + v * v
    assert (u - v).swap() == v - u
    assert (u * v).diagonal() == LaurentPoly.from_q_powers({2: 1})
