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
    _exact_quotient,
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
    p = LaurentPoly({1: 1, 0: -1})
    assert p + 1 == LaurentPoly({1: 1})
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


@pytest.mark.parametrize("cls", [LaurentPoly, BiLaurentPoly])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_equals_no_polynomial(cls, flag):
    # A bool is refused as a coefficient, so == and != compare it as
    # unequal instead of raising.
    for p in (cls.zero(), cls.one()):
        assert not p == flag and p != flag
        assert not flag == p and flag != p


def test_a_proper_fraction_stays_a_fraction():
    half = dict(LaurentPoly({0: "1/2"}).terms())[0]
    assert type(half) is Fraction and half == Fraction(1, 2)
    value = LaurentPoly({1: 1}).eval_at(2)
    assert type(value) is Fraction and value == 2
    assert type(_exact_quotient(3, 2)) is Fraction and _exact_quotient(3, 2) == Fraction(3, 2)
    assert type(_exact_quotient(4, 2)) is int and _exact_quotient(4, 2) == 2


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


@given(polys, polys, st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
def test_eval_is_a_ring_homomorphism(a, b, x):
    assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
    assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        LaurentPoly({-1: 1}).eval_at(0)
    assert LaurentPoly({1: 3, 0: 5}).eval_at(0) == 5


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
    q_minus_1 = LaurentPoly({1: 1, 0: -1})
    q_plus_1 = LaurentPoly({1: 1, 0: 1})
    with pytest.raises(InexactDivisionError):
        q_plus_1.divide_exact(q_minus_1)
    with pytest.raises(ZeroDivisionError):
        q_plus_1.divide_exact(LaurentPoly.zero())


@given(polys)
def test_json_round_trip(p):
    assert LaurentPoly.from_json(p.to_json()) == p


def test_json_wire_shape():
    # The wire holds twice each exponent, for compatibility.
    p = LaurentPoly({3: Fraction(1, 2), -1: -4})
    assert p.to_json() == '[[-2,"-4"],[6,"1/2"]]'
    bi = BiLaurentPoly({(1, 0): 3, (0, -2): Fraction(-1, 2)})
    assert bi.to_json() == '[[0,-4,"-1/2"],[2,0,"3"]]'


@given(bipolys, bipolys)
def test_bivariate_diagonal_is_multiplicative(a, b):
    assert (a * b).diagonal() == a.diagonal() * b.diagonal()


@given(bipolys, bipolys)
def test_bivariate_swap_distributes_over_product(a, b):
    assert (a * b).swap() == a.swap() * b.swap()


SHARED_CORE_CASES = [
    (LaurentPoly, {4: 3, 0: "1/2"},
     "LaurentPoly({0: Fraction(1, 2), 4: 3})"),
    (BiLaurentPoly, {(2, 0): 3, (0, 0): "1/2"},
     "BiLaurentPoly({(0, 0): Fraction(1, 2), (2, 0): 3})"),
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
        for n in (-1, 1.0, "2", True):
            with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
                p ** n


@given(bipolys)
def test_bivariate_json_round_trip(p):
    assert BiLaurentPoly.from_json(p.to_json()) == p


def test_bivariate_arithmetic():
    u = BiLaurentPoly({(1, 0): 1})
    v = BiLaurentPoly({(0, 1): 1})
    assert (u + v) ** 2 == u * u + 2 * u * v + v * v
    assert (u - v).swap() == v - u
    assert (u * v).diagonal() == LaurentPoly({2: 1})


# Coefficients as callers write them: ints, integral Fractions such as
# Fraction(3, 1), and proper fractions.
exact_values = st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Fraction), coeffs)
mixed_polys = st.dictionaries(st.integers(-8, 8), exact_values, max_size=5).map(LaurentPoly)
mixed_bipolys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), exact_values, max_size=4
).map(BiLaurentPoly)
# Every nonzero int or fraction.
eval_points = st.one_of(st.integers(-4, 4), coeffs).filter(bool)


def _assert_exact(*polys):
    """Every stored coefficient is an int, or a Fraction that is not one."""
    for p in polys:
        for _, c in p.terms():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@given(mixed_polys, mixed_polys, st.integers(0, 3), eval_points, st.booleans())
@settings(deadline=None)
def test_coefficients_stay_exact(a, b, n, x, flag):
    _assert_exact(a + b, a - b, a * b, a ** n, 3 * a, a + Fraction(1, 2),
                  LaurentPoly.from_json(a.to_json()))
    if b:
        _assert_exact((a * b).divide_exact(b), (a * b).divide_exact(2 * b))
    assert type(a.eval_at(x)) is Fraction
    assert type((a * b).eval_at(x)) is Fraction
    with pytest.raises(TypeError):
        LaurentPoly({0: flag})
    with pytest.raises(TypeError):
        LaurentPoly.one() * flag


@given(mixed_bipolys, mixed_bipolys, st.integers(0, 3), st.booleans())
@settings(deadline=None)
def test_bivariate_coefficients_stay_exact(a, b, n, flag):
    _assert_exact(a + b, a - b, a * b, a ** n, (a * b).diagonal(), a.swap(),
                  BiLaurentPoly.from_json(a.to_json()))
    with pytest.raises(TypeError):
        BiLaurentPoly({(0, 0): flag})
    with pytest.raises(TypeError):
        BiLaurentPoly.one() * flag


@given(st.dictionaries(st.integers(-8, 8), st.integers(-5, 5), max_size=5),
       st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       st.integers(-5, 5), max_size=4))
def test_integral_fractions_build_the_same_poly(uni, bi):
    for cls, values in ((LaurentPoly, uni), (BiLaurentPoly, bi)):
        from_ints = cls(values)
        from_fractions = cls({k: Fraction(v) for k, v in values.items()})
        assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
        assert repr(from_ints) == repr(from_fractions)
