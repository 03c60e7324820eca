import doctest
import enum
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwcheck.laurent
from pwcheck import VerificationError
from pwcheck.laurent import (
    BiLaurentPoly,
    InexactDivisionError,
    LaurentPoly,
    _exact_quotient,
)

coeffs = st.integers(-5, 5)
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
    one = LaurentPoly.one()
    assert p + one == LaurentPoly({1: 1})
    assert one + p == p + one
    assert p - p == LaurentPoly.zero()
    assert not (p - p)
    assert LaurentPoly({0: 2}) * p == p + p
    assert p * LaurentPoly.one() == p
    assert p ** 0 == LaurentPoly.one()
    assert p ** 1 == p


def test_float_coefficients_rejected():
    with pytest.raises(TypeError, match="^coefficient 0.5 must be an int$"):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError, match="^coefficient True must be an int$"):
        LaurentPoly({0: True})
    with pytest.raises(TypeError):
        LaurentPoly.one() * True
    # A Fraction, even an integral one, is refused like a float.
    for value in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(TypeError, match=" must be an int$"):
            BiLaurentPoly({(0, 0): value})
        with pytest.raises(TypeError):
            LaurentPoly.one() * value


@pytest.mark.parametrize("cls", [LaurentPoly, BiLaurentPoly])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_equals_no_polynomial(cls, flag):
    # A bool is refused as a coefficient, so == and != compare it as
    # unequal instead of raising.
    for p in (cls.zero(), cls.one()):
        assert not p == flag and p != flag
        assert not flag == p and flag != p


@pytest.mark.parametrize("cls, a, b", [(LaurentPoly, 1, -2), (BiLaurentPoly, (1, 0), (0, -2))])
def test_divide_coefficients_is_exact(cls, a, b):
    # The one division by n that ends every route, in the form the routes
    # write it: an int where it divides, the sign kept, and the caller's
    # class; anywhere it does not, a failed check.
    def divide(p, n):
        return cls._of({k: _exact_quotient(c, n) for k, c in p.terms()})

    got = divide(cls({a: -6, b: 9}), 3)
    assert type(got) is cls and got == cls({a: -2, b: 3})
    assert all(type(c) is int for _, c in got.terms())
    assert _exact_quotient(0, 3) == 0
    with pytest.raises(InexactDivisionError, match="^coefficient -7 is not divisible by 3$"):
        divide(cls({a: -6, b: -7}), 3)
    assert issubclass(InexactDivisionError, VerificationError)


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


@given(polys, st.integers(-4, 4))
def test_reverse_is_an_involution(p, w):
    assert p.reverse(w).reverse(w) == p
    sym = p + p.reverse(w)
    assert sym.reverse(w) == sym


class Weight(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("weight", [True, Weight.TWO, 2.0, "2"],
                         ids=["bool", "IntEnum", "float", "str"])
def test_reverse_and_palindromy_take_only_an_int_weight(weight):
    # A bool or an int subclass is no exact int: it is refused, not read
    # as its value, and a float is refused by name, not as a bad key.
    message = f"^weight {re.escape(repr(weight))} must be an int$"
    for p in (LaurentPoly({0: 1, 1: 5, 2: 1}), LaurentPoly.zero()):
        with pytest.raises(ValueError, match=message):
            p.reverse(weight)


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
    with pytest.raises(InexactDivisionError):
        q_plus_1.divide_exact(q_plus_1 * q_plus_1)
    # A quotient that exists over the rationals but not over the ints.
    with pytest.raises(InexactDivisionError):
        LaurentPoly({1: 2}).divide_exact(LaurentPoly({0: 3}))
    with pytest.raises(ZeroDivisionError):
        q_plus_1.divide_exact(LaurentPoly.zero())


@given(polys)
def test_json_round_trip(p):
    wire = json.loads(p.to_json())
    assert wire == p.to_json_obj()
    # The wire loses nothing: halving each key and reading each str gives p.
    assert LaurentPoly({t // 2: int(c) for t, c in wire}) == p


def test_json_wire_shape():
    # The wire holds twice each exponent, for compatibility.
    p = LaurentPoly({3: 12, -1: -4})
    assert p.to_json() == '[[-2,"-4"],[6,"12"]]'


@given(bipolys, bipolys)
def test_bivariate_diagonal_is_multiplicative(a, b):
    assert (a * b).diagonal() == a.diagonal() * b.diagonal()


@given(bipolys, bipolys)
def test_bivariate_swap_distributes_over_product(a, b):
    assert (a * b).swap() == a.swap() * b.swap()


SHARED_CORE_CASES = [
    (LaurentPoly, {4: 3, 0: -2},
     "LaurentPoly({0: -2, 4: 3})"),
    (BiLaurentPoly, {(2, 0): 3, (0, 0): -2},
     "BiLaurentPoly({(0, 0): -2, (2, 0): 3})"),
]


@pytest.mark.parametrize("cls,coeffs,expected_repr", SHARED_CORE_CASES)
def test_shared_core(cls, coeffs, expected_repr):
    p = cls(coeffs)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        p._c = {}
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        p.other = 1
    assert not hasattr(p, "__dict__")
    assert type(cls.zero()) is cls and not cls.zero()
    assert type(cls.one()) is cls and cls.one() == cls({cls._UNIT: 1})
    assert cls.one() != Fraction(1) and cls.one() != 1.0 and cls.one() != 1
    assert type(-p) is cls and type(cls.one() - p) is cls and type(p ** 2) is cls
    assert repr(p) == expected_repr
    assert repr(cls.zero()) == f"{cls.__name__}({{}})"


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


def test_pow_squares_the_base_only_while_bits_remain(monkeypatch):
    # One squaring per bit below the top and one product per set bit;
    # a squaring past the top bit would be the largest product of all.
    products = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    q_minus_1 = LaurentPoly({1: 1, 0: -1})
    for e in range(1, 131):
        products.clear()
        power = q_minus_1 ** e
        assert len(products) == e.bit_length() - 1 + bin(e).count("1"), e
        assert power == LaurentPoly({k: math.comb(e, k) * (-1) ** (e - k) for k in range(e + 1)})
    products.clear()
    assert q_minus_1 ** 0 == LaurentPoly.one() and not products
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
        q_minus_1 ** -1


def test_bivariate_arithmetic():
    u = BiLaurentPoly({(1, 0): 1})
    v = BiLaurentPoly({(0, 1): 1})
    assert (u + v) ** 2 == u * u + BiLaurentPoly({(0, 0): 2}) * u * v + v * v
    assert (u - v).swap() == v - u
    assert (u * v).diagonal() == LaurentPoly({2: 1})


def _assert_exact(*polys):
    """Every stored coefficient is an exact int."""
    for p in polys:
        for _, c in p.terms():
            assert type(c) is int, repr(c)


@given(polys, polys, st.integers(0, 3), st.booleans())
@settings(deadline=None)
def test_coefficients_stay_exact(a, b, n, flag):
    two, three = LaurentPoly({0: 2}), LaurentPoly({0: 3})
    _assert_exact(a, a + b, a - b, a * b, a ** n, three * a, a + LaurentPoly.one(),
                  LaurentPoly(dict(a.terms())))
    if b:
        _assert_exact((a * b).divide_exact(b), (a * b * two).divide_exact(two * b))
    with pytest.raises(TypeError):
        LaurentPoly({0: flag})
    with pytest.raises(TypeError):
        LaurentPoly.one() * flag


@given(bipolys, bipolys, st.integers(0, 3), st.booleans())
@settings(deadline=None)
def test_bivariate_coefficients_stay_exact(a, b, n, flag):
    _assert_exact(a, a + b, a - b, a * b, a ** n, (a * b).diagonal(), a.swap(),
                  BiLaurentPoly(dict(a.terms())))
    with pytest.raises(TypeError):
        BiLaurentPoly({(0, 0): flag})
    with pytest.raises(TypeError):
        BiLaurentPoly.one() * flag


def _refuse(*args):
    raise AssertionError("an arithmetic result went through a check")


def test_arithmetic_results_are_never_checked_again(monkeypatch):
    # Every result is built from keys and coefficients already checked,
    # through the trusted constructor, so neither rule runs on it.
    a = LaurentPoly({2: 3, 0: 6, -1: -3})
    b = LaurentPoly({1: 2, 0: -1})
    u = BiLaurentPoly({(1, 0): 6, (0, 1): -3, (0, 0): 9})
    v = BiLaurentPoly({(1, 1): 1, (0, 0): 3})

    def results():
        return [a + b, a - b, a * b, a ** 3, -a,
                (a * b).divide_exact(b), a.reverse(2), LaurentPoly.zero(), LaurentPoly.one(),
                u + v, u - v, u * v, u ** 3, -u, u.swap(),
                u.diagonal(), (u * v).diagonal(), BiLaurentPoly.zero(), BiLaurentPoly.one()]

    expected = results()
    for cls in (LaurentPoly, BiLaurentPoly):
        monkeypatch.setattr(cls, "_key", staticmethod(_refuse))
        monkeypatch.setattr(cls, "_value", staticmethod(_refuse))
    got = results()
    assert got == expected
    assert [repr(p) for p in got] == [repr(p) for p in expected]
    _assert_exact(*got)
