"""Exact Laurent polynomials in one or two variables over the rationals.

Exponents may be half-integers.  Internally every exponent is stored as
*twice* its value, so the key ``5`` means ``q**(5/2)`` and the key ``6``
means ``q**3``.  All coefficients are ``fractions.Fraction``; no floats
ever appear, so equality of polynomials is exact.

>>> p = LaurentPoly({2: 1, 0: -2, -2: 1})      # q - 2 + q**-1
>>> print(p * p)
q^2 - 4*q + 6 - 4*q^-1 + q^-2
>>> print((p * p).divide_exact(p))
q - 2 + q^-1
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Iterator, Mapping, TypeVar, Union

CoeffLike = Union[int, str, Fraction]

_ZERO = Fraction(0)

_P = TypeVar("_P", bound="_SparsePoly")


class EvalDomainError(ValueError):
    """Evaluation point is outside the domain (bad square root or 0**neg)."""


class InexactDivisionError(ArithmeticError):
    """Laurent division left a nonzero remainder."""


class ParityError(ArithmeticError):
    """A half-integer exponent appeared where integers were required."""


def _coerce(value: CoeffLike) -> Fraction:
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__} coefficients are not allowed; use Fraction")
    return Fraction(value)


def _exact_sqrt(x: Fraction) -> Fraction:
    """Return the nonnegative rational square root of x, or raise.

    >>> _exact_sqrt(Fraction(9, 4))
    Fraction(3, 2)
    """
    if x < 0:
        raise EvalDomainError("negative value has no rational square root")
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        raise EvalDomainError(f"{x} is not the square of a rational")
    return Fraction(rn, rd)


def _format_q_power(twice: int) -> str:
    if twice == 0:
        return ""
    if twice == 2:
        return "q"
    if twice % 2 == 0:
        return f"q^{twice // 2}"
    return f"q^({twice}/2)"


def _format_terms(pairs: list[tuple[str, Fraction]]) -> str:
    out: list[str] = []
    for power, coeff in pairs:
        mag = abs(coeff)
        if not power:
            body = str(mag)
        elif mag == 1:
            body = power
        else:
            body = f"{mag}*{power}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out) if out else "0"


class _SparsePoly:
    """Immutable map from exponent keys to nonzero Fraction coefficients.

    The code of LaurentPoly and BiLaurentPoly that does not depend on the
    number of variables.  A subclass sets ``_key``, which normalises a
    key, and ``_UNIT``, the key of the constant term.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[Any, CoeffLike] | None = None):
        data: dict[Any, Fraction] = {}
        if coeffs:
            key = self._key
            for k, value in coeffs.items():
                c = _coerce(value)
                if c:
                    data[key(k)] = c
        object.__setattr__(self, "_c", data)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls: type[_P]) -> _P:
        return cls()

    @classmethod
    def one(cls: type[_P]) -> _P:
        return cls({cls._UNIT: 1})

    def terms(self) -> Iterator[tuple[Any, Fraction]]:
        """(key, coefficient) pairs in increasing key order."""
        for key in sorted(self._c):
            yield key, self._c[key]

    def __bool__(self) -> bool:
        return bool(self._c)

    def _as_poly(self: _P, other: object) -> _P | None:
        """other as this class, an int or Fraction as a constant, else None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self)({self._UNIT: other})
        return None

    def __eq__(self, other: object) -> bool:
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return self._c == rhs._c

    def __hash__(self) -> int:
        # A constant hashes like the scalar it equals.
        if self._c.keys() <= {self._UNIT}:
            return hash(self._c.get(self._UNIT, 0))
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c!r}" for k, c in sorted(self._c.items()))
        return f"{type(self).__name__}({{{inner}}})"

    def __neg__(self: _P) -> _P:
        return type(self)({k: -c for k, c in self._c.items()})

    def __sub__(self: _P, other: object) -> _P:
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self: _P, other: object) -> _P:
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def _power(self: _P, n: int) -> _P:
        """Nonnegative integer power by binary exponentiation.

        >>> print(LaurentPoly.from_q_powers({1: 1, 0: -1}) ** 3)
        q^3 - 3*q^2 + 3*q - 1
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls: type[_P], text: str) -> _P:
        return cls.from_json_obj(json.loads(text))


class LaurentPoly(_SparsePoly):
    """Immutable sparse Laurent polynomial in q with half-integer exponents.

    The constructor takes a mapping from twice-exponents to coefficients.
    Zero coefficients are dropped, so the zero polynomial is falsy.

    >>> LaurentPoly({4: 3, 0: "1/2"})
    LaurentPoly({0: Fraction(1, 2), 4: Fraction(3, 1)})
    >>> bool(LaurentPoly({}))
    False
    """

    __slots__ = ()
    _key = int
    _UNIT = 0

    # -- constructors ------------------------------------------------

    @classmethod
    def monomial(cls, twice: int, coeff: CoeffLike = 1) -> "LaurentPoly":
        """c * q**(twice/2)."""
        return cls({twice: coeff})

    @classmethod
    def from_q_powers(cls, coeffs: Mapping[int, CoeffLike]) -> "LaurentPoly":
        """Build from a mapping of ordinary integer exponents.

        >>> print(LaurentPoly.from_q_powers({1: 1, 0: -1}))
        q - 1
        """
        return cls({2 * e: c for e, c in coeffs.items()})

    # -- inspection --------------------------------------------------

    def degree_bounds(self) -> tuple[int, int]:
        """(min, max) twice-exponent of the support; raises on zero."""
        if not self._c:
            raise ValueError("the zero polynomial has no degree bounds")
        return min(self._c), max(self._c)

    @property
    def has_integer_exponents(self) -> bool:
        return all(t % 2 == 0 for t in self._c)

    def to_q_dict(self) -> dict[int, Fraction]:
        """As {integer exponent: coefficient}; ParityError on half exponents.

        >>> LaurentPoly({6: 5}).to_q_dict()
        {3: Fraction(5, 1)}
        """
        if not self.has_integer_exponents:
            raise ParityError("polynomial has half-integer exponents")
        return {t // 2: c for t, c in sorted(self._c.items())}

    def __str__(self) -> str:
        pairs = [(_format_q_power(t), c) for t, c in sorted(self._c.items(), reverse=True)]
        return _format_terms(pairs)

    # -- ring operations ---------------------------------------------

    def __add__(self, other: object) -> "LaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data = dict(self._c)
        for t, c in rhs._c.items():
            data[t] = data.get(t, _ZERO) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __mul__(self, other: object) -> "LaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data: dict[int, Fraction] = {}
        for ta, ca in self._c.items():
            for tb, cb in rhs._c.items():
                t = ta + tb
                data[t] = data.get(t, _ZERO) + ca * cb
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        return self._power(n)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; InexactDivisionError on remainder.

        >>> num = LaurentPoly.from_q_powers({2: 1, 0: -1})
        >>> den = LaurentPoly.from_q_powers({1: 1, 0: 1})
        >>> print(num.divide_exact(den))
        q - 1
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly.zero()
        a_lo, a_hi = self.degree_bounds()
        b_lo, b_hi = divisor.degree_bounds()
        # Dense long division on coefficient lists shifted to start at 0.
        a = [self._c.get(t, _ZERO) for t in range(a_lo, a_hi + 1)]
        b = [divisor._c.get(t, _ZERO) for t in range(b_lo, b_hi + 1)]
        if len(a) < len(b):
            raise InexactDivisionError("divisor does not divide exactly")
        lead = b[-1]
        quot: dict[int, Fraction] = {}
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] / lead
            if c:
                quot[i + a_lo - b_lo] = c
                for j, bj in enumerate(b):
                    if bj:
                        a[i + j] -= c * bj
        if any(a):
            raise InexactDivisionError("divisor does not divide exactly")
        return LaurentPoly(quot)

    # -- substitutions ------------------------------------------------

    def reverse(self, weight: int) -> "LaurentPoly":
        """q**weight * p(1/q) for an integer weight."""
        return LaurentPoly({2 * weight - t: c for t, c in self._c.items()})

    def is_palindromic(self, weight: int) -> bool:
        """True when p(q) == q**weight * p(1/q).

        >>> LaurentPoly.from_q_powers({0: 1, 1: 5, 2: 1}).is_palindromic(2)
        True
        """
        return self._c == self.reverse(weight)._c

    def eval_at(self, x: CoeffLike) -> Fraction:
        """Evaluate at a rational point.

        Half-integer exponents require x to be the square of a rational
        (the nonnegative root is used); negative exponents require x != 0.

        >>> LaurentPoly({1: 1}).eval_at(Fraction(9, 4))
        Fraction(3, 2)
        """
        x = _coerce(x)
        if not self._c:
            return _ZERO
        if x == 0 and any(t < 0 for t in self._c):
            raise EvalDomainError("negative exponent at x = 0")
        if self.has_integer_exponents:
            return sum((c * x ** (t // 2) for t, c in self._c.items()), _ZERO)
        r = _exact_sqrt(x)
        return sum((c * r ** t for t, c in self._c.items()), _ZERO)

    # -- wire format ---------------------------------------------------

    def to_json_obj(self) -> list[list]:
        """Sorted [[twice-exponent, "coefficient"], ...] with exact strings."""
        return [[t, str(c)] for t, c in sorted(self._c.items())]

    @classmethod
    def from_json_obj(cls, obj: list) -> "LaurentPoly":
        return cls({t: c for t, c in obj})


class BiLaurentPoly(_SparsePoly):
    """Sparse Laurent polynomial in two variables u, v.

    Keys are (twice-u-exponent, twice-v-exponent) pairs.

    >>> p = BiLaurentPoly({(2, 0): 1, (0, 2): -1})   # u - v
    >>> print(p * p)
    u^2 - 2*u*v + v^2
    >>> print((p * p).diagonal())
    0
    """

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        tu, tv = key
        return int(tu), int(tv)

    @classmethod
    def from_uv_powers(cls, coeffs: Mapping[tuple[int, int], CoeffLike]) -> "BiLaurentPoly":
        """Build from ordinary integer exponent pairs."""
        return cls({(2 * a, 2 * b): c for (a, b), c in coeffs.items()})

    def __str__(self) -> str:
        def power(key: tuple[int, int]) -> str:
            parts = [s for s in (_format_q_power(key[0]).replace("q", "u"),
                                 _format_q_power(key[1]).replace("q", "v")) if s]
            return "*".join(parts)

        order = sorted(self._c.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
                       reverse=True)
        return _format_terms([(power(k), c) for k, c in order])

    def __add__(self, other: object) -> "BiLaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data = dict(self._c)
        for k, c in rhs._c.items():
            data[k] = data.get(k, _ZERO) + c
        return BiLaurentPoly(data)

    __radd__ = __add__

    def __mul__(self, other: object) -> "BiLaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data: dict[tuple[int, int], Fraction] = {}
        for (au, av), ca in self._c.items():
            for (bu, bv), cb in rhs._c.items():
                k = (au + bu, av + bv)
                data[k] = data.get(k, _ZERO) + ca * cb
        return BiLaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiLaurentPoly":
        return self._power(n)

    def swap(self) -> "BiLaurentPoly":
        """Exchange the two variables."""
        return BiLaurentPoly({(b, a): c for (a, b), c in self._c.items()})

    def diagonal(self) -> LaurentPoly:
        """Substitute u = v = q.

        >>> print(BiLaurentPoly.from_uv_powers({(2, 1): 3}).diagonal())
        3*q^3
        """
        data: dict[int, Fraction] = {}
        for (a, b), c in self._c.items():
            t = a + b
            data[t] = data.get(t, _ZERO) + c
        return LaurentPoly(data)

    def to_json_obj(self) -> list[list]:
        return [[a, b, str(c)] for (a, b), c in sorted(self._c.items())]

    @classmethod
    def from_json_obj(cls, obj: list) -> "BiLaurentPoly":
        return cls({(a, b): c for a, b, c in obj})
