"""Exact Laurent polynomials in one or two variables over the rationals.

Exponents are integers: the key ``3`` means ``q**3``.  A coefficient is
an ``int`` when integral and a ``fractions.Fraction`` (denominator > 1)
otherwise, and ``fractions`` is imported only where one is made; no
floats ever appear, so equality is exact.  Both kinds print, serialise
and hash alike: ``str(3) == str(Fraction(3))``.  For compatibility the
JSON form writes each exponent doubled and reads back only even keys.

>>> p = LaurentPoly({1: 1, 0: -2, -1: 1})      # q - 2 + q**-1
>>> print(p * p)
q^2 - 4*q + 6 - 4*q^-1 + q^-2
>>> print((p * p).divide_exact(p))
q - 2 + q^-1
"""

from __future__ import annotations

import numbers
from collections.abc import Iterator, Mapping

from ._frozen import SparseMap, require_int


class EvalDomainError(ValueError):
    """Evaluation point is outside the domain (0 to a negative power)."""


class InexactDivisionError(ArithmeticError):
    """Laurent division left a nonzero remainder."""


def _coerce(value: int | str | Fraction) -> int | Fraction:
    """value as an exact int when integral, else as a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__} coefficients are not allowed; use Fraction")
    from fractions import Fraction
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _exact_quotient(x: int | Fraction, y: int | Fraction) -> int | Fraction:
    """x / y without a float: an int when y divides x, else a Fraction."""
    if type(x) is int and type(y) is int and x % y == 0:
        return x // y
    from fractions import Fraction
    return _coerce(Fraction(x) / y)


def _from_twice(key: object) -> int:
    """A twice-exponent key of the JSON form as the exponent it doubles."""
    if type(key) is not int or key % 2:
        raise ValueError(f"twice-exponent key {key!r} must be an even int")
    return key // 2


def _format_q_power(e: int) -> str:
    if e == 0:
        return ""
    return "q" if e == 1 else f"q^{e}"


def _format_terms(pairs: list[tuple[str, int | Fraction]]) -> str:
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


class _SparsePoly(SparseMap):
    """Immutable map from exponent keys to nonzero exact coefficients.

    The code of LaurentPoly and BiLaurentPoly that does not depend on the
    number of variables.  A subclass sets ``_key``, which checks a key and
    returns it or raises ValueError, ``_UNIT``, the key of the constant
    term, and ``_PLAIN_KEY``, the type of a key that needs no check.
    """

    __slots__ = ()

    def __init__(self, coeffs: Mapping[object, int | str | Fraction] | None = None):
        data: dict[object, int | Fraction] = {}
        if coeffs:
            key, plain = self._key, self._PLAIN_KEY
            for k, c in coeffs.items():
                # An exact int, the usual key of LaurentPoly and the usual
                # coefficient, is stored as is, without a per-term call.
                if type(k) is not plain:
                    k = key(k)
                if type(c) is not int:
                    c = _coerce(c)
                if c:
                    data[k] = c
        object.__setattr__(self, "_c", data)

    @classmethod
    def zero(cls) -> _SparsePoly:
        return cls()

    @classmethod
    def one(cls) -> _SparsePoly:
        return cls({cls._UNIT: 1})

    def terms(self) -> Iterator[tuple[object, int | Fraction]]:
        """(key, coefficient) pairs in increasing key order."""
        for key in sorted(self._c):
            yield key, self._c[key]

    def _as_poly(self, other: object) -> _SparsePoly | None:
        """other as this class, a rational scalar as a constant, else None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, numbers.Rational):
            return type(self)({self._UNIT: other})
        return None

    def __eq__(self, other: object) -> bool:
        # A bool is refused as a coefficient, so no polynomial equals one.
        rhs = None if type(other) is bool else self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return self._c == rhs._c

    def __hash__(self) -> int:
        # A constant hashes like the scalar it equals.
        if self._c.keys() <= {self._UNIT}:
            return hash(self._c.get(self._UNIT, 0))
        return SparseMap.__hash__(self)

    def __neg__(self) -> _SparsePoly:
        return type(self)({k: -c for k, c in self._c.items()})

    def __sub__(self, other: object) -> _SparsePoly:
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> _SparsePoly:
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def _power(self, n: int) -> _SparsePoly:
        """Nonnegative integer power by binary exponentiation.

        >>> print(LaurentPoly({1: 1, 0: -1}) ** 3)
        q^3 - 3*q^2 + 3*q - 1
        """
        require_int(n, 0, "exponent must be a nonnegative integer")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class LaurentPoly(_SparsePoly):
    """Immutable sparse Laurent polynomial in q.

    The constructor takes a mapping from exponents to coefficients.
    Zero coefficients are dropped, so the zero polynomial is falsy.

    >>> LaurentPoly({2: 3, 0: "1/2"})
    LaurentPoly({0: Fraction(1, 2), 2: 3})
    >>> bool(LaurentPoly({}))
    False
    """

    __slots__ = ()
    _UNIT = 0
    _PLAIN_KEY = int

    @staticmethod
    def _key(key: int) -> int:
        # Reached only by a key that is not an exact int: a bool, a float
        # or a str is refused, never rounded or parsed.
        raise ValueError(f"exponent key {key!r} must be an int")

    # -- inspection --------------------------------------------------

    def degree_bounds(self) -> tuple[int, int]:
        """(min, max) exponent of the support; raises on zero."""
        if not self._c:
            raise ValueError("the zero polynomial has no degree bounds")
        return min(self._c), max(self._c)

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
            data[t] = data.get(t, 0) + c
        return LaurentPoly(data)

    __radd__ = __add__

    def __mul__(self, other: object) -> "LaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data: dict[int, int | Fraction] = {}
        for ta, ca in self._c.items():
            for tb, cb in rhs._c.items():
                t = ta + tb
                data[t] = data.get(t, 0) + ca * cb
        return LaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        return self._power(n)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; InexactDivisionError on remainder.

        >>> num = LaurentPoly({2: 1, 0: -1})
        >>> den = LaurentPoly({1: 1, 0: 1})
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
        a = [self._c.get(t, 0) for t in range(a_lo, a_hi + 1)]
        b = [divisor._c.get(t, 0) for t in range(b_lo, b_hi + 1)]
        if len(a) < len(b):
            raise InexactDivisionError("divisor does not divide exactly")
        lead = b[-1]
        quot: dict[int, int | Fraction] = {}
        for i in range(len(a) - len(b), -1, -1):
            c = _exact_quotient(a[i + len(b) - 1], lead)
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
        return LaurentPoly({weight - t: c for t, c in self._c.items()})

    def is_palindromic(self, weight: int) -> bool:
        """True when p(q) == q**weight * p(1/q).

        >>> LaurentPoly({0: 1, 1: 5, 2: 1}).is_palindromic(2)
        True
        """
        return self._c == self.reverse(weight)._c

    def eval_at(self, x: int | str | Fraction) -> Fraction:
        """Evaluate at a rational point; negative exponents require x != 0.

        >>> LaurentPoly({-1: 3}).eval_at(5)
        Fraction(3, 5)
        """
        # A Fraction base keeps x ** -k exact; an int base would give a float.
        from fractions import Fraction
        x = Fraction(_coerce(x))
        if x == 0 and any(t < 0 for t in self._c):
            raise EvalDomainError("negative exponent at x = 0")
        return sum((c * x ** t for t, c in self._c.items()), Fraction(0))

    # -- wire format ---------------------------------------------------

    def to_json_obj(self) -> list[list]:
        """Sorted [[2 * exponent, "coefficient"], ...] with exact strings."""
        return [[2 * t, str(c)] for t, c in sorted(self._c.items())]

    @classmethod
    def from_json_obj(cls, obj: list) -> "LaurentPoly":
        return cls({_from_twice(t): c for t, c in obj})


class BiLaurentPoly(_SparsePoly):
    """Sparse Laurent polynomial in two variables u, v.

    Keys are (u-exponent, v-exponent) pairs.

    >>> p = BiLaurentPoly({(1, 0): 1, (0, 1): -1})   # u - v
    >>> print(p * p)
    u^2 - 2*u*v + v^2
    >>> print((p * p).diagonal())
    0
    """

    __slots__ = ()
    _UNIT = (0, 0)
    _PLAIN_KEY = None  # every key is checked

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        if (type(key) is not tuple or len(key) != 2
                or type(key[0]) is not int or type(key[1]) is not int):
            raise ValueError(f"exponent key {key!r} must be a pair of ints")
        return key

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
            data[k] = data.get(k, 0) + c
        return BiLaurentPoly(data)

    __radd__ = __add__

    def __mul__(self, other: object) -> "BiLaurentPoly":
        rhs = self._as_poly(other)
        if rhs is None:
            return NotImplemented
        data: dict[tuple[int, int], int | Fraction] = {}
        for (au, av), ca in self._c.items():
            for (bu, bv), cb in rhs._c.items():
                k = (au + bu, av + bv)
                data[k] = data.get(k, 0) + ca * cb
        return BiLaurentPoly(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiLaurentPoly":
        return self._power(n)

    def swap(self) -> "BiLaurentPoly":
        """Exchange the two variables."""
        return BiLaurentPoly({(b, a): c for (a, b), c in self._c.items()})

    def diagonal(self) -> LaurentPoly:
        """Substitute u = v = q.

        >>> print(BiLaurentPoly({(2, 1): 3}).diagonal())
        3*q^3
        """
        data: dict[int, int | Fraction] = {}
        for (a, b), c in self._c.items():
            t = a + b
            data[t] = data.get(t, 0) + c
        return LaurentPoly(data)

    def to_json_obj(self) -> list[list]:
        return [[2 * a, 2 * b, str(c)] for (a, b), c in sorted(self._c.items())]

    @classmethod
    def from_json_obj(cls, obj: list) -> "BiLaurentPoly":
        return cls({(_from_twice(a), _from_twice(b)): c for a, b, c in obj})
