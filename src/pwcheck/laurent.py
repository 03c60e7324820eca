"""Exact Laurent polynomials in one or two variables over the integers.

Exponents are integers: the key ``3`` means ``q**3``.  Every coefficient is
an exact ``int``, never a float, so equality is exact; a division that would
leave the integers raises InexactDivisionError.  A polynomial equals, adds
to and multiplies only a polynomial of its own class, never an int:
``Frozen`` holds the equality and ``_SparsePoly`` the one ``+``;
``_monomial`` writes every monomial and ``SparseMap`` reads the degree
bounds.  The JSON form of a LaurentPoly, which is written and never read,
holds each coefficient as its decimal str and each exponent doubled for
compatibility.

>>> p = LaurentPoly({1: 1, 0: -2, -1: 1})      # q - 2 + q**-1
>>> print(p * p)
q^2 - 4*q + 6 - 4*q^-1 + q^-2
>>> print((p * p).divide_exact(p))
q - 2 + q^-1
"""

from ._frozen import SparseMap, VerificationError, is_int_pair, require_int


class InexactDivisionError(VerificationError):
    """A division left the integers: a nonzero remainder."""


def _exact_quotient(x: int, y: int) -> int:
    """x / y as an int; InexactDivisionError when y does not divide x."""
    quotient, remainder = divmod(x, y)
    if remainder:
        raise InexactDivisionError(f"coefficient {x} is not divisible by {y}")
    return quotient


def _normal(data: dict) -> dict:
    """data without its zero coefficients."""
    return {k: c for k, c in data.items() if c}


def _monomial(exponents: tuple[int, ...], names: str) -> str:
    """The monomial with these exponents on the variables named by the
    letters of names, "" for 1: ``_monomial((1, -2), "uv")`` is ``u*v^-2``."""
    return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, exponents) if e)


def _format_terms(pairs: list[tuple[str, int]]) -> str:
    out: list[str] = []
    for power, coeff in pairs:
        mag = abs(coeff)
        body = str(mag) if not power else power if mag == 1 else f"{mag}*{power}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out) if out else "0"


class _SparsePoly(SparseMap):
    """Immutable map from exponent keys to nonzero int coefficients.

    The code of LaurentPoly and BiLaurentPoly that does not depend on the
    number of variables.  A subclass sets ``_key``, which checks a key and
    returns it or raises ValueError, and ``_UNIT``, the key of the constant
    term.  Equality is Frozen's and hashing SparseMap's; ``+`` and ``-``
    are written here once for both classes.  Arithmetic takes an operand of
    its own class, gives NotImplemented for any other, an int among them,
    and builds its results through ``_of``, unchecked.
    """

    __slots__ = ()

    def _value(self, key: object, value: object) -> int:
        if type(value) is not int:
            raise TypeError(f"coefficient {value!r} must be an int")
        return value

    @classmethod
    def zero(cls) -> "_SparsePoly":
        return cls._of({})

    @classmethod
    def one(cls) -> "_SparsePoly":
        return cls._of({cls._UNIT: 1})

    terms = SparseMap.items  # (key, coefficient) pairs in increasing key order

    def __neg__(self) -> "_SparsePoly":
        return self._of({k: -c for k, c in self._c.items()})

    def __add__(self, other: object) -> "_SparsePoly":
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self._c)
        for k, c in other._c.items():
            data[k] = data.get(k, 0) + c
        return self._of(_normal(data))

    def __sub__(self, other: object) -> "_SparsePoly":
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _power(self, n: int) -> "_SparsePoly":
        """Nonnegative integer power by binary exponentiation: one product
        per set bit of n, and a squaring of the base only while bits remain.

        >>> print(LaurentPoly({1: 1, 0: -1}) ** 3)
        q^3 - 3*q^2 + 3*q - 1
        """
        require_int(n, 0, "exponent must be a nonnegative integer")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


class LaurentPoly(_SparsePoly):
    """Immutable sparse Laurent polynomial in q.

    The constructor takes a mapping from exponents to coefficients.
    Zero coefficients are dropped, so the zero polynomial is falsy.

    Coefficients are ints; anything else, even the decimal str of one,
    raises TypeError.

    >>> LaurentPoly({2: 3, 0: -1})
    LaurentPoly({0: -1, 2: 3})
    >>> bool(LaurentPoly({}))
    False
    """

    __slots__ = ()
    _UNIT = 0

    @staticmethod
    def _key(key: int) -> int:
        # A bool, a float or a str is refused, never rounded or parsed.
        if type(key) is not int:
            raise ValueError(f"exponent key {key!r} must be an int")
        return key

    # -- inspection --------------------------------------------------

    degree_bounds = SparseMap._key_bounds  # (min, max) exponent; raises on zero

    def __str__(self) -> str:
        pairs = [(_monomial((t,), "q"), c) for t, c in sorted(self._c.items(), reverse=True)]
        return _format_terms(pairs)

    # -- ring operations ---------------------------------------------

    # Own binding, not inherited: perfbench/tracer.py patches vars(cls).
    __add__ = _SparsePoly.__add__

    def __mul__(self, other: object) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        data: dict[int, int] = {}
        for ta, ca in self._c.items():
            for tb, cb in other._c.items():
                t = ta + tb
                data[t] = data.get(t, 0) + ca * cb
        return LaurentPoly._of(_normal(data))

    def __pow__(self, n: int) -> "LaurentPoly":
        return self._power(n)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / divisor; InexactDivisionError unless it has
        int coefficients.

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
        lead = b[-1]
        quot: dict[int, int] = {}
        for i in range(len(a) - len(b), -1, -1):
            c = _exact_quotient(a[i + len(b) - 1], lead)
            if c:
                quot[i + a_lo - b_lo] = c
                for j, bj in enumerate(b):
                    if bj:
                        a[i + j] -= c * bj
        if any(a):
            raise InexactDivisionError("divisor does not divide exactly")
        return LaurentPoly._of(quot)

    # -- substitutions ------------------------------------------------

    def reverse(self, weight: int) -> "LaurentPoly":
        """q**weight * p(1/q) for an integer weight."""
        if type(weight) is not int:
            raise ValueError(f"weight {weight!r} must be an int")
        return LaurentPoly._of({weight - t: c for t, c in self._c.items()})

    # -- wire format ---------------------------------------------------

    def to_json_obj(self) -> list[list]:
        """Sorted [[2 * exponent, "coefficient"], ...] with exact strings."""
        return [[2 * t, str(c)] for t, c in self.items()]


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

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        if not is_int_pair(key):
            raise ValueError(f"exponent key {key!r} must be a pair of ints")
        return key

    def __str__(self) -> str:
        order = sorted(self._c.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
                       reverse=True)
        return _format_terms([(_monomial(k, "uv"), c) for k, c in order])

    def __mul__(self, other: object) -> "BiLaurentPoly":
        if not isinstance(other, BiLaurentPoly):
            return NotImplemented
        data: dict[tuple[int, int], int] = {}
        for (au, av), ca in self._c.items():
            for (bu, bv), cb in other._c.items():
                k = (au + bu, av + bv)
                data[k] = data.get(k, 0) + ca * cb
        return BiLaurentPoly._of(_normal(data))

    def __pow__(self, n: int) -> "BiLaurentPoly":
        return self._power(n)

    def swap(self) -> "BiLaurentPoly":
        """Exchange the two variables."""
        return BiLaurentPoly._of({(b, a): c for (a, b), c in self._c.items()})

    def diagonal(self) -> LaurentPoly:
        """Substitute u = v = q.

        >>> print(BiLaurentPoly({(2, 1): 3}).diagonal())
        3*q^3
        """
        data: dict[int, int] = {}
        for (a, b), c in self._c.items():
            t = a + b
            data[t] = data.get(t, 0) + c
        return LaurentPoly._of(_normal(data))
