"""E-polynomials of prime-rank twisted character varieties.

Everything here is a closed formula evaluated in exact integer
arithmetic.  The key objects are the one-variable E-polynomial of the
variant (non-abelian) part of the cohomology, its two-variable mirror
refinement, and the variant Betti numbers read off from it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping

from ._frozen import DomainError, VerificationError, require_int
from .filtration import _Graded, _Record
from .laurent import BiLaurentPoly, LaurentPoly


class NotPrimeError(DomainError):
    """The rank must be prime for these formulas to apply."""


class InconsistentFormulaError(VerificationError):
    """Two routes to the same quantity disagreed; indicates a bug."""


def smallest_prime_factor(n: int) -> int:
    require_int(n, 2, "rank n must be an integer >= 2")
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def require_prime(n: int) -> None:
    if type(n) is not int or n < 2 or smallest_prime_factor(n) != n:
        raise NotPrimeError(f"rank {n!r} is not prime")


class ModuliParams(_Record):
    """Rank, genus and twisting degree, with the derived numerology.

    A composite rank raises NotPrimeError here, so no formula re-checks
    it.  The degree d only has to be coprime to n; results are
    independent of its actual value.
    """

    __slots__ = ("n", "g", "d")

    def __init__(self, n: int, g: int, d: int = 1):
        require_int(n, 2, "rank n must be an integer >= 2")
        require_prime(n)
        require_int(g, 2, "genus g must be an integer >= 2")
        if type(d) is not int or math.gcd(n, d) != 1:
            raise DomainError("degree d must be an integer coprime to n")
        super().__init__(n, g, d)

    @property
    def dim(self) -> int:
        """Complex dimension of the moduli space: (n^2-1)(2g-2)."""
        return (self.n * self.n - 1) * (2 * self.g - 2)

    @property
    def half_dim(self) -> int:
        """Middle perverse degree m = dim / 2."""
        return (self.n * self.n - 1) * (self.g - 1)

    @property
    def curious_shift(self) -> int:
        """Center offset c = n(n-1)(g-1) of the curious symmetry."""
        return self.n * (self.n - 1) * (self.g - 1)


def variant_bracket(n: int, g: int) -> LaurentPoly:
    """(q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2}.

    The common factor of the closed E-polynomial and of the point-count
    route; everything variant-specific lives in the prefactor.
    """
    q_minus_1 = LaurentPoly({1: 1, 0: -1})
    cyclo_sum = LaurentPoly({e: 1 for e in range(n)})
    return q_minus_1 ** ((n - 1) * (2 * g - 2)) - cyclo_sum ** (2 * g - 2)


# The last (n, g) and its closed E-polynomial, shared (LaurentPoly is
# immutable) by the nine calls of one verify; no other route reads it.
_CLOSED_MEMO: dict[tuple[int, int], LaurentPoly] = {}


def closed_e(params: ModuliParams) -> LaurentPoly:
    """Closed-form E-polynomial of the variant cohomology.

    ((n^{2g} - 1)/n) * q^dim * ((q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2}),
    on ints: the 1/n comes last, as an exact division of each coefficient.
    """
    n, g = params.n, params.g
    if (n, g) not in _CLOSED_MEMO:
        product = LaurentPoly({params.dim: n ** (2 * g) - 1}) * variant_bracket(n, g)
        _CLOSED_MEMO.clear()
        _CLOSED_MEMO[n, g] = product._divide_coefficients(n)
    return _CLOSED_MEMO[n, g]


def mirror_difference(params: ModuliParams) -> BiLaurentPoly:
    """Two-variable refinement whose diagonal u = v = q is closed_e.

    ((n^{2g}-1)/n) * (uv)^{(n^2-1)(g-1)}
        * (((u-1)(v-1))^{(n-1)(g-1)} - (S(u) S(v))^{g-1})
    with S(x) = 1 + x + ... + x^{n-1}.
    """
    n, g = params.n, params.g
    u_minus_1 = BiLaurentPoly({(1, 0): 1, (0, 0): -1})
    v_minus_1 = BiLaurentPoly({(0, 1): 1, (0, 0): -1})
    s_u = BiLaurentPoly({(e, 0): 1 for e in range(n)})
    s_v = BiLaurentPoly({(0, e): 1 for e in range(n)})
    m = params.half_dim
    prefix = BiLaurentPoly({(m, m): n ** (2 * g) - 1})
    # Each power has one variable, so its size grows linearly; the two
    # products are outer products of univariate factors.
    a, b = (n - 1) * (g - 1), g - 1
    bracket = u_minus_1 ** a * v_minus_1 ** a - s_u ** b * s_v ** b
    # The scale's 1/n comes last, as in closed_e, so the product runs on ints.
    product = prefix * bracket
    return product._divide_coefficients(n)


class CohomologyProfile(_Graded):
    """Betti numbers indexed by cohomological degree.

    Missing degrees are zero.  Values are nonnegative integers.
    """

    __slots__ = ()
    _BAD_VALUE = "dimension at degree {} must be a nonnegative int"

    @staticmethod
    def _key(degree: int | str) -> int:
        if (type(degree) is int  # or the str to_json_obj writes for one
                or isinstance(degree, str) and re.fullmatch(r"0|-?[1-9][0-9]*", degree)):
            return int(degree)
        raise ValueError(f"degree {degree!r} must be an int or its decimal str")

    def __getitem__(self, degree: int) -> int:
        return self._c.get(degree, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, dict):
            return self._c == {d: v for d, v in other.items() if v}
        return _Graded.__eq__(self, other)

    __hash__ = _Graded.__hash__

    def support(self) -> tuple[int, int]:
        """(lowest, highest) degree with a nonzero group; raises if empty."""
        if not self._c:
            raise ValueError("empty profile has no support")
        return min(self._c), max(self._c)

    def euler(self) -> int:
        return sum(v if d % 2 == 0 else -v for d, v in self._c.items())

    def to_csv(self) -> str:
        lines = ["degree,dimension"]
        lines += [f"{d},{v}" for d, v in self.items()]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict[str, int]:
        return {str(d): v for d, v in self.items()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, int]) -> "CohomologyProfile":
        return cls(obj)


def variant_betti(params: ModuliParams) -> CohomologyProfile:
    """Variant Betti numbers extracted from the closed E-polynomial.

    The group in degree deg contributes to q^(2*dim - deg) with sign
    (-1)^deg, so the extraction inverts that.
    """
    e = closed_e(params)
    dims: dict[int, int] = {}
    for exponent, coeff in e.terms():
        deg = 2 * params.dim - exponent
        value = coeff if deg % 2 == 0 else -coeff
        if value.denominator != 1 or value <= 0:
            raise InconsistentFormulaError(
                f"degree {deg} would get dimension {value}")
        dims[deg] = int(value)
    return CohomologyProfile(dims)


def euler_variant(params: ModuliParams) -> int:
    """Euler characteristic of the variant part, -(n^{2g}-1) * n^{2g-3},
    cross-checked against the E-polynomial at q = 1.
    """
    n, g = params.n, params.g
    closed_form = -(n ** (2 * g) - 1) * n ** (2 * g - 3)
    from_e = sum(c for _, c in closed_e(params).terms())  # E(1)
    if from_e != closed_form:
        raise InconsistentFormulaError(
            f"Euler characteristic mismatch: {from_e} vs {closed_form}")
    return closed_form
