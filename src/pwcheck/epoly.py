"""E-polynomials of prime-rank twisted character varieties.

Everything here is a closed formula evaluated in exact rational
arithmetic.  The key objects are the one-variable E-polynomial of the
variant (non-abelian) part of the cohomology, its two-variable mirror
refinement, and the variant Betti numbers read off from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .laurent import BiLaurentPoly, LaurentPoly


class NotPrimeError(ValueError):
    """The rank must be prime for these formulas to apply."""


class InconsistentFormulaError(ArithmeticError):
    """Two routes to the same quantity disagreed; indicates a bug."""


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


def require_prime(n: int) -> None:
    if not is_prime(n):
        raise NotPrimeError(f"rank {n} is not prime")


@dataclass(frozen=True)
class ModuliParams:
    """Rank, genus and twisting degree, with the derived numerology.

    The degree d only has to be coprime to n; results are independent
    of its actual value.
    """

    n: int
    g: int
    d: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("rank n must be an integer >= 2")
        if not isinstance(self.g, int) or self.g < 2:
            raise ValueError("genus g must be an integer >= 2")
        if not isinstance(self.d, int) or math.gcd(self.n, self.d) != 1:
            raise ValueError("degree d must be an integer coprime to n")

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


def make_params(n: int, g: int, d: int = 1) -> ModuliParams:
    return ModuliParams(n, g, d)


def variant_bracket(n: int, g: int) -> LaurentPoly:
    """(q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2}.

    The common factor of the closed E-polynomial and of the point-count
    route; everything variant-specific lives in the prefactor.
    """
    q_minus_1 = LaurentPoly.from_q_powers({1: 1, 0: -1})
    cyclo_sum = LaurentPoly.from_q_powers({e: 1 for e in range(n)})
    return q_minus_1 ** ((n - 1) * (2 * g - 2)) - cyclo_sum ** (2 * g - 2)


def closed_e(params: ModuliParams) -> LaurentPoly:
    """Closed-form E-polynomial of the variant cohomology.

    ((n^{2g} - 1)/n) * q^dim * ((q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2})
    """
    n, g = params.n, params.g
    require_prime(n)
    scale = Fraction(n ** (2 * g) - 1, n)
    prefix = LaurentPoly.from_q_powers({params.dim: 1})
    return scale * prefix * variant_bracket(n, g)


def mirror_difference(params: ModuliParams) -> BiLaurentPoly:
    """Two-variable refinement whose diagonal u = v = q is closed_e.

    ((n^{2g}-1)/n) * (uv)^{(n^2-1)(g-1)}
        * (((u-1)(v-1))^{(n-1)(g-1)} - (S(u) S(v))^{g-1})
    with S(x) = 1 + x + ... + x^{n-1}.
    """
    n, g = params.n, params.g
    require_prime(n)
    scale = Fraction(n ** (2 * g) - 1, n)
    u_minus_1 = BiLaurentPoly.from_uv_powers({(1, 0): 1, (0, 0): -1})
    v_minus_1 = BiLaurentPoly.from_uv_powers({(0, 1): 1, (0, 0): -1})
    s_u = BiLaurentPoly.from_uv_powers({(e, 0): 1 for e in range(n)})
    s_v = BiLaurentPoly.from_uv_powers({(0, e): 1 for e in range(n)})
    m = params.half_dim
    prefix = BiLaurentPoly.from_uv_powers({(m, m): 1})
    # Each power has one variable, so its size grows linearly; the two
    # products are outer products of univariate factors.
    a, b = (n - 1) * (g - 1), g - 1
    bracket = u_minus_1 ** a * v_minus_1 ** a - s_u ** b * s_v ** b
    return scale * prefix * bracket


class CohomologyProfile:
    """Betti numbers indexed by cohomological degree.

    Missing degrees are zero.  Values are nonnegative integers.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if dims:
            for deg, value in dims.items():
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ValueError(f"dimension at degree {deg} must be a nonnegative int")
                if value:
                    data[int(deg)] = value
        object.__setattr__(self, "_dims", data)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CohomologyProfile is immutable")

    def __getitem__(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    def __bool__(self) -> bool:
        return bool(self._dims)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CohomologyProfile):
            return self._dims == other._dims
        if isinstance(other, dict):
            return self._dims == {d: v for d, v in other.items() if v}
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._dims.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {v}" for d, v in sorted(self._dims.items()))
        return f"CohomologyProfile({{{inner}}})"

    def items(self) -> Iterator[tuple[int, int]]:
        for deg in sorted(self._dims):
            yield deg, self._dims[deg]

    def support(self) -> tuple[int, int]:
        """(lowest, highest) degree with a nonzero group; raises if empty."""
        if not self._dims:
            raise ValueError("empty profile has no support")
        return min(self._dims), max(self._dims)

    def euler(self) -> int:
        return sum(v if d % 2 == 0 else -v for d, v in self._dims.items())

    def total(self) -> int:
        return sum(self._dims.values())

    def to_csv(self) -> str:
        lines = ["degree,dimension"]
        lines += [f"{d},{v}" for d, v in self.items()]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict[str, int]:
        return {str(d): v for d, v in self.items()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, int]) -> "CohomologyProfile":
        return cls({int(d): int(v) for d, v in obj.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CohomologyProfile":
        return cls.from_json_obj(json.loads(text))


def variant_betti(params: ModuliParams) -> CohomologyProfile:
    """Variant Betti numbers extracted from the closed E-polynomial.

    The group in degree deg contributes to q^(2*dim - deg) with sign
    (-1)^deg, so the extraction inverts that.
    """
    e = closed_e(params)
    dims: dict[int, int] = {}
    for exponent, coeff in e.to_q_dict().items():
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
    require_prime(n)
    closed_form = -(n ** (2 * g) - 1) * n ** (2 * g - 3)
    from_e = closed_e(params).eval_at(1)
    if from_e != closed_form:
        raise InconsistentFormulaError(
            f"Euler characteristic mismatch: {from_e} vs {closed_form}")
    return closed_form
