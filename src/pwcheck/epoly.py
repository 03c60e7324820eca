"""E-polynomials of prime-rank twisted character varieties.

Everything here is a closed formula evaluated in exact integer
arithmetic.  The key objects are the one-variable E-polynomial of the
variant (non-abelian) part of the cohomology, its two-variable mirror
refinement, and the variant Betti numbers read off from it.
"""

import math

from ._frozen import DomainError, VerificationError, _Graded, _Record, require_int
from .laurent import BiLaurentPoly, LaurentPoly, _exact_quotient


class NotPrimeError(DomainError):
    """The rank must be prime for these formulas to apply."""


class InconsistentFormulaError(VerificationError):
    """Two routes to the same quantity disagreed; indicates a bug."""


def require_prime(n: int) -> None:
    if type(n) is not int or n < 2 or any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
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

    @property
    def type_shift(self) -> int:
        """Exponent s = (n^2+n-2)(g-1) with closed_e = q^s * evar_type_route."""
        n = self.n
        return (n * n + n - 2) * (self.g - 1)


def variant_bracket(n: int, g: int) -> LaurentPoly:
    """(q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2}.

    The common factor of the closed E-polynomial and of the point-count
    route; everything variant-specific lives in the prefactor.  Built
    from binomial sums, off the polynomial kernel.  With N = (n-1)(2g-2)
    and M = 2g-2, (q-1)^N has (-1)^{N-k} C(N,k) at q^k, and
    S^M = (1-q^n)^M / (1-q)^M is the series C(k+M-1, M-1) of 1/(1-q)^M
    plus its copies moved up by jn and scaled by (-1)^j C(M,j), for the
    j = 1..N//n (all below M) that reach degree N.

    Every check of verify is a theorem of this bracket, for every prime n
    and g >= 2; tests/test_epoly.py's support lemma test checks the lemma
    on plain lists.  Write S = 1+q+...+q^{n-1} and s_k = [q^k]S^M.

    Lemma: 0 <= s_k <= C(N,k), with equality at k = 0 and k = N, and,
    for n >= 3, strict inequality for 0 < k < N.  The polynomial
    P = (1+q)^{n-1} - S has coefficients C(n-1,j) - 1 >= 0, positive at
    1 <= j <= n-2, and (1+q)^N - S^M is P times the sum of
    (1+q)^{(n-1)a} S^b over a + b = M - 1.  Every product there has
    nonnegative coefficients, and the one with a = M - 1 is positive
    from q^1 to q^{N-1}.  For n = 2, S = 1+q and s_k = C(N,k).

    Consequences.  N is even, so (q-1)^N has (-1)^k C(N,k) at q^k and the
    bracket has (-1)^k (C(N,k) - (-1)^k s_k).  closed_e is the bracket
    times (n^{2g}-1)/n > 0 and q^dim, and dim is even, so the Betti
    number in degree dim - k is (n^{2g}-1)/n times C(N,k) - (-1)^k s_k.
    - By the lemma no Betti number is negative, so variant_betti never
      raises, and one is zero exactly at k = 0 and k = N (and at every
      even k when n = 2).  dim - N = 2c, so the support is
      [2c+1, dim-1]: support-bound.
    - (q-1)^N, with N even, and S^M are both palindromic of degree N, so
      closed_e is palindromic of weight 2 dim + N = dim + 2 type_shift:
      palindromic.  On the Betti numbers, degrees dim - k and
      dim - N + k agree, about the center dim - N/2 = half_dim + c:
      curious-symmetry.
    - At q = 1, (q-1)^N is 0 and S^M is n^M, so E(1), the alternating
      sum of the Betti numbers, is -(n^{2g}-1) n^{2g-3}: euler.
    - The mirror's diagonal is A(q)^2 - B(q)^2 with A^2 = (q-1)^N and
      B^2 = S^M: mirror-diagonal.  Each family's hook over q-1, to the
      power M, is q^{(n^2-n)(g-1)} times (q-1)^N (split) or S^M
      (nonsplit), so q^type_shift times the type route is closed_e:
      evar-shift.
    - Both P=W tables lie in the one column c, where each criterion
      condition is curious-symmetry moved by c or holds by the table's
      shape, and tables_equal is evar-shift re-indexed: pw.
    """
    big_m = 2 * g - 2
    big_n = (n - 1) * big_m
    series = [math.comb(k + big_m - 1, k) for k in range(big_n + 1)]
    bracket = [(-1) ** (big_n - k) * math.comb(big_n, k) - s for k, s in enumerate(series)]
    for j in range(1, big_n // n + 1):
        scale = (-1) ** j * math.comb(big_m, j)
        bracket[j * n:] = [c - scale * s for c, s in zip(bracket[j * n:], series)]
    return LaurentPoly._of({k: c for k, c in enumerate(bracket) if c})


def closed_e(params: ModuliParams) -> LaurentPoly:
    """Closed-form E-polynomial of the variant cohomology.

    ((n^{2g} - 1)/n) * q^dim * ((q-1)^{(n-1)(2g-2)} - (1+q+...+q^{n-1})^{2g-2}),
    on ints: the 1/n comes last, as an exact division of each scaled
    coefficient, in the one pass that shifts the bracket by q^dim.
    """
    n, g = params.n, params.g
    scale, dim = n ** (2 * g) - 1, params.dim
    return LaurentPoly._of({dim + e: _exact_quotient(scale * c, n)
                            for e, c in variant_bracket(n, g).terms()})


def mirror_difference(params: ModuliParams) -> BiLaurentPoly:
    """Two-variable refinement whose diagonal u = v = q is closed_e.

    ((n^{2g}-1)/n) * (uv)^{(n^2-1)(g-1)}
        * (((u-1)(v-1))^{(n-1)(g-1)} - (S(u) S(v))^{g-1})
    with S(x) = 1 + x + ... + x^{n-1}.
    """
    n, g, m = params.n, params.g, params.half_dim
    scale = n ** (2 * g) - 1
    # Each factor has one variable, so the bracket is an outer product
    # A(u)A(v) - B(u)B(v) of A = (x-1)^{(n-1)(g-1)} and B = S(x)^{g-1},
    # both of degree (n-1)(g-1).  The 1/n comes last, as in closed_e.
    a = dict((LaurentPoly({1: 1, 0: -1}) ** ((n - 1) * (g - 1))).terms())
    b = dict((LaurentPoly(dict.fromkeys(range(n), 1)) ** (g - 1)).terms())
    degrees = a.keys() | b.keys()
    bracket = ((i, j, a.get(i, 0) * a.get(j, 0) - b.get(i, 0) * b.get(j, 0))
               for i in degrees for j in degrees)
    return BiLaurentPoly._of({(m + i, m + j): _exact_quotient(scale * c, n)
                              for i, j, c in bracket if c})


class CohomologyProfile(_Graded):
    """Betti numbers indexed by cohomological degree.

    Missing degrees are zero.  Values are nonnegative integers.
    """

    __slots__ = ()
    _BAD_VALUE = "dimension at degree {} must be a nonnegative int"

    @staticmethod
    def _key(degree: int) -> int:
        if type(degree) is not int:
            raise ValueError(f"degree {degree!r} must be an int")
        return degree

    def __getitem__(self, degree: int) -> int:
        return self._c.get(degree, 0)

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


def signed_profile(e: LaurentPoly, top: int) -> CohomologyProfile:
    """Betti numbers of an E-polynomial in which the group in degree deg
    contributes to q^(top - deg) with sign (-1)^deg, so the extraction
    inverts that.  A dimension that comes out nonpositive raises."""
    dims: dict[int, int] = {}
    for exponent, coeff in e.terms():
        deg = top - exponent
        value = coeff if deg % 2 == 0 else -coeff
        if value <= 0:
            raise InconsistentFormulaError(f"degree {deg} would get dimension {value}")
        dims[deg] = value
    return CohomologyProfile._of(dims)


def variant_betti(params: ModuliParams) -> CohomologyProfile:
    """Variant Betti numbers read off the closed E-polynomial, whose top is 2*dim."""
    return signed_profile(closed_e(params), 2 * params.dim)


def euler_variant(params: ModuliParams) -> int:
    """Euler characteristic of the variant part, -(n^{2g}-1) * n^{2g-3}:
    the closed count, E(1) of the variant E-polynomial.
    """
    n, g = params.n, params.g
    return -(n ** (2 * g) - 1) * n ** (2 * g - 3)
