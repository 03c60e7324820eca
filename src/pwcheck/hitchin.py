"""Perverse and weight tables, and the equality between them.

Both tables record graded dimensions at cells (i, j) where i is the
filtration level and j = degree - i.  The perverse side is built from
the variant Betti numbers of the closed E-polynomial; the weight side
is read off the character-sum E-polynomial, with the jump of W_{2i}
stored at level i.  The two constructions are independent routes to
the same table, so their literal equality is the P = W statement at
the level of graded dimensions.
"""

from __future__ import annotations

from .epoly import (
    InconsistentFormulaError,
    ModuliParams,
    smallest_prime_factor,
    variant_betti,
)
from .filtration import (
    FiltrationTable,
    _Record,
    check_first_criterion,
    check_second_criterion,
)
from .hookchar import evar_from_types


def endoscopic_bound(n: int, g: int) -> int:
    """Codimension bound n(n - n/p)(g-1) for the special locus, where p
    is the smallest prime factor of n.  Defined for any rank n >= 2;
    for prime n it reduces to n(n-1)(g-1).
    """
    if not isinstance(g, int) or g < 2:
        raise ValueError("genus g must be an integer >= 2")
    p = smallest_prime_factor(n)
    return n * (n - n // p) * (g - 1)


def perverse_table(params: ModuliParams) -> FiltrationTable:
    """Table of perverse-graded dimensions of the variant cohomology.

    Degree d sits entirely in perverse level d - c with c the curious
    shift, so the whole table lives in the single column j = c.
    """
    betti = variant_betti(params)
    c = params.curious_shift
    cells: dict[tuple[int, int], int] = {}
    for d, v in betti.items():
        if d <= c:
            raise InconsistentFormulaError(
                f"degree {d} at or below the curious shift {c}")
        cells[(d - c, c)] = v
    return FiltrationTable(cells)


def weight_table(params: ModuliParams) -> FiltrationTable:
    """Table of weight-graded dimensions, from the character-sum route.

    The coefficient of q^e in the variant E-polynomial is the signed
    dimension of the weight-2(2m - e) piece, sitting in degree
    2m + c - e; the jump of W_{2i} is stored at level i = 2m - e.
    """
    evar = evar_from_types(params)
    m, c = params.half_dim, params.curious_shift
    cells: dict[tuple[int, int], int] = {}
    for e, coeff in evar.terms():
        degree = 2 * m + c - e
        value = coeff if degree % 2 == 0 else -coeff
        level = 2 * m - e
        if value.denominator != 1 or value <= 0 or level <= c:
            raise InconsistentFormulaError(
                f"exponent {e} gives level {level}, dimension {value}")
        cells[(level, c)] = int(value)
    return FiltrationTable(cells)


class PWReport(_Record):
    """Everything verify_pw established for one parameter choice: the
    parameters, both tables, each table's criterion report, and whether
    the tables are equal.
    """

    __slots__ = ("params", "perverse", "weight", "perverse_check", "weight_check",
                 "tables_equal")

    @property
    def holds(self) -> bool:
        return (self.tables_equal
                and self.perverse_check.passed and self.perverse_check.is_k_seq
                and self.weight_check.passed and self.weight_check.is_k_seq)

    @property
    def verdict(self) -> str:
        p = self.params
        state = "holds" if self.holds else "FAILS"
        return f"P=W {state} for n={p.n} g={p.g} d={p.d}"

    def summary(self) -> str:
        lines = [self.verdict]
        lines.append(f"  tables equal: {self.tables_equal}")
        for side, check in (("perverse", self.perverse_check),
                            ("weight", self.weight_check)):
            lines.append(
                f"  {side}: criterion {check.criterion.value} "
                f"passed={check.passed} k-sequence={check.is_k_seq}")
        total = self.perverse.total()
        lines.append(f"  total variant dimension: {total}")
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        p = self.params
        return {
            "n": p.n,
            "g": p.g,
            "d": p.d,
            "m": p.half_dim,
            "k": p.curious_shift,
            "tables_equal": self.tables_equal,
            "perverse_table": self.perverse.to_json_obj(),
            "weight_table": self.weight.to_json_obj(),
            "perverse_criterion": self.perverse_check.to_json_obj(),
            "weight_criterion": self.weight_check.to_json_obj(),
            "holds": self.holds,
            "verdict": self.verdict,
        }


def verify_pw(params: ModuliParams) -> PWReport:
    """Build both tables, compare them, and run both criteria.

    The perverse table is checked against the first criterion and the
    weight table against the second, both at (m, k) = (half_dim,
    curious_shift).
    """
    perverse = perverse_table(params)
    weight = weight_table(params)
    m, k = params.half_dim, params.curious_shift
    return PWReport(
        params=params,
        perverse=perverse,
        weight=weight,
        perverse_check=check_first_criterion(perverse, m, k),
        weight_check=check_second_criterion(weight, m, k),
        tables_equal=perverse == weight,
    )
