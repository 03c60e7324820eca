"""Perverse and weight tables, and the equality between them.

Both tables record graded dimensions at cells (i, j) where i is the
filtration level and j = degree - i.  The perverse side is built from
the variant Betti numbers of the closed E-polynomial; the weight side
is read off the character-sum E-polynomial, with the jump of W_{2i}
stored at level i.  Their literal equality is the P = W statement at
the level of graded dimensions.  Both tables and the Betti numbers share
one extraction (epoly.signed_profile) and one column builder (_column),
so a fault there bends both tables alike: support-bound, curious-symmetry
or euler fails on a bent extraction, or it raises, and pw's criteria fail
on a misplaced cell.  Both sides read the bracket (q-1)^N - S^M, so they
catch a kernel fault or a slip in one side, not a bracket wrong in both.
"""

from ._frozen import _Record
from .epoly import (CohomologyProfile, InconsistentFormulaError, ModuliParams,
                    signed_profile, variant_betti)
from .filtration import FiltrationTable, check_first_criterion, check_second_criterion
from .hookchar import evar_type_route


def _column(profile: CohomologyProfile, c: int) -> FiltrationTable:
    """Degree d of profile at cell (d - c, c), in the one column j = c
    that both tables fill.  A degree at or below 2c raises: the support
    starts at 2c + 1 (tests/test_epoly.py::test_the_support_lemma)."""
    cells: dict[tuple[int, int], int] = {}
    for d, v in profile.items():
        if d <= 2 * c:
            raise InconsistentFormulaError(f"degree {d} at or below twice the curious shift {c}")
        cells[(d - c, c)] = v
    return FiltrationTable._of(cells)


def perverse_table(params: ModuliParams) -> FiltrationTable:
    """Table of perverse-graded dimensions of the variant cohomology.

    Degree d sits entirely in perverse level d - c with c the curious
    shift, so the whole table lives in the single column j = c.
    """
    return _column(variant_betti(params), params.curious_shift)


def weight_table(params: ModuliParams) -> FiltrationTable:
    """Table of weight-graded dimensions, from evar_type_route alone.

    It never reads closed_e, so a route disagreement shows as unequal
    tables.  The coefficient of q^e in the variant E-polynomial is the
    signed dimension of the weight-2(2m - e) piece, sitting in degree
    2m + c - e; the jump of W_{2i} is stored at level i = 2m - e.
    """
    c = params.curious_shift
    return _column(signed_profile(evar_type_route(params), 2 * params.half_dim + c), c)


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
