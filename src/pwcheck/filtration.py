"""Bigraded tables and the two recognition criteria for k-sequences.

A table assigns a nonnegative integer to each bidegree (i, j), almost
all zero.  A k-sequence is a table supported on the single column
j = k whose column is symmetric about row m.  The two criteria give
finite lists of linear conditions that force a table to be one.  Each
condition is written once, in `_CONDITIONS`, as a builder of linear
equalities: the checkers evaluate them exactly on a table, and
`certify_criterion` checks the proof that they force a k-sequence, as a
certificate on a box, for tables of any entries.  The falsification
search is the plain reference enumeration of the small tables of a box,
the oracle the certificate is tested against.
"""

import enum
import itertools
from collections.abc import Iterable, Iterator

from ._frozen import (
    DomainError, SparseMap, VerificationError, _Graded, _Record, csv_text, is_int_pair, require_int)

# The most (table, m, k) cases a search visits unless given a budget.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(DomainError):
    """The requested search space is larger than the enumeration budget."""


class Criterion(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class FiltrationTable(_Graded):
    """Immutable table of nonnegative integers indexed by (i, j) >= (0, 0).

    Reads outside the stored support return 0, including at negative
    indices; that convention is what makes the mirror conditions below
    meaningful near the boundary.
    """

    __slots__ = ()
    _BAD_VALUE = "value at {} must be a nonnegative int"
    # Own binding, not inherited: perfbench/tracer.py patches vars(cls).
    __init__ = SparseMap.__init__

    @staticmethod
    def _key(key: tuple[int, int]) -> tuple[int, int]:
        if not is_int_pair(key) or key[0] < 0 or key[1] < 0:
            raise ValueError(f"cell index {key} must be a pair of nonnegative ints")
        return key

    def get(self, i: int, j: int) -> int:
        return self._c.get((i, j), 0)

    def to_csv(self) -> str:
        return csv_text("i,j,value", ((i, j, v) for (i, j), v in self.items()))

    def to_json_obj(self) -> list[list[int]]:
        return [[i, j, v] for (i, j), v in self.items()]


def _require_mk(m: int, k: int) -> None:
    require_int(m, 1, "m must be an integer >= 1")
    require_int(k, 0, "k must be an integer >= 0")


def is_k_sequence(table: FiltrationTable, m: int, k: int) -> bool:
    """True when the table sits in column k and is symmetric about row m."""
    _require_mk(m, k)
    for (i, j), v in table.items():
        if j != k:
            return False
        if table.get(2 * m - i, j) != v:
            return False
    return True


# The conditions of each criterion, each written once as a builder of
# linear equalities over a set of cells.  A builder takes the rows and
# the antidiagonals of the set, as dicts from index to the list of their
# cells, and (m, k); it yields (index, plus, minus): the cells in plus
# sum to the cells in minus.  A line the dicts lack reads as empty.  The
# certificate reads a builder on the lines of a box, `_broken` on the
# lines of a table's support, built once per table by its caller: a
# failing equality has a stored cell or a nonzero line on one side, so
# the support's lines give it, or, for a mirror, its twin with the same
# witness.


def _lines(cells: Iterable[tuple[int, int]]) -> tuple[dict, dict]:
    """The rows and the antidiagonals of the cells, keyed by i and by i + j."""
    rows: dict = {}
    diagonals: dict = {}
    for i, j in cells:
        rows.setdefault(i, []).append((i, j))
        diagonals.setdefault(i + j, []).append((i, j))
    return rows, diagonals


def _mirror(centre):
    """The builder of: cell (i, j) equals cell (2 * centre(m, k, j) - i, j)."""
    def build(rows: dict, diagonals: dict, m: int, k: int) -> Iterator[tuple]:
        for row in rows.values():
            for i, j in row:
                r = 2 * centre(m, k, j) - i
                yield (i, j), [(i, j)], [(r, j)] if r in rows else []
    return build


_ZEROS = itertools.repeat(0)  # the default of every read in `map(get, cells, _ZEROS)`


def _broken(build, cells: dict, lines: tuple[dict, dict], m: int, k: int) -> Iterator:
    """The index of each equality of `build`, read on `lines`, that the
    table's `cells` break, lazily: a report takes the least
    witness(index, m, k), and the search stops at the first."""
    get = cells.get
    for index, plus, minus in build(*lines, m, k):
        if sum(map(get, plus, _ZEROS)) != sum(map(get, minus, _ZEROS)):
            yield index


def _pair_witness(cell: tuple[int, int], m: int, k: int) -> tuple[int, int]:
    # A failing pair of second/(i) is witnessed at its smaller row that is >= 0.
    i, j = cell
    r = 2 * (m + k - j) - i
    return (min(i, r) if r >= 0 else i), j


# Per criterion, its conditions in order, as (label, builder, witness).
_CONDITIONS = {
    Criterion.FIRST: (
        # Nothing strictly left of column k.
        ("i", lambda rows, diagonals, m, k: (
            ((i, j), [(i, j)], []) for row in rows.values() for i, j in row if j < k),
         lambda cell, m, k: cell),
        # Every column symmetric about row m.
        ("ii", _mirror(lambda m, k, j: m), lambda cell, m, k: (abs(cell[0] - m), cell[1])),
        # Antidiagonal sums symmetric about m + k.
        ("iii", lambda rows, diagonals, m, k: (
            (t, line, diagonals.get(2 * (m + k) - t, [])) for t, line in diagonals.items()),
         lambda t, m, k: (abs(t - m - k),)),
    ),
    Criterion.SECOND: (
        # Within column j, rows mirror about m + k - j.
        ("i", _mirror(lambda m, k, j: m + k - j), _pair_witness),
        # Antidiagonal k + l carries the same mass as row l, for l >= 0.
        ("ii", lambda rows, diagonals, m, k: (
            (l, diagonals.get(k + l, []), rows.get(l, []))
            for l in rows.keys() | {t - k for t in diagonals if t >= k}),
         lambda l, m, k: (l,)),
        # Row sums symmetric about m.
        ("iii", lambda rows, diagonals, m, k: (
            (i, line, rows.get(2 * m - i, [])) for i, line in rows.items()),
         lambda i, m, k: (abs(i - m),)),
    ),
}


class CriterionReport(_Record):
    """Outcome of evaluating one criterion on one table: the criterion,
    (m, k), each condition's verdict, whether the table is a k-sequence,
    and the least failure witness of the first failing condition, if any.
    """

    __slots__ = ("criterion", "m", "k", "cond_i", "cond_ii", "cond_iii", "is_k_seq",
                 "first_violation")

    @property
    def passed(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    def to_json_obj(self) -> dict:
        obj = {name: getattr(self, name) for name in self.__slots__}
        obj["criterion"] = self.criterion.value
        if self.first_violation is not None:
            label, where = self.first_violation
            obj["first_violation"] = [label, list(where)]
        return obj


def _check(criterion: Criterion, table: FiltrationTable, m: int, k: int) -> CriterionReport:
    is_k_seq = is_k_sequence(table, m, k)  # refuses a bad (m, k) first
    lines = _lines(table._c)
    least = {label: min((witness(index, m, k) for index in _broken(build, table._c, lines, m, k)),
                        default=None) for label, build, witness in _CONDITIONS[criterion]}
    failed = next(((label, where) for label, where in least.items() if where is not None), None)
    return CriterionReport(criterion, m, k, *(where is None for where in least.values()),
                           is_k_seq, failed)


def check_first_criterion(table: FiltrationTable, m: int, k: int) -> CriterionReport:
    """Column support bound, columnwise symmetry, antidiagonal symmetry.

    The three conditions force a k-sequence on every table, whatever its
    size.  Write w for the table and T for its mass.  A cell mirrored to
    a negative row reads 0, so (ii) makes the support of each column
    symmetric about row m, which gives sum w*i = m*T.  (iii) does the
    same for the antidiagonal index: sum w*(i + j) = (m + k)*T.  The
    difference is sum w*(j - k) = 0, and by (i) no term is negative, so
    every cell sits in column k, which (ii) makes symmetric about m.
    """
    return _check(Criterion.FIRST, table, m, k)


def check_second_criterion(table: FiltrationTable, m: int, k: int) -> CriterionReport:
    """Skew mirror within columns, antidiagonal/row matching, row symmetry.

    (i) and (ii) force a k-sequence on every table, whatever its size,
    so (iii) is implied.  Write w for the table and T_j for the mass of
    column j.  Summing (ii) over l >= 0 with weights 1, l and l^2 gives
    three facts: no mass lies on an antidiagonal below k,
    sum w*(j - k) = 0, and sum w*(j - k)*(2i + j - k) = 0.  By (i),
    column j is symmetric about row m + k - j, so its sum of w*i is
    (m + k - j)*T_j, and the third fact reads
    sum_j T_j*(j - k)*(2m + k - j) = 0.  By the second fact that is
    -sum_j T_j*(j - k)^2 = 0.  So every cell sits in column k, and (i)
    makes that column symmetric about m.
    """
    return _check(Criterion.SECOND, table, m, k)


def _skew_multiplier(cell: tuple[int, int], m: int, k: int) -> int:
    # 2(j - k)(i - r) on one cell of each mirror pair of second/(i), r = m + k - j.
    i, j = cell
    r = m + k - j
    return 2 * (j - k) * (i - r) if i < r or i > 2 * r else 0


# The two proofs above as certificates on a box [0..i_max] x [0..j_max],
# where each condition is the finite list of equalities its builder
# yields on the box's lines, a read outside the box being 0.  Per
# criterion: the condition whose equalities on column k must be the
# k-sequence mirror about m, and the proof's stages.  A stage maps a
# condition label to its multiplier (index, m, k).  A mirror equality
# gets a multiplier on one cell of each mirror pair only, so that the
# two equalities of a pair do not cancel.
_CERTIFICATES = {
    Criterion.FIRST: ("ii", (
        {"i": lambda cell, m, k: 1},
        # -(i - m) and (t - m - k) give sum w*(j - k).
        {"ii": lambda cell, m, k: m - cell[0] if cell[0] < m or cell[0] > 2 * m else 0,
         "iii": lambda t, m, k: t - m - k if t < m + k or t > 2 * (m + k) else 0})),
    Criterion.SECOND: ("i", (
        # The mass below antidiagonal k.
        {"ii": lambda l, m, k: -1},
        # sum w*(j - k)^2 on and above antidiagonal k.
        {"ii": lambda l, m, k: 2 * m * l - l * l, "i": _skew_multiplier})),
}


def certify_criterion(which: Criterion, i_max: int, j_max: int, m_range: Iterable[int],
                      k_range: Iterable[int]) -> None:
    """Check the proof in the criterion's checker docstring on the box
    [0..i_max] x [0..j_max], for every (m, k) of the ranges.

    For each (m, k) it builds the equalities of every condition that
    `_CONDITIONS` lists for the criterion, and sums them, stage by
    stage, times the proof's multipliers, in exact ints.  A table that
    satisfies the conditions gives each stage's sum 0.  So where a
    stage's coefficient is >= 0 on every cell not yet forced to 0, every
    cell where it is > 0 is forced to 0 too.  It checks that, cell by
    cell, then that every cell off column k ends up forced to 0, and
    that the equalities on column k are the k-sequence mirror about m.
    Passing shows that every table on the box with nonnegative int
    entries, of any size, that satisfies the criterion is a k-sequence:
    it covers what `falsification_search` enumerates, for every v_max.

    The arguments are refused as `count_search_tables` refuses them.  A
    failing check raises VerificationError naming the criterion, (m, k),
    the cell and its coefficient.
    """
    ms, ks = _require_box((i_max, j_max), m_range, k_range)
    cells = list(itertools.product(range(i_max + 1), range(j_max + 1)))
    rows, diagonals = _lines(cells)
    column, stages = _CERTIFICATES[which]
    for m in sorted(ms):
        for k in sorted(ks):
            def failure(cell: tuple[int, int], what: str) -> VerificationError:
                return VerificationError(f"{which.value} criterion certificate fails at "
                                         f"m={m}, k={k}, cell {cell}: {what}")

            equalities = {label: list(build(rows, diagonals, m, k))
                          for label, build, _ in _CONDITIONS[which]}
            forced: set[tuple[int, int]] = set()
            for stage in stages:
                coefficient = dict.fromkeys(cells, 0)
                for label, multiplier in stage.items():
                    for index, plus, minus in equalities.get(label, ()):
                        c = multiplier(index, m, k)
                        for cell in plus:
                            coefficient[cell] += c
                        for cell in minus:
                            coefficient[cell] -= c
                for cell, c in coefficient.items():
                    if c < 0 and cell not in forced:
                        raise failure(cell, f"coefficient {c} < 0")
                forced.update(cell for cell, c in coefficient.items() if c > 0)
            for cell, c in coefficient.items():
                if cell[1] != k and cell not in forced:
                    raise failure(cell, f"coefficient {c} off column k")
            mirror = {index: (plus, minus) for index, plus, minus in equalities.get(column, ())}
            for i in range(i_max + 1) if k <= j_max else ():
                r = 2 * m - i
                if mirror.get((i, k)) != ([(i, k)], [(r, k)] if 0 <= r <= i_max else []):
                    raise failure((i, k), f"not tied to row {r} by condition ({column})")


def _ends(values: range | set) -> Iterable[int]:
    return (values[0], values[-1]) if isinstance(values, range) and values else values


def _size(values: range | set) -> int:
    # A range's len() raises OverflowError past sys.maxsize; index() does not.
    return values.index(values[-1]) + 1 if isinstance(values, range) else len(values)


def _require_box(bounds: tuple[int, ...], m_range: Iterable[int], k_range: Iterable[int],
                 budget: int = 0) -> tuple[range | set, range | set]:
    """The m and the k values, read once, once the box is checked: refuse
    a bound that is not an int, a budget that is not an int, a negative
    bound, an m or k out of range and an empty range, in that order.

    This is the one place a range argument is read: a range as it is,
    anything else as a set.  A range is checked at its two ends and
    counted from them, so a guard on it builds nothing as long as the
    range."""
    for bound in bounds:
        if type(bound) is not int:
            raise DomainError(f"grid bound {bound!r} must be an int")
    if type(budget) is not int:
        raise DomainError(f"budget {budget!r} must be an int")
    if min(bounds) < 0:
        raise DomainError("grid bounds must be nonnegative")
    ms, ks = (r if isinstance(r, range) else set(r) for r in (m_range, k_range))
    for m in _ends(ms):
        _require_mk(m, 0)
    for k in _ends(ks):
        _require_mk(1, k)
    if not ms or not ks:
        raise DomainError("m_range and k_range must be nonempty")
    return ms, ks


def count_search_tables(i_max: int, j_max: int, v_max: int, m_range: Iterable[int],
                        k_range: Iterable[int], budget: int = DEFAULT_BUDGET) -> int:
    """Number of tables `falsification_search` enumerates on this grid.

    Validates the arguments as the search does (each bound an int >= 0,
    each m >= 1 and each k >= 0 an int, both ranges nonempty, the budget
    an int) and raises BudgetExceededError if tables x |m_range| x
    |k_range| exceeds the budget.  The count stops growing once it is
    over, so no cell list and no number much larger than the budget is
    built, and a range is never expanded.
    """
    ms, ks = _require_box((i_max, j_max, v_max), m_range, k_range, budget)
    cases = _size(ms) * _size(ks)
    tables, cells = 1, (i_max + 1) * (j_max + 1)
    while v_max and cells and tables * cases <= budget:
        tables *= v_max + 1
        cells -= 1
    if tables * cases > budget:
        raise BudgetExceededError(
            f"search would visit more cases than the budget of {budget}")
    return tables


def falsification_search(which: Criterion, i_max: int, j_max: int, v_max: int,
                         m_range: Iterable[int], k_range: Iterable[int],
                         budget: int = DEFAULT_BUDGET) -> list[tuple[FiltrationTable, int, int]]:
    """Enumerate every table on [0..i_max] x [0..j_max] with entries in
    [0..v_max] and return those satisfying all conditions of the chosen
    criterion without being a k-sequence.

    This is the plain reference enumeration, the oracle that
    `certify_criterion` is tested against: for each table, in
    ``itertools.product`` order over the cells, then each m and then
    each k, in sorted order, it records a hit when `_broken` yields
    nothing for every condition of the criterion and the table is not a
    k-sequence.  So results come in table order, then m, then k.

    An empty result over a grid is finite evidence for the criterion
    (both criteria are proved in their checkers' docstrings).  The
    bounds, and the total number of (table, m, k) triples against the
    budget, are checked before any work happens.  Every enumerated
    table is then built from those checked bounds, cells in
    range(i_max + 1) x range(j_max + 1) and values in range(v_max + 1),
    without per-cell validation; each hit is rebuilt through the
    FiltrationTable constructor, so all that is returned is checked.
    """
    ms, ks = _require_box((i_max, j_max, v_max), m_range, k_range, budget)
    count_search_tables(i_max, j_max, v_max, ms, ks, budget)
    cases = [(m, k) for m in sorted(ms) for k in sorted(ks)]  # after the check
    cells = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)]
    found: list[tuple[FiltrationTable, int, int]] = []
    for values in itertools.product(range(v_max + 1), repeat=len(cells)):
        data = dict(itertools.compress(zip(cells, values), values))
        table, lines = FiltrationTable._of(data), _lines(data)  # once for every (m, k)
        for m, k in cases:
            if (all(next(_broken(build, data, lines, m, k), None) is None
                    for _, build, _ in _CONDITIONS[which])
                    and not is_k_sequence(table, m, k)):
                found.append((FiltrationTable(data), m, k))
    return found
