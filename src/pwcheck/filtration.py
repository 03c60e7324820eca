"""Bigraded tables and the two recognition criteria for k-sequences.

A table assigns a nonnegative integer to each bidegree (i, j), almost
all zero.  A k-sequence is a table supported on the single column
j = k whose column is symmetric about row m.  The two criteria give
finite lists of linear conditions that force a table to be one; the
checkers here evaluate them exactly, and the falsification search
hunts for small tables that would separate the conditions from the
definition.
"""

from __future__ import annotations

import collections
import enum
import itertools
from collections.abc import Iterable, Iterator

from ._frozen import DomainError, Frozen, SparseMap, is_int_pair, require_int

# The most (table, m, k) cases a search visits unless given a budget.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(DomainError):
    """The requested search space is larger than the enumeration budget."""


class Criterion(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class _Graded(SparseMap):
    """Immutable map from keys to positive ints; absent keys read 0.

    The code FiltrationTable and CohomologyProfile share.  A subclass sets
    ``_key``, which checks and normalises a key, and ``_BAD_VALUE``, which
    ``_value`` raises, with ``{}`` for the key, unless a value is an int >= 0.
    """

    __slots__ = ()

    def _value(self, key: object, value: object) -> int:
        if type(value) is not int or value < 0:
            raise ValueError(self._BAD_VALUE.format(key))
        return value

    def items(self) -> Iterator[tuple[object, int]]:
        for key in sorted(self._c):
            yield key, self._c[key]

    def __len__(self) -> int:
        return len(self._c)

    def total(self) -> int:
        return sum(self._c.values())


class _Record(Frozen):
    """Immutable record of named fields, equal to a record of its own class
    with equal fields, printed as ``Name(field=value, ...)``.

    A subclass lists its field names, in order, as ``__slots__``; it is
    built from them positionally or by keyword.  A dataclass would do the
    same, but importing ``dataclasses`` loads ``inspect`` and ``ast``, and
    every CLI call pays for that at start-up.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object):
        names = self.__slots__
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected or repeated argument {name!r}")
            given[name] = value
        if len(args) > len(names) or len(given) < len(names):
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, given[name])

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._args() == other._args()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._args())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({inner})"


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
        lines = ["i,j,value"]
        lines += [f"{i},{j},{v}" for (i, j), v in self.items()]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> list[list[int]]:
        return [[i, j, v] for (i, j), v in self.items()]

    @classmethod
    def from_json_obj(cls, obj: list) -> "FiltrationTable":
        return cls({(i, j): v for i, j, v in obj})


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


# The conditions of each criterion, as violation finders sharing the
# signature (table, m, k).  A finder yields its witnesses; the report
# takes the least, the search stops at the first.  Both sides of every
# comparison read 0 unless a stored cell or a nonzero row/antidiagonal
# sum is involved, so walking the support alone finds every failure.


def _line_sums(table: FiltrationTable) -> tuple[collections.Counter, collections.Counter]:
    """Row sums and antidiagonal sums, keyed by row i and by i + j."""
    rows, diagonals = collections.Counter(), collections.Counter()
    for (i, j), v in table._c.items():
        rows[i] += v
        diagonals[i + j] += v
    return rows, diagonals


def _first_cond_i(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Nothing strictly left of column k.
    return ((i, j) for i, j in table._c if j < k)


def _first_cond_ii(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Every column symmetric about row m: v[m-i, j] == v[m+i, j].
    get = table._c.get
    return ((abs(i - m), j) for (i, j), v in table._c.items()
            if get((2 * m - i, j), 0) != v)


def _first_cond_iii(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Antidiagonal sums symmetric about m + k.
    _, sums = _line_sums(table)
    c = m + k
    return ((abs(t - c),) for t in sums if sums[2 * c - t] != sums[t])


def _second_cond_i(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Within column j, rows mirror about m + k - j.  A failing pair of
    # rows is witnessed at its smaller row that is >= 0.
    get = table._c.get
    return ((min(i, r) if r >= 0 else i, j) for (i, j), v in table._c.items()
            for r in (2 * (m + k - j) - i,) if get((r, j), 0) != v)


def _second_cond_ii(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Antidiagonal k + l carries the same mass as row l, for l >= 0.
    rows, sums = _line_sums(table)
    ls = set(rows).union(t - k for t in sums if t >= k)
    return ((l,) for l in ls if sums[k + l] != rows[l])


def _second_cond_iii(table: FiltrationTable, m: int, k: int) -> Iterator[tuple[int, ...]]:
    # Row sums symmetric about m.
    rows, _ = _line_sums(table)
    return ((abs(i - m),) for i in rows if rows[2 * m - i] != rows[i])


# Each entry is (label, finder, reads): the finder's result depends on
# (m, k) only through reads(m, k), which lets the search reuse it.
_CONDITIONS = {
    Criterion.FIRST: (
        ("i", _first_cond_i, lambda m, k: k),
        ("ii", _first_cond_ii, lambda m, k: m),
        ("iii", _first_cond_iii, lambda m, k: m + k)),
    Criterion.SECOND: (
        ("i", _second_cond_i, lambda m, k: m + k),
        ("ii", _second_cond_ii, lambda m, k: k),
        ("iii", _second_cond_iii, lambda m, k: m)),
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
    _require_mk(m, k)
    least = {label: min(f(table, m, k), default=None) for label, f, _ in _CONDITIONS[criterion]}
    failed = next(((label, where) for label, where in least.items() if where is not None), None)
    return CriterionReport(criterion, m, k, *(where is None for where in least.values()),
                           is_k_sequence(table, m, k), failed)


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


def count_search_tables(i_max: int, j_max: int, v_max: int, m_range: Iterable[int],
                        k_range: Iterable[int], budget: int = DEFAULT_BUDGET) -> int:
    """Number of tables `falsification_search` enumerates on this grid.

    Validates the arguments as the search does (each bound an int >= 0,
    each m >= 1 and each k >= 0 an int, both ranges nonempty, the budget
    an int) and raises BudgetExceededError if tables x |m_range| x
    |k_range| exceeds the budget.  The count stops growing once it is
    over, so no cell list and no number much larger than the budget is
    built.
    """
    for bound in (i_max, j_max, v_max):
        if type(bound) is not int:
            raise DomainError(f"grid bound {bound!r} must be an int")
    if type(budget) is not int:
        raise DomainError(f"budget {budget!r} must be an int")
    if i_max < 0 or j_max < 0 or v_max < 0:
        raise DomainError("grid bounds must be nonnegative")
    ms, ks = set(m_range), set(k_range)
    for m in ms:
        _require_mk(m, 0)
    for k in ks:
        _require_mk(1, k)
    if not ms or not ks:
        raise DomainError("m_range and k_range must be nonempty")
    cases = len(ms) * len(ks)
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

    An empty result over a grid is finite evidence for the criterion
    (both criteria are proved in their checkers' docstrings).  The
    bounds, and the total number of (table, m, k) triples against the
    budget, are checked before any work happens.  Every enumerated
    table is then built from those checked bounds, cells in
    range(i_max + 1) x range(j_max + 1) and values in range(v_max + 1),
    without per-cell validation; each hit is rebuilt through the
    FiltrationTable constructor, so all that is returned is checked.

    A finder yields its witnesses; the report takes the least, the
    search stops at the first.  Each condition reads one of k, m or
    m + k (first: k, m, m + k; second: m + k, k, m), so on each table
    its finder runs at most once per value of that parameter and the
    other (m, k) pairs reuse the verdict.  Results come in table order,
    then m, then k.
    """
    ms, ks = set(m_range), set(k_range)  # each range is read once
    count_search_tables(i_max, j_max, v_max, ms, ks, budget)
    ms, ks = sorted(ms), sorted(ks)  # after count_search_tables checked each

    cells = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)]
    conditions = _CONDITIONS[which]
    cases = [(m, k, [((label, reads(m, k)), finder) for label, finder, reads in conditions])
             for m in ms for k in ks]
    found: list[tuple[FiltrationTable, int, int]] = []
    for values in itertools.product(range(v_max + 1), repeat=len(cells)):
        data = {cell: v for cell, v in zip(cells, values) if v}
        table = FiltrationTable._of(data)
        holds: dict[tuple[str, int], bool] = {}
        for m, k, keyed in cases:
            for key, finder in keyed:
                ok = holds.get(key)
                if ok is None:
                    ok = holds[key] = next(finder(table, m, k), None) is None
                if not ok:
                    break
            else:
                if not is_k_sequence(table, m, k):
                    found.append((FiltrationTable(data), m, k))
    return found
