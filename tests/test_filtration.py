import collections
import enum
import functools
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwcheck.filtration as filtration
from pwcheck import DomainError
from pwcheck.filtration import (
    BudgetExceededError,
    Criterion,
    FiltrationTable,
    check_first_criterion,
    check_second_criterion,
    count_search_tables,
    falsification_search,
    is_k_sequence,
)


def k_sequence_table(values, m, k):
    """Column-k table symmetric about row m, built from offsets 0..len-1."""
    cells = {}
    for off, v in enumerate(values):
        if v:
            cells[(m + off, k)] = v
            if off and m - off >= 0:
                cells[(m - off, k)] = v
    return FiltrationTable(cells)


def test_table_basics():
    t = FiltrationTable({(1, 2): 3, (0, 0): 1})
    assert t.get(1, 2) == 3
    assert t.get(5, 5) == 0
    assert t.get(-1, 0) == 0
    assert t.total() == 4
    assert len(t) == 2


def test_table_validation():
    with pytest.raises(ValueError):
        FiltrationTable({(-1, 0): 1})
    with pytest.raises(ValueError):
        FiltrationTable({(0, 0): -1})
    with pytest.raises(ValueError):
        FiltrationTable({(0, 0): True})
    assert not FiltrationTable({(0, 0): 0})


def test_table_serialization_round_trips():
    t = FiltrationTable({(1, 1): 3, (2, 1): 7, (3, 1): 3})
    assert FiltrationTable.from_json(t.to_json()) == t
    assert t.to_csv() == "i,j,value\n1,1,3\n2,1,7\n3,1,3\n"
    assert t.to_json() == "[[1,1,3],[2,1,7],[3,1,3]]"


def test_is_k_sequence_definition():
    assert is_k_sequence(FiltrationTable({}), 1, 0)
    good = FiltrationTable({(1, 1): 3, (2, 1): 7, (3, 1): 3})
    assert is_k_sequence(good, 2, 1)
    assert not is_k_sequence(good, 3, 1)          # wrong center
    assert not is_k_sequence(good, 2, 0)          # wrong column
    off_column = FiltrationTable({(2, 1): 7, (2, 2): 1})
    assert not is_k_sequence(off_column, 2, 1)
    lopsided = FiltrationTable({(1, 1): 3, (2, 1): 7})
    assert not is_k_sequence(lopsided, 2, 1)


def test_mk_validation():
    with pytest.raises(ValueError):
        is_k_sequence(FiltrationTable({}), 0, 0)
    with pytest.raises(ValueError):
        check_first_criterion(FiltrationTable({}), 1, -1)


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1


@pytest.mark.parametrize("m, k, message", [
    (True, 0, "m must be an integer >= 1"),
    (1, False, "k must be an integer >= 0"),
    (Small.ONE, 0, "m must be an integer >= 1"),
    (1, Small.ZERO, "k must be an integer >= 0"),
])
def test_bool_m_and_k_are_rejected(m, k, message):
    table = FiltrationTable({(1, 0): 1})
    for check in (is_k_sequence, check_first_criterion, check_second_criterion):
        with pytest.raises(ValueError, match=message):
            check(table, m, k)
    for search in (count_search_tables, functools.partial(falsification_search, Criterion.FIRST)):
        with pytest.raises(ValueError, match=message):
            search(1, 1, 1, [m], [k])


def test_first_criterion_catches_left_support():
    t = FiltrationTable({(2, 0): 1, (2, 1): 1})
    report = check_first_criterion(t, 2, 1)
    assert not report.cond_i
    assert report.first_violation == ("i", (2, 0))
    assert not report.passed


def test_first_criterion_catches_asymmetry():
    t = FiltrationTable({(1, 1): 1, (2, 1): 1})
    report = check_first_criterion(t, 2, 1)
    assert report.cond_i
    assert not report.cond_ii
    assert report.first_violation[0] == "ii"


def test_second_criterion_hand_case():
    # single cell at (0, 2) with m = 1, k = 1: the skew mirror holds but
    # antidiagonal 1 is empty while row 0 is not
    t = FiltrationTable({(0, 2): 1})
    report = check_second_criterion(t, 1, 1)
    assert report.cond_i
    assert not report.cond_ii
    assert report.first_violation == ("ii", (0,))
    assert not report.is_k_seq


def test_reports_on_true_k_sequences():
    t = k_sequence_table([7, 3, 1], m=4, k=2)
    first = check_first_criterion(t, 4, 2)
    second = check_second_criterion(t, 4, 2)
    for report in (first, second):
        assert report.passed
        assert report.is_k_seq
        assert report.first_violation is None
    assert first.criterion is Criterion.FIRST
    assert second.criterion is Criterion.SECOND


def test_report_json_shape():
    report = check_second_criterion(FiltrationTable({(0, 2): 1}), 1, 1)
    # row sums about m = 1 are lopsided too, so cond_iii also fails, but
    # the reported witness is the earlier condition's
    assert report.to_json() == (
        '{"criterion":"second","m":1,"k":1,"cond_i":true,"cond_ii":false,'
        '"cond_iii":false,"is_k_seq":false,"first_violation":["ii",[0]]}')


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(1, 5),
    st.integers(0, 3),
)
def test_every_k_sequence_passes_both_criteria(values, m, k):
    t = k_sequence_table(values, m, k)
    if not is_k_sequence(t, m, k):    # truncated at row 0: not symmetric
        return
    assert check_first_criterion(t, m, k).passed
    assert check_second_criterion(t, m, k).passed


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        st.integers(1, 3), max_size=6),
    st.integers(1, 4),
    st.integers(0, 3),
)
@settings(deadline=None)
def test_criteria_conditions_imply_k_sequence(cells, m, k):
    # contrapositive of the two recognition statements on random tables
    t = FiltrationTable(cells)
    for check in (check_first_criterion, check_second_criterion):
        report = check(t, m, k)
        if report.passed:
            assert report.is_k_seq


# Every index at which either side of a comparison can be nonzero is
# below 20 for tables on [0..5] x [0..4] with m <= 5 and k <= 4.
BOX = 24


def reference_witnesses(cells, m, k):
    """Each condition's first failing index, from its definition."""
    def v(i, j):
        return cells.get((i, j), 0)

    def row(i):
        return sum(v(i, j) for j in range(BOX))

    def diag(t):
        return sum(v(i, t - i) for i in range(t + 1))

    def first(fails, *ranges):
        return next((w for w in itertools.product(*ranges) if fails(*w)), None)

    nat, pos = range(BOX), range(1, BOX)
    return {
        ("first", "i"): first(lambda i, j: j < k and v(i, j), nat, nat),
        ("first", "ii"): first(lambda o, j: v(m - o, j) != v(m + o, j), pos, nat),
        ("first", "iii"): first(lambda o: diag(m + k - o) != diag(m + k + o), pos),
        ("second", "i"): first(lambda i, j: v(i, j) != v(2 * (m + k - j) - i, j), nat, nat),
        ("second", "ii"): first(lambda l: diag(k + l) != row(l), nat),
        ("second", "iii"): first(lambda o: row(m - o) != row(m + o), pos),
    }


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 4)),
        st.integers(1, 3), max_size=10),
    st.integers(1, 5),
    st.integers(0, 4),
)
@settings(deadline=None)
def test_every_condition_reports_its_first_witness(cells, m, k):
    table = FiltrationTable(cells)
    expected = reference_witnesses(cells, m, k)
    for criterion, conditions in filtration._CONDITIONS.items():
        for label, finder, _ in conditions:
            assert min(finder(table, m, k), default=None) == expected[(criterion.value, label)]


TABLES = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4)), st.integers(1, 3), max_size=10)


@given(TABLES, st.integers(1, 5), st.integers(0, 4))
def test_every_finder_is_a_lazy_iterator(cells, m, k):
    # the search reads one witness, so a finder must not build them all
    table = FiltrationTable(cells)
    for conditions in filtration._CONDITIONS.values():
        for label, finder, _ in conditions:
            witnesses = finder(table, m, k)
            assert iter(witnesses) is witnesses, label


@given(TABLES, st.integers(1, 5), st.integers(0, 4))
@settings(deadline=None)
def test_the_first_witness_decides_as_the_report_does(cells, m, k):
    table = FiltrationTable(cells)
    for criterion, conditions in filtration._CONDITIONS.items():
        report = filtration._check(criterion, table, m, k)
        for label, finder, _ in conditions:
            holds = next(finder(table, m, k), None) is None
            assert holds == getattr(report, f"cond_{label}"), (criterion, label)


MK_GRID = list(itertools.product(range(1, 6), range(0, 5)))


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 4)),
        st.integers(1, 3), max_size=10),
    st.sampled_from(MK_GRID),
)
@settings(deadline=None)
def test_each_finder_depends_only_on_what_it_reads(cells, mk):
    # the search reuses a finder's verdict between (m, k) pairs with one
    # reads value, so the finder must give the same witness for all of them
    table = FiltrationTable(cells)
    m, k = mk
    for conditions in filtration._CONDITIONS.values():
        for label, finder, reads in conditions:
            witness = min(finder(table, m, k), default=None)
            for m2, k2 in MK_GRID:
                if reads(m2, k2) == reads(m, k):
                    assert min(finder(table, m2, k2), default=None) == witness, (
                        label, (m, k), (m2, k2))


def reference_search(conditions, i_max, j_max, v_max, m_range, k_range):
    """Every finder on every (table, m, k), with nothing reused."""
    cells = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)]
    found = []
    for values in itertools.product(range(v_max + 1), repeat=len(cells)):
        table = FiltrationTable(dict(zip(cells, values)))
        for m in sorted(set(m_range)):
            for k in sorted(set(k_range)):
                if (all(min(finder(table, m, k), default=None) is None
                        for _, finder, _ in conditions)
                        and not is_k_sequence(table, m, k)):
                    found.append((table, m, k))
    return found


SMALL_BOXES = [
    (1, 1, 1, [1, 2], [0, 1]),
    (2, 1, 1, range(1, 4), range(0, 3)),
    (1, 1, 2, [1, 2], [0, 1, 2]),
    (2, 0, 2, [3, 1, 3], [2, 0]),
    (0, 2, 2, [1, 2], [0, 1]),
]


@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("prefix", [1, 2, 3])
def test_search_equals_the_reference(monkeypatch, criterion, prefix):
    # a cut-down criterion lets non-k-sequences through, so the order of
    # a non-empty result is compared too
    conditions = dict(filtration._CONDITIONS)
    conditions[criterion] = conditions[criterion][:prefix]
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    total = 0
    for box in SMALL_BOXES:
        hits = falsification_search(criterion, *box)
        assert hits == reference_search(conditions[criterion], *box)
        total += len(hits)
    if prefix == 1 or (criterion is Criterion.FIRST and prefix == 2):
        assert total


@pytest.mark.parametrize("criterion", list(Criterion))
def test_search_runs_each_finder_once_per_value_it_reads(monkeypatch, criterion):
    calls = collections.Counter()

    def counted(label, finder):
        def call(table, m, k):
            calls[label] += 1
            return finder(table, m, k)
        return call

    conditions = dict(filtration._CONDITIONS)
    conditions[criterion] = tuple((label, counted(label, finder), reads)
                                  for label, finder, reads in conditions[criterion])
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    ms, ks = range(1, 4), range(0, 3)    # the ksearch default box
    assert falsification_search(criterion, 3, 2, 1, ms, ks) == []
    tables = 2 ** 12
    for label, _, reads in conditions[criterion]:
        values = {reads(m, k) for m in ms for k in ks}
        assert 0 < calls[label] <= tables * len(values), label


def test_search_finds_nothing_on_the_small_grid():
    for criterion in Criterion:
        hits = falsification_search(criterion, 2, 1, 1, range(1, 3), range(0, 2))
        assert hits == []


def test_search_budget_guard():
    with pytest.raises(BudgetExceededError):
        falsification_search(Criterion.FIRST, 5, 5, 3, [1], [0], budget=100)


def test_search_budget_guard_builds_nothing_large():
    # 2**(10**6) tables: the guard must fire before a cell list or the
    # full case count exists
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="budget of 10000000"):
            falsification_search(Criterion.FIRST, 999, 999, 1, [1], [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_argument_validation():
    with pytest.raises(ValueError):
        falsification_search(Criterion.FIRST, -1, 1, 1, [1], [0])
    with pytest.raises(ValueError):
        falsification_search(Criterion.FIRST, 1, 1, 1, [], [0])
    with pytest.raises(ValueError):
        falsification_search(Criterion.FIRST, 1, 1, 1, [0], [0])


@pytest.mark.parametrize("m_range, k_range, message", [
    ([1, "a"], [0], "m must be an integer >= 1"),
    ([1], [0, "a"], "k must be an integer >= 0"),
], ids=["bad-m", "bad-k"])
def test_search_checks_mixed_ranges_before_sorting_them(m_range, k_range, message):
    # A str among ints is refused as count_search_tables refuses it, not
    # by a TypeError from sorting the range first.
    for search in (count_search_tables, functools.partial(falsification_search, Criterion.FIRST)):
        with pytest.raises(ValueError) as info:
            search(1, 1, 1, m_range, k_range)
        assert str(info.value) == message


def test_search_reads_each_range_once():
    ms, ks = (m for m in [1]), (k for k in [0])
    assert falsification_search(Criterion.FIRST, 1, 1, 1, ms, ks) == []


@pytest.mark.parametrize("bounds", [(1.5, 1, 1), (1, 1.0, 1), (1, 1, 1.0), (True, 1, 1),
                                    (1, 1, False), ("1", 1, 1), (Small.ONE, 1, 1)])
def test_search_bounds_must_be_ints(bounds):
    with pytest.raises(ValueError, match="must be an int"):
        count_search_tables(*bounds, [1], [0])
    with pytest.raises(ValueError, match="must be an int"):
        falsification_search(Criterion.FIRST, *bounds, [1], [0])


@pytest.mark.parametrize("budget", [True, False, Small.ONE, 2.5e6, 1e7, "100"],
                         ids=["True", "False", "IntEnum", "2.5e6", "1e7", "str"])
def test_search_budget_must_be_an_int(budget):
    # Refused before any counting, as a plain DomainError (a ValueError,
    # not a BudgetExceededError) that names it:
    # True is not read as a budget of 1, nor 2.5e6 as one of 2,500,000.
    for search in (count_search_tables, functools.partial(falsification_search, Criterion.FIRST)):
        with pytest.raises(ValueError) as info:
            search(1, 1, 1, [1], [0], budget=budget)
        assert type(info.value) is DomainError
        assert str(info.value) == f"budget {budget!r} must be an int"


def test_search_budget_keeps_its_meaning_for_an_int():
    assert count_search_tables(1, 1, 1, [1], [0], budget=16) == 16
    for budget in (15, 0, -1):
        with pytest.raises(BudgetExceededError, match=f"budget of {budget}$"):
            count_search_tables(1, 1, 1, [1], [0], budget=budget)
    assert falsification_search(Criterion.FIRST, 1, 1, 1, [1], [0], budget=16) == []


@pytest.mark.parametrize("criterion", list(Criterion))
def test_search_checks_only_the_tables_it_returns(monkeypatch, criterion):
    # the enumerated cells come from checked bounds; only a hit goes
    # through the constructor, once per (table, m, k) it is returned as
    calls = [0]
    key = FiltrationTable._key

    def counted(cell):
        calls[0] += 1
        return key(cell)

    monkeypatch.setattr(FiltrationTable, "_key", staticmethod(counted))
    box = (3, 2, 1, range(1, 4), range(0, 3))    # the ksearch default box
    assert falsification_search(criterion, *box) == []
    assert calls[0] == 0
    conditions = dict(filtration._CONDITIONS)
    conditions[criterion] = conditions[criterion][:1]
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    hits = falsification_search(criterion, *box)
    assert hits
    assert calls[0] == sum(len(table) for table, _, _ in hits)
    for table, _, _ in hits:
        assert type(table) is FiltrationTable
        rebuilt = FiltrationTable.from_json_obj(table.to_json_obj())
        assert table == rebuilt and hash(table) == hash(rebuilt)


def test_search_reports_planted_counterexample(monkeypatch):
    # cripple one condition and verify the search machinery notices the
    # tables that now slip through
    conditions = dict(filtration._CONDITIONS)
    conditions[Criterion.FIRST] = conditions[Criterion.FIRST][:1]
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    hits = falsification_search(Criterion.FIRST, 1, 1, 1, [1], [1])
    assert hits
    for table, m, k in hits:
        assert not is_k_sequence(table, m, k)
