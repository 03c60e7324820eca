import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwcheck.filtration as filtration
from pwcheck.filtration import (
    BudgetExceededError,
    Criterion,
    FiltrationTable,
    check_first_criterion,
    check_second_criterion,
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
        for label, finder in conditions:
            assert finder(table, m, k) == expected[(criterion.value, label)]


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
