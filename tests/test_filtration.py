import collections
import enum
import functools
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwcheck.filtration as filtration
from pwcheck import DomainError, VerificationError
from pwcheck.filtration import (
    BudgetExceededError,
    Criterion,
    FiltrationTable,
    certify_criterion,
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
    assert json.loads(t.to_json()) == t.to_json_obj()
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


def reference_witnesses(cells, m, k):
    """Each condition's first failing index, from its definition."""
    rows, diagonals = collections.Counter(), collections.Counter()
    for (i, j), value in cells.items():
        rows[i] += value
        diagonals[i + j] += value

    def v(i, j):
        return cells.get((i, j), 0)

    def first(fails, *ranges):
        return next((w for w in itertools.product(*ranges) if fails(*w)), None)

    # A failing index has a nonzero side, so it is below top, and a
    # failing cell's column is a column of the table.
    top = max((i + j for i, j in cells), default=0) + 2 * (m + k) + 1
    nat, pos, columns = range(top), range(1, top), sorted({j for _, j in cells})
    return {
        ("first", "i"): first(lambda i, j: j < k and v(i, j), nat, columns),
        ("first", "ii"): first(lambda o, j: v(m - o, j) != v(m + o, j), pos, columns),
        ("first", "iii"): first(
            lambda o: diagonals[m + k - o] != diagonals[m + k + o], pos),
        ("second", "i"): first(
            lambda i, j: v(i, j) != v(2 * (m + k - j) - i, j), nat, columns),
        ("second", "ii"): first(lambda l: diagonals[k + l] != rows[l], nat),
        ("second", "iii"): first(lambda o: rows[m - o] != rows[m + o], pos),
    }


@st.composite
def near_tables(draw):
    """Up to 10 cells on [0..5] x [0..4], with m <= 5 and k <= 4."""
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 4)), st.integers(1, 3), max_size=10))
    return cells, draw(st.integers(1, 5)), draw(st.integers(0, 4))


@st.composite
def far_tables(draw):
    """The regime of pw's tables: one column j = c in the hundreds, k
    near c, rows around m (pw's perverse table at (13,4) has rows 469..539
    about m = 504, with c = k = 468) or around 2m; some of them mirrored."""
    m, c = draw(st.integers(1, 400)), draw(st.integers(100, 999))
    centre = draw(st.sampled_from([m, 2 * m]))
    cells = {}
    for offset, value in draw(st.dictionaries(st.integers(-6, 6), st.integers(1, 3),
                                              max_size=8)).items():
        cells[(max(0, centre + offset), c)] = value
        if draw(st.booleans()):
            cells[(max(0, centre - offset), c)] = value
    return cells, m, draw(st.integers(c - 2, c + 2))


def witnesses(build, witness, table, m, k):
    """The witnesses of the condition (build, witness) that the table
    breaks, lazily, as a report reads them: `_broken` on its lines."""
    lines = filtration._lines(table._c)
    return (witness(index, m, k) for index in filtration._broken(build, table._c, lines, m, k))


@given(st.one_of(near_tables(), far_tables()))
@settings(deadline=None)
def test_every_condition_reports_its_first_witness(case):
    cells, m, k = case
    table = FiltrationTable(cells)
    expected = reference_witnesses(cells, m, k)
    for criterion, conditions in filtration._CONDITIONS.items():
        for label, build, witness in conditions:
            found = min(witnesses(build, witness, table, m, k), default=None)
            assert found == expected[(criterion.value, label)]


TABLES = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 4)), st.integers(1, 3), max_size=10)


@given(TABLES, st.integers(1, 5), st.integers(0, 4))
def test_broken_is_a_lazy_iterator(cells, m, k):
    # the search reads one broken equality, so `_broken` must not find them all
    table = FiltrationTable(cells)
    lines = filtration._lines(table._c)
    for conditions in filtration._CONDITIONS.values():
        for label, build, _ in conditions:
            broken = filtration._broken(build, table._c, lines, m, k)
            assert iter(broken) is broken, label


@given(TABLES, st.integers(1, 5), st.integers(0, 4))
@settings(deadline=None)
def test_the_first_witness_decides_as_the_report_does(cells, m, k):
    table = FiltrationTable(cells)
    for criterion, conditions in filtration._CONDITIONS.items():
        report = filtration._check(criterion, table, m, k)
        for label, build, witness in conditions:
            holds = next(witnesses(build, witness, table, m, k), None) is None
            assert holds == getattr(report, f"cond_{label}"), (criterion, label)


SMALL_BOXES = [
    (1, 1, 1, [1, 2], [0, 1]),
    (2, 1, 1, range(1, 4), range(0, 3)),
    (1, 1, 2, [1, 2], [0, 1, 2]),
    (2, 0, 2, [3, 1, 3], [2, 0]),
    (0, 2, 2, [1, 2], [0, 1]),
]


def cut_down(monkeypatch, criterion, subset):
    """Make the search read only the given conditions of the criterion."""
    conditions = dict(filtration._CONDITIONS)
    conditions[criterion] = tuple(conditions[criterion][c] for c in subset)
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)


@pytest.mark.parametrize("criterion", list(Criterion))
def test_search_returns_hits_in_table_then_m_then_k_order(monkeypatch, criterion):
    # itertools.product enumerates the tables in the lexicographic order
    # of their values over the cells, row by row, so the (values, m, k)
    # keys of the hits must strictly increase.
    cut_down(monkeypatch, criterion, (0,))
    total = 0
    for i_max, j_max, v_max, m_range, k_range in SMALL_BOXES:
        hits = falsification_search(criterion, i_max, j_max, v_max, m_range, k_range)
        cells = list(itertools.product(range(i_max + 1), range(j_max + 1)))
        keys = [(tuple(table.get(*cell) for cell in cells), m, k) for table, m, k in hits]
        assert keys == sorted(set(keys))
        total += len(hits)
    assert total


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


def test_search_budget_guard_builds_nothing_large_on_a_long_range():
    # 10**8 values of m: a range is checked at its ends and counted from
    # them, so the guard fires before a set or a list of it exists
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="budget of 10000000$"):
            count_search_tables(3, 2, 1, range(1, 10 ** 8 + 1), range(0, 3))
        with pytest.raises(BudgetExceededError, match="budget of 10000000$"):
            falsification_search(Criterion.FIRST, 3, 2, 1, range(1, 10 ** 8 + 1), range(0, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m_range", [
    range(1, 4), range(3, 0, -1), range(1, 10, 4), range(9, 0, -4), range(5, 5),
    range(0, 3), range(3, -1, -1)])
def test_a_range_is_checked_and_counted_as_the_list_of_its_values(m_range):
    def outcome(ms):
        try:
            return count_search_tables(1, 0, 1, ms, [0, 1])
        except ValueError as error:
            return type(error), str(error)

    assert outcome(m_range) == outcome(list(m_range))


def test_a_range_past_sys_maxsize_is_counted_exactly():
    # such a range has no len(); 2 tables x 14285714285714285715 values of m
    huge = range(1, 10 ** 20 + 1, 7)
    cases = 2 * 14285714285714285715
    assert count_search_tables(0, 0, 1, huge, [0], budget=cases) == 2
    with pytest.raises(BudgetExceededError):
        count_search_tables(0, 0, 1, huge, [0], budget=cases - 1)


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
        rebuilt = FiltrationTable(dict(table.items()))
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


@st.composite
def boxed_tables(draw):
    """A box (i_max, j_max) and a table on it."""
    i_max, j_max = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, i_max), st.integers(0, j_max)), st.integers(1, 3),
        max_size=10))
    return i_max, j_max, FiltrationTable(cells)


@given(boxed_tables(), st.integers(1, 5), st.integers(0, 4))
@settings(deadline=None)
def test_each_conditions_equalities_hold_iff_its_finder_finds_nothing(boxed, m, k):
    # The certificate reads each condition's builder on the box's lines,
    # `_broken` on the table's support lines; on a table in the box the
    # two must agree.
    i_max, j_max, table = boxed
    box = filtration._lines(itertools.product(range(i_max + 1), range(j_max + 1)))
    for criterion, conditions in filtration._CONDITIONS.items():
        for label, build, witness in conditions:
            equalities = build(*box, m, k)
            holds = all(sum(table.get(*cell) for cell in plus)
                        == sum(table.get(*cell) for cell in minus)
                        for _, plus, minus in equalities)
            found = next(witnesses(build, witness, table, m, k), None)
            assert holds == (found is None), (criterion, label)


# The small boxes, the ksearch default box and the two 3x3 boxes the
# benchmark runs ksearch on.
ORACLE_BOXES = [(i_max, j_max, m_range, k_range)
                for i_max, j_max, _, m_range, k_range in SMALL_BOXES] + [
    (3, 2, range(1, 4), range(0, 3)), (3, 3, range(1, 4), range(0, 3))]


def certified(criterion, i_max, j_max, m_range, k_range):
    try:
        certify_criterion(criterion, i_max, j_max, m_range, k_range)
    except VerificationError:
        return False
    return True


@pytest.mark.parametrize("criterion", list(Criterion))
def test_the_certificate_and_the_search_agree_on_every_box(criterion):
    for i_max, j_max, m_range, k_range in ORACLE_BOXES:
        assert certified(criterion, i_max, j_max, m_range, k_range)
        assert falsification_search(criterion, i_max, j_max, 1, m_range, k_range) == []


# A condition a proof uses, left out: the certificate fails and the
# search finds tables that are not k-sequences, on the small boxes and a
# 3x3 one.  Second/(iii) is implied by (i) and (ii): without it both
# still find nothing.  On no box does the certificate pass with a hit.
@pytest.mark.parametrize("criterion, left_out", [
    (Criterion.FIRST, 0), (Criterion.FIRST, 1), (Criterion.FIRST, 2),
    (Criterion.SECOND, 0), (Criterion.SECOND, 1), (Criterion.SECOND, 2)])
def test_leaving_out_a_condition_fails_the_certificate_and_the_search(
        monkeypatch, criterion, left_out):
    cut_down(monkeypatch, criterion, tuple(c for c in range(3) if c != left_out))
    used = (criterion, left_out) != (Criterion.SECOND, 2)
    boxes = SMALL_BOXES + [(2, 2, 1, range(1, 3), range(0, 2))]
    passed = [certified(criterion, i_max, j_max, m_range, k_range)
              for i_max, j_max, _, m_range, k_range in boxes]
    hits = [falsification_search(criterion, *box) for box in boxes]
    assert any(hits) == (not all(passed)) == used
    for box, ok, found in zip(boxes, passed, hits):
        assert not (ok and found), box


def test_a_condition_is_written_once_for_the_report_the_search_and_the_certificate(
        monkeypatch):
    # First/(iii) with its antidiagonals mirrored about m + k + 1: the
    # one patched entry reaches the checker, the certificate and the
    # search, which finds the single cell (1, 1) at (m, k) = (1, 0).
    def moved(rows, diagonals, m, k):
        return ((t, line, diagonals.get(2 * (m + k + 1) - t, []))
                for t, line in diagonals.items())

    table = FiltrationTable({(1, 0): 1})
    assert check_first_criterion(table, 1, 0).passed
    conditions = dict(filtration._CONDITIONS)
    conditions[Criterion.FIRST] = conditions[Criterion.FIRST][:2] + (
        ("iii", moved, lambda t, m, k: (abs(t - m - k - 1),)),)
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    report = check_first_criterion(table, 1, 0)
    assert (report.cond_iii, report.first_violation) == (False, ("iii", (1,)))
    with pytest.raises(VerificationError):
        certify_criterion(Criterion.FIRST, 2, 1, [1], [0])
    hits = falsification_search(Criterion.FIRST, 2, 1, 1, [1], [0])
    assert (FiltrationTable({(1, 1): 1}), 1, 0) in hits


@pytest.mark.parametrize("criterion", list(Criterion))
def test_the_certificate_takes_the_column_k_mirror_from_its_named_condition(
        monkeypatch, criterion):
    # The stages force every cell off column k; the k-sequence's mirror
    # about m must then be the named condition's equalities on column k.
    _, stages = filtration._CERTIFICATES[criterion]
    monkeypatch.setitem(filtration._CERTIFICATES, criterion, ("iii", stages))
    with pytest.raises(VerificationError) as info:
        certify_criterion(criterion, 2, 1, [1], [0])
    assert str(info.value) == (
        f"{criterion.value} criterion certificate fails at m=1, k=0, cell (0, 0): "
        "not tied to row 2 by condition (iii)")


@given(st.integers(0, 7), st.integers(0, 7),
       st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.lists(st.integers(0, 9), min_size=1, max_size=3))
@settings(deadline=None, max_examples=50)
def test_the_certificate_passes_on_every_box(i_max, j_max, m_range, k_range):
    for criterion in Criterion:
        certify_criterion(criterion, i_max, j_max, m_range, k_range)


@pytest.mark.parametrize("box", [
    (-1, 1, [1], [0]), (1, 1.0, [1], [0]), (True, 1, [1], [0]), (1, 1, [], [0]),
    (1, 1, [1], []), (1, 1, [0], [0]), (1, 1, [1], [-1]), (1, 1, [1, "a"], [0]),
    (-1, 1, None, [0])])
def test_the_certificate_refuses_what_the_count_refuses(box):
    i_max, j_max, m_range, k_range = box
    with pytest.raises(ValueError) as expected:
        count_search_tables(i_max, j_max, 1, m_range, k_range)
    for criterion in Criterion:
        with pytest.raises(ValueError) as info:
            certify_criterion(criterion, i_max, j_max, m_range, k_range)
        assert (type(info.value), str(info.value)) == (type(expected.value),
                                                       str(expected.value))
