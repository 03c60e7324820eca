import json

import pytest

from pwcheck.epoly import CohomologyProfile, InconsistentFormulaError, ModuliParams
from pwcheck.filtration import FiltrationTable, is_k_sequence
from pwcheck.hitchin import perverse_table, verify_pw, weight_table
from pwcheck.laurent import LaurentPoly

GRID = [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 3)]


def test_perverse_table_small_cases():
    assert perverse_table(ModuliParams(2, 2)) == FiltrationTable({(3, 2): 30})
    assert perverse_table(ModuliParams(3, 2)) == FiltrationTable(
        {(7, 6): 160, (8, 6): 80, (9, 6): 160})


def test_weight_table_small_cases():
    assert weight_table(ModuliParams(2, 2)) == FiltrationTable({(3, 2): 30})
    assert weight_table(ModuliParams(3, 2)) == FiltrationTable(
        {(7, 6): 160, (8, 6): 80, (9, 6): 160})


@pytest.mark.parametrize("n,g", GRID)
def test_tables_agree_and_are_k_sequences(n, g):
    params = ModuliParams(n, g)
    perverse = perverse_table(params)
    weight = weight_table(params)
    assert perverse == weight
    m, k = params.half_dim, params.curious_shift
    assert is_k_sequence(perverse, m, k)


@pytest.mark.parametrize("n,g", GRID)
def test_verify_pw(n, g):
    report = verify_pw(ModuliParams(n, g))
    assert report.tables_equal
    assert report.perverse_check.passed and report.perverse_check.is_k_seq
    assert report.weight_check.passed and report.weight_check.is_k_seq
    assert report.holds
    assert "holds" in report.verdict


def test_report_serialization():
    report = verify_pw(ModuliParams(2, 2))
    obj = json.loads(report.to_json())
    assert obj["n"] == 2 and obj["g"] == 2 and obj["d"] == 1
    assert obj["m"] == 3 and obj["k"] == 2
    assert obj["holds"] is True
    assert obj["tables_equal"] is True
    assert obj["perverse_table"] == [[3, 2, 30]]
    assert obj["weight_table"] == [[3, 2, 30]]
    assert obj["perverse_criterion"]["criterion"] == "first"
    assert obj["weight_criterion"]["criterion"] == "second"
    summary = report.summary()
    assert "P=W holds" in summary
    assert "total variant dimension: 30" in summary


def test_verify_pw_reports_a_lopsided_profile(monkeypatch):
    import pwcheck.hitchin as hitchin

    # feed the perverse side a lopsided profile; every layer downstream
    # should notice
    fake = CohomologyProfile({5: 30, 6: 1})
    monkeypatch.setattr(hitchin, "variant_betti", lambda params: fake)
    report = hitchin.verify_pw(ModuliParams(2, 2))
    assert not report.tables_equal
    assert not report.holds
    assert not report.perverse_check.passed


def test_verify_pw_reports_a_weight_side_disagreement(monkeypatch, capsys):
    import pwcheck.hitchin as hitchin
    from pwcheck.cli import main

    # the character sum disagrees with the closed formula at (2,2): the
    # tables differ, and the verdict says so instead of raising
    fake = LaurentPoly({3: -30, 2: 1})
    monkeypatch.setattr(hitchin, "evar_type_route", lambda params: fake)
    report = hitchin.verify_pw(ModuliParams(2, 2))
    assert not report.tables_equal
    assert not report.holds
    assert not report.weight_check.passed
    assert main(["pw", "--n", "2", "--g", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("P=W FAILS for n=2 g=2 d=1\n  tables equal: False\n")


# At (2,2), c = 2 and the weight side's top is 2m + c = 8: one extraction
# and one guard, degree <= 2c, serve both tables.
LOW = [
    pytest.param("variant_betti", CohomologyProfile({1: 4}), "degree 1 ", id="perverse-below-c"),
    pytest.param("variant_betti", CohomologyProfile({4: 4}), "degree 4 ", id="perverse-at-2c"),
    pytest.param("evar_type_route", LaurentPoly({3: 30}), "degree 5 would get dimension -30",
                 id="weight-nonpositive"),
    pytest.param("evar_type_route", LaurentPoly({4: 1}), "degree 4 ", id="weight-at-2c"),
]


@pytest.mark.parametrize("route,fake,message", LOW)
def test_tables_reject_a_degree_they_cannot_place(monkeypatch, route, fake, message):
    import pwcheck.hitchin as hitchin

    monkeypatch.setattr(hitchin, route, lambda params: fake)
    table = hitchin.perverse_table if route == "variant_betti" else hitchin.weight_table
    with pytest.raises(InconsistentFormulaError, match=message):
        table(ModuliParams(2, 2))


@pytest.mark.parametrize("n,g", GRID)
def test_support_sits_above_twice_the_bound(n, g):
    params = ModuliParams(n, g)
    table = perverse_table(params)
    rows = [i for (i, _), _ in table.items()]
    floor = 2 * params.curious_shift + 1
    # row i holds degree i + c
    c = params.curious_shift
    assert min(rows) + c >= floor
    assert max(rows) + c <= params.dim - 1
