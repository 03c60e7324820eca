import json

import pytest

from pwcheck.epoly import CohomologyProfile, InconsistentFormulaError, make_params
from pwcheck.filtration import FiltrationTable, is_k_sequence
from pwcheck.hitchin import endoscopic_bound, perverse_table, verify_pw, weight_table

GRID = [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4), (3, 3)]


def test_perverse_table_small_cases():
    assert perverse_table(make_params(2, 2)) == FiltrationTable({(3, 2): 30})
    assert perverse_table(make_params(3, 2)) == FiltrationTable(
        {(7, 6): 160, (8, 6): 80, (9, 6): 160})


def test_weight_table_small_cases():
    assert weight_table(make_params(2, 2)) == FiltrationTable({(3, 2): 30})
    assert weight_table(make_params(3, 2)) == FiltrationTable(
        {(7, 6): 160, (8, 6): 80, (9, 6): 160})


@pytest.mark.parametrize("n,g", GRID)
def test_tables_agree_and_are_k_sequences(n, g):
    params = make_params(n, g)
    perverse = perverse_table(params)
    weight = weight_table(params)
    assert perverse == weight
    m, k = params.half_dim, params.curious_shift
    assert is_k_sequence(perverse, m, k)


@pytest.mark.parametrize("n,g", GRID)
def test_verify_pw(n, g):
    report = verify_pw(make_params(n, g))
    assert report.tables_equal
    assert report.perverse_check.passed and report.perverse_check.is_k_seq
    assert report.weight_check.passed and report.weight_check.is_k_seq
    assert report.holds
    assert "holds" in report.verdict


def test_report_serialization():
    report = verify_pw(make_params(2, 2))
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
    report = hitchin.verify_pw(make_params(2, 2))
    assert not report.tables_equal
    assert not report.holds
    assert not report.perverse_check.passed


def test_perverse_table_rejects_low_degrees(monkeypatch):
    import pwcheck.hitchin as hitchin

    fake = CohomologyProfile({1: 4})    # at or below the shift c = 2
    monkeypatch.setattr(hitchin, "variant_betti", lambda params: fake)
    with pytest.raises(InconsistentFormulaError):
        hitchin.perverse_table(make_params(2, 2))


def test_endoscopic_bound_values():
    assert endoscopic_bound(2, 2) == 2
    assert endoscopic_bound(3, 2) == 6
    assert endoscopic_bound(5, 3) == 40
    # composite ranks are allowed here; p is the smallest prime factor
    assert endoscopic_bound(4, 2) == 8
    assert endoscopic_bound(6, 2) == 18
    assert endoscopic_bound(9, 3) == 108
    with pytest.raises(ValueError):
        endoscopic_bound(1, 2)
    with pytest.raises(ValueError):
        endoscopic_bound(3, 1)


@pytest.mark.parametrize("n,g", GRID)
def test_support_sits_above_twice_the_bound(n, g):
    params = make_params(n, g)
    table = perverse_table(params)
    rows = [i for (i, _), _ in table.items()]
    floor = 2 * endoscopic_bound(n, g) + 1
    # row i holds degree i + c
    c = params.curious_shift
    assert min(rows) + c >= floor
    assert max(rows) + c <= params.dim - 1
