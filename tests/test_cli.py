import json

import pytest

from pwcheck.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_epoly_text(capsys):
    code, out, _ = run(capsys, "epoly", "--n", "2", "--g", "2")
    assert code == 0
    assert out == "-30*q^7\n"


def test_epoly_json(capsys):
    code, out, _ = run(capsys, "epoly", "--n", "3", "--g", "2", "--format", "json")
    assert code == 0
    assert out == '[[34,"-160"],[36,"80"],[38,"-160"]]\n'


def test_epoly_csv(capsys):
    code, out, _ = run(capsys, "epoly", "--n", "2", "--g", "2", "--format", "csv")
    assert code == 0
    assert out == "twice_exponent,coefficient\n14,-30\n"


def test_betti_formats(capsys):
    code, out, _ = run(capsys, "betti", "--n", "3", "--g", "2", "--format", "csv")
    assert code == 0
    assert out == "degree,dimension\n13,160\n14,80\n15,160\n"
    code, out, _ = run(capsys, "betti", "--n", "3", "--g", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"13": 160, "14": 80, "15": 160}
    code, out, _ = run(capsys, "betti", "--n", "2", "--g", "2")
    assert code == 0
    assert out == "H^5: 30\ntotal: 30\n"


def test_pw_text_and_exit(capsys):
    code, out, _ = run(capsys, "pw", "--n", "2", "--g", "3")
    assert code == 0
    assert out.startswith("P=W holds for n=2 g=3 d=1")


def test_pw_json(capsys):
    code, out, _ = run(capsys, "pw", "--n", "2", "--g", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is True
    assert obj["perverse_table"] == [[3, 2, 30]]


def test_pw_csv_is_the_perverse_table(capsys):
    code, out, _ = run(capsys, "pw", "--n", "3", "--g", "2", "--format", "csv")
    assert code == 0
    assert out == "i,j,value\n7,6,160\n8,6,80\n9,6,160\n"


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--g", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert len(lines) == 8


def test_verify_continues_past_failures(capsys, monkeypatch):
    import pwcheck.cli as cli

    def boom(params):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "euler_variant", boom)
    code, out, _ = run(capsys, "verify", "--n", "2", "--g", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL euler") for line in lines)
    # the later checks still ran
    assert any(line.startswith("PASS pw") for line in lines)
    assert lines[-1].startswith("1 check(s) failed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--g", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert [c["name"] for c in obj["checks"]] == [
        "palindromic", "mirror-diagonal", "evar-shift", "euler",
        "support-bound", "curious-symmetry", "pw"]


def test_ksearch_small(capsys):
    code, out, _ = run(capsys, "ksearch", "--i-max", "2", "--j-max", "1",
                       "--v-max", "1", "--m-max", "2", "--k-max", "1")
    assert code == 0
    assert "criterion first: no counterexamples" in out
    assert "criterion second: no counterexamples" in out


def test_ksearch_json(capsys):
    code, out, _ = run(capsys, "ksearch", "--i-max", "1", "--j-max", "1",
                       "--v-max", "1", "--m-max", "1", "--k-max", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["counterexamples"] == 0
    assert obj["tables_scanned"] == 16
    assert obj["results"] == {"first": [], "second": []}


def test_ksearch_budget_exit(capsys):
    code, _, err = run(capsys, "ksearch", "--i-max", "5", "--j-max", "5",
                       "--v-max", "3", "--budget", "10")
    assert code == 2
    assert "error:" in err


def test_ksearch_budget_exit_on_a_huge_box(capsys):
    # 10**4356 tables: the count must not be built, nor printed
    code, out, err = run(capsys, "ksearch", "--i-max", "65", "--j-max", "65",
                         "--v-max", "9")
    assert code == 2
    assert out == ""
    assert err == "error: search would visit more cases than the budget of 10000000\n"


def test_composite_rank_exit(capsys):
    code, _, err = run(capsys, "epoly", "--n", "4", "--g", "2")
    assert code == 2
    assert "not prime" in err


def test_verify_rejects_composite_rank_before_any_check(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--g", "2")
    assert code == 2
    assert out == ""
    assert err == "error: rank 4 is not prime\n"


def test_bad_degree_exit(capsys):
    code, _, err = run(capsys, "betti", "--n", "3", "--g", "2", "--d", "6")
    assert code == 2
    assert "coprime" in err


def test_usage_error_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["epoly", "--n", "2"])     # --g missing
    assert exc.value.code == 2


def test_out_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "pw", "--n", "2", "--g", "2", "--format", "json")
    assert code == 0
    code2 = main(["pw", "--n", "2", "--g", "2", "--format", "json",
                  "--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == out


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--n", "2", "--g", "3", "--format", "json")
    _, second, _ = run(capsys, "verify", "--n", "2", "--g", "3", "--format", "json")
    assert first == second


def test_verbose_goes_to_stderr(capsys):
    code, out, err = run(capsys, "betti", "--n", "2", "--g", "2", "--verbose")
    assert code == 0
    assert "dim=6" in err
    assert "dim=6" not in out
