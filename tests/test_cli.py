import collections
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pwcheck.cli as cli
import pwcheck.epoly as epoly
import pwcheck.filtration as filtration
import pwcheck.hookchar as hookchar
from pwcheck import CohomologyProfile, Criterion, InconsistentFormulaError, NotPrimeError
from pwcheck._frozen import compact_json
from pwcheck.cli import main
from pwcheck.laurent import BiLaurentPoly, LaurentPoly
from test_golden import GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv), which may exit through argparse."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
    def boom(params):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli, "euler_variant", boom)
    code, out, _ = run(capsys, "verify", "--n", "2", "--g", "2")
    assert code == 1
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL euler") for line in lines)
    assert "FAIL euler (error: RuntimeError: forced)" in lines
    # the later checks still ran
    assert any(line.startswith("PASS pw") for line in lines)
    assert lines[-1].startswith("1 check(s) failed")


def _verify_line(capsys, name):
    """The exit code and the line of check name that verify --n 3 --g 2 prints."""
    code, out, _ = run(capsys, "verify", "--n", "3", "--g", "2")
    return code, next(line for line in out.splitlines() if line.split()[1] == name)


def _with_betti(monkeypatch, change):
    """Patch verify's variant_betti to give change(profile as a dict)."""
    def patched(params):
        return CohomologyProfile(change(dict(epoly.variant_betti(params).items())))

    monkeypatch.setattr(cli, "variant_betti", patched)


def test_support_bound_failure_names_the_low_end(capsys, monkeypatch):
    # at (3, 2) the support [13, 15] fills the range exactly
    _with_betti(monkeypatch, lambda betti: {**betti, 12: 1})
    assert _verify_line(capsys, "support-bound") == (
        1, "FAIL support-bound ([12,15] within [13,15]; low end 12 < 13)")


def test_support_bound_failure_names_the_high_end(capsys, monkeypatch):
    _with_betti(monkeypatch, lambda betti: {**betti, 16: 1})
    assert _verify_line(capsys, "support-bound") == (
        1, "FAIL support-bound ([13,16] within [13,15]; high end 16 > 15)")


def test_support_bound_fails_on_a_support_short_of_the_floor(capsys, monkeypatch):
    # the support is exactly [floor, top], so [floor+1, top] fails too
    _with_betti(monkeypatch, lambda betti: {d: v for d, v in betti.items() if d != 13})
    assert _verify_line(capsys, "support-bound") == (
        1, "FAIL support-bound ([14,15] within [13,15]; low end 14 > 13)")


def test_curious_symmetry_failure_names_the_first_unequal_offset(capsys, monkeypatch):
    _with_betti(monkeypatch, lambda betti: {**betti, 15: 161})
    assert _verify_line(capsys, "curious-symmetry") == (
        1, "FAIL curious-symmetry (center 14; first difference at offset 1: "
           "H^13 = 160, H^15 = 161)")


def test_curious_symmetry_scans_as_far_below_the_center_as_the_support_reaches(
        capsys, monkeypatch):
    # at (2, 2) the center is 5: H^1 lies 4 below it, with nothing above
    monkeypatch.setattr(cli, "variant_betti", lambda params: CohomologyProfile({1: 1}))
    code, out, _ = run(capsys, "verify", "--n", "2", "--g", "2")
    assert code == 1
    assert ("FAIL curious-symmetry (center 5; first difference at offset 4: "
            "H^1 = 1, H^9 = 0)") in out.splitlines()


def test_palindromic_failure_names_the_first_unequal_exponent(capsys, monkeypatch):
    # at (3, 2) closed_e is -160*q^17 + 80*q^18 - 160*q^19, weight 36
    monkeypatch.setattr(cli, "closed_e",
                        lambda params: epoly.closed_e(params) + LaurentPoly({17: 1}))
    assert _verify_line(capsys, "palindromic") == (
        1, "FAIL palindromic (weight 36; first difference at q^17: "
           "E = -159, q^36*E(1/q) = -160)")


def test_mirror_diagonal_failure_names_the_first_unequal_exponent(capsys, monkeypatch):
    monkeypatch.setattr(cli, "mirror_difference",
                        lambda params: epoly.mirror_difference(params) + BiLaurentPoly({(9, 9): 1}))
    assert _verify_line(capsys, "mirror-diagonal") == (
        1, "FAIL mirror-diagonal (u=v=q; first difference at q^18: "
           "mirror diagonal = 81, closed_e = 80)")


def test_evar_shift_failure_names_the_first_unequal_exponent(capsys, monkeypatch):
    monkeypatch.setattr(cli, "evar_type_route",
                        lambda params: hookchar.evar_type_route(params) + LaurentPoly({9: -1}))
    assert _verify_line(capsys, "evar-shift") == (
        1, "FAIL evar-shift (shift q^10; first difference at q^19: "
           "shifted type route = -161, closed_e = -160)")


def test_euler_failure_names_both_values(capsys, monkeypatch):
    _with_betti(monkeypatch, lambda betti: {**betti, 16: 1})
    assert _verify_line(capsys, "euler") == (
        1, "FAIL euler (chi -240; the Betti numbers give -239)")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--g", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert [c["name"] for c in obj["checks"]] == [
        "palindromic", "mirror-diagonal", "evar-shift", "euler",
        "support-bound", "curious-symmetry", "pw"]


# Each route binding verify calls in cli, and the _CHECKS name of its route.
ROUTE_BINDINGS = {"closed_e": "closed", "mirror_difference": "mirror",
                  "evar_type_route": "type", "euler_variant": "euler",
                  "variant_betti": "betti", "verify_pw": "pw"}


def test_no_check_reads_a_route_twice():
    for name, (reads, _) in cli._CHECKS.items():
        assert len(set(reads)) == len(reads), name
    assert {route for reads, _ in cli._CHECKS.values() for route in reads} == set(
        ROUTE_BINDINGS.values())


@pytest.mark.parametrize("binding", ROUTE_BINDINGS)
def test_a_raising_route_fails_exactly_the_checks_that_read_it(capsys, monkeypatch, binding):
    def boom(params):
        raise RuntimeError(binding)

    monkeypatch.setattr(cli, binding, boom)
    code, out, _ = run(capsys, "verify", "--n", "3", "--g", "2")
    readers = [name for name, (reads, _) in cli._CHECKS.items()
               if ROUTE_BINDINGS[binding] in reads]
    assert code == 1 and readers
    # A passing line is cut to its verdict and name, a failing one kept whole.
    assert [line if line.startswith("FAIL") else line.split(" (")[0]
            for line in out.splitlines()] == [
        f"FAIL {name} (error: RuntimeError: {binding})" if name in readers
        else f"PASS {name}" for name in cli._CHECKS] + [
        f"{len(readers)} check(s) failed: {', '.join(readers)}"]


@pytest.mark.parametrize("n, g", [(5, 2), (13, 4)])
def test_verify_builds_each_route_once(capsys, monkeypatch, n, g):
    calls = collections.Counter()
    for binding in ROUTE_BINDINGS:
        def counted(params, binding=binding, build=getattr(cli, binding)):
            calls[binding] += 1
            return build(params)

        monkeypatch.setattr(cli, binding, counted)
    assert run(capsys, "verify", "--n", str(n), "--g", str(g))[0] == 0
    assert calls == dict.fromkeys(ROUTE_BINDINGS, 1)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20)


@given(json_values)
@example(["\"\\\x00\x1f\x7f\u00e9\u2028\U0001F600", {"": None, "a": [True, False, -0]}])
def test_compact_json_writes_what_json_dumps_writes(value):
    assert compact_json(value) == json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, [{"a": {2}}], CohomologyProfile({2: 1})],
                         ids=["float", "tuple", "int-key", "nested-set", "value-class"])
def test_compact_json_refuses_any_other_type(value):
    with pytest.raises(TypeError):
        compact_json(value)


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


def test_ksearch_budget_exit_on_a_long_m_range(capsys):
    # 10**8 values of m: refused before a set or a list of them exists
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "ksearch", "--m-max", "100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: search would visit more cases than the budget of 10000000\n"
    assert peak < 1 << 20


def test_composite_rank_exit(capsys):
    code, _, err = run(capsys, "epoly", "--n", "4", "--g", "2")
    assert code == 2
    assert "not prime" in err


def test_composite_rank_is_refused_before_the_params_line(capsys):
    code, out, err = run(capsys, "epoly", "--n", "4", "--g", "2", "--verbose")
    assert code == 2
    assert out == ""
    assert err == "error: rank 4 is not prime\n"


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pwcheck epoly ")
    assert captured.err.endswith("error: the following arguments are required: --g\n")


@pytest.mark.parametrize("verb", ["epoly", "betti", "pw", "verify", "ksearch"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_out_writes_identical_bytes(capsys, tmp_path, verb, fmt):
    argv = [verb, "--format", fmt]
    if verb != "ksearch":
        argv += ["--n", "3", "--g", "2"]
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--out", str(target))
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, "epoly", "--n", "3", "--g", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("verb", ["epoly", "verify", "ksearch"])
def test_unwritable_out_is_refused_before_the_verb_runs(capsys, monkeypatch, tmp_path, verb):
    # The verb raises a bug if it runs, which would exit 3.
    def boom(args):
        raise AssertionError("the verb ran")

    _, verb_help, options = cli._VERBS[verb]
    monkeypatch.setitem(cli._VERBS, verb, (boom, verb_help, options))
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *_argv(verb), "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    "epoly --n 4 --g 2", "verify --n 3 --g 2 --d 3", "ksearch --budget 1",
], ids=["composite-rank", "bad-degree", "over-budget"])
def test_a_refused_run_keeps_an_existing_out_file(capsys, tmp_path, argv):
    target = tmp_path / "out.txt"
    target.write_bytes(b"earlier output\n")
    assert run(capsys, *argv.split(), "--out", str(target))[:2] == (2, "")
    assert target.read_bytes() == b"earlier output\n"


def test_a_failed_run_leaves_an_empty_new_out_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    assert run(capsys, "epoly", "--n", "4", "--g", "2", "--out", str(target))[0] == 2
    assert target.read_bytes() == b""


def test_out_replaces_an_existing_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"a much longer earlier output than the new one\n" * 10)
    code, out, _ = run(capsys, "epoly", "--n", "2", "--g", "2", "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == b"-30*q^7\n"


def test_help_lists_every_verb_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    verbs = [
        ("epoly", "closed E-polynomial of the variant part"),
        ("betti", "variant Betti numbers"),
        ("pw", "perverse/weight tables and their comparison"),
        ("verify", "run every identity check"),
        ("ksearch", "search small tables for criterion counterexamples"),
    ]
    # compare word by word: argparse wraps and pads by terminal width
    listing = " ".join(f"{verb} {help_text}" for verb, help_text in verbs)
    assert listing in " ".join(out.split())


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--n", "2", "--g", "3", "--format", "json")
    _, second, _ = run(capsys, "verify", "--n", "2", "--g", "3", "--format", "json")
    assert first == second


def test_verbose_goes_to_stderr(capsys):
    code, out, err = run(capsys, "betti", "--n", "2", "--g", "2", "--verbose")
    assert code == 0
    assert "dim=6" in err
    assert "dim=6" not in out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_ksearch_verbose_times_each_criterion_on_stderr_only(capsys, fmt):
    argv = ["ksearch", "--i-max", "1", "--j-max", "1", "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    code2, out2, err2 = run(capsys, *argv, "--verbose")
    assert (code2, out2) == (code, out)
    lines = err2.splitlines()
    assert lines[0] == "scanning 16 tables per criterion"
    assert [line.rsplit(", ", 1)[0] for line in lines[1:]] == [
        "criterion first: 16 tables, 0 hit(s)", "criterion second: 16 tables, 0 hit(s)"]
    for line in lines[1:]:
        seconds, unit = line.rsplit(", ", 1)[1].split()
        assert unit == "s" and float(seconds) >= 0


def test_a_failing_certificate_exits_1_naming_the_cell(capsys, monkeypatch):
    # with condition (iii) left out, the first criterion's proof fails
    conditions = dict(filtration._CONDITIONS)
    conditions[Criterion.FIRST] = conditions[Criterion.FIRST][:2]
    monkeypatch.setattr(filtration, "_CONDITIONS", conditions)
    code, out, err = run(capsys, "ksearch", "--criterion", "first", "--i-max", "1",
                         "--j-max", "1", "--k-min", "0", "--k-max", "0", "--verbose")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "scanning 16 tables per criterion",
        "verification failure: first criterion certificate fails at m=1, k=0, "
        "cell (1, 1): coefficient 0 off column k"]


# The ksearch-boxes benchmark boxes, and the digests of the two of their
# outputs that GOLDEN does not pin, as the enumerating verb printed them.
KSEARCH_BOXES = ["ksearch", "ksearch --i-max 3 --j-max 3 --criterion first",
                 "ksearch --i-max 3 --j-max 3 --criterion second"]
MORE_DIGESTS = {
    "ksearch --i-max 3 --j-max 3 --criterion first --format csv":
        "41465ee7f9a79406d2a919db479b2924c3aba63c9a7d59d035b6a2860db8dc2f",
    "ksearch --i-max 3 --j-max 3 --criterion second --format json":
        "bc4df0fe9c62209ca89a31ee5bf57d4216966b0e1915d577d03636253d586435",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("box", KSEARCH_BOXES)
def test_ksearch_never_enumerates(capsys, monkeypatch, box, fmt):
    def boom(*args, **kwargs):
        raise AssertionError("the verb enumerated")

    monkeypatch.setattr(filtration, "falsification_search", boom)
    monkeypatch.setattr(cli, "falsification_search", boom, raising=False)
    argv = f"{box} --format {fmt}"
    digest = {a: d for a, c, d in GOLDEN if c == 0}.get(argv) or MORE_DIGESTS[argv]
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ksearch_with_v_max_0_builds_no_equalities(capsys, monkeypatch):
    # The one table is the zero table, a k-sequence for every (m, k): a
    # 10**6-cell box is answered without a certificate.
    calls = [0]

    def counted(builder):
        def build(*args):
            calls[0] += 1
            return builder(*args)
        return build

    monkeypatch.setattr(filtration, "_CONDITIONS", {
        criterion: tuple((label, filtration._finder(counted(finder.build), lambda *index: index))
                         for label, finder in conditions)
        for criterion, conditions in filtration._CONDITIONS.items()})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "ksearch", "--i-max", "999", "--j-max", "999",
                             "--v-max", "0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err, calls[0]) == (0, "", 0)
    assert out == (
        "criterion first: no counterexamples (1 tables, m in [1,3], k in [0,2])\n"
        "criterion second: no counterexamples (1 tables, m in [1,3], k in [0,2])\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, message", [
    ("epoly --n 1 --g 2", "rank n must be an integer >= 2"),
    ("pw --n 3 --g 1", "genus g must be an integer >= 2"),
    ("verify --n 3 --g 2 --d 3", "degree d must be an integer coprime to n"),
    ("ksearch --i-max -1", "grid bounds must be nonnegative"),
    ("ksearch --m-min 0", "m must be an integer >= 1"),
    ("ksearch --m-min 3 --m-max 2", "m_range and k_range must be nonempty"),
    ("ksearch --k-min -1", "k must be an integer >= 0"),
    ("ksearch --budget -1", "search would visit more cases than the budget of -1"),
])
def test_a_refused_input_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


# One function each verb calls outside verify's per-check guard.
VERB_CALLS = [("epoly", "closed_e"), ("betti", "variant_betti"), ("pw", "verify_pw"),
              ("verify", "_verify_checks"), ("ksearch", "certify_criterion")]


def _argv(verb):
    return [verb] if verb == "ksearch" else [verb, "--n", "3", "--g", "2"]


@pytest.mark.parametrize("exc", [ZeroDivisionError, ValueError, KeyError, TypeError])
@pytest.mark.parametrize("verb, name", VERB_CALLS)
def test_an_internal_error_exits_3(capsys, monkeypatch, verb, name, exc):
    def boom(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(cli, name, boom)
    code, out, err = run(capsys, *_argv(verb))
    assert code == 3
    assert out == ""
    assert err == f"internal error: {exc.__name__}: {exc('forced')}\n"


@pytest.mark.parametrize("exc, code, prefix", [
    (NotPrimeError, 2, "error: "),
    (InconsistentFormulaError, 1, "verification failure: "),
])
@pytest.mark.parametrize("verb, name", VERB_CALLS)
def test_only_the_two_roots_map_to_exits_1_and_2(capsys, monkeypatch, verb, name,
                                                 exc, code, prefix):
    def raise_it(*args, **kwargs):
        raise exc("forced")

    monkeypatch.setattr(cli, name, raise_it)
    assert run(capsys, *_argv(verb)) == (code, "", f"{prefix}forced\n")


@pytest.mark.parametrize("verb", ["epoly", "betti", "pw"])
def test_a_non_integral_one_over_n_is_a_verification_failure(capsys, monkeypatch, verb):
    # A bracket off by one makes closed_e's exact division by n leave the
    # ints: a failed check, never a coefficient printed as a fraction.
    bracket = epoly.variant_bracket
    monkeypatch.setattr(epoly, "variant_bracket", lambda n, g: bracket(n, g) + 1)
    code, out, err = run(capsys, verb, "--n", "3", "--g", "2")
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, plain", [
    ("pw --form json --n 3 --g 2", "pw --format json --n 3 --g 2"),
    ("pw --n=3 --g=2", "pw --n 3 --g 2"),
])
def test_a_form_argparse_parses_gives_the_plain_output(capsys, argv, plain):
    assert cli._parse_direct(argv.split()) is None
    assert cli._parse_direct(plain.split()) is not None
    assert run(capsys, *argv.split()) == run(capsys, *plain.split())


def test_help_after_the_flags_prints_the_verbs_usage(capsys):
    code, out, _ = run(capsys, "pw", "--n", "3", "--g", "2", "-h")
    assert code == 0
    assert out.startswith("usage: pwcheck pw ")
    assert (code, out) == run(capsys, "pw", "--help")[:2]


def test_the_direct_parser_takes_every_golden_command_line():
    for argv, _, _ in GOLDEN:
        assert cli._parse_direct(argv.split()) is not None, argv


FLAGS = sorted({flag for _, _, options in cli._VERBS.values() for flag in options})
# Abbreviations, --flag=value, help, "--" and short flags: argparse's to read.
ODD = ["--form", "--verb", "--i", "--bud", "--crit", "--n=3", "--format=json",
       "-h", "--help", "--", "-n"]
VALUES = ["3", "05", " 7", "-1", "x", "2.5", "json", "csv", "text", "first",
          "both", "", "2", "1", "1_0"]
PARSER = cli.build_parser()


@st.composite
def command_lines(draw):
    """A verb or not, then the verb's own flags, each with a value it
    takes or any value, and then a few stray tokens put anywhere."""
    verb = draw(st.sampled_from([*cli._VERBS, "bogus", "-h"]))
    options = cli._VERBS[verb][2] if verb in cli._VERBS else cli._MODULI
    names = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    if draw(st.booleans()):
        names += [flag for flag in ("--n", "--g") if flag not in names]
    tokens = []
    for name in draw(st.permutations(names)):
        tokens.append(name)
        kind = options.get(name, (int,))[0]
        if kind is not bool:
            takes = (kind if type(kind) is tuple
                     else ["3", "05", " 7", "1_0"] if kind is int else ["x", ""])
            tokens.append(draw(st.sampled_from(takes) | st.sampled_from(takes)
                               | st.sampled_from(VALUES)))
    for stray in draw(st.lists(st.sampled_from(FLAGS + ODD + VALUES), max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), stray)
    return [verb, *tokens]


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["pw", "--n", "05", "--g", " 7", "--out", ""])
@example(["ksearch", "--verbose", "--criterion", "first", "--budget", "1_0"])
def test_the_direct_parser_agrees_with_argparse(argv):
    direct = cli._parse_direct(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = PARSER.parse_args(argv)
    except SystemExit:
        assert direct is None
        return
    if direct is not None:
        assert vars(direct) == vars(expected)


def _python(*args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, check=False)


def _module_run(*argv):
    return _python("-m", "pwcheck.cli", *argv)


def test_python_m_reads_its_command_line_from_sys_argv():
    argv, code, digest = GOLDEN[0]
    result = _module_run(*argv.split())
    assert (result.returncode, result.stderr) == (code, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == digest
    result = _module_run("pw", "--n", "4", "--g", "2")
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: rank 4 is not prime\n"


VERB_FORMATS = [pytest.param(verb, fmt, id=f"{verb}-{fmt}")
                for verb in cli._VERBS for fmt in ("text", "json", "csv")]


@pytest.mark.parametrize("verb, fmt", VERB_FORMATS)
def test_python_m_gives_the_in_process_bytes_and_exit(capsys, tmp_path, verb, fmt):
    argv = [*_argv(verb), "--format", fmt]
    code, out, _ = run(capsys, *argv)
    result = _module_run(*argv)
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), b"")
    # with --out, the file is complete once the process has exited
    target = tmp_path / "out.txt"
    result = _module_run(*argv, "--out", str(target))
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert target.read_bytes() == out.encode()


# main() from sys.argv, in a child under -S (no site .pth file freezes
# or imports anything first); prints the freeze count before and after.
FREEZE_PROGRAM = """
import gc, sys
from pwcheck.cli import main
before = gc.get_freeze_count()
code = main()
print(before, gc.get_freeze_count())
sys.exit(code)
"""


def test_the_program_entry_freezes_the_start_up_heap():
    result = _python("-S", "-c", FREEZE_PROGRAM, "verify", "--n", "5", "--g", "2")
    assert (result.returncode, result.stderr) == (0, b"")
    before, after = map(int, result.stdout.split()[-2:])
    assert before == 0 and after > 0


def test_a_library_call_leaves_the_collector_alone(capsys):
    state = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "verify", "--n", "5", "--g", "2")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state
