import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pmuplan.cli
import pmuplan.estimation
import pmuplan.planner
from pmuplan.cases import bundled_case_text, load_case
from pmuplan.cli import main
from pmuplan.estimation import UnobservableStateError
from pmuplan.knapsack import ItemLimitError
from pmuplan.measurements import ChannelLimitError
from pmuplan.network import CaseFormatError, serialize_case
from pmuplan.planner import CandidateEvaluationError, EnumerationCapError
from pmuplan.submodularity import (
    AuditAbortedError,
    ClassificationTally,
    MetricEvaluationError,
    SubsetTriple,
    count_combinations,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_case_info_summary(capsys):
    code, out, _ = run(capsys, "case", "info")
    assert code == 0
    assert "14 buses, 20 branches, connected" in out
    assert "| 4 | 5 |" in out  # bus 4 has the highest degree


def test_case_info_json(capsys):
    code, out, _ = run(capsys, "case", "info", "--case", "ieee118", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "case-info/1"
    assert (doc["buses"], doc["branches"], doc["connected"]) == (118, 186, True)
    degree_of = {row["bus"]: row["degree"] for row in doc["degrees"]}
    assert degree_of[49] == 12


def test_metrics_reference_row(capsys):
    code, out, _ = run(capsys, "metrics", "--nu", "2,6,7,9")
    assert code == 0
    assert "| 2,6,7,9 | 36 | 8 | 8 |" in out
    assert "| 28.0000 | 0.7778 |" in out


def test_metrics_csv_round_trip(capsys):
    code, out, _ = run(capsys, "metrics", "--nu", "2,6,7,9,10,14", "--out", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["placement"] == "2,6,7,9,10,14"
    assert float(rows[0]["sum"]) == pytest.approx(32.0, abs=1e-3)
    assert float(rows[0]["average"]) == pytest.approx(0.7273, abs=1e-3)


def test_metrics_never_prints_negative_zero(capsys):
    # in full scope one diagonal of S is exactly 0; the SVD leaves a residue
    # of either sign, and md and csv print it as 0.0000, json as the raw float
    for out in ("md", "csv"):
        code, text, _ = run(capsys, "metrics", "--nu", "2,6,7,9", "--scope", "full", "--out", out)
        assert code == 0
        assert "0.0000" in text and "-0.0000" not in text
    code, text, _ = run(capsys, "metrics", "--nu", "2,6,7,9", "--scope", "full", "--out", "json")
    assert code == 0 and abs(json.loads(text)["min"]) < 1e-12
    assert [pmuplan.cli._fmt_metric(x) for x in (-8.9e-16, -0.0, -4e-5, -6e-5, 0.25)] == [
        "0.0000", "0.0000", "0.0000", "-0.0001", "0.2500"]


def test_metrics_without_placement_is_usage_error(capsys):
    code, _, err = run(capsys, "metrics", "--nu", "")
    assert code == 2
    assert "requires a placement" in err


def test_missing_case_file_names_the_path(capsys):
    code, _, err = run(capsys, "case", "info", "--case", "nosuch.m")
    assert code == 2
    assert "nosuch.m" in err


def test_unobservable_full_state_exit(capsys):
    code, _, err = run(capsys, "metrics", "--nu", "5", "--scope", "full")
    assert code == 3
    assert "null space of dimension 18" in err


def test_plan_greedy_json(capsys):
    code, out, _ = run(capsys, "plan", "greedy", "--stages", "3", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "plan-greedy/1"
    assert doc["base"] == [2, 6, 7, 9]
    assert doc["order"] == [8, 1, 3]
    assert doc["stage_values"][0] == pytest.approx(14 / 19, abs=1e-12)


def test_plan_compare_table(capsys):
    code, out, _ = run(capsys, "plan", "compare", "--stages", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("| ")]
    assert len(lines) == 12  # header + rule + 10 stages
    assert "| 3 | 8,10,11 | 0.6818 | 8,1,3 | 0.6957 | yes | yes |" in out
    assert "| 5 | 1,3,4,5,8 | 0.6538 | 8,1,3,4,5 | 0.6538 | no | no |" in out


def test_plan_budget_cap_exit(capsys):
    code, _, err = run(capsys, "plan", "budget", "--stages", "5", "--enum-cap", "100")
    assert code == 4
    assert "greedy planner" in err


def test_plan_compare_counts_stage_1_against_the_cap(capsys):
    # stage 1 is read from the greedy plan, but its 10 subsets still count
    assert run(capsys, "plan", "compare", "--nu", "2,6,7,9", "--stages", "2",
               "--enum-cap", "5") == (
        4, "", "error: budget-constrained stage 1 needs 10 subset evaluations, over the "
               "cap of 5; use the greedy planner for problems this size\n")


def test_plan_stage_bounds_are_usage_errors(capsys):
    code, _, err = run(capsys, "plan", "greedy", "--stages", "11")
    assert code == 2
    assert "stages" in err


def test_submod_count_small_and_large(capsys):
    code, out, _ = run(capsys, "submod", "count")
    assert code == 0
    assert "alpha = 90" in out
    code, out, _ = run(capsys, "submod", "count", "--case", "ieee118")
    assert code == 0
    assert "alpha = 6480" in out


def test_submod_audit_reference_summary(capsys):
    code, out, _ = run(capsys, "submod", "audit")
    assert code == 0
    assert "90 triples: 78 submodular, 12 supermodular, 0 ties" in out
    assert "alpha = 90; audited = 90" in out
    assert "counterexamples retained: 12" in out


def test_submod_audit_json_records(capsys):
    code, out, _ = run(capsys, "submod", "audit", "--out", "json", "--counterexamples", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "submod-audit/1"
    assert (doc["total"], doc["submodular"], doc["supermodular"], doc["ties"]) == (90, 78, 12, 0)
    assert doc["alpha"] == 90
    assert len(doc["counterexamples"]) == 3
    first = doc["counterexamples"][0]
    assert first["verdict"] == "supermodular"
    assert first["margin"] <= -1e-9


_EVERY_IEEE14_BUS = ",".join(str(bus) for bus in range(1, 15))

# each names the flag the user typed and the bound it broke
SIZE_ERRORS = {
    "submod count --a-size 13 --b-size 12":
        "--b-size must be in 13..13 (--a-size to omega-1), got 12",
    "submod audit --a-size 13 --b-size 12":
        "--b-size must be in 13..13 (--a-size to omega-1), got 12",
    "submod count --a-size -3 --b-size 2":
        "--a-size must be in 4..13 (|nu| to omega-1), got -3",
    "submod count --a-size 14":
        "--a-size must be in 4..13 (|nu| to omega-1), got 14",
    "submod count --nu 2,6 --a-size 1":
        "--a-size must be in 2..13 (|nu| to omega-1), got 1",
    "submod audit --a-size 6 --b-size 14":
        "--b-size must be in 6..13 (--a-size to omega-1), got 14",
    "plan budget --stages 0":
        "--stages must be in 1..10 (buses outside the base), got 0",
    "plan budget --nu 2,6 --stages 13":
        "--stages must be in 1..12 (buses outside the base), got 13",
    "plan greedy --stages 11":
        "--stages must be in 0..10 (buses outside the base), got 11",
    "plan greedy --nu 2,6 --stages -1":
        "--stages must be in 0..12 (buses outside the base), got -1",
    "plan compare --stages 11":
        "--stages must be in 1..10 (buses outside the base), got 11",
    "plan compare --stages 0":
        "--stages must be in 1..10 (buses outside the base), got 0",
    # a base of every bus leaves no range to print
    f"plan compare --nu {_EVERY_IEEE14_BUS} --stages 1":
        "--stages has no valid value, got 1: the base leaves no bus outside it",
    f"plan budget --nu {_EVERY_IEEE14_BUS} --stages 1":
        "--stages has no valid value, got 1: the base leaves no bus outside it",
    f"submod audit --nu {_EVERY_IEEE14_BUS}":
        "--a-size has no valid value, got 12: the base leaves no bus outside it",
    f"submod count --nu {_EVERY_IEEE14_BUS} --a-size 14":
        "--a-size has no valid value, got 14: the base leaves no bus outside it",
}


@pytest.mark.parametrize("argv", SIZE_ERRORS)
def test_size_and_stage_errors_name_the_flag(capsys, argv):
    assert run(capsys, *argv.split()) == (2, "", f"error: {SIZE_ERRORS[argv]}\n")


def test_submod_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, "submod", "audit")
    assert code == 0
    code, fanned, _ = run(capsys, "submod", "audit", "--parallel", "2")
    assert code == 0
    assert fanned == serial
    # Both pairs have an odd number of (A, B) blocks of 8 and 2 probes, so
    # the two-worker shard boundary at alpha // 2 falls inside a block.
    for a_size, b_size in ((4, 6), (4, 12)):
        assert (count_combinations(14, 4, a_size, b_size) // 2) % (14 - b_size) != 0
        argv = ("submod", "audit", "--a-size", str(a_size), "--b-size", str(b_size),
                "--out", "json", "--counterexamples", "5")
        code, serial, _ = run(capsys, *argv, "--parallel", "1")
        assert code == 0
        code, fanned, err = run(capsys, *argv, "--parallel", "2")
        assert code == 0
        assert "across 2 workers" in err
        assert fanned == serial
        assert len(json.loads(serial)["counterexamples"]) == 5


def test_knapsack_demo_tables(capsys):
    code, out, _ = run(capsys, "knapsack", "demo")
    assert code == 0
    assert "re-optimized at every budget:" in out
    assert "greedy growth (keeps earlier picks):" in out
    assert "| [5, 6) | x2, x3 | 9 |" in out     # regime greedy never visits
    assert "| [9, 15) | x2, x3, x1 | 16 |" in out
    assert out.count("| [15, +inf) |") == 2


def test_knapsack_custom_instance(capsys):
    code, out, _ = run(
        capsys, "knapsack", "demo", "--values", "3,3", "--weights", "1,2"
    )
    assert code == 0
    assert "| [1, 3) | x1 | 3 |" in out
    code, _, err = run(capsys, "knapsack", "demo", "--values", "1,2", "--weights", "1")
    assert code == 2


def test_knapsack_demo_past_the_sweep_limit_exits_4_at_once(capsys):
    from pmuplan.knapsack import MAX_SWEEP_ITEMS

    items = ",".join(["1"] * (MAX_SWEEP_ITEMS + 1))
    start = time.perf_counter()
    code, out, err = run(capsys, "knapsack", "demo", "--values", items, "--weights", items)
    # a sweep of 2^21 subsets would take seconds, not milliseconds
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (4, "")
    assert err == (f"error: {MAX_SWEEP_ITEMS + 1} items cannot be enumerated exhaustively "
                   f"(limit {MAX_SWEEP_ITEMS})\n")


def test_output_file_emission(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "metrics", "--nu", "2,6,7,9", "--out", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "metrics/1"


@pytest.mark.parametrize("where", ["missing-dir/report.txt", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run(capsys, "case", "info", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and str(target) in err
    assert err.count("\n") == 1  # one line, no traceback


def test_unwritable_output_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def compare_plans(*args, **kwargs):
        raise AssertionError("planned although --output cannot be written")

    monkeypatch.setattr(pmuplan.planner, "compare_plans", compare_plans)
    target = tmp_path / "missing-dir" / "x.txt"
    assert run(capsys, "plan", "compare", "--case", "ieee118", "--channel-limit", "16",
               "--stages", "4", "--output", str(target)) == (
        2, "", f"error: [Errno 2] No such file or directory: '{target}'\n")


def test_a_failed_command_leaves_an_existing_output_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("earlier report\n")
    code, out, err = run(capsys, "metrics", "--nu", "2,x", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == "error: --nu 2,x: token 2 must be an integer bus id, got 'x'\n"
    assert target.read_text() == "earlier report\n"


def test_json_case_round_trips_through_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "case", "info", "--case", "ieee14", "--out", "json")
    doc = json.loads(out)
    assert doc["schema"] == "case-info/1"
    # byte determinism: the same invocation twice
    code, again, _ = run(capsys, "case", "info", "--case", "ieee14", "--out", "json")
    assert again == out


def test_default_base_is_the_core_on_bundled_ieee14_only(tmp_path, capsys):
    copy = tmp_path / "grid14.json"
    copy.write_text(json.dumps({**serialize_case(load_case("ieee14")), "name": "grid14"}))
    bases = {}
    for case in ("ieee14", str(copy)):
        code, out, _ = run(capsys, "plan", "greedy", "--stages", "1", "--case", case,
                           "--out", "json")
        assert code == 0
        bases[case] = json.loads(out)["base"]
    assert bases["ieee14"] == [2, 6, 7, 9]
    # the greedy observable cover of ieee14, although 2, 6, 7, 9 observe this copy too
    assert bases[str(copy)] == [1, 4, 6, 7, 9]


def test_a_case_without_buses_plans_nothing(tmp_path, capsys):
    # no bus has more branches than any limit, so the planner may run
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"buses": [], "branches": []}))
    code, out, err = run(capsys, "plan", "greedy", "--case", str(empty), "--stages", "0",
                         "--out", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"schema": "plan-greedy/1", "case": "empty", "base": [],
                               "order": [], "stage_values": []}


@pytest.mark.parametrize("action", ["audit", "count"])
@pytest.mark.parametrize("buses", [[], [{"id": 1}]], ids=["empty", "one-bus"])
def test_submod_default_sizes_on_a_tiny_case_name_the_flag(tmp_path, capsys, action, buses):
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"buses": buses, "branches": []}))
    count = "1 bus" if buses else "0 buses"
    assert run(capsys, "submod", action, "--case", str(tiny)) == (
        2, "", f"error: --a-size defaults to omega-2, which is negative for a case of "
               f"{count}; pass --a-size explicitly\n")
    if not buses:
        assert run(capsys, "submod", action, "--case", str(tiny), "--a-size", "0") == (
            2, "", "error: --b-size defaults to omega-1, which is negative for a case of "
                   "0 buses; pass --b-size explicitly\n")


def test_submod_explicit_sizes_on_a_one_bus_case(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"buses": [{"id": 1}], "branches": []}))
    argv = ("submod", "count", "--case", str(one), "--nu", "", "--a-size", "0")
    assert run(capsys, *argv, "--b-size", "0") == (0, "alpha = 1\n", "")
    # --b-size defaults to omega-1 = 0 here
    assert run(capsys, *argv) == (0, "alpha = 1\n", "")


@pytest.fixture
def triangle(tmp_path):
    """A case file of three buses, each with two branches; bus 3 is listed first."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "buses": [{"id": 3}, {"id": 1}, {"id": 2}],
        "branches": [{"from": f, "to": t, "r": 0.0, "x": 1.0} for f, t in ((1, 2), (2, 3), (1, 3))],
    }))
    return path


def test_an_unhostable_case_names_its_first_busiest_bus(triangle, capsys):
    for argv, what in ((("plan", "greedy", "--stages", "1"), "planning"),
                       (("submod", "audit"), "the audit")):
        assert run(capsys, *argv, "--case", str(triangle), "--nu", "1", "--channel-limit", "1") == (
            2, "", f"error: {what} evaluates placements on every bus, but bus 3 has 2 incident "
                   "branches, over the channel limit of 1; raise --channel-limit to at least 2\n")


@pytest.mark.parametrize("action", ["audit", "count"])
def test_a_default_base_no_bus_can_host_is_a_usage_error(triangle, capsys, action):
    # without --nu the base is the greedy cover, and no bus is within the limit
    assert run(capsys, "submod", action, "--case", str(triangle), "--a-size", "1",
               "--b-size", "1", "--channel-limit", "1") == (
        2, "", "error: buses [1, 2, 3] cannot be observed by any host within the "
               "channel limit of 1\n")


def test_given_empty_nu_is_the_empty_base(capsys):
    # an empty --nu is given, so it is not replaced by the default base
    for nu in ("", ","):
        assert run(capsys, "submod", "count", "--nu", nu) == (0, "alpha = 182\n", "")
        code, out, _ = run(capsys, "plan", "greedy", "--nu", nu, "--stages", "2",
                           "--out", "json")
        assert code == 0
        assert json.loads(out)["base"] == []
    assert run(capsys, "submod", "count") == (0, "alpha = 90\n", "")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def _exact_pmu_score(case, buses):
    """README closed form br(Q) / (|Q| + br(Q)), correctly rounded."""
    q = set(buses)
    br = sum(1 for b in case.branches if b.from_bus in q or b.to_bus in q)
    return float(Fraction(br, len(q) + br))


def test_plan_and_audit_json_values_are_exact(capsys):
    case = load_case("ieee14")
    code, out, _ = run(capsys, "plan", "compare", "--stages", "10", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        budget = doc["base"] + row["budget_selected"]
        greedy = doc["base"] + row["greedy_selected"]
        assert row["budget_value"] == _exact_pmu_score(case, budget)
        assert row["greedy_value"] == _exact_pmu_score(case, greedy)
    code, out, _ = run(capsys, "submod", "audit", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["counterexamples"]) == 12
    for rec in doc["counterexamples"]:
        # the audit runs on the gain orientation, the negated score
        assert rec["f_a"] == -_exact_pmu_score(case, rec["a"])
        assert rec["f_a_s"] == -_exact_pmu_score(case, rec["a"] + [rec["s"]])
        assert rec["f_b"] == -_exact_pmu_score(case, rec["b"])
        assert rec["f_b_s"] == -_exact_pmu_score(case, rec["b"] + [rec["s"]])


def test_non_finite_case_values_are_usage_errors(tmp_path, capsys):
    text = bundled_case_text("ieee14")
    line = "\t1\t2\t0.01938\t0.05917"
    assert line in text
    bad = tmp_path / "nanline.m"
    bad.write_text(text.replace(line, "\t1\t2\tNaN\t0.05917"))
    lineno = 1 + next(i for i, l in enumerate(bad.read_text().splitlines()) if "NaN" in l)
    code, out, err = run(capsys, "plan", "greedy", "--stages", "2", "--case", str(bad))
    assert code == 2
    assert out == ""
    assert f"nanline:{lineno}: branch 1-2 has non-finite r=nan" in err

    doc = serialize_case(load_case("ieee14"))
    doc["buses"][3]["id"] = 2.7
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps(doc))
    code, out, err = run(capsys, "case", "info", "--case", str(fractional))
    assert code == 2
    assert "fractional: malformed bus entry 3: bus id must be an integer, got 2.7" in err


def test_nu_entries_must_be_integers(tmp_path, capsys):
    code, reference, _ = run(capsys, "plan", "greedy", "--stages", "2", "--nu", "2,6,7,9")
    assert code == 0
    good = {"good.json": "[2, 6, 7, 9]", "good.txt": "2 6\n7,9\n"}
    bad = {
        "frac.json": ("[2.7, 6, 7, 9]", "entry 0 must be an integer bus id, got 2.7"),
        "bool.json": ("[2, 6, true, 9]", "entry 2 must be an integer bus id, got true"),
        "str.json": ('[2, "6", 7, 9]', 'entry 1 must be an integer bus id, got "6"'),
        "word.txt": ("2 6 x 9", "token 3 must be an integer bus id, got 'x'"),
        "frac.txt": ("2,6,7,9.0", "token 4 must be an integer bus id, got '9.0'"),
    }
    for name, text in good.items():
        (tmp_path / name).write_text(text)
        code, out, _ = run(capsys, "plan", "greedy", "--stages", "2", "--nu", f"@{tmp_path / name}")
        assert (code, out) == (0, reference)
    for name, (text, message) in bad.items():
        (tmp_path / name).write_text(text)
        code, out, err = run(capsys, "plan", "greedy", "--stages", "2", "--nu", f"@{tmp_path / name}")
        assert (code, out) == (2, "")
        assert message in err
    code, _, err = run(capsys, "metrics", "--nu", "2,x")
    assert code == 2
    assert "token 2 must be an integer bus id, got 'x'" in err


@pytest.mark.parametrize(("raw", "k"), [("2,,6", 2), (",2", 1), ("2,", 2), ("2 6,,7", 3)])
def test_an_empty_nu_token_is_a_usage_error(tmp_path, capsys, raw, k):
    assert run(capsys, "plan", "greedy", "--stages", "1", "--nu", raw) == (
        2, "", f"error: --nu {raw}: token {k} must be an integer bus id, got ''\n")
    path = tmp_path / "nu.txt"
    path.write_text(raw + "\n")
    code, out, err = run(capsys, "plan", "greedy", "--stages", "1", "--nu", f"@{path}")
    assert (code, out) == (2, "")
    assert f"token {k} must be an integer bus id, got ''" in err


def test_nu_text_with_no_id_is_the_empty_base(tmp_path, capsys):
    empty = run(capsys, "plan", "greedy", "--stages", "1", "--nu", "")
    assert empty[0] == 0 and "base []" in empty[1]
    for raw in (" ", ",", " , ,"):
        assert run(capsys, "plan", "greedy", "--stages", "1", "--nu", raw) == empty
    path = tmp_path / "nu.txt"
    path.write_text("\n")
    assert run(capsys, "plan", "greedy", "--stages", "1", "--nu", f"@{path}") == empty


@pytest.mark.parametrize(
    "argv",
    [["plan", "greedy", "--stages", "2"], ["submod", "audit", "--parallel", "1"], ["metrics"]],
    ids=" ".join,
)
def test_a_repeated_nu_id_is_a_usage_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--nu", "2,2,6,7,9")
    assert (code, out, err) == (2, "", "error: --nu 2,2,6,7,9: token 2 repeats bus id 2\n")
    path = tmp_path / "nu.json"
    path.write_text("[2, 6, 7, 9, 6]")
    code, out, err = run(capsys, *argv, "--nu", f"@{path}")
    assert (code, out, err) == (2, "", f"error: --nu @{path}: entry 4 repeats bus id 6\n")


# inf would make every audit triple a tie and print a "tol" that is not JSON
@pytest.mark.parametrize("tol", ["nan", "-1e-9", "inf", "1e999"])
@pytest.mark.parametrize(
    "argv",
    [
        ["submod", "audit", "--parallel", "1"],
        ["plan", "greedy", "--stages", "2"],
        ["plan", "budget", "--stages", "2"],
        ["plan", "compare", "--stages", "2"],
    ],
    ids=" ".join,
)
def test_bad_tolerance_is_usage_error(capsys, argv, tol):
    code, out, err = run(capsys, *argv, f"--tol={tol}")
    assert (code, out, err) == (
        2, "", f"error: --tol must be nonnegative and finite, got {float(tol)!r}\n")


# the count flags and the bound each must keep, with the commands that take them
BOUNDED_COUNTS = [
    ("--enum-cap", "positive", ["0", "-3"],
     [["plan", "budget", "--stages", "2"], ["plan", "compare", "--stages", "2"]]),
    ("--channel-limit", "positive", ["0", "-1"],
     [["metrics", "--nu", "2,6,7,9"], ["plan", "greedy", "--stages", "2"],
      ["submod", "audit", "--parallel", "1"], ["submod", "count"]]),
    ("--parallel", "nonnegative", ["-1", "-8"], [["submod", "audit"]]),
]


@pytest.mark.parametrize("argv, flag, bound, value", [
    pytest.param(argv, flag, bound, value, id=" ".join([*argv, f"{flag}={value}"]))
    for flag, bound, values, commands in BOUNDED_COUNTS
    for argv in commands
    for value in values
])
def test_a_bad_count_names_its_flag_and_value(capsys, argv, flag, bound, value):
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert (code, out, err) == (2, "", f"error: {flag} must be {bound}, got {value}\n")


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def test_largest_finite_tolerance_prints_strict_json(capsys):
    code, out, _ = run(capsys, "submod", "audit", "--nu", "2,6,7,9", "--a-size", "12",
                       "--b-size", "13", "--parallel", "1", "--tol", repr(sys.float_info.max),
                       "--out", "json")
    assert code == 0
    assert json.loads(out, parse_constant=_not_json)["tol"] == sys.float_info.max


# only `metrics` takes the noise flags and validates them; the other commands
# reject them as flags they do not take
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--sigma-v", "--sigma-i"])
@pytest.mark.parametrize(
    "argv",
    [
        ["case", "info"],
        ["metrics", "--nu", "2,6,7,9"],
        ["plan", "greedy", "--stages", "2"],
        ["submod", "audit", "--parallel", "1"],
        ["knapsack", "demo"],
    ],
    ids=" ".join,
)
def test_bad_sigma_is_usage_error_on_every_command(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert (code, out) == (2, "")
    if argv[0] == "metrics":
        assert err == f"error: {flag} must be finite and positive, got {float(value)!r}\n"
    else:
        assert f"unrecognized arguments: {flag}={value}\n" in err


@pytest.mark.parametrize("value", ["1e300", "1.4e154", "1e-170", "1e-320"])
@pytest.mark.parametrize("flag", ["--sigma-v", "--sigma-i"])
def test_a_sigma_whose_square_is_no_variance_names_its_flag(capsys, flag, value):
    # finite and positive, but sigma * sigma overflows to inf or underflows to 0
    code, out, err = run(capsys, "metrics", "--nu", "2,6,7,9", flag, value)
    assert (code, out) == (2, "")
    assert err == (f"error: {flag} must square to a finite, positive variance, "
                   f"got {float(value)!r}\n")
    code, out, err = run(capsys, "metrics", "--nu", "2,6,7,9", flag, "1e150", "--out", "csv")
    assert (code, err) == (0, "")


# every leaf command and the flags it takes (besides -h)
LEAF_FLAGS = {
    "case info": "--case --format --out --output",
    "metrics": "--case --format --scope --dedupe --channel-limit --sigma-v --sigma-i "
               "--flat-branch-model --nu --out --output",
    "plan greedy": "--case --format --scope --dedupe --channel-limit --tol --nu --stages "
                   "--out --output",
    "plan budget": "--case --format --scope --dedupe --channel-limit --tol --nu --stages "
                   "--enum-cap --out --output",
    "plan compare": "--case --format --scope --dedupe --channel-limit --tol --nu --stages "
                    "--enum-cap --out --output",
    "submod audit": "--case --format --scope --dedupe --channel-limit --tol --parallel --nu "
                    "--a-size --b-size --counterexamples --out --output",
    "submod count": "--case --format --channel-limit --nu --a-size --b-size --out --output",
    "knapsack demo": "--values --weights --out --output",
}
# the flags every command took before each took only its own, with a valid value each
OLD_COMMON = {"--case": "ieee14", "--format": "json", "--scope": "full", "--dedupe": "per-end",
              "--sigma-v": "2", "--sigma-i": "2", "--tol": "0.1", "--enum-cap": "5",
              "--parallel": "1", "--out": "json", "--output": "-",
              "--flat-branch-model": None, "--channel-limit": "8"}
# the required flags of each leaf
REQUIRED = {"metrics": ["--nu", "2,6,7,9"], "plan": ["--stages", "2"]}


@pytest.mark.parametrize("leaf", LEAF_FLAGS)
def test_each_command_takes_only_its_flags(capsys, leaf):
    code, out, err = run(capsys, *leaf.split(), "--help")
    assert (code, err) == (0, "")
    assert sorted(re.findall(r"^  (--[a-z-]+)", out, re.M)) == sorted(LEAF_FLAGS[leaf].split())
    argv = [*leaf.split(), *REQUIRED.get(leaf.split()[0], [])]
    for flag, value in OLD_COMMON.items():
        if flag not in LEAF_FLAGS[leaf].split():
            code, out, err = run(capsys, *argv, flag, *([value] if value else []))
            assert (code, out) == (2, ""), flag
            assert "unrecognized arguments: " + flag in err


@pytest.mark.parametrize("values, weights", [("nan,1", "1,1"), ("1,1", "inf,1"),
                                             ("-inf,1", "1,1")])
def test_knapsack_non_finite_numbers_are_usage_errors(capsys, values, weights):
    code, out, err = run(capsys, "knapsack", "demo", f"--values={values}",
                         f"--weights={weights}")
    assert (code, out) == (2, "")
    assert err == "error: values and weights must be finite numbers\n"


@pytest.mark.parametrize("values, weights, message", [
    ("1e308,1e308", "1,1", "values must have a finite sum"),
    ("1,1", "1e308,1e308", "weights must have a finite sum"),
])
@pytest.mark.parametrize("out_format", ["md", "json"])
def test_knapsack_sums_past_the_float_range_are_usage_errors(capsys, values, weights, message,
                                                             out_format):
    code, out, err = run(capsys, "knapsack", "demo", f"--values={values}",
                         f"--weights={weights}", "--out", out_format)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_knapsack_json_of_the_largest_sums_is_strict(capsys):
    code, out, _ = run(capsys, "knapsack", "demo", "--values", "1e308,7e307",
                       "--weights", "8e307,9e307", "--out", "json")
    assert code == 0
    doc = json.loads(out, parse_constant=_not_json)
    assert doc["optimal"]["rows"][-1]["objective"] == 1e308 + 7e307


@pytest.mark.parametrize("flag, raw, message", [
    ("--values", "1,,2", "--values 1,,2: token 2 must be a number, got ''"),
    ("--weights", "1,2,x3", "--weights 1,2,x3: token 3 must be a number, got 'x3'"),
    ("--values", " ", "--values  : token 1 must be a number, got ' '"),
])
def test_knapsack_bad_number_names_flag_and_token(capsys, flag, raw, message):
    other = "--weights" if flag == "--values" else "--values"
    code, out, err = run(capsys, "knapsack", "demo", f"{flag}={raw}", other, "1,2,3")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--values="], "custom instances need both --values and --weights"),
    (["--weights="], "custom instances need both --values and --weights"),
    (["--values=", "--weights="], "--values : token 1 must be a number, got ''"),
])
def test_knapsack_empty_numbers_are_not_the_demo_instance(capsys, argv, message):
    code, out, err = run(capsys, "knapsack", "demo", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_negative_counterexample_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "submod", "audit", "--counterexamples=-1")
    assert (code, out) == (2, "")
    assert err == "error: --counterexamples must be nonnegative, got -1\n"


def test_knapsack_negative_value_names_the_item(capsys):
    code, out, err = run(capsys, "knapsack", "demo", "--values=-1,2", "--weights", "1,2")
    assert (code, out) == (2, "")
    assert err == "error: item x1 (index 0) has negative value -1; values must be nonnegative\n"


def test_removed_spellings_are_usage_errors(capsys):
    # `--scope pmu-state` duplicated `paper-compat`; `--count-only`, `submod count`
    code, out, err = run(capsys, "metrics", "--nu", "2,6,7,9", "--scope", "pmu-state")
    assert (code, out) == (2, "")
    assert "invalid choice" in err
    assert all(name in err for name in ("pmu-state", "full", "paper-compat"))
    code, out, err = run(capsys, "submod", "audit", "--count-only")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --count-only" in err


def test_unrecognised_metric_failure_is_internal_error(monkeypatch, capsys):
    # the planners score from the metric's scorer, so the failure goes
    # into a plain set function, which they call on every candidate
    def broken(*args, **kwargs):
        def metric(placement):
            raise RuntimeError("bug inside the metric")

        return metric

    monkeypatch.setattr(pmuplan.cli, "metric_function", broken)
    code, out, err = run(capsys, "plan", "greedy", "--stages", "2")
    assert (code, out) == (1, "")
    assert "metric failed at stage 1" in err
    code, out, err = run(capsys, "submod", "audit", "--parallel", "1")
    assert (code, out) == (1, "")
    assert "audit aborted after 0 triples" in err


# an error a command raises, its exit code bare, and its code as the cause of
# a planner's or the audit's wrapped metric failure; None: the bare error is
# a bug, which main lets through with its traceback
EXIT_CODES = [
    (UnobservableStateError, (2,), 3, 3),
    (EnumerationCapError, (11, 10, 2), 4, 4),
    (ItemLimitError, (30, 20), 4, 1),
    (ChannelLimitError, (49, 9, 8), 2, 2),
    (CaseFormatError, ("case:3: bad numeric row",), 2, 2),
    (ValueError, ("bad value",), 2, 1),
    (OSError, ("cannot read",), 2, 1),
    (RuntimeError, ("bug inside the metric",), None, 1),
]


@pytest.mark.parametrize("wrapper", ["bare", "planner", "audit"])
@pytest.mark.parametrize("cls, cls_args, bare_code, wrapped_code", EXIT_CODES,
                         ids=[row[0].__name__ for row in EXIT_CODES])
def test_each_error_exits_with_its_code_and_one_line(monkeypatch, capsys, wrapper, cls,
                                                     cls_args, bare_code, wrapped_code):
    cause = cls(*cls_args)
    wrapped = {
        "planner": CandidateEvaluationError(1, 5),
        "audit": AuditAbortedError(0, ClassificationTally(0, 0, 0, 0, ())),
    }

    def command(args):
        if wrapper == "bare":
            raise cause
        if wrapper == "planner":
            raise wrapped["planner"] from cause
        try:
            # the audit's chain holds the failed triple between the two
            raise MetricEvaluationError(SubsetTriple((2,), (2,), 5), frozenset((2, 5))) from cause
        except MetricEvaluationError as exc:
            raise wrapped["audit"] from exc

    monkeypatch.setattr(pmuplan.cli, "_cmd_case_info", command)
    if wrapper == "bare" and bare_code is None:
        with pytest.raises(cls):
            main(["case", "info"])
        return
    code, out, err = run(capsys, "case", "info")
    assert (code, out) == (bare_code if wrapper == "bare" else wrapped_code, "")
    assert err == f"error: {cause if wrapper == 'bare' else wrapped[wrapper]}\n"


def test_parallel_audit_failures_match_serial(monkeypatch, capsys):
    """A metric failing in a worker ends the audit with the serial run's
    stderr and exit code: progress lines, then the first failure in triple
    order with the processed count and partial tally of all shards before it."""

    def both(*argv):
        serial = run(capsys, *argv, "--parallel", "1")
        fanned = run(capsys, *argv, "--parallel", "2")
        assert fanned == serial
        return serial

    code, out, err = both("submod", "audit", "--scope", "full", "--nu", "1",
                          "--a-size", "1", "--b-size", "2")
    assert (code, out) == (3, "")
    assert err == ("error: audit aborted after 0 triples "
                   "(0 submodular / 0 supermodular / 0 ties so far)\n")

    # fails in the second of two shards (7560 triples, split at 3780)
    original = pmuplan.estimation.placement_metric
    bad = frozenset((2, 6, 7, 9, 5, 8))

    def flaky(case, placement, **kwargs):
        if placement.bus_set == bad:
            raise UnobservableStateError(2)
        return original(case, placement, **kwargs)

    monkeypatch.setattr(pmuplan.estimation, "placement_metric", flaky)
    code, out, err = both("submod", "audit", "--a-size", "6", "--b-size", "8")
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"audited {k}/7560" for k in range(500, 4001, 500)] + [
        "error: audit aborted after 4032 triples "
        "(3015 submodular / 1017 supermodular / 0 ties so far)"
    ]

    def broken(*args, **kwargs):
        raise RuntimeError("bug inside the metric")

    monkeypatch.setattr(pmuplan.estimation, "placement_metric", broken)
    code, out, err = both("submod", "audit")
    assert (code, out) == (1, "")
    assert err.startswith("error: audit aborted after 0 triples")


def test_parallel_audit_stderr_is_serial_plus_one_line(capsys):
    _, _, serial = run(capsys, "submod", "audit", "--parallel", "1")
    _, _, fanned = run(capsys, "submod", "audit", "--parallel", "2")
    assert fanned == serial + "audited 90 triples across 2 workers\n"


def test_parallel_audit_of_a_case_file_matches_serial(tmp_path, capsys):
    """Pool workers audit the case the parent parsed from the file."""
    path = tmp_path / "grid14.json"
    path.write_text(json.dumps(serialize_case(load_case("ieee14"))))
    for extra in ((), ("--a-size", "6", "--b-size", "8", "--out", "json")):
        argv = ("submod", "audit", "--case", str(path), *extra)
        code, serial_out, serial_err = run(capsys, *argv, "--parallel", "1")
        assert code == 0
        code, fanned_out, fanned_err = run(capsys, *argv, "--parallel", "2")
        assert code == 0
        assert fanned_out == serial_out
        alpha = json.loads(run(capsys, "submod", "count", "--case", str(path), *extra[:4],
                               "--out", "json")[1])["alpha"]
        assert fanned_err == serial_err + f"audited {alpha} triples across 2 workers\n"


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the CLI's pool by one that runs its shards in this process
    and records, per pool, its ``max_workers`` and the shards it ran."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append([max_workers, 0])

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                started[-1][1] += 1
                yield fn(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            pass

    monkeypatch.setattr(pmuplan.cli, "ProcessPoolExecutor", InProcessPool)
    return started


def test_parallel0_audits_serially_below_the_break_even(monkeypatch, capsys, in_process_pool):
    """``--parallel 0`` on the README audit (90 triples) starts no pool; at
    and above the break-even it asks for one worker per CPU. The upper side
    is checked on the same audit by moving the break-even to 90 triples and
    running the shards in this process, so no large audit runs and no
    process starts."""
    started = in_process_pool
    cli = pmuplan.cli
    assert cli._audit_workers(0, cli.AUTO_POOL_MIN_TRIPLES - 1) == 1
    for alpha in (cli.AUTO_POOL_MIN_TRIPLES, 10**9):
        assert cli._audit_workers(0, alpha) == (os.cpu_count() or 1)
    assert [cli._audit_workers(n, 10**9) for n in (1, 2, 3)] == [1, 2, 3]
    assert [cli._audit_workers(n, 90) for n in (1, 2, 3)] == [1, 2, 3]

    _, out, serial = run(capsys, "submod", "audit", "--parallel", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(capsys, "submod", "audit") == (0, out, serial)
    assert started == []
    monkeypatch.setattr(cli, "AUTO_POOL_MIN_TRIPLES", 90)
    assert run(capsys, "submod", "audit") == (
        0, out, serial + "audited 90 triples across 2 workers\n")
    assert started == [[2, 2]]


@pytest.mark.parametrize("cpus, processes", [(2, 2), (None, 1), (64, 11)])
def test_parallel_n_starts_at_most_one_process_per_cpu(monkeypatch, capsys, in_process_pool,
                                                        cpus, processes):
    """``--parallel 11`` on the README audit (90 triples, 8 or more per shard)
    keeps 11 shards, so its output and its ``across 11 workers`` line are
    those of an uncapped pool, but asks the pool for at most one process per
    CPU. Uncapped, ``--parallel 60000`` would ask for 60,000 processes on an
    audit large enough to shard that far."""
    _, out, serial = run(capsys, "submod", "audit", "--parallel", "1")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run(capsys, "submod", "audit", "--parallel", "11") == (
        0, out, serial + "audited 90 triples across 11 workers\n")
    assert in_process_pool == [[processes, 11]]


# Each README command in a fresh interpreter, reporting which of the modules
# a command may do without it loaded: the linear-algebra pipeline and numpy
# (only ``metrics``), the planner, the audit and the knapsack module (each
# loaded only by its own command) and the process pool (only a sharded audit).
_IMPORT_PROBE = """
import json, sys
from pmuplan.cli import main
code = main(sys.argv[1:])
heavy = ("pmuplan.linalg", "numpy", "pmuplan.planner", "pmuplan.submodularity",
         "pmuplan.knapsack", "concurrent.futures.process")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}),
      file=sys.stderr)
"""
_AUDIT = ["submod", "audit", "--case", "ieee14", "--nu", "2,6,7,9", "--a-size", "12",
          "--b-size", "13"]
_README_ROW = "| 2,6,7,9 | 36 | 8 | 8 | 0.2451 | 0.9971 | 28.0000 | 0.7778 |"
_PLANNER, _AUDITOR, _POOL = "pmuplan.planner", "pmuplan.submodularity", "concurrent.futures.process"


def _probe(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``argv`` in a fresh interpreter on this source tree."""
    src = Path(pmuplan.estimation.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    ("argv", "loaded"),
    [
        pytest.param(argv, loaded, id=" ".join(argv))
        for argv, loaded in [
            (["case", "info", "--case", "ieee14"], []),
            (["metrics", "--nu", "2,6,7,9"], ["pmuplan.linalg", "numpy"]),
            (["plan", "compare", "--nu", "2,6,7,9", "--stages", "10"], [_PLANNER]),
            (["plan", "greedy", "--nu", "2,6,7,9", "--stages", "4"], [_PLANNER]),
            (["plan", "budget", "--nu", "2,6,7,9", "--stages", "3"], [_PLANNER]),
            # --parallel 0: 90 triples are under the break-even, so no pool
            (_AUDIT, [_AUDITOR]),
            (_AUDIT + ["--parallel", "1"], [_AUDITOR]),
            (_AUDIT + ["--parallel", "2"], [_AUDITOR, _POOL]),
            (["submod", "count", "--case", "ieee118"], [_AUDITOR]),
            (["knapsack", "demo"], ["pmuplan.knapsack"]),
        ]
    ],
)
def test_only_metrics_loads_numpy(argv, loaded):
    proc = _probe(_IMPORT_PROBE, *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0
    assert report["loaded"] == loaded
    if argv[0] == "metrics":
        assert _README_ROW in proc.stdout.splitlines()


_BLAS_PROBE = """
import os, sys
if sys.argv[1] == "library":
    import pmuplan, pmuplan.linalg
else:
    from pmuplan.cli import main
    main(sys.argv[1:])
print(os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.parametrize(
    ("argv", "preset", "seen"),
    [
        (["metrics", "--nu", "2,6,7,9"], None, "1"),
        (["metrics", "--nu", "2,6,7,9"], "2", "2"),
        (["plan", "greedy", "--nu", "2,6,7,9", "--stages", "2"], None, "None"),
        (["library"], None, "None"),
    ],
    ids=["metrics", "metrics-preset", "plan", "library"],
)
def test_metrics_runs_one_blas_thread_unless_told(monkeypatch, argv, preset, seen):
    """``metrics`` sets OPENBLAS_NUM_THREADS to 1 before numpy loads, so its
    figures do not follow the CPU count, and keeps a count the caller set;
    no other command and no library import sets it."""
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    proc = _probe(_BLAS_PROBE, *argv)
    assert proc.stderr.splitlines()[-1] == seen


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["metrics", "--nu", "2,6,7,9", "--out", "json"], ["plan", "greedy", "--stages", "2"]],
    ids=" ".join,
)
def test_a_closed_stdout_is_a_usage_error(argv, unbuffered):
    """A reader that closes the pipe, as `| head -c 10` does, fails the
    write with EPIPE: one error line and exit 2, with no traceback from the
    write or from the flush at exit, whether stdout is buffered or not."""
    src = Path(pmuplan.estimation.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "pmuplan", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write to stdout: Broken pipe\n")


# the library set-up the benchmark times: a case and its set function
_LIBRARY_SETUP = ("import pmuplan\n"
                  "case = pmuplan.load_case('ieee14')\n"
                  "pmuplan.metric_function(case, channel_limit=8, gain=True)")


@pytest.mark.parametrize(
    ("code", "loaded"),
    [
        ("import pmuplan", ["pmuplan"]),
        ("import pmuplan.cli", ["pmuplan", "pmuplan.cases", "pmuplan.cli", "pmuplan.estimation",
                                "pmuplan.measurements", "pmuplan.network"]),
        (_LIBRARY_SETUP, ["pmuplan", "pmuplan.cases", "pmuplan.estimation",
                          "pmuplan.measurements", "pmuplan.network"]),
    ],
    ids=["pmuplan", "pmuplan.cli", "library set-up"],
)
def test_import_loads_no_command_module(code, loaded):
    proc = _probe(
        f"import json, sys\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('pmuplan') or m == 'numpy')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded
