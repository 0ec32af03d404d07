import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pmuplan.estimation
from pmuplan.cases import bundled_case_text, load_case
from pmuplan.cli import main
from pmuplan.estimation import UnobservableStateError
from pmuplan.network import serialize_case
from pmuplan.submodularity import count_combinations


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


def test_submod_size_ordering_is_usage_error(capsys):
    code, _, err = run(capsys, "submod", "audit", "--a-size", "13", "--b-size", "12")
    assert code == 2
    assert "size ordering" in err


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


def test_output_file_emission(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "metrics", "--nu", "2,6,7,9", "--out", "json", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "metrics/1"


def test_json_case_round_trips_through_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "case", "info", "--case", "ieee14", "--out", "json")
    doc = json.loads(out)
    assert doc["schema"] == "case-info/1"
    # byte determinism: the same invocation twice
    code, again, _ = run(capsys, "case", "info", "--case", "ieee14", "--out", "json")
    assert again == out


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


def test_unrecognised_metric_failure_is_internal_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("bug inside the metric")

    monkeypatch.setattr(pmuplan.estimation, "placement_metric", broken)
    code, out, err = run(capsys, "plan", "greedy", "--stages", "2")
    assert (code, out) == (1, "")
    assert "metric failed at stage 1" in err
    code, out, err = run(capsys, "submod", "audit", "--parallel", "1")
    assert (code, out) == (1, "")
    assert "audit aborted after 0 triples" in err


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


# Each README command in a fresh interpreter, reporting which of the two
# heavy modules it loaded: numpy (only ``metrics`` needs it) and the process
# pool (only a sharded audit needs it).
_IMPORT_PROBE = """
import json, sys
from pmuplan.cli import main
code = main(sys.argv[1:])
heavy = ("numpy", "concurrent.futures.process")
print(json.dumps({"code": code, "loaded": [m for m in heavy if m in sys.modules]}),
      file=sys.stderr)
"""
_AUDIT = ["submod", "audit", "--case", "ieee14", "--nu", "2,6,7,9", "--a-size", "12",
          "--b-size", "13"]
_README_ROW = "| 2,6,7,9 | 36 | 8 | 8 | 0.2451 | 0.9971 | 28.0000 | 0.7778 |"


@pytest.mark.parametrize(
    "argv",
    [
        ["case", "info", "--case", "ieee14"],
        ["metrics", "--nu", "2,6,7,9"],
        ["plan", "compare", "--nu", "2,6,7,9", "--stages", "10"],
        ["plan", "greedy", "--nu", "2,6,7,9", "--stages", "4"],
        ["plan", "budget", "--nu", "2,6,7,9", "--stages", "3"],
        _AUDIT,  # --parallel 0: one worker per CPU, serial on a one-CPU host
        _AUDIT + ["--parallel", "1"],
        _AUDIT + ["--parallel", "2"],
        ["submod", "count", "--case", "ieee118"],
        ["knapsack", "demo"],
    ],
    ids=" ".join,
)
def test_only_metrics_loads_numpy(argv):
    src = Path(pmuplan.estimation.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0
    if argv[0] == "metrics":
        assert "numpy" in report["loaded"]
        assert _README_ROW in proc.stdout.splitlines()
    else:
        assert "numpy" not in report["loaded"]
    if argv[-2:] == ["--parallel", "2"]:
        assert "concurrent.futures.process" in report["loaded"]
    elif argv is not _AUDIT:
        assert "concurrent.futures.process" not in report["loaded"]
