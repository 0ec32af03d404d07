"""Tests of the benchmark itself: its oracle, its checks, its seeds, its tracer.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pmuplan import submodularity  # noqa: E402

CASES = ROOT / "src" / "pmuplan" / "cases"
NU = (2, 6, 7, 9)


@pytest.fixture(scope="module")
def grid14():
    return oracle.Grid(CASES / "ieee14.m")


def test_oracle_reproduces_documented_values(grid14):
    # README: metrics --nu 2,6,7,9 has m = 36, n = 8, average 0.7778
    assert grid14.score(NU) == Fraction(28, 36)
    exp = oracle.audit_expectation(grid14, NU, 12, 13)
    assert (exp.total, exp.submodular, exp.supermodular, exp.ties) == (90, 78, 12, 0)
    assert len(exp.prefix) == 12
    plan = oracle.plan_expectation(grid14, NU, 10)
    assert plan.greedy_order == (8, 1, 3, 4, 5, 10, 11, 12, 13, 14)


def test_oracle_reproduces_criterion_7_tally():
    grid = oracle.Grid(CASES / "ieee118.m")
    exp = oracle.audit_expectation(grid, workloads.COVER118, 116, 117)
    assert (exp.total, exp.submodular, exp.supermodular, exp.ties) == (6480, 6390, 90, 0)


class SmallAudit(workloads._Audit):
    name = "small-audit"
    case_name = "ieee14"
    pairs = ((12, 13),)

    def make_base(self):
        return NU


class SmallPlan(workloads.Plan118):
    name = "small-plan"
    case_name = "ieee14"
    channel_limit = 8
    stages = 3

    def make_base(self):
        return NU


def test_perturbed_audit_output_is_caught():
    w = SmallAudit(ROOT, 0)
    w.prepare()
    [sample] = w.run_pass()
    key, tally = sample.key, sample.result
    assert w.check(key, tally) == []
    shifted = dataclasses.replace(tally, submodular=tally.submodular - 1, ties=tally.ties + 1)
    assert any("tally" in e for e in w.check(key, shifted))
    reordered = dataclasses.replace(tally, counterexamples=tally.counterexamples[::-1])
    assert any("prefix" in e for e in w.check(key, reordered))
    record = tally.counterexamples[0]
    off = dataclasses.replace(record, f_a=record.f_a + 1e-9)
    moved = dataclasses.replace(tally, counterexamples=(off,) + tally.counterexamples[1:])
    assert any("values" in e for e in w.check(key, moved))
    assert w.check(key, RuntimeError("boom")) == [f"{key}: raised RuntimeError: boom"]


def test_perturbed_plan_output_is_caught():
    w = SmallPlan(ROOT, 0)
    w.prepare()
    [sample] = w.run_pass()
    key, plan = sample.key, sample.result
    assert w.check(key, plan) == []
    swapped = dataclasses.replace(plan, greedy_order=plan.greedy_order[::-1])
    assert any("greedy order" in e for e in w.check(key, swapped))
    row = plan.rows[-1]
    other = tuple(sorted(set(w.grid.bus_ids) - set(NU)))[: len(row.budget.selected)]
    worse = dataclasses.replace(row, budget=dataclasses.replace(row.budget, selected=other))
    changed = dataclasses.replace(plan, rows=plan.rows[:-1] + (worse,))
    assert any("budget sets" in e for e in w.check(key, changed))


def test_cli_checks_catch_wrong_lines_and_drift():
    w = workloads.ReadmeCli(ROOT, 0)

    def proc(stdout, code=0):
        return subprocess.CompletedProcess([], code, stdout=stdout, stderr="")

    good = "90 triples: 78 submodular, 12 supermodular, 0 ties\nalpha = 90; audited = 90\n"
    assert w.check("audit-parallel0", proc(good)) == []
    assert w.check("audit-parallel1", proc(good)) == []
    wrong = good.replace("78 submodular, 12", "77 submodular, 13")
    assert any("README line" in e for e in w.check("audit-parallel0", proc(wrong)))
    assert any("first pass" in e for e in w.check("audit-parallel0", proc(good + " ")))
    assert any("exit 3" in e for e in w.check("count", proc("", code=3)))


def test_cli_command_reports_the_host_speed_from_its_own_interpreter():
    w = workloads.ReadmeCli(ROOT, 0)
    key, argv, _ = workloads.README_COMMANDS[1]  # metrics, a short command
    sample = w._command(key, argv)
    assert w.check(key, sample.result) == []
    assert sample.slowdown > 0
    assert 0 < sample.latency
    assert not any(w.report_dir.iterdir())  # the report is consumed


def test_two_seeds_give_identical_operation_counts():
    for cls in workloads.WORKLOADS.values():
        first, second = cls(ROOT, 1), cls(ROOT, 2)
        assert first.counts == second.counts, cls.name
        assert first.work_per_pass == second.work_per_pass, cls.name
        if hasattr(first, "base"):
            assert first.base != second.base, cls.name


def test_tracer_spans_and_restores():
    original = submodularity.audit
    w = SmallAudit(ROOT, 0)
    tracer = tracing.Tracer()
    tracer.install()
    w.tracer = tracer
    try:
        w.prepare()
        w.run_pass()
    finally:
        tracer.uninstall()
    assert submodularity.audit is original
    summary = tracing.summarize(tracer.export())
    assert summary["submodularity.audit"]["calls"] == 1
    assert summary["submodularity.audit"]["note"] == 90
    unique = w.counts["unique_placements"]
    assert summary["estimation.metric"]["under"]["submodularity.audit"][0] == unique
    assert summary["estimation.placement_metric"]["calls"] == unique
    assert summary["cases.load_case"]["calls"] == 1
    row = summary["submodularity.audit"]
    assert 0 < row["self_ns"] <= row["busy_ns"]


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit118", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
