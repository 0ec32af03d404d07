"""The benchmark's workloads: seeded inputs, one timed pass, and output checks.

Every workload runs its operations from one process, one at a time (a
closed loop with one client). Sizes are fixed, so the operation counts of a
pass do not depend on the seed; the seed only chooses which buses form the
protected base (or, for ``readme-cli``, the command order).

Library workloads call pmuplan through module attributes looked up at call
time (``submodularity.audit``, ``estimation.metric_function``), so the
traced run sees every call. Each pass builds a fresh ``metric_function``:
its memo never carries over from the warm-up or an earlier pass.

Every operation and every set-up is bracketed by two runs of the host-speed
probe (``hostspeed.py``) in the process that does the work; the runner
divides each latency by the slowdown the probes measured (see NOTES.md).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

import hostspeed
import oracle
from pmuplan import cases, estimation, planner, submodularity

HERE = Path(__file__).resolve().parent

# Greedy observable cover of ieee118 at the stock channel limit of 8, which
# is what `pmuplan submod` and `pmuplan plan` fall back to without --nu.
# Fixed here so the inputs do not depend on the code under test.
COVER118 = (1, 5, 9, 11, 12, 17, 20, 23, 25, 27, 28, 32, 34, 37, 40, 44, 46, 50,
            51, 52, 59, 61, 66, 68, 69, 71, 75, 77, 80, 85, 86, 89, 92, 94, 100,
            105, 110)

# Slack for a float the program reports against its exact value.
VALUE_TOL = 1e-12


class Sample(NamedTuple):
    """One timed operation."""

    latency: float  # wall time of the operation, in seconds
    slowdown: float  # mean of the probe runs just before and just after it
    key: Any
    result: Any  # the operation's return value, or the exception it raised


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _setup_code(body: str) -> str:
    """A set-up child: times ``body`` between two probes and prints the time
    and the mean slowdown."""
    return (
        "import sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from hostspeed import probe\n"
        "before = probe()\n"
        "t0 = time.perf_counter()\n"
        f"{body}"
        "elapsed = time.perf_counter() - t0\n"
        "print(elapsed, (before + probe()) / 2)\n"
    )


class Workload:
    name = ""
    why = ""
    unit = ""  # what ``work_per_pass`` counts
    # the host-speed probe whose mix of work is closest to the operations'
    probe = staticmethod(hostspeed.probe)

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.tracer = None
        self.child_spans: list[dict] = []  # traced spans handed back by child processes
        self.env = _child_env(root)

    def setup_once(self) -> tuple[float, float]:
        """Set-up time measured inside a fresh interpreter, in seconds, and
        the slowdown around it there."""
        proc = subprocess.run([sys.executable, "-c", self.setup_code], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120,
                              check=True)
        elapsed, slowdown = proc.stdout.split()[-2:]
        return float(elapsed), float(slowdown)

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def _timed(self, key, fn, *args, **kwargs) -> Sample:
        """Run one operation in this process between two probes."""
        self._next_op()
        before = self.probe()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        latency = time.perf_counter() - t0
        return Sample(latency, (before + self.probe()) / 2, key, result)

    def check(self, key, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"{key}: raised {type(result).__name__}: {result}"]
        return self._check(key, result)


class _Library(Workload):
    case_name = ""
    channel_limit = 8
    gain_arg = ""

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.grid = oracle.Grid(root / "src" / "pmuplan" / "cases" / f"{self.case_name}.m")

    @property
    def setup_code(self) -> str:
        return _setup_code(
            "import pmuplan\n"
            f"case = pmuplan.load_case({self.case_name!r})\n"
            f"pmuplan.metric_function(case, channel_limit={self.channel_limit}{self.gain_arg})\n"
        )

    def prepare(self) -> None:
        """Load the case in this process."""
        self._next_op()
        self.case = cases.load_case(self.case_name)


class _Audit(_Library):
    unit = "triples"
    gain_arg = ", gain=True"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.base = self.make_base()
        seen: set = set()
        self.expected = {
            (a, b): oracle.audit_expectation(self.grid, self.base, a, b, seen=seen)
            for a, b in self.pairs
        }
        self.work_per_pass = sum(e.total for e in self.expected.values())
        self.counts = {
            "audit_calls": len(self.pairs),
            "triples": self.work_per_pass,
            "unique_placements": len(seen),
            "base_size": len(self.base),
        }

    def metric(self):
        return estimation.metric_function(self.case, channel_limit=self.channel_limit, gain=True)

    def warm_up(self) -> None:
        a, b = self.pairs[-1]
        submodularity.audit(self.case, self.metric(), self.base, a, b, stop=4)

    def run_pass(self) -> list:
        metric = self.metric()
        return [self._timed((a, b), submodularity.audit, self.case, metric, self.base, a, b)
                for a, b in self.pairs]

    def _check(self, key, tally) -> list[str]:
        exp = self.expected[key]
        errors = []
        got = (tally.total, tally.submodular, tally.supermodular, tally.ties)
        want = (exp.total, exp.submodular, exp.supermodular, exp.ties)
        if got != want:
            errors.append(f"audit {key}: tally {got}, expected {want}")
        got_prefix = [(r.triple.a, r.triple.b, r.triple.s) for r in tally.counterexamples]
        want_prefix = [(c.a, c.b, c.s) for c in exp.prefix]
        if got_prefix != want_prefix:
            errors.append(f"audit {key}: counterexample prefix differs from the exact one")
        else:
            for rec, cex in zip(tally.counterexamples, exp.prefix):
                got_values = (rec.f_a, rec.f_a_s, rec.f_b, rec.f_b_s)
                if any(abs(g - w) > VALUE_TOL for g, w in zip(got_values, cex.values)):
                    errors.append(f"audit {key}: counterexample {cex.a[-3:]}.., s={cex.s} "
                                  f"values {got_values} differ from exact {cex.values}")
                    break
        return errors


class Audit118(_Audit):
    name = "audit118"
    why = ("ieee118 audit at |A|=116, |B|=117 over a seeded 114-bus base: large placements, "
           "time goes to the score layer (SVD), enumeration is negligible")
    case_name = "ieee118"
    channel_limit = 16
    pairs = ((116, 117),)
    # 4 free buses: 12 triples and 11 placements, a pass of about 0.3 s, so
    # that the host's speed barely changes within one and a run holds dozens.
    base_size = 114
    probe = staticmethod(hostspeed.probe_with_svd)

    def make_base(self) -> tuple[int, ...]:
        rest = [b for b in self.grid.bus_ids if b not in COVER118]
        extra = self.rng.sample(rest, self.base_size - len(COVER118))
        return tuple(sorted(COVER118 + tuple(extra)))


class Audit14Sweep(_Audit):
    name = "audit14-sweep"
    why = ("ieee14 audit of all 55 (|A|,|B|) pairs over a seeded 4-bus base with one shared "
           "metric: triple enumeration and caching dominate, scoring is cheap")
    case_name = "ieee14"
    pairs = tuple((a, b) for a in range(4, 14) for b in range(a, 14))

    def make_base(self) -> tuple[int, ...]:
        return tuple(sorted(self.rng.sample(self.grid.bus_ids, 4)))

    def warm_up(self) -> None:
        submodularity.audit(self.case, self.metric(), self.base, 12, 13)


class Plan118(_Library):
    name = "plan118"
    why = ("ieee118 greedy vs exhaustive 1-stage plan over a seeded 37-bus base: 81 "
           "mid-size placements, channel listing and Jacobian weigh more than in audit118")
    unit = "candidates"
    case_name = "ieee118"
    channel_limit = 16
    # One stage: 162 candidates, 81 of them memo hits, about 0.4 s a pass.
    # Two stages (3482 candidates) take 15-20 s, too long for the host's
    # speed to hold still during one operation.
    stages = 1

    # The base touches exactly this many of ieee118's 186 branches (the most
    # common count for 37 random buses). Then every pass builds matrices of the
    # same sizes whatever the seed: a candidate's row count depends only on the
    # branches the base leaves uncovered, and both their ends are free buses.
    base_branches = 100

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.base = self.make_base()
        self.expected = oracle.plan_expectation(self.grid, self.base, self.stages)
        self.work_per_pass = self.expected.candidates
        self.counts = {
            "plan_calls": 1,
            "candidates": self.expected.candidates,
            "unique_placements": self.expected.unique_placements,
            "base_size": len(self.base),
        }

    def make_base(self) -> tuple[int, ...]:
        while True:
            base = self.rng.sample(self.grid.bus_ids, 37)
            if self.grid.incidence(base).bit_count() == self.base_branches:
                return tuple(sorted(base))

    def metric(self):
        return estimation.metric_function(self.case, channel_limit=self.channel_limit)

    def warm_up(self) -> None:
        planner.greedy_plan(self.case, self.base, self.metric(), 1)

    def run_pass(self) -> list:
        return [self._timed("compare_plans", planner.compare_plans, self.case, self.base,
                            self.metric(), stages=self.stages)]

    def _check(self, key, plan) -> list[str]:
        exp = self.expected
        errors = []
        if tuple(plan.greedy_order) != exp.greedy_order:
            errors.append(f"greedy order {plan.greedy_order}, expected {exp.greedy_order}")
        budget_sets = tuple(tuple(r.budget.selected) for r in plan.rows)
        if budget_sets != exp.budget_sets:
            errors.append(f"budget sets {budget_sets}, expected {exp.budget_sets}")
        values = [r.greedy.metric_value for r in plan.rows]
        values += [r.budget.metric_value for r in plan.rows]
        want = [float(v) for v in exp.greedy_values + exp.budget_values]
        if len(values) != len(want) or any(abs(g - w) > VALUE_TOL for g, w in zip(values, want)):
            errors.append(f"stage values {values} differ from exact {want}")
        return errors


AUDIT_ARGS = ["submod", "audit", "--case", "ieee14", "--nu", "2,6,7,9", "--a-size", "12", "--b-size", "13"]
AUDIT_LINE = "90 triples: 78 submodular, 12 supermodular, 0 ties"

# The README's command block; each entry is (key, argv, lines stdout must hold).
README_COMMANDS = (
    ("case-info", ["case", "info", "--case", "ieee14"], []),
    ("metrics", ["metrics", "--nu", "2,6,7,9"],
     ["| 2,6,7,9 | 36 | 8 | 8 | 0.2451 | 0.9971 | 28.0000 | 0.7778 |"]),
    ("plan-compare", ["plan", "compare", "--nu", "2,6,7,9", "--stages", "10"], []),
    ("plan-greedy", ["plan", "greedy", "--nu", "2,6,7,9", "--stages", "4"], []),
    ("plan-budget", ["plan", "budget", "--nu", "2,6,7,9", "--stages", "3"], []),
    # as written: --parallel 0 means one worker per CPU
    ("audit-parallel0", AUDIT_ARGS, [AUDIT_LINE]),
    ("audit-parallel1", AUDIT_ARGS + ["--parallel", "1"], [AUDIT_LINE]),
    ("count", ["submod", "count", "--case", "ieee118"], ["alpha = 6480"]),
    ("knapsack", ["knapsack", "demo"], []),
)
README_LINES = {key: lines for key, _, lines in README_COMMANDS}


class ReadmeCli(Workload):
    name = "readme-cli"
    why = ("the README commands as pmuplan CLI processes, one at a time: interpreter "
           "start, argparse, rendering, the process pool and knapsack")
    unit = "commands"
    setup_code = _setup_code("import pmuplan.cli\n")

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.work_per_pass = len(README_COMMANDS)
        self.counts = {"commands": len(README_COMMANDS), "audit_triples": 2 * 90}
        self.first_stdout: dict[str, str] = {}
        self.report_dir = root / "perfbench" / "out" / "child-reports"

    def prepare(self) -> None:
        """Each command loads its own case; nothing to do in this process."""

    def _command(self, key, argv: list[str]) -> Sample:
        """Run one command in a fresh interpreter through ``cli_child.py``,
        which probes the host there; its probes' own time is not counted."""
        self._next_op()
        op = self.tracer.op if self.tracer is not None else 0
        self.report_dir.mkdir(parents=True, exist_ok=True)
        report = self.report_dir / f"op{op}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(report), str(op),
               "1" if self.tracer is not None else "0", *argv]
        t0 = time.perf_counter()
        try:
            result = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                    text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:  # counted by the check
            result = exc
        latency = time.perf_counter() - t0
        child = self._take_report(report)
        if self.tracer is not None:
            self.child_spans.append(child)
        return Sample(latency - child["probe_s"], child["slowdown"], key, result)

    @staticmethod
    def _take_report(path: Path) -> dict:
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):  # the child died early
            return {"slowdown": 1.0, "probe_s": 0.0, "import_s": None, "names": [], "spans": []}
        finally:
            path.unlink(missing_ok=True)

    def warm_up(self) -> None:
        self._command("warm-up", AUDIT_ARGS)

    def run_pass(self) -> list:
        order = list(README_COMMANDS)
        self.rng.shuffle(order)
        return [self._command(key, argv) for key, argv, _ in order]

    def _check(self, key, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"{key}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        errors = []
        lines = proc.stdout.splitlines()
        for want in README_LINES[key]:
            if want not in lines:
                errors.append(f"{key}: stdout lacks the README line {want!r}")
        first = self.first_stdout.setdefault(key, proc.stdout)
        if proc.stdout != first:
            errors.append(f"{key}: stdout differs from this run's first pass")
        other = {"audit-parallel0": "audit-parallel1", "audit-parallel1": "audit-parallel0"}.get(key)
        if other in self.first_stdout and self.first_stdout[other] != proc.stdout:
            errors.append(f"{key}: stdout differs between --parallel 0 and --parallel 1")
        return errors


WORKLOADS = {w.name: w for w in (Audit118, Audit14Sweep, Plan118, ReadmeCli)}
