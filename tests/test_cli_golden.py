"""The CLI pinned byte for byte: exit code, stdout and stderr of a fixed set
of commands against ``tests/golden/cli.json``.

The set covers the README block in every output format plus its variants
(full scope, per-end, the noise and branch-model flags of ``metrics``,
ieee118, a serial and a sharded audit, a three-stage ieee118 comparison whose
exhaustive stages walk thousands of prefixes) and the exit 2, 3 and 4 paths.
Most audits pin ``--parallel``: ``--parallel 2`` shards and names its worker
count on stderr. Every pinned audit is below ``AUTO_POOL_MIN_TRIPLES``, so the
default, ``--parallel 0``, runs it serially. argparse's own errors stay out:
their wording moves between Python versions.

To regenerate after a deliberate change of output, from the repo root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import pmuplan.cli
from pmuplan.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

_AUDIT = "submod audit --case ieee14 --nu 2,6,7,9 --a-size 12 --b-size 13"
_README = [
    "case info --case ieee14",
    "metrics --nu 2,6,7,9",
    "plan compare --nu 2,6,7,9 --stages 10",
    "plan greedy --nu 2,6,7,9 --stages 4",
    "plan budget --nu 2,6,7,9 --stages 3",
    _AUDIT + " --parallel 2",
    "submod count --case ieee118",
    "knapsack demo",
]
COMMANDS = [
    *(f"{cmd} --out {out}" for out in ("md", "json", "csv") for cmd in _README),
    # variants
    "metrics --nu 2,6,7,9 --scope full",
    "metrics --nu 2,6,7,9 --dedupe per-end --out csv",
    "metrics --nu 2,6,7,9 --sigma-v 0.5 --sigma-i 2 --flat-branch-model",
    "metrics --nu 2,6,7,9,10,14 --sigma-v 0.5 --flat-branch-model --out json",
    "metrics --case ieee118 --nu 3,12,49,80 --channel-limit 16 --out json",
    "plan compare --nu 2,6,7,9 --stages 10 --scope full",
    "plan compare --nu 2,6,7,9 --stages 10 --dedupe per-end --out csv",
    # stage 3's exhaustive pick lies inside the tie band, above greedy's value
    "plan compare --nu 1,2,3,4,7,8,10,11 --stages 3 --dedupe per-end --tol 0.01",
    "plan greedy --stages 3",
    "plan greedy --case ieee118 --channel-limit 16 --stages 5 --out json",
    "plan compare --case ieee118 --channel-limit 16 --stages 2",
    "plan compare --case ieee118 --channel-limit 16 --stages 3 --out json",
    # the same 85,320 stage-3 subsets under each dedupe policy and scope
    "plan compare --case ieee118 --channel-limit 16 --stages 3",
    "plan compare --case ieee118 --channel-limit 16 --stages 3 --dedupe per-end",
    "plan compare --case ieee118 --channel-limit 16 --stages 3 --scope full",
    "plan budget --stages 2 --scope full --out json",
    _AUDIT + " --parallel 1",
    _AUDIT + " --parallel 1 --out json --counterexamples 3",
    _AUDIT + " --parallel 1 --scope full",
    _AUDIT + " --parallel 2 --dedupe per-end",
    "submod audit --a-size 6 --b-size 8 --parallel 1",
    "submod audit --a-size 6 --b-size 8 --parallel 2 --out csv",
    "submod audit --case ieee118 --channel-limit 16 --parallel 1",
    "submod audit --case ieee118 --channel-limit 16 --parallel 2 --out json --counterexamples 2",
    # near-full placements counted from the buses outside them: the closed
    # masks in full scope, and the end masks per end
    "submod audit --case ieee118 --channel-limit 16 --scope full --out json --counterexamples 3",
    "submod audit --case ieee118 --channel-limit 16 --dedupe per-end --out json --counterexamples 3",
    "submod count --case ieee14 --a-size 5 --b-size 7 --out json",
    "knapsack demo --values 3,1,4 --weights 2,1,3",
    # exit 2
    "submod audit --case ieee118 --parallel 1",
    "submod audit --a-size 13 --b-size 12",
    "metrics --nu 2,99",
    "metrics --nu 2,x",
    "metrics --nu 2,6,7,9 --sigma-v 0",
    "plan greedy --nu 2,6,7,9 --stages 99",
    "case info --case nosuch.m",
    "knapsack demo --values 1,2",
    # exit 3
    "metrics --nu 5 --scope full",
    "submod audit --scope full --nu 1 --a-size 1 --b-size 2 --parallel 1",
    "submod audit --scope full --nu 1 --a-size 1 --b-size 2 --parallel 2",
    # aborts after 714 of 990 triples: the partial tally, past a progress
    # line and across shards
    "submod audit --scope full --nu 6,7,9 --a-size 11 --b-size 12 --parallel 1",
    "submod audit --scope full --nu 6,7,9 --a-size 11 --b-size 12 --parallel 2",
    # exit 4
    "plan budget --nu 2,6,7,9 --stages 3 --enum-cap 10",
    "plan compare --case ieee118 --channel-limit 16 --stages 4 --enum-cap 1000",
    "knapsack demo --values " + ",".join(["1"] * 26) + " --weights " + ",".join(["1"] * 26),
]


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command.split())
    return {"command": command, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {entry["command"]: entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_command(golden):
    assert list(golden) == COMMANDS


def _reject(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_byte_identical(golden, command):
    result = run(command)
    assert result == golden[command]
    if "--out json" in command and result["exit"] == 0:
        json.loads(result["stdout"], parse_constant=_reject)  # no NaN or Infinity


@pytest.mark.parametrize("command", ["knapsack demo --out md",
                                     "knapsack demo --values 3,1,4 --weights 2,1,3"])
def test_knapsack_demo_reads_no_case(golden, monkeypatch, command):
    def load_case(args):
        raise AssertionError("knapsack demo read a case")

    monkeypatch.setattr(pmuplan.cli, "_load_case", load_case)
    assert run(command) == golden[command]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(c) for c in COMMANDS], indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {GOLDEN}", file=sys.stderr)
