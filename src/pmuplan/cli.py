"""Command-line front end for the placement toolkit.

Subcommands: ``case info``, ``metrics``, ``plan greedy|budget|compare``,
``submod audit|count``, ``knapsack demo``. Results render as markdown
tables by default, or as versioned JSON / CSV via ``--out``. All heavy
fan-out (the parallel audit) lives here; library modules stay serial.

A command imports the linear-algebra pipeline, the planner, the audit or
the knapsack module when it runs, so a process loads only the modules its
command uses, and the parser builds the flags of that command alone.

Exit codes: 0 success, 1 internal error (a metric failed for a reason
none of the others names), 2 usage/parse/validation or an output that
cannot be written (stdout closed by its reader included), 3 numerical
infeasibility, 4 combinatorial cap.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .cases import BUNDLED, load_case
from .estimation import StateScope, UnobservableStateError, metric_function
from .measurements import (
    DEFAULT_CHANNEL_LIMIT,
    ChannelLimitError,
    PmuPlacement,
    _busiest_over_limit,
    greedy_observable_cover,
)
from .network import (
    CaseFormatError, NetworkCase, _require_buses, _require_sigma, _require_tol, parse_case,
)

if TYPE_CHECKING:
    from .knapsack import KnapsackInstance
    from .submodularity import ClassificationTally

__all__ = ["main"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_COMBINATORIAL = 4

# Under --parallel 0 an audit of fewer triples than this runs serially: on
# ieee118 audits timed on a 2-vCPU host, serial and --parallel 2 ran level
# from about 33,000 to 47,000 triples and the pool won from 50,616 on.
AUTO_POOL_MIN_TRIPLES = 45_000

# observable core of the bundled ieee14 case, its default base when --nu is omitted
FALLBACK_NU = (2, 6, 7, 9)

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _load_case(args) -> NetworkCase:
    """The case ``--case`` names, read in the ``--format`` given or inferred."""
    if args.case in BUNDLED:
        return load_case(args.case)
    path = Path(args.case)
    if not path.is_file():
        raise ValueError(f"case file not found: {args.case}")
    fmt = args.format
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "matpower-subset"
    return parse_case(path.read_text(), format=fmt, name=path.stem)


def _parse_nu(raw: str) -> list[int]:
    """Bus ids from ``--nu``: comma/whitespace separated text, or ``@file``
    holding a JSON list or such text. Every entry must be an integer and
    no bus id may repeat; the first entry that breaks either rule is named
    by its JSON index (from 0) or its token number (from 1). A blank
    comma-separated field is an empty token, which fails, but text that
    holds no id at all, such as ``""`` or ``","``, is the empty base."""
    text = raw
    if raw.startswith("@"):
        text = Path(raw[1:]).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, list):
            for i, entry in enumerate(data):
                if type(entry) is not int:
                    raise ValueError(
                        f"--nu {raw}: entry {i} must be an integer bus id, "
                        f"got {json.dumps(entry)}"
                    )
            return _distinct(raw, "entry", data, first=0)
    tokens = [token for field in text.split(",") for token in field.split() or [""]]
    if not any(tokens):
        tokens = []
    for k, token in enumerate(tokens, start=1):
        if not _INTEGER.fullmatch(token):
            raise ValueError(
                f"--nu {raw}: token {k} must be an integer bus id, got {token!r}"
            )
    return _distinct(raw, "token", [int(token) for token in tokens], first=1)


def _distinct(raw: str, label: str, buses: list[int], first: int) -> list[int]:
    """``buses`` if no id repeats; else the first repeat, named by its
    position counted from ``first``, fails."""
    seen: set[int] = set()
    for k, bus in enumerate(buses, start=first):
        if bus in seen:
            raise ValueError(f"--nu {raw}: {label} {k} repeats bus id {bus}")
        seen.add(bus)
    return buses


def _resolve_nu(args, case: NetworkCase) -> list[int]:
    """Explicit --nu wins; otherwise the bundled ieee14 case's core, else a
    greedy cover.

    Host selection for the default cover respects the stock device limit
    even when --channel-limit is raised: a higher evaluation limit widens
    what the metric may score, not which buses make sensible hosts.
    """
    if args.nu is not None:
        return sorted(_require_buses(case, _parse_nu(args.nu), "nu"))
    if args.case == "ieee14":
        return list(FALLBACK_NU)
    host_limit = min(args.channel_limit, DEFAULT_CHANNEL_LIMIT)
    return list(greedy_observable_cover(case, channel_limit=host_limit).buses)


def _check_range(flag: str, value: int, lo: int, hi: int, bounds: str) -> None:
    """``value`` of ``flag`` lies in ``lo..hi``, the ``bounds`` the message names.

    Every range is empty only when the base holds every bus of the case,
    and the message says so rather than print the empty range.
    """
    if lo > hi:
        raise ValueError(f"{flag} has no valid value, got {value}: the base "
                         f"leaves no bus outside it")
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must be in {lo}..{hi} ({bounds}), got {value}")


def _require_hostable_case(case: NetworkCase, channel_limit: int, what: str) -> None:
    """Planning and auditing evaluate placements over arbitrary buses."""
    worst = _busiest_over_limit(case, channel_limit)
    if worst is not None:
        incident = case.incidence[worst][1]
        raise ValueError(
            f"{what} evaluates placements on every bus, but bus {worst} has "
            f"{incident} incident branches, over the channel limit of "
            f"{channel_limit}; raise --channel-limit to at least {incident}"
        )


def _fmt_metric(x: float) -> str:
    """``x`` to four decimals; a value that rounds to zero prints as
    ``0.0000``, never ``-0.0000``."""
    text = f"{x:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _fmt_num(x: float) -> str:
    if math.isinf(x):
        return "+inf"
    return f"{x:g}"


def _md_table(header: list[str], rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _render(args, payload: dict, header: list[str], rows: list[list],
            md: str | None = None) -> str:
    """The output in the format ``--out`` names: ``payload`` as JSON, the
    ``header`` and ``rows`` as CSV, or ``md``, which defaults to their
    markdown table."""
    if args.out == "json":
        return json.dumps(payload, indent=2)
    if args.out == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    return _md_table(header, rows) if md is None else md


# ---------------------------------------------------------------- subcommands


def _cmd_case_info(args) -> str:
    case = _load_case(args)
    degrees = [(b, len(case.incident_branches(b))) for b in case.bus_ids]
    connected = case.is_connected()
    payload = {
        "schema": "case-info/1",
        "name": case.name,
        "buses": len(case.buses),
        "branches": len(case.branches),
        "connected": connected,
        "degrees": [{"bus": b, "degree": d} for b, d in degrees],
    }
    header, rows = ["bus", "degree"], [[b, d] for b, d in degrees]
    title = (
        f"# case {case.name}\n\n{len(case.buses)} buses, {len(case.branches)} "
        f"branches, {'connected' if connected else 'NOT connected'}"
    )
    return _render(args, payload, header, rows, title + "\n\n" + _md_table(header, rows))


def _cmd_metrics(args) -> str:
    # one OpenBLAS thread unless the caller set a count, fixed before numpy
    # loads: the SVD then rounds alike on every host, whatever its CPU count,
    # and numpy starts sooner
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .linalg import sensitivity_report

    case = _load_case(args)
    if not args.nu:
        raise ValueError("metrics requires a placement: pass --nu with bus ids")
    buses = sorted(_require_buses(case, _parse_nu(args.nu), "placement"))
    if not buses:
        raise ValueError("placement is empty: pass at least one bus id in --nu")
    placement = PmuPlacement.of(buses, channel_limit=args.channel_limit)
    scope = _scope(args)
    report = sensitivity_report(
        case, placement, scope=scope, sigma_v=args.sigma_v, sigma_i=args.sigma_i,
        dedupe=args.dedupe, flat_branch_model=args.flat_branch_model,
    )
    payload = {"schema": "metrics/1", "case": case.name,
               "placement": buses, "scope": scope.value,
               "dedupe": args.dedupe}
    payload.update(report.to_dict())
    header = ["placement", "m", "n", "rank", "min", "max", "sum", "average"]
    row = [",".join(str(b) for b in buses), report.m, report.n, report.rank,
           *(_fmt_metric(x) for x in (report.min, report.max, report.sum, report.average))]
    return _render(args, payload, header, [row])


def _scope(args) -> StateScope:
    return StateScope.FULL if args.scope == "full" else StateScope.PMU


def _make_metric(case: NetworkCase, args, gain: bool = False):
    return metric_function(case, scope=_scope(args), dedupe=args.dedupe,
                           channel_limit=args.channel_limit, gain=gain)


def _cmd_plan(args) -> str:
    from .planner import DEFAULT_ENUM_CAP, budget_constrained_plan, compare_plans, greedy_plan

    case = _load_case(args)
    _require_hostable_case(case, args.channel_limit, "planning")
    nu = _resolve_nu(args, case)
    _check_range("--stages", args.stages, 0 if args.mode == "greedy" else 1,
                 len(case.bus_ids) - len(nu), "buses outside the base")
    metric = _make_metric(case, args)
    name = case.name

    if args.mode == "greedy":
        plan = greedy_plan(case, nu, metric, args.stages, tie_tol=args.tol)
        payload = {"schema": "plan-greedy/1", "case": name}
        payload.update(plan.to_dict())
        header = ["stage", "added", "placement", "value"]
        rows = [
            [k, plan.order[k - 1], ",".join(str(b) for b in plan.order[:k]),
             _fmt_metric(plan.stage_values[k - 1])]
            for k in range(1, len(plan.order) + 1)
        ]
        title = f"greedy plan on {name}, base {list(plan.base)}"

    elif args.mode == "budget":
        result = budget_constrained_plan(
            case, nu, metric, args.stages,
            enum_cap=args.enum_cap or DEFAULT_ENUM_CAP, tie_tol=args.tol,
        )
        payload = {
            "schema": "plan-budget/1",
            "case": name,
            "base": nu,
            "stage": result.stage,
            "selected": list(result.selected),
            "value": result.metric_value,
        }
        header = ["stage", "selected", "value"]
        rows = [[result.stage, ",".join(str(b) for b in result.selected),
                 _fmt_metric(result.metric_value)]]
        title = f"budget-constrained plan on {name}, base {nu}"

    else:
        comparison = compare_plans(
            case, nu, metric, args.stages,
            enum_cap=args.enum_cap or DEFAULT_ENUM_CAP, tie_tol=args.tol,
        )
        payload = {"schema": "plan-compare/1", "case": name}
        payload.update(comparison.to_dict())
        header = [
            "stage", "budget set", "budget value",
            "greedy order", "greedy value", "differs", "worse",
        ]
        rows = [
            [
                r.stage,
                ",".join(str(b) for b in r.budget.selected),
                _fmt_metric(r.budget.metric_value),
                ",".join(str(b) for b in comparison.greedy_order[: r.stage]),
                _fmt_metric(r.greedy.metric_value),
                "yes" if r.sets_differ else "no",
                "yes" if r.greedy_strictly_worse else "no",
            ]
            for r in comparison.rows
        ]
        title = f"plan comparison on {name}, base {list(comparison.base)}"

    return _render(args, payload, header, rows, title + "\n\n" + _md_table(header, rows))


class ProcessPoolExecutor:
    """The audit's worker pool: ``concurrent.futures.ProcessPoolExecutor``,
    imported when a pool is made, so only a parallel audit loads it. It
    keeps the wrapped class's name, which ``perfbench/tracing.py`` patches."""

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(max_workers=max_workers)

    def map(self, fn, *iterables):
        return self._pool.map(fn, *iterables)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _WorkerFailure(Exception):
    """A metric failure in a pool worker, reduced to its exit code: the
    exception itself and its cause chain do not survive pickling."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _audit_shard(payload: tuple) -> tuple[ClassificationTally, int]:
    """Worker entry: audit the ``start``/``stop`` slice of the run's audit.

    Returns the slice's tally and EXIT_OK, or, when the metric fails, the
    partial tally (its total is the triples processed) and the exit code of
    the failure's cause chain.
    """
    from .submodularity import AuditAbortedError, audit

    case, args, nu, a_size, b_size, start, stop = payload
    try:
        tally = audit(case, _make_metric(case, args, gain=True), nu, a_size, b_size,
                      tol=args.tol, counterexample_cap=args.counterexamples,
                      start=start, stop=stop)
    except AuditAbortedError as err:
        return err.partial, _exit_code(err)
    return tally, EXIT_OK


def _progress(done: int, total: int) -> None:
    print(f"audited {done}/{total}", file=sys.stderr)


def _replay_progress(before: int, after: int, total: int) -> None:
    """The progress lines a serial audit prints while its count of
    processed triples moves from ``before`` to ``after``."""
    from .submodularity import PROGRESS_INTERVAL

    first = (before // PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL
    for done in range(first, min(after + 1, total), PROGRESS_INTERVAL):
        _progress(done, total)
    if before < after == total:
        _progress(total, total)


def _audit_workers(parallel: int, alpha: int) -> int:
    """Workers, that is shards, for an audit of ``alpha`` triples:
    ``--parallel N`` asks for N; 0 runs serially below
    AUTO_POOL_MIN_TRIPLES, where starting a pool costs more than it saves,
    else asks for one worker per CPU."""
    if parallel:
        return parallel
    if alpha < AUTO_POOL_MIN_TRIPLES:
        return 1
    return os.cpu_count() or 1


def _default_size(flag: str, omega: int, short: int) -> int:
    """The default ``--a-size`` (omega-2) or ``--b-size`` (omega-1), if not negative."""
    if omega < short:
        raise ValueError(
            f"{flag} defaults to omega-{short}, which is negative for a case of "
            f"{omega} bus{'' if omega == 1 else 'es'}; pass {flag} explicitly"
        )
    return omega - short


def _cmd_submod(args) -> str:
    from .submodularity import AuditAbortedError, audit, count_combinations, merge_tallies

    case = _load_case(args)
    omega = len(case.bus_ids)
    a_size = args.a_size if args.a_size is not None else _default_size("--a-size", omega, 2)
    b_size = args.b_size if args.b_size is not None else _default_size("--b-size", omega, 1)
    nu = _resolve_nu(args, case)
    _check_range("--a-size", a_size, len(nu), omega - 1, "|nu| to omega-1")
    _check_range("--b-size", b_size, a_size, omega - 1, "--a-size to omega-1")
    alpha = count_combinations(omega, len(nu), a_size, b_size)

    if args.action == "count":
        payload = {
            "schema": "submod-count/1",
            "case": case.name,
            "omega": omega,
            "nu_size": len(nu),
            "a_size": a_size,
            "b_size": b_size,
            "alpha": alpha,
        }
        return _render(args, payload, ["omega", "nu_size", "a_size", "b_size", "alpha"],
                       [[omega, len(nu), a_size, b_size, alpha]], f"alpha = {alpha}")

    _require_hostable_case(case, args.channel_limit, "the audit")
    cap = args.counterexamples
    workers = _audit_workers(args.parallel, alpha)
    if workers > 1 and alpha >= 8 * workers:
        bounds = [alpha * i // workers for i in range(workers + 1)]
        payloads = [
            (case, args, nu, a_size, b_size, bounds[i], bounds[i + 1])
            for i in range(workers)
            if bounds[i] < bounds[i + 1]
        ]
        # Shards report in order, as a serial audit would: progress lines,
        # then either the first failure or the merged tally.
        parts: list[ClassificationTally] = []
        done = 0
        # N shards start at most one process per CPU; the rest queue
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            for part, code in pool.map(_audit_shard, payloads):
                _replay_progress(done, done + part.total, alpha)
                done += part.total
                parts.append(part)
                if code != EXIT_OK:
                    partial = merge_tallies(parts, counterexample_cap=cap)
                    raise AuditAbortedError(done, partial) from _WorkerFailure(code)
        tally = merge_tallies(parts, counterexample_cap=cap)
        print(f"audited {alpha} triples across {workers} workers", file=sys.stderr)
    else:
        tally = audit(
            case, _make_metric(case, args, gain=True), nu, a_size, b_size,
            tol=args.tol, counterexample_cap=cap, progress=_progress,
        )

    name = case.name
    payload = {
        "schema": "submod-audit/1",
        "case": name,
        "nu": nu,
        "a_size": a_size,
        "b_size": b_size,
        "tol": args.tol,
        "alpha": alpha,
    }
    payload.update(tally.to_dict())
    table = _md_table(
        ["case", "|nu|", "|A|", "|B|", "submodular", "supermodular", "ties"],
        [[name, len(nu), a_size, b_size, tally.submodular, tally.supermodular, tally.ties]],
    )
    md = "\n".join([
        f"{tally.total} triples: {tally.submodular} submodular, "
        f"{tally.supermodular} supermodular, {tally.ties} ties",
        f"alpha = {alpha}; audited = {tally.total}",
        "",
        table,
        "",
        f"counterexamples retained: {len(tally.counterexamples)} "
        f"(use --out json for the records)",
    ])
    return _render(
        args, payload,
        ["case", "nu_size", "a_size", "b_size", "total", "submodular", "supermodular", "ties"],
        [[name, len(nu), a_size, b_size,
          tally.total, tally.submodular, tally.supermodular, tally.ties]],
        md,
    )


def _sweep_rows(instance: KnapsackInstance, table) -> list[list[str]]:
    return [
        [f"[{_fmt_num(r.lo)}, {_fmt_num(r.hi)})",
         ", ".join(instance.label_items(r.items)) or "-",
         _fmt_num(r.objective)]
        for r in table.rows
    ]


def _parse_numbers(flag: str, raw: str) -> tuple[float, ...]:
    """The comma-separated numbers of ``--values`` or ``--weights``; the
    first token that is not one is named by its number (from 1)."""
    numbers = []
    for k, token in enumerate(raw.split(","), start=1):
        try:
            numbers.append(float(token))
        except ValueError:
            raise ValueError(f"{flag} {raw}: token {k} must be a number, got {token!r}") from None
    return tuple(numbers)


def _cmd_knapsack(args) -> str:
    from .knapsack import KnapsackInstance, budget_sweep, example_instance

    if args.values is not None or args.weights is not None:
        if args.values is None or args.weights is None:
            raise ValueError("custom instances need both --values and --weights")
        instance = KnapsackInstance(values=_parse_numbers("--values", args.values),
                                    weights=_parse_numbers("--weights", args.weights))
    else:
        instance = example_instance()
    optimal = budget_sweep(instance, "optimal")
    greedy = budget_sweep(instance, "greedy")
    payload = {
        "schema": "knapsack-demo/1",
        "instance": {
            "values": list(instance.values),
            "weights": list(instance.weights),
            "labels": list(instance.labels),
        },
        "optimal": optimal.to_dict(instance),
        "greedy": greedy.to_dict(instance),
    }
    rows = [
        [
            method,
            _fmt_num(r.lo),
            "" if math.isinf(r.hi) else _fmt_num(r.hi),
            " ".join(instance.label_items(r.items)),
            _fmt_num(r.objective),
        ]
        for method, table in (("optimal", optimal), ("greedy", greedy))
        for r in table.rows
    ]
    header = ["budget", "selection", "objective"]
    md = "\n".join([
        "re-optimized at every budget:",
        "",
        _md_table(header, _sweep_rows(instance, optimal)),
        "",
        "greedy growth (keeps earlier picks):",
        "",
        _md_table(header, _sweep_rows(instance, greedy)),
    ])
    return _render(args, payload, ["method", "lo", "hi", "items", "objective"], rows, md)


# ------------------------------------------------------------------- plumbing


# add_argument keywords of every flag; each leaf command lists the ones it takes
_FLAGS = {
    "--case": dict(default="ieee14", help="bundled case name or a file path"),
    "--format": dict(choices=["matpower-subset", "json"],
                     help="case file format (inferred from the extension)"),
    "--scope": dict(choices=["full", "paper-compat"], default="paper-compat",
                    help="state scope: all buses, or sensor buses only"),
    "--dedupe": dict(choices=["by-branch", "per-end"], default="by-branch",
                     help="meter both-end branches once or per end"),
    "--channel-limit": dict(type=int, default=DEFAULT_CHANNEL_LIMIT,
                            help="max incident branches a sensor bus may have"),
    "--sigma-v": dict(type=float, default=1.0, help="voltage channel standard deviation"),
    "--sigma-i": dict(type=float, default=1.0, help="current channel standard deviation"),
    "--flat-branch-model": dict(action="store_true",
                                help="ignore charging and off-nominal taps"),
    "--tol": dict(type=float, default=1e-9, help="tie / margin classification tolerance"),
    "--enum-cap": dict(type=int, help="max subsets an exhaustive stage may evaluate"),
    "--parallel": dict(type=int, default=0,
                       help="audit shards, run by at most one process per CPU "
                            "(0 = serial for a small audit, else one per CPU)"),
    "--nu": dict(help="base placement, e.g. 2,6,7,9 or @file (default: observable core)"),
    "--stages": dict(type=int, required=True, help="stages to plan (budget: the single stage k)"),
    "--a-size": dict(type=int, help="|A| (default omega-2)"),
    "--b-size": dict(type=int, help="|B| (default omega-1)"),
    "--counterexamples": dict(type=int, default=100, help="max counterexample records retained"),
    "--values": dict(help="comma-separated item values"),
    "--weights": dict(help="comma-separated item weights"),
    "--out": dict(choices=["md", "json", "csv"], default="md", help="output format"),
    "--output": dict(default="-", help="write to a file instead of stdout"),
}
_SCORE_FLAGS = "--case --format --scope --dedupe --channel-limit"
_PLAN_FLAGS = _SCORE_FLAGS + " --tol --nu --stages"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that adds the flags it is given when it first
    parses, which a command's parser does only when argv names the command:
    a process builds the flags of the one command it runs."""

    def __init__(self, *args, flags: tuple = (), **kwargs):
        super().__init__(*args, **kwargs)
        self._pending = flags  # (flag, add_argument keywords) pairs

    def parse_known_args(self, args=None, namespace=None):
        for flag, keywords in self._pending:
            self.add_argument(flag, **keywords)
        self._pending = ()
        return super().parse_known_args(args, namespace)


def _leaf(parent, name: str, help: str, flags: str, *extra: tuple) -> None:
    """The command ``name`` under ``parent``: ``flags``, ``--out`` and
    ``--output``, then the ``extra`` (flag, keywords) pairs."""
    pairs = tuple((flag, _FLAGS[flag]) for flag in (flags + " --out --output").split())
    parent.add_parser(name, help=help, flags=pairs + extra)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pmuplan",
        description="plan and audit phasor sensor placements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("case", help="inspect a network case")
    case_sub = case.add_subparsers(dest="action", required=True)
    _leaf(case_sub, "info", "counts, connectivity, degrees", "--case --format")

    _leaf(sub, "metrics", "sensitivity summary for one placement",
          _SCORE_FLAGS + " --sigma-v --sigma-i --flat-branch-model",
          ("--nu", dict(required=True, help="placement bus ids, e.g. 2,6,7,9 or @file")))

    plan = sub.add_parser("plan", help="multi-stage placement planning")
    modes = plan.add_subparsers(dest="mode", required=True)
    _leaf(modes, "greedy", "priority list: one bus per stage", _PLAN_FLAGS)
    _leaf(modes, "budget", "best set for the single stage k", _PLAN_FLAGS + " --enum-cap")
    _leaf(modes, "compare", "greedy against exhaustive per stage", _PLAN_FLAGS + " --enum-cap")

    submod = sub.add_parser("submod", help="diminishing-returns audit")
    actions = submod.add_subparsers(dest="action", required=True)
    _leaf(actions, "audit", "classify every (A, B, s) triple",
          _SCORE_FLAGS + " --tol --parallel --nu --a-size --b-size --counterexamples")
    _leaf(actions, "count", "count the triples, scoring none",
          "--case --format --channel-limit --nu --a-size --b-size")

    knapsack = sub.add_parser("knapsack", help="sequential-investment demo")
    demos = knapsack.add_subparsers(dest="action", required=True)
    _leaf(demos, "demo", "re-optimized against greedy budget sweeps", "--values --weights")

    return parser


def _check_flags(args) -> None:
    """Reject the values of the command's flags that it cannot use, before
    any case is read."""
    flags = vars(args)
    if "sigma_v" in flags:
        _require_sigma("--sigma-v", args.sigma_v)
        _require_sigma("--sigma-i", args.sigma_i)
    if "tol" in flags:
        _require_tol("--tol", args.tol)
    if flags.get("enum_cap") is not None and args.enum_cap < 1:
        raise ValueError(f"--enum-cap must be positive, got {args.enum_cap}")
    if flags.get("channel_limit", 1) < 1:
        raise ValueError(f"--channel-limit must be positive, got {args.channel_limit}")
    if flags.get("parallel", 0) < 0:
        raise ValueError(f"--parallel must be nonnegative, got {args.parallel}")
    if flags.get("counterexamples", 0) < 0:
        raise ValueError(f"--counterexamples must be nonnegative, got {args.counterexamples}")
    _check_output(args.output)


def _check_output(output: str) -> None:
    """Fail before any work when ``--output`` names a directory or a file in
    a directory that does not exist, with the error writing it would raise.
    The file itself is neither created nor truncated here, so a command
    that then fails leaves an existing file as it was."""
    if output in ("", "-"):
        return
    path = Path(output)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), output)


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes, named ``module.Class``, whose pmuplan module is loaded.

    ``main`` maps exceptions to exit codes by class; a class whose module
    never loaded cannot have been raised, so it is skipped, not imported."""
    found = []
    for name in names:
        module, _, cls = name.partition(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            found.append(getattr(loaded, cls))
    return tuple(found)


def _exit_code(err: BaseException) -> int | None:
    """The exit code ``main`` returns for ``err``, or None for an error it
    does not expect, which keeps its traceback.

    A planner's or the audit's wrapped metric failure takes the code that
    the first error in its cause chain names, a pool worker's code
    included, else EXIT_INTERNAL. Any other error is read by its class,
    and a ValueError or OSError is EXIT_USAGE."""
    wrapped = isinstance(err, _loaded("planner.CandidateEvaluationError",
                                      "submodularity.AuditAbortedError"))
    named = [(UnobservableStateError, EXIT_NUMERIC),
             (_loaded("planner.EnumerationCapError"), EXIT_COMBINATORIAL),
             ((ChannelLimitError, CaseFormatError), EXIT_USAGE)]
    if not wrapped:
        named += [(_loaded("knapsack.ItemLimitError"), EXIT_COMBINATORIAL),
                  ((ValueError, OSError), EXIT_USAGE)]
    seen = set()
    while err is not None and id(err) not in seen:
        seen.add(id(err))
        if isinstance(err, _WorkerFailure):
            return err.code
        for classes, code in named:
            if isinstance(err, classes):
                return code
        if not wrapped:
            return None
        err = err.__cause__
    return EXIT_INTERNAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_call:
        return int(exit_call.code or 0)

    try:
        _check_flags(args)
        command = {"case": _cmd_case_info, "metrics": _cmd_metrics, "plan": _cmd_plan,
                   "submod": _cmd_submod, "knapsack": _cmd_knapsack}[args.command]
        text = command(args)
    except Exception as err:
        code = _exit_code(err)
        if code is None:
            raise
        print(f"error: {err}", file=sys.stderr)
        return code
    if args.output in ("", "-"):
        try:
            print(text, flush=True)
        except BrokenPipeError as err:
            # the reader closed the pipe; point stdout at devnull so that the
            # flush at exit does not fail on what is still buffered
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write to stdout: {err.strerror}", file=sys.stderr)
            return EXIT_USAGE
        return EXIT_OK
    try:
        Path(args.output).write_text(text + "\n")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK
