"""Command-line front end for the placement toolkit.

Subcommands: ``case info``, ``metrics``, ``plan greedy|budget|compare``,
``submod audit|count``, ``knapsack demo``. Results render as markdown
tables by default, or as versioned JSON / CSV via ``--out``. All heavy
fan-out (the parallel audit) lives here; library modules stay serial.

Exit codes: 0 success, 1 internal error (a metric failed for a reason
none of the others names), 2 usage/parse/validation, 3 numerical
infeasibility, 4 combinatorial cap.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .cases import BUNDLED, bundled_case_text
from .estimation import (
    StateScope,
    UnobservableStateError,
    metric_function,
    sensitivity_report,
)
from .knapsack import (
    ItemLimitError,
    KnapsackInstance,
    budget_sweep,
    example_instance,
)
from .measurements import (
    DEFAULT_CHANNEL_LIMIT,
    ChannelLimitError,
    PmuPlacement,
    greedy_observable_cover,
    observability_check,
)
from .network import CaseFormatError, NetworkCase, parse_case
from .planner import (
    DEFAULT_ENUM_CAP,
    CandidateEvaluationError,
    EnumerationCapError,
    budget_constrained_plan,
    compare_plans,
    greedy_plan,
)
from .submodularity import (
    PROGRESS_INTERVAL,
    AuditAbortedError,
    ClassificationTally,
    audit,
    count_combinations,
    merge_tallies,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_COMBINATORIAL = 4

# canonical observable core tried first when --nu is omitted
FALLBACK_NU = (2, 6, 7, 9)

_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the computing subcommands."""

    case: NetworkCase
    case_text: str
    case_format: str
    scope: StateScope
    dedupe: str
    sigma_v: float
    sigma_i: float
    tol: float
    enum_cap: int
    parallel: int
    out: str
    output: str
    flat: bool
    channel_limit: int


def _scope_from_flag(value: str) -> StateScope:
    if value == "full":
        return StateScope.FULL
    # paper-compat is the historical alias for the reduced pmu-state scope
    return StateScope.PMU


def _load_case(name_or_path: str, fmt: str | None) -> tuple[NetworkCase, str, str]:
    if name_or_path in BUNDLED:
        text = bundled_case_text(name_or_path)
        return parse_case(text, format="matpower-subset", name=name_or_path), text, "matpower-subset"
    path = Path(name_or_path)
    if not path.is_file():
        raise ValueError(f"case file not found: {name_or_path}")
    text = path.read_text()
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "matpower-subset"
    return parse_case(text, format=fmt, name=path.stem), text, fmt


def _parse_nu(raw: str) -> list[int]:
    """Bus ids from ``--nu``: comma/whitespace separated text, or ``@file``
    holding a JSON list or such text. Every entry must be an integer; the
    first one that is not is named by its JSON index (from 0) or its token
    number (from 1)."""
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
            return data
    tokens = text.replace(",", " ").split()
    for k, token in enumerate(tokens, start=1):
        if not _INTEGER.fullmatch(token):
            raise ValueError(
                f"--nu {raw}: token {k} must be an integer bus id, got {token!r}"
            )
    return [int(token) for token in tokens]


def _resolve_nu(args, config: RunConfig) -> list[int]:
    """Explicit --nu wins; otherwise the canonical core, else a greedy cover.

    Host selection for the default cover respects the stock device limit
    even when --channel-limit is raised: a higher evaluation limit widens
    what the metric may score, not which buses make sensible hosts.
    """
    if getattr(args, "nu", None):
        nu = sorted(set(_parse_nu(args.nu)))
        ids = set(config.case.bus_ids)
        missing = sorted(set(nu) - ids)
        if missing:
            raise ValueError(f"nu buses not in the case: {missing}")
        return nu
    host_limit = min(config.channel_limit, DEFAULT_CHANNEL_LIMIT)
    ids = set(config.case.bus_ids)
    if set(FALLBACK_NU) <= ids:
        try:
            placement = PmuPlacement.of(FALLBACK_NU, channel_limit=host_limit)
            observable, _ = observability_check(config.case, placement)
            if observable:
                return list(FALLBACK_NU)
        except ValueError:
            pass
    cover = greedy_observable_cover(config.case, channel_limit=host_limit)
    return list(cover.buses)


def _require_hostable_case(case: NetworkCase, channel_limit: int, what: str) -> None:
    """Planning and auditing evaluate placements over arbitrary buses."""
    worst = max(case.bus_ids, key=lambda b: len(case.incident_branches(b)))
    incident = len(case.incident_branches(worst))
    if incident > channel_limit:
        raise ValueError(
            f"{what} evaluates placements on every bus, but bus {worst} has "
            f"{incident} incident branches, over the channel limit of "
            f"{channel_limit}; raise --channel-limit to at least {incident}"
        )


def _fmt_metric(x: float) -> str:
    return f"{x:.4f}"


def _fmt_num(x: float) -> str:
    if math.isinf(x):
        return "+inf"
    return f"{x:g}"


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit(text: str, output: str) -> None:
    if output and output != "-":
        Path(output).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- subcommands


def _cmd_case_info(args, config: RunConfig) -> str:
    case = config.case
    degrees = [(b, len(case.incident_branches(b))) for b in case.bus_ids]
    connected = case.is_connected()
    if config.out == "json":
        return json.dumps(
            {
                "schema": "case-info/1",
                "name": case.name,
                "buses": len(case.buses),
                "branches": len(case.branches),
                "connected": connected,
                "degrees": [{"bus": b, "degree": d} for b, d in degrees],
            },
            indent=2,
        )
    if config.out == "csv":
        return _csv_text(["bus", "degree"], [[b, d] for b, d in degrees])
    lines = [
        f"# case {case.name}",
        "",
        f"{len(case.buses)} buses, {len(case.branches)} branches, "
        f"{'connected' if connected else 'NOT connected'}",
        "",
        _md_table(["bus", "degree"], [[str(b), str(d)] for b, d in degrees]),
    ]
    return "\n".join(lines)


def _cmd_metrics(args, config: RunConfig) -> str:
    if not getattr(args, "nu", None):
        raise ValueError("metrics requires a placement: pass --nu with bus ids")
    buses = sorted(set(_parse_nu(args.nu)))
    if not buses:
        raise ValueError("placement is empty: pass at least one bus id in --nu")
    missing = sorted(set(buses) - set(config.case.bus_ids))
    if missing:
        raise ValueError(f"placement buses not in the case: {missing}")
    placement = PmuPlacement.of(buses, channel_limit=config.channel_limit)
    report = sensitivity_report(
        config.case,
        placement,
        scope=config.scope,
        sigma_v=config.sigma_v,
        sigma_i=config.sigma_i,
        dedupe=config.dedupe,
        flat_branch_model=config.flat,
    )
    if config.out == "json":
        payload = {"schema": "metrics/1", "case": config.case.name,
                   "placement": buses, "scope": config.scope.value,
                   "dedupe": config.dedupe}
        payload.update(report.to_dict())
        return json.dumps(payload, indent=2)
    header = ["placement", "m", "n", "rank", "min", "max", "sum", "average"]
    row = [
        ",".join(str(b) for b in buses),
        str(report.m),
        str(report.n),
        str(report.rank),
        _fmt_metric(report.min),
        _fmt_metric(report.max),
        _fmt_metric(report.sum),
        _fmt_metric(report.average),
    ]
    if config.out == "csv":
        return _csv_text(header, [row])
    return _md_table(header, [row])


def _make_metric(config: RunConfig):
    return metric_function(
        config.case,
        scope=config.scope,
        sigma_v=config.sigma_v,
        sigma_i=config.sigma_i,
        dedupe=config.dedupe,
        flat_branch_model=config.flat,
        channel_limit=config.channel_limit,
    )


def _cmd_plan(args, config: RunConfig) -> str:
    _require_hostable_case(config.case, config.channel_limit, "planning")
    nu = _resolve_nu(args, config)
    metric = _make_metric(config)
    mode = args.mode

    if mode == "greedy":
        plan = greedy_plan(config.case, nu, metric, args.stages, tie_tol=config.tol)
        if config.out == "json":
            payload = {"schema": "plan-greedy/1", "case": config.case.name}
            payload.update(plan.to_dict())
            return json.dumps(payload, indent=2)
        header = ["stage", "added", "placement", "value"]
        rows = []
        for k in range(1, len(plan.order) + 1):
            rows.append(
                [
                    str(k),
                    str(plan.order[k - 1]),
                    ",".join(str(b) for b in plan.order[:k]),
                    _fmt_metric(plan.stage_values[k - 1]),
                ]
            )
        if config.out == "csv":
            return _csv_text(header, rows)
        title = f"greedy plan on {config.case.name}, base {list(plan.base)}"
        return title + "\n\n" + _md_table(header, rows)

    if mode == "budget":
        result = budget_constrained_plan(
            config.case, nu, metric, args.stages,
            enum_cap=config.enum_cap, tie_tol=config.tol,
        )
        if config.out == "json":
            return json.dumps(
                {
                    "schema": "plan-budget/1",
                    "case": config.case.name,
                    "base": nu,
                    "stage": result.stage,
                    "selected": list(result.selected),
                    "value": result.metric_value,
                },
                indent=2,
            )
        header = ["stage", "selected", "value"]
        row = [
            str(result.stage),
            ",".join(str(b) for b in result.selected),
            _fmt_metric(result.metric_value),
        ]
        if config.out == "csv":
            return _csv_text(header, [row])
        title = f"budget-constrained plan on {config.case.name}, base {nu}"
        return title + "\n\n" + _md_table(header, [row])

    comparison = compare_plans(
        config.case, nu, metric, args.stages,
        enum_cap=config.enum_cap, tie_tol=config.tol,
    )
    if config.out == "json":
        payload = {"schema": "plan-compare/1", "case": config.case.name}
        payload.update(comparison.to_dict())
        return json.dumps(payload, indent=2)
    header = [
        "stage", "budget set", "budget value",
        "greedy order", "greedy value", "differs", "worse",
    ]
    rows = []
    for r in comparison.rows:
        rows.append(
            [
                str(r.stage),
                ",".join(str(b) for b in r.budget.selected),
                _fmt_metric(r.budget.metric_value),
                ",".join(str(b) for b in comparison.greedy_order[: r.stage]),
                _fmt_metric(r.greedy.metric_value),
                "yes" if r.sets_differ else "no",
                "yes" if r.greedy_strictly_worse else "no",
            ]
        )
    if config.out == "csv":
        return _csv_text(header, rows)
    title = f"plan comparison on {config.case.name}, base {list(comparison.base)}"
    return title + "\n\n" + _md_table(header, rows)


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
    """Worker entry: rebuild everything from plain values and audit a slice.

    Returns the slice's tally and EXIT_OK, or, when the metric fails, the
    partial tally (its total is the triples processed) and the exit code of
    the failure's root cause.
    """
    (text, fmt, name, nu, a_size, b_size, tol, cap,
     scope_value, sigma_v, sigma_i, dedupe, flat, channel_limit,
     start, stop) = payload
    case = parse_case(text, format=fmt, name=name)
    metric = metric_function(
        case,
        scope=StateScope(scope_value),
        sigma_v=sigma_v,
        sigma_i=sigma_i,
        dedupe=dedupe,
        flat_branch_model=flat,
        channel_limit=channel_limit,
        gain=True,
    )
    try:
        tally = audit(case, metric, nu, a_size, b_size, tol=tol,
                      counterexample_cap=cap, start=start, stop=stop)
    except AuditAbortedError as err:
        return err.partial, _root_cause_code(err)
    return tally, EXIT_OK


def _progress(done: int, total: int) -> None:
    print(f"audited {done}/{total}", file=sys.stderr)


def _replay_progress(before: int, after: int, total: int) -> None:
    """The progress lines a serial audit prints while its count of
    processed triples moves from ``before`` to ``after``."""
    first = (before // PROGRESS_INTERVAL + 1) * PROGRESS_INTERVAL
    for done in range(first, min(after + 1, total), PROGRESS_INTERVAL):
        _progress(done, total)
    if before < after == total:
        _progress(total, total)


def _cmd_submod(args, config: RunConfig) -> str:
    omega = len(config.case.bus_ids)
    a_size = args.a_size if args.a_size is not None else omega - 2
    b_size = args.b_size if args.b_size is not None else omega - 1
    nu = _resolve_nu(args, config)
    alpha = count_combinations(omega, len(nu), a_size, b_size)

    if args.action == "count" or getattr(args, "count_only", False):
        if config.out == "json":
            return json.dumps(
                {
                    "schema": "submod-count/1",
                    "case": config.case.name,
                    "omega": omega,
                    "nu_size": len(nu),
                    "a_size": a_size,
                    "b_size": b_size,
                    "alpha": alpha,
                },
                indent=2,
            )
        if config.out == "csv":
            return _csv_text(
                ["omega", "nu_size", "a_size", "b_size", "alpha"],
                [[omega, len(nu), a_size, b_size, alpha]],
            )
        return f"alpha = {alpha}"

    _require_hostable_case(config.case, config.channel_limit, "the audit")
    cap = args.counterexamples
    workers = config.parallel
    if workers > 1 and alpha >= 8 * workers:
        bounds = [alpha * i // workers for i in range(workers + 1)]
        payloads = [
            (
                config.case_text, config.case_format, config.case.name,
                nu, a_size, b_size, config.tol, cap,
                config.scope.value, config.sigma_v, config.sigma_i,
                config.dedupe, config.flat, config.channel_limit,
                bounds[i], bounds[i + 1],
            )
            for i in range(workers)
            if bounds[i] < bounds[i + 1]
        ]
        # Shards report in order, as a serial audit would: progress lines,
        # then either the first failure or the merged tally.
        parts: list[ClassificationTally] = []
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        metric = metric_function(
            config.case,
            scope=config.scope,
            sigma_v=config.sigma_v,
            sigma_i=config.sigma_i,
            dedupe=config.dedupe,
            flat_branch_model=config.flat,
            channel_limit=config.channel_limit,
            gain=True,
        )
        tally = audit(
            config.case, metric, nu, a_size, b_size,
            tol=config.tol, counterexample_cap=cap, progress=_progress,
        )

    if config.out == "json":
        payload = {
            "schema": "submod-audit/1",
            "case": config.case.name,
            "nu": nu,
            "a_size": a_size,
            "b_size": b_size,
            "tol": config.tol,
            "alpha": alpha,
        }
        payload.update(tally.to_dict())
        return json.dumps(payload, indent=2)
    if config.out == "csv":
        return _csv_text(
            ["case", "nu_size", "a_size", "b_size",
             "total", "submodular", "supermodular", "ties"],
            [[config.case.name, len(nu), a_size, b_size,
              tally.total, tally.submodular, tally.supermodular, tally.ties]],
        )
    table = _md_table(
        ["case", "|nu|", "|A|", "|B|", "submodular", "supermodular", "ties"],
        [[config.case.name, str(len(nu)), str(a_size), str(b_size),
          str(tally.submodular), str(tally.supermodular), str(tally.ties)]],
    )
    summary = (
        f"{tally.total} triples: {tally.submodular} submodular, "
        f"{tally.supermodular} supermodular, {tally.ties} ties"
    )
    check = f"alpha = {alpha}; audited = {tally.total}"
    kept = (
        f"counterexamples retained: {len(tally.counterexamples)} "
        f"(use --out json for the records)"
    )
    return "\n".join([summary, check, "", table, "", kept])


def _sweep_rows(instance: KnapsackInstance, table) -> list[list[str]]:
    rows = []
    for r in table.rows:
        labels = instance.label_items(r.items)
        rows.append(
            [
                f"[{_fmt_num(r.lo)}, {_fmt_num(r.hi)})",
                ", ".join(labels) if labels else "-",
                _fmt_num(r.objective),
            ]
        )
    return rows


def _cmd_knapsack(args, config: RunConfig) -> str:
    if args.values or args.weights:
        if not (args.values and args.weights):
            raise ValueError("custom instances need both --values and --weights")
        values = tuple(float(v) for v in args.values.split(","))
        weights = tuple(float(w) for w in args.weights.split(","))
        instance = KnapsackInstance(values=values, weights=weights)
    else:
        instance = example_instance()
    optimal = budget_sweep(instance, "optimal")
    greedy = budget_sweep(instance, "greedy")
    if config.out == "json":
        return json.dumps(
            {
                "schema": "knapsack-demo/1",
                "instance": {
                    "values": list(instance.values),
                    "weights": list(instance.weights),
                    "labels": list(instance.labels),
                },
                "optimal": optimal.to_dict(instance),
                "greedy": greedy.to_dict(instance),
            },
            indent=2,
        )
    if config.out == "csv":
        rows = []
        for method, table in (("optimal", optimal), ("greedy", greedy)):
            for r in table.rows:
                rows.append(
                    [
                        method,
                        _fmt_num(r.lo),
                        "" if math.isinf(r.hi) else _fmt_num(r.hi),
                        " ".join(instance.label_items(r.items)),
                        _fmt_num(r.objective),
                    ]
                )
        return _csv_text(["method", "lo", "hi", "items", "objective"], rows)
    header = ["budget", "selection", "objective"]
    parts = [
        "re-optimized at every budget:",
        "",
        _md_table(header, _sweep_rows(instance, optimal)),
        "",
        "greedy growth (keeps earlier picks):",
        "",
        _md_table(header, _sweep_rows(instance, greedy)),
    ]
    return "\n".join(parts)


# ------------------------------------------------------------------- plumbing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", default="ieee14",
                        help="bundled case name or a file path")
    parser.add_argument("--format", choices=["matpower-subset", "json"],
                        help="case file format (inferred from the extension)")
    parser.add_argument("--scope", choices=["full", "paper-compat", "pmu-state"],
                        default="paper-compat",
                        help="state scope: all buses, or sensor buses only")
    parser.add_argument("--dedupe", choices=["by-branch", "per-end"],
                        default="by-branch",
                        help="meter both-end branches once or per end")
    parser.add_argument("--sigma-v", type=float, default=1.0,
                        help="voltage channel standard deviation")
    parser.add_argument("--sigma-i", type=float, default=1.0,
                        help="current channel standard deviation")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="tie / margin classification tolerance")
    parser.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                        help="max subsets an exhaustive stage may evaluate")
    parser.add_argument("--parallel", type=int, default=0,
                        help="worker processes (0 = all cores)")
    parser.add_argument("--out", choices=["md", "json", "csv"], default="md",
                        help="output format")
    parser.add_argument("--output", default="-",
                        help="write to a file instead of stdout")
    parser.add_argument("--flat-branch-model", action="store_true",
                        help="ignore charging susceptance and off-nominal taps")
    parser.add_argument("--channel-limit", type=int,
                        default=DEFAULT_CHANNEL_LIMIT,
                        help="max incident branches a sensor bus may have")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmuplan",
        description="plan and audit phasor sensor placements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_case = sub.add_parser("case", help="inspect a network case")
    case_sub = p_case.add_subparsers(dest="action", required=True)
    p_info = case_sub.add_parser("info", help="counts, connectivity, degrees")
    _add_common(p_info)

    p_metrics = sub.add_parser("metrics", help="sensitivity summary for one placement")
    _add_common(p_metrics)
    p_metrics.add_argument("--nu", required=True,
                           help="placement bus ids, e.g. 2,6,7,9 or @file")

    p_plan = sub.add_parser("plan", help="multi-stage placement planning")
    p_plan.add_argument("mode", choices=["greedy", "budget", "compare"])
    _add_common(p_plan)
    p_plan.add_argument("--nu", help="base placement (default: observable core)")
    p_plan.add_argument("--stages", type=int, required=True,
                        help="stages to plan (budget: the single stage k)")

    p_submod = sub.add_parser("submod", help="diminishing-returns audit")
    p_submod.add_argument("action", choices=["audit", "count"])
    _add_common(p_submod)
    p_submod.add_argument("--nu", help="protected base set (default: observable core)")
    p_submod.add_argument("--a-size", type=int, help="|A| (default omega-2)")
    p_submod.add_argument("--b-size", type=int, help="|B| (default omega-1)")
    p_submod.add_argument("--counterexamples", type=int, default=100,
                          help="max counterexample records retained")
    p_submod.add_argument("--count-only", action="store_true",
                          help="only report the triple count")

    p_knap = sub.add_parser("knapsack", help="sequential-investment demo")
    p_knap.add_argument("action", choices=["demo"])
    _add_common(p_knap)
    p_knap.add_argument("--values", help="comma-separated item values")
    p_knap.add_argument("--weights", help="comma-separated item weights")

    return parser


def _config_from_args(args) -> RunConfig:
    if not (0 < args.sigma_v < math.inf and 0 < args.sigma_i < math.inf):
        raise ValueError("standard deviations must be finite and positive")
    if args.tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if args.enum_cap < 1:
        raise ValueError("enumeration cap must be positive")
    if args.channel_limit < 1:
        raise ValueError("channel limit must be positive")
    if args.parallel < 0:
        raise ValueError("parallel degree must be nonnegative")
    case, text, fmt = _load_case(args.case, args.format)
    return RunConfig(
        case=case,
        case_text=text,
        case_format=fmt,
        scope=_scope_from_flag(args.scope),
        dedupe=args.dedupe,
        sigma_v=args.sigma_v,
        sigma_i=args.sigma_i,
        tol=args.tol,
        enum_cap=args.enum_cap,
        parallel=args.parallel or os.cpu_count() or 1,
        out=args.out,
        output=args.output,
        flat=args.flat_branch_model,
        channel_limit=args.channel_limit,
    )


def _root_cause_code(err: Exception) -> int:
    """Exit code for a wrapped metric failure, from the first cause in its
    chain that names one; any other cause is an internal error."""
    seen = set()
    cause: BaseException | None = err
    while cause is not None and id(cause) not in seen:
        seen.add(id(cause))
        if isinstance(cause, UnobservableStateError):
            return EXIT_NUMERIC
        if isinstance(cause, EnumerationCapError):
            return EXIT_COMBINATORIAL
        if isinstance(cause, (ChannelLimitError, CaseFormatError)):
            return EXIT_USAGE
        if isinstance(cause, _WorkerFailure):
            return cause.code
        cause = cause.__cause__
    return EXIT_INTERNAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_call:
        return int(exit_call.code or 0)

    try:
        config = _config_from_args(args)
        if args.command == "case":
            text = _cmd_case_info(args, config)
        elif args.command == "metrics":
            text = _cmd_metrics(args, config)
        elif args.command == "plan":
            text = _cmd_plan(args, config)
        elif args.command == "submod":
            text = _cmd_submod(args, config)
        else:
            text = _cmd_knapsack(args, config)
    except EnumerationCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMBINATORIAL
    except UnobservableStateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CandidateEvaluationError, AuditAbortedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _root_cause_code(err)
    except ItemLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_COMBINATORIAL
    except (CaseFormatError, ChannelLimitError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    _emit(text, config.output)
    return EXIT_OK
