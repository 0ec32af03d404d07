"""Run one pmuplan benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs come from the seed. After a warm-up, passes repeat
until the next one would overrun S seconds (at least one pass runs), and
every operation's output is checked against the exact oracle. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` half of S runs untraced and half traced, and the
JSON holds the per-layer metrics (see NOTES.md for what each one counts).
Earlier lines give the environment, operation counts, latency percentiles
with their sample counts and, when traced, the per-layer table. Results and
spans are also written under ``perfbench/out/``. Exits 1 if any output
check failed, 2 on bad usage or when the checkout has no pmuplan sources.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "estimation.svd.calls": "count",
    "estimation.svd.busy_s": "s",
    "estimation.svd.input_elems": "count",
    "measurements.enumerate_channels.calls": "count",
    "measurements.enumerate_channels.busy_s": "s",
    "estimation.build_jacobian.calls": "count",
    "estimation.build_jacobian.busy_s": "s",
    "network.incident_branches.calls": "count",
    "network.incident_branches.busy_s": "s",
    "estimation.placement_metric.calls": "count",
    "estimation.placement_metric.busy_s": "s",
    "estimation.placement_metric.self_s": "s",
    "estimation.metric.calls": "count",
    "estimation.metric.hit_ratio": "ratio",
    "submodularity.audit.calls": "count",
    "submodularity.audit.busy_s": "s",
    "submodularity.audit.self_s": "s",
    "submodularity.audit.self_us_per_triple": "us",
    "submodularity.audit.metric_calls": "count",
    "submodularity.audit.cache_hit_ratio": "ratio",
    "planner.greedy_plan.busy_s": "s",
    "planner.budget_constrained_plan.busy_s": "s",
    "planner.self_s": "s",
    "network.parse_case.busy_s": "s",
    "cases.load_case.busy_s": "s",
    "cli.p50_ms": "ms",
    "cli.p90_ms": "ms",
    "cli.import_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.pool.workers": "count",
    "cli.pool.busy_s": "s",
    "cli.pool.audit_parallel0_ms": "ms",
    "cli.pool.audit_parallel1_ms": "ms",
    "knapsack.budget_sweep.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Phase:
    """Timings and check results of consecutive passes."""

    def __init__(self):
        self.pass_wall_s: list[float] = []
        self.ops: list[tuple[str, float, float]] = []  # (key, latency, slowdown)
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def op_latencies(self, key=None, scaled=True) -> list[float]:
        return [t / slowdown if scaled else t
                for k, t, slowdown in self.ops if key is None or k == key]

    def pass_s(self, scaled=True) -> float:
        """Median pass time, built operation by operation: the sum over a
        pass's operations of each one's median latency across passes.
        Scaled latencies are divided by the host's slowdown around them."""
        keys = dict.fromkeys(k for k, _, _ in self.ops)
        return sum(statistics.median(self.op_latencies(k, scaled)) for k in keys)


def measure(workload, budget_s: float) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples = workload.run_pass()
        phase.pass_wall_s.append(time.perf_counter() - t0)
        for sample in samples:
            phase.attempted += 1
            phase.ops.append((str(sample.key), sample.latency, sample.slowdown))
            errors = workload.check(sample.key, sample.result)
            if errors:
                phase.failed += 1
                phase.errors.extend(errors)
        if time.perf_counter() - start + statistics.median(phase.pass_wall_s) > budget_s:
            return phase


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None
    outside a git work tree or when the branch ref is packed."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else None


def environment(root: Path, args, workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the vendor is then unknown
        blas_vendor = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_vendor,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
        "op_counts_per_pass": workload.counts,
        "machine": platform.machine(),
    }


def end_to_end(workload, phase: Phase, setups: list[tuple[float, float]]) -> dict:
    pass_s = phase.pass_s()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if workload.name == "readme-cli" else resource.RUSAGE_SELF)
    return {
        "setup_s": statistics.median(t / slowdown for t, slowdown in setups),
        "pass_s": pass_s,
        "work_per_s": workload.work_per_pass / pass_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def latency_line(phase: Phase) -> str:
    lines = []
    for scaled, label in ((True, "scaled"), (False, "raw")):
        ops = phase.op_latencies(scaled=scaled)
        lines.append(f"{label} op latency: p50 {1e3 * statistics.median(ops):.1f} ms, "
                     f"p90 {1e3 * percentile(ops, 90):.1f} ms over {len(ops)} samples")
    slowdowns = [s for _, _, s in phase.ops]
    lines.append(f"raw pass_s {phase.pass_s(scaled=False):.4f} s; slowdown p10/p50/p90 "
                 + "/".join(f"{percentile(slowdowns, q):.3f}" for q in (10, 50, 90)))
    return "\n".join(lines)


def per_layer(summary: dict, traced: Phase, untraced: Phase, import_s: list[float]) -> dict:
    """Per traced pass, except set-up calls (per call) and medians in ms."""
    passes = len(traced.pass_wall_s)
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "note": 0, "under": {}}

    def row(name):
        return summary.get(name, empty)

    def per_pass(value):
        return value / passes

    def busy(name):
        return per_pass(row(name)["busy_ns"] / 1e9)

    def per_call(name):
        r = row(name)
        return r["busy_ns"] / 1e9 / r["calls"] if r["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metric, audit = row("estimation.metric"), row("submodularity.audit")
    metric_misses = row("estimation.placement_metric")["under"].get("estimation.metric", (0, 0))[0]
    audit_metric_calls, audit_metric_ns = metric["under"].get("submodularity.audit", (0, 0))
    audit_self_ns = audit["busy_ns"] - audit_metric_ns
    triples = audit["note"]
    planner_self_ns = sum(r["self_ns"] for n, r in summary.items() if n.startswith("planner."))
    pools = row("cli.pool")
    # operations that reach cli.main are CLI commands
    commands = untraced.op_latencies() if row("cli.main")["calls"] else []
    p0 = untraced.op_latencies("audit-parallel0")
    p1 = untraced.op_latencies("audit-parallel1")
    out = {}
    for name in ("estimation.svd", "measurements.enumerate_channels",
                 "estimation.build_jacobian", "network.incident_branches",
                 "estimation.placement_metric", "estimation.metric", "submodularity.audit"):
        out[f"{name}.calls"] = per_pass(row(name)["calls"])
        out[f"{name}.busy_s"] = busy(name)
    out.update({
        "estimation.svd.input_elems": per_pass(row("estimation.svd")["note"]),
        "estimation.placement_metric.self_s": per_pass(row("estimation.placement_metric")["self_ns"] / 1e9),
        "estimation.metric.hit_ratio": ratio(metric["calls"] - metric_misses, metric["calls"]),
        "submodularity.audit.self_s": per_pass(audit_self_ns / 1e9),
        "submodularity.audit.self_us_per_triple": ratio(audit_self_ns / 1e3, triples),
        "submodularity.audit.metric_calls": per_pass(audit_metric_calls),
        "submodularity.audit.cache_hit_ratio": ratio(4 * triples - audit_metric_calls, 4 * triples),
        "planner.greedy_plan.busy_s": busy("planner.greedy_plan"),
        "planner.budget_constrained_plan.busy_s": busy("planner.budget_constrained_plan"),
        "planner.self_s": per_pass(planner_self_ns / 1e9),
        "network.parse_case.busy_s": per_call("network.parse_case"),
        "cases.load_case.busy_s": per_call("cases.load_case"),
        "cli.p50_ms": 1e3 * statistics.median(commands) if commands else 0.0,
        "cli.p90_ms": 1e3 * percentile(commands, 90) if commands else 0.0,
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "cli.main.busy_s": busy("cli.main"),
        "cli.main.self_s": per_pass(row("cli.main")["self_ns"] / 1e9),
        "cli.pool.workers": ratio(pools["note"], pools["calls"]),
        "cli.pool.busy_s": busy("cli.pool"),
        "cli.pool.audit_parallel0_ms": 1e3 * statistics.median(p0) if p0 else 0.0,
        "cli.pool.audit_parallel1_ms": 1e3 * statistics.median(p1) if p1 else 0.0,
        "knapsack.budget_sweep.busy_s": busy("knapsack.budget_sweep"),
        "trace.overhead_ratio": traced.pass_s() / untraced.pass_s() - 1,
    })
    return {name: out[name] for name in PER_LAYER}


def layer_table(summary: dict, passes: int) -> list[str]:
    lines = [f"{'span':<40} {'calls/pass':>12} {'busy_s/pass':>12} {'self_s/pass':>12}"]
    for name in sorted(summary, key=lambda n: -summary[n]["busy_ns"]):
        r = summary[name]
        lines.append(f"{name:<40} {r['calls'] / passes:>12.1f} "
                     f"{r['busy_ns'] / 1e9 / passes:>12.6f} {r['self_ns'] / 1e9 / passes:>12.6f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pmuplan" / "__init__.py").is_file():
        print("error: no pmuplan sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from tracing import Tracer, merge, summarize
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](root, args.seed)
    env = environment(root, args, workload)
    print("env " + json.dumps(env, sort_keys=True))

    workload.prepare()
    workload.warm_up()
    workload.probe()  # warm it too; probe_with_svd takes numpy's svd now, before any tracer
    setups = [workload.setup_once() for _ in range(SETUP_REPEATS)] if args.trace == 0 else []

    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        phase = measure(workload, args.seconds)
        phases = [phase]
        metrics = end_to_end(workload, phase, setups)
        units = END_TO_END
        print(f"passes {len(phase.pass_wall_s)}; setup samples {len(setups)}; "
              f"work per pass {workload.work_per_pass} {workload.unit}")
        print(latency_line(phase))
    else:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            workload.prepare()
            traced = measure(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
            workload.tracer = None
        phases = [untraced, traced]
        export = tracer.export()
        for part in workload.child_spans:
            merge(export, part)
        summary = summarize(export)
        import_s = [c["import_s"] for c in workload.child_spans if c["import_s"] is not None]
        metrics = per_layer(summary, traced, untraced, import_s)
        units = PER_LAYER
        print(f"traced passes {len(traced.pass_wall_s)}, untraced passes {len(untraced.pass_wall_s)}")
        print("untraced:\n" + latency_line(untraced))
        print("\n".join(layer_table(summary, len(traced.pass_wall_s))))
        with gzip.open(out_dir / f"spans-{stem}.json.gz", "wt", compresslevel=1) as fh:
            json.dump(dict(export, env=env), fh)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for err in (e for p in phases for e in p.errors):
        print("check failed: " + err, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    samples = [{"pass_wall_s": p.pass_wall_s, "ops": p.ops} for p in phases]
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps(dict(result, env=env, setup_s=setups, samples=samples), indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
