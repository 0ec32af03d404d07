"""Stand-in for ``python -m pmuplan`` that measures the host around the command.

Usage: cli_child.py REPORT_JSON OP_ID TRACE [pmuplan arguments...]

Runs the host-speed probe, times the import of ``pmuplan.cli``, with TRACE
1 installs the tracer, runs ``pmuplan.cli.main`` with the remaining
arguments (as ``python -m pmuplan`` does), probes again and writes to
REPORT_JSON the mean slowdown, the probes' own wall time, the import time
and, when traced, the spans. Stdout, stderr and the exit code are the CLI's
own.
"""

import json
import sys
import time

from hostspeed import probe

if __name__ == "__main__":
    report_path, op, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    t0 = time.perf_counter()
    before = probe()
    t1 = time.perf_counter()
    import pmuplan.cli

    import_s = time.perf_counter() - t1

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.op = op
        tracer.install()
    try:
        code = pmuplan.cli.main(sys.argv[4:])
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
        t2 = time.perf_counter()
        after = probe()
        report = {
            "slowdown": (before + after) / 2,
            "probe_s": (t1 - t0) + (time.perf_counter() - t2),
            "import_s": import_s,
        }
        if tracer is not None:
            report.update(tracer.export())
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    sys.exit(code)
