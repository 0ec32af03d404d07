"""Host-speed probe: a fixed pure-Python kernel timed next to every operation.

The measuring host's virtual CPUs each flip, within seconds, between speeds
up to 1.8 times apart, independently of each other, and spend anywhere from
a tenth to most of a minute in the fast one. Raw medians follow that mix.
The probe does not touch pmuplan. Run right before and after an operation,
in the process that runs it, it slows with the CPU that process is on. It
returns that slowdown: its wall time over the time it takes on a reference
host, a round figure near the measuring machine's fast state (about 4 ms).
A latency divided by the slowdown around it is in seconds of that host.

Loads only ``time`` on import, so a child process can load it before its
timer starts without moving the time it measures.
"""

import time

# The probe's wall time on the reference host, in seconds.
REFERENCE_S = 0.005


def probe() -> float:
    """Integer arithmetic and small frozenset/dict churn, the two kinds of
    interpreter work the workloads do outside numpy."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    counts: dict = {}
    for i in range(3_000):
        key = frozenset((i % 97, i % 89, i % 83))
        counts[key] = counts.get(key, 0) + 1
    return (time.perf_counter() - t0) / REFERENCE_S


# The wall time on the reference host of the SVD in ``probe_with_svd``, in s.
SVD_REFERENCE_S = 0.025
_svd = _matrix = None


def probe_with_svd() -> float:
    """For operations that spend most of their time in LAPACK's SVD: the
    mean of ``probe`` and of one thin SVD of a fixed 600 x 236 matrix, about
    the size audit118 decomposes. The SVD alone slows less than ``probe``
    when the host does; the mean tracks those operations best."""
    global _svd, _matrix
    if _svd is None:
        # numpy is imported here, not at the top, because set-up children
        # import this module before their timer starts. The first call comes
        # from the warm-up, before a tracer wraps numpy.linalg.svd.
        import numpy

        _svd = numpy.linalg.svd
        # a fixed full-rank matrix; numpy.random would add to the peak memory
        i = numpy.arange(600 * 236)
        _matrix = ((i * i + 7 * i) % 999983).reshape(600, 236) / 1e6
    t0 = time.perf_counter()
    _svd(_matrix, full_matrices=False)
    return (probe() + (time.perf_counter() - t0) / SVD_REFERENCE_S) / 2
