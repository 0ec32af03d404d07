"""Spans around every call into pmuplan's public functions, for the traced run.

``Tracer.install`` wraps each public function of the package's modules and
rebinds the wrapper under every name a caller looks it up by: the defining
module, every other pmuplan module that imported it, and the package itself.
It also wraps ``numpy.linalg.svd`` (the estimation layer's only SVD),
``NetworkCase.incident_branches``, the set functions ``metric_function``
returns and the CLI's process pool. Spans stay in memory; ``uninstall``
restores every original binding.

A span is ``(name_id, start_ns, end_ns, parent_index, op_id, note)``; the
parent is the span that was open when this one started, ``op_id`` is the
benchmark operation (one audit call, one plan comparison, one CLI command)
that caused it, and ``note`` holds a count the span's layer reports (triples
for an audit, m*n for an SVD, workers for a pool).

Generator functions are not wrapped (their work runs after the call
returns), nor are the helpers called once per Jacobian row or per audited
triple: a span each would outweigh the work and the memory of the run. Their
time stays in the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("cases", "network", "measurements", "estimation", "planner",
          "submodularity", "knapsack", "cli")
PER_ROW_HELPERS = {"network.metered_admittances", "network.branch_end_admittances",
                   "submodularity.classify_triple"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op = 0
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note(args, result)`` may tag it."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a finished span is a tuple of ints, which the cyclic GC stops scanning
                spans[idx] = (nid, start, end, parent, self.op, None)
            if note is not None:
                spans[idx] = spans[idx][:5] + (note(args, result),)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg

        modules = [importlib.import_module(f"pmuplan.{layer}") for layer in LAYERS]
        namespaces = [importlib.import_module("pmuplan"), *modules]
        for layer, module in zip(LAYERS, modules):
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")
            ]
            for attr in public:
                fn = getattr(module, attr, None)
                if (not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn) or f"{layer}.{attr}" in PER_ROW_HELPERS):
                    continue
                wrapped = self._special(layer, attr, fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, bound, wrapped)

        network = modules[LAYERS.index("network")]
        self._set(network.NetworkCase, "incident_branches",
                  self.wrap("network.incident_branches", network.NetworkCase.incident_branches))
        self._set(numpy.linalg, "svd", self.wrap(
            "estimation.svd", numpy.linalg.svd,
            note=lambda args, _: int(args[0].shape[0]) * int(args[0].shape[1])))
        cli = modules[LAYERS.index("cli")]
        self._set(cli, "ProcessPoolExecutor", self._traced_pool(cli.ProcessPoolExecutor))

    def _special(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name == "estimation.metric_function":
            def factory(*args, **kwargs):
                return self.wrap("estimation.metric", fn(*args, **kwargs))
            return self.wrap(name, functools.wraps(fn)(factory))
        if name == "submodularity.audit":
            return self.wrap(name, fn, note=lambda args, tally: tally.total)
        return self.wrap(name, fn)

    def _traced_pool(self, pool_cls):
        """A pool whose lifetime, from creation to shutdown, is one span."""
        tracer = self
        nid = self._name_id("cli.pool")

        class TracedPool(pool_cls):
            def __init__(self, max_workers=None, *args, **kwargs):
                start = time.perf_counter_ns()
                super().__init__(max_workers, *args, **kwargs)
                stack = tracer._stack
                self._span = (len(tracer.spans), start, stack[-1] if stack else -1,
                              tracer.op, max_workers)
                tracer.spans.append(None)  # filled in at shutdown

            def shutdown(self, *args, **kwargs):
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    idx, start, parent, op, workers = self._span
                    tracer.spans[idx] = (nid, start, time.perf_counter_ns(), parent, op, workers)

        return TracedPool

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def export(self) -> dict:
        return {"names": list(self.names), "spans": self.spans}


def merge(into: dict, part: dict) -> None:
    """Append an exported span set (e.g. from a child process) to another."""
    ids = {}
    for name in part["names"]:
        if name not in into["names"]:
            into["names"].append(name)
        ids[name] = into["names"].index(name)
    offset = len(into["spans"])
    for nid, start, end, parent, op, note in part["spans"]:
        into["spans"].append((ids[part["names"][nid]], start, end,
                              parent + offset if parent >= 0 else -1, op, note))


def summarize(export: dict) -> dict[str, dict]:
    """Per span name: calls, busy and self nanoseconds, summed notes, and
    ``under``: for each parent name, how many of these spans it opened and
    their total nanoseconds."""
    names, spans = export["names"], export["spans"]
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, (nid, start, end, parent, _op, note) in enumerate(spans):
        row = out.setdefault(names[nid], {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                          "note": 0, "under": {}})
        row["calls"] += 1
        row["busy_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        row["note"] += note or 0
        if parent >= 0:
            count, ns = row["under"].get(names[spans[parent][0]], (0, 0))
            row["under"][names[spans[parent][0]]] = (count + 1, ns + end - start)
    return out
