"""Phasor sensor placement planning and submodularity auditing toolkit.

The package loads lazily (PEP 562): ``import pmuplan`` imports no submodule,
and a name in ``__all__`` or a submodule name (``pmuplan.estimation``) is
imported on first access, so ``import pmuplan.cli`` loads only what the CLI
imports. ``from pmuplan import X``, ``pmuplan.X`` and ``from pmuplan import *``
work as with eager imports.

A resolved name is not stored in the package namespace: each access reads
the defining module's current binding. A module attribute that is rebound
and later restored, as ``perfbench/tracing.py`` does to time calls, is
therefore seen the same way through ``pmuplan.X`` as through its module,
with no stale copy left behind here.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, grouped by the submodule that defines them
_EXPORTS = {
    "network": (
        "Branch",
        "Bus",
        "CaseFormatError",
        "NetworkCase",
        "parse_case",
        "serialize_case",
    ),
    "cases": ("load_case",),
    "measurements": (
        "ChannelLimitError",
        "PmuPlacement",
        "greedy_observable_cover",
        "observability_check",
    ),
    "estimation": (
        "StateScope",
        "UnobservableStateError",
        "metric_function",
        "placement_metric",
    ),
    "linalg": (
        "ChannelKind",
        "CovarianceModel",
        "Jacobian",
        "MeasurementChannel",
        "MeasurementSet",
        "SensitivityReport",
        "build_jacobian",
        "diag_metrics",
        "enumerate_channels",
        "projection_matrix",
        "sensitivity_matrix",
        "sensitivity_report",
        "wls_estimate",
    ),
    "submodularity": (
        "AuditAbortedError",
        "ClassificationTally",
        "MarginClass",
        "MarginRecord",
        "SubsetTriple",
        "audit",
        "check_monotone",
        "classify_triple",
        "count_combinations",
        "enumerate_triples",
    ),
    "planner": (
        "CandidateEvaluationError",
        "EnumerationCapError",
        "PlanComparison",
        "PriorityList",
        "StageResult",
        "budget_constrained_plan",
        "compare_plans",
        "greedy_plan",
    ),
    "knapsack": (
        "BudgetBreakpointTable",
        "ItemLimitError",
        "KnapsackInstance",
        "budget_sweep",
        "example_instance",
        "greedy_solve",
        "optimal_solve",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
