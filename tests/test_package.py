"""The package's lazy namespace: names resolve on access, to the defining
module's current binding, and nothing is cached in the package."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmuplan

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_the_defining_modules_object():
    for name in pmuplan.__all__:
        if name == "__version__":
            continue
        obj = getattr(pmuplan, name)
        assert obj.__module__.startswith("pmuplan."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_and_dir_list_all_public_names():
    namespace = {}
    exec("from pmuplan import *", namespace)
    assert set(pmuplan.__all__) <= namespace.keys()
    assert namespace["greedy_plan"] is pmuplan.planner.greedy_plan
    assert set(pmuplan.__all__) <= set(dir(pmuplan))
    assert {"estimation", "linalg", "planner", "cli"} <= set(dir(pmuplan))


def test_submodule_attribute_resolves_in_a_fresh_interpreter():
    code = (
        "import json, sys, pmuplan\n"
        "before = sorted(m for m in sys.modules if m.startswith('pmuplan.'))\n"
        "print(json.dumps([before, pmuplan.estimation.__name__,\n"
        "                  pmuplan.planner.greedy_plan is pmuplan.greedy_plan]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "pmuplan.estimation", True]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pmuplan.no_such_name
    with pytest.raises(ImportError):
        from pmuplan import no_such_name  # noqa: F401


def test_traced_names_are_restored_through_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    original = pmuplan.estimation.metric_function
    tracer = Tracer()
    tracer.install()
    try:
        traced = pmuplan.metric_function
        assert traced is pmuplan.estimation.metric_function
        assert traced is not original
        assert inspect.unwrap(traced) is original
    finally:
        tracer.uninstall()
    assert pmuplan.metric_function is pmuplan.estimation.metric_function is original
    assert not hasattr(pmuplan.metric_function, "__wrapped__")
    assert "metric_function" not in vars(pmuplan)


def test_only_linalg_imports_numpy_and_only_at_its_top():
    for path in sorted((ROOT / "src" / "pmuplan").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "numpy" for name in names):
                assert path.name == "linalg.py" and node in tree.body, f"{path.name}:{node.lineno}"
