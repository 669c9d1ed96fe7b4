"""The benchmark's tracer and workloads use only names cylreact still has.

The tracer patches every name in ``CYLREACT_FUNCTIONS`` and
``GRID_METHODS``; a renamed or deleted one kills the traced benchmark pass
with AttributeError.  The workloads build their problems and call cylreact
with keywords; a renamed function or a removed keyword fails their ops.
Both files live outside the package, so they load here by path:
``benchmark/tracing.py`` imports only the standard library at top level,
and ``benchmark/workloads.py`` imports numpy and cylreact.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import numpy as np

from cylreact.cylinder import CylinderGrid

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"
WORKLOADS = BENCHMARK / "workloads.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules as they are made
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _load_tracing():
    return _load(TRACING, "benchmark_tracing")


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    missing = [f"{mod}.{name}"
               for mod, names in tracing.CYLREACT_FUNCTIONS.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"cylreact.{mod}"), name, None))]
    missing += [f"CylinderGrid.{name}" for name in tracing.GRID_METHODS
                if not callable(getattr(CylinderGrid, name, None))]
    assert missing == []
    assert importlib.import_module("cylreact.verify").CRITERIA


def test_every_small_benchmark_problem_builds(monkeypatch):
    workloads = _load(WORKLOADS, "benchmark_workloads")
    rng = np.random.default_rng(1)
    # newton_cases wraps each problem in a solve case; unwrapped, it returns
    # the problems themselves
    monkeypatch.setattr(workloads, "_solve_case", lambda problem: problem)
    problems = (workloads.newton_cases(rng, small=True)
                + workloads.stability_problems(small=True))
    assert problems
    for problem in problems:
        model, reaction, grid, init, top = problem.build()
        r = workloads.cylreact.residual_vector(init, model, reaction, top)
        assert r.shape == (grid.n_nodes,) and np.all(np.isfinite(r))
    for cases in (workloads.stability_cases, workloads.nonlocal_cases,
                  workloads.cli_cases):
        assert all(callable(c.run) for c in cases(rng, small=True))


def _cylreact_calls(tree, roots):
    """(line, dotted name, object, call node) of every call in tree whose
    callee is an attribute chain on a module named in roots."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, expr = [], node.func
        while isinstance(expr, ast.Attribute):
            chain.insert(0, expr.attr)
            expr = expr.value
        if isinstance(expr, ast.Name) and expr.id in roots and chain:
            obj = roots[expr.id]
            for attr in chain:
                obj = getattr(obj, attr, None)
            yield node.lineno, ".".join([expr.id, *chain]), obj, node


def test_workload_calls_match_cylreact_signatures():
    # every call of a cylreact name in the file, including the ones inside
    # cases that only a benchmark run executes, names a callable that
    # accepts its positional count and keywords
    roots = {name: importlib.import_module(f"cylreact.{name}")
             for name in ("presets", "solver", "verify", "fractional1d")}
    roots["cylreact"] = importlib.import_module("cylreact")
    bad = []
    calls = list(_cylreact_calls(ast.parse(WORKLOADS.read_text()), roots))
    assert calls
    for line, name, obj, node in calls:
        if not callable(obj):
            bad.append(f"{line}: {name} is not a cylreact callable")
            continue
        try:
            inspect.signature(obj).bind(
                *[None] * len(node.args),
                **{k.arg: None for k in node.keywords if k.arg})
        except TypeError as err:
            bad.append(f"{line}: {name}: {err}")
    assert bad == []
