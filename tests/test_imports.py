"""Import budget: a cylreact process loads scipy's integrate, interpolate,
optimize and special subpackages only in the routines that call them, and
those routines still import what they need; it never loads sympy, not even
for a symbolic reaction.  Every name in ``cylreact.__all__`` resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cylreact import fractional1d as fr, geometry, solver
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import DomainSpec, build_grid

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
         "scipy.special", "sympy")

_PROBE = f"""
import contextlib, io, json, sys
heavy = {HEAVY!r}
loaded = {{}}
import cylreact
loaded["import cylreact"] = [m for m in heavy if m in sys.modules]
import cylreact.cli
loaded["import cylreact.cli"] = [m for m in heavy if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = cylreact.cli.main(["list-presets"])
loaded["list-presets"] = [m for m in heavy if m in sys.modules]
print(json.dumps({{"code": code, "loaded": loaded}}))
"""


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))


def test_cold_start_leaves_heavy_modules_unloaded():
    out = subprocess.run([sys.executable, "-c", _PROBE], env=_child_env(),
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["code"] == 0
    assert result["loaded"] == {"import cylreact": [],
                                "import cylreact.cli": [],
                                "list-presets": []}


def test_symbolic_reaction_solve_leaves_sympy_unloaded(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "Solve",
        "domain": {"kind": "interval", "x_min": 0.0, "x_max": 3.0},
        "grid": {"nx": 9, "ny": 9, "y_max": 2.0},
        "reaction": {"f": "-u - u^3 + sin(u)", "g": "y*u**2"},
        "output_dir": str(tmp_path / "out")}))
    probe = ("import contextlib, io, sys, cylreact.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cylreact.cli.main(['run', {str(config)!r}])\n"
             "print(code, 'sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_star_import_resolves_every_public_name():
    import cylreact
    namespace = {}
    exec("from cylreact import *", namespace)  # AttributeError on a stale name
    assert sorted(set(cylreact.__all__)) == sorted(cylreact.__all__)
    assert set(cylreact.__all__) <= namespace.keys()


# Each routine below imports its scipy dependency on first call; the frozen
# values were computed with module-level imports and must not move.

def test_one_dim_family_profile_unchanged():
    grid = build_grid(DomainSpec.interval(0.0, np.pi), nx=3, ny=9, y_max=2.0,
                      grading=0.5)
    u = solver.catalog_solution("one-dim-family", grid,
                                model=CoefficientModel.power_weight(-0.5),
                                reaction=solver.ReactionSpec.linear(1.0),
                                c=1.0)
    expected = [1.0, 0.9824813246822143, 0.9166666666666666,
                0.7924971400561897, 0.6035976283324263, 0.3450867553734711,
                0.012944490285630605, -0.3962778665312843,
                -0.8856180831641267]
    assert np.allclose(u.values, expected, rtol=1e-13, atol=0.0)


def test_log_cutoff_profile_unchanged():
    grid = build_grid(DomainSpec.interval(0.0, np.pi), nx=3, ny=9,
                      y_max=300.0)
    psi = geometry.log_cutoff(200.0, grid)
    expected = [2.6119937219892684, 1.6714728546839703, 0.9783256741240252,
                0.5728605660158609, 0.2851784935640799, 0.06203494224987011,
                0.0, 0.0, 0.0]
    assert np.allclose(psi.values, expected, rtol=1e-13, atol=0.0)


def test_nodal_normal_derivative_unchanged():
    nodes = np.linspace(0.0, 1.0, 401)
    values = np.sqrt(np.clip(1.0 - nodes, 0.0, None))
    val = fr.fractional_normal_derivative((nodes, values), 0.5, 1.0,
                                          fr.Side.FROM_LEFT_INTERVAL)
    assert val == pytest.approx(0.7920815747070311, rel=1e-13)


def test_small_counterexample_unchanged():
    res = fr.construct_counterexample(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.5,
        fit_nodes=129)
    assert res.delta1 == pytest.approx(0.13059650237374854, rel=1e-9)
    assert res.delta2 == res.delta1
