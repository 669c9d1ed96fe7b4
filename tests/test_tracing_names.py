"""The benchmark tracer's wrapped names all exist on the cylreact modules.

The tracer patches every name in ``CYLREACT_FUNCTIONS`` and
``GRID_METHODS``; a renamed or deleted one kills the traced benchmark pass
with AttributeError.  ``benchmark/tracing.py`` imports only the standard
library at top level, so it loads here by path.
"""

import importlib
import importlib.util
import pathlib

from cylreact.cylinder import CylinderGrid

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
