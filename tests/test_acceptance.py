"""Acceptance gate: the eleven battery criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion must pass within its wall-clock budget.
"""

import numpy as np
import pytest

from cylreact import verify

CRITERION_NAMES = (
    "flux-linearization-spectrum",
    "catalog-residual-convergence",
    "stability-labels",
    "poincare-inequality",
    "weight-decomposition",
    "nonlocal-constancy",
    "extension-equivalence",
    "eigenvalue-growth",
    "operator-distinctness",
    "counterexample-pipeline",
    "extremum-sign",
)


@pytest.fixture(scope="module")
def battery():
    records = verify.run_all()
    assert len(records) == 11
    return {i + 1: rec for i, rec in enumerate(records)}


@pytest.mark.parametrize("num", range(1, 12))
def test_criterion(num, battery):
    rec = battery[num]
    line = (f"criterion {num}: {rec.status.upper()} — {rec.name} "
            f"(measured={rec.measured}, tolerance: {rec.tolerance}, "
            f"{rec.wall_clock:.2f}s of {rec.budget_s:g}s budget)")
    print(line)
    assert rec.name == CRITERION_NAMES[num - 1]
    assert rec.status == verify.PASS, line
    assert rec.wall_clock <= rec.budget_s, line
    assert rec.anchor


def test_overall_battery_passes(battery):
    records = list(battery.values())
    assert verify.overall_status(records) == verify.PASS
    for rec in records:
        assert np.isfinite(rec.wall_clock)


def test_key_measured_values(battery):
    # spot checks pinning the battery to its verified magnitudes
    assert battery[1].measured < 1e-10            # spectrum match, relative
    assert battery[6].measured < 1e-12            # nonlocal constancy
    assert battery[7].measured < 1e-10            # extension equivalence
    assert battery[10].measured < 1e-8            # counterexample interior
    d10 = battery[10].details
    band = [0.5 / 11.0, 4.0 * 0.5 / 11.0]
    for delta in (d10["delta1"], d10["delta2"]):
        assert band[0] <= delta <= band[1]


def test_catalog_floor_only_where_allowed(monkeypatch):
    # linear-y sits at the round-off floor; without its allow_floor flag
    # the criterion must fit (and fail) a slope instead of excusing it
    cases = tuple(c[:-1] + (False,) if c[0] == "linear-y" else c
                  for c in verify._C2_CASES)
    monkeypatch.setattr(verify, "_C2_CASES", cases)
    rec = verify.criterion_2()
    row = next(r for r in rec.details["cases"] if r["case"] == "linear-y")
    assert row["floor"] is False and row["slope"] is not None
    assert rec.status == verify.FAIL
