"""Self-test of the benchmark at reduced sizes.

    python3 -m pytest -q benchmark/selftest.py

Run from the checkout root.  The file name keeps it out of the repository's
default test collection: it runs every workload twice (untraced and
traced) and takes about a minute.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.prepare_import_path(os.getcwd())

import tracing  # noqa: E402


def _measure(workload, trace, edit_cases=None):
    return run.measure(workload, seed=3, seconds=0.0, trace=trace, small=True,
                       edit_cases=edit_cases, probes=1)


@pytest.fixture(scope="module")
def traced():
    return {w: _measure(w, trace=True) for w in run.WORKLOADS}


def test_benchmark_json_names_every_metric_with_its_unit():
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(traced):
    for workload, (result, lines, record) in traced.items():
        assert result["metrics"] == {
            k: {"value": record["per_layer"][k], "unit": u}
            for k, u in run.PER_LAYER.items()}, workload
        for name, unit in run.END_TO_END.items():
            entry = record["end_to_end"][name]
            assert entry["unit"] == unit and entry["value"] > 0, (workload, name)
        printed = "\n".join(lines)
        for name in [*run.END_TO_END, *run.PER_LAYER]:
            assert f"  {name} " in printed, (workload, name)
    untraced, _, _ = _measure("newton", trace=False)
    assert set(untraced["metrics"]) == set(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[k]
               for k, m in untraced["metrics"].items())


def test_wrong_expected_label_counts_as_failed():
    def edit(cases):
        first = cases[0]
        first.expected = "Stable" if first.expected == "Unstable" else "Unstable"
        return cases

    result, lines, record = _measure("stability", trace=False,
                                     edit_cases=edit)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert record["error_rate"] == pytest.approx(1 / result["attempted"])
    assert any("FAILED" in line and "label" in line for line in lines)


def test_traced_run_has_spans_for_every_layer(traced):
    seen = set()
    for workload, (result, _, record) in traced.items():
        with open(record["spans_file"]) as fh:
            spans = json.load(fh)["spans"]
        seen |= {s[1] for s in spans}
        assert record["per_layer"]["trace.coverage_frac"] >= 0.9, workload
    assert set(tracing.CYLREACT_FUNCTIONS) <= seen
