"""Outside-in benchmark of cylreact: one workload, one closed-loop caller.

Run from the root of a checkout (the directory holding ``src/cylreact``):

    python3 benchmark/run.py --workload newton --seed 1 --seconds 10 --trace 0

Workloads: newton, stability, nonlocal, cli (see benchmark/README.md).  The
run pins every BLAS/OpenMP thread count to 1, measures set-up in fresh
processes, then runs whole passes over the workload's cases until
``--seconds`` have elapsed.  Each op's output is checked after it is timed;
a failed check or an error counts as a failed op and its time is dropped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one more
pass with spans recorded around every cylreact call and prints the
per-layer metrics, including the tracing overhead against the untraced
pass on the same inputs.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the provenance block (and,
traced, the spans) is written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: cylreact's counterexample output depends on
# the BLAS thread count, and so does classify's timing.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import tracing  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
WORKLOADS = ("newton", "stability", "nonlocal", "cli")

# name -> unit; the order is the print order.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Medians per op type, measured untraced.  Each exists only on the
# workloads that run that op, so they are reported with the per-layer set.
OP_MEDIANS = {"solve": "solve_s_p50", "classify": "classify_s_p50",
              "counterexample": "counterexample_s_p50",
              "battery": "battery_s_p50", "cli_run": "cli_run_s_p50"}
PER_LAYER = {**{name: "s" for name in OP_MEDIANS.values()},
             "error_rate": "ratio", **tracing.LAYER_UNITS,
             "trace.overhead_frac": "ratio"}


def source_present(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "cylreact", "__init__.py"))


def prepare_import_path(root: str) -> None:
    """Import cylreact from the checkout's source tree, never elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")


@dataclass
class Outcome:
    case: str
    kind: str
    wall: float
    timings: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    error: str | None = None
    known: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def run_case(case, workdir: str, known_failures: dict,
             tracer=None) -> Outcome:
    from workloads import OpContext

    ctx = OpContext(workdir=workdir, tracer=tracer)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = case.run(ctx)
        else:
            with tracer.span("bench.op", "bench", case=case.name) as attrs:
                out = case.run(ctx)
    except Exception as err:  # noqa: BLE001 — a failed op must not stop the run
        wall = time.perf_counter() - t0
        name = type(err).__name__
        return Outcome(case.name, case.kind, wall,
                       error=f"{name}: {err}\n{traceback.format_exc(limit=3)}",
                       known=known_failures.get(case.name) == name)
    wall = time.perf_counter() - t0
    timings = {case.kind: wall, **ctx.timings}
    try:
        problems = case.check(out)
    except Exception as err:  # noqa: BLE001 — malformed output fails the op
        problems = [f"output check raised {type(err).__name__}: {err}"]
    if tracer is not None and isinstance(out, dict):
        attrs.update(out.get("span_attrs", {}))
    return Outcome(case.name, case.kind, wall, timings, problems)


def run_cycles(workload: str, seed: int, seconds: float, workdir: str,
               known_failures: dict, small: bool = False, edit_cases=None,
               tracer=None, max_cycles: int | None = None):
    """Whole passes over the case list until ``seconds`` have elapsed.

    Pass c draws its inputs from the generator seeded with (seed, c), so a
    traced pass with ``max_cycles=1`` replays the inputs of untraced pass 0.
    """
    import numpy as np
    from workloads import CASES

    outcomes, cycle_walls = [], []
    t_start = time.perf_counter()
    cycle = 0
    while True:
        rng = np.random.default_rng([seed % 2 ** 64, cycle])
        cases = CASES[workload](rng, small=small)
        if edit_cases is not None:
            cases = edit_cases(cases)
        t0 = time.perf_counter()
        outcomes += [run_case(c, workdir, known_failures, tracer)
                     for c in cases]
        cycle_walls.append(time.perf_counter() - t0)
        cycle += 1
        if max_cycles is not None and cycle >= max_cycles:
            break
        if time.perf_counter() - t_start >= seconds:
            break
    return outcomes, time.perf_counter() - t_start, cycle_walls


def setup_times(workload: str, workdir: str, n: int = SETUP_PROBES) -> list:
    """Fresh-process set-up: interpreter start, ``import cylreact`` and the
    workload's warm-up call, up to the point the first op could start."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, workload, workdir],
                              capture_output=True, text=True, timeout=170,
                              check=True, cwd=ROOT)
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def op_medians(outcomes) -> dict:
    """Median seconds and sample count per op type, ok ops only."""
    samples = {}
    for o in outcomes:
        if o.ok:
            for kind, t in o.timings.items():
                samples.setdefault(kind, []).append(t)
    return {kind: (statistics.median(v), len(v)) for kind, v in samples.items()}


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, traced: bool) -> dict:
    import numpy
    import scipy
    import sympy

    def blas(show_config):
        deps = show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}

    thread_env = {k: v for k, v in sorted(os.environ.items())
                  if k.endswith("_NUM_THREADS") or k.startswith("OMP_")
                  or k in ("VECLIB_MAXIMUM_THREADS", "CYLREACT_THREADS")}
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "thread_env": thread_env,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "closed_loop_callers": 1,
    }


def _fmt(name, value, unit, n=None) -> str:
    count = f"  (n={n})" if n is not None else ""
    return f"  {name:34s} {value:>14.6g} {unit}{count}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, edit_cases=None, probes: int = SETUP_PROBES):
    """Run one benchmark; returns (result dict, report lines, record dict)."""
    from workloads import load_reference, warm_up

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    known = load_reference()["known_failures"]

    setup = setup_times(workload, workdir, probes)
    warm_up(workload, workdir)
    outcomes, phase_wall, cycle_walls = run_cycles(
        workload, seed, seconds, workdir, known, small, edit_cases)
    ok = [o for o in outcomes if o.ok]
    medians = op_medians(outcomes)
    lines = [f"workload {workload}  seed {seed}  traced {int(trace)}  "
             f"passes {len(cycle_walls)}  ops {len(outcomes)}  "
             f"timed {phase_wall:.3f} s"]
    e2e = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (len(ok) / phase_wall, len(ok)),
        "peak_rss_mb": (peak_rss_mb(), None),
    }
    lines.append("end-to-end (untraced):")
    for name, unit in END_TO_END.items():
        lines.append(_fmt(name, e2e[name][0], unit, e2e[name][1]))
    for kind, name in OP_MEDIANS.items():
        value, n = medians.get(kind, (0.0, 0))
        lines.append(_fmt(name, value, "s", n))
    error_rate = (len(outcomes) - len(ok)) / len(outcomes)
    lines.append(_fmt("error_rate", error_rate, "ratio", len(outcomes)))

    all_outcomes = list(outcomes)
    layer = {}
    spans = []
    if trace:
        first_pass = outcomes[:len(outcomes) // len(cycle_walls)]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, _, _ = run_cycles(workload, seed, 0.0, workdir, known,
                                      small, edit_cases, tracer=tracer,
                                      max_cycles=1)
        all_outcomes += traced
        spans = tracer.spans
        layer = tracing.layer_metrics(spans)
        untraced_wall = sum(o.wall for o in first_pass)
        layer["trace.overhead_frac"] = (
            sum(o.wall for o in traced) - untraced_wall) / untraced_wall
        for kind, name in OP_MEDIANS.items():
            layer[name] = medians.get(kind, (0.0, 0))[0]
        layer["error_rate"] = error_rate
        lines.append("per-layer (traced pass; op medians untraced; nnz, "
                     "flop and bytes figures are computed from shapes, "
                     "not hardware counters):")
        for name, unit in PER_LAYER.items():
            lines.append(_fmt(name, layer[name], unit))

    failed = [o for o in all_outcomes if not o.ok]
    correct = all(o.known for o in failed)
    for o in failed:
        why = "; ".join(o.problems) or o.error.splitlines()[0]
        tag = "known failure" if o.known else "FAILED"
        lines.append(f"  {tag}: {o.case}: {why}")
    if trace:
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": len(all_outcomes),
              "failed": len(failed), "metrics": metrics}
    record = {
        "provenance": provenance(workload, seed, trace),
        "end_to_end": {k: {"value": v[0], "unit": END_TO_END[k], "n": v[1]}
                       for k, v in e2e.items()},
        "op_medians": {OP_MEDIANS.get(k, f"{k}_s_p50"): {"value": v, "n": n}
                       for k, (v, n) in medians.items()},
        "error_rate": error_rate,
        "setup_samples": setup,
        "pass_walls": cycle_walls,
        "outcomes": [o.__dict__ for o in all_outcomes],
        "per_layer": layer,
        "kernel_counts": tracing.per_call_kernels(spans) if trace else None,
        "result": result,
    }
    if trace:
        record["spans_file"] = _write_json(
            f"spans-{workload}-seed{seed}.json",
            {"fields": ["name", "layer", "start", "end", "parent", "attrs"],
             "spans": spans})
    shutil.rmtree(workdir, ignore_errors=True)
    return result, lines, record


def _write_json(name: str, obj) -> str:
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, default=str)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present(ROOT):
        print(f"error: no src/cylreact under {ROOT}; run from the root of a "
              "cylreact checkout", file=sys.stderr)
        return 2
    prepare_import_path(ROOT)
    result, lines, record = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    path = _write_json(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        record)
    print("\n".join(lines))
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(f"results file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
