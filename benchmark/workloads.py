"""The four workloads: their cases, the output check of each case, warm-up.

A workload is a fixed, ordered list of cases (one pass is a "cycle").  The
workload seed draws the inputs that vary between runs: the pinned-trace
amplitudes of the p-Laplace states, the noise seed of the free-form CLI
solve, and the spectral initial coefficients.  cylreact sees only the
generated inputs.  Every case calls cylreact through its public API or its
``python -m cylreact`` command line, and every output is checked after the
timed call; a failed check counts as a failed op and its time is not used.

``small=True`` shrinks every size for the benchmark's self-test.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import cylreact
from cylreact import fractional1d, presets, solver, verify
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import DomainSpec, build_grid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
CLI_CHILD = os.path.join(BENCH_DIR, "cli_child.py")

NEWTON_TOL = 1e-10
MU1_TOL = 1e-8
CLI_TIMEOUT_S = 170.0
# Seeded pinned-trace amplitudes of the p-Laplace states: a 0.25 grid in
# [1, 3].
AMPLITUDES = tuple(1.0 + 0.25 * k for k in range(9))
# The mean-curvature states use fixed amplitudes.  Their Newton iteration
# count jumps with the amplitude (at 65^2: 8 at a = 2.25, 34 at 2.5, 9 at
# 2.75; at 129^2, a = 2.5 runs past 90 s), so a seeded draw would swing a
# pass's time several-fold.  a = 2.5 at 65^2 is kept as a fixed case so the
# slow convergence stays measured.
MC_NEWTON = ((1.5, 129), (2.5, 65))
MC_STABILITY = (2.0, 65)


@dataclass
class OpContext:
    """What a case may use while it runs: the tracer (None when untraced), a
    scratch directory inside the checkout, and timings of parts of the op
    by op type (the whole op's wall time is recorded under its own kind
    unless the case sets that kind itself)."""

    workdir: str
    tracer: Any = None
    timings: dict = field(default_factory=dict)


@dataclass
class Case:
    """One op.  ``run`` is timed; ``check`` runs afterwards and returns the
    reasons the output is wrong (empty when it is right)."""

    name: str
    kind: str
    run: Callable[[OpContext], Any]
    check: Callable[[Any], list] | None = None
    expected: str | None = None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _cubic_linear() -> solver.ReactionSpec:
    return solver.ReactionSpec.custom(
        f=lambda v: -np.asarray(v, dtype=float) - np.asarray(v, dtype=float) ** 3,
        f_prime=lambda v: -1.0 - 3.0 * np.asarray(v, dtype=float) ** 2,
        f_second=lambda v: -6.0 * np.asarray(v, dtype=float))


def _pinned_top(state) -> tuple:
    return ("dirichlet", state.values[..., -1].ravel().copy())


def _draw_pair(rng) -> tuple[float, float]:
    """An antithetic pair (a, 4 - a) in [1, 3].  p-Laplace Newton work grows
    with the amplitude, so the pair's total varies far less between seeds
    than two free draws would, which keeps a pass's time steady."""
    a = float(rng.choice(AMPLITUDES[:5]))
    return a, 4.0 - a


# -- Newton problems ----------------------------------------------------------

@dataclass
class NewtonProblem:
    """A pinned-top Newton solve: how to build it, and its expected label."""

    key: str
    build: Callable[[], tuple]   # -> (model, reaction, grid, init, top)
    expected: str | None = None


def _preset_problem(name: str, n: int) -> NewtonProblem:
    p = presets.get_preset(name)

    def build():
        grid = p.build_grid(nx=n, ny=n)
        exact = p.exact_state(grid)
        return p.model(), p.reaction(), grid, exact, _pinned_top(exact)
    return NewtonProblem(f"{name}/{n}", build, p.expected_classification)


def _nonlinear_problem(family: str, a: float, n: int) -> NewtonProblem:
    """f = -u - u^3 on (0, pi) x (0, 2) with the top pinned to a cos x,
    started from a cos x * y / 2."""
    if family == "p-laplace":
        model, grading = CoefficientModel.power_weight_p_laplace(0.0, 3.0), 0.0
    else:
        model, grading = CoefficientModel.mean_curvature_weight(-0.5), 0.5
    domain = DomainSpec.interval(0.0, np.pi)

    def build():
        grid = build_grid(domain, nx=n, ny=n, y_max=2.0, grading=grading)
        init = grid.field(lambda x, y: a * np.cos(x) * y / 2.0)
        return model, _cubic_linear(), grid, init, _pinned_top(init)
    return NewtonProblem(f"{family}/{n}/a={a:g}", build)


def _rectangle_problem(nx: int, nz: int, ny: int) -> NewtonProblem:
    """e^{-y} cos x on (0, 2 pi) x (0, pi) x (0, 8), reaction f(u) = u."""
    domain = DomainSpec.rectangle(0.0, 2.0 * np.pi, 0.0, np.pi)

    def build():
        grid = build_grid(domain, nx=nx, ny=ny, y_max=8.0, nz=nz)
        exact = solver.catalog_solution(solver.DECAY_COS, grid)
        return (CoefficientModel.constant_one(),
                solver.ReactionSpec.linear(1.0), grid, exact,
                _pinned_top(exact))
    return NewtonProblem(f"rectangle/{nx}x{nz}x{ny}", build, "Unstable")


def _solve(problem: NewtonProblem, ctx: OpContext) -> dict:
    t0 = time.perf_counter()
    model, reaction, grid, init, top = problem.build()
    report = cylreact.solve_newton(model, reaction, grid, init,
                                   tol=NEWTON_TOL, top_bc=top)
    ctx.timings["solve"] = time.perf_counter() - t0
    return {"model": model, "reaction": reaction, "top": top,
            "report": report}


def _check_solve(out: dict) -> list:
    report = out["report"]
    if not report.converged:
        return [f"Newton did not converge (residual {report.final_residual:.3e})"]
    # Recompute the residual rather than trust the report.
    r = cylreact.residual_vector(report.u, out["model"], out["reaction"],
                                 out["top"])
    worst = float(np.max(np.abs(r)))
    return [] if worst <= NEWTON_TOL else [f"residual {worst:.3e} > tol"]


def _solve_case(problem: NewtonProblem) -> Case:
    return Case(f"solve/{problem.key}", "solve",
                lambda ctx: _solve(problem, ctx), _check_solve)


def _classify_case(problem: NewtonProblem, reference: dict | None) -> Case:
    """Solve, then classify the converged state (the Stability experiment)."""

    def run(ctx):
        out = _solve(problem, ctx)
        if out["report"].converged:
            t0 = time.perf_counter()
            out["stability"] = cylreact.classify(
                out["report"].u, out["model"], out["reaction"])
            ctx.timings["classify"] = time.perf_counter() - t0
        return out

    case = Case(f"classify/{problem.key}", "classify", run,
                expected=problem.expected)

    def check(out):
        problems = _check_solve(out)
        if problems:
            return problems
        rep = out["stability"]
        if rep.classification != case.expected:
            problems.append(f"label {rep.classification}, expected "
                            f"{case.expected}")
        if reference is not None:
            ref = reference.get(problem.key)
            if ref is None:
                problems.append(f"no reference mu1 for {problem.key}")
            elif abs(rep.mu1 - ref) > MU1_TOL:
                problems.append(f"mu1 {rep.mu1!r} differs from reference "
                                f"{ref!r} by more than {MU1_TOL:g}")
        return problems

    case.check = check
    return case


# -- workloads ---------------------------------------------------------------

def newton_cases(rng, small: bool = False) -> list[Case]:
    ladder = (17, 25, 33) if small else (129, 193, 257)
    problems = [_preset_problem(name, n)
                for name in ("grow-cos-stable", "decay-cos-unstable")
                for n in ladder]
    problems += [_nonlinear_problem("p-laplace", a, 17 if small else 129)
                 for a in _draw_pair(rng)]
    problems += [_nonlinear_problem("mean-curvature", a, 17 if small else n)
                 for a, n in MC_NEWTON]
    problems.append(_rectangle_problem(*((9, 5, 9) if small else (33, 9, 33))))
    return [_solve_case(p) for p in problems]


def stability_problems(small: bool = False) -> list[NewtonProblem]:
    sizes = (17, 49) if small else (33, 129)
    problems = [_preset_problem(p.name, n) for n in sizes
                for p in presets.stability_quartet()]
    a, n = MC_STABILITY
    mc = _nonlinear_problem("mean-curvature", a, 17 if small else n)
    mc.expected = "Stable"
    problems.append(mc)
    problems.append(_rectangle_problem(*((7, 7, 7) if small else (17, 17, 17))))
    return problems


def stability_cases(rng, small: bool = False) -> list[Case]:
    """The stability states are fixed (the seed draws nothing here), so
    every one has a recorded mu1."""
    reference = None if small else load_reference()["mu1"]
    return [_classify_case(p, reference) for p in stability_problems(small)]


def _zero_target(x):
    return np.zeros_like(x)


def _counterexample_case(fit_nodes: int, eps: float) -> Case:
    def run(ctx):
        return cylreact.construct_counterexample(_zero_target, eps=eps, s=0.5,
                                                 fit_nodes=fit_nodes)

    def check(res):
        """The criterion-10 gates."""
        b = eps / 11.0
        problems = []
        for label, d in (("delta1", res.delta1), ("delta2", res.delta2)):
            if not b <= d <= 4.0 * b:
                problems.append(f"{label} {d:.6g} outside [eps/11, 4 eps/11]")
        if res.interior_residual > 1e-8:
            problems.append(f"interior residual {res.interior_residual:.3e}")
        side = fractional1d.Side
        for point, s in ((-1.0 - res.delta1, side.FROM_LEFT_INTERVAL),
                         (1.0 + res.delta2, side.FROM_RIGHT_INTERVAL)):
            nd = fractional1d.fractional_normal_derivative(
                (res.x, res.v), res.s, point, s)
            if abs(nd) > 1e-4:
                problems.append(f"boundary-limit coefficient {nd:.3e}")
        return problems

    return Case(f"counterexample/fit={fit_nodes}/eps={eps:g}",
                "counterexample", run, check)


def _semilinear_case(rng, small: bool) -> Case:
    """Seeded constancy runs of the spectral semilinear solve."""
    cubic_linear = _cubic_linear()
    runs = []
    for domain, K in ((DomainSpec.interval(0.0, np.pi), 12),
                      (DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi), 16)):
        runs += [(domain, K, rng.normal(0.0, 0.5, size=K))
                 for _ in range(2 if small else 10)]

    def run(ctx):
        out = []
        for domain, K, c0 in runs:
            basis = cylreact.neumann_basis(domain, K)
            out.append(cylreact.solve_semilinear(
                basis, cubic_linear, cylreact.SpectralFunction(basis, c0)))
        return out

    def check(sols):
        worst = max(float(np.sum(s.coeffs[1:] ** 2)) for s in sols)
        return [] if worst <= 1e-12 else [f"non-constant energy {worst:.3e}"]

    return Case("semilinear/constancy", "semilinear", run, check)


def _extension_case(rng, small: bool) -> Case:
    n = 33 if small else 129
    c0 = 1e-3 * rng.normal(size=32)
    cubic = solver.ReactionSpec.custom(
        f=lambda v: -np.asarray(v) ** 3,
        f_prime=lambda v: -3.0 * np.asarray(v) ** 2)

    def run(ctx):
        domain = DomainSpec.interval(0.0, np.pi)
        basis = cylreact.neumann_basis(domain, 32)
        grid = build_grid(domain, nx=n, ny=n, y_max=19.0)
        return cylreact.extension_equivalence(
            basis, cubic, grid, init=cylreact.SpectralFunction(basis, c0))

    def check(disc):
        return [] if disc <= 1e-6 else [f"discrepancy {disc:.3e} > 1e-6"]

    return Case(f"extension/{n}", "extension", run, check)


def _compare_case(small: bool) -> Case:
    nodes = (513, 1025) if small else (2049, 4097)

    def run(ctx):
        domain = DomainSpec.interval(0.0, np.pi)
        basis = cylreact.neumann_basis(domain, 16)
        bump = np.exp(-((basis.x_nodes - np.pi / 2) / 0.4) ** 2)
        w = cylreact.SpectralFunction(
            basis, np.array([basis.inner(bump, k) for k in range(basis.K)]))
        return [cylreact.compare_operators(domain, w, 0.5, op_nodes=m)
                for m in nodes]

    def check(d):
        change = abs(d[1] - d[0]) / d[0]
        ok = min(d) > 0.01 and change <= 0.10
        return [] if ok else [f"discrepancies {d}, change {change:.3f}"]

    return Case(f"compare/{nodes[0]}-{nodes[1]}", "compare", run, check)


def _battery_case() -> Case:
    def run(ctx):
        return verify.run_all()

    def check(records):
        if verify.overall_status(records) == verify.PASS:
            return []
        return [f"{r.name}: {r.status}" for r in records
                if r.status == verify.FAIL]

    return Case("battery/run_all", "battery", run, check)


def nonlocal_cases(rng, small: bool = False) -> list[Case]:
    fits = (129,) if small else (513, 1025)
    cases = [_counterexample_case(f, eps) for f in fits
             for eps in (0.4, 0.5, 0.6)]
    cases += [_semilinear_case(rng, small), _extension_case(rng, small),
              _compare_case(small), _battery_case()]
    return cases


# -- command line ------------------------------------------------------------

def child_env(out_dir: str) -> dict:
    """The caller's environment (thread pins, PYTHONPATH to the checkout's
    src) with the CLI's output directory redirected."""
    return {**os.environ, "CYLREACT_OUT": out_dir}


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _cli_case(name: str, argv: list, config: dict | None,
              mu1_key: str | None = None) -> Case:
    """One ``cylreact`` subprocess, to exit.  Traced runs start it through
    cli_child.py, which records spans inside the child."""

    def run(ctx):
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=ctx.workdir)
        args = list(argv)
        if config is not None:
            path = os.path.join(out_dir, "config.json")
            with open(path, "w") as fh:
                json.dump({**config, "output_dir": out_dir}, fh)
            args.append(path)
        env = child_env(os.path.join(out_dir, "out"))
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "cylreact", *args]
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        else:
            spans_path = os.path.join(out_dir, "spans.json")
            cmd = [sys.executable, CLI_CHILD, spans_path, *args]
            with ctx.tracer.span("cli.process", "cli"):
                parent = ctx.tracer.current_index()
                proc = subprocess.run(cmd, env=env, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
            _merge_child_spans(ctx.tracer, spans_path, parent)
        return {"proc": proc, "out_dir": out_dir}

    def check(out):
        proc, out_dir = out["proc"], out["out_dir"]
        report_dir = os.path.join(out_dir, "out")
        try:
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
            report_path = os.path.join(report_dir, "report.json")
            if not os.path.exists(report_path):
                return problems + ["no report.json"]
            with open(report_path) as fh:
                report = json.load(fh)
            if report.get("overall") != verify.PASS:
                problems.append(f"report overall {report.get('overall')}")
            if mu1_key is not None:
                ref = load_reference()["mu1"][mu1_key]
                mu1 = report["records"][0]["measured"]
                if abs(mu1 - ref) > MU1_TOL:
                    problems.append(f"mu1 {mu1!r} differs from reference "
                                    f"{ref!r}")
            out["span_attrs"] = {"report_bytes": _dir_bytes(report_dir)}
            return problems
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    return Case(f"cli/{name}", "cli_run", run, check)


def _merge_child_spans(tracer, path: str, parent: int) -> None:
    """Attach the spans a traced child wrote under its cli.process span."""
    try:
        with open(path) as fh:
            spans = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return
    base = len(tracer.spans)
    for name, layer, start, end, p, attrs in spans:
        tracer.add(name, layer, start, end,
                   parent if p < 0 else base + p, attrs)


def cli_cases(rng, small: bool = False) -> list[Case]:
    n_solve, n_free, n_stab = (33, 17, 49) if small else (257, 129, 129)
    free_form = {
        "experiment": "Solve",
        "domain": {"kind": "interval", "x_min": 0.0, "x_max": np.pi},
        "grid": {"nx": n_free, "ny": n_free, "y_max": 2.0},
        "model": {"family": "power_weight_p_laplace", "theta": 0.0, "p": 3.0},
        "reaction": {"f": "-u - u**3"},
        "seed": int(rng.integers(0, 2 ** 31)),
    }
    return [
        _cli_case(f"solve/grow-cos-stable/{n_solve}", ["run"],
                  {"experiment": "Solve", "preset": "grow-cos-stable",
                   "grid": {"nx": n_solve, "ny": n_solve}}),
        _cli_case(f"solve/p-laplace/{n_free}", ["run"], free_form),
        _cli_case(f"stability/decay-cos-unstable/{n_stab}", ["run"],
                  {"experiment": "Stability", "preset": "decay-cos-unstable",
                   "grid": {"nx": n_stab, "ny": n_stab}},
                  mu1_key=None if small else f"decay-cos-unstable/{n_stab}"),
        _cli_case("verify-all", ["verify-all"], None),
    ]


CASES = {
    "newton": newton_cases,
    "stability": stability_cases,
    "nonlocal": nonlocal_cases,
    "cli": cli_cases,
}


# -- warm-up -----------------------------------------------------------------

def warm_up(workload: str, workdir: str) -> None:
    """One small op on the workload's paths, so lazy imports and first-call
    costs land in set-up rather than in the first timed op."""
    ctx = OpContext(workdir=workdir)
    if workload == "newton":
        _solve(_nonlinear_problem("p-laplace", 1.0, 9), ctx)
        _solve(_preset_problem("grow-cos-stable", 17), ctx)
    elif workload == "stability":
        _classify_case(_preset_problem("decay-cos-unstable", 17), None).run(ctx)
    elif workload == "nonlocal":
        _semilinear_case(np.random.default_rng(0), small=True).run(ctx)
        _compare_case(small=True).run(ctx)
    elif workload == "cli":
        subprocess.run([sys.executable, "-m", "cylreact", "list-presets"],
                       env=child_env(workdir), capture_output=True,
                       timeout=CLI_TIMEOUT_S, check=True)
    else:
        raise ValueError(f"unknown workload {workload!r}")
