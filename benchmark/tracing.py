"""In-memory span tracing around cylreact's public functions.

The tracer wraps functions from the outside: each cylreact module's public
functions, a few grid methods, and the scipy/numpy entry points those
modules call (sparse LU and its solves, LSMR, eigsh with the LU-solve
operator it builds for shift-invert, dense eigh, dense solves).  Nothing
inside ``src/cylreact`` changes.  A span is (name, layer, start, end,
parent, attrs); spans live in a list until the run writes them out.

A span's layer is its cylreact module, or for a scipy/numpy span the
module of the innermost cylreact span around it, so ``solver.splu_s``
counts only factorizations that Newton asked for and not the one eigsh
builds.  ``layer_metrics`` turns a span list into the per-layer figures
named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, public functions) wrapped in every cylreact module that binds them.
CYLREACT_FUNCTIONS = {
    "cylinder": ("build_grid", "field_to_csv", "gradient", "integrate"),
    "forms": ("coefficient_state", "weak_residual_vector",
              "assemble_energy_matrix", "mass_matrix", "energy_quadrature"),
    "coefficients": ("check_structural",),
    "solver": ("solve_newton", "residual_vector", "residual_weak",
               "catalog_solution", "extremum_sign_check"),
    "stability": ("classify", "assemble_I", "min_rayleigh", "default_tol",
                  "form_J"),
    "geometry": ("poincare_sides", "bulk_bracket", "level_set_weights",
                 "lateral_boundary_term", "log_cutoff"),
    "spectral": ("neumann_basis", "solve_semilinear", "extension_equivalence",
                 "extend_harmonic", "apply_fractional", "eig_growth_check"),
    "fractional1d": ("construct_counterexample", "make_operator",
                     "operator_rows", "apply_integral_fraclap",
                     "fractional_normal_derivative", "solve_exterior_value",
                     "compare_operators"),
    "verify": ("run_all",),
    "cli": ("write_report", "run_config", "verify_all"),
}
GRID_METHODS = ("gradient_operators", "pairing_gradient_operators", "field")


class Tracer:
    """Span recorder; ``installed()`` patches the wrappers in and out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def current_index(self) -> int:
        """Index of the innermost open span (-1 when none is open)."""
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str, layer: str | None = None, **attrs):
        """Record a span around the block; ``layer`` None inherits the
        enclosing span's layer.  Yields the span's attrs for annotation."""
        parent = self.current_index()
        if layer is None:
            layer = self.spans[parent][1] if parent >= 0 else "bench"
        record = [name, layer, time.perf_counter(), None, parent, attrs]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield attrs
        except BaseException as err:
            attrs["error"] = type(err).__name__
            raise
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int, attrs: dict) -> None:
        """Append a finished span (used for spans read from a child process)."""
        self.spans.append([name, layer, start, end, parent, attrs])

    def wrap(self, fn, name: str, layer: str | None, after=None):
        """fn wrapped in a span; ``after(attrs, args, result)`` may annotate."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer) as attrs:
                result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every wrapper in for the duration of the block."""
        patches = _install(self)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


class _TracedLU:
    """splu result whose ``solve`` records a span; other attributes pass."""

    def __init__(self, lu, tracer: Tracer, name: str):
        self._lu = lu
        self.solve = tracer.wrap(lu.solve, name, None)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# Result-derived span attributes, by wrapped function: after(attrs, args, result).
_AFTER = {
    "solver.solve_newton": lambda attrs, args, report: attrs.update(
        iterations=int(report.newton_iterations),
        converged=bool(report.converged)),
    "forms.assemble_energy_matrix": lambda attrs, args, A: attrs.update(
        nnz=int(A.nnz)),
    "cylinder.field_to_csv": lambda attrs, args, _: attrs.update(
        rows=int(args[0].values.size)),
    "verify.run_all": lambda attrs, args, records: attrs.update(
        wall_clock=[float(r.wall_clock) for r in records]),
}


def _install(tracer: Tracer) -> list:
    import numpy as np
    import scipy.linalg
    import scipy.sparse.linalg as spla

    from cylreact.cylinder import CylinderGrid

    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = {name: importlib.import_module(f"cylreact.{name}")
               for name in CYLREACT_FUNCTIONS}
    wrapped = {}
    for mod_name, fn_names in CYLREACT_FUNCTIONS.items():
        for fn_name in fn_names:
            original = getattr(modules[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped[id(original)] = tracer.wrap(original, name, mod_name,
                                                _AFTER.get(name))
    # Rebind in every cylreact module that imported the function by name.
    bound = [m for name, m in list(sys.modules.items())
             if name == "cylreact" or name.startswith("cylreact.")]
    for mod in bound:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                patch(mod, attr, wrapped[id(value)])
    verify = modules["verify"]
    criteria = tuple(
        tracer.wrap(fn, f"verify.{fn.__name__}", "verify")
        for fn in verify.CRITERIA)
    patch(verify, "CRITERIA", criteria)
    for meth in GRID_METHODS:
        patch(CylinderGrid, meth,
              tracer.wrap(getattr(CylinderGrid, meth),
                          f"cylinder.CylinderGrid.{meth}", "cylinder"))

    # scipy/numpy entry points; the layer is inherited from the caller.
    splu = spla.splu

    def traced_splu(A, *args, **kwargs):
        with tracer.span("scipy.splu") as attrs:
            lu = splu(A, *args, **kwargs)
        attrs["n"] = int(A.shape[0])
        attrs["nnz_a"] = int(A.nnz)
        with tracer.span("trace.kernel_count"):
            # nnz(L + U) with L's unit diagonal counted once.
            attrs["nnz_lu"] = int(lu.L.nnz + lu.U.nnz - A.shape[0])
        return _TracedLU(lu, tracer, "scipy.splu.solve")

    patch(spla, "splu", traced_splu)
    arpack = importlib.import_module(
        "scipy.sparse.linalg._eigen.arpack.arpack")
    patch(arpack, "splu", traced_splu)
    patch(arpack.SpLuInv, "_matvec",
          tracer.wrap(arpack.SpLuInv._matvec, "arpack.shift_invert_solve",
                      None))
    patch(spla, "lsmr", tracer.wrap(spla.lsmr, "scipy.lsmr", None))
    patch(spla, "eigsh", tracer.wrap(spla.eigsh, "scipy.eigsh", None))
    patch(scipy.linalg, "eigh", tracer.wrap(scipy.linalg.eigh, "scipy.eigh",
                                            None))

    def solve_after(attrs, args, result):
        a, b = args[0], args[1]
        attrs["n"] = int(a.shape[0])
        attrs["nrhs"] = 1 if b.ndim == 1 else int(b.shape[1])

    patch(np.linalg, "solve",
          tracer.wrap(np.linalg.solve, "numpy.solve", None, solve_after))
    patch(np.linalg, "lstsq", tracer.wrap(np.linalg.lstsq, "numpy.lstsq",
                                          None))
    return patches


# -- aggregation -------------------------------------------------------------

# Span-derived per-layer metrics and their units, in print order.
LAYER_UNITS = {
    "cylinder.operator_build_s": "s", "cylinder.csv_export_s": "s",
    "cylinder.csv_rows": "count",
    "forms.coefficient_state_s": "s", "forms.coefficient_state_calls": "count",
    "forms.residual_s": "s", "forms.residual_calls": "count",
    "forms.energy_assembly_s": "s", "forms.energy_assembly_calls": "count",
    "forms.energy_nnz": "count", "forms.mass_s": "s",
    "solver.splu_s": "s", "solver.splu_calls": "count",
    "solver.splu_nnz_a": "count", "solver.lu_fill_nnz": "count",
    "solver.lu_solve_s": "s", "solver.lsmr_fallbacks": "count",
    "solver.newton_self_s": "s", "solver.newton_iterations": "count",
    "solver.residual_evals": "count", "solver.armijo_backtracks": "count",
    "solver.step_accept_ratio": "ratio",
    "stability.assemble_s": "s", "coefficients.structural_check_s": "s",
    "stability.eigsh_s": "s", "stability.dense_eigh_s": "s",
    "stability.route_dense": "count", "stability.route_shift_invert": "count",
    "stability.shift_invert_solves": "count",
    "geometry.poincare_s": "s", "geometry.bracket_s": "s",
    "spectral.semilinear_s": "s", "spectral.semilinear_calls": "count",
    "spectral.extension_s": "s",
    **{f"verify.c{k:02d}_s": "s" for k in range(1, 12)},
    "fractional1d.counterexample_s": "s",
    "fractional1d.make_operator_calls": "count",
    "fractional1d.operator_rows_s": "s", "fractional1d.dense_solve_s": "s",
    "fractional1d.dense_solve_calls": "count",
    "fractional1d.dense_solve_flops": "flop",
    "fractional1d.dense_solve_bytes": "bytes",
    "fractional1d.noroot": "count",
    "cli.import_s": "s", "cli.report_write_s": "s", "cli.report_bytes": "bytes",
    "trace.coverage_frac": "ratio",
}

def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def _outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor of those names."""
    names = set(names)
    keep = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[4]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][4]
        if p < 0:
            keep.append(i)
    return keep


def _total(spans, names, layer=None) -> float:
    return sum(spans[i][3] - spans[i][2] for i in _outermost(spans, names)
               if layer is None or spans[i][1] == layer)


def _count(spans, name, layer=None) -> int:
    return sum(1 for s in spans
               if s[0] == name and (layer is None or s[1] == layer))


def _attr_sum(spans, name, key, layer=None) -> float:
    return sum(s[5].get(key, 0) for s in spans
               if s[0] == name and (layer is None or s[1] == layer))


def coverage(spans) -> float:
    """Share of op wall time that layer spans cover (``bench.op`` roots)."""
    ops = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    wall = sum(spans[i][3] - spans[i][2] for i in ops)
    covered = sum(s[3] - s[2] for s in spans
                  if s[4] >= 0 and spans[s[4]][0] == "bench.op")
    return covered / wall if wall > 0 else 0.0


def newton_counts(spans) -> dict:
    """Iterations, residual evaluations and backtracks summed over solves.

    Every Newton iteration evaluates one accepted trial residual; each
    other residual evaluation after the initial one is a rejected
    (backtracked) trial.
    """
    evals = {}
    for s in spans:
        if s[0] == "solver.residual_vector" and s[4] >= 0 \
                and spans[s[4]][0] == "solver.solve_newton":
            evals[s[4]] = evals.get(s[4], 0) + 1
    iters = trials = 0
    for i, s in enumerate(spans):
        if s[0] == "solver.solve_newton":
            iters += s[5].get("iterations", 0)
            trials += max(evals.get(i, 1) - 1, 0)
    return {"iterations": iters, "residual_evals": sum(evals.values()),
            "backtracks": trials - iters,
            "accept_ratio": iters / trials if trials else 1.0}


def dense_solve_kernels(spans, layer: str) -> list[dict]:
    """Computed size, flops and bytes of each dense solve in ``layer``.

    LU with partial pivoting costs 2/3 n^3 flops plus 2 n^2 per right-hand
    side for the triangular solves; the bytes are one pass over the float64
    matrix, right-hand sides and solution.  Computed from shapes on a CPU
    run, not read from hardware counters.
    """
    out = []
    for s in spans:
        if s[0] == "numpy.solve" and s[1] == layer:
            n, k = s[5]["n"], s[5]["nrhs"]
            out.append({"n": n, "nrhs": k,
                        "flops": 2.0 / 3.0 * n ** 3 + 2.0 * n * n * k,
                        "bytes": 8.0 * (n * n + 2 * n * k),
                        "seconds": s[3] - s[2]})
    return out


def layer_metrics(spans) -> dict:
    """Per-layer figures named in BENCHMARK.json, from one span list."""
    self_t = self_times(spans)
    newton = newton_counts(spans)
    dense = dense_solve_kernels(spans, "fractional1d")
    walls = [s[5]["wall_clock"] for s in spans
             if s[0] == "verify.run_all" and "wall_clock" in s[5]]
    m = {
        "cylinder.operator_build_s": _total(spans, (
            "cylinder.build_grid",
            "cylinder.CylinderGrid.gradient_operators",
            "cylinder.CylinderGrid.pairing_gradient_operators")),
        "cylinder.csv_export_s": _total(spans, ("cylinder.field_to_csv",)),
        "cylinder.csv_rows": _attr_sum(spans, "cylinder.field_to_csv", "rows"),
        "forms.coefficient_state_s": _total(spans, ("forms.coefficient_state",)),
        "forms.coefficient_state_calls": _count(spans, "forms.coefficient_state"),
        "forms.residual_s": _total(spans, ("forms.weak_residual_vector",)),
        "forms.residual_calls": _count(spans, "forms.weak_residual_vector"),
        "forms.energy_assembly_s": _total(spans, ("forms.assemble_energy_matrix",)),
        "forms.energy_assembly_calls": _count(spans, "forms.assemble_energy_matrix"),
        "forms.energy_nnz": _attr_sum(spans, "forms.assemble_energy_matrix", "nnz"),
        "forms.mass_s": _total(spans, ("forms.mass_matrix",)),
        "solver.splu_s": _total(spans, ("scipy.splu",), "solver"),
        "solver.splu_calls": _count(spans, "scipy.splu", "solver"),
        "solver.splu_nnz_a": _attr_sum(spans, "scipy.splu", "nnz_a", "solver"),
        "solver.lu_fill_nnz": _attr_sum(spans, "scipy.splu", "nnz_lu", "solver"),
        "solver.lu_solve_s": _total(spans, ("scipy.splu.solve",), "solver"),
        "solver.lsmr_fallbacks": _count(spans, "scipy.lsmr", "solver"),
        "solver.newton_self_s": sum(t for t, s in zip(self_t, spans)
                                    if s[0] == "solver.solve_newton"),
        "solver.newton_iterations": newton["iterations"],
        "solver.residual_evals": newton["residual_evals"],
        "solver.armijo_backtracks": newton["backtracks"],
        "solver.step_accept_ratio": newton["accept_ratio"],
        "stability.assemble_s": _total(spans, ("stability.assemble_I",)),
        "coefficients.structural_check_s": _total(
            spans, ("coefficients.check_structural",)),
        "stability.eigsh_s": _total(spans, ("scipy.eigsh",), "stability"),
        "stability.dense_eigh_s": _total(spans, ("scipy.eigh",), "stability"),
        "stability.route_dense": _count(spans, "scipy.eigh", "stability"),
        "stability.route_shift_invert": _count(spans, "scipy.eigsh", "stability"),
        "stability.shift_invert_solves": _count(
            spans, "arpack.shift_invert_solve", "stability"),
        "geometry.poincare_s": _total(spans, ("geometry.poincare_sides",)),
        "geometry.bracket_s": _total(spans, ("geometry.bulk_bracket",)),
        "spectral.semilinear_s": _total(spans, ("spectral.solve_semilinear",)),
        "spectral.semilinear_calls": _count(spans, "spectral.solve_semilinear"),
        "spectral.extension_s": _total(spans, ("spectral.extension_equivalence",)),
        "fractional1d.counterexample_s": _total(
            spans, ("fractional1d.construct_counterexample",)),
        "fractional1d.make_operator_calls": sum(
            1 for s in spans if s[0] == "fractional1d.make_operator"
            and s[4] >= 0
            and spans[s[4]][0] == "fractional1d.construct_counterexample"),
        "fractional1d.operator_rows_s": _total(spans, ("fractional1d.operator_rows",)),
        "fractional1d.dense_solve_s": sum(d["seconds"] for d in dense),
        "fractional1d.dense_solve_calls": len(dense),
        "fractional1d.dense_solve_flops": sum(d["flops"] for d in dense),
        "fractional1d.dense_solve_bytes": sum(d["bytes"] for d in dense),
        "fractional1d.noroot": sum(
            1 for s in spans if s[0] == "fractional1d.construct_counterexample"
            and s[5].get("error") == "NoRootError"),
        "cli.import_s": _total(spans, ("cli.import",)),
        "cli.report_write_s": _total(spans, ("cli.write_report",)),
        "cli.report_bytes": _attr_sum(spans, "bench.op", "report_bytes"),
        "trace.coverage_frac": coverage(spans),
    }
    for k in range(11):
        m[f"verify.c{k + 1:02d}_s"] = sum(w[k] for w in walls if len(w) == 11)
    return m


def per_call_kernels(spans) -> dict:
    """Computed kernel counts per call, for the results file."""
    return {
        "source": "computed from matrix shapes and sparsity (CPU run, "
                  "no hardware counters)",
        "splu": [{"layer": s[1], "n": s[5].get("n"),
                  "nnz_a": s[5].get("nnz_a"), "nnz_lu": s[5].get("nnz_lu")}
                 for s in spans if s[0] == "scipy.splu"],
        "fractional1d_dense_solves": dense_solve_kernels(spans, "fractional1d"),
        "classify": [_classify_route(spans, i) for i, s in enumerate(spans)
                     if s[0] == "stability.classify"],
    }


def _classify_route(spans, idx) -> dict:
    inside = []
    stack = [idx]
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[4], []).append(i)
    while stack:
        j = stack.pop()
        inside.append(j)
        stack.extend(children.get(j, []))
    names = [spans[j][0] for j in inside]
    route = "shift-invert" if "scipy.eigsh" in names else "dense"
    return {"route": route,
            "shift_invert_solves": names.count("arpack.shift_invert_solve"),
            "seconds": spans[idx][3] - spans[idx][2]}
