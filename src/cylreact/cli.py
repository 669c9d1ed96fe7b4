"""Configuration-driven experiment runner and report writer.

Config files are JSON with the schema (all sections optional unless the
experiment needs them; ``preset`` fills every omitted section from the
named preset):

    {
      "experiment": "Solve" | "Stability" | "Poincare" | "Spectral"
                  | "ExtensionEquivalence" | "Fractional"
                  | "Counterexample" | "VerifyAll",
      "preset": "grow-cos-stable",
      "domain": {"kind": "interval", "x_min": 0.0, "x_max": 3.14159}
              | {"kind": "rectangle", "x_min": .., "x_max": ..,
                 "z_min": .., "z_max": ..},
      "grid": {"nx": 33, "ny": 33, "y_max": 4.0, "grading": 0.0,
               "nz": null},
      "model": {"family": "constant_one" | "exp_y" | "power_weight"
                        | "power_weight_p_laplace"
                        | "mean_curvature_weight",
                "theta": 0.0, "p": 2.0},
      "reaction": {"f": "-u", "g": null},
      "tolerances": {"newton": 1e-10, ...},
      "output_dir": "cylreact-out",
      "seed": 0
    }

Reaction entries are expressions in ``u`` (and ``y`` for the bulk source
``g``); derivatives are taken symbolically.  Exit codes: 0 all applicable
checks pass, 1 a check or solve failed, 2 the config did not parse or
validate.  Environment override: CYLREACT_OUT replaces output_dir.
Reports are byte-identical across reruns of the same config and seed
except for wall-clock fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import fractional1d, geometry, presets, solver, spectral, stability, verify
from .coefficients import CoefficientModel
from .cylinder import CylinderField, DomainSpec, build_grid, field_to_csv
from .solver import ReactionSpec
from .verify import FAIL, NOT_APPLICABLE, PASS, CheckRecord

EXPERIMENTS = ("Solve", "Stability", "Poincare", "Spectral",
               "ExtensionEquivalence", "Fractional", "Counterexample",
               "VerifyAll")

_MODEL_FAMILIES = ("constant_one", "exp_y", "power_weight",
                   "power_weight_p_laplace", "mean_curvature_weight")


class ConfigError(ValueError):
    """Config failed to parse or validate (CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    experiment: str
    preset: str | None = None
    domain: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    reaction: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    output_dir: str = "cylreact-out"
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - {"experiment", "preset", "domain", "grid",
                              "model", "reaction", "tolerances",
                              "output_dir", "seed"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
        preset = raw.get("preset")
        if preset is not None and preset not in presets.preset_names():
            raise ConfigError(f"unknown preset {preset!r}")
        domain = dict(raw.get("domain") or {})
        if domain:
            kind = domain.get("kind")
            if kind not in ("interval", "rectangle"):
                raise ConfigError("domain.kind must be interval or rectangle")
            needed = {"x_min", "x_max"} | (
                {"z_min", "z_max"} if kind == "rectangle" else set())
            missing = needed - set(domain)
            if missing:
                raise ConfigError(f"domain missing {sorted(missing)}")
        grid = dict(raw.get("grid") or {})
        for k in ("nx", "ny"):
            if k in grid and (not isinstance(grid[k], int) or grid[k] < 3):
                raise ConfigError(f"grid.{k} must be an integer >= 3")
        model = dict(raw.get("model") or {})
        if model and model.get("family") not in _MODEL_FAMILIES:
            raise ConfigError(
                f"model.family must be one of {_MODEL_FAMILIES}")
        reaction = dict(raw.get("reaction") or {})
        tolerances = dict(raw.get("tolerances") or {})
        for k, v in tolerances.items():
            if not (isinstance(v, (int, float)) and v > 0):
                raise ConfigError(f"tolerances.{k} must be > 0")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be an unsigned integer")
        output_dir = raw.get("output_dir", "cylreact-out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir must be a nonempty string")
        return cls(experiment=experiment, preset=preset, domain=domain,
                   grid=grid, model=model, reaction=reaction,
                   tolerances=tolerances, output_dir=output_dir, seed=seed)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "preset": self.preset,
            "domain": dict(self.domain),
            "grid": dict(self.grid),
            "model": dict(self.model),
            "reaction": dict(self.reaction),
            "tolerances": dict(self.tolerances),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }


# -- config materialization --------------------------------------------------

def _build_domain(cfg: ExperimentConfig) -> DomainSpec:
    if cfg.domain:
        d = cfg.domain
        if d["kind"] == "interval":
            return DomainSpec.interval(float(d["x_min"]), float(d["x_max"]))
        return DomainSpec.rectangle(float(d["x_min"]), float(d["x_max"]),
                                    float(d["z_min"]), float(d["z_max"]))
    if cfg.preset:
        return presets.get_preset(cfg.preset).domain
    raise ConfigError("experiment needs a domain or a preset")


def _build_grid(cfg: ExperimentConfig):
    domain = _build_domain(cfg)
    g = dict(cfg.grid)
    if cfg.preset:
        p = presets.get_preset(cfg.preset)
        g.setdefault("nx", p.nx)
        g.setdefault("ny", p.ny)
        g.setdefault("y_max", p.y_max)
        g.setdefault("grading", p.grading)
        g.setdefault("nz", p.nz)
    try:
        return build_grid(domain, nx=int(g["nx"]), ny=int(g["ny"]),
                          y_max=float(g["y_max"]),
                          grading=float(g.get("grading", 0.0)),
                          nz=g.get("nz"))
    except KeyError as err:
        raise ConfigError(f"grid section missing {err}")


def _build_model(cfg: ExperimentConfig) -> CoefficientModel:
    if cfg.model:
        m = cfg.model
        family = m["family"]
        if family == "constant_one":
            return CoefficientModel.constant_one()
        if family == "exp_y":
            return CoefficientModel.exp_y()
        theta = float(m.get("theta", 0.0))
        if family == "power_weight":
            return CoefficientModel.power_weight(theta)
        if family == "mean_curvature_weight":
            return CoefficientModel.mean_curvature_weight(theta)
        return CoefficientModel.power_weight_p_laplace(
            theta, float(m.get("p", 2.0)))
    if cfg.preset:
        return presets.get_preset(cfg.preset).model()
    return CoefficientModel.constant_one()


def _lambdify_reaction(cfg: ExperimentConfig) -> ReactionSpec:
    if not cfg.reaction:
        if cfg.preset:
            return presets.get_preset(cfg.preset).reaction()
        return ReactionSpec.constant(0.0)
    import sympy
    u_sym, y_sym = sympy.symbols("u y")
    try:
        f_expr = sympy.sympify(cfg.reaction["f"])
    except (KeyError, sympy.SympifyError) as err:
        raise ConfigError(f"reaction.f invalid: {err}")
    extra = f_expr.free_symbols - {u_sym}
    if extra:
        raise ConfigError(f"reaction.f may only use u, found {extra}")

    def _vectorized(expr, *symbols):
        raw = sympy.lambdify(symbols, expr, "numpy")

        def call(*arrays):
            arrays = [np.asarray(a, dtype=float) for a in arrays]
            out = np.asarray(raw(*arrays), dtype=float)
            return np.broadcast_to(out, np.broadcast(*arrays).shape).copy() \
                if arrays else out
        return call

    f = _vectorized(f_expr, u_sym)
    fp = _vectorized(sympy.diff(f_expr, u_sym), u_sym)
    fs = _vectorized(sympy.diff(f_expr, u_sym, 2), u_sym)
    g = g_u = None
    if cfg.reaction.get("g"):
        try:
            g_expr = sympy.sympify(cfg.reaction["g"])
        except sympy.SympifyError as err:
            raise ConfigError(f"reaction.g invalid: {err}")
        if g_expr.free_symbols - {u_sym, y_sym}:
            raise ConfigError("reaction.g may only use y and u")
        g = _vectorized(g_expr, y_sym, u_sym)
        g_u = _vectorized(sympy.diff(g_expr, u_sym), y_sym, u_sym)
    return ReactionSpec.custom(f=f, f_prime=fp, f_second=fs, g=g, g_u=g_u)


# -- experiments -------------------------------------------------------------

def _rec(name, status, measured, tolerance, anchor, details=None) -> CheckRecord:
    return CheckRecord(name=name, status=status, measured=measured,
                       tolerance=tolerance, anchor=anchor,
                       details=details or {})


def _preset(cfg: ExperimentConfig):
    return presets.get_preset(cfg.preset) if cfg.preset else None


def _anchor(p) -> str:
    return p.anchor if p else "plumbing"


def _cylinder_setup(cfg: ExperimentConfig):
    """(grid, model, reaction, initial state, top condition) for a cylinder
    solve.

    A preset with a closed-form profile starts there and pins the top slice
    to the profile's own trace (the constant-flux reactions are incompatible
    with a zero-flux top on any truncation); free-form configs start from
    small seeded noise with the natural zero-flux top.
    """
    grid = _build_grid(cfg)
    model = _build_model(cfg)
    reaction = _lambdify_reaction(cfg)
    p = _preset(cfg)
    exact = p.exact_state(grid) if p is not None else None
    if exact is not None:
        top = ("dirichlet", exact.values[..., -1].ravel().copy())
        return grid, model, reaction, exact, top
    rng = np.random.default_rng(cfg.seed)
    init = CylinderField(grid, 0.01 * rng.standard_normal(grid.shape))
    return grid, model, reaction, init, ("neumann",)


def _run_solve(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    grid, model, reaction, init, top = _cylinder_setup(cfg)
    tol = float(cfg.tolerances.get("newton", 1e-10))
    report = solver.solve_newton(model, reaction, grid, init, tol=tol,
                                 top_bc=top)
    rec = _rec("newton-solve", PASS if report.converged else FAIL,
               report.final_residual, f"max residual <= {tol:g}",
               _anchor(_preset(cfg)), report.to_json_dict())
    return [rec], {"solution_field": report.u}


def _run_stability(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    grid, model, reaction, state, top = _cylinder_setup(cfg)
    p = _preset(cfg)
    solve = solver.solve_newton(model, reaction, grid, state, top_bc=top)
    if not solve.converged:
        return [_rec("stability", FAIL, solve.final_residual,
                     "Newton must converge before classification",
                     _anchor(p), solve.to_json_dict())], {}
    report = stability.classify(solve.u, model, reaction)
    expected = p.expected_classification if p else None
    ok = expected is None or report.classification == expected
    rec = _rec("stability", PASS if ok else FAIL, report.mu1,
               f"classification {'matches ' + expected if expected else 'reported'}",
               _anchor(p), report.to_json_dict())
    rec.details["classification"] = report.classification
    return [rec], {"ground_state": report.ground_state}


def _run_poincare(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    grid, model, reaction, state, _top = _cylinder_setup(cfg)
    p = _preset(cfg)
    rows = []
    worst = -np.inf
    h = (grid.domain.x_max - grid.domain.x_min) / (grid.nx - 1)
    C = float(cfg.tolerances.get("poincare_constant", 1.0))
    for label, psi in verify._psi_battery(grid):
        sides = geometry.poincare_sides(state, model, reaction, psi)
        margin = sides.lhs_bulk + sides.lhs_lateral - sides.rhs - C * h * h
        worst = max(worst, margin)
        rows.append({"psi": label, "margin": margin,
                     **sides.to_json_dict()})
    expected_unstable = p is not None and p.expected_classification == "Unstable"
    ok = worst <= 0.0 or expected_unstable
    status = PASS if ok else FAIL
    if expected_unstable and worst > 0.0:
        status = NOT_APPLICABLE  # inequality is not asserted for unstable states
    rec = _rec("poincare-sides", status, worst,
               f"lhs <= rhs + C h^2 with C = {C:g}",
               "Theorem TH:POI", {"cases": rows})
    return [rec], {}


def _run_spectral(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    domain = _build_domain(cfg)
    p = _preset(cfg)
    K = int(p.spectral_modes) if p and p.spectral_modes else \
        int(cfg.grid.get("nx", 12))
    reaction = _lambdify_reaction(cfg)
    basis = spectral.neumann_basis(domain, K)
    rng = np.random.default_rng(cfg.seed)
    tol = float(cfg.tolerances.get("constancy", 1e-12))
    worst, runs = 0.0, 20
    last = None
    for _ in range(runs):
        init = spectral.SpectralFunction(basis,
                                         rng.normal(0.0, 0.5, size=basis.K))
        sol = spectral.solve_semilinear(basis, reaction, init)
        worst = max(worst, float(np.sum(sol.coeffs[1:] ** 2)))
        last = sol
    rec = _rec("spectral-constancy", PASS if worst <= tol else FAIL, worst,
               f"sum_k>=1 v_k^2 <= {tol:g} over {runs} seeded runs",
               _anchor(p), {"runs": runs, "modes": K})
    return [rec], {"final_coefficients": np.asarray(last.coeffs)}


def _run_extension(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    domain = _build_domain(cfg)
    grid = _build_grid(cfg)
    K = int(cfg.grid.get("modes", 32)) if "modes" in cfg.grid else 32
    basis = spectral.neumann_basis(domain, K)
    reaction = _lambdify_reaction(cfg)
    rng = np.random.default_rng(cfg.seed)
    init = spectral.SpectralFunction(basis, 1e-3 * rng.normal(size=basis.K))
    tol = float(cfg.tolerances.get("equivalence", 1e-6))
    disc = spectral.extension_equivalence(basis, reaction, grid, init=init)
    rec = _rec("extension-equivalence", PASS if disc <= tol else FAIL, disc,
               f"discrepancy <= {tol:g}", "Eq. s-Neumann",
               {"modes": K})
    return [rec], {}


def _run_fractional(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    s = float(cfg.tolerances.get("s", 0.5))
    records = []
    # constancy of the flat-profile principal value on the Getoor state
    op = fractional1d.make_operator(0.5, 2.0, 16385)
    prof = np.sqrt(np.clip(1.0 - op.x ** 2, 0.0, None))
    targets = op.x[np.abs(op.x) < 0.9][::40]
    vals = np.array([fractional1d.apply_integral_fraclap(op, prof, t)
                     for t in targets])
    spread = float(vals.max() - vals.min())
    records.append(_rec("half-profile-constancy",
                        PASS if spread <= 1e-3 else FAIL, spread,
                        "pointwise spread <= 1e-3 at n=16385",
                        "Eq. HG:sn:2", {"mean_value": float(vals.mean())}))
    # boundary-limit coefficient on the shifted square-root profile
    nd = fractional1d.fractional_normal_derivative(
        lambda t: np.sqrt(np.clip(1.0 - t, 0.0, None)), 0.5, 1.0,
        fractional1d.Side.FROM_LEFT_INTERVAL)
    records.append(_rec("normal-derivative-oracle",
                        PASS if abs(nd - 1.0) <= 1e-6 else FAIL, nd,
                        "matches +1 to 1e-6", "§1.6", {}))
    # spectral vs integral distinctness
    domain = DomainSpec.interval(0.0, np.pi)
    basis = spectral.neumann_basis(domain, K=16)
    bump = np.exp(-((basis.x_nodes - np.pi / 2) / 0.4) ** 2)
    coeffs = np.array([basis.inner(bump, k) for k in range(basis.K)])
    disc = fractional1d.compare_operators(
        domain, spectral.SpectralFunction(basis, coeffs), s)
    records.append(_rec("operator-distinctness",
                        PASS if disc > 0.01 else FAIL, disc,
                        "discrepancy > 0.01", "§1.6", {}))
    return records, {}


def _run_counterexample(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    eps = float(cfg.tolerances.get("eps", 0.5))
    s = float(cfg.tolerances.get("s", 0.5))
    try:
        res = fractional1d.construct_counterexample(
            lambda x: np.zeros_like(x), eps=eps, s=s)
    except fractional1d.NoRootError as err:
        return [_rec("counterexample", FAIL, float(err.band_c2_residual),
                     "needs band C^2 residual < 1 for the derivative roots",
                     "Example EXAMPLE",
                     {"outcome": "no-root",
                      "c2_residual": float(err.c2_residual),
                      "band_c2_residual": float(err.band_c2_residual)})], {}
    rec = _rec("counterexample", PASS, float(res.interior_residual),
               "roots found with interior residual <= 1e-8",
               "Example EXAMPLE", res.to_json_dict())
    return [rec], {"counterexample_profile": np.column_stack([res.x, res.v])}


def _run_verify_all(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    return verify.run_all(), {}


_RUNNERS = {
    "Solve": _run_solve,
    "Stability": _run_stability,
    "Poincare": _run_poincare,
    "Spectral": _run_spectral,
    "ExtensionEquivalence": _run_extension,
    "Fractional": _run_fractional,
    "Counterexample": _run_counterexample,
    "VerifyAll": _run_verify_all,
}


# -- report writing ----------------------------------------------------------

def _spill_csv(out_dir: str, stem: str, value) -> None:
    path = os.path.join(out_dir, f"{stem}.csv")
    if hasattr(value, "grid"):  # CylinderField
        field_to_csv(value, path)
        return
    arr = np.asarray(value)
    if arr.dtype == object:  # list of dicts -> table
        keys = sorted({k for row in value for k in row})
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in value:
                writer.writerow({k: row.get(k, "") for k in keys})
        return
    np.savetxt(path, np.atleast_2d(arr.astype(float)), delimiter=",")


def write_report(out_dir: str, cfg: ExperimentConfig,
                 records: list[CheckRecord], extras: dict,
                 wall_clock_total: float) -> str:
    """Write report.json and the CSV spills; wall_clock_total is the
    runner's own measured wall clock (records of one runner may share it,
    so it is not their sum)."""
    os.makedirs(out_dir, exist_ok=True)
    overall = verify.overall_status(records)
    report = {
        "experiment": cfg.experiment,
        "preset": cfg.preset,
        "config": cfg.to_dict(),
        "records": [r.to_json_dict() for r in records],
        "overall": overall,
        "wall_clock_total": float(wall_clock_total),
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, rec in enumerate(records):
        for key, value in rec.details.items():
            if isinstance(value, (list, np.ndarray)) and len(value) \
                    and not isinstance(value[0], str):
                _spill_csv(out_dir, f"record{i:02d}_{key}", value)
    for key, value in extras.items():
        _spill_csv(out_dir, key, value)
    return path


# -- entry points ------------------------------------------------------------

def _execute(cfg: ExperimentConfig, out_dir: str, note) -> int:
    """Run cfg's experiment, write its report into out_dir and print one
    line per record, ending with ``note(rec)``; return the exit code.

    Records the runner did not time itself (the battery times each
    criterion) are stamped with the runner's wall clock, which is also the
    report's ``wall_clock_total``.
    """
    t0 = time.perf_counter()
    try:
        records, extras = _RUNNERS[cfg.experiment](cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 — solver failures become exit 1
        rec = _rec("runner-failure", FAIL, None, "no unhandled exceptions",
                   "plumbing", {"exception": f"{type(err).__name__}: {err}"})
        write_report(out_dir, cfg, [rec], {}, time.perf_counter() - t0)
        print(f"failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0
    for rec in records:
        rec.wall_clock = rec.wall_clock or wall
    path = write_report(out_dir, cfg, records, extras, wall)
    for rec in records:
        print(f"  [{rec.status:>14}] {rec.name}: measured={rec.measured} "
              f"({note(rec)})")
    overall = verify.overall_status(records)
    print(f"report: {path} — overall {overall}")
    return 0 if overall == PASS else 1


def run_config(path: str) -> int:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = os.environ.get("CYLREACT_OUT", cfg.output_dir)
    return _execute(cfg, out_dir, lambda rec: rec.tolerance)


def list_presets() -> int:
    for p in presets.PRESETS:
        print(f"{p.name:20s} [{p.anchor}] {p.description}")
    return 0


def verify_all(out_dir: str | None = None) -> int:
    out = os.environ.get("CYLREACT_OUT", out_dir or "cylreact-verify")
    cfg = ExperimentConfig(experiment="VerifyAll", output_dir=out)
    return _execute(cfg, out, lambda rec: f"budget {rec.budget_s:g}s, "
                                          f"took {rec.wall_clock:.2f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cylreact",
        description="boundary reaction-diffusion experiments on half-cylinders")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON config")
    sub.add_parser("list-presets", help="print the named presets")
    p_ver = sub.add_parser("verify-all", help="run the acceptance battery")
    p_ver.add_argument("--out", default=None, help="report directory")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config)
    if args.command == "list-presets":
        return list_presets()
    return verify_all(out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
