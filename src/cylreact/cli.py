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
      "tolerances": {"newton": 1e-10, "eps": 0.5, "s": 0.5},
      "output_dir": "cylreact-out",
      "seed": 0
    }

Solve is a Newton solve and reads ``tolerances.newton``.  Every other
experiment runs the acceptance criterion of the same claim at the
config's values (``cylreact.verify``): Stability criterion 3 on the
Newton-solved state, Poincare criterion 4 on a preset's closed-form state
at nx = ny = ``grid.nx``, Spectral criterion 6, ExtensionEquivalence
criterion 7, Fractional criterion 9 (reads ``tolerances.s``),
Counterexample criterion 10 (reads ``tolerances.eps`` and
``tolerances.s``); VerifyAll runs all eleven at the battery's values.

Reaction entries are JSON strings or numbers, read as expressions in ``u``
(and ``y`` for the bulk source ``g``) over numpy arrays.  The grammar is
finite numbers, ``u`` (``y`` in ``g``), ``pi``, unary + and -, binary
+ - * / and ** (``^`` is ** too: ``2^3^2`` is 512), and one-argument calls
of exp, log, sqrt, sin, cos, tan, sinh, cosh, tanh, atan, asin, acos and
asinh.  Derivatives are complex steps, d/du r = Im r(u + ih) / h, NaN
wherever r is not finite; only analytic functions are admitted, since the
step needs them.  A ``g`` that is null or the constant 0 is no source.
``tolerances.eps`` and ``tolerances.s`` lie in (0, 1); ``grid.nz`` is
for rectangle domains.  Exit codes: 0 all applicable checks pass, 1 a
check or solve failed (a failed Newton solve prints its stop reason and
records it), 2 the config did not parse or validate: unknown ``grid``,
``tolerances``, ``model`` or ``reaction`` keys, ``domain`` keys other
than ``kind`` and that kind's bounds, ``eps`` or ``s`` outside (0, 1),
``grid.nz`` on an interval, a JSON string, boolean, NaN or Infinity where
a number is expected, or a reaction entry that is neither a string nor a
number, does not parse, or steps outside the grammar (a relation, another
name such as zoo, oo, nan, I or Abs, a constant part that is not finite,
a division by a constant zero).
Environment override: CYLREACT_OUT replaces output_dir.  Reports are
byte-identical across reruns of the same config and seed at a fixed BLAS
thread count, except for wall-clock fields.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import presets, solver, verify
from .coefficients import CoefficientModel
from .cylinder import (CylinderField, DomainSpec, build_grid, field_to_csv,
                       write_csv)
from .solver import ReactionSpec
from .verify import FAIL, PASS, CheckRecord

EXPERIMENTS = ("Solve", "Stability", "Poincare", "Spectral",
               "ExtensionEquivalence", "Fractional", "Counterexample",
               "VerifyAll")

_MODEL_FAMILIES = ("constant_one", "exp_y", "power_weight",
                   "power_weight_p_laplace", "mean_curvature_weight")
_GRID_KEYS = ("nx", "ny", "y_max", "grading", "nz")
_MODEL_KEYS = ("family", "theta", "p")
_REACTION_KEYS = ("f", "g")
_TOLERANCE_KEYS = ("newton", "eps", "s")


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
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
        preset = raw.get("preset")
        if preset is not None and preset not in presets.preset_names():
            raise ConfigError(f"unknown preset {preset!r}")
        domain = _section(raw, "domain")
        spec = _parse_domain(domain) if domain else \
            presets.get_preset(preset).domain if preset else None
        grid = _section(raw, "grid", _GRID_KEYS)
        for k in ("nx", "ny", "nz"):
            if grid.get(k) is not None and \
                    (not _is_int(grid[k]) or grid[k] < 3):
                raise ConfigError(f"grid.{k} must be an integer >= 3")
        # only the config's own nz: interval presets carry nz = None
        if grid.get("nz") is not None and spec and not spec.is_rectangle:
            raise ConfigError("grid.nz needs a rectangle cross-section")
        model = _section(raw, "model", _MODEL_KEYS)
        if model and model.get("family") not in _MODEL_FAMILIES:
            raise ConfigError(
                f"model.family must be one of {_MODEL_FAMILIES}")
        for name, section, keys in (("grid", grid, ("y_max", "grading")),
                                    ("model", model, ("theta", "p"))):
            for k in keys:
                if k in section and not _is_number(section[k]):
                    raise ConfigError(f"{name}.{k} must be a number")
        reaction = _section(raw, "reaction", _REACTION_KEYS)
        if reaction:
            _reaction_spec(reaction)
        tolerances = _section(raw, "tolerances", _TOLERANCE_KEYS)
        for k, v in tolerances.items():
            hi = 1.0 if k in ("eps", "s") else math.inf
            if not (_is_number(v) and 0 < v < hi):
                raise ConfigError(f"tolerances.{k} must lie in (0, {hi:g})")
        seed = raw.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            raise ConfigError("seed must be an unsigned integer")
        output_dir = raw.get("output_dir", "cylreact-out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("output_dir must be a nonempty string")
        return cls(experiment=experiment, preset=preset, domain=domain,
                   grid=grid, model=model, reaction=reaction,
                   tolerances=tolerances, output_dir=output_dir, seed=seed)

    def to_dict(self) -> dict:
        return asdict(self)


# -- config materialization --------------------------------------------------

def _is_int(value) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float (json.load reads NaN and Infinity too)."""
    return _is_int(value) or (isinstance(value, float)
                              and math.isfinite(value))


def _section(raw: dict, key: str, allowed=None) -> dict:
    """A copy of the optional object-valued section ``key`` of raw, whose
    keys must be among ``allowed`` when that is given."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key} section must be a JSON object")
    unknown = sorted(set(section) - set(allowed)) if allowed else []
    if unknown:
        raise ConfigError(f"unknown {key} keys: {unknown}")
    return dict(section)


def _parse_domain(section: dict) -> DomainSpec:
    try:
        return DomainSpec.from_json_dict(section)
    except ValueError as err:
        raise ConfigError(f"domain section invalid: {err}") from None


def _build_domain(cfg: ExperimentConfig) -> DomainSpec:
    if cfg.domain:
        return _parse_domain(cfg.domain)
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
    except (TypeError, ValueError) as err:
        raise ConfigError(f"grid section invalid: {err}") from None


def _build_model(cfg: ExperimentConfig) -> CoefficientModel:
    if cfg.model:
        m = cfg.model
        try:
            return CoefficientModel(m["family"],
                                    theta=float(m.get("theta", 0.0)),
                                    p=float(m.get("p", 2.0)))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"model section invalid: {err}") from None
    if cfg.preset:
        return presets.get_preset(cfg.preset).model()
    return CoefficientModel.constant_one()


def _lambdify_reaction(cfg: ExperimentConfig) -> ReactionSpec:
    if not cfg.reaction:
        if cfg.preset:
            return presets.get_preset(cfg.preset).reaction()
        return ReactionSpec.constant(0.0)
    return _reaction_spec(cfg.reaction)


# -- reaction expressions ----------------------------------------------------

# The functions a reaction may call.  Only analytic ones: derivatives are
# complex steps.
_FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
              "cos": np.cos, "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh,
              "tanh": np.tanh, "atan": np.arctan, "asin": np.arcsin,
              "acos": np.arccos, "asinh": np.arcsinh}
_UNARY = {ast.UAdd: np.positive, ast.USub: np.negative}
_BINARY = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
# d/du r(u) = Im r(u + ih) / h (Squire & Trapp, SIAM Rev. 40, 1998).  No
# difference is taken, so nothing cancels, and the error term h^2 r'''(u) / 6
# is far below rounding at this h.
COMPLEX_STEP = 1e-30


def _reaction_spec(section: dict) -> ReactionSpec:
    """The reaction section as a ReactionSpec: ``f`` in u and ``g`` in y
    and u, with f' and g_u by complex step.  A g that is null or the
    constant 0 is no source."""
    f = _compile_entry(section, "f", ("u",))
    g = None if section.get("g") is None \
        else _compile_entry(section, "g", ("y", "u"))
    source = {} if g is None or g == 0.0 else \
        {"g": _real(g, ("y", "u")), "g_u": _complex_step(g, ("y", "u"))}
    return ReactionSpec.custom(f=_real(f, ("u",)),
                               f_prime=_complex_step(f, ("u",)), **source)


def _compile_entry(section: dict, key: str, names: tuple):
    """reaction.<key>, a JSON string or number, compiled over ``names``
    (see _compile).  ``^`` is read as ``**``, so it is a right-associative
    power."""
    raw = section.get(key)
    reason = "it is neither a string nor a number"
    if isinstance(raw, str) or _is_number(raw):
        try:
            tree = ast.parse(str(raw).strip().replace("^", "**"), mode="eval")
        except (SyntaxError, ValueError, RecursionError) as err:
            raise ConfigError(f"reaction.{key} invalid: {err}") from None
        try:
            return _compile(tree.body, names)
        except (ValueError, RecursionError) as err:
            reason = str(err)
    raise ConfigError(
        f"reaction.{key} must be a finite real expression in "
        f"{' and '.join(sorted(names))}, got {raw!r}: {reason}")


def _compile(node: ast.AST, names: tuple):
    """A reaction's syntax tree as a float when it is constant, else as a
    function of {name: array}; ValueError for anything outside the
    grammar: finite numbers, ``names``, pi, unary +/-, binary + - * / **
    and one-argument calls of _FUNCTIONS."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _fold(node, float, node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return operator.itemgetter(node.id)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _fold(node, _UNARY[type(node.op)],
                     _compile(node.operand, names))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _compile(node.left, names), _compile(node.right, names)
        op = _BINARY[type(node.op)]
        if op is np.divide and right == 0.0:
            raise ValueError(f"{ast.unparse(node)} divides by zero")
        if op is np.power and callable(right):
            op = _variable_power
        return _fold(node, op, left, right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FUNCTIONS and len(node.args) == 1 \
            and not node.keywords:
        return _fold(node, _FUNCTIONS[node.func.id],
                     _compile(node.args[0], names))
    raise ValueError(f"{ast.unparse(node)} is outside the grammar")


def _fold(node: ast.AST, op, *parts):
    """op of the compiled parts: a finite float when every part is one,
    else a function of {name: array}."""
    if not all(isinstance(p, (int, float)) for p in parts):
        return lambda env: op(*[p(env) if callable(p) else p for p in parts])
    try:
        with np.errstate(all="ignore"):
            value = float(op(*parts))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{ast.unparse(node)} is not finite")
    return value


def _variable_power(a, b):
    """a**b for an exponent that varies: a complex (stepped) power is kept
    only where Re a > 0, since off that a**b has no real derivative."""
    out = np.power(a, b)
    if np.iscomplexobj(out):
        out = np.where(np.real(a) > 0.0, out, complex(np.nan, np.nan))
    return out


def _evaluate(compiled, names: tuple, arrays: list) -> np.ndarray:
    out = compiled(dict(zip(names, arrays))) if callable(compiled) \
        else compiled
    return np.broadcast_to(out, np.broadcast(*arrays).shape)


def _real(compiled, names: tuple):
    """The compiled reaction as a function of float arrays, one per name,
    returning a new array of their broadcast shape."""
    def call(*arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        return _evaluate(compiled, names, arrays).astype(float)
    return call


def _complex_step(compiled, names: tuple):
    """Its derivative in the last name, Im r(u + ih) / h, and NaN wherever
    r's real value is not finite (a complex branch would give a slope
    there)."""
    def call(*arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        stepped = arrays[:-1] + [arrays[-1] + 1j * COMPLEX_STEP]
        with np.errstate(all="ignore"):
            value = _evaluate(compiled, names, arrays)
            slope = np.imag(_evaluate(compiled, names, stepped))
        return np.where(np.isfinite(value), slope / COMPLEX_STEP, np.nan)
    return call


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

    A preset with a closed-form profile starts there with the top slice
    pinned to the profile's own trace (``solver.pinned_top``); free-form
    configs start from small seeded noise with the natural zero-flux top.
    """
    grid = _build_grid(cfg)
    model = _build_model(cfg)
    reaction = _lambdify_reaction(cfg)
    p = _preset(cfg)
    exact = p.exact_state(grid) if p is not None else None
    if exact is not None:
        return grid, model, reaction, exact, solver.pinned_top(exact)
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
        return [_rec("stability-labels", FAIL, solve.final_residual,
                     "Newton must converge before classification", _anchor(p),
                     solve.to_json_dict())], {}
    case = (cfg.preset, p.expected_classification if p else None, solve.u,
            model, reaction)
    extras = {}
    rec = verify.criterion_3([case], extras)
    report = extras["stability"]
    rec.details.update(tol=report.tol, eigen_residual=report.eigen_residual)
    return [rec], {"ground_state": report.ground_state}


def _run_poincare(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    p = _preset(cfg)
    if p is None or p.catalog_name is None \
            or p.expected_classification not in ("Stable", "Unstable"):
        raise ConfigError("Poincare needs a preset with a closed-form state "
                          "labelled Stable or Unstable")
    if cfg.model or cfg.reaction or cfg.domain:
        raise ConfigError("Poincare runs the preset's own model, reaction "
                          "and domain; drop those sections")
    n = cfg.grid.get("nx", p.nx)
    if set(cfg.grid) - {"nx", "ny"} or cfg.grid.get("ny", n) != n \
            or n < 9 or (n - 1) % 4:
        raise ConfigError("Poincare reads only grid.nx = grid.ny, which "
                          "must be 4k + 1 >= 9")
    return [verify.criterion_4([p], n)], {}


def _run_spectral(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    domain = _build_domain(cfg)
    p = _preset(cfg)
    K = p.spectral_modes if p and p.spectral_modes else \
        verify.CONSTANCY_MODES[domain.ndim]
    case = (cfg.preset or "config", domain, K, _lambdify_reaction(cfg),
            cfg.seed)
    extras = {}
    return [verify.criterion_6([case], extras)], extras


def _run_extension(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    return [verify.criterion_7(_build_grid(cfg),
                               reaction=_lambdify_reaction(cfg),
                               seed=cfg.seed)], {}


def _run_fractional(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    return [verify.criterion_9(float(cfg.tolerances.get("s", 0.5)))], {}


def _run_counterexample(cfg: ExperimentConfig) -> tuple[list[CheckRecord], dict]:
    extras = {}
    rec = verify.criterion_10(eps=float(cfg.tolerances.get("eps", 0.5)),
                              s=float(cfg.tolerances.get("s", 0.5)),
                              extras=extras)
    return [rec], extras


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
        write_csv(path, keys, ([row.get(k, "") for k in keys] for row in value))
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
        if "stop_reason" in rec.details:
            print(f"    stop reason: {rec.details['stop_reason']}")
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
