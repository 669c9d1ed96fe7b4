"""Acceptance checks: one callable per criterion, shared by CLI and tests.

Each criterion returns a CheckRecord with a pass/fail/not-applicable
status, the headline measured value, the tolerance it was held to, the
anchor payload for the report, its wall-clock budget, and a details dict
whose array-valued entries the reporting layer spills to CSV.

Criteria 3, 4, 6, 7, 9 and 10 take the parameters they are evaluated at,
defaulting to the battery's values; ``cylreact run`` calls them with a
config's values, so each claim has one check.  What a run writes next
to its report (the stability report with its ground state, the final
coefficients, the counterexample profile) goes into the optional
``extras`` dict.

Checks are deterministic: every randomized piece draws from an
explicitly seeded generator.  ``run_all`` times each criterion; a check
fails if its measurement fails OR it overruns its wall-clock budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import (coefficients, forms, fractional1d, geometry, presets, solver,
               spectral, stability)
from .coefficients import CoefficientModel
from .cylinder import CylinderField, DomainSpec, build_grid
from .solver import ReactionSpec

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class CheckRecord:
    """Outcome of one acceptance criterion."""

    name: str
    status: str
    measured: float | None
    tolerance: str
    anchor: str
    wall_clock: float = 0.0
    budget_s: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def clean(v):
            # bool before int: True is an int, and would serialize as 1
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, (np.floating, float)):
                return float(v)
            if isinstance(v, (np.integer, int)):
                return int(v)
            if isinstance(v, np.ndarray):
                return [clean(x) for x in v.tolist()]
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v
        return {
            "name": self.name,
            "status": self.status,
            "measured": clean(self.measured),
            "tolerance": self.tolerance,
            "anchor": self.anchor,
            "wall_clock": float(self.wall_clock),
            "budget_s": float(self.budget_s),
            "details": clean(self.details),
        }


# -- criterion 1: flux-linearization spectrum --------------------------------

def criterion_1() -> CheckRecord:
    rng = np.random.default_rng(20260822)
    worst = 0.0
    families = (
        lambda: CoefficientModel.power_weight(float(rng.uniform(-0.9, 0.9))),
        lambda: CoefficientModel.power_weight_p_laplace(
            float(rng.uniform(-0.9, 0.9)), float(rng.uniform(1.1, 4.0))),
        lambda: CoefficientModel.mean_curvature_weight(
            float(rng.uniform(-0.9, 0.9))),
        CoefficientModel.constant_one,
        CoefficientModel.exp_y,
    )
    for i in range(200):
        model = families[i % len(families)]()
        y = float(rng.uniform(0.1, 3.0))
        dim = 2 if i % 2 == 0 else 3  # full gradients over 1D/2D cross-sections
        eta = rng.uniform(-2.0, 2.0, size=dim)
        while np.linalg.norm(eta) < 1e-6:
            eta = rng.uniform(-2.0, 2.0, size=dim)
        B = coefficients.matrix_B(model, y, eta)
        numeric = np.sort(np.linalg.eigvalsh(B.entries))
        closed = np.sort(coefficients.eigvals_B_closed_form(model, y, eta)[0])
        rel = float(np.max(np.abs(numeric - closed) / np.abs(closed)))
        worst = max(worst, rel)
    status = PASS if worst <= 1e-12 else FAIL
    rec = CheckRecord(
        name="flux-linearization-spectrum", status=status, measured=worst,
        tolerance="relative error <= 1e-12 over 200 samples",
        anchor="Lemma B-POS", budget_s=1.0,
        details={"samples": 200, "worst_relative_error": worst})
    return rec


# -- criterion 2: catalog residual convergence -------------------------------

_C2_CASES = (
    ("decay-cos", DomainSpec.interval(0.0, 2.0 * np.pi), 2.0,
     CoefficientModel.constant_one, lambda: ReactionSpec.linear(1.0), False),
    ("grow-cos", DomainSpec.interval(0.0, 2.0 * np.pi), 1.0,
     CoefficientModel.constant_one, lambda: ReactionSpec.linear(-1.0), False),
    ("linear-y", DomainSpec.interval(0.0, np.pi), 8.0,
     CoefficientModel.constant_one, lambda: ReactionSpec.constant(-1.0), True),
    ("exp-decay", DomainSpec.interval(0.0, np.pi), 3.0,
     CoefficientModel.exp_y, lambda: ReactionSpec.constant(1.0), True),
    ("one-dim-family", DomainSpec.interval(0.0, np.pi), 2.0,
     CoefficientModel.constant_one, lambda: ReactionSpec.linear(1.0), True),
)


def _catalog_residual(name, domain, y_max, model, reaction, n):
    grid = build_grid(domain, nx=n, ny=n, y_max=y_max)
    u = solver.catalog_solution(name, grid, model=model, reaction=reaction,
                                c=1.0)
    r = solver.residual_vector(u, model, reaction, ("neumann",))
    mask = ~grid.top_mask().ravel()
    return float(np.max(np.abs(r[mask]))), float(np.max(np.abs(u.values)))


def criterion_2() -> CheckRecord:
    rows, ok = [], True
    worst_slope = np.inf
    for name, domain, y_max, model_f, reaction_f, allow_floor in _C2_CASES:
        model, reaction = model_f(), reaction_f()
        ns = (17, 33, 65)
        res, scale = zip(*(_catalog_residual(name, domain, y_max, model,
                                             reaction, n) for n in ns))
        hs = [(domain.x_max - domain.x_min) / (n - 1) for n in ns]
        floor = allow_floor and res[-1] <= 1e-12 * (1.0 + scale[-1])
        if floor:
            slope = None
            case_ok = True
        else:
            # exactly zero residuals fit no slope (nan), failing the gate
            with np.errstate(divide="ignore"):
                slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
            case_ok = slope >= 1.9
            worst_slope = min(worst_slope, slope)
        ok = ok and case_ok
        rows.append({"case": name, "residuals": list(res),
                     "slope": slope, "floor": bool(floor), "ok": case_ok})
    measured = None if worst_slope is np.inf else worst_slope
    rec = CheckRecord(
        name="catalog-residual-convergence", status=PASS if ok else FAIL,
        measured=measured,
        tolerance="order >= 1.9 over nx=ny in {17,33,65}, or floor <= "
                  "1e-12*(1+max|u|)",
        anchor="§1.4 and Eq. O76:98", budget_s=30.0,
        details={"cases": rows})
    return rec


# -- criterion 3: stability labels -------------------------------------------

def criterion_3(cases=None, extras=None) -> CheckRecord:
    """Classify each (name, expected label, state, model, reaction) case;
    by default the stability quartet's closed-form states at nx = ny = 65.
    A case expected Unstable also needs mu1 < -1e-3; a case without an
    expected label passes with its label reported.  extras receives the
    last case's StabilityReport under "stability"."""
    if cases is None:
        cases = [(p.name, p.expected_classification,
                  p.exact_state(p.build_grid(nx=65, ny=65)), p.model(),
                  p.reaction()) for p in presets.stability_quartet()]
    rows, ok = [], True
    for name, expected, u, model, reaction in cases:
        report = stability.classify(u, model, reaction)
        row_ok = expected in (None, report.classification)
        if expected == "Unstable":
            row_ok = row_ok and report.mu1 < -1e-3
        ok = ok and row_ok
        rows.append({"preset": name, "mu1": report.mu1,
                     "classification": report.classification,
                     "expected": expected, "ok": row_ok})
        if extras is not None:
            extras["stability"] = report
    g = cases[0][2].grid
    size = f"nx=ny={g.nx}" if g.nx == g.ny else f"nx={g.nx}, ny={g.ny}"
    claim = "labels match; unstable mu1 < -1e-3" \
        if any(case[1] for case in cases) else "labels reported"
    rec = CheckRecord(
        name="stability-labels", status=PASS if ok else FAIL,
        measured=min(row["mu1"] for row in rows),
        tolerance=f"{claim} at {size}, y_max={g.y_max:g}",
        anchor="§1.4", budget_s=60.0,
        details={"cases": rows})
    return rec


# -- criterion 4: directional Poincare inequality ----------------------------

def _psi_battery(grid):
    X = grid.coordinate_arrays()[0]
    Y = grid.coordinate_arrays()[-1]
    L = grid.domain.x_max - grid.domain.x_min
    w = 2.0 * np.pi / L
    ym = grid.y_max
    fields = [
        geometry.log_cutoff(1e4, grid),
        CylinderField(grid, np.cos(np.pi * Y / (2 * ym))),
        CylinderField(grid, np.cos(w * (X - grid.domain.x_min))
                      * np.cos(np.pi * Y / (2 * ym))),
        CylinderField(grid, np.cos(2 * w * (X - grid.domain.x_min))
                      * np.cos(np.pi * Y / ym)),
    ]
    labels = ["log-cutoff", "cos-y", "cos-x-cos-y", "cos-2x-cos-y"]
    return list(zip(labels, fields))


def _poincare_slacks(preset, n):
    grid = preset.build_grid(nx=n, ny=n)
    u, model = preset.exact_state(grid), preset.model()
    out = []
    for label, psi in _psi_battery(grid):
        sides = geometry.poincare_sides(u, model, psi)
        out.append((label, sides.lhs_bulk + sides.lhs_lateral, sides.rhs))
    return out


def criterion_4(cases=None, n=65) -> CheckRecord:
    """The inequality on every Stable preset of cases (default: the
    stability quartet) at nx = ny = n, with C estimated on the nested
    coarser grids (n - 1)/4 + 1 and (n - 1)/2 + 1; Unstable presets are
    scanned for a violating test field.  Not applicable without a Stable
    preset."""
    cases = presets.stability_quartet() if cases is None else cases
    stable = [p for p in cases if p.expected_classification == "Stable"]
    # refinement-estimated constant from the coarse pair
    excess = 0.0
    for preset in stable:
        for m in ((n - 1) // 4 + 1, (n - 1) // 2 + 1):
            h = (preset.domain.x_max - preset.domain.x_min) / (m - 1)
            for label, lhs, rhs in _poincare_slacks(preset, m):
                excess = max(excess, (lhs - rhs) / h ** 2)
    C = max(1.0, 2.0 * excess)
    rows, ok = [], True
    worst_margin = -np.inf
    for preset in stable:
        h = (preset.domain.x_max - preset.domain.x_min) / (n - 1)
        for label, lhs, rhs in _poincare_slacks(preset, n):
            margin = lhs - rhs - C * h * h
            worst_margin = max(worst_margin, margin)
            row_ok = margin <= 0.0
            ok = ok and row_ok
            rows.append({"preset": preset.name, "psi": label, "lhs": lhs,
                         "rhs": rhs, "margin": margin, "ok": row_ok})
    # informational witness scan on the unstable cases
    witness = []
    for unstable in cases:
        if unstable.expected_classification != "Unstable":
            continue
        h = (unstable.domain.x_max - unstable.domain.x_min) / (n - 1)
        for label, lhs, rhs in _poincare_slacks(unstable, n):
            if lhs > rhs + 10.0 * C * h * h:
                witness.append(label)
    rec = CheckRecord(
        name="poincare-inequality",
        status=(PASS if ok else FAIL) if rows else NOT_APPLICABLE,
        measured=worst_margin if rows else None,
        tolerance=f"lhs_bulk + lhs_lateral <= rhs + C h^2 with C = {C:g}",
        anchor="Theorem TH:POI", budget_s=60.0,
        details={"cases": rows, "C": C,
                 "unstable_witness": witness or ["absent"]})
    return rec


# -- criterion 5: level-set weight decomposition -----------------------------

_C5_MASK_FRACTION = 0.3


def _decomposition_misfit(n, ny):
    dom = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
    model = CoefficientModel.constant_one()
    grid = build_grid(dom, nx=n, ny=ny, y_max=1.0, nz=n)
    X, Z, Y = grid.coordinate_arrays()
    u = CylinderField(grid, np.exp(-Y) * np.cos(X) * np.cos(Z))
    comps = forms.gradient_fields(grid, u.values)
    speed = np.sqrt(sum(c * c for c in comps[:-1]))
    thr = _C5_MASK_FRACTION * float(speed.max())
    bracket = geometry.bulk_bracket(u, model, threshold=thr)
    whole = geometry._level_set_geometry(u, thr)
    worst, min_combo = 0.0, np.inf
    for j in range(grid.ny):
        m = whole.mask[:, :, j]
        if not m.any():
            continue
        combo = whole.K0[:, :, j]  # unit coefficient: a = 1, a_t = 0
        worst = max(worst, float(np.max(np.abs(bracket[:, :, j][m] - combo[m]))))
        min_combo = min(min_combo, float(combo[m].min()))
    return worst, min_combo


def criterion_5() -> CheckRecord:
    coarse = []
    for n, ny in ((17, 9), (25, 13)):
        h = np.pi / (n - 1)
        w, _ = _decomposition_misfit(n, ny)
        coarse.append(w / h)
    C = 2.0 * max(coarse)
    n, ny = 33, 17
    h = np.pi / (n - 1)
    misfit, min_combo = _decomposition_misfit(n, ny)
    ok = misfit <= C * h and min_combo >= -1e-8
    rec = CheckRecord(
        name="weight-decomposition", status=PASS if ok else FAIL,
        measured=misfit,
        tolerance=f"masked |bracket - (a K0 + (a_t/s) Ksharp)| <= C h with "
                  f"C = {C:.3g}; nonnegativity >= -1e-8",
        anchor="Eq. OIhh", budget_s=30.0,
        details={"C": C, "misfit_at_33": misfit, "C_times_h": C * h,
                 "min_combination": min_combo,
                 "mask_fraction": _C5_MASK_FRACTION})
    return rec


# -- criterion 6: nonlocal constancy -----------------------------------------

def _constancy_runs(domain, K, reaction, n_runs, seed):
    """(worst nonconstant energy, last solution) over n_runs seeded solves."""
    basis = spectral.neumann_basis(domain, K)
    rng = np.random.default_rng(seed)
    worst, sol = 0.0, None
    for _ in range(n_runs):
        init = spectral.SpectralFunction(
            basis, rng.normal(0.0, 0.5, size=basis.K))
        sol = spectral.solve_semilinear(basis, reaction, init)
        worst = max(worst, float(np.sum(sol.coeffs[1:] ** 2)))
    return worst, sol


# the battery's mode count K per cross-section dimension
CONSTANCY_MODES = {1: 12, 2: 16}


def criterion_6(cases=None, extras=None) -> CheckRecord:
    """20 seeded solves for each (label, domain, K, reaction, seed) case;
    by default cubic and cubic-linear reactions on the interval and the
    rectangle."""
    if cases is None:
        cubic = ReactionSpec.cubic()
        cubic_linear = presets.get_preset("sneumann-constancy").reaction()
        interval = DomainSpec.interval(0.0, np.pi)
        rectangle = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
        k1, k2 = CONSTANCY_MODES[1], CONSTANCY_MODES[2]
        cases = [
            ("interval-cubic", interval, k1, cubic, 777),
            ("interval-cubic-linear", interval, k1, cubic_linear, 778),
            ("rectangle-cubic", rectangle, k2, cubic, 779),
            ("rectangle-cubic-linear", rectangle, k2, cubic_linear, 780),
        ]
    rows, worst = [], 0.0
    for label, domain, K, reaction, seed in cases:
        w, sol = _constancy_runs(domain, K, reaction, n_runs=20, seed=seed)
        worst = max(worst, w)
        rows.append({"case": label, "max_nonconstant_energy": w})
    if extras is not None:
        extras["final_coefficients"] = np.asarray(sol.coeffs)
    status = PASS if worst <= 1e-12 else FAIL
    rec = CheckRecord(
        name="nonlocal-constancy", status=status, measured=worst,
        tolerance="sum_{k>=1} v_k^2 <= 1e-12 in every run (20 seeds/case)",
        anchor="Theorem thm: s-Neumann 1 and 2", budget_s=60.0,
        details={"cases": rows})
    return rec


# -- criterion 7: extension equivalence --------------------------------------

def criterion_7(grid=None, reaction=None, seed=4242) -> CheckRecord:
    """Extension vs. cylinder weak form on grid (default: (0, pi) at
    nx = ny = 129, y_max = 19) with 32 modes, from seeded small data."""
    if grid is None:
        grid = build_grid(DomainSpec.interval(0.0, np.pi), nx=129, ny=129,
                          y_max=19.0)
    basis = spectral.neumann_basis(grid.domain, K=32)
    rng = np.random.default_rng(seed)
    init = spectral.SpectralFunction(
        basis, 1e-3 * rng.normal(size=basis.K))
    disc = spectral.extension_equivalence(
        basis, ReactionSpec.cubic() if reaction is None else reaction, grid,
        init=init)
    status = PASS if disc <= 1e-6 else FAIL
    # truncation: the slowest nonconstant mode's decay at the top
    exponent = int(np.ceil(-np.sqrt(basis.lambdas[1]) * grid.y_max
                           / np.log(10)))
    rec = CheckRecord(
        name="extension-equivalence", status=status, measured=disc,
        tolerance=f"weak-residual discrepancy <= 1e-6 at nx={grid.nx}, "
                  f"K=32, y_max={grid.y_max:g} (e^{{-sqrt(lambda_1) Y}} "
                  f"< 1e{exponent})",
        anchor="Eq. s-Neumann", budget_s=30.0,
        details={"discrepancy": disc})
    return rec


# -- criterion 8: eigenvalue growth ------------------------------------------

def criterion_8() -> CheckRecord:
    rect = spectral.neumann_basis(
        DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi), K=500)
    K_beta, _ = spectral.eig_growth_check(rect, beta=0.9)
    interval = spectral.neumann_basis(DomainSpec.interval(0.0, np.pi), K=64)
    _, (C1, C2) = spectral.eig_growth_check(interval, beta=1.5)
    ok = K_beta <= 50 and abs(C2) <= 0.05
    rec = CheckRecord(
        name="eigenvalue-growth", status=PASS if ok else FAIL,
        measured=float(K_beta),
        tolerance="rectangle K_beta <= 50 at K=500, beta=0.9; interval "
                  "sup-norm slope |C2| <= 0.05",
        anchor="Eq. l k and Eq. PHIk", budget_s=10.0,
        details={"rectangle_K_beta": int(K_beta),
                 "interval_C1": float(C1), "interval_C2": float(C2)})
    return rec


# -- criterion 9: spectral vs integral operators -----------------------------

def criterion_9(s=0.5) -> CheckRecord:
    domain = DomainSpec.interval(0.0, np.pi)
    basis = spectral.neumann_basis(domain, K=16)
    bump = np.exp(-((basis.x_nodes - np.pi / 2) / 0.4) ** 2)
    coeffs = np.array([basis.inner(bump, k) for k in range(basis.K)])
    w = spectral.SpectralFunction(basis, coeffs)
    d1 = fractional1d.compare_operators(domain, w, s, op_nodes=2049)
    d2 = fractional1d.compare_operators(domain, w, s, op_nodes=4097)
    change = abs(d2 - d1) / d1
    ok = d1 > 0.01 and d2 > 0.01 and change <= 0.10
    rec = CheckRecord(
        name="operator-distinctness", status=PASS if ok else FAIL,
        measured=d1,
        tolerance="discrepancy > 0.01, change <= 10% under one refinement",
        anchor="§1.6", budget_s=30.0,
        details={"discrepancy": d1, "refined": d2,
                 "relative_change": change})
    return rec


# -- criterion 10: counterexample pipeline -----------------------------------

def criterion_10(eps=0.5, s=0.5, extras=None) -> CheckRecord:
    try:
        res = fractional1d.construct_counterexample(
            lambda x: np.zeros_like(x), eps=eps, s=s)
    except fractional1d.NoRootError as err:
        rec = CheckRecord(
            name="counterexample-pipeline", status=FAIL,
            measured=float(err.band_c2_residual),
            tolerance="derivative roots with interior residual <= 1e-8 and "
                      "boundary-limit coefficient <= 1e-4; the no-root "
                      "branch fails this criterion",
            anchor="Example EXAMPLE", budget_s=120.0,
            details={
                "outcome": "no-root",
                "c2_residual": float(err.c2_residual),
                "band_c2_residual": float(err.band_c2_residual),
                "analysis": "the least-squares surrogate for the "
                            "non-constructive density step cannot reach band "
                            "misfit < 1 at the pinned regularization weight: "
                            "the required exterior amplitude (~1e14) is "
                            "suppressed by the 1e-8 penalty and would sink "
                            "the interior residual floor to ~1e-2 in double "
                            "precision regardless",
            })
        return rec
    if extras is not None:
        extras["counterexample_profile"] = np.column_stack([res.x, res.v])
    b = eps / 11.0
    in_band = (b <= res.delta1 <= 4 * b) and (b <= res.delta2 <= 4 * b)
    side = fractional1d.Side
    nd1 = fractional1d.fractional_normal_derivative(
        (res.x, res.v), res.s, -1.0 - res.delta1, side.FROM_LEFT_INTERVAL)
    nd2 = fractional1d.fractional_normal_derivative(
        (res.x, res.v), res.s, 1.0 + res.delta2, side.FROM_RIGHT_INTERVAL)
    ok = (in_band and res.interior_residual <= 1e-8
          and abs(nd1) <= 1e-4 and abs(nd2) <= 1e-4)
    rec = CheckRecord(
        name="counterexample-pipeline", status=PASS if ok else FAIL,
        measured=float(res.interior_residual),
        tolerance="delta in [eps/11, 4 eps/11], interior residual <= 1e-8, "
                  "boundary-limit coefficient <= 1e-4",
        anchor="Example EXAMPLE", budget_s=120.0,
        details={"outcome": "roots", "delta1": float(res.delta1),
                 "delta2": float(res.delta2),
                 "interior_residual": float(res.interior_residual),
                 "normal_derivative_left": float(nd1),
                 "normal_derivative_right": float(nd2)})
    return rec


# -- criterion 11: extremum sign ---------------------------------------------

def criterion_11() -> CheckRecord:
    rows, ok, applicable = [], True, 0
    worst_f = -np.inf
    for preset in presets.extremum_battery():
        if preset.catalog_name is None:
            continue
        grid = preset.build_grid(nx=33, ny=33)
        model, reaction = preset.model(), preset.reaction()
        exact = preset.exact_state(grid)
        report = solver.solve_newton(model, reaction, grid, exact,
                                     top_bc=solver.pinned_top(exact))
        label = stability.classify(report.u, model, reaction).classification
        row = {"preset": preset.name, "converged": report.converged,
               "classification": label,
               "bounded_below": preset.bounded_below,
               "reciprocal_integral_diverges":
                   preset.reciprocal_a_integral_diverges}
        gated = (report.converged and label == "Stable"
                 and preset.bounded_below
                 and preset.reciprocal_a_integral_diverges)
        if not gated:
            row["status"] = NOT_APPLICABLE
            rows.append(row)
            continue
        applicable += 1
        check = solver.extremum_sign_check(report.u, reaction)
        row.update(check)
        row["status"] = PASS if check["ok"] else FAIL
        worst_f = max(worst_f, check["f_at_infimum"])
        ok = ok and check["ok"]
        rows.append(row)
    ok = ok and applicable > 0
    rec = CheckRecord(
        name="extremum-sign", status=PASS if ok else FAIL,
        measured=None if worst_f == -np.inf else worst_f,
        tolerance="f(infimum) <= 1e-8 and infimum on the bottom within 1e-8 "
                  "for every applicable stable solve",
        anchor="Corollary C:PT and Lemma 0oPPy", budget_s=30.0,
        details={"cases": rows, "applicable": applicable})
    return rec


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
)


def run_all() -> list[CheckRecord]:
    """Run the full acceptance battery, in order, timing each criterion;
    a passing criterion that overruns its budget fails."""
    records = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        rec = fn()
        rec.wall_clock = time.perf_counter() - t0
        over = rec.budget_s and rec.wall_clock > rec.budget_s
        if rec.status == PASS and over:
            rec.status = FAIL
            rec.details["budget_overrun"] = rec.wall_clock
        records.append(rec)
    return records


def overall_status(records: list[CheckRecord]) -> str:
    """Pass iff every applicable record passes."""
    bad = [r for r in records if r.status == FAIL]
    return FAIL if bad else PASS
