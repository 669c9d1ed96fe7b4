"""Tests for level-set curvature weights and the directional Poincaré check."""

import numpy as np
import pytest

from cylreact import geometry, presets
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import CylinderField, DomainSpec, build_grid


def _rect_grid(nx=17, nz=17, ny=9, y_max=4.0):
    dom = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
    return build_grid(dom, nx=nx, ny=ny, y_max=y_max, nz=nz)


# ---------------------------------------------------------------------------
# log cutoff


def test_log_cutoff_constant_below_sqrt_R():
    # On a short cylinder (y_max << sqrt(R)) the cutoff is the constant
    # int_sqrt(R)^R tau/z dz; frozen from an independent quadrature.
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=9, ny=33)
    psi = geometry.log_cutoff(1e4, grid)
    assert np.allclose(psi.values, 4.600134411045899, rtol=1e-10)


def test_log_cutoff_independent_quadrature():
    # piecewise: exact log on the plateau plus quadrature over each
    # unit-width ramp (a single adaptive pass misses the narrow ramps)
    from scipy.integrate import quad
    R = 1e4
    lo = np.sqrt(R)
    up_ramp, _ = quad(lambda z: geometry.tau_ramp(z, R) / z, lo, lo + 1.0)
    plateau = np.log((R - 1.0) / (lo + 1.0))
    down_ramp, _ = quad(lambda z: geometry.tau_ramp(z, R) / z, R - 1.0, R)
    val = up_ramp + plateau + down_ramp
    grid = presets.get_preset("grow-cos-stable").build_grid(nx=9, ny=17)
    psi = geometry.log_cutoff(R, grid)
    assert float(psi.values[0, 0]) == pytest.approx(val, rel=1e-9)


def test_log_cutoff_monotone_and_vanishing_above_R():
    dom = DomainSpec.interval(0.0, np.pi)
    grid = build_grid(dom, nx=5, ny=129, y_max=300.0)
    psi = geometry.log_cutoff(200.0, grid)
    profile = psi.values[0, :]
    assert np.all(np.diff(profile) <= 1e-12)  # nonincreasing in y
    assert np.all(profile[grid.y_nodes >= 200.0] == 0.0)
    assert profile[0] > 0.0


def test_log_cutoff_validation():
    grid = presets.get_preset("grow-cos-stable").build_grid(nx=5, ny=9)
    with pytest.raises(ValueError):
        geometry.log_cutoff(50.0, grid)


def test_tau_ramp_plateau_and_support():
    R = 400.0
    lo = np.sqrt(R)
    assert geometry.tau_ramp(lo - 1.0, R) == 0.0
    assert geometry.tau_ramp(lo, R) == 0.0
    assert geometry.tau_ramp(lo + 1.0, R) == pytest.approx(1.0)
    assert geometry.tau_ramp(0.5 * (lo + R), R) == 1.0
    assert geometry.tau_ramp(R - 1.0, R) == pytest.approx(1.0)
    assert geometry.tau_ramp(R, R) == 0.0
    assert geometry.tau_ramp(R + 5.0, R) == 0.0
    zs = np.linspace(lo - 2.0, R + 2.0, 500)
    vals = np.array([geometry.tau_ramp(z, R) for z in zs])
    assert np.all((vals >= 0.0) & (vals <= 1.0))


# ---------------------------------------------------------------------------
# level-set curvature weights


def test_level_set_weights_needs_rectangle():
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=9, ny=9)
    u = CylinderField(grid, np.zeros(grid.shape))
    with pytest.raises(geometry.NotApplicableError):
        geometry.level_set_weights(u, 0, threshold=1e-8)


def test_level_set_weights_validation():
    grid = _rect_grid(nx=7, nz=7, ny=5)
    u = CylinderField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        geometry.level_set_weights(u, 0, threshold=0.0)
    with pytest.raises(ValueError):
        geometry.level_set_weights(u, grid.ny, threshold=1e-8)


def test_level_set_weights_linear_field_flat_curves():
    # u = x has straight level lines: every curvature quantity vanishes
    grid = _rect_grid()
    X = grid.coordinate_arrays()[0]
    u = CylinderField(grid, X.copy())
    geo = geometry.level_set_weights(u, grid.ny // 2, threshold=0.5)
    assert geo.mask.all()  # speed is identically 1
    assert np.allclose(geo.K, 0.0, atol=1e-10)
    assert np.allclose(geo.tangential_gradient_of_speed, 0.0, atol=1e-10)
    assert np.allclose(geo.K0, 0.0, atol=1e-10)
    assert np.allclose(geo.Ksharp, 0.0, atol=1e-10)


def test_level_set_weights_threshold_gates_reporting_only():
    # a huge threshold empties the mask but the arrays stay finite: the
    # division floor is machine-scale, not the reporting threshold
    grid = _rect_grid(nx=9, nz=9, ny=5)
    X, Z = grid.coordinate_arrays()[0], grid.coordinate_arrays()[1]
    u = CylinderField(grid, np.sin(X) * np.cos(Z))
    geo = geometry.level_set_weights(u, 0, threshold=1e6)
    assert not geo.mask.any()
    for arr in (geo.K, geo.K0, geo.Ksharp, geo.tangential_gradient_of_speed):
        assert np.all(np.isfinite(arr))


def test_level_set_weights_circular_curves():
    # u = (x^2 + z^2)/2 has circular level curves: K = 1/r at interior nodes
    grid = _rect_grid(nx=33, nz=33, ny=5)
    X, Z = grid.coordinate_arrays()[0], grid.coordinate_arrays()[1]
    u = CylinderField(grid, 0.5 * (X ** 2 + Z ** 2))
    geo = geometry.level_set_weights(u, 2, threshold=1e-8)
    r = np.sqrt(X[..., 2] ** 2 + Z[..., 2] ** 2)
    interior = np.zeros_like(r, dtype=bool)
    interior[4:-4, 4:-4] = True
    interior &= r > 1.0  # away from the gradient zero at the corner
    assert np.max(np.abs(geo.K[interior] - 1.0 / r[interior])) < 1e-2


def test_level_set_K0_nonnegative_on_mask():
    grid = _rect_grid(nx=25, nz=25, ny=7)
    X, Z = grid.coordinate_arrays()[0], grid.coordinate_arrays()[1]
    Y = grid.coordinate_arrays()[2]
    u = CylinderField(grid, np.cos(X) * np.cos(Z) * np.exp(-0.3 * Y))
    geo = geometry.level_set_weights(u, 3, threshold=1e-2)
    # K0 collects squares of second-derivative data minus the y-derivative
    # of the speed; the combination is nonnegative where the gradient is
    # genuinely nonzero (up to one-sided-stencil error at the frame)
    inner = geo.mask.copy()
    inner[:2, :] = inner[-2:, :] = inner[:, :2] = inner[:, -2:] = False
    assert np.min(geo.K0[inner]) >= -1e-8


# ---------------------------------------------------------------------------
# bulk bracket


def test_bulk_bracket_vanishes_for_y_only_state():
    # y-only profiles have cross-section speed at roundoff scale (one-sided
    # boundary stencils leave ~1e-14 on a constant-in-x slice), so the
    # bracket is zero to squared roundoff
    p = presets.get_preset("linear-y")
    grid = p.build_grid(nx=17, ny=17)
    u = p.exact_state(grid)
    br = geometry.bulk_bracket(u, p.model_factory())
    assert np.max(np.abs(br)) < 1e-20


def test_bulk_bracket_exact_cancellation_single_signed_gradient():
    # when u_x never changes sign, |grad_x u| equals u_x nodewise and the
    # two bracket terms are computed from identical arrays: exact zero
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=33, ny=17)
    X = grid.coordinate_arrays()[0]
    u = CylinderField(grid, X + 0.1 * np.cos(X))
    br = geometry.bulk_bracket(u, p.model_factory())
    assert np.all(br == 0.0)


def test_bulk_bracket_huge_threshold_empties_everything():
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=17, ny=17)
    u = p.exact_state(grid)
    br = geometry.bulk_bracket(u, p.model_factory(), threshold=1e9)
    assert np.all(br == 0.0)


def test_bulk_bracket_finite_on_catalog_state():
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=33, ny=33)
    u = p.exact_state(grid)
    br = geometry.bulk_bracket(u, p.model_factory())
    assert np.all(np.isfinite(br))
    assert br.shape == grid.shape


# ---------------------------------------------------------------------------
# lateral boundary term and the two-sided Poincaré evaluation


def test_lateral_boundary_term_small_for_neumann_state():
    # exact value is zero for a laterally-Neumann state; the one-sided
    # stencil evaluation converges away under refinement
    p = presets.get_preset("decay-cos-unstable")
    terms = []
    for n in (17, 33):
        grid = p.build_grid(nx=n, ny=n)
        u = p.exact_state(grid)
        terms.append(geometry.lateral_boundary_term(
            u, p.model_factory(), np.ones(grid.shape)))
    assert abs(terms[1]) < 1e-3
    assert abs(terms[0]) / abs(terms[1]) > 3.0  # at least second order


def test_lateral_boundary_term_small_relative_to_energy():
    # the growing profile amplifies everything by e^{2y}; smallness is
    # relative to the state's own energy scale
    from cylreact import forms
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=33, ny=33)
    u = p.exact_state(grid)
    model = p.model_factory()
    term = geometry.lateral_boundary_term(u, model, np.ones(grid.shape))
    state = forms.coefficient_state(u, model)
    comps = forms.gradient_fields(grid, u.values, pairing=False)
    energy = float(np.sum(grid.bulk_weights(state["theta"]) * state["a_red"]
                          * sum(c * c for c in comps)))
    assert abs(term) / energy < 1e-4


def test_poincare_sides_hold_for_stable_states():
    for name in ("linear-y", "grow-cos-stable"):
        p = presets.get_preset(name)
        grid = p.build_grid(nx=33, ny=33)
        u = p.exact_state(grid)
        psi = geometry.log_cutoff(1e4, grid)
        sides = geometry.poincare_sides(u, p.model_factory(), psi)
        assert sides.lhs_bulk + sides.lhs_lateral <= sides.rhs + 1e-10, name


def test_poincare_sides_rhs_zero_for_y_only_state():
    # y-only profiles have zero speed, so the right-hand side vanishes and
    # the bulk left-hand side vanishes with it
    p = presets.get_preset("exp-decay")
    grid = p.build_grid(nx=17, ny=17)
    u = p.exact_state(grid)
    psi = geometry.log_cutoff(1e4, grid)
    sides = geometry.poincare_sides(u, p.model_factory(), psi)
    assert abs(sides.rhs) < 1e-20
    assert abs(sides.lhs_bulk) < 1e-20


def _two_branch_lateral_term(u, model, psi_sq):
    """Interval/rectangle branches written out face by face, the reference
    for lateral_boundary_term's axis loop."""
    from cylreact import forms
    grid = u.grid
    grad = lambda v: forms.gradient_fields(grid, v)  # noqa: E731
    comps = grad(u.values)
    state = forms.coefficient_state(u, model)
    raw = np.zeros(grid.shape)
    face_val = sum(c * grad(c)[0] for c in comps)
    raw[0, ...] += -face_val[0, ...]
    raw[-1, ...] += face_val[-1, ...]
    if grid.domain.is_rectangle:
        face_val_z = sum(c * grad(c)[1] for c in comps)
        raw[:, 0, :] += -face_val_z[:, 0, :]
        raw[:, -1, :] += face_val_z[:, -1, :]
    integrand = state["a_red"] * raw * psi_sq
    wy = grid.y_weights(state["theta"])
    if not grid.domain.is_rectangle:
        return float(np.sum(wy * integrand[0, :])) \
            + float(np.sum(wy * integrand[-1, :]))
    wx, wz = grid.axis_weights(0), grid.axis_weights(1)
    total = 0.0
    total += float(np.sum(wz[:, None] * wy[None, :] * integrand[0, :, :]))
    total += float(np.sum(wz[:, None] * wy[None, :] * integrand[-1, :, :]))
    total += float(np.sum(wx[:, None] * wy[None, :] * integrand[:, 0, :]))
    total += float(np.sum(wx[:, None] * wy[None, :] * integrand[:, -1, :]))
    return total


@pytest.mark.parametrize("model", [
    CoefficientModel.constant_one(),
    CoefficientModel.power_weight(-0.5),
    CoefficientModel.mean_curvature_weight(0.3),
], ids=["constant_one", "power_weight", "mean_curvature_weight"])
@pytest.mark.parametrize("dom", [
    DomainSpec.interval(-1.0, 2.0),
    DomainSpec.rectangle(0.0, 1.0, -2.0, 1.0),
], ids=["interval", "rectangle"])
def test_lateral_boundary_term_matches_two_branch_reference(model, dom):
    # graded 9 x 7 x 6 grid; the state is not laterally Neumann, so every
    # face contributes
    grid = build_grid(dom, nx=9, nz=7, ny=6, y_max=2.0, grading=1.0)
    coords = grid.coordinate_arrays()
    x, y = coords[0], coords[-1]
    z = coords[1] if dom.is_rectangle else 0.0
    u = CylinderField(grid, np.sin(1.3 * x + 0.4) * np.exp(-y)
                      + 0.5 * np.cos(0.7 * z) * x * x + 0.2 * y * z)
    psi_sq = (1.0 + 0.3 * np.cos(x) * np.sin(y + 0.1)) ** 2
    term = geometry.lateral_boundary_term(u, model, psi_sq)
    assert term != 0.0
    assert term == _two_branch_lateral_term(u, model, psi_sq)


@pytest.mark.parametrize("name", ["grow-cos-stable", "decay-cos-unstable",
                                  "one-dim-family", "exp-decay"])
@pytest.mark.parametrize("n", [17, 33])
def test_lateral_boundary_term_presets_match_two_branch_reference(name, n):
    p = presets.get_preset(name)
    grid = p.build_grid(nx=n, ny=n)
    u = p.exact_state(grid)
    psi_sq = geometry.log_cutoff(1e4, grid).values ** 2
    model = p.model_factory()
    assert geometry.lateral_boundary_term(u, model, psi_sq) == \
        _two_branch_lateral_term(u, model, psi_sq)


def _shared_pass_cases():
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=33, ny=33)
    X, Y = grid.coordinate_arrays()
    yield "preset", p.exact_state(grid), p.model_factory(), \
        CylinderField(grid, np.cos(X) * np.cos(np.pi * Y / 16.0))
    grid = _rect_grid(nx=13, nz=11, ny=9, y_max=2.0)
    X, Z, Y = grid.coordinate_arrays()
    u = CylinderField(grid, np.exp(-Y) * np.cos(X) * np.cos(2.0 * Z)
                      + 0.1 * X * Y)
    psi = CylinderField(grid, np.cos(np.pi * Y / 4.0) * (1.0 + 0.2 * X))
    yield "rectangle", u, CoefficientModel.mean_curvature_weight(0.3), psi


@pytest.mark.parametrize("case", list(_shared_pass_cases()),
                         ids=lambda c: c[0])
def test_poincare_sides_match_bracket_and_lateral_term(case):
    # poincare_sides reads one derivative pass; its two left-hand sides
    # must equal the public functions' values bit for bit (on an interval
    # cross-section the bracket cancels exactly, so only the rectangle
    # tests a nonzero bulk side)
    name, u, model, psi = case
    sides = geometry.poincare_sides(u, model, psi)
    w_theta = u.grid.bulk_weights(model.y_exponent)
    bracket = geometry.bulk_bracket(u, model)
    assert sides.lhs_lateral != 0.0 and sides.rhs != 0.0
    assert name == "preset" or sides.lhs_bulk != 0.0
    assert sides.lhs_bulk == float(np.sum(w_theta * bracket
                                          * psi.values ** 2))
    assert sides.lhs_lateral == -geometry.lateral_boundary_term(
        u, model, psi.values ** 2)
