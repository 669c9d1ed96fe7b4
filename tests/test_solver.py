"""Newton solver, the closed-form solution catalog, and reaction handling."""

import numpy as np
import pytest

from cylreact import forms, presets, solver
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import CylinderField, DomainSpec, build_grid
from cylreact.solver import (
    ReactionSpec,
    catalog_solution,
    check_y_dependence,
    extremum_sign_check,
    residual_vector,
    solve_newton,
)

PI = np.pi


def _grid(domain=None, nx=17, ny=17, y_max=2.0):
    return build_grid(domain or DomainSpec.interval(0.0, PI),
                      nx=nx, ny=ny, y_max=y_max)


# -- catalog residual orders (frozen desk-scale oracles) ---------------------

def _residual_ladder(name, domain, y_max, model, reaction):
    out = []
    for n in (17, 33, 65):
        grid = build_grid(domain, nx=n, ny=n, y_max=y_max)
        u = catalog_solution(name, grid, model=model, reaction=reaction, c=1.0)
        r = residual_vector(u, model, reaction)
        non_top = ~grid.top_mask().ravel()
        out.append(float(np.max(np.abs(r[non_top]))))
    return out


def test_decay_cos_second_order():
    res = _residual_ladder("decay-cos", DomainSpec.interval(0.0, 2 * PI), 2.0,
                           CoefficientModel.constant_one(),
                           ReactionSpec.linear(1.0))
    slope = np.polyfit(np.log([16, 32, 64]), np.log(res), 1)[0]
    assert -slope >= 1.9
    assert res[0] == pytest.approx(0.016302, rel=1e-3)


def test_exp_decay_second_order():
    res = _residual_ladder("exp-decay", DomainSpec.interval(0.0, PI), 3.0,
                           CoefficientModel.exp_y(),
                           ReactionSpec.constant(1.0))
    slope = np.polyfit(np.log([16, 32, 64]), np.log(res), 1)[0]
    assert -slope >= 1.9


def test_linear_y_exact_on_grid():
    res = _residual_ladder("linear-y", DomainSpec.interval(0.0, PI), 8.0,
                           CoefficientModel.constant_one(),
                           ReactionSpec.constant(-1.0))
    assert max(res) < 1e-12


def test_one_dim_family_theta_zero_exact():
    res = _residual_ladder("one-dim-family", DomainSpec.interval(0.0, PI), 2.0,
                           CoefficientModel.constant_one(),
                           ReactionSpec.linear(1.0))
    assert max(res) < 1e-12


def test_one_dim_family_formula():
    # u(y) = c - f(c) * int_0^y dz / a(z, 0) for y-only data
    grid = _grid(ny=33, y_max=1.0)
    model = CoefficientModel.power_weight(-0.5)
    reaction = ReactionSpec.linear(1.0)
    u = catalog_solution("one-dim-family", grid, model=model,
                         reaction=reaction, c=1.0)
    y = grid.coordinate_arrays()[-1]
    exact = 1.0 - (2.0 / 3.0) * y ** 1.5
    assert np.allclose(u.values, exact, atol=1e-10)


def test_catalog_rejects_unknown_name():
    with pytest.raises(ValueError):
        catalog_solution("no-such-profile", _grid())


# -- Newton solves -----------------------------------------------------------

def test_newton_recovers_grow_cos_from_perturbation():
    grid = build_grid(DomainSpec.interval(0.0, 2 * PI), nx=33, ny=33,
                      y_max=1.0)
    model = CoefficientModel.constant_one()
    reaction = ReactionSpec.linear(-1.0)
    exact = catalog_solution("grow-cos", grid, model=model, reaction=reaction)
    rng = np.random.default_rng(11)
    init = CylinderField(grid, exact.values
                         + 1e-3 * rng.standard_normal(grid.shape))
    top = ("dirichlet", exact.values[..., -1].copy())
    rep = solve_newton(model, reaction, grid, init, top_bc=top)
    assert rep.converged
    assert rep.final_residual <= 1e-10
    # lands on the discrete profile, within discretization error of the
    # closed form (h^2 ~ 0.04 on this domain at nx=33)
    assert float(np.max(np.abs(rep.u.values - exact.values))) < 0.05


def test_newton_constant_flux_needs_dirichlet_top():
    # f == -1 pushes flux through the cylinder; with a zero-flux top the
    # discrete problem is inconsistent and the solver reports non-convergence
    grid = _grid(ny=17, y_max=8.0)
    model = CoefficientModel.constant_one()
    reaction = ReactionSpec.constant(-1.0)
    exact = catalog_solution("linear-y", grid)
    rep = solve_newton(model, reaction, grid, exact)
    assert not rep.converged
    top = ("dirichlet", exact.values[..., -1].copy())
    rep2 = solve_newton(model, reaction, grid, exact, top_bc=top)
    assert rep2.converged
    assert rep2.final_residual <= 1e-10


def test_newton_quadratic_history():
    grid = build_grid(DomainSpec.interval(0.0, 2 * PI), nx=33, ny=33,
                      y_max=1.0)
    model = CoefficientModel.constant_one()
    reaction = ReactionSpec.custom(
        f=lambda u: u + 0.1 * u ** 3,
        f_prime=lambda u: 1.0 + 0.3 * u ** 2,
        g=lambda y, u: u, g_u=lambda y, u: np.ones_like(u))
    exact = catalog_solution("decay-cos", grid)
    init = CylinderField(grid, 0.9 * exact.values)
    top = ("dirichlet", np.zeros(grid.nx))
    rep = solve_newton(model, reaction, grid, init, top_bc=top)
    assert rep.converged
    assert rep.newton_iterations <= 12


def test_solve_report_serializes():
    grid = _grid(nx=9, ny=9)
    rep = solve_newton(CoefficientModel.constant_one(),
                       ReactionSpec.custom(
                           f=lambda u: -u, f_prime=lambda u: -np.ones_like(u)),
                       grid, CylinderField(grid, np.zeros(grid.shape)))
    d = rep.to_json_dict()
    assert d["converged"] is True
    assert isinstance(d["residual_history"], list)


def test_top_bc_validation():
    grid = _grid(nx=9, ny=9)
    with pytest.raises(ValueError):
        residual_vector(CylinderField(grid, np.zeros(grid.shape)),
                        CoefficientModel.constant_one(),
                        ReactionSpec.constant(0.0), top_bc=("robin", 1.0))


def _lil_pinned(u, model, reaction):
    """Reference Dirichlet pinning: zero each top row in LIL format and put a
    unit on its diagonal."""
    A = forms.assemble_energy_matrix(u, model, reaction).tolil()
    top = np.flatnonzero(u.grid.top_mask().ravel())
    A[top, :] = 0.0
    A[top, top] = 1.0
    return A.tocsr()


@pytest.mark.parametrize("domain, nz, model", [
    (DomainSpec.interval(0.0, PI), None,
     CoefficientModel.power_weight_p_laplace(0.0, 3.0)),
    (DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), 5,
     CoefficientModel.constant_one()),
], ids=["interval", "rectangle"])
def test_pinned_newton_matrix_matches_lil_pinning(domain, nz, model):
    grid = build_grid(domain, nx=9, ny=7, y_max=2.0, nz=nz)
    rng = np.random.default_rng(5)
    u = CylinderField(grid, rng.standard_normal(grid.shape))
    reaction = ReactionSpec.cubic()
    top_bc = ("dirichlet", u.values[..., -1].ravel().copy())
    A = solver._newton_matrix(u, model, reaction, top_bc)
    ref = _lil_pinned(u, model, reaction)
    assert np.array_equal(A.toarray(), ref.toarray())
    for i in np.flatnonzero(grid.top_mask().ravel()):
        row = slice(A.indptr[i], A.indptr[i + 1])
        assert A.indices[row].tolist() == [i]
        assert A.data[row].tolist() == [1.0]


def _indefinite_problem(kind, n):
    """Pinned exact states whose Newton matrix is indefinite: the unstable
    decay-cos preset on an n x n grid, or decay-cos with f(u) = u on a
    7 x 5 x 7 rectangle."""
    if kind == "preset":
        p = presets.get_preset("decay-cos-unstable")
        grid = p.build_grid(nx=n, ny=n)
        model, reaction, u = p.model(), p.reaction(), p.exact_state(grid)
    else:
        grid = build_grid(DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI),
                          nx=7, ny=7, y_max=8.0, nz=5)
        model, reaction = CoefficientModel.constant_one(), ReactionSpec.linear(1.0)
        u = catalog_solution("decay-cos", grid)
    return model, reaction, grid, u, ("dirichlet", u.values[..., -1].ravel().copy())


@pytest.mark.parametrize("kind, n", [("preset", 49), ("rectangle", None)])
def test_indefinite_newton_steps_stay_on_lu(kind, n):
    model, reaction, grid, u, top = _indefinite_problem(kind, n)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged
    assert rep.newton_iterations == 1
    assert rep.stats["lsmr_fallbacks"] == 0
    assert rep.stats["factorizations"] == 1
    assert rep.stats["backtracks"] == [0]
    assert rep.stats["lu_fill_nnz"] > 0
    assert "stats" not in rep.to_json_dict()


@pytest.mark.parametrize("kind, n", [("preset", 17), ("rectangle", None)])
def test_failed_factorization_falls_back_to_lsmr(kind, n, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver.spla, "splu", refuse)
    model, reaction, grid, u, top = _indefinite_problem(kind, n)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged
    assert rep.newton_iterations == 1
    assert rep.stats["factorizations"] == 0
    assert rep.stats["lsmr_fallbacks"] == rep.newton_iterations


# -- derived checks ----------------------------------------------------------

def test_check_y_dependence_flags_x_variation():
    grid = _grid(nx=33, ny=17)
    X, Y = grid.coordinate_arrays()
    assert check_y_dependence(CylinderField(grid, Y ** 2)) < 1e-14
    assert check_y_dependence(CylinderField(grid, np.cos(X))) > 0.1


def test_extremum_sign_check_const_one():
    grid = _grid(nx=17, ny=17)
    u = CylinderField(grid, np.ones(grid.shape))
    reaction = ReactionSpec.custom(
        f=lambda v: 1.0 - v, f_prime=lambda v: -np.ones_like(v))
    out = extremum_sign_check(u, reaction, tol=1e-8)
    assert out["ok"]
    assert out["attained_on_bottom"]
    assert out["f_at_infimum"] == pytest.approx(0.0, abs=1e-14)


def test_extremum_sign_check_flags_positive_f():
    grid = _grid(nx=9, ny=9)
    Y = grid.coordinate_arrays()[-1]
    u = CylinderField(grid, 1.0 + Y)  # infimum 1 on the bottom
    reaction = ReactionSpec.custom(
        f=lambda v: np.ones_like(v), f_prime=lambda v: np.zeros_like(v))
    out = extremum_sign_check(u, reaction, tol=1e-8)
    assert not out["sign_ok"]
    assert not out["ok"]


def test_reaction_shifted_family():
    base = ReactionSpec.cubic()
    shifted = base.shifted(0.5)
    v = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(base.f(v), -v ** 3)
    assert np.allclose(shifted.f(v), -v ** 3 - 0.5 * v)
    assert np.allclose(shifted.f_prime(v), -3 * v ** 2 - 0.5)
