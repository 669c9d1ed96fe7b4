"""Newton solver, the closed-form solution catalog, and reaction handling."""

from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cylreact import forms, presets, solver
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import CylinderField, DomainSpec, build_grid
from cylreact.solver import (
    ReactionSpec,
    catalog_solution,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_constant_flux_needs_dirichlet_top():
    # f == -1 pushes flux through the cylinder; with a zero-flux top the
    # discrete problem is inconsistent and the solver reports non-convergence
    # (without a RuntimeWarning from the singular separable sum's inverse)
    grid = _grid(ny=17, y_max=8.0)
    model = CoefficientModel.constant_one()
    reaction = ReactionSpec.constant(-1.0)
    exact = catalog_solution("linear-y", grid)
    rep = solve_newton(model, reaction, grid, exact)
    assert not rep.converged
    # f' = 0 leaves the all-Neumann matrix singular: its separable block
    # misses the residual bound, and LSMR takes both steps
    assert rep.stats["separable_solves"] == 0
    assert rep.stats["lsmr_fallbacks"] == 2
    top = ("dirichlet", exact.values[..., -1].copy())
    rep2 = solve_newton(model, reaction, grid, exact, top_bc=top)
    assert rep2.converged
    assert rep2.final_residual <= 1e-10
    assert rep2.stats["separable_solves"] == rep2.newton_iterations


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
    # the linear-step telemetry stays out of the serialized report
    assert set(d) == {"converged", "newton_iterations", "final_residual",
                      "residual_history"}
    assert set(rep.stats) == {"separable_solves", "krylov_solves",
                              "krylov_iterations", "lsmr_fallbacks",
                              "backtracks"}


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
    A, _ = solver._newton_system(u, model, reaction, top_bc)
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


def _stats():
    return {"separable_solves": 0, "krylov_solves": 0, "krylov_iterations": 0,
            "lsmr_fallbacks": 0}


def test_newton_matrix_keeps_the_stencil_sparsity_at_129():
    # uniform axes store no round-off centre weights, so the energy matrix
    # couples each node to itself and its +-2 neighbours on each axis
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=129, ny=129)
    u = p.exact_state(grid)
    rep = solve_newton(p.model(), p.reaction(), grid, u,
                       top_bc=solver.pinned_top(u))
    assert rep.converged and rep.stats["lsmr_fallbacks"] == 0
    A = forms.assemble_energy_matrix(u, p.model(), p.reaction())
    assert np.diff(A.indptr).max() <= 5


@pytest.mark.parametrize("kind, n", [("preset", 17), ("rectangle", None)])
def test_failed_factorization_falls_back_to_lsmr(kind, n, monkeypatch):
    # a fast-diagonalization factor that raises leaves the step to LSMR,
    # which still takes the indefinite exact state's full step to 1e-10
    model, reaction, grid, u, top = _indefinite_problem(kind, n)

    def refuse(*args):
        raise np.linalg.LinAlgError("singular separable sum")

    monkeypatch.setattr(solver, "_separable_factor", refuse)
    A, separable = solver._newton_system(u, model, reaction, top)
    r = residual_vector(u, model, reaction, top)
    stats = _stats()
    delta = solver._linear_step(A, -r, stats, separable).reshape(grid.shape)
    after = residual_vector(CylinderField(grid, u.values + delta), model,
                            reaction, top)
    assert float(np.max(np.abs(after))) <= 1e-10
    assert stats == dict(_stats(), lsmr_fallbacks=1)


# -- the separable (fast diagonalization) route -----------------------------

def _separable_case(kind):
    """(model, reaction, grid, u, top_bc) at a Kronecker-sum Newton matrix;
    kind is the state, then its top truncation."""
    state, top_kind = kind.rsplit("-", 1)
    if state in ("preset", "rectangle"):
        model, reaction, grid, u, _ = _indefinite_problem(state, 33)
    elif state == "graded-power-weight":
        # theta = -1/2 on a graded y axis, bulk source, y-only state
        grid = build_grid(DomainSpec.interval(0.0, PI), nx=17, ny=21,
                          y_max=2.0, grading=0.5)
        u = grid.field(lambda x, y: np.exp(-y) + 0.0 * x)
        model, reaction = CoefficientModel.power_weight(-0.5), _cubic_source()
    elif state == "graded-rectangle":
        grid = build_grid(DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), nx=9,
                          ny=9, y_max=2.0, grading=0.5, nz=7)
        u = grid.field(lambda x, z, y: np.cos(y) + 0.0 * x * z)
        model = CoefficientModel.power_weight(-0.5)
        reaction = ReactionSpec.cubic()
    else:
        grid = build_grid(DomainSpec.interval(0.0, PI), nx=17, ny=17,
                          y_max=3.0)
        u = catalog_solution("exp-decay", grid)
        model, reaction = CoefficientModel.exp_y(), ReactionSpec.constant(1.0)
    top = solver.pinned_top(u) if top_kind == "pinned" else ("neumann",)
    return model, reaction, grid, u, top


SEPARABLE_CASES = ["preset-pinned", "preset-neumann", "rectangle-pinned",
                   "rectangle-neumann", "graded-power-weight-pinned",
                   "graded-rectangle-neumann", "exp-decay-pinned"]


@pytest.mark.parametrize("kind", SEPARABLE_CASES)
def test_separable_step_matches_the_lu_step(kind):
    model, reaction, grid, u, top = _separable_case(kind)
    A, separable = solver._newton_system(u, model, reaction, top)
    rhs = -residual_vector(u, model, reaction, top)
    stats = _stats()
    step = solver._linear_step(A, rhs, stats, separable)
    ref = spla.spsolve(A.tocsc(), rhs)
    assert stats == dict(_stats(), separable_solves=1)
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind, n", [("preset", 17), ("preset", 49),
                                     ("preset", 65), ("rectangle", None)])
def test_separable_presets_converge_without_lu(kind, n):
    model, reaction, grid, u, top = _indefinite_problem(kind, n)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged
    assert rep.newton_iterations >= 1
    assert rep.stats["separable_solves"] == rep.newton_iterations
    assert rep.stats["lsmr_fallbacks"] == 0


def _kronecker_sum(grid, m_y, K_y):
    """The assembled sum of forms.separable_factors on the free nodes:
    sum_k (x_{m != k} W_m) x K_k x M_y  +  (x_m W_m) x K_y."""
    axes = range(grid.n_components - 1)
    W = [sp.diags(grid.axis_weights(k)) for k in axes]
    K = [grid.pairing_diff_1d(k).T @ W[k] @ grid.pairing_diff_1d(k)
         for k in axes]
    S = reduce(sp.kron, W + [K_y])
    for k in axes:
        S = S + reduce(sp.kron, [K[m] if m == k else W[m] for m in axes]
                       + [sp.diags(m_y)])
    return S.tocsc()


@pytest.mark.parametrize("kind", ["graded-power-weight-pinned",
                                  "graded-rectangle-neumann"])
def test_separable_factor_inverts_the_kronecker_sum(kind):
    model, reaction, grid, u, top = _separable_case(kind)
    _, (_, m_y, K_y, exact) = solver._newton_system(u, model, reaction, top)
    assert exact
    r = np.random.default_rng(3).standard_normal(grid.shape)[..., :m_y.size]
    ref = spla.spsolve(_kronecker_sum(grid, m_y, K_y), r.ravel())
    z = solver._separable_factor(grid, m_y, K_y)(r)
    assert z.shape == r.shape
    assert np.linalg.norm(z.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


def test_averaged_separable_factor_is_symmetric():
    # conjugate gradients needs a symmetric preconditioner
    model, reaction, grid, u, top = _non_separable_case("p-laplace")
    _, (_, m_y, K_y, exact) = solver._newton_system(u, model, reaction, top)
    assert not exact
    solve = solver._separable_factor(grid, m_y, K_y)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x, y = rng.standard_normal((2, grid.nx, m_y.size))
        xPy, Pxy = float(np.vdot(x, solve(y))), float(np.vdot(solve(x), y))
        assert abs(xPy - Pxy) <= 1e-12 * abs(Pxy)


def test_separable_factor_refuses_a_nonpositive_mass():
    model, reaction, grid, u, top = _separable_case("preset-neumann")
    _, (_, m_y, K_y, _) = solver._newton_system(u, model, reaction, top)
    m_y = m_y.copy()
    m_y[3] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solver._separable_factor(grid, m_y, K_y)


def test_exact_separable_step_is_accurate_on_a_nearly_singular_state():
    # decay-cos-unstable pinned at 129^2 is one Newton step from the exact
    # state, on a nearly singular matrix.  The reference step is an LU
    # solve refined three times with residuals in extended precision; the
    # refined fast-diagonalization step meets it to 6e-13 (one apply
    # alone: 2.4e-10)
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=129, ny=129)
    model, reaction, u = p.model(), p.reaction(), p.exact_state(grid)
    top = solver.pinned_top(u)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged and rep.newton_iterations == 1
    assert rep.stats["separable_solves"] == 1
    A, _ = solver._newton_system(u, model, reaction, top)
    rhs = -residual_vector(u, model, reaction, top)
    lu = spla.splu(A.tocsc())
    A_ext, rhs_ext = A.astype(np.longdouble), rhs.astype(np.longdouble)
    ref = lu.solve(rhs).astype(np.longdouble)
    for _ in range(3):
        ref += lu.solve((rhs_ext - A_ext @ ref).astype(float))
    step = (rep.u.values - u.values).ravel()
    assert np.linalg.norm(step - ref) <= 2e-12 * np.linalg.norm(ref)


def _non_separable_case(kind):
    """(model, reaction, grid, u, top_bc) at cos x e^{-y} on a 17^2 grid,
    whose Newton matrix is not a Kronecker sum: |grad u|-dependent for the
    p-Laplace and mean-curvature models, x-dependent f' for a = 1."""
    grid = _grid()
    u = grid.field(lambda x, y: np.cos(x) * np.exp(-y))
    model = {"p-laplace": CoefficientModel.power_weight_p_laplace(0.0, 3.0),
             "mean-curvature": CoefficientModel.mean_curvature_weight(0.0),
             "cubic-x-dependent": CoefficientModel.constant_one()}[kind]
    return model, ReactionSpec.cubic(), grid, u, solver.pinned_top(u)


@pytest.mark.parametrize("kind", ["p-laplace", "mean-curvature",
                                  "cubic-x-dependent"])
def test_non_separable_states_take_the_krylov_route(kind):
    model, reaction, grid, u, top = _non_separable_case(kind)
    A, separable = solver._newton_system(u, model, reaction, top)
    assert separable[-1] is False
    rhs = -residual_vector(u, model, reaction, top)
    ref = spla.spsolve(A.tocsc(), rhs)
    stats = _stats()
    step = solver._linear_step(A, rhs, stats, separable)
    assert stats["krylov_solves"] == 1 and stats["krylov_iterations"] >= 1
    assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged and rep.newton_iterations >= 1
    assert rep.stats["separable_solves"] == 0
    assert rep.stats["krylov_solves"] == rep.newton_iterations
    assert rep.stats["lsmr_fallbacks"] == 0


def test_missed_krylov_step_falls_back_to_lsmr(monkeypatch):
    model, reaction, grid, u, top = _non_separable_case("p-laplace")
    A, separable = solver._newton_system(u, model, reaction, top)
    rhs = -residual_vector(u, model, reaction, top)
    monkeypatch.setattr(solver.spla, "cg",
                        lambda A, b, **kw: (np.zeros_like(b), 0))
    stats = _stats()
    step = solver._linear_step(A, rhs, stats, separable)
    assert stats == dict(_stats(), lsmr_fallbacks=1)
    assert np.linalg.norm(A @ step - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_krylov_step_at_its_iteration_cap_falls_back_to_lsmr(monkeypatch):
    model, reaction, grid, u, top = _non_separable_case("mean-curvature")
    A, separable = solver._newton_system(u, model, reaction, top)
    rhs = -residual_vector(u, model, reaction, top)
    monkeypatch.setattr(solver, "KRYLOV_MAXITER", 1)
    stats = _stats()
    step = solver._linear_step(A, rhs, stats, separable)
    assert stats == dict(_stats(), krylov_iterations=1, lsmr_fallbacks=1)
    assert np.linalg.norm(A @ step - rhs) <= 1e-6 * np.linalg.norm(rhs)


def test_round_off_y_only_iterate_stays_off_the_lu():
    # f = u - u^3 from y-only data: after two steps the iterate's
    # cross-section spread is round-off (about 1e-16), so the Newton matrix
    # is no longer exactly a Kronecker sum, and its averaged sum is the
    # matrix up to round-off: one conjugate-gradient iteration per step
    grid = _grid(nx=33, ny=33)
    reaction = ReactionSpec.custom(f=lambda v: v - v ** 3,
                                   f_prime=lambda v: 1.0 - 3.0 * v ** 2)
    init = CylinderField(grid, np.full(grid.shape, 0.5))
    rep = solve_newton(CoefficientModel.constant_one(), reaction, grid, init,
                       top_bc=("dirichlet", np.full(grid.nx, 0.3)))
    assert rep.converged and rep.newton_iterations == 6
    assert rep.stats["separable_solves"] == 2
    assert rep.stats["krylov_solves"] == rep.stats["krylov_iterations"] == 4
    assert rep.stats["lsmr_fallbacks"] == 0


def test_non_separable_3d_solve_converges_without_lu():
    grid = build_grid(DomainSpec.rectangle(0.0, PI, 0.0, PI), nx=17, ny=17,
                      y_max=2.0, nz=17)
    reaction = ReactionSpec.cubic().shifted(1.0)
    init = grid.field(lambda x, z, y: np.cos(x) * np.cos(z) * y)
    rep = solve_newton(CoefficientModel.power_weight_p_laplace(0.0, 3.0),
                       reaction, grid, init, top_bc=solver.pinned_top(init))
    assert rep.converged and rep.newton_iterations == 5
    assert rep.stats["krylov_solves"] == rep.newton_iterations
    assert rep.stats["lsmr_fallbacks"] == 0


# -- derived checks ----------------------------------------------------------

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


# -- weak residual and second-variation quadrature ---------------------------

def _quadrature_residual_weak(u, model, reaction, phi):
    """The direct quadrature residual_weak used before it became phi @ r:
    int a grad u . grad phi + int g phi - int_bottom f(u) phi, summed
    pointwise over the tensor weights."""
    grid = u.grid
    state = forms.coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"])
    phi_comps = forms.gradient_fields(grid, phi.values, pairing=True)
    dot = sum(state["a_red"] * gc * pc
              for gc, pc in zip(state["comps"], phi_comps))
    total = float(np.sum(w_theta * dot))
    if reaction.g is not None:
        total += float(np.sum(grid.bulk_weights(0.0)
                              * reaction.g(state["y"], u.values) * phi.values))
    total -= float(np.sum(grid.bottom_weights() * reaction.f(u.values[..., 0])
                          * phi.values[..., 0]))
    return total


def _cubic_source():
    return ReactionSpec.custom(
        f=lambda u: -u, f_prime=lambda u: -np.ones_like(u),
        g=lambda y, u: y * u ** 3, g_u=lambda y, u: 3.0 * y * u ** 2)


def _weak_case(kind):
    """(grid, model, reaction, u) with u a perturbed or random state."""
    rng = np.random.default_rng(11)
    if kind == "preset":
        p = presets.get_preset("grow-cos-stable")
        grid = p.build_grid(nx=17, ny=17)
        vals = p.exact_state(grid).values + 0.1 * rng.standard_normal(grid.shape)
        return grid, p.model(), p.reaction(), CylinderField(grid, vals)
    if kind == "graded-rectangle":
        grid = build_grid(DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), nx=9,
                          ny=9, y_max=2.0, grading=0.5, nz=7)
        model = CoefficientModel.power_weight(-0.5)
        reaction = ReactionSpec.cubic()
    elif kind == "mean-curvature":
        grid = build_grid(DomainSpec.interval(0.0, PI), nx=17, ny=17,
                          y_max=2.0, grading=0.5)
        model = CoefficientModel.mean_curvature_weight(-0.5)
        reaction = presets.get_preset("sneumann-constancy").reaction()
    else:
        grid = _grid()
        model, reaction = CoefficientModel.constant_one(), _cubic_source()
    return grid, model, reaction, CylinderField(
        grid, rng.standard_normal(grid.shape))


@pytest.mark.parametrize("kind", ["preset", "graded-rectangle",
                                  "mean-curvature", "bulk-source"])
def test_residual_weak_matches_direct_quadrature(kind):
    grid, model, reaction, u = _weak_case(kind)
    rng = np.random.default_rng(12)
    for _ in range(3):
        vals = rng.standard_normal(grid.shape)
        vals[..., -1] = 0.0
        phi = CylinderField(grid, vals)
        assert solver.residual_weak(u, model, reaction, phi) == pytest.approx(
            _quadrature_residual_weak(u, model, reaction, phi), rel=1e-12)


def test_residual_weak_rejects_test_field_on_top_slice():
    grid, model, reaction, u = _weak_case("bulk-source")
    with pytest.raises(ValueError, match="vanish on the top slice"):
        solver.residual_weak(u, model, reaction,
                             CylinderField(grid, np.ones(grid.shape)))


def test_energy_quadrature_matches_assembled_form():
    grid = build_grid(DomainSpec.interval(0.0, PI), nx=17, ny=17, y_max=2.0,
                      grading=0.5)
    model = CoefficientModel.mean_curvature_weight(-0.5)
    assert model.has_t_dependence
    rng = np.random.default_rng(13)
    u = CylinderField(grid, rng.standard_normal(grid.shape))
    reaction = _cubic_source()
    A = forms.assemble_energy_matrix(u, model, reaction)
    for _ in range(3):
        phi = rng.standard_normal(grid.shape)
        flat = phi.ravel()
        assert forms.energy_quadrature(
            u, model, reaction, CylinderField(grid, phi)) == pytest.approx(
                float(flat @ (A @ flat)), rel=1e-12)


def _pairwise_energy_matrix(u, model, reaction):
    """The energy matrix with the isotropic term per component and the
    rank-one term per ordered pair of components, one product each."""
    grid = u.grid
    state = forms.coefficient_state(u, model)
    w = grid.bulk_weights(state["theta"]).ravel()
    Gs = grid.pairing_gradient_operators()
    A = None
    for G in Gs:
        term = G.T @ (sp.diags(w * state["a_red"].ravel()) @ G)
        A = term if A is None else A + term
    if model.has_t_dependence:
        factor = w * (state["a_t_red"].ravel() / state["norm_reg"].ravel())
        comps = [c.ravel() for c in state["comps"]]
        for gc, Gc in zip(comps, Gs):
            for gd, Gd in zip(comps, Gs):
                A = A + Gc.T @ (sp.diags(factor * gc * gd) @ Gd)
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = grid.bottom_weights() * reaction.f_prime(u.values[..., 0])
    return (A - sp.diags(bottom.ravel())).tocsr()


@pytest.mark.parametrize("model", [
    CoefficientModel.mean_curvature_weight(-0.5),
    CoefficientModel.power_weight_p_laplace(0.0, 3.0),
    CoefficientModel.power_weight(-0.5),
], ids=["mean-curvature", "p-laplace", "isotropic"])
@pytest.mark.parametrize("nz", [None, 5], ids=["interval", "rectangle"])
def test_energy_matrix_folds_the_rank_one_term_per_pair(model, nz):
    domain = (DomainSpec.interval(0.0, PI) if nz is None
              else DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI))
    grid = build_grid(domain, nx=9, ny=7, y_max=2.0, grading=0.5, nz=nz)
    u = CylinderField(grid, np.random.default_rng(14).standard_normal(
        grid.shape))
    reaction = ReactionSpec.cubic()
    A = forms.assemble_energy_matrix(u, model, reaction)
    ref = _pairwise_energy_matrix(u, model, reaction)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    if model.has_t_dependence:
        assert (np.abs(A.data - ref.data).max()
                <= 1e-14 * np.abs(ref.data).max())
    else:
        assert np.array_equal(A.data, ref.data)


# -- the damped-Newton loop ----------------------------------------------------

def test_damped_newton_converges_without_halvings_near_a_root():
    x, r, history, halvings, stalled = solver.damped_newton(
        lambda x: x ** 2 - 2.0, lambda x, r: -r / (2.0 * x),
        np.array([1.5]), tol=1e-14, max_iter=20)
    assert not stalled
    assert x[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert halvings == [0] * len(halvings)
    assert len(history) == len(halvings) + 1
    assert history[-1] == float(np.max(np.abs(r))) <= 1e-14


def test_damped_newton_reports_a_stall_and_keeps_the_iterate():
    # an ascent direction: no step length decreases ||r||^2
    x0 = np.array([1.5])
    x, r, history, halvings, stalled = solver.damped_newton(
        lambda x: x ** 2 - 2.0, lambda x, r: r / (2.0 * x), x0,
        tol=1e-14, max_iter=20)
    assert stalled
    assert halvings == []
    assert np.array_equal(x, x0)
    assert history == [0.25]


def _mean_curvature_solve(n):
    """theta = -1/2, f = -u - u^3, started from a cos x y / 2 with a = 2.5
    and the top pinned to it (the benchmark's slow Newton family)."""
    grid = build_grid(DomainSpec.interval(0.0, PI), nx=n, ny=n, y_max=2.0,
                      grading=0.5)
    init = grid.field(lambda x, y: 2.5 * np.cos(x) * y / 2.0)
    return solve_newton(CoefficientModel.mean_curvature_weight(-0.5),
                        ReactionSpec.cubic().shifted(1.0), grid, init,
                        top_bc=solver.pinned_top(init))


def test_newton_trace_mean_curvature_converges_at_33():
    rep = _mean_curvature_solve(33)
    assert rep.converged
    assert rep.newton_iterations == 21
    assert sum(rep.stats["backtracks"]) == 40
    assert len(rep.residual_history) == 22


def test_newton_trace_mean_curvature_stalls_at_17():
    # the path past the tenth step rides on round-off: the Jacobian is
    # nearly singular on the residual plateau near 1.4544, and LSMR takes
    # the last steps
    rep = _mean_curvature_solve(17)
    assert not rep.converged
    assert rep.newton_iterations == 13
    assert rep.stats["backtracks"] == [0, 1, 1, 1, 1, 1, 3, 3, 10, 14, 1,
                                       0, 0]
    assert rep.final_residual == rep.residual_history[-1] > 1.0
