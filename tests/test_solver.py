"""Newton solver, the closed-form solution catalog, and reaction handling."""

import time
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
    # f' = 0 leaves the all-Neumann matrix singular: its separable step
    # misses the residual bound, which ends the solve before any step
    assert rep.stats["separable_solves"] == 0
    assert rep.stats["stop_reason"].startswith(
        "separable step missed: relative residual ")
    assert rep.newton_iterations == 0 and rep.residual_history == [
        rep.final_residual]
    assert np.array_equal(rep.u.values, exact.values)
    top = ("dirichlet", exact.values[..., -1].copy())
    rep2 = solve_newton(model, reaction, grid, exact, top_bc=top)
    assert rep2.converged
    assert rep2.final_residual <= 1e-10
    assert rep2.stats["separable_solves"] == rep2.newton_iterations


def test_all_neumann_kernel_keeps_the_weighted_mean():
    # a = 1, f = 0 and a zero-flux top: the Newton matrix has the constants
    # in its kernel.  The separable solve leaves that mode out, so the
    # (W x M_y)-weighted mean of u stays at that of the initial state (1.2);
    # dividing by the round-off eigenvalue moved it to 1.2120
    grid = _grid(ny=17, y_max=8.0)
    init = grid.field(lambda x, y: np.cos(x) * np.exp(-y) + 0.3 * y)
    rep = solve_newton(CoefficientModel.constant_one(),
                       ReactionSpec.constant(0.0), grid, init)
    assert rep.converged and rep.stats["stop_reason"] is None
    assert rep.stats["separable_solves"] == rep.newton_iterations >= 1
    w = grid.bulk_weights(0.0)
    for u in (init, rep.u):
        assert abs(np.sum(w * u.values) / np.sum(w) - 1.2) <= 1e-12


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
                              "krylov_iterations", "krylov_residual_max",
                              "stop_reason", "backtracks", "continuation"}
    assert rep.stats["stop_reason"] is None


def test_top_bc_validation():
    grid = _grid(nx=9, ny=9)
    with pytest.raises(ValueError):
        residual_vector(CylinderField(grid, np.zeros(grid.shape)),
                        CoefficientModel.constant_one(),
                        ReactionSpec.constant(0.0), top_bc=("robin", 1.0))


def _energy(u, model, reaction, nf=None):
    """forms.assemble_energy_matrix at u's coefficient state."""
    return forms.assemble_energy_matrix(forms.coefficient_state(u, model),
                                        reaction, nf)


def _step(u, model, reaction, top, rhs, stats):
    """solver._newton_step at u's coefficient state."""
    return solver._newton_step(forms.coefficient_state(u, model), reaction,
                               top, rhs, stats)


def _factors(u, model, reaction, top):
    """(m_y, K_y, exact): forms.separable_factors at u's coefficient
    state, with a pinned top cut from m_y and K_y's band as a Newton step
    cuts it."""
    m_y, K_y, exact = forms.separable_factors(
        forms.coefficient_state(u, model), reaction)
    if top[0] == "dirichlet":
        m_y, K_y = m_y[:-1], K_y[:, :-1]
    return m_y, K_y, exact


def _lil_pinned(u, model, reaction):
    """Reference Dirichlet pinning: zero each top row in LIL format and put a
    unit on its diagonal."""
    A = _energy(u, model, reaction).tolil()
    top = np.flatnonzero(u.grid.top_mask().ravel())
    A[top, :] = 0.0
    A[top, top] = 1.0
    return A.tocsr()


def _lu_matrix(u, model, reaction, top):
    """The matrix whose direct solve is the Newton step: the energy matrix,
    with unit top rows (_lil_pinned) for a pinned top."""
    if top[0] == "dirichlet":
        return _lil_pinned(u, model, reaction)
    return _energy(u, model, reaction)


@pytest.mark.parametrize("domain, nz, model, y_only", [
    (DomainSpec.interval(0.0, PI), None,
     CoefficientModel.power_weight_p_laplace(0.0, 3.0), False),
    (DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), 5,
     CoefficientModel.constant_one(), False),
    (DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), 5,
     CoefficientModel.constant_one(), True),
], ids=["interval", "rectangle", "rectangle-exact"])
def test_newton_matrix_is_the_energy_matrix_for_either_top(domain, nz, model,
                                                           y_only,
                                                           monkeypatch):
    # a pinned top changes only the y factors: one Newton step builds the
    # assembled energy matrix, and a conjugate-gradient step also its free
    # block below the free heights from the same planes (the matrix itself
    # with a Neumann top); an exact-sum step builds no block
    grid = build_grid(domain, nx=9, ny=7, y_max=2.0, nz=nz)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(grid.ny if y_only else grid.shape)
    u = CylinderField(grid, np.broadcast_to(values, grid.shape).copy())
    reaction = ReactionSpec.cubic()
    ref = _energy(u, model, reaction)
    exact = _factors(u, model, reaction, ("neumann",))[2]
    assert exact == y_only
    matrix, factor = forms.EnergyLayout.matrix, solver._separable_factor
    built, heights = [], []

    def record_matrix(layout, planes, nf):
        built.append((nf, matrix(layout, planes, nf)))
        return built[-1][1]

    def record_factor(grid, m_y, K_y):
        heights.append(m_y.size)
        return factor(grid, m_y, K_y)

    for top in (("neumann",), solver.pinned_top(u)):
        nf = grid.ny - (top[0] == "dirichlet")
        want = [(grid.ny, ref)]
        if not exact and nf < grid.ny:
            want.append((nf, _energy(u, model, reaction, nf=nf)))
        rhs = -residual_vector(u, model, reaction, top)
        built.clear()
        heights.clear()
        with monkeypatch.context() as m:
            m.setattr(forms.EnergyLayout, "matrix", record_matrix)
            m.setattr(solver, "_separable_factor", record_factor)
            _step(u, model, reaction, top, rhs, _stats())
        assert heights == [nf]
        assert [n for n, _ in built] == [n for n, _ in want]
        for (_, B), (_, W) in zip(built, want):
            assert np.array_equal(B.offsets, W.offsets)
            assert np.array_equal(B.data, W.data)


@pytest.mark.parametrize("kind", ["preset-pinned", "rectangle-pinned",
                                  "krylov-p-laplace", "krylov-mean-curvature"])
def test_pinned_step_reads_the_top_rows_off_the_residual(kind):
    # the step on a pinned top slice is -r there, exactly, on both routes;
    # the data are moved off u's trace so that r is nonzero there
    if kind.startswith("krylov"):
        case = _non_separable_case(kind.split("-", 1)[1])
    else:
        case = _separable_case(kind)
    model, reaction, grid, u, (_, value) = case
    top = ("dirichlet", value + 0.25)
    r = residual_vector(u, model, reaction, top)
    step = _step(u, model, reaction, top, -r, _stats())
    top_rows = grid.top_mask().ravel()
    assert np.any(r[top_rows] != 0.0)
    assert np.array_equal(step[top_rows], -r[top_rows])


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
            "krylov_residual_max": 0.0}


def test_newton_matrix_keeps_the_stencil_sparsity_at_129():
    # uniform axes store no round-off centre weights, so the energy matrix
    # couples each node to itself and its +-2 neighbours on each axis
    p = presets.get_preset("grow-cos-stable")
    grid = p.build_grid(nx=129, ny=129)
    u = p.exact_state(grid)
    rep = solve_newton(p.model(), p.reaction(), grid, u,
                       top_bc=solver.pinned_top(u))
    assert rep.converged
    A = _energy(u, p.model(), p.reaction()).tocsr()
    A.eliminate_zeros()
    assert np.diff(A.indptr).max() <= 5


@pytest.mark.parametrize("kind, n", [("preset", 17), ("rectangle", None)])
def test_failed_factorization_stops_the_solve(kind, n, monkeypatch):
    # a fast-diagonalization factor that raises leaves the step unsolved:
    # the solve ends at its initial state with the factor's error as its
    # reason, and its pinned nonzero data start no continuation
    model, reaction, grid, u, top = _indefinite_problem(kind, n)

    def refuse(*args):
        raise np.linalg.LinAlgError("singular separable sum")

    monkeypatch.setattr(solver, "_separable_factor", refuse)
    r = residual_vector(u, model, reaction, top)
    stats = _stats()
    assert _step(u, model, reaction, top, -r, stats) is None
    reason = "separable factor raised LinAlgError: singular separable sum"
    assert stats == dict(_stats(), stop_reason=reason)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert not rep.converged and rep.stats["stop_reason"] == reason
    assert rep.newton_iterations == 0 and rep.stats["continuation"] == []
    assert np.array_equal(rep.u.values, u.values)
    assert rep.final_residual == float(np.max(np.abs(r))) > 1e-10


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
    rhs = -residual_vector(u, model, reaction, top)
    stats = _stats()
    step = _step(u, model, reaction, top, rhs, stats)
    ref = spla.spsolve(_lu_matrix(u, model, reaction, top).tocsc(), rhs)
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


def _band_matrix(band):
    """The symmetric sparse matrix whose lower band is ``band``
    (band[r, j] = K[j + r, j]; entries past the last row are not read)."""
    n = band.shape[1]
    lower = [band[r, :n - r] for r in range(band.shape[0])]
    offsets = list(range(band.shape[0]))
    return sp.diags(lower + lower[1:], [-r for r in offsets] + offsets[1:],
                    format="csr")


def _kronecker_sum(grid, m_y, K_y):
    """The assembled sum of forms.separable_factors on the free nodes:
    sum_k (x_{m != k} W_m) x K_k x M_y  +  (x_m W_m) x K_y, for K_y given
    by its lower band."""
    axes = range(grid.n_components - 1)
    W = [sp.diags(grid.axis_weights(k)) for k in axes]
    K = [_band_matrix(grid.gram_band(k, grid.axis_weights(k))) for k in axes]
    S = reduce(sp.kron, W + [_band_matrix(K_y)])
    for k in axes:
        S = S + reduce(sp.kron, [K[m] if m == k else W[m] for m in axes]
                       + [sp.diags(m_y)])
    return S.tocsc()


@pytest.mark.parametrize("kind", ["graded-power-weight-pinned",
                                  "graded-rectangle-neumann"])
def test_separable_factor_inverts_the_kronecker_sum(kind):
    model, reaction, grid, u, top = _separable_case(kind)
    m_y, K_y, exact = _factors(u, model, reaction, top)
    assert exact
    r = np.random.default_rng(3).standard_normal(grid.shape)[..., :m_y.size]
    ref = spla.spsolve(_kronecker_sum(grid, m_y, K_y), r.ravel())
    z = solver._separable_factor(grid, m_y, K_y)(r)
    assert z.shape == r.shape
    assert np.linalg.norm(z.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


def _sparse_y_factor(u, model, reaction):
    """(m_y, K_y) of a y-only state and an isotropic model by sparse
    products of the y pairing difference D (the first block of the flat
    y operator): K_y = D^T M_y D - f' e_0 e_0^T + diag(y_weights(0) g_u)."""
    grid = u.grid
    state = forms.coefficient_state(u, model)
    m_y = grid.y_weights(state["theta"]) * state["a_red"][0]
    D = grid.pairing_gradient_operators()[-1][:grid.ny, :grid.ny]
    zero_order = np.zeros(grid.ny)
    zero_order[0] = -reaction.f_prime(u.values[:1, 0])[0]
    zero_order += grid.y_weights(0.0) * reaction.g_u(grid.y_nodes,
                                                     u.values[0])
    return m_y, (D.T @ sp.diags(m_y) @ D + sp.diags(zero_order)).tocsr()


def test_y_factor_is_the_band_of_the_sparse_product():
    # the Neumann y factor is the lower band of the sparse construction,
    # and the pinned one, its band with the last column dropped, that of
    # its leading block K_y[:-1, :-1], bit for bit
    model, reaction, grid, u, top = _separable_case(
        "graded-power-weight-pinned")
    m_ref, K_ref = _sparse_y_factor(u, model, reaction)
    for bc, n in ((("neumann",), grid.ny), (top, grid.ny - 1)):
        m_y, K_y, exact = _factors(u, model, reaction, bc)
        L = sp.tril(K_ref[:n, :n]).tocoo()
        ref = np.zeros((3, n))
        ref[L.row - L.col, L.col] = L.data
        assert exact and np.array_equal(m_y, m_ref[:n])
        assert K_y.shape == (3, n)
        for r in range(3):
            assert np.array_equal(K_y[r, :n - r], ref[r, :n - r])


def test_averaged_separable_factor_is_symmetric():
    # conjugate gradients needs a symmetric preconditioner
    model, reaction, grid, u, top = _non_separable_case("p-laplace")
    m_y, K_y, exact = _factors(u, model, reaction, top)
    assert not exact
    solve = solver._separable_factor(grid, m_y, K_y)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x, y = rng.standard_normal((2, grid.nx, m_y.size))
        xPy, Pxy = float(np.vdot(x, solve(y))), float(np.vdot(solve(x), y))
        assert abs(xPy - Pxy) <= 1e-12 * abs(Pxy)


def test_separable_factor_refuses_a_nonpositive_mass():
    model, reaction, grid, u, top = _separable_case("preset-neumann")
    m_y, K_y, _ = _factors(u, model, reaction, top)
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
    A = _lil_pinned(u, model, reaction)
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
def test_non_separable_states_take_the_krylov_route(kind, monkeypatch):
    model, reaction, grid, u, top = _non_separable_case(kind)
    m_y, _, exact = _factors(u, model, reaction, top)
    assert exact is False
    rhs = -residual_vector(u, model, reaction, top)
    stats = _stats()
    step = _step(u, model, reaction, top, rhs, stats)
    assert stats["krylov_solves"] == 1 and stats["krylov_iterations"] >= 1
    # at KRYLOV_RTOL the step meets the 1e-6 gate with a decade to spare
    A = _energy(u, model, reaction)
    free = (A @ step - rhs).reshape(grid.shape)[..., :m_y.size]
    assert np.linalg.norm(free) <= 2e-7 * np.linalg.norm(rhs)
    assert 0.0 < stats["krylov_residual_max"] <= 2e-7
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert rep.converged and rep.newton_iterations >= 1
    assert rep.stats["separable_solves"] == 0
    assert rep.stats["krylov_solves"] == rep.newton_iterations
    # solved to 1e-10, the step is the sparse direct solve's
    monkeypatch.setattr(solver, "KRYLOV_RTOL", 1e-10)
    ref = spla.spsolve(_lil_pinned(u, model, reaction).tocsc(), rhs)
    step = _step(u, model, reaction, top, rhs, _stats())
    assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)


def test_missed_krylov_step_stops_the_solve(monkeypatch):
    model, reaction, grid, u, top = _non_separable_case("p-laplace")
    rhs = -residual_vector(u, model, reaction, top)
    monkeypatch.setattr(solver.spla, "cg",
                        lambda A, b, **kw: (np.zeros_like(b), 0))
    stats = _stats()
    assert _step(u, model, reaction, top, rhs, stats) is None
    reason = "krylov step missed: relative residual 1.000e+00 > 1e-6"
    assert stats == dict(_stats(), stop_reason=reason)
    rep = solve_newton(model, reaction, grid, u, top_bc=top)
    assert not rep.converged and rep.newton_iterations == 0
    assert rep.stats["stop_reason"] == reason


def test_krylov_step_at_its_iteration_cap_stops_the_solve(monkeypatch):
    model, reaction, grid, u, top = _non_separable_case("mean-curvature")
    rhs = -residual_vector(u, model, reaction, top)
    monkeypatch.setattr(solver, "KRYLOV_MAXITER", 1)
    stats = _stats()
    assert _step(u, model, reaction, top, rhs, stats) is None
    reason = stats.pop("stop_reason")
    assert stats == dict(_stats(), krylov_iterations=1)
    prefix = "krylov step missed: relative residual "
    assert reason.startswith(prefix) and reason.endswith(" > 1e-6")
    assert float(reason[len(prefix):-len(" > 1e-6")]) > 1e-6


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


def test_non_separable_3d_solve_converges_without_lu():
    grid = build_grid(DomainSpec.rectangle(0.0, PI, 0.0, PI), nx=17, ny=17,
                      y_max=2.0, nz=17)
    reaction = ReactionSpec.cubic().shifted(1.0)
    init = grid.field(lambda x, z, y: np.cos(x) * np.cos(z) * y)
    rep = solve_newton(CoefficientModel.power_weight_p_laplace(0.0, 3.0),
                       reaction, grid, init, top_bc=solver.pinned_top(init))
    assert rep.converged and rep.newton_iterations == 5
    assert rep.stats["krylov_solves"] == rep.newton_iterations


# -- derived checks ----------------------------------------------------------

def test_extremum_sign_check_const_one():
    grid = _grid(nx=17, ny=17)
    u = CylinderField(grid, np.ones(grid.shape))
    reaction = ReactionSpec.custom(
        f=lambda v: 1.0 - v, f_prime=lambda v: -np.ones_like(v))
    out = extremum_sign_check(u, reaction)
    assert out["ok"]
    assert out["attained_on_bottom"]
    assert out["f_at_infimum"] == pytest.approx(0.0, abs=1e-14)


def test_extremum_sign_check_flags_positive_f():
    grid = _grid(nx=9, ny=9)
    Y = grid.coordinate_arrays()[-1]
    u = CylinderField(grid, 1.0 + Y)  # infimum 1 on the bottom
    reaction = ReactionSpec.custom(
        f=lambda v: np.ones_like(v), f_prime=lambda v: np.zeros_like(v))
    out = extremum_sign_check(u, reaction)
    assert not out["sign_ok"]
    assert not out["ok"]


def test_reaction_shifted_family():
    base = ReactionSpec.cubic()
    shifted = base.shifted(0.5)
    v = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(base.f(v), -v ** 3)
    assert np.allclose(shifted.f(v), -v ** 3 - 0.5 * v)
    assert np.allclose(shifted.f_prime(v), -3 * v ** 2 - 0.5)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_cubic_is_exactly_odd_and_within_an_ulp_of_pow():
    mag = np.logspace(-8, 5, 4001)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    u = np.concatenate([mag, -mag, special])
    for reaction, ref, ulps in (
            (ReactionSpec.cubic(), lambda u: -(u ** 3), 1),
            # the shift rounds once more, and two exact sums one ulp apart
            # can round two ulps apart under ties-to-even
            (ReactionSpec.cubic().shifted(1.0),
             lambda u: -(u ** 3) - 1.0 * u, 2)):
        f = reaction.f(u)
        assert np.array_equal(_bits(reaction.f(-u)), _bits(-f))
        expect = ref(u)
        finite = np.isfinite(expect)
        assert np.array_equal(_bits(f[~finite]), _bits(expect[~finite]))
        err = np.abs(f[finite] - expect[finite])
        assert np.all(err <= ulps * np.spacing(np.abs(expect[finite])))


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
    A = _energy(u, model, reaction)
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
    if reaction.g_u is not None:
        A = A + sp.diags(grid.bulk_weights(0.0).ravel() * reaction.g_u(
            state["y"].ravel(), u.values.ravel()))
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = grid.bottom_weights() * reaction.f_prime(u.values[..., 0])
    return (A - sp.diags(bottom.ravel())).tocsr()


def _assert_on_the_products(A, ref):
    """A stores no nonzero off ref's sparsity pattern, and its values agree
    with ref's to round-off: the layout sums each entry's slots in its own
    order, with or without the rank-one term."""
    pattern = sp.csr_matrix((np.ones_like(ref.data), ref.indices, ref.indptr),
                            shape=ref.shape).toarray() != 0.0
    dense = A.toarray()
    assert not np.any(dense[~pattern])
    assert np.abs(dense - ref.toarray()).max() <= 1e-14 * np.abs(
        ref.data).max()


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
    A = _energy(u, model, reaction)
    _assert_on_the_products(A, _pairwise_energy_matrix(u, model, reaction))


# -- the diagonal layout ----------------------------------------------------------

def _layout_case(model, nz, grading):
    """(u, model, reaction) at a random state on a 9 x 7 (x 5) grid, with a
    bulk source, so that g_u enters the diagonal."""
    domain = (DomainSpec.interval(0.0, PI) if nz is None
              else DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI))
    grid = build_grid(domain, nx=9, ny=7, y_max=2.0, grading=grading, nz=nz)
    u = CylinderField(grid, np.random.default_rng(21).standard_normal(
        grid.shape))
    return u, model, _cubic_source()


LAYOUT_MODELS = [CoefficientModel.mean_curvature_weight(-0.5),
                 CoefficientModel.power_weight(-0.5)]


@pytest.mark.parametrize("model", LAYOUT_MODELS,
                         ids=["rank-one", "isotropic"])
@pytest.mark.parametrize("nz", [None, 5], ids=["interval", "rectangle"])
@pytest.mark.parametrize("grading", [0.0, 0.5], ids=["uniform", "graded"])
def test_layout_assembly_matches_the_pairwise_products(model, nz, grading):
    u, model, reaction = _layout_case(model, nz, grading)
    A = _energy(u, model, reaction)
    _assert_on_the_products(A, _pairwise_energy_matrix(u, model, reaction))
    # each entry and its mirror read the same plane value
    dense = A.toarray()
    assert np.array_equal(dense, dense.T)
def _free_nodes(grid, nf):
    """Flat indices of the nodes below y index nf."""
    return np.flatnonzero(np.arange(grid.n_nodes) % grid.ny < nf)


@pytest.mark.parametrize("nz, ny", [(None, 3), (3, 3), (3, 7)],
                         ids=["interval", "rectangle", "rectangle-ny-7"])
def test_layout_on_three_node_axes(nz, ny):
    # on a three-node axis distinct neighbour offsets share a flat offset:
    # (0, 2) and (1, -1) at ny = 3 in 2D, and (1, -1, 0) and (0, 2, 0) at
    # nz = 3 in 3D; so do those of a free block below nf = 3 or less.  The
    # layout sums them into one diagonal, which is right because the flat
    # offset alone fixes the column.
    domain = (DomainSpec.interval(0.0, PI) if nz is None
              else DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI))
    grid = build_grid(domain, nx=3, ny=ny, y_max=2.0, grading=0.5, nz=nz)
    u = CylinderField(grid, np.random.default_rng(22).standard_normal(
        grid.shape))
    model, reaction = LAYOUT_MODELS[0], _cubic_source()
    A = _energy(u, model, reaction).toarray()
    ref = _pairwise_energy_matrix(u, model, reaction).toarray()
    assert np.abs(A - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(A, A.T)
    for nf in range(1, ny):
        free = _free_nodes(grid, nf)
        block = _energy(u, model, reaction, nf=nf).toarray()
        assert np.array_equal(block, A[np.ix_(free, free)])


@pytest.mark.parametrize("model", LAYOUT_MODELS,
                         ids=["rank-one", "isotropic"])
@pytest.mark.parametrize("nz", [None, 5], ids=["interval", "rectangle"])
def test_layout_gathers_match_scipy_slicing(model, nz):
    # a free block is the whole matrix sliced by scipy, exactly and
    # symmetric bit for bit
    u, model, reaction = _layout_case(model, nz, 0.5)
    grid = u.grid
    A = _energy(u, model, reaction).tocsr()
    for nf in (grid.ny - 1, 3):
        free = _free_nodes(grid, nf)
        block = _energy(u, model, reaction, nf=nf).toarray()
        assert np.array_equal(block, A[free][:, free].toarray())
        assert np.array_equal(block, block.T)


def test_second_assembly_reuses_the_cached_pattern(refuse_sparse_work,
                                                   monkeypatch):
    # a matrix has no per-state pattern: two states on a grid share the
    # cached layout and its diagonal offsets, one per neighbour offset and
    # mirror, and an assembly on a warm grid builds no index array
    u, model, reaction = _layout_case(LAYOUT_MODELS[0], None, 0.5)
    grid = u.grid
    grid.pairing_gradient_operators()
    for name in ("repeat", "flatnonzero", "nonzero", "cumsum", "take"):
        monkeypatch.setattr(np, name, refuse_sparse_work)
    layout = forms.energy_layout(grid, True)
    v = CylinderField(grid, 2.0 * u.values)
    for nf in (grid.ny, grid.ny - 1):
        A1, A2 = (_energy(w, model, reaction, nf=nf)
                  for w in (u, v))
        assert np.array_equal(A1.offsets, A2.offsets)
        assert A1.data.shape == (2 * len(layout.deltas) - 1, A1.shape[0])
        assert not np.array_equal(A1.data, A2.data)
    assert forms.energy_layout(grid, True) is layout


@pytest.mark.parametrize("model", LAYOUT_MODELS,
                         ids=["rank-one", "isotropic"])
def test_warm_assembly_runs_no_sparse_product(model, refuse_sparse_work):
    # assembling the matrix and its free blocks neither multiplies, adds
    # nor converts sparse matrices
    u, model, reaction = _layout_case(model, 5, 0.5)
    grid = u.grid
    eye = sp.dia_matrix((np.ones((1, 3)), [0]), shape=(3, 3))
    for op in (lambda: eye @ eye, lambda: eye + eye, eye.tocsr, eye.todia):
        with pytest.raises(AssertionError, match="refused"):
            op()
    for nf in (grid.ny, grid.ny - 1, 3):
        A = _energy(u, model, reaction, nf=nf)
        assert A.format == "dia" and A.shape == (grid.n_nodes // grid.ny
                                                 * nf,) * 2


def test_cold_grid_runs_no_sparse_product(refuse_sparse_work, monkeypatch):
    # a fresh grid builds its operators, cross-section modes and energy
    # layouts and its Newton systems from its stencil tables: no sparse
    # product, sum or conversion, Kronecker product or LIL edit runs
    monkeypatch.setattr(sp, "kron", refuse_sparse_work)
    monkeypatch.setattr(sp.csr_matrix, "tolil", refuse_sparse_work)
    eye = sp.csr_matrix((np.ones(3), np.arange(3), np.arange(4)),
                        shape=(3, 3))
    for op in (lambda: eye @ eye, lambda: eye + eye, lambda: sp.kron(eye, eye),
               eye.tolil, eye.tocsr):
        with pytest.raises(AssertionError, match="refused"):
            op()
    grid = build_grid(DomainSpec.rectangle(0.0, 2 * PI, 0.0, PI), nx=9, ny=7,
                      y_max=2.0, grading=0.5, nz=5)
    u = CylinderField(grid, np.random.default_rng(23).standard_normal(
        grid.shape))
    grid.gradient_operators()
    grid.pairing_gradient_operators()
    for k in range(grid.n_components - 1):
        grid.cross_section_modes(k)
    for model in LAYOUT_MODELS:
        forms.energy_layout(grid, model.has_t_dependence)
        for top in (("neumann",), solver.pinned_top(u)):
            rhs = -residual_vector(u, model, ReactionSpec.cubic(), top)
            _step(u, model, ReactionSpec.cubic(), top, rhs, _stats())




# -- the damped-Newton loop ----------------------------------------------------

def test_damped_newton_converges_without_halvings_near_a_root():
    # the aux is r'(x), so a step handed another iterate's aux would not
    # converge quadratically
    x, r, history, halvings, stalled = solver.damped_newton(
        lambda x: (x ** 2 - 2.0, 2.0 * x), lambda r, dr: -r / dr,
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
        lambda x: (x ** 2 - 2.0, 2.0 * x), lambda r, dr: r / dr, x0,
        tol=1e-14, max_iter=20)
    assert stalled
    assert halvings == []
    assert np.array_equal(x, x0)
    assert history == [0.25]


def test_damped_newton_stops_at_a_late_halving_only_when_asked():
    # r(x) = x with aux x; the first step goes half way, every later one
    # overshoots to -2x and is accepted after one halving, at -x/2.  Each
    # step gets the r and aux of the iterate it steps from, never those of
    # a rejected trial (-2x)
    seen = []

    def step(r, x0):
        seen.append((float(r[0]), x0))
        return -0.5 * r if x0 == 1.0 else -3.0 * r

    def identity(x):
        return x.copy(), float(x[0])

    x, _, history, halvings, stalled = solver.damped_newton(
        identity, step, np.array([1.0]), tol=1e-3, max_iter=20)
    assert not stalled and halvings == [0] + [1] * (len(halvings) - 1)
    iterates = [1.0] + [0.5 * (-0.5) ** k for k in range(len(halvings))]
    assert seen == [(a, a) for a in iterates[:-1]]
    assert x[0] == iterates[-1]
    seen.clear()
    x, r, history, halvings, stalled = solver.damped_newton(
        identity, step, np.array([1.0]), tol=1e-3, max_iter=20,
        stop_at_late_halving=True)
    assert stalled and halvings == [0]
    assert x[0] == r[0] == 0.5 and history == [1.0, 0.5]
    # the stopped step was handed the last accepted iterate's aux
    assert seen == [(1.0, 1.0), (0.5, 0.5)]
    # a halving of the first step does not stop it; the step after the
    # halving gets the aux of the accepted half step, -1/2
    seen.clear()

    def first_overshoots(r, x0):
        seen.append((float(r[0]), x0))
        return -3.0 * r if x0 == 1.0 else -r

    x, _, history, halvings, stalled = solver.damped_newton(
        identity, first_overshoots, np.array([1.0]), tol=1e-3, max_iter=20,
        stop_at_late_halving=True)
    assert not stalled and halvings == [1, 0] and x[0] == 0.0
    assert seen == [(1.0, 1.0), (-0.5, -0.5)]


def _mean_curvature_problem(n):
    """theta = -1/2, f = -u - u^3, started from a cos x y / 2 with a = 2.5
    and the top pinned to it (the benchmark's slow Newton family):
    (model, reaction, grid, init, top_bc)."""
    grid = build_grid(DomainSpec.interval(0.0, PI), nx=n, ny=n, y_max=2.0,
                      grading=0.5)
    init = grid.field(lambda x, y: 2.5 * np.cos(x) * y / 2.0)
    return (CoefficientModel.mean_curvature_weight(-0.5),
            ReactionSpec.cubic().shifted(1.0), grid, init,
            solver.pinned_top(init))


def _mean_curvature_solve(n, **kwargs):
    model, reaction, grid, init, top = _mean_curvature_problem(n)
    return solve_newton(model, reaction, grid, init, top_bc=top, **kwargs)


def _plain_armijo(model, reaction, grid, init, top, tol=1e-10, max_iter=50):
    """solve_newton's plain damped-Newton run, with no continuation."""
    stats = _stats()

    def residual(x):
        state = forms.coefficient_state(CylinderField(grid, x), model)
        return solver._residual(state, reaction, top), state

    def step(r, state):
        return solver._newton_step(state, reaction, top, -r, stats)

    return solver.damped_newton(residual, step, init.values.copy(), tol,
                                max_iter)


def test_newton_trace_mean_curvature_converges_at_33():
    rep = _mean_curvature_solve(33)
    assert rep.converged
    assert rep.newton_iterations == 11
    assert sum(rep.stats["backtracks"]) == 0
    assert len(rep.residual_history) == 12


def test_newton_trace_mean_curvature_converges_at_17():
    rep = _mean_curvature_solve(17)
    assert rep.converged
    assert rep.newton_iterations == 10
    assert rep.stats["backtracks"] == [0] * 10
    assert rep.final_residual == rep.residual_history[-1] <= 1e-12


# -- refinement of the nonlinear states -----------------------------------------

def _pinned_solve(model, grading, n):
    """The pinned a = 1.5 state of ``model``: f = -u - u^3 on (0, pi) x
    (0, 2) on an n^2 grid, top pinned to a cos x, from a cos x y / 2."""
    grid = build_grid(DomainSpec.interval(0.0, PI), nx=n, ny=n, y_max=2.0,
                      grading=grading)
    init = grid.field(lambda x, y: 1.5 * np.cos(x) * y / 2.0)
    return solve_newton(model, ReactionSpec.cubic().shifted(1.0), grid, init,
                        top_bc=solver.pinned_top(init))


PINNED_MODELS = {
    "p-laplace": (CoefficientModel.power_weight_p_laplace(0.0, 3.0), 0.0),
    "mean-curvature": (CoefficientModel.mean_curvature_weight(-0.5), 0.5)}


@pytest.mark.parametrize("kind", list(PINNED_MODELS))
def test_krylov_steps_meet_the_gate_with_a_decade_to_spare(kind):
    # conjugate gradients stops at KRYLOV_RTOL = 1e-7; every accepted step's
    # true free-row residual stays within 2e-7 (measured: 7.6e-8 and 8.2e-8),
    # and the Newton run is the one a 1e-10 solve takes: 5 steps, no
    # halving, no continuation
    rep = _pinned_solve(*PINNED_MODELS[kind], 33)
    assert rep.converged and rep.newton_iterations == 5
    assert rep.stats["backtracks"] == [0] * 5
    assert rep.stats["continuation"] == []
    assert rep.stats["krylov_solves"] == rep.newton_iterations
    assert rep.stats["separable_solves"] == 0
    assert 0.0 < rep.stats["krylov_residual_max"] <= 2e-7


def _refinement_orders(model, grading):
    """Observed orders of the pinned a = 1.5 state of ``model``
    (_pinned_solve) on nested grids n = 33, 65, 129: (max-norm order,
    bottom-trace order, the y index of the coarse grid's worst node in each
    nested difference), from the differences of successive solutions at the
    coarser grid's nodes (Roache 1998)."""
    sols = []
    for n in (33, 65, 129):
        rep = _pinned_solve(model, grading, n)
        assert rep.converged
        sols.append(rep.u.values)
    diffs = [np.abs(c - f[::2, ::2]) for c, f in zip(sols, sols[1:])]
    full = [float(d.max()) for d in diffs]
    bottom = [float(d[:, 0].max()) for d in diffs]
    worst_rows = [int(d.max(axis=0).argmax()) for d in diffs]
    return (np.log2(full[0] / full[1]), np.log2(bottom[0] / bottom[1]),
            worst_rows)


def test_p_laplace_state_converges_at_second_order():
    # measured: 1.78 in max norm, 1.97 on the bottom trace
    full, bottom, _ = _refinement_orders(*PINNED_MODELS["p-laplace"])
    assert full >= 1.7 and bottom >= 1.9


def test_mean_curvature_state_converges_at_first_order_in_max_norm():
    # measured: 1.02 in max norm, 1.90 on the bottom trace.  The max-norm
    # error sits in the last cell below the pinned top (row n - 2 of both
    # coarse grids), a layer the nested grids do not resolve; the bottom
    # trace still converges at about second order
    full, bottom, worst_rows = _refinement_orders(
        *PINNED_MODELS["mean-curvature"])
    assert 0.9 <= full <= 1.2
    assert bottom >= 1.8
    assert worst_rows == [31, 63]


# -- continuation in the pinned data -------------------------------------------

def test_continuation_matches_plain_armijo_at_33():
    rep = _mean_curvature_solve(33)
    assert rep.stats["continuation"] == [[0.5, 5, True], [1.0, 5, True]]
    # the first plain step, then the two stages
    assert rep.newton_iterations == len(rep.stats["backtracks"]) == 1 + 5 + 5
    # at tol = 1e-10 the two runs stop at residuals 1.2e-11 and 4.4e-15,
    # 5.1e-10 apart next to the steep top slice; at 1e-12 continuation
    # takes one more step and lands on plain Armijo's discrete solution.
    # Plain Armijo takes 24 steps and 41 halvings with its Krylov steps
    # solved to KRYLOV_RTOL = 1e-7
    rep = _mean_curvature_solve(33, tol=1e-12)
    assert rep.stats["continuation"] == [[0.5, 5, True], [1.0, 6, True]]
    x, _, history, halvings, stalled = _plain_armijo(
        *_mean_curvature_problem(33), tol=1e-12)
    assert not stalled and history[-1] <= 1e-12
    assert len(halvings) == 24 and sum(halvings) == 41
    assert float(np.max(np.abs(rep.u.values - x))) <= 1e-12


def test_continuation_solves_mean_curvature_at_129_in_time():
    # plain Armijo runs for more than 90 s here
    model, reaction, grid, init, top = _mean_curvature_problem(129)
    t0 = time.perf_counter()
    rep = solve_newton(model, reaction, grid, init, top_bc=top)
    elapsed = time.perf_counter() - t0
    assert rep.converged and rep.stats["continuation"][-1][0] == 1.0
    r = residual_vector(rep.u, model, reaction, top)
    assert float(np.max(np.abs(r))) <= 1e-10
    assert elapsed < 30.0


def test_continuation_falls_back_to_plain_armijo(monkeypatch):
    # three steps do not finish the lambda = 1/2 stage, and the next
    # bisection step (1/4) is below the floor: plain Armijo from init
    monkeypatch.setattr(solver, "MIN_CONTINUATION_STEP", 0.5)
    monkeypatch.setattr(solver, "NEWTON_MAXITER", 3)
    rep = _mean_curvature_solve(17)
    assert rep.stats["continuation"] == [[0.5, 3, False]]
    assert rep.newton_iterations == len(rep.stats["backtracks"]) == 1 + 3 + 3
    x, _, history, halvings, _ = _plain_armijo(*_mean_curvature_problem(17),
                                               max_iter=3)
    assert np.array_equal(rep.u.values, x)
    assert rep.stats["backtracks"][-3:] == halvings
    assert rep.final_residual == history[-1] == rep.residual_history[-1]
    assert not rep.converged


def test_each_step_reuses_its_residuals_coefficient_state(monkeypatch):
    # the Newton matrix at an iterate reuses the coefficient state of the
    # residual evaluated there, so a solve computes one state per residual;
    # this one runs a stage, the plain-Armijo fallback and halvings
    calls = {"state": 0, "residual": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forms, "coefficient_state",
                        counted("state", forms.coefficient_state))
    monkeypatch.setattr(forms, "weak_residual_vector",
                        counted("residual", forms.weak_residual_vector))
    monkeypatch.setattr(solver, "MIN_CONTINUATION_STEP", 0.5)
    monkeypatch.setattr(solver, "NEWTON_MAXITER", 3)
    rep = _mean_curvature_solve(17)
    assert sum(rep.stats["backtracks"]) > 0
    assert calls["residual"] > rep.newton_iterations > 0
    assert calls["state"] == calls["residual"]


def test_missed_step_in_a_stage_ends_the_solve(monkeypatch):
    # the plain run takes one step and stops at the second's halving, so
    # the third linear step is the first of the lambda = 1/2 stage; when it
    # is missed no further stage and no plain-Armijo retry runs
    calls = []
    newton_step = solver._newton_step

    def miss_third(state, reaction, top_bc, rhs, stats):
        calls.append(rhs)
        if len(calls) == 3:
            stats["stop_reason"] = "missed"
            return None
        return newton_step(state, reaction, top_bc, rhs, stats)

    monkeypatch.setattr(solver, "_newton_step", miss_third)
    rep = _mean_curvature_solve(17)
    assert len(calls) == 3
    assert not rep.converged and rep.stats["stop_reason"] == "missed"
    assert rep.stats["continuation"] == [[0.5, 0, False]]
    assert rep.newton_iterations == 1 and len(rep.residual_history) == 2
    assert rep.final_residual == float(np.max(np.abs(calls[-1])))


def test_stall_and_iteration_cap_name_their_reasons(monkeypatch):
    # the pinned cubic solve halves its first step: with MIN_STEP = 1 that
    # halving stalls it; at a cap of 2 steps it stops short of convergence
    grid = _grid(nx=33, ny=33)
    cubic = ReactionSpec.custom(f=lambda v: v - v ** 3,
                                f_prime=lambda v: 1.0 - 3.0 * v ** 2)
    init = CylinderField(grid, np.full(grid.shape, 0.5))
    args = (CoefficientModel.constant_one(), cubic, grid, init)
    top = ("dirichlet", np.full(grid.nx, 0.3))
    monkeypatch.setattr(solver, "NEWTON_MAXITER", 2)
    capped = solve_newton(*args, top_bc=top)
    assert not capped.converged and capped.newton_iterations == 2
    assert capped.stats["stop_reason"].startswith(
        "no convergence in 2 iterations (best residual ")
    monkeypatch.undo()
    monkeypatch.setattr(solver, "MIN_STEP", 1.0)
    stalled = solve_newton(*args, top_bc=top)
    assert not stalled.converged and stalled.newton_iterations == 0
    assert stalled.stats["stop_reason"] == "Armijo line search stalled"
    assert np.array_equal(stalled.u.values, init.values)


def test_continuation_stays_off_where_it_does_not_apply():
    # a Neumann top, zero pinned data, and a solve whose only halving is
    # that of its first step keep plain Armijo
    grid = _grid(nx=33, ny=33)
    cubic = ReactionSpec.custom(f=lambda v: v - v ** 3,
                                f_prime=lambda v: 1.0 - 3.0 * v ** 2)
    init = CylinderField(grid, np.full(grid.shape, 0.5))
    model = CoefficientModel.constant_one()
    neumann = solve_newton(model, cubic, grid, init)
    first_only = solve_newton(model, cubic, grid, init,
                              top_bc=("dirichlet", np.full(grid.nx, 0.3)))
    assert first_only.stats["backtracks"] == [1, 0, 0, 0, 0, 0]
    model, reaction, grid, init, _ = _mean_curvature_problem(17)
    zero = solve_newton(model, reaction, grid, init,
                        top_bc=("dirichlet", np.zeros(grid.nx)))
    assert any(zero.stats["backtracks"][1:])
    for rep in (neumann, first_only, zero):
        assert rep.converged and rep.stats["continuation"] == []
        assert rep.newton_iterations == len(rep.stats["backtracks"])
        assert len(rep.residual_history) == rep.newton_iterations + 1
