"""Tests for the second-variation stability analysis."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cylreact import forms, presets, solver, stability
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import CylinderField, DomainSpec, build_grid


def _preset_state(name, nx=33, ny=33):
    p = presets.get_preset(name)
    grid = p.build_grid(nx=nx, ny=ny)
    u = p.exact_state(grid)
    return p, grid, u


def _dense_reference(form, k):
    """k lowest eigenvalues of the generalized pencil by dense eigh."""
    return scipy.linalg.eigh(form.energy_matrix.toarray(),
                             form.mass_matrix.toarray(),
                             subset_by_index=[0, k - 1], eigvals_only=True)


# Ground-state eigenvalues of the four catalog scenarios on a 33x33 grid
# (y_max = 8), frozen from an independent dense-eigensolve run.
FROZEN_MU1 = {
    "linear-y": 0.0305121955,
    "exp-decay": 0.3240206434,
    "grow-cos-stable": 0.1193897912,
    "decay-cos-unstable": -0.3819061673,
}


@pytest.mark.parametrize("name", sorted(FROZEN_MU1))
def test_quartet_ground_state_values(name):
    p, grid, u = _preset_state(name)
    rep = stability.classify(u, p.model_factory(), p.reaction_factory())
    assert rep.mu1 == pytest.approx(FROZEN_MU1[name], rel=1e-6)
    assert rep.classification == p.expected_classification
    assert rep.eigen_residual <= stability.EIGEN_RESIDUAL_RTOL * float(
        np.abs(rep.mu1) + 1.0) * 1e6  # residual gate already enforced inside


@pytest.mark.parametrize("y_scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("name", [p.name for p in presets.stability_quartet()])
def test_quartet_labels_under_refinement(name, n, y_scale):
    # the labels are not artefacts of one grid or one truncation height:
    # mu1 keeps the expected sign on coarser grids and a doubled y_max
    p = presets.get_preset(name)
    grid = p.build_grid(nx=n, ny=n, y_max=p.y_max * y_scale)
    rep = stability.classify(p.exact_state(grid), p.model_factory(),
                             p.reaction_factory())
    sign = {stability.STABLE: 1.0, stability.UNSTABLE: -1.0}
    assert np.sign(rep.mu1) == sign[p.expected_classification]
    if name == "exp-decay" and y_scale == 2.0:
        # the margin 1e-6 |A|_inf grows with the coefficient e^y: about 26
        # (n = 17) and 42 (n = 33) at y_max = 16, against mu1 near 0.29
        assert rep.tol > 50.0 * rep.mu1
        assert rep.classification == stability.MARGINAL
    else:
        assert rep.classification == p.expected_classification


def test_classification_three_band_semantics():
    assert stability.classify_value(2.0, 1.0) == stability.STABLE
    assert stability.classify_value(-2.0, 1.0) == stability.UNSTABLE
    assert stability.classify_value(0.5, 1.0) == stability.MARGINAL
    assert stability.classify_value(-0.5, 1.0) == stability.MARGINAL
    # boundary values fall in the Marginal band (strict inequalities)
    assert stability.classify_value(1.0, 1.0) == stability.MARGINAL
    assert stability.classify_value(-1.0, 1.0) == stability.MARGINAL


def test_default_tol_is_scaled_infinity_norm():
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    form = stability.assemble_I(u, p.model_factory(), p.reaction_factory())
    # each row's |entries| summed one by one in column order
    expected = 1e-6 * max(sum(abs(v) for v in row)
                          for row in form.energy_matrix.toarray())
    assert stability.default_tol(form) == pytest.approx(expected, rel=0, abs=0)


def test_classify_rejects_nonpositive_tol():
    p, grid, u = _preset_state("grow-cos-stable", nx=9, ny=9)
    with pytest.raises(ValueError):
        stability.classify(u, p.model_factory(), p.reaction_factory(), tol=0.0)
    with pytest.raises(ValueError):
        stability.classify(u, p.model_factory(), p.reaction_factory(), tol=-1.0)


def test_dense_and_shift_invert_routes_agree():
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    form = stability.assemble_I(u, p.model_factory(), p.reaction_factory())
    sinv = stability.min_rayleigh(form, k=3)
    for mu_d, (mu_s, _) in zip(_dense_reference(form, 3), sinv):
        assert mu_s == pytest.approx(mu_d, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("name", ["grow-cos-stable", "decay-cos-unstable"])
def test_shift_invert_matches_dense_on_smallest_grid(name):
    # 3 x 2 free nodes: every k the eigensolver accepts, against the
    # dense generalized reference
    p, grid, u = _preset_state(name, nx=3, ny=3)
    form = stability.assemble_I(u, p.model_factory(), p.reaction_factory())
    assert form.dim == 6
    for k in range(1, form.dim):
        vals = [mu for mu, _ in stability.min_rayleigh(form, k=k)]
        assert vals == pytest.approx(list(_dense_reference(form, k)),
                                     rel=1e-8, abs=1e-10)


def test_min_rayleigh_values_ascending_and_mass_normalized():
    p, grid, u = _preset_state("linear-y", nx=17, ny=17)
    form = stability.assemble_I(u, p.model_factory(), p.reaction_factory())
    pairs = stability.min_rayleigh(form, k=4)
    vals = [mu for mu, _ in pairs]
    assert vals == sorted(vals)
    M = form.mass_matrix
    for _, phi in pairs:
        v = phi.values[..., :form.nf].ravel()
        assert float(v @ (M @ v)) == pytest.approx(1.0, rel=1e-10)


def test_min_rayleigh_k_validation():
    p, grid, u = _preset_state("linear-y", nx=9, ny=9)
    form = stability.assemble_I(u, p.model_factory(), p.reaction_factory())
    with pytest.raises(ValueError):
        stability.min_rayleigh(form, k=0)
    with pytest.raises(ValueError):
        stability.min_rayleigh(form, k=form.dim)


def test_ground_state_single_signed():
    p, grid, u = _preset_state("grow-cos-stable")
    rep = stability.classify(u, p.model_factory(), p.reaction_factory())
    # one sign beyond 1e-6 on the test space (the top slice is pinned to 0)
    vals = rep.ground_state.values[..., :-1]
    assert np.any(vals > 1e-6) != np.any(vals < -1e-6)


def test_pinned_solve_and_classify_share_one_free_block(monkeypatch):
    # a pinned Krylov Newton solve and the classify of its solution cut the
    # same block of the energy matrix at ny - 1: the matrix that conjugate
    # gradients receives in a Newton step at the solution is classify's
    # energy block
    grid = build_grid(DomainSpec.interval(0.0, np.pi), nx=17, ny=17,
                      y_max=2.0)
    init = grid.field(lambda x, y: np.cos(x) * np.exp(-y))
    model = CoefficientModel.mean_curvature_weight(0.0)
    reaction = solver.ReactionSpec.cubic()
    rep = solver.solve_newton(model, reaction, grid, init,
                              top_bc=solver.pinned_top(init))
    assert rep.converged and rep.stats["krylov_solves"] >= 1
    received, cg = [], solver.spla.cg

    def recorded(A, b, **kwargs):
        received.append(A)
        return cg(A, b, **kwargs)

    monkeypatch.setattr(solver.spla, "cg", recorded)
    top = solver.pinned_top(rep.u)
    stats = dict(separable_solves=0, krylov_solves=0, krylov_iterations=0,
                 krylov_residual_max=0.0)
    solver._newton_step(forms.coefficient_state(rep.u, model), reaction, top,
                        -solver.residual_vector(rep.u, model, reaction, top),
                        stats)
    [A_free] = received
    A = stability.assemble_I(rep.u, model, reaction).energy_matrix
    assert A_free.shape == A.shape == ((grid.ny - 1) * grid.nx,) * 2
    assert np.array_equal(A_free.offsets, A.offsets)
    assert np.array_equal(A_free.data, A.data)


def test_structural_gate_rejects_bad_model():
    from cylreact.coefficients import CoefficientModel
    p, grid, u = _preset_state("grow-cos-stable", nx=9, ny=9)
    # a(y, t) that turns negative on the solution's range fails ellipticity
    bad = CoefficientModel.custom(lambda y, t: -np.ones_like(np.asarray(y, float)))
    with pytest.raises(ValueError):
        stability.assemble_I(u, bad, p.reaction_factory())


def test_form_J_zero_without_gradient_dependence():
    p, grid, u = _preset_state("linear-y", nx=9, ny=9)
    phi = CylinderField(grid, np.random.default_rng(3).standard_normal(grid.shape))
    assert stability.form_J(u, p.model_factory(), phi) == 0.0


def test_form_J_nonnegative_for_mean_curvature():
    from cylreact.coefficients import CoefficientModel
    model = CoefficientModel.mean_curvature_weight(0.0)
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    rng = np.random.default_rng(0)
    for _ in range(5):
        phi = CylinderField(grid, rng.standard_normal(grid.shape))
        assert stability.form_J(u, model, phi) >= 0.0


# -- the LU inertia oracle ----------------------------------------------------
# Reference code: classify factors nothing, so these tests prove "lowest"
# the way it did before, by Sylvester's law of inertia on a sparse LU.

def _scaled_pencil(form):
    """(C, s): C = S A S with S = diag(s) = M^{-1/2}, symmetric CSC, so
    A phi = mu M phi is exactly C w = mu w with phi = S w."""
    s = 1.0 / np.sqrt(form.mass_matrix.diagonal())
    C = sp.diags(s) @ form.energy_matrix @ sp.diags(s)
    return ((C + C.T) * 0.5).tocsc(), s


def _factor_shifted(C, sigma):
    """Symmetric-mode sparse LU of C - sigma I.  diag_pivot_thresh=0 keeps
    every nonzero diagonal pivot, so the row permutation equals the column
    one unless a pivot was exactly zero."""
    shifted = (C - sigma * sp.identity(C.shape[0], format="csc")).tocsc()
    return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _negative_pivots(lu):
    """Eigenvalues of the factored symmetric matrix below zero: with
    perm_r == perm_c, P (C - sigma I) P^T = L D L^T and D = diag(U)."""
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _negative_pivots_at(form, sigma):
    C, _ = _scaled_pencil(form)
    return _negative_pivots(_factor_shifted(C, sigma))


def _oracle_mu1(form):
    """mu1 by shift-invert Lanczos at a shift the inertia proves below it."""
    C, s = _scaled_pencil(form)
    sigma = -1.0
    while _negative_pivots(lu := _factor_shifted(C, sigma)):
        sigma *= 4.0
    OPinv = spla.LinearOperator(C.shape, matvec=lu.solve, dtype=float)
    vals = spla.eigsh(C, k=1, sigma=sigma, OPinv=OPinv, v0=1.0 / s,
                      return_eigenvectors=False)
    return float(vals[0])


def _below(theta):
    """A shift just below theta, by more than LOBPCG's eigenvalue error."""
    return theta - 1e-8 * max(1.0, abs(theta))


@pytest.mark.parametrize("name, n", [
    pytest.param("grow-cos-stable", 49, id="grow-cos-stable"),
    pytest.param("decay-cos-unstable", 49, id="decay-cos-unstable"),
    pytest.param("decay-cos-unstable", 17, id="decay-cos-unstable-17"),
])
def test_certified_shift_lies_below_mu1_above_dense_limit(name, n):
    # the certified lower bound nu is a shift below mu1: the oracle LU at
    # nu, and just below theta, has no negative pivot.  These states are
    # exact Kronecker sums, so the bracket closes.
    p, grid, u = _preset_state(name, nx=n, ny=n)
    model, reaction = p.model_factory(), p.reaction_factory()
    form = stability.assemble_I(u, model, reaction)
    rep = stability.classify(u, model, reaction)
    stats = rep.stats
    assert stats["bracket_closed"] is True
    assert stats["nu"] <= rep.mu1
    assert 0 <= stats["preconditioner_calls"] < 100
    assert _negative_pivots_at(form, stats["nu"]) == 0
    assert _negative_pivots_at(form, _below(rep.mu1)) == 0
    # the pivot count is the inertia: exactly one eigenvalue lies below a
    # shift between mu1 and mu2
    (mu1, _), (mu2, _) = stability.min_rayleigh(form, k=2)
    assert mu1 == pytest.approx(rep.mu1, rel=1e-10)
    assert _negative_pivots_at(form, 0.5 * (mu1 + mu2)) == 1


def test_steep_reaction_matches_dense():
    # a steep linear boundary reaction pushes mu1 to about -3.2, below the
    # preconditioner's shift of -1/2
    p, grid, u = _preset_state("grow-cos-stable")
    form = stability.assemble_I(u, p.model_factory(),
                                solver.ReactionSpec.linear(5.0))
    vals, _, _, stats = stability._solve_pairs(form, 3)
    assert vals[0] < -1.0
    assert stats["nu"] <= vals[0] and stats["bracket_closed"] is True
    for mu_s, mu_d in zip(vals, _dense_reference(form, 3)):
        assert mu_s == pytest.approx(mu_d, rel=1e-8)


def _p_laplace_3d(n):
    """p = 3, f = -u - u^3 on (0, pi)^2 x (0, 2), the top pinned to
    1.5 cos x cos z, solved from 1.5 cos x cos z y / 2."""
    model = CoefficientModel.power_weight_p_laplace(0.0, 3.0)
    grid = build_grid(DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi),
                      nx=n, ny=n, y_max=2.0)
    init = grid.field(lambda x, z, y: 1.5 * np.cos(x) * np.cos(z) * y / 2.0)
    reaction = solver.ReactionSpec.cubic().shifted(1.0)
    report = solver.solve_newton(model, reaction, grid, init,
                                 top_bc=solver.pinned_top(init))
    assert report.converged
    return report.u, model, reaction


def _mean_curvature_2d(n):
    """The graded mean-curvature state (theta = -1/2), f = -u - u^3 on
    (0, pi) x (0, 2) with the top pinned to 2 cos x; its linearization
    carries the rank-one term."""
    model = CoefficientModel.mean_curvature_weight(-0.5)
    grid = build_grid(DomainSpec.interval(0.0, np.pi), nx=n, ny=n,
                      y_max=2.0, grading=0.5)
    init = grid.field(lambda x, y: 2.0 * np.cos(x) * y / 2.0)
    reaction = solver.ReactionSpec.cubic().shifted(1.0)
    report = solver.solve_newton(model, reaction, grid, init,
                                 top_bc=solver.pinned_top(init))
    assert report.converged
    return report.u, model, reaction


@pytest.fixture(scope="module")
def p_laplace_3d():
    return _p_laplace_3d(13)


def test_non_separable_3d_state_is_bracketed(p_laplace_3d):
    u, model, reaction = p_laplace_3d
    rep = stability.classify(u, model, reaction)
    nu = rep.stats["nu"]
    assert rep.classification == stability.STABLE
    assert rep.mu1 == pytest.approx(1.14625, abs=1e-5)
    assert nu == pytest.approx(0.639, abs=1e-3)
    assert nu <= rep.mu1 and rep.stats["bracket_closed"] is False
    form = stability.assemble_I(u, model, reaction)
    assert abs(rep.mu1 - _oracle_mu1(form)) <= 1e-10


@pytest.mark.parametrize("state", ["p-laplace-3d", "mean-curvature-17"])
def test_non_separable_theta_is_lowest_by_the_oracle(state, p_laplace_3d):
    # theta is not proved lowest by classify on these states; the oracle's
    # inertia at a shift just below it shows no eigenvalue was skipped
    u, model, reaction = (p_laplace_3d if state == "p-laplace-3d"
                          else _mean_curvature_2d(17))
    rep = stability.classify(u, model, reaction)
    form = stability.assemble_I(u, model, reaction)
    assert rep.stats["nu"] <= rep.mu1
    assert _negative_pivots_at(form, _below(rep.mu1)) == 0


def test_classify_runs_no_factorization(monkeypatch, p_laplace_3d):
    # in 3D the mean sum preconditions LOBPCG when nu > tol proves the label
    def refuse(*args, **kwargs):
        raise AssertionError("classify called a factorization")
    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(spla, "eigsh", refuse)
    monkeypatch.setattr(stability, "_banded_cholesky", refuse)
    rep = stability.classify(*p_laplace_3d)
    assert rep.classification == stability.STABLE
    assert rep.stats["sigma"] is None


def test_2d_inexact_classify_factors_once_at_nu(monkeypatch,
                                                refuse_sparse_work):
    # on a 2D inexact sum with nu > tol one banded factor at sigma = nu
    # preconditions a single LOBPCG run, and nothing converts, adds or
    # multiplies a sparse matrix
    u, model, reaction = _mean_curvature_2d(17)
    shifts, banded_cholesky = [], stability._banded_cholesky

    def counted(form, shift):
        shifts.append(shift)
        return banded_cholesky(form, shift)

    monkeypatch.setattr(stability, "_banded_cholesky", counted)
    rep = stability.classify(u, model, reaction)
    assert rep.classification == stability.STABLE
    assert rep.stats["nu"] > rep.tol
    assert shifts == [rep.stats["nu"]] == [rep.stats["sigma"]]
    assert rep.stats["preconditioner_calls"] >= 1


@pytest.mark.parametrize("name", sorted(FROZEN_MU1))
def test_exact_sum_classify_builds_no_preconditioner(name, monkeypatch):
    # LOBPCG starts converged on an exact Kronecker sum's comparison pairs,
    # so the mean preconditioner's factor is never built, and ||A||_inf is
    # taken once for the margin and the residual gate
    def refuse(*args, **kwargs):
        raise AssertionError("classify built the mean preconditioner")

    norms, norm = [], sp.dia_matrix.__abs__

    def counted_norm(A):
        norms.append(A)
        return norm(A)

    monkeypatch.setattr(stability, "_separable_factor", refuse)
    monkeypatch.setattr(sp.dia_matrix, "__abs__", counted_norm)
    p, grid, u = _preset_state(name)
    rep = stability.classify(u, p.model(), p.reaction())
    assert rep.classification == p.expected_classification
    assert rep.stats["preconditioner_calls"] == 0
    assert len(norms) == 1


def _steep_mean_curvature(n):
    """grow-cos-stable's u = e^y cos x under the mean-curvature weight with
    theta = 0: |grad u| = e^y reaches 2,981 at y = 8, so B's eigenvalues
    differ by the factor 1 + |grad u|^2, up to 8.9e6, along a direction
    that turns with x."""
    p = presets.get_preset("grow-cos-stable")
    u = p.exact_state(p.build_grid(nx=n, ny=n))
    return u, CoefficientModel.mean_curvature_weight(0.0), p.reaction_factory()


@pytest.mark.parametrize("n", [17, 33, 65])
def test_steep_rank_one_state_is_proved_stable_by_the_banded_factor(n):
    # neither Kronecker sum of classify sees this anisotropy: at 17^2 the
    # comparison bound nu lies below tol, and the banded Cholesky factor of
    # A - tol M proves mu1 > tol; from 33^2 nu clears tol, and the factor
    # at nu preconditions the one LOBPCG run (the mean sum does not reach
    # the residual gate there).  The oracle's LU inertia agrees.
    u, model, reaction = _steep_mean_curvature(n)
    rep = stability.classify(u, model, reaction)
    form = stability.assemble_I(u, model, reaction)
    assert rep.classification == stability.STABLE
    assert rep.stats["preconditioner_calls"] >= 1
    assert (rep.stats["nu"] <= rep.tol) == (n == 17)
    assert rep.stats["sigma"] == (rep.tol if n == 17 else rep.stats["nu"])
    assert rep.stats["nu"] <= rep.mu1
    assert rep.mu1 == pytest.approx(_oracle_mu1(form), rel=1e-10)
    assert _negative_pivots_at(form, rep.tol) == 0


def test_lobpcg_at_its_cap_warns_nothing():
    # at 33^2 the mean preconditioner left LOBPCG at its cap; the banded
    # factor at nu preconditions one short run instead, and the stats, not
    # a warning, report it (scipy's loop preconditions once per pass)
    u, model, reaction = _steep_mean_curvature(33)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = stability.classify(u, model, reaction)
    assert rep.classification == stability.STABLE
    assert rep.stats["sigma"] == rep.stats["nu"]
    assert caught == []
    assert rep.stats["preconditioner_calls"] <= 20


def test_no_factor_exists_above_mu1():
    # with the margin set above mu1, A - tol M has no Cholesky factor, so
    # the factor at nu preconditions, and theta labels the steep 17^2
    # state Marginal
    u, model, reaction = _steep_mean_curvature(17)
    mu1 = stability.classify(u, model, reaction).mu1
    rep = stability.classify(u, model, reaction, tol=2.0 * mu1)
    assert rep.classification == stability.MARGINAL
    assert rep.stats["sigma"] == rep.stats["nu"] < rep.tol
    assert rep.mu1 == pytest.approx(mu1, rel=1e-4)


def test_a_stable_label_needs_a_proof(monkeypatch):
    # without the banded factor nothing proves mu1 > tol on the steep 17^2
    # state, and a theta above tol alone gives no label
    monkeypatch.setattr(stability, "_banded_cholesky", lambda form, s: None)
    u, model, reaction = _steep_mean_curvature(17)
    with pytest.raises(stability.EigenSolveError, match="not positive"):
        stability.classify(u, model, reaction)


def test_factoring_classify_runs_no_sparse_work(refuse_sparse_work):
    # the banded factor reads its band off the DIA energy block and the
    # mass diagonal: the steep 17^2 classify, which factors, converts, adds
    # and multiplies no sparse matrix
    u, model, reaction = _steep_mean_curvature(17)
    rep = stability.classify(u, model, reaction)
    assert rep.classification == stability.STABLE
    assert rep.stats["sigma"] is not None


@pytest.mark.parametrize("state", ["steep-9", "p-laplace-3d-5"])
def test_banded_cholesky_factors_the_shifted_energy(state):
    u, model, reaction = (_steep_mean_curvature(9) if state == "steep-9"
                          else _p_laplace_3d(5))
    form = stability.assemble_I(u, model, reaction)
    mu1 = _dense_reference(form, 1)[0]
    assert mu1 > 0.0
    solve = stability._banded_cholesky(form, 0.5 * mu1)
    R = np.random.default_rng(5).standard_normal((form.dim, 3))
    X = solve(R)
    shifted = form.energy_matrix - 0.5 * mu1 * form.mass_matrix
    np.testing.assert_allclose(X, np.linalg.solve(shifted.toarray(), R),
                               rtol=1e-9, atol=1e-9 * np.abs(X).max())
    assert stability._banded_cholesky(form, 1.5 * mu1) is None


def test_banded_cholesky_factors_in_place(monkeypatch):
    # the band is laid out in Fortran order, so LAPACK overwrites it with
    # the factor instead of factoring a copy
    cholesky_banded, shared = scipy.linalg.cholesky_banded, []

    def checked(band, **kwargs):
        factor = cholesky_banded(band, **kwargs)
        shared.append(np.shares_memory(factor, band))
        return factor

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", checked)
    form = stability.assemble_I(*_steep_mean_curvature(9))
    assert stability._banded_cholesky(form, 0.0) is not None
    assert shared == [True]


def test_shift_invert_repeats_bit_identically_in_one_process():
    # LOBPCG starts from the comparison pairs, not from a random block, so
    # every call returns the same pair
    p, grid, u = _preset_state("grow-cos-stable", nx=49, ny=49)
    model, reaction = p.model_factory(), p.reaction_factory()
    reports = [stability.classify(u, model, reaction) for _ in range(3)]
    assert [r.mu1 for r in reports] == [reports[0].mu1] * 3
    for r in reports[1:]:
        np.testing.assert_array_equal(r.ground_state.values,
                                      reports[0].ground_state.values)


def test_classify_agrees_with_min_rayleigh():
    # classify and min_rayleigh on the assembled form read one mu_1
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    model, reaction = p.model_factory(), p.reaction_factory()
    report = stability.classify(u, model, reaction)
    assert report.classification == p.expected_classification
    form = stability.assemble_I(u, model, reaction)
    (mu, _), = stability.min_rayleigh(form)
    assert mu == pytest.approx(report.mu1, rel=1e-12)


@pytest.mark.parametrize("model", [None, "mean-curvature"],
                         ids=["preset", "rank-one"])
def test_assemble_I_takes_exact_symmetric_free_blocks(model):
    # the free blocks are the full matrices sliced to the nodes below nf,
    # and the energy block is symmetric bit for bit without symmetrizing
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=17, ny=17)
    u, reaction = p.exact_state(grid), p.reaction()
    model = (p.model() if model is None
             else CoefficientModel.mean_curvature_weight(0.0))
    form = stability.assemble_I(u, model, reaction)
    A = form.energy_matrix
    assert form.nf == grid.ny - 1
    free = np.flatnonzero(np.arange(grid.n_nodes) % grid.ny < form.nf)
    assert np.array_equal(A.toarray(), A.toarray().T)
    state = forms.coefficient_state(u, model)
    full = forms.assemble_energy_matrix(state, reaction).tocsr()
    assert np.array_equal(A.toarray(), full[free][:, free].toarray())
    mass = forms.mass_matrix(state).diagonal()
    assert np.array_equal(form.mass_matrix.toarray(), np.diag(mass[free]))
