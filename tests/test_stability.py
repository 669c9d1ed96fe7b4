"""Tests for the second-variation stability analysis."""

import numpy as np
import pytest
import scipy.linalg

from cylreact import forms, presets, solver, stability
from cylreact.coefficients import CoefficientModel
from cylreact.cylinder import CylinderField


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
    import scipy.sparse.linalg as spla
    expected = 1e-6 * float(spla.norm(form.energy_matrix, np.inf))
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
        v = phi.values.ravel()[form.free]
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


def test_nested_test_spaces_monotone_ground_state():
    # shrinking the test space (vanish_above) can only raise mu1
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    model, reaction = p.model_factory(), p.reaction_factory()
    full = stability.assemble_I(u, model, reaction)
    shrunk = stability.assemble_I(u, model, reaction, vanish_above=4.0)
    mu_full = stability.min_rayleigh(full, k=1)[0][0]
    mu_shrunk = stability.min_rayleigh(shrunk, k=1)[0][0]
    assert mu_shrunk >= mu_full - 1e-12


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


def _negative_pivots_at(form, sigma):
    C, _ = stability._scaled_pencil(form)
    return stability._negative_pivots(stability._factor_shifted(C, sigma))


@pytest.mark.parametrize("name, n", [
    pytest.param("grow-cos-stable", 49, id="grow-cos-stable"),
    pytest.param("decay-cos-unstable", 49, id="decay-cos-unstable"),
    pytest.param("decay-cos-unstable", 17, id="decay-cos-unstable-17"),
])
def test_certified_shift_lies_below_mu1_above_dense_limit(name, n):
    p, grid, u = _preset_state(name, nx=n, ny=n)
    model, reaction = p.model_factory(), p.reaction_factory()
    form = stability.assemble_I(u, model, reaction)
    rep = stability.classify(u, model, reaction)
    stats = rep.stats
    assert stats["fallback"] is False
    assert stats["shifts_tried"] == [stats["sigma"]]
    assert 0 < stats["operator_applications"] < 100
    assert stats["sigma"] < rep.mu1
    assert _negative_pivots_at(form, stats["sigma"]) == 0
    # the pivot count is the inertia: exactly one eigenvalue lies below a
    # shift between mu1 and mu2
    (mu1, _), (mu2, _) = stability.min_rayleigh(form, k=2)
    assert mu1 == pytest.approx(rep.mu1, rel=1e-10)
    assert _negative_pivots_at(form, 0.5 * (mu1 + mu2)) == 1


def test_shift_lu_fill_is_reported():
    # the stored L and U entries of the certified shift's LU: 81 918 at
    # 49^2, 212 568 when uniform axes stored round-off centre weights
    p, grid, u = _preset_state("decay-cos-unstable", nx=49, ny=49)
    model, reaction = p.model_factory(), p.reaction_factory()
    rep = stability.classify(u, model, reaction)
    C, _ = stability._scaled_pencil(stability.assemble_I(u, model, reaction))
    lu = stability._factor_shifted(C, rep.stats["sigma"])
    assert rep.stats["lu_fill_nnz"] == lu.nnz <= 1.0e5


def test_shift_ladder_steps_below_minus_one():
    # a steep linear boundary reaction pushes mu1 to about -3.2
    p, grid, u = _preset_state("grow-cos-stable")
    form = stability.assemble_I(u, p.model_factory(),
                                solver.ReactionSpec.linear(5.0))
    vals, _, _, stats = stability._solve_pairs(form, 3)
    assert vals[0] < -1.0
    assert stats["shifts_tried"] == [-1.0, -4.0]
    assert stats["sigma"] == -4.0 and stats["fallback"] is False
    for mu_s, mu_d in zip(vals, _dense_reference(form, 3)):
        assert mu_s == pytest.approx(mu_d, rel=1e-8)


def test_gershgorin_fallback_when_no_shift_is_certified(monkeypatch):
    p, grid, u = _preset_state("decay-cos-unstable", nx=49, ny=49)
    model, reaction = p.model_factory(), p.reaction_factory()
    certified = stability.classify(u, model, reaction)
    monkeypatch.setattr(stability, "_negative_pivots", lambda lu: None)
    fallback = stability.classify(u, model, reaction)
    assert fallback.stats["fallback"] is True
    form = stability.assemble_I(u, model, reaction)
    C, _ = stability._scaled_pencil(form)
    assert fallback.stats["sigma"] == stability._gershgorin_bound(C) - 1.0
    assert fallback.stats["operator_applications"] > \
        certified.stats["operator_applications"]
    assert fallback.mu1 == pytest.approx(certified.mu1, rel=1e-8)
    assert fallback.classification == certified.classification
    # the floor is factored like every ladder shift (symmetric-mode MMD),
    # not with SuperLU's COLAMD and partial pivoting (151,544 entries)
    assert fallback.stats["lu_fill_nnz"] == certified.stats["lu_fill_nnz"] \
        == 81918


def test_shift_invert_repeats_bit_identically_in_one_process():
    # ARPACK's own random start vector carries its seed across calls; the
    # fixed start vector makes every call return the same pair
    p, grid, u = _preset_state("grow-cos-stable", nx=49, ny=49)
    model, reaction = p.model_factory(), p.reaction_factory()
    reports = [stability.classify(u, model, reaction) for _ in range(3)]
    assert [r.mu1 for r in reports] == [reports[0].mu1] * 3
    for r in reports[1:]:
        np.testing.assert_array_equal(r.ground_state.values,
                                      reports[0].ground_state.values)


def test_classify_returns_free_heap_after_each_call(monkeypatch):
    # classify and min_rayleigh hand free C-heap pages back once they have
    # returned or raised, so the resident set after one does not depend on
    # where the allocator left its freed LU blocks
    calls = []
    monkeypatch.setattr(stability, "_MALLOC_TRIM", calls.append)
    p, grid, u = _preset_state("grow-cos-stable", nx=17, ny=17)
    model, reaction = p.model_factory(), p.reaction_factory()
    report = stability.classify(u, model, reaction)
    assert report.classification == p.expected_classification
    assert calls == [0]
    with pytest.raises(ValueError):
        stability.classify(u, model, reaction, tol=-1.0)
    assert calls == [0, 0]
    form = stability.assemble_I(u, model, reaction)
    (mu, _), = stability.min_rayleigh(form)
    assert mu == pytest.approx(report.mu1, rel=1e-12)
    assert calls == [0, 0, 0]


@pytest.mark.parametrize("model", [None, "mean-curvature"],
                         ids=["preset", "rank-one"])
@pytest.mark.parametrize("vanish_above", [None, 2.0])
def test_assemble_I_takes_exact_symmetric_free_blocks(model, vanish_above):
    # the free blocks are gathers of the full matrices, and the energy
    # block is symmetric bit for bit without symmetrizing
    p = presets.get_preset("decay-cos-unstable")
    grid = p.build_grid(nx=17, ny=17)
    u, reaction = p.exact_state(grid), p.reaction()
    model = (p.model() if model is None
             else CoefficientModel.mean_curvature_weight(0.0))
    form = stability.assemble_I(u, model, reaction, vanish_above=vanish_above)
    A, free = form.energy_matrix, form.free
    assert np.array_equal(A.toarray(), A.toarray().T)
    full = forms.assemble_energy_matrix(u, model, reaction)
    ref = full[free][:, free]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(ref, name))
    mass = forms.mass_matrix(u, model).diagonal()
    assert np.array_equal(form.mass_matrix.toarray(), np.diag(mass[free]))
