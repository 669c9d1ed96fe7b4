"""Tests for the spectral half-power operator and its harmonic extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylreact import spectral, solver
from cylreact.cylinder import DomainSpec, build_grid

INTERVAL_PI = DomainSpec.interval(0.0, np.pi)


def _damped_cubic():
    return solver.ReactionSpec(
        f=lambda v: -np.asarray(v, float) ** 3 - np.asarray(v, float),
        f_prime=lambda v: -3.0 * np.asarray(v, float) ** 2 - 1.0)


def _one_minus_v():
    return solver.ReactionSpec(
        f=lambda v: 1.0 - np.asarray(v, float),
        f_prime=lambda v: -np.ones_like(np.asarray(v, float)))


# ---------------------------------------------------------------------------
# basis construction


def test_interval_eigenvalues():
    b = spectral.neumann_basis(INTERVAL_PI, 3)
    assert np.allclose(b.lambdas, [0.0, 1.0, 4.0], atol=1e-14)
    b2 = spectral.neumann_basis(DomainSpec.interval(0.0, 2.0 * np.pi), 2)
    assert b2.lambdas[1] == pytest.approx(0.25, rel=1e-14)


def test_rectangle_eigenvalues_sorted_with_ties():
    dom = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
    b = spectral.neumann_basis(dom, 4)
    assert np.allclose(b.lambdas, [0.0, 1.0, 1.0, 2.0], atol=1e-14)
    # ties broken lexicographically in the mode indices
    assert b.modes == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_basis_gram_orthonormal():
    for dom in (INTERVAL_PI, DomainSpec.rectangle(0.0, np.pi, 0.0, 2.0)):
        b = spectral.neumann_basis(dom, 6)
        flat = b.eigenfields.reshape(b.K, -1)
        gram = flat @ (b.weights.ravel()[:, None] * flat.T)
        assert np.max(np.abs(gram - np.eye(b.K))) < 1e-12


def test_mode_at_matches_sampled_fields():
    b = spectral.neumann_basis(INTERVAL_PI, 5)
    for k in range(b.K):
        assert np.allclose(b.mode_at(k, b.x_nodes), b.eigenfields[k],
                           atol=1e-14)


def _cosine_reference(lo, hi, k, x):
    L = hi - lo
    if k == 0:
        return np.full_like(x, 1.0 / np.sqrt(L))
    return np.sqrt(2.0 / L) * np.cos(k * np.pi * (x - lo) / L)


def _tuple_sort_basis(dom, K):
    """(lambdas, modes, x, z, eigenfields, weights) built the direct way:
    every (lambda, indices) tuple of the index box, sorted as tuples."""
    from cylreact.cylinder import _trapezoid_weights
    if not dom.is_rectangle:
        n = max(33, 2 * (K - 1) + 1)
        x = np.linspace(dom.x_min, dom.x_max, n)
        L = dom.x_max - dom.x_min
        lambdas = np.array([(k * np.pi / L) ** 2 for k in range(K)])
        fields = np.stack([_cosine_reference(dom.x_min, dom.x_max, k, x)
                           for k in range(K)])
        return (lambdas, [(k,) for k in range(K)], x, None, fields,
                _trapezoid_weights(x))
    Lx, Lz = dom.x_max - dom.x_min, dom.z_max - dom.z_min
    pairs = sorted(((i * np.pi / Lx) ** 2 + (j * np.pi / Lz) ** 2, (i, j))
                   for i in range(K) for j in range(K))[:K]
    modes = [p[1] for p in pairs]
    n = max(33, 2 * max(max(m) for m in modes) + 1)
    x = np.linspace(dom.x_min, dom.x_max, n)
    z = np.linspace(dom.z_min, dom.z_max, n)
    fields = np.stack([_cosine_reference(dom.x_min, dom.x_max, i, x)[:, None]
                       * _cosine_reference(dom.z_min, dom.z_max, j, z)[None, :]
                       for i, j in modes])
    w = _trapezoid_weights(x)[:, None] * _trapezoid_weights(z)[None, :]
    return np.array([p[0] for p in pairs]), modes, x, z, fields, w


@pytest.mark.parametrize("dom, K", [
    (DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi), 500),
    (DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi), 16),
    (DomainSpec.rectangle(0.0, np.pi, 0.0, 2.0), 6),
    (DomainSpec.rectangle(0.0, np.pi, 0.0, 1.0), 5),
    (DomainSpec.rectangle(-1.0, 0.5, 2.0, 4.0), 40),
    (INTERVAL_PI, 64),
    (INTERVAL_PI, 12),
])
def test_neumann_basis_matches_tuple_sort(dom, K):
    lambdas, modes, x, z, fields, w = _tuple_sort_basis(dom, K)
    b = spectral.neumann_basis(dom, K)
    assert np.array_equal(b.lambdas, lambdas)
    assert b.modes == modes
    assert np.array_equal(b.x_nodes, x)
    # every axis is sampled at the same number of nodes
    assert z is None or np.array_equal(
        np.linspace(dom.z_min, dom.z_max, b.x_nodes.size), z)
    assert np.array_equal(b.eigenfields, fields)
    assert np.array_equal(b.weights, w)


def test_mode_at_integer_coordinates():
    b = spectral.neumann_basis(DomainSpec.interval(0.0, 2.0), 3)
    pts = np.array([0, 1, 2])
    for k in range(b.K):
        assert np.array_equal(b.mode_at(k, pts), b.mode_at(k, pts * 1.0))


def test_mode_at_rectangle_matches_sampled_fields():
    b = spectral.neumann_basis(DomainSpec.rectangle(0.0, np.pi, -1.0, 1.0), 7)
    z_nodes = np.linspace(-1.0, 1.0, b.x_nodes.size)
    for k in range(b.K):
        phi = b.mode_at(k, b.x_nodes[:, None], z_nodes[None, :])
        assert np.array_equal(phi, b.eigenfields[k])


def test_neumann_basis_validation():
    with pytest.raises(ValueError):
        spectral.neumann_basis(INTERVAL_PI, 0)


# ---------------------------------------------------------------------------
# spectral functions and the fractional map


def test_spectral_function_values_and_seminorm():
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    c = np.array([0.5, 1.0, 0.0, -2.0])
    v = spectral.SpectralFunction(b, c)
    assert np.allclose(b.synthesize(v.coeffs), b.synthesize(c))
    # the H^{1/2} seminorm is the pairing <(-Laplace)^{1/2} v, v>
    expected = float(np.sum(np.sqrt(b.lambdas) * c ** 2))
    half = spectral.apply_fractional(b, 0.5, v)
    assert float(half.coeffs @ c) == pytest.approx(expected, rel=1e-14)


def test_spectral_function_coeff_count_checked():
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    with pytest.raises(ValueError):
        spectral.SpectralFunction(b, np.zeros(5))


def test_apply_fractional_annihilates_zero_mode():
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    v = spectral.SpectralFunction(b, np.array([3.0, 1.0, 1.0, 1.0]))
    out = spectral.apply_fractional(b, 0.5, v)
    assert out.coeffs[0] == 0.0
    assert np.allclose(out.coeffs[1:], np.sqrt(b.lambdas[1:]))


def test_apply_fractional_validation():
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    v = spectral.SpectralFunction(b, np.ones(4))
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            spectral.apply_fractional(b, s, v)
    b5 = spectral.neumann_basis(INTERVAL_PI, 5)
    with pytest.raises(ValueError):
        spectral.apply_fractional(b5, 0.5, v)


def test_apply_fractional_rejects_other_domain_with_equal_K():
    # mode 1 of the (0, 3)^2 rectangle has lambda^(1/2) = pi/3; read on the
    # unit interval's basis it would give pi
    interval = spectral.neumann_basis(DomainSpec.interval(0.0, 1.0), 8)
    square = spectral.neumann_basis(DomainSpec.rectangle(0.0, 3.0, 0.0, 3.0),
                                    8)
    w = spectral.SpectralFunction(square, np.eye(8)[1])
    with pytest.raises(ValueError, match="given basis"):
        spectral.apply_fractional(interval, 0.5, w)
    same = spectral.neumann_basis(DomainSpec.rectangle(0.0, 3.0, 0.0, 3.0), 8)
    assert spectral.apply_fractional(same, 0.5, w).coeffs[1] == \
        pytest.approx(np.pi / 3.0, rel=1e-15)


@pytest.mark.parametrize("domain, K", [
    (DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi), 8),   # other domain
    (INTERVAL_PI, 6),                                    # other K
], ids=["domain", "K"])
def test_solve_semilinear_rejects_init_on_another_basis(domain, K):
    b = spectral.neumann_basis(INTERVAL_PI, 8)
    init = spectral.SpectralFunction(spectral.neumann_basis(domain, K),
                                     np.zeros(K))
    with pytest.raises(ValueError, match="given basis"):
        spectral.solve_semilinear(b, _damped_cubic(), init)


@settings(deadline=None, max_examples=30)
@given(s1=st.floats(0.05, 0.5), s2=st.floats(0.05, 0.5),
       seed=st.integers(0, 2 ** 16))
def test_apply_fractional_semigroup(s1, s2, seed):
    b = spectral.neumann_basis(INTERVAL_PI, 6)
    rng = np.random.default_rng(seed)
    v = spectral.SpectralFunction(b, rng.standard_normal(6))
    once = spectral.apply_fractional(b, s1 + s2, v)
    twice = spectral.apply_fractional(b, s2, spectral.apply_fractional(b, s1, v))
    assert np.allclose(twice.coeffs, once.coeffs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# semilinear solve: every solution is constant in the cross-section


def test_solve_semilinear_reaches_constant_from_random_inits():
    b = spectral.neumann_basis(INTERVAL_PI, 12)
    reaction = solver.ReactionSpec(
        f=lambda v: 1.0 - np.asarray(v, float) ** 3,
        f_prime=lambda v: -3.0 * np.asarray(v, float) ** 2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        init = spectral.SpectralFunction(b, 1e-2 * rng.standard_normal(12))
        v = spectral.solve_semilinear(b, reaction, init)
        assert float(np.sum(v.coeffs[1:] ** 2)) < 1e-24
        assert np.allclose(b.synthesize(v.coeffs), 1.0, atol=1e-10)


def test_solve_semilinear_zero_root_damped_cubic():
    b = spectral.neumann_basis(INTERVAL_PI, 8)
    init = spectral.SpectralFunction(
        b, 0.1 * np.random.default_rng(7).standard_normal(8))
    v = spectral.solve_semilinear(b, _damped_cubic(), init)
    assert np.max(np.abs(v.coeffs)) < 1e-10


def test_solve_semilinear_inconsistent_problem_raises():
    # f(v) = v^2 + 1 has positive mean for every v: the zero-mode equation
    # 0 = <f(v), phi_0> is unsolvable
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    reaction = solver.ReactionSpec(
        f=lambda v: np.asarray(v, float) ** 2 + 1.0,
        f_prime=lambda v: 2.0 * np.asarray(v, float))
    init = spectral.SpectralFunction(b, np.zeros(4))
    with pytest.raises(spectral.SpectralSolveError) as exc:
        spectral.solve_semilinear(b, reaction, init, max_iter=25)
    assert len(exc.value.residual_history) >= 1


def test_solve_semilinear_reports_iteration_cap():
    b = spectral.neumann_basis(INTERVAL_PI, 8)
    init = spectral.SpectralFunction(
        b, 0.1 * np.random.default_rng(7).standard_normal(8))
    with pytest.raises(spectral.SpectralSolveError,
                       match="no convergence in 1 iterations") as exc:
        spectral.solve_semilinear(b, _damped_cubic(), init, max_iter=1)
    history = exc.value.residual_history
    assert len(history) == 2 and history[1] < history[0]


# ---------------------------------------------------------------------------
# eigenvalue growth / eigenfunction bound fit


def test_eig_growth_interval():
    b = spectral.neumann_basis(INTERVAL_PI, 64)
    K_beta, (C1, C2) = spectral.eig_growth_check(b, 1.5)
    # lambda_k = k^2 >= k^1.5 from k = 1 on; cosines have sup sqrt(2/pi)
    assert K_beta == 1
    assert C1 == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-12)
    assert abs(C2) < 1e-12


def test_eig_growth_rectangle():
    dom = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
    b = spectral.neumann_basis(dom, 128)
    K_beta, (C1, C2) = spectral.eig_growth_check(b, 0.9)
    assert K_beta == 8  # frozen: smallest index from which lambda_k > k^0.9
    assert np.all(b.lambdas[K_beta:] >= np.arange(K_beta, 128) ** 0.9)
    assert C1 == pytest.approx(0.514102120557188, rel=1e-9)
    assert C2 == pytest.approx(0.037628635584056803, rel=1e-6)


def test_eig_growth_validation():
    b = spectral.neumann_basis(INTERVAL_PI, 64)
    with pytest.raises(ValueError):
        spectral.eig_growth_check(b, 0.0)
    with pytest.raises(ValueError):
        spectral.eig_growth_check(b, 2.0)  # beta must be < 2/n = 2
    small = spectral.neumann_basis(INTERVAL_PI, 10)
    with pytest.raises(ValueError):
        spectral.eig_growth_check(small, 1.0)


# ---------------------------------------------------------------------------
# harmonic extension


def test_extend_harmonic_single_mode_closed_form():
    b = spectral.neumann_basis(INTERVAL_PI, 8)
    c = np.zeros(8)
    c[1] = 1.0
    v = spectral.SpectralFunction(b, c)
    grid = build_grid(INTERVAL_PI, nx=17, ny=17, y_max=4.0)
    u = spectral.extend_harmonic(b, v, grid)
    X = grid.coordinate_arrays()[0]
    Y = grid.coordinate_arrays()[-1]
    exact = np.sqrt(2.0 / np.pi) * np.cos(X) * np.exp(-Y)
    assert np.max(np.abs(u.values - exact)) < 1e-14


def test_extend_harmonic_interior_laplacian_ladder():
    # the extension is harmonic: the discrete interior Laplacian residual
    # shrinks under refinement (frozen from the second-order stencils)
    from cylreact import forms
    b = spectral.neumann_basis(INTERVAL_PI, 8)
    c = np.zeros(8)
    c[1] = 1.0
    v = spectral.SpectralFunction(b, c)
    frozen = {17: 1.510892e-2, 33: 5.136369e-3, 65: 1.475544e-3}
    for n, expected in frozen.items():
        grid = build_grid(INTERVAL_PI, nx=n, ny=n, y_max=4.0)
        u = spectral.extend_harmonic(b, v, grid)
        gx = forms.gradient_fields(grid, u.values, pairing=False)
        lap = (forms.gradient_fields(grid, gx[0], pairing=False)[0]
               + forms.gradient_fields(grid, gx[-1], pairing=False)[-1])
        res = float(np.max(np.abs(lap[2:-2, 2:-2])))
        assert res == pytest.approx(expected, rel=1e-5)


def test_extend_harmonic_domain_mismatch():
    b = spectral.neumann_basis(INTERVAL_PI, 4)
    v = spectral.SpectralFunction(b, np.zeros(4))
    grid = build_grid(DomainSpec.interval(0.0, 1.0), nx=9, ny=9, y_max=2.0)
    with pytest.raises(ValueError):
        spectral.extend_harmonic(b, v, grid)


# ---------------------------------------------------------------------------
# equivalence with the cylinder weak form


def test_extension_equivalence_residuals_at_roundoff():
    basis = spectral.neumann_basis(INTERVAL_PI, 32)
    grid = build_grid(INTERVAL_PI, nx=65, ny=65, y_max=19.0)
    rng = np.random.default_rng(0)
    init = spectral.SpectralFunction(basis, 1e-3 * rng.standard_normal(32))
    cases = [
        ("zero", solver.ReactionSpec.constant(0.0), 1e-15),
        ("one-minus-v", _one_minus_v(), 1e-12),
        ("damped-cubic", _damped_cubic(), 1e-18),
    ]
    for name, reaction, bound in cases:
        res = spectral.extension_equivalence(basis, reaction, grid, init=init)
        assert res < bound, name


def test_extension_equivalence_is_max_weak_residual_over_test_fields():
    # one assembled residual vector serves all 18 test fields; the value
    # must equal solver.residual_weak field by field, bit for bit
    from cylreact.coefficients import CoefficientModel
    from cylreact.cylinder import CylinderField
    basis = spectral.neumann_basis(INTERVAL_PI, 12)
    grid = build_grid(INTERVAL_PI, nx=33, ny=33, y_max=19.0)
    init = spectral.SpectralFunction(
        basis, 1e-3 * np.random.default_rng(1).standard_normal(12))
    # f = -v^3 stops Newton short of v = 0, so the residuals are not all 0
    reaction = solver.ReactionSpec(
        f=lambda v: -np.asarray(v, float) ** 3,
        f_prime=lambda v: -3.0 * np.asarray(v, float) ** 2)
    got = spectral.extension_equivalence(basis, reaction, grid, init=init)
    u = spectral.extend_harmonic(
        basis, spectral.solve_semilinear(basis, reaction, init), grid)
    y, ymax = grid.y_nodes, grid.y_max
    res = []
    for k in range(6):
        phi_x = basis.mode_at(k, *np.ix_(*grid.axes[:-1]))
        for p in ((1.0 - y / ymax) ** 2, np.cos(np.pi * y / (2.0 * ymax)),
                  1.0 - y / ymax):
            p = p.copy()
            p[-1] = 0.0
            res.append(abs(solver.residual_weak(
                u, CoefficientModel.constant_one(), reaction,
                CylinderField(grid, phi_x[..., None] * p))))
    assert len(res) == 18 and max(res) > 0.0
    assert got == max(res)
