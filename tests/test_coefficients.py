"""Coefficient families: structure checks and the flux-linearization matrix."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylreact.coefficients import (
    CoefficientModel,
    check_structural,
    eigvals_B_closed_form,
    eval_a,
    eval_a_t,
    matrix_B,
)


def test_power_weight_values():
    m = CoefficientModel.power_weight(0.5)
    assert eval_a(m, 4.0, 1.7) == pytest.approx(2.0)
    assert eval_a_t(m, 4.0, 1.7) == 0.0


def test_power_weight_theta_range_enforced():
    with pytest.raises(ValueError):
        CoefficientModel.power_weight(1.0)
    with pytest.raises(ValueError):
        CoefficientModel.power_weight(-1.0)


def test_p_laplace_requires_p_above_one():
    with pytest.raises(ValueError):
        CoefficientModel.power_weight_p_laplace(0.0, 1.0)


def test_eval_requires_positive_y():
    m = CoefficientModel.power_weight(-0.5)
    with pytest.raises(ValueError):
        eval_a(m, 0.0, 1.0)
    with pytest.raises(ValueError):
        eval_a(m, -1.0, 1.0)


def test_eval_requires_nonnegative_t():
    m = CoefficientModel.constant_one()
    with pytest.raises(ValueError):
        eval_a(m, 1.0, -0.5)


def test_structural_report_families():
    for m in (CoefficientModel.power_weight(0.3),
              CoefficientModel.power_weight_p_laplace(0.0, 3.0),
              CoefficientModel.mean_curvature_weight(-0.4),
              CoefficientModel.constant_one(),
              CoefficientModel.exp_y()):
        rep = check_structural(m)
        assert rep.ellipticity_ok
        assert rep.limit_zero_ok
        assert np.isfinite(rep.derivative_bound_C)


def test_mean_curvature_derivative_is_nonpositive():
    m = CoefficientModel.mean_curvature_weight(0.2)
    for t in (0.1, 1.0, 10.0):
        assert eval_a_t(m, 1.5, t) <= 0.0


def test_matrix_B_rejects_scalar_direction():
    m = CoefficientModel.constant_one()
    with pytest.raises(ValueError):
        matrix_B(m, 1.0, np.array([1.0]))


def test_matrix_B_at_zero_direction_is_isotropic():
    m = CoefficientModel.power_weight_p_laplace(0.0, 3.0)
    B = matrix_B(m, 2.0, np.zeros(2))
    assert np.allclose(B, eval_a(m, 2.0, 0.0) * np.eye(2))


def test_closed_form_rejects_zero_direction():
    with pytest.raises(ValueError):
        eigvals_B_closed_form(CoefficientModel.constant_one(), 1.0,
                              np.zeros(2))


_model_strategy = st.one_of(
    st.floats(-0.9, 0.9).map(CoefficientModel.power_weight),
    st.tuples(st.floats(-0.9, 0.9), st.floats(1.1, 4.0)).map(
        lambda a: CoefficientModel.power_weight_p_laplace(*a)),
    st.floats(-0.9, 0.9).map(CoefficientModel.mean_curvature_weight),
    st.just(CoefficientModel.constant_one()),
    st.just(CoefficientModel.exp_y()),
)


@settings(deadline=None, max_examples=150)
@given(model=_model_strategy,
       y=st.floats(0.05, 5.0),
       eta=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3).filter(
           lambda v: np.linalg.norm(v) > 1e-6))
def test_spectrum_matches_closed_form(model, y, eta):
    eta = np.asarray(eta)
    numeric = np.sort(np.linalg.eigvalsh(matrix_B(model, y, eta)))
    closed, direction = eigvals_B_closed_form(model, y, eta)
    assert np.allclose(numeric, np.sort(closed), rtol=1e-11, atol=1e-13)
    assert np.linalg.norm(direction) == pytest.approx(1.0)


@settings(deadline=None, max_examples=150)
@given(model=_model_strategy, y=st.floats(0.05, 5.0),
       eta=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3).filter(
           lambda v: np.linalg.norm(v) > 1e-6))
def test_spectrum_is_positive(model, y, eta):
    closed, _ = eigvals_B_closed_form(model, y, np.asarray(eta))
    assert np.all(closed > 0.0)


@settings(deadline=None, max_examples=60)
@given(y=st.floats(0.05, 5.0), t=st.floats(0.0, 10.0),
       theta=st.floats(-0.9, 0.9), p=st.floats(1.1, 4.0))
def test_ellipticity_combination_positive(y, t, theta, p):
    m = CoefficientModel.power_weight_p_laplace(theta, p)
    assert eval_a(m, y, t) + t * eval_a_t(m, y, t) > 0.0


def _structural_loop(model, y_samples, t_samples):
    """Sample-by-sample reference for check_structural's sweep."""
    witness, bound = None, 0.0
    for yv in y_samples:
        for tv in t_samples:
            a, at = eval_a(model, yv, tv), eval_a_t(model, yv, tv)
            if witness is None and (a <= 0.0 or a + tv * at <= 0.0):
                witness = (yv, tv)
            bound = max(bound, tv * abs(at) / a if a > 0.0 else np.inf)
    limit = all(abs(1e-8 * eval_a_t(model, yv, 1e-8)) <= 1e-6
                for yv in y_samples)
    return witness is None, bound, limit, witness


@pytest.mark.parametrize("model", [
    CoefficientModel.power_weight(0.3),
    CoefficientModel.power_weight_p_laplace(-0.2, 3.0),
    CoefficientModel.mean_curvature_weight(-0.4),
    CoefficientModel.exp_y(),
    CoefficientModel.custom(lambda y, t: 1.0 - t * y / 3.0),
    CoefficientModel.custom(lambda y, t: 1.0 + np.sqrt(t) + 0.0 * y),
], ids=["power_weight", "p_laplace", "mean_curvature", "exp_y",
        "custom_failing", "custom_sqrt"])
def test_structural_sweep_matches_sample_loop(model):
    ys = [float(y) for y in np.logspace(-2.0, 2.0, 17)]
    ts = [0.0] + [float(t) for t in np.logspace(-2.0, 2.0, 17)]
    rep = check_structural(model, y_samples=ys, t_samples=ts)
    assert (rep.ellipticity_ok, rep.derivative_bound_C, rep.limit_zero_ok,
            rep.witness) == _structural_loop(model, ys, ts)


def test_structural_witness_is_first_failure_in_y_major_order():
    # a + t a_t = 1 - 2 t y fails where t y >= 1/2: at y = 1 from t = 0.5,
    # at y = 2 already from t = 0.25, but y = 1 comes first
    m = CoefficientModel.custom(lambda y, t: 1.0 + 0.0 * t * y,
                                lambda y, t: -2.0 * y + 0.0 * t)
    rep = check_structural(m, y_samples=[0.1, 1.0, 2.0],
                           t_samples=[0.0, 0.25, 0.5, 1.0])
    assert not rep.ellipticity_ok
    assert rep.witness == (1.0, 0.5)
    assert rep.derivative_bound_C == 4.0      # t |a_t| / a at y = 2, t = 1
    assert rep.limit_zero_ok


def test_structural_limit_probe_catches_nonvanishing_t_a_t():
    # a = 1 + sqrt(t): t a_t = sqrt(t) / 2 is 5e-5 at t = 1e-8
    rep = check_structural(CoefficientModel.custom(
        lambda y, t: 1.0 + np.sqrt(t)))
    assert rep.ellipticity_ok
    assert not rep.limit_zero_ok
