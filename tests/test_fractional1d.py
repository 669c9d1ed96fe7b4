"""Tests for the 1D integral fractional Laplacian and the counterexample
construction."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import qr_multiply, solve_triangular

from cylreact import fractional1d as fr
from cylreact import spectral, verify
from cylreact.cylinder import DomainSpec


def _zero_h(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# operator assembly


def test_make_operator_validation():
    with pytest.raises(ValueError):
        fr.make_operator(0.0, 2.0, 64)
    with pytest.raises(ValueError):
        fr.make_operator(1.0, 2.0, 64)
    with pytest.raises(ValueError):
        fr.make_operator(0.5, 2.0, 4)


def test_operator_rows_m_matrix_pattern():
    op = fr.make_operator(0.4, 2.0, 129)
    idx = np.array([1, 30, 64, 127])
    rows = fr.operator_rows(op, idx)
    for r, i in enumerate(idx):
        assert rows[r, i] > 0.0
        off = np.delete(rows[r], i)
        assert np.all(off <= 0.0)
        # strict diagonal dominance: the tail mass keeps row sums positive
        assert rows[r].sum() > 0.0


def test_operator_rows_edge_validation():
    op = fr.make_operator(0.5, 2.0, 65)
    with pytest.raises(ValueError):
        fr.operator_rows(op, np.array([0]))
    with pytest.raises(ValueError):
        fr.operator_rows(op, np.array([64]))


def _row_loop(op, row_indices):
    """Per-row assembly of the operator rows, entry by entry as the
    quadrature defines them: the reference for the Toeplitz build."""
    n, J = op.n, op.pair_weights.size
    diag = 2.0 * float(np.sum(op.pair_weights)) + 2.0 * op.singular_coeff \
        + op.tail_coeff
    rows = np.zeros((row_indices.size, n))
    for r, i in enumerate(row_indices):
        rows[r, i] = diag
        jr = min(J, n - 1 - i)
        rows[r, i + 1:i + 1 + jr] -= op.pair_weights[:jr]
        jl = min(J, i)
        rows[r, i - jl:i] -= op.pair_weights[:jl][::-1]
        rows[r, i + 1] -= op.singular_coeff
        rows[r, i - 1] -= op.singular_coeff
    return rows


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_operator_rows_match_row_loop(s):
    op = fr.make_operator(s, 2.0, 33)
    for idx in (np.array([1, 2, 16, 30, 31]), np.arange(1, 32)):
        assert np.array_equal(fr.operator_rows(op, idx), _row_loop(op, idx))


def _fit_masks(n, inner):
    """Symmetric interior / exterior node sets as construct_counterexample
    draws them: interior where the doubled centre offset is below inner."""
    m = np.abs(2 * np.arange(n) - (n - 1))
    return (np.flatnonzero(m < inner),
            np.flatnonzero((m >= inner) & (m < n - 1)))


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_gathered_blocks_match_operator_rows(s, monkeypatch):
    # the fit's H and A are read off the first column, gathered or (odd)
    # built as Toeplitz and Hankel blocks; each must equal the
    # operator_rows slice bit for bit.  (4097, 1024) is the 1025-node fit
    # at M = 8, whose odd coupling block is 511 x 1,536
    gather = fr._toeplitz_block
    for n, M, inner in ((33, 2.0, 15), (34, 2.0, 15), (4097, 8.0, 1024)):
        op = fr.make_operator(s, M, n)
        idx_in, idx_un = _fit_masks(n, inner)
        k = idx_un.size
        if n < 100:      # at 4097 nodes this would gather 1,022 full rows
            rows = fr.operator_rows(op, idx_in)
            H, A = fr._fit_blocks(op, idx_in, idx_un, odd=False)
            assert np.array_equal(H, rows[:, idx_in])
            assert np.array_equal(A, rows[:, idx_un])
        half = idx_in[:idx_in.size // 2]
        rows = fr.operator_rows(op, half)

        def refuse(*args):
            raise AssertionError("the odd blocks must not be gathered")
        monkeypatch.setattr(fr, "_toeplitz_block", refuse)
        H, A = fr._fit_blocks(op, idx_in, idx_un, odd=True)
        monkeypatch.setattr(fr, "_toeplitz_block", gather)
        assert np.array_equal(H, rows[:, half] - rows[:, n - 1 - half])
        assert np.array_equal(A, rows[:, idx_un[:k // 2]]
                              - rows[:, idx_un[::-1][:k // 2]])
    assert A.shape == (511, 1536)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_toeplitz_product_and_exterior_solve_match_operator_rows(s):
    rng = np.random.default_rng(7)
    for n in (33, 1025):
        op = fr.make_operator(s, 2.0, n)
        v = rng.standard_normal(n)
        idx = np.arange(1, n - 1)
        ref = fr.operator_rows(op, idx) @ v
        got = fr._toeplitz_product(fr._toeplitz_column(op), v)
        assert got.shape == (n,)
        assert np.max(np.abs(got[idx] - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the exterior solve: gathered A_ii, right-hand side by the product
        inside = np.abs(op.x) < 1.0
        rows = fr.operator_rows(op, np.flatnonzero(inside))
        ref = np.linalg.solve(rows[:, inside],
                              -rows @ np.where(inside, 0.0, v))
        got = fr.solve_exterior_value(op, v, (-1.0, 1.0))
        assert np.array_equal(got[~inside], v[~inside])
        assert np.max(np.abs(got[inside] - ref)) <= \
            1e-13 * np.max(np.abs(ref))


def test_apply_matches_rows():
    op = fr.make_operator(0.3, 2.0, 257)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(op.n)
    idx = np.array([10, 128, 200])
    rows = fr.operator_rows(op, idx)
    for r, i in enumerate(idx):
        direct = fr.apply_integral_fraclap(op, v, float(op.x[i]))
        assert direct == pytest.approx(float(rows[r] @ v), rel=1e-12)


def test_apply_target_validation():
    op = fr.make_operator(0.5, 2.0, 65)
    v = np.zeros(op.n)
    with pytest.raises(ValueError):
        fr.apply_integral_fraclap(op, v, float(op.x[0]))  # edge node
    with pytest.raises(ValueError):
        fr.apply_integral_fraclap(op, v, 0.513)  # off-grid point
    with pytest.raises(ValueError):
        fr.apply_integral_fraclap(op, np.zeros(op.n - 1), 0.0)


def test_exact_translation_equivariance():
    # one shared distance-weight table: shifting the data by whole cells
    # shifts the evaluation with zero floating-point discrepancy
    op = fr.make_operator(0.5, 4.0, 513)
    rng = np.random.default_rng(11)
    bump = rng.standard_normal(41)
    v1 = np.zeros(op.n)
    v1[100:141] = bump
    v2 = np.zeros(op.n)
    shift = 37
    v2[100 + shift:141 + shift] = bump
    a = fr.apply_integral_fraclap(op, v1, float(op.x[120]))
    b = fr.apply_integral_fraclap(op, v2, float(op.x[120 + shift]))
    assert a == b  # exactly equal, not just approximately


def test_indicator_value_and_tail_formula():
    # v == 1 on the grid is the zero extension of the indicator of
    # [-M, M]; at the center the exact value is 2 int_M^inf r^{-1-2s} dr
    # = M^{-2s}/s (quadrature error only at the jump cells)
    op = fr.make_operator(0.5, 2.0, 257)
    v = np.ones(op.n)
    val = fr.apply_integral_fraclap(op, v, float(op.x[128]))
    assert val == pytest.approx(op.M ** (-2 * op.s) / op.s, rel=1e-2)
    assert op.tail_coeff == pytest.approx(
        2.0 * (2.0 * op.M) ** (-2 * op.s) / (2.0 * op.s), rel=1e-14)


@settings(deadline=None, max_examples=25)
@given(s=st.floats(0.1, 0.9), i=st.integers(5, 120))
def test_rows_nonnegative_on_nonnegative_peak(s, i):
    # M-matrix action: if v >= 0 has its maximum at the target, Lv >= 0
    op = fr.make_operator(s, 2.0, 129)
    v = np.clip(1.0 - np.abs(op.x - op.x[i]), 0.0, None)  # peak at node i
    val = fr.apply_integral_fraclap(op, v, float(op.x[i]))
    assert val >= 0.0


# ---------------------------------------------------------------------------
# Getoor constancy (half profile has constant fractional Laplacian)


def test_getoor_half_profile_constancy():
    # unnormalized s=1/2 operator maps sqrt(1-x^2)_+ to the constant pi
    # (the kernel carries no normalizing constant, which for s=1/2 in one
    # dimension is exactly 1/pi)
    op = fr.make_operator(0.5, 2.0, 16385)
    prof = np.where(np.abs(op.x) < 1.0,
                    np.sqrt(np.clip(1.0 - op.x ** 2, 0.0, None)), 0.0)
    idx = np.flatnonzero(np.abs(op.x) < 0.9)[::160]
    vals = np.array([fr.apply_integral_fraclap(op, prof, float(op.x[i]))
                     for i in idx])
    assert idx.size == 47
    assert float(np.ptp(vals)) == pytest.approx(5.477399816826711e-4, rel=1e-6)
    assert float(np.max(np.abs(vals - np.pi))) == pytest.approx(
        5.895640410060743e-4, rel=1e-6)
    assert float(np.ptp(vals)) < 1e-3


# ---------------------------------------------------------------------------
# fractional normal derivative


def test_normal_derivative_sqrt_profile():
    val = fr.fractional_normal_derivative(
        lambda t: np.sqrt(np.clip(1.0 - np.asarray(t, float), 0.0, None)),
        0.5, 1.0, fr.Side.FROM_LEFT_INTERVAL)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_normal_derivative_smooth_critical_point():
    val = fr.fractional_normal_derivative(
        np.cos, 0.5, 0.0, fr.Side.FROM_RIGHT_INTERVAL)
    assert abs(val) < 1e-6


def test_normal_derivative_smooth_other_s():
    val = fr.fractional_normal_derivative(
        lambda t: (np.asarray(t, float) - 2.0) ** 2,
        0.7, 2.0, fr.Side.FROM_LEFT_INTERVAL)
    assert abs(val) < 1e-10


def test_normal_derivative_nodal_input_and_validation():
    nodes = np.linspace(0.0, 1.0, 401)
    values = np.sqrt(np.clip(1.0 - nodes, 0.0, None))
    val = fr.fractional_normal_derivative(
        (nodes, values), 0.5, 1.0, fr.Side.FROM_LEFT_INTERVAL)
    # the cubic spline smooths the t^s cusp, so nodal data recovers the
    # constant only roughly; the callable path is the precision route
    assert 0.7 < val < 1.1
    with pytest.raises(ValueError):  # boundary point outside the nodes
        fr.fractional_normal_derivative(
            (nodes, values), 0.5, 2.0, fr.Side.FROM_LEFT_INTERVAL)
    with pytest.raises(ValueError):
        fr.fractional_normal_derivative(np.cos, 0.0, 0.0,
                                        fr.Side.FROM_LEFT_INTERVAL)


# ---------------------------------------------------------------------------
# exterior-value (s-harmonic interpolation) solve


def test_exterior_value_max_principle():
    op = fr.make_operator(0.5, 4.0, 513)
    rng = np.random.default_rng(3)
    ext = np.clip(rng.standard_normal(op.n), -2.0, 2.0)
    sol = fr.solve_exterior_value(op, ext, (-1.0, 1.0))
    inside = (op.x > -1.0) & (op.x < 1.0)
    outside_vals = ext[~inside]
    assert np.all(sol[inside] <= np.max(outside_vals) + 1e-12)
    assert np.all(sol[inside] >= np.min(outside_vals) - 1e-12)
    assert np.array_equal(sol[~inside], ext[~inside])


def test_exterior_value_adjacent_bump_decay():
    # a bump just right of the interval: the s-harmonic interior values are
    # positive and decrease monotonically with distance from the bump
    op = fr.make_operator(0.5, 4.0, 1025)
    ext = np.zeros(op.n)
    ext[(op.x >= 1.0 - 1e-12) & (op.x < 1.5)] = 1.0
    sol = fr.solve_exterior_value(op, ext, (-1.0, 1.0))
    inside = np.flatnonzero((op.x > -1.0) & (op.x < 1.0))
    vals = sol[inside]
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)  # increasing toward the bump


def test_exterior_value_validation():
    op = fr.make_operator(0.5, 2.0, 65)
    ext = np.zeros(op.n)
    with pytest.raises(ValueError):
        fr.solve_exterior_value(op, ext, (-3.0, 1.0))
    with pytest.raises(ValueError):
        fr.solve_exterior_value(op, np.zeros(3), (-1.0, 1.0))


# ---------------------------------------------------------------------------
# banded target profile


def test_build_h_star_segments():
    eps = 0.5
    b = eps / 11.0
    x = np.array([0.0, 0.5, -0.7, 1.0 + 1.5 * b, -(1.0 + 1.5 * b),
                  1.0 + 3.5 * b, -(1.0 + 3.5 * b), 1.0 + 6.0 * b, -3.0])
    out = fr.build_h_star(lambda t: 0.25 * np.asarray(t, float), eps, x)
    assert out[0] == 0.0 and out[1] == pytest.approx(0.125)
    assert out[2] == pytest.approx(-0.175)
    assert out[3] == pytest.approx(2.0 * x[3])    # +2x band
    assert out[4] == pytest.approx(2.0 * x[4])
    assert out[5] == pytest.approx(-2.0 * x[5])   # -2x band
    assert out[6] == pytest.approx(-2.0 * x[6])
    assert out[7] == 0.0 and out[8] == 0.0


def test_build_h_star_continuous():
    eps = 0.5
    x = np.linspace(-2.0, 2.0, 20001)
    out = fr.build_h_star(_zero_h, eps, x)
    # no jumps anywhere: adjacent samples differ by O(slope * dx); the
    # steepest piece is the +2x-to--2x blend, slope about (15/8)*4.4/b
    b = eps / 11.0
    slope_bound = 2.0 * (15.0 / 8.0) * 4.4 / b
    assert np.max(np.abs(np.diff(out))) < slope_bound * (x[1] - x[0])


# ---------------------------------------------------------------------------
# counterexample construction


def test_construct_counterexample_default_succeeds():
    res = fr.construct_counterexample(_zero_h, 0.5)
    b = 0.5 / 11.0
    for delta in (res.delta1, res.delta2):
        assert b <= delta <= 4.0 * b
    # the odd target gives an odd fit: mirrored roots
    assert res.delta1 == pytest.approx(0.1225503866, rel=1e-6)
    assert res.delta2 == pytest.approx(0.1225503866, rel=1e-6)
    assert abs(res.delta1 - res.delta2) <= 1e-9
    assert res.interior_residual < 1e-8
    assert res.band_c2_residual == pytest.approx(759.1267953725421, rel=1e-6)
    assert res.M_used == 4.0
    # both fractional one-sided derivatives stay below the smallness gate
    for point, side in ((-(1.0 + res.delta1), fr.Side.FROM_RIGHT_INTERVAL),
                        (1.0 + res.delta2, fr.Side.FROM_LEFT_INTERVAL)):
        nd = fr.fractional_normal_derivative((res.x, res.v), res.s, point,
                                             side)
        assert abs(nd) <= 1e-4


def test_construct_counterexample_roots_persist_under_refinement():
    res = fr.construct_counterexample(_zero_h, 0.5, fit_nodes=1025)
    assert res.delta1 == pytest.approx(0.1177160885, rel=1e-6)
    assert res.delta2 == pytest.approx(0.1177160885, rel=1e-6)
    assert abs(res.delta1 - res.delta2) <= 1e-9
    assert res.interior_residual < 1e-8


def test_construct_counterexample_odd_for_even_cell_count():
    # fit_nodes - 1 = 499 puts the mirrored nodes at |x| = 2 - h/2 exactly
    # on the misfit-mask edge; both must fall on the same side of it
    res = fr.construct_counterexample(_zero_h, 0.5, fit_nodes=500)
    assert abs(res.delta1 - res.delta2) <= 1e-9
    np.testing.assert_array_equal(res.x, -res.x[::-1])


def test_construct_counterexample_interior_equations_hold_to_roundoff():
    # w is composed by one solve against the fitted exterior values, not
    # through a precomputed composed map
    res = fr.construct_counterexample(_zero_h, 0.5)
    assert res.interior_residual <= 1e-11


def test_criterion_10_passes_away_from_the_battery_eps():
    # eps = 0.6 at the default 513 fit nodes, the benchmark's nonlocal case;
    # the loop keeps M = 8 here, whose roots pass the 1e-4 boundary gate
    rec = verify.criterion_10(eps=0.6)
    assert rec.status == verify.PASS
    assert rec.details["outcome"] == "roots"
    assert 0.6 / 11.0 <= rec.details["delta1"] <= 2.4 / 11.0


def test_counterexample_stats_record_m_trail():
    res = fr.construct_counterexample(_zero_h, 0.5)
    trail = res.stats["trail"]
    assert [t["M"] for t in trail] == [4.0, 8.0]
    assert res.M_used == 4.0
    assert trail[0]["c2_residual"] == res.c2_residual
    assert trail[0]["band_c2_residual"] == res.band_c2_residual
    assert trail[1]["c2_residual"] > 0.9 * trail[0]["c2_residual"]
    assert res.stats["tikhonov"] == 1e-8
    assert all(t["odd"] for t in trail)
    # at M = 8: the kept rank of the coupling's 256 columns (768 odd
    # exterior unknowns) stacked under 3 * 255 left rows plus the centre
    # first difference
    rank = trail[1]["rank"]
    assert rank <= 256
    assert trail[1]["qr_shape"] == (3 * 255 + 1 + rank, rank)


def test_counterexample_basis_widens_from_a_narrow_sketch(monkeypatch):
    ref = fr.construct_counterexample(_zero_h, 0.5)
    monkeypatch.setattr(fr, "_SKETCH_WIDTH", 2)
    res = fr.construct_counterexample(_zero_h, 0.5)
    for t, t_ref in zip(res.stats["trail"], ref.stats["trail"]):
        # 2 columns cannot hold a rank near 20: the width doubles until
        # the projection residual meets its bound
        assert t["sketch_width"] > t["rank"] > 2
        assert t["rank"] == t_ref["rank"]
        assert t["range_residual"] <= 10.0 * t_ref["range_residual"]
    assert res.M_used == ref.M_used
    assert abs(res.delta1 - ref.delta1) <= 1e-9
    assert abs(res.delta2 - ref.delta2) <= 1e-9


def test_counterexample_repeatable_and_leaves_global_rng_alone():
    state = np.random.get_state()
    one = fr.construct_counterexample(_zero_h, 0.5)
    two = fr.construct_counterexample(_zero_h, 0.5)
    np.testing.assert_array_equal(one.v, two.v)
    after = np.random.get_state()
    assert after[0] == state[0]
    np.testing.assert_array_equal(after[1], state[1])
    assert after[2:] == state[2:]


@pytest.mark.parametrize("fit_nodes, delta, M_used",
                         [(513, 0.21512913125522615, 8.0),
                          (1025, 0.1613464089524168, 4.0)])
def test_construct_counterexample_m_sensitive_eps(fit_nodes, delta, M_used):
    # eps = 0.6, where the M = 4 and M = 8 misfits are within 0.1% and the
    # kept M moves the roots; frozen at one BLAS thread
    res = fr.construct_counterexample(_zero_h, 0.6, fit_nodes=fit_nodes)
    assert res.M_used == M_used
    assert res.delta1 == pytest.approx(delta, rel=1e-7)
    assert res.delta2 == pytest.approx(delta, rel=1e-7)


def _dense_fit_trail(h_callable, eps, fit_nodes, s=0.5, M=4.0,
                     tikhonov=1e-8, max_M=64.0):
    """Reference fit through the full composed map P (n x k) and a stacked
    QR on [G; sqrt(weight) I] over all mirror rows, weight doubled on the
    odd half; the same masks, residuals and M loop as
    construct_counterexample.  Returns the per-M (M, c2, band) trail."""
    grid_h = 4.0 / (fit_nodes - 1)
    b = eps / 11.0
    trail, prev_res, M_cur = [], np.inf, float(M)
    while True:
        n = int(round(2.0 * M_cur / grid_h)) + 1
        op = fr.make_operator(s, M_cur, n)
        x = op.x
        m = np.abs(2 * np.arange(n) - (n - 1))
        inside = m < fit_nodes - 1
        idx_in = np.flatnonzero(inside)
        idx_un = np.flatnonzero(~inside & (m < n - 1))
        target = fr.build_h_star(h_callable, eps, x)
        target = np.where(np.abs(x) <= 2.0, target, 0.0)
        odd = np.array_equal(target, -target[::-1])
        rows = fr.operator_rows(op, idx_in)
        A_ie = rows[:, idx_un]
        if odd:
            half = idx_un.size // 2
            A_ie = A_ie[:, :half] - A_ie[:, ::-1][:, :half]
        k = np.arange(A_ie.shape[1])
        P = np.zeros((n, k.size))
        P[idx_in] = -np.linalg.solve(rows[:, idx_in], A_ie)
        P[idx_un[k], k] = 1.0
        if odd:
            P[idx_un[::-1][k], k] = -1.0
        midx = np.flatnonzero(m < fit_nodes - 2)
        r_vec = fr._c2_stack(target, midx, grid_h)
        weight = tikhonov * (2.0 if odd else 1.0)
        K = np.vstack([fr._c2_stack(P, midx, grid_h),
                       np.sqrt(weight) * np.eye(k.size)])
        Qt_rhs, R = qr_multiply(K, np.concatenate([r_vec, np.zeros(k.size)]),
                                mode="right")
        w = P @ solve_triangular(R, Qt_rhs)
        resid = fr._c2_stack(w, midx, grid_h) - r_vec
        c2_res = float(np.max(np.abs(resid)))
        ax = np.abs(x[midx])
        band = (np.abs(ax - (1.0 + 1.5 * b)) <= 0.5 * b) | \
               (np.abs(ax - (1.0 + 3.5 * b)) <= 0.5 * b)
        band_res = float(np.max(np.abs(resid[np.tile(band, 3)])))
        trail.append((M_cur, c2_res, band_res))
        if (prev_res - c2_res) < 0.1 * prev_res or 2.0 * M_cur > max_M:
            return trail
        prev_res = c2_res
        M_cur *= 2.0


@pytest.mark.parametrize("fit_nodes", [129, 257])
@pytest.mark.parametrize("h", [_zero_h, lambda x: 1.0 - x ** 2],
                         ids=["zero", "one-minus-x2"])
def test_range_fit_matches_dense_fit(h, fit_nodes):
    ref = _dense_fit_trail(h, 0.5, fit_nodes)
    try:
        res = fr.construct_counterexample(h, 0.5, fit_nodes=fit_nodes)
        stats = res.stats
        assert res.M_used == min(ref, key=lambda t: t[1])[0]
    except fr.NoRootError as err:
        stats = err.stats
    got = [(t["M"], t["c2_residual"], t["band_c2_residual"])
           for t in stats["trail"]]
    assert [t[0] for t in got] == [t[0] for t in ref]
    for (_, c2, band), (_, ref_c2, ref_band) in zip(got, ref):
        assert c2 == pytest.approx(ref_c2, rel=1e-9)
        assert band == pytest.approx(ref_band, rel=1e-9)


_DELTAS_SCRIPT = (
    "import numpy as np\n"
    "from cylreact import fractional1d as fr\n"
    "res = fr.construct_counterexample(lambda x: np.zeros_like(x), 0.5)\n"
    "print(repr(res.delta1), repr(res.delta2))\n")


def _deltas_with_threads(threads: int) -> list[float]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fr.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    env = {**os.environ, "PYTHONPATH": path,
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)}
    out = subprocess.run([sys.executable, "-c", _DELTAS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=600)
    return [float(t) for t in out.stdout.split()]


def test_construct_counterexample_independent_of_blas_threads():
    # the roots must not move with the BLAS thread count: a solve whose
    # rounding is amplified by a squared condition number would fail here
    one, two = _deltas_with_threads(1), _deltas_with_threads(2)
    assert two == pytest.approx(one, rel=1e-6)


def test_construct_counterexample_coarse_grid_no_root():
    # the 257-node fit finds no sign change: the error carries the
    # diagnostic residuals, and the band misfit is far above the level at
    # which the band slopes would force a root
    with pytest.raises(fr.NoRootError) as exc:
        fr.construct_counterexample(_zero_h, 0.5, fit_nodes=257)
    err = exc.value
    assert err.band_c2_residual == pytest.approx(1906.445008270039, rel=1e-6)
    assert err.band_c2_residual > 1.0
    assert err.c2_residual >= err.band_c2_residual


def test_construct_counterexample_validation():
    with pytest.raises(ValueError):
        fr.construct_counterexample(_zero_h, 0.0)
    with pytest.raises(ValueError):
        fr.construct_counterexample(_zero_h, 1.5)


# ---------------------------------------------------------------------------
# spectral-vs-integral operator distinctness


def _bump_function(basis):
    c = np.zeros(basis.K)
    c[1:9] = np.exp(-0.5 * np.arange(1, 9))
    return spectral.SpectralFunction(basis, c)


def test_compare_operators_order_one_and_stable():
    dom = DomainSpec.interval(0.0, np.pi)
    basis = spectral.neumann_basis(dom, 32)
    w = _bump_function(basis)
    d1 = fr.compare_operators(dom, w, 0.5)
    d2 = fr.compare_operators(dom, w, 0.5, op_nodes=4097)
    assert d1 == pytest.approx(10.106030031696513, rel=1e-9)
    assert d2 == pytest.approx(10.153982859716093, rel=1e-9)
    # the gap is order one and survives refinement: the operators are
    # genuinely different, not discretizations of the same map
    assert d1 > 1.0
    assert abs(d2 - d1) / d1 < 0.01


def test_compare_operators_validation():
    dom = DomainSpec.rectangle(0.0, np.pi, 0.0, np.pi)
    basis = spectral.neumann_basis(dom, 8)
    w = spectral.SpectralFunction(basis, np.zeros(8))
    with pytest.raises(ValueError):
        fr.compare_operators(dom, w, 0.5)
    idom = DomainSpec.interval(0.0, np.pi)
    ibasis = spectral.neumann_basis(idom, 8)
    iw = spectral.SpectralFunction(ibasis, np.zeros(8))
    with pytest.raises(ValueError):
        fr.compare_operators(DomainSpec.interval(0.0, 1.0), iw, 0.5)


# ---------------------------------------------------------------------------
# memory: no dense row block of the operator


def _traced_peak_mib(fn):
    """tracemalloc peak of fn() in MiB, after one warm call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_compare_operators_peak_memory():
    # a dense block of the compared rows would be 1,843 x 4,097 (58 MiB)
    dom = DomainSpec.interval(0.0, np.pi)
    w = _bump_function(spectral.neumann_basis(dom, 32))
    peak = _traced_peak_mib(
        lambda: fr.compare_operators(dom, w, 0.5, op_nodes=4097))
    assert peak <= 2.0


def test_construct_counterexample_peak_memory():
    # gathering H and A from dense operator rows peaked at 36 MiB
    peak = _traced_peak_mib(
        lambda: fr.construct_counterexample(_zero_h, eps=0.5, fit_nodes=1025))
    assert peak <= 28.0
