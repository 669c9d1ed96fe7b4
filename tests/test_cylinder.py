"""Grids, quadrature weights, and discrete gradients on the half-cylinder."""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from cylreact.cylinder import (
    CylinderField,
    DomainSpec,
    Region,
    build_grid,
    field_to_csv,
    gradient,
    integrate,
    pencil_modes,
    weighted_y_weights,
    _trapezoid_weights,
)

PI = np.pi


# -- reference constructions of the 1D differences ----------------------------

def _diff_matrix_1d(x):
    """The pointwise difference, row by row: three-point one-sided boundary
    rows, centered interior rows with no stored centre where the two
    spacings agree to round-off."""
    n = x.size
    roundoff = 8.0 * np.spacing(np.max(np.abs(x)))
    rows, cols, vals = [], [], []
    h1, h2 = x[1] - x[0], x[2] - x[1]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-(2 * h1 + h2) / (h1 * (h1 + h2)),
             (h1 + h2) / (h1 * h2),
             -h1 / (h2 * (h1 + h2))]
    for i in range(1, n - 1):
        hd = x[i] - x[i - 1]
        hs = x[i + 1] - x[i]
        if abs(hs - hd) <= roundoff:
            rows += [i, i]
            cols += [i - 1, i + 1]
            vals += [-1.0 / (hs + hd), 1.0 / (hs + hd)]
        else:
            den = hs * hd * (hd + hs)
            rows += [i, i, i]
            cols += [i - 1, i, i + 1]
            vals += [-hs * hs / den, (hs * hs - hd * hd) / den, hd * hd / den]
    hn, hm = x[-1] - x[-2], x[-2] - x[-3]
    rows += [n - 1, n - 1, n - 1]
    cols += [n - 1, n - 2, n - 3]
    vals += [(2 * hn + hm) / (hn * (hn + hm)),
             -(hn + hm) / (hn * hm),
             hn / (hm * (hn + hm))]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _pairing_diff_matrix_1d(x):
    """The pairing difference: the pointwise one with two-point boundary
    rows, edited in LIL format."""
    d = _diff_matrix_1d(x).tolil()
    n = x.size
    d.rows[0], d.data[0] = [0, 1], [-1.0 / (x[1] - x[0]), 1.0 / (x[1] - x[0])]
    d.rows[n - 1], d.data[n - 1] = (
        [n - 2, n - 1],
        [-1.0 / (x[-1] - x[-2]), 1.0 / (x[-1] - x[-2])],
    )
    return d.tocsr()


def _dense_1d(grid, axis, pairing):
    """The axis's 1D difference as a dense matrix, read off its stencil
    table: T[a + 2, k] = D[k, k + a]."""
    T = grid.stencil_table(axis, pairing)
    n = T.shape[1]
    return sum(np.diag(T[a + 2, max(0, -a):n - max(0, a)], a)
               for a in range(-2, 3))


def _interval_grid(nx=17, ny=17, y_max=2.0, grading=0.0):
    return build_grid(DomainSpec.interval(0.0, PI), nx=nx, ny=ny,
                      y_max=y_max, grading=grading)


def test_domain_kinds():
    assert not DomainSpec.interval(0.0, 1.0).is_rectangle
    assert DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0).is_rectangle
    assert DomainSpec.interval(0.0, 1.0).ndim == 1
    assert DomainSpec.rectangle(0.0, 1.0, 0.0, 2.0).ndim == 2


def test_grid_shape_and_masks():
    g = _interval_grid(nx=9, ny=13)
    assert g.shape == (9, 13)
    assert g.n_nodes == 9 * 13
    assert g.top_mask().sum() == 9


def test_rectangle_grid_shape():
    g = build_grid(DomainSpec.rectangle(0.0, PI, 0.0, PI),
                   nx=7, ny=5, y_max=1.0, nz=9)
    assert g.shape == (7, 9, 5)


def test_bulk_weights_integrate_constant():
    g = _interval_grid(nx=33, ny=33, y_max=2.0)
    w = g.bulk_weights(0.0)
    assert float(w.sum()) == pytest.approx(PI * 2.0, rel=1e-12)


def test_weighted_bulk_weights_power():
    # integral of y^theta over the truncated cylinder
    theta = 0.5
    g = _interval_grid(nx=17, ny=257, y_max=1.0)
    w = g.bulk_weights(theta)
    exact = PI * (1.0 / (theta + 1.0))
    assert float(w.sum()) == pytest.approx(exact, rel=2e-3)


def test_bottom_weights_integrate_cross_section():
    g = _interval_grid(nx=65, ny=9)
    assert float(g.bottom_weights().sum()) == pytest.approx(PI, rel=1e-12)


def test_gradient_exact_on_affine():
    g = _interval_grid(nx=11, ny=11)
    X, Y = g.coordinate_arrays()
    u = CylinderField(g, 2.0 * X - 3.0 * Y + 1.0)
    gx, gy = gradient(u)
    assert np.allclose(gx, 2.0, atol=1e-12)
    assert np.allclose(gy, -3.0, atol=1e-12)


def test_gradient_second_order_interior_and_boundary():
    errs = []
    for n in (17, 33, 65):
        g = _interval_grid(nx=n, ny=n)
        X, Y = g.coordinate_arrays()
        u = CylinderField(g, np.sin(X) * np.exp(-Y))
        gx, _ = gradient(u)
        errs.append(float(np.max(np.abs(gx - np.cos(X) * np.exp(-Y)))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8)


def test_pairing_summation_by_parts():
    # pairing derivative D and weights w satisfy (Du, v)_w + (u, Dv)_w
    # = boundary product exactly on uniform grids
    g = _interval_grid(nx=23, ny=9)
    D = _dense_1d(g, 0, pairing=True)
    w = g.axis_weights(0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(23)
    v = rng.standard_normal(23)
    lhs = float((D @ u) @ (w * v) + (w * u) @ (D @ v))
    boundary = u[-1] * v[-1] - u[0] * v[0]
    assert lhs == pytest.approx(boundary, abs=1e-12)


def _three_point(x):
    """Dense first-derivative matrix with every interior row's three
    weights, the centre (hs^2 - hd^2) / den included."""
    n = x.size
    D = _diff_matrix_1d(x).toarray()
    for i in range(1, n - 1):
        hd, hs = x[i] - x[i - 1], x[i + 1] - x[i]
        den = hs * hd * (hd + hs)
        D[i, i - 1:i + 2] = [-hs * hs / den, (hs * hs - hd * hd) / den,
                             hd * hd / den]
    return D


_SPARSITY_GRIDS = {
    "interval-129": lambda: build_grid(DomainSpec.interval(0.0, PI),
                                       nx=129, ny=129, y_max=8.0),
    "interval-257": lambda: build_grid(DomainSpec.interval(0.0, 2 * PI),
                                       nx=257, ny=257, y_max=8.0),
    "rectangle": lambda: build_grid(DomainSpec.rectangle(-1.0, 2.5, 0.1, 3.7),
                                    nx=33, ny=17, y_max=3.0, nz=65),
    "graded": lambda: _interval_grid(nx=65, ny=65, grading=0.5),
}


@pytest.mark.parametrize("name", sorted(_SPARSITY_GRIDS))
@pytest.mark.parametrize("pairing", [pytest.param(False, id="diff_1d"),
                                     pytest.param(True, id="pairing_diff_1d")])
def test_interior_rows_store_the_stencil(name, pairing):
    # on a uniform axis the centre weight is zero and is not stored, and
    # the two outer weights cancel on constants; a graded y axis keeps it
    g = _SPARSITY_GRIDS[name]()
    ops = g.pairing_gradient_operators() if pairing else g.gradient_operators()
    for axis, G in enumerate(ops):
        uniform = axis < g.n_components - 1 or g.grading == 0.0
        counts = np.moveaxis(np.diff(G.indptr).reshape(g.shape), axis, 0)
        assert np.all(counts[1:-1] == (2 if uniform else 3)), axis
        if uniform:
            ones = (G @ np.ones(g.n_nodes)).reshape(g.shape)
            assert np.all(np.moveaxis(ones, axis, 0)[1:-1] == 0.0)


@pytest.mark.parametrize("name", sorted(_SPARSITY_GRIDS))
def test_operators_match_the_three_point_formula(name):
    # the dropped centre weights are round-off: each interior row agrees
    # with the three-weight formula to 1e-13 of its terms' magnitude
    g = _SPARSITY_GRIDS[name]()
    for axis, x in enumerate(g.axes):
        R = _three_point(x)
        f = np.sin(1.3 * x) + 0.5 * x
        scale = (np.abs(R) @ np.abs(f))[1:-1]
        for pairing in (False, True):
            err = ((_dense_1d(g, axis, pairing) @ f) - R @ f)[1:-1]
            assert np.all(np.abs(err) <= 1e-13 * scale)


def test_graded_grid_refines_toward_bottom():
    g = _interval_grid(ny=33, grading=0.5)
    y = g.coordinate_arrays()[-1][0]
    dy = np.diff(y)
    assert dy[0] < dy[-1]
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(g.y_max)


def test_trace_bottom_and_integrate():
    g = _interval_grid(nx=33, ny=17)
    X, Y = g.coordinate_arrays()
    u = CylinderField(g, np.cos(X) ** 2 * np.exp(-Y))
    tr = u.values[..., 0]
    assert tr.shape == (33,)
    assert np.allclose(tr, np.cos(g.coordinate_arrays()[0][:, 0]) ** 2)
    val = integrate(tr, Region.BOTTOM, g)
    assert val == pytest.approx(PI / 2.0, rel=1e-10)


def test_field_to_csv_round_trip(tmp_path):
    g = _interval_grid(nx=5, ny=4)
    X, Y = g.coordinate_arrays()
    u = CylinderField(g, X + Y)
    path = tmp_path / "field.csv"
    field_to_csv(u, str(path))
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (20, 3)
    assert np.allclose(data[:, 0] + data[:, 1], data[:, 2])


def test_build_grid_validates_counts():
    with pytest.raises(ValueError):
        build_grid(DomainSpec.interval(0.0, 1.0), nx=2, ny=9, y_max=1.0)
    with pytest.raises(ValueError):
        build_grid(DomainSpec.interval(0.0, 1.0), nx=9, ny=9, y_max=-1.0)


@settings(deadline=None, max_examples=40)
@given(nx=st.integers(5, 40), ny=st.integers(5, 40),
       y_max=st.floats(0.5, 10.0))
def test_weights_positive_and_consistent(nx, ny, y_max):
    g = build_grid(DomainSpec.interval(0.0, PI), nx=nx, ny=ny, y_max=y_max)
    assert np.all(g.bulk_weights(0.0) > 0.0)
    assert np.all(g.bottom_weights() > 0.0)
    assert float(g.bulk_weights(0.0).sum()) == pytest.approx(
        PI * y_max, rel=1e-10)


@settings(deadline=None, max_examples=25)
@given(grading=st.floats(0.0, 1.5), ny=st.integers(6, 50))
def test_graded_coordinates_monotone(grading, ny):
    g = build_grid(DomainSpec.interval(0.0, 1.0), nx=5, ny=ny,
                   y_max=3.0, grading=grading)
    y = g.coordinate_arrays()[-1][0]
    assert np.all(np.diff(y) > 0.0)
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(3.0)


def _assert_same_csr(A, B):
    assert A.format == B.format == "csr"
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


def _explicit_kron(g, diff_1d):
    """One Kronecker product per axis of the reference 1D difference in
    that slot and identities elsewhere."""
    eye = [sp.identity(a.size, format="csr") for a in g.axes]
    return [reduce(lambda A, B: sp.kron(A, B, format="csr"),
                   eye[:k] + [diff_1d(x)] + eye[k + 1:])
            for k, x in enumerate(g.axes)]


@pytest.mark.parametrize("diff_1d, method", [
    (_diff_matrix_1d, "gradient_operators"),
    (_pairing_diff_matrix_1d, "pairing_gradient_operators"),
])
def test_rectangle_operators_match_explicit_kron(diff_1d, method):
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, -2.0, 1.0), nx=5, nz=4,
                   ny=6, y_max=2.0, grading=1.0)
    x, z, y = g.x_nodes, g.z_nodes, g.y_nodes
    Ix = sp.identity(x.size, format="csr")
    Iz = sp.identity(z.size, format="csr")
    Iy = sp.identity(y.size, format="csr")
    reference = [
        sp.kron(diff_1d(x), sp.kron(Iz, Iy), format="csr"),
        sp.kron(Ix, sp.kron(diff_1d(z), Iy), format="csr"),
        sp.kron(sp.kron(Ix, Iz), diff_1d(y), format="csr"),
    ]
    ops = getattr(g, method)()
    assert len(ops) == 3
    for G, R in zip(ops, reference):
        _assert_same_csr(G, R)


_KRON_GRIDS = {
    "graded-129": lambda: _interval_grid(nx=129, ny=129, grading=0.5),
    "flat-257": _SPARSITY_GRIDS["interval-257"],
    "graded-rectangle": lambda: build_grid(
        DomainSpec.rectangle(-1.0, 2.5, 0.1, 3.7), nx=33, ny=17, y_max=3.0,
        nz=65, grading=0.7),
    "graded-rectangle-small": lambda: build_grid(
        DomainSpec.rectangle(0.0, PI, 0.0, 2 * PI), nx=9, ny=11, y_max=2.0,
        nz=7, grading=1.0),
}


@pytest.mark.parametrize("name", sorted(_KRON_GRIDS))
def test_flat_operators_match_explicit_kron(name):
    # the operators built from the stencil tables store the same CSR
    # arrays, dtypes included, as the Kronecker products of the row loops
    g = _KRON_GRIDS[name]()
    for diff_1d, ops in ((_diff_matrix_1d, g.gradient_operators()),
                         (_pairing_diff_matrix_1d,
                          g.pairing_gradient_operators())):
        for G, R in zip(ops, _explicit_kron(g, diff_1d)):
            _assert_same_csr(G, R)


@pytest.mark.parametrize("grading", [0.0, 0.5], ids=["uniform", "graded"])
def test_gram_band_matches_the_sparse_product(grading):
    # the band of D^T diag(m) D for random positive m, bit for bit against
    # scipy's product of the row-loop pairing difference
    g = _interval_grid(nx=9, ny=41, grading=grading)
    m = np.random.default_rng(6).uniform(0.1, 3.0, g.ny)
    D = _pairing_diff_matrix_1d(g.y_nodes)
    L = sp.tril(D.T @ sp.diags(m) @ D).tocoo()
    ref = np.zeros((3, g.ny))
    ref[L.row - L.col, L.col] = L.data
    band = g.gram_band(g.n_components - 1, m)
    assert np.array_equal(band, ref)


@pytest.mark.parametrize("theta", [0.0, -0.5])
def test_rectangle_weights_match_explicit_products(theta):
    g = build_grid(DomainSpec.rectangle(0.0, 1.0, -2.0, 1.0), nx=5, nz=4,
                   ny=6, y_max=2.0, grading=1.0)
    wx, wz = _trapezoid_weights(g.x_nodes), _trapezoid_weights(g.z_nodes)
    wy = weighted_y_weights(g.y_nodes, theta)
    bulk = wx[:, None, None] * wz[None, :, None] * wy[None, None, :]
    np.testing.assert_array_equal(g.bulk_weights(theta), bulk)
    np.testing.assert_array_equal(g.bottom_weights(),
                                  wx[:, None] * wz[None, :])


# -- lateral quadrature, CSV export, domain JSON ------------------------------

def _graded_rectangle_grid():
    return build_grid(DomainSpec.rectangle(0.0, 1.0, -2.0, 1.0), nx=9, nz=7,
                      ny=6, y_max=2.0, grading=1.0)


def test_integrate_lateral_interval_against_weight_sums():
    g = _interval_grid(nx=7, ny=11, grading=0.5)
    v = np.random.default_rng(0).standard_normal((2, g.ny))
    wy = _trapezoid_weights(g.y_nodes)
    expected = float(np.sum(wy * v[0])) + float(np.sum(wy * v[1]))
    assert integrate(v, Region.LATERAL, g) == pytest.approx(expected,
                                                            rel=1e-14)
    assert integrate(np.ones((2, g.ny)), Region.LATERAL, g) == \
        pytest.approx(2.0 * g.y_max, rel=1e-14)
    with pytest.raises(ValueError):
        integrate(np.ones((2, g.ny + 1)), Region.LATERAL, g)


def test_integrate_lateral_rectangle_against_weight_sums():
    g = _graded_rectangle_grid()
    rng = np.random.default_rng(1)
    faces = [rng.standard_normal((g.nz, g.ny)) for _ in range(2)] \
        + [rng.standard_normal((g.nx, g.ny)) for _ in range(2)]
    wx, wz = _trapezoid_weights(g.x_nodes), _trapezoid_weights(g.z_nodes)
    wy = _trapezoid_weights(g.y_nodes)
    expected = sum(float(np.sum(w[:, None] * wy[None, :] * f))
                   for w, f in zip((wz, wz, wx, wx), faces))
    assert integrate(faces, Region.LATERAL, g) == expected
    # lateral area of [0, 1] x [-2, 1] times the height
    ones = [np.ones_like(f) for f in faces]
    assert integrate(ones, Region.LATERAL, g) == pytest.approx(
        2.0 * (3.0 + 1.0) * g.y_max, rel=1e-14)
    with pytest.raises(ValueError):
        integrate(faces[:3], Region.LATERAL, g)
    with pytest.raises(ValueError):
        integrate(faces[2:] + faces[:2], Region.LATERAL, g)


def _row_loop_csv(u, path):
    """Per-node repr loop, the reference for field_to_csv's bytes."""
    import csv
    g = u.grid
    coords = [c.ravel() for c in g.coordinate_arrays()]
    header = ["x", "z", "y"] if g.domain.is_rectangle else ["x", "y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["value"])
        flat = u.values.ravel()
        for i in range(flat.size):
            writer.writerow([repr(float(c[i])) for c in coords]
                            + [repr(float(flat[i]))])


@pytest.mark.parametrize("grid_factory", [
    lambda: _interval_grid(nx=9, ny=7, grading=0.7),
    _graded_rectangle_grid,
], ids=["interval", "rectangle"])
def test_field_to_csv_bytes_match_row_loop(tmp_path, grid_factory):
    g = grid_factory()
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-20, 20, g.shape)
    vals.flat[0] = -0.0
    u = CylinderField(g, vals)
    field_to_csv(u, str(tmp_path / "a.csv"))
    _row_loop_csv(u, str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_DOMAIN_SECTIONS = {
    DomainSpec.interval(-1.0, 2.5):
        {"kind": "interval", "x_min": -1.0, "x_max": 2.5},
    DomainSpec.rectangle(0.0, PI, -2.0, 1.0):
        {"kind": "rectangle", "x_min": 0.0, "x_max": PI, "z_min": -2.0,
         "z_max": 1.0},
}


@pytest.mark.parametrize("domain", list(_DOMAIN_SECTIONS))
def test_domain_spec_json_round_trip(domain):
    again = DomainSpec.from_json_dict(_DOMAIN_SECTIONS[domain])
    assert again == domain
    assert again.bounds == domain.bounds
    assert len(domain.bounds) == domain.ndim


@pytest.mark.parametrize("data", [
    {"kind": "disk", "x_min": 0, "x_max": 1},
    {"x_min": 0, "x_max": 1},
    {"kind": "rectangle", "x_min": 0, "x_max": 1, "z_min": 0},
    {"kind": "interval", "x_min": 1, "x_max": 0},
    {"kind": "interval", "x_min": "a", "x_max": 1},
    {"kind": "interval", "x_min": None, "x_max": 1},
    {"kind": "interval", "x_min": 0, "x_max": "3"},
    {"kind": "interval", "x_min": 0, "x_max": float("inf")},
    {"kind": "rectangle", "x_min": 0, "x_max": 1, "z_min": float("-inf"),
     "z_max": 1},
    {"kind": "interval", "x_min": 0, "x_max": 10 ** 400},
    {"kind": "interval", "x_min": 0, "x_max": 1, "z_min": 0, "z_max": 1},
    {"kind": "rectangle", "x_min": 0, "x_max": 1, "z_min": 0, "z_max": 1,
     "y_max": 2},
])
def test_domain_spec_from_json_dict_rejects(data):
    with pytest.raises(ValueError):
        DomainSpec.from_json_dict(data)


@pytest.mark.parametrize("axis, theta", [(0, 0.0), (1, -0.5)],
                         ids=["x", "graded-y"])
def test_pencil_modes_match_the_dense_generalized_eigensolve(axis, theta):
    grid = _interval_grid(nx=33, ny=41, grading=0.5)
    D = _pairing_diff_matrix_1d(grid.axes[axis])
    w = grid.axis_weights(0) if axis == 0 else grid.y_weights(theta)
    K = D.T @ sp.diags(w) @ D + sp.diags(np.linspace(0.0, 1.0, w.size))
    band = grid.gram_band(axis, w)
    band[0] += np.linspace(0.0, 1.0, w.size)
    lam, phi = pencil_modes(band, w)
    ref = scipy.linalg.eigh(K.toarray(), np.diag(w), eigvals_only=True)
    scale = np.abs(ref).max()
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - ref).max() <= 1e-12 * scale
    assert np.abs(phi.T @ (w[:, None] * phi) - np.eye(w.size)).max() <= 1e-12
    assert (np.abs(K @ phi - w[:, None] * phi * lam).max()
            <= 1e-12 * scale * np.abs(phi).max())
