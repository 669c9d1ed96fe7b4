"""Tensor grids on truncated half-cylinders Omega x (0, Y_max).

Omega is an interval or an axis-aligned rectangle.  The y-direction may be
graded toward the bottom edge,

    y_j = Y_max * (j / (ny - 1)) ** (1 + grading),

which concentrates nodes where the power weight y**theta is singular.  Nodal
values are stored as shaped arrays (nx, ny) or (nx, nz, ny); raveling in C
order yields the lexicographic (x[, z], y) node order used for flat vectors,
CSV rows and sparse operators.

Derivatives are second-order finite differences (centered at interior nodes,
one-sided at boundary nodes, both on nonuniform spacings).  On a uniform
axis (x and z always, y at grading 0) the centered stencil's centre weight
is zero and is not stored, so every interior row holds two entries and the
sparse operators carry the stencil's own sparsity.  Quadrature is the
tensor trapezoid rule; integrals weighted by a singular power y**theta use
exact moments of the weight against the piecewise-linear hat functions, so
the first cell is integrated analytically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np
import scipy.linalg
import scipy.sparse as sp


class Region(Enum):
    BULK = "bulk"
    BOTTOM = "bottom"
    LATERAL = "lateral"


@dataclass(frozen=True)
class DomainSpec:
    """Cross-section Omega: interval (x_min, x_max) or rectangle
    (x_min, x_max) x (z_min, z_max)."""

    x_min: float
    x_max: float
    z_min: float | None = None
    z_max: float | None = None

    def __post_init__(self):
        ends = [b for b in (self.x_min, self.x_max, self.z_min, self.z_max)
                if b is not None]
        if not np.all(np.isfinite(ends)):
            raise ValueError(f"bounds must be finite numbers, got {ends}")
        if not self.x_max > self.x_min:
            raise ValueError("need x_max > x_min")
        if (self.z_min is None) != (self.z_max is None):
            raise ValueError("rectangle needs both z bounds")
        if self.z_min is not None and not self.z_max > self.z_min:
            raise ValueError("need z_max > z_min")

    @classmethod
    def interval(cls, x_min: float, x_max: float) -> "DomainSpec":
        return cls(x_min, x_max)

    @classmethod
    def rectangle(cls, x_min, x_max, z_min, z_max) -> "DomainSpec":
        return cls(x_min, x_max, z_min, z_max)

    @property
    def is_rectangle(self) -> bool:
        return self.z_min is not None

    @property
    def ndim(self) -> int:
        """Cross-section dimension n (the cylinder lives in n+1)."""
        return 2 if self.is_rectangle else 1

    @property
    def bounds(self) -> tuple:
        """((x_min, x_max),) or ((x_min, x_max), (z_min, z_max)), in the
        axis order of the cross-section."""
        return ((self.x_min, self.x_max), (self.z_min, self.z_max))[:self.ndim]

    @classmethod
    def from_json_dict(cls, data: dict) -> "DomainSpec":
        """The domain of a config section {"kind": "interval" | "rectangle",
        "x_min", "x_max"[, "z_min", "z_max"]}; ValueError on a bad kind, a
        missing or unknown key, or a bound that is not a finite JSON number
        (strings and booleans included)."""
        if data.get("kind") not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        names = _AXIS_NAMES[:_KINDS.index(data["kind"]) + 1]
        keys = [f"{a}_{end}" for a in names for end in ("min", "max")]
        missing = set(keys) - set(data)
        if missing:
            raise ValueError(f"missing {sorted(missing)}")
        unknown = set(data) - set(keys) - {"kind"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        values = [data[k] for k in keys]
        try:
            if any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in values):
                raise TypeError
            bounds = [float(v) for v in values]
        except (TypeError, OverflowError):
            raise ValueError(
                f"bounds must be finite numbers, got {values}") from None
        return cls(*bounds)


_KINDS = ("interval", "rectangle")     # indexed by cross-section dimension - 1
_AXIS_NAMES = ("x", "z")


def _graded_nodes(y_max: float, ny: int, grading: float) -> np.ndarray:
    s = np.arange(ny, dtype=float) / (ny - 1)
    y = y_max * s ** (1.0 + grading)
    y[0] = 0.0
    y[-1] = y_max
    return y


def _diff_matrix_1d(x: np.ndarray) -> sp.csr_matrix:
    """Second-order first-derivative matrix on a nonuniform 1D grid.

    An interior row's centre weight (hs - hd) / (hs * hd) vanishes where
    the two spacings are equal.  There the row is the uniform stencil
    (u[i+1] - u[i-1]) / (hs + hd): two weights of opposite sign, which
    annihilate constants exactly, and no stored centre.  Spacings count as
    equal when they differ by no more than the coordinates' round-off: on
    the axes ``np.linspace`` and ``_graded_nodes`` (grading 0) build, each
    node lies within 2 ulps of the axis's largest |x| from an exact
    arithmetic progression, so hs - hd, a second difference of three
    nodes, is within 8.  A stored round-off centre weight would couple each
    node to its neighbours in Gᵀ W G: the Newton LU at 257^2 filled to
    8.57M entries with them and fills to 4.56M without.
    """
    n = x.size
    roundoff = 8.0 * np.spacing(np.max(np.abs(x)))
    rows, cols, vals = [], [], []
    # one-sided at the left end
    h1, h2 = x[1] - x[0], x[2] - x[1]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-(2 * h1 + h2) / (h1 * (h1 + h2)),
             (h1 + h2) / (h1 * h2),
             -h1 / (h2 * (h1 + h2))]
    # centered in the interior
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
    # one-sided at the right end
    hn, hm = x[-1] - x[-2], x[-2] - x[-3]
    rows += [n - 1, n - 1, n - 1]
    cols += [n - 1, n - 2, n - 3]
    vals += [(2 * hn + hm) / (hn * (hn + hm)),
             -(hn + hm) / (hn * hm),
             hn / (hm * (hn + hm))]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _pairing_diff_matrix_1d(x: np.ndarray) -> sp.csr_matrix:
    """First-derivative matrix used inside bilinear pairings.

    Interior rows are the same second-order centered stencils as
    ``_diff_matrix_1d``; the two boundary rows are the two-point one-sided
    differences.  With trapezoid weights this pair satisfies the exact
    summation-by-parts identity W·D + Dᵀ·W = diag(-1, 0, ..., 0, +1) on
    uniform grids, which is what makes nodal (hat-tested) weak residuals
    second-order accurate next to flux-carrying boundaries.  A three-point
    one-sided closure cannot satisfy that identity with any diagonal weight,
    so it is kept only in the pointwise ``gradient`` operator.
    """
    d = _diff_matrix_1d(x).tolil()
    n = x.size
    d.rows[0], d.data[0] = [0, 1], [-1.0 / (x[1] - x[0]), 1.0 / (x[1] - x[0])]
    d.rows[n - 1], d.data[n - 1] = (
        [n - 2, n - 1],
        [-1.0 / (x[-1] - x[-2]), 1.0 / (x[-1] - x[-2])],
    )
    return d.tocsr()


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _outer(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor (outer) product of 1D weight vectors, a new array."""
    return reduce(np.multiply.outer, factors[1:], factors[0].copy())


def pencil_modes(K: sp.spmatrix, w: np.ndarray) -> tuple:
    """(lam, phi) with K phi = diag(w) phi diag(lam) and phi^T diag(w) phi
    = I, ascending, for a symmetric banded K and positive weights w.

    eig_banded diagonalizes the banded diag(w)^{-1/2} K diag(w)^{-1/2}, and
    phi is its eigenvectors scaled back by diag(w)^{-1/2}.
    """
    s = 1.0 / np.sqrt(w)
    L = sp.tril(K).tocoo()
    band = np.zeros((int((L.row - L.col).max()) + 1, w.size))
    band[L.row - L.col, L.col] = s[L.row] * L.data * s[L.col]
    lam, U = scipy.linalg.eig_banded(band, lower=True)
    return lam, s[:, None] * U


def weighted_y_weights(y: np.ndarray, theta: float) -> np.ndarray:
    """Quadrature weights for integrals of y**theta * G(y).

    Uses exact moments of the weight against piecewise-linear hats on every
    cell, so the (possibly singular) first cell [0, y_1] is integrated
    analytically.  Reduces to the trapezoid rule at theta = 0.
    """
    if theta == 0.0:
        return _trapezoid_weights(y)
    w = np.zeros_like(y)
    a, b = y[:-1], y[1:]
    h = b - a
    m0 = (b ** (theta + 1.0) - a ** (theta + 1.0)) / (theta + 1.0)
    m1 = (b ** (theta + 2.0) - a ** (theta + 2.0)) / (theta + 2.0)
    w[:-1] += (b * m0 - m1) / h
    w[1:] += (m1 - a * m0) / h
    return w


@dataclass(eq=False)
class CylinderGrid:
    """Tensor grid with cached derivative operators and weight vectors.

    ``axes`` holds the node arrays in component order (x[, z], y); every
    shape, operator and weight below is built from that one tuple.
    """

    domain: DomainSpec
    nx: int
    ny: int
    y_max: float
    grading: float = 0.0
    nz: int | None = None
    x_nodes: np.ndarray = field(init=False, repr=False)
    z_nodes: np.ndarray | None = field(init=False, repr=False)
    y_nodes: np.ndarray = field(init=False, repr=False)
    axes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("need at least three nodes per direction")
        if not self.y_max > 0.0:
            raise ValueError("need y_max > 0")
        if self.grading < 0.0:
            raise ValueError("grading must be >= 0")
        d = self.domain
        self.x_nodes = np.linspace(d.x_min, d.x_max, self.nx)
        self.y_nodes = _graded_nodes(self.y_max, self.ny, self.grading)
        if d.is_rectangle:
            if self.nz is None:
                self.nz = self.nx
            if self.nz < 3:
                raise ValueError("need at least three nodes per direction")
            self.z_nodes = np.linspace(d.z_min, d.z_max, self.nz)
            self.axes = (self.x_nodes, self.z_nodes, self.y_nodes)
        else:
            self.nz = self.z_nodes = None
            self.axes = (self.x_nodes, self.y_nodes)
        self._cache = {}

    # -- shape bookkeeping --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_components(self) -> int:
        """Number of gradient components (x[, z], y)."""
        return len(self.axes)

    def coordinate_arrays(self) -> list[np.ndarray]:
        """Shaped coordinate fields in component order (x[, z], y)."""
        return list(np.meshgrid(*self.axes, indexing="ij"))

    def top_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[..., -1] = True
        return m

    # -- cached operators ---------------------------------------------------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def diff_1d(self, axis: int) -> sp.csr_matrix:
        return self._cached(("diff1d", axis),
                            lambda: _diff_matrix_1d(self.axes[axis]))

    def pairing_diff_1d(self, axis: int) -> sp.csr_matrix:
        return self._cached(("pdiff1d", axis),
                            lambda: _pairing_diff_matrix_1d(self.axes[axis]))

    def _tensor_gradient(self, diff) -> list[sp.csr_matrix]:
        """One Kronecker product per axis: diff(axis) in that slot,
        identities elsewhere."""
        eye = [sp.identity(a.size, format="csr") for a in self.axes]
        return [reduce(lambda A, B: sp.kron(A, B, format="csr"),
                       eye[:k] + [diff(k)] + eye[k + 1:])
                for k in range(len(self.axes))]

    def gradient_operators(self) -> list[sp.csr_matrix]:
        """Sparse flat-vector operators, one per component (x[, z], y)."""
        return self._cached("grad_ops",
                            lambda: self._tensor_gradient(self.diff_1d))

    def pairing_gradient_operators(self) -> list[sp.csr_matrix]:
        """Gradient operators for bilinear pairings (see _pairing_diff_matrix_1d)."""
        return self._cached(
            "pgrad_ops", lambda: self._tensor_gradient(self.pairing_diff_1d))

    def axis_weights(self, axis: int) -> np.ndarray:
        return self._cached(("w1d", axis),
                            lambda: _trapezoid_weights(self.axes[axis]))

    def y_weights(self, theta: float = 0.0) -> np.ndarray:
        return self._cached(("wy", float(theta)),
                            lambda: weighted_y_weights(self.y_nodes, float(theta)))

    def cross_section_modes(self, axis: int) -> tuple:
        """(lam, phi) with K phi = W phi diag(lam) and phi^T W phi = I.

        K = D^T W D is the pairing stiffness of cross-section axis ``axis``
        (D its pairing difference, W = diag of its trapezoid weights):
        the discrete Neumann eigenmodes of that axis, ascending.
        """
        def build():
            D, w = self.pairing_diff_1d(axis), self.axis_weights(axis)
            return pencil_modes(D.T @ sp.diags(w) @ D, w)
        return self._cached(("modes", axis), build)

    def _omega_weights(self) -> list[np.ndarray]:
        return [self.axis_weights(a) for a in range(len(self.axes) - 1)]

    def bulk_weights(self, theta: float = 0.0) -> np.ndarray:
        """Shaped tensor weights for bulk integrals of y**theta * G."""
        return self._cached(
            ("wbulk", float(theta)),
            lambda: _outer(self._omega_weights() + [self.y_weights(theta)]))

    def bottom_weights(self) -> np.ndarray:
        """Shaped weights over the bottom slice Omega x {0}."""
        return self._cached("wbottom",
                            lambda: _outer(self._omega_weights()))

    def face_weights(self, axis: int, theta: float = 0.0) -> np.ndarray:
        """Shaped weights over either lateral face normal to cross-section
        axis ``axis``, for integrals of y**theta * G: the other
        cross-section axes' trapezoid weights times y_weights(theta)."""
        others = [w for k, w in enumerate(self._omega_weights()) if k != axis]
        return self._cached(
            ("wface", axis, float(theta)),
            lambda: _outer(others + [self.y_weights(theta)]))

    # -- field constructors -------------------------------------------------

    def field(self, fn) -> "CylinderField":
        """Sample fn over the grid; fn takes (x, y) or (x, z, y) arrays."""
        coords = self.coordinate_arrays()
        return CylinderField(self, np.asarray(fn(*coords), dtype=float))


def build_grid(domain: DomainSpec, nx: int, ny: int, y_max: float,
               grading: float = 0.0, nz: int | None = None) -> CylinderGrid:
    return CylinderGrid(domain=domain, nx=nx, ny=ny, y_max=y_max,
                        grading=grading, nz=nz)


@dataclass(eq=False)
class CylinderField:
    """Nodal scalar field on a CylinderGrid."""

    grid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


def gradient(u: CylinderField) -> list[np.ndarray]:
    """All first-derivative components of u, shaped like u.values.

    Component order is (x[, z], y); interior stencils are centered, boundary
    stencils one-sided, all second order on the (possibly graded) spacings.
    """
    g = u.grid
    flat = u.values.ravel()
    return [(G @ flat).reshape(g.shape) for G in g.gradient_operators()]


def integrate(values, region: Region, grid: CylinderGrid) -> float:
    """Trapezoid quadrature over a region of the truncated cylinder.

    BULK expects the full grid shape, BOTTOM the Omega-slice shape.  LATERAL
    expects one array per lateral face, ordered by cross-section axis and
    low side first: (x_min, x_max) on an interval, (x_min, x_max, z_min,
    z_max) on a rectangle.  The faces normal to axis k are shaped like
    ``grid.face_weights(k)``: (ny,) on an interval, so a (2, ny) array
    serves, and (nz, ny) or (nx, ny) on a rectangle.
    """
    if region is Region.BULK:
        pieces = [(values, grid.bulk_weights(0.0))]
    elif region is Region.BOTTOM:
        pieces = [(values, grid.bottom_weights())]
    elif region is Region.LATERAL:
        axes = [k for k in range(grid.n_components - 1) for _side in (0, -1)]
        if len(values) != len(axes):
            raise ValueError(f"lateral values: {len(axes)} face arrays, "
                             "low then high side per cross-section axis")
        pieces = [(v, grid.face_weights(k)) for v, k in zip(values, axes)]
    else:
        raise ValueError(f"unknown region {region!r}")
    total = 0.0
    for v, w in pieces:
        v = np.asarray(v, dtype=float)
        if v.shape != w.shape:
            raise ValueError(f"{region.value} values shaped {v.shape}, "
                             f"expected {w.shape}")
        total += float(np.sum(w * v))
    return total


def write_csv(path, header: list, rows) -> None:
    """Header line, then one line per row; floats are written by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def field_to_csv(u: CylinderField, path) -> None:
    """One row per node, coordinates then value, lexicographic order."""
    g = u.grid
    cols = [c.ravel() for c in g.coordinate_arrays()] + [u.values.ravel()]
    header = list(_AXIS_NAMES[:g.n_components - 1]) + ["y", "value"]
    write_csv(path, header, np.column_stack(cols).tolist())
