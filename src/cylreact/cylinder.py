"""Tensor grids on truncated half-cylinders Omega x (0, Y_max).

Omega is an interval or an axis-aligned rectangle.  The y-direction may be
graded toward the bottom edge,

    y_j = Y_max * (j / (ny - 1)) ** (1 + grading),

which concentrates nodes where the power weight y**theta is singular.  Nodal
values are stored as shaped arrays (nx, ny) or (nx, nz, ny); raveling in C
order yields the lexicographic (x[, z], y) node order used for flat vectors,
CSV rows and sparse operators.

Derivatives are second-order finite differences (centered at interior nodes,
one-sided at boundary nodes, both on nonuniform spacings), read from one
cached stencil table per axis by the flat operators, the energy layout and
the banded Gram matrices.  On a uniform axis (x and z always, y at grading
0) the centered stencil's centre weight is zero and is not stored, so
every interior row holds two entries and the sparse operators carry the
stencil's own sparsity.  Quadrature is the
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


def _stencil_rows(x: np.ndarray, pairing: bool) -> np.ndarray:
    """(5, n) table T of the second-order first-derivative matrix D on a
    nonuniform 1D grid, T[a + 2, k] = D[k, k + a] (0: no entry).

    The boundary rows are three-point one-sided, or two-point with
    ``pairing``.  With trapezoid weights the pairing variant satisfies the
    exact summation-by-parts identity W·D + Dᵀ·W = diag(-1, 0, ..., 0, +1)
    on uniform grids, which makes nodal (hat-tested) weak residuals
    second-order accurate next to flux-carrying boundaries.  No diagonal
    weight gives a three-point closure that identity, so it is kept only
    in the pointwise ``gradient`` operator.

    An interior row's centre weight (hs - hd) / (hs * hd) vanishes where
    the two spacings are equal.  There the row is the uniform stencil
    (u[i+1] - u[i-1]) / (hs + hd): two weights of opposite sign, which
    annihilate constants exactly, and a zero centre.  Spacings count as
    equal when they differ by no more than the coordinates' round-off: on
    the axes ``np.linspace`` and ``_graded_nodes`` (grading 0) build, each
    node lies within 2 ulps of the axis's largest |x| from an exact
    arithmetic progression, so hs - hd, a second difference of three
    nodes, is within 8.  Stored round-off centre weights would add round-off
    entries to Gᵀ W G: at 257², 401,691 nonzeros against 330,245.
    """
    T = np.zeros((5, x.size))
    h = np.diff(x)
    hd, hs = h[:-1], h[1:]
    uniform = np.abs(hs - hd) <= 8.0 * np.spacing(np.max(np.abs(x)))
    den = hs * hd * (hd + hs)
    T[1, 1:-1] = np.where(uniform, -1.0 / (hs + hd), -hs * hs / den)
    T[2, 1:-1] = np.where(uniform, 0.0, (hs * hs - hd * hd) / den)
    T[3, 1:-1] = np.where(uniform, 1.0 / (hs + hd), hd * hd / den)
    if pairing:
        T[2:4, 0] = -1.0 / h[0], 1.0 / h[0]
        T[1:3, -1] = -1.0 / h[-1], 1.0 / h[-1]
    else:
        (h1, h2), (hn, hm) = h[:2], h[:-3:-1]
        T[2:, 0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)),
                    (h1 + h2) / (h1 * h2),
                    -h1 / (h2 * (h1 + h2)))
        T[:3, -1] = (hn / (hm * (hn + hm)),
                     -(hn + hm) / (hn * hm),
                     (2 * hn + hm) / (hn * (hn + hm)))
    return T


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _outer(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor (outer) product of 1D weight vectors, a new array."""
    return reduce(np.multiply.outer, factors[1:], factors[0].copy())


def pencil_modes(band: np.ndarray, w: np.ndarray) -> tuple:
    """(lam, phi) with K phi = diag(w) phi diag(lam) and phi^T diag(w) phi
    = I, ascending, for positive weights w and a symmetric banded K given
    by its lower band, band[r, j] = K[j + r, j] (read only for j + r < n).

    eig_banded diagonalizes the banded diag(w)^{-1/2} K diag(w)^{-1/2}, and
    phi is its eigenvectors scaled back by diag(w)^{-1/2}.
    """
    s, n = 1.0 / np.sqrt(w), w.size
    scaled = np.zeros_like(band)
    for r, row in enumerate(band):
        scaled[r, :n - r] = s[r:] * row[:n - r] * s[:n - r]
    lam, U = scipy.linalg.eig_banded(scaled, lower=True)
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

    def stencil_table(self, axis: int, pairing: bool = False) -> np.ndarray:
        """The axis's (5, n) table T[a + 2, k] = D[k, k + a] of the
        pointwise or pairing first difference D (see _stencil_rows)."""
        return self._cached(("table", axis, bool(pairing)),
                            lambda: _stencil_rows(self.axes[axis], pairing))

    def _flat_gradient(self, pairing: bool) -> list[sp.csr_matrix]:
        """One CSR operator per axis, read off its stencil table T: row i
        holds T[a + 2, k] at column i + a·stride (k the node's index on the
        axis), columns ascending; zero weights are not stored."""
        n = self.n_nodes
        rows = np.arange(n)
        ops = []
        for axis, size in enumerate(self.shape):
            stride = int(np.prod(self.shape[axis + 1:]))
            T = self.stencil_table(axis, pairing).T
            k1, a1 = np.nonzero(T)          # the 1D entries, row by row
            start1 = np.searchsorted(k1, np.arange(size + 1))
            k = rows // stride % size
            counts = np.diff(start1)[k]
            indptr = np.concatenate(([0], np.cumsum(counts)))
            # entry e of row i copies 1D entry start1[k] + e - indptr[i]
            src = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - start1[k],
                                                    counts)
            indices = np.repeat(rows, counts) + ((a1 - 2) * stride)[src]
            ops.append(sp.csr_matrix((T[k1, a1][src], indices, indptr),
                                     shape=(n, n)))
        return ops

    def gradient_operators(self) -> list[sp.csr_matrix]:
        """Sparse flat-vector operators, one per component (x[, z], y)."""
        return self._cached("grad_ops", lambda: self._flat_gradient(False))

    def pairing_gradient_operators(self) -> list[sp.csr_matrix]:
        """Gradient operators for bilinear pairings (see _stencil_rows)."""
        return self._cached("pgrad_ops", lambda: self._flat_gradient(True))

    def gram_band(self, axis: int, m: np.ndarray) -> np.ndarray:
        """(3, n) lower band of K = Dᵀ diag(m) D, D the axis's pairing
        difference: band[r, j] = K[j + r, j] = sum over k ascending of
        D[k, j]·(m_k·D[k, j + r]), scipy's sparse product bit for bit."""
        lo, mid, hi = self.stencil_table(axis, pairing=True)[1:4]
        band = np.zeros((3, m.size))
        band[0] = mid * (m * mid)
        band[0, 1:] = hi[:-1] * (m[:-1] * hi[:-1]) + band[0, 1:]
        band[0, :-1] += lo[1:] * (m[1:] * lo[1:])
        band[1, :-1] = mid[:-1] * (m[:-1] * hi[:-1]) + lo[1:] * (m[1:] * mid[1:])
        band[2, :-2] = lo[1:-1] * (m[1:-1] * hi[1:-1])
        return band

    def axis_weights(self, axis: int) -> np.ndarray:
        return self._cached(("w1d", axis),
                            lambda: _trapezoid_weights(self.axes[axis]))

    def y_weights(self, theta: float = 0.0) -> np.ndarray:
        return self._cached(("wy", float(theta)),
                            lambda: weighted_y_weights(self.y_nodes, float(theta)))

    def cross_section_modes(self, axis: int) -> tuple:
        """(lam, phi) with K phi = W phi diag(lam) and phi^T W phi = I.

        K = D^T W D is the pairing stiffness of cross-section axis ``axis``
        (D its pairing difference, W = diag of its trapezoid weights; band
        gram_band(axis, w)): the discrete Neumann eigenmodes of that axis,
        ascending.
        """
        def build():
            w = self.axis_weights(axis)
            return pencil_modes(self.gram_band(axis, w), w)
        return self._cached(("modes", axis), build)

    def cross_section_spectrum(self) -> tuple:
        """(lam, phis): the eigenvalues lam_i + lam_j + ... of the
        cross-section Kronecker sum, shaped like the cross-section, and each
        axis's cross_section_modes, whose tensor products are its
        eigenvectors."""
        def build():
            lams, phis = zip(*[self.cross_section_modes(k)
                               for k in range(self.n_components - 1)])
            return reduce(np.add.outer, lams), phis
        return self._cached("spectrum", build)

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
