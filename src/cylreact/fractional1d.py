"""Integral fractional Laplacian on the line, fractional normal
derivatives, exterior-value s-harmonic solves, and the construction of a
compactly supported s-harmonic function whose inward fractional derivative
vanishes at shifted boundary points.

The operator here is the unnormalized principal-value form

    Lv(x) = pv integral (v(x) - v(y)) / |x - y|^{1+2s} dy,

discretized on a uniform grid over [-M, M] by symmetric pairing of nodes
around the target, piecewise-linear product integration against the exact
kernel moments, a Taylor-corrected singular cell, and an analytic tail
(the integrand is 2 v(x) beyond the reach of the support).  All node
weights are nonnegative and the diagonal strictly dominates, so interior
collocation systems are M-matrices: uniquely solvable and
maximum-principle preserving.

The discrete operator is symmetric Toeplitz, entry (i, j) = t[|i - j|],
so everything here reads its first column t.  The blocks that are
factored are read off t: the odd fit's blocks are Toeplitz or Hankel,
built from runs of t, and the others are gathered through an |i - j|
index matrix.  Products are taken with the whole matrix by direct
correlation of the mirrored column with the nodal vector, in O(n) memory.
No dense row block is built except by `operator_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import (hankel, lu_factor, lu_solve, qr, qr_multiply,
                          solve_triangular, svd, toeplitz)

from .geometry import _smoothstep


class Side(Enum):
    FROM_LEFT_INTERVAL = "from-left-interval"
    FROM_RIGHT_INTERVAL = "from-right-interval"


class NoRootError(RuntimeError):
    """The derivative sign change needed for the construction was not found."""

    def __init__(self, message: str, c2_residual: float,
                 band_c2_residual: float, stats: dict):
        super().__init__(message)
        self.c2_residual = c2_residual
        self.band_c2_residual = band_c2_residual
        self.stats = stats         # as CounterexampleResult.stats


@dataclass(frozen=True)
class Fractional1DOperator:
    """Principal-value quadrature of the 1+2s kernel on a uniform grid."""

    s: float
    M: float
    x: np.ndarray           # nodes, uniform on [-M, M]
    h: float
    pair_weights: np.ndarray  # omega_j for distances j*h, j = 1..J
    singular_coeff: float     # Taylor-corrected cell (0, h)
    tail_coeff: float         # analytic integral over r > 2M, times v(x)

    @property
    def n(self) -> int:
        return self.x.size


def _kernel_cell_moments(r_lo: np.ndarray, r_hi: np.ndarray, s: float):
    """(I0, I1) = integrals of r^{-1-2s} and r * r^{-1-2s} over [r_lo, r_hi]."""
    I0 = (r_lo ** (-2 * s) - r_hi ** (-2 * s)) / (2 * s)
    if abs(2 * s - 1.0) < 1e-14:
        I1 = np.log(r_hi / r_lo)
    else:
        I1 = (r_hi ** (1 - 2 * s) - r_lo ** (1 - 2 * s)) / (1 - 2 * s)
    return I0, I1


def make_operator(s: float, M: float, n: int) -> Fractional1DOperator:
    """Assemble the pairing quadrature for targets anywhere in (-M, M).

    Distances run to 2M (the farthest support point from any target) with
    one shared weight table, so the evaluation is exactly translation
    equivariant on the grid; the tail beyond 2M integrates the kernel
    against the constant 2 v(x).
    """
    if not 0.0 < s < 1.0:
        raise ValueError("need s in (0, 1)")
    if n < 8:
        raise ValueError("need at least 8 nodes")
    x = np.linspace(-M, M, n)
    x = 0.5 * (x - x[::-1])        # exactly mirror-symmetric, x[0] = -M
    h = x[1] - x[0]
    J = n - 1                      # J*h == 2M: the largest in-grid distance
    # piecewise-linear product integration over cells [j h, (j+1) h]
    j = np.arange(1, J)
    r_lo, r_hi = j * h, (j + 1) * h
    I0, I1 = _kernel_cell_moments(r_lo, r_hi, s)
    left = (r_hi * I0 - I1) / h    # weight on the cell's left node
    right = (I1 - r_lo * I0) / h   # weight on the cell's right node
    omega = np.zeros(J)
    omega[:-1] += left
    omega[1:] += right
    singular = h ** (-2 * s) / (2.0 - 2.0 * s)
    tail = 2.0 * (2.0 * M) ** (-2 * s) / (2.0 * s)
    return Fractional1DOperator(s=s, M=M, x=x, h=h, pair_weights=omega,
                                singular_coeff=singular, tail_coeff=tail)


def _pair_sums(op: Fractional1DOperator, v: np.ndarray, i: int) -> float:
    """sum_j omega_j (2 v_i - v_{i+j} - v_{i-j}), off-grid values zero."""
    n, J = op.n, op.pair_weights.size
    acc = 2.0 * v[i] * float(np.sum(op.pair_weights))
    jr = min(J, n - 1 - i)
    if jr > 0:
        acc -= float(op.pair_weights[:jr] @ v[i + 1:i + 1 + jr])
    jl = min(J, i)
    if jl > 0:
        acc -= float(op.pair_weights[:jl] @ v[i - 1::-1][:jl])
    return acc


def apply_integral_fraclap(op: Fractional1DOperator, v: np.ndarray,
                           x_target: float) -> float:
    """Pointwise pv evaluation at a grid node at least one cell inside."""
    v = np.asarray(v, dtype=float)
    if v.shape != op.x.shape:
        raise ValueError("v must be nodal on the operator grid")
    i = int(round((x_target + op.M) / op.h))
    if not (0 < i < op.n - 1) or abs(op.x[i] - x_target) > 1e-9 * max(op.M, 1.0):
        raise ValueError(
            "target must be a grid node at least one cell inside [-M, M]")
    acc = _pair_sums(op, v, i)
    acc += op.singular_coeff * (2.0 * v[i] - v[i + 1] - v[i - 1])
    acc += op.tail_coeff * v[i]
    return acc


def _toeplitz_column(op: Fractional1DOperator) -> np.ndarray:
    """First column t of the discrete operator: entry (i, j) = t[|i - j|]."""
    t = np.empty(op.n)
    t[0] = 2.0 * float(np.sum(op.pair_weights)) + 2.0 * op.singular_coeff \
        + op.tail_coeff
    t[1:] = -op.pair_weights
    t[1] -= op.singular_coeff
    return t


def _toeplitz_block(t: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Dense block of the operator at (rows, cols), gathered from t."""
    return t[np.abs(np.subtract.outer(rows, cols))]


def _run_block(t: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Dense block of the operator at a run of consecutive rows, ascending,
    and a run of consecutive columns in either direction, built from the
    entries of t on its first row and column: a Toeplitz block when the
    columns ascend, a Hankel block when they descend."""
    first_col = t[np.abs(rows - cols[0])]
    if cols[-1] > cols[0]:
        return toeplitz(first_col, t[np.abs(rows[0] - cols)])
    return hankel(first_col, t[np.abs(rows[-1] - cols)])


def _toeplitz_product(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T v for the symmetric Toeplitz T with first column t, at every node.

    Direct sums: output k of the "valid" correlation of the mirrored
    column with v is row n - 1 - k of T v.  O(n) memory, and the sums are
    dot products of length n, so no FFT round-off enters.
    """
    return np.correlate(np.concatenate([t[:0:-1], t]), v, "valid")[::-1]


def operator_rows(op: Fractional1DOperator,
                  row_indices: np.ndarray) -> np.ndarray:
    """Dense matrix rows of the discrete operator at the given node indices.

    Row i has positive diagonal 2*sum(omega) + 2*singular + tail and
    nonpositive off-diagonal entries -omega_j at i +- j (plus the singular
    correction at i +- 1): an M-matrix on any interior collocation set.
    The matrix is symmetric Toeplitz (Huang & Oberman, SINUM 2014), entry
    (i, j) = t[|i - j|], and the rows are gathered from t.  The solvers in
    this module never build these rows: they read off t only the blocks
    they factor and take products with the whole matrix by direct correlation
    of the mirrored column (_toeplitz_product).
    """
    n = op.n
    row_indices = np.asarray(row_indices, dtype=int)
    if np.any((row_indices <= 0) | (row_indices >= n - 1)):
        raise ValueError("collocation node too close to the grid edge")
    return _toeplitz_block(_toeplitz_column(op), row_indices, np.arange(n))


def fractional_normal_derivative(v, s: float, boundary_point: float,
                                 side: Side) -> float:
    """Extrapolated limit of (v(y) - v(x)) / t^s with y the interior point
    at distance t from x, over t = t0 * 2^{-j}, j = 0..4, where t0 is 1e-2
    for a callable and eight node spacings for nodal data.

    `side` names where the interval lies relative to x: FROM_LEFT_INTERVAL
    approaches with y = x - t.  `v` is a callable, or a (nodes, values)
    pair interpolated by a cubic spline.  The quotient is fitted by least
    squares to L + a t^{1-s} + b t^{2-s} and L is returned; for a C^2
    function with v'(x) = 0 the limit is 0, and for v = (1-y)^{1/2} at
    x = 1 from the left it is exactly 1 at every t.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("need s in (0, 1)")
    inward = -1.0 if side is Side.FROM_LEFT_INTERVAL else 1.0
    if callable(v):
        fn, t0 = v, 1e-2
    else:
        nodes, values = v
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        t0 = 8.0 * (nodes[1] - nodes[0])
        far = boundary_point + inward * t0
        lo, hi = min(boundary_point, far), max(boundary_point, far)
        if lo < nodes[0] or hi > nodes[-1] or \
                np.count_nonzero((nodes >= lo) & (nodes <= hi)) < 4:
            raise ValueError(
                "insufficient resolution around the boundary point")
        from scipy.interpolate import CubicSpline
        fn = CubicSpline(nodes, values)
    t = t0 * 0.5 ** np.arange(5)
    q = np.array([(float(fn(boundary_point + inward * ti)) -
                   float(fn(boundary_point))) / ti ** s for ti in t])
    design = np.column_stack([np.ones_like(t), t ** (1 - s), t ** (2 - s)])
    coef, *_ = np.linalg.lstsq(design, q, rcond=None)
    return float(coef[0])


def solve_exterior_value(op: Fractional1DOperator, exterior_data: np.ndarray,
                         interval: tuple[float, float]) -> np.ndarray:
    """s-harmonic interpolation: Lv = 0 at nodes inside (alpha, beta) with
    v equal to exterior_data outside; returns the full nodal function."""
    alpha, beta = interval
    if not (-op.M < alpha < beta < op.M):
        raise ValueError("interval must sit strictly inside [-M, M]")
    exterior_data = np.asarray(exterior_data, dtype=float)
    if exterior_data.shape != op.x.shape:
        raise ValueError("exterior_data must be nodal on the operator grid")
    inside = (op.x > alpha) & (op.x < beta)
    idx_in = np.flatnonzero(inside)
    if idx_in.size == 0:
        return exterior_data.copy()
    t = _toeplitz_column(op)
    A_ii = _toeplitz_block(t, idx_in, idx_in)
    ext = np.where(inside, 0.0, exterior_data)
    rhs = -_toeplitz_product(t, ext)[idx_in]
    try:
        v_in = np.linalg.solve(A_ii, rhs)
    except np.linalg.LinAlgError as exc:   # M-matrix: not expected
        raise RuntimeError(f"singular exterior-value system: {exc}")
    out = ext.copy()
    out[idx_in] = v_in
    return out


# ---------------------------------------------------------------------------
# Counterexample construction
# ---------------------------------------------------------------------------

def build_h_star(h_callable, eps: float, x: np.ndarray) -> np.ndarray:
    """Target profile: equals h on [-1, 1]; equals 2x on the band
    |x| in [1+eps/11, 1+2eps/11] and -2x on |x| in [1+3eps/11, 1+4eps/11];
    quintic-smoothstep blends in the gaps; zero beyond |x| = 1+5eps/11."""
    b = eps / 11.0
    ax = np.abs(x)
    hv = np.asarray(h_callable(x), dtype=float) * np.ones_like(x)
    plus2, minus2 = 2.0 * x, -2.0 * x

    def blend(lo, hi, f_prev, f_next):
        t = _smoothstep((ax - lo) / (hi - lo))
        return (1.0 - t) * f_prev + t * f_next

    out = np.where(ax <= 1.0, hv, 0.0)
    seg = (ax > 1.0) & (ax < 1.0 + b)
    out = np.where(seg, blend(1.0, 1.0 + b, hv, plus2), out)
    seg = (ax >= 1.0 + b) & (ax <= 1.0 + 2 * b)
    out = np.where(seg, plus2, out)
    seg = (ax > 1.0 + 2 * b) & (ax < 1.0 + 3 * b)
    out = np.where(seg, blend(1.0 + 2 * b, 1.0 + 3 * b, plus2, minus2), out)
    seg = (ax >= 1.0 + 3 * b) & (ax <= 1.0 + 4 * b)
    out = np.where(seg, minus2, out)
    seg = (ax > 1.0 + 4 * b) & (ax < 1.0 + 5 * b)
    out = np.where(seg, blend(1.0 + 4 * b, 1.0 + 5 * b, minus2,
                              np.zeros_like(x)), out)
    return out


@dataclass(frozen=True)
class CounterexampleResult:
    x: np.ndarray
    v: np.ndarray
    delta1: float
    delta2: float
    c2_residual: float
    band_c2_residual: float
    interior_residual: float
    M_used: float
    s: float
    eps: float
    # Fit telemetry: "tikhonov" and the M "trail", one entry per fitted M
    # (M, c2_residual, band_c2_residual, qr_shape of the stacked
    # least-squares matrix, the coupling basis's kept rank, final
    # sketch_width and range_residual, odd); not written to report.json.
    stats: dict = field(default_factory=dict, compare=False)


def _c2_stack(F: np.ndarray, idx: np.ndarray, h: float) -> np.ndarray:
    """Zeroth, first and second central differences of F (nodes along axis
    0) at the node indices idx, stacked in that order."""
    lo, mid, hi = F[idx - 1], F[idx], F[idx + 1]
    return np.concatenate([mid, (hi - lo) * (0.5 / h),
                           (hi - 2.0 * mid + lo) * (1.0 / h ** 2)])


# The exterior coupling [A_ie^T | E] has numerical rank about 20 at M = 4
# and 8 (fit_nodes 513 and 1025) against 256 or 512 columns; its singular
# values reach the round-off floor near 1e-14 sigma_1.  Directions under
# this relative cut, a decade above that floor, are dropped.
_RANK_CUT = 1e-13
# First sketch width: the rank above plus about ten columns of oversampling
# (Halko, Martinsson & Tropp, SIAM Review 2011); the width doubles while
# the residual bound fails.
_SKETCH_WIDTH = 32
# The sketch draws from its own generator, so a fit is reproducible and
# never reads or advances the global random state.
_SKETCH_SEED = 20110101
# M's start and cap, and the Tikhonov weight (see construct_counterexample).
FIT_M = 4.0
FIT_MAX_M = 64.0
FIT_TIKHONOV = 1e-8


def _coupling_basis(X: np.ndarray):
    """Rank-revealed orthonormal basis of range(X) by a randomized range
    finder: the QR of a Gaussian sketch Y = X Omega, then the SVD of the
    small projection Q_Y^T X = U S V^T, keeping the directions with
    S > _RANK_CUT S_1.  Q = Q_Y U_keep and Q^T X = S_keep V_keep^T.

    The basis is accepted when the projection residual meets

        |X - Q Q^T X|_F <= sqrt(ncols) _RANK_CUT S_1,

    which is what the cut alone leaves if every dropped direction sat just
    under it; a sketch that missed part of the range fails it.  Otherwise
    the width doubles, up to the column count of X, where the sketch spans
    range(X) and the basis is taken as it is.  Returns Q, Q^T X and
    (rank, sketch width, residual).
    """
    rng = np.random.default_rng(_SKETCH_SEED)
    ncols = X.shape[1]
    width = _SKETCH_WIDTH
    while True:
        width = min(width, ncols)
        Q_Y = qr(X @ rng.standard_normal((ncols, width)), mode="economic")[0]
        U, S, Vt = svd(Q_Y.T @ X, full_matrices=False)
        keep = S > _RANK_CUT * S[0]
        Q = Q_Y @ U[:, keep]
        QtX = S[keep, None] * Vt[keep]
        R = Q @ QtX
        R -= X
        resid = float(np.linalg.norm(R))
        if resid <= np.sqrt(ncols) * _RANK_CUT * S[0] or width == ncols:
            return Q, QtX, (Q.shape[1], width, resid)
        width *= 2


def _fit_blocks(op: Fractional1DOperator, idx_in: np.ndarray,
                idx_un: np.ndarray, odd: bool):
    """(H, A): the interior block the fit factors and its coupling to the
    exterior unknowns, from the operator's first column.

    When odd, e = [c; -reverse(c)] and w = [w_L; 0; -reverse(w_L)] inside,
    so the left rows alone carry the centrosymmetric half system: each
    block is its left columns minus their mirror images.  The left rows,
    their mirrors and the two exterior halves are runs of consecutive
    nodes, so each block is Toeplitz or Hankel (_run_block) and no index
    matrix is formed; otherwise both blocks are gathered.
    """
    n, k = op.n, idx_un.size
    t = _toeplitz_column(op)
    if not odd:
        return (_toeplitz_block(t, idx_in, idx_in),
                _toeplitz_block(t, idx_in, idx_un))
    rows = idx_in[:idx_in.size // 2]
    H = _run_block(t, rows, rows)
    H -= _run_block(t, rows, n - 1 - rows)
    A = _run_block(t, rows, idx_un[:k // 2])
    A -= _run_block(t, rows, idx_un[::-1][:k // 2])
    return H, A


def _range_fit(op: Fractional1DOperator, idx_in: np.ndarray,
               idx_un: np.ndarray, midx: np.ndarray, target: np.ndarray,
               odd: bool, grid_h: float):
    """Tikhonov fit of the exterior values in the range of the coupling.

    The unknowns are c = Q z, with Q the rank-revealed basis of
    [A_ie^T | E] from _coupling_basis (about 20 columns against 256 or 512
    at fit_nodes 513 or 1025).  Returns the composed nodal function w
    (s-harmonic at idx_in, fitted exterior values at idx_un, zero at the
    two end nodes), the shape of the stacked least-squares matrix and the
    basis's kept rank, sketch width and projection residual.  See
    construct_counterexample.
    """
    n, k = op.n, idx_un.size
    H, A = _fit_blocks(op, idx_in, idx_un, odd)
    # the difference stencil reads the interior and the exterior nodes
    # just outside it: window = idx_in plus those touched nodes
    window = np.arange(midx[0] - 1, midx[-1] + 2)
    in_win = np.isin(window, idx_in)
    ext_pos = np.searchsorted(idx_un, window[~in_win])

    def unfold(W_half, C):
        """Interior and exterior values (nodes along axis 0) from the
        (half) interior values and the fit unknowns."""
        if not odd:
            return W_half, C
        gap = np.zeros((idx_in.size - 2 * len(W_half),) + W_half.shape[1:])
        return (np.concatenate([W_half, gap, -W_half[::-1]]),
                np.concatenate([C, -C[::-1]]))

    def on_window(W_half, C):
        W, e = unfold(W_half, C)
        F = np.empty((window.size,) + W.shape[1:])
        F[in_win], F[~in_win] = W, e[ext_pos]
        return F

    # mirror rows repeat residuals exactly: keep the left rows and the
    # centre first difference (its zeroth and second are exactly 0) at
    # weight 1/2, so the objective is halved along with |e|^2 = 2 |c|^2
    if odd:
        loc = midx[2 * midx < n - 1] - window[0]
        centre = (n - 1) // 2 - window[0] if n % 2 else None
    else:
        loc, centre = midx - window[0], None

    def c2_rows(F):
        out = _c2_stack(F, loc, grid_h)
        if centre is None:
            return out
        fd = (F[centre + 1] - F[centre - 1]) * (0.5 / grid_h)
        return np.concatenate([out, np.sqrt(0.5) * fd[None]])

    # c* lies in range(G^T), spanned by the kernel rows A^T and the unit
    # vectors of the touched exterior unknowns, to within the basis's cut
    touched = np.unique(np.minimum(ext_pos, k - 1 - ext_pos) if odd
                        else ext_pos)
    E = np.zeros((A.shape[1], touched.size))
    E[touched, np.arange(touched.size)] = 1.0
    Q, QtX, basis = _coupling_basis(np.hstack([A.T, E]))
    AQ = QtX[:, :A.shape[0]].T                # A Q, as Q^T A^T = (Q^T X)_A
    lu = lu_factor(H)
    r = Q.shape[1]
    K = np.vstack([c2_rows(on_window(-lu_solve(lu, AQ), Q)),
                   np.sqrt(FIT_TIKHONOV) * np.eye(r)])
    rhs = np.concatenate([c2_rows(target[window]), np.zeros(r)])
    shape = K.shape
    Qt_rhs, R = qr_multiply(K, rhs, mode="right", overwrite_a=True)
    c = Q @ solve_triangular(R, Qt_rhs)

    w = np.zeros(n)
    w[idx_in], w[idx_un] = unfold(-lu_solve(lu, A @ c), c)
    return w, shape, basis


# The M = 8 fit at 1025 nodes peaks at about 21 MiB of arrays, in the
# range finder: the coupling A (511 x 1,536), its [A^T | E] and the
# projection residual, about 6 MiB each, with H.  Building A peaks lower,
# at 14 MiB, and the call's process peak stays about 108 MB, most of it
# the interpreter and its imports.
def construct_counterexample(h_callable, eps: float, s: float = 0.5,
                             fit_nodes: int = 513) -> CounterexampleResult:
    """Compactly supported numeric s-harmonic function close to the banded
    target in C^2(-2, 2), with the derivative roots bracketing the bands.

    Exterior nodal values e (2 <= |x| < M) are the least-squares unknowns;
    the interior of (-2, 2) is s-harmonically determined by them, w_in =
    -A_ii^{-1} A_ie e; the misfit G e - r is the discrete C^2 distance to
    the banded target.  G sees e only through the kernel rows A_ie and the
    few exterior nodes the difference stencil touches, so the Tikhonov
    minimiser of |G e - r|^2 + t |e|^2 (t = FIT_TIKHONOV), which lies in
    range(G^T), lies in the span of X = [A_ie^T | E] (E: unit columns of
    the touched nodes; Elden, BIT 1977).  X has numerical rank about 20
    against its 256 or 512 columns (fit_nodes 513 or 1025), so a
    randomized range finder (_coupling_basis: Gaussian sketch, QR, SVD of
    the projection) gives an orthonormal basis Q of r columns, r the count
    of singular values above 1e-13 sigma_1, accepted once |X - Q Q^T X|
    meets the bound stated there.  e = Q z holds the minimiser to within
    that cut (at eps = 0.5 the roots sit 2.7e-9 relative from a full
    basis's at 513 nodes and 1.1e-8 at 1025), and |e| = |z|.
    One LU of A_ii, applied to A_ie Q (read off the kept singular
    triplets), gives the basis's interior response; the reduced problem
    [G Q; sqrt(t) I_r] z = [r; 0] is solved by Householder QR, never
    through the normal equations, whose squared condition number
    (sigma_max / sqrt(t) is about 7e7 here) makes the answer depend on
    BLAS blocking and thread count.  w is then composed by one more
    solve with the same LU, so the interior equations hold to round-off;
    the n x k composed map is never formed.

    When the sampled target is exactly odd (h = 0, or any odd h; the grid
    is exactly mirror-symmetric and its masks are decided on integer node
    offsets), the unique minimiser is odd: e = [c; -reverse(c)] and the
    interior is solved on its left half by the centrosymmetric system
    A_LL - A_LR J.  The mirror rows of G repeat the left residuals exactly,
    so they are dropped, the penalty keeps weight t (both terms are
    halved) and the centre first-difference row is scaled by sqrt(1/2).
    w is exactly odd and delta1 = delta2.  M starts at FIT_M and doubles
    (same spacing) until the misfit stops improving by 10% or the next M
    would pass FIT_MAX_M; `stats` records t and each M's residuals,
    stacked-QR shape, basis rank, sketch width and projection residual,
    and whether the odd reduction applied.

    Which M is kept is noise, yet it moves the roots.  For h = 0 the M = 4
    and M = 8 C^2 residuals differ by under 0.1% at every eps in 0.1..0.9
    and fit_nodes 129..1025 (one BLAS thread).  At 513 nodes, eps = 0.6
    keeps M = 8 (7648.44 against 7649.27, delta 0.2151); M = 4 gives
    delta 0.1645, which fails criterion 10's 1e-4 boundary-limit gate.  At
    eps = 0.4, 513 and 1025 nodes, the M = 8 pick finds no root and M = 4
    passes criterion 10.  So choosing M needs a root certificate; the
    M = 8 refit is not dead weight to drop.

    The roots are those of the cubic spline's derivative, a piecewise
    quadratic, taken in closed form cell by cell (PPoly.solve).  delta2 is
    the root in [1 + eps/11, 1 + 4 eps/11] nearest the inner band edge,
    minus 1, and delta1 likewise from the mirror interval.  The band
    slopes would force a root if the band misfit were below 1; at
    eps = 0.5 it is about 759, so the roots are found, not forced, and
    `band_c2_residual` says how far the fit is from the forcing regime.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need eps in (0, 1)")
    grid_h = 4.0 / (fit_nodes - 1)
    b = eps / 11.0

    trail = []
    best = None
    prev_res = np.inf
    M_cur = FIT_M
    while True:
        n = int(round(2.0 * M_cur / grid_h)) + 1
        op = make_operator(s, M_cur, n)
        x = op.x
        # node masks on the doubled offset from the centre node, |x| =
        # |m| grid_h / 2, so mirrored nodes always fall on the same side
        m = np.abs(2 * np.arange(n) - (n - 1))
        inside = m < fit_nodes - 1                   # |x| < 2
        idx_in = np.flatnonzero(inside)
        idx_un = np.flatnonzero(~inside & (m < n - 1))
        midx = np.flatnonzero(m < fit_nodes - 2)     # |x| < 2 - grid_h / 2
        target = build_h_star(h_callable, eps, x)
        target = np.where(np.abs(x) <= 2.0, target, 0.0)
        odd = np.array_equal(target, -target[::-1])

        w, qr_shape, (rank, width, range_res) = _range_fit(
            op, idx_in, idx_un, midx, target, odd, grid_h)
        resid = _c2_stack(w, midx, grid_h) - _c2_stack(target, midx, grid_h)
        c2_res = float(np.max(np.abs(resid)))

        band = (np.abs(np.abs(x[midx]) - (1.0 + 1.5 * b)) <= 0.5 * b) | \
               (np.abs(np.abs(x[midx]) - (1.0 + 3.5 * b)) <= 0.5 * b)
        band3 = np.concatenate([band, band, band])
        band_res = float(np.max(np.abs(resid[band3]))) if band3.any() else c2_res
        trail.append({"M": M_cur, "c2_residual": c2_res,
                      "band_c2_residual": band_res, "qr_shape": qr_shape,
                      "rank": rank, "sketch_width": width,
                      "range_residual": range_res, "odd": odd})

        cand = (op, w, c2_res, band_res, M_cur)
        if best is None or c2_res < best[2]:
            best = cand
        if (prev_res - c2_res) < 0.1 * prev_res or 2.0 * M_cur > FIT_MAX_M:
            break
        prev_res = c2_res
        M_cur *= 2.0

    from scipy.interpolate import CubicSpline

    op, w, c2_res, band_res, M_used = best
    x = op.x
    roots = CubicSpline(x, w).derivative().solve(0.0, extrapolate=False)
    right = roots[(roots >= 1.0 + b) & (roots <= 1.0 + 4.0 * b)]
    left = roots[(roots >= -1.0 - 4.0 * b) & (roots <= -1.0 - b)]

    stats = {"tikhonov": FIT_TIKHONOV, "trail": trail}
    if right.size == 0 or left.size == 0:
        raise NoRootError(
            "no derivative sign change in the band interval "
            f"(C2 residual {c2_res:.3e}, band residual {band_res:.3e})",
            c2_residual=c2_res, band_c2_residual=band_res, stats=stats)
    delta2 = float(right.min()) - 1.0
    delta1 = -float(left.max()) - 1.0

    res_idx = np.flatnonzero((x > -1.0 - delta1) & (x < 1.0 + delta2))
    Tw = _toeplitz_product(_toeplitz_column(op), w)
    interior_res = float(np.max(np.abs(Tw[res_idx])))

    return CounterexampleResult(x=x, v=w, delta1=delta1, delta2=delta2,
                                c2_residual=c2_res,
                                band_c2_residual=band_res,
                                interior_residual=interior_res,
                                M_used=M_used, s=s, eps=eps,
                                stats=stats)


def compare_operators(domain, w, s: float, op_nodes: int = 2049) -> float:
    """Max pointwise difference between the spectrally defined fractional
    power (Neumann reflection) and the integral pv operator applied to the
    zero extension of the same function, at the nodes of the domain more
    than 5% of its length from either end.

    The two operators genuinely differ: the spectral one sees Neumann
    reflections at the cross-section ends, the integral one sees the zero
    exterior.  For a smooth bump supported inside the interval the
    discrepancy is order one and stable under refinement.
    """
    basis = w.basis
    if basis.domain.is_rectangle:
        raise ValueError("operator comparison is one-dimensional")
    if domain is not basis.domain and (
            abs(domain.x_min - basis.domain.x_min) > 1e-12
            or abs(domain.x_max - basis.domain.x_max) > 1e-12):
        raise ValueError("domain must match the spectral basis domain")
    L = domain.x_max - domain.x_min
    center = 0.5 * (domain.x_min + domain.x_max)
    op = make_operator(s, M=L, n=op_nodes)

    # nodal zero extension of w on the operator grid
    xs = op.x + center
    in_dom = (xs > domain.x_min) & (xs < domain.x_max)
    v = np.zeros_like(op.x)
    vals = np.zeros(int(np.count_nonzero(in_dom)))
    for k in range(basis.K):
        vals = vals + w.coeffs[k] * basis.mode_at(k, xs[in_dom])
    v[in_dom] = vals

    from .spectral import apply_fractional
    frac = apply_fractional(basis, s, w)
    margin = 0.05 * L
    compare = in_dom & (xs > domain.x_min + margin) & (xs < domain.x_max - margin)
    cmp_idx = np.flatnonzero(compare)
    spectral_vals = np.zeros(cmp_idx.size)
    for k in range(basis.K):
        spectral_vals += frac.coeffs[k] * basis.mode_at(k, xs[cmp_idx])
    integral_vals = _toeplitz_product(_toeplitz_column(op), v)[cmp_idx]
    return float(np.max(np.abs(integral_vals - spectral_vals), initial=0.0))
