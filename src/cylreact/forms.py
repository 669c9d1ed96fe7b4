"""Shared discrete weak-form assembly.

Both the nonlinear solver and the stability functional are built from the
same quadratic-form pieces:

    bulk flux      sum_c G_c^T diag(W_theta * ahat * ...) G_c
    bulk zero-order  diag(W * g_u)
    bottom reaction  -diag_bottom(w_b * f'(u))

where G_c are the sparse derivative operators, W the tensor trapezoid weights
and W_theta the y**theta-weighted variant that absorbs the singular power
factor of the coefficient.  The Newton Jacobian of the weak residual is
exactly the stability energy matrix: differentiating the flux a(y,|g|) g in
g produces the linearization matrix B.  So the assembly functions take one
input, coefficient_state(u, model) at the linearization point u.

All pairings use the grid's summation-by-parts gradient variant (two-point
boundary rows), which keeps nodal hat-tested residuals second-order accurate
next to flux-carrying boundaries; the pointwise second-order ``gradient``
operator is reserved for direct derivative evaluation.

The energy matrix is stored by its diagonals: each G_c is I x D_c x I with
at most three entries per row of the 1D difference D_c, so row i couples
node i only to i + s e_c + t e_d (s, t in {-1, 0, 1}), a neighbour offset
fixed by the grid whatever the state.  ``EnergyLayout``, built once per
grid and cached on it, multiplies planes of the grid's pairing stencil
tables by shifted weight planes, one value plane per neighbour offset; no
sparse product runs.  The planes are the upper diagonals, and one builder
(EnergyLayout.matrix) stores them as a symmetric DIA matrix, either the
whole matrix or its free block on the nodes below a y index nf, whose
planes are a slice of the whole matrix's: a pinned top slice in the Newton
solve and the stability test space (both nf = ny - 1) are that block.

Gradient magnitudes feeding the eta/|eta| factor are regularized as
sqrt(|g|^2 + eps^2) with eps = 1e-10 whenever the model has genuine
t-dependence, which removes the 0/0 at critical points without touching
models whose rank-one term vanishes identically.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid

REG_EPS = 1e-10


def gradient_fields(grid: CylinderGrid, values: np.ndarray,
                    pairing: bool = False) -> list[np.ndarray]:
    flat = values.ravel()
    ops = (grid.pairing_gradient_operators() if pairing
           else grid.gradient_operators())
    return [(G @ flat).reshape(grid.shape) for G in ops]


def b_form(state: dict, comps: list[np.ndarray]) -> np.ndarray:
    """Pointwise <B grad u v, v> = a |v|^2 + (a_t/|grad u|) (grad u . v)^2
    at the state of coefficient_state, for the field v with components
    comps (the y**theta factor of a stays in the weights)."""
    out = state["a_red"] * sum(c * c for c in comps)
    if state["a_t_red"] is not None:
        dot = sum(g * c for g, c in zip(state["comps"], comps))
        out = out + (state["a_t_red"] / state["norm_reg"]) * dot * dot
    return out


def coefficient_state(u: CylinderField, model: CoefficientModel) -> dict:
    """Pointwise data at u, u included, that every assembly function reads;
    a_t_red is None when the model has no t-dependence."""
    grid = u.grid
    comps = gradient_fields(grid, u.values, pairing=True)
    tdep = model.has_t_dependence
    sq = sum(c * c for c in comps)
    norm_plain = np.sqrt(sq)
    norm_reg = np.sqrt(sq + REG_EPS * REG_EPS) if tdep else norm_plain
    coords = grid.coordinate_arrays()
    y = coords[-1]
    a_red = model.reduced_a(y, norm_plain)
    a_t_red = model.reduced_a_t(y, norm_plain) if tdep else None
    return {
        "u": u,
        "grid": grid,
        "comps": comps,
        "norm": norm_plain,
        "norm_reg": norm_reg,
        "y": y,
        "a_red": a_red,
        "a_t_red": a_t_red,
        "theta": model.y_exponent,
    }


def weak_residual_vector(state: dict, reaction) -> np.ndarray:
    """Flat nodal residual at the state's u: weak form tested on each hat.

    r[j] = int a grad u . grad e_j + int g(y, u) e_j - int_bottom f(u) e_j.
    Natural (zero-flux) conditions on every boundary face are built in; the
    bottom reaction replaces the flux there.
    """
    u, grid = state["u"], state["grid"]
    w_theta = grid.bulk_weights(state["theta"]).ravel()
    r = np.zeros(grid.n_nodes)
    a_red_flat = state["a_red"].ravel()
    for G, comp in zip(grid.pairing_gradient_operators(), state["comps"]):
        r += G.T @ (w_theta * a_red_flat * comp.ravel())
    if reaction.g is not None:
        w_plain = grid.bulk_weights(0.0).ravel()
        r += w_plain * reaction.g(state["y"].ravel(), u.values.ravel())
    w_b = grid.bottom_weights().ravel()
    f_b = reaction.f(u.values[..., 0].ravel())
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = (w_b * f_b).reshape(bottom[..., 0].shape)
    r -= bottom.ravel()
    return r


def _at(t: np.ndarray, shift: int) -> np.ndarray:
    """t read at i - shift: out[i] = t[i - shift], 0 outside t."""
    out = np.zeros_like(t)
    if shift >= 0:
        out[shift:] = t[:t.size - shift]
    else:
        out[:shift] = t[-shift:]
    return out


class EnergyLayout:
    """The slots that fill the energy matrix's value planes on one grid,
    and the builder of the matrix and its free blocks from the planes.

    Every G_c is I x D_c x I, and each row of the 1D pairing difference D_c
    has its entries at k - 1, k, k + 1 at most: rows 1 to 3 of the grid's
    pairing stencil table.  So G_c^T diag(w) G_d couples node k + a e_c to
    node k + b e_d (a, b in {-1, 0, 1}) with the coefficient
    D_c[k_c, k_c + a] D_d[k_d, k_d + b] w[k]: a 1D-table product times the
    weight at k.  A "slot" is one (c, d, a, b) with its
    table product as a broadcastable plane.  Only the pairs c <= d are
    slotted, and each slot writes the one of its entry and the entry's
    mirror that lies in the upper triangle, the entry from row node i to
    i + delta with delta = +-(b e_d - a e_c) and a flat offset >= 0.
    Slots with the same neighbour offset delta sum into one value plane
    over the row nodes i (plane 0, delta = 0, is the diagonal), so a
    matrix is

        planes[p][i] = sum over the slots of p of table[i] * w[i - shift].

    A plane is zero wherever i + delta leaves the grid, because the tables
    are.  The planes are the matrix's upper diagonals, read at row
    min(i, j), and ``matrix`` stores them as a symmetric DIA matrix.

    ``rank_one`` adds the c < d pairs of the linearization's rank-one term.
    """

    def __init__(self, grid: CylinderGrid, rank_one: bool):
        shape = grid.shape
        ndim = len(shape)
        self.shape = shape
        strides = [int(np.prod(shape[k + 1:])) for k in range(ndim)]
        tables = [grid.stencil_table(c, pairing=True)[1:4]
                  for c in range(ndim)]

        # The entry of (c, d, a, b) runs from k + a e_c to k + b e_d, a flat
        # offset f = b stride_d - a stride_c.  For f >= 0 its row is
        # i = k + a e_c, for f < 0 its mirror's row k + b e_d, and the
        # table reads the 1D rows at k = i - shift e_axis.  The c = d
        # entries with a > b are the mirrors of a <= b ones; a c < d entry
        # with f = 0 and its mirror are both the diagonal, so it counts
        # twice.
        pairs = [(c, c) for c in range(ndim)] + (
            [(c, d) for c in range(ndim) for d in range(c + 1, ndim)]
            if rank_one else [])
        raw = []     # (delta, shift axis, shift, table plane, pair)
        for c, d in pairs:
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    if c == d and b < a:
                        continue
                    f = b * strides[d] - a * strides[c]
                    axis, shift = (c, a) if f >= 0 else (d, b)
                    sign = 1 if f >= 0 else -1
                    delta = tuple(sign * (b * (m == d) - a * (m == c))
                                  for m in range(ndim))
                    table = np.ones([1] * ndim)
                    for ax, row in ((c, tables[c][a + 1]),
                                    (d, tables[d][b + 1])):
                        row = _at(row, shift if ax == axis else 0)
                        table = table * row.reshape(
                            [-1 if m == ax else 1 for m in range(ndim)])
                    if np.any(table):
                        scale = 2.0 if c != d and f == 0 else 1.0
                        raw.append((delta, axis, shift, scale * table,
                                    (c, d)))
        # the zero delta, the diagonal, sorts first
        self.deltas = sorted({r[0] for r in raw})
        # (plane, padded-weight window, table plane, pair) per slot
        self.slots = []
        for delta, axis, shift, table, pair in raw:
            window = tuple(slice(1 - shift * (k == axis),
                                 1 - shift * (k == axis) + shape[k])
                           for k in range(ndim))
            self.slots.append((self.deltas.index(delta), window, table, pair))

    def planes(self, weights: dict) -> np.ndarray:
        """The value planes, shaped (len(deltas),) + grid shape, for the
        pair weights {(c, d): shaped w_cd} (c <= d; the c < d pairs only
        with rank_one).  Plane 0 is the diagonal."""
        padded = {}           # by array: the isotropic pairs share one
        for w in weights.values():
            if id(w) not in padded:
                padded[id(w)] = np.pad(w, 1)
        out = np.empty((len(self.deltas),) + self.shape)
        tmp = np.empty_like(out[0])
        started = [False] * len(self.deltas)
        for p, window, table, pair in self.slots:
            src = padded[id(weights[pair])][window]
            if started[p]:
                np.multiply(table, src, out=tmp)
                out[p] += tmp
            else:
                np.multiply(table, src, out=out[p])
                started[p] = True
        return out

    def matrix(self, planes: np.ndarray, nf: int) -> sp.dia_matrix:
        """The symmetric DIA matrix with value planes ``planes`` on the
        nodes below y index nf, in their flat order: the whole matrix for
        nf = ny, and its free block below nf otherwise.

        y is the fastest axis, so a block's planes are planes[..., :nf]
        on the strides of the cut shape, less the rows whose neighbour
        i + delta lies at or above nf.  Planes whose deltas share a flat
        offset sum into one diagonal (on a three-node axis, delta = (0, 2)
        and (1, -1) in 2D); a node reaches a given node by one delta at
        most, so the sum adds zeros only.  The lower diagonal at -f holds
        at column j the value of row node j, and the upper one at f the
        same values moved by f, so each entry and its mirror read one
        plane value: the matrix is symmetric bit for bit.
        """
        shape = self.shape[:-1] + (nf,)
        n = int(np.prod(shape))
        strides = [int(np.prod(shape[k + 1:])) for k in range(len(shape))]
        kept = [(int(np.dot(delta, strides)), p)
                for p, delta in enumerate(self.deltas) if abs(delta[-1]) < nf]
        offsets = sorted({f for f, _ in kept})
        P = len(offsets)
        data = np.zeros((2 * P - 1, n))
        lower = data[P - 1::-1]       # lower[q]: the diagonal at -offsets[q]
        filled = set()
        for f, p in kept:
            rows = nf - max(self.deltas[p][-1], 0)
            out = lower[offsets.index(f)].reshape(shape)[..., :rows]
            if f in filled:
                out += planes[p][..., :rows]
            else:
                out[...] = planes[p][..., :rows]
                filled.add(f)
        for q in range(1, P):
            data[P - 1 + q, offsets[q]:] = lower[q, :n - offsets[q]]
        return sp.dia_matrix(
            (data, [-f for f in offsets[:0:-1]] + offsets), shape=(n, n))


def energy_layout(grid: CylinderGrid, rank_one: bool) -> EnergyLayout:
    """The grid's energy-matrix layout, built on first use and cached on
    the grid like its operators; ``rank_one`` for models with
    t-dependence."""
    return grid._cached(("energy_layout", bool(rank_one)),
                        lambda: EnergyLayout(grid, rank_one))


def energy_planes(state: dict, reaction) -> tuple:
    """(layout, planes): the grid's EnergyLayout for the model and the value
    planes of the second-variation quadratic form at the state's u,

    phi^T A phi = int <B(y, grad u) grad phi, grad phi>
                + int g_u(y, u) phi^2 - int_bottom f'(u) phi^2,

    assembled with the same operators and weights as the weak residual, so A
    is also the Newton Jacobian of the residual vector.  The flux part is
    sum_{c,d} G_c^T diag(w (a delta_cd + (a_t/|g|) g_c g_d)) G_d; the
    zero-order and bottom terms add to the diagonal plane.
    layout.matrix(planes, nf) is A, or its free block below y index nf.
    """
    u, grid = state["u"], state["grid"]
    tdep = state["a_t_red"] is not None
    w_theta = grid.bulk_weights(state["theta"])
    w_a = w_theta * state["a_red"]
    ndim = grid.n_components
    # w_cd = w (a delta_cd + (a_t/|g|) g_c g_d), c <= d
    weights = {(c, c): w_a for c in range(ndim)}
    if tdep:
        w_r = w_theta * (state["a_t_red"] / state["norm_reg"])
        comps = state["comps"]
        for c in range(ndim):
            for d in range(c, ndim):
                w = w_r * comps[c] * comps[d]
                weights[(c, d)] = w_a + w if c == d else w
    layout = energy_layout(grid, tdep)
    planes = layout.planes(weights)
    diagonal = planes[0].reshape(-1)
    # bulk zero-order term
    if reaction.g_u is not None:
        w_plain = grid.bulk_weights(0.0).ravel()
        diagonal += w_plain * reaction.g_u(state["y"].ravel(), u.values.ravel())
    # bottom reaction linearization
    w_b = grid.bottom_weights()
    fp = reaction.f_prime(u.values[..., 0].ravel())
    planes[0][..., 0] -= (w_b.ravel() * fp).reshape(w_b.shape)
    return layout, planes


def assemble_energy_matrix(state: dict, reaction,
                           nf: int | None = None) -> sp.dia_matrix:
    """Sparse symmetric matrix of the second-variation quadratic form at the
    state (energy_planes), or with ``nf`` its free block below y index nf.
    It is symmetric bit for bit.
    """
    layout, planes = energy_planes(state, reaction)
    return layout.matrix(planes, state["grid"].ny if nf is None else nf)


def separable_samples(state: dict, reaction) -> list:
    """[a, f', g_u]: the samples the y factors of a Kronecker sum reduce
    across the cross-section, a_red and g_u(y, u) shaped (cross-section
    nodes, ny) and the bottom f'(u) flat; g_u only when the reaction has
    one."""
    grid, values = state["grid"], state["u"].values
    samples = [state["a_red"].reshape(-1, grid.ny), np.broadcast_to(
        reaction.f_prime(values[..., 0]), values[..., 0].shape).ravel()]
    if reaction.g_u is not None:
        samples.append(np.broadcast_to(reaction.g_u(state["y"], values),
                                       grid.shape).reshape(-1, grid.ny))
    return samples


def separable_band(grid: CylinderGrid, theta: float, a_y: np.ndarray,
                   fp_0: float, gu_y: np.ndarray | None = None) -> tuple:
    """(m_y, K_y) of the Kronecker sum with y profiles a_y, g_u and bottom
    f'(u) value fp_0:

        A ~ sum_k (x_{m != k} W_m) x K_k x M_y  +  (x_m W_m) x K_y,

    with W_m, K_k the trapezoid weights and pairing stiffness of cross-section
    axis k (see CylinderGrid.cross_section_modes), M_y = diag(m_y) for
    m_y = y_weights(theta) * a_y, and the lower band (gram_band plus a
    diagonal) of K_y = D_y^T M_y D_y - fp_0 e_0 e_0^T
    + diag(y_weights(0) * gu_y).
    """
    m_y = grid.y_weights(theta) * a_y
    zero_order = (grid.y_weights(0.0) * gu_y if gu_y is not None
                  else np.zeros(grid.ny))
    zero_order[0] -= fp_0
    K_y = grid.gram_band(grid.n_components - 1, m_y)
    K_y[0] += zero_order
    return m_y, K_y


def separable_factors(state: dict, reaction) -> tuple:
    """(m_y, K_y, exact): the y factors of the Kronecker sum nearest the
    energy matrix at the state, and whether that sum is the matrix itself.

    The sum (separable_band) drops the rank-one term and replaces a_red,
    the bottom f'(u) and g_u(y, u) (separable_samples) by their means
    across the cross-section at each height.  exact is True when the model
    has no rank-one term and those three are each equal across the
    cross-section (exactly, no tolerance); their common values then stand
    in for the means, so the sum is assemble_energy_matrix's matrix.
    """
    samples = separable_samples(state, reaction)
    exact = not (state["a_t_red"] is not None
                 or any(np.any(v != v[0]) for v in samples))
    profiles = [v[0] if exact else v.mean(axis=0) for v in samples]
    return *separable_band(state["grid"], state["theta"], *profiles), exact


def energy_quadrature(u: CylinderField, model: CoefficientModel, reaction,
                      phi: CylinderField) -> float:
    """Direct quadrature of the second-variation integrand at test field phi.

    Uses the pointwise decomposition <B grad phi, grad phi> =
    a |grad phi|^2 + (a_t/|grad u|) (grad u . grad phi)^2, a genuinely
    different arithmetic path from the assembled matrix.
    """
    grid = u.grid
    state = coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"])
    phi_comps = gradient_fields(grid, phi.values, pairing=True)
    total = float(np.sum(w_theta * b_form(state, phi_comps)))
    if reaction.g_u is not None:
        w_plain = grid.bulk_weights(0.0)
        total += float(np.sum(w_plain * reaction.g_u(state["y"], u.values)
                              * phi.values ** 2))
    w_b = grid.bottom_weights()
    fp = reaction.f_prime(u.values[..., 0])
    total -= float(np.sum(w_b * fp * phi.values[..., 0] ** 2))
    return total


def mass_matrix(state: dict) -> sp.dia_matrix:
    """Diagonal SPD mass at the state: int a(y, |grad u|) phi^2
    + int_bottom phi^2."""
    grid = state["grid"]
    w_theta = grid.bulk_weights(state["theta"]).ravel()
    diag = w_theta * state["a_red"].ravel()
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = grid.bottom_weights()
    diag = diag + bottom.ravel()
    return sp.diags(diag)

