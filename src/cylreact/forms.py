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
g produces the linearization matrix B.

All pairings use the grid's summation-by-parts gradient variant (two-point
boundary rows), which keeps nodal hat-tested residuals second-order accurate
next to flux-carrying boundaries; the pointwise second-order ``gradient``
operator is reserved for direct derivative evaluation.

The energy matrix has one sparsity pattern per grid, whatever the state:
each G_c is I x D_c x I with at most three entries per row of the 1D
difference D_c, so row i couples node i only to i + s e_c + t e_d
(s, t in {-1, 0, 1}).  ``EnergyLayout``, built once per grid and cached
on it, holds that pattern as CSR arrays.  An assembly multiplies planes of
the grid's pairing stencil tables by shifted weight planes, one value
plane per offset, and fills ``data`` with one gather; no sparse product
runs.  The one block cut from it is the free block, on the nodes below a
y index nf, also a cached gather: a pinned top slice in the Newton solve
(nf = ny - 1) and the stability test space (nodes below vanish_above) are
both that block.

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
    """Pointwise data reused across residual/energy assembly at a state u."""
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
        "grid": grid,
        "comps": comps,
        "norm": norm_plain,
        "norm_reg": norm_reg,
        "y": y,
        "a_red": a_red,
        "a_t_red": a_t_red,
        "theta": model.y_exponent,
    }


def weak_residual_vector(u: CylinderField, model: CoefficientModel,
                         reaction, state: dict | None = None) -> np.ndarray:
    """Flat nodal residual r with r[j] = weak form tested on the j-th hat.

    r[j] = int a grad u . grad e_j + int g(y, u) e_j - int_bottom f(u) e_j.
    Natural (zero-flux) conditions on every boundary face are built in; the
    bottom reaction replaces the flux there.  ``state`` is
    coefficient_state(u, model) when the caller already holds it.
    """
    grid = u.grid
    if state is None:
        state = coefficient_state(u, model)
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


def _csr(data, indices, indptr, n_rows: int) -> sp.csr_matrix:
    """Square CSR matrix on a sorted, duplicate-free pattern, sharing the
    pattern's arrays."""
    A = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_rows))
    A.has_canonical_format = True
    return A


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EnergyLayout:
    """The energy matrix's CSR pattern on one grid, the gather that fills
    it, and the gathers that cut its free blocks.

    Every G_c is I x D_c x I, and each row of the 1D pairing difference D_c
    has its entries at k - 1, k, k + 1 at most: rows 1 to 3 of the grid's
    pairing stencil table.  So G_c^T diag(w) G_d couples node k + a e_c to
    node k + b e_d (a, b in {-1, 0, 1}) with the coefficient
    D_c[k_c, k_c + a] D_d[k_d, k_d + b] w[k]: a 1D-table product times the
    weight at k.  A "slot" is one (c, d, a, b) with its
    table product as a broadcastable plane.  Only the pairs c <= d are
    slotted, and each slot writes the one of its entry and the entry's
    mirror that lies in the upper triangle.  Slots with the same flat
    offset j - i >= 0 sum into one value plane over the row nodes i
    (plane 0 is the diagonal), so a matrix is

        planes[p][i] = sum over the slots of p of table[i] * w[i - shift],

    and its CSR ``data`` is one gather from the slot-major planes: entry
    (i, j) reads plane |j - i| at node min(i, j).  A is therefore
    symmetric bit for bit.  The pattern holds every entry whose table
    product is nonzero for some slot, whatever the weights, so it is the
    same for every state on the grid; it keeps an entry that the weights
    make exactly zero.

    ``rank_one`` adds the c < d pairs of the linearization's rank-one term.
    The free block below a y index (free_block) is a boolean gather of a
    matrix's ``data``, built once per index and cached.  Every pattern
    array is shared by the matrices on it and is read-only.
    """

    def __init__(self, grid: CylinderGrid, rank_one: bool):
        shape = grid.shape
        ndim = len(shape)
        self.n, self.ny = grid.n_nodes, grid.ny
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
        raw = []     # (|f|, shift axis, shift, table plane, pair)
        for c, d in pairs:
            for a in (-1, 0, 1):
                for b in (-1, 0, 1):
                    if c == d and b < a:
                        continue
                    f = b * strides[d] - a * strides[c]
                    axis, shift = (c, a) if f >= 0 else (d, b)
                    table = np.ones([1] * ndim)
                    for ax, row in ((c, tables[c][a + 1]),
                                    (d, tables[d][b + 1])):
                        row = _at(row, shift if ax == axis else 0)
                        table = table * row.reshape(
                            [-1 if m == ax else 1 for m in range(ndim)])
                    if np.any(table):
                        scale = 2.0 if c != d and f == 0 else 1.0
                        raw.append((abs(f), axis, shift, scale * table,
                                    (c, d)))
        offsets = sorted({r[0] for r in raw})
        # (plane, padded-weight window, table plane, pair) per slot
        self.slots = []
        mask = np.zeros((len(offsets),) + shape, dtype=bool)
        mask[0] = True
        for f, axis, shift, table, pair in raw:
            p = offsets.index(f)
            window = tuple(slice(1 - shift * (k == axis),
                                 1 - shift * (k == axis) + shape[k])
                           for k in range(ndim))
            self.slots.append((p, window, table, pair))
            mask[p] |= table != 0.0
        P, n = len(offsets), self.n
        self.n_planes = P
        self._iy = np.tile(np.arange(self.ny, dtype=np.int32), n // self.ny)

        # Entry (i, i + full[q]) is stored where present[q, i], q over the
        # full offsets -off[P-1] .. -off[1], 0, off[1] .. off[P-1]
        full = np.array([-o for o in offsets[:0:-1]] + offsets)
        flat_mask = mask.reshape(P, n)
        present = np.zeros((2 * P - 1, n), dtype=bool)
        for p, off in enumerate(offsets):
            present[P - 1 + p] = flat_mask[p]
            if p:
                present[P - 1 - p, off:] = flat_mask[p, :n - off]
        counts = np.zeros(n, dtype=np.int32)
        for row in present:
            counts += row
        self.indptr = _frozen(np.concatenate(([0], np.cumsum(counts)))
                              .astype(np.int32))
        # CSR order is row-major in (i, q)
        rows = np.repeat(np.arange(n, dtype=np.int32), counts)
        q = np.flatnonzero(present.T)
        q -= rows * (2 * P - 1)
        self.indices = _frozen(rows + full.astype(np.int32).take(q))
        # entry (i, j) reads plane |j - i| at node min(i, j)
        source = np.abs(np.arange(2 * P - 1) - (P - 1)) * n + np.minimum(full, 0)
        rows += source.astype(np.int32).take(q)
        self.take = _frozen(rows)
        self._blocks = {}      # nf -> (keep, indptr, indices)

    def planes(self, weights: dict) -> np.ndarray:
        """The value planes, shaped (n_planes,) + grid shape, for the pair
        weights {(c, d): shaped w_cd} (c <= d; the c < d pairs only with
        rank_one).  Plane 0 is the diagonal."""
        padded = {}           # by array: the isotropic pairs share one
        for w in weights.values():
            if id(w) not in padded:
                padded[id(w)] = np.pad(w, 1)
        out = np.empty((self.n_planes,) + next(iter(weights.values())).shape)
        tmp = np.empty_like(out[0])
        started = [False] * self.n_planes
        for p, window, table, pair in self.slots:
            src = padded[id(weights[pair])][window]
            if started[p]:
                np.multiply(table, src, out=tmp)
                out[p] += tmp
            else:
                np.multiply(table, src, out=out[p])
                started[p] = True
        return out

    def matrix(self, planes: np.ndarray) -> sp.csr_matrix:
        """The matrix whose value planes are ``planes``."""
        return _csr(planes.reshape(-1).take(self.take), self.indices,
                    self.indptr, self.n)

    def free_block(self, A: sp.csr_matrix, nf: int) -> sp.csr_matrix:
        """The block of A, a matrix on this layout, on the nodes below y
        index nf, in their flat order."""
        if A.indptr is not self.indptr:
            raise ValueError("matrix is not on this energy layout")
        if nf not in self._blocks:
            free = self._iy < nf
            keep = np.repeat(free, np.diff(self.indptr)) & free[self.indices]
            kept = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
            block_indptr = np.concatenate(
                ([0], np.cumsum(np.diff(kept)[free]))).astype(np.int32)
            renumber = (np.arange(self.n) // self.ny * nf
                        + self._iy).astype(np.int32)
            self._blocks[nf] = (_frozen(keep), _frozen(block_indptr),
                                _frozen(renumber[self.indices[keep]]))
        keep, indptr, indices = self._blocks[nf]
        return _csr(A.data[keep], indices, indptr, indptr.size - 1)


def energy_layout(grid: CylinderGrid, rank_one: bool) -> EnergyLayout:
    """The grid's energy-matrix layout, built on first use and cached on
    the grid like its operators; ``rank_one`` for models with
    t-dependence."""
    return grid._cached(("energy_layout", bool(rank_one)),
                        lambda: EnergyLayout(grid, rank_one))


def free_block(grid: CylinderGrid, A: sp.csr_matrix, nf: int) -> sp.csr_matrix:
    """The block of A, an energy matrix of grid, on the nodes below y index
    nf, by the gather cached on A's layout."""
    for rank_one in (False, True):
        layout = grid._cache.get(("energy_layout", rank_one))
        if layout is not None and A.indptr is layout.indptr:
            return layout.free_block(A, nf)
    raise ValueError("matrix is not on an energy layout of this grid")


def assemble_energy_matrix(u: CylinderField, model: CoefficientModel,
                           reaction,
                           state: dict | None = None) -> sp.csr_matrix:
    """Sparse symmetric matrix of the second-variation quadratic form.

    phi^T A phi = int <B(y, grad u) grad phi, grad phi>
                + int g_u(y, u) phi^2 - int_bottom f'(u) phi^2,

    assembled with the same operators and weights as the weak residual, so A
    is also the Newton Jacobian of the residual vector.  The flux part is
    sum_{c,d} G_c^T diag(w (a delta_cd + (a_t/|g|) g_c g_d)) G_d, filled on
    the grid's cached EnergyLayout; it is symmetric bit for bit.  ``state``
    is coefficient_state(u, model) when the caller already holds it.
    """
    grid = u.grid
    if state is None:
        state = coefficient_state(u, model)
    tdep = model.has_t_dependence
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
    return layout.matrix(planes)


def separable_samples(u: CylinderField, reaction, state: dict) -> list:
    """[a, f', g_u]: the samples the y factors of a Kronecker sum reduce
    across the cross-section, a_red and g_u(y, u) shaped (cross-section
    nodes, ny) and the bottom f'(u) flat; g_u only when the reaction has
    one.  ``state`` is coefficient_state(u, model)."""
    grid, bottom = u.grid, u.values[..., 0]
    samples = [state["a_red"].reshape(-1, grid.ny),
               np.broadcast_to(reaction.f_prime(bottom), bottom.shape).ravel()]
    if reaction.g_u is not None:
        samples.append(np.broadcast_to(reaction.g_u(state["y"], u.values),
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


def separable_factors(u: CylinderField, model: CoefficientModel, reaction,
                      state: dict) -> tuple:
    """(m_y, K_y, exact): the y factors of the Kronecker sum nearest the
    energy matrix at u, and whether that sum is the energy matrix itself.

    The sum (separable_band) drops the rank-one term and replaces a_red,
    the bottom f'(u) and g_u(y, u) (separable_samples) by their means
    across the cross-section at each height.  exact is True when the model
    has no rank-one term and those three are each equal across the
    cross-section (exactly, no tolerance); their common values then stand
    in for the means, so the sum is assemble_energy_matrix's matrix.
    ``state`` is coefficient_state(u, model).
    """
    samples = separable_samples(u, reaction, state)
    exact = not (model.has_t_dependence
                 or any(np.any(v != v[0]) for v in samples))
    profiles = [v[0] if exact else v.mean(axis=0) for v in samples]
    return *separable_band(u.grid, state["theta"], *profiles), exact


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


def mass_matrix(u: CylinderField, model: CoefficientModel,
                state: dict | None = None) -> sp.csr_matrix:
    """Diagonal SPD mass: int a(y, |grad u|) phi^2 + int_bottom phi^2.
    ``state`` is coefficient_state(u, model) when the caller holds it."""
    grid = u.grid
    if state is None:
        state = coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"]).ravel()
    diag = w_theta * state["a_red"].ravel()
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = grid.bottom_weights()
    diag = diag + bottom.ravel()
    return sp.diags(diag).tocsr()

