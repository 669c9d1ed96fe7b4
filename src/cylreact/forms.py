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


def regularized_norm(comps: list[np.ndarray], regularize: bool) -> np.ndarray:
    sq = sum(c * c for c in comps)
    if regularize:
        return np.sqrt(sq + REG_EPS * REG_EPS)
    return np.sqrt(sq)


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
    norm_plain = regularized_norm(comps, regularize=False)
    norm_reg = regularized_norm(comps, regularize=True) if tdep else norm_plain
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
                         reaction) -> np.ndarray:
    """Flat nodal residual r with r[j] = weak form tested on the j-th hat.

    r[j] = int a grad u . grad e_j + int g(y, u) e_j - int_bottom f(u) e_j.
    Natural (zero-flux) conditions on every boundary face are built in; the
    bottom reaction replaces the flux there.
    """
    grid = u.grid
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


def assemble_energy_matrix(u: CylinderField, model: CoefficientModel,
                           reaction,
                           state: dict | None = None) -> sp.csr_matrix:
    """Sparse symmetric matrix of the second-variation quadratic form.

    phi^T A phi = int <B(y, grad u) grad phi, grad phi>
                + int g_u(y, u) phi^2 - int_bottom f'(u) phi^2,

    assembled with the same operators and weights as the weak residual, so A
    is also the Newton Jacobian of the residual vector.  ``state`` is
    coefficient_state(u, model) when the caller already holds it.
    """
    grid = u.grid
    if state is None:
        state = coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"]).ravel()
    a_red_flat = state["a_red"].ravel()
    Gs = grid.pairing_gradient_operators()
    A = None
    # isotropic part: sum_c G_c^T diag(w a) G_c
    for G in Gs:
        term = G.T @ (sp.diags(w_theta * a_red_flat) @ G)
        A = term if A is None else A + term
    # rank-one part: (a_t/|g|) (g . grad phi)^2
    if model.has_t_dependence:
        factor = w_theta * (state["a_t_red"].ravel() / state["norm_reg"].ravel())
        comps_flat = [c.ravel() for c in state["comps"]]
        for gc, Gc in zip(comps_flat, Gs):
            for gd, Gd in zip(comps_flat, Gs):
                A = A + Gc.T @ (sp.diags(factor * gc * gd) @ Gd)
    # bulk zero-order term
    if reaction.g_u is not None:
        w_plain = grid.bulk_weights(0.0).ravel()
        A = A + sp.diags(w_plain * reaction.g_u(state["y"].ravel(),
                                                u.values.ravel()))
    # bottom reaction linearization
    w_b = grid.bottom_weights().ravel()
    fp = reaction.f_prime(u.values[..., 0].ravel())
    diag_bottom = np.zeros(grid.shape)
    diag_bottom[..., 0] = (w_b * fp).reshape(diag_bottom[..., 0].shape)
    A = A - sp.diags(diag_bottom.ravel())
    return A.tocsr()


def separable_factors(u: CylinderField, model: CoefficientModel, reaction,
                      state: dict) -> tuple | None:
    """(m_y, K_y) when the energy matrix at u is a Kronecker sum, else None.

    Without the rank-one term, and with a_red, the bottom f'(u) and g_u(y, u)
    each equal across the cross-section at every height (exactly, no
    tolerance), the matrix of assemble_energy_matrix factors as

        A = sum_k (x_{m != k} W_m) x K_k x M_y  +  (x_m W_m) x K_y,

    with W_m, K_k the trapezoid weights and pairing stiffness of cross-section
    axis k (see CylinderGrid.cross_section_modes), M_y = diag(m_y) for
    m_y = y_weights(theta) * a_y, and the pentadiagonal sparse
    K_y = D_y^T M_y D_y - f' e_0 e_0^T + diag(y_weights(0) * g_u).
    ``state`` is coefficient_state(u, model).
    """
    if model.has_t_dependence:
        return None
    grid = u.grid
    a = state["a_red"].reshape(-1, grid.ny)
    bottom = u.values[..., 0]
    fp = np.broadcast_to(reaction.f_prime(bottom), bottom.shape).ravel()
    if np.any(a != a[0]) or np.any(fp != fp[0]):
        return None
    m_y = grid.y_weights(state["theta"]) * a[0]
    D = grid.pairing_diff_1d(grid.n_components - 1)
    K_y = D.T @ sp.diags(m_y) @ D
    zero_order = np.zeros(grid.ny)
    zero_order[0] = -fp[0]
    if reaction.g_u is not None:
        gu = np.broadcast_to(reaction.g_u(state["y"], u.values),
                             grid.shape).reshape(-1, grid.ny)
        if np.any(gu != gu[0]):
            return None
        zero_order += grid.y_weights(0.0) * gu[0]
    return m_y, (K_y + sp.diags(zero_order)).tocsr()


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


def mass_matrix(u: CylinderField, model: CoefficientModel) -> sp.csr_matrix:
    """Diagonal SPD mass: int a(y, |grad u|) phi^2 + int_bottom phi^2."""
    grid = u.grid
    state = coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"]).ravel()
    diag = w_theta * state["a_red"].ravel()
    bottom = np.zeros(grid.shape)
    bottom[..., 0] = grid.bottom_weights()
    diag = diag + bottom.ravel()
    return sp.diags(diag).tocsr()


def free_indices(grid: CylinderGrid, vanish_above: float | None = None) -> np.ndarray:
    """Flat indices of the discrete test space: nodes below the top slice,
    optionally further restricted to y < vanish_above."""
    keep = ~grid.top_mask()
    if vanish_above is not None:
        # y is the trailing axis, so a 1D mask broadcasts across the slice.
        keep = keep & np.broadcast_to(grid.y_nodes < vanish_above, grid.shape)
    return np.flatnonzero(keep.ravel())
