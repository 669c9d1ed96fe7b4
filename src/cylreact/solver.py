"""Damped-Newton solver for the boundary reaction-diffusion weak form.

The problem on the truncated half-cylinder Omega x (0, Y_max):

    div(a(y, |grad u|) grad u) = g(y, u)      in the bulk,
    zero flux on the lateral walls and (by default) at the truncation height,
    -a(y, |grad u|) du/dy = f(u)              on the bottom slice.

The discrete unknowns are all nodal values.  Each node below the top slice
contributes the weak residual tested on its hat; top nodes either contribute
their own weak row (natural zero-flux truncation, the default) or are pinned
to a Dirichlet value (needed when the bottom flux has nonzero mean, since an
all-Neumann truncation is then incompatible).  The Newton matrix is the
assembled second-variation form, i.e. the B-weighted stiffness plus reaction
linearizations, and steps are damped by Armijo backtracking on the squared
residual norm.

A small catalog of closed-form solutions is included for residual and
stability checks, together with a one-dimensional family u(y) = c -
f(c) * int_0^y dz / a(z) available for y-only coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MIN_STEP = 2.0 ** -20
# SuperLU symmetric mode keeps the diagonal pivot unless it is smaller than
# this fraction of its column's largest entry (see _linear_step).  At 0.0
# the indefinite 33x9x33 rectangle Jacobian solved to a relative residual of
# 3e-12, at 0.01 to 7e-13, with the same fill on every benchmark state.
LU_DIAG_PIVOT_THRESH = 0.01

CONVEX = "convex"
CONCAVE = "concave"


@dataclass(frozen=True)
class ReactionSpec:
    """Bottom nonlinearity f and bulk source g with their derivatives.

    g is None when identically zero (the common case).  All callables must
    accept numpy arrays.  convexity marks f as strictly convex/concave for
    the convexity-gap check; leave None when neither holds.
    """

    f: Callable
    f_prime: Callable
    f_second: Callable | None = None
    g: Callable | None = None
    g_u: Callable | None = None
    kind: str = "custom"
    convexity: str | None = None

    @classmethod
    def linear(cls, k: float) -> "ReactionSpec":
        return cls(f=lambda u: k * np.asarray(u, dtype=float),
                   f_prime=lambda u: np.full_like(np.asarray(u, dtype=float), k),
                   f_second=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                   kind=f"linear({k})")

    @classmethod
    def constant(cls, k: float) -> "ReactionSpec":
        return cls(f=lambda u: np.full_like(np.asarray(u, dtype=float), k),
                   f_prime=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                   f_second=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                   kind=f"constant({k})")

    @classmethod
    def cubic(cls) -> "ReactionSpec":
        return cls(f=lambda u: -np.asarray(u, dtype=float) ** 3,
                   f_prime=lambda u: -3.0 * np.asarray(u, dtype=float) ** 2,
                   f_second=lambda u: -6.0 * np.asarray(u, dtype=float),
                   kind="cubic")

    @classmethod
    def custom(cls, f, f_prime, f_second=None, g=None, g_u=None,
               convexity=None) -> "ReactionSpec":
        return cls(f=f, f_prime=f_prime, f_second=f_second, g=g, g_u=g_u,
                   kind="custom", convexity=convexity)

    def shifted(self, delta: float) -> "ReactionSpec":
        """Replace f by f - delta*u (so f' drops by delta), keeping the pair
        consistent.  Used by the monotonicity checks."""
        f, fp = self.f, self.f_prime
        fs = self.f_second
        return ReactionSpec(
            f=lambda u: f(u) - delta * np.asarray(u, dtype=float),
            f_prime=lambda u: fp(u) - delta,
            f_second=fs, g=self.g, g_u=self.g_u,
            kind=f"{self.kind}-shift({delta})", convexity=self.convexity)


@dataclass
class SolveReport:
    """Outcome of a Newton run."""

    u: CylinderField
    converged: bool
    newton_iterations: int
    final_residual: float
    residual_history: list = field(default_factory=list)
    # Linear-step telemetry (factorizations, lu_fill_nnz, lsmr_fallbacks,
    # backtracks: step halvings per accepted step); not part of the
    # serialized report.
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "converged": bool(self.converged),
            "newton_iterations": int(self.newton_iterations),
            "final_residual": float(self.final_residual),
            "residual_history": [float(r) for r in self.residual_history],
        }


def residual_weak(u: CylinderField, model: CoefficientModel,
                  reaction: ReactionSpec, phi: CylinderField) -> float:
    """Weak-form residual of u tested against phi:

        int a(y,|grad u|) grad u . grad phi + int g(y,u) phi
        - int_bottom f(u) phi.

    phi must vanish identically on the top slice (the truncated stand-in for
    bounded support in y).
    """
    if phi.grid is not u.grid and phi.grid.shape != u.grid.shape:
        raise ValueError("phi must live on the same grid as u")
    if np.any(phi.values[..., -1] != 0.0):
        raise ValueError("test field must vanish on the top slice")
    grid = u.grid
    state = forms.coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"])
    phi_comps = forms.gradient_fields(grid, phi.values, pairing=True)
    dot = sum(state["a_red"] * gc * pc
              for gc, pc in zip(state["comps"], phi_comps))
    total = float(np.sum(w_theta * dot))
    if reaction.g is not None:
        total += float(np.sum(grid.bulk_weights(0.0)
                              * reaction.g(state["y"], u.values) * phi.values))
    w_b = grid.bottom_weights()
    total -= float(np.sum(w_b * reaction.f(u.values[..., 0])
                          * phi.values[..., 0]))
    return total


def residual_vector(u: CylinderField, model: CoefficientModel,
                    reaction: ReactionSpec, top_bc=("neumann",)) -> np.ndarray:
    """Nodal residual of the discrete system (flat, lexicographic)."""
    r = forms.weak_residual_vector(u, model, reaction)
    if top_bc[0] == "dirichlet":
        top = np.flatnonzero(u.grid.top_mask().ravel())
        r[top] = u.values.ravel()[top] - top_bc[1]
    elif top_bc[0] != "neumann":
        raise ValueError(f"unknown top boundary mode {top_bc[0]!r}")
    return r


def _newton_matrix(u: CylinderField, model, reaction, top_bc) -> sp.csr_matrix:
    A = forms.assemble_energy_matrix(u, model, reaction)
    if top_bc[0] == "dirichlet":
        keep = (~u.grid.top_mask().ravel()).astype(float)
        # zero the top rows and put a unit on their diagonal, in CSR
        A = (sp.diags(keep) @ A + sp.diags(1.0 - keep)).tocsr()
    return A


def _linear_step(A: sp.csr_matrix, rhs: np.ndarray, stats: dict) -> np.ndarray:
    """Direct sparse solve with a least-squares fallback.

    The LU orders columns by minimum degree on the structure of A + A^T
    (``MMD_AT_PLUS_A``) and runs SuperLU in symmetric mode, which keeps the
    diagonal pivot unless it is below LU_DIAG_PIVOT_THRESH times the largest
    entry left in its column.  That fits the Newton matrix: it is the
    symmetric second-variation stencil, and pinned top rows are unit rows,
    so A + A^T has the stencil's structure and diagonal pivots keep the
    ordering's fill.  The small threshold still steps around tiny diagonals
    of the indefinite (unstable) states.  A is factored as D A D with
    D = diag(row max |A|)^{-1/2}, so unit pinned rows and stiffness rows meet
    the threshold on one scale: with a = e^y up to y = 8 a unit pivot sits
    beside couplings near 585, and unscaled the threshold took 492 off-diagonal
    pivots at 129^2 and nearly doubled the fill.

    The fallback covers singular-but-consistent systems (all-Neumann with a
    zero reaction has the constants in its kernel) and any factorization
    whose solve misses the linear residual bound; LSMR then returns the
    minimum-norm step, which keeps iterates bounded.

    stats counts factorizations and LSMR fallbacks and keeps the largest
    ``lu.nnz``, SuperLU's count of stored L and U entries.  It equals
    L.nnz + U.nnz up to the explicit zeros of SuperLU's supernodes (52 of
    211 056 at 49^2) and, unlike them, does not copy the factors out.
    """
    try:
        d = 1.0 / np.sqrt(abs(A).max(axis=1).toarray().ravel())
        lu = spla.splu((sp.diags(d) @ A @ sp.diags(d)).tocsc(),
                       permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=LU_DIAG_PIVOT_THRESH,
                       options={"SymmetricMode": True})
        stats["factorizations"] += 1
        stats["lu_fill_nnz"] = max(stats["lu_fill_nnz"], int(lu.nnz))
        delta = d * lu.solve(d * rhs)
        if np.all(np.isfinite(delta)):
            lin_res = np.linalg.norm(A @ delta - rhs)
            if lin_res <= 1e-6 * (np.linalg.norm(rhs) + 1e-30):
                return delta
    except RuntimeError:
        pass
    stats["lsmr_fallbacks"] += 1
    out = spla.lsmr(A, rhs, atol=1e-13, btol=1e-13, maxiter=10 * A.shape[0])
    return out[0]


def solve_newton(model: CoefficientModel, reaction: ReactionSpec,
                 grid: CylinderGrid, init: CylinderField,
                 tol: float = 1e-10, max_iter: int = 50,
                 top_bc=("neumann",)) -> SolveReport:
    """Damped Newton on the nodal weak residual.

    Convergence is max-norm of the nodal residual <= tol.  top_bc is
    ("neumann",) for the natural zero-flux truncation or
    ("dirichlet", value) to pin the top slice.
    """
    if init.grid is not grid and init.grid.shape != grid.shape:
        raise ValueError("init must live on the solve grid")
    u = init.copy()
    history = []
    r = residual_vector(u, model, reaction, top_bc)
    rnorm = float(np.max(np.abs(r)))
    history.append(rnorm)
    stats = {"factorizations": 0, "lu_fill_nnz": 0, "lsmr_fallbacks": 0,
             "backtracks": []}
    it = 0
    while rnorm > tol and it < max_iter:
        A = _newton_matrix(u, model, reaction, top_bc)
        delta = _linear_step(A, -r, stats)
        base_sq = float(np.dot(r, r))
        lam = 1.0
        halvings = 0
        accepted = False
        while lam >= MIN_STEP:
            trial = CylinderField(grid, u.values + lam * delta.reshape(grid.shape))
            r_trial = residual_vector(trial, model, reaction, top_bc)
            if float(np.dot(r_trial, r_trial)) <= (1.0 - ARMIJO_SLOPE * lam) * base_sq:
                u, r = trial, r_trial
                accepted = True
                break
            lam *= ARMIJO_FACTOR
            halvings += 1
        if not accepted:
            break
        stats["backtracks"].append(halvings)
        rnorm = float(np.max(np.abs(r)))
        history.append(rnorm)
        it += 1
    return SolveReport(u=u, converged=bool(rnorm <= tol),
                       newton_iterations=it, final_residual=rnorm,
                       residual_history=history, stats=stats)


# -- catalog of closed-form solutions ---------------------------------------

DECAY_COS = "decay-cos"
GROW_COS = "grow-cos"
LINEAR_Y = "linear-y"
EXP_DECAY = "exp-decay"
ONE_DIM_FAMILY = "one-dim-family"

CATALOG_NAMES = (DECAY_COS, GROW_COS, LINEAR_Y, EXP_DECAY, ONE_DIM_FAMILY)


def catalog_solution(name: str, grid: CylinderGrid, model=None, reaction=None,
                     c: float = 0.0) -> CylinderField:
    """Sample a catalog solution on the grid.

    decay-cos: e^{-y} cos x, solving a = 1, g = 0, f(u) = u (on intervals
      whose endpoints are multiples of pi, so the lateral flux vanishes).
    grow-cos:  e^{y} cos x, same setup with f(u) = -u.
    linear-y:  u = y, a = 1, g = 0, f = -1.
    exp-decay: u = e^{-y}, a = e^y, g = 0, f = 1.
    one-dim-family: u(y) = c - f(c) int_0^y dz/a(z, 0), for y-only
      coefficients; needs model and reaction, and a locally integrable 1/a.
    """
    coords = grid.coordinate_arrays()
    y = coords[-1]
    x = coords[0]
    if name == DECAY_COS:
        return CylinderField(grid, np.exp(-y) * np.cos(x))
    if name == GROW_COS:
        return CylinderField(grid, np.exp(y) * np.cos(x))
    if name == LINEAR_Y:
        return CylinderField(grid, y.copy())
    if name == EXP_DECAY:
        return CylinderField(grid, np.exp(-y))
    if name == ONE_DIM_FAMILY:
        if model is None or reaction is None:
            raise ValueError("one-dim-family needs model and reaction")
        if model.y_exponent >= 1.0:
            raise ValueError("1/a is not integrable near y = 0")
        fc = float(reaction.f(np.asarray([c]))[0])
        profile = _one_dim_profile(model, fc, c, grid.y_nodes)
        vals = np.broadcast_to(profile, grid.shape).copy()
        return CylinderField(grid, vals)
    raise ValueError(f"unknown catalog solution {name!r}")


def _one_dim_profile(model: CoefficientModel, fc: float, c: float,
                     y_nodes: np.ndarray) -> np.ndarray:
    """c - fc * int_0^y dz / a(z, 0) by adaptive quadrature, cell by cell."""
    if fc == 0.0:
        return np.full_like(y_nodes, c)

    def inv_a(z):
        return 1.0 / (model.reduced_a(np.asarray([z]), np.asarray([0.0]))[0]
                      * z ** model.y_exponent)

    vals = np.empty_like(y_nodes)
    vals[0] = c
    acc = 0.0
    for j in range(1, y_nodes.size):
        seg, _ = scipy.integrate.quad(inv_a, y_nodes[j - 1], y_nodes[j],
                                      limit=200)
        if not np.isfinite(seg):
            raise ValueError("1/a is not integrable on the requested range")
        acc += seg
        vals[j] = c - fc * acc
    return vals


def check_y_dependence(u: CylinderField) -> float:
    """Maximum over y-slices of the cross-sectional spread (max - min)."""
    v = u.values.reshape(-1, u.grid.ny)
    return float(np.max(v.max(axis=0) - v.min(axis=0)))


def extremum_sign_check(u: CylinderField, reaction: ReactionSpec,
                        tol: float = 1e-8) -> dict:
    """Check the extremum-location and reaction-sign conclusions.

    For bounded stable states under a t-monotone coefficient and zero bulk
    source, the discrete infimum c should be attained on the bottom slice and
    f(c) should be nonpositive.  Returns the measured pieces; hypothesis
    gating (a_t <= 0, g absent) is the caller's job.
    """
    c = float(np.min(u.values))
    bottom_min = float(np.min(u.values[..., 0]))
    fc = float(reaction.f(np.asarray([c]))[0])
    return {
        "infimum": c,
        "bottom_min": bottom_min,
        "attained_on_bottom": bool(bottom_min <= c + tol),
        "f_at_infimum": fc,
        "sign_ok": bool(fc <= tol),
        "ok": bool(bottom_min <= c + tol and fc <= tol),
    }
