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
residual norm in ``damped_newton``, the one loop that also drives the
spectral semilinear solve.

Each Newton system is solved by the first of three routes whose step meets
the linear residual bound (``_linear_step``): fast diagonalization where the
matrix is a Kronecker sum of 1D operators (``forms.separable_factors``);
otherwise conjugate gradients preconditioned by fast diagonalization of the
cross-section-averaged Kronecker sum; then LSMR.  Fast diagonalization takes
the eigenpairs of every axis, cross-section and y alike, so its solve is
dense matrix products and one division.

A small catalog of closed-form solutions is included for residual and
stability checks, together with a one-dimensional family u(y) = c -
f(c) * int_0^y dz / a(z) available for y-only coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid, pencil_modes

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MIN_STEP = 2.0 ** -20
# Relative residual at which conjugate gradients stops on a non-separable
# Newton block (see _linear_step).  At 1e-7 the 33^2 mean-curvature
# solve of the tests takes 24 Newton steps; at 1e-10 it keeps the 21 steps
# and 40 halvings of a sparse direct solve.
KRYLOV_RTOL = 1e-10
# Iteration cap of that solve.  The benchmark's p-Laplace and
# mean-curvature steps take 14 to 137 iterations.  An inconsistent system
# never converges: an all-Neumann p-Laplace step with f = -1 at 65^2 ran
# 9122 iterations (3.9 s) uncapped, 500 (0.2 s) at the cap.
KRYLOV_MAXITER = 500


@dataclass(frozen=True)
class ReactionSpec:
    """Bottom nonlinearity f and bulk source g with their derivatives.

    g is None when identically zero (the common case).  All callables must
    accept numpy arrays.
    """

    f: Callable
    f_prime: Callable
    # Never read; kept while benchmark/workloads.py passes it to custom.
    f_second: Callable | None = None
    g: Callable | None = None
    g_u: Callable | None = None

    @classmethod
    def linear(cls, k: float) -> "ReactionSpec":
        return cls(f=lambda u: k * np.asarray(u, dtype=float),
                   f_prime=lambda u: np.full_like(np.asarray(u, dtype=float), k))

    @classmethod
    def constant(cls, k: float) -> "ReactionSpec":
        return cls(f=lambda u: np.full_like(np.asarray(u, dtype=float), k),
                   f_prime=lambda u: np.zeros_like(np.asarray(u, dtype=float)))

    @classmethod
    def cubic(cls) -> "ReactionSpec":
        return cls(f=lambda u: -np.asarray(u, dtype=float) ** 3,
                   f_prime=lambda u: -3.0 * np.asarray(u, dtype=float) ** 2)

    @classmethod
    def custom(cls, f, f_prime, f_second=None, g=None,
               g_u=None) -> "ReactionSpec":
        return cls(f=f, f_prime=f_prime, f_second=f_second, g=g, g_u=g_u)

    def shifted(self, delta: float) -> "ReactionSpec":
        """Replace f by f - delta*u (so f' drops by delta), keeping the pair
        consistent.  The presets build 1 - u and -u - u^3 this way."""
        f, fp = self.f, self.f_prime
        return ReactionSpec(
            f=lambda u: f(u) - delta * np.asarray(u, dtype=float),
            f_prime=lambda u: fp(u) - delta, g=self.g, g_u=self.g_u)


@dataclass
class SolveReport:
    """Outcome of a Newton run."""

    u: CylinderField
    converged: bool
    newton_iterations: int
    final_residual: float
    residual_history: list = field(default_factory=list)
    # Linear-step telemetry (separable_solves, krylov_solves,
    # krylov_iterations, lsmr_fallbacks, backtracks: step halvings per
    # accepted step); not part of the serialized report.
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
    # Exact by linearity: entry j of the nodal residual is the form tested
    # on the j-th hat, and phi is the sum of its nodal values times hats.
    return float(phi.values.ravel() @ forms.weak_residual_vector(u, model,
                                                                 reaction))


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


def _newton_system(u: CylinderField, model, reaction, top_bc) -> tuple:
    """(A, separable): the Newton matrix at u and the ``separable``
    argument of _linear_step, (grid, m_y, K_y, exact) from
    forms.separable_factors.

    One coefficient state serves both.  A pinned top slice has unit rows
    in A and is cut from the y factors.
    """
    state = forms.coefficient_state(u, model)
    A = forms.assemble_energy_matrix(u, model, reaction, state=state)
    m_y, K_y, exact = forms.separable_factors(u, model, reaction, state)
    if top_bc[0] == "dirichlet":
        keep = (~u.grid.top_mask().ravel()).astype(float)
        # zero the top rows and put a unit on their diagonal, in CSR
        A = (sp.diags(keep) @ A + sp.diags(1.0 - keep)).tocsr()
        m_y, K_y = m_y[:-1], K_y[:-1, :-1]
    return A, (u.grid, m_y, K_y, exact)


def _solves(A: sp.csr_matrix, delta: np.ndarray, rhs: np.ndarray) -> bool:
    """delta is finite and ||A delta - rhs|| <= 1e-6 ||rhs||."""
    return bool(np.all(np.isfinite(delta))
                and np.linalg.norm(A @ delta - rhs)
                <= 1e-6 * (np.linalg.norm(rhs) + 1e-30))


def _separable_factor(grid: CylinderGrid, m_y: np.ndarray,
                      K_y: sp.csr_matrix) -> Callable:
    """Diagonalize the Kronecker sum of forms.separable_factors once, by
    fast diagonalization (Lynch, Rice & Thomas 1964), and return its solve.

    The sum acts on the free nodes, those below y index m_y.size.  (lam, Phi)
    are the W-orthonormal modes of every cross-section axis
    (CylinderGrid.cross_section_modes) and (mu, V) the M_y-orthonormal
    eigenpairs of K_y V = M_y V diag(mu) (cylinder.pencil_modes).  Then

        A^{-1} = (Phi x V) diag(1 / (lam + mu)) (Phi x V)^T,

    and the returned solve maps a right-hand side shaped like the free nodes
    to that product: one matrix product per axis, a multiply by the
    precomputed 1 / (lam + mu), one product per axis back.  It is symmetric
    by construction.  Raises LinAlgError when M_y is not positive or some
    lam + mu is exactly zero.
    """
    if not np.all(m_y > 0.0):
        raise np.linalg.LinAlgError("separable mass is not positive")
    mu, V = pencil_modes(K_y, m_y)
    lams, phis = zip(*[grid.cross_section_modes(k)
                       for k in range(grid.n_components - 1)])
    lam_mu = reduce(np.add.outer, lams + (mu,))
    if not np.all(lam_mu):
        raise np.linalg.LinAlgError("singular separable sum")
    inv = 1.0 / lam_mu
    shape = inv.shape

    def along(z, k, op):
        # op applied along cross-section axis k of z: one product, batched
        # over the axes before k (a plain one for the first axis)
        lead = (int(np.prod(shape[:k])),) if k else ()
        return (op @ z.reshape(*lead, shape[k], -1)).reshape(shape)

    def solve(r: np.ndarray) -> np.ndarray:
        z = (r.reshape(-1, m_y.size) @ V).reshape(shape)
        for k, phi in enumerate(phis):
            z = along(z, k, phi.T)
        z *= inv
        for k, phi in enumerate(phis):
            z = along(z, k, phi)
        return (z.reshape(-1, m_y.size) @ V.T).reshape(shape)
    return solve


def _linear_step(A: sp.csr_matrix, rhs: np.ndarray, stats: dict,
                 separable: tuple) -> np.ndarray:
    """Solve A delta = rhs through the Kronecker sum of
    forms.separable_factors, else by LSMR.

    ``separable`` is (grid, m_y, K_y, exact) from _newton_system.  The
    nodes at and above y index m_y.size are pinned, with unit rows in A:
    their values are read off those rows and their coupling moves to the
    right-hand side, which leaves the free block of A, symmetric like A
    before pinning.  When the sum is exact it is that block, and its solve
    (_separable_factor) is applied to the right-hand side and once more to
    the residual left in A's free rows (one step of iterative refinement).
    Otherwise the block is solved by conjugate gradients preconditioned
    with that solve (Concus & Golub 1973), to KRYLOV_RTOL or for at
    most KRYLOV_MAXITER iterations.

    The step is accepted only if it is finite and meets the linear
    residual bound ||A delta - rhs|| <= 1e-6 ||rhs|| on A itself.  If it
    misses, or the solve raises LinAlgError, LSMR returns the minimum-norm
    step, which keeps iterates bounded.  That covers singular-but-consistent
    systems (all-Neumann with a zero reaction has the constants in its
    kernel, and so does the sum) and a conjugate-gradient solve stopped at
    its cap.

    stats counts accepted separable solves (exact Kronecker sums) and
    Krylov solves (conjugate gradients), every conjugate-gradient
    iteration, whether or not its step is accepted, and LSMR fallbacks.
    """
    grid, m_y, K_y, exact = separable
    nf = m_y.size
    delta = np.zeros(grid.shape)
    delta[..., nf:] = rhs.reshape(grid.shape)[..., nf:]

    def free_residual():
        return (rhs - A @ delta.ravel()).reshape(grid.shape)[..., :nf]

    try:
        solve = _separable_factor(grid, m_y, K_y)
        if exact:
            # the solve, then one step of iterative refinement
            for _ in range(2):
                delta[..., :nf] += solve(free_residual())
        else:
            r = free_residual()
            free = np.arange(grid.n_nodes).reshape(grid.shape)[..., :nf].ravel()
            A_free = A if nf == grid.ny else A[free][:, free]
            M = spla.LinearOperator(
                A_free.shape, dtype=float,
                matvec=lambda v: solve(v.reshape(r.shape)).ravel())

            def count(_):
                stats["krylov_iterations"] += 1

            x, _ = spla.cg(A_free, r.ravel(), rtol=KRYLOV_RTOL,
                           maxiter=KRYLOV_MAXITER, M=M, callback=count)
            delta[..., :nf] = x.reshape(r.shape)
        if _solves(A, delta.ravel(), rhs):
            stats["separable_solves" if exact else "krylov_solves"] += 1
            return delta.ravel()
    except np.linalg.LinAlgError:
        pass
    stats["lsmr_fallbacks"] += 1
    out = spla.lsmr(A, rhs, atol=1e-13, btol=1e-13, maxiter=10 * A.shape[0])
    return out[0]


def damped_newton(residual: Callable, newton_step: Callable, x: np.ndarray,
                  tol: float, max_iter: int):
    """Newton's method with Armijo backtracking on the squared residual norm.

    residual(x) is a flat vector and newton_step(x, r) solves the Newton
    system J(x) delta = -r for a step shaped like x.  Each step halves its
    length until ||r||^2 falls by the factor 1 - ARMIJO_SLOPE * length,
    and a step shorter than MIN_STEP stalls the iteration.  Converged means
    max|r| <= tol.  Returns (x, r, history, halvings_per_step, stalled):
    history holds max|r| at the start and after every accepted step.
    """
    r = residual(x)
    history = [float(np.max(np.abs(r)))]
    halvings_per_step = []
    while history[-1] > tol and len(halvings_per_step) < max_iter:
        delta = newton_step(x, r)
        base_sq = float(np.dot(r, r))
        lam, halvings = 1.0, 0
        while True:
            if lam < MIN_STEP:
                return x, r, history, halvings_per_step, True
            trial = x + lam * delta
            r_trial = residual(trial)
            if float(np.dot(r_trial, r_trial)) <= (1.0 - ARMIJO_SLOPE * lam) * base_sq:
                break
            lam *= ARMIJO_FACTOR
            halvings += 1
        x, r = trial, r_trial
        halvings_per_step.append(halvings)
        history.append(float(np.max(np.abs(r))))
    return x, r, history, halvings_per_step, False


def pinned_top(u: CylinderField) -> tuple:
    """top_bc pinning the top slice to u's own trace.

    A closed-form profile is solved with this truncation: the constant-flux
    reactions are incompatible with a zero-flux top (their flux leaves
    through y -> infinity), so the faithful truncation is Dirichlet.
    """
    return ("dirichlet", u.values[..., -1].ravel().copy())


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
    stats = {"separable_solves": 0, "krylov_solves": 0,
             "krylov_iterations": 0, "lsmr_fallbacks": 0}

    def residual(x):
        return residual_vector(CylinderField(grid, x), model, reaction, top_bc)

    def newton_step(x, r):
        A, separable = _newton_system(CylinderField(grid, x), model,
                                      reaction, top_bc)
        return _linear_step(A, -r, stats, separable).reshape(grid.shape)

    x, _, history, halvings, _ = damped_newton(
        residual, newton_step, init.values.copy(), tol, max_iter)
    stats["backtracks"] = halvings
    rnorm = history[-1]
    return SolveReport(u=CylinderField(grid, x), converged=bool(rnorm <= tol),
                       newton_iterations=len(halvings), final_residual=rnorm,
                       residual_history=history, stats=stats)


# -- catalog of closed-form solutions ---------------------------------------

DECAY_COS = "decay-cos"
GROW_COS = "grow-cos"
LINEAR_Y = "linear-y"
EXP_DECAY = "exp-decay"
ONE_DIM_FAMILY = "one-dim-family"


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
    import scipy.integrate

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
