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
linearizations, for either top: a pinned top's step is read off its
residual rows, and the rest is solved on the matrix's free block below the
top slice, the block the stability test space also uses.  Both are read
at one coefficient state (forms.coefficient_state).  Steps are damped by
Armijo backtracking on the squared residual norm in ``damped_newton``, the
one loop that also drives the spectral semilinear solve; it hands each
step the residual and state of the iterate it starts from.  A pinned top
with nonzero data is globalized by continuation in that data once Armijo
damps a step after the first (``solve_newton``); every other solve is
plain Armijo.

Each Newton system is solved by one of two routes (``_newton_step``): fast
diagonalization (``forms.separable_solve``) where the matrix is a Kronecker
sum of 1D operators (``forms.separable_factors``), otherwise conjugate
gradients preconditioned by fast diagonalization of the
cross-section-averaged Kronecker sum.  Conjugate gradients stops
at KRYLOV_RTOL, one decade under the STEP_RTOL residual a step must meet
(an inexact Newton step, Dembo, Eisenstat & Steihaug 1982), and a step
that misses STEP_RTOL ends the solve with a stop reason.

A small catalog of closed-form solutions is included for residual and
stability checks, together with a one-dimensional family u(y) = c -
f(c) * int_0^y dz / a(z) available for y-only coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MIN_STEP = 2.0 ** -20
STALLED = "Armijo line search stalled"
# Smallest step in the pinned data that continuation takes (solve_newton);
# a stage that fails closer than this to the last accepted one ends it.
MIN_CONTINUATION_STEP = 2.0 ** -6
# Relative residual ||A delta + r|| / ||r|| over the free rows that a
# Newton step from the residual r must meet to be taken (see _newton_step).
STEP_RTOL = 1e-6
# Relative residual at which conjugate gradients stops on a non-separable
# Newton block: an inexact Newton forcing term (Dembo, Eisenstat & Steihaug
# 1982), one decade under STEP_RTOL for the gap between the residual that
# scipy's cg recurs and the true one.
KRYLOV_RTOL = 0.1 * STEP_RTOL
# Iteration cap of that solve.  The benchmark's p-Laplace and
# mean-curvature steps take 9 to 52 iterations.  An inconsistent system
# never converges: an all-Neumann p-Laplace step with f = -1 at 65^2 ran
# 9122 iterations (3.9 s) uncapped, 500 (0.2 s) at the cap.
KRYLOV_MAXITER = 500
NEWTON_MAXITER = 50
EXTREMUM_TOL = 1e-8


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
        # u * u * u, not u ** 3: libm pow takes a slow path on negative
        # bases, and the product is exactly odd and within one ulp of it
        def f(u):
            u = np.asarray(u, dtype=float)
            return -(u * u * u)
        return cls(f=f,
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
    # krylov_iterations, krylov_residual_max: the largest relative
    # free-row residual of an accepted Krylov step, 0.0 when none was,
    # backtracks: step halvings per accepted step), the
    # continuation trail (continuation: one [lambda, accepted steps,
    # accepted] per stage, empty when plain Armijo ran alone) and
    # stop_reason (None when converged).  Only stop_reason is serialized,
    # and only for a solve that did not converge (to_json_dict).
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "converged": bool(self.converged),
            "newton_iterations": int(self.newton_iterations),
            "final_residual": float(self.final_residual),
            "residual_history": [float(r) for r in self.residual_history],
        }
        if not self.converged:
            out["stop_reason"] = self.stats["stop_reason"]
        return out


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
    r = forms.weak_residual_vector(forms.coefficient_state(u, model), reaction)
    return float(phi.values.ravel() @ r)


def residual_vector(u: CylinderField, model: CoefficientModel,
                    reaction: ReactionSpec, top_bc=("neumann",)) -> np.ndarray:
    """Nodal residual of the discrete system (flat, lexicographic)."""
    return _residual(forms.coefficient_state(u, model), reaction, top_bc)


def _residual(state: dict, reaction: ReactionSpec, top_bc) -> np.ndarray:
    """residual_vector at the u of the coefficient state ``state``."""
    u = state["u"]
    r = forms.weak_residual_vector(state, reaction)
    if top_bc[0] == "dirichlet":
        top = np.flatnonzero(u.grid.top_mask().ravel())
        r[top] = u.values.ravel()[top] - top_bc[1]
    elif top_bc[0] != "neumann":
        raise ValueError(f"unknown top boundary mode {top_bc[0]!r}")
    return r


def _newton_step(state: dict, reaction: ReactionSpec, nf: int,
                 r: np.ndarray, stats: dict) -> np.ndarray | None:
    """Solve the Newton system A delta = -r, r the residual at the u of
    the coefficient state ``state``, through the Kronecker sum of
    forms.separable_factors, exactly or by preconditioned CG.

    A is the energy matrix (forms.energy_planes) for either top.  The
    nodes at and above y index nf are pinned (none for a Neumann top, nf =
    ny): their step is -r there, and A's rows there are never read.  The
    coupling of the free rows to them moves to the right-hand side, which
    leaves A's free block below nf, symmetric like A.  When the sum is
    exact it is that block, and its solve (forms.separable_solve) is
    applied to the right-hand side and once more to the residual left in
    A's free rows (one step of iterative refinement).  Otherwise the
    block, built from the same planes as a matrix of its own (A itself
    with a Neumann top), is solved by conjugate gradients preconditioned
    with that solve (Concus & Golub 1973), to the relative residual
    KRYLOV_RTOL, one decade under STEP_RTOL (an inexact Newton step), or
    for at most KRYLOV_MAXITER iterations.

    The step is returned only if it is finite and meets the linear
    residual bound ||A delta + r|| <= STEP_RTOL ||r|| over A's free rows
    (on the pinned rows that residual is 0 by construction).  Else, or if
    the factor raises LinAlgError, the return is None and
    stats["stop_reason"] names the route and the relative residual.

    stats counts returned separable solves (exact Kronecker sums) and
    Krylov solves (conjugate gradients), and every conjugate-gradient
    iteration, whether or not its step is returned;
    stats["krylov_residual_max"] is the largest relative residual of a
    returned Krylov step.
    """
    grid = state["grid"]
    layout, planes = forms.energy_planes(state, reaction)
    m_y, K_y, exact = forms.separable_factors(state, reaction, nf)
    A = layout.matrix(planes, grid.ny)
    # conjugate gradients' matrix; an exact sum's solve needs none
    A_free = A if exact or nf == grid.ny else layout.matrix(planes, nf)
    del planes   # the solves read only matrices
    rhs = -r     # made past the planes, the step's memory peak
    route = "separable" if exact else "krylov"
    delta = np.zeros(grid.shape)
    delta[..., nf:] = rhs.reshape(grid.shape)[..., nf:]

    def free_residual():
        return (rhs - A @ delta.ravel()).reshape(grid.shape)[..., :nf]

    try:
        solve = forms.separable_solve(grid, m_y, K_y)
    except np.linalg.LinAlgError as err:
        stats["stop_reason"] = f"{route} factor raised LinAlgError: {err}"
        return None
    if exact:
        # the solve, then one step of iterative refinement
        for _ in range(2):
            delta[..., :nf] += solve(free_residual())
    else:
        b = free_residual()
        M = spla.LinearOperator(
            A_free.shape, dtype=float,
            matvec=lambda v: solve(v.reshape(b.shape)).ravel())

        def count(_):
            stats["krylov_iterations"] += 1

        x, _ = spla.cg(A_free, b.ravel(), rtol=KRYLOV_RTOL,
                       maxiter=KRYLOV_MAXITER, M=M, callback=count)
        delta[..., :nf] = x.reshape(b.shape)
    res = np.linalg.norm(free_residual())
    scale = np.linalg.norm(rhs) + 1e-30
    if np.all(np.isfinite(delta)) and res <= STEP_RTOL * scale:
        stats[f"{route}_solves"] += 1
        if not exact:
            stats["krylov_residual_max"] = max(stats["krylov_residual_max"],
                                               res / scale)
        return delta.ravel()
    stats["stop_reason"] = (f"{route} step missed: relative residual "
                            f"{res / scale:.3e} > 1e-6")
    return None


def damped_newton(residual: Callable, newton_step: Callable, x: np.ndarray,
                  tol: float, max_iter: int, stop_at_late_halving: bool = False):
    """Newton's method with Armijo backtracking on the squared residual norm.

    residual(x) is (r, aux): a flat vector and what the Newton system at x
    is built from.  newton_step(r, aux), with those of the iterate x it
    steps from, solves J(x) delta = -r for a step of x's size (None
    stalls).  Each step halves its length until ||r||^2 falls by the factor 1 - ARMIJO_SLOPE *
    length, and a step shorter than MIN_STEP stalls the iteration.  Returns
    (x, r, history, halvings_per_step, stop): history holds max|r| at the
    start and after every accepted step; stop is None when max|r| <= tol,
    else STALLED or "no convergence in max_iter iterations (...)".

    With stop_at_late_halving (solve_newton's continuation), the first
    halving of any step after the first also stalls the iteration, before
    that step is taken; such a stall has accepted steps, a MIN_STEP stall
    of the first step has none.
    """
    r, aux = residual(x)
    history = [float(np.max(np.abs(r)))]
    halvings_per_step = []
    while history[-1] > tol and len(halvings_per_step) < max_iter:
        delta = newton_step(r, aux)
        base_sq = float(np.dot(r, r))
        lam, halvings = 1.0, 0
        while True:
            if delta is None or lam < MIN_STEP:
                return x, r, history, halvings_per_step, STALLED
            trial = x + lam * delta.reshape(x.shape)
            r_trial, aux_trial = residual(trial)
            if float(np.dot(r_trial, r_trial)) <= (1.0 - ARMIJO_SLOPE * lam) * base_sq:
                break
            if stop_at_late_halving and halvings_per_step:
                return x, r, history, halvings_per_step, STALLED
            lam *= ARMIJO_FACTOR
            halvings += 1
        x, r, aux = trial, r_trial, aux_trial
        halvings_per_step.append(halvings)
        history.append(float(np.max(np.abs(r))))
    stop = None if history[-1] <= tol else (
        f"no convergence in {max_iter} iterations "
        f"(best residual {min(history):.3e})")
    return x, r, history, halvings_per_step, stop


def pinned_top(u: CylinderField) -> tuple:
    """top_bc pinning the top slice to u's own trace.

    A closed-form profile is solved with this truncation: the constant-flux
    reactions are incompatible with a zero-flux top (their flux leaves
    through y -> infinity), so the faithful truncation is Dirichlet.
    """
    return ("dirichlet", u.values[..., -1].ravel().copy())


def solve_newton(model: CoefficientModel, reaction: ReactionSpec,
                 grid: CylinderGrid, init: CylinderField,
                 tol: float = 1e-10, top_bc=("neumann",)) -> SolveReport:
    """Damped Newton on the nodal weak residual.

    Convergence is max-norm of the nodal residual <= tol within
    NEWTON_MAXITER steps of a damped_newton run.  top_bc is ("neumann",)
    for the natural zero-flux truncation or ("dirichlet", value) to pin
    the top slice.

    A pinned top with nonzero data is globalized by natural-parameter
    continuation in that data (Allgower & Georg 2003) once plain Armijo
    starts damping.  The plain run from init stops at the first halving of
    any step after its first (the first moves the pinned rows to their
    data, and damping it is normal).  Stages lambda in (0, 1] then pin the
    top to lambda * value, starting from lambda * init for the first stage
    and from (lambda / lambda_done) * u_done after an accepted one.  A
    stage is accepted when it converges with no halving after its first
    step, the adaptive rule of Deuflhard (2004, ch. 5); then lambda = 1 is
    tried.  A failed stage bisects between lambda_done and lambda, and a
    bisection step below MIN_CONTINUATION_STEP falls back to plain Armijo
    from init with the full NEWTON_MAXITER, so every solve that converges
    without continuation still converges.  Neumann tops, zero data and
    solves with no late halving run plain Armijo alone.  A step that
    _newton_step misses ends the solve at the last accepted iterate, with
    no further stage or retry, and stats["stop_reason"] is its reason;
    otherwise it is the last run's stop from damped_newton.

    newton_iterations and residual_history count the accepted steps of
    every run (history[0] is the residual at init); final_residual is that
    of the last run, at lambda = 1 unless a missed step ended a stage.
    """
    if init.grid is not grid and init.grid.shape != grid.shape:
        raise ValueError("init must live on the solve grid")
    pinned = top_bc[0] == "dirichlet"
    nf = grid.ny - 1 if pinned else grid.ny    # the free heights
    history, halvings, trail = [], [], []
    stats = dict(separable_solves=0, krylov_solves=0, krylov_iterations=0,
                 krylov_residual_max=0.0, stop_reason=None,
                 backtracks=halvings, continuation=trail)

    def run(x, bc, stop_at_late_halving):
        """damped_newton from x with the top condition bc; returns
        (x, final residual, accepted steps, stop)."""
        def residual(x):
            state = forms.coefficient_state(CylinderField(grid, x), model)
            return _residual(state, reaction, bc), state

        def step(r, state):
            return _newton_step(state, reaction, nf, r, stats)

        x, _, hist, halv, stop = damped_newton(
            residual, step, x, tol, NEWTON_MAXITER, stop_at_late_halving)
        history.extend(hist if not history else hist[1:])
        halvings.extend(halv)
        return x, hist[-1], len(halv), stop

    value = np.asarray(top_bc[1], dtype=float) if pinned else None
    continuation = pinned and bool(np.any(value))
    x, rnorm, steps, stop = run(init.values.copy(), top_bc, continuation)
    # a stall after accepted steps is a late halving (see damped_newton)
    damped = (continuation and stop == STALLED and steps > 0
              and stats["stop_reason"] is None)
    done, x_done, lam = 0.0, None, 0.5
    while damped:
        start = lam * init.values if x_done is None else (lam / done) * x_done
        x, rnorm, steps, stop = run(start, ("dirichlet", lam * value), True)
        trail.append([lam, steps, stop is None])
        if stats["stop_reason"] is not None or (stop is None and lam == 1.0):
            break
        if stop is None:
            done, x_done, lam = lam, x, 1.0
        elif 0.5 * (lam - done) >= MIN_CONTINUATION_STEP:
            lam = 0.5 * (done + lam)
        else:
            x, rnorm, _, stop = run(init.values.copy(), top_bc, False)
            break
    stats["stop_reason"] = stats["stop_reason"] or stop
    return SolveReport(u=CylinderField(grid, x), converged=bool(rnorm <= tol),
                       newton_iterations=len(halvings), final_residual=rnorm,
                       residual_history=history, stats=stats)


# -- catalog of closed-form solutions ---------------------------------------

DECAY_COS = "decay-cos"
GROW_COS = "grow-cos"
LINEAR_Y = "linear-y"
EXP_DECAY = "exp-decay"
CONSTANT_ONE = "constant-one"
ONE_DIM_FAMILY = "one-dim-family"


def catalog_solution(name: str, grid: CylinderGrid, model=None, reaction=None,
                     c: float = 0.0) -> CylinderField:
    """Sample a catalog solution on the grid.

    decay-cos: e^{-y} cos x, solving a = 1, g = 0, f(u) = u (on intervals
      whose endpoints are multiples of pi, so the lateral flux vanishes).
    grow-cos:  e^{y} cos x, same setup with f(u) = -u.
    linear-y:  u = y, a = 1, g = 0, f = -1.
    exp-decay: u = e^{-y}, a = e^y, g = 0, f = 1.
    constant-one: u = 1, a = 1, g = 0, f(u) = 1 - u.
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
    if name == CONSTANT_ONE:
        return CylinderField(grid, np.ones(grid.shape))
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


def extremum_sign_check(u: CylinderField, reaction: ReactionSpec) -> dict:
    """Check the extremum-location and reaction-sign conclusions.

    For bounded stable states under a t-monotone coefficient and zero bulk
    source, the discrete infimum c should be attained on the bottom slice and
    f(c) should be nonpositive, both up to EXTREMUM_TOL.  Returns the
    measured pieces; hypothesis gating (a_t <= 0, g absent) is the caller's
    job.
    """
    c = float(np.min(u.values))
    bottom_min = float(np.min(u.values[..., 0]))
    fc = float(reaction.f(np.asarray([c]))[0])
    return {
        "infimum": c,
        "bottom_min": bottom_min,
        "attained_on_bottom": bool(bottom_min <= c + EXTREMUM_TOL),
        "f_at_infimum": fc,
        "sign_ok": bool(fc <= EXTREMUM_TOL),
        "ok": bool(bottom_min <= c + EXTREMUM_TOL and fc <= EXTREMUM_TOL),
    }
