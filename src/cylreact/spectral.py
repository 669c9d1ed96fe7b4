"""Neumann cosine eigenbasis, the spectral fractional Neumann Laplacian,
the semilinear nonlocal solve (Galerkin-Newton on the cylinder solver's
``damped_newton`` loop), and the harmonic extension to the cylinder.

The basis diagonalizes the Neumann Laplacian on an interval or rectangle,
so the fractional operator acts coefficient-wise as multiplication by
lambda_k**s (the zero mode is annihilated).  The s = 1/2 solve couples to
the cylinder machinery through the harmonic extension

    u(x, y) = sum_k v_k phi_k(x) exp(-sqrt(lambda_k) y),

whose bottom trace is v and whose weak cylinder residual with a == 1,
g == 0 and bottom reaction f is the equivalence check between the two
formulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import forms, solver
from .coefficients import CoefficientModel
from .cylinder import (CylinderField, CylinderGrid, DomainSpec, _outer,
                       _trapezoid_weights)

DEFAULT_S = 0.5
SEMILINEAR_TOL = 1e-10
SEMILINEAR_MAXITER = 60


class SpectralSolveError(RuntimeError):
    """Newton failure in the semilinear spectral solve."""

    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


def _cosine(lo: float, hi: float, k: int, x: np.ndarray) -> np.ndarray:
    """The k-th L2-normalized Neumann cosine of the interval (lo, hi)."""
    L = hi - lo
    if k == 0:
        return np.full(np.shape(x), 1.0 / np.sqrt(L))
    return np.sqrt(2.0 / L) * np.cos(k * np.pi * (x - lo) / L)


@dataclass(frozen=True)
class SpectralBasis:
    """Neumann eigenbasis samples on a uniform cross-section grid."""

    domain: DomainSpec
    K: int
    lambdas: np.ndarray
    modes: list[tuple]           # per-basis-function cosine indices
    x_nodes: np.ndarray
    eigenfields: np.ndarray      # (K, nx) or (K, nx, nz)
    weights: np.ndarray          # quadrature weights matching eigenfields

    def inner(self, values: np.ndarray, k: int) -> float:
        """Omega-quadrature inner product <values, phi_k>."""
        return float(np.sum(self.weights * values * self.eigenfields[k]))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal samples of sum_k coeffs[k] phi_k on the basis grid."""
        fields = self.eigenfields
        return (coeffs @ fields.reshape(self.K, -1)).reshape(fields.shape[1:])

    def mode_at(self, k: int, *coords: np.ndarray) -> np.ndarray:
        """Evaluate phi_k analytically at points given by one (broadcastable)
        coordinate array per cross-section axis, (x[, z])."""
        return reduce(np.multiply, (
            _cosine(lo, hi, i, c) for (lo, hi), i, c
            in zip(self.domain.bounds, self.modes[k], coords, strict=True)))


def neumann_basis(domain: DomainSpec, K: int) -> SpectralBasis:
    """First K Neumann eigenpairs of -Laplace on the cross-section.

    Tensor cosines phi_(i[, j]) with lambda = (i pi/Lx)^2 [+ (j pi/Lz)^2],
    ordered by eigenvalue; equal eigenvalues are ordered lexicographically
    in the mode indices, so (0, 1) precedes (1, 0) on a square.  Each axis
    is sampled at 2*max_mode_index+1 uniform nodes (at least 33), which
    keeps the trapezoid Gram matrix of the retained cosines exact to
    roundoff.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    bounds = domain.bounds
    lam_box = reduce(np.add.outer, [(np.arange(K) * np.pi / (hi - lo)) ** 2
                                    for lo, hi in bounds]).ravel()
    idx_box = np.indices((K,) * len(bounds)).reshape(len(bounds), -1)
    # lexsort's last key is the primary one: lambda, then i, then j
    order = np.lexsort((*idx_box[::-1], lam_box))[:K]
    chosen = idx_box[:, order]
    modes = [tuple(m) for m in chosen.T.tolist()]
    max_idx = int(chosen.max())
    n = max(33, 2 * max_idx + 1)
    nodes = [np.linspace(lo, hi, n) for lo, hi in bounds]
    cosines = [[_cosine(lo, hi, i, x) for i in range(max_idx + 1)]
               for (lo, hi), x in zip(bounds, nodes)]
    fields = np.empty((K,) + (n,) * len(bounds))
    for k, m in enumerate(modes):
        fields[k] = _outer([c[i] for c, i in zip(cosines, m)])
    weights = _outer([_trapezoid_weights(x) for x in nodes])
    return SpectralBasis(domain=domain, K=K, lambdas=lam_box[order],
                         modes=modes, x_nodes=nodes[0], eigenfields=fields,
                         weights=weights)


@dataclass(frozen=True)
class SpectralFunction:
    basis: SpectralBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.K,):
            raise ValueError("coefficient count must equal basis size")
        object.__setattr__(self, "coeffs", c)


def _check_basis(basis: SpectralBasis, w: SpectralFunction) -> None:
    """ValueError unless w's coefficients are on basis's modes (the same
    cross-section domain and mode count K)."""
    if w.basis is not basis and (w.basis.domain != basis.domain
                                 or w.basis.K != basis.K):
        raise ValueError("spectral function must use the given basis")


def apply_fractional(basis: SpectralBasis, s: float,
                     w: SpectralFunction) -> SpectralFunction:
    """Coefficient-wise lambda_k**s; the zero mode maps to zero."""
    _check_basis(basis, w)
    if not 0.0 < s <= 1.0:
        raise ValueError("need s in (0, 1]")
    factors = np.where(basis.lambdas > 0.0, basis.lambdas ** s, 0.0)
    return SpectralFunction(basis, factors * w.coeffs)


def solve_semilinear(basis: SpectralBasis, reaction,
                     init: SpectralFunction) -> SpectralFunction:
    """Damped Galerkin-Newton for lambda^s v_k = <f(v), phi_k>, s = DEFAULT_S.

    The residual is r_k = lambda_k**s v_k - <f(v), phi_k> with the inner
    product by cross-section quadrature; convergence means
    max|r_k| <= SEMILINEAR_TOL within SEMILINEAR_MAXITER steps.  The
    iteration is solver.damped_newton, the cylinder solve's loop.  Failure
    raises SpectralSolveError carrying the residual history.
    """
    _check_basis(basis, init)
    lam_s = np.where(basis.lambdas > 0.0, basis.lambdas ** DEFAULT_S, 0.0)
    flatfields = basis.eigenfields.reshape(basis.K, -1)
    wflat = basis.weights.ravel()

    def residual(c: np.ndarray) -> tuple:
        vals = basis.synthesize(c).ravel()
        return lam_s * c - flatfields @ (wflat * reaction.f(vals)), vals

    def newton_step(r: np.ndarray, vals: np.ndarray) -> np.ndarray:
        J = -((flatfields * (wflat * reaction.f_prime(vals))) @ flatfields.T)
        J.flat[::basis.K + 1] += lam_s
        # J is symmetric and K x K: step by the pseudo-inverse of its
        # eigenpairs, leaving out |ev| <= 64 eps max|ev|
        # (forms.pseudo_inverse, as in forms.separable_solve).
        # Such a kernel is exact where the annihilated zero mode meets
        # f' = 0, and round-off where lambda_k**s equals f' (f(u) = u on
        # (0, 2 pi) at s = 1/2), whose inverse sent the step to about 1e15.
        # A consistent system keeps its kernel modes; an inconsistent one
        # stalls the line search and surfaces as a solve error.
        ev, V = np.linalg.eigh(J)
        return -(V @ (forms.pseudo_inverse(ev) * (V.T @ r)))

    c, _, history, _, stop = solver.damped_newton(
        residual, newton_step, init.coeffs.copy(), SEMILINEAR_TOL,
        SEMILINEAR_MAXITER)
    if stop is not None:
        raise SpectralSolveError(stop, history)
    return SpectralFunction(basis, c)


def extend_harmonic(basis: SpectralBasis, v: SpectralFunction,
                    grid: CylinderGrid) -> CylinderField:
    """u(x,y) = sum_k v_k phi_k(x) exp(-sqrt(lambda_k) y) on the grid."""
    b, gb = basis.domain.bounds, grid.domain.bounds
    if len(b) != len(gb) or np.max(np.abs(np.subtract(b, gb))) >= 1e-12:
        raise ValueError("grid cross-section must match the basis domain")
    cross = np.ix_(*grid.axes[:-1])
    vals = np.zeros(grid.shape)
    for k in range(basis.K):
        decay = np.exp(-np.sqrt(basis.lambdas[k]) * grid.y_nodes)
        vals += v.coeffs[k] * basis.mode_at(k, *cross)[..., None] * decay
    return CylinderField(grid, vals)


def eig_growth_check(basis: SpectralBasis, beta: float):
    """(K_beta, (C1, C2)): eigenvalue growth index and sup-norm fit.

    K_beta is the smallest index from which lambda_k > k**beta holds for
    every computed k; (C1, C2) is the least-squares power-law fit
    sup|phi_k| ~ C1 * lambda_k**C2 over the nonzero modes.
    """
    n = basis.domain.ndim
    if not 0.0 < beta < 2.0 / n:
        raise ValueError(f"beta must lie in (0, {2.0 / n})")
    if basis.K < 50:
        raise ValueError("need a basis of size >= 50")
    k_idx = np.arange(basis.K, dtype=float)
    # Non-strict comparison: the index-1 interval mode sits exactly on the
    # k**beta curve for beta = 1.5 and is counted as satisfying the bound.
    # The annihilated zero mode is outside the scan, so K_beta >= 1.
    holds = basis.lambdas >= k_idx ** beta
    K_beta = basis.K
    for k0 in range(basis.K, 0, -1):
        if k0 == basis.K or holds[k0]:
            K_beta = k0
        else:
            break
    flat = basis.eigenfields.reshape(basis.K, -1)
    sup = np.maximum(flat.max(axis=1), -flat.min(axis=1))   # no |phi| copy
    lam = basis.lambdas[1:]
    slope, intercept = np.polyfit(np.log(lam), np.log(sup[1:]), 1)
    return int(K_beta), (float(np.exp(intercept)), float(slope))


def extension_equivalence(basis: SpectralBasis, reaction, grid: CylinderGrid,
                          init: SpectralFunction) -> float:
    """Max cylinder weak residual of the harmonically extended s=1/2 solve.

    Solves the fractional problem by ``solve_semilinear`` from ``init``,
    extends it to the cylinder, and tests the extension in the cylinder
    weak form (a == 1, g == 0, bottom reaction f) against the tensor fields
    phi_k(x) * p(y), k < 6, with top-vanishing y-profiles p.
    """
    v = solve_semilinear(basis, reaction, init)
    u = extend_harmonic(basis, v, grid)
    model_one = CoefficientModel.constant_one()
    y = grid.y_nodes
    ymax = grid.y_max
    profiles = [(1.0 - y / ymax) ** 2,
                np.cos(np.pi * y / (2.0 * ymax)),
                (1.0 - y / ymax)]
    # The weak residual is linear in the test field: assemble its nodal
    # vector once (as solver.residual_weak does) and test each field on it.
    r = forms.weak_residual_vector(forms.coefficient_state(u, model_one),
                                   reaction)
    cross = np.ix_(*grid.axes[:-1])
    worst = 0.0
    for k in range(min(6, basis.K)):
        phi_x = basis.mode_at(k, *cross)
        for p in profiles:
            p = p.copy()
            p[-1] = 0.0
            vals = phi_x[..., None] * p
            worst = max(worst, abs(float(vals.ravel() @ r)))
    return worst
