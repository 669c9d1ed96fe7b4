"""Second-variation (stability) analysis of cylinder solutions.

The quadratic form

    I(phi) = int <B(y, grad u) grad phi, grad phi>
           + int g_u(y, u) phi^2  -  int_bottom f'(u) phi^2

is assembled over the discrete test space of nodal fields vanishing at the
top slice, together with the weighted mass

    M(phi) = int a(y, |grad u|) phi^2  +  int_bottom phi^2.

The sign of the smallest generalized eigenvalue mu_1 of (I, M) classifies
the solution.  Because discrete eigenvalues carry O(h^2) error, values
within a margin ``tol`` of zero are reported as Marginal rather than
signed; the default margin is 1e-6 times the infinity norm of the energy
matrix.

The lumped mass matrix is diagonal, so the pencil is solved exactly as the
symmetric matrix C = M^{-1/2} A M^{-1/2}, by shift-invert Lanczos at every
size.  The Lanczos shift sigma is taken from the ladder -1, -4, -16, ...
and accepted once the symmetric sparse LU of C - sigma I pivots on the
diagonal with no negative pivot.  Sylvester's law of inertia then proves
that C has no eigenvalue below sigma, so the iteration converges to the
lowest pairs; the same LU serves every Lanczos solve.  The proof holds up
to the rounding of the factorization: the computed factors are those of a
matrix within rounding of C - sigma I, so only an eigenvalue within that
distance of sigma could be miscounted.  The residual gate checks each
returned pair; it cannot tell whether a lower one was skipped, which is
what the shift certificate rules out.  If no ladder shift above the
Gershgorin lower bound is certified, the shift falls back to that bound
minus one, which lies below the spectrum by Gershgorin's theorem alone (it
converges in hundreds of solves, not tens).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel, check_structural
from .cylinder import CylinderField, CylinderGrid

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"

STRICTLY_POSITIVE = "StrictlyPositive"
STRICTLY_NEGATIVE = "StrictlyNegative"
IDENTICALLY_ZERO = "IdenticallyZero"
MIXED = "Mixed"

EIGEN_RESIDUAL_RTOL = 1e-8

# Shift-invert shifts tried in turn: -1, -4, -16, ... down to the
# Gershgorin bound.  Every preset's mu_1 lies above -1, where the first
# shift is certified and Lanczos converges in a few dozen solves.
SHIFT_LADDER_START = -1.0
SHIFT_LADDER_RATIO = 4.0


def _load_malloc_trim():
    """glibc's malloc_trim, or None under another C library."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _load_malloc_trim()


def _returns_free_heap(fn):
    """Decorate fn to give the C heap's free pages back to the system once
    fn has returned and its locals are gone.

    The shift-invert LU factors (SuperLU's own mallocs) and their U copy
    are the largest blocks a classify allocates, tens of MB at 129^2 and
    17^3.  Once glibc has freed one mmapped block of that order it serves
    such blocks from the heap and keeps up to twice that much free heap
    resident, and whether a freed top can be returned depends on where a
    few small long-lived blocks happened to land.  So after the 17^3
    classify the heap kept about 36 MB free and resident in some processes
    and not in others, and the next 129^2 classify peaked 17 MB higher
    there; after malloc_trim the resident set is what is still live.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if _MALLOC_TRIM is not None:
                _MALLOC_TRIM(0)
    return wrapper


class EigenSolveError(RuntimeError):
    """Eigensolver failed to meet the residual requirement."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class StabilityForm:
    """Energy/mass pair restricted to the free (test-space) nodes."""

    energy_matrix: sp.csr_matrix
    mass_matrix: sp.csr_matrix
    grid: CylinderGrid
    free: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, m in (("energy", self.energy_matrix),
                        ("mass", self.mass_matrix)):
            asym = abs(m - m.T).max()
            scale = max(abs(m).max(), 1e-300)
            if asym > 1e-14 * scale:
                raise ValueError(f"{name} matrix asymmetric beyond 1e-14")
        if np.any(self.mass_matrix.diagonal() <= 0.0):
            raise ValueError("mass matrix must be positive definite")

    @property
    def dim(self) -> int:
        return self.energy_matrix.shape[0]

    def embed(self, phi_free: np.ndarray) -> CylinderField:
        """Zero-extend a free-space vector to a full grid field."""
        full = np.zeros(self.grid.n_nodes)
        full[self.free] = phi_free
        return CylinderField(self.grid, full.reshape(self.grid.shape))


@dataclass(frozen=True)
class StabilityReport:
    mu1: float
    ground_state: CylinderField
    classification: str
    tol: float
    eigen_residual: float
    # Eigensolve telemetry (sigma, shifts_tried, fallback, lu_fill_nnz: the
    # shift LU's stored L and U entries, operator_applications); not part
    # of the serialized report.
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        g = self.ground_state.grid
        return {
            "mu1": float(self.mu1),
            "classification": self.classification,
            "tol": float(self.tol),
            "grid": {"nx": g.nx, "nz": g.nz, "ny": g.ny,
                     "y_max": g.y_max, "grading": g.grading},
            "eigen_residual": float(self.eigen_residual),
        }


def _gated_state(u: CylinderField, model: CoefficientModel) -> dict:
    """forms.coefficient_state(u, model), once the structural conditions
    hold on the (y, |grad u|) range of u."""
    state = forms.coefficient_state(u, model)
    y = u.grid.y_nodes
    t = np.quantile(state["norm"].ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    t = np.unique(np.concatenate([t, [0.0]]))
    report = check_structural(model, y_samples=y[y > 0.0], t_samples=t)
    if not report.ellipticity_ok:
        raise ValueError(
            "coefficient model fails ellipticity on the solution's "
            f"(y, |grad u|) range; witness {report.witness}")
    return state


def assemble_I(u: CylinderField, model: CoefficientModel, reaction,
               vanish_above: float | None = None) -> StabilityForm:
    """Assemble the stability form at state u on the free test space.

    The test space is all nodes strictly below the top slice; passing
    ``vanish_above`` shrinks it further to nodes with y < vanish_above
    (nested spaces give monotone ground-state eigenvalues).
    """
    # The state is dropped once the energy matrix is built, so it is not
    # live beside the one mass_matrix builds.
    A_full = forms.assemble_energy_matrix(u, model, reaction,
                                          state=_gated_state(u, model))
    M_full = forms.mass_matrix(u, model)
    free = forms.free_indices(u.grid, vanish_above=vanish_above)
    A = A_full[free][:, free].tocsr()
    A = ((A + A.T) * 0.5).tocsr()
    M = M_full[free][:, free].tocsr()
    return StabilityForm(energy_matrix=A, mass_matrix=M, grid=u.grid,
                         free=free)


def _eigen_residual_ok(A, M, mu, vec) -> tuple[bool, float]:
    res = float(np.linalg.norm(A @ vec - mu * (M @ vec)))
    scale = float(spla.norm(A, np.inf)) * float(np.linalg.norm(vec))
    return res <= EIGEN_RESIDUAL_RTOL * max(scale, 1e-300), res


def _scaled_pencil(form: StabilityForm):
    """(C, s): C = S A S with S = diag(s) = M^{-1/2}, symmetric CSC.

    The mass matrix is diagonal, so A phi = mu M phi is exactly
    C w = mu w with phi = S w.
    """
    s = 1.0 / np.sqrt(form.mass_matrix.diagonal())
    C = sp.diags(s) @ form.energy_matrix @ sp.diags(s)
    return ((C + C.T) * 0.5).tocsc(), s


def _gershgorin_bound(C) -> float:
    """Lower bound on the spectrum of the symmetric matrix C."""
    row_rest = np.asarray(abs(C).sum(axis=1)).ravel() - np.abs(C.diagonal())
    return float(np.min(C.diagonal() - row_rest))


def _shifted(C, sigma: float):
    return (C - sigma * sp.identity(C.shape[0], format="csc")).tocsc()


def _factor_shifted(C, sigma: float):
    """Symmetric-mode sparse LU of C - sigma I, or None if it is singular.

    diag_pivot_thresh=0 keeps every nonzero diagonal pivot, so the row
    permutation equals the column one unless a pivot was exactly zero.
    """
    try:
        return spla.splu(_shifted(C, sigma), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError:           # exactly singular: sigma is an eigenvalue
        return None


def _negative_pivots(lu) -> int | None:
    """Number of eigenvalues of the factored symmetric matrix below zero.

    When perm_r == perm_c the factorization is P (C - sigma I) P^T = L U
    with U = D L^T, D = diag(U), so by Sylvester's law of inertia the
    count of negative entries of D is the count of eigenvalues below
    sigma.  None when the permutations differ and D says nothing.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _certified_shift(C):
    """(sigma, lu, shifts_tried, fallback) for shift-invert on C.

    Tries SHIFT_LADDER_START * SHIFT_LADDER_RATIO**j above the Gershgorin
    bound and accepts the first whose factorization shows no negative
    pivot; otherwise takes the Gershgorin bound minus one, which lies
    below the spectrum without any check.  The floor is factored like
    every ladder shift: C - floor I is strictly diagonally dominant with a
    positive diagonal, so no diagonal pivot vanishes.
    """
    floor = _gershgorin_bound(C) - 1.0
    tried = []
    sigma = SHIFT_LADDER_START
    while sigma > floor:
        tried.append(sigma)
        lu = _factor_shifted(C, sigma)
        if lu is not None and _negative_pivots(lu) == 0:
            return sigma, lu, tried, False
        sigma *= SHIFT_LADDER_RATIO
    tried.append(floor)
    return floor, _factor_shifted(C, floor), tried, True


def _solve_pairs(form: StabilityForm, k: int):
    """(values, fields, residuals, stats) for the k smallest eigenpairs.

    Shift-invert Lanczos on the scaled problem C w = mu w of
    ``_scaled_pencil``, at the shift of ``_certified_shift``.
    """
    if k < 1 or k >= form.dim:
        raise ValueError("need 1 <= k < dimension of the form")
    A, M = form.energy_matrix, form.mass_matrix
    C, s = _scaled_pencil(form)
    sigma, lu, tried, fallback = _certified_shift(C)
    stats = {"sigma": sigma, "shifts_tried": tried, "fallback": fallback,
             "lu_fill_nnz": int(lu.nnz), "operator_applications": 0}

    def solve(x):
        stats["operator_applications"] += 1
        return lu.solve(x)

    OPinv = spla.LinearOperator(C.shape, matvec=solve, dtype=float)
    # Fixed start vector M^{1/2} 1 (s = M^{-1/2}): positive, close to the
    # single-signed ground state, and the same on every call, so repeated
    # solves in one process give bit-identical pairs.
    vals, w = spla.eigsh(C, k=k, sigma=sigma, OPinv=OPinv, v0=1.0 / s)
    order = np.argsort(vals)
    vals, w = vals[order], w[:, order]
    vecs = s[:, None] * w
    out_vals, out_fields, out_res = [], [], []
    for i in range(k):
        mu, vec = float(vals[i]), vecs[:, i]
        norm_m = float(np.sqrt(vec @ (M @ vec)))
        vec = vec / norm_m
        ok, res = _eigen_residual_ok(A, M, mu, vec)
        if not ok:
            raise EigenSolveError(
                f"eigenpair {i} residual {res:.3e} exceeds tolerance", res)
        out_vals.append(mu)
        out_fields.append(form.embed(vec))
        out_res.append(res)
    return out_vals, out_fields, out_res, stats


@_returns_free_heap
def min_rayleigh(form: StabilityForm, k: int = 1):
    """k smallest eigenpairs of energy*phi = mu * mass * phi, ascending.

    Mass-normalized eigenfields, from certified shift-invert Lanczos on
    C = M^{-1/2} A M^{-1/2} (see the module docstring).  Each pair must
    satisfy ||A phi - mu M phi|| <= 1e-8 * ||A||_inf * ||phi||.
    """
    vals, fields, _, _ = _solve_pairs(form, k)
    return list(zip(vals, fields))


def default_tol(form: StabilityForm) -> float:
    """Stability margin: 1e-6 times the energy matrix's infinity norm."""
    return 1e-6 * float(spla.norm(form.energy_matrix, np.inf))


def classify_value(mu1: float, tol: float) -> str:
    if mu1 > tol:
        return STABLE
    if mu1 < -tol:
        return UNSTABLE
    return MARGINAL


@_returns_free_heap
def classify(u: CylinderField, model: CoefficientModel, reaction,
             tol: float | None = None) -> StabilityReport:
    """Assemble I at u, compute the ground state, apply the margin rule."""
    form = assemble_I(u, model, reaction)
    if tol is None:
        tol = default_tol(form)
    elif not tol > 0.0:
        raise ValueError("tol must be positive")
    vals, fields, residuals, stats = _solve_pairs(form, k=1)
    mu1, ground = vals[0], fields[0]
    return StabilityReport(mu1=mu1, ground_state=ground,
                           classification=classify_value(mu1, tol),
                           tol=tol, eigen_residual=residuals[0], stats=stats)


def sign_trichotomy(ground_state: CylinderField, tol: float = 1e-6) -> str:
    """Nodal sign pattern of an eigenfield over its support slice.

    Nodes on the top slice are excluded (they are constrained to zero, not
    part of the test space).  Mixed indicates genuinely both signs beyond
    the threshold, which for a ground state only arises from discretization
    error.
    """
    vals = ground_state.values[..., :-1].ravel()
    if np.all(np.abs(vals) <= tol):
        return IDENTICALLY_ZERO
    has_pos = np.any(vals > tol)
    has_neg = np.any(vals < -tol)
    if has_pos and has_neg:
        return MIXED
    return STRICTLY_POSITIVE if has_pos else STRICTLY_NEGATIVE


def form_J(u: CylinderField, model: CoefficientModel,
           phi: CylinderField) -> float:
    """J(phi) = -int (a_t/|grad u|) (grad u . grad phi)^2 (regularized).

    For models with a_t <= 0 this is nonnegative; together with the
    positive part it decomposes the B-form:
    int <B grad phi, grad phi> + J(phi) = int a |grad phi|^2.
    """
    grid = u.grid
    state = forms.coefficient_state(u, model)
    if not model.has_t_dependence:
        return 0.0
    phi_comps = forms.gradient_fields(grid, phi.values, pairing=True)
    dot = sum(gc * pc for gc, pc in zip(state["comps"], phi_comps))
    w_theta = grid.bulk_weights(state["theta"])
    integrand = (state["a_t_red"] / state["norm_reg"]) * dot * dot
    return -float(np.sum(w_theta * integrand))


def convexity_gap(u_bottom: np.ndarray, reaction, c: float) -> float:
    """min over bottom nodes of (f(u)+f'(u)(c-u))(c-u) - f(c)(c-u).

    Requires the reaction's convexity flag to be declared; for convex f
    with u >= c the tangent-line bound makes every term nonnegative.
    """
    if reaction.convexity is None:
        raise ValueError("reaction must declare convex or concave")
    u = np.asarray(u_bottom, dtype=float)
    d = c - u
    gap = (reaction.f(u) + reaction.f_prime(u) * d) * d - reaction.f(c) * d
    return float(np.min(gap))
