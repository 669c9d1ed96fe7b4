"""Second-variation (stability) analysis of cylinder solutions.

The quadratic form

    I(phi) = int <B(y, grad u) grad phi, grad phi>
           + int g_u(y, u) phi^2  -  int_bottom f'(u) phi^2

is assembled over the discrete test space, together with the weighted
mass

    M(phi) = int a(y, |grad u|) phi^2  +  int_bottom phi^2.

Both are read at forms.coefficient_state(u, model), the state a Newton
step at u is built from, once the structural gate passes on it.  The
paper tests stability against fields with bounded support in y; the
discrete stand-in is the nodal fields that vanish on the top slice, at y
index nf = ny - 1.  So the pencil is the energy matrix's free block below
nf (forms.assemble_energy_matrix(state, reaction, nf), the block a
pinned-top Newton step solves on) and the mass's diagonal there, and a
test field is a grid field whose y axis is cut at nf (StabilityForm.embed
pads it back).

The sign of the smallest generalized eigenvalue mu_1 of (I, M) classifies
the solution.  Because discrete eigenvalues carry O(h^2) error, values
within a margin ``tol`` of zero are reported as Marginal rather than
signed; the default margin is 1e-6 times the infinity norm of the energy
matrix.

mu_1 is bracketed as nu <= mu_1 <= theta.  Pointwise B >= beta I, beta =
a + min(0, (a_t/|grad u|_reg) |grad u|^2); the cross-section minima of beta
and g_u at each height and the bottom maximum of f' give a Kronecker sum
L <= A (forms.separable_band), and the mass lies between W x M_lo and
W x M_hi (a's cross-section extremes plus the bottom term).  Cross-section
modes only add lam_k diag(w_theta min beta) >= 0 to the constant mode's y
pencil, so by Courant-Fischer nu is that pencil's lowest eigenvalue (M_lo
if it is negative, else M_hi), less a rounding allowance.  theta, a
Rayleigh quotient, comes from LOBPCG (Knyazev, SIAM J. Sci. Comput. 23,
2001) on (A, M), started on the comparison pencil's lowest pairs, in one
run with the preconditioner chosen below.  The residual gate checks every
pair.

Stable needs a proof of mu_1 > tol, Unstable theta < -tol; otherwise the
label is Marginal.  mu_1 is reported as theta.  nu > tol is such a proof;
so is the existence of LAPACK's banded Cholesky factor of A - tol M, and
theta > tol with nu <= tol and no such factor is an error.  On an exact
Kronecker sum (separable_factors' exact) L = A and both masses are M, so
the bracket closes to rounding, and LOBPCG starts converged.  On a 2D
inexact sum neither Kronecker sum sees B's rank-one term or a's variation
across the cross-section, so LOBPCG is preconditioned by the banded
factor of A - sigma M at the bracket's lower end: sigma = nu when
nu > tol, else sigma = tol when that factor exists (the proof), else
sigma = nu, which lies below mu_1 by its rounding allowance.  In 3D the
band is 2 nz nf wide, so only the factor at tol is tried (when
nu <= tol).  Where no factor is tried or exists, fast diagonalization of
forms.separable_factors' mean sum (solver._separable_factor)
preconditions.  On inexact sums nothing proves that theta is the lowest
eigenvalue rather than a higher one LOBPCG settled on; the residual gate
cannot tell.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .coefficients import CoefficientModel, check_structural
from .cylinder import CylinderField, CylinderGrid, pencil_modes
from .solver import _separable_factor, cross_section_spectrum

STABLE = "Stable"
UNSTABLE = "Unstable"
MARGINAL = "Marginal"

EIGEN_RESIDUAL_RTOL = 1e-8
# LOBPCG iteration cap.  Exact Kronecker sums start converged; 2D inexact
# sums, preconditioned by the banded factor, take about 10 iterations, and
# the mean-preconditioned 3D p-Laplace 13^3 state about 30.
LOBPCG_MAXITER = 500


class EigenSolveError(RuntimeError):
    """Eigensolver failed to meet the residual requirement."""

    def __init__(self, message: str, achieved_residual: float):
        super().__init__(message)
        self.achieved_residual = achieved_residual


@dataclass(frozen=True)
class StabilityForm:
    """Energy/mass pair restricted to the test space, the nodes below y
    index nf, with the y factors the eigensolve reads on those nf heights:
    ``comparison`` (m_b, K_L, m_lo, m_hi) and ``mean`` (m_y, K_y, exact).
    assemble_I makes both matrices symmetric and the mass diagonal and
    positive."""

    energy_matrix: sp.dia_matrix
    mass_matrix: sp.dia_matrix
    grid: CylinderGrid
    nf: int
    comparison: tuple = field(repr=False)
    mean: tuple = field(repr=False)

    @property
    def dim(self) -> int:
        return self.energy_matrix.shape[0]

    @cached_property
    def energy_norm(self) -> float:
        """||A||_inf, read by the margin and by the residual gate."""
        return float(abs(self.energy_matrix).sum(axis=1).max())

    def embed(self, phi_free: np.ndarray) -> CylinderField:
        """Zero-extend a test-space vector to a full grid field: its y
        axis, cut at nf, is padded with zeros."""
        full = np.zeros(self.grid.shape)
        full[..., :self.nf] = phi_free.reshape(full[..., :self.nf].shape)
        return CylinderField(self.grid, full)


@dataclass(frozen=True)
class StabilityReport:
    mu1: float
    ground_state: CylinderField
    classification: str
    tol: float
    eigen_residual: float
    # Eigensolve telemetry: nu (the certified lower bound on mu1),
    # bracket_closed (mu1 - nu within twice nu's rounding allowance),
    # sigma (the shift of the banded Cholesky factor of A - sigma M that
    # preconditions LOBPCG, None when no factor does; sigma = tol proves
    # mu1 > tol), preconditioner_calls (LOBPCG's calls of its
    # preconditioner) and preconditioner_applications (the vectors of
    # those calls); not written to report.json.
    stats: dict = field(default_factory=dict)


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


def assemble_I(u: CylinderField, model: CoefficientModel,
               reaction) -> StabilityForm:
    """Assemble the stability form at state u on the test space.

    The test space is the nodes below y index nf = ny - 1, all nodes
    strictly below the top slice.  The energy block is built from the
    energy matrix's value planes cut at nf (forms.EnergyLayout.matrix) and
    is symmetric bit for bit.  The mass is diagonal, and its block is its
    diagonal below nf.  A state where B fails to be positive definite is
    refused; otherwise a >= beta > 0 at every node, and with positive
    weights the mass diagonal is positive.  The comparison and mean y
    factors (see the module docstring) are kept cut to the nf heights.
    """
    grid = u.grid
    nf = grid.ny - 1
    state = _gated_state(u, model)
    A = forms.assemble_energy_matrix(state, reaction, nf)
    mass = forms.mass_matrix(state).diagonal()
    M = sp.diags(mass.reshape(grid.shape)[..., :nf].ravel())
    a, fp, *gu = forms.separable_samples(state, reaction)
    beta = state["a_red"]
    if state["a_t_red"] is not None:
        sq = sum(c * c for c in state["comps"])
        ratio = state["a_t_red"] / state["norm_reg"]
        beta = beta + np.minimum(0.0, ratio * sq)
    if not np.all(beta > 0.0):
        raise ValueError("the linearization B is not positive definite at "
                         "every node of the solution")
    m_b, K_L = forms.separable_band(
        grid, state["theta"], beta.reshape(a.shape).min(axis=0), fp.max(),
        *[g.min(axis=0) for g in gu])
    w = grid.y_weights(state["theta"])
    m_lo, m_hi = w * a.min(axis=0), w * a.max(axis=0)
    m_lo[0] += 1.0           # the bottom mass, W x e_0 e_0^T
    m_hi[0] += 1.0
    m_y, K_y, exact = forms.separable_factors(state, reaction)
    return StabilityForm(
        energy_matrix=A, mass_matrix=M, grid=grid, nf=nf,
        comparison=(m_b[:nf], K_L[:, :nf], m_lo[:nf], m_hi[:nf]),
        mean=(m_y[:nf], K_y[:, :nf], exact))


def _comparison_pairs(form: StabilityForm, k: int) -> tuple:
    """(nu, slack, X): the comparison pencil's lowest eigenvalue nu less
    its rounding allowance slack, and its k lowest pairs Phi_i x V_ij as
    the columns of X.  They come from the k lowest cross-section modes, one
    y pencil (lam_i diag(m_b) + K_L, mass) each, since a pencil's
    eigenvalues rise with lam_i.  The lowest mode is the constant one,
    with lam 0 exactly, and its pencil gives nu.
    """
    m_b, K_L, m_lo, m_hi = form.comparison
    lam, phis = cross_section_spectrum(form.grid)
    modes = np.argsort(lam, axis=None, kind="stable")[:k]
    mass = m_lo
    mu, V = pencil_modes(K_L, mass)
    if mu[0] >= 0.0:
        mass = m_hi
        mu, V = pencil_modes(K_L, mass)
    slack = mass.size * np.finfo(float).eps * max(-mu[0], mu[-1])
    nu = float(mu[0] - slack)
    pairs = []               # (eigenvalue, cross-section mode, y vector)
    for rank, flat in enumerate(modes):
        index = np.unravel_index(flat, lam.shape)
        if rank:
            band = K_L.copy()
            band[0] += lam[index] * m_b
            mu, V = pencil_modes(band, mass)
        phi = reduce(np.multiply.outer,
                     [p[:, i] for p, i in zip(phis, index)]).ravel()
        pairs += [(mu[j], phi, V[:, j]) for j in range(min(k, mu.size))]
    pairs.sort(key=lambda pair: pair[0])
    X = np.column_stack([np.outer(phi, v).ravel()
                         for _, phi, v in pairs[:k]])
    return nu, slack, X


def _mean_preconditioner(form: StabilityForm, nu: float):
    """Block solve with the mean Kronecker sum shifted to A_mean - sigma
    M_mean, sigma = min(nu, 0) - 1/2, by fast diagonalization.  The factor
    is built on the first call: LOBPCG started on an exact sum's lowest
    pairs is converged and never calls it."""
    m_y, K_y, _ = form.mean
    shape = form.grid.shape[:-1] + (m_y.size,)
    factor = []

    def apply(R):
        if not factor:
            sigma = min(nu, 0.0) - 0.5
            band = K_y.copy()
            band[0] -= sigma * m_y
            band[0, 0] -= sigma      # the bottom mass
            factor.append(_separable_factor(form.grid, m_y, band))
        return np.column_stack([factor[0](r.reshape(shape)).ravel()
                                for r in R.T])
    return apply


def _banded_cholesky(form: StabilityForm, shift: float):
    """Block solve with A - shift M by LAPACK's banded Cholesky factor, or
    None when it is not positive definite.  A's DIA row k and the upper
    band storage's row width - offsets[k] hold diagonal offsets[k] alike,
    and M is diagonal."""
    A = form.energy_matrix
    upper = A.offsets >= 0
    width = int(A.offsets.max())
    # Fortran order, so that LAPACK factors the band in place
    band = np.zeros((width + 1, form.dim), order="F")
    band[width - A.offsets[upper]] = A.data[upper]
    band[width] -= shift * form.mass_matrix.diagonal()
    try:
        factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True)
    except np.linalg.LinAlgError:
        return None
    return lambda R: scipy.linalg.cho_solve_banded((factor, False), R)


def _solve_pairs(form: StabilityForm, k: int, tol: float | None = None):
    """(values, fields, residuals, stats) for the k smallest eigenpairs.

    LOBPCG (see the module docstring) stops once every M-normalized x has
    ||A x - mu M x|| <= EIGEN_RESIDUAL_RTOL sqrt(min M), so mu lies within
    EIGEN_RESIDUAL_RTOL^2 / gap of an eigenvalue of M^{-1/2} A M^{-1/2}.
    One run, preconditioned by the banded factor of A - sigma M on an
    inexact sum, with sigma chosen as in the module docstring (tol
    defaults to default_tol), or by the mean sum when no factor exists.
    """
    if k < 1 or k >= form.dim:
        raise ValueError("need 1 <= k < dimension of the form")
    A, M = form.energy_matrix, form.mass_matrix
    tol = default_tol(form) if tol is None else tol
    nu, slack, X = _comparison_pairs(form, k)
    stats = {"nu": nu, "preconditioner_calls": 0,
             "preconditioner_applications": 0}
    mass, norm_A = M.diagonal(), form.energy_norm
    shifts = []
    if not form.mean[2]:
        # only a factor of A - tol M can prove mu_1 > tol when nu <= tol < mu_1
        shifts = [tol] if nu <= tol else []
        if form.grid.n_components == 2:
            shifts.append(nu)
    sigma = solve = None
    for shift in shifts:
        solve = _banded_cholesky(form, shift)
        if solve is not None:
            sigma = shift
            break
    solve = solve or _mean_preconditioner(form, nu)

    def precondition(R):
        stats["preconditioner_calls"] += 1
        stats["preconditioner_applications"] += R.shape[1]
        return solve(R)

    # lobpcg warns when it stops at its cap or falls back to a dense
    # solve; the residual gate below judges every pair either way
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = spla.lobpcg(
            A, X, B=M, M=precondition, maxiter=LOBPCG_MAXITER,
            tol=EIGEN_RESIDUAL_RTOL * float(np.sqrt(mass.min())),
            largest=False)
    order = np.argsort(vals, kind="stable")
    vals, vecs = [float(mu) for mu in vals[order]], vecs[:, order]
    vecs /= [np.sqrt(v @ (mass * v)) for v in vecs.T]
    res = [float(np.linalg.norm(A @ v - mu * (mass * v)))
           for mu, v in zip(vals, vecs.T)]
    bad = [i for i, v in enumerate(vecs.T) if res[i] > EIGEN_RESIDUAL_RTOL
           * max(norm_A * np.linalg.norm(v), 1e-300)]
    if bad:
        raise EigenSolveError(
            f"eigenpair {bad[0]} residual {res[bad[0]]:.3e} exceeds "
            "tolerance", res[bad[0]])
    if nu <= tol < vals[0] and sigma != tol:
        raise EigenSolveError(f"LOBPCG settled at {vals[0]:.6e}, but A - tol "
                              "M is not positive definite", res[0])
    stats["sigma"] = sigma
    stats["bracket_closed"] = bool(vals[0] - nu <= 2.0 * slack)
    return vals, [form.embed(v) for v in vecs.T], res, stats


def min_rayleigh(form: StabilityForm, k: int = 1):
    """k smallest eigenpairs of energy*phi = mu * mass * phi, ascending.

    Mass-normalized eigenfields, from LOBPCG on the free pencil (see the
    module docstring).  Each pair must satisfy
    ||A phi - mu M phi|| <= 1e-8 * ||A||_inf * ||phi||.
    """
    vals, fields, _, _ = _solve_pairs(form, k)
    return list(zip(vals, fields))


def default_tol(form: StabilityForm) -> float:
    """Stability margin: 1e-6 times the energy matrix's infinity norm."""
    return 1e-6 * form.energy_norm


def classify_value(mu1: float, tol: float) -> str:
    if mu1 > tol:
        return STABLE
    if mu1 < -tol:
        return UNSTABLE
    return MARGINAL


def classify(u: CylinderField, model: CoefficientModel, reaction,
             tol: float | None = None) -> StabilityReport:
    """Assemble I at u, bracket its lowest eigenvalue, apply the margin
    rule (see the module docstring)."""
    form = assemble_I(u, model, reaction)
    if tol is None:
        tol = default_tol(form)
    elif not tol > 0.0:
        raise ValueError("tol must be positive")
    vals, fields, residuals, stats = _solve_pairs(form, 1, tol)
    return StabilityReport(
        mu1=vals[0], ground_state=fields[0],
        classification=classify_value(vals[0], tol),
        tol=tol, eigen_residual=residuals[0], stats=stats)


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
