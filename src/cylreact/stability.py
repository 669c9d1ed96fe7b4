"""Second-variation (stability) analysis of cylinder solutions.

The quadratic form

    I(phi) = int <B(y, grad u) grad phi, grad phi>
           + int g_u(y, u) phi^2  -  int_bottom f'(u) phi^2

is assembled over the discrete test space, together with the weighted
mass

    M(phi) = int a(y, |grad u|) phi^2  +  int_bottom phi^2.

The paper tests stability against fields with bounded support in y; the
discrete stand-in is the nodal fields that vanish at and above a y index
nf, at most the top slice's.  So the pencil is the energy matrix's free
block below nf (forms.free_block, the block a pinned-top Newton step
solves on) and the mass's diagonal there, and a test field is a grid
field whose y axis is cut at nf (StabilityForm.embed pads it back).

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
2001) on (A, M), started on the comparison pencil's lowest pairs and
preconditioned by fast diagonalization of forms.separable_factors' mean
sum (solver._separable_factor).  The residual gate checks every pair.

Stable needs a proof of mu_1 > tol, Unstable theta < -tol; otherwise the
label is Marginal.  mu_1 is reported as theta.  nu > tol is such a proof.
A strong rank-one term of B that turns across the cross-section defeats
both Kronecker sums (nu <= tol < mu_1, or LOBPCG misses the gate); then,
and only then, LAPACK's banded Cholesky factor of A - tol M proves
mu_1 > tol by existing and preconditions the solve, and theta > tol
without it is an error.  On an exact Kronecker sum (separable_factors'
exact) L = A and both masses are M, so the bracket closes to rounding.
On other states nothing proves that theta is the lowest eigenvalue rather
than a higher one LOBPCG settled on; the residual gate cannot tell.
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
# LOBPCG iteration cap.  Exact Kronecker sums start converged; the graded
# mean-curvature 65^2, a = 2 state takes about 80 iterations.
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
    ``comparison`` (m_b, K_L, m_lo, m_hi) and ``mean`` (m_y, K_y, exact)
    (see assemble_I)."""

    energy_matrix: sp.csr_matrix
    mass_matrix: sp.csr_matrix
    grid: CylinderGrid
    nf: int
    comparison: tuple = field(repr=False)
    mean: tuple = field(repr=False)

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

    @cached_property
    def energy_norm(self) -> float:
        """||A||_inf, read by the margin and by the residual gate."""
        return float(spla.norm(self.energy_matrix, np.inf))

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
    # factored (the banded Cholesky factor of A - tol M proved mu1 > tol),
    # lobpcg_iterations and preconditioner_applications (vectors); not
    # written to report.json.
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


def assemble_I(u: CylinderField, model: CoefficientModel, reaction,
               vanish_above: float | None = None) -> StabilityForm:
    """Assemble the stability form at state u on the test space.

    The test space is the nodes below y index nf = min(ny - 1,
    #{y_j < vanish_above}): all nodes strictly below the top slice, or
    with ``vanish_above`` only those with y < vanish_above (nested spaces
    give monotone ground-state eigenvalues).  A ``vanish_above`` that
    leaves no height, nf < 1, is refused.  The energy block is the gather
    cached on the grid's forms.EnergyLayout; the assembly is symmetric bit
    for bit, and so is the block.  The mass is diagonal, and its block is
    its diagonal below nf.  The comparison and mean y factors (see the
    module docstring) are kept cut to the nf heights.
    """
    grid = u.grid
    nf = grid.ny - 1
    if vanish_above is not None:
        nf = min(nf, np.count_nonzero(grid.y_nodes < vanish_above))
        if nf < 1:
            raise ValueError(f"vanish_above={vanish_above!r} leaves no node "
                             "in the test space")
    state = _gated_state(u, model)
    A_full = forms.assemble_energy_matrix(u, model, reaction, state=state)
    mass = forms.mass_matrix(u, model, state=state).diagonal()
    A = forms.free_block(grid, A_full, nf)
    M = sp.diags(mass.reshape(grid.shape)[..., :nf].ravel(), format="csr")
    a, fp, *gu = forms.separable_samples(u, reaction, state)
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
    m_y, K_y, exact = forms.separable_factors(u, model, reaction, state)
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
    None when it is not positive definite.  DIA row k and the upper band
    storage's row width - offsets[k] hold diagonal offsets[k] alike."""
    dia = (form.energy_matrix - shift * form.mass_matrix).todia()
    upper = dia.offsets >= 0
    width = int(dia.offsets.max())
    band = np.zeros((width + 1, form.dim))
    band[width - dia.offsets[upper]] = dia.data[upper]
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
    The solve with A - tol M (tol defaults to default_tol) preconditions
    it from the start when nu <= tol on an inexact sum, and again from the
    last block when a pair misses the gate.
    """
    if k < 1 or k >= form.dim:
        raise ValueError("need 1 <= k < dimension of the form")
    A, M = form.energy_matrix, form.mass_matrix
    tol = default_tol(form) if tol is None else tol
    nu, slack, X = _comparison_pairs(form, k)
    stats = {"nu": nu, "lobpcg_iterations": 0,
             "preconditioner_applications": 0}
    mass, norm_A = M.diagonal(), form.energy_norm

    def lobpcg(X, solve):
        def precondition(R):
            stats["lobpcg_iterations"] += 1
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
        return vals, vecs, res, bad

    # only a factor of A - tol M can prove mu_1 > tol when nu <= tol < mu_1
    factor_first = nu <= tol and not form.mean[2]
    solve = _banded_cholesky(form, tol) if factor_first else None
    vals, vecs, res, bad = lobpcg(X, solve or _mean_preconditioner(form, nu))
    if bad and not factor_first:
        solve = _banded_cholesky(form, tol)
        if solve is not None:
            vals, vecs, res, bad = lobpcg(vecs, solve)
    if bad:
        raise EigenSolveError(
            f"eigenpair {bad[0]} residual {res[bad[0]]:.3e} exceeds "
            "tolerance", res[bad[0]])
    if nu <= tol < vals[0] and solve is None:
        raise EigenSolveError(f"LOBPCG settled at {vals[0]:.6e}, but A - tol "
                              "M is not positive definite", res[0])
    stats["factored"] = solve is not None
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
