"""Diffusion coefficient families and their flux linearization.

The quasilinear operator div(a(y, |grad u|) grad u) is driven by a scalar
coefficient a(y, t), where t stands for the gradient magnitude.  Admissible
coefficients are positive and elliptic in the sense

    a(y, t) > 0   and   a(y, t) + t * a_t(y, t) > 0,

carry a controlled logarithmic t-derivative t |a_t| <= C a, and satisfy
t a_t -> 0 as t -> 0+.  Every family factors as

    a(y, t) = y**theta * ahat(t),

and the reduced factor ahat is what the weighted quadrature consumes when the
y-power is integrated analytically near the (possibly singular) bottom edge.

Linearizing the flux a(y, |eta|) eta in eta gives the symmetric matrix

    B(y, eta) = a(y, |eta|) I + (a_t(y, |eta|) / |eta|) eta eta^T,

with closed-form spectrum: a + |eta| a_t on span(eta), a on its orthogonal
complement.  Ellipticity of the operator is exactly positivity of B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_WEIGHT = "power_weight"
POWER_WEIGHT_P_LAPLACE = "power_weight_p_laplace"
MEAN_CURVATURE_WEIGHT = "mean_curvature_weight"
CONSTANT_ONE = "constant_one"
EXP_Y = "exp_y"

# Every coefficient family there is; configs name one of these.
FAMILIES = (CONSTANT_ONE, EXP_Y, POWER_WEIGHT, POWER_WEIGHT_P_LAPLACE,
            MEAN_CURVATURE_WEIGHT)

# Default structural sample grids: log-spaced decades around unit scale.
DEFAULT_Y_SAMPLES = np.logspace(-2.0, 2.0, 17)
DEFAULT_T_SAMPLES = np.concatenate(([0.0], np.logspace(-2.0, 2.0, 17)))


@dataclass(frozen=True)
class CoefficientModel:
    """One member of the coefficient catalog.

    kind is one of FAMILIES.  theta is the y-power exponent
    (restricted to (-1, 1) so the weight is locally integrable), p the
    p-Laplacian exponent (> 1).
    """

    kind: str
    theta: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind in (POWER_WEIGHT, POWER_WEIGHT_P_LAPLACE, MEAN_CURVATURE_WEIGHT):
            if not -1.0 < self.theta < 1.0:
                raise ValueError(f"theta must lie in (-1, 1), got {self.theta}")
        if self.kind == POWER_WEIGHT_P_LAPLACE and not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def power_weight(cls, theta: float) -> "CoefficientModel":
        return cls(POWER_WEIGHT, theta=theta)

    @classmethod
    def power_weight_p_laplace(cls, theta: float, p: float) -> "CoefficientModel":
        return cls(POWER_WEIGHT_P_LAPLACE, theta=theta, p=p)

    @classmethod
    def mean_curvature_weight(cls, theta: float) -> "CoefficientModel":
        return cls(MEAN_CURVATURE_WEIGHT, theta=theta)

    @classmethod
    def constant_one(cls) -> "CoefficientModel":
        return cls(CONSTANT_ONE)

    @classmethod
    def exp_y(cls) -> "CoefficientModel":
        return cls(EXP_Y)

    # -- properties ---------------------------------------------------------

    @property
    def y_exponent(self) -> float:
        """Exponent of the separable y-power factor (0 when there is none)."""
        if self.kind in (POWER_WEIGHT, POWER_WEIGHT_P_LAPLACE, MEAN_CURVATURE_WEIGHT):
            return self.theta
        return 0.0

    @property
    def has_t_dependence(self) -> bool:
        if self.kind in (POWER_WEIGHT, CONSTANT_ONE, EXP_Y):
            return False
        return True

    def reciprocal_integral(self, y):
        """int_0^y dz / a(z, 0), in closed form; y = inf is allowed.

        Every family but exp_y has ahat(0) = 1, so the integral is
        y**(1 - theta) / (1 - theta) and diverges as y -> inf.  With
        a = e^y it is 1 - e^{-y}, finite at infinity: u = e^{-y} is then a
        bounded stable state with f = 1 > 0, so the extremum-sign conclusion,
        which needs the divergence, does not apply.
        """
        y = np.asarray(y, dtype=float)
        if self.kind == EXP_Y:
            return -np.expm1(-y)
        return y ** (1.0 - self.y_exponent) / (1.0 - self.y_exponent)

    # -- reduced evaluations (y-power factored out) -------------------------

    def reduced_a(self, y, t):
        """a(y, t) / y**y_exponent; finite at y = 0 for every family."""
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == POWER_WEIGHT:
            return np.ones(np.broadcast(y, t).shape)
        if self.kind == POWER_WEIGHT_P_LAPLACE:
            return np.broadcast_to((1.0 + t * t) ** (self.p / 2.0),
                                   np.broadcast(y, t).shape).copy()
        if self.kind == MEAN_CURVATURE_WEIGHT:
            return np.broadcast_to(1.0 / np.sqrt(1.0 + t * t),
                                   np.broadcast(y, t).shape).copy()
        if self.kind == CONSTANT_ONE:
            return np.ones(np.broadcast(y, t).shape)
        # EXP_Y
        return np.broadcast_to(np.exp(y), np.broadcast(y, t).shape).copy()

    def reduced_a_t(self, y, t):
        """d/dt of reduced_a."""
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast(y, t).shape
        if self.kind == POWER_WEIGHT_P_LAPLACE:
            val = self.p * t * (1.0 + t * t) ** (self.p / 2.0 - 1.0)
            return np.broadcast_to(val, shape).copy()
        if self.kind == MEAN_CURVATURE_WEIGHT:
            val = -t * (1.0 + t * t) ** (-1.5)
            return np.broadcast_to(val, shape).copy()
        return np.zeros(shape)


@dataclass(frozen=True)
class StructuralReport:
    """Outcome of the ellipticity sweep over a sample grid."""

    ellipticity_ok: bool
    derivative_bound_C: float
    limit_zero_ok: bool
    witness: tuple[float, float] | None = None


def _check_domain(y, t):
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("coefficient evaluation needs y > 0")
    if np.any(t < 0.0):
        raise ValueError("coefficient evaluation needs t >= 0")
    return y, t


def eval_a(model: CoefficientModel, y, t):
    """Evaluate a(y, t); scalar in, scalar out; arrays broadcast."""
    scalar = np.isscalar(y) and np.isscalar(t)
    y, t = _check_domain(y, t)
    val = model.reduced_a(y, t) * np.power(y, model.y_exponent)
    if not np.all(np.isfinite(val)):
        raise OverflowError("coefficient overflowed at the requested samples")
    return float(val) if scalar else val


def eval_a_t(model: CoefficientModel, y, t):
    """Evaluate the t-derivative a_t(y, t)."""
    scalar = np.isscalar(y) and np.isscalar(t)
    y, t = _check_domain(y, t)
    val = model.reduced_a_t(y, t) * np.power(y, model.y_exponent)
    if not np.all(np.isfinite(val)):
        raise OverflowError("coefficient derivative overflowed")
    return float(val) if scalar else val


def check_structural(model: CoefficientModel,
                     y_samples=None, t_samples=None) -> StructuralReport:
    """Sweep the structural conditions over a (y, t) sample grid.

    Checks positivity of a and of a + t a_t at every sample, records the
    first failing sample in y-major order as witness, reports the
    empirical supremum of t |a_t| / a, and takes t a_t -> 0 as
    |t a_t| <= 1e-6 at t = 1e-8 for every y sample.
    """
    if y_samples is None:
        y_samples = DEFAULT_Y_SAMPLES
    if t_samples is None:
        t_samples = DEFAULT_T_SAMPLES
    y = np.asarray(y_samples, dtype=float)[:, None]
    t = np.asarray(t_samples, dtype=float)

    a = eval_a(model, y, t)
    at = eval_a_t(model, y, t)
    bad = (a <= 0.0) | (a + t * at <= 0.0)
    witness = None
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        witness = (float(y[i, 0]), float(t[j]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(a > 0.0, t * np.abs(at) / a, np.inf)
    bound = float(np.max(ratio, initial=0.0))

    tat = 1e-8 * eval_a_t(model, y, 1e-8)
    limit_ok = bool(np.all(np.abs(tat) <= 1e-6))
    return StructuralReport(ellipticity_ok=witness is None,
                            derivative_bound_C=bound,
                            limit_zero_ok=limit_ok, witness=witness)


def matrix_B(model: CoefficientModel, y: float, eta) -> np.ndarray:
    """The flux linearization B(y, eta) = a I + (a_t/|eta|) eta eta^T.

    The rank-one term is dropped entirely at eta = 0, which is the continuous
    extension whenever t a_t -> 0.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size < 2:
        raise ValueError("eta must be a vector with at least two components")
    norm = float(np.linalg.norm(eta))
    B = eval_a(model, float(y), norm) * np.eye(eta.size)
    if norm > 0.0:
        at = eval_a_t(model, float(y), norm)
        B = B + (at / norm) * np.outer(eta, eta)
    return B


def eigvals_B_closed_form(model: CoefficientModel, y: float, eta):
    """Closed-form spectrum of B: (a + |eta| a_t, multiplicity 1) along eta,
    (a, multiplicity dim-1) on the complement.  Returns (eigenvalues sorted
    ascending, unit vector along eta)."""
    eta = np.asarray(eta, dtype=float)
    norm = float(np.linalg.norm(eta))
    if norm == 0.0:
        raise ValueError("closed-form spectrum is degenerate at eta = 0")
    a = eval_a(model, float(y), norm)
    at = eval_a_t(model, float(y), norm)
    radial = a + norm * at
    vals = np.sort(np.concatenate(([radial], np.full(eta.size - 1, a))))
    return vals, eta / norm
