"""Level-set curvature weights, the directional Poincaré inequality sides,
lateral boundary terms, and the logarithmic cutoff family.

The central object is the bulk weight

    bracket = sum_j <B grad u_xj, grad u_xj> - <B grad |grad_x u|, grad |grad_x u|>

whose sign and size control the cross-sectional oscillation of u.  On the
set where |grad_x u| falls below a threshold the bracket is zero: the
speed is constant a.e. on its zero set, so its gradient carries no mass
there, and the x-derivative fields vanish with it on any zero set of
positive measure — the discrete stand-in for the measure-theoretic
argument used in the continuum proof.  All derivatives here are pointwise
second-order stencils (the public gradient operator), not the weak-form
pairing variant.  One derivative pass of u (its gradient, the gradients of
its cross-section components, |grad_x u| and the gradient of that) feeds
the bracket, the lateral boundary term and the level-set weights;
poincare_sides evaluates both of its sides from one such pass and one
coefficient state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid

DEFAULT_THRESHOLD_FACTOR = 1e-8


class NotApplicableError(ValueError):
    """Raised when an operation needs a rectangle cross-section (n = 2)."""


@dataclass(frozen=True)
class LevelSetGeometry:
    """Curvature data of the level curves of u on one y-slice (n = 2)."""

    K: np.ndarray
    tangential_gradient_of_speed: np.ndarray
    K0: np.ndarray
    Ksharp: np.ndarray
    mask: np.ndarray

    def to_json_dict(self) -> dict:
        m = self.mask
        def stats(arr):
            vals = arr[m]
            if vals.size == 0:
                return {"min": None, "max": None}
            return {"min": float(vals.min()), "max": float(vals.max())}
        return {
            "masked_nodes": int(np.count_nonzero(m)),
            "K": stats(self.K),
            "K0": stats(self.K0),
            "Ksharp": stats(self.Ksharp),
        }


@dataclass(frozen=True)
class PoincareSides:
    """Both sides of the directional Poincaré inequality.

    lhs_bulk + lhs_lateral <= rhs is the inequality satisfied by stable
    solutions; the operation only reports the numbers.
    """

    lhs_bulk: float
    lhs_lateral: float
    rhs: float

    def to_json_dict(self) -> dict:
        return {"lhs_bulk": float(self.lhs_bulk),
                "lhs_lateral": float(self.lhs_lateral),
                "rhs": float(self.rhs),
                "slack": float(self.rhs - self.lhs_bulk - self.lhs_lateral)}


def _safe_divide(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=mask)
    return out


def _derivatives(u: CylinderField, threshold: float | None) -> dict:
    """Pointwise data of u, computed once per public call: grad u (comps),
    the gradient of each cross-section component (hessian), |grad_x u|
    (speed) with its gradient, and the mask speed > threshold."""
    grid = u.grid
    comps = forms.gradient_fields(grid, u.values)
    speed = np.sqrt(sum(c * c for c in comps[:-1]))
    if threshold is None:
        threshold = DEFAULT_THRESHOLD_FACTOR * max(float(speed.max()), 1e-300)
    return {"comps": comps,
            "hessian": [forms.gradient_fields(grid, c) for c in comps[:-1]],
            "speed": speed,
            "grad_speed": forms.gradient_fields(grid, speed),
            "mask": speed > threshold}


def level_set_weights(u: CylinderField, y_index: int,
                      threshold: float) -> LevelSetGeometry:
    """Curvature quantities of the level curves of u on slice y_index.

    Requires a rectangle cross-section; with an interval the level sets of
    the slice are points and carry no curvature.
    """
    grid = u.grid
    if not grid.domain.is_rectangle:
        raise NotApplicableError(
            "level-set curvature needs a rectangle cross-section")
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    ny = grid.ny
    if not -ny <= y_index < ny:
        raise ValueError("y_index out of range")
    whole = _level_set_geometry(u, threshold)
    sl = (slice(None), slice(None), y_index)
    return LevelSetGeometry(
        K=whole.K[sl],
        tangential_gradient_of_speed=whole.tangential_gradient_of_speed[sl],
        K0=whole.K0[sl], Ksharp=whole.Ksharp[sl], mask=whole.mask[sl])


def _level_set_geometry(u: CylinderField,
                        threshold: float) -> LevelSetGeometry:
    """level_set_weights on every y slice at once: its fields on the whole
    rectangle grid, from one derivative pass of u."""
    grid = u.grid
    der = _derivatives(u, threshold)
    comps, speed = der["comps"], der["speed"]    # comps = [ux, uz, uy]
    ux, uz, _ = comps

    # Unit normal of the level curves.  The division floor is machine-scale,
    # not the reporting threshold: zeroing the normal below the threshold
    # would plant an artificial unit-to-zero jump just outside the mask, and
    # the divergence stencils of masked-in nodes would read O(1/h) garbage
    # from it.  The threshold only selects which nodes are reported.
    floor = 1e-14 * max(float(speed.max()), 1e-300)
    div_ok = speed > floor
    nx_ = _safe_divide(ux, speed, div_ok)
    nz_ = _safe_divide(uz, speed, div_ok)
    div_n = (forms.gradient_fields(grid, nx_)[0]
             + forms.gradient_fields(grid, nz_)[1])
    K3 = np.abs(div_n)

    grad_speed = der["grad_speed"]              # [sx, sz, sy]
    sx, sz, sy = grad_speed
    tangential3 = np.abs(-nz_ * sx + nx_ * sz)

    grad_ux, grad_uz = der["hessian"][:2]
    uxy, uzy = grad_ux[2], grad_uz[2]
    K0_3 = (uxy * uxy + uzy * uzy) - sy * sy + K3 * K3 * speed * speed \
        + tangential3 * tangential3

    dot_ux = sum(c * d for c, d in zip(comps, grad_ux))
    dot_uz = sum(c * d for c, d in zip(comps, grad_uz))
    dot_s = sum(c * d for c, d in zip(comps, grad_speed))
    Ksharp3 = dot_ux * dot_ux + dot_uz * dot_uz - dot_s * dot_s

    return LevelSetGeometry(K=K3, tangential_gradient_of_speed=tangential3,
                            K0=K0_3, Ksharp=Ksharp3, mask=der["mask"])


def _bracket(der: dict, state: dict) -> np.ndarray:
    """bulk_bracket from the derivative data der and the coefficient state."""
    total = np.zeros(der["speed"].shape)
    for h in der["hessian"]:
        total += forms.b_form(state, h)
    total -= forms.b_form(state, der["grad_speed"])
    return np.where(der["mask"], total, 0.0)


def _lateral(der: dict, state: dict, psi_sq: np.ndarray) -> float:
    """lateral_boundary_term from the derivative data der and the state."""
    grid = state["grid"]
    # (low, high) face slices normal to each cross-section axis k
    faces = [((slice(None),) * k + (0,), (slice(None),) * k + (-1,))
             for k in range(grid.n_components - 1)]
    hessian = der["hessian"] + [forms.gradient_fields(grid, der["comps"][-1])]
    raw = np.zeros(grid.shape)
    for k, (lo, hi) in enumerate(faces):
        # nu = -e_k on the low face, +e_k on the high face
        face_val = sum(c * h[k] for c, h in zip(der["comps"], hessian))
        raw[lo] += -face_val[lo]
        raw[hi] += face_val[hi]

    # the y**theta factor of a lives in the face weights
    integrand = state["a_red"] * raw * psi_sq
    total = 0.0
    for k, pair in enumerate(faces):
        w = grid.face_weights(k, state["theta"])
        for face in pair:
            total += float(np.sum(w * integrand[face]))
    return total


def bulk_bracket(u: CylinderField, model: CoefficientModel,
                 threshold: float | None = None) -> np.ndarray:
    """Pointwise bracket sum_j <B grad u_xj, grad u_xj>
    - <B grad |grad_x u|, grad |grad_x u|>, restricted to the mask.

    Off the mask (speed at or below the threshold) the whole bracket is
    zero: the speed is constant a.e. on its zero set, so its gradient
    carries no mass there, and on any interior zero set the x-derivative
    fields vanish along with it.  Keeping only the first sum at isolated
    speed zeros (kink columns of |grad_x u|) would break the designed
    cancellation between the two terms by O(h) times the local stiffness
    scale, which is exactly the discretization artifact the masked form
    avoids.
    """
    return _bracket(_derivatives(u, threshold),
                    forms.coefficient_state(u, model))


def lateral_boundary_term(u: CylinderField, model: CoefficientModel,
                          psi_sq: np.ndarray) -> float:
    """Quadrature of a(y,|grad u|) * (grad u . d_nu grad u) * psi^2 over the
    lateral boundary, with the normal derivative taken by the one-sided
    stencil rows of the gradient operator.

    For the flat boundary pieces of intervals and rectangles the exact
    value is zero whenever u satisfies the lateral Neumann condition; the
    returned number is the raw evaluation used for cross-validation, and
    for convex cross-sections it is nonpositive up to quadrature error.
    """
    return _lateral(_derivatives(u, None), forms.coefficient_state(u, model),
                    psi_sq)


def poincare_sides(u: CylinderField, model: CoefficientModel, reaction,
                   psi: CylinderField,
                   threshold: float | None = None) -> PoincareSides:
    """Evaluate both sides of the directional Poincaré inequality at u, psi.

    The reaction argument is part of the reporting interface (it identifies
    the problem the solution came from) but the inequality itself involves
    only the coefficient model and u.  No stability assertion is made here:
    for unstable u the inequality may genuinely fail.
    """
    grid = u.grid
    der = _derivatives(u, threshold)
    state = forms.coefficient_state(u, model)
    w_theta = grid.bulk_weights(state["theta"])

    lhs_bulk = float(np.sum(w_theta * _bracket(der, state) * psi.values ** 2))
    lhs_lateral = -_lateral(der, state, psi.values ** 2)

    b_psi = forms.b_form(state, forms.gradient_fields(grid, psi.values))
    rhs = float(np.sum(w_theta * b_psi * der["speed"] * der["speed"]))
    return PoincareSides(lhs_bulk=lhs_bulk, lhs_lateral=lhs_lateral, rhs=rhs)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic ramp: 0 at 0, 1 at 1, first and second derivatives zero at
    both ends; maximum slope 15/8, well under the slope bound 10."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def tau_ramp(z: float, R: float) -> float:
    """C^2 plateau function: 0 below sqrt(R), 1 on [sqrt(R)+1, R-1],
    0 above R, with unit-width quintic ramps."""
    lo = np.sqrt(R)
    if z <= lo or z >= R:
        return 0.0
    if z < lo + 1.0:
        return float(_smoothstep(np.array(z - lo)))
    if z > R - 1.0:
        return float(_smoothstep(np.array(R - z)))
    return 1.0


def log_cutoff(R: float, grid: CylinderGrid) -> CylinderField:
    """The logarithmic cutoff psi_R(y) = int_y^R tau_R(z)/z dz on the grid.

    tau_R ramps from 0 to 1 across [sqrt(R), sqrt(R)+1] and back down
    across [R-1, R]; psi_R is constant (about log(sqrt R)) below sqrt(R)
    and vanishes for y >= R.
    """
    if not R > 100.0:
        raise ValueError("need R > 100")
    if not np.sqrt(R) + 1.0 < R - 1.0:
        raise ValueError("R too small for unit-width ramps")
    from scipy.integrate import quad

    y = grid.y_nodes
    profile = np.zeros_like(y)
    corners = (np.sqrt(R), np.sqrt(R) + 1.0, R - 1.0, R)
    # integrate from the top down so each node extends the previous segment
    prev_y, acc = float(R), 0.0
    for j in range(y.size - 1, -1, -1):
        yj = float(y[j])
        if yj >= R:
            continue
        lo = max(yj, 1e-300)
        # hand the quadrature the ramp corners inside the segment: on a
        # segment much wider than the unit ramps, adaptive subdivision
        # alone can integrate straight past them
        pts = [c for c in corners if lo < c < prev_y]
        seg, _ = quad(lambda z: tau_ramp(z, R) / z, lo, prev_y, limit=200,
                      points=pts or None)
        acc += seg
        profile[j] = acc
        prev_y = lo
    vals = np.broadcast_to(profile, grid.shape).copy()
    return CylinderField(grid, vals)
