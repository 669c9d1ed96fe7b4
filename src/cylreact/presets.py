"""Named experiment presets: worked scenarios with their expected outcomes.

Each preset bundles a domain, grid sizes, a coefficient model, a reaction,
and (when one exists) the closed-form state it revolves around, together
with the metadata the checking layers gate on:

* ``expected_classification`` — the stability label the scenario is known
  to produce, or None when the preset is not a stability scenario.
* ``bounded_below`` — whether the exact state stays bounded below on the
  untruncated half-cylinder (the truncated grid minimum is meaningless
  for states that keep decreasing in y).

The extremum-sign conclusion (reaction nonpositive at the infimum,
infimum on the bottom) also needs int_0^inf dz/a(z, 0) to diverge; that
hypothesis is read off the model, ``CoefficientModel.reciprocal_integral``.

The anchor strings are opaque report payload consumed by the reporting
layer; every record either cites one or carries the literal "plumbing".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientModel
from .cylinder import CylinderField, CylinderGrid, DomainSpec, build_grid
from .solver import ReactionSpec, catalog_solution
from . import solver

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Preset:
    """One named scenario."""

    name: str
    anchor: str
    description: str
    domain: DomainSpec
    nx: int
    ny: int
    y_max: float
    grading: float = 0.0
    model_factory: Callable[[], CoefficientModel] = CoefficientModel.constant_one
    reaction_factory: Callable[[], ReactionSpec] = lambda: ReactionSpec.constant(0.0)
    catalog_name: str | None = None
    one_dim_c: float = 0.0
    expected_classification: str | None = None
    bounded_below: bool = False

    def build_grid(self, nx: int | None = None,
                   ny: int | None = None) -> CylinderGrid:
        return build_grid(self.domain,
                          nx=nx if nx is not None else self.nx,
                          ny=ny if ny is not None else self.ny,
                          y_max=self.y_max, grading=self.grading)

    def model(self) -> CoefficientModel:
        return self.model_factory()

    def reaction(self) -> ReactionSpec:
        return self.reaction_factory()

    def exact_state(self, grid: CylinderGrid) -> CylinderField | None:
        """Sample the closed-form state on the grid, if one exists."""
        if self.catalog_name is None:
            return None
        return catalog_solution(self.catalog_name, grid,
                                model=self.model(),
                                reaction=self.reaction(),
                                c=self.one_dim_c)


_INTERVAL_PI = DomainSpec.interval(0.0, np.pi)
_INTERVAL_2PI = DomainSpec.interval(0.0, TWO_PI)

PRESETS: tuple[Preset, ...] = (
    Preset(
        name="linear-y",
        anchor="§1.4",
        description="u = y with unit coefficient and constant reaction -1; "
                    "harmonic, stable, infimum 0 on the bottom with f(0) = -1.",
        domain=_INTERVAL_PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.constant_one,
        reaction_factory=lambda: ReactionSpec.constant(-1.0),
        catalog_name=solver.LINEAR_Y,
        expected_classification="Stable",
        bounded_below=True,
    ),
    Preset(
        name="exp-decay",
        anchor="§1.4",
        description="u = e^{-y} with coefficient e^y and constant reaction +1; "
                    "stable and bounded, yet f stays positive: the extremum-sign "
                    "conclusion is not applicable because 1/a is integrable.",
        domain=_INTERVAL_PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.exp_y,
        reaction_factory=lambda: ReactionSpec.constant(1.0),
        catalog_name=solver.EXP_DECAY,
        expected_classification="Stable",
        bounded_below=True,
    ),
    Preset(
        name="grow-cos-stable",
        anchor="§1.4",
        description="u = e^{y} cos x on (0, 2 pi) with reaction f(u) = -u; "
                    "stable despite exponential growth.",
        domain=_INTERVAL_2PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.constant_one,
        reaction_factory=lambda: ReactionSpec.linear(-1.0),
        catalog_name=solver.GROW_COS,
        expected_classification="Stable",
        bounded_below=False,
    ),
    Preset(
        name="decay-cos-unstable",
        anchor="§1.4",
        description="u = e^{-y} cos x on (0, 2 pi) with reaction f(u) = u; "
                    "the sign-changing bounded state, unstable.",
        domain=_INTERVAL_2PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.constant_one,
        reaction_factory=lambda: ReactionSpec.linear(1.0),
        catalog_name=solver.DECAY_COS,
        expected_classification="Unstable",
        bounded_below=True,
    ),
    Preset(
        name="const-one",
        anchor="plumbing",
        description="u = 1 with unit coefficient and reaction f(u) = 1 - u; "
                    "constant stable state, f vanishes at the infimum.",
        domain=_INTERVAL_PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.constant_one,
        reaction_factory=lambda: ReactionSpec.constant(1.0).shifted(1.0),
        catalog_name=solver.CONSTANT_ONE,
        expected_classification="Stable",
        bounded_below=True,
    ),
    Preset(
        name="one-dim-family",
        anchor="Eq. O76:98",
        description="y-only profile c - f(c) * int_0^y dz/a(z) for the "
                    "power-weight coefficient with theta = -1/2 on a graded "
                    "grid; exact member of the one-dimensional family.",
        domain=_INTERVAL_PI, nx=33, ny=65, y_max=2.0, grading=0.5,
        model_factory=lambda: CoefficientModel.power_weight(-0.5),
        reaction_factory=lambda: ReactionSpec.linear(1.0),
        catalog_name=solver.ONE_DIM_FAMILY,
        one_dim_c=1.0,
        expected_classification=None,
        bounded_below=False,
    ),
    Preset(
        name="sneumann-constancy",
        anchor="Theorem thm: s-Neumann 1",
        description="spectral half-Laplacian with reaction f(v) = -v - v^3 on "
                    "(0, pi): every Newton run from random data lands on a "
                    "constant (here the zero constant).",
        domain=_INTERVAL_PI, nx=65, ny=65, y_max=8.0,
        model_factory=CoefficientModel.constant_one,
        reaction_factory=lambda: ReactionSpec.cubic().shifted(1.0),
        catalog_name=None,
        expected_classification=None,
        bounded_below=True,
    ),
)

_BY_NAME = {p.name: p for p in PRESETS}


def preset_names() -> tuple[str, ...]:
    return tuple(p.name for p in PRESETS)


def get_preset(name: str) -> Preset:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(_BY_NAME)}")


def stability_quartet() -> tuple[Preset, ...]:
    """The four labeled stability scenarios, in fixed order."""
    return tuple(_BY_NAME[n] for n in
                 ("linear-y", "exp-decay", "grow-cos-stable",
                  "decay-cos-unstable"))


def extremum_battery() -> tuple[Preset, ...]:
    """Presets with a t-monotone coefficient and no bulk source.

    This is the widest set the extremum-sign check can see; per-preset
    hypothesis gating (boundedness, divergence flag, convergence,
    stability) happens at the call site.
    """
    out = []
    for p in PRESETS:
        model = p.model()
        reaction = p.reaction()
        if reaction.g is not None:
            continue
        # t-monotone: a_t <= 0 sampled over a structural probe grid.
        ys = np.linspace(0.1, p.y_max, 7)
        ts = np.linspace(0.0, 3.0, 7)
        if np.any(model.reduced_a_t(ys[:, None], ts) > 1e-12):
            continue
        out.append(p)
    return tuple(out)
