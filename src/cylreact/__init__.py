"""Numerics for boundary reaction-diffusion problems on half-cylinders.

The package covers: degenerate/singular coefficient families with
ellipticity checks, tensor-product grids on truncated half-cylinders,
a damped-Newton solver for the quasilinear weak form with a catalog of
closed-form solutions, second-variation stability classification,
level-set-weighted Poincaré inequality checks, the spectral fractional
Neumann Laplacian with its harmonic extension, the one-dimensional
integral fractional Laplacian with a counterexample-construction
pipeline, and a config-driven command line runner.
"""

from .coefficients import (
    CoefficientModel,
    StructuralReport,
    check_structural,
    eigvals_B_closed_form,
    eval_a,
    eval_a_t,
    matrix_B,
)
from .cylinder import (
    CylinderField,
    CylinderGrid,
    DomainSpec,
    Region,
    build_grid,
    field_to_csv,
    gradient,
    integrate,
)
from .solver import (
    ReactionSpec,
    SolveReport,
    catalog_solution,
    extremum_sign_check,
    residual_vector,
    solve_newton,
)
from .stability import EigenSolveError, StabilityReport, classify
from .geometry import (
    LevelSetGeometry,
    PoincareSides,
    bulk_bracket,
    lateral_boundary_term,
    level_set_weights,
    log_cutoff,
    poincare_sides,
)
from .spectral import (
    SpectralBasis,
    SpectralFunction,
    SpectralSolveError,
    apply_fractional,
    eig_growth_check,
    extend_harmonic,
    extension_equivalence,
    neumann_basis,
    solve_semilinear,
)
from .fractional1d import (
    CounterexampleResult,
    NoRootError,
    Side,
    apply_integral_fraclap,
    compare_operators,
    construct_counterexample,
    fractional_normal_derivative,
    make_operator,
    operator_rows,
    solve_exterior_value,
)
from .presets import Preset, PRESETS, get_preset, preset_names

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel", "StructuralReport", "check_structural",
    "eigvals_B_closed_form", "eval_a", "eval_a_t", "matrix_B",
    "CylinderField", "CylinderGrid", "DomainSpec", "Region", "build_grid",
    "field_to_csv", "gradient", "integrate",
    "ReactionSpec", "SolveReport", "catalog_solution", "extremum_sign_check",
    "residual_vector", "solve_newton",
    "EigenSolveError", "StabilityReport", "classify",
    "LevelSetGeometry", "PoincareSides", "bulk_bracket",
    "lateral_boundary_term", "level_set_weights", "log_cutoff",
    "poincare_sides",
    "SpectralBasis", "SpectralFunction", "SpectralSolveError",
    "apply_fractional", "eig_growth_check", "extend_harmonic",
    "extension_equivalence", "neumann_basis", "solve_semilinear",
    "CounterexampleResult", "NoRootError", "Side", "apply_integral_fraclap",
    "compare_operators", "construct_counterexample",
    "fractional_normal_derivative", "make_operator", "operator_rows",
    "solve_exterior_value",
    "Preset", "PRESETS", "get_preset", "preset_names",
    "__version__",
]
