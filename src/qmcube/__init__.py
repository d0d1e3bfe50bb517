"""Adaptive quasi-Monte Carlo cubature with data-driven error bounds."""

from .cone import ConeParams, IntervalEstimate, LevelTooLowError, ViolationReport, error_bound, necessary_condition
from .engine import (
    BaselineEstimate,
    CubatureResult,
    SolutionFunctional,
    Tolerance,
    heuristic_baselines,
    identity_functional,
    integrate,
    integrate_scalar,
    optimal_estimate,
    sup_tolerance,
    tolerance_value,
)
from .ledger import (
    CoefficientLedger,
    EvaluationError,
    TransformError,
    aliasing_check,
    build_ledger,
    fwht,
    lattice_dft,
    predicted_coefficients,
    synthesize_integrand,
    tier_sums,
)
from .sequences import (
    DigitalGenerator,
    DirectionTableError,
    IndexRangeError,
    LatticeGenerator,
    LatticeVectorError,
    PointBatch,
    default_digital_generator,
    default_lattice_generator,
    load_direction_numbers,
    load_lattice_vector,
    make_generator,
    randomize_digital,
    randomize_lattice,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
