"""Adaptive quasi-Monte Carlo cubature with data-driven error bounds."""

from .cone import ConeParams, IntervalEstimate, LevelTooLowError, ViolationReport, error_bound, necessary_condition
from .engine import (
    CubatureResult,
    SolutionFunctional,
    Tolerance,
    identity_functional,
    integrate,
    integrate_scalar,
    optimal_estimate,
    sup_tolerance,
)
from .ledger import (
    CoefficientLedger,
    EvaluationError,
    TransformError,
    build_ledger,
    fwht,
    lattice_dft,
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
