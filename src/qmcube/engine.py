"""Adaptive cubature loop with hybrid absolute/relative stopping.

The sample size doubles until the worst-case value of the tolerance
function over the data-implied interval [v-, v+] drops to one; the
reported estimate is the minimizer of that worst case, which is a
shrinkage of the interval midpoint toward zero whenever the relative
tolerance is active.  The three replication heuristics from the
literature are provided for comparison; they carry no guarantee.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import ConeParams, IntervalEstimate, ViolationReport, error_bound, necessary_condition
from .ledger import CoefficientLedger, _evaluate, build_ledger
from .sequences import make_generator

STATUS_TOLERANCE_MET = "tolerance-met"
STATUS_BUDGET_EXHAUSTED = "budget-exhausted"
STATUS_CAPACITY_EXHAUSTED = "capacity-exhausted"
FLAG_CONE_VIOLATION = "cone-violation-flagged"


@dataclass(frozen=True)
class Tolerance:
    """Hybrid error criterion: met if the error is within the absolute
    tolerance or within the relative tolerance times the true value."""

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise ValueError("abs_tol must be finite and nonnegative")
        if not 0 <= self.rel_tol < 1:
            raise ValueError("rel_tol must lie in [0, 1)")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")

    def scale(self, v: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(v))


def tolerance_value(true_v: float, v_hat: float, tol: Tolerance) -> float:
    """Squared error over the squared active tolerance; <= 1 means success."""
    denom = tol.scale(true_v)
    if denom == 0.0:
        return 0.0 if true_v == v_hat else np.inf
    with np.errstate(over="ignore"):
        return float(np.float64((true_v - v_hat) / denom) ** 2)


def optimal_estimate(v_minus: float, v_plus: float, tol: Tolerance) -> float:
    """Estimate minimizing the worst-case tolerance over [v-, v+].

    Weighted average of the endpoints, each weighted by the tolerance
    scale at the opposite endpoint; lies in [v-, v+] and shrinks toward
    zero under a relative criterion.
    """
    if v_minus > v_plus:
        raise ValueError("v_minus must not exceed v_plus")
    w_minus = tol.scale(v_plus)
    w_plus = tol.scale(v_minus)
    denom = w_minus + w_plus
    if denom == 0.0:
        if v_minus == 0.0 and v_plus == 0.0:
            return 0.0
        # relative weights underflowed; they are proportional to |v -+|
        w_minus, w_plus = abs(v_plus), abs(v_minus)
        denom = w_minus + w_plus
    return (v_minus * w_minus + v_plus * w_plus) / denom


def sup_tolerance(v_minus: float, v_plus: float, tol: Tolerance) -> float:
    """Worst-case tolerance over [v-, v+] at the optimal estimate."""
    if v_minus > v_plus:
        raise ValueError("v_minus must not exceed v_plus")
    denom = tol.scale(v_plus) + tol.scale(v_minus)
    if denom == 0.0:
        return 0.0 if v_plus == v_minus else np.inf
    with np.errstate(over="ignore"):
        return float(np.float64((v_plus - v_minus) / denom) ** 2)


@dataclass(frozen=True)
class SolutionFunctional:
    """A scalar function v of several integrals, given by its interval oracle.

    ``bounds`` maps the box (mu_hat - err, mu_hat + err), intersected with
    v's domain, to the extreme values (v-, v+).
    """

    output_count: int
    bounds: Callable[[np.ndarray, np.ndarray], tuple[float, float]]


def identity_functional() -> SolutionFunctional:
    return SolutionFunctional(
        output_count=1,
        bounds=lambda mu, err: (float(mu[0] - err[0]), float(mu[0] + err[0])),
    )


@dataclass(frozen=True)
class CubatureResult:
    """Outcome of one adaptive integration."""

    v_hat: float
    n: int
    estimate: IntervalEstimate
    sup_tol: float
    status: str
    cone_violations: tuple[ViolationReport, ...]
    wall_ms: float
    seed: object
    family: str
    dimension: int
    outputs: int

    @property
    def status_flags(self) -> tuple[str, ...]:
        flags = (self.status,)
        if self.cone_violations:
            flags += (FLAG_CONE_VIOLATION,)
        return flags

    @staticmethod
    def csv_header(include_wall_time: bool = True) -> list[str]:
        cols = ["seed", "family", "d", "p", "n", "v_hat", "sup_tol", "status"]
        return cols + (["wall_ms"] if include_wall_time else [])

    def csv_row(self, include_wall_time: bool = True) -> list[str]:
        row = [
            str(self.seed),
            self.family,
            str(self.dimension),
            str(self.outputs),
            str(self.n),
            repr(self.v_hat),
            repr(self.sup_tol),
            "+".join(self.status_flags),
        ]
        if include_wall_time:
            row.append(repr(self.wall_ms))
        return row


def _resolve_generator(family: str, dimension: int, seed, generator):
    if generator is None:
        return make_generator(family, dimension, seed)
    if generator.dimension != dimension:
        raise ValueError(
            f"generator has dimension {generator.dimension}, expected {dimension}"
        )
    return generator


def _level_budget(cone: ConeParams, gen) -> tuple[int, str]:
    """Top level of a run and the status it reports if it stops there.

    The level budget is cone.m_max unless the generator's capacity is
    lower; a run that capacity stopped says so.
    """
    if gen.max_level < cone.min_level:
        raise ValueError(
            f"generator supports levels up to {gen.max_level}, below the "
            f"minimum level {cone.min_level}"
        )
    if gen.max_level < cone.m_max:
        return gen.max_level, STATUS_CAPACITY_EXHAUSTED
    return cone.m_max, STATUS_BUDGET_EXHAUSTED


def _adapt(level, gen, functional, tol, cone, seed, generator) -> CubatureResult:
    """The doubling loop of :func:`integrate`, on the ledgers ``level(m, previous)`` builds.

    ``previous`` is the ledger of level m - 1, None at the first level.  The
    result reports ``seed`` only when ``gen`` was built from it, that is
    when ``generator`` is None.
    """
    top_level, status = _level_budget(cone, gen)

    start = time.perf_counter()
    violations: list[ViolationReport] = []
    ledger: CoefficientLedger | None = None
    for m in range(cone.min_level, top_level + 1):
        previous = ledger
        ledger = level(m, previous)
        if ledger.outputs != functional.output_count:
            raise ValueError(
                f"integrand produced {ledger.outputs} outputs, functional "
                f"expects {functional.output_count}"
            )
        if previous is not None:
            ell = m - cone.r
            violations.extend(necessary_condition(previous, ledger, ell, cone))
            violations.extend(necessary_condition(ledger, previous, ell, cone))
        estimate = error_bound(ledger, cone)
        v_minus, v_plus = functional.bounds(estimate.mu, estimate.err)
        worst = sup_tolerance(v_minus, v_plus, tol)
        if worst <= 1.0:
            status = STATUS_TOLERANCE_MET
            break

    wall_ms = 1e3 * (time.perf_counter() - start)
    return CubatureResult(
        v_hat=optimal_estimate(v_minus, v_plus, tol),
        n=ledger.n,
        estimate=estimate,
        sup_tol=worst,
        status=status,
        cone_violations=tuple(violations),
        wall_ms=wall_ms,
        seed=seed if generator is None else None,
        family=gen.family,
        dimension=gen.dimension,
        outputs=functional.output_count,
    )


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    functional: SolutionFunctional,
    tol: Tolerance,
    cone: ConeParams | None = None,
    family: str = "digital",
    seed=0,
    generator=None,
) -> CubatureResult:
    """Adaptively integrate a p-output function and report v(mu).

    Doubles n = 2**m from the minimum level until the worst-case
    tolerance over the interval the bound oracle produces is at most
    one, or the level budget (cone.m_max, capped by the generator's
    capacity) runs out; the status then reads "budget-exhausted", or
    "capacity-exhausted" when the generator's capacity was the cap.  The
    cross-level necessary condition is checked at each new level;
    violations are recorded, not fatal.
    """
    cone = cone or ConeParams()
    gen = _resolve_generator(family, dimension, seed, generator)
    level = lambda m, previous: build_ledger(f, gen, m, previous, r=cone.r)  # noqa: E731
    return _adapt(level, gen, functional, tol, cone, seed, generator)


def integrate_scalar(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    tol: Tolerance,
    cone: ConeParams | None = None,
    family: str = "digital",
    seed=0,
    generator=None,
) -> CubatureResult:
    """Estimate the integral itself (identity functional)."""
    return integrate(f, dimension, identity_functional(), tol, cone, family, seed, generator)


@dataclass(frozen=True)
class BaselineEstimate:
    """Replication-heuristic estimate with its non-guaranteed bound."""

    strategy: str
    estimate: float
    claimed_bound: float
    replicate_means: np.ndarray
    n: int
    repeats: int
    inflation: float


BASELINE_STRATEGIES = ("iid-replications", "internal-replications", "quasi-standard-error")


def heuristic_baselines(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    strategy: str,
    repeats: int,
    n: int,
    inflation: float = 1.2,
    family: str = "digital",
    seed=0,
) -> BaselineEstimate:
    """Replication heuristics: estimate plus an inflated-spread "bound".

    All three report the average of R replicate means and claim
    ``inflation * std(replicate means)`` as an error bound.  None of
    them is guaranteed; see :func:`integrate` for the guaranteed path.
    Points are evaluated in the same bounded blocks as :func:`integrate`,
    so a non-finite value raises :class:`EvaluationError` with its point
    index.
    """
    if repeats < 2:
        raise ValueError("at least two replicates are required")
    if n < 1:
        raise ValueError("n must be positive")
    if strategy == "iid-replications":
        means = np.empty(repeats)
        for rep in range(repeats):
            gen = make_generator(family, dimension, seed ^ rep if seed is not None else rep)
            means[rep] = float(np.mean(_evaluate((f,), gen, 0, n)[0]))
    elif strategy == "internal-replications":
        gen = make_generator(family, dimension, seed)
        vals = _evaluate((f,), gen, 0, n * repeats)[0]
        means = vals.reshape(repeats, -1).mean(axis=1)
    elif strategy == "quasi-standard-error":
        gen = make_generator(family, dimension * repeats, seed)
        # replicate r reads coordinates [r d, (r + 1) d) of the d R-dimensional points
        slices = [
            lambda x, lo=rep * dimension: f(x[:, lo : lo + dimension]) for rep in range(repeats)
        ]
        means = np.array([float(np.mean(vals)) for vals in _evaluate(slices, gen, 0, n)])
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {BASELINE_STRATEGIES}")
    spread = float(np.std(means, ddof=1))
    return BaselineEstimate(
        strategy=strategy,
        estimate=float(np.mean(means)),
        claimed_bound=inflation * spread,
        replicate_means=means,
        n=n,
        repeats=repeats,
        inflation=inflation,
    )
