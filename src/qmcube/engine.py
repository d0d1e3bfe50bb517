"""Adaptive cubature loop with hybrid absolute/relative stopping.

The sample size doubles until the worst-case value of the tolerance
function over the data-implied interval [v-, v+] drops to one; the
reported estimate is the minimizer of that worst case, which is a
shrinkage of the interval midpoint toward zero whenever the relative
tolerance is active.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import ConeParams, IntervalEstimate, ViolationReport, error_bound, necessary_condition
from .ledger import CoefficientLedger, build_ledger
from .sequences import _real_argument, make_generator

STATUS_TOLERANCE_MET = "tolerance-met"
STATUS_BUDGET_EXHAUSTED = "budget-exhausted"
STATUS_CAPACITY_EXHAUSTED = "capacity-exhausted"
FLAG_CONE_VIOLATION = "cone-violation-flagged"


@dataclass(frozen=True)
class Tolerance:
    """Hybrid error criterion, two Python floats: met if the error is within
    the absolute tolerance or within the relative tolerance times the true value."""

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            object.__setattr__(self, name, _real_argument(name, getattr(self, name)))
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if not 0 <= self.rel_tol < 1:
            raise ValueError("rel_tol must lie in [0, 1)")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol cannot both be zero")

    def scale(self, v: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(v))


def _check_interval(v_minus: float, v_plus: float) -> tuple[float, float]:
    if not v_minus <= v_plus:
        raise ValueError(
            f"v_minus must not exceed v_plus, and neither may be NaN: [{v_minus}, {v_plus}]"
        )
    return float(v_minus), float(v_plus)


def optimal_estimate(v_minus: float, v_plus: float, tol: Tolerance) -> float:
    """Estimate minimizing the worst-case tolerance over [v-, v+].

    Weighted average of the endpoints, each weighted by the tolerance
    scale at the opposite endpoint; shrinks toward zero under a relative
    criterion.  Where that average is not finite, because the products
    overflow or the weights underflow to zero, it is taken with the
    endpoints and their weights relative to the larger endpoint magnitude.
    The average is clipped to [v-, v+], which its rounding can leave.  An
    interval with an infinite endpoint has no such average; its estimate
    is the point of [v-, v+] nearest zero, under every tolerance.
    """
    v_minus, v_plus = _check_interval(v_minus, v_plus)
    if math.isinf(v_minus) or math.isinf(v_plus):
        return min(max(0.0, v_minus), v_plus)
    w_minus, w_plus = tol.scale(v_plus), tol.scale(v_minus)
    denom = w_minus + w_plus
    average = (v_minus * w_minus + v_plus * w_plus) / denom if denom > 0 else math.nan
    if not math.isfinite(average):
        s = max(-v_minus, v_plus)
        if s == 0:
            return 0.0
        u_minus, u_plus = v_minus / s, v_plus / s
        w_minus = max(tol.abs_tol / s, tol.rel_tol * abs(u_plus))
        w_plus = max(tol.abs_tol / s, tol.rel_tol * abs(u_minus))
        average = s * ((u_minus * w_minus + u_plus * w_plus) / (w_minus + w_plus))
    return min(max(average, v_minus), v_plus)


def sup_tolerance(v_minus: float, v_plus: float, tol: Tolerance) -> float:
    """Worst-case tolerance over [v-, v+] at the optimal estimate.

    An infinite endpoint gives inf: no estimate meets the tolerance over an
    unbounded interval, and under a relative tolerance the ratio would be
    inf / inf.
    """
    v_minus, v_plus = _check_interval(v_minus, v_plus)
    if math.isinf(v_minus) or math.isinf(v_plus):
        return math.inf
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
        bounds=lambda mu, err: (mu[0] - err[0], mu[0] + err[0]),
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

    def csv_row(self, include_wall_time: bool = True) -> list[str]:
        row = [
            str(self.seed),
            self.family,
            str(self.dimension),
            str(self.outputs),
            str(self.n),
            repr(self.v_hat),
            repr(self.sup_tol),
            self.status + ("+" + FLAG_CONE_VIOLATION if self.cone_violations else ""),
        ]
        if include_wall_time:
            row.append(repr(self.wall_ms))
        return row


def _resolve_generator(family: str, dimension: int, seed, generator):
    """The generator of a run and the seed its result reports: None for a given generator."""
    if generator is None:
        return make_generator(family, dimension, seed), seed
    if generator.dimension != dimension:
        raise ValueError(
            f"generator has dimension {generator.dimension}, expected {dimension}"
        )
    return generator, None


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


def _adapt(level, gen, functional, tol, cone, seed) -> CubatureResult:
    """The doubling loop of :func:`integrate`, on the ledgers ``level(m, previous)`` builds.

    ``previous`` is the ledger of level m - 1, None at the first level.
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
        seed=seed,
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
    gen, seed = _resolve_generator(family, dimension, seed, generator)
    level = lambda m, previous: build_ledger(f, gen, m, previous, r=cone.r)  # noqa: E731
    return _adapt(level, gen, functional, tol, cone, seed)


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
