"""Data-driven cubature error bound and the decay-assumption check.

The bound is valid for integrands whose true coefficient tier sums decay
steadily: the unobservable tail is bounded by an inflation of an observed
mid-range tier.  The parameters below fix how inclusive that assumption
is; the necessary-condition check compares one tier across two levels and
reports integrands that demonstrably violate the assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ledger import CoefficientLedger
from .sequences import _integer_argument, _real_argument


class LevelTooLowError(ValueError):
    """The ledger level is below the minimum the bound requires."""


@dataclass(frozen=True)
class ConeParams:
    """Decay-assumption parameters.

    ``l_star`` is the first tier where steady decay is assumed, ``r`` the
    gap between the observed tier and the level, ``bound_scale`` the scale
    of the combined bound factor ``bound_scale * 2**-m``, and ``rho_scale``
    the scale of the tier-inflation product ``min(rho_scale * 2**-a,
    rho_cap)`` used by the necessary check.  ``m_max`` caps the adaptive
    doubling.  Integer fields are stored as Python ints, the scales as Python floats.
    """

    l_star: int = 6
    r: int = 4
    bound_scale: float = 5.0
    rho_scale: float = 5.0
    rho_cap: float = 0.99
    m_max: int = 24

    def __post_init__(self):
        for name in ("l_star", "r", "m_max"):
            object.__setattr__(self, name, _integer_argument(name, getattr(self, name), ValueError))
        for name in ("bound_scale", "rho_scale", "rho_cap"):
            object.__setattr__(self, name, _real_argument(name, getattr(self, name)))
        if self.l_star < 1 or self.r < 1:
            raise ValueError("l_star and r must be positive integers")
        if self.m_max < self.l_star + self.r:
            raise ValueError("m_max must be at least l_star + r")
        if self.bound_scale <= 0:
            raise ValueError("bound_scale must be positive")
        if self.rho_scale < 0 or self.rho_cap < 0:
            raise ValueError("rho_scale and rho_cap must be nonnegative")
        if not self.rho(self.r) < 1.0:
            raise ValueError("rho(r) must be below one for the bound to hold")

    @property
    def min_level(self) -> int:
        return self.l_star + self.r

    def bound_factor(self, m: int) -> float:
        return self.bound_scale * 2.0**-m

    def rho(self, a: int) -> float:
        return min(self.rho_scale * 2.0**-a, self.rho_cap)


@dataclass(frozen=True)
class IntervalEstimate:
    """Per-coordinate mean and error bound from 2**m samples."""

    mu: np.ndarray
    err: np.ndarray


@dataclass(frozen=True)
class ViolationReport:
    """One failed instance of the cross-level necessary condition."""

    ell: int
    m: int
    m_prime: int
    lhs: float
    rhs: float
    coordinate: int = 0

    def __str__(self) -> str:
        return (
            f"tier {self.ell} of coordinate {self.coordinate}: "
            f"S[{self.ell},{self.m}] lower bound {self.lhs:.6g} exceeds "
            f"S[{self.ell},{self.m_prime}] upper bound {self.rhs:.6g}"
        )


def error_bound(ledger: CoefficientLedger, params: ConeParams) -> IntervalEstimate:
    """Error bound err = bound_factor(m) * (tier m-r sum) around the mean.

    The tier sum is taken in the magnitude-ranked index ordering (see
    :class:`~qmcube.ledger.CoefficientLedger`): observed coefficients are
    assigned to tiers so that they decay as the index grows, which is the
    ordering convention the decay assumption is stated in.
    """
    m = ledger.m
    if m < params.min_level:
        raise LevelTooLowError(
            f"level m={m} is below the minimum l_star + r = {params.min_level}"
        )
    if ledger.r != params.r:
        raise ValueError(
            f"the ledger keeps ranked tier m - {ledger.r}, the bound reads m - {params.r}"
        )
    err = params.bound_factor(m) * ledger.ranked_tier
    return IntervalEstimate(mu=ledger.mean.copy(), err=np.asarray(err, dtype=float))


def necessary_condition(
    ledger: CoefficientLedger,
    other: CoefficientLedger,
    ell: int,
    params: ConeParams,
) -> list[ViolationReport]:
    """Check one tier of ``ledger`` against the same tier of ``other``.

    The true tier sum is at least the observed one deflated by aliasing
    (left side, from ``ledger`` at level m) and at most the observed one
    inflated by aliasing (right side, from ``other`` at level m'), so

        S[ell, m] / (1 + rho(m - ell)) <= S[ell, m'] / (1 - rho(m' - ell))

    must hold whenever rho(m' - ell) < 1.  An empty list means pass; a
    violation proves the integrand lies outside the assumed decay class.

    The tier sums here use the fixed natural index ordering, whose ranges
    measure the same wavenumber classes at both levels; the data-driven
    ranked ordering would re-assign classes per level and mask exactly the
    cross-level mass movement this check exists to expose.
    """
    m, m_prime = ledger.m, other.m
    if not (params.l_star <= ell <= min(m, m_prime)):
        raise ValueError(f"tier ell={ell} must satisfy l_star <= ell <= min(m, m')")
    rho_right = params.rho(m_prime - ell)
    if rho_right >= 1.0:
        return []
    lhs = ledger.tiers[ell] / (1.0 + params.rho(m - ell))
    rhs = other.tiers[ell] / (1.0 - rho_right)
    reports = []
    for coord in np.nonzero(lhs > rhs)[0]:
        reports.append(
            ViolationReport(
                ell=ell,
                m=m,
                m_prime=m_prime,
                lhs=float(lhs[coord]),
                rhs=float(rhs[coord]),
                coordinate=int(coord),
            )
        )
    return reports
