"""Control variates for the adaptive cubature engine.

The integrand is replaced by h(x) = f(x) + beta . (mu_g - g(x)), which has
the same integral for any coefficient vector beta.  For low-discrepancy
sampling the useful beta is not the covariance-minimizing one: it is fit
by least squares on the high-wavenumber discrete coefficients, which are
the ones driving the data-based error bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import ConeParams, error_bound, necessary_condition
from .engine import (
    STATUS_TOLERANCE_MET,
    CubatureResult,
    Tolerance,
    _level_budget,
    _resolve_generator,
    optimal_estimate,
    sup_tolerance,
)
from .ledger import CoefficientLedger, _evaluate, fwht, lattice_dft

BETA_POLICIES = ("freeze-after-first-level", "refresh-each-level")


@dataclass(frozen=True)
class ControlVariateSpec:
    """Control functions with known means and the coefficient update policy."""

    controls: Callable[[np.ndarray], np.ndarray]
    means: np.ndarray
    policy: str = "freeze-after-first-level"

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=np.float64))
        if means.size < 1 or not np.all(np.isfinite(means)):
            raise ValueError("control means must be a nonempty finite vector")
        if self.policy not in BETA_POLICIES:
            raise ValueError(f"unknown beta policy {self.policy!r}; expected {BETA_POLICIES}")
        object.__setattr__(self, "means", means)

    @property
    def count(self) -> int:
        return self.means.size


def _stack_real(coef: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(coef):
        return np.concatenate([coef.real, coef.imag], axis=0)
    return coef


def beta_qmc(f_coefficients: np.ndarray, g_coefficients: np.ndarray, m: int, r: int):
    """Least-squares coefficient fit on the top high-wavenumber tiers.

    Minimizes sum over kappa in [2**(m-r-1), 2**m) of
    |f_kappa - beta . g_kappa|**2; complex coefficients are stacked into a
    real system and the normal equations solved.  A rank-deficient system
    falls back to beta = 0 with a flag (controls uninformative here).
    """
    lo = 1 << (m - r - 1)
    f_part = _stack_real(f_coefficients[lo:])
    g_part = _stack_real(g_coefficients[lo:])
    if g_part.ndim == 1:
        g_part = g_part[:, None]
    q = g_part.shape[1]
    gram = g_part.T @ g_part
    rhs = g_part.T @ f_part
    scale = np.trace(gram)
    if scale <= 0 or np.linalg.matrix_rank(gram, tol=1e-12 * scale) < q:
        return np.zeros(q), True
    return np.linalg.solve(gram, rhs), False


def beta_mc(f_values: np.ndarray, g_values: np.ndarray):
    """Covariance-minimizing coefficient estimate from plain samples."""
    f_values = np.asarray(f_values, dtype=np.float64)
    g_values = np.asarray(g_values, dtype=np.float64)
    if g_values.ndim == 1:
        g_values = g_values[:, None]
    if f_values.size < 2:
        raise ValueError("at least two samples are required")
    q = g_values.shape[1]
    gc = g_values - g_values.mean(axis=0)
    fc = f_values - f_values.mean()
    var = gc.T @ gc
    cov = gc.T @ fc
    scale = np.trace(var)
    if scale <= 0 or np.linalg.matrix_rank(var, tol=1e-12 * scale) < q:
        return np.zeros(q), True
    return np.linalg.solve(var, cov), False


@dataclass(frozen=True)
class CvResult:
    """Adaptive run with control variates: engine result plus the beta used."""

    result: CubatureResult
    beta: np.ndarray
    beta_fallback: bool


def cv_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    dimension: int,
    spec: ControlVariateSpec,
    tol: Tolerance,
    cone: ConeParams | None = None,
    family: str = "digital",
    seed=0,
    generator=None,
) -> CvResult:
    """Adaptively integrate f with control variates.

    Builds joint value caches for f and the controls; at each level the
    combined values h = f + beta . (mu_g - g) are transformed and driven
    through the standard stopping rule.  Under the freeze policy beta is
    fit once at the first level; the refresh policy refits each level.
    While beta is unchanged, only the new half of h is formed and handed
    to the ledger, which extends the previous level's transform; the raw f
    and g values are kept only while a later level may refit beta.
    """
    cone = cone or ConeParams()
    gen = _resolve_generator(family, dimension, seed, generator)
    top_level, status = _level_budget(cone, gen)
    transform = fwht if gen.family == "digital" else lattice_dft

    start = time.perf_counter()
    f_values = np.empty((0, 1))
    g_values = np.empty((0, spec.count))
    beta = None
    fallback = False
    violations = []
    h_ledger = None
    for m in range(cone.min_level, top_level + 1):
        lo = 0 if m == cone.min_level else 1 << (m - 1)
        f_new, g_new = _evaluate((f, spec.controls), gen, lo, (1 << m) - lo)
        if f_new.shape[1] != 1:
            raise ValueError(
                f"cv_integrate takes a one-output integrand, got p = {f_new.shape[1]} outputs"
            )
        if g_new.shape[1] != spec.count:
            raise ValueError(
                f"controls returned {g_new.shape[1]} outputs, expected {spec.count}"
            )
        previous = h_ledger
        if beta is None or spec.policy == "refresh-each-level":
            f_values = np.concatenate([f_values, f_new], axis=0)
            g_values = np.concatenate([g_values, g_new], axis=0)
            beta, fallback = beta_qmc(
                transform(f_values[:, 0]), transform(g_values), m, cone.r
            )
            h_values = f_values[:, 0] + (spec.means - g_values) @ beta
            h_ledger = CoefficientLedger(gen, m, h_values[:, None], r=cone.r)
        else:
            h_new = f_new[:, 0] + (spec.means - g_new) @ beta
            h_ledger = CoefficientLedger(gen, m, h_new[:, None], previous, r=cone.r)
        if previous is not None:
            ell = m - cone.r
            violations.extend(necessary_condition(previous, h_ledger, ell, cone))
            violations.extend(necessary_condition(h_ledger, previous, ell, cone))
        estimate = error_bound(h_ledger, cone)
        v_minus = float(estimate.mu[0] - estimate.err[0])
        v_plus = float(estimate.mu[0] + estimate.err[0])
        worst = sup_tolerance(v_minus, v_plus, tol)
        if worst <= 1.0:
            status = STATUS_TOLERANCE_MET
            break

    wall_ms = 1e3 * (time.perf_counter() - start)
    result = CubatureResult(
        v_hat=optimal_estimate(v_minus, v_plus, tol),
        n=h_ledger.n,
        estimate=estimate,
        sup_tol=worst,
        status=status,
        cone_violations=tuple(violations),
        wall_ms=wall_ms,
        seed=seed if generator is None else None,
        family=gen.family,
        dimension=dimension,
        outputs=1,
    )
    return CvResult(result=result, beta=beta, beta_fallback=fallback)
