"""Control variates for the adaptive cubature engine.

The integrand is replaced by h(x) = f(x) + beta . (mu_g - g(x)), which has
the same integral for any coefficient vector beta.  For low-discrepancy
sampling the useful beta is not the covariance-minimizing one: it is fit
by least squares on the high-wavenumber discrete coefficients, which are
the ones driving the data-based error bound.  :func:`cv_integrate` fits
beta once, at the first level, and holds it at every later level; it runs
the engine's adaptive loop on h and only builds each level's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# error_bound and necessary_condition stay bound here because benchmark/tracing.py wraps them by name
from .cone import ConeParams, error_bound, necessary_condition  # noqa: F401
from .engine import CubatureResult, Tolerance, _adapt, _resolve_generator, identity_functional
from .ledger import CoefficientLedger, _evaluate, fwht, lattice_dft


@dataclass(frozen=True)
class ControlVariateSpec:
    """Control functions with known means.

    beta is fitted once at the first level and then held.  ``policy``
    accepts only ``"freeze-after-first-level"``, the name of that rule; it
    is kept only because the benchmark workloads pass it.
    """

    controls: Callable[[np.ndarray], np.ndarray]
    means: np.ndarray
    policy: str = "freeze-after-first-level"

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=np.float64))
        if means.ndim != 1:
            raise ValueError(f"control means must be a vector, got shape {means.shape}")
        if means.size < 1 or not np.all(np.isfinite(means)):
            raise ValueError("control means must be a nonempty finite vector")
        if self.policy != "freeze-after-first-level":
            raise ValueError(
                f"unknown beta policy {self.policy!r}; the only policy is 'freeze-after-first-level'"
            )
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

    Runs the adaptive loop of :func:`~qmcube.engine.integrate` on the
    combined values h = f + beta . (mu_g - g); only how a level's ledger
    is built differs.  f and the controls are evaluated on the same point
    blocks.  beta is fitted once, from the first level's coefficients, and
    then held, so each level forms h on its new points only and hands it
    to the ledger, which extends the previous level's transform; no raw f
    or g values are kept.
    """
    cone = cone or ConeParams()
    gen = _resolve_generator(family, dimension, seed, generator)
    transform = fwht if gen.family == "digital" else lattice_dft

    beta = None
    fallback = False

    def level(m: int, previous: CoefficientLedger | None) -> CoefficientLedger:
        nonlocal beta, fallback
        lo = 0 if previous is None else 1 << (m - 1)
        f_new, g_new = _evaluate((f, spec.controls), gen, lo, (1 << m) - lo)
        if f_new.shape[1] != 1:
            raise ValueError(
                f"cv_integrate takes a one-output integrand, got p = {f_new.shape[1]} outputs"
            )
        if g_new.shape[1] != spec.count:
            raise ValueError(
                f"controls returned {g_new.shape[1]} outputs, expected {spec.count}"
            )
        if previous is None:
            beta, fallback = beta_qmc(transform(f_new[:, 0]), transform(g_new), m, cone.r)
        h_new = f_new[:, 0] + (spec.means - g_new) @ beta
        return CoefficientLedger(gen, m, h_new[:, None], previous, r=cone.r)

    result = _adapt(level, gen, identity_functional(), tol, cone, seed, generator)
    return CvResult(result=result, beta=beta, beta_fallback=fallback)
