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
from .sequences import _integer_argument, _numeric_array


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
        means = np.atleast_1d(_numeric_array("means", self.means, np.float64, ValueError))
        if means.ndim != 1:
            raise ValueError(f"control means must be a vector, got shape {means.shape}")
        if means.size < 1 or not np.all(np.isfinite(means)):
            raise ValueError("control means must be a nonempty finite vector")
        if self.policy != "freeze-after-first-level":
            raise ValueError(
                f"unknown beta policy {self.policy!r}; the only policy is 'freeze-after-first-level'"
            )
        object.__setattr__(self, "means", means)


def _stack_real(coef: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(coef):
        return np.concatenate([coef.real, coef.imag], axis=0)
    return coef


def beta_qmc(f_coefficients: np.ndarray, g_coefficients: np.ndarray, m: int, r: int):
    """Least-squares coefficient fit on the top high-wavenumber tiers.

    Minimizes sum over kappa in [2**(m-r-1), 2**m) of
    |f_kappa - beta . g_kappa|**2, where ``g_coefficients`` has one column
    per control; complex coefficients are stacked into a real system
    solved by ``np.linalg.lstsq``.  Singular values up to 1e-6 times the
    largest count as zero; a rank-deficient system falls back to beta = 0
    with a flag (controls uninformative here).  Requires integers 1 <= r < m.
    """
    m = _integer_argument("m", m, ValueError, 2)
    r = _integer_argument("r", r, ValueError, 1, m - 1)
    lo = 1 << (m - r - 1)
    f_part = _stack_real(f_coefficients[lo:])
    g_part = _stack_real(g_coefficients[lo:])
    q = g_part.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(g_part, f_part, rcond=1e-6)
    if rank < q:
        return np.zeros(q), True
    return beta, False


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
    then held, so each level forms h on its new points only, in f's own
    column, drops the control values and hands h to the ledger, which
    extends the previous level's transform; no raw f or g values are kept.
    """
    cone = cone or ConeParams()
    gen, seed = _resolve_generator(family, dimension, seed, generator)
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
        if g_new.shape[1] != spec.means.size:
            raise ValueError(
                f"controls returned {g_new.shape[1]} outputs, expected {spec.means.size}"
            )
        if previous is None:
            # one transform of f and the controls together; it acts column by column
            coef = transform(np.concatenate((f_new, g_new), axis=1))
            beta, fallback = beta_qmc(coef[:, 0], coef[:, 1:], m, cone.r)
        # h in f's own column; the controls go before the ledger is built
        f_new[:, 0] += (spec.means - g_new) @ beta
        del g_new
        return CoefficientLedger(gen, f_new, previous, r=cone.r)

    result = _adapt(level, gen, identity_functional(), tol, cone, seed)
    return CvResult(result=result, beta=beta, beta_fallback=fallback)
