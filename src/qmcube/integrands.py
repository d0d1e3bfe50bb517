"""Test problems: multivariate normal probabilities, Sobol' indices of the
Bratley product function, and Asian option payoffs, plus the shared
normal-distribution kernels they need.

All integrands are pure functions mapping an (n, d) array of points in
[0,1)^d to an (n,) or (n, p) array of values; they are safe to evaluate
concurrently in batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfc, ndtri

from .engine import SolutionFunctional

log = logging.getLogger(__name__)

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TINY = 2.0**-53
_ONE_BELOW = np.nextafter(1.0, 0.0)


# -- normal kernels ---------------------------------------------------------

def norm_cdf(x):
    """Standard normal CDF via the complementary error function."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * erfc(-x / _SQRT2)


def norm_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_inv_cdf(u):
    """Standard normal quantile for u strictly inside (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("norm_inv_cdf requires arguments strictly inside (0, 1)")
    return ndtri(u)


# -- multivariate normal probabilities --------------------------------------

@dataclass(frozen=True)
class MvnProblem:
    """P[a <= X <= b] for X ~ N(0, covariance)."""

    lower: np.ndarray
    upper: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if np.any(lower > upper):
            raise ValueError("lower limits must not exceed upper limits")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "cholesky", np.linalg.cholesky(cov))

    @property
    def dimension(self) -> int:
        return self.upper.size


def equicorrelated_mvn(d: int, sigma: float, upper) -> MvnProblem:
    """One-sided problem with unit variances and constant correlation."""
    cov = np.full((d, d), sigma) + (1.0 - sigma) * np.eye(d)
    return MvnProblem(lower=np.full(d, -np.inf), upper=np.asarray(upper, float), covariance=cov)


def genz_integrand(problem: MvnProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Sequentially conditioned integrand over [0,1)^(d-1).

    Integrating the returned function over the unit cube of dimension
    d - 1 yields the box probability; its values always lie in [0, 1].
    For d = 1 the function is constant (and ignores its single input
    coordinate).
    """
    d = problem.dimension
    L = problem.cholesky
    a, b = problem.lower, problem.upper

    def limits(i: int, partial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hi = norm_cdf((b[i] - partial) / L[i, i]) if np.isfinite(b[i]) else np.ones_like(partial)
        lo = norm_cdf((a[i] - partial) / L[i, i]) if np.isfinite(a[i]) else np.zeros_like(partial)
        return lo, hi

    def f(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        zero = np.zeros(n)
        lo, hi = limits(0, zero)
        value = hi - lo
        y = np.zeros((n, d - 1)) if d > 1 else None
        for i in range(1, d):
            arg = lo + x[:, i - 1] * (hi - lo)
            y[:, i - 1] = norm_inv_cdf(np.clip(arg, _TINY, _ONE_BELOW))
            partial = y[:, :i] @ L[i, :i]
            lo, hi = limits(i, partial)
            value = value * (hi - lo)
        return value

    return f


def _gauss_legendre_cache():
    cache = {}

    def rule(order: int):
        if order not in cache:
            cache[order] = np.polynomial.legendre.leggauss(order)
        return cache[order]

    return rule


_gl_rule = _gauss_legendre_cache()


def adaptive_gauss_legendre(func, lo: float, hi: float, tol: float = 1e-10,
                            max_depth: int = 40) -> float:
    """Adaptive Gauss-Legendre with bisection on the 16/32-point estimate gap."""
    total = 0.0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        x16, w16 = _gl_rule(16)
        x32, w32 = _gl_rule(32)
        f32 = half * float(w32 @ func(mid + half * x32))
        f16 = half * float(w16 @ func(mid + half * x16))
        if abs(f32 - f16) <= tol * max(1.0, abs(f32)) or depth >= max_depth:
            total += f32
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return total


def mvn_equicorrelated_oracle(d: int, sigma: float, upper) -> float:
    """One-dimensional reduction of the equicorrelated one-sided probability.

    With unit variances and constant correlation sigma, conditioning on the
    shared factor t gives the product form integrated against the standard
    normal density; the [-8, 8] range leaves tail mass below 1e-15.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    b = np.asarray(upper, dtype=np.float64)
    if b.size != d:
        raise ValueError("upper must have length d")
    if sigma == 0.0:
        return float(np.prod(norm_cdf(b)))
    root = np.sqrt(sigma)
    scale = np.sqrt(1.0 - sigma)

    def integrand(t: np.ndarray) -> np.ndarray:
        z = (b[None, :] + root * t[:, None]) / scale
        return norm_pdf(t) * np.prod(norm_cdf(z), axis=1)

    return adaptive_gauss_legendre(integrand, -8.0, 8.0, tol=1e-12)


# -- Sobol' indices of the Bratley et al. function ---------------------------

def bratley_g(x: np.ndarray) -> np.ndarray:
    """Alternating cumulative-product test function on [0,1)^6."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 6:
        raise ValueError("bratley_g expects points with six coordinates")
    prods = np.cumprod(x, axis=1)
    signs = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    return prods @ signs


BRATLEY_INTEGRAL = -21.0 / 64.0


@dataclass(frozen=True)
class SobolIndexProblem:
    """Normalized closed first-order sensitivity index of one coordinate.

    The three required integrals are estimated jointly over [0,1)^(2d):
    the covariance-style numerator uses the paired argument trick (the
    coordinate of interest taken from the first copy, the rest from the
    second), the denominator needs the second moment and the mean.
    """

    model: Callable[[np.ndarray], np.ndarray]
    coordinate: int
    dimension: int

    def __post_init__(self):
        if not 1 <= self.coordinate <= self.dimension:
            raise ValueError("coordinate index out of range")

    def integrand(self) -> Callable[[np.ndarray], np.ndarray]:
        j = self.coordinate - 1
        d = self.dimension

        def f(x: np.ndarray) -> np.ndarray:
            # The difference of the base and the single-coordinate mix is
            # the small term that drives the numerator's accuracy, so the
            # base copy gets the leading (best-equidistributed) cube
            # coordinates; the probe copy takes the trailing block.
            base, probe = x[:, :d], x[:, d:]
            mixed = base.copy()
            mixed[:, j] = probe[:, j]
            g_base = self.model(base)
            g_probe = self.model(probe)
            g_mixed = self.model(mixed)
            return np.stack(
                [(g_mixed - g_base) * g_probe, g_probe**2, g_probe], axis=1
            )

        return f


def sobol_index_bounds(mu: np.ndarray, err: np.ndarray) -> tuple[float, float]:
    """Extreme index values over the error box intersected with [0, 1].

    Piecewise form: the index is pinned to 0 when the numerator interval
    is nonpositive, to 1 when the numerator interval exceeds the smallest
    admissible denominator, and is the endpoint ratio otherwise.
    """

    def one_side(sign: float) -> float:
        num = mu[0] + sign * err[0]
        if num <= 0.0:
            return 0.0
        den = mu[1] - sign * err[1] - (mu[2] + sign * err[2]) ** 2
        if num > max(0.0, den):
            return 1.0
        return float(num / den)

    v_minus, v_plus = one_side(-1.0), one_side(+1.0)
    return min(v_minus, v_plus), max(v_minus, v_plus)


def sobol_index_functional() -> SolutionFunctional:
    return SolutionFunctional(output_count=3, bounds=sobol_index_bounds)


# -- Asian options -----------------------------------------------------------

@dataclass(frozen=True)
class AsianOption:
    """Discretely monitored Asian call under geometric Brownian motion."""

    spot: float = 100.0
    strike: float = 100.0
    rate: float = 0.02
    volatility: float = 0.5
    maturity: float = 1.0
    monitors: int = 52

    @property
    def times(self) -> np.ndarray:
        d = self.monitors
        return self.maturity * np.arange(1, d + 1) / d

    def brownian_covariance(self) -> np.ndarray:
        t = self.times
        return np.minimum(t[:, None], t[None, :])

    def path_matrix(self) -> np.ndarray:
        """PCA factor A with A A^T equal to the Brownian covariance,
        columns ordered by descending variance contribution, row 0 positive.

        Eigenvector k is proportional to sin((2k-1) i pi / (2d+1)),
        i = 1..d, whose first entry is positive.  Its two largest entries
        tie to rounding, so they cannot fix the sign.
        """
        lam, vec = np.linalg.eigh(self.brownian_covariance())
        lam, vec = lam[::-1], vec[:, ::-1]
        vec = vec * np.sign(vec[0])[None, :]
        return vec * np.sqrt(np.maximum(lam, 0.0))[None, :]

    def geometric_price(self) -> float:
        """Closed-form price of the geometric-mean Asian call.

        The log geometric mean is normal with moments computed from the
        monitoring grid, so the price is a lognormal call expectation.
        """
        t = self.times
        d = self.monitors
        mean_log = (self.rate - 0.5 * self.volatility**2) * float(np.mean(t))
        var_log = self.volatility**2 * float(np.sum(self.brownian_covariance())) / d**2
        sd_log = np.sqrt(var_log)
        disc = np.exp(-self.rate * self.maturity)
        forward = self.spot * np.exp(mean_log + 0.5 * var_log)
        if sd_log == 0.0:
            return float(disc * max(forward - self.strike, 0.0))
        d2 = (np.log(self.spot / self.strike) + mean_log) / sd_log
        d1 = d2 + sd_log
        return float(disc * (forward * norm_cdf(d1) - self.strike * norm_cdf(d2)))


def asian_payoffs(option: AsianOption):
    """Arithmetic and geometric discounted payoff integrands on [0,1)^d.

    Returns (arithmetic, geometric, geometric_price); the geometric payoff
    with its known price is the natural control variate for the
    arithmetic one.  Zero coordinates are nudged into (0, 1) before the
    normal quantile (logged once per batch at debug level).
    """
    d = option.monitors
    A = option.path_matrix()
    t = option.times
    drift = (option.rate - 0.5 * option.volatility**2) * t
    disc = np.exp(-option.rate * option.maturity)

    def paths(x: np.ndarray) -> np.ndarray:
        if x.shape[1] != d:
            raise ValueError(f"expected {d} coordinates, got {x.shape[1]}")
        nudged = np.count_nonzero(x == 0.0)
        if nudged:
            log.debug("nudged %d zero coordinates to 2^-53 before the quantile", nudged)
            x = np.maximum(x, _TINY)
        z = norm_inv_cdf(x) @ A.T
        return option.spot * np.exp(drift[None, :] + option.volatility * z)

    def arithmetic(x: np.ndarray) -> np.ndarray:
        s = paths(x)
        return disc * np.maximum(s.mean(axis=1) - option.strike, 0.0)

    def geometric(x: np.ndarray) -> np.ndarray:
        s = paths(x)
        return disc * np.maximum(np.exp(np.log(s).mean(axis=1)) - option.strike, 0.0)

    return arithmetic, geometric, option.geometric_price()
