"""Test problems: multivariate normal probabilities, Sobol' indices of the
Bratley product function, and Asian option payoffs, plus the shared
normal-distribution kernels they need.

All integrands are pure functions mapping an (n, d) array of points in
[0,1)^d to an (n,) or (n, p) array of values; they are safe to evaluate
concurrently in batches.  The engine calls integrands and controls on
consecutive blocks of at most 2**16 / d points (512 KiB of coordinates),
so an integrand's value at a point must not depend on the other rows of
its batch.  The generators hand out read-only point batches; the two
Asian payoffs from one :func:`asian_payoffs` call share the normal
quantiles of such a batch, so the pair pays for one quantile pass per
block.
"""

from __future__ import annotations

import functools
import logging
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfc, ndtri

from .engine import SolutionFunctional
from .sequences import _integer_argument, _numeric_array, _real_argument

log = logging.getLogger(__name__)

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_TINY = 2.0**-53
_ONE_BELOW = np.nextafter(1.0, 0.0)


# -- normal kernels ---------------------------------------------------------

def norm_cdf(x, out=None):
    """Standard normal CDF via the complementary error function, into ``out`` if given."""
    z = np.divide(x, -_SQRT2, out=out)
    return np.multiply(erfc(z, out=out), 0.5, out=out)


def norm_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def norm_inv_cdf(u, out=None):
    """Standard normal quantile for u strictly inside (0, 1), into ``out`` if given.

    ``ndtri`` is finite exactly on (0, 1), from the smallest subnormal to
    the float below 1: it gives -inf at 0 and -0.0, +inf at 1 and NaN
    below 0, above 1 and at NaN.  So the quantiles are computed first and
    one finiteness pass over them checks the arguments; on failure
    ``out`` may already hold some of them.
    """
    z = ndtri(np.asarray(u, dtype=np.float64), out=out)
    if not np.isfinite(z).all():
        raise ValueError("norm_inv_cdf requires arguments strictly inside (0, 1)")
    return z


# -- multivariate normal probabilities --------------------------------------

@dataclass(frozen=True)
class MvnProblem:
    """P[a <= X <= b] for X ~ N(0, covariance)."""

    lower: np.ndarray
    upper: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False)

    def __post_init__(self):
        lower = _numeric_array("lower", self.lower, np.float64, ValueError)
        upper = _numeric_array("upper", self.upper, np.float64, ValueError)
        cov = _numeric_array("covariance", self.covariance, np.float64, ValueError)
        d = cov.shape[0] if cov.ndim else 0
        if cov.shape != (d, d) or lower.shape != (d,) or upper.shape != (d,):
            raise ValueError(
                f"expected lower and upper of shape (d,) and covariance of shape (d, d), "
                f"got {lower.shape}, {upper.shape} and {cov.shape}"
            )
        # A NaN limit fails the comparison, so it is rejected too.
        if not np.all(lower <= upper):
            raise ValueError("lower limits must not exceed upper limits, and no limit may be NaN")
        # np.linalg.cholesky reads only the lower triangle, so an asymmetric
        # matrix would silently stand for another problem.  The exact test
        # spares an exactly symmetric matrix the much slower np.allclose.
        if not ((cov == cov.T).all() or np.allclose(cov, cov.T)):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "cholesky", np.linalg.cholesky(cov))

    @property
    def dimension(self) -> int:
        return self.upper.size


def equicorrelated_mvn(d: int, sigma: float, upper) -> MvnProblem:
    """One-sided problem with unit variances and constant correlation."""
    d = _integer_argument("d", d, ValueError, 1)
    sigma = _real_argument("sigma", sigma)
    cov = np.full((d, d), sigma) + (1.0 - sigma) * np.eye(d)
    return MvnProblem(lower=np.full(d, -np.inf), upper=upper, covariance=cov)


def genz_integrand(problem: MvnProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Sequentially conditioned integrand over [0,1)^(d-1).

    Integrating the returned function over the unit cube of dimension
    d - 1 yields the box probability; its values always lie in [0, 1].
    For d = 1 the function is constant (and ignores its single input
    coordinate).
    """
    d = problem.dimension
    coordinates = max(d - 1, 1)
    L = problem.cholesky
    a, b = problem.lower, problem.upper
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)

    def cdf(i: int, limit: float, partial: np.ndarray) -> np.ndarray:
        # norm_cdf((limit - partial) / L[i, i]) in place on one fresh array
        z = limit - partial
        z /= L[i, i]
        return norm_cdf(z, out=z)

    def f(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if x.shape[1] != coordinates:
            raise ValueError(f"expected {coordinates} coordinates, got {x.shape[1]}")
        # The first row conditions on nothing, so its limits are scalars;
        # infinite limits are the scalars 0 and 1 on every row.
        lo = norm_cdf(a[0] / L[0, 0]) if finite_a[0] else 0.0
        hi = norm_cdf(b[0] / L[0, 0]) if finite_b[0] else 1.0
        width = hi - lo
        value = np.full(n, width)
        # C order: the bits of y[:, :i] @ L[i, :i] depend on y's layout.
        y = np.empty((n, d - 1))
        for i in range(1, d):
            arg = x[:, i - 1] * width
            if finite_a[i - 1]:
                arg += lo
            # np.clip, as two ufuncs without its Python wrapper
            np.maximum(arg, _TINY, out=arg)
            np.minimum(arg, _ONE_BELOW, out=arg)
            norm_inv_cdf(arg, out=y[:, i - 1])
            partial = y[:, :i] @ L[i, :i]
            lo = cdf(i, a[i], partial) if finite_a[i] else 0.0
            hi = cdf(i, b[i], partial) if finite_b[i] else 1.0
            width = hi - lo if finite_a[i] else hi  # hi - 0.0 is hi
            value *= width
        return value

    return f


# Relative gap between the 16- and 32-point estimates at which an interval
# is accepted, and the bisection depth at which it is accepted regardless.
_GL_TOL = 1e-12
_GL_MAX_DEPTH = 40


@functools.cache
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def adaptive_gauss_legendre(func, lo: float, hi: float) -> float:
    """Adaptive Gauss-Legendre with bisection on the 16/32-point estimate gap.

    A non-finite estimate on any interval raises ``ValueError``: its gap
    never closes, so bisection would go on to depth ``_GL_MAX_DEPTH``.
    """
    total = 0.0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        x16, w16 = _gl_rule(16)
        x32, w32 = _gl_rule(32)
        f32 = half * float(w32 @ func(mid + half * x32))
        f16 = half * float(w16 @ func(mid + half * x16))
        if not (math.isfinite(f32) and math.isfinite(f16)):
            raise ValueError(f"non-finite quadrature estimate on [{a!r}, {b!r}]")
        if abs(f32 - f16) <= _GL_TOL * max(1.0, abs(f32)) or depth >= _GL_MAX_DEPTH:
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
    d = _integer_argument("d", d, ValueError, 1)
    sigma = _real_argument("sigma", sigma)
    if not 0.0 <= sigma < 1.0:
        raise ValueError("sigma must lie in [0, 1)")
    b = _numeric_array("upper", upper, np.float64, ValueError)
    if b.shape != (d,):
        raise ValueError(f"upper must have length d = {d}, got shape {b.shape}")
    if np.isnan(b).any():
        raise ValueError("no upper limit may be NaN")
    if sigma == 0.0:
        return float(np.prod(norm_cdf(b)))
    root = np.sqrt(sigma)
    scale = np.sqrt(1.0 - sigma)

    def integrand(t: np.ndarray) -> np.ndarray:
        z = (b[None, :] + root * t[:, None]) / scale
        return norm_pdf(t) * np.prod(norm_cdf(z), axis=1)

    return adaptive_gauss_legendre(integrand, -8.0, 8.0)


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
        d = _integer_argument("dimension", self.dimension, ValueError, 1)
        object.__setattr__(self, "dimension", d)
        coordinate = _integer_argument("coordinate", self.coordinate, ValueError, 1, d)
        object.__setattr__(self, "coordinate", coordinate)

    def integrand(self) -> Callable[[np.ndarray], np.ndarray]:
        j = self.coordinate - 1
        d = self.dimension

        def f(x: np.ndarray) -> np.ndarray:
            if x.shape[1] != 2 * d:
                raise ValueError(f"expected {2 * d} coordinates, got {x.shape[1]}")
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
    admissible denominator, and is the endpoint ratio otherwise.  The
    denominator subtracts the squared mean, whose extremes over
    [mu_3 - err_3, mu_3 + err_3] are the larger endpoint square and the
    smaller one, or 0 when the interval contains 0.
    """
    squares = ((mu[2] - err[2]) ** 2, (mu[2] + err[2]) ** 2)
    square_min = 0.0 if abs(mu[2]) <= err[2] else min(squares)

    def one_side(sign: float, square: float) -> float:
        num = mu[0] + sign * err[0]
        if num <= 0.0:
            return 0.0
        den = mu[1] - sign * err[1] - square
        if num > max(0.0, den):
            return 1.0
        return num / den

    v_minus, v_plus = one_side(-1.0, square_min), one_side(+1.0, max(squares))
    return min(v_minus, v_plus), max(v_minus, v_plus)


def sobol_index_functional() -> SolutionFunctional:
    return SolutionFunctional(output_count=3, bounds=sobol_index_bounds)


# -- Asian options -----------------------------------------------------------

@dataclass(frozen=True)
class AsianOption:
    """Discretely monitored Asian call under geometric Brownian motion.

    ``monitors`` is an integer of at least 1, stored as a Python int; the
    other fields are finite real numbers, not bools, stored as Python floats:
    ``spot`` positive, ``strike``, ``volatility`` and ``maturity`` nonnegative.
    """

    spot: float = 100.0
    strike: float = 100.0
    rate: float = 0.02
    volatility: float = 0.5
    maturity: float = 1.0
    monitors: int = 52

    def __post_init__(self):
        object.__setattr__(self, "monitors", _integer_argument("monitors", self.monitors, ValueError, 1))
        for name in ("spot", "strike", "rate", "volatility", "maturity"):
            object.__setattr__(self, name, _real_argument(name, getattr(self, name)))
        if self.spot <= 0:
            raise ValueError(f"spot must be positive, got {self.spot}")
        for name in ("strike", "volatility", "maturity"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def times(self) -> np.ndarray:
        d = self.monitors
        return self.maturity * np.arange(1, d + 1) / d

    def path_matrix(self) -> np.ndarray:
        """PCA factor A with A A^T = min(t_i, t_j), columns by descending variance, row 0 positive.

        It is the closed sine form of :func:`_path_factor`, with no LAPACK
        call, computed once per process for each (monitors, maturity) pair;
        every call returns a fresh copy.
        """
        return _path_factor(self.monitors, self.maturity).copy()

    def geometric_price(self) -> float:
        """Closed-form price of the geometric-mean Asian call.

        The log geometric mean is normal; on the grid t_i = i T / d, mean(t)
        is T (d+1) / (2d) and the sum of min(t_i, t_j) is T (d+1) (2d+1) / 6.
        """
        d = self.monitors
        mean_log = (self.rate - 0.5 * self.volatility**2) * self.maturity * (d + 1) / (2 * d)
        var_log = self.volatility**2 * self.maturity * (d + 1) * (2 * d + 1) / (6 * d**2)
        sd_log = np.sqrt(var_log)
        disc = np.exp(-self.rate * self.maturity)
        forward = self.spot * np.exp(mean_log + 0.5 * var_log)
        if sd_log == 0.0:
            return float(disc * max(forward - self.strike, 0.0))
        d2 = (np.log(self.spot / self.strike) + mean_log) / sd_log
        d1 = d2 + sd_log
        return float(disc * (forward * norm_cdf(d1) - self.strike * norm_cdf(d2)))


@functools.lru_cache(maxsize=8)
def _path_factor(monitors: int, maturity: float) -> np.ndarray:
    """Read-only PCA factor of the Brownian covariance on ``monitors`` even steps to ``maturity``.

    With d = monitors, T = maturity and theta_k = (2k-1) pi / (2d+1),
    A[i, k] = sqrt(T / (d (2d+1))) sin(i theta_k) / sin(theta_k / 2), i, k = 1..d:
    the eigenvalues T / (4 d sin^2(theta_k / 2)) fall with k, and row 0,
    2 cos(theta_k / 2) times the scale, is positive.
    """
    d = monitors
    theta = (2 * np.arange(1, d + 1) - 1) * np.pi / (2 * d + 1)
    factor = np.sin(np.outer(np.arange(1, d + 1), theta)) / np.sin(0.5 * theta)
    factor *= math.sqrt(maturity / (d * (2 * d + 1)))
    factor.flags.writeable = False
    return factor


def asian_payoffs(option: AsianOption):
    """Arithmetic and geometric discounted payoff integrands on [0,1)^d.

    Returns (arithmetic, geometric, geometric_price); the geometric payoff
    with its known price is the natural control variate for the
    arithmetic one.  The normal quantile runs once per batch; only if it
    rejects the batch are zero coordinates counted and nudged to 2**-53
    for a second try (logged once per batch at debug level).

    The quantiles of a read-only batch are handed from whichever payoff
    sees the batch first to the other one, through a one-slot hand-off
    keyed on the array's identity; a writeable array could change between
    the calls, so it is never shared.  The slot is one tuple, read and
    replaced whole, so concurrent callers at worst compute it twice.  The
    slot refers to the batch weakly and is emptied when the batch is freed,
    so a payoff used on its own keeps no batch or quantiles alive.
    """
    d = option.monitors
    # The log path is base + z @ weights, with volatility and spot folded in
    # once; the log geometric mean is its row mean, so linear in the normals.
    weights = option.volatility * _path_factor(option.monitors, option.maturity).T
    base = math.log(option.spot) + (option.rate - 0.5 * option.volatility**2) * option.times
    disc = np.exp(-option.rate * option.maturity)
    log_geo_weights = weights.mean(axis=1)
    log_geo_base = base.mean()
    handoff = (None, None)

    def forget(ref) -> None:
        nonlocal handoff
        if handoff[0] is ref:
            handoff = (None, None)

    def normals(x: np.ndarray) -> np.ndarray:
        nonlocal handoff
        if x.shape[1] != d:
            raise ValueError(f"expected {d} coordinates, got {x.shape[1]}")
        last_ref, last_z = handoff
        handoff = (None, None)
        if last_ref is not None and last_ref() is x:
            return last_z
        try:
            z = norm_inv_cdf(x)
        except ValueError:
            nudged = np.count_nonzero(x == 0.0)
            if not nudged:
                raise
            log.debug("nudged %d zero coordinates to 2^-53 before the quantile", nudged)
            z = norm_inv_cdf(np.maximum(x, _TINY))
        if not x.flags.writeable:
            handoff = (weakref.ref(x, forget), z)
        return z

    def arithmetic(x: np.ndarray) -> np.ndarray:
        s = normals(x) @ weights
        s += base
        np.exp(s, out=s)
        return disc * np.maximum(s.mean(axis=1) - option.strike, 0.0)

    def geometric(x: np.ndarray) -> np.ndarray:
        log_geo = normals(x) @ log_geo_weights
        log_geo += log_geo_base
        return disc * np.maximum(np.exp(log_geo) - option.strike, 0.0)

    return arithmetic, geometric, option.geometric_price()
