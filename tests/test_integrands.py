"""Normal kernels, Genz transform, Bratley indices, Asian payoffs."""

import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcube as q
from qmcube.integrands import (
    BRATLEY_INTEGRAL,
    AsianOption,
    MvnProblem,
    SobolIndexProblem,
    adaptive_gauss_legendre,
    asian_payoffs,
    bratley_g,
    equicorrelated_mvn,
    genz_integrand,
    mvn_equicorrelated_oracle,
    norm_cdf,
    norm_inv_cdf,
    norm_pdf,
    sobol_index_bounds,
    sobol_index_functional,
)


class TestNormalKernels:
    def test_median(self):
        assert norm_inv_cdf(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)
        assert norm_cdf(0.0) == pytest.approx(0.5)

    def test_cdf_against_high_precision_erfc(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in (-3.7, -1.0, 0.3, 1.959963985, 4.2):
            expect = float(0.5 * mp.erfc(-x / mp.sqrt(2)))
            assert norm_cdf(x) == pytest.approx(expect, abs=1e-15)
        assert norm_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=10_000)
        back = norm_cdf(norm_inv_cdf(u))
        assert np.abs(back - u).max() <= 1e-12

    def test_tails(self):
        u = np.array([1e-300, 1.0 - 1e-16, 5e-324, 2.0**-53, np.nextafter(1.0, 0.0)])
        x = norm_inv_cdf(u)
        assert np.isfinite(x).all()
        assert x[0] < -30 and x[1] > 8

    def test_domain_errors(self):
        # ndtri runs first; its -inf, +inf or NaN is what the check rejects
        for bad in (0.0, -0.0, 1.0, -0.25, -5e-324, 1.5, np.nextafter(1.0, 2.0), np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="strictly inside"):
                norm_inv_cdf(np.array([0.5, bad]))
            with pytest.raises(ValueError, match="strictly inside"):
                norm_inv_cdf(bad)

    @pytest.mark.parametrize("bad", [[np.nan], [0.5, np.nan]])
    def test_nan_rejected(self, bad):
        with pytest.raises(ValueError, match="strictly inside"):
            norm_inv_cdf(np.array(bad))

    def test_pdf_matches_cdf_slope(self):
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        slope = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        assert np.abs(slope - norm_pdf(x)).max() < 1e-8


def genz_integrand_reference(problem: MvnProblem):
    """Reference :func:`genz_integrand`: full-length limit arrays per row."""
    d = problem.dimension
    L = problem.cholesky
    a, b = problem.lower, problem.upper

    def limits(i, partial):
        hi = norm_cdf((b[i] - partial) / L[i, i]) if np.isfinite(b[i]) else np.ones_like(partial)
        lo = norm_cdf((a[i] - partial) / L[i, i]) if np.isfinite(a[i]) else np.zeros_like(partial)
        return lo, hi

    def f(x):
        n = x.shape[0]
        lo, hi = limits(0, np.zeros(n))
        value = hi - lo
        y = np.zeros((n, d - 1)) if d > 1 else None
        for i in range(1, d):
            arg = lo + x[:, i - 1] * (hi - lo)
            y[:, i - 1] = norm_inv_cdf(np.clip(arg, 2.0**-53, np.nextafter(1.0, 0.0)))
            partial = y[:, :i] @ L[i, :i]
            lo, hi = limits(i, partial)
            value = value * (hi - lo)
        return value

    return f


def _mixed_limits_problem(d: int) -> MvnProblem:
    rng = np.random.default_rng(40 + d)
    A = rng.standard_normal((d, d))
    lower = rng.uniform(-2.0, 0.0, d)
    upper = lower + rng.uniform(0.2, 3.0, d)
    lower[::3] = -np.inf
    upper[1::3] = np.inf
    return MvnProblem(lower, upper, A @ A.T + d * np.eye(d))


class TestGenz:
    @pytest.mark.parametrize(
        "problem",
        [
            equicorrelated_mvn(8, 0.5, np.ones(8)),
            _mixed_limits_problem(8),
            MvnProblem(lower=[0.5, -np.inf, -1.0, 0.0], upper=[np.inf, 0.3, 2.0, np.inf],
                       covariance=np.eye(4) + 0.2),
            MvnProblem(lower=[-1.0], upper=[0.5], covariance=[[2.0]]),
            MvnProblem(lower=[-np.inf], upper=[np.inf], covariance=[[1.0]]),
            equicorrelated_mvn(2, 0.3, [0.4, -0.7]),
            _mixed_limits_problem(2),
        ],
        ids=["equicorrelated-8", "mixed-8", "mixed-4", "finite-1", "infinite-1",
             "equicorrelated-2", "mixed-2"],
    )
    def test_matches_reference_bitwise(self, problem):
        x = np.random.default_rng(problem.dimension).random((3000, max(problem.dimension - 1, 1)))
        x[:5] = 0.0
        assert np.array_equal(genz_integrand(problem)(x), genz_integrand_reference(problem)(x))

    def test_one_dimensional_reduction(self):
        prob = MvnProblem(lower=[-1.0], upper=[0.5], covariance=[[1.0]])
        f = genz_integrand(prob)
        vals = f(np.zeros((4, 1)))
        expect = norm_cdf(0.5) - norm_cdf(-1.0)
        assert np.allclose(vals, expect)

    def test_two_dimensional_independent(self):
        prob = equicorrelated_mvn(2, 0.0, [0.0, 0.0])
        f = genz_integrand(prob)
        x = np.random.default_rng(1).random((100, 1))
        assert np.allclose(f(x), 0.25)

    def test_values_in_unit_interval(self):
        prob = equicorrelated_mvn(5, 0.7, [1.0, 0.2, 2.0, -0.3, 0.8])
        f = genz_integrand(prob)
        vals = f(np.random.default_rng(2).random((500, 4)))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_matches_oracle_equicorrelated(self):
        prob = equicorrelated_mvn(3, 0.5, [1.0, 1.0, 1.0])
        res = q.integrate_scalar(genz_integrand(prob), 2, q.Tolerance(1e-7), seed=5)
        oracle = mvn_equicorrelated_oracle(3, 0.5, [1.0, 1.0, 1.0])
        assert abs(res.v_hat - oracle) < 1e-6

    def test_limit_ordering_validated(self):
        with pytest.raises(ValueError):
            MvnProblem(lower=[1.0], upper=[0.0], covariance=[[1.0]])

    @pytest.mark.parametrize(
        "lower, upper", [([np.nan, -np.inf], [1.0, 1.0]), ([-np.inf, -np.inf], [1.0, np.nan])]
    )
    def test_nan_limit_rejected(self, lower, upper):
        # a NaN lower limit used to be read as -inf
        with pytest.raises(ValueError, match="no limit may be NaN"):
            MvnProblem(lower=lower, upper=upper, covariance=np.eye(2))

    @pytest.mark.parametrize(
        "name, lower, upper, covariance",
        [
            ("lower", ["-1", "-1"], [1.0, 2.0], np.eye(2)),
            ("upper", [-1.0, -1.0], [True, "2"], np.eye(2)),
            ("upper", [-1.0, -1.0], [True, True], np.eye(2)),
            ("covariance", [-1.0, -1.0], [1.0, 2.0], np.eye(2, dtype=bool)),
            ("covariance", [-1.0, -1.0], [1.0, 2.0], [["1", "0"], ["0", "1"]]),
            # numpy promotes a bool beside numbers, as [True, 2.0] to [1.0, 2.0]
            ("upper", [-1.0, -1.0], [True, 2.0], np.eye(2)),
            ("lower", [np.False_, -1.0], [1.0, 2.0], np.eye(2)),
            ("covariance", [-1.0, -1.0], [1.0, 2.0], [[1.0, False], [False, 1.0]]),
        ],
    )
    def test_non_numeric_arguments_rejected(self, name, lower, upper, covariance):
        # the float cast used to parse strings and read a bool as 1.0
        with pytest.raises(ValueError, match=f"{name} must hold real numbers"):
            MvnProblem(lower=lower, upper=upper, covariance=covariance)

    @pytest.mark.parametrize(
        "sigma, message",
        [("0.5", "sigma must be a real number, not the str '0.5'"), (np.nan, "sigma must be finite"),
         (True, "sigma must be a real number, not the bool True")],
    )
    def test_equicorrelated_sigma_checked(self, sigma, message):
        # these raised a bare TypeError, "covariance must be symmetric" and a LinAlgError
        with pytest.raises(ValueError, match=re.escape(message)):
            equicorrelated_mvn(2, sigma, [1.0, 1.0])

    @pytest.mark.parametrize(
        "d, message",
        [(True, "d must be an integer, got True"), (2.0, "d must be an integer, got 2.0"),
         (0, "d must be at least 1, got 0")],
    )
    def test_equicorrelated_size_checked(self, d, message):
        # True and 2.0 raised a bare TypeError from np.full
        with pytest.raises(ValueError, match=message):
            equicorrelated_mvn(d, 0.5, [1.0])

    @pytest.mark.parametrize("d, columns", [(4, 5), (4, 2), (1, 2), (2, 2)])
    def test_integrand_checks_point_width(self, d, columns):
        # a fifth column used to be ignored and two columns raised an IndexError
        f = genz_integrand(equicorrelated_mvn(d, 0.5, np.ones(d)))
        with pytest.raises(ValueError, match=f"expected {max(d - 1, 1)} coordinates, got {columns}"):
            f(np.full((4, columns), 0.5))

    @pytest.mark.parametrize("covariance", [[[1.0, 0.9], [0.0, 1.0]], [[1.0, 0.0], [0.9, 1.0]]])
    def test_asymmetric_covariance_rejected(self, covariance):
        # Cholesky reads the lower triangle only, so either would stand for another problem
        with pytest.raises(ValueError, match="symmetric"):
            MvnProblem(lower=np.full(2, -np.inf), upper=np.ones(2), covariance=covariance)

    @pytest.mark.parametrize(
        "lower, upper, covariance, shapes",
        [
            (np.full(2, -np.inf), np.ones(2), np.eye(4), "(2,), (2,) and (4, 4)"),
            (-1.0, np.ones(2), np.eye(2), "(), (2,) and (2, 2)"),
            (np.zeros(3), np.ones(2), np.eye(2), "(3,), (2,) and (2, 2)"),
            (np.zeros(2), np.ones(2), np.ones((2, 3)), "(2,), (2,) and (2, 3)"),
            (np.zeros(1), np.ones(1), 1.0, "(1,), (1,) and ()"),
        ],
    )
    def test_shapes_validated(self, lower, upper, covariance, shapes):
        with pytest.raises(ValueError, match=re.escape(shapes)):
            MvnProblem(lower=lower, upper=upper, covariance=covariance)


class TestEquicorrelatedOracle:
    def test_independence_limit(self):
        b = [0.5, -0.2, 1.4]
        assert mvn_equicorrelated_oracle(3, 0.0, b) == pytest.approx(
            float(np.prod(norm_cdf(np.array(b)))), abs=1e-12
        )

    def test_one_dimension_any_sigma(self):
        for sigma in (0.0, 0.3, 0.9):
            assert mvn_equicorrelated_oracle(1, sigma, [0.7]) == pytest.approx(
                float(norm_cdf(0.7)), abs=1e-9
            )

    def test_against_monte_carlo(self):
        d, sigma = 4, 0.25
        b = np.full(d, 0.5)
        oracle = mvn_equicorrelated_oracle(d, sigma, b)
        rng = np.random.default_rng(7)
        cov = np.full((d, d), sigma) + (1 - sigma) * np.eye(d)
        L = np.linalg.cholesky(cov)
        hits = 0
        n_total = 10_000_000
        chunk = 1_000_000
        for _ in range(n_total // chunk):
            z = rng.standard_normal((chunk, d)) @ L.T
            hits += int(np.all(z < b[None, :], axis=1).sum())
        p = hits / n_total
        se = np.sqrt(p * (1 - p) / n_total)
        assert abs(oracle - p) < 4 * se

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            mvn_equicorrelated_oracle(2, 1.0, [0.0, 0.0])

    @pytest.mark.parametrize(
        "d, sigma, message",
        [(2, False, "sigma must be a real number, not the bool False"),
         (2, "0.5", "sigma must be a real number, not the str '0.5'"),
         (2.0, 0.5, "d must be an integer, got 2.0"), (True, 0.5, "d must be an integer, got True")],
    )
    def test_arguments_checked(self, d, sigma, message):
        # sigma=False gave the sigma = 0 value, "0.5" raised a TypeError,
        # and d=2.0 and d=True were taken as sizes
        with pytest.raises(ValueError, match=re.escape(message)):
            mvn_equicorrelated_oracle(d, sigma, [1.0] * 2)

    def test_adaptive_quadrature_on_smooth_function(self):
        val = adaptive_gauss_legendre(lambda t: np.exp(-t * t), -8.0, 8.0)
        assert val == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adaptive_quadrature_rejects_non_finite_values(self, bad):
        # the 16/32-point gap never closes where the integrand is not
        # finite, so bisection used to run on towards 2**40 intervals
        with pytest.raises(ValueError, match="non-finite quadrature estimate"):
            adaptive_gauss_legendre(lambda t: np.where(t > 1.0, bad, 1.0), -8.0, 8.0)

    def test_nan_limit_rejected(self):
        with pytest.raises(ValueError, match="no upper limit may be NaN"):
            mvn_equicorrelated_oracle(3, 0.5, [np.nan, 0.0, 0.0])

    def test_upper_length_checked(self):
        with pytest.raises(ValueError, match="upper must have length d"):
            mvn_equicorrelated_oracle(3, 0.5, [0.0, 0.0])

    @pytest.mark.parametrize(
        "d, upper, message",
        [(2, ["1", "1"], "upper must hold real numbers, got dtype <U1"),
         (2, [True, True], "upper must hold real numbers, got dtype bool"),
         (2, [[1.0, 1.0]], "upper must have length d = 2, got shape (1, 2)"),
         (1, 1.0, "upper must have length d = 1, got shape ()")],
    )
    def test_upper_checked_like_mvn_problem(self, d, upper, message):
        # strings and booleans were cast to the value at [1, 1]; a (1, d)
        # row broadcast and a scalar failed with unnamed errors
        with pytest.raises(ValueError, match=re.escape(message)):
            mvn_equicorrelated_oracle(d, 0.5, upper)


class TestBratley:
    def test_corners(self):
        assert bratley_g(np.ones((1, 6)))[0] == pytest.approx(0.0)
        assert bratley_g(np.zeros((1, 6)))[0] == pytest.approx(0.0)

    def test_closed_form_integral(self):
        assert BRATLEY_INTEGRAL == pytest.approx(sum((-1) ** i * 2.0**-i for i in range(1, 7)))
        res = q.integrate_scalar(bratley_g, 6, q.Tolerance(1e-4), seed=3)
        assert abs(res.v_hat - BRATLEY_INTEGRAL) < 1e-4

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            bratley_g(np.zeros((2, 5)))


def brute_force_index_range(mu, err, grid=21):
    """Extremize the index over grid points of the box inside its domain."""
    lo, hi = np.inf, -np.inf
    for m1 in np.linspace(mu[0] - err[0], mu[0] + err[0], grid):
        for m2 in np.linspace(mu[1] - err[1], mu[1] + err[1], grid):
            for m3 in np.linspace(mu[2] - err[2], mu[2] + err[2], grid):
                denom = m2 - m3 * m3
                if m1 < 0 or denom <= 0 or m1 > denom:
                    continue
                v = m1 / denom
                lo, hi = min(lo, v), max(hi, v)
    return lo, hi


class TestSobolIndexFunctional:
    def test_spec_box_examples(self):
        mu = np.array([0.2, 1.0, 0.5])
        err = np.array([0.3, 0.1, 0.1])
        v_minus, v_plus = sobol_index_bounds(mu, err)
        assert v_minus == 0.0
        assert v_plus == pytest.approx(0.5 / (0.9 - 0.36))

    def test_zero_width_box(self):
        v_minus, v_plus = sobol_index_bounds(np.array([0.3, 1.0, 0.0]), np.zeros(3))
        assert v_minus == pytest.approx(0.3)
        assert v_plus == pytest.approx(0.3)

    def test_saturation_to_one(self):
        v_minus, v_plus = sobol_index_bounds(np.array([0.9, 0.5, 0.0]), np.array([0.5, 0.1, 0.1]))
        assert v_plus == 1.0

    def test_bounds_enclose_brute_force(self):
        # boxes within the nonnegative domain (the endpoint formula is
        # stated for mu_3 >= 0); grid extremes must be enclosed and the
        # bounds must come close to them
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 300:
            mu = np.array([rng.uniform(0, 0.6), rng.uniform(0.3, 1.2), rng.uniform(0.16, 0.5)])
            err = rng.uniform(0.0, 0.15, size=3)
            lo, hi = brute_force_index_range(mu, err)
            if not np.isfinite(lo):
                continue  # box misses the domain entirely
            checked += 1
            v_minus, v_plus = sobol_index_bounds(mu, err)
            assert 0.0 <= v_minus <= v_plus <= 1.0
            assert v_minus <= lo + 1e-9
            assert v_plus >= hi - 1e-9
            assert lo - v_minus <= 0.1
            assert v_plus - hi <= 0.1

    def test_negative_mean_uses_smallest_square(self):
        # Bratley's mean is -21/64; the lower bound needs the smallest m**2
        mu, err = np.array([0.0358, 0.1626, -0.328]), np.array([1e-3, 1e-3, 0.05])
        v_minus, _ = sobol_index_bounds(mu, err)
        assert v_minus == pytest.approx(0.0348 / (0.1636 - 0.278**2), rel=1e-12)
        assert sobol_index_bounds(mu, err) == sobol_index_bounds(mu * [1, 1, -1], err)

    @given(
        mu=st.tuples(st.floats(-0.5, 1.0), st.floats(0.0, 1.5), st.floats(-1.0, 1.0)),
        err=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_are_brute_force_extremes(self, mu, err):
        # The clipped index is nondecreasing in m1 and in m3**2 and
        # nonincreasing in m2, so its extremes lie on a grid holding the
        # box corners and m3 = 0 when the interval contains it.
        v_minus, v_plus = sobol_index_bounds(np.array(mu), np.array(err))
        m1 = np.linspace(mu[0] - err[0], mu[0] + err[0], 5)
        m2 = np.linspace(mu[1] - err[1], mu[1] + err[1], 5)
        m3 = np.linspace(mu[2] - err[2], mu[2] + err[2], 9)
        if abs(mu[2]) <= err[2]:
            m3 = np.append(m3, 0.0)
        num = m1[:, None, None]
        den = m2[None, :, None] - m3[None, None, :] ** 2
        with np.errstate(all="ignore"):
            index = np.where(num <= 0.0, 0.0,
                             np.where(num > np.maximum(0.0, den), 1.0, num / den))
        assert 0.0 <= v_minus <= v_plus <= 1.0
        assert v_minus == pytest.approx(index.min(), abs=1e-9)
        assert v_plus == pytest.approx(index.max(), abs=1e-9)

    def test_functional_value(self):
        f = sobol_index_functional()
        assert f.output_count == 3

    @pytest.mark.parametrize("columns", [11, 13, 6])
    def test_problem_integrand_checks_point_width(self, columns):
        # bratley_g used to report "points with six coordinates" for these
        f = SobolIndexProblem(model=bratley_g, coordinate=2, dimension=6).integrand()
        with pytest.raises(ValueError, match=f"expected 12 coordinates, got {columns}"):
            f(np.full((4, columns), 0.5))

    def test_problem_integrand_shapes_and_means(self):
        prob = SobolIndexProblem(model=bratley_g, coordinate=2, dimension=6)
        f = prob.integrand()
        x = np.random.default_rng(0).random((50_000, 12))
        out = f(x)
        assert out.shape == (50_000, 3)
        mu2 = sum(
            (-1) ** (i + k) * (1 / 3) ** min(i, k) * (1 / 2) ** abs(i - k)
            for i in range(1, 7)
            for k in range(1, 7)
        )
        assert out[:, 1].mean() == pytest.approx(mu2, abs=3e-3)
        assert out[:, 2].mean() == pytest.approx(BRATLEY_INTEGRAL, abs=3e-3)

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            SobolIndexProblem(model=bratley_g, coordinate=7, dimension=6)

    @pytest.mark.parametrize("fields", [{"coordinate": 1.5}, {"coordinate": "1"}, {"dimension": 6.0}])
    def test_sizes_must_be_integers(self, fields):
        # coordinate 1.5 used to pass the range check and fail at evaluation
        name = next(iter(fields))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SobolIndexProblem(**{"model": bratley_g, "coordinate": 1, "dimension": 6, **fields})

    @pytest.mark.parametrize(
        "fields, message",
        [({"coordinate": 7}, r"coordinate=7 must lie in \[1, 6\]"),
         ({"coordinate": 0}, r"coordinate=0 must lie in \[1, 6\]"),
         ({"dimension": 0}, "dimension must be at least 1, got 0")],
    )
    def test_sizes_name_their_bounds(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SobolIndexProblem(**{"model": bratley_g, "coordinate": 1, "dimension": 6, **fields})

    def test_numpy_integer_sizes_match_int(self):
        ref = SobolIndexProblem(bratley_g, 2, 6)
        prob = SobolIndexProblem(bratley_g, np.int64(2), np.int32(6))
        assert type(prob.coordinate) is int and type(prob.dimension) is int
        x = np.random.default_rng(1).random((64, 12))
        assert np.array_equal(prob.integrand()(x), ref.integrand()(x))


class TestAsianOption:
    @staticmethod
    def covariance(opt):
        t = opt.times
        return np.minimum(t[:, None], t[None, :])

    def test_path_matrix_factorizes_covariance(self):
        opt = AsianOption()
        A = opt.path_matrix()
        assert np.abs(A @ A.T - self.covariance(opt)).max() < 1e-8
        variances = (A**2).sum(axis=0)
        assert (np.diff(variances) <= 1e-12).all()
        assert (A[0] > 0).all()

    @pytest.mark.parametrize("monitors", [1, 3, 12, 52, 250])
    def test_path_matrix_factors_covariance_to_rounding(self, monitors):
        # an eigh factor missed by 2.0e-14 at d = 250
        opt = AsianOption(monitors=monitors)
        A = opt.path_matrix()
        assert np.abs(A @ A.T - self.covariance(opt)).max() <= 4e-15

    @pytest.mark.parametrize("monitors, maturity", [(52, 1.0), (12, 2.0), (3, 0.25), (1, 1.0)])
    def test_path_matrix_is_fresh_closed_form(self, monitors, maturity):
        opt = AsianOption(monitors=monitors, maturity=maturity)
        d = monitors
        theta = (2 * np.arange(1, d + 1) - 1) * np.pi / (2 * d + 1)
        expect = np.sin(np.outer(np.arange(1, d + 1), theta)) / np.sin(0.5 * theta)
        expect *= math.sqrt(maturity / (d * (2 * d + 1)))
        for _ in range(2):
            assert np.array_equal(opt.path_matrix(), expect)
        x = q.make_generator("digital", monitors, 7).points(0, 256).points
        arith, geo, _ = asian_payoffs(opt)
        before = arith(x.copy()), geo(x.copy())
        A = opt.path_matrix()
        assert A.flags.writeable
        A[:] = 0.0
        assert np.array_equal(opt.path_matrix(), expect)
        arith, geo, _ = asian_payoffs(opt)
        assert np.array_equal(arith(x.copy()), before[0])
        assert np.array_equal(geo(x.copy()), before[1])

    @pytest.mark.parametrize(
        "fields", [{}, {"monitors": 12, "maturity": 2.0}, {"monitors": 1}, {"monitors": 250, "strike": 80.0},
                   {"rate": 0.1, "volatility": 0.2, "maturity": 0.25, "monitors": 3}],
    )
    def test_geometric_price_matches_covariance_sum(self, fields):
        opt = AsianOption(**fields)
        d = opt.monitors
        mean_log = (opt.rate - 0.5 * opt.volatility**2) * float(np.mean(opt.times))
        var_log = opt.volatility**2 * float(np.sum(self.covariance(opt))) / d**2
        sd_log = math.sqrt(var_log)
        forward = opt.spot * math.exp(mean_log + 0.5 * var_log)
        d2 = (math.log(opt.spot / opt.strike) + mean_log) / sd_log
        expect = math.exp(-opt.rate * opt.maturity) * (
            forward * float(norm_cdf(d2 + sd_log)) - opt.strike * float(norm_cdf(d2))
        )
        assert opt.geometric_price() == pytest.approx(expect, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"monitors": 0}, "monitors must be at least 1"),
            ({"monitors": -3}, "monitors must be at least 1"),
            ({"spot": 0.0}, "spot must be positive"),
            ({"spot": -1.0}, "spot must be positive"),
            ({"strike": -1.0}, "strike must be nonnegative"),
            ({"volatility": -0.1}, "volatility must be nonnegative"),
            ({"maturity": -1.0}, "maturity must be nonnegative"),
            ({"rate": np.nan}, "must be finite"),
            ({"spot": np.inf}, "must be finite"),
            ({"strike": np.inf}, "must be finite"),
            ({"volatility": np.nan}, "must be finite"),
            ({"maturity": np.inf}, "must be finite"),
            ({"monitors": 52.5}, "monitors must be an integer, got 52.5"),
            ({"monitors": "52"}, "monitors must be an integer"),
        ],
    )
    def test_invalid_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            AsianOption(**fields)

    def test_boolean_monitors_rejected(self):
        # bool is an int subclass, so operator.index alone would accept it
        with pytest.raises(ValueError, match="monitors must be an integer, got True"):
            AsianOption(monitors=True)

    def test_zero_volatility_is_deterministic(self):
        opt = AsianOption(volatility=0.0)
        x = np.random.default_rng(1).random((100, 52))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arith, geo, mu_g = asian_payoffs(opt)
            # zero rate puts the forward exactly at the default strike
            at_forward = AsianOption(rate=0.0, volatility=0.0).geometric_price()
        s = opt.spot * np.exp(opt.rate * opt.times)
        expect_arith = np.exp(-opt.rate) * max(s.mean() - opt.strike, 0.0)
        expect_geo = np.exp(-opt.rate) * max(np.exp(np.log(s).mean()) - opt.strike, 0.0)
        assert np.allclose(arith(x), expect_arith, atol=1e-10)
        assert np.allclose(geo(x), expect_geo, atol=1e-10)
        assert mu_g == pytest.approx(expect_geo, abs=1e-9)
        assert at_forward == 0.0

    def test_arithmetic_dominates_geometric_pathwise(self):
        arith, geo, _ = asian_payoffs(AsianOption())
        x = np.random.default_rng(2).random((2000, 52))
        assert (arith(x) >= geo(x) - 1e-12).all()

    def test_reference_price_level(self):
        arith, _, _ = asian_payoffs(AsianOption())
        gen = q.make_generator("digital", 52, 123)
        price = float(arith(gen.points(0, 1 << 17).points).mean())
        assert price == pytest.approx(11.97, abs=0.05)

    def test_geometric_closed_form_against_qmc(self):
        opt = AsianOption()
        _, geo, mu_g = asian_payoffs(opt)
        gen = q.make_generator("digital", 52, 321)
        est = float(geo(gen.points(0, 1 << 20).points).mean())
        assert abs(est - mu_g) < 5e-3

    def test_zero_coordinate_guard(self):
        arith, _, _ = asian_payoffs(AsianOption(monitors=4))
        x = np.random.default_rng(3).random((8, 4))
        x[0, 0] = 0.0
        assert np.isfinite(arith(x)).all()

    def test_numpy_integer_monitors_match_int(self):
        ref, opt = AsianOption(monitors=12), AsianOption(monitors=np.int64(12))
        assert type(opt.monitors) is int and opt == ref
        x = q.make_generator("digital", 12, 4).points(0, 256).points
        (a_ref, g_ref, price_ref), (a, g, price) = asian_payoffs(ref), asian_payoffs(opt)
        assert price == price_ref
        assert np.array_equal(a(x.copy()), a_ref(x.copy()))
        assert np.array_equal(g(x.copy()), g_ref(x.copy()))

    def test_payoffs_reject_wrong_coordinate_count(self):
        for payoff in asian_payoffs(AsianOption(monitors=4))[:2]:
            with pytest.raises(ValueError, match="expected 4 coordinates, got 3"):
                payoff(np.full((8, 3), 0.5))

    @pytest.mark.parametrize("geometric_first", [False, True])
    def test_pair_shares_quantiles_of_read_only_batch(self, geometric_first, monkeypatch):
        quantile_calls = []

        def counted(u):
            quantile_calls.append(u.shape)
            return norm_inv_cdf(u)

        monkeypatch.setattr("qmcube.integrands.norm_inv_cdf", counted)
        opt = AsianOption()
        batch = q.make_generator("digital", 52, 5).points(0, 1 << 10).points
        arith, geo, _ = asian_payoffs(opt)
        if geometric_first:
            g_shared = geo(batch)
            a_shared = arith(batch)
        else:
            a_shared = arith(batch)
            g_shared = geo(batch)
        assert len(quantile_calls) == 1
        arith_alone, geo_alone, _ = asian_payoffs(opt)
        assert np.array_equal(a_shared, arith_alone(batch.copy()))
        np.testing.assert_allclose(g_shared, geo_alone(batch.copy()), rtol=1e-12, atol=0)
        assert len(quantile_calls) == 3

    def test_lone_payoff_keeps_no_batch_alive(self):
        arith, _, _ = asian_payoffs(AsianOption())
        batch = q.make_generator("digital", 52, 5).points(0, 1 << 10)
        points = weakref.ref(batch.points)
        arith(batch.points)
        del batch
        assert points() is None

    def test_writeable_points_are_never_shared(self):
        arith, geo, _ = asian_payoffs(AsianOption())
        x = np.random.default_rng(4).random((64, 52))
        arith(x)
        x[:] = np.random.default_rng(5).random((64, 52))
        assert np.array_equal(geo(x), asian_payoffs(AsianOption())[1](x))

    def test_geometric_payoff_matches_path_formula(self):
        opt = AsianOption()
        x = q.make_generator("digital", 52, 6).points(0, 1 << 10).points
        _, geo, _ = asian_payoffs(opt)
        drift = (opt.rate - 0.5 * opt.volatility**2) * opt.times
        paths = opt.spot * np.exp(drift + opt.volatility * (norm_inv_cdf(x) @ opt.path_matrix().T))
        geo_mean = np.exp(np.log(paths).mean(axis=1))
        expect = np.exp(-opt.rate * opt.maturity) * np.maximum(geo_mean - opt.strike, 0.0)
        assert np.abs(geo(x) - expect).max() <= 1e-12 * geo_mean.max()
