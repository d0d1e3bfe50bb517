"""Normal kernels, Genz transform, Bratley indices, Asian payoffs."""

import warnings

import numpy as np
import pytest

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
        u = np.array([1e-300, 1.0 - 1e-16])
        x = norm_inv_cdf(u)
        assert np.isfinite(x).all()
        assert x[0] < -30 and x[1] > 8

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.25, 1.5):
            with pytest.raises(ValueError):
                norm_inv_cdf(np.array([bad]))

    def test_pdf_matches_cdf_slope(self):
        x = np.linspace(-3, 3, 31)
        h = 1e-6
        slope = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        assert np.abs(slope - norm_pdf(x)).max() < 1e-8


class TestGenz:
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

    def test_adaptive_quadrature_on_smooth_function(self):
        val = adaptive_gauss_legendre(lambda t: np.exp(-t * t), -8.0, 8.0, tol=1e-12)
        assert val == pytest.approx(np.sqrt(np.pi), abs=1e-10)


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

    def test_functional_value(self):
        f = sobol_index_functional()
        assert f.output_count == 3

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


class TestAsianOption:
    def test_path_matrix_factorizes_covariance(self):
        opt = AsianOption()
        A = opt.path_matrix()
        assert np.abs(A @ A.T - opt.brownian_covariance()).max() < 1e-8
        variances = (A**2).sum(axis=0)
        assert (np.diff(variances) <= 1e-12).all()
        assert (A[0] > 0).all()

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
