"""Optimal-estimator arithmetic, the adaptive loop, and the baselines."""

import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmcube as q
from qmcube.cone import ConeParams
from qmcube.engine import (
    Tolerance,
    identity_functional,
    integrate,
    integrate_scalar,
    optimal_estimate,
    sup_tolerance,
)
from qmcube.control_variates import ControlVariateSpec, cv_integrate
from qmcube.integrands import AsianOption, adaptive_gauss_legendre, asian_payoffs, norm_inv_cdf
from qmcube.ledger import EvaluationError, _block_rows
from qmcube.sequences import DirectionTableError, make_generator
from oracles import BASELINE_STRATEGIES, heuristic_baselines, replicate_seeds, tolerance_value

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def grid_tol(v, v_hat, tol):
    denom = max(tol.abs_tol, tol.rel_tol * abs(v))
    if denom == 0.0:
        return 0.0 if v == v_hat else np.inf
    return ((v - v_hat) / denom) ** 2


def grid_sup(v_minus, v_plus, tol, v_hat, points=10_001):
    vs = np.linspace(v_minus, v_plus, points)
    return max(grid_tol(v, v_hat, tol) for v in vs)


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(0.0, 0.0)
        with pytest.raises(ValueError):
            Tolerance(-1.0, 0.1)
        with pytest.raises(ValueError):
            Tolerance(0.1, 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="abs_tol must be finite"):
                Tolerance(bad, 0.1)

    def test_tolerance_value(self):
        tol = Tolerance(0.01, 0.05)
        assert tolerance_value(1.0, 1.0, tol) == 0.0
        assert tolerance_value(1.0, 0.95, tol) == pytest.approx(1.0)


class TestOptimalEstimate:
    def test_absolute_case_midpoint(self):
        assert optimal_estimate(-1.0, 1.0, Tolerance(1.0, 0.0)) == 0.0

    def test_pure_relative_example(self):
        # grid-search oracle confirms the closed form equals 8/3
        tol = Tolerance(0.0, 0.1)
        v_hat = optimal_estimate(2.0, 4.0, tol)
        assert v_hat == pytest.approx(8.0 / 3.0, abs=1e-12)
        candidates = np.linspace(2.0, 4.0, 2001)
        sups = [grid_sup(2.0, 4.0, tol, c, points=2001) for c in candidates]
        assert abs(candidates[int(np.argmin(sups))] - 8.0 / 3.0) < 2e-3

    def test_hybrid_example_with_endpoint_equality(self):
        tol = Tolerance(0.5, 0.5)
        v_hat = optimal_estimate(-1.0, 3.0, tol)
        assert v_hat == 0.0
        assert grid_tol(-1.0, v_hat, tol) == pytest.approx(4.0)
        assert grid_tol(3.0, v_hat, tol) == pytest.approx(4.0)
        assert sup_tolerance(-1.0, 3.0, tol) == pytest.approx(4.0)

    def test_degenerate_zero_interval(self):
        tol = Tolerance(0.0, 0.5)
        assert optimal_estimate(0.0, 0.0, tol) == 0.0
        assert sup_tolerance(0.0, 0.0, tol) == 0.0

    @pytest.mark.parametrize(
        "v_minus, v_plus, tol",
        [
            (-math.inf, math.inf, Tolerance(rel_tol=0.1)),
            (0.0, math.inf, Tolerance(rel_tol=0.1)),
            (-math.inf, -1.0, Tolerance(0.1, 0.1)),
            (0.0, math.inf, Tolerance(abs_tol=0.1)),  # inf before as well
        ],
    )
    def test_infinite_endpoint_gives_infinite_sup(self, v_minus, v_plus, tol):
        # under a relative tolerance the ratio was inf / inf, so NaN
        assert sup_tolerance(v_minus, v_plus, tol) == math.inf

    def test_reversed_interval_rejected(self):
        for fn in (optimal_estimate, sup_tolerance):
            with pytest.raises(ValueError, match="v_minus must not exceed v_plus"):
                fn(1.0, 0.5, Tolerance(0.1, 0.1))

    @pytest.mark.parametrize(
        "v_minus, v_plus", [(5e-324, 1e-323), (-1e-323, -5e-324), (5e-324, 5e-324), (1e-323, 1.5e-323)]
    )
    def test_underflowing_weights_stay_in_interval(self, v_minus, v_plus):
        # both relative weights underflow to zero and so do the endpoint
        # products; the average used to come out as 0.0, outside [v-, v+]
        assert v_minus <= optimal_estimate(v_minus, v_plus, Tolerance(rel_tol=0.1)) <= v_plus

    @pytest.mark.parametrize("v_minus, v_plus", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_endpoint_rejected(self, v_minus, v_plus):
        # a NaN fails every comparison, so the check must ask for v- <= v+
        for fn in (optimal_estimate, sup_tolerance):
            with pytest.raises(ValueError, match="neither may be NaN"):
                fn(v_minus, v_plus, Tolerance(0.1, 0.1))

    def test_overflowing_products_stay_finite(self):
        # the weighted products overflow to -inf and +inf, or to +inf twice
        tol = Tolerance(rel_tol=0.1)
        assert optimal_estimate(-1e200, 2e200, tol) == 0.0
        assert optimal_estimate(1e200, 2e200, tol) == pytest.approx(4e200 / 3, rel=1e-15)
        assert optimal_estimate(-2e200, -1e200, tol) == pytest.approx(-4e200 / 3, rel=1e-15)
        # under a relative tolerance the estimate scales with the interval
        for v_minus, v_plus in ((-1.0, 3.0), (2.0, 4.0), (0.0, 1.5), (-5.0, -0.25)):
            small = optimal_estimate(v_minus, v_plus, Tolerance(rel_tol=0.3))
            big = optimal_estimate(1e300 * v_minus, 1e300 * v_plus, Tolerance(rel_tol=0.3))
            assert big == pytest.approx(1e300 * small, rel=1e-14, abs=1e285)
        # an absolute tolerance whose products overflow gives the midpoint
        assert optimal_estimate(1.5e308, 1.7e308, Tolerance(abs_tol=10.0)) == pytest.approx(1.6e308)
        # an infinite endpoint is not rescaled, and nothing divides by zero
        for v_minus, v_plus in ((-math.inf, math.inf), (0.0, math.inf), (-math.inf, 1.0)):
            v_hat = optimal_estimate(v_minus, v_plus, tol)
            assert v_minus <= v_hat <= v_plus

    @pytest.mark.parametrize(
        "v_minus, v_plus, expect",
        [(-math.inf, math.inf, 0.0), (0.0, math.inf, 0.0), (1.0, math.inf, 1.0),
         (-math.inf, 1.0, 0.0), (-math.inf, 0.0, 0.0), (-math.inf, -1.0, -1.0)],
    )
    def test_unbounded_interval_gives_point_nearest_zero(self, v_minus, v_plus, expect):
        for tol in (Tolerance(abs_tol=0.1), Tolerance(rel_tol=0.1), Tolerance(0.1, 0.1)):
            assert optimal_estimate(v_minus, v_plus, tol) == expect

    def test_three_case_form(self):
        # the weighted-average form agrees with the per-regime expressions
        rng = np.random.default_rng(0)
        for _ in range(500):
            v_minus = rng.uniform(-3, 3)
            v_plus = v_minus + rng.uniform(0, 3)
            eps_a, eps_r = rng.uniform(0.01, 2), rng.uniform(0.01, 0.99)
            tol = Tolerance(eps_a, eps_r)
            v_hat = optimal_estimate(v_minus, v_plus, tol)
            ra, rp = eps_r * abs(v_minus), eps_r * abs(v_plus)
            if max(ra, rp) <= eps_a:
                expect = 0.5 * (v_minus + v_plus)
            elif min(ra, rp) > eps_a:
                expect = (
                    abs(v_plus * v_minus)
                    * (np.sign(v_plus) + np.sign(v_minus))
                    / (abs(v_plus) + abs(v_minus))
                )
            else:
                vs, vo = (v_plus, v_minus) if rp > ra else (v_minus, v_plus)
                expect = (
                    vs * (eps_a + vo * eps_r * np.sign(vs)) / (eps_a + eps_r * abs(vs))
                )
            assert v_hat == pytest.approx(expect, rel=1e-10, abs=1e-12)


@st.composite
def interval_and_tolerance(draw):
    v_minus = draw(st.floats(-10, 10))
    width = draw(st.floats(0, 10))
    eps_a = draw(st.one_of(st.just(0.0), st.floats(1e-6, 2)))
    eps_r = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.99)))
    if eps_a == 0.0 and eps_r == 0.0:
        eps_r = 0.1
    return v_minus, v_minus + width, Tolerance(eps_a, eps_r)


class TestEstimatorInvariants:
    @given(interval_and_tolerance())
    @settings(max_examples=300, deadline=None)
    def test_membership_and_shrinkage(self, case):
        v_minus, v_plus, tol = case
        v_hat = optimal_estimate(v_minus, v_plus, tol)
        assert v_minus - 1e-12 <= v_hat <= v_plus + 1e-12
        mid = 0.5 * (v_minus + v_plus)
        scale = abs(v_minus) + abs(v_plus)
        assert abs(v_hat) <= abs(mid) + 1e-12 * max(scale, 1.0)
        assert abs(v_hat) <= 1e-12 * max(scale, 1.0) or v_hat * mid >= 0.0

    @given(interval_and_tolerance())
    @example((8.0, 8.000001, Tolerance(1e-6, 0)))
    @settings(max_examples=200, deadline=None)
    def test_endpoint_equality(self, case):
        v_minus, v_plus, tol = case
        width = v_plus - v_minus
        if width < 1e-9 or tol.scale(v_minus) == 0 or tol.scale(v_plus) == 0:
            return
        v_hat = optimal_estimate(v_minus, v_plus, tol)
        lo, hi = grid_tol(v_minus, v_hat, tol), grid_tol(v_plus, v_hat, tol)
        # v_hat carries rounding of relative size eps at the endpoints'
        # magnitude, which moves lo and hi apart by about 8 eps |v| / width.
        # A subnormal scale, or a subnormal product v * scale inside
        # v_hat, carries absolute rounding of the smallest subnormal
        # instead, which moves them by about 8 tiny (1 + 1/width) / scale.
        fp = np.finfo(float)
        magnitude = fp.eps * max(abs(v_minus), abs(v_plus)) / width
        scale = min(tol.scale(v_minus), tol.scale(v_plus))
        underflow = fp.smallest_subnormal * (1 + 1 / width) / scale
        rel = 1e-9 + 8 * (magnitude + underflow)
        assert lo == pytest.approx(hi, rel=rel, abs=1e-9)
        assert sup_tolerance(v_minus, v_plus, tol) == pytest.approx(lo, rel=rel, abs=1e-9)

    def test_grid_never_beats_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v_minus = rng.uniform(-5, 5)
            v_plus = v_minus + rng.uniform(1e-6, 5)
            tol = Tolerance(rng.uniform(0, 1), rng.uniform(0, 0.99))
            if tol.scale(1.0) == 0.0:
                continue
            best = sup_tolerance(v_minus, v_plus, tol)
            for cand in np.linspace(v_minus, v_plus, 37):
                assert best <= grid_sup(v_minus, v_plus, tol, cand, points=301) + 1e-9

    def test_monotone_under_subintervals(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v_minus = rng.uniform(-5, 5)
            v_plus = v_minus + rng.uniform(0, 5)
            tol = Tolerance(rng.uniform(1e-3, 1), rng.uniform(0, 0.99))
            a = rng.uniform(v_minus, v_plus)
            b = rng.uniform(a, v_plus)
            assert sup_tolerance(a, b, tol) <= sup_tolerance(v_minus, v_plus, tol) + 1e-12


class TestIntegrate:
    def test_constant_stops_at_minimum(self):
        for family in ("digital", "lattice"):
            res = integrate_scalar(
                lambda x: np.full(x.shape[0], 3.5), 4, Tolerance(1e-6), family=family, seed=1
            )
            assert res.n == 1024
            assert res.status == "tolerance-met"
            assert res.v_hat == pytest.approx(3.5)
            assert res.estimate.err[0] == 0.0

    def test_product_reaches_absolute_tolerance(self):
        for family in ("digital", "lattice"):
            res = integrate_scalar(
                lambda x: np.prod(2.0 * x, axis=1), 3, Tolerance(1e-3), family=family, seed=2
            )
            assert res.status == "tolerance-met"
            assert abs(res.v_hat - 1.0) <= 1e-3

    def test_scalar_relative_shrinkage_row(self):
        # pure-relative optimal estimate matches the closed shrinkage form
        rng = np.random.default_rng(4)
        for _ in range(100):
            mu_hat = rng.uniform(-2, 2)
            err = rng.uniform(0, 1)
            tol = Tolerance(0.0, 0.3)
            v_hat = optimal_estimate(mu_hat - err, mu_hat + err, tol)
            if mu_hat == 0.0:
                continue
            expect = max(mu_hat**2 - err**2, 0.0) / mu_hat
            assert v_hat == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_corollary_arithmetic(self):
        tol = Tolerance(0.0, 0.2)
        assert sup_tolerance(0.9, 1.1, tol) == pytest.approx(0.25)
        assert optimal_estimate(0.9, 1.1, tol) == pytest.approx(0.99)

    def test_budget_exhausted_status(self):
        cone = ConeParams(m_max=11)
        res = integrate_scalar(
            lambda x: np.prod(2.0 * x, axis=1), 3, Tolerance(1e-12), cone=cone, seed=3
        )
        assert res.status == "budget-exhausted"
        assert res.n == 2048
        assert res.sup_tol > 1.0

    def test_capacity_exhausted_status(self):
        # the generator's capacity (2^12 nodes), not cone.m_max, ends the run
        gen = q.LatticeGenerator(q.default_lattice_generator(3).generating_vector, m_max=12)
        res = integrate_scalar(lambda x: np.prod(2.0 * x, axis=1), 3, Tolerance(1e-12), generator=gen)
        assert res.status == "capacity-exhausted"
        assert res.n == 1 << 12
        assert res.sup_tol > 1.0

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_generator_dimension_mismatch(self, family):
        gen = make_generator(family, 7, 1)
        with pytest.raises(ValueError, match="generator has dimension 7, expected 5"):
            integrate_scalar(lambda x: x.sum(axis=1), 5, Tolerance(abs_tol=1e-3), generator=gen)

    def test_output_count_mismatch(self):
        with pytest.raises(ValueError, match="outputs"):
            integrate(
                lambda x: np.stack([x[:, 0], x[:, 1]], axis=1),
                2,
                identity_functional(),
                Tolerance(1e-3),
                seed=0,
            )

    @pytest.mark.parametrize(
        "f, shape",
        [(lambda x: 1.0, "()"), (lambda x: np.zeros((x.shape[0], 1, 1)), "(1024, 1, 1)")],
    )
    def test_integrand_shape_contract(self, f, shape):
        message = re.escape(f"(n,) or (n, p) for n = 1024 points, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            integrate_scalar(f, 2, Tolerance(1e-3))

    def test_nan_functional_raises_at_the_first_level(self):
        # a NaN interval fails at once instead of running to the level budget
        points = []

        def f(x):
            points.append(x.shape[0])
            return x[:, 0]

        functional = q.SolutionFunctional(1, lambda mu, err: (math.nan, math.nan))
        with pytest.raises(ValueError, match="neither may be NaN"):
            integrate(f, 1, functional, Tolerance(1e-3), cone=ConeParams(m_max=12))
        assert sum(points) == 1 << ConeParams().min_level

    def test_csv_row_roundtrip(self):
        res = integrate_scalar(lambda x: x[:, 0], 1, Tolerance(1e-4), seed=9)
        row = res.csv_row()
        assert len(row) == 9
        assert row[7] == "tolerance-met"  # seed, family, d, p, n, v_hat, sup_tol, status, wall_ms
        again = integrate_scalar(lambda x: x[:, 0], 1, Tolerance(1e-4), seed=9)
        assert row[:-1] == again.csv_row()[:-1]  # identical up to wall time

    @pytest.mark.parametrize(
        "tol, functional",
        [
            (Tolerance(abs_tol=np.float64(1e-3)), identity_functional()),
            (Tolerance(abs_tol=1e-3),
             q.SolutionFunctional(1, lambda mu, err: (mu[0] - err[0], mu[0] + err[0]))),
        ],
        ids=["numpy-tolerance", "numpy-bounds"],
    )
    def test_numpy_floats_come_out_as_python_floats(self, tol, functional):
        # v_hat used to stay an np.float64, which csv_row printed as 'np.float64(...)'
        res = integrate(lambda x: np.prod(2.0 * x, axis=1), 3, functional, tol, seed=7)
        assert type(res.v_hat) is float and type(res.sup_tol) is float
        assert not any("np.float64" in field for field in res.csv_row())
        assert res.csv_row(False)[5] == "1.0002446174453254"
        v_minus, v_plus = np.float32(0.5), np.float64(1.5)
        assert type(optimal_estimate(v_minus, v_plus, tol)) is float
        assert type(sup_tolerance(v_minus, v_plus, tol)) is float

    @pytest.mark.parametrize(
        "seed, row",
        [
            (1, "None,lattice,7,1,131072,0.5002986655963194,0.546243948339466,"
                "tolerance-met+cone-violation-flagged"),
            (2, "None,lattice,7,1,131072,0.500302222681392,0.5464025781856566,"
                "tolerance-met+cone-violation-flagged"),
        ],
    )
    def test_mvn_lattice_rows_match_golden(self, seed, row, monkeypatch):
        # the benchmark's lattice workload through the doubled lattice ledger
        monkeypatch.syspath_prepend(str(BENCHMARK))
        workloads = importlib.import_module("workloads")
        golden = json.loads((BENCHMARK / "golden.json").read_text(encoding="ascii"))
        assert golden["mvn-lattice"][str(seed)]["row"] == row
        result = workloads.WORKLOADS["mvn-lattice"].setup(seed, lambda f: f)()
        assert ",".join(result.csv_row(include_wall_time=False)) == row

    @pytest.mark.parametrize(
        "seed, row, err, beta",
        [
            (1, "None,digital,52,1,131072,11.968385613400969,0.575640612788937,tolerance-met",
             0.0003793549171916316, 1.033589169343359),
            (2, "None,digital,52,1,131072,11.96863420584207,0.6985787596196672,tolerance-met",
             0.00041790512069795217, 1.0377214467220273),
        ],
    )
    def test_asian_cv_rows_are_pinned(self, seed, row, err, beta, monkeypatch):
        # the benchmark's control-variate workload; golden.json's rows for it
        # come from older integrand code, so the bits are pinned here
        monkeypatch.syspath_prepend(str(BENCHMARK))
        workloads = importlib.import_module("workloads")
        result = workloads.WORKLOADS["asian-cv-digital"].setup(seed, lambda f: f)()
        assert ",".join(result.csv_row(include_wall_time=False)) == row
        assert result.estimate.err.tolist() == [err]
        option = AsianOption()
        arithmetic, geometric, price = asian_payoffs(option)
        cv = cv_integrate(
            arithmetic, option.monitors, ControlVariateSpec(geometric, np.array([price])),
            Tolerance(abs_tol=workloads.ASIAN_TOL), generator=make_generator("digital", option.monitors, seed),
        )
        assert cv.beta.tolist() == [beta] and not cv.beta_fallback
        assert cv.result.csv_row(False) == result.csv_row(False)


def keister(dimension):
    """pi^(d/2) cos(|z| / sqrt 2) at the normal quantiles z of x: integral of
    cos(|t|) exp(-|t|^2) over R^d."""

    def f(x):
        radius = np.linalg.norm(norm_inv_cdf(x), axis=1)
        return np.pi ** (dimension / 2) * np.cos(radius / np.sqrt(2))

    return f


class TestHybridTolerance:
    @pytest.mark.parametrize("family", ["digital", "lattice"])
    @pytest.mark.parametrize("tol", [Tolerance(rel_tol=1e-3), Tolerance(1e-4, 1e-3)])
    @pytest.mark.parametrize(
        "dimension, truth, seeds",
        [(3, 2.168309102165479, range(1, 11)), (8, -30.60907500355854, range(1, 4))],
    )
    def test_keister_meets_hybrid_tolerance(self, family, tol, dimension, truth, seeds):
        # The truth is pi^(d/2) E[cos(R / sqrt 2)] for R ~ chi_d, a 1-D integral.
        density = 2.0 ** (1 - dimension / 2) / math.gamma(dimension / 2)
        chi = adaptive_gauss_legendre(
            lambda r: density * r ** (dimension - 1) * np.exp(-r * r / 2) * np.cos(r / np.sqrt(2)),
            0.0,
            20.0,
        )
        assert np.pi ** (dimension / 2) * chi == pytest.approx(truth, rel=1e-14)
        for seed in seeds:
            res = integrate_scalar(keister(dimension), dimension, tol, family=family, seed=seed)
            assert res.status == "tolerance-met", seed
            assert abs(res.v_hat - truth) <= tol.scale(truth), seed


def baseline_means_one_batch(f, dimension, strategy, repeats, n, family, seed):
    """Replicate means with every replicate evaluated in one batch: the
    formula the baselines used before blocked evaluation."""
    if strategy == "iid-replications":
        means = np.empty(repeats)
        for rep, rep_seed in enumerate(replicate_seeds(seed, repeats)):
            gen = make_generator(family, dimension, rep_seed)
            means[rep] = float(np.mean(f(gen.points(0, n).points)))
        return means
    if strategy == "internal-replications":
        gen = make_generator(family, dimension, seed)
        vals = np.asarray(f(gen.points(0, n * repeats).points), dtype=float)
        return vals.reshape(repeats, n).mean(axis=1)
    gen = make_generator(family, dimension * repeats, seed)
    pts = gen.points(0, n).points
    return np.array(
        [float(np.mean(f(pts[:, r * dimension : (r + 1) * dimension]))) for r in range(repeats)]
    )


def product_integrand(x):
    return np.prod(1.0 + 0.3 * (x - 0.5), axis=1)


BASELINE_CASES = [
    # (strategy, dimension, family): each case spans several evaluation blocks
    ("iid-replications", 52, "digital"),
    ("internal-replications", 52, "digital"),
    ("internal-replications", 26, "lattice"),
    ("quasi-standard-error", 13, "digital"),
]


class TestHeuristicBaselines:
    @pytest.mark.parametrize("strategy,dimension,family", BASELINE_CASES)
    def test_blocked_means_equal_one_batch(self, strategy, dimension, family):
        repeats, n = 4, 1 << 14
        sizes = []

        def f(x):
            sizes.append(x.shape[0])
            return product_integrand(x)

        out = heuristic_baselines(
            f, dimension, strategy, repeats=repeats, n=n, family=family, seed=11
        )
        expect = baseline_means_one_batch(
            product_integrand, dimension, strategy, repeats, n, family, 11
        )
        assert np.array_equal(out.replicate_means, expect)
        generator_dim = dimension * repeats if strategy == "quasi-standard-error" else dimension
        assert max(sizes) == _block_rows(generator_dim) < n

    @pytest.mark.parametrize("strategy", BASELINE_STRATEGIES)
    def test_nan_reports_global_index(self, strategy):
        dimension, repeats, n, seed = 13, 4, 1 << 14, 2
        index = n + 4101 if strategy == "internal-replications" else 4101
        if strategy == "quasi-standard-error":
            gen = make_generator("digital", dimension * repeats, seed)
            target = gen.points(index, 1).points[0, 2 * dimension : 3 * dimension]
        elif strategy == "iid-replications":
            first = replicate_seeds(seed, repeats)[0]
            target = make_generator("digital", dimension, first).points(index, 1).points[0]
        else:
            target = make_generator("digital", dimension, seed).points(index, 1).points[0]

        def f(x):
            out = product_integrand(x)
            out[np.all(x == target, axis=1)] = np.nan
            return out

        with pytest.raises(EvaluationError) as info:
            heuristic_baselines(f, dimension, strategy, repeats=repeats, n=n, seed=seed)
        assert info.value.index == index

    def test_constant_is_exact_everywhere(self):
        f = lambda x: np.full(x.shape[0], 2.0)
        for strategy in ("iid-replications", "internal-replications", "quasi-standard-error"):
            out = heuristic_baselines(f, 3, strategy, repeats=4, n=256, seed=5)
            assert out.estimate == pytest.approx(2.0)
            assert out.claimed_bound == pytest.approx(0.0, abs=1e-12)

    def test_smooth_integrand_replicates_agree_with_engine(self):
        f = lambda x: np.prod(1.0 + 0.2 * (x - 0.5), axis=1)
        ok = 0
        seeds = range(20)
        for seed in seeds:
            res = integrate_scalar(f, 4, Tolerance(1e-5), seed=seed)
            out = heuristic_baselines(f, 4, "iid-replications", repeats=8, n=1024, seed=seed)
            if np.abs(out.replicate_means - res.v_hat).max() <= 3 * out.claimed_bound:
                ok += 1
        assert ok >= 0.95 * len(seeds)

    @pytest.mark.parametrize("seeds", [(0, 1), (None, None)])
    def test_iid_replicates_are_independent(self, seeds):
        # Spawned streams: seed 1 does not redraw seed 0's replicates in
        # another order, and None draws fresh entropy on every call.
        means = [
            heuristic_baselines(product_integrand, 3, "iid-replications", 4, 256, seed=s)
            .replicate_means
            for s in seeds
        ]
        assert np.intersect1d(*means).size == 0

    def test_iid_replicates_accept_seed_sequence(self):
        out = heuristic_baselines(
            product_integrand, 3, "iid-replications", 4, 256, seed=np.random.SeedSequence(8)
        )
        again = heuristic_baselines(product_integrand, 3, "iid-replications", 4, 256, seed=8)
        assert np.array_equal(out.replicate_means, again.replicate_means)

    def test_dual_aligned_wave_fools_internal_replications(self):
        # constant on every node of the shifted lattice yet nonconstant as a
        # function: replicate means coincide, claimed bound collapses to
        # zero, true error stays bounded away from it
        repeats, n = 8, 256
        freq = n * repeats

        def f(x):
            return 1.0 + np.cos(2.0 * np.pi * freq * x[:, 0])

        out = heuristic_baselines(
            f, 2, "internal-replications", repeats=repeats, n=n, family="lattice", seed=13
        )
        true_error = abs(out.estimate - 1.0)
        assert out.claimed_bound < 1e-10
        assert true_error > 1e-3

    def test_quasi_standard_error_dimension_check(self):
        f = lambda x: x.sum(axis=1)
        with pytest.raises(DirectionTableError):
            heuristic_baselines(f, 200, "quasi-standard-error", repeats=8, n=64, seed=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            heuristic_baselines(lambda x: x[:, 0], 2, "bootstrap", repeats=4, n=64)

    def test_repeat_minimum(self):
        with pytest.raises(ValueError):
            heuristic_baselines(lambda x: x[:, 0], 2, "iid-replications", repeats=1, n=64)

    @pytest.mark.parametrize("strategy", BASELINE_STRATEGIES)
    def test_point_count_must_be_positive(self, strategy):
        for n in (0, -4):
            with pytest.raises(ValueError, match="n must be positive"):
                heuristic_baselines(lambda x: x[:, 0], 2, strategy, repeats=4, n=n)
