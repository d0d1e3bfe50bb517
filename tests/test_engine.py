"""Optimal-estimator arithmetic, the adaptive loop, and the baselines."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmcube as q
from qmcube.cone import ConeParams
from qmcube.engine import (
    BASELINE_STRATEGIES,
    BaselineEstimate,
    Tolerance,
    heuristic_baselines,
    identity_functional,
    integrate,
    integrate_scalar,
    optimal_estimate,
    sup_tolerance,
    tolerance_value,
)
from qmcube.ledger import EvaluationError, _block_rows
from qmcube.sequences import DirectionTableError, make_generator


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
        gen = q.default_lattice_generator(3, m_max=12)
        res = integrate_scalar(lambda x: np.prod(2.0 * x, axis=1), 3, Tolerance(1e-12), generator=gen)
        assert res.status == "capacity-exhausted"
        assert res.n == 1 << 12
        assert res.sup_tol > 1.0

    def test_output_count_mismatch(self):
        with pytest.raises(ValueError, match="outputs"):
            integrate(
                lambda x: np.stack([x[:, 0], x[:, 1]], axis=1),
                2,
                identity_functional(),
                Tolerance(1e-3),
                seed=0,
            )

    def test_csv_row_roundtrip(self):
        res = integrate_scalar(lambda x: x[:, 0], 1, Tolerance(1e-4), seed=9)
        header = res.csv_header()
        row = res.csv_row()
        assert len(header) == len(row)
        assert row[header.index("status")] == "tolerance-met"
        again = integrate_scalar(lambda x: x[:, 0], 1, Tolerance(1e-4), seed=9)
        assert row[:-1] == again.csv_row()[:-1]  # identical up to wall time


def baseline_means_one_batch(f, dimension, strategy, repeats, n, family, seed):
    """Replicate means with every replicate evaluated in one batch: the
    formula the baselines used before blocked evaluation."""
    if strategy == "iid-replications":
        means = np.empty(repeats)
        for rep in range(repeats):
            gen = make_generator(family, dimension, seed ^ rep)
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
