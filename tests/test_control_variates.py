"""Coefficient fitting and the control-variate integration loop."""

import dataclasses

import numpy as np
import pytest

import qmcube as q
from qmcube.cone import ConeParams, error_bound
from qmcube.control_variates import (
    ControlVariateSpec,
    beta_qmc,
    cv_integrate,
)
from qmcube.ledger import CoefficientLedger, EvaluationError, fwht, lattice_dft
from qmcube.sequences import make_generator
from test_ledger import ReferenceLedger, assert_close_to_full, assert_matches_reference


class TestBetaQmc:
    def test_perfect_control_gives_unit_coefficient(self):
        rng = np.random.default_rng(0)
        coef = rng.standard_normal(1 << 10)
        beta, fallback = beta_qmc(coef, coef[:, None], m=10, r=4)
        assert not fallback
        assert beta[0] == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_control_gives_zero(self):
        n = 1 << 10
        f = np.zeros(n)
        g = np.zeros((n, 1))
        f[33] = 1.0   # disjoint support inside the fitted range
        g[600, 0] = 1.0
        beta, fallback = beta_qmc(f, g, m=10, r=4)
        assert not fallback
        assert beta[0] == 0.0

    def test_rank_deficient_falls_back(self):
        n = 1 << 10
        f = np.random.default_rng(1).standard_normal(n)
        g = np.zeros((n, 1))   # no energy in the fitted range
        beta, fallback = beta_qmc(f, g, m=10, r=4)
        assert fallback
        assert beta[0] == 0.0

    def test_complex_coefficients_stacked(self):
        rng = np.random.default_rng(2)
        gc = rng.standard_normal(1 << 8) + 1j * rng.standard_normal(1 << 8)
        beta, fallback = beta_qmc(1.5 * gc, gc[:, None], m=8, r=4)
        assert not fallback
        assert beta[0] == pytest.approx(1.5, rel=1e-10)

    @pytest.mark.parametrize("r", [0, 2, 3])
    def test_r_must_leave_a_range_below_the_level(self, r):
        with pytest.raises(ValueError, match=f"r={r} must lie in \\[1, 1\\]"):
            beta_qmc(np.ones(4), np.ones((4, 1)), 2, r)

    @pytest.mark.parametrize(
        "m, r, message",
        [(6.0, 2, "m must be an integer, got 6.0"), (True, 1, "m must be an integer, got True"),
         (1, 1, "m must be at least 2, got 1"), (6, True, "r must be an integer, got True"),
         (6, np.True_, "r must be an integer, got np.True_"), (6, 2.0, "r must be an integer, got 2.0")],
    )
    def test_level_and_gap_must_be_integers(self, m, r, message):
        # r=True ran as r = 1, and a float raised a TypeError from the shift
        with pytest.raises(ValueError, match=message):
            beta_qmc(np.ones(64), np.ones((64, 1)), m, r)

    def test_least_squares_residual_never_worse_than_zero(self):
        # spectrum reduction: the fitted residual energy on the range is at
        # most the unfitted energy
        rng = np.random.default_rng(3)
        m, r = 9, 4
        f = rng.standard_normal(1 << m)
        g = np.stack([0.7 * f + rng.standard_normal(1 << m), rng.standard_normal(1 << m)], axis=1)
        beta, _ = beta_qmc(f, g, m=m, r=r)
        lo = 1 << (m - r - 1)
        resid = f[lo:] - g[lo:] @ beta
        assert (resid**2).sum() <= (f[lo:] ** 2).sum() + 1e-12


def beta_mc(f_values, g_values):
    """Covariance-minimizing coefficient of one control from plain samples."""
    gc = g_values - g_values.mean()
    return (gc @ (f_values - f_values.mean())) / (gc @ gc)


class TestBetaMc:
    """The QMC fit is not the covariance (Monte Carlo) fit."""

    def test_differs_from_qmc_fit_in_general(self):
        gen = make_generator("digital", 2, 7)
        pts = gen.points(0, 1 << 10).points
        f_vals = pts[:, 0] * pts[:, 1] + 0.1 * np.sin(20 * pts[:, 0])
        g_vals = pts[:, 0] * pts[:, 1]
        b_mc = beta_mc(f_vals, g_vals)
        b_qmc, _ = beta_qmc(fwht(f_vals), fwht(g_vals)[:, None], m=10, r=4)
        assert abs(b_mc - b_qmc[0]) > 1e-4


class TestCvIntegrate:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ControlVariateSpec(controls=lambda x: x, means=[np.nan])
        with pytest.raises(ValueError):
            ControlVariateSpec(controls=lambda x: x, means=[0.5], policy="anneal")
        with pytest.raises(ValueError, match="the only policy is 'freeze-after-first-level'"):
            ControlVariateSpec(controls=lambda x: x, means=[0.5], policy="refresh-each-level")
        # the benchmark workloads pass the one accepted value
        ControlVariateSpec(controls=lambda x: x, means=[0.5], policy="freeze-after-first-level")
        # the float cast used to parse strings and read a bool as 1.0
        for means in ("1.5", True, [0.5, "0.5"], [False]):
            with pytest.raises(ValueError, match="means must hold real numbers"):
                ControlVariateSpec(controls=lambda x: x, means=means)

    def test_means_must_be_a_vector(self):
        with pytest.raises(ValueError, match=r"must be a vector, got shape \(2, 1\)"):
            ControlVariateSpec(controls=lambda x: x[:, :2], means=[[0.5], [0.5]])
        assert ControlVariateSpec(controls=lambda x: x[:, :1], means=0.5).means.shape == (1,)
        assert ControlVariateSpec(controls=lambda x: x[:, :2], means=[0.5, 0.5]).means.shape == (2,)

    def test_control_equal_to_integrand_collapses(self):
        f = lambda x: np.sin(x @ np.array([2.0, 3.0]))
        gen = make_generator("digital", 2, 8)
        ref = float(f(gen.points(0, 1 << 16).points).mean())
        spec = ControlVariateSpec(controls=lambda x: f(x)[:, None], means=[ref])
        out = cv_integrate(f, 2, spec, q.Tolerance(1e-6), seed=9)
        assert out.result.n == 1024
        assert out.beta[0] == pytest.approx(1.0, rel=1e-9)
        assert out.result.estimate.err[0] < 1e-12
        assert out.result.v_hat == pytest.approx(ref, abs=1e-9)

    def test_offset_identity(self):
        # the combined values differ from the raw ones by exactly
        # beta . (mu_g - g) pointwise, so the means obey the same identity
        f = lambda x: x[:, 0] ** 2
        g = lambda x: x[:, 0][:, None]
        spec = ControlVariateSpec(controls=g, means=[0.5])
        gen = make_generator("digital", 1, 10)
        out = cv_integrate(f, 1, spec, q.Tolerance(1e-3), generator=gen)
        pts = gen.points(0, out.result.n).points
        lhs = out.result.estimate.mu[0]
        rhs = f(pts).mean() + out.beta[0] * (0.5 - g(pts)[:, 0].mean())
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_constructed_pair_needs_fewer_points(self):
        freq, amp = 40, 0.01

        def g(x):
            return x[:, 0] * x[:, 1]

        def f(x):
            square = 1.0 - 2.0 * (np.floor(x[:, 0] * freq * 2) % 2)
            return g(x) + amp * square

        spec = ControlVariateSpec(controls=lambda x: g(x)[:, None], means=[0.25])
        tol = q.Tolerance(1e-4)
        for seed in (0, 1, 2):
            plain = q.integrate_scalar(f, 2, tol, seed=seed)
            cv = cv_integrate(f, 2, spec, tol, seed=seed)
            assert cv.result.n < plain.n

    def test_frozen_beta_ledger_incremental_equals_fresh(self):
        # with beta held after the first level, only the new half of h is
        # formed and handed to the ledger, which extends the previous level
        f = lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1])
        g = lambda x: np.stack([x[:, 0], x[:, 1] ** 2], axis=1)
        means = np.array([0.5, 1.0 / 3.0])
        for family, transform in (("digital", fwht), ("lattice", lattice_dft)):
            gen = make_generator(family, 2, 13)
            pts = gen.points(0, 1 << 10).points
            beta, _ = beta_qmc(transform(f(pts)), transform(g(pts)), m=10, r=4)
            h = lambda x: (f(x) + (means - g(x)) @ beta)[:, None]
            ledger = CoefficientLedger(gen, h(pts), r=4)
            ref = ReferenceLedger(gen, 10, h(pts))
            for m in range(11, 14):
                new = gen.points(1 << (m - 1), 1 << (m - 1)).points
                ledger = CoefficientLedger(gen, h(new), ledger, r=4)
                ref = ReferenceLedger(gen, m, h(gen.points(0, 1 << m).points), ref)
                assert_matches_reference(ledger, ref)
                fresh = CoefficientLedger(gen, ref.values, r=4)
                if family == "digital":
                    assert_matches_reference(fresh, ref)
                else:
                    assert_matches_reference(fresh, ReferenceLedger(gen, m, ref.values))
                    assert_close_to_full(ledger.coefficients(), fresh.coefficients())
            # cv_integrate's own ledger at its final level against a fresh one
            spec = ControlVariateSpec(controls=g, means=means)
            out = cv_integrate(f, 2, spec, q.Tolerance(1e-7), generator=gen)
            assert out.result.n > 1 << 10
            # beta is the first level's fit, held through every later level
            assert np.array_equal(out.beta, beta)
            allpts = gen.points(0, out.result.n).points
            fresh = CoefficientLedger(
                gen, (f(allpts) + (means - g(allpts)) @ out.beta)[:, None], r=4
            )
            expect = error_bound(fresh, ConeParams())
            assert np.array_equal(out.result.estimate.mu, expect.mu)
            assert np.array_equal(out.result.estimate.err, expect.err)

    def test_controls_share_the_integrand_blocks(self):
        # d = 52 gives blocks of 1024 points: each control call gets the
        # batch the integrand has just seen, and a NaN in a later block of
        # a level reports its global index
        gen = make_generator("digital", 52, 4)
        target = gen.points(12293, 1).points[0]
        seen = []

        def f(x):
            seen.append(x)
            return x[:, 0]

        def g(x):
            assert x is seen[-1]
            out = x[:, 1:2].copy()
            out[np.all(x == target, axis=1)] = np.nan
            return out

        spec = ControlVariateSpec(controls=g, means=[0.5])
        with pytest.raises(EvaluationError, match="index 12293"):
            cv_integrate(f, 52, spec, q.Tolerance(1e-12), generator=gen)
        # levels 10 to 13 take 1, 1, 2 and 4 blocks; 12293 is in the fifth
        # block of level 14
        assert [x.shape[0] for x in seen] == [1024] * 13

    def test_capacity_exhausted_and_too_little_capacity(self):
        f = lambda x: x[:, 0] ** 2
        spec = ControlVariateSpec(controls=lambda x: x[:, :1], means=[0.5])
        gen = q.LatticeGenerator(q.default_lattice_generator(2).generating_vector, m_max=12)
        out = cv_integrate(f, 2, spec, q.Tolerance(1e-12), generator=gen)
        assert out.result.status == "capacity-exhausted"
        assert out.result.n == 1 << 12
        small = q.LatticeGenerator(q.default_lattice_generator(2).generating_vector, m_max=8)
        message = "generator supports levels up to 8, below the minimum level 10"
        with pytest.raises(ValueError, match=message):
            cv_integrate(f, 2, spec, q.Tolerance(1e-3), generator=small)
        with pytest.raises(ValueError, match=message):
            q.integrate_scalar(f, 2, q.Tolerance(1e-3), generator=small)

    def test_generator_dimension_mismatch(self):
        spec = ControlVariateSpec(controls=lambda x: x[:, :1], means=[0.5])
        gen = make_generator("digital", 7, 1)
        with pytest.raises(ValueError, match="generator has dimension 7, expected 5"):
            cv_integrate(lambda x: x.sum(axis=1), 5, spec, q.Tolerance(1e-3), generator=gen)

    def test_multi_output_integrand_rejected(self):
        spec = ControlVariateSpec(controls=lambda x: x[:, :1], means=[0.5])
        with pytest.raises(ValueError, match="one-output integrand, got p = 2"):
            cv_integrate(lambda x: x[:, :2], 2, spec, q.Tolerance(1e-3), seed=1)

    def test_control_count_must_match_means(self):
        spec = ControlVariateSpec(controls=lambda x: x[:, :2], means=[0.5])
        with pytest.raises(ValueError, match="controls returned 2 outputs, expected 1"):
            cv_integrate(lambda x: x[:, 0], 2, spec, q.Tolerance(1e-3), seed=1)

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    @pytest.mark.parametrize("abs_tol, cone", [(1e-6, None), (1e-13, ConeParams(m_max=12))])
    def test_uninformative_control_matches_plain_run(self, family, abs_tol, cone):
        # a constant control has no energy in the fitted range, so beta falls
        # back to zero, h equals f bit for bit, and both entry points run the
        # same loop on the same ledgers
        f = lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1])
        spec = ControlVariateSpec(lambda x: np.full((x.shape[0], 1), 0.5), [0.5])
        tol = q.Tolerance(abs_tol)
        cv = cv_integrate(f, 2, spec, tol, cone, family=family, seed=3)
        plain = q.integrate_scalar(f, 2, tol, cone, family=family, seed=3)
        assert cv.beta_fallback and np.array_equal(cv.beta, [0.0])
        expected = {
            (1e-6, "digital"): "tolerance-met",
            (1e-6, "lattice"): "capacity-exhausted",
        }.get((abs_tol, family), "budget-exhausted")
        assert plain.status == expected
        if expected == "tolerance-met":
            assert plain.cone_violations
        for field in dataclasses.fields(q.CubatureResult):
            if field.name not in ("wall_ms", "estimate"):
                assert getattr(cv.result, field.name) == getattr(plain, field.name), field.name
        assert np.array_equal(cv.result.estimate.mu, plain.estimate.mu)
        assert np.array_equal(cv.result.estimate.err, plain.estimate.err)

    def test_lattice_family(self):
        f = lambda x: np.cos(2 * np.pi * x[:, 0]) + x[:, 1]
        g = lambda x: np.cos(2 * np.pi * x[:, 0])[:, None]
        spec = ControlVariateSpec(controls=g, means=[0.0])
        out = cv_integrate(f, 2, spec, q.Tolerance(1e-4), family="lattice", seed=12)
        assert out.result.status == "tolerance-met"
        assert abs(out.result.v_hat - 0.5) <= 1e-3
