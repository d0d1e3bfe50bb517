"""Error-bound arithmetic, its invariances, and the cross-level decay check."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcube.cone import ConeParams, LevelTooLowError, error_bound, necessary_condition
from qmcube.engine import Tolerance
from qmcube.integrands import AsianOption
from qmcube.ledger import build_ledger
from qmcube.sequences import DigitalGenerator, default_digital_generator, make_generator
from oracles import synthesize_integrand


# Every real-valued field of the three classes that take them.
FLOAT_FIELDS = [
    (ConeParams, "bound_scale"), (ConeParams, "rho_scale"), (ConeParams, "rho_cap"),
    (Tolerance, "abs_tol"), (Tolerance, "rel_tol"),
    (AsianOption, "spot"), (AsianOption, "strike"), (AsianOption, "rate"),
    (AsianOption, "volatility"), (AsianOption, "maturity"),
]


def float_field_kwargs(cls, field, value):
    """Keyword arguments that set ``field`` of ``cls`` to ``value`` and leave the rest valid."""
    return {**({"abs_tol": 0.1} if cls is Tolerance else {}), field: value}


def shift_only_digital(dimension, seed):
    """Digital generator randomized by shift alone (identity scramble)."""
    template = default_digital_generator(dimension)
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 1 << 52, size=dimension, dtype=np.int64).astype(np.uint64)
    return DigitalGenerator(template.columns, shift)


class TestConeParams:
    def test_defaults(self):
        p = ConeParams()
        assert p.l_star == 6 and p.r == 4 and p.m_max == 24
        assert p.bound_factor(10) == 5.0 * 2.0**-10
        assert p.rho(4) == 5.0 * 2.0**-4
        assert p.rho(0) == 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            ConeParams(l_star=0)
        with pytest.raises(ValueError):
            ConeParams(m_max=9)
        with pytest.raises(ValueError):
            ConeParams(rho_scale=20.0, rho_cap=2.0)  # rho(r) >= 1
        # a negative inflation would make 1 + rho(a) zero in the necessary check
        with pytest.raises(ValueError, match="nonnegative"):
            ConeParams(rho_scale=-8.0)
        with pytest.raises(ValueError, match="nonnegative"):
            ConeParams(rho_cap=-0.5)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_bound_scale_must_be_positive(self, value):
        with pytest.raises(ValueError, match="bound_scale must be positive"):
            ConeParams(bound_scale=value)

    @pytest.mark.parametrize("field", ["l_star", "r", "m_max"])
    @pytest.mark.parametrize("value", [4.0, "4", None])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ConeParams(**{field: value})

    @pytest.mark.parametrize("field", ["l_star", "r", "m_max"])
    def test_integer_fields_reject_booleans(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
            ConeParams(**{field: True})

    def test_integer_fields_accept_numpy_integers(self):
        p = ConeParams(l_star=np.int64(5), r=np.int32(3), m_max=np.uint8(20))
        assert (p.l_star, p.r, p.m_max) == (5, 3, 20)
        assert all(type(v) is int for v in (p.l_star, p.r, p.m_max))

    @pytest.mark.parametrize("field", ["bound_scale", "rho_scale", "rho_cap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_scales_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            ConeParams(**{field: value})

    @pytest.mark.parametrize("cls, field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", None, 1j])
    def test_float_fields_reject_booleans(self, cls, field, value):
        # a bool passes every numeric check and used to act as 1.0 or 0.0; a
        # non-number used to raise a TypeError from math.isfinite naming no field
        kind = type(value).__name__  # "bool" for np.True_ too
        with pytest.raises(ValueError, match=f"{field} must be a real number, not the {kind} "):
            cls(**float_field_kwargs(cls, field, value))

    @pytest.mark.parametrize("cls, field", FLOAT_FIELDS)
    @pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64, np.uint8, Fraction, int])
    def test_float_fields_store_python_floats(self, cls, field, kind):
        value = kind(0 if field == "rel_tol" else 1)
        stored = getattr(cls(**float_field_kwargs(cls, field, value)), field)
        assert type(stored) is float and stored == value


class TestErrorBound:
    def test_constant_integrand_zero_error(self):
        gen = make_generator("digital", 2, 0)
        led = build_ledger(lambda x: np.full(x.shape[0], 4.2), gen, 10, r=4)
        est = error_bound(led, ConeParams())
        assert est.err[0] == 0.0

    def test_arithmetic_from_defaults(self):
        # err = 5 * 2^-10 * tier sum, with the tier sum pinned to 0.21
        class FakeLedger:
            m = 10
            n = 1024
            r = 4
            mean = np.array([1.0])
            ranked_tier = np.array([0.21])

        est = error_bound(FakeLedger(), ConeParams())
        assert est.err[0] == pytest.approx(1.025390625e-3, abs=1e-18)

    def test_ledger_must_keep_the_tier_the_bound_reads(self):
        gen = make_generator("digital", 1, 0)
        led = build_ledger(lambda x: x[:, 0], gen, 10, r=3)
        with pytest.raises(ValueError, match="ranked tier m - 3, the bound reads m - 4"):
            error_bound(led, ConeParams())
        assert error_bound(led, ConeParams(r=3)).err.shape == (1,)

    def test_single_tier_term_placement(self):
        # unit mass at index 96 lands in tier 7 of the level-11 ledger
        gen = shift_only_digital(1, 3)
        spectrum = [((96,), 1.0)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, 11, r=4)
        assert led.tiers[7, 0] == pytest.approx(1.0, rel=1e-12)
        assert np.delete(led.tiers[:, 0], 7).max() < 1e-12

    def test_tier_arithmetic_on_decaying_spectrum(self):
        # strictly decreasing magnitudes make the ranked and natural tier
        # readings coincide, so err is the plain tier m-r sum times 5*2^-m
        gen = shift_only_digital(1, 3)
        amps = [0.9**k for k in range(128)]
        spectrum = [((k,), amps[k]) for k in range(128)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, 11, r=4)
        est = error_bound(led, ConeParams())
        expect = 5.0 * 2.0**-11 * sum(amps[64:128])
        assert est.err[0] == pytest.approx(expect, rel=1e-10)

    def test_level_too_low(self):
        gen = make_generator("digital", 1, 1)
        led = build_ledger(lambda x: x[:, 0], gen, 9, r=4)
        with pytest.raises(LevelTooLowError):
            error_bound(led, ConeParams())

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=20, deadline=None)
    def test_positive_homogeneity(self, scale):
        gen = make_generator("digital", 2, 5)
        base = build_ledger(lambda x: np.sin(x @ np.array([3.0, 1.0])), gen, 10, r=4)
        scaled = build_ledger(lambda x: scale * np.sin(x @ np.array([3.0, 1.0])), gen, 10, r=4)
        e0 = error_bound(base, ConeParams()).err[0]
        e1 = error_bound(scaled, ConeParams()).err[0]
        assert e1 == pytest.approx(scale * e0, rel=1e-9)

    def test_shift_invariance(self):
        gen = make_generator("lattice", 2, 6)
        f = lambda x: np.cos(x @ np.array([2.0, 5.0]))
        e0 = error_bound(build_ledger(f, gen, 10, r=4), ConeParams()).err[0]
        e1 = error_bound(build_ledger(lambda x: 42.0 + f(x), gen, 10, r=4), ConeParams()).err[0]
        assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-15)


def smooth_product(x):
    return np.prod(1.0 + 0.1 * (x - 0.5), axis=1)


class TestNecessaryCondition:
    def test_identical_ledgers_always_pass(self):
        gen = make_generator("digital", 3, 8)
        led = build_ledger(smooth_product, gen, 10, r=4)
        assert necessary_condition(led, led, 7, ConeParams()) == []

    def test_smooth_product_passes_across_levels(self):
        gen = make_generator("digital", 3, 12)
        led10 = build_ledger(smooth_product, gen, 10, r=4)
        led12 = build_ledger(smooth_product, gen, 11, led10, r=4)
        led12 = build_ledger(smooth_product, gen, 12, led12, r=4)
        assert necessary_condition(led10, led12, 7, ConeParams()) == []
        assert necessary_condition(led12, led10, 7, ConeParams()) == []

    def test_gap_spectrum_violates(self):
        # mass hidden above the observation window at the small level and
        # revealed at the large level: tier 7 collapses between levels
        gen = shift_only_digital(1, 21)
        spectrum = [((k,), 1.0) for k in range(1088, 1152, 8)]
        spectrum += [((3,), 0.5), ((17,), 0.25)]
        f = synthesize_integrand(gen, spectrum)
        led10 = build_ledger(f, gen, 10, r=4)
        led11 = build_ledger(f, gen, 11, led10, r=4)
        reports = necessary_condition(led10, led11, 7, ConeParams())
        assert reports, "expected a violation report"
        rep = reports[0]
        assert rep.ell == 7 and rep.m == 10 and rep.m_prime == 11
        assert rep.lhs > rep.rhs
        assert "tier 7" in str(rep)

    def test_ell_range_validated(self):
        gen = make_generator("digital", 1, 2)
        led = build_ledger(lambda x: x[:, 0], gen, 10, r=4)
        with pytest.raises(ValueError):
            necessary_condition(led, led, 3, ConeParams())

    def test_skipped_when_rho_saturated(self):
        # m' - ell small enough that rho caps at 0.99 < 1 still runs; use a
        # params variant whose cap is exactly 1 - tiny to exercise the skip
        params = ConeParams(rho_scale=5.0, rho_cap=0.999999)
        gen = make_generator("digital", 1, 2)
        led = build_ledger(lambda x: np.sin(7 * x[:, 0]), gen, 10, r=4)
        # ell = m: rho(0) = cap < 1 -> runs and passes both directions
        assert necessary_condition(led, led, 10, params) == []

    def test_skipped_when_rho_reaches_one(self):
        # tier 7 against a level-10 ledger: rho(3) is 0.625 under the
        # defaults, which flag the pair, and 1.25 under these parameters,
        # which leave nothing to check
        gen = make_generator("digital", 1, 2)
        small = build_ledger(lambda x: np.sin(7 * x[:, 0]), gen, 10, r=4)
        large = build_ledger(lambda x: 10.0 * np.sin(7 * x[:, 0]), gen, 10, r=4)
        assert necessary_condition(large, small, 7, ConeParams())
        params = ConeParams(rho_scale=10.0, rho_cap=1.5)
        assert params.rho(3) == 1.25
        assert necessary_condition(large, small, 7, params) == []
