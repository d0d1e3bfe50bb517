"""Transform oracles, ledger construction, tier sums and aliasing identity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcube.ledger
from qmcube import Tolerance, integrate_scalar
from qmcube.integrands import (
    AsianOption,
    SobolIndexProblem,
    asian_payoffs,
    bratley_g,
    equicorrelated_mvn,
    genz_integrand,
)
from qmcube.ledger import (
    CoefficientLedger,
    EvaluationError,
    TransformError,
    _bit_reversal,
    _block_rows,
    _evaluate,
    build_ledger,
    fwht,
    lattice_dft,
    magnitude_map,
    tier_sums,
)
from qmcube.sequences import (
    default_digital_generator,
    default_lattice_generator,
    make_generator,
    randomize_digital,
    randomize_lattice,
)
from oracles import aliasing_check, predicted_coefficients, synthesize_integrand


def fwht_direct(values: np.ndarray) -> np.ndarray:
    """O(n^2) reference definition of :func:`fwht` (small n only)."""
    y = np.asarray(values, dtype=np.float64)
    idx = np.arange(y.shape[0], dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & np.uint64(1)
    return (1.0 - 2.0 * parity.astype(np.float64)) @ y / y.shape[0]


def lattice_dft_direct(values: np.ndarray) -> np.ndarray:
    """O(n^2) reference definition of :func:`lattice_dft` (small n only).

    Sequence index i carries node bit-reverse(i), so node order is
    restored before the plain DFT sum.
    """
    y = np.asarray(values, dtype=np.float64)
    n = y.shape[0]
    m = n.bit_length() - 1
    perm = [int(format(i, f"0{m}b")[::-1], 2) for i in range(n)]
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ y[perm] / n


def fwht_stacked(values: np.ndarray) -> np.ndarray:
    """Reference :func:`fwht`: each butterfly stage stacks fresh arrays."""
    y = np.array(values, dtype=np.float64, copy=True)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    n = y.shape[0]
    h = 1
    while h < n:
        y = y.reshape(n // (2 * h), 2, h, -1)
        top = y[:, 0] + y[:, 1]
        bot = y[:, 0] - y[:, 1]
        y = np.stack([top, bot], axis=1)
        h *= 2
    y = y.reshape(n, -1) / n
    return y[:, 0] if squeeze else y


def lattice_dft_complex(values: np.ndarray) -> np.ndarray:
    """Reference :func:`lattice_dft`: complex FFT of the permuted values."""
    y = np.asarray(values, dtype=np.float64)
    n = y.shape[0]
    m = n.bit_length() - 1
    perm = np.arange(n).reshape((2,) * m).T.ravel()
    return np.fft.fft(y[perm], axis=0) / n


def magnitude_map_tournament(magnitudes: np.ndarray) -> np.ndarray:
    """Reference :func:`magnitude_map`: the tournament applied to the whole map.

    At each pair level l = m-1 .. 1 every flipped pair (kappa, kappa + 2**l)
    is swapped together with all its translates by multiples of 2**(l+1).
    """
    mags = np.asarray(magnitudes)
    n = mags.shape[0]
    kmap = np.arange(n)
    for l in range(n.bit_length() - 2, 0, -1):
        nl = 1 << l
        kappa = np.arange(1, nl)
        flip = kappa[mags[kmap[kappa + nl]] > mags[kmap[kappa]]]
        if flip.size:
            offsets = np.arange(0, n, 2 * nl)
            fa = (flip[None, :] + offsets[:, None]).ravel()
            high = kmap[fa + nl].copy()
            kmap[fa + nl] = kmap[fa]
            kmap[fa] = high
    return kmap


class ReferenceLedger:
    """Reference :class:`CoefficientLedger`: the arithmetic that kept everything.

    It holds all 2**m values, transforms them (with ``previous``, both
    families extend the previous level's coefficients by one butterfly;
    the lattice one first multiplies the new half's transform by
    w**kappa, w = exp(-2 pi i / n), built as the ledger builds it so the
    bits agree), keeps the magnitudes and sums every ranked tier.
    """

    def __init__(self, generator, m, values, previous=None):
        self.m = m
        self.values = values
        transform = fwht if generator.family == "digital" else lattice_dft
        if previous is None:
            coef = transform(values)
        else:
            h = previous.values.shape[0]
            a, b = previous.coef, transform(values[h:])
            if generator.family == "lattice":
                # w**kappa from cosines and sines below n/4, rotated by -i above
                angle = np.arange(h // 2) * (-2.0 * np.pi / (2 * h))
                first = np.cos(angle) + 1j * np.sin(angle)
                b = b * np.concatenate([first, first * -1j])[:, None]
            coef = np.concatenate([a + b, a - b], axis=0)
            coef /= 2
        self.coef = coef
        self.magnitudes = np.abs(coef)
        self.mean = coef[0].real.copy()
        self.tiers = tier_sums(self.magnitudes)
        ranked = np.stack(
            [
                self.magnitudes[magnitude_map(self.magnitudes[:, j], len(coef)), j]
                for j in range(self.magnitudes.shape[1])
            ],
            axis=1,
        )
        self.ranked_tiers = tier_sums(ranked)


def assert_matches_reference(led, ref):
    """The kept readings of ``led`` equal the reference's, bit for bit."""
    assert led.m == ref.m and led.n == ref.values.shape[0]
    assert np.array_equal(led.mean, ref.mean)
    assert np.array_equal(led.tiers, ref.tiers)
    ell = led.m - led.r
    assert np.array_equal(led.ranked_tier, ref.ranked_tiers[ell])
    assert np.array_equal(led.coefficients(), ref.coef)


def assert_close_to_full(coef, full):
    """Doubled lattice coefficients within 1e-15 * max|X| of a full transform, per output."""
    assert coef.shape == full.shape
    assert np.all(np.abs(coef - full).max(axis=0) <= 1e-15 * np.abs(full).max(axis=0))


def whole_array_readings(coef, r):
    """Reference readings: all n * p magnitudes at once, ranked column by column.

    Tier sums over the whole (n, p) magnitude array, and ranked tier m - r
    from the stacked ranked segments, summed over axis 0.
    """
    magnitudes = np.abs(coef)
    ell = coef.shape[0].bit_length() - 1 - r
    lo, hi = (0, 1) if ell == 0 else (1 << (ell - 1), 1 << ell)
    segment = np.stack(
        [magnitudes[magnitude_map(magnitudes[:, j], hi)[lo:], j] for j in range(coef.shape[1])],
        axis=1,
    )
    return tier_sums(magnitudes), np.add.reduceat(segment, [0], axis=0)[0]


def three_outputs(x):
    return np.stack([np.exp(x[:, 0]), x[:, 1] * x[:, 2], np.sin(9 * x[:, 2])], axis=1)


def one_output(x):
    return (np.cos(5 * x[:, 0]) * x[:, 1] + x[:, 2] ** 3)[:, None]


class TestFwht:
    def test_constant(self):
        out = fwht(np.full(4, 3.25))
        assert np.allclose(out, [3.25, 0, 0, 0])

    def test_size_two_butterfly(self):
        a, b = 1.75, -0.5
        assert np.allclose(fwht(np.array([a, b])), [(a + b) / 2, (a - b) / 2])

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(42)
        for n in (2, 8, 64, 256):
            v = rng.standard_normal(n)
            assert np.abs(fwht(v) - fwht_direct(v)).max() < 1e-12

    def test_two_dimensional_input(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((64, 3))
        out = fwht(v)
        for j in range(3):
            assert np.allclose(out[:, j], fwht(v[:, j]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TransformError):
            fwht(np.zeros(12))

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 11, 16])
    def test_in_place_stages_match_stacked_bitwise(self, m):
        rng = np.random.default_rng(200 + m)
        n = 1 << m
        for v in (rng.standard_normal(n), *(rng.standard_normal((n, p)) for p in (1, 2, 3, 5, 16)),
                  np.asfortranarray(rng.standard_normal((n, 3)))):
            out = fwht(v)
            assert np.array_equal(out, fwht_stacked(v))
            assert out.flags.c_contiguous


class TestLatticeDft:
    def test_constant(self):
        out = lattice_dft(np.full(8, 2.5))
        assert abs(out[0] - 2.5) < 1e-12
        assert np.abs(out[1:]).max() < 1e-12

    def test_size_two(self):
        a, b = 0.3, 1.9
        out = lattice_dft(np.array([a, b]))
        assert abs(out[0] - (a + b) / 2) < 1e-15
        assert abs(abs(out[1]) - abs(a - b) / 2) < 1e-15

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(7)
        for shape in [(1,), (2,), (4,), (32,), (256,), (64, 3)]:
            v = rng.standard_normal(shape)
            assert np.abs(lattice_dft(v) - lattice_dft_direct(v)).max() < 1e-12

    def test_bit_reversal_matches_axis_transpose(self):
        for m in range(18):
            n = 1 << m
            assert np.array_equal(_bit_reversal(n), np.arange(n).reshape((2,) * m).T.ravel())

    @pytest.mark.parametrize("m", range(18))
    def test_real_input_fft_matches_complex_fft(self, m):
        rng = np.random.default_rng(300 + m)
        n = 1 << m
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            out, ref = lattice_dft(v), lattice_dft_complex(v)
            assert out.shape == ref.shape and out.dtype == np.complex128
            assert np.array_equal(out[0], ref[0])
            mags = np.abs(out)
            assert np.array_equal(mags[1:], mags[1:][::-1])
            assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_pure_wave_lands_in_residue_bin(self):
        # f = cos/sin pair at wavenumber k on an unshifted lattice puts unit
        # magnitude in the bin k.g mod 2^m and nothing elsewhere
        gen = default_lattice_generator(2)
        m, n = 6, 64
        k = (3, -2)
        residue = int(np.dot(k, gen.generating_vector[:2])) % n
        pts = gen.points(0, n).points
        vals = np.cos(2 * np.pi * (pts @ np.array(k)))
        out = lattice_dft(vals)
        mags = np.abs(out)
        assert abs(mags[residue] - 0.5) < 1e-12
        conj = (-residue) % n
        assert abs(mags[conj] - 0.5) < 1e-12
        rest = np.delete(mags, [residue, conj])
        assert rest.max() < 1e-12


class TestTierSums:
    def test_partition_of_total(self):
        rng = np.random.default_rng(3)
        mags = np.abs(rng.standard_normal((64, 2)))
        t = tier_sums(mags)
        assert t.shape == (7, 2)
        assert np.allclose(t.sum(axis=0), mags.sum(axis=0))
        assert np.allclose(t[0], mags[0])
        assert np.allclose(t[3], mags[4:8].sum(axis=0))

    def test_magnitude_map_is_structural_permutation(self):
        rng = np.random.default_rng(5)
        mags = np.abs(rng.standard_normal(64))
        kmap = magnitude_map(mags, 64)
        assert sorted(kmap.tolist()) == list(range(64))
        assert kmap[0] == 0
        # pair ordering: the kept low partner dominates its high partner
        for l in range(5, 0, -1):
            nl = 1 << l
            for kappa in range(1, nl):
                assert mags[kmap[kappa]] >= mags[kmap[kappa + nl]]

    @pytest.mark.parametrize("m", range(15))
    def test_magnitude_map_matches_tournament(self, m):
        rng = np.random.default_rng(100 + m)
        n = 1 << m
        spread = np.abs(rng.standard_normal(n))
        tied = rng.integers(0, 3, n).astype(np.float64)
        for mags in (spread, tied, np.zeros(n)):
            kmap = magnitude_map(mags, n)
            assert kmap.dtype == np.arange(1).dtype
            assert np.array_equal(kmap, magnitude_map_tournament(mags))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 16), levels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_magnitude_map_head_is_prefix_of_full_map(self, m, levels, seed, data):
        n = 1 << m
        # few distinct magnitudes, so many pairs tie
        mags = np.random.default_rng(seed).integers(0, levels, n).astype(np.float64)
        head = data.draw(st.one_of(st.integers(1, n), st.sampled_from([1 << k for k in range(m + 1)])))
        assert np.array_equal(magnitude_map(mags, head), magnitude_map(mags, n)[:head])

    @pytest.mark.parametrize("head", [0, -1, 9])
    def test_magnitude_map_head_outside_range_rejected(self, head):
        with pytest.raises(ValueError, match=r"head=.* must lie in \[1, 8\]"):
            magnitude_map(np.ones(8), head)

    @pytest.mark.parametrize("head", [True, np.True_, 4.0])
    def test_magnitude_map_head_must_be_an_integer(self, head):
        # True built a one-entry map and 4.0 raised an IndexError
        with pytest.raises(ValueError, match=f"head must be an integer, got {head!r}"):
            magnitude_map(np.ones(8), head)


class TestLedger:
    def test_constant_integrand(self):
        gen = make_generator("digital", 2, 11)
        led = build_ledger(lambda x: np.full(x.shape[0], 7.0), gen, 10, r=4)
        assert np.allclose(led.mean, 7.0)
        assert np.abs(led.tiers[1:]).max() < 1e-12

    def test_mean_identity(self):
        for family in ("digital", "lattice"):
            gen = make_generator(family, 3, 2)
            f = lambda x: np.cos(x @ np.ones(3))
            led = build_ledger(f, gen, 8, r=4)
            values = f(gen.points(0, 256).points)
            assert np.allclose(led.mean[0], values.mean(), rtol=1e-14)

    def test_incremental_equals_fresh(self):
        gen = make_generator("digital", 2, 9)
        f = lambda x: x[:, 0] * np.exp(x[:, 1])
        led10 = build_ledger(f, gen, 10, r=4)
        led11 = build_ledger(f, gen, 11, led10, r=4)
        fresh = build_ledger(f, gen, 11, r=4)
        assert np.array_equal(led11.coefficients(), fresh.coefficients())
        assert np.array_equal(led11.mean, fresh.mean)
        assert np.array_equal(led11.tiers, fresh.tiers)
        assert np.array_equal(led11.ranked_tier, fresh.ranked_tier)

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    @pytest.mark.parametrize("f", [one_output, three_outputs], ids=["p1", "p3"])
    def test_chain_matches_reference_bitwise(self, family, f):
        gen = make_generator(family, 3, 17)
        led = ref = None
        for m in range(4, 13):
            values = f(gen.points(0, 1 << m).points)
            ref = ReferenceLedger(gen, m, values, ref)
            led = build_ledger(f, gen, m, led, r=4)
            assert_matches_reference(led, ref)
        # every ranked tier, each read through a ledger that keeps it; a
        # fresh lattice transform is not the doubled one bit for bit
        if family == "lattice":
            ref = ReferenceLedger(gen, 12, values)
        for r in range(1, 13):
            assert_matches_reference(CoefficientLedger(gen, values, r=r), ref)

    def test_keeps_only_what_the_next_level_reads(self):
        f = lambda x: x[:, 0] ** 2
        digital = build_ledger(f, make_generator("digital", 1, 3), 8, r=4)
        lattice = build_ledger(f, make_generator("lattice", 1, 3), 8, r=4)
        assert digital._coef.shape == lattice._coef.shape == (256, 1)
        assert digital._coef.dtype == np.float64
        assert lattice._coef.dtype == np.complex128
        for led in (digital, lattice):
            assert not hasattr(led, "values")
            assert not hasattr(led, "magnitudes")

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    @pytest.mark.parametrize("f", [one_output, three_outputs], ids=["p1", "p3"])
    def test_readings_taken_late_equal_readings_taken_at_once(self, family, f):
        gen = make_generator(family, 3, 23)
        eager = build_ledger(f, gen, 10, r=4)
        at_once = (eager.tiers, eager.ranked_tier)
        late = build_ledger(f, gen, 10, r=4)
        following = build_ledger(f, gen, 11, late, r=4)
        expect = whole_array_readings(late.coefficients(), 4)
        for got in (at_once, (late.tiers, late.ranked_tier)):
            assert np.array_equal(got[0], expect[0])
            assert np.array_equal(got[1], expect[1])
        expect = whole_array_readings(following.coefficients(), 4)
        assert np.array_equal(following.tiers, expect[0])
        assert np.array_equal(following.ranked_tier, expect[1])

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_inputs_are_left_unchanged(self, family):
        rng = np.random.default_rng(11)
        gen = make_generator(family, 1, 3)
        values = rng.standard_normal((256, 3))
        new_half = rng.standard_normal((256, 3))
        kept = values.copy(), new_half.copy()
        previous = CoefficientLedger(gen, values, r=4)
        led = CoefficientLedger(gen, new_half, previous, r=4)
        led.tiers, previous.tiers  # rank both
        assert np.array_equal(values, kept[0]) and np.array_equal(new_half, kept[1])
        for v in (values, values[:, 1], np.asfortranarray(values)):
            before = v.copy()
            fwht(v)
            lattice_dft(v)
            assert np.array_equal(v, before)
        mags = np.abs(rng.standard_normal(512))
        before = mags.copy()
        for head in (1, 37, 512):
            magnitude_map(mags, head)
        magnitude_map(mags[::2], 256)
        assert np.array_equal(mags, before)

    @pytest.mark.parametrize("p, bound", [(1, 3.1), (3, 2.4)])
    def test_top_level_working_set(self, p, bound):
        # While level m builds it holds the values and the transform of its
        # 2**(m-1) new points, the previous level's coefficients and its own.
        # It ranks once the values are gone, beside one column of n
        # magnitudes and the n/2 tournament buffer.  At m = 18 the traced
        # peak is about 2.8 (p = 1) and 2.0 (p = 3) vectors of n * p floats.
        # A ledger ranking beside its values, all n * p magnitudes at once,
        # peaks at about 3.35 and 2.8.
        def f(x):
            cols = [x[:, 0] * x[:, 1], x[:, 0], x[:, 1]]
            return np.stack(cols[:p], axis=1)

        gen = make_generator("digital", 2, 1)
        m = 18
        previous = build_ledger(f, gen, m - 1, r=4)
        previous.ranked_tier  # ranked before level m, as the engine ranks it
        tracemalloc.start()
        try:
            led = build_ledger(f, gen, m, previous, r=4)
            led.tiers, led.ranked_tier
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (8 << m) * p

    def test_validates_r_and_value_rows(self):
        gen = make_generator("digital", 1, 3)
        values = np.ones((256, 1))
        for r in (0, 9):
            with pytest.raises(ValueError, match="r="):
                CoefficientLedger(gen, values, r=r)
        led = CoefficientLedger(gen, values, r=8)
        assert np.array_equal(led.ranked_tier, [1.0])
        with pytest.raises(ValueError, match="expected"):
            CoefficientLedger(gen, values[:100], led, r=4)
        with pytest.raises(ValueError, match="expected"):
            CoefficientLedger(gen, np.ones((512, 1)), led, r=4)

    def test_level_follows_from_the_rows(self):
        gen = make_generator("digital", 1, 3)
        led = CoefficientLedger(gen, np.ones((256, 2)), r=4)
        assert (led.m, led.n) == (8, 256)
        assert CoefficientLedger(gen, np.ones((256, 2)), led, r=4).m == 9
        for rows in (0, 100, 384):
            with pytest.raises(TransformError, match=f"length {rows} is not a power of two"):
                CoefficientLedger(gen, np.ones((rows, 1)), r=1)
        with pytest.raises(ValueError, match="expected"):
            CoefficientLedger(gen, np.ones(256), r=4)
        with pytest.raises(ValueError, match="expected"):
            CoefficientLedger(gen, np.ones((256, 1)), led, r=4)
        with pytest.raises(ValueError, match="expected"):
            CoefficientLedger(make_generator("digital", 1, 4), np.ones((256, 2)), led, r=4)

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_incremental_chain_equals_fwht_bitwise(self, family):
        # several levels, three outputs: each butterfly step extends the
        # previous level's coefficients to the full transform, exactly for
        # the digital one and to rounding for the lattice one
        gen = make_generator(family, 3, 4)
        f = lambda x: np.stack([np.exp(x[:, 0]), x[:, 1] * x[:, 2], np.sin(9 * x[:, 2])], axis=1)
        led = build_ledger(f, gen, 6, r=4)
        for m in range(7, 12):
            led = build_ledger(f, gen, m, led, r=4)
            values = f(gen.points(0, 1 << m).points)
            fresh = CoefficientLedger(gen, values, r=4)
            if family == "digital":
                full = fwht(values)
                assert np.array_equal(led.coefficients(), full)
                assert np.array_equal(led.tiers, tier_sums(np.abs(full)))
                assert np.array_equal(led.tiers, fresh.tiers)
            else:
                full = lattice_dft(values)
                assert_close_to_full(led.coefficients(), full)
                assert_close_to_full(fresh.coefficients(), full)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_lattice_doubling_matches_direct_definition(self, m):
        # a chain of doubled lattice ledgers from level 1 against the O(n^2) sum
        gen = randomize_lattice(default_lattice_generator(3), 40 + m)
        led = None
        for level in range(1, m + 1):
            led = build_ledger(three_outputs, gen, level, led, r=1)
        direct = lattice_dft_direct(three_outputs(gen.points(0, 1 << m).points))
        assert np.abs(led.coefficients() - direct).max() < 1e-12

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_each_point_is_transformed_once(self, family, monkeypatch):
        rows = []
        for name in ("fwht", "lattice_dft"):
            transform = getattr(qmcube.ledger, name)

            def counted(values, transform=transform):
                rows.append(values.shape[0])
                return transform(values)

            monkeypatch.setattr(qmcube.ledger, name, counted)
        f = lambda x: np.exp(x[:, 0] + 0.5 * x[:, 1])
        result = integrate_scalar(f, 2, Tolerance(1e-7), family=family, seed=5)
        assert len(rows) == result.n.bit_length() - 10 and result.n > 1 << 10
        assert sum(rows) == result.n

    def test_incremental_validates_level_and_generator(self):
        gen = make_generator("digital", 2, 9)
        f = lambda x: x[:, 0]
        led = build_ledger(f, gen, 8, r=4)
        with pytest.raises(ValueError):
            build_ledger(f, gen, 10, led, r=4)
        with pytest.raises(ValueError):
            build_ledger(f, make_generator("digital", 2, 10), 9, led, r=4)

    @pytest.mark.parametrize("m", [True, np.True_, 3.0])
    def test_level_must_be_an_integer(self, m):
        # True built level 1 and 3.0 raised a TypeError from the shift
        with pytest.raises(ValueError, match=f"level m must be an integer, got {m!r}"):
            build_ledger(lambda x: x[:, 0], make_generator("digital", 1, 9), m, r=1)

    @pytest.mark.parametrize(
        "r, message",
        [(True, "r must be an integer, got True"), (np.True_, "r must be an integer, got np.True_"),
         (2.0, "r must be an integer, got 2.0"), (0, r"r=0 must lie in \[1, 3\]"),
         (4, r"r=4 must lie in \[1, 3\]")],
    )
    def test_gap_must_be_an_integer_in_range(self, r, message):
        gen = make_generator("digital", 1, 9)
        with pytest.raises(ValueError, match=message):
            build_ledger(lambda x: x[:, 0], gen, 3, r=r)
        with pytest.raises(ValueError, match=message):
            CoefficientLedger(gen, np.ones((8, 1)), r=r)

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError, match="level m must be at least 1"):
            build_ledger(lambda x: x[:, 0], make_generator("digital", 1, 9), 0, r=1)

    def test_single_walsh_term_unscrambled(self):
        gen = default_digital_generator(1)
        kappa0 = 37
        f = synthesize_integrand(gen, [((kappa0,), 1.0)])
        led = build_ledger(f, gen, 8, r=4)
        mags = np.abs(led.coefficients()[:, 0])
        assert abs(mags[kappa0] - 1.0) < 1e-12
        assert np.abs(np.delete(mags, kappa0)).max() < 1e-12

    def test_non_finite_value_reports_index(self):
        gen = make_generator("digital", 1, 1)

        def f(x):
            out = np.ones(x.shape[0])
            out[5] = np.nan
            return out

        with pytest.raises(EvaluationError, match="index 5"):
            build_ledger(f, gen, 4, r=4)

    def test_parseval_digital(self):
        gen = make_generator("digital", 2, 31)
        f = lambda x: np.sin(3 * x[:, 0]) + x[:, 1] ** 2
        led = build_ledger(f, gen, 9, r=4)
        lhs = (led.coefficients()[:, 0] ** 2).sum()
        rhs = (f(gen.points(0, 512).points) ** 2).mean()
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_spectrum_rows_from_coefficients(self, tmp_path):
        # a level's (kappa, magnitude) table is written from coefficients()
        gen = make_generator("digital", 1, 12)
        led = build_ledger(lambda x: x[:, 0], gen, 6, r=4)
        path = tmp_path / "spec.csv"
        mags = np.abs(led.coefficients()[:, 0])
        rows = np.column_stack([np.arange(led.n), mags])
        np.savetxt(path, rows, delimiter=",", header="kappa,magnitude", comments="")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kappa,magnitude"
        assert len(lines) == 65
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1)[:, 1], mags)


class TestBlockedEvaluation:
    """Levels are evaluated in blocks of at most 2**16 coordinates."""

    @staticmethod
    def nan_at(gen, index: int):
        """Integrand that is NaN only at the point with this global index."""
        target = gen.points(index, 1).points[0]

        def f(x):
            out = x.sum(axis=1)
            out[np.all(x == target, axis=1)] = np.nan
            return out

        return f

    def test_block_rows(self):
        assert [_block_rows(d) for d in (1, 7, 12, 52)] == [1 << 16, 8192, 4096, 1024]
        assert _block_rows((1 << 16) + 1) == 1

    def test_nan_in_later_block_reports_global_index(self):
        gen = make_generator("digital", 52, 3)
        assert _block_rows(52) == 1024
        with pytest.raises(EvaluationError, match="index 4101") as info:
            build_ledger(self.nan_at(gen, 4101), gen, 14, r=4)
        assert info.value.index == 4101
        f = self.nan_at(gen, 8192 + 4101)
        led = build_ledger(f, gen, 13, r=4)
        with pytest.raises(EvaluationError, match="index 12293") as info:
            build_ledger(f, gen, 14, led, r=4)
        assert info.value.index == 12293

    def test_output_count_change_between_blocks_raises(self):
        gen = make_generator("digital", 52, 3)
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return np.ones((x.shape[0], 1 if len(calls) == 1 else 2))

        with pytest.raises(ValueError, match="outputs"):
            build_ledger(f, gen, 13, r=4)
        assert calls == [1024, 1024]

    def test_asian_arithmetic_values_equal_one_batch(self):
        gen = make_generator("digital", 52, 5)
        arithmetic, _, _ = asian_payoffs(AsianOption())
        m = 14  # sixteen blocks of 1024 points
        whole = arithmetic(gen.points(0, 1 << m).points)
        (values,) = _evaluate((arithmetic,), gen, 0, 1 << m)
        assert np.array_equal(values[:, 0], whole)
        expect = fwht(whole[:, None])
        led = build_ledger(arithmetic, gen, m, r=4)
        assert np.array_equal(led.coefficients(), expect)
        led = build_ledger(arithmetic, gen, m, build_ledger(arithmetic, gen, m - 1, r=4), r=4)
        assert np.array_equal(led.coefficients(), expect)

    def test_sobol_index_values_equal_one_batch(self):
        gen = make_generator("digital", 12, 1)
        f = SobolIndexProblem(bratley_g, 1, 6).integrand()
        m = 16  # sixteen blocks of 4096 points
        whole = f(gen.points(0, 1 << m).points)
        (values,) = _evaluate((f,), gen, 0, 1 << m)
        assert values.shape == (1 << m, 3)
        assert np.array_equal(values, whole)
        assert np.array_equal(build_ledger(f, gen, m, r=4).coefficients(), fwht(whole))

    @staticmethod
    def level_peak(f, gen, m) -> int:
        """Peak traced bytes while level m extends level m - 1."""
        previous = build_ledger(f, gen, m - 1, r=4)
        tracemalloc.start()
        try:
            build_ledger(f, gen, m, previous, r=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_level_memory_grows_with_outputs_not_dimension(self):
        # A whole-batch level holds the 32768 x 52 points, their normals
        # and the paths at once (about 40 MB); blocks hold 1024 rows of
        # each, and the digital ledger keeps no values.
        arithmetic, _, _ = asian_payoffs(AsianOption())
        assert self.level_peak(arithmetic, make_generator("digital", 52, 1), 16) < 4e6

    def test_lattice_level_memory_grows_with_outputs_not_dimension(self):
        # The 32768 new points of the 7-dimensional Genz integrand in
        # blocks of 8192 rows; the lattice transform runs on those alone.
        f = genz_integrand(equicorrelated_mvn(8, 0.5, np.ones(8)))
        assert self.level_peak(f, make_generator("lattice", 7, 1), 16) < 4e6


class TestAliasing:
    def test_no_aliasing_below_level(self):
        gen = default_digital_generator(1)
        m = 6
        spectrum = [((5,), 0.7), ((40,), -0.2)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, m, r=4)
        assert aliasing_check(led, spectrum) < 1e-12

    def test_dual_term_folds_into_mean(self):
        # a single term at index 2^m aliases entirely into bin 0
        gen = default_digital_generator(1)
        m = 6
        spectrum = [((1 << m,), 0.9)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, m, r=4)
        assert abs(led.mean[0] - 0.9) < 1e-12
        assert aliasing_check(led, spectrum) < 1e-12

    def test_random_sparse_spectra_both_families(self):
        rng = np.random.default_rng(2024)
        for m in (4, 6, 8):
            gen = randomize_digital(default_digital_generator(3), int(rng.integers(1 << 30)))
            spectrum = [
                (tuple(int(w) for w in rng.integers(0, 1 << (m + 3), size=3)),
                 float(rng.standard_normal()))
                for _ in range(5)
            ]
            led = build_ledger(synthesize_integrand(gen, spectrum), gen, m, r=4)
            assert aliasing_check(led, spectrum) < 1e-10

            lat = randomize_lattice(default_lattice_generator(2), int(rng.integers(1 << 30)))
            spectrum = []
            for _ in range(4):
                wav = tuple(int(w) for w in rng.integers(-(1 << (m + 3)), 1 << (m + 3), size=2))
                amp = complex(rng.standard_normal(), rng.standard_normal())
                spectrum.append((wav, amp))
                spectrum.append((tuple(-w for w in wav), amp.conjugate()))
            led = build_ledger(synthesize_integrand(lat, spectrum), lat, m, r=4)
            assert aliasing_check(led, spectrum) < 1e-10

    def test_coset_magnitude_independent_of_carrier(self):
        # mass at kappa + lambda*2^m shows the same level-m magnitude at kappa
        m, kappa = 6, 11
        gen_plain = default_digital_generator(1)
        for lam in (0, 1, 3, 7):
            spectrum = [((kappa + (lam << m),), 0.6)]
            # shift-only digital generator keeps the index map transparent
            shifted = type(gen_plain)(gen_plain.columns, np.array([123456789], dtype=np.uint64))
            led = build_ledger(synthesize_integrand(shifted, spectrum), shifted, m, r=4)
            assert abs(abs(led.coefficients()[kappa, 0]) - 0.6) < 1e-12

        lat = default_lattice_generator(1)
        assert lat.generating_vector[0] == 1
        for lam in (0, 1, 5):
            wave = kappa + (lam << m)
            spectrum = [((wave,), 0.3), ((-wave,), 0.3)]
            led = build_ledger(synthesize_integrand(lat, spectrum), lat, m, r=4)
            assert abs(abs(led.coefficients()[kappa, 0]) - 0.3) < 1e-12

    def test_predicted_coefficients_shift_phase(self):
        lat = randomize_lattice(default_lattice_generator(1), 4)
        wave = 9
        pred = predicted_coefficients(lat, [((wave,), 1.0)], 4)
        expect = np.exp(2j * np.pi * wave * lat.shift[0])
        residue = (wave * lat.generating_vector[0]) % 16
        assert abs(pred[residue] - expect) < 1e-9
