"""Transform oracles, ledger construction, tier sums and aliasing identity."""

import tracemalloc

import numpy as np
import pytest

from qmcube.integrands import AsianOption, SobolIndexProblem, asian_payoffs, bratley_g
from qmcube.ledger import (
    CoefficientLedger,
    EvaluationError,
    TransformError,
    _bit_reversal,
    _block_rows,
    aliasing_check,
    build_ledger,
    fwht,
    lattice_dft,
    magnitude_map,
    predicted_coefficients,
    synthesize_integrand,
    tier_sums,
)
from qmcube.sequences import (
    default_digital_generator,
    default_lattice_generator,
    make_generator,
    randomize_digital,
    randomize_lattice,
)


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
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3)),
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
        kmap = magnitude_map(mags)
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
            kmap = magnitude_map(mags)
            assert kmap.dtype == np.arange(1).dtype
            assert np.array_equal(kmap, magnitude_map_tournament(mags))


class TestLedger:
    def test_constant_integrand(self):
        gen = make_generator("digital", 2, 11)
        led = build_ledger(lambda x: np.full(x.shape[0], 7.0), gen, 10)
        assert np.allclose(led.mean, 7.0)
        assert np.abs(led.tiers[1:]).max() < 1e-12

    def test_mean_identity(self):
        for family in ("digital", "lattice"):
            gen = make_generator(family, 3, 2)
            led = build_ledger(lambda x: np.cos(x @ np.ones(3)), gen, 8)
            assert np.allclose(led.mean[0], led.values.mean(), rtol=1e-14)

    def test_incremental_equals_fresh(self):
        gen = make_generator("digital", 2, 9)
        f = lambda x: x[:, 0] * np.exp(x[:, 1])
        led10 = build_ledger(f, gen, 10)
        led11 = build_ledger(f, gen, 11, led10)
        fresh = build_ledger(f, gen, 11)
        assert np.array_equal(led11.values, fresh.values)
        assert np.array_equal(led11.magnitudes, fresh.magnitudes)
        assert np.array_equal(led11.ranked_tiers, fresh.ranked_tiers)

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_incremental_chain_equals_fwht_bitwise(self, family):
        # several levels, three outputs: each butterfly step extends the
        # previous level's coefficients to exactly the full transform
        gen = make_generator(family, 3, 4)
        f = lambda x: np.stack([np.exp(x[:, 0]), x[:, 1] * x[:, 2], np.sin(9 * x[:, 2])], axis=1)
        led = build_ledger(f, gen, 6)
        for m in range(7, 12):
            led = build_ledger(f, gen, m, led)
            full = fwht(led.values) if family == "digital" else lattice_dft(led.values)
            assert np.array_equal(led.coefficients(), full)
            assert np.array_equal(led.magnitudes, np.abs(full))
            assert np.array_equal(led.tiers, CoefficientLedger(gen, m, led.values).tiers)

    def test_incremental_validates_level_and_generator(self):
        gen = make_generator("digital", 2, 9)
        f = lambda x: x[:, 0]
        led = build_ledger(f, gen, 8)
        with pytest.raises(ValueError):
            build_ledger(f, gen, 10, led)
        with pytest.raises(ValueError):
            build_ledger(f, make_generator("digital", 2, 10), 9, led)

    def test_single_walsh_term_unscrambled(self):
        gen = default_digital_generator(1)
        kappa0 = 37
        f = synthesize_integrand(gen, [((kappa0,), 1.0)])
        led = build_ledger(f, gen, 8)
        mags = led.magnitudes[:, 0]
        assert abs(mags[kappa0] - 1.0) < 1e-12
        assert np.abs(np.delete(mags, kappa0)).max() < 1e-12

    def test_non_finite_value_reports_index(self):
        gen = make_generator("digital", 1, 1)

        def f(x):
            out = np.ones(x.shape[0])
            out[5] = np.nan
            return out

        with pytest.raises(EvaluationError, match="index 5"):
            build_ledger(f, gen, 4)

    def test_parseval_digital(self):
        gen = make_generator("digital", 2, 31)
        led = build_ledger(lambda x: np.sin(3 * x[:, 0]) + x[:, 1] ** 2, gen, 9)
        lhs = (led.magnitudes[:, 0] ** 2).sum()
        rhs = (led.values[:, 0] ** 2).mean()
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_dump_csv(self, tmp_path):
        gen = make_generator("digital", 1, 12)
        led = build_ledger(lambda x: x[:, 0], gen, 6)
        path = tmp_path / "spec.csv"
        led.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kappa,magnitude"
        assert len(lines) == 65


class TestBlockedEvaluation:
    """Levels are evaluated in blocks of at most 2**18 coordinates."""

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
        assert [_block_rows(d) for d in (1, 7, 12, 52)] == [1 << 18, 32768, 16384, 4096]
        assert _block_rows((1 << 18) + 1) == 1

    def test_nan_in_later_block_reports_global_index(self):
        gen = make_generator("digital", 52, 3)
        assert _block_rows(52) == 4096
        with pytest.raises(EvaluationError, match="index 4101") as info:
            build_ledger(self.nan_at(gen, 4101), gen, 14)
        assert info.value.index == 4101
        f = self.nan_at(gen, 8192 + 4101)
        led = build_ledger(f, gen, 13)
        with pytest.raises(EvaluationError, match="index 12293") as info:
            build_ledger(f, gen, 14, led)
        assert info.value.index == 12293

    def test_output_count_change_between_blocks_raises(self):
        gen = make_generator("digital", 52, 3)
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return np.ones((x.shape[0], 1 if len(calls) == 1 else 2))

        with pytest.raises(ValueError, match="outputs"):
            build_ledger(f, gen, 13)
        assert calls == [4096, 4096]

    def test_asian_arithmetic_values_equal_one_batch(self):
        gen = make_generator("digital", 52, 5)
        arithmetic, _, _ = asian_payoffs(AsianOption())
        m = 14  # four blocks of 4096 points
        whole = arithmetic(gen.points(0, 1 << m).points)
        led = build_ledger(arithmetic, gen, m)
        assert np.array_equal(led.values[:, 0], whole)
        led = build_ledger(arithmetic, gen, m, build_ledger(arithmetic, gen, m - 1))
        assert np.array_equal(led.values[:, 0], whole)

    def test_sobol_index_values_equal_one_batch(self):
        gen = make_generator("digital", 12, 1)
        f = SobolIndexProblem(bratley_g, 1, 6).integrand()
        m = 16  # four blocks of 16384 points
        led = build_ledger(f, gen, m)
        assert led.values.shape == (1 << m, 3)
        assert np.array_equal(led.values, f(gen.points(0, 1 << m).points))

    def test_level_memory_grows_with_outputs_not_dimension(self):
        # A whole-batch level holds the 32768 x 52 points, their normals
        # and the paths at once (about 40 MB); blocks hold 4096 rows of each.
        gen = make_generator("digital", 52, 1)
        arithmetic, _, _ = asian_payoffs(AsianOption())
        previous = build_ledger(arithmetic, gen, 15)
        tracemalloc.start()
        try:
            build_ledger(arithmetic, gen, 16, previous)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestAliasing:
    def test_no_aliasing_below_level(self):
        gen = default_digital_generator(1)
        m = 6
        spectrum = [((5,), 0.7), ((40,), -0.2)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, m)
        assert aliasing_check(led, spectrum) < 1e-12

    def test_dual_term_folds_into_mean(self):
        # a single term at index 2^m aliases entirely into bin 0
        gen = default_digital_generator(1)
        m = 6
        spectrum = [((1 << m,), 0.9)]
        led = build_ledger(synthesize_integrand(gen, spectrum), gen, m)
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
            led = build_ledger(synthesize_integrand(gen, spectrum), gen, m)
            assert aliasing_check(led, spectrum) < 1e-10

            lat = randomize_lattice(default_lattice_generator(2), int(rng.integers(1 << 30)))
            spectrum = []
            for _ in range(4):
                wav = tuple(int(w) for w in rng.integers(-(1 << (m + 3)), 1 << (m + 3), size=2))
                amp = complex(rng.standard_normal(), rng.standard_normal())
                spectrum.append((wav, amp))
                spectrum.append((tuple(-w for w in wav), amp.conjugate()))
            led = build_ledger(synthesize_integrand(lat, spectrum), lat, m)
            assert aliasing_check(led, spectrum) < 1e-10

    def test_coset_magnitude_independent_of_carrier(self):
        # mass at kappa + lambda*2^m shows the same level-m magnitude at kappa
        m, kappa = 6, 11
        gen_plain = default_digital_generator(1)
        for lam in (0, 1, 3, 7):
            spectrum = [((kappa + (lam << m),), 0.6)]
            # shift-only digital generator keeps the index map transparent
            shifted = type(gen_plain)(gen_plain.columns, np.array([123456789], dtype=np.uint64))
            led = build_ledger(synthesize_integrand(shifted, spectrum), shifted, m)
            assert abs(led.magnitudes[kappa, 0] - 0.6) < 1e-12

        lat = default_lattice_generator(1)
        assert lat.generating_vector[0] == 1
        for lam in (0, 1, 5):
            wave = kappa + (lam << m)
            spectrum = [((wave,), 0.3), ((-wave,), 0.3)]
            led = build_ledger(synthesize_integrand(lat, spectrum), lat, m)
            assert abs(led.magnitudes[kappa, 0] - 0.3) < 1e-12

    def test_predicted_coefficients_shift_phase(self):
        lat = randomize_lattice(default_lattice_generator(1), 4)
        wave = 9
        pred = predicted_coefficients(lat, [((wave,), 1.0)], 4)
        expect = np.exp(2j * np.pi * wave * lat.shift[0])
        residue = (wave * lat.generating_vector[0]) % 16
        assert abs(pred[residue] - expect) < 1e-9
