"""Transform oracles, ledger construction, tier sums and aliasing identity."""

import numpy as np
import pytest

from qmcube.ledger import (
    CoefficientLedger,
    EvaluationError,
    TransformError,
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
        for n in (4, 32, 256):
            v = rng.standard_normal(n)
            assert np.abs(lattice_dft(v) - lattice_dft_direct(v)).max() < 1e-12

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
            shifted = type(gen_plain)(gen_plain.base_columns, shift=np.array([123456789], dtype=np.uint64))
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
