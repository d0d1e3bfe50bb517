"""Discrete Fourier coefficients of sampled data and their dyadic tier sums.

For digital sequences the transform is the normalized fast Walsh-Hadamard
transform in natural ordering; for lattice node sequences it is the FFT of
the data brought back from van der Corput order to natural node order.  In
both cases bin 0 is the sample mean and bins kappa and kappa + 2**(m-1) at
level m alias to bin kappa at level m-1, so tier sums over dyadic index
ranges are comparable across levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sequences import PRECISION, DigitalGenerator, LatticeGenerator, bit_reverse


class TransformError(ValueError):
    """Input length is not a power of two."""


class EvaluationError(RuntimeError):
    """The integrand returned a non-finite value."""

    def __init__(self, index: int, value):
        self.index = index
        super().__init__(f"non-finite integrand value {value!r} at point index {index}")


def _check_pow2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise TransformError(f"length {n} is not a power of two")
    return n.bit_length() - 1


def fwht(values: np.ndarray) -> np.ndarray:
    """Normalized Walsh-Hadamard transform, natural ordering.

    ``out[kappa] = 2**-m * sum_i values[i] * (-1)**popcount(i & kappa)``.
    Accepts shape (n,) or (n, p); the transform acts on axis 0.
    """
    y = np.array(values, dtype=np.float64, copy=True)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    n = y.shape[0]
    _check_pow2(n)
    h = 1
    while h < n:
        y = y.reshape(n // (2 * h), 2, h, -1)
        top = y[:, 0] + y[:, 1]
        bot = y[:, 0] - y[:, 1]
        y = np.stack([top, bot], axis=1)
        h *= 2
    y = y.reshape(n, -1) / n
    return y[:, 0] if squeeze else y


def lattice_dft(values: np.ndarray) -> np.ndarray:
    """Discrete Fourier coefficients of lattice data given in sequence order.

    The values are permuted to natural node order (index i carries the node
    frac(phi2(i) * g), so natural order is the bit reversal of i) and the
    normalized DFT is applied; bin kappa then holds the common coefficient
    of all wavenumbers k with k . g = kappa (mod 2**m).  Returns a complex
    array; axis 0 is transformed.
    """
    y = np.asarray(values, dtype=np.float64)
    n = y.shape[0]
    m = _check_pow2(n)
    perm = bit_reverse(np.arange(n, dtype=np.uint64), m).astype(np.intp)
    return np.fft.fft(y[perm], axis=0) / n


def tier_sums(magnitudes: np.ndarray) -> np.ndarray:
    """Sums of coefficient magnitudes over dyadic tiers.

    Tier ell covers kappa in [floor(2**(ell-1)), 2**ell); the result has
    m + 1 rows for a level-m input.
    """
    mags = np.asarray(magnitudes)
    n = mags.shape[0]
    m = _check_pow2(n)
    bounds = [0] + [1 << (ell - 1) for ell in range(1, m + 1)]
    return np.add.reduceat(mags, bounds, axis=0)


def magnitude_map(magnitudes: np.ndarray) -> np.ndarray:
    """Permutation moving larger observed magnitudes toward lower indices.

    Runs a tournament over the dyadic pairing (kappa, kappa + 2**l) for
    l = m-1 .. 1; whenever the high partner dominates, the pair is swapped
    together with all its translates kappa + lambda * 2**(l+1), which keeps
    the permutation consistent with the aliasing tree (truncating the top
    bit of the index still reproduces the coarser level's structure).
    Index 0 (the mean) never moves.  Deterministic given the magnitudes.
    """
    mags = np.asarray(magnitudes)
    n = mags.shape[0]
    m = _check_pow2(n)
    kmap = np.arange(n)
    for l in range(m - 1, 0, -1):
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


class CoefficientLedger:
    """Coefficient magnitudes, tier sums and cached values at one level.

    Supports p output coordinates sharing one point set: ``values`` has
    shape (2**m, p), ``magnitudes`` likewise (natural index order), and
    ``mean`` is the bin-0 value per coordinate.  Two tier-sum readings are
    kept: ``tiers`` sums magnitudes over the fixed natural index ranges
    (comparable across levels through the aliasing tree, used by the
    cross-level decay check), while ``ranked_tiers`` sums them through the
    data-driven :func:`magnitude_map` permutation, which restores the
    convention that indices increase as coefficients decay and is what the
    error bound reads.  Both are pure functions of the cached values.
    """

    def __init__(self, generator, m: int, values: np.ndarray):
        self.generator = generator
        self.family = generator.family
        self.m = m
        self.values = values
        coef = self.coefficients()
        self.magnitudes = np.abs(coef)
        self.mean = coef[0].real.copy()
        self.tiers = tier_sums(self.magnitudes)
        ranked = np.stack(
            [
                self.magnitudes[magnitude_map(self.magnitudes[:, j]), j]
                for j in range(self.magnitudes.shape[1])
            ],
            axis=1,
        )
        self.ranked_tiers = tier_sums(ranked)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def outputs(self) -> int:
        return self.values.shape[1]

    def coefficients(self) -> np.ndarray:
        """Signed (digital) or complex (lattice) transform of the cached values."""
        if self.family == "digital":
            return fwht(self.values)
        return lattice_dft(self.values)

    def tier(self, ell: int) -> np.ndarray:
        return self.tiers[ell]

    def ranked_tier(self, ell: int) -> np.ndarray:
        return self.ranked_tiers[ell]

    def dump_csv(self, path, coordinate: int = 0, max_rows: int = 1 << 14) -> None:
        """Write (kappa, magnitude) rows, uniformly strided above max_rows."""
        stride = max(1, self.n // max_rows)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("kappa,magnitude\n")
            for kappa in range(0, self.n, stride):
                fh.write(f"{kappa},{self.magnitudes[kappa, coordinate]!r}\n")


def _evaluate(f, batch) -> np.ndarray:
    vals = np.asarray(f(batch.points), dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != batch.count:
        raise ValueError(
            f"integrand returned {vals.shape[0]} values for {batch.count} points"
        )
    bad = ~np.isfinite(vals)
    if bad.any():
        where = int(np.nonzero(bad.any(axis=1))[0][0])
        raise EvaluationError(batch.start + where, vals[where])
    return vals


def build_ledger(
    f: Callable[[np.ndarray], np.ndarray],
    generator,
    m: int,
    previous: CoefficientLedger | None = None,
) -> CoefficientLedger:
    """Evaluate the integrand on the first 2**m points and transform.

    When ``previous`` (the level m-1 ledger of the same generator) is
    supplied, only the 2**(m-1) new points are evaluated; the transform is
    recomputed over the full value array either way.
    """
    if m < 1:
        raise ValueError("level m must be at least 1")
    if previous is None:
        values = _evaluate(f, generator.points(0, 1 << m))
    else:
        if previous.m != m - 1 or previous.generator is not generator:
            raise ValueError("previous ledger must be level m-1 for the same generator")
        fresh = _evaluate(f, generator.points(1 << (m - 1), 1 << (m - 1)))
        values = np.concatenate([previous.values, fresh], axis=0)
    return CoefficientLedger(generator, m, values)


# -- sparse-spectrum diagnostics ------------------------------------------
#
# A spectrum is a sequence of (wavenumber, amplitude) pairs.  For a digital
# generator the wavenumber is a tuple of nonnegative Walsh indices (one per
# coordinate) and amplitudes must be real; for a lattice generator it is a
# tuple of integers (negative allowed) and amplitudes may be complex as
# long as the resulting function is real (conjugate-symmetric spectrum).

Spectrum = Sequence[tuple[tuple[int, ...], complex]]


def _walsh_digit_rep(k: int) -> int:
    """52-bit digit representation of a Walsh index (bit a -> digit a + 1)."""
    if k < 0 or k >= 1 << PRECISION:
        raise ValueError(f"Walsh index {k} out of range")
    rep = 0
    a = 0
    while k:
        if k & 1:
            rep |= 1 << (PRECISION - 1 - a)
        k >>= 1
        a += 1
    return rep


def synthesize_integrand(generator, spectrum: Spectrum) -> Callable[[np.ndarray], np.ndarray]:
    """Function on [0,1)^d whose exact expansion is the given sparse spectrum."""
    if isinstance(generator, DigitalGenerator):
        reps = [
            [_walsh_digit_rep(kc) for kc in wav] for wav, _ in spectrum
        ]
        amps = np.array([amp for _, amp in spectrum])
        if np.abs(amps.imag).max(initial=0.0) > 1e-14:
            raise ValueError("digital (Walsh) spectra must have real amplitudes")

        def f(x: np.ndarray) -> np.ndarray:
            ints = np.round(x * 2.0**PRECISION).astype(np.uint64)
            total = np.zeros(x.shape[0])
            for rep, amp in zip(reps, amps.real):
                par = np.zeros(x.shape[0], dtype=np.uint64)
                for c, kc in enumerate(rep):
                    par ^= np.bitwise_count(ints[:, c] & np.uint64(kc)).astype(np.uint64)
                total += amp * (1.0 - 2.0 * (par & np.uint64(1)).astype(np.float64))
            return total

        return f

    waves = np.array([wav for wav, _ in spectrum], dtype=np.float64)
    amps = np.array([amp for _, amp in spectrum])

    def f(x: np.ndarray) -> np.ndarray:
        phases = np.exp(2j * np.pi * (x @ waves.T))
        total = phases @ amps
        if np.abs(total.imag).max(initial=0.0) > 1e-9:
            raise ValueError("lattice spectrum is not conjugate symmetric")
        return total.real

    return f


def predicted_coefficients(generator, spectrum: Spectrum, m: int) -> np.ndarray:
    """Level-m discrete coefficients implied by the aliasing identity.

    Every spectrum term lands in the bin given by its wavenumber's residue
    for the first 2**m points, multiplied by the phase the shift induces;
    terms sharing a bin add up.
    """
    out = np.zeros(1 << m, dtype=np.complex128)
    if isinstance(generator, DigitalGenerator):
        mask = (1 << m) - 1
        for wav, amp in spectrum:
            full = 0
            sign = 0
            for c, kc in enumerate(wav):
                rep = np.uint64(_walsh_digit_rep(kc))
                for j in range(PRECISION):
                    if int(rep & generator.columns[c, j]).bit_count() & 1:
                        full ^= 1 << j
                sign ^= int(rep & generator.shift[c]).bit_count() & 1
            out[full & mask] += amp * (1.0 - 2.0 * sign)
        return out
    g = generator.generating_vector
    for wav, amp in spectrum:
        residue = int(np.dot(wav, g[: len(wav)])) % (1 << m)
        phase = np.exp(2j * np.pi * (float(np.dot(wav, generator.shift[: len(wav)])) % 1.0))
        out[residue] += amp * phase
    return out


def aliasing_check(ledger: CoefficientLedger, spectrum: Spectrum) -> float:
    """Max deviation between the ledger's coefficients and the aliasing sums."""
    observed = ledger.coefficients()[:, 0]
    predicted = predicted_coefficients(ledger.generator, spectrum, ledger.m)
    return float(np.abs(observed - predicted).max())
