"""Discrete Fourier coefficients of sampled data and their dyadic tier sums.

For digital sequences the transform is the normalized fast Walsh-Hadamard
transform in natural ordering; for lattice node sequences it is the
real-input FFT of the data brought back from van der Corput order to
natural node order, returned as the full conjugate-symmetric spectrum.  In
both cases bin 0 is the sample mean and bins kappa and kappa + 2**(m-1) at
level m alias to bin kappa at level m-1, so tier sums over dyadic index
ranges are comparable across levels.

A level is evaluated in blocks of at most 2**16 / d points (512 KiB of
coordinates).  Level m - 1's points are the first half of level m's, so a
ledger transforms only the new half and extends the previous level's
coefficients by one butterfly; it keeps its coefficients for the next
level, and neither its values nor the magnitudes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .sequences import PRECISION, DigitalGenerator


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
    Accepts shape (n,) or (n, p); the transform acts on axis 0.  Each
    butterfly stage works in place on one copy of the input, with one
    buffer of n/2 rows for the differences.
    """
    # C order keeps every reshape below a view of y.
    y = np.array(values, dtype=np.float64, order="C", copy=True)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    n = y.shape[0]
    _check_pow2(n)
    diff = np.empty((n // 2, y.shape[1]))
    h = 1
    while h < n:
        pairs = y.reshape(n // (2 * h), 2, h, -1)
        top, bot = pairs[:, 0], pairs[:, 1]
        delta = diff.reshape(n // (2 * h), h, -1)
        np.subtract(top, bot, out=delta)
        top += bot
        bot[...] = delta
        h *= 2
    y /= n
    return y[:, 0] if squeeze else y


def _bit_reversal(n: int) -> np.ndarray:
    """Index i -> i with its log2(n) bits reversed, for a power of two n.

    Reversed over m + 1 bits, i < 2**m maps to twice its m-bit reversal
    and i + 2**m to one more, so the table is built by doubling in place.
    """
    perm = np.empty(n, dtype=np.intp)
    perm[0] = 0
    h = 1
    while h < n:
        perm[:h] <<= 1
        np.add(perm[:h], 1, out=perm[h : 2 * h])
        h *= 2
    return perm


def lattice_dft(values: np.ndarray) -> np.ndarray:
    """Discrete Fourier coefficients of lattice data given in sequence order.

    The values are permuted to natural node order (index i carries the node
    frac(phi2(i) * g), so natural order is the bit reversal of i) and the
    normalized DFT is applied; bin kappa then holds the common coefficient
    of all wavenumbers k with k . g = kappa (mod 2**m).  The values are
    real, so a real-input FFT gives bins 0 .. n/2 and bin n - kappa is
    the conjugate of bin kappa.  Returns the full complex spectrum; axis 0
    is transformed.
    """
    y = np.asarray(values, dtype=np.float64)
    n = y.shape[0]
    _check_pow2(n)
    out = np.empty(y.shape, dtype=np.complex128)
    h = n // 2
    np.fft.rfft(y[_bit_reversal(n)], axis=0, norm="forward", out=out[: h + 1])
    np.conjugate(out[h - 1 : 0 : -1], out=out[h + 1 :])
    return out


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

    The decisions at pair level l read only the first 2**(l+1) entries of
    the map, so each level keeps the winners' magnitudes for the next and
    records its swap mask; the map is then built by doubling, in O(n).
    """
    mags = np.asarray(magnitudes)
    n = mags.shape[0]
    m = _check_pow2(n)
    flips = [None] * m
    best = mags
    for l in range(m - 1, 0, -1):
        lo, hi = best[: 1 << l], best[1 << l : 2 << l]
        flips[l] = hi > lo
        flips[l][0] = False
        best = np.where(flips[l], hi, lo)
    # Bit j of kmap[kappa] is bit j of kappa, toggled when level j swaps
    # the pair holding the entry's low j bits.
    kmap = np.arange(n)  # entries 0 and 1 are final; the loop rewrites the rest
    bits = np.empty(n // 2, dtype=kmap.dtype)
    for j in range(1, m):
        h = 1 << j
        bit = bits[:h]
        np.left_shift(flips[j][kmap[:h]], j, out=bit)
        np.subtract(h, bit, out=kmap[h : 2 * h])
        kmap[h : 2 * h] |= kmap[:h]
        kmap[:h] |= bit
    return kmap


def _butterfly(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """((a + b) / 2, (a - b) / 2) in one array of a's and b's common type.

    For real input this is the last stage of :func:`fwht`; for complex
    input with b already multiplied by the twiddle factors, the last
    radix-2 decimation-in-time stage of :func:`lattice_dft`.
    """
    h = a.shape[0]
    out = np.empty((2 * h, a.shape[1]), dtype=np.result_type(a, b))
    np.add(a, b, out=out[:h])
    np.subtract(a, b, out=out[h:])
    out /= 2
    return out


def _twiddle(n: int) -> np.ndarray:
    """Column of w**kappa for kappa < n/2, with w = exp(-2 pi i / n), n >= 4.

    The cosines and sines are taken for kappa < n/4 only; the second
    quarter is w**(kappa + n/4) = -i w**kappa, an exact rotation.
    """
    q = n // 4
    angle = np.arange(q) * (-2.0 * np.pi / n)
    out = np.empty((2 * q, 1), dtype=np.complex128)
    np.cos(angle, out=out.real[:q, 0])
    np.sin(angle, out=out.imag[:q, 0])
    np.multiply(out[:q], -1j, out=out[q:])
    return out


class CoefficientLedger:
    """Mean, tier sums and the ranked tier the error bound reads, at one level.

    Supports p output coordinates sharing one point set; ``mean`` is the
    bin-0 value per coordinate.  Two tier-sum readings are taken from the
    coefficient magnitudes, which are not kept: ``tiers`` sums them over
    the fixed natural index ranges (comparable across levels through the
    aliasing tree, used by the cross-level decay check), while ranked tier
    m - r sums them through the data-driven :func:`magnitude_map`
    permutation, which restores the convention that indices increase as
    coefficients decay and is what the error bound reads.  Only that one
    ranked tier is gathered and kept, so the caller passes ``r``.

    ``values`` has shape (k, p) and holds the integrand values at the
    points the ledger adds: all 2**m points, or with ``previous`` (the
    level m-1 ledger of the same generator) the 2**(m-1) new ones.  The
    transform then runs on the new half only: the level-m coefficients are
    ((a + b) / 2, (a - b) / 2) with a the previous coefficients and b the
    transform of the new half.  For a digital ledger this is the last
    butterfly stage of :func:`fwht` and gives the same bits.  For a
    lattice ledger b is first multiplied by w**kappa, w = exp(-2 pi i / n):
    the previous points are the even nodes of level m and the new ones
    the odd nodes, so this is the last radix-2 decimation-in-time stage of
    the DFT.  The ledger keeps its coefficients for the next level.
    """

    def __init__(self, generator, m: int, values: np.ndarray,
                 previous: CoefficientLedger | None = None, *, r: int):
        if not 1 <= r <= m:
            raise ValueError(f"r={r} must lie in [1, m] for level m={m}")
        self.generator = generator
        self.m = m
        self.r = r
        fresh = self.n if previous is None else self.n // 2
        if values.ndim != 2 or values.shape[0] != fresh:
            raise ValueError(f"expected ({fresh}, p) values for level {m}, got {values.shape}")
        if previous is not None and (
            previous.m != m - 1 or previous.generator is not generator
            or previous.outputs != values.shape[1]
        ):
            raise ValueError("previous ledger must be level m-1 for the same generator and outputs")
        digital = generator.family == "digital"
        coef = fwht(values) if digital else lattice_dft(values)
        if previous is not None:
            if not digital:
                coef *= _twiddle(self.n)
            coef = _butterfly(previous._coef, coef)
        # kept for the next level's butterfly
        self._coef = coef
        self.mean = coef[0].real.copy()
        magnitudes = np.abs(coef)
        self.tiers = tier_sums(magnitudes)
        ell = m - r
        lo, hi = (0, 1) if ell == 0 else (1 << (ell - 1), 1 << ell)
        segment = np.stack(
            [
                magnitudes[magnitude_map(magnitudes[:, j])[lo:hi], j]
                for j in range(magnitudes.shape[1])
            ],
            axis=1,
        )
        # the reduction tier_sums applies to this range, so the bits match
        self._ranked_tier = np.add.reduceat(segment, [0], axis=0)[0]

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def outputs(self) -> int:
        return self.mean.shape[0]

    def coefficients(self) -> np.ndarray:
        """Signed (digital) or complex (lattice) coefficients, natural index order."""
        return self._coef.copy()

    def tier(self, ell: int) -> np.ndarray:
        return self.tiers[ell]

    def ranked_tier(self, ell: int) -> np.ndarray:
        """Ranked tier sum; only tier m - r is kept."""
        if ell != self.m - self.r:
            raise ValueError(f"the ledger keeps ranked tier m - r = {self.m - self.r} only, not {ell}")
        return self._ranked_tier


# Coordinates per evaluation block: 2**16 float64 values, 512 KiB, so a
# block's points and an integrand's temporaries of the same size stay in a
# 2 MiB L2 cache.
_BLOCK_COORDINATES = 1 << 16


def _block_rows(dimension: int) -> int:
    """Largest power of two with at most _BLOCK_COORDINATES coordinates per block."""
    return 1 << max((_BLOCK_COORDINATES // dimension).bit_length() - 1, 0)


def _evaluate(fns, generator, start: int, count: int) -> list[np.ndarray]:
    """Values of each function in ``fns`` at points [start, start + count).

    The range is covered in blocks of :func:`_block_rows` points.  Every
    function sees the same point batch per block, and its values go into
    one (count, p) array, so memory grows with count * p, not with
    count * d.  Integrands are row-wise, so blocking leaves the values
    unchanged.  A non-finite value raises :class:`EvaluationError` with
    its global point index.
    """
    out: list[np.ndarray | None] = [None] * len(fns)
    rows = _block_rows(generator.dimension)
    for lo in range(0, count, rows):
        batch = generator.points(start + lo, min(rows, count - lo))
        for k, f in enumerate(fns):
            vals = np.asarray(f(batch.points), dtype=np.float64)
            if vals.ndim == 1:
                vals = vals[:, None]
            if vals.shape[0] != batch.count:
                raise ValueError(
                    f"integrand returned {vals.shape[0]} values for {batch.count} points"
                )
            if out[k] is None:
                out[k] = np.empty((count, vals.shape[1]))
            elif vals.shape[1] != out[k].shape[1]:
                raise ValueError(
                    f"integrand returned {vals.shape[1]} outputs at point index "
                    f"{batch.start}, after {out[k].shape[1]} before it"
                )
            finite = np.isfinite(vals)
            if not finite.all():
                where = int(np.nonzero(~finite.all(axis=1))[0][0])
                raise EvaluationError(batch.start + where, vals[where])
            out[k][lo : lo + batch.count] = vals
    return out


def build_ledger(
    f: Callable[[np.ndarray], np.ndarray],
    generator,
    m: int,
    previous: CoefficientLedger | None = None,
    *,
    r: int,
) -> CoefficientLedger:
    """Evaluate the integrand on the first 2**m points and transform.

    When ``previous`` (the level m-1 ledger of the same generator) is
    supplied, only the 2**(m-1) new points are evaluated and handed over
    (see :class:`CoefficientLedger`).  The ledger keeps ranked tier m - r.
    """
    if m < 1:
        raise ValueError("level m must be at least 1")
    lo = 0 if previous is None else 1 << (m - 1)
    (values,) = _evaluate((f,), generator, lo, (1 << m) - lo)
    return CoefficientLedger(generator, m, values, previous, r=r)


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
    return int(format(k, f"0{PRECISION}b")[::-1], 2)


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
