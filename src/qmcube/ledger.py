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
level, and neither its values nor the magnitudes.  It ranks when its tier
sums are first read, after the values are freed, one output column at a
time: beside the previous and the current coefficients a level then holds
one column of n magnitudes and the n/2 buffer of the ranking tournament.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .sequences import _block_rows


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


def magnitude_map(magnitudes: np.ndarray, head: int) -> np.ndarray:
    """Permutation moving larger observed magnitudes toward lower indices.

    Runs a tournament over the dyadic pairing (kappa, kappa + 2**l) for
    l = m-1 .. 1; whenever the high partner dominates, the pair is swapped
    together with all its translates kappa + lambda * 2**(l+1), which keeps
    the permutation consistent with the aliasing tree (truncating the top
    bit of the index still reproduces the coarser level's structure).
    Index 0 (the mean) never moves.  Deterministic given the magnitudes,
    which are only read.

    The decisions at pair level l read only the first 2**(l+1) entries of
    the map, so each level records its swap mask and keeps the winners'
    magnitudes for the next in the first 2**l entries of one buffer of
    n/2 values.  The map is then built by doubling.  Only its first
    ``head`` entries, an integer in [1, n], are built and returned
    (``head = n`` gives the whole map): the doubling stops at ``head``
    entries, and each later level only toggles its bit in them.  The
    tournament still reads all n magnitudes.
    """
    mags = np.asarray(magnitudes)
    n = mags.shape[0]
    m = _check_pow2(n)
    if not 1 <= head <= n:
        raise ValueError(f"head={head} must lie in [1, {n}]")
    flips = [None] * m
    best = mags[: n // 2].copy()  # the winners so far, in its first 2**l entries
    upper = mags
    for l in range(m - 1, 0, -1):
        lo, hi = best[: 1 << l], upper[1 << l : 2 << l]
        flips[l] = hi > lo
        flips[l][0] = False
        np.copyto(lo, hi, where=flips[l])
        upper = best
    # Bit j of kmap[kappa] is bit j of kappa, toggled when level j swaps
    # the pair holding the entry's low j bits.
    kmap = np.arange(head)  # entries 0 and 1 are final; the loop rewrites the rest
    bits = np.empty(min(n // 2, head), dtype=kmap.dtype)
    for j in range(1, m):
        h = 1 << j
        k = min(h, head)
        bit = bits[:k]
        np.left_shift(flips[j][kmap[:k]], j, out=bit)
        new = min(h, head - h)  # entries h .. h + new - 1 are made here
        if new > 0:
            np.subtract(h, bit[:new], out=kmap[h : h + new])
            kmap[h : h + new] |= kmap[:new]
        kmap[:k] |= bit
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
    coefficient magnitudes: ``tiers`` sums them over the fixed natural
    index ranges (comparable across levels through the aliasing tree,
    used by the cross-level decay check), while ranked tier m - r sums
    them through the data-driven :func:`magnitude_map` permutation, which
    restores the convention that indices increase as coefficients decay
    and is what the error bound reads.  Only that one ranked tier is kept,
    as the array ``ranked_tier``, so the caller passes ``r``.

    ``values`` has shape (k, p) and holds the integrand values at the
    points the ledger adds, so k fixes the level: all 2**m points, or with
    ``previous`` (the level m-1 ledger of the same generator) the 2**(m-1)
    new ones.  The transform then runs on the new half only: the level-m
    coefficients are ((a + b) / 2, (a - b) / 2) with a the previous
    coefficients and b the transform of the new half.  For a digital
    ledger this is the last butterfly stage of :func:`fwht` and gives the
    same bits.  For a lattice ledger b is first multiplied by w**kappa,
    w = exp(-2 pi i / n): the previous points are the even nodes of level
    m and the new ones the odd nodes, so this is the last radix-2
    decimation-in-time stage of the DFT.  ``values`` is only read.

    A ledger keeps its coefficients, for the next level's butterfly, and
    neither the values nor the magnitudes.  It ranks on the first read of
    ``tiers`` or ``ranked_tier``, once the caller has dropped the values,
    and one output column at a time: one column of magnitudes and the
    n/2 tournament buffer of :func:`magnitude_map` are live beside the
    coefficients, for any p.
    """

    def __init__(self, generator, values: np.ndarray,
                 previous: CoefficientLedger | None = None, *, r: int):
        if values.ndim != 2:
            raise ValueError(f"expected (k, p) values, got shape {values.shape}")
        m = _check_pow2(values.shape[0]) if previous is None else previous.m + 1
        if previous is not None and (previous.generator is not generator
                                     or values.shape != (previous.n, previous.outputs)):
            raise ValueError(f"expected ({previous.n}, {previous.outputs}) values for level {m} "
                             f"on the generator of level {previous.m}, got {values.shape}")
        if not 1 <= r <= m:
            raise ValueError(f"r={r} must lie in [1, m] for level m={m}")
        self.generator = generator
        self.m = m
        self.r = r
        digital = generator.family == "digital"
        coef = fwht(values) if digital else lattice_dft(values)
        if previous is not None:
            if not digital:
                coef *= _twiddle(self.n)
            coef = _butterfly(previous._coef, coef)
        # kept for the next level's butterfly
        self._coef = coef
        self.mean = coef[0].real.copy()

    @functools.cached_property
    def _readings(self) -> tuple[np.ndarray, np.ndarray]:
        """(tiers, ranked tier m - r), taken one output column at a time."""
        ell = self.m - self.r
        lo, hi = (0, 1) if ell == 0 else (1 << (ell - 1), 1 << ell)
        tiers = np.empty((self.m + 1, self.outputs))
        ranked = np.empty(self.outputs)
        magnitudes = np.empty(self.n)
        for j in range(self.outputs):
            np.abs(self._coef[:, j], out=magnitudes)
            tiers[:, j] = tier_sums(magnitudes)
            # the reduction tier_sums applies to this range, so the bits match
            ranked[j] = np.add.reduceat(magnitudes[magnitude_map(magnitudes, hi)[lo:]], [0])[0]
        return tiers, ranked

    @property
    def tiers(self) -> np.ndarray:
        """Natural-order tier sums, shape (m + 1, p)."""
        return self._readings[0]

    @property
    def ranked_tier(self) -> np.ndarray:
        """Ranked tier m - r, one sum per output."""
        return self._readings[1]

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def outputs(self) -> int:
        return self.mean.shape[0]

    def coefficients(self) -> np.ndarray:
        """Signed (digital) or complex (lattice) coefficients, natural index order."""
        return self._coef.copy()


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
            if vals.ndim != 2 or vals.shape[0] != batch.count:
                raise ValueError(
                    f"integrand must return shape (n,) or (n, p) for n = {batch.count} "
                    f"points, got shape {vals.shape}"
                )
            if out[k] is None:
                out[k] = np.empty((count, vals.shape[1]))
            elif vals.shape[1] != out[k].shape[1]:
                raise ValueError(
                    f"integrand returned {vals.shape[1]} outputs at point index "
                    f"{start + lo}, after {out[k].shape[1]} before it"
                )
            finite = np.isfinite(vals)
            if not finite.all():
                where = int(np.nonzero(~finite.all(axis=1))[0][0])
                raise EvaluationError(start + lo + where, vals[where])
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
    return CoefficientLedger(generator, values, previous, r=r)
