"""Low-discrepancy point sequences with group structure over dyadic blocks.

Two families are provided:

* base-2 digital (Sobol'-type) sequences, optionally scrambled by random
  lower-triangular bit matrices and displaced by a digital (XOR) shift;
* rank-1 lattice node sequences in van der Corput order, displaced by an
  ordinary shift modulo 1.

For both families the first ``2**m`` unshifted points form a group under
the family's addition (digit-wise XOR, respectively addition mod 1), and
the first ``2**m`` points always contain the first ``2**(m-1)``.  Points
are generated in natural index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

PRECISION = 52
_SCALE = 2.0**-PRECISION
_DEFAULT_DIRECTION_RESOURCE = "joe-kuo-6.1024.txt"
_DEFAULT_LATTICE_RESOURCE = "lattice-m20.600.txt"
_DEFAULT_LATTICE_M_MAX = 20


class DirectionTableError(ValueError):
    """Malformed direction-number table or unsupported dimension."""


class LatticeVectorError(ValueError):
    """Malformed generating-vector file or unsupported dimension."""


class IndexRangeError(ValueError):
    """Requested point indices exceed the generator's capacity."""


@dataclass(frozen=True)
class PointBatch:
    """A contiguous block of sequence points.

    Row ``i`` holds the point with global index ``start + i``; all
    coordinates lie in [0, 1).
    """

    start: int
    points: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _parse_direction_text(text: str) -> list[tuple[int, list[int]]]:
    """Parse a Joe-Kuo style table into (dimension, initial m values) rows."""
    rows: list[tuple[int, list[int]]] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines[1:], start=2):  # header line skipped
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 4:
            raise DirectionTableError(
                f"line {lineno}: expected 'd s a m_1 ... m_s', got {len(parts)} fields"
            )
        try:
            d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
            m = [int(tok) for tok in parts[3:]]
        except ValueError as exc:
            raise DirectionTableError(f"line {lineno}: non-integer field ({exc})") from None
        if s < 1 or len(m) != s:
            raise DirectionTableError(
                f"line {lineno}: degree s={s} does not match {len(m)} initial values"
            )
        if a < 0 or a >= 1 << max(s - 1, 0):
            raise DirectionTableError(f"line {lineno}: coefficient a={a} out of range")
        for k, mk in enumerate(m, start=1):
            if mk <= 0 or mk % 2 == 0 or mk >= 1 << k:
                raise DirectionTableError(
                    f"line {lineno}: initial value m_{k}={mk} must be odd and < 2^{k}"
                )
        rows.append((d, (a, m)))
    return rows


def _columns_from_row(a: int, m_init: list[int]) -> np.ndarray:
    """Expand one table row into 52 direction integers (column j = input bit j)."""
    s = len(m_init)
    m = list(m_init)
    for k in range(s, PRECISION):
        # recurrence: m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1}
        #                   ^ 2^s m_{k-s} ^ m_{k-s}
        mk = m[k - s] ^ (m[k - s] << s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                mk ^= m[k - i] << i
        m.append(mk)
    cols = np.zeros(PRECISION, dtype=np.uint64)
    for k in range(1, PRECISION + 1):
        cols[k - 1] = np.uint64(m[k - 1] << (PRECISION - k))
    return cols


def _radical_inverse_columns() -> np.ndarray:
    """Columns of the identity generator matrix (plain radical inverse)."""
    return np.array([1 << (PRECISION - 1 - j) for j in range(PRECISION)], dtype=np.uint64)


def _apply_scramble(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Left-multiply direction integers by a bit matrix given as row masks.

    ``rows[r]`` is the mask of row r+1 (digit r+1 of the output); output
    digit r+1 is the parity of ``rows[r] & col``.
    """
    par = np.bitwise_count(rows[:, None] & cols[None, :]).astype(np.uint64) & np.uint64(1)
    weights = np.array([1 << (PRECISION - 1 - r) for r in range(PRECISION)], dtype=np.uint64)
    return (par * weights[:, None]).sum(axis=0, dtype=np.uint64)


def _identity_scramble_rows() -> np.ndarray:
    return np.array([1 << (PRECISION - 1 - r) for r in range(PRECISION)], dtype=np.uint64)


class DigitalGenerator:
    """Scrambled, digitally shifted base-2 digital sequence.

    Parameters
    ----------
    base_columns : (d, 52) uint64 array
        Direction integers per coordinate; column j corresponds to input
        index bit j, with the first fractional digit in bit 51.
    scramble_rows : (d, 52) uint64 array, optional
        Row masks of the lower-triangular scramble matrix per coordinate
        (unit diagonal).  Defaults to the identity.
    shift : (d,) uint64 array, optional
        Digital shift per coordinate, 52 fractional bits.  Defaults to 0.
    """

    family = "digital"

    def __init__(self, base_columns, scramble_rows=None, shift=None):
        self.base_columns = np.asarray(base_columns, dtype=np.uint64)
        d = self.base_columns.shape[0]
        if scramble_rows is None:
            scramble_rows = np.tile(_identity_scramble_rows(), (d, 1))
            self.columns = self.base_columns
        else:
            scramble_rows = np.asarray(scramble_rows, dtype=np.uint64)
            self.columns = np.stack(
                [_apply_scramble(scramble_rows[c], self.base_columns[c]) for c in range(d)]
            )
        self.scramble_rows = scramble_rows
        self.shift = (
            np.zeros(d, dtype=np.uint64) if shift is None else np.asarray(shift, dtype=np.uint64)
        )
        self.max_level = PRECISION
        # Byte-indexed XOR tables: combining per-byte lookups reproduces the
        # XOR of the columns selected by the index bits.
        ngroups = (PRECISION + 7) // 8
        tables = np.zeros((d, ngroups, 256), dtype=np.uint64)
        for t in range(ngroups):
            for v in range(1, 256):
                low = v & -v
                b = 8 * t + low.bit_length() - 1
                col = self.columns[:, b] if b < PRECISION else np.uint64(0)
                tables[:, t, v] = tables[:, t, v & (v - 1)] ^ col
        self._tables = tables

    @property
    def dimension(self) -> int:
        return self.base_columns.shape[0]

    def point_integers(self, start: int, count: int, dim: int | None = None) -> np.ndarray:
        """Shifted, scrambled points as 52-bit integers, shape (count, dim)."""
        dim = self.dimension if dim is None else dim
        if dim > self.dimension:
            raise DirectionTableError(
                f"requested dimension {dim} exceeds table capacity {self.dimension}"
            )
        if start < 0 or count < 0 or start + count > 1 << PRECISION:
            raise IndexRangeError(f"index range [{start}, {start + count}) out of bounds")
        idx = np.arange(start, start + count, dtype=np.uint64)
        out = np.zeros((dim, count), dtype=np.uint64)
        top = int(start + count - 1).bit_length() if count else 0
        for t in range((top + 7) // 8):
            bytes_t = ((idx >> np.uint64(8 * t)) & np.uint64(0xFF)).astype(np.intp)
            out ^= self._tables[:dim, t, bytes_t]
        out ^= self.shift[:dim, None]
        return out.T

    def points(self, start: int, count: int, dim: int | None = None) -> PointBatch:
        """Generate points x_i = scramble(z_i) xor shift in natural order."""
        ints = self.point_integers(start, count, dim)
        return PointBatch(start=start, points=ints.astype(np.float64) * _SCALE)


def bit_reverse(idx: np.ndarray, bits: int) -> np.ndarray:
    """Reverse the low ``bits`` bits of each uint64 index."""
    rev = np.zeros_like(idx)
    for b in range(bits):
        rev |= ((idx >> np.uint64(b)) & np.uint64(1)) << np.uint64(bits - 1 - b)
    return rev


class LatticeGenerator:
    """Shifted rank-1 lattice node sequence in van der Corput order.

    The unshifted node with index i is frac(phi2(i) * g) where phi2 is the
    base-2 radical inverse and g the integer generating vector; the first
    ``2**m_max`` nodes exhaust the modulus.
    """

    family = "lattice"

    def __init__(self, generating_vector, m_max: int, shift=None):
        g = np.asarray(generating_vector, dtype=np.int64)
        if g.ndim != 1 or g.size == 0:
            raise LatticeVectorError("generating vector must be a nonempty 1-D integer array")
        if m_max < 1 or m_max > 40:
            raise LatticeVectorError(f"unsupported m_max={m_max}")
        self.generating_vector = g
        self.m_max = m_max
        self.max_level = m_max
        d = g.size
        self.shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=np.float64)

    @property
    def dimension(self) -> int:
        return self.generating_vector.size

    def points(self, start: int, count: int, dim: int | None = None) -> PointBatch:
        dim = self.dimension if dim is None else dim
        if dim > self.dimension:
            raise LatticeVectorError(
                f"requested dimension {dim} exceeds vector length {self.dimension}"
            )
        if start < 0 or count < 0 or start + count > 1 << self.m_max:
            raise IndexRangeError(
                f"index range [{start}, {start + count}) exceeds modulus 2^{self.m_max}"
            )
        rev = bit_reverse(np.arange(start, start + count, dtype=np.uint64), self.m_max)
        phi = rev.astype(np.float64) * 2.0**-self.m_max
        # phi * g is exact in binary64 (at most 2*m_max < 53 bits) and must
        # be reduced mod 1 before the shift is added, or the shift's low
        # bits are lost against the large integer part.
        coords = phi[:, None] * self.generating_vector[None, :dim].astype(np.float64)
        coords = np.mod(np.mod(coords, 1.0) + self.shift[None, :dim], 1.0)
        return PointBatch(start=start, points=coords)


def load_direction_numbers(text: str, dimension: int | None = None) -> DigitalGenerator:
    """Build an unscrambled, unshifted digital generator from table text.

    The text follows the Joe-Kuo layout: a header line, then one line per
    dimension ``d s a m_1 ... m_s``.  Dimension 1 is the plain radical
    inverse and is implicit.  ``dimension`` selects how many coordinates to
    build (default: all listed).
    """
    rows = _parse_direction_text(text)
    capacity = 1 + len(rows)
    if dimension is None:
        dimension = capacity
    if dimension < 1:
        raise DirectionTableError("dimension must be positive")
    if dimension > capacity:
        raise DirectionTableError(
            f"requested dimension {dimension} exceeds table capacity {capacity}"
        )
    cols = np.zeros((dimension, PRECISION), dtype=np.uint64)
    cols[0] = _radical_inverse_columns()
    for c in range(1, dimension):
        _, (a, m_init) = rows[c - 1]
        cols[c] = _columns_from_row(a, m_init)
    return DigitalGenerator(cols)


def load_lattice_vector(text: str, m_max: int, dimension: int | None = None) -> LatticeGenerator:
    """Build an unshifted lattice generator from a one-integer-per-line file."""
    comps: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            comps.append(int(line.strip()))
        except ValueError:
            raise LatticeVectorError(f"line {lineno}: not an integer: {line!r}") from None
    if dimension is None:
        dimension = len(comps)
    if dimension > len(comps):
        raise LatticeVectorError(
            f"requested dimension {dimension} exceeds vector length {len(comps)}"
        )
    return LatticeGenerator(np.array(comps[:dimension], dtype=np.int64), m_max=m_max)


@functools.lru_cache(maxsize=4)
def _packaged_text(name: str) -> str:
    return resources.files("qmcube.data").joinpath(name).read_text(encoding="ascii")


def default_digital_generator(dimension: int) -> DigitalGenerator:
    """Unscrambled template backed by the packaged direction-number table."""
    return load_direction_numbers(_packaged_text(_DEFAULT_DIRECTION_RESOURCE), dimension)


def default_lattice_generator(dimension: int, m_max: int = _DEFAULT_LATTICE_M_MAX) -> LatticeGenerator:
    """Unshifted template backed by the packaged generating vector."""
    return load_lattice_vector(_packaged_text(_DEFAULT_LATTICE_RESOURCE), m_max, dimension)


def randomize_digital(template: DigitalGenerator, seed) -> DigitalGenerator:
    """Draw an independent scramble and digital shift for every coordinate.

    Scramble matrices are lower triangular with unit diagonal, so the
    scrambled points remain a digital net; the same seed reproduces the
    generator bit for bit (PCG64 stream).
    """
    rng = np.random.default_rng(seed)
    d = template.dimension
    rows = np.zeros((d, PRECISION), dtype=np.uint64)
    for c in range(d):
        raw = rng.integers(0, 1 << PRECISION, size=PRECISION, dtype=np.int64).astype(np.uint64)
        for r in range(1, PRECISION + 1):
            sub = (raw[r - 1] & np.uint64((1 << (r - 1)) - 1)) << np.uint64(PRECISION + 1 - r)
            rows[c, r - 1] = sub | np.uint64(1 << (PRECISION - r))
    shift = rng.integers(0, 1 << PRECISION, size=d, dtype=np.int64).astype(np.uint64)
    return DigitalGenerator(template.base_columns, scramble_rows=rows, shift=shift)


def randomize_lattice(template: LatticeGenerator, seed) -> LatticeGenerator:
    """Draw a uniform shift modulo 1 for every coordinate."""
    rng = np.random.default_rng(seed)
    shift = rng.random(template.dimension)
    return LatticeGenerator(template.generating_vector, template.m_max, shift=shift)


def make_generator(family: str, dimension: int, seed, m_max: int = _DEFAULT_LATTICE_M_MAX):
    """Randomized generator of the requested family backed by packaged data."""
    if family == "digital":
        return randomize_digital(default_digital_generator(dimension), seed)
    if family == "lattice":
        return randomize_lattice(default_lattice_generator(dimension, m_max), seed)
    raise ValueError(f"unknown family {family!r}; expected 'digital' or 'lattice'")
