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
# Weight of fractional digit r + 1, which is also column r of the identity
# generator matrix (the plain radical inverse).
_DIGIT_SHIFTS = np.arange(PRECISION - 1, -1, -1, dtype=np.uint64)
_DIGITS = np.uint64(1) << _DIGIT_SHIFTS


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
    coordinates lie in [0, 1).  ``points`` is read-only.
    """

    start: int
    points: np.ndarray

    def __post_init__(self):
        # A read-only view: integrands may cache per-batch work keyed on the
        # array's identity, which is only sound if the values cannot change.
        view = np.asarray(self.points).view()
        view.flags.writeable = False
        object.__setattr__(self, "points", view)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _parse_direction_text(text: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Parse and validate a Joe-Kuo style table into (a, initial m values) rows."""
    rows: list[tuple[int, tuple[int, ...]]] = []
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
        rows.append((a, tuple(m)))
    return tuple(rows)


def _columns_from_row(a: int, m_init: tuple[int, ...]) -> np.ndarray:
    """Expand one table row into 52 direction integers (column j = input bit j)."""
    s = len(m_init)
    # recurrence: m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1}
    #                   ^ 2^s m_{k-s} ^ m_{k-s}
    taps = [i for i in range(1, s) if (a >> (s - 1 - i)) & 1]
    m = list(m_init)
    for k in range(s, PRECISION):
        mk = m[k - s] ^ (m[k - s] << s)
        for i in taps:
            mk ^= m[k - i] << i
        m.append(mk)
    # m_k has k bits; column k - 1 puts its leading bit at bit 51.
    return np.array(m, dtype=np.uint64) << _DIGIT_SHIFTS


def _apply_scramble(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Left-multiply direction integers by bit matrices given as row masks.

    ``rows[c, r]`` is the mask of row r+1 (digit r+1 of the output) of
    coordinate c's matrix; output digit r+1 of ``cols[c, j]`` is the
    parity of ``rows[c, r] & cols[c, j]``.  One (d, 52) pass per digit
    keeps the work space at the size of ``cols``.
    """
    out = np.zeros_like(cols)
    for r, shift in enumerate(_DIGIT_SHIFTS):
        digit = np.bitwise_count(rows[:, r, None] & cols).astype(np.uint64)
        digit &= np.uint64(1)
        digit <<= shift
        out |= digit
    return out


def _dyadic_blocks(start: int, count: int):
    """Split [start, start + count) into aligned blocks (s, size): size = 2**k divides s."""
    while count:
        size = 1 << (count.bit_length() - 1)
        if start:
            size = min(size, start & -start)
        yield start, size
        start += size
        count -= size


def _doubled_points(start: int, count: int, steps: np.ndarray, base: np.ndarray, op) -> np.ndarray:
    """Points with indices [start, start + count) as integers, shape (d, count).

    Index i maps to ``base op steps[:, b]`` over the set bits b of i, where
    ``op`` is the family's group operation on uint64.  Each aligned block
    starts from its base point and doubles: the point with index
    s + j + 2**b is the one with index s + j op column b, for j < 2**b.
    """
    out = np.empty((steps.shape[0], count), dtype=np.uint64)
    for s, size in _dyadic_blocks(start, count):
        block = out[:, s - start : s - start + size]
        bits = [b for b in range(s.bit_length()) if s >> b & 1]
        block[:, 0] = op(op.reduce(steps[:, bits], axis=1), base)
        h = 1
        while h < size:
            op(block[:, :h], steps[:, h.bit_length() - 1, None], out=block[:, h : 2 * h])
            h *= 2
    return out


class DigitalGenerator:
    """Digitally shifted base-2 digital sequence.

    Parameters
    ----------
    columns : (d, 52) uint64 array
        Generator-matrix columns per coordinate, scrambled or not; column j
        corresponds to input index bit j, with the first fractional digit
        in bit 51.
    shift : (d,) uint64 array, optional
        Digital shift per coordinate, 52 fractional bits.  Defaults to 0.
    """

    family = "digital"
    max_level = PRECISION

    def __init__(self, columns, shift=None):
        self.columns = np.asarray(columns, dtype=np.uint64)
        if self.columns.ndim != 2 or self.columns.shape[0] < 1 or self.columns.shape[1] != PRECISION:
            raise ValueError(
                f"columns must have shape (d >= 1, {PRECISION}), got {self.columns.shape}"
            )
        d = self.columns.shape[0]
        self.shift = (
            np.zeros(d, dtype=np.uint64) if shift is None else np.asarray(shift, dtype=np.uint64)
        )
        if self.shift.shape != (d,):
            raise ValueError(f"shift must have shape ({d},), got {self.shift.shape}")

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    def point_integers(self, start: int, count: int) -> np.ndarray:
        """Shifted points as 52-bit integers, shape (count, d): index i is
        the shift XOR the columns of i's set bits."""
        if start < 0 or count < 0 or start + count > 1 << PRECISION:
            raise IndexRangeError(f"index range [{start}, {start + count}) out of bounds")
        return _doubled_points(start, count, self.columns, self.shift, np.bitwise_xor).T

    def points(self, start: int, count: int) -> PointBatch:
        """Generate points x_i = C z_i xor shift in natural order."""
        points = self.point_integers(start, count).astype(np.float64)
        points *= _SCALE
        return PointBatch(start=start, points=points)


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

    def points(self, start: int, count: int) -> PointBatch:
        if start < 0 or count < 0 or start + count > 1 << self.m_max:
            raise IndexRangeError(
                f"index range [{start}, {start + count}) exceeds modulus 2^{self.m_max}"
            )
        # Node integer i is rev(i) * g mod 2**m_max, the sum of
        # g * 2**(m_max-1-b) over the set bits b of i.  uint64 arithmetic
        # wraps mod 2**64, a multiple of the modulus, so one mask at the end
        # reduces every node exactly.
        m = self.m_max
        steps = self.generating_vector.astype(np.uint64)[:, None] << np.arange(
            m - 1, -1, -1, dtype=np.uint64
        )
        nodes = _doubled_points(start, count, steps, np.zeros(self.dimension, np.uint64), np.add).T
        nodes &= np.uint64((1 << m) - 1)
        # Exact in binary64 (m_max <= 40); the shift is added last, mod 1.
        coords = nodes.astype(np.float64)
        coords *= 2.0**-m
        coords += self.shift
        coords -= np.floor(coords)
        return PointBatch(start=start, points=coords)


def load_direction_numbers(text: str, dimension: int | None = None) -> DigitalGenerator:
    """Build an unscrambled, unshifted digital generator from table text.

    The text follows the Joe-Kuo layout: a header line, then one line per
    dimension ``d s a m_1 ... m_s``.  Dimension 1 is the plain radical
    inverse and is implicit.  ``dimension`` selects how many coordinates to
    build (default: all listed).
    """
    return _generator_from_rows(_parse_direction_text(text), dimension)


def _generator_from_rows(rows, dimension: int | None) -> DigitalGenerator:
    """Generator from parsed table rows: the radical inverse, then one row per coordinate."""
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
    cols[0] = _DIGITS
    for c in range(1, dimension):
        cols[c] = _columns_from_row(*rows[c - 1])
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
    if dimension < 1:
        raise LatticeVectorError("dimension must be positive")
    if dimension > len(comps):
        raise LatticeVectorError(
            f"requested dimension {dimension} exceeds vector length {len(comps)}"
        )
    return LatticeGenerator(np.array(comps[:dimension], dtype=np.int64), m_max=m_max)


@functools.lru_cache(maxsize=4)
def _packaged_text(name: str) -> str:
    return resources.files("qmcube.data").joinpath(name).read_text(encoding="ascii")


@functools.cache
def _packaged_direction_rows(name: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The packaged table, parsed and validated once per process (immutable rows)."""
    return _parse_direction_text(_packaged_text(name))


def default_digital_generator(dimension: int) -> DigitalGenerator:
    """Unscrambled template backed by the packaged direction-number table."""
    return _generator_from_rows(_packaged_direction_rows(_DEFAULT_DIRECTION_RESOURCE), dimension)


def default_lattice_generator(dimension: int, m_max: int = _DEFAULT_LATTICE_M_MAX) -> LatticeGenerator:
    """Unshifted template backed by the packaged generating vector."""
    return load_lattice_vector(_packaged_text(_DEFAULT_LATTICE_RESOURCE), m_max, dimension)


def randomize_digital(template: DigitalGenerator, seed) -> DigitalGenerator:
    """Draw an independent scramble and digital shift for every coordinate.

    Scramble matrices are lower triangular with unit diagonal, so the
    scrambled points remain a digital net; the same seed reproduces the
    generator bit for bit (PCG64 stream).  The scramble acts on
    ``template.columns``: a template that is itself scrambled gets a
    second scramble on top of its own.
    """
    rng = np.random.default_rng(seed)
    d = template.dimension
    raw = rng.integers(0, 1 << PRECISION, size=(d, PRECISION), dtype=np.int64).astype(np.uint64)
    # Row r (digit r + 1) keeps the low r bits of its draw as its entries
    # left of the unit diagonal.
    low = raw & (_DIGITS[::-1] - np.uint64(1))
    rows = (low << np.arange(PRECISION, 0, -1, dtype=np.uint64)) | _DIGITS
    shift = rng.integers(0, 1 << PRECISION, size=d, dtype=np.int64).astype(np.uint64)
    columns = _apply_scramble(rows, template.columns)
    return DigitalGenerator(columns, shift)


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
