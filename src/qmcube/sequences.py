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
# Bits of the float 1.0: OR-ed into an integer k < 2**52 they give the
# float 1 + k * 2**-52.
_ONE_BITS = np.float64(1.0).view(np.uint64)
_DEFAULT_DIRECTION_RESOURCE = "joe-kuo-6.1024.txt"
_DEFAULT_LATTICE_RESOURCE = "lattice-m20.600.txt"
_DEFAULT_LATTICE_M_MAX = 20
# Weight of fractional digit r + 1, which is also column r of the identity
# generator matrix (the plain radical inverse).
_DIGIT_SHIFTS = np.arange(PRECISION - 1, -1, -1, dtype=np.uint64)
_DIGITS = np.uint64(1) << _DIGIT_SHIFTS
# Row r of a scramble matrix (digit r + 1) keeps the low r bits of its draw,
# moved up to the r places left of its unit diagonal.
_ROW_LOW_MASKS = _DIGITS[::-1] - np.uint64(1)
_ROW_SHIFTS = np.arange(PRECISION, 0, -1, dtype=np.uint64)
# Coordinates per block of the scramble: it bounds the work space of
# _apply_scramble, not a setting.
_SCRAMBLE_COORDINATES = 16


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
    parity of ``rows[c, r] & cols[c, j]``.  Each block of at most
    ``_SCRAMBLE_COORDINATES`` coordinates takes four whole-array passes:
    AND every column with every row, taking the rows last digit first so
    that digit r+1 sits at place 51 - r; count the bits of each product;
    keep their parity; pack the 52 parities of each column, padded with
    zeros to 64, into one little-endian integer.  The work space is one
    block's (block, 52, 52) products and (block, 52, 64) parity bytes,
    about 400 KiB at any d.
    """
    d = cols.shape[0]
    block = min(d, _SCRAMBLE_COORDINATES)
    reversed_rows = rows[:, ::-1]
    products = np.empty((block, PRECISION, PRECISION), dtype=np.uint64)
    parities = np.zeros((block, PRECISION, 64), dtype=np.uint8)  # places 52-63 stay 0
    out = np.empty((d, PRECISION), dtype=np.uint64)
    for lo in range(0, d, block):
        k = min(block, d - lo)
        prod, par = products[:k], parities[:k]
        np.bitwise_and(cols[lo : lo + k, :, None], reversed_rows[lo : lo + k, None, :], out=prod)
        np.bitwise_count(prod, out=par[:, :, :PRECISION])
        par &= 1
        packed = np.packbits(par.reshape(-1), bitorder="little")
        out[lo : lo + k] = packed.view("<u8").reshape(k, PRECISION)
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


def _unit_floats(ints: np.ndarray) -> np.ndarray:
    """Integers k < 2**52 turned in place into the floats k * 2**-52.

    OR-ing in the bits of 1.0 makes the mantissa of 1 + k * 2**-52, and
    subtracting 1 is exact, so this equals ``ints * 2.0**-52`` bit for bit
    without a second array.  Returns the float view of ``ints``.
    """
    ints |= _ONE_BITS
    floats = ints.view(np.float64)
    floats -= 1.0
    return floats


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
        return PointBatch(start=start, points=_unit_floats(self.point_integers(start, count)))


class LatticeGenerator:
    """Shifted rank-1 lattice node sequence in van der Corput order.

    The unshifted node with index i is frac(phi2(i) * g) where phi2 is the
    base-2 radical inverse and g the integer generating vector, whose
    components must be positive and odd; the first ``2**m_max`` nodes
    exhaust the modulus, so ``max_level`` is m_max.  ``shift`` has one
    entry in [0, 1) per coordinate (default 0).
    """

    family = "lattice"

    def __init__(self, generating_vector, m_max: int, shift=None):
        g = np.asarray(generating_vector, dtype=np.int64)
        if g.ndim != 1 or g.size == 0:
            raise LatticeVectorError("generating vector must be a nonempty 1-D integer array")
        # A zero component pins its coordinate to the shift, and an even one
        # repeats nodes at every level.  A list scan beats numpy's per-call
        # overhead at the usual few dozen components.
        bad = [i for i, c in enumerate(g.tolist()) if c <= 0 or c % 2 == 0]
        if bad:
            raise LatticeVectorError(
                f"generating vector component {bad[0]} is {g[bad[0]]}; "
                "every component must be a positive odd integer"
            )
        if m_max < 1 or m_max > 40:
            raise LatticeVectorError(f"unsupported m_max={m_max}")
        self.generating_vector = g
        self.max_level = m_max
        d = g.size
        if shift is None:
            self.shift = np.zeros(d)
        else:
            self.shift = np.asarray(shift, dtype=np.float64)
            # A NaN minimum fails the comparison, so this also requires a finite shift.
            if self.shift.shape != (d,) or not (0.0 <= self.shift.min() and self.shift.max() < 1.0):
                raise LatticeVectorError(f"shift must have shape ({d},) with entries in [0, 1)")

    @property
    def dimension(self) -> int:
        return self.generating_vector.size

    def points(self, start: int, count: int) -> PointBatch:
        if start < 0 or count < 0 or start + count > 1 << self.max_level:
            raise IndexRangeError(
                f"index range [{start}, {start + count}) exceeds modulus 2^{self.max_level}"
            )
        # Node integer i is rev(i) * g mod 2**m_max, the sum of
        # g * 2**(m_max-1-b) over the set bits b of i.  The steps are scaled
        # by 2**(52-m_max), so the sums hold node * 2**(52-m_max), the
        # node's 52-bit fraction.  uint64 arithmetic wraps mod 2**64, a
        # multiple of 2**52, so one mask at the end reduces every node
        # exactly.  The shift is added last; node and shift both lie in
        # [0, 1), so the sum is below 2 and mod 1 subtracts 1 where it
        # reaches 1.
        m = self.max_level
        steps = self.generating_vector.astype(np.uint64)[:, None] << np.arange(
            PRECISION - 1, PRECISION - 1 - m, -1, dtype=np.uint64
        )
        nodes = _doubled_points(start, count, steps, np.zeros(self.dimension, np.uint64), np.add).T
        nodes &= np.uint64((1 << PRECISION) - 1)
        coords = _unit_floats(nodes)
        coords += self.shift
        coords -= coords >= 1.0
        return PointBatch(start=start, points=coords)


def load_direction_numbers(text: str, dimension: int | None = None) -> DigitalGenerator:
    """Build an unscrambled, unshifted digital generator from table text.

    The text follows the Joe-Kuo layout: a header line, then one line per
    dimension ``d s a m_1 ... m_s``.  Dimension 1 is the plain radical
    inverse and is implicit.  ``dimension`` selects how many coordinates to
    build (default: all listed).
    """
    return _generator_from_rows(_parse_direction_text(text), dimension)


def _digital_template(capacity: int, dimension: int | None, row_columns) -> DigitalGenerator:
    """Generator of the radical inverse, then ``row_columns(c)`` for coordinates c >= 1."""
    if dimension is None:
        dimension = capacity
    if dimension < 1:
        raise DirectionTableError("dimension must be positive")
    if dimension > capacity:
        raise DirectionTableError(
            f"requested dimension {dimension} exceeds table capacity {capacity}"
        )
    cols = np.concatenate([_DIGITS, *map(row_columns, range(1, dimension))])
    return DigitalGenerator(cols.reshape(dimension, PRECISION))


def _generator_from_rows(rows, dimension: int | None) -> DigitalGenerator:
    """Generator from parsed table rows, each row expanded on this call."""
    return _digital_template(1 + len(rows), dimension, lambda c: _columns_from_row(*rows[c - 1]))


def _parse_lattice_text(text: str) -> np.ndarray:
    """The integers of a one-integer-per-line file (blank lines skipped)."""
    comps: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            comps.append(int(line.strip()))
        except ValueError:
            raise LatticeVectorError(f"line {lineno}: not an integer: {line!r}") from None
    return np.array(comps, dtype=np.int64)


def _lattice_from_components(comps: np.ndarray, m_max: int, dimension: int | None) -> LatticeGenerator:
    """Generator owning a copy of the first ``dimension`` components."""
    if dimension is None:
        dimension = comps.size
    if dimension < 1:
        raise LatticeVectorError("dimension must be positive")
    if dimension > comps.size:
        raise LatticeVectorError(
            f"requested dimension {dimension} exceeds vector length {comps.size}"
        )
    return LatticeGenerator(comps[:dimension].copy(), m_max=m_max)


def load_lattice_vector(text: str, m_max: int, dimension: int | None = None) -> LatticeGenerator:
    """Build an unshifted lattice generator from a one-integer-per-line file."""
    return _lattice_from_components(_parse_lattice_text(text), m_max, dimension)


def _packaged_text(name: str) -> str:
    return resources.files("qmcube.data").joinpath(name).read_text(encoding="ascii")


@functools.cache
def _packaged_direction_rows(name: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The packaged table, parsed and validated once per process (immutable rows)."""
    return _parse_direction_text(_packaged_text(name))


@functools.cache
def _packaged_direction_columns(name: str, c: int) -> np.ndarray:
    """Columns of coordinate c >= 1 of the packaged table, expanded on first use (read-only)."""
    cols = _columns_from_row(*_packaged_direction_rows(name)[c - 1])
    cols.flags.writeable = False
    return cols


@functools.cache
def _packaged_lattice_components(name: str) -> np.ndarray:
    """The packaged generating vector, parsed once per process (read-only)."""
    comps = _parse_lattice_text(_packaged_text(name))
    comps.flags.writeable = False
    return comps


def default_digital_generator(dimension: int) -> DigitalGenerator:
    """Unscrambled template backed by the packaged direction-number table.

    The table is parsed once per process and each of its rows is expanded
    the first time a template needs it; every template gets its own copy
    of the columns.
    """
    name = _DEFAULT_DIRECTION_RESOURCE
    capacity = 1 + len(_packaged_direction_rows(name))
    return _digital_template(capacity, dimension, lambda c: _packaged_direction_columns(name, c))


def default_lattice_generator(dimension: int, m_max: int = _DEFAULT_LATTICE_M_MAX) -> LatticeGenerator:
    """Unshifted template backed by the packaged generating vector.

    The vector is parsed once per process; every template gets its own
    copy of the first ``dimension`` components.
    """
    return _lattice_from_components(
        _packaged_lattice_components(_DEFAULT_LATTICE_RESOURCE), m_max, dimension
    )


def randomize_digital(template: DigitalGenerator, seed) -> DigitalGenerator:
    """Draw an independent scramble and digital shift for every coordinate.

    Scramble matrices are lower triangular with unit diagonal, so the
    scrambled points remain a digital net; the same seed reproduces the
    generator bit for bit (PCG64 stream: every scramble row, then every
    shift).  The scramble acts on ``template.columns``: a template that is
    itself scrambled gets a second scramble on top of its own.  The
    product runs over blocks of coordinates (see ``_apply_scramble``), so
    its work space stays about 400 KiB at any dimension.
    """
    rng = np.random.default_rng(seed)
    d = template.dimension
    # Draws are below 2**52, so their int64 bits read as the same uint64.
    rows = rng.integers(0, 1 << PRECISION, size=(d, PRECISION), dtype=np.int64).view(np.uint64)
    rows &= _ROW_LOW_MASKS
    rows <<= _ROW_SHIFTS
    rows |= _DIGITS
    shift = rng.integers(0, 1 << PRECISION, size=d, dtype=np.int64).view(np.uint64)
    return DigitalGenerator(_apply_scramble(rows, template.columns), shift)


def randomize_lattice(template: LatticeGenerator, seed) -> LatticeGenerator:
    """Draw a uniform shift modulo 1 for every coordinate."""
    rng = np.random.default_rng(seed)
    shift = rng.random(template.dimension)
    return LatticeGenerator(template.generating_vector, template.max_level, shift=shift)


def make_generator(family: str, dimension: int, seed, m_max: int = _DEFAULT_LATTICE_M_MAX):
    """Randomized generator of the requested family backed by packaged data."""
    if family == "digital":
        return randomize_digital(default_digital_generator(dimension), seed)
    if family == "lattice":
        return randomize_lattice(default_lattice_generator(dimension, m_max), seed)
    raise ValueError(f"unknown family {family!r}; expected 'digital' or 'lattice'")
