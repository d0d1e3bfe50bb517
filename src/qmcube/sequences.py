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
import math
import numbers
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

PRECISION = 52
# Bits of the float 1.0: OR-ed into an integer k < 2**52 they give the
# float 1 + k * 2**-52.
_ONE_BITS = np.float64(1.0).view(np.uint64)
# Coordinates per point block: 2**16 float64 values, 512 KiB, so a block's
# points and an integrand's temporaries of the same size stay in a 2 MiB L2
# cache.  It sizes the engine's evaluation blocks and each generator's table.
_BLOCK_COORDINATES = 1 << 16
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

    All coordinates lie in [0, 1).  ``points`` is read-only.
    """

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


def _parse_direction_text(text: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Parse and validate a Joe-Kuo style table into (a, initial m values) rows.

    Line 1 is the header; data row j (blank lines skipped) names dimension j + 2."""
    rows: list[tuple[int, tuple[int, ...]]] = []
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if header and header[0].lstrip("+-").isdigit():
        raise DirectionTableError("line 1: got a data row where the header line belongs")
    for lineno, line in enumerate(lines[1:], start=2):
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
        if d != len(rows) + 2:
            raise DirectionTableError(
                f"line {lineno}: row names dimension {d}, expected dimension {len(rows) + 2}"
            )
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


@functools.lru_cache(maxsize=1024)
def _columns_from_row(a: int, m_init: tuple[int, ...]) -> np.ndarray:
    """Expand one table row into 52 direction integers (column j = input bit j).

    Cached by row contents for packaged and user tables alike, up to the
    packaged table's size; the shared result is read-only."""
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
    cols = np.array(m, dtype=np.uint64) << _DIGIT_SHIFTS
    cols.flags.writeable = False
    return cols


def _apply_scramble(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Left-multiply direction integers by bit matrices given as row masks.

    ``rows[c, r]`` is the mask of row r+1 (digit r+1 of the output) of
    coordinate c's matrix; output digit r+1 of ``cols[c, j]`` is the
    parity of ``rows[c, r] & cols[c, j]``.  ``cols`` has shape (d, k) for
    any k <= 52, so a lazy scramble multiplies only the columns it needs.
    Each block of at most ``_SCRAMBLE_COORDINATES`` coordinates takes four
    whole-array passes: AND every column with every row, taking the rows
    last digit first so that digit r+1 sits at place 51 - r; count the
    bits of each product; keep their parity; pack the 52 parities of each
    column, padded with zeros to 64, into one little-endian integer.  The
    work space is one block's (block, k, 52) products and (block, k, 64)
    parity bytes, about 400 KiB at any d when k = 52.
    """
    d, k = cols.shape
    block = min(d, _SCRAMBLE_COORDINATES)
    reversed_rows = rows[:, ::-1]
    products = np.empty((block, k, PRECISION), dtype=np.uint64)
    parities = np.zeros((block, k, 64), dtype=np.uint8)  # places 52-63 stay 0
    out = np.empty((d, k), dtype=np.uint64)
    for lo in range(0, d, block):
        c = min(block, d - lo)
        prod, par = products[:c], parities[:c]
        np.bitwise_and(cols[lo : lo + c, :, None], reversed_rows[lo : lo + c, None, :], out=prod)
        np.bitwise_count(prod, out=par[:, :, :PRECISION])
        par &= 1
        packed = np.packbits(par.reshape(-1), bitorder="little")
        out[lo : lo + c] = packed.view("<u8").reshape(c, k)
    return out


def _check_index_range(start: int, count: int, max_level: int) -> tuple[int, int]:
    """``start`` and ``count`` as Python ints, if they lie within capacity 2**max_level."""
    start = _integer_argument("start", start, IndexRangeError)
    count = _integer_argument("count", count, IndexRangeError)
    if start < 0 or count < 0 or start + count > 1 << max_level:
        raise IndexRangeError(f"index range [{start}, {start + count}) exceeds capacity 2^{max_level}")
    return start, count


def _dyadic_blocks(start: int, count: int):
    """Split [start, start + count) into aligned blocks (s, size): size = 2**k divides s."""
    while count:
        size = 1 << (count.bit_length() - 1)
        if start:
            size = min(size, start & -start)
        yield start, size
        start += size
        count -= size


def _block_rows(dimension: int) -> int:
    """Largest power of two with at most _BLOCK_COORDINATES coordinates per block."""
    return 1 << max((_BLOCK_COORDINATES // dimension).bit_length() - 1, 0)


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


def _doubled_points(start: int, count: int, steps: np.ndarray, base: np.ndarray, op,
                    table: np.ndarray) -> np.ndarray:
    """Points with indices [start, start + count) as integers, shape (d, count).

    Index i maps to ``base op steps[:, b]`` over the set bits b of i, where
    ``op`` is the family's group operation on uint64.  ``table[:, j]`` is
    the op-sum of ``steps[:, b]`` over the set bits b of j, for j below its
    width W, a power of two; it may also carry bits that op leaves alone
    (the digital table carries the bits of 1.0).  An aligned block of
    size 2**k starting at s has no set bit below k in s, so its first
    min(2**k, W) points are ``table[:, j] op point(s)`` in one pass; it
    doubles above W: the point with index s + j + 2**b is the one with
    index s + j op column b, for j < 2**b.
    """
    width = table.shape[1]
    out = np.empty((steps.shape[0], count), dtype=np.uint64)
    for s, size in _dyadic_blocks(start, count):
        block = out[:, s - start : s - start + size]
        bits = [b for b in range(s.bit_length()) if s >> b & 1]
        first = op(op.reduce(steps[:, bits], axis=1), base)
        h = min(size, width)
        op(table[:, :h], first[:, None], out=block[:, :h])
        while h < size:
            op(block[:, :h], steps[:, h.bit_length() - 1, None], out=block[:, h : 2 * h])
            h *= 2
    return out


def _point_table(steps: np.ndarray, origin: np.ndarray, op, max_level: int) -> np.ndarray:
    """Read-only integers of the first W points from ``origin``, shape (d, W).

    W is the engine's block rows for d coordinates, capped by the capacity
    2**max_level, so one evaluation block reads one table slice.  The
    table is built by doubling from a one-column table of the identity.
    A generator builds its table at its first ``points`` call, not at
    construction; concurrent first calls at worst build it twice.
    """
    d = steps.shape[0]
    width = min(_block_rows(d), 1 << max_level)
    table = _doubled_points(0, width, steps, origin, op, np.zeros((d, 1), dtype=np.uint64))
    table.flags.writeable = False
    return table


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
        Entries of both arrays must be below 2**52.

    A generator from ``randomize_digital`` holds its scramble's row masks
    and its template's columns instead, and scrambles column b the first
    time a ``points`` range, or the first build of its table, reaches
    index bit b.  Every call of ``_apply_scramble`` has a fixed cost, so a
    growth scrambles twice the columns it needs (capped at 52), which at
    least doubles the scrambled prefix.  At d = 52 the table reads 10
    columns, so the first ``points`` call scrambles at least 20, enough
    for 2**20 points.  A generator built from given columns has all 52
    done.  Reading ``columns`` completes the scramble and drops the rows
    and the template.
    """

    family = "digital"
    max_level = PRECISION

    def __init__(self, columns, shift=None):
        columns = _numeric_array("columns", columns, np.uint64, ValueError)
        if columns.ndim != 2 or columns.shape[0] < 1 or columns.shape[1] != PRECISION:
            raise ValueError(f"columns must have shape (d >= 1, {PRECISION}), got {columns.shape}")
        d = columns.shape[0]
        self.shift = (
            np.zeros(d, dtype=np.uint64)
            if shift is None
            else _numeric_array("shift", shift, np.uint64, ValueError)
        )
        if self.shift.shape != (d,):
            raise ValueError(f"shift must have shape ({d},), got {self.shift.shape}")
        # The points carry the bits of 1.0 above the entries' 52 bits; a
        # higher bit would land in a float's exponent or sign.
        for name, bits in (("columns", columns), ("shift", self.shift)):
            if bits.max() >= 1 << PRECISION:
                raise ValueError(f"{name} must fit in {PRECISION} bits, below 2**{PRECISION}")
        self._scramble = (_read_only_copy(columns), None, None)
        self._table = None

    @classmethod
    def _scrambled(cls, rows: np.ndarray, template: np.ndarray, shift: np.ndarray) -> DigitalGenerator:
        """Generator whose column b is ``_apply_scramble(rows, template[:, b])``, none done yet.

        The caller vouches for the bounds that ``__init__`` checks."""
        gen = cls.__new__(cls)
        gen.shift = shift
        gen._scramble = (np.empty((template.shape[0], 0), dtype=np.uint64), rows, template)
        gen._table = None
        return gen

    def _columns_through(self, k: int) -> np.ndarray:
        """Read-only scrambled columns, at least the first ``k`` of them.

        ``_scramble`` is one tuple (done columns, row masks, template
        columns), so the count of done columns, the width of the first
        entry, is published with the columns themselves.  Two concurrent
        growths at worst scramble a column twice, with identical bits.
        """
        done, rows, template = self._scramble
        have = done.shape[1]
        if have >= k:
            return done
        k = min(2 * k, PRECISION)
        done = np.concatenate([done, _apply_scramble(rows, template[:, have:k])], axis=1)
        done.flags.writeable = False
        self._scramble = (done, rows, template) if k < PRECISION else (done, None, None)
        return done

    @property
    def columns(self) -> np.ndarray:
        """The read-only (d, 52) generator-matrix columns; reading them completes the scramble."""
        return self._columns_through(PRECISION)

    @property
    def dimension(self) -> int:
        return self._scramble[0].shape[0]

    def points(self, start: int, count: int) -> PointBatch:
        """Generate points x_i = C z_i xor shift in natural order: the 52-bit
        integer of index i is the shift XOR the columns of i's set bits.

        The call first scrambles the columns its range and the table need
        (see ``_columns_through``).  The first call builds the generator's
        table of its first points (see ``_doubled_points``).  The table's
        entries carry the bits of 1.0, which XOR
        leaves alone, so every integer reads as the float 1 + x_i and one
        exact subtraction makes x_i.
        """
        start, count = _check_index_range(start, count, self.max_level)
        table_bits = _block_rows(self.dimension).bit_length() - 1
        cols = self._columns_through(max(table_bits, (start + count - 1).bit_length()))
        if self._table is None:
            origin = np.full(self.dimension, _ONE_BITS)
            self._table = _point_table(cols, origin, np.bitwise_xor, self.max_level)
        ints = _doubled_points(start, count, cols, self.shift, np.bitwise_xor, self._table)
        floats = ints.T.view(np.float64)
        floats -= 1.0
        return PointBatch(floats)


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
        g = _numeric_array("generating_vector", generating_vector, np.int64, LatticeVectorError)
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
        m_max = _integer_argument("m_max", m_max, LatticeVectorError)
        if m_max < 1 or m_max > 40:
            raise LatticeVectorError(f"unsupported m_max={m_max}")
        self.generating_vector = _read_only_copy(g)
        self.max_level = m_max
        d = g.size
        if shift is None:
            self.shift = np.zeros(d)
        else:
            self.shift = _numeric_array("shift", shift, np.float64, LatticeVectorError)
            # A NaN minimum fails the comparison, so this also requires a finite shift.
            if self.shift.shape != (d,) or not (0.0 <= self.shift.min() and self.shift.max() < 1.0):
                raise LatticeVectorError(f"shift must have shape ({d},) with entries in [0, 1)")
        self._steps = self._table = None

    @property
    def dimension(self) -> int:
        return self.generating_vector.size

    def points(self, start: int, count: int) -> PointBatch:
        """Shifted nodes with indices [start, start + count).

        The first call builds the doubling steps and the table of the
        first nodes (see ``_doubled_points``) from the read-only
        ``generating_vector`` and from ``max_level``.
        """
        start, count = _check_index_range(start, count, self.max_level)
        # Node integer i is rev(i) * g mod 2**m_max, the sum of
        # g * 2**(m_max-1-b) over the set bits b of i.  The steps are scaled
        # by 2**(52-m_max), so the sums hold node * 2**(52-m_max), the
        # node's 52-bit fraction.  uint64 arithmetic wraps mod 2**64, a
        # multiple of 2**52, so one mask at the end reduces every node
        # exactly.  The shift is added last; node and shift both lie in
        # [0, 1), so the sum is below 2 and mod 1 subtracts 1 where it
        # reaches 1.
        zero = np.zeros(self.dimension, np.uint64)
        if self._table is None:
            m = self.max_level
            self._steps = self.generating_vector.astype(np.uint64)[:, None] << np.arange(
                PRECISION - 1, PRECISION - 1 - m, -1, dtype=np.uint64
            )
            self._table = _point_table(self._steps, zero, np.add, m)
        nodes = _doubled_points(start, count, self._steps, zero, np.add, self._table).T
        nodes &= np.uint64((1 << PRECISION) - 1)
        coords = _unit_floats(nodes)
        coords += self.shift
        coords -= coords >= 1.0
        return PointBatch(coords)


def _integer_argument(name: str, value, error: type) -> int:
    """``value`` as a Python int; ``error`` naming the argument if it is no integer or a bool."""
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def _real_argument(name: str, value) -> float:
    """``value`` as a Python float; ValueError naming the argument unless it is a finite real, not a bool."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, not the {type(value).__name__} {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _read_only_copy(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``.

    A generator's first ``points`` call builds a table from its columns or
    generating vector, so an in-place change after it would give stale
    points; on its own read-only copy the change raises instead.
    """
    array = array.copy()
    array.setflags(write=False)  # faster than assigning flags.writeable
    return array


def _numeric_array(name: str, value, dtype: type, error: type) -> np.ndarray:
    """``value`` as an array of ``dtype``; ``error`` naming the argument if it holds no
    integers, or for ``np.float64`` neither integers nor floats.

    The dtype is checked before the cast, which would truncate floats, parse
    strings and take booleans.  numpy promotes a boolean listed beside
    numbers, so input that is not already an array is also checked element
    by element."""
    array = np.asarray(value)
    real = dtype is np.float64
    wanted = "real numbers" if real else "integers"
    if array.size and array.dtype.kind not in ("iuf" if real else "iu"):
        raise error(f"{name} must hold {wanted}, got dtype {array.dtype}")
    if not isinstance(value, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    ):
        raise error(f"{name} must hold {wanted}, got a boolean")
    return array.astype(dtype, copy=False)


def _select_dimension(dimension: int | None, capacity: int, error: type, capacity_name: str) -> int:
    """``dimension``, defaulting to ``capacity``; ``error`` if it is not an integer in [1, capacity]."""
    if dimension is None:
        return capacity
    dimension = _integer_argument("dimension", dimension, error)
    if dimension < 1:
        raise error("dimension must be positive")
    if dimension > capacity:
        raise error(f"requested dimension {dimension} exceeds {capacity_name} {capacity}")
    return dimension


def load_direction_numbers(text: str, dimension: int | None = None) -> DigitalGenerator:
    """Build an unscrambled, unshifted digital generator from table text.

    The text follows the Joe-Kuo layout: a header line, then one line per
    dimension ``d s a m_1 ... m_s``, naming dimensions 2, 3, ... in order.
    Dimension 1 is the plain radical inverse and is implicit.  ``dimension``
    selects how many coordinates to build (default: all listed).  The text
    is parsed and validated on every call; its rows are expanded through
    the same cache as the packaged table's.
    """
    return _generator_from_rows(_parse_direction_text(text), dimension)


def _generator_from_rows(rows, dimension: int | None) -> DigitalGenerator:
    """Generator of the radical inverse, then the expansions of ``rows[:dimension - 1]``.

    ``dimension`` defaults to the capacity ``1 + len(rows)``; the generator
    owns a read-only copy of the cached expansions."""
    dimension = _select_dimension(dimension, 1 + len(rows), DirectionTableError, "table capacity")
    cols = np.concatenate([_DIGITS, *(_columns_from_row(*row) for row in rows[: dimension - 1])])
    return DigitalGenerator(cols.reshape(dimension, PRECISION))


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
    dimension = _select_dimension(dimension, comps.size, LatticeVectorError, "vector length")
    return LatticeGenerator(comps[:dimension], m_max=m_max)


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
    return _generator_from_rows(_packaged_direction_rows(_DEFAULT_DIRECTION_RESOURCE), dimension)


def default_lattice_generator(dimension: int) -> LatticeGenerator:
    """Unshifted template backed by the packaged generating vector (modulus 2**20).

    The vector is parsed once per process; every template gets its own
    copy of the first ``dimension`` components.
    """
    return _lattice_from_components(
        _packaged_lattice_components(_DEFAULT_LATTICE_RESOURCE), _DEFAULT_LATTICE_M_MAX, dimension
    )


def _seed_argument(seed) -> int:
    """``seed`` as a Python int; ValueError naming it unless it is a nonnegative integer, not a bool."""
    seed = _integer_argument("seed", seed, ValueError)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def randomize_digital(template: DigitalGenerator, seed) -> DigitalGenerator:
    """Draw an independent scramble and digital shift for every coordinate.

    Scramble matrices are lower triangular with unit diagonal, so the
    scrambled points remain a digital net; the same seed reproduces the
    generator bit for bit (PCG64 stream: every scramble row, then every
    shift).  ``seed`` must be a nonnegative integer.  The scramble acts on
    ``template.columns``: a template that is itself scrambled gets a
    second scramble on top of its own.  Nothing is multiplied here: the
    generator keeps the row masks and the template's columns and
    scrambles each column when a point first needs it (see
    ``DigitalGenerator``), so a set-up pays for its seed's draws alone.
    The product runs over blocks of coordinates (see ``_apply_scramble``),
    so its work space stays about 400 KiB at any dimension.
    """
    rng = np.random.default_rng(_seed_argument(seed))
    cols = template.columns
    d = cols.shape[0]
    # Draws are below 2**52, so their int64 bits read as the same uint64.
    rows = rng.integers(0, 1 << PRECISION, size=(d, PRECISION), dtype=np.int64).view(np.uint64)
    rows &= _ROW_LOW_MASKS
    rows <<= _ROW_SHIFTS
    rows |= _DIGITS
    shift = rng.integers(0, 1 << PRECISION, size=d, dtype=np.int64).view(np.uint64)
    return DigitalGenerator._scrambled(rows, cols, shift)


def randomize_lattice(template: LatticeGenerator, seed) -> LatticeGenerator:
    """Draw a uniform shift modulo 1 for every coordinate; ``seed`` must be a nonnegative integer."""
    rng = np.random.default_rng(_seed_argument(seed))
    shift = rng.random(template.dimension)
    return LatticeGenerator(template.generating_vector, template.max_level, shift=shift)


def make_generator(family: str, dimension: int, seed):
    """Randomized generator of the requested family backed by packaged data.

    ``"digital"`` scrambles the packaged direction table (``max_level`` 52);
    ``"lattice"`` shifts the packaged generating vector (modulus 2**20).
    ``seed`` must be a nonnegative integer."""
    if family == "digital":
        return randomize_digital(default_digital_generator(dimension), seed)
    if family == "lattice":
        return randomize_lattice(default_lattice_generator(dimension), seed)
    raise ValueError(f"unknown family {family!r}; expected 'digital' or 'lattice'")
