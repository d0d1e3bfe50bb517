"""Generator tests: parsing, group structure, determinism, uniformity."""

import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmcube import Tolerance, integrate_scalar, sequences
from qmcube.sequences import (
    DigitalGenerator,
    DirectionTableError,
    IndexRangeError,
    LatticeGenerator,
    LatticeVectorError,
    default_digital_generator,
    default_lattice_generator,
    load_direction_numbers,
    load_lattice_vector,
    make_generator,
    randomize_digital,
    randomize_lattice,
)

JOE_KUO_HEAD = """d s a m_i
2 1 0 1
3 2 1 1 3
4 3 1 1 3 1
5 3 2 1 1 1
6 4 1 1 1 3 3
"""


def digits52(x):
    return np.round(np.asarray(x) * 2.0**52).astype(np.uint64)


def columns_from_row_reference(a, m_init):
    """Direction integers of one table row, written one numpy scalar at a
    time: the expansion the library used before its vectorized shift."""
    s = len(m_init)
    m = list(m_init)
    for k in range(s, 52):
        mk = m[k - s] ^ (m[k - s] << s)
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                mk ^= m[k - i] << i
        m.append(mk)
    cols = np.zeros(52, dtype=np.uint64)
    for k in range(1, 53):
        cols[k - 1] = np.uint64(m[k - 1] << (52 - k))
    return cols


def template_columns_reference(dimension):
    """Unscrambled columns of the packaged table built with the reference expansion."""
    rows = sequences._packaged_direction_rows(sequences._DEFAULT_DIRECTION_RESOURCE)
    radical_inverse = np.uint64(1) << np.arange(51, -1, -1, dtype=np.uint64)
    return np.stack(
        [radical_inverse] + [columns_from_row_reference(a, m) for a, m in rows[: dimension - 1]]
    )


def randomize_reference(columns, seed):
    """Scrambled columns and shift, one coordinate at a time: the scramble
    the library applied before it ran one pass per digit."""
    rng = np.random.default_rng(seed)
    d = columns.shape[0]
    digits = np.uint64(1) << np.arange(51, -1, -1, dtype=np.uint64)
    raw = rng.integers(0, 1 << 52, size=(d, 52), dtype=np.int64).astype(np.uint64)
    low = raw & (digits[::-1] - np.uint64(1))
    rows = (low << np.arange(52, 0, -1, dtype=np.uint64)) | digits
    shift = rng.integers(0, 1 << 52, size=d, dtype=np.int64).astype(np.uint64)
    out = np.empty_like(columns)
    for c in range(d):
        par = np.bitwise_count(rows[c][:, None] & columns[c][None, :]).astype(np.uint64)
        out[c] = ((par & np.uint64(1)) * digits[:, None]).sum(axis=0, dtype=np.uint64)
    return out, shift


def scramble_reference(rows, cols):
    """GF(2) product in Python integers: output digit r + 1 (place 51 - r)
    of each column is the parity of row mask r AND the column."""
    return np.array(
        [
            [sum((bin(r & c).count("1") & 1) << (51 - i) for i, r in enumerate(masks)) for c in ints]
            for masks, ints in zip(rows.tolist(), cols.tolist())
        ],
        dtype=np.uint64,
    )


@st.composite
def scramble_inputs(draw):
    """Unit lower-triangular row masks and k <= 52 arbitrary 52-bit columns, d <= 70."""
    d = draw(st.integers(1, 70))
    k = draw(st.integers(1, 52))
    bits52 = lambda width: arrays(np.uint64, (d, width), elements=st.integers(0, (1 << 52) - 1))
    low = draw(bits52(52)) & ((np.uint64(1) << np.arange(52, dtype=np.uint64)) - np.uint64(1))
    digits = np.uint64(1) << np.arange(51, -1, -1, dtype=np.uint64)
    rows = (low << np.arange(52, 0, -1, dtype=np.uint64)) | digits
    return rows, draw(bits52(k))


class TestDirectionTable:
    def test_dimension_one_is_radical_inverse(self):
        gen = load_direction_numbers(JOE_KUO_HEAD, dimension=1)
        pts = gen.points(0, 4).points.ravel()
        assert pts.tolist() == [0.0, 0.5, 0.25, 0.75]

    def test_subgroup_xor_in_dimension_one(self):
        gen = load_direction_numbers(JOE_KUO_HEAD, dimension=1)
        ints = (gen.points(0, 4).points * 2.0**52).astype(np.uint64).ravel()
        # z_1 xor z_2 = z_3, i.e. 0.5 (+) 0.25 = 0.75
        assert ints[1] ^ ints[2] == ints[3]
        assert ints[3] * 2.0**-52 == 0.75

    def test_full_scale_table_accepted(self, tmp_path):
        # synthetic file in the published 21201-dimension layout
        lines = ["d s a m_i"]
        for d in range(2, 21202):
            lines.append(f"{d} 2 1 1 3")
        text = "\n".join(lines)
        gen = load_direction_numbers(text)
        assert gen.dimension == 21201

    def test_malformed_line_names_line_number(self):
        bad = JOE_KUO_HEAD + "7 4 x 1 1 3 3\n"
        with pytest.raises(DirectionTableError, match="line 7"):
            load_direction_numbers(bad)

    def test_wrong_value_count_rejected(self):
        bad = "header\n2 2 0 1\n"
        with pytest.raises(DirectionTableError, match="line 2"):
            load_direction_numbers(bad)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2 1 0", "expected 'd s a m_1 ... m_s', got 3 fields"),
            ("2 2 2 1 3", "coefficient a=2 out of range"),
            ("2 2 0 1 2", "initial value m_2=2 must be odd and < 2^2"),
            ("2 2 0 1 5", "initial value m_2=5 must be odd and < 2^2"),
        ],
    )
    def test_invalid_row_fields_rejected(self, row, message):
        with pytest.raises(DirectionTableError, match=re.escape(f"line 2: {message}")):
            load_direction_numbers(f"header\n{row}\n")

    def test_capacity_error(self):
        with pytest.raises(DirectionTableError, match="capacity"):
            load_direction_numbers(JOE_KUO_HEAD, dimension=64)

    def test_packaged_rows_expand_like_reference(self):
        rows = sequences._packaged_direction_rows(sequences._DEFAULT_DIRECTION_RESOURCE)
        assert len(rows) == 1023
        for a, m_init in rows:
            cols = sequences._columns_from_row(a, m_init)
            assert np.array_equal(cols, columns_from_row_reference(a, m_init))

    def test_packaged_table_parsed_once_user_text_every_call(self, monkeypatch):
        default_digital_generator(2)
        calls = []
        parse = sequences._parse_direction_text
        monkeypatch.setattr(
            sequences, "_parse_direction_text", lambda text: calls.append(text) or parse(text)
        )
        for d in (1, 52, 1024):
            make_generator("digital", d, 0)
        assert calls == []
        for _ in range(2):
            with pytest.raises(DirectionTableError, match="line 7"):
                load_direction_numbers(JOE_KUO_HEAD + "7 4 x 1 1 3 3\n")
        assert len(calls) == 2

    def test_default_generators_are_independent(self):
        a = default_digital_generator(52)
        with pytest.raises(ValueError, match="read-only"):
            a.columns[:] = 0
        a.shift[:] = 1
        b = default_digital_generator(52)
        assert not np.shares_memory(a.columns, b.columns)
        assert not b.shift.any()

    @pytest.mark.parametrize("order", [(1, 2, 52, 1024), (1024, 52, 2, 1)])
    def test_cached_rows_match_uncached_expansion(self, order):
        name = sequences._DEFAULT_DIRECTION_RESOURCE
        text = sequences._packaged_text(name)
        sequences._columns_from_row.cache_clear()
        for d in order:
            got = default_digital_generator(d).columns
            assert not got.flags.writeable and got.flags.owndata
            expect = template_columns_reference(d)
            assert got.dtype == expect.dtype and np.array_equal(got, expect)
            # the user-text path shares the packaged table's expansions
            user = load_direction_numbers(text, d).columns
            assert user.dtype == expect.dtype and np.array_equal(user, expect)
        assert sequences._columns_from_row.cache_info().currsize == 1023
        a, m_init = sequences._packaged_direction_rows(name)[0]
        assert not sequences._columns_from_row(a, m_init).flags.writeable

    def test_row_cache_is_bounded(self):
        info = sequences._columns_from_row.cache_info()
        rows = sequences._packaged_direction_rows(sequences._DEFAULT_DIRECTION_RESOURCE)
        assert info.maxsize >= len(rows)
        # distinct degree-11 rows: every coefficient a, then m_2 = 3
        lines = ["d s a m_i"]
        for j in range(info.maxsize + 50):
            m_init = [1, 1 + 2 * (j // 1024)] + [1] * 9
            lines.append(f"{j + 2} 11 {j % 1024} " + " ".join(map(str, m_init)))
        assert load_direction_numbers("\n".join(lines)).dimension == info.maxsize + 51
        assert sequences._columns_from_row.cache_info().currsize == info.maxsize

    def test_headerless_table_rejected(self):
        with pytest.raises(DirectionTableError, match="line 1: got a data row"):
            load_direction_numbers("2 1 0 1\n3 2 1 1 3\n")

    def test_rows_must_name_dimensions_in_order(self):
        head, *rows = JOE_KUO_HEAD.splitlines()
        reordered = "\n".join([head, rows[3], *rows[:3], rows[4]])
        with pytest.raises(
            DirectionTableError, match="line 2: row names dimension 5, expected dimension 2"
        ):
            load_direction_numbers(reordered)
        with pytest.raises(
            DirectionTableError, match="line 3: row names dimension 4, expected dimension 3"
        ):
            load_direction_numbers("\n".join([head, rows[0], rows[2]]))
        # blank lines are skipped and do not count as rows
        spaced = "\n\n".join(JOE_KUO_HEAD.splitlines())
        assert np.array_equal(
            load_direction_numbers(spaced).columns, load_direction_numbers(JOE_KUO_HEAD).columns
        )

    def test_packaged_table_matches_scipy_point_sets(self):
        qmc = pytest.importorskip("scipy.stats.qmc")
        d = 8
        ours = default_digital_generator(d).points(0, 128).points
        theirs = qmc.Sobol(d, scramble=False).random(128)
        # scipy emits Gray-code order; dyadic blocks agree as sets
        assert np.allclose(np.sort(ours, axis=0), np.sort(theirs, axis=0), atol=1e-15)


class TestDigitalRandomization:
    def test_same_seed_identical_points(self):
        t = default_digital_generator(4)
        a = randomize_digital(t, 99).points(0, 512).points
        b = randomize_digital(t, 99).points(0, 512).points
        assert np.array_equal(a, b)

    def test_scrambled_coordinates_are_stratified(self):
        # The unit scramble diagonal keeps every leading m x m block of the
        # generator matrix invertible: the first 2**m points of each
        # coordinate hit every dyadic interval of width 2**-m exactly once.
        gen = randomize_digital(default_digital_generator(5), 5)
        for m in range(1, 13):
            cells = np.floor(gen.points(0, 1 << m).points * (1 << m)).astype(np.int64)
            for c in range(gen.dimension):
                assert np.array_equal(np.sort(cells[:, c]), np.arange(1 << m))

    def test_scramble_stream_is_pinned(self):
        # A seed must keep giving the same points, so the order in which the
        # scramble draws the PCG64 stream must not change.
        expect = [
            [1498264095737195, 1793673662162789, 913833291657886],
            [4318721497456783, 3688390003431447, 3771527014774337],
            [826760600818077, 2759132725445291, 3280289986293976],
            [2509756831151225, 713233601560025, 1687095033132039],
            [2110187029217324, 4453617454058477, 2207271466489282],
            [3793621329438152, 1292263734637727, 2690019704475933],
            [213798314087642, 71150609919523, 4309845271500676],
            [3033559880773950, 3102212135784785, 306520662446939],
        ]
        ints = (make_generator("digital", 3, 7).points(0, 8).points * 2.0**52).astype(np.uint64)
        assert np.array_equal(ints, np.array(expect, dtype=np.uint64))

    @pytest.mark.parametrize("dimension", [1, 12, 52, 63, 64, 65, 130, 1024])
    def test_make_generator_matches_reference(self, dimension):
        for seed in (1, 7):
            gen = make_generator("digital", dimension, seed)
            cols, shift = randomize_reference(template_columns_reference(dimension), seed)
            assert np.array_equal(gen.columns, cols)
            assert np.array_equal(gen.shift, shift)

    @settings(max_examples=40, deadline=None)
    @given(scramble_inputs())
    def test_scramble_is_gf2_product(self, inputs):
        rows, cols = inputs
        out = sequences._apply_scramble(rows, cols)
        assert out.dtype == np.uint64 and out.shape == cols.shape
        assert np.array_equal(out, scramble_reference(rows, cols))

    def test_scramble_memory_is_bounded(self):
        # Work space is one block of coordinates, not a (d, 52, 52) product
        # (22 MiB at d = 1024).
        make_generator("digital", 1024, 1)  # expand the table rows first
        tracemalloc.start()
        try:
            make_generator("digital", 1024, 1).columns  # all 52 columns in one growth
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_generator_shape_checks(self):
        cols = default_digital_generator(3).columns
        with pytest.raises(ValueError, match="shift"):
            DigitalGenerator(cols, np.zeros(1, dtype=np.uint64))
        with pytest.raises(ValueError, match="shift"):
            DigitalGenerator(cols, np.zeros((3, 1), dtype=np.uint64))
        for bad in (cols[:, :10], cols[0], np.zeros((0, 52), dtype=np.uint64), cols[None]):
            with pytest.raises(ValueError, match="columns"):
                DigitalGenerator(bad)
        assert DigitalGenerator(cols, np.ones(3, dtype=np.uint64)).dimension == 3

    def test_non_integer_columns_and_shift_rejected(self):
        # the uint64 cast used to truncate 3.7 to 3 and 0.9 to 0
        cols = default_digital_generator(1).columns
        with pytest.raises(ValueError, match="columns must hold integers, got dtype float64"):
            DigitalGenerator(np.full((1, 52), 3.7), shift=[0.9])
        with pytest.raises(ValueError, match="columns must hold integers"):
            DigitalGenerator(cols.astype(str))
        for shift in ([0.9], ["1"]):
            with pytest.raises(ValueError, match="shift must hold integers"):
                DigitalGenerator(cols, shift=shift)

    def test_integer_inputs_of_any_type_agree(self):
        cols = default_digital_generator(2).columns
        ref = DigitalGenerator(cols, np.array([5, 7], dtype=np.uint64))
        for c, s in ((cols.tolist(), [5, 7]), (cols.astype(np.int64), np.array([5, 7], dtype=np.int64))):
            gen = DigitalGenerator(c, s)
            assert gen.columns.dtype == gen.shift.dtype == np.uint64
            assert np.array_equal(gen.points(0, 64).points, ref.points(0, 64).points)

    @pytest.mark.parametrize("bit", [52, 55, 62, 63])
    def test_entries_above_52_bits_rejected(self, bit):
        # OR-ed into a float's exponent or sign, 2**55 was dropped, 2**62
        # made NaN points and 2**63 negative ones
        cols = default_digital_generator(1).columns
        high = cols.copy()
        high[0, 0] |= np.uint64(1 << bit)
        with pytest.raises(ValueError, match="columns must fit in 52 bits"):
            DigitalGenerator(high)
        with pytest.raises(ValueError, match="shift must fit in 52 bits"):
            DigitalGenerator(cols, np.array([1 << bit], dtype=np.uint64))

    def test_scrambled_mean_near_half(self):
        for m, d in [(10, 2), (14, 4), (16, 3)]:
            gen = randomize_digital(default_digital_generator(d), 1000 + m)
            pts = gen.points(0, 1 << m).points
            bound = 3.0 / np.sqrt(12.0 * (1 << m))
            assert np.abs(pts.mean(axis=0) - 0.5).max() < bound

    def test_group_closure_scrambled(self):
        gen = randomize_digital(default_digital_generator(2), 17)
        for m in (3, 4, 5):
            n = 1 << m
            ints = (gen.points(0, n).points * 2.0**52).astype(np.uint64) ^ gen.shift[None, :]
            asset = {tuple(row) for row in ints}
            for i in range(n):
                for j in range(n):
                    assert tuple(ints[i] ^ ints[j]) in asset

    def test_nesting_and_range(self):
        gen = randomize_digital(default_digital_generator(3), 23)
        big = gen.points(0, 256).points
        small = gen.points(0, 128).points
        assert np.array_equal(big[:128], small)
        assert big.min() >= 0.0 and big.max() < 1.0

    def test_index_capacity(self):
        gen = default_digital_generator(1)
        with pytest.raises(IndexRangeError):
            gen.points(1 << 52, 2)

    def test_points_exact_at_52_bit_extremes(self):
        # point integers k = 0 and k = 2**52 - 1 become k * 2**-52 exactly
        top = (1 << 52) - 1
        cols = np.zeros((2, 52), dtype=np.uint64)
        cols[:, 0] = [top, 1]
        gen = DigitalGenerator(cols, np.array([0, top], dtype=np.uint64))
        ints = (gen.points(0, 2).points * 2.0**52).astype(np.uint64)
        assert ints.tolist() == [[0, top], [top, top - 1]]
        pts = gen.points(0, 2).points
        expect = np.array([[0.0, top * 2.0**-52], [top * 2.0**-52, (top - 1) * 2.0**-52]])
        assert np.array_equal(pts, expect)
        assert pts[0, 0] == 0.0 and pts[0, 1] == 1.0 - 2.0**-52
        assert pts.dtype == np.float64 and pts.flags.f_contiguous


class TestLazyScramble:
    """A randomized digital generator scrambles column b when a point first needs it."""

    @staticmethod
    def count_scrambled_columns(monkeypatch):
        counts = []
        scramble = sequences._apply_scramble
        monkeypatch.setattr(
            sequences, "_apply_scramble", lambda rows, cols: counts.append(cols.shape[1]) or scramble(rows, cols)
        )
        return counts

    @pytest.mark.parametrize(
        "ranges",
        [
            # d = 5: the first call scrambles 26 columns, twice the table's 13
            [(0, 1), (1, 1023), (1023, 2), (0, 1 << 11), ((1 << 20) - 3, 6), ((1 << 26) - 1, 2)],
            [((1 << 40) - 2, 4), (1 << 40, 3)],
            [((1 << 52) - 3, 3), (5, 7)],
            [((1 << 52) - 1, 1)],
        ],
    )
    def test_points_match_reference_across_column_boundaries(self, ranges):
        d, seed = 5, 13
        ref_cols, ref_shift = randomize_reference(template_columns_reference(d), seed)
        eager = DigitalGenerator(ref_cols, ref_shift)
        gen = make_generator("digital", d, seed)
        for start, count in ranges:
            got = gen.points(start, count).points
            assert np.array_equal(got, eager.points(start, count).points)
            # the points of the last index come from their definition too
            last = start + count - 1
            assert np.array_equal(got[-1], digital_oracle(eager, last))

    def test_columns_match_reference_whenever_read(self):
        d, seed = 7, 4
        ref_cols, _ = randomize_reference(template_columns_reference(d), seed)
        for schedule in ([], [(0, 64)], [(0, 64), ((1 << 30) - 1, 2)]):
            gen = make_generator("digital", d, seed)
            before = [gen.points(start, count).points for start, count in schedule]
            cols = gen.columns
            assert np.array_equal(cols, ref_cols) and cols.shape == (d, 52)
            with pytest.raises(ValueError, match="read-only"):
                cols[0, 0] ^= np.uint64(1)
            assert gen.columns is cols and gen._scramble[1:] == (None, None)  # rows and template dropped
            after = [gen.points(start, count).points for start, count in schedule]
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            assert np.array_equal(gen.points((1 << 52) - 2, 2).points,
                                  DigitalGenerator(ref_cols, gen.shift).points((1 << 52) - 2, 2).points)

    def test_scrambled_template_gets_a_second_scramble(self):
        d = 6
        once, _ = randomize_reference(template_columns_reference(d), 3)
        twice, shift = randomize_reference(once, 9)
        for reads in (0, 1 << 12):
            template = make_generator("digital", d, 3)
            template.points(0, reads)  # lazily scrambled in part, or (reads = 0) only for the table
            gen = randomize_digital(template, 9)
            assert np.array_equal(gen.columns, twice) and np.array_equal(gen.shift, shift)

    def test_set_up_scrambles_no_column(self, monkeypatch):
        counts = self.count_scrambled_columns(monkeypatch)
        gen = make_generator("digital", 52, 1)
        assert counts == [] and gen._scramble[0].shape == (52, 0)
        gen.points(0, 1 << 17)  # the table reads 10 columns, the range 17
        assert counts == [34]
        gen.points(1 << 17, 1 << 10)
        assert counts == [34]
        assert gen.columns.shape == (52, 52)
        assert counts == [34, 18]  # every column scrambled once
        gen.points((1 << 52) - 1, 1)
        randomize_digital(default_digital_generator(3), 2)
        assert counts == [34, 18]

    def test_concurrent_growths_agree(self):
        # Threads share one fresh generator: each growth publishes its columns
        # and their count together, so no thread reads a column before it is
        # written, whichever growth lands last.
        d, seed = 3, 21
        ref_cols, ref_shift = randomize_reference(template_columns_reference(d), seed)
        eager = DigitalGenerator(ref_cols, ref_shift)
        ranges = [((1 << b) - 2, 4) for b in range(2, 52, 3)]
        expect = [eager.points(start, count).points for start, count in ranges]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                gen = make_generator("digital", d, seed)
                failures = []

                def read(order):
                    for i in order:
                        if not np.array_equal(gen.points(*ranges[i]).points, expect[i]):
                            failures.append(i)
                    if not np.array_equal(gen.columns, ref_cols):
                        failures.append("columns")

                orders = [range(len(ranges)), range(len(ranges) - 1, -1, -1)] * 3
                threads = [threading.Thread(target=read, args=(order,)) for order in orders]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert failures == []
        finally:
            sys.setswitchinterval(switch)

    def test_given_columns_are_all_done(self, monkeypatch):
        counts = self.count_scrambled_columns(monkeypatch)
        cols = default_digital_generator(3).columns
        gen = DigitalGenerator(cols)
        gen.points((1 << 52) - 4, 4)
        assert counts == [] and np.array_equal(gen.columns, cols)


class TestSeedArgument:
    @pytest.mark.parametrize("family", ["digital", "lattice"])
    @pytest.mark.parametrize(
        "seed, message",
        [(True, "seed must be an integer, got True"), ([1, 2], r"seed must be an integer, got \[1, 2\]"),
         (1.5, "seed must be an integer, got 1.5"), (-1, "seed must be nonnegative, got -1"),
         (None, "seed must be an integer, got None")],
    )
    def test_bad_seed_rejected(self, family, seed, message):
        template = {"digital": default_digital_generator, "lattice": default_lattice_generator}[family](3)
        randomize = {"digital": randomize_digital, "lattice": randomize_lattice}[family]
        with pytest.raises(ValueError, match=message):
            make_generator(family, 3, seed)
        with pytest.raises(ValueError, match=message):
            randomize(template, seed)

    @pytest.mark.parametrize("family", ["digital", "lattice"])
    def test_numpy_integer_seeds_match_int(self, family):
        ref = make_generator(family, 3, 7)
        for seed in (np.int64(7), np.uint8(7)):
            gen = make_generator(family, 3, seed)
            assert np.array_equal(gen.shift, ref.shift)
            assert np.array_equal(gen.points(0, 64).points, ref.points(0, 64).points)

    def test_bad_seed_never_reaches_a_result_row(self):
        f = lambda x: np.prod(2.0 * x, axis=1)
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            integrate_scalar(f, 3, Tolerance(abs_tol=1e-3), seed=True)
        with pytest.raises(ValueError, match=r"seed must be an integer, got \[1, 2\]"):
            integrate_scalar(f, 3, Tolerance(abs_tol=1e-3), seed=[1, 2])


class TestLattice:
    def test_shift_validated(self):
        g = default_lattice_generator(3).generating_vector
        for bad in ([0.5], [0.1, 0.2], np.zeros((3, 1)), [0.1, np.nan, 0.2], [0.1, 1.0, 0.2],
                    [-0.1, 0.2, 0.3], [0.1, np.inf, 0.2]):
            with pytest.raises(LatticeVectorError, match="shift"):
                LatticeGenerator(g, m_max=20, shift=bad)
        # the float cast used to parse strings and read a bool as 0.0 or 1.0
        for bad in (["0.1", "0.2", "0.3"], [False, False, False], ["0.1", 0.2, 0.3]):
            with pytest.raises(LatticeVectorError, match="shift must hold real numbers"):
                LatticeGenerator(g, m_max=20, shift=bad)
        shift = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        assert np.array_equal(LatticeGenerator(g, m_max=20, shift=shift).shift, shift)

    def test_first_node_is_shift(self):
        gen = randomize_lattice(default_lattice_generator(3), 3)
        assert np.allclose(gen.points(0, 1).points[0], gen.shift)

    def test_index_one_first_coordinate_half(self):
        gen = default_lattice_generator(3)
        assert gen.points(1, 1).points[0, 0] == 0.5

    def test_block_equals_full_grid_multiples(self):
        gen = default_lattice_generator(2)
        g = gen.generating_vector.astype(float)
        for m in (4, 6, 10):
            n = 1 << m
            pts = gen.points(0, n).points
            expect = np.mod(np.arange(n)[:, None] * g[None, :] / n, 1.0)
            assert np.allclose(np.sort(pts, axis=0), np.sort(expect, axis=0), atol=1e-12)

    def test_group_closure_mod_one(self):
        gen = default_lattice_generator(2)
        for m in (3, 5):
            n = 1 << m
            pts = gen.points(0, n).points
            asset = {tuple(np.round(row * n).astype(int) % n) for row in pts}
            for i in range(n):
                for j in range(n):
                    s = np.round((pts[i] + pts[j]) % 1.0 * n).astype(int) % n
                    assert tuple(s) in asset

    def test_nesting(self):
        gen = randomize_lattice(default_lattice_generator(4), 8)
        assert np.array_equal(gen.points(0, 64).points, gen.points(0, 128).points[:64])

    def test_capacity(self):
        gen = LatticeGenerator(default_lattice_generator(2).generating_vector, m_max=10)
        with pytest.raises(IndexRangeError):
            gen.points(0, 2048)

    def test_packaged_vector_parsed_once_user_text_every_call(self, monkeypatch):
        default_lattice_generator(2)
        calls = []
        parse = sequences._parse_lattice_text
        monkeypatch.setattr(
            sequences, "_parse_lattice_text", lambda text: calls.append(text) or parse(text)
        )
        for d in (1, 7, 600):
            make_generator("lattice", d, 0)
        assert calls == []
        assert not sequences._packaged_lattice_components(
            sequences._DEFAULT_LATTICE_RESOURCE
        ).flags.writeable
        for _ in range(2):
            with pytest.raises(LatticeVectorError, match="line 2"):
                load_lattice_vector("1\nx\n", m_max=6)
        assert len(calls) == 2

    def test_default_lattice_generators_are_independent(self):
        a = default_lattice_generator(7)
        with pytest.raises(ValueError, match="read-only"):
            a.generating_vector[:] = 3
        a.shift[:] = 0.5
        b = default_lattice_generator(7)
        assert not np.shares_memory(a.generating_vector, b.generating_vector)
        assert not b.shift.any()

    def test_generating_vector_components_positive_odd(self):
        packaged = default_lattice_generator(600).generating_vector
        assert packaged.min() >= 1 and packaged.max() < 1 << 20
        assert (packaged % 2 == 1).all()
        for text, index, value in (("1\n-3\n0\n", 1, -3), ("1\n3\n0\n", 2, 0), ("4\n", 0, 4),
                                   ("1\n5\n7\n2\n", 3, 2)):
            with pytest.raises(LatticeVectorError, match=f"component {index} is {value};"):
                load_lattice_vector(text, m_max=20)
        with pytest.raises(LatticeVectorError, match="component 1 is 6;"):
            LatticeGenerator([1, 6], m_max=6)

    @pytest.mark.parametrize("vector", [[1.5, 3.9], ["3", "5"], np.array([1.0, 3.0]), [True, True],
                                        [True, 3], [3, np.True_], (1, 3, False)])
    def test_non_integer_vector_rejected(self, vector):
        # the int64 cast used to truncate [1.5, 3.9] to [1, 3] and parse strings,
        # and numpy promotes [True, 3] to [1, 3]
        with pytest.raises(LatticeVectorError, match="generating_vector must hold integers"):
            LatticeGenerator(vector, m_max=20)

    def test_integer_vector_of_any_type_agrees(self):
        ref = LatticeGenerator([1, 3, 5], m_max=20, shift=[0.25, 0.5, 0.75])
        for dtype in (np.int64, np.uint64, np.int32):
            gen = LatticeGenerator(np.array([1, 3, 5], dtype=dtype), m_max=20, shift=[0.25, 0.5, 0.75])
            assert gen.generating_vector.dtype == np.int64
            assert np.array_equal(gen.points(0, 64).points, ref.points(0, 64).points)

    def test_empty_vector_rejected(self):
        for make in (lambda: LatticeGenerator([], m_max=20), lambda: load_lattice_vector("\n", m_max=20)):
            with pytest.raises(LatticeVectorError, match="nonempty"):
                make()

    @pytest.mark.parametrize("m_max", [-1, 0, 41])
    def test_m_max_outside_supported_range(self, m_max):
        with pytest.raises(LatticeVectorError, match=f"unsupported m_max={m_max}"):
            LatticeGenerator([1, 3], m_max=m_max)
        for ok in (1, 40):
            assert LatticeGenerator([1, 3], m_max=ok).max_level == ok

    def test_vector_file_parsing(self):
        gen = load_lattice_vector("1\n17\n33\n", m_max=6)
        assert gen.generating_vector.tolist() == [1, 17, 33]
        with pytest.raises(LatticeVectorError):
            load_lattice_vector("1\nx\n", m_max=6)
        with pytest.raises(LatticeVectorError):
            load_lattice_vector("1\n3\n", m_max=6, dimension=5)
        for dimension in (0, -1):
            with pytest.raises(LatticeVectorError, match="positive"):
                load_lattice_vector("1\n17\n33\n", m_max=6, dimension=dimension)

    def test_blank_lines_skipped_but_counted(self):
        gen = load_lattice_vector("1\n\n17\n  \n33\n", m_max=6)
        assert gen.generating_vector.tolist() == [1, 17, 33]
        with pytest.raises(LatticeVectorError, match="line 3"):
            load_lattice_vector("1\n\nx\n", m_max=6)


def rev_bits(i, bits):
    return int(format(i, f"0{bits}b")[::-1], 2)


def digital_oracle(gen, i):
    """Point i from its definition: shift XOR the columns of i's set bits."""
    row = []
    for c in range(gen.dimension):
        v = int(gen.shift[c])
        for b in range(i.bit_length()):
            if i >> b & 1:
                v ^= int(gen.columns[c, b])
        row.append(v * 2.0**-52)
    return row


def lattice_oracle(gen, i):
    """Node i from its definition, (rev(i) g mod 2^m) / 2^m, plus the shift mod 1."""
    m = gen.max_level
    row = []
    for c in range(gen.dimension):
        node = (rev_bits(i, m) * int(gen.generating_vector[c]) % (1 << m)) * 2.0**-m
        x = node + gen.shift[c]
        row.append(x - np.floor(x))
    return row


BLOCK_GENERATORS = {
    "digital": (lambda: randomize_digital(default_digital_generator(5), 31), digital_oracle),
    "lattice": (
        lambda: randomize_lattice(LatticeGenerator(default_lattice_generator(5).generating_vector, m_max=22), 31),
        lattice_oracle,
    ),
}


class TestDoubledBlocks:
    @pytest.mark.parametrize("family", sorted(BLOCK_GENERATORS))
    @pytest.mark.parametrize("start", [1, 3, 1000, (1 << 20) - 3])
    @pytest.mark.parametrize("count", [1, 5, 70])
    def test_unaligned_ranges(self, family, start, count):
        make, oracle = BLOCK_GENERATORS[family]
        gen = make()
        pts = gen.points(start, count).points
        lo = start - start % 128
        block = gen.points(lo, 256).points
        assert np.array_equal(pts, block[start - lo : start - lo + count])
        expect = np.array([oracle(gen, i) for i in range(start, start + count)])
        assert np.array_equal(pts, expect)

    @pytest.mark.parametrize("family", sorted(BLOCK_GENERATORS))
    def test_batches_are_read_only(self, family):
        gen = BLOCK_GENERATORS[family][0]()
        for start, count in [(0, 64), (3, 70)]:
            pts = gen.points(start, count).points
            assert not pts.flags.writeable
            with pytest.raises(ValueError):
                pts[0, 0] = 0.5

    @pytest.mark.parametrize("family", sorted(BLOCK_GENERATORS))
    def test_points_stay_fortran_ordered(self, family):
        gen = BLOCK_GENERATORS[family][0]()
        for start, count in [(0, 1024), (1000, 70), (512, 512)]:
            assert gen.points(start, count).points.flags.f_contiguous

    def test_lattice_nodes_exact_beyond_53_bits(self):
        # rev(i) * g needs up to 72 bits here; a float product loses ~1e-6
        g = [1, 2**35 - 31, 12345678901]
        pts = LatticeGenerator(g, m_max=36).points(2**20 - 8, 16).points
        expect = [
            [(rev_bits(i, 36) * gj % 2**36) / 2**36 for gj in g]
            for i in range(2**20 - 8, 2**20 + 8)
        ]
        assert np.array_equal(pts, np.array(expect))


def doubled_points_reference(start, count, steps, base, op):
    """Point integers by doubling every aligned block from its first point:
    what the generators did before their tables."""
    out = np.empty((steps.shape[0], count), dtype=np.uint64)
    for s, size in sequences._dyadic_blocks(start, count):
        block = out[:, s - start : s - start + size]
        bits = [b for b in range(s.bit_length()) if s >> b & 1]
        block[:, 0] = op(op.reduce(steps[:, bits], axis=1), base)
        h = 1
        while h < size:
            op(block[:, :h], steps[:, h.bit_length() - 1, None], out=block[:, h : 2 * h])
            h *= 2
    return out


def points_reference(gen, start, count):
    """Points [start, start + count) of ``gen`` through :func:`doubled_points_reference`."""
    if gen.family == "digital":
        return doubled_points_reference(start, count, gen.columns, gen.shift, np.bitwise_xor).T * 2.0**-52
    m = gen.max_level
    steps = gen.generating_vector.astype(np.uint64)[:, None] << np.arange(51, 51 - m, -1, dtype=np.uint64)
    nodes = doubled_points_reference(start, count, steps, np.zeros(gen.dimension, np.uint64), np.add).T
    coords = (nodes & np.uint64((1 << 52) - 1)) * 2.0**-52 + gen.shift
    coords -= coords >= 1.0
    return coords


TABLE_GENERATORS = {
    "digital": lambda d: make_generator("digital", d, 8),
    "lattice": lambda d: make_generator("lattice", d, 8),
}


class TestPointTables:
    @pytest.mark.parametrize("family", sorted(TABLE_GENERATORS))
    @pytest.mark.parametrize("d", [5, 52])
    def test_points_equal_per_block_doubling(self, family, d):
        gen = TABLE_GENERATORS[family](d)
        width = sequences._block_rows(d)
        # aligned, unaligned, blocks larger than the table, and ranges crossing it
        ranges = [(0, width), (0, 4 * width), (2 * width, 2 * width), (3, 70), (width - 5, 3 * width),
                  ((1 << 20) - 3 * width - 7, 3 * width + 7), (1, 1)]
        for start, count in ranges:
            assert np.array_equal(gen.points(start, count).points, points_reference(gen, start, count))

    def test_capacity_below_block_rows(self):
        gen = randomize_lattice(LatticeGenerator(default_lattice_generator(4).generating_vector, m_max=3), 2)
        for start, count in [(0, 8), (1, 7), (5, 3), (4, 4)]:
            assert np.array_equal(gen.points(start, count).points, points_reference(gen, start, count))
        assert gen._table.shape == (4, 8)

    @pytest.mark.parametrize("family", sorted(TABLE_GENERATORS))
    def test_table_is_lazy_read_only_and_bounded(self, family):
        gen = TABLE_GENERATORS[family](52)
        assert gen._table is None  # construction, and so set-up, builds no table
        gen.points(0, 1 << 16)
        table = gen._table
        gen.points((1 << 20) - 4096, 4096)
        assert gen._table is table
        assert table.shape == (52, 1024) and table.size <= 1 << 16
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_table_sources_cannot_change_after_points(self):
        cols = default_digital_generator(3).columns.copy()
        vec = default_lattice_generator(3).generating_vector.copy()
        for gen, source, name in ((DigitalGenerator(cols), cols, "columns"),
                                  (LatticeGenerator(vec, m_max=20), vec, "generating_vector")):
            before = gen.points(0, 64).points
            with pytest.raises(ValueError, match="read-only"):
                getattr(gen, name)[0] ^= 2
            # the caller's array is copied, not frozen, and changing it leaves the generator alone
            assert source.flags.writeable
            source[0] += 2
            assert np.array_equal(gen.points(0, 64).points, before)


def brute_star_discrepancy(points, grid=24):
    """Anchored-box discrepancy estimated on a regular grid of anchors."""
    n, d = points.shape
    axes = [np.linspace(0.05, 1.0, grid)] * d
    worst = 0.0
    for anchor in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, d):
        inside = np.all(points < anchor[None, :], axis=1).mean()
        worst = max(worst, abs(inside - np.prod(anchor)))
    return worst


def test_star_discrepancy_beats_pseudorandom():
    pts = default_digital_generator(2).points(0, 1 << 10).points
    rnd = np.random.default_rng(0).random((1 << 10, 2))
    assert brute_star_discrepancy(pts) < brute_star_discrepancy(rnd)


def test_make_generator_families():
    assert make_generator("digital", 3, 0).family == "digital"
    assert make_generator("lattice", 3, 0).family == "lattice"
    with pytest.raises(ValueError):
        make_generator("halton", 3, 0)


@pytest.mark.parametrize("family", ["digital", "lattice"])
@pytest.mark.parametrize(
    "start, count, name", [(0.5, 2, "start"), (0, 2.0, "count"), (True, 2, "start"), (0, True, "count")]
)
def test_index_arguments_must_be_integers(family, start, count, name):
    gen = make_generator(family, 3, 1)
    with pytest.raises(IndexRangeError, match=f"{name} must be an integer"):
        gen.points(start, count)


@pytest.mark.parametrize("family", ["digital", "lattice"])
def test_numpy_integer_indices_match_int(family):
    gen = make_generator(family, 3, 1)
    ref = gen.points(3, 5).points
    for start, count in ((np.int64(3), np.int64(5)), (np.uint32(3), np.int8(5))):
        assert np.array_equal(gen.points(start, count).points, ref)


@pytest.mark.parametrize("family,error", [("digital", DirectionTableError), ("lattice", LatticeVectorError)])
def test_boolean_dimension_rejected(family, error):
    with pytest.raises(error, match="dimension must be an integer, got True"):
        make_generator(family, True, 1)


@pytest.mark.parametrize("family,error", [("digital", DirectionTableError), ("lattice", LatticeVectorError)])
def test_dimension_must_be_an_integer(family, error):
    for bad in (2.0, 2.5, "2"):
        with pytest.raises(error, match="dimension must be an integer"):
            make_generator(family, bad, 1)
    ref = make_generator(family, 2, 1)
    for ok in (np.int64(2), np.uint8(2)):
        gen = make_generator(family, ok, 1)
        assert np.array_equal(gen.points(0, 64).points, ref.points(0, 64).points)


def test_lattice_m_max_must_be_an_integer():
    for bad in (20.0, "20"):
        with pytest.raises(LatticeVectorError, match="m_max must be an integer"):
            LatticeGenerator([1, 3], m_max=bad)
    with pytest.raises(LatticeVectorError, match="m_max must be an integer"):
        load_lattice_vector("1\n3\n", m_max=6.0)
    ref = LatticeGenerator([1, 3], m_max=20, shift=[0.25, 0.5])
    gen = LatticeGenerator([1, 3], m_max=np.int64(20), shift=[0.25, 0.5])
    assert type(gen.max_level) is int
    assert np.array_equal(gen.points(0, 64).points, ref.points(0, 64).points)
