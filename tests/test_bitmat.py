"""Row compression and the fold/unfold/transpose/product primitives, checked
against dense-matrix brute force."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitopt import bitmat
from bitopt.bitmat import (
    BitArray,
    BitMat,
    CompressedRow,
    DimensionMismatchError,
    bitmat_from_cells,
    bmm,
    fold,
    row_from_mask,
    row_from_positions,
    row_mask,
    row_positions,
    row_test,
    transpose,
    unfold,
)


def encode(bits):
    """The row of a bit string or list: item i is bit i of the mask."""
    return row_from_mask(sum(1 << i for i, b in enumerate(bits) if b in (1, "1")), len(bits))


class TestRowEncoding:
    def test_run_length_worked_example(self):
        row = encode("1110011110")
        assert row.tag == "rle"
        assert row.start_bit == 1
        assert row.payload == (3, 2, 4, 1)
        assert str(row) == "[1] 3 2 4 1"

    def test_set_positions_worked_example(self):
        row = encode("0010010000")
        assert row.tag == "pos"
        assert row.payload == (3, 6)
        assert str(row) == "3 6"

    def test_all_zero_row_uses_empty_positions(self):
        row = encode("00000")
        assert row.tag == "pos"
        assert row.payload == ()

    def test_all_ones_row_stays_run_length(self):
        row = encode("11111")
        assert row == CompressedRow("rle", 1, (5,))

    def test_hybrid_rule_is_strict(self):
        # One set bit, one run integer: positions need strictly fewer.
        assert encode("1").tag == "rle"
        assert encode("10").tag == "pos"

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=1024))
    @settings(max_examples=300)
    def test_round_trip(self, bits):
        row = encode(bits)
        assert list(row_positions(row)) == [i for i, b in enumerate(bits, start=1) if b]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=256))
    def test_hybrid_choice_matches_counts(self, bits):
        row = encode(bits)
        popcount = sum(bits)
        runs = 1 + sum(1 for a, b in zip(bits, bits[1:]) if a != b)
        if popcount < runs:
            assert row.tag == "pos"
        else:
            assert row.tag == "rle"

    @given(st.integers(1, 200), st.integers(0, 2**64))
    def test_mask_round_trip(self, width, seed):
        mask = seed & ((1 << width) - 1)
        row = row_from_mask(mask, width)
        assert row_mask(row) == mask
        assert list(row_positions(row)) == [i + 1 for i in range(width) if mask >> i & 1]


class TestRowFromPositions:
    """``row_from_positions`` must build exactly the row ``row_from_mask``
    builds for the same bits."""

    @staticmethod
    def _check(positions, width):
        mask = 0
        for pos in positions:
            mask |= 1 << (pos - 1)
        assert row_from_positions(positions, width) == row_from_mask(mask, width)

    def test_random_rows(self):
        rng = random.Random(7)
        for _ in range(2000):
            width = rng.randint(1, 130)
            density = rng.random()
            self._check([p for p in range(1, width + 1) if rng.random() < density], width)

    @pytest.mark.parametrize(
        "positions,width",
        [
            ([], 1),
            ([1], 1),
            ([], 9),
            (list(range(1, 10)), 9),
            ([1], 9),
            ([9], 9),
            ([1, 9], 9),
            ([1, 2, 3, 8, 9], 9),
            ([2, 3, 4, 5, 6, 7, 8], 9),
            ([1, 3, 5, 7, 9], 9),
            ([64, 65], 65),
        ],
    )
    def test_edges(self, positions, width):
        self._check(positions, width)

    def test_position_past_width_rejected(self):
        with pytest.raises(DimensionMismatchError):
            row_from_positions([3], 2)


def random_bitmat(rng, rows, cols, density=0.3, row_space=bitmat.S, col_space=bitmat.O):
    cells = [
        (r, c)
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
        if rng.random() < density
    ]
    return bitmat_from_cells("SO", 1, row_space, col_space, rows, cols, cells)


def dense(bm):
    out = np.zeros((bm.n_rows, bm.n_cols), dtype=bool)
    for r, c in bm.cells():
        out[r - 1, c - 1] = True
    return out


class TestRowTest:
    @pytest.mark.parametrize("bits", ["1" * 15 + "0" * 25, "0" * 39 + "1", "0100000001"], ids=str)
    def test_matches_positions(self, bits):
        row = encode(bits)
        assert [p for p in range(1, len(bits) + 1) if row_test(row, p)] == list(row_positions(row))

    @pytest.mark.parametrize("tag", ["rle", "pos"])
    def test_position_outside_the_width_is_never_set(self, tag):
        # Each row has its first and last bit set: a run-length row starting
        # with a set run, and a position row holding 1 and the width.
        row = row_from_mask(0x7FFF | 1 << 39, 40) if tag == "rle" else row_from_positions([1, 40], 40)
        assert row.tag == tag
        assert row_test(row, 1) and row_test(row, 40)
        for pos in (0, -3, 41):
            assert not row_test(row, pos)


class TestFoldUnfold:
    def test_fold_row_is_row_wise_any(self):
        rng = random.Random(7)
        bm = random_bitmat(rng, 6, 6)
        got = fold(bm, "row")
        want = dense(bm).any(axis=1)
        assert [got.test(i + 1) for i in range(6)] == list(want)

    def test_fold_column_is_column_wise_any(self):
        rng = random.Random(8)
        bm = random_bitmat(rng, 6, 6)
        got = fold(bm, "column")
        want = dense(bm).any(axis=0)
        assert [got.test(i + 1) for i in range(6)] == list(want)

    def test_unfold_identity_with_full_mask(self):
        rng = random.Random(9)
        bm = random_bitmat(rng, 5, 5)
        before = set(bm.cells())
        unfold(bm, BitArray(bitmat.S, 5, (1 << 5) - 1), "row", so_count=5)
        assert set(bm.cells()) == before

    def test_unfold_filters_triples(self):
        rng = random.Random(10)
        bm = random_bitmat(rng, 8, 8)
        mask = BitArray(bitmat.O, 8, 0b10110101)
        kept = {(r, c) for r, c in bm.cells() if mask.test(c)}
        unfold(bm, mask, "column", so_count=8)
        assert set(bm.cells()) == kept
        assert bm.triple_count == len(kept)

    def test_unfold_then_fold_stays_inside_mask(self):
        rng = random.Random(11)
        bm = random_bitmat(rng, 8, 8)
        mask = BitArray(bitmat.S, 8, 0b00101100)
        unfold(bm, mask, "row", so_count=8)
        for pos in fold(bm, "row").positions():
            assert mask.test(pos)

    def test_width_mismatch_rejected(self):
        bm = random_bitmat(random.Random(1), 4, 4)
        with pytest.raises(DimensionMismatchError):
            unfold(bm, BitArray(bitmat.S, 9, 1), "row", so_count=4)

    def test_meta_tracks_mutations(self):
        rng = random.Random(12)
        bm = random_bitmat(rng, 10, 10)
        unfold(bm, BitArray(bitmat.O, 10, 0b11111), "column", so_count=10)
        assert bm.triple_count == sum(1 for _ in bm.cells())
        assert bm.nonempty_rows.count() == len(bm.rows)


class TestTransposeAndProduct:
    def test_double_transpose_is_identity(self):
        rng = random.Random(13)
        bm = random_bitmat(rng, 7, 5)
        back = transpose(transpose(bm))
        assert set(back.cells()) == set(bm.cells())
        assert (back.row_space, back.col_space) == (bm.row_space, bm.col_space)

    def test_transpose_equals_build_from_swapped_cells(self):
        rng = random.Random(17)
        tags = set()
        for trial in range(200):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            bm = random_bitmat(rng, rows, cols, density=rng.choice([0.05, 0.3, 0.7, 0.95]))
            if trial % 2:  # a working copy whose rows were re-encoded in place
                unfold(bm, BitArray(bitmat.O, cols, rng.getrandbits(cols)), "column", so_count=cols)
            tags |= {row.tag for row in bm.rows.values()}
            want = bitmat_from_cells(
                "OS", 1, bitmat.O, bitmat.S, cols, rows, [(c, r) for r, c in bm.cells()]
            )
            got = transpose(bm)
            assert (got.kind, got.slice_key, got.row_space, got.col_space) == ("OS", 1, bitmat.O, bitmat.S)
            assert (got.n_rows, got.n_cols, got.triple_count) == (cols, rows, want.triple_count)
            assert got.rows == want.rows
        assert tags == {"pos", "rle"}

    def test_product_against_identity(self):
        rng = random.Random(14)
        left = random_bitmat(rng, 6, 6, row_space=bitmat.S, col_space=bitmat.S)
        ident = bitmat_from_cells(
            "SO", 2, bitmat.S, bitmat.S, 6, 6, [(i, i) for i in range(1, 7)]
        )
        out = bmm(left, ident, so_count=6)
        assert set(out.cells()) == set(left.cells())

    def test_product_matches_cubic_loop(self):
        rng = random.Random(15)
        for _ in range(25):
            a = random_bitmat(rng, 8, 8, row_space=bitmat.S, col_space=bitmat.O)
            b = random_bitmat(rng, 8, 8, row_space=bitmat.O, col_space=bitmat.S)
            got = dense(bmm(a, b, so_count=8))
            want = dense(a) @ dense(b)
            assert (got == want).all()

    def test_product_associativity(self):
        rng = random.Random(16)
        for _ in range(10):
            a = random_bitmat(rng, 5, 5, row_space=bitmat.S, col_space=bitmat.S)
            b = random_bitmat(rng, 5, 5, row_space=bitmat.S, col_space=bitmat.S)
            c = random_bitmat(rng, 5, 5, row_space=bitmat.S, col_space=bitmat.S)
            lhs = bmm(bmm(a, b, 5), c, 5)
            rhs = bmm(a, bmm(b, c, 5), 5)
            assert set(lhs.cells()) == set(rhs.cells())

    def test_cross_space_product_meets_only_in_shared_range(self):
        # Object column 3 can meet subject row 3 only when 3 <= n_so.
        a = bitmat_from_cells("SO", 1, bitmat.S, bitmat.O, 4, 4, [(1, 3), (2, 4)])
        b = bitmat_from_cells("SO", 2, bitmat.S, bitmat.O, 4, 4, [(3, 1), (4, 2)])
        out = bmm(a, b, so_count=3)
        assert set(out.cells()) == {(1, 1)}  # row 4 of b is outside the overlap

    def test_dimension_mismatch_rejected(self):
        a = bitmat_from_cells("SO", 1, bitmat.S, bitmat.O, 4, 4, [(1, 1)])
        b = bitmat_from_cells("ROW", 2, bitmat.UNIT, bitmat.S, 4, 4, [(1, 1)])
        with pytest.raises(DimensionMismatchError):
            bmm(a, b, so_count=4)
