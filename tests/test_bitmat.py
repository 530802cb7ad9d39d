"""Row encoding in store files, rows as ints, and the
fold/unfold/transpose/product primitives, checked against dense-matrix
brute force."""

import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitopt import bitmat
from bitopt.bitmat import (
    BitArray,
    BitMat,
    DimensionMismatchError,
    bmm,
    fold,
    positions,
    row_from_positions,
    transpose,
    unfold,
)
from bitopt.store import Dictionary, StoreError, _encode_matrix, _MatrixWords


def ones_of(bits):
    """The set positions of a bit string or list: item i is position i + 1."""
    return [i for i, b in enumerate(bits, start=1) if b in (1, "1")]


def stored_row(bits):
    """A one-row matrix file holding ``bits`` as row 1, read back: its
    words and the row decoded from them (0 when empty)."""
    ones = ones_of(bits)
    data = _encode_matrix(1, {1: ones} if ones else {}, 1, len(bits))
    words = _MatrixWords("row.bin", data, Dictionary(b"", 1, len(bits), 0, 1))
    return words, words.row_of(1) or 0


def encode(bits):
    """The file words of row 1 holding ``bits``: its length and its set
    positions, as a one-row matrix file stores them after its header and
    the row's index."""
    return list(stored_row(bits)[0].words[8:])


def render(words):
    """A row's file words as the paper writes a row of set positions:
    "3 6"."""
    return " ".join(map(str, words[1:]))


class TestRowEncoding:
    """The store's file encoding of a row: its length and its set
    positions."""

    def test_set_positions_worked_example(self):
        words = encode("0010010000")
        assert words == [2, 3, 6]
        assert render(words) == "3 6"

    def test_all_zero_row_uses_empty_positions(self):
        # An empty row is not stored: the file is its header alone.
        words, row = stored_row("00000")
        assert list(words.words) == [0, 1, 1, 5, 0, 0, 0] and row == 0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=1024))
    @settings(max_examples=300)
    def test_round_trip(self, bits):
        _, row = stored_row(bits)
        assert row == sum(b << i for i, b in enumerate(bits))
        assert positions(row) == ones_of(bits)

    @given(st.integers(1, 200), st.integers(0, 2**64))
    def test_mask_round_trip(self, width, seed):
        mask = seed & ((1 << width) - 1)
        bits = [mask >> i & 1 for i in range(width)]
        assert stored_row(bits)[1] == mask
        assert positions(mask) == ones_of(bits)


class TestRowFromPositions:
    """``row_from_positions`` builds the int of its positions, in any order,
    and ``positions`` gives them back; a stored row's file words are its
    length and those positions."""

    @staticmethod
    def _check(ones, width):
        mask = 0
        for pos in ones:
            mask |= 1 << (pos - 1)
        assert row_from_positions(ones) == mask
        assert row_from_positions(ones[::-1]) == mask
        assert positions(mask) == ones
        bits = [mask >> i & 1 for i in range(width)]
        assert encode(bits) == ([len(ones), *ones] if ones else [])
        assert stored_row(bits)[1] == mask

    def test_random_rows(self):
        rng = random.Random(7)
        for _ in range(2000):
            width = rng.randint(1, 130)
            density = rng.random()
            self._check([p for p in range(1, width + 1) if rng.random() < density], width)

    def test_wide_rows_of_every_density(self):
        # Rows walked bit by bit and rows selected from their digits, built
        # by sums and from digits.
        rng = random.Random(8)
        for width in (70, 700, 7000):
            for density in (0.001, 0.01, 0.05, 0.2, 0.6, 1.0):
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
        # The encoder takes its ids from the dictionary; a read checks them.
        data = _encode_matrix(1, {1: [3]}, 1, 2)
        words = _MatrixWords("row.bin", data, Dictionary(b"", 1, 2, 0, 1))
        with pytest.raises(StoreError, match="row 1 does not fit 1x2"):
            words.row_of(1)


def bitmat_from_cells(row_space, col_space, n_rows, n_cols, cells):
    """The matrix of ``cells``, (row, column) pairs inside n_rows x n_cols."""
    by_row = defaultdict(set)
    for r, c in cells:
        assert 1 <= r <= n_rows and 1 <= c <= n_cols, (r, c)
        by_row[r].add(c)
    return BitMat(row_space, col_space, n_rows, n_cols, {r: row_from_positions(cols) for r, cols in by_row.items()})


def random_bitmat(rng, rows, cols, density=0.3, row_space=bitmat.S, col_space=bitmat.O):
    cells = [
        (r, c)
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
        if rng.random() < density
    ]
    return bitmat_from_cells(row_space, col_space, rows, cols, cells)


def dense(bm):
    out = np.zeros((bm.n_rows, bm.n_cols), dtype=bool)
    for r, c in bm.cells():
        out[r - 1, c - 1] = True
    return out


class TestRowTest:
    """A bit test, on an in-memory row and as a column read of the file."""

    @pytest.mark.parametrize("bits", ["1" * 15 + "0" * 25, "0" * 39 + "1", "0100000001"], ids=str)
    def test_matches_positions(self, bits):
        words, row = stored_row(bits)
        bm = BitMat(bitmat.S, bitmat.O, 1, len(bits), {1: row})
        ones = ones_of(bits)
        assert [p for p in range(1, len(bits) + 1) if bm.test(1, p)] == ones
        assert [p for p in range(1, len(bits) + 1) if words.column(p) is not None] == ones

    @pytest.mark.parametrize("bits", ["1" * 15 + "0" * 24 + "1", "1" + "0" * 38 + "1"], ids=["run", "pos"])
    def test_position_outside_the_width_is_never_set(self, bits):
        # Each row has its first and last bit set.
        words, row = stored_row(bits)
        bm = BitMat(bitmat.S, bitmat.O, 1, 40, {1: row})
        assert bm.test(1, 1) and bm.test(1, 40)
        assert words.column(1) == words.column(40) == 1
        for pos in (0, -3, 41):
            assert not bm.test(1, pos)
            assert words.column(pos) is None


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
        widest = 0
        for trial in range(200):
            if trial % 20:
                rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            else:  # columns of many rows are built from binary digits
                rows, cols = rng.randint(60, 150), rng.randint(1, 12)
            bm = random_bitmat(rng, rows, cols, density=rng.choice([0.05, 0.3, 0.7, 0.95]))
            if trial % 2:  # a working copy whose rows lost bits in place
                unfold(bm, BitArray(bitmat.O, cols, rng.getrandbits(cols)), "column", so_count=cols)
            assert all(row > 0 for row in bm.rows.values())
            want = bitmat_from_cells(bitmat.O, bitmat.S, cols, rows, [(c, r) for r, c in bm.cells()])
            got = transpose(bm)
            assert (got.row_space, got.col_space) == (bitmat.O, bitmat.S)
            assert (got.n_rows, got.n_cols, got.triple_count) == (cols, rows, want.triple_count)
            assert got.rows == want.rows
            widest = max(widest, *map(int.bit_count, got.rows.values()), 0)
        assert widest >= 64

    def test_product_against_identity(self):
        rng = random.Random(14)
        left = random_bitmat(rng, 6, 6, row_space=bitmat.S, col_space=bitmat.S)
        ident = bitmat_from_cells(bitmat.S, bitmat.S, 6, 6, [(i, i) for i in range(1, 7)])
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
        a = bitmat_from_cells(bitmat.S, bitmat.O, 4, 4, [(1, 3), (2, 4)])
        b = bitmat_from_cells(bitmat.S, bitmat.O, 4, 4, [(3, 1), (4, 2)])
        out = bmm(a, b, so_count=3)
        assert set(out.cells()) == {(1, 1)}  # row 4 of b is outside the overlap

    def test_dimension_mismatch_rejected(self):
        # One coordinate space on both sides of the product, of two widths.
        a = bitmat_from_cells(bitmat.S, bitmat.O, 4, 4, [(1, 1)])
        b = bitmat_from_cells(bitmat.O, bitmat.S, 5, 4, [(1, 1)])
        with pytest.raises(DimensionMismatchError):
            bmm(a, b, so_count=4)
