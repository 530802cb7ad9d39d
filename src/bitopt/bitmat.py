"""2D bit matrices and the primitives that drive query evaluation.

A matrix row is a Python ``int``: bit p-1 is position p, and a matrix
keeps only its non-zero rows. Folds, masks, semi-joins and products are
then int operations. The store's files hold rows in a compressed encoding;
``store`` alone reads and writes it. All positions and row indexes are
1-based.

Row and column dimensions are tagged with the coordinate space they range
over, subject or object. The two spaces share ids 1..n_so for terms that
occur on both sides; masks crossing them only intersect inside that range.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import compress
from operator import or_
from typing import Collection, Iterator

S = "S"
O = "O"


class DimensionMismatchError(ValueError):
    """A mask, row, or operand does not fit the dimension it is applied to."""


# ---------------------------------------------------------------------------
# Rows as ints


def row_from_positions(ones: Collection[int]) -> int:
    """The row whose set positions are ``ones`` (distinct, 1-based, in any
    order). Few positions are summed as bits; many are written into a
    string of binary digits that is parsed once, since a sum rebuilds a
    wide int per position."""
    if len(ones) < 64:
        return sum(map((1).__lshift__, ones)) >> 1
    digits = bytearray(b"0") * max(ones)
    for pos in ones:
        digits[-pos] = 49  # b"1"; the last digit is position 1
    return int(digits, 2)


def row_from_mask(mask: int, width: int) -> int:
    """``mask`` as a row of ``width`` positions, checked: the constructor of
    a row that a mask rewrote or a product built."""
    if mask < 0 or mask >> width:
        raise DimensionMismatchError("mask has bits beyond the row width")
    return mask


_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def positions(mask: int) -> list[int]:
    """The set positions of ``mask``, ascending. A mask with few bits, or
    with fewer than one bit in six set, is walked from its highest bit; a
    denser one has its binary digits selected, since each step of the walk
    copies the remaining int."""
    count = mask.bit_count()
    if count < 32 or 6 * count < mask.bit_length():
        out = []
        while mask:  # from the top: clearing it shortens the int
            pos = mask.bit_length()
            out.append(pos)
            mask ^= 1 << (pos - 1)
        out.reverse()
        return out
    digits = bin(mask)[:1:-1]  # digit i is position i + 1
    return list(compress(range(1, len(digits) + 1), digits.encode().translate(_BINARY_DIGITS)))


# ---------------------------------------------------------------------------
# Bit arrays (one-dimensional masks)


@dataclass(frozen=True, slots=True)
class BitArray:
    space: str
    width: int
    mask: int = 0

    def test(self, pos: int) -> bool:
        return bool(self.mask >> (pos - 1) & 1)

    def count(self) -> int:
        return self.mask.bit_count()

    def positions(self) -> list[int]:
        return positions(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0


def align_mask(mask: BitArray, space: str, width: int, so_count: int) -> int:
    """Project ``mask`` onto a dimension in ``space``.

    Same space: identity. Subject vs object: only the shared 1..so_count ids
    denote the same terms, everything above differs, so the projection
    truncates there.
    """
    if mask.space != space:
        return mask.mask & ((1 << so_count) - 1)
    if mask.width != width:
        raise DimensionMismatchError(f"mask width {mask.width} != dimension width {width}")
    return mask.mask


def intersect_arrays(a: BitArray, b: BitArray, so_count: int) -> BitArray:
    """AND of two masks in the coordinate space of ``a``."""
    return BitArray(a.space, a.width, a.mask & align_mask(b, a.space, a.width, so_count))


# ---------------------------------------------------------------------------
# Bit matrices


@dataclass
class BitMat:
    """2D bit matrix over one predicate, S-O or O-S, or derived from one (a
    product, a per-query working copy).

    ``rows`` maps a row index to its non-zero row. The triple count is
    kept in sync by every mutating operation.
    """

    row_space: str
    col_space: str
    n_rows: int
    n_cols: int
    rows: dict[int, int] = field(default_factory=dict)
    triple_count: int = 0

    def __post_init__(self):
        if self.triple_count == 0 and self.rows:
            self.refresh_meta()

    # -- metadata -----------------------------------------------------------

    def refresh_meta(self) -> None:
        self.triple_count = sum(map(int.bit_count, self.rows.values()))

    @property
    def nonempty_rows(self) -> BitArray:
        return BitArray(self.row_space, self.n_rows, row_from_positions(self.rows))

    @property
    def nonempty_cols(self) -> BitArray:
        return BitArray(self.col_space, self.n_cols, reduce(or_, self.rows.values(), 0))

    def mask_row(self, idx: int, keep: int) -> None:
        """Clear the bits of row ``idx`` that are 0 in ``keep``."""
        row = self.rows.get(idx)
        if row is None:
            return
        new = row & keep
        if new != row:
            if new:
                self.rows[idx] = row_from_mask(new, self.n_cols)
            else:
                del self.rows[idx]
            self.triple_count -= row.bit_count() - new.bit_count()

    def cells(self) -> Iterator[tuple[int, int]]:
        for r in sorted(self.rows):
            for c in positions(self.rows[r]):
                yield (r, c)

    def copy(self) -> "BitMat":
        return replace(self, rows=dict(self.rows))

    def test(self, r: int, c: int) -> bool:
        """Whether cell (r, c) is set; a column outside 1..n_cols never is."""
        return c >= 1 and bool(self.rows.get(r, 0) >> (c - 1) & 1)


ROW_DIM = "row"
COL_DIM = "column"


def fold(bm: BitMat, retain: str) -> BitArray:
    """Project one dimension: bit i set iff coordinate i carries a triple."""
    if retain == ROW_DIM:
        return bm.nonempty_rows
    if retain == COL_DIM:
        return bm.nonempty_cols
    raise DimensionMismatchError(f"retain must be 'row' or 'column', got {retain!r}")


def unfold(bm: BitMat, mask: BitArray, retain: str, so_count: int) -> None:
    """Clear every triple whose retained-dimension coordinate is 0 in ``mask``."""
    if retain == ROW_DIM:
        keep = align_mask(mask, bm.row_space, bm.n_rows, so_count)
        for r in [r for r in bm.rows if not keep >> (r - 1) & 1]:
            bm.triple_count -= bm.rows.pop(r).bit_count()
    elif retain == COL_DIM:
        keep = align_mask(mask, bm.col_space, bm.n_cols, so_count)
        for r in list(bm.rows):
            bm.mask_row(r, keep)
    else:
        raise DimensionMismatchError(f"retain must be 'row' or 'column', got {retain!r}")


def transpose(bm: BitMat) -> BitMat:
    """Each column's row indexes are gathered, then built into a row once."""
    cols: defaultdict[int, list[int]] = defaultdict(list)
    for r, row in bm.rows.items():
        if row & (row - 1):
            for c in positions(row):
                cols[c].append(r)
        else:  # one bit, as in most rows of most S-O matrices
            cols[row.bit_length()].append(r)
    out = BitMat(bm.col_space, bm.row_space, bm.n_cols, bm.n_rows)
    out.rows = {c: 1 << (rows[0] - 1) if len(rows) == 1 else row_from_positions(rows) for c, rows in cols.items()}
    out.triple_count = bm.triple_count
    return out


def bmm(left: BitMat, right: BitMat, so_count: int) -> BitMat:
    """Boolean matrix product: out(i,k) = exists j with left(i,j) and right(j,k).

    The shared dimension ranges over one coordinate space, or over the
    subject/object pair, where only ids 1..so_count can meet.
    """
    if left.col_space != right.row_space:
        shared = (1 << so_count) - 1
    elif left.n_cols != right.n_rows:
        raise DimensionMismatchError(f"inner dimensions differ: {left.n_cols} vs {right.n_rows}")
    else:
        shared = -1  # every bit
    out = BitMat(left.row_space, right.col_space, left.n_rows, right.n_cols)
    rows = right.rows
    for i, row in left.rows.items():
        acc = 0
        for j in positions(row & shared):
            acc |= rows.get(j, 0)
        if acc:
            out.rows[i] = row_from_mask(acc, out.n_cols)
    out.refresh_meta()
    return out
