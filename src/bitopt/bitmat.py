"""Compressed 2D bit matrices and the primitives that drive query evaluation.

Each matrix row is kept in a hybrid encoding: alternating run lengths
("[1] 3 2 4 1" for 1110011110) or the list of set-bit positions ("3 6" for
0010010000), whichever needs fewer integers. Positions win ties only when
strictly smaller. All positions and row indexes are 1-based.

Row and column dimensions are tagged with the coordinate space they range
over (subject, object, or the 1-wide unit space of a sliced-out row).
Subject and object spaces share ids 1..n_so for terms that occur on both
sides; masks crossing the two spaces only intersect inside that range.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

S = "S"
O = "O"
UNIT = "U"


class DimensionMismatchError(ValueError):
    """A mask, row, or operand does not fit the dimension it is applied to."""


# ---------------------------------------------------------------------------
# Row compression


@dataclass(frozen=True, slots=True)
class CompressedRow:
    """One matrix row. ``tag`` is ``"rle"`` or ``"pos"``.

    For ``rle`` the payload holds run lengths of alternating bits starting
    with ``start_bit``; for ``pos`` it holds strictly increasing 1-based set
    positions and ``start_bit`` is unused (kept 0).
    """

    tag: str
    start_bit: int
    payload: tuple[int, ...]

    def __str__(self) -> str:
        if self.tag == "rle":
            return f"[{self.start_bit}] " + " ".join(str(n) for n in self.payload)
        return " ".join(str(n) for n in self.payload)


def row_positions(row: CompressedRow) -> Iterator[int]:
    """Set-bit positions without materializing the dense row."""
    if row.tag == "pos":
        yield from row.payload
        return
    at = 1
    bit = row.start_bit
    for length in row.payload:
        if bit:
            yield from range(at, at + length)
        at += length
        bit ^= 1


def row_test(row: CompressedRow, pos: int) -> bool:
    """Whether bit ``pos`` is set, without decoding the row. A position
    outside 1..width is never set."""
    if row.tag == "pos":
        at = bisect_left(row.payload, pos)
        return at < len(row.payload) and row.payload[at] == pos
    return runs_test(row.start_bit, row.payload, pos)


def runs_test(start_bit: int, runs: Sequence[int], pos: int) -> bool:
    """Whether bit ``pos`` is set in the run lengths ``runs`` whose first
    run holds ``start_bit``. A position outside 1..width is never set."""
    if pos < 1:
        return False
    end = 0
    bit = start_bit
    for length in runs:
        end += length
        if pos <= end:
            return bool(bit)
        bit ^= 1
    return False


def row_mask(row: CompressedRow) -> int:
    if row.tag == "pos":
        mask = 0
        for pos in row.payload:
            mask |= 1 << (pos - 1)
        return mask
    mask = 0
    at = 0
    bit = row.start_bit
    for length in row.payload:
        if bit:
            mask |= ((1 << length) - 1) << at
        at += length
        bit ^= 1
    return mask


def row_from_mask(mask: int, width: int) -> CompressedRow:
    if mask < 0 or mask >> width:
        raise DimensionMismatchError("mask has bits beyond the row width")
    # Walk runs via bit scanning; avoids per-bit work on long runs.
    runs = []
    at = 0
    bit = mask & 1
    start_bit = bit
    current = bit
    while at < width:
        if current:
            chunk = (~mask) >> at
        else:
            chunk = mask >> at
        step = (chunk & -chunk).bit_length() - 1 if chunk else width - at
        step = min(step, width - at)
        runs.append(step)
        at += step
        current ^= 1
    popcount = mask.bit_count()
    if popcount < len(runs):
        return CompressedRow("pos", 0, tuple(_iter_mask(mask)))
    return CompressedRow("rle", start_bit, tuple(runs))


def row_from_positions(positions: Sequence[int], width: int) -> CompressedRow:
    """Same row as ``row_from_mask`` for the mask of ``positions`` (strictly
    increasing, 1-based), built from the runs of consecutive positions
    without a big-int mask."""
    if positions and (positions[0] < 1 or positions[-1] > width):
        raise DimensionMismatchError("position outside the row width")
    if len(positions) == 1 < width:  # one set bit takes two or three runs
        return CompressedRow("pos", 0, tuple(positions))
    runs = []
    end = 0  # positions 1..end are covered by ``runs`` and ``ones``
    ones = 0
    for pos in positions:
        if pos > end + 1:
            if ones:
                runs.append(ones)
            runs.append(pos - end - 1)
            ones = 0
        ones += 1
        end = pos
    if ones:
        runs.append(ones)
    if end < width:
        runs.append(width - end)
    if len(positions) < len(runs):
        return CompressedRow("pos", 0, tuple(positions))
    start_bit = 1 if positions and positions[0] == 1 else 0
    return CompressedRow("rle", start_bit, tuple(runs))


def _iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


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

    def positions(self) -> Iterator[int]:
        return _iter_mask(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0


def align_mask(mask: BitArray, space: str, width: int, so_count: int) -> int:
    """Project ``mask`` onto a dimension in ``space``.

    Same space: identity. Subject vs object: only the shared 1..so_count ids
    denote the same terms, everything above differs, so the projection
    truncates there. Any predicate/unit mixing is a contract violation.
    """
    if mask.space == space:
        if mask.width != width:
            raise DimensionMismatchError(
                f"mask width {mask.width} != dimension width {width}"
            )
        return mask.mask
    if {mask.space, space} == {S, O}:
        return mask.mask & ((1 << so_count) - 1)
    raise DimensionMismatchError(f"cannot align {mask.space} mask to {space} dimension")


def intersect_arrays(a: BitArray, b: BitArray, so_count: int) -> BitArray:
    """AND of two masks in the coordinate space of ``a``."""
    return BitArray(a.space, a.width, a.mask & align_mask(b, a.space, a.width, so_count))


# ---------------------------------------------------------------------------
# Bit matrices


@dataclass
class BitMat:
    """2D bit matrix over one predicate (S-O/O-S) or derived from one (a
    single row or column, a product, a per-query working copy).

    ``rows`` holds only non-empty rows. Metadata (triple count, non-empty
    row/column masks) is kept in sync by every mutating operation.
    """

    kind: str  # "SO" | "OS" | derived tags ("ROW", "BMM", ...)
    slice_key: int
    row_space: str
    col_space: str
    n_rows: int
    n_cols: int
    rows: dict[int, CompressedRow] = field(default_factory=dict)
    triple_count: int = 0

    def __post_init__(self):
        if self.triple_count == 0 and self.rows:
            self.refresh_meta()

    # -- metadata -----------------------------------------------------------

    def refresh_meta(self) -> None:
        self.triple_count = sum(
            row.payload.__len__() if row.tag == "pos" else row_mask(row).bit_count()
            for row in self.rows.values()
        )

    @property
    def nonempty_rows(self) -> BitArray:
        mask = 0
        for r in self.rows:
            mask |= 1 << (r - 1)
        return BitArray(self.row_space, self.n_rows, mask)

    @property
    def nonempty_cols(self) -> BitArray:
        mask = 0
        for row in self.rows.values():
            mask |= row_mask(row)
        return BitArray(self.col_space, self.n_cols, mask)

    def row_bits(self, idx: int) -> int:
        row = self.rows.get(idx)
        return row_mask(row) if row is not None else 0

    def mask_row(self, idx: int, keep: int) -> None:
        """Clear the bits of row ``idx`` that are 0 in ``keep``. The row is
        decoded once, and re-encoded only when it loses a bit."""
        row = self.rows.get(idx)
        if row is None:
            return
        old = row_mask(row)
        new = old & keep
        if new == old:
            return
        if new:
            self.rows[idx] = row_from_mask(new, self.n_cols)
        else:
            del self.rows[idx]
        self.triple_count -= old.bit_count() - new.bit_count()

    def cells(self) -> Iterator[tuple[int, int]]:
        for r in sorted(self.rows):
            for c in row_positions(self.rows[r]):
                yield (r, c)

    def copy(self) -> "BitMat":
        return replace(self, rows=dict(self.rows))

    def test(self, r: int, c: int) -> bool:
        row = self.rows.get(r)
        return row is not None and row_test(row, c)


def bitmat_from_cells(
    kind: str,
    slice_key: int,
    row_space: str,
    col_space: str,
    n_rows: int,
    n_cols: int,
    cells: Iterable[tuple[int, int]],
) -> BitMat:
    positions: dict[int, list[int]] = {}
    for r, c in cells:
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise DimensionMismatchError(f"cell ({r},{c}) outside {n_rows}x{n_cols}")
        row = positions.get(r)
        if row is None:
            positions[r] = [c]
        else:
            row.append(c)
    bm = BitMat(kind, slice_key, row_space, col_space, n_rows, n_cols)
    for r, cols in positions.items():
        cols = sorted(set(cols))
        bm.rows[r] = row_from_positions(cols, n_cols)
        bm.triple_count += len(cols)
    return bm


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
            bm.mask_row(r, 0)
    elif retain == COL_DIM:
        keep = align_mask(mask, bm.col_space, bm.n_cols, so_count)
        for r in list(bm.rows):
            bm.mask_row(r, keep)
    else:
        raise DimensionMismatchError(f"retain must be 'row' or 'column', got {retain!r}")


def transpose(bm: BitMat) -> BitMat:
    """The rows are read in ascending order, so each column's list of row
    indexes comes out sorted and distinct, ready to encode."""
    kind = {"SO": "OS", "OS": "SO"}.get(bm.kind, bm.kind + "T")
    cols: dict[int, list[int]] = {}
    for r in sorted(bm.rows):
        row = bm.rows[r]
        for c in row.payload if row.tag == "pos" else row_positions(row):
            col = cols.get(c)
            if col is None:
                cols[c] = [r]
            else:
                col.append(r)
    out = BitMat(kind, bm.slice_key, bm.col_space, bm.row_space, bm.n_cols, bm.n_rows)
    for c, rows in cols.items():
        out.rows[c] = row_from_positions(rows, bm.n_rows)
    out.triple_count = bm.triple_count
    return out


def bmm(left: BitMat, right: BitMat, so_count: int) -> BitMat:
    """Boolean matrix product: out(i,k) = exists j with left(i,j) and right(j,k).

    The shared dimension must range over one coordinate space, or over the
    subject/object pair, where only ids 1..so_count can meet.
    """
    if left.col_space == right.row_space:
        if left.n_cols != right.n_rows:
            raise DimensionMismatchError(
                f"inner dimensions differ: {left.n_cols} vs {right.n_rows}"
            )
        limit = None
    elif {left.col_space, right.row_space} == {S, O}:
        limit = so_count
    else:
        raise DimensionMismatchError(
            f"cannot multiply {left.col_space} columns into {right.row_space} rows"
        )
    out = BitMat("BMM", 0, left.row_space, right.col_space, left.n_rows, right.n_cols)
    for i in sorted(left.rows):
        acc = 0
        for j in row_positions(left.rows[i]):
            if limit is not None and j > limit:
                break  # positions ascend; nothing above the shared range joins
            acc |= right.row_bits(j)
        if acc:
            out.rows[i] = row_from_mask(acc, out.n_cols)
    out.refresh_meta()
    return out
