"""Per-query working matrices, one per triple pattern.

A working matrix wraps a (copy of a) stored BitMat with its dimensions
mapped to the pattern's variables: a two-variable pattern is an S-O or O-S
slice, patterns with one constant collapse to a single indexed row (a row
or a column read of the S-O matrix), and a ground pattern is a 1x1
presence bit, one test of one row. A two-variable pattern loaded with a
mask on its row variable reads only the rows the mask keeps. The shared
store is never mutated; semi-joins and load-time masks operate on these
copies only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import bitmat
from .algebra import Comparison, TriplePattern, Variable, eval_filter
from .bitmat import BitArray, BitMat, COL_DIM, ROW_DIM, bitmat_from_cells, fold, unfold
from .store import Dictionary, TripleStore


class UnsupportedByIndexError(ValueError):
    """Pattern shape the bit-matrix indexes cannot serve (variable
    predicates; the brute-force path still evaluates them)."""


@dataclass
class PatternMatrix:
    pattern: "TriplePattern | None"
    row_var: "Variable | None"
    col_var: "Variable | None"
    bm: BitMat
    sid: int = 0  # supernode id, filled by the executor

    @property
    def count(self) -> int:
        return self.bm.triple_count

    def vars(self) -> tuple[Variable, ...]:
        if self.row_var is not None and self.col_var is not None and self.row_var != self.col_var:
            return (self.row_var, self.col_var)
        if self.row_var is not None:
            return (self.row_var,)
        if self.col_var is not None:
            return (self.col_var,)
        return ()

    @property
    def label(self) -> str:
        return self.pattern.label if self.pattern is not None else "T?"

    # -- dimension plumbing ---------------------------------------------------

    def dim_of(self, var: Variable) -> str:
        """'row' or 'column'; the row dimension wins for repeated variables."""
        if var == self.row_var:
            return ROW_DIM
        if var == self.col_var:
            return COL_DIM
        raise KeyError(f"{var} not bound by {self.label}")

    def space_of(self, var: Variable) -> str:
        return self.bm.row_space if self.dim_of(var) == ROW_DIM else self.bm.col_space

    def fold_var(self, var: Variable) -> BitArray:
        return fold(self.bm, self.dim_of(var))

    def unfold_var(self, var: Variable, mask: BitArray, so_count: int) -> None:
        unfold(self.bm, mask, self.dim_of(var), so_count)

    # -- enumeration ----------------------------------------------------------

    def bindings(self, r: "int | None", c: "int | None") -> Iterator[tuple[int, int]]:
        """Yield the (row, column) cells of the matrix in row ``r`` and
        column ``c``. None leaves a dimension free; 0, which is no position,
        matches nothing."""
        bm = self.bm
        if r == 0 or c == 0:
            return
        for ridx in sorted(bm.rows) if r is None else (r,):
            if c is not None:
                if bm.test(ridx, c):
                    yield ridx, c
                continue
            for cidx in bitmat.positions(bm.rows.get(ridx, 0)):
                yield ridx, cidx


def select_pattern_matrix(
    store: TripleStore,
    tp: TriplePattern,
    first_join_var: "Variable | None" = None,
    keep: "Callable[[Variable], BitArray | None] | None" = None,
) -> PatternMatrix:
    """Load the working matrix for a pattern.

    Every pattern reads the S-O matrix of its predicate only. A fixed
    subject loads that subject's row, a fixed object that object's column
    (as a one-row matrix), and a ground pattern tests one bit of a row. Two
    variables load the S-O or O-S slice, oriented so the variable that
    joins first sits on the row dimension. ``keep`` gives, for a variable,
    the mask of the values it may take, or None; a two-variable pattern
    then reads only the rows its row variable may take.
    """
    d = store.dictionary
    if isinstance(tp.p, Variable):
        raise UnsupportedByIndexError(
            f"{tp.label} has a variable predicate; joins on the predicate "
            "dimension are not index-supported"
        )
    pid = d.predicate_id(tp.p)
    s_var = isinstance(tp.s, Variable)
    o_var = isinstance(tp.o, Variable)

    def empty(row_var, col_var, n_cols, col_space):
        bm = BitMat("ROW", 0, bitmat.UNIT, col_space, 1, max(n_cols, 1))
        return PatternMatrix(tp, row_var, col_var, bm)

    if s_var and o_var:
        kind = "SO" if first_join_var is None or first_join_var == tp.s or tp.s == tp.o else "OS"
        row_var, col_var = (tp.s, tp.o) if kind == "SO" else (tp.o, tp.s)
        pm = PatternMatrix(tp, row_var, col_var, _so_slice(store, pid, kind, keep and keep(row_var)))
        if tp.s == tp.o:
            # Repeated variable: diagonal of the S-O slice, shared ids only.
            diag = BitArray(bitmat.S, d.n_s, (1 << d.n_so) - 1)
            pm.unfold_var(tp.s, diag, d.n_so)
            for r in list(pm.bm.rows):
                pm.bm.mask_row(r, 1 << (r - 1))
        return pm
    if s_var:
        # (?v :p :o) -> column :o of S-O(:p)
        oid = d.object_id(tp.o)
        if pid is None or oid is None:
            return empty(None, tp.s, d.n_s, bitmat.S)
        return PatternMatrix(tp, None, tp.s, store.bitmat("SO_COL", (pid, oid)).copy())
    if o_var:
        # (:s :p ?v) -> row :s of S-O(:p)
        sid = d.subject_id(tp.s)
        if pid is None or sid is None:
            return empty(None, tp.o, d.n_o, bitmat.O)
        return PatternMatrix(tp, None, tp.o, store.bitmat("SO_ROW", (pid, sid)).copy())
    # Ground pattern: presence bit, one test of row :s.
    sid = d.subject_id(tp.s)
    oid = d.object_id(tp.o)
    present = None not in (pid, sid, oid) and store.bitmat("SO_ROW", (pid, sid)).test(1, oid)
    bm = bitmat_from_cells("ROW", 0, bitmat.UNIT, bitmat.UNIT, 1, 1, [(1, 1)] if present else [])
    return PatternMatrix(tp, None, None, bm)


def _so_slice(store: TripleStore, pid: "int | None", kind: str, keep: "BitArray | None") -> BitMat:
    d = store.dictionary
    if pid is None:
        spaces = (bitmat.S, bitmat.O) if kind == "SO" else (bitmat.O, bitmat.S)
        dims = (d.n_s, d.n_o) if kind == "SO" else (d.n_o, d.n_s)
        return BitMat(kind, 0, spaces[0], spaces[1], max(dims[0], 1), max(dims[1], 1))
    if keep is None:
        return store.bitmat(kind, pid).copy()
    return store.bitmat(kind + "_MASKED", pid, keep).copy()


def apply_loadtime_conjunct(pm: PatternMatrix, conjunct: Comparison, var: Variable, dictionary: Dictionary) -> None:
    """Mask one dimension by evaluating a single-variable comparison over the
    candidate terms of that dimension."""
    space = pm.space_of(var)
    width = pm.bm.n_rows if pm.dim_of(var) == ROW_DIM else pm.bm.n_cols
    mask = 0
    current = pm.fold_var(var)
    for pos in current.positions():
        term = dictionary.term(dictionary.key(space, pos))
        if eval_filter(conjunct, lambda v, t=term: t) is True:
            mask |= 1 << (pos - 1)
    pm.unfold_var(var, BitArray(space, width, mask), dictionary.n_so)
