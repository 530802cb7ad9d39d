"""Per-query working matrices, one per triple pattern.

A working matrix wraps an S-O or O-S matrix of the pattern's predicate,
over the real subject and object spaces, with its dimensions mapped to the
pattern's variables. A two-variable pattern reads the whole matrix, or,
loaded with a mask on its row variable, only the rows the mask keeps. A
pattern with a constant subject or object is a masked read of that one
row of the S-O or O-S matrix; its row dimension has no variable. A ground
pattern is the constant subject's row, masked to the constant object's
bit. The shared store is never mutated: whole matrices are copied, and
semi-joins and load-time masks operate on the working matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import bitmat
from .algebra import Comparison, TriplePattern, Variable, eval_filter
from .bitmat import BitArray, BitMat, COL_DIM, ROW_DIM, fold, unfold
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

    Every pattern reads the S-O matrix of its predicate only. Two variables
    load the S-O or O-S matrix, oriented so the variable that joins first
    sits on the row dimension. ``keep`` gives, for a variable, the mask of
    the values it may take, or None; a two-variable pattern then reads only
    the rows its row variable may take. A fixed subject reads its one row
    of the S-O matrix and a fixed object its one row of the O-S matrix; a
    ground pattern reads the subject's row and keeps the object's bit.
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
    if s_var and o_var:
        kind = "SO" if first_join_var is None or first_join_var == tp.s or tp.s == tp.o else "OS"
        row_var, col_var = (tp.s, tp.o) if kind == "SO" else (tp.o, tp.s)
        mask = keep and keep(row_var)
    elif s_var:  # (?v :p :o): row :o of O-S(:p)
        kind, row_var, col_var = "OS", None, tp.s
        mask = _one_bit(bitmat.O, d.n_o, d.object_id(tp.o))
    else:  # (:s :p ?v) or (:s :p :o): row :s of S-O(:p)
        kind, row_var, col_var = "SO", None, tp.o if o_var else None
        mask = _one_bit(bitmat.S, d.n_s, d.subject_id(tp.s))
    if pid is None:
        bm = BitMat(bitmat.S, bitmat.O, d.n_s, d.n_o) if kind == "SO" else BitMat(bitmat.O, bitmat.S, d.n_o, d.n_s)
    elif mask is None:
        bm = store.bitmat(kind, pid).copy()
    else:
        bm = store.bitmat(kind + "_MASKED", pid, mask)
    pm = PatternMatrix(tp, row_var, col_var, bm)
    if not (s_var or o_var):
        unfold(bm, _one_bit(bitmat.O, d.n_o, d.object_id(tp.o)), COL_DIM, d.n_so)
    elif tp.s == tp.o:
        # Repeated variable: diagonal of the S-O matrix, shared ids only.
        diag = BitArray(bitmat.S, d.n_s, (1 << d.n_so) - 1)
        pm.unfold_var(tp.s, diag, d.n_so)
        for r in list(bm.rows):
            bm.mask_row(r, 1 << (r - 1))
    return pm


def _one_bit(space: str, width: int, pos: "int | None") -> BitArray:
    """The mask of ``pos`` alone, or the empty mask for a term with no id."""
    return BitArray(space, width, 0 if pos is None else 1 << (pos - 1))


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
