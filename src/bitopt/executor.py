"""Pipelined evaluation: pattern ordering, the multi-way join with
backtracking and NULL extension, nullification, best-match, and the query
pipeline in two steps. ``plan_query`` places filters and expands to union
normal form; each disjunct is the unit of planning, analyzed, loaded and
pruned on its own, so a UNION branch loads masked by its masters.
``execute`` runs one join per disjunct and applies minimum union where
required.

The join keeps no intermediate tables: its only mutable state is one
binding list (a cell per variable), one status list (a cell per pattern)
and a recursion stack bounded by the pattern count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .algebra import (
    Bgp,
    PatternNode,
    Query,
    Variable,
    coalesce_bgps,
    eval_filter,
    node_patterns,
    node_vars,
    serialize,
)
from .bitmat import transpose
from .patmat import PatternMatrix, UnsupportedByIndexError
from .pruning import PruneContext, PruneSchedule, load_matrices, prune_triples
from .rewriter import ScopedConjunct, collect_scoped_conjuncts, to_unf, push_filters
from .store import TripleStore
from .structure import (
    DisconnectedQueryError,
    Gosn,
    Got,
    StructureReport,
    build_gosn,
    build_got,
    check_property_one,
    classify,
)
from .terms import Term

BOUND = "bound"
FAILED = "failed"
SKIPPED = "skipped"


@dataclass
class RunConfig:
    prune: bool = True
    unsafe_order: bool = False
    nullify: str = "auto"  # auto | on | off
    best_match: str = "auto"  # auto | on | off


@dataclass
class Relation:
    """Bag of rows over a fixed variable header; NULL is None. A row's cells
    are terms, or join keys (``Dictionary.key``) until the rows a caller
    keeps are turned into terms."""

    header: tuple[Variable, ...]
    rows: list[tuple] = field(default_factory=list)

    def project(self, variables: tuple[Variable, ...]) -> "Relation":
        idx = [self.header.index(v) for v in variables]
        return Relation(variables, [tuple(row[i] for i in idx) for row in self.rows])


def subsumes(r1: tuple, r2: tuple) -> bool:
    """True iff every non-null binding of r1 equals r2's and r2 binds
    strictly more (same header assumed)."""
    strictly_more = False
    for a, b in zip(r1, r2):
        if a is None:
            if b is not None:
                strictly_more = True
        elif a != b:
            return False
    return strictly_more


def best_match(relation: Relation) -> Relation:
    """Minimum union: drop every row that another row subsumes; exact
    duplicates collapse. Only a row whose NULL positions are a strict subset
    of a row's own, and that agrees with it on every cell it binds, can
    subsume it. So the distinct rows are grouped by NULL pattern, and a row
    is dropped when its projection onto its bound positions is a projection
    of some row of a strictly wider group. Subsumption is transitive, so
    being subsumed by any row is the same as being subsumed by a kept one.
    A cell is only tested against None and for equality, so the rows may be
    join keys as well as terms. The kept rows are in no particular order."""
    groups: dict[frozenset[int], list[tuple]] = defaultdict(list)
    for row in set(relation.rows):
        groups[frozenset(i for i, t in enumerate(row) if t is None)].append(row)
    kept: list[tuple] = []
    for nulls, group in groups.items():
        if not nulls:
            kept.extend(group)
            continue
        bound = [i for i in range(len(group[0])) if i not in nulls]
        covered = {
            tuple(row[i] for i in bound)
            for wider, rows in groups.items()
            if wider < nulls
            for row in rows
        }
        kept.extend(row for row in group if tuple(row[i] for i in bound) not in covered)
    return Relation(relation.header, kept)


# ---------------------------------------------------------------------------
# Pattern ordering


def build_stps(gosn: Gosn, got: Got, matrices: dict[int, PatternMatrix]) -> list[int]:
    """tporder: the given matrices by supernode (absolute master first, then
    master-slave order), peers ascending by surviving count; stps reorders
    tporder so every matrix shares an edge of ``got`` with an earlier one.
    ``got`` is any graph whose ``edges`` are keyed by pairs of ``matrices``
    keys: the pattern graph, or a DISTINCT covering subgraph."""
    sn_rank = {sid: i for i, sid in enumerate(gosn.topo_order())}
    tporder = sorted(
        matrices,
        key=lambda idx: (sn_rank[matrices[idx].sid], matrices[idx].count, idx),
    )
    if not tporder:
        return []
    stps = [tporder[0]]
    remaining = tporder[1:]
    while remaining:
        for idx in remaining:
            if any(got.edges.get(frozenset((idx, prev))) for prev in stps):
                stps.append(idx)
                remaining.remove(idx)
                break
        else:
            raise DisconnectedQueryError(
                "query pattern graph is disconnected; only the brute-force "
                "evaluator supports Cartesian queries"
            )
    return stps


# ---------------------------------------------------------------------------
# Multi-way pipelined join


@dataclass
class JoinStats:
    max_vmap_cells: int = 0
    max_depth: int = 0
    rows_emitted: int = 0
    nullified_rows: int = 0


class _Depth(NamedTuple):
    """How one depth probes its matrix, in slots of the binding list. A
    dimension is fixed by the key in the slot of a variable an earlier depth
    binds (``*_slot``), or it is free and fills its variable's slot from
    each cell (``fill_*``)."""

    pm: PatternMatrix
    row_slot: "int | None"
    fill_row: "int | None"
    col_slot: "int | None"
    fill_col: "int | None"
    skipped_by: tuple[int, ...]  # earlier depths whose failure skips this one


class MultiWayJoin:
    """Depth-first enumeration over the stps order.

    ``__init__`` walks the order once. It gives each variable a slot of the
    binding list, in the order the join first binds it (``slot``), turns each
    two-variable matrix whose column variable an earlier matrix binds, so a
    probe reads one row and never scans every row for one column (a turned
    matrix is a transposed copy owned by the join; ``matrices`` is left as it
    is), and fixes each depth's probe plan (``_Depth``). The first matrix
    enumerates its triples; each later one the cells that agree with the
    slots its plan reads. A matrix is a triple pattern or a DISTINCT product;
    either way its ``sid`` names its supernode. A slave matrix with no
    consistent triple NULL-extends: the later depths of its supernode's slave
    closure are skipped, so the optional block fails as a unit. An
    absolute-master mismatch backtracks. At full depth nullification (when
    required) and the residual filter conjuncts run before the row is
    emitted.
    """

    def __init__(
        self,
        gosn: Gosn,
        matrices: dict[int, PatternMatrix],
        stps: list[int],
        store: TripleStore,
        nulreqd: bool = False,
        residual: Sequence[ScopedConjunct] = (),
    ):
        self.gosn = gosn
        self.store = store
        self.nulreqd = nulreqd
        self.stats = JoinStats()
        self.slot: dict[Variable, int] = {}
        self.plan: list[_Depth] = []
        self._sn_depths: dict[int, list[int]] = defaultdict(list)  # slave supernode -> its depths
        closures = {sid: gosn.slave_closure(sid) for sid in gosn.supernodes}
        for depth, idx in enumerate(stps):
            pm = matrices[idx]
            if pm.row_var is not None and pm.col_var in self.slot and pm.row_var not in self.slot:
                pm = PatternMatrix(pm.pattern, pm.col_var, pm.row_var, transpose(pm.bm), pm.sid)
            known = len(self.slot)
            skipped_by = tuple(d for sid, depths in self._sn_depths.items() if pm.sid in closures[sid] for d in depths)
            self.plan.append(_Depth(pm, *self._place(pm.row_var, known), *self._place(pm.col_var, known), skipped_by))
            if pm.sid != gosn.abs_id:
                self._sn_depths[pm.sid].append(depth)
        self._sn_slots = {
            sid: frozenset(self.slot[v] for v in gosn.sn_vars(sid) if v in self.slot)
            for sid in gosn.supernodes
        }
        # Per residual conjunct, the slave closures its failure nulls; none
        # means it reads master bindings only and its failure drops the row.
        homes = self._compute_homes()
        self._residual: list[tuple] = []
        for sc in residual:
            slave_homes = sorted(
                {homes[v] for v in sc.vars if homes.get(v, gosn.abs_id) != gosn.abs_id}
            )
            self._residual.append((sc.conjunct, [closures[sid] for sid in slave_homes]))

    def _place(self, var: "Variable | None", known: int) -> "tuple[int | None, int | None]":
        """(fixing slot, filled slot) of a dimension whose variable is
        ``var``, when the first ``known`` slots are bound."""
        if var is None:
            return None, None
        slot = self.slot.setdefault(var, len(self.slot))
        return (slot, None) if slot < known else (None, slot)

    def _compute_homes(self) -> dict[Variable, int]:
        rank = {sid: i for i, sid in enumerate(self.gosn.topo_order())}
        homes: dict[Variable, int] = {}
        for sid, sn in self.gosn.supernodes.items():
            for tp in sn.patterns:
                for v in tp.vars():
                    if v not in homes or rank[sid] < rank[homes[v]]:
                        homes[v] = sid
        return homes

    def run(self) -> Iterator[list["int | None"]]:
        """Yield each row as a new list of join keys indexed by ``slot``;
        NULL is None."""
        vals: list["int | None"] = [None] * len(self.slot)
        self.stats.max_vmap_cells = len(vals)
        yield from self._recurse(0, vals, [None] * len(self.plan))

    def _recurse(self, depth: int, vals: list, status: list) -> Iterator[list]:
        self.stats.max_depth = max(self.stats.max_depth, depth + 1)
        if depth == len(self.plan):
            row = self._finish(vals[:], status)
            if row is not None:
                self.stats.rows_emitted += 1
                yield row
            return
        pm, row_slot, fill_row, col_slot, fill_col, skipped_by = self.plan[depth]
        if skipped_by and any(status[d] == FAILED for d in skipped_by):
            status[depth] = SKIPPED
        else:
            bm = pm.bm
            position, key = self.store.dictionary.position, self.store.dictionary.key
            r = None if row_slot is None else position(vals[row_slot], bm.row_space) or 0
            c = None if col_slot is None else position(vals[col_slot], bm.col_space) or 0
            status[depth] = BOUND
            matched = False
            for r, c in pm.bindings(r, c):
                matched = True
                if fill_row is not None:
                    vals[fill_row] = key(bm.row_space, r)
                if fill_col is not None:
                    vals[fill_col] = key(bm.col_space, c)
                yield from self._recurse(depth + 1, vals, status)
            if matched or pm.sid == self.gosn.abs_id:
                return  # absolute masters cannot take NULL bindings: backtrack
            status[depth] = FAILED
        for s in (fill_row, fill_col):
            if s is not None:
                vals[s] = None
        yield from self._recurse(depth + 1, vals, status)

    # -- row post-processing -------------------------------------------------

    def _finish(self, row: list, status: list) -> "list | None":
        if self.nulreqd:
            self.stats.nullified_rows += _nullify_inconsistent(
                self.gosn, self._sn_depths, self._sn_slots, row, status
            )
        for conjunct, closures in self._residual:
            verdict = eval_filter(conjunct, lambda v: self._term(row, v))
            if verdict is True:
                continue
            if not closures:
                return None  # filter over master bindings only: drop the row
            for closure in closures:
                self.stats.nullified_rows += _null_supernodes(self._sn_slots, row, closure)
        return row

    def _term(self, row: list, var: Variable) -> "Term | None":
        s = self.slot.get(var)
        return None if s is None or row[s] is None else self.store.dictionary.term(row[s])


def _nullify_inconsistent(
    gosn: Gosn, sn_depths: dict[int, list[int]], sn_slots: dict[int, frozenset[int]], row: list, status: list
) -> int:
    """Null every slave supernode (``sn_depths``: its depths) where some
    pattern bound a triple while a peer failed, plus the transitive slaves of
    anything nulled. Returns the number of bindings nulled."""
    bad: set[int] = set()
    for sid, depths in sn_depths.items():
        states = {status[d] for d in depths}
        if BOUND in states and (FAILED in states or SKIPPED in states):
            bad.add(sid)
    closure: set[int] = set()
    for sid in bad:
        closure |= gosn.slave_closure(sid)
    return _null_supernodes(sn_slots, row, closure) if closure else 0


def _null_supernodes(sn_slots: dict[int, frozenset[int]], row: list, closure: set[int]) -> int:
    """Null the slots of the ``closure`` supernodes that no supernode
    outside it shares; returns how many bindings were nulled."""
    protected: set[int] = set()
    for sid, slots in sn_slots.items():
        if sid not in closure:
            protected |= slots
    nulled = 0
    for sid in closure:
        for s in sn_slots[sid]:
            if s not in protected and row[s] is not None:
                row[s] = None
                nulled += 1
    return nulled


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class DisjunctTrace:
    """One union-normal-form disjunct as planned: its structure, its own
    pruned matrices and the pruning schedule that reduced them (None
    unpruned), its join order and residual filter conjuncts; ``execute``
    sets stats."""

    algebra: str
    gosn: Gosn
    got: Got
    report: StructureReport
    nulreqd: bool
    stps: list[int]
    matrices: dict[int, PatternMatrix]
    residual: list[ScopedConjunct]
    schedule: "PruneSchedule | None"
    stats: JoinStats = field(default_factory=JoinStats)


@dataclass
class Plan:
    """Everything ``execute`` needs: one ``DisjunctTrace`` per disjunct."""

    store: TripleStore
    config: RunConfig
    header: tuple[Variable, ...]  # all query variables
    rule3_used: bool
    disjuncts: list[DisjunctTrace]


@dataclass
class EngineResult(Plan):
    """An executed plan: its rows and whether best-match ran on them.

    ``keys`` holds the rows as join keys; ``relation`` holds the same rows
    as terms, built on first read. A caller that keeps only some rows (the
    naive DISTINCT path) reads ``keys`` and builds terms for those alone."""

    keys: Relation  # full rows over all query variables
    best_match_applied: bool

    @cached_property
    def relation(self) -> Relation:
        return term_relation(self.keys, self.store)


def _reject_unsupported(query: Query) -> None:
    for tp in node_patterns(query.root):
        if isinstance(tp.p, Variable):
            raise UnsupportedByIndexError(
                f"{tp.label} has a variable predicate (unsupported-by-index)"
            )


def _analyze(node: PatternNode) -> tuple[PatternNode, Gosn, Got, StructureReport, list[ScopedConjunct]]:
    norm = coalesce_bgps(node)
    gosn = build_gosn(norm)
    got = build_got(gosn)
    return norm, gosn, got, classify(gosn, got), collect_scoped_conjuncts(norm)


def plan_query(query: Query, store: TripleStore, config: "RunConfig | None" = None) -> Plan:
    """Everything before the joins: push filters, expand to union normal
    form, analyze each disjunct and reject a disconnected one before any
    matrix loads, then load and prune each disjunct's own matrices, masters
    first, and fix its join order."""
    config = config or RunConfig()
    _reject_unsupported(query)
    pushed = push_filters(query.root)
    unf = to_unf(pushed)
    disjuncts = [_analyze(d) for d in unf.disjuncts]
    for _, gosn, got, report, _ in disjuncts:
        if not report.connected:
            raise DisconnectedQueryError(
                "query pattern graph is disconnected; only the brute-force "
                "evaluator supports Cartesian queries"
            )
        if not check_property_one(gosn, got):
            # Disconnected absolute-master block: a Cartesian product that the
            # masters-first pipelined order cannot serve.
            raise DisconnectedQueryError(
                "absolute-master patterns form a Cartesian product; only the "
                "brute-force evaluator supports Cartesian queries"
            )

    traces: list[DisjunctTrace] = []
    for norm, gosn, got, report, scoped in disjuncts:
        matrices, applied = load_matrices(store, gosn, got, scoped, prune=config.prune)
        schedule = prune_triples(PruneContext(store, gosn, got, report, matrices)) if config.prune else None
        nulreqd = {"on": True, "off": False}.get(config.nullify, report.nb_required or not config.prune)
        if config.unsafe_order:
            stps = sorted(tp.index for tp in node_patterns(norm))
        else:
            stps = build_stps(gosn, got, matrices)
        residual = [sc for sc in scoped if id(sc.conjunct) not in applied]
        algebra = serialize(norm, _labels)
        traces.append(DisjunctTrace(algebra, gosn, got, report, nulreqd, stps, matrices, residual, schedule))
    header = tuple(sorted(node_vars(pushed), key=lambda v: v.name))
    return Plan(store, config, header, unf.rule3_used, traces)


def key_rows(join: MultiWayJoin, header: tuple[Variable, ...]) -> Iterator[tuple["int | None", ...]]:
    """Run ``join`` and yield each row as join keys over ``header``; a
    variable the join does not bind, or binds to NULL, is None."""
    slots = [join.slot.get(v) for v in header]
    for vals in join.run():
        yield tuple(None if s is None else vals[s] for s in slots)


def term_relation(relation: Relation, store: TripleStore) -> Relation:
    """``relation`` with each join key turned into its term."""
    term = store.dictionary.term
    return Relation(relation.header, [tuple(None if k is None else term(k) for k in row) for row in relation.rows])


def execute(plan: Plan) -> EngineResult:
    """Run each disjunct's pipelined join, union all rows and apply
    best-match when a disjunct nullified something or the slave-side union
    rewrite was used. Best-match compares join keys, which name S/O terms
    one to one; the result turns its rows into terms when they are read."""
    relation = Relation(plan.header)
    for trace in plan.disjuncts:
        join = MultiWayJoin(trace.gosn, trace.matrices, trace.stps, plan.store, trace.nulreqd, trace.residual)
        relation.rows.extend(key_rows(join, plan.header))
        trace.stats = join.stats
    if plan.config.best_match == "auto":
        apply_bm = plan.rule3_used or any(t.stats.nullified_rows for t in plan.disjuncts)
    else:
        apply_bm = plan.config.best_match == "on"
    if apply_bm:
        relation = best_match(relation)
    return EngineResult(**vars(plan), keys=relation, best_match_applied=apply_bm)


def run_query(
    query: Query, store: TripleStore, config: "RunConfig | None" = None, *, keep_keys: bool = False
) -> EngineResult:
    """Evaluate one query: ``execute(plan_query(...))``. The rows are turned
    into terms before it returns, unless ``keep_keys``: a caller that keeps
    only some rows (the naive DISTINCT path) builds terms for those alone."""
    result = execute(plan_query(query, store, config))
    if not keep_keys:
        result.relation  # built here, as part of the query's work
    return result


def _labels(bgp: Bgp) -> str:
    """A BGP rendered by its pattern labels instead of P-numbering."""
    return "{" + " ".join(tp.label for tp in bgp.patterns) + "}"
