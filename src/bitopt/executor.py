"""Pipelined evaluation: pattern ordering, the multi-way join with
backtracking and NULL extension, nullification, best-match, and the query
pipeline in two steps. ``plan_query`` places filters, analyzes the
structure, prunes each UNION-free component and expands to union normal
form; ``execute`` runs one join per disjunct and applies minimum union where
required.

The join keeps no intermediate tables: its only mutable state is one
variable-binding map plus a recursion stack bounded by the pattern count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from .algebra import (
    Bgp,
    Filter,
    PatternNode,
    Query,
    Union,
    Variable,
    coalesce_bgps,
    eval_filter,
    iter_nodes,
    node_patterns,
    node_vars,
    serialize,
)
from .bitmat import transpose
from .patmat import PatternMatrix, UnsupportedByIndexError
from .pruning import PruneContext, PruneSchedule, load_matrices, prune_triples
from .rewriter import ScopedConjunct, collect_scoped_conjuncts, to_unf, push_filters
from .store import Dictionary, TripleStore
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
from .terms import Term, term_sort_key

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
    """Ordered bag of rows over a fixed variable header; NULL is None."""

    header: tuple[Variable, ...]
    rows: list[tuple["Term | None", ...]] = field(default_factory=list)

    def sorted_rows(self) -> list[tuple["Term | None", ...]]:
        def key(row):
            return tuple(
                (0,) if t is None else (1,) + term_sort_key(t) for t in row
            )

        return sorted(self.rows, key=key)

    def project(self, variables: tuple[Variable, ...]) -> "Relation":
        idx = [self.header.index(v) for v in variables]
        return Relation(variables, [tuple(row[i] for i in idx) for row in self.rows])

    def distinct(self) -> "Relation":
        seen = set()
        out = []
        for row in self.sorted_rows():
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.header, out)


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
    being subsumed by any row is the same as being subsumed by a kept one."""
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
    return Relation(relation.header, Relation(relation.header, kept).sorted_rows())


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


def _oriented(matrices: dict[int, PatternMatrix], stps: list[int]) -> dict[int, PatternMatrix]:
    """The ``stps`` matrices, each two-variable one turned so that the
    variable an earlier matrix binds sits on its rows: a probe then reads one
    row and never scans every row for one column. A turned matrix is a
    transposed copy owned by the join; ``matrices`` is left as it is."""
    bound: set[Variable] = set()
    out: dict[int, PatternMatrix] = {}
    for idx in stps:
        pm = matrices[idx]
        if pm.row_var is not None and pm.col_var in bound and pm.row_var not in bound:
            pm = PatternMatrix(pm.pattern, pm.col_var, pm.row_var, transpose(pm.bm), pm.sid)
        bound.update(pm.vars())
        out[idx] = pm
    return out


@dataclass
class JoinStats:
    max_vmap_cells: int = 0
    max_depth: int = 0
    rows_emitted: int = 0
    nullified_rows: int = 0


class MultiWayJoin:
    """Depth-first enumeration over the stps order.

    The first matrix enumerates its triples; each later matrix enumerates
    triples consistent with the binding map, read from the row of the
    variable bound first (see ``_oriented``). A matrix is a triple pattern or
    a DISTINCT product; either way its ``sid`` names its supernode. A slave
    matrix with no consistent triple NULL-extends: its whole supernode
    closure is marked skipped so the optional block fails as a unit. An
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
        self.stps = stps
        self.store = store
        self.nulreqd = nulreqd
        self.by_index = _oriented(matrices, stps)
        self.stats = JoinStats()
        self._sn_vars = {
            sid: gosn.sn_vars(sid) for sid in gosn.supernodes
        }
        # Per residual conjunct, the slave closures its failure nulls; none
        # means it reads master bindings only and its failure drops the row.
        homes = self._compute_homes()
        self._residual: list[tuple] = []
        for sc in residual:
            slave_homes = sorted(
                {homes[v] for v in sc.vars if homes.get(v, gosn.abs_id) != gosn.abs_id}
            )
            self._residual.append((sc.conjunct, [gosn.slave_closure(sid) for sid in slave_homes]))

    def _compute_homes(self) -> dict[Variable, int]:
        rank = {sid: i for i, sid in enumerate(self.gosn.topo_order())}
        homes: dict[Variable, int] = {}
        for sid, sn in self.gosn.supernodes.items():
            for tp in sn.patterns:
                for v in tp.vars():
                    if v not in homes or rank[sid] < rank[homes[v]]:
                        homes[v] = sid
        return homes

    def run(self) -> Iterator[dict[Variable, "int | None"]]:
        vmap: dict[Variable, "int | None"] = {}
        status: dict[int, str] = {}
        yield from self._recurse(0, vmap, status)

    def _recurse(self, depth: int, vmap, status) -> Iterator[dict]:
        self.stats.max_depth = max(self.stats.max_depth, depth + 1)
        self.stats.max_vmap_cells = max(self.stats.max_vmap_cells, len(vmap))
        if depth == len(self.stps):
            row = self._finish(dict(vmap), status)
            if row is not None:
                self.stats.rows_emitted += 1
                yield row
            return
        idx = self.stps[depth]
        if status.get(idx) == SKIPPED:
            yield from self._recurse(depth + 1, vmap, status)
            return
        pm = self.by_index[idx]
        matched = False
        for binding in pm.bindings(vmap, self.store.dictionary):
            matched = True
            added = [v for v in binding if v not in vmap]
            vmap.update(binding)
            status[idx] = BOUND
            yield from self._recurse(depth + 1, vmap, status)
            for v in added:
                del vmap[v]
            del status[idx]
        if matched:
            return
        if pm.sid == self.gosn.abs_id:
            return  # absolute masters cannot take NULL bindings: backtrack
        # Fail the whole optional block: this supernode's unvisited patterns
        # and every transitive slave go NULL together.
        closure = self.gosn.slave_closure(pm.sid)
        to_skip = [
            j
            for j in self.stps[depth + 1 :]
            if self.by_index[j].sid in closure and status.get(j) is None
        ]
        nulled = []
        for j in [idx] + to_skip:
            for v in self.by_index[j].vars():
                if v not in vmap:
                    vmap[v] = None
                    nulled.append(v)
        status[idx] = FAILED
        for j in to_skip:
            status[j] = SKIPPED
        yield from self._recurse(depth + 1, vmap, status)
        for v in nulled:
            del vmap[v]
        del status[idx]
        for j in to_skip:
            del status[j]

    # -- row post-processing -------------------------------------------------

    def _finish(self, vmap, status) -> "dict | None":
        if self.nulreqd:
            self.stats.nullified_rows += _nullify_inconsistent(
                self.gosn, self._sn_vars, vmap, status
            )
        for conjunct, closures in self._residual:
            verdict = eval_filter(
                conjunct,
                lambda v: None
                if vmap.get(v) is None
                else self.store.dictionary.term(vmap[v]),
            )
            if verdict is True:
                continue
            if not closures:
                return None  # filter over master bindings only: drop the row
            for closure in closures:
                self.stats.nullified_rows += _null_supernodes(self._sn_vars, vmap, closure)
        return vmap


def _nullify_inconsistent(gosn: Gosn, sn_vars: dict[int, frozenset[Variable]], vmap, status) -> int:
    """Null every slave supernode where some pattern bound a triple while
    a peer failed, plus the transitive slaves of anything nulled. Returns
    the number of bindings nulled."""
    bad: set[int] = set()
    for sid, sn in gosn.supernodes.items():
        if sid == gosn.abs_id:
            continue
        states = {status.get(tp.index) for tp in sn.patterns}
        if BOUND in states and (FAILED in states or SKIPPED in states):
            bad.add(sid)
    closure: set[int] = set()
    for sid in bad:
        closure |= gosn.slave_closure(sid)
    return _null_supernodes(sn_vars, vmap, closure) if closure else 0


def _null_supernodes(sn_vars: dict[int, frozenset[Variable]], vmap, closure: set[int]) -> int:
    """Null the variables of the ``closure`` supernodes that no supernode
    outside it shares; returns how many bindings were nulled."""
    protected: set[Variable] = set()
    for sid, names in sn_vars.items():
        if sid not in closure:
            protected |= names
    nulled = 0
    for sid in closure:
        for v in sn_vars[sid]:
            if v not in protected and vmap.get(v) is not None:
                vmap[v] = None
                nulled += 1
    return nulled


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class DisjunctTrace:
    """One union-normal-form disjunct as planned: its structure, join order,
    the matrices its join reads (its own supernode ids around the shared
    pruned BitMats) and residual filter conjuncts; ``execute`` sets stats."""

    algebra: str
    gosn: Gosn
    got: Got
    report: StructureReport
    nulreqd: bool
    stps: list[int]
    matrices: dict[int, PatternMatrix]
    residual: list[ScopedConjunct]
    stats: JoinStats = field(default_factory=JoinStats)


@dataclass
class Plan:
    """Everything ``execute`` needs: the pruned matrices of every pattern,
    the pruning schedules and one ``DisjunctTrace`` per disjunct."""

    store: TripleStore
    config: RunConfig
    header: tuple[Variable, ...]  # all query variables
    rule3_used: bool
    disjuncts: list[DisjunctTrace]
    schedules: list[tuple[str, PruneSchedule]]
    matrices: dict[int, PatternMatrix]


@dataclass
class EngineResult(Plan):
    """An executed plan: its rows and whether best-match ran on them."""

    relation: Relation  # full rows over all query variables
    best_match_applied: bool


def union_free_components(node: PatternNode) -> list[PatternNode]:
    """Maximal UNION-free subtrees, left to right."""
    if not any(isinstance(sub, Union) for sub in iter_nodes(node)):
        return [node]
    if isinstance(node, Filter):
        return union_free_components(node.inner)
    return union_free_components(node.left) + union_free_components(node.right)


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
    """Everything before the joins: push filters, analyze each UNION-free
    component and each union-normal-form disjunct, reject a disconnected
    disjunct before any matrix loads, load and prune each component's
    matrices (disjuncts share them), and fix each disjunct's join order."""
    config = config or RunConfig()
    _reject_unsupported(query)
    pushed = push_filters(query.root)
    unf = to_unf(pushed)
    components = [_analyze(comp) for comp in union_free_components(pushed)]
    # With no UNION the one component is the one disjunct: analyze it once.
    disjuncts = components if len(components) == 1 else [_analyze(d) for d in unf.disjuncts]
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

    matrices: dict[int, PatternMatrix] = {}
    schedules: list[tuple[str, PruneSchedule]] = []
    applied_conjuncts: set[int] = set()
    for norm, gosn, got, report, scoped in components:
        comp_matrices, applied = load_matrices(
            store, gosn, got, scoped, active_prune=config.prune, loadtime_filters=config.prune
        )
        applied_conjuncts |= applied
        if config.prune:
            schedule = prune_triples(PruneContext(store, gosn, got, report, comp_matrices))
            schedules.append((serialize(norm, _labels), schedule))
        matrices.update(comp_matrices)

    traces: list[DisjunctTrace] = []
    for norm, gosn, got, report, scoped in disjuncts:
        own = {idx: replace(matrices[idx], sid=sid) for idx, sid in gosn.sn_of_pattern.items()}
        if config.nullify == "on":
            nulreqd = True
        elif config.nullify == "off":
            nulreqd = False
        else:
            nulreqd = report.nb_required or not config.prune
        if config.unsafe_order:
            stps = sorted(tp.index for tp in node_patterns(norm))
        else:
            stps = build_stps(gosn, got, own)
        residual = [sc for sc in scoped if id(sc.conjunct) not in applied_conjuncts]
        traces.append(
            DisjunctTrace(serialize(norm, _labels), gosn, got, report, nulreqd, stps, own, residual)
        )
    header = tuple(sorted(node_vars(pushed), key=lambda v: v.name))
    return Plan(store, config, header, unf.rule3_used, traces, schedules, matrices)


def term_rows(
    vmaps: Iterable[dict[Variable, "int | None"]], header: tuple[Variable, ...], dictionary: Dictionary
) -> Iterator[tuple["Term | None", ...]]:
    """One row of terms over ``header`` per binding map of join keys; a
    variable the map leaves unbound or NULL is None."""
    for vmap in vmaps:
        yield tuple(None if vmap.get(v) is None else dictionary.term(vmap[v]) for v in header)


def execute(plan: Plan) -> EngineResult:
    """Run each disjunct's pipelined join, union all rows, then apply
    best-match when a disjunct nullified something or the slave-side union
    rewrite was used."""
    relation = Relation(plan.header)
    for trace in plan.disjuncts:
        join = MultiWayJoin(trace.gosn, trace.matrices, trace.stps, plan.store, trace.nulreqd, trace.residual)
        relation.rows.extend(term_rows(join.run(), plan.header, plan.store.dictionary))
        trace.stats = join.stats
    if plan.config.best_match == "auto":
        apply_bm = plan.rule3_used or any(t.stats.nullified_rows for t in plan.disjuncts)
    else:
        apply_bm = plan.config.best_match == "on"
    if apply_bm:
        relation = best_match(relation)
    return EngineResult(**vars(plan), relation=relation, best_match_applied=apply_bm)


def run_query(query: Query, store: TripleStore, config: "RunConfig | None" = None) -> EngineResult:
    """Evaluate one query: ``execute(plan_query(...))``."""
    return execute(plan_query(query, store, config))


def _labels(bgp: Bgp) -> str:
    """A BGP rendered by its pattern labels instead of P-numbering."""
    return "{" + " ".join(tp.label for tp in bgp.patterns) + "}"
