"""DISTINCT evaluation.

On acyclic, pruned, union- and filter-free queries the distinct projection
is answered from a minimal covering subgraph of the pattern graph: edges
labeled only by a non-projected variable are contracted by Boolean matrix
multiplication, which correlates the endpoint bindings directly and drops
the shared variable. The surviving matrices, patterns and products alike,
then run through the engine's own pipelined join (``MultiWayJoin``), which
reads each matrix's supernode from its ``sid`` to drive the optional-block
NULL semantics. Every other shape (distinct variables confined to optional
blocks, cycles, unions, filters) uses the naive path: project the engine's
rows. The path is chosen from the query's plan before any join runs, and
only the path taken deduplicates, once, by equality and subsumption,
matching the minimum-union treatment of optional blocks, so the two paths
agree wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Filter, Query, Union, Variable, iter_nodes
from .bitmat import BitMat, bmm, transpose
from .executor import (
    EngineResult,
    MultiWayJoin,
    Plan,
    Relation,
    RunConfig,
    best_match,
    build_stps,
    execute,
    key_rows,
    plan_query,
    run_query,
    term_relation,
)
from .patmat import PatternMatrix
from .store import TripleStore
from .structure import Gosn, Got


@dataclass
class Mcs:
    """Covering subgraph: nodes are original pattern matrices (keyed by
    pattern index) or products (fresh ids, labeled ``B<id>``)."""

    nodes: dict[int, PatternMatrix]
    edges: dict[frozenset[int], frozenset[Variable]]
    distinct_vars: frozenset[Variable]
    history: list[int] = field(default_factory=list)  # node count per step
    evolution: list[str] = field(default_factory=list)  # snapshot per step

    def edge_list(self) -> list[tuple[int, int, frozenset[Variable]]]:
        out = []
        for pair, label in self.edges.items():
            i, j = sorted(pair)
            out.append((i, j, label))
        return sorted(out, key=lambda t: (t[0], t[1]))

    def edges_at(self, nid: int) -> list[tuple[frozenset[int], frozenset[Variable]]]:
        return [(pair, lab) for pair, lab in self.edges.items() if nid in pair]

    def label(self, nid: int) -> str:
        pm = self.nodes[nid]
        return pm.label if pm.pattern is not None else f"B{nid}"

    def describe(self) -> str:
        nodes = ",".join(self.label(n) for n in sorted(self.nodes))
        edges = " ".join(
            f"{self.label(i)}-{self.label(j)}"
            f"{{{','.join(sorted(str(v) for v in lab))}}}"
            for i, j, lab in self.edge_list()
        )
        return f"nodes=[{nodes}] edges=[{edges}]"


def carve_mcs(
    got: Got,
    gosn: Gosn,
    matrices: dict[int, PatternMatrix],
    requirements: dict[int, frozenset[Variable]],
) -> Mcs:
    """Smallest connected set of the required supernodes' patterns meeting
    their coverage requirements.

    ``requirements`` maps a supernode to the distinct variables its own
    patterns must keep covering (a dominated variable is covered by the
    master instead and does not appear here). Start from the patterns
    carrying required variables, connect them via shortest paths, then drop
    any pattern whose distinct variables a neighbor also binds, as long as
    coverage and connectivity survive.
    """
    dvars: frozenset[Variable] = frozenset()
    for need in requirements.values():
        dvars |= need
    universe = {tp.index for sid in requirements for tp in gosn.supernodes[sid].patterns}

    def sid_of(idx: int) -> int:
        return gosn.sn_of_pattern[idx]

    marked = sorted(
        idx
        for idx in universe
        if requirements.get(sid_of(idx), frozenset()) & frozenset(matrices[idx].vars())
    )
    keep: set[int] = set(marked)
    for other in marked[1:]:
        keep |= set(_shortest_path(got, marked[0], other, universe))

    def ok(trial: set[int]) -> bool:
        for sid, need in requirements.items():
            covered: frozenset[Variable] = frozenset()
            for idx in trial:
                if sid_of(idx) == sid:
                    covered |= need & frozenset(matrices[idx].vars())
            if covered != need:
                return False
        return got.subgraph(trial).connected()

    changed = True
    while changed:
        changed = False
        for idx in sorted(keep):
            mine = dvars & frozenset(matrices[idx].vars())
            has_cover = any(
                j != idx and got.label(idx, j) and mine <= frozenset(matrices[j].vars())
                for j in keep
            )
            if not (has_cover or not mine):
                continue
            trial = keep - {idx}
            if trial and ok(trial):
                keep = trial
                changed = True
                break
    nodes = {idx: matrices[idx] for idx in sorted(keep)}
    edges = {pair: label for pair, label in got.edges.items() if pair <= keep}
    return Mcs(nodes, edges, dvars)


def _shortest_path(got: Got, a: int, b: int, universe: set[int]) -> list[int]:
    from collections import deque

    prev = {a: a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            break
        for nxt in got.neighbors(cur, universe):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    if b not in prev:
        return [a, b]
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path


# ---------------------------------------------------------------------------
# Shrinking by Boolean matrix multiplication


def _with_var_on_rows(matrix: PatternMatrix, var: Variable) -> BitMat:
    if matrix.row_var == var:
        return matrix.bm
    return transpose(matrix.bm)


def _with_var_on_cols(matrix: PatternMatrix, var: Variable) -> BitMat:
    if matrix.col_var == var:
        return matrix.bm
    return transpose(matrix.bm)


def _other_var(matrix: PatternMatrix, var: Variable) -> "Variable | None":
    return matrix.col_var if matrix.row_var == var else matrix.row_var


def shrink_mcs(mcs: Mcs, gosn: Gosn, so_count: int) -> Mcs:
    """Contract edges whose single-variable labels carry no distinct
    variable.

    The product of the two endpoint matrices eliminates the shared variable,
    so an edge is only contractible while that variable labels no other edge
    of either endpoint: a second occurrence means the variable still glues
    separate parts of the subgraph together, and dropping it there would cut
    the correlation the product cannot re-create. Between peers both
    endpoints fold into the product; across a master-slave pair only the
    slave does, because the master side still drives the optional-block NULL
    semantics (and the fresh master-product edge is never contracted again,
    which would just resurrect the eliminated variable). The matrix count
    never increases, and the loop stops once every remaining label carries a
    distinct variable or nothing is safely contractible.
    """
    next_id = max(mcs.nodes, default=0) + 1000
    mcs.history.append(len(mcs.nodes))
    rank = {sid: i for i, sid in enumerate(gosn.topo_order())}

    def category(a: PatternMatrix, b: PatternMatrix) -> "int | None":
        if a.sid == b.sid:
            return 0 if a.sid == gosn.abs_id else 2
        if a.sid in gosn.masters.get(b.sid, frozenset()):
            return 1
        if b.sid in gosn.masters.get(a.sid, frozenset()):
            return 1
        return None  # cross-slave edges are ignored

    def variable_confined_to(edge: frozenset[int], var: Variable) -> bool:
        for pair, lab in mcs.edges.items():
            if pair != edge and pair & edge and var in lab:
                return False
        return True

    skipped: set[frozenset[int]] = set()
    while len(mcs.nodes) > 1:
        candidate = None
        for i, j, label in mcs.edge_list():
            if frozenset((i, j)) in skipped:
                continue
            if len(label) != 1 or label & mcs.distinct_vars:
                continue
            (shared,) = tuple(label)
            if not variable_confined_to(frozenset((i, j)), shared):
                continue
            ni, nj = mcs.nodes[i], mcs.nodes[j]
            if ni.row_var == ni.col_var or nj.row_var == nj.col_var:
                continue
            cat = category(ni, nj)
            if cat is None:
                continue
            key = (cat, max(rank[ni.sid], rank[nj.sid]), i, j)
            if candidate is None or key < candidate[0]:
                candidate = (key, i, j, label, cat)
        if candidate is None:
            break
        _, i, j, label, cat = candidate
        ni, nj = mcs.nodes[i], mcs.nodes[j]
        if cat == 1 and rank[nj.sid] < rank[ni.sid]:
            ni, nj = nj, ni
            i, j = j, i
        (shared,) = tuple(label)
        product = bmm(
            _with_var_on_cols(ni, shared),
            _with_var_on_rows(nj, shared),
            so_count,
        )
        node = PatternMatrix(None, _other_var(ni, shared), _other_var(nj, shared), product, sid=nj.sid)
        node_vars = frozenset(node.vars())
        new_id = next_id
        next_id += 1
        removed = {j} if cat == 1 else {i, j}

        inherited: dict[frozenset[int], frozenset[Variable]] = {}
        for nid in removed:
            for pair, lab in mcs.edges_at(nid):
                if pair == frozenset((i, j)):
                    continue
                other = next(iter(pair - {nid}))
                if other not in removed:
                    # Always holds: the eliminated variable is confined to
                    # the contracted edge, so the label lives in the product.
                    assert lab <= node_vars
                    inherited[frozenset((new_id, other))] = lab
        for pair in [p for p in mcs.edges if p & removed]:
            del mcs.edges[pair]
        for nid in removed:
            del mcs.nodes[nid]
        mcs.nodes[new_id] = node
        mcs.edges.update(inherited)
        for nid in {i, j} - removed:
            connector = frozenset(mcs.nodes[nid].vars()) & node_vars
            if connector:
                new_edge = frozenset((nid, new_id))
                mcs.edges[new_edge] = connector
                skipped.add(new_edge)
        mcs.history.append(len(mcs.nodes))
        mcs.evolution.append(mcs.describe())
        assert mcs.history[-1] <= mcs.history[-2], "shrink step grew the covering subgraph"
    return mcs


# ---------------------------------------------------------------------------
# Dispatch


@dataclass
class DistinctOutcome:
    relation: Relation
    path: str  # "bmm-bgp" | "bmm-bgp-opt" | "naive"
    result: Plan  # the base query's plan; on the naive path, its EngineResult
    mcs_trace: list[str] = field(default_factory=list)


def _own_dvars(gosn: Gosn, sid: int, dvars: frozenset[Variable]) -> frozenset[Variable]:
    master_vars: frozenset[Variable] = frozenset()
    for m in gosn.masters.get(sid, frozenset()):
        master_vars |= gosn.sn_vars(m)
    return (dvars & gosn.sn_vars(sid)) - master_vars


def _bmm_eligible(query: Query, plan: Plan) -> "tuple[str, dict[int, frozenset[Variable]]] | None":
    """The matrix-product path a planned UNION- and FILTER-free query takes,
    with the covering supernodes, each mapped to the distinct variables its
    own patterns must cover; None when only the naive path applies."""
    gosn, report = plan.disjuncts[0].gosn, plan.disjuncts[0].report
    if not (
        report.got_acyclic
        and report.fully_reducible
        and report.supernodes_acyclic
        and report.supernodes_connected
        and report.supernodes_reducible
    ):
        return None  # pruning only guarantees minimal matrices on this class
    dvars = frozenset(query.projection)
    requirements = {gosn.abs_id: dvars & gosn.sn_vars(gosn.abs_id)}
    if len(gosn.supernodes) == 1:
        return "bmm-bgp", requirements
    if not requirements[gosn.abs_id]:
        return None  # distinct variables confined to optional blocks
    for sid in gosn.topo_order():
        own = _own_dvars(gosn, sid, dvars)
        if sid != gosn.abs_id and own:
            requirements[sid] = own
            for m in gosn.masters.get(sid, frozenset()):
                requirements.setdefault(m, dvars & gosn.sn_vars(m))
    if not all(requirements.values()):
        return None  # a connecting supernode carries no distinct variable
    return "bmm-bgp-opt", requirements


def distinct_eval(
    query: Query,
    store: TripleStore,
    config: "RunConfig | None" = None,
    force_naive: bool = False,
) -> DistinctOutcome:
    """DISTINCT dispatch: matrix-product path for acyclic pruned BGP and
    BGP-OPT queries whose projection reaches the absolute master, naive
    evaluate-then-dedup otherwise. The path is chosen before anything is
    joined, and only that path runs. Each path ends with one
    subsumption-aware dedup of its own rows, so they are interchangeable
    where both apply."""
    config = config or RunConfig()
    if force_naive or not config.prune or any(isinstance(n, (Union, Filter)) for n in iter_nodes(query.root)):
        return _naive(query, run_query(query, store, config, keep_keys=True))
    plan = plan_query(query, store, config)
    eligible = _bmm_eligible(query, plan)
    if eligible is not None:
        path, requirements = eligible
        trace = plan.disjuncts[0]
        gosn, got = trace.gosn, trace.got
        mcs = carve_mcs(got, gosn, trace.matrices, requirements)
        if got.subgraph(set(mcs.nodes)).connected():
            trace_lines = [f"mcs.carved {mcs.describe()}"]
            mcs = shrink_mcs(mcs, gosn, store.dictionary.n_so)
            trace_lines.extend(f"mcs.step.{i} {snap}" for i, snap in enumerate(mcs.evolution, 1))
            trace_lines.append(f"mcs.shrunk {mcs.describe()}")
            return DistinctOutcome(_evaluate_mcs(mcs, gosn, store, query), path, plan, trace_lines)
    return _naive(query, execute(plan))


def _naive(query: Query, result: EngineResult) -> DistinctOutcome:
    """Project the engine's rows of join keys, dedup them with subsumption
    and turn the rows kept into terms."""
    kept = best_match(result.keys.project(query.projection))
    return DistinctOutcome(term_relation(kept, result.store), "naive", result)


def _evaluate_mcs(mcs: Mcs, gosn: Gosn, store: TripleStore, query: Query) -> Relation:
    """Run the surviving matrices (patterns and products alike) through the
    engine's pipelined join, take its rows of join keys over the distinct
    variables (one no surviving matrix binds is NULL), dedup them with
    subsumption and turn the rows kept into terms."""
    join = MultiWayJoin(gosn, mcs.nodes, build_stps(gosn, mcs, mcs.nodes), store)
    rows = Relation(query.projection, list(key_rows(join, query.projection)))
    return term_relation(best_match(rows), store)
