"""Semi-join pruning of the per-pattern working matrices.

Three regimes, picked from the structure report: fully acyclic queries get a
bottom-up/top-down pass per supernode (masters first, so slaves prune
against already-pruned masters); cycles confined to the absolute master get
a greedy pass there and bottom-up/top-down passes for the slaves; anything
else gets a single greedy pass honoring the master-slave hierarchy. A
bottom-up pass repeatedly picks the cheapest single-equivalence-class leaf,
transfers master constraints into it first, then semi-joins its cheapest
neighbor against it; the top-down pass replays the reverse, minus the steps
that would let a slave shrink its master.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import TriplePattern, Variable, node_patterns
from .bitmat import BitArray, intersect_arrays
from .patmat import PatternMatrix, apply_loadtime_conjunct, select_pattern_matrix
from .rewriter import ScopedConjunct, is_loadtime
from .store import Dictionary, TripleStore
from .structure import Gosn, Got, StructureReport, count_node_classes, dominating_neighbors

GREEDY_ALL = "greedy"
GREEDY_ABS = "greedy-abs+per-supernode"
PER_SUPERNODE = "per-supernode"


@dataclass(frozen=True)
class SemiJoinStep:
    target: int  # pattern index being reduced
    source: int
    join_vars: frozenset[Variable]
    transfer: bool = False  # master-constraint transfer into a slave

    def describe(self) -> str:
        vars_text = ",".join(sorted(str(v) for v in self.join_vars))
        suffix = "  (master transfer)" if self.transfer else ""
        return f"T{self.target} ⋉ T{self.source} over {{{vars_text}}}{suffix}"


@dataclass
class PruneSchedule:
    regime: str
    sn_order: list[int]
    greedy: list[SemiJoinStep] = field(default_factory=list)
    per_sn: list[tuple[int, list[SemiJoinStep], list[SemiJoinStep]]] = field(default_factory=list)

    def all_steps(self) -> list[SemiJoinStep]:
        steps = list(self.greedy)
        for _, bu, td in self.per_sn:
            steps.extend(bu)
            steps.extend(td)
        return steps


def pick_regime(report: StructureReport) -> str:
    if report.got_acyclic and report.supernodes_acyclic and report.supernodes_connected:
        return PER_SUPERNODE
    if (
        report.slaves_acyclic
        and report.one_equiv_class_per_master_slave_pair
        and report.supernodes_connected
    ):
        return GREEDY_ABS
    return GREEDY_ALL


def semi_join(
    target: PatternMatrix,
    source: PatternMatrix,
    join_vars: frozenset[Variable],
    dictionary: Dictionary,
) -> None:
    """Keep only target triples whose join-variable bindings occur in the
    source: fold both sides per variable, AND the masks, unfold the target.
    Shared variable pairs additionally require the pair itself to exist in
    the source."""
    so_count = dictionary.n_so
    for var in sorted(join_vars, key=lambda v: v.name):
        beta: BitArray = target.fold_var(var)
        beta = intersect_arrays(beta, source.fold_var(var), so_count)
        target.unfold_var(var, beta, so_count)
    if len(join_vars) >= 2:
        _pair_semi_join(target, source, tuple(sorted(join_vars, key=lambda v: v.name)), dictionary)


def _pair_semi_join(
    target: PatternMatrix,
    source: PatternMatrix,
    pair: tuple[Variable, ...],
    dictionary: Dictionary,
) -> None:
    # Both patterns bind both variables on S/O dimensions; keep target cells
    # whose (a, b) join-key pair appears in the source.
    a, b = pair[0], pair[1]
    key = dictionary.key
    allowed: set[tuple[int, int]] = set()
    src_rv, src_cv = source.row_var, source.col_var
    for r, c in source.bm.cells():
        bind = {src_rv: key(source.bm.row_space, r), src_cv: key(source.bm.col_space, c)}
        allowed.add((bind[a], bind[b]))
    for r, c in list(target.bm.cells()):
        bind = {target.row_var: key(target.bm.row_space, r), target.col_var: key(target.bm.col_space, c)}
        if (bind[a], bind[b]) not in allowed:
            target.bm.mask_row(r, ~(1 << (c - 1)))


@dataclass
class PruneContext:
    store: TripleStore
    gosn: Gosn
    got: Got
    report: StructureReport
    matrices: dict[int, PatternMatrix]

    def count(self, idx: int) -> int:
        return self.matrices[idx].count

    def run_step(self, step: SemiJoinStep) -> None:
        semi_join(
            self.matrices[step.target],
            self.matrices[step.source],
            step.join_vars,
            self.store.dictionary,
        )


def load_matrices(
    store: TripleStore,
    gosn: Gosn,
    got: Got,
    scoped_conjuncts: list[ScopedConjunct],
    prune: bool = True,
) -> tuple[dict[int, PatternMatrix], set[int]]:
    """Load working matrices in master-first order.

    With ``prune``, while loading, apply eligible single-variable filter
    conjuncts as masks and actively prune with the bindings of
    already-loaded patterns that are masters or peers of the loading one.
    Returns the matrices and the ids of conjuncts consumed at load time.
    """
    sn_rank = {sid: i for i, sid in enumerate(gosn.topo_order())}
    patterns = sorted(
        (tp for sn in gosn.supernodes.values() for tp in sn.patterns),
        key=lambda tp: (sn_rank[gosn.sn_of_pattern[tp.index]], tp.index),
    )
    scope_patterns = {
        id(sc): {tp.index for tp in node_patterns(sc.scope)} for sc in scoped_conjuncts
    }
    matrices: dict[int, PatternMatrix] = {}
    applied: set[int] = set()
    so_count = store.dictionary.n_so
    for tp in patterns:
        my_sid = gosn.sn_of_pattern[tp.index]
        # Already-loaded masters and peers, whose bindings prune this pattern.
        sources = []
        for other, label in got.incident(tp.index) if prune else ():
            other_sid = gosn.sn_of_pattern[other]
            if other in matrices and (
                other_sid == my_sid
                or other_sid in gosn.masters.get(my_sid, frozenset())
                or (other_sid, my_sid) in gosn.uni_edges
            ):
                sources.append((matrices[other], label))
        pm = select_pattern_matrix(
            store, tp, _first_join_var(tp, got), lambda var: _bound_values(sources, var, so_count)
        )
        pm.sid = my_sid
        if prune:
            for sc in scoped_conjuncts:
                if not is_loadtime(sc.conjunct):
                    continue
                (var,) = tuple(sc.vars)
                if var in tp.vars() and tp.index in scope_patterns[id(sc)]:
                    apply_loadtime_conjunct(pm, sc.conjunct, var, store.dictionary)
                    applied.add(id(sc.conjunct))
            for other, label in sources:
                foldable = [v for v in label if v in pm.vars() and v in other.vars()]
                # A matrix with a row variable was read with only the rows
                # every source allows it, so that variable alone prunes no more.
                if foldable and foldable != [pm.row_var]:
                    semi_join(pm, other, frozenset(foldable), store.dictionary)
        matrices[tp.index] = pm
    return matrices, applied


def _bound_values(
    sources: list[tuple[PatternMatrix, frozenset[Variable]]], var: Variable, so_count: int
) -> "BitArray | None":
    """The values ``var`` takes in every source that shares it, or None when
    no source does."""
    mask = None
    for other, label in sources:
        if var in label and var in other.vars():
            fold = other.fold_var(var)
            mask = fold if mask is None else intersect_arrays(mask, fold, so_count)
    return mask


def _first_join_var(tp: TriplePattern, got: Got) -> "Variable | None":
    incident = got.incident(tp.index)
    if not incident:
        return None
    # Prefer the variable joined through the cheapest-indexed neighbor.
    for _, label in incident:
        for var in sorted(label, key=lambda v: v.name):
            if var in (tp.s, tp.o):
                return var
    return None


def plan_supernode_pass(ctx: PruneContext, sid: int) -> tuple[list[SemiJoinStep], list[SemiJoinStep]]:
    """One bottom-up + top-down pass over the patterns of a supernode. Each
    step runs as soon as it is planned, so later cost decisions see
    refreshed counts.
    """
    gosn, got = ctx.gosn, ctx.got
    sn = gosn.supernodes[sid]
    alive = {tp.index for tp in sn.patterns}
    sn_ids = set(alive)
    is_slave = sid != gosn.abs_id
    master_sids = gosn.masters.get(sid, frozenset())
    transferred: set[tuple[int, int]] = set()
    order_bu: list[SemiJoinStep] = []

    def emit(step: SemiJoinStep) -> None:
        order_bu.append(step)
        ctx.run_step(step)

    def emit_transfers(idx: int) -> None:
        if not is_slave:
            return
        for other, label in got.incident(idx):
            other_sid = gosn.sn_of_pattern[other]
            if other_sid in master_sids and (idx, other) not in transferred:
                transferred.add((idx, other))
                emit(SemiJoinStep(idx, other, label, transfer=True))

    subgraph = got.subgraph(sn_ids)
    while alive:
        # Ears first: a leaf with a neighbor covering its whole live join
        # surface keeps the pass a genuine full reducer. A one-class leaf
        # without such a witness (possible with multi-variable labels) still
        # gets reduced, just without the minimality guarantee.
        ears = [
            idx
            for idx in alive
            if not subgraph.incident(idx, alive) or dominating_neighbors(subgraph, idx, alive)
        ]
        if ears:
            t_i = min(ears, key=lambda idx: (ctx.count(idx), idx))
            partners = dominating_neighbors(subgraph, t_i, alive)
        else:
            leaves = [idx for idx in alive if count_node_classes(subgraph, idx, alive) <= 1]
            if not leaves:
                leaves = sorted(alive)  # cyclic remainder: stay sound
            t_i = min(leaves, key=lambda idx: (ctx.count(idx), idx))
            partners = [n for n in subgraph.neighbors(t_i, alive) if n != t_i]
        emit_transfers(t_i)
        if partners:
            t_j = min(partners, key=lambda idx: (ctx.count(idx), idx))
            emit_transfers(t_j)
            emit(SemiJoinStep(t_j, t_i, got.label(t_j, t_i)))
        alive.remove(t_i)

    order_td: list[SemiJoinStep] = []
    for step in reversed(order_bu):
        if step.transfer:
            continue  # reversing a transfer would let a slave shrink a master
        flipped = SemiJoinStep(step.source, step.target, step.join_vars)
        order_td.append(flipped)
        ctx.run_step(flipped)
    return order_bu, order_td


def plan_greedy(ctx: PruneContext, pattern_ids: list[int]) -> list[SemiJoinStep]:
    """Cheapest-first pass constrained by the master-slave hierarchy; every
    pattern is semi-joined against each already-processed neighbor once,
    each step running as soon as it is planned."""
    gosn, got = ctx.gosn, ctx.got
    sn_rank = {sid: i for i, sid in enumerate(gosn.topo_order())}
    remaining = set(pattern_ids)
    processed: list[int] = []
    steps: list[SemiJoinStep] = []
    while remaining:
        nxt = min(
            remaining,
            key=lambda idx: (sn_rank[gosn.sn_of_pattern[idx]], ctx.count(idx), idx),
        )
        remaining.remove(nxt)
        for other, label in got.incident(nxt):
            if other in processed:
                step = SemiJoinStep(
                    nxt,
                    other,
                    label,
                    transfer=gosn.sn_of_pattern[other] != gosn.sn_of_pattern[nxt],
                )
                steps.append(step)
                ctx.run_step(step)
        processed.append(nxt)
    return steps


def prune_triples(ctx: PruneContext) -> PruneSchedule:
    """Execute pruning against the working matrices, interleaving planning
    with execution so costs refresh after every semi-join."""
    gosn = ctx.gosn
    regime = pick_regime(ctx.report)
    sn_order = gosn.topo_order()
    schedule = PruneSchedule(regime, sn_order)
    if regime == GREEDY_ALL:
        all_ids = [tp.index for sn in gosn.supernodes.values() for tp in sn.patterns]
        schedule.greedy = plan_greedy(ctx, sorted(all_ids))
        return schedule
    remaining = list(sn_order)
    if regime == GREEDY_ABS:
        abs_ids = [tp.index for tp in gosn.supernodes[gosn.abs_id].patterns]
        schedule.greedy = plan_greedy(ctx, sorted(abs_ids))
        remaining = [sid for sid in remaining if sid != gosn.abs_id]
    for sid in remaining:
        bu, td = plan_supernode_pass(ctx, sid)
        schedule.per_sn.append((sid, bu, td))
    return schedule
