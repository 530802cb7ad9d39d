"""Structural analysis of UNION-free queries.

Builds the graph of supernodes (maximal OPT-free blocks with master/slave
and peer edges, absolute masters coalesced) and the labeled graph of triple
patterns, classifies acyclicity by equivalence-class leaf elimination, and
decides whether nullification and best-match can be skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import (
    Bgp,
    Filter,
    LeftJoin,
    PatternNode,
    QueryRejectedError,
    TriplePattern,
    Union,
    Variable,
)


class DisconnectedQueryError(QueryRejectedError):
    """Cartesian query; only the brute-force evaluator handles these."""


@dataclass
class Supernode:
    sid: int
    patterns: tuple[TriplePattern, ...]
    is_absolute_master: bool = False

    @property
    def label(self) -> str:
        return f"SN{self.sid}"


@dataclass
class Gosn:
    supernodes: dict[int, Supernode]
    uni_edges: set[tuple[int, int]]  # master -> slave, direct
    bi_edges: set[tuple[int, int]]  # peers, stored with sid_a < sid_b
    abs_id: int
    sn_of_pattern: dict[int, int]  # pattern index -> sid
    masters: dict[int, frozenset[int]] = field(default_factory=dict)  # transitive

    def direct_slaves(self, sid: int) -> list[int]:
        return sorted(s for m, s in self.uni_edges if m == sid)

    def slave_closure(self, sid: int) -> set[int]:
        out = {sid}
        frontier = [sid]
        while frontier:
            cur = frontier.pop()
            for nxt in self.direct_slaves(cur):
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
        return out

    def topo_order(self) -> list[int]:
        """Masters before their slaves, SN_abs first, ties by sid."""
        order = []
        placed: set[int] = set()
        remaining = set(self.supernodes)
        while remaining:
            ready = sorted(
                sid
                for sid in remaining
                if self.masters[sid] <= placed
            )
            if not ready:  # masters form a DAG by construction
                ready = sorted(remaining)
            nxt = ready[0]
            if self.abs_id in ready:
                nxt = self.abs_id
            order.append(nxt)
            placed.add(nxt)
            remaining.remove(nxt)
        return order

    def sn_vars(self, sid: int) -> frozenset[Variable]:
        out: frozenset[Variable] = frozenset()
        for tp in self.supernodes[sid].patterns:
            out |= tp.vars()
        return out


def _leftmost_bgp(node: PatternNode) -> Bgp:
    if isinstance(node, Bgp):
        return node
    if isinstance(node, Filter):
        return _leftmost_bgp(node.inner)
    return _leftmost_bgp(node.left)


def build_gosn(root: PatternNode) -> Gosn:
    """Construct the supernode graph of a UNION-free BGP-OPT tree and
    coalesce its absolute masters."""
    bgps: list[Bgp] = []

    def collect(node: PatternNode) -> None:
        if isinstance(node, Bgp):
            bgps.append(node)
            return
        if isinstance(node, Filter):
            collect(node.inner)
            return
        if isinstance(node, Union):
            raise ValueError("GoSN construction requires a UNION-free tree")
        collect(node.left)
        collect(node.right)

    collect(root)
    sid_of_bgp = {id(b): i + 1 for i, b in enumerate(bgps)}
    uni: set[tuple[int, int]] = set()
    bi: set[tuple[int, int]] = set()

    def walk(node: PatternNode) -> None:
        if isinstance(node, Bgp):
            return
        if isinstance(node, Filter):
            walk(node.inner)
            return
        walk(node.left)
        walk(node.right)
        a = sid_of_bgp[id(_leftmost_bgp(node.left))]
        b = sid_of_bgp[id(_leftmost_bgp(node.right))]
        if isinstance(node, LeftJoin):
            uni.add((a, b))
        else:
            bi.add((min(a, b), max(a, b)))

    walk(root)

    # Slaves are reachable from some supernode along a path with at least one
    # unidirectional edge (bidirectional edges traversable both ways).
    forward: dict[int, set[int]] = {sid_of_bgp[id(b)]: set() for b in bgps}
    for a, b in uni:
        forward[a].add(b)
    undirected: dict[int, set[int]] = {sid: set() for sid in forward}
    for a, b in bi:
        undirected[a].add(b)
        undirected[b].add(a)
    slaves: set[int] = set()
    frontier = list({b for _, b in uni})
    while frontier:
        cur = frontier.pop()
        if cur in slaves:
            continue
        slaves.add(cur)
        for nxt in forward[cur] | undirected[cur]:
            if nxt not in slaves:
                frontier.append(nxt)
    abs_sids = sorted(set(forward) - slaves)

    # Coalesce all absolute masters into one supernode; bidirectional edges
    # touching them disappear, their unidirectional edges re-point.
    abs_id = abs_sids[0]
    remap = {sid: (abs_id if sid in abs_sids else sid) for sid in forward}
    merged_patterns: dict[int, list[TriplePattern]] = {}
    for b in bgps:
        sid = remap[sid_of_bgp[id(b)]]
        merged_patterns.setdefault(sid, []).extend(b.patterns)
    supernodes = {
        sid: Supernode(sid, tuple(sorted(pats, key=lambda tp: tp.index)), sid == abs_id)
        for sid, pats in merged_patterns.items()
    }
    uni2 = {(remap[a], remap[b]) for a, b in uni if remap[a] != remap[b]}
    bi2 = {
        (min(remap[a], remap[b]), max(remap[a], remap[b]))
        for a, b in bi
        if remap[a] != remap[b] and abs_id not in (remap[a], remap[b])
    }
    sn_of_pattern = {
        tp.index: sid for sid, sn in supernodes.items() for tp in sn.patterns
    }
    gosn = Gosn(supernodes, uni2, bi2, abs_id, sn_of_pattern)

    # Transitive master relation: X masters Y iff Y is reachable from X via a
    # mixed path containing at least one unidirectional edge. BFS over
    # (node, crossed-a-uni-edge) states.
    masters: dict[int, set[int]] = {sid: set() for sid in supernodes}
    for start in supernodes:
        seen = {(start, False)}
        frontier = [(start, False)]
        while frontier:
            cur, used_uni = frontier.pop()
            for a, b in uni2:
                if a == cur and (b, True) not in seen:
                    seen.add((b, True))
                    frontier.append((b, True))
            for a, b in bi2:
                for nxt in ((b,) if a == cur else (a,) if b == cur else ()):
                    if (nxt, used_uni) not in seen:
                        seen.add((nxt, used_uni))
                        frontier.append((nxt, used_uni))
        for node, used_uni in seen:
            if used_uni and node != start:
                masters[node].add(start)
    gosn.masters = {sid: frozenset(v) for sid, v in masters.items()}
    return gosn


# ---------------------------------------------------------------------------
# Graph of triple patterns


@dataclass
class Got:
    nodes: tuple[TriplePattern, ...]
    edges: dict[frozenset[int], frozenset[Variable]]  # {i,j} -> shared vars
    # Pattern index -> (neighbor, label) pairs by neighbor, built once from
    # ``edges`` so that ``incident`` costs the node's degree.
    adjacent: dict[int, list[tuple[int, frozenset[Variable]]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        adjacent: dict[int, list[tuple[int, frozenset[Variable]]]] = {}
        for pair, label in self.edges.items():
            i, j = pair
            adjacent.setdefault(i, []).append((j, label))
            adjacent.setdefault(j, []).append((i, label))
        for incident in adjacent.values():
            incident.sort(key=lambda t: t[0])
        self.adjacent = adjacent

    def incident(self, idx: int, alive: "set[int] | None" = None) -> list[tuple[int, frozenset[Variable]]]:
        incident = self.adjacent.get(idx, [])
        if alive is None:
            return list(incident)
        return [t for t in incident if t[0] in alive]

    def neighbors(self, idx: int, alive: "set[int] | None" = None) -> list[int]:
        return [other for other, _ in self.incident(idx, alive)]

    def label(self, i: int, j: int) -> frozenset[Variable]:
        return self.edges.get(frozenset((i, j)), frozenset())

    def subgraph(self, keep: set[int]) -> "Got":
        nodes = tuple(tp for tp in self.nodes if tp.index in keep)
        edges = {pair: lab for pair, lab in self.edges.items() if pair <= keep}
        return Got(nodes, edges)

    def connected(self) -> bool:
        if not self.nodes:
            return True
        ids = {tp.index for tp in self.nodes}
        seen = {self.nodes[0].index}
        frontier = [self.nodes[0].index]
        while frontier:
            cur = frontier.pop()
            for other in self.neighbors(cur, ids):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen == ids


def build_got(gosn: Gosn) -> Got:
    """Label an undirected edge with the shared variables of every pattern
    pair that lives in one supernode or in a directly connected master-slave
    pair. Only patterns that share a variable are paired."""
    patterns = sorted(
        (tp for sn in gosn.supernodes.values() for tp in sn.patterns),
        key=lambda tp: tp.index,
    )
    by_var: dict[Variable, list[TriplePattern]] = {}
    for tp in patterns:
        for var in tp.vars():
            by_var.setdefault(var, []).append(tp)
    sid = gosn.sn_of_pattern
    edges: dict[frozenset[int], frozenset[Variable]] = {}
    for var, sharing in by_var.items():
        for a, b in combinations(sharing, 2):
            sa, sb = sid[a.index], sid[b.index]
            if sa == sb or (sa, sb) in gosn.uni_edges or (sb, sa) in gosn.uni_edges:
                pair = frozenset((a.index, b.index))
                edges[pair] = edges.get(pair, frozenset()) | {var}
    return Got(tuple(patterns), edges)


def equivalence_classes(labels: list[frozenset[Variable]]) -> list[list[frozenset[Variable]]]:
    """Partition edge labels into classes closed under the subset relation:
    two labels land together when one contains the other, transitively."""
    classes: list[list[frozenset[Variable]]] = []
    parent = list(range(len(labels)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if labels[i] <= labels[j] or labels[j] <= labels[i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[frozenset[Variable]]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(find(i), []).append(lab)
    for root in sorted(groups):
        classes.append(groups[root])
    return classes


def count_node_classes(got: Got, idx: int, alive: set[int]) -> int:
    labels = [label for _, label in got.incident(idx, alive)]
    return len(equivalence_classes(labels))


def is_acyclic(got: Got) -> tuple[bool, list[int]]:
    """Leaf elimination: repeatedly remove patterns whose incident edges fall
    into at most one equivalence class. Acyclic iff the graph empties.
    Returns the removal order for diagnostics."""
    alive = {tp.index for tp in got.nodes}
    order: list[int] = []
    while alive:
        leaves = sorted(idx for idx in alive if count_node_classes(got, idx, alive) <= 1)
        if not leaves:
            return False, order
        order.extend(leaves)
        alive -= set(leaves)
    return True, order


def dominating_neighbors(got: Got, idx: int, alive: set[int]) -> list[int]:
    """Neighbors whose shared variables cover the node's entire live join
    surface; semi-joining against one of them transfers every constraint."""
    surface: frozenset[Variable] = frozenset()
    incident = got.incident(idx, alive)
    for _, label in incident:
        surface |= label
    return [other for other, label in incident if surface <= label]


def ear_reducible(got: Got, keep: "set[int] | None" = None) -> bool:
    """Whether repeated removal of ears empties the graph.

    An ear is a pattern with a live neighbor covering all its shared
    variables (isolated patterns count). This is the condition under which
    the bottom-up/top-down semi-join passes act as a full reducer; it is
    strictly stronger than single-equivalence-class acyclicity, which also
    admits shapes whose joint constraints no single neighbor can carry.
    Ears are removed one at a time: two identical patterns witness each
    other, and deleting both simultaneously would lose the constraint the
    survivor was supposed to absorb. Sequential reduction is confluent, so
    the deterministic smallest-index choice decides reducibility exactly."""
    alive = {tp.index for tp in got.nodes if keep is None or tp.index in keep}
    while alive:
        for idx in sorted(alive):
            if not got.incident(idx, alive) or dominating_neighbors(got, idx, alive):
                alive.remove(idx)
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    got_acyclic: bool
    fully_reducible: bool  # ear reduction empties the whole pattern graph
    supernodes_acyclic: bool  # every supernode's induced subgraph
    supernodes_connected: bool  # every supernode's induced subgraph
    supernodes_reducible: bool
    slaves_acyclic: bool
    slaves_reducible: bool
    abs_only_cycles: bool
    one_equiv_class_per_master_slave_pair: bool
    nb_required: bool

    def as_pairs(self) -> list[tuple[str, bool]]:
        return [
            ("connected", self.connected),
            ("well_designed", True),  # classify's precondition: check_well_designed passed
            ("got_acyclic", self.got_acyclic),
            ("fully_reducible", self.fully_reducible),
            ("supernodes_acyclic", self.supernodes_acyclic),
            ("supernodes_connected", self.supernodes_connected),
            ("supernodes_reducible", self.supernodes_reducible),
            ("slaves_acyclic", self.slaves_acyclic),
            ("slaves_reducible", self.slaves_reducible),
            ("abs_only_cycles", self.abs_only_cycles),
            ("one_equiv_class_per_master_slave_pair", self.one_equiv_class_per_master_slave_pair),
            ("nb_required", self.nb_required),
        ]


def cross_edge_classes(gosn: Gosn, got: Got, master: int, slave: int) -> int:
    labels = []
    master_ids = {tp.index for tp in gosn.supernodes[master].patterns}
    slave_ids = {tp.index for tp in gosn.supernodes[slave].patterns}
    for pair, label in got.edges.items():
        i, j = sorted(pair)
        if (i in master_ids and j in slave_ids) or (j in master_ids and i in slave_ids):
            labels.append(label)
    return len(equivalence_classes(labels))


def classify(gosn: Gosn, got: Got) -> StructureReport:
    """Decide whether nullification and best-match are needed for a
    well-designed query (one that passed ``check_well_designed``).

    They can be skipped when the pruned triples are guaranteed minimal or
    master-consistent: either the whole pattern graph and every supernode's
    induced subgraph are acyclic and ear-reducible (so the semi-join passes
    act as a full reducer), or every slave supernode is acyclic and
    ear-reducible and each directed master-slave pair is crossed by a single
    equivalence class of edges (cycles confined to the absolute master are
    then harmless). Both arms additionally need every supernode's induced
    subgraph connected, otherwise an optional block can embed a Cartesian
    product whose joint failure a per-pattern semi-join cannot see.
    """
    connected = got.connected()
    got_acyclic, _ = is_acyclic(got)
    reducible = ear_reducible(got)
    sn_acyclic = True
    sn_connected = True
    sn_reducible = True
    slaves_ac = True
    slaves_red = True
    for sid, sn in sorted(gosn.supernodes.items()):
        ids = {tp.index for tp in sn.patterns}
        sub = got.subgraph(ids)
        ac, _ = is_acyclic(sub)
        co = sub.connected()
        red = ear_reducible(sub)
        sn_acyclic &= ac
        sn_connected &= co
        sn_reducible &= red
        if sid != gosn.abs_id:
            slaves_ac &= ac
            slaves_red &= red
    one_class = all(
        cross_edge_classes(gosn, got, m, s) <= 1 for m, s in sorted(gosn.uni_edges)
    )
    skip_by_acyclicity = got_acyclic and sn_acyclic and reducible and sn_reducible
    skip_by_hierarchy = slaves_ac and slaves_red and one_class
    abs_only = (not got_acyclic) and skip_by_hierarchy
    nb = not (connected and sn_connected and (skip_by_acyclicity or skip_by_hierarchy))
    return StructureReport(
        connected=connected,
        got_acyclic=got_acyclic,
        fully_reducible=reducible,
        supernodes_acyclic=sn_acyclic,
        supernodes_connected=sn_connected,
        supernodes_reducible=sn_reducible,
        slaves_acyclic=slaves_ac,
        slaves_reducible=slaves_red,
        abs_only_cycles=abs_only,
        one_equiv_class_per_master_slave_pair=one_class,
        nb_required=nb,
    )


def check_property_one(gosn: Gosn, got: Got) -> bool:
    """Well-designed connected queries keep the absolute-master patterns
    connected among themselves."""
    ids = {tp.index for tp in gosn.supernodes[gosn.abs_id].patterns}
    return got.subgraph(ids).connected()
