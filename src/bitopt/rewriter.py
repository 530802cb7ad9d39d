"""Union-normal-form conversion and filter placement.

UNF distributes unions outward until the query is a union of UNION-free
BGP-OPT(-FILTER) subqueries; distributing a union out of the slave side of a
left-outer join is only sound under minimum-union semantics, so that rule is
tracked by a flag that later forces best-match. Filters split at top-level
conjunctions: each conjunct sinks as deep as its variables allow, and
single-variable comparison conjuncts can additionally be applied as masks
while the per-pattern matrices load.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Bgp,
    Comparison,
    Filter,
    FilterExpr,
    Join,
    LeftJoin,
    PatternNode,
    Union,
    Variable,
    filter_vars,
    node_vars,
    top_conjuncts,
)


@dataclass(frozen=True)
class UnfResult:
    disjuncts: tuple[PatternNode, ...]
    rule3_used: bool


def to_unf(root: PatternNode) -> UnfResult:
    """Fixpoint of the three union rewrites, bottom-up.

    (P1 u P2) lj P3 and (P1 u P2) j P3 distribute exactly; P1 lj (P2 u P3)
    distributes only up to minimum union and sets ``rule3_used``.
    """
    rule3 = [False]

    def walk(node: PatternNode) -> list[PatternNode]:
        if isinstance(node, Bgp):
            return [node]
        if isinstance(node, Filter):
            # Rule 5: a filter over a union distributes into the branches.
            return [Filter(d, node.expr) for d in walk(node.inner)]
        if isinstance(node, Union):
            return walk(node.left) + walk(node.right)
        lefts = walk(node.left)
        rights = walk(node.right)
        if isinstance(node, LeftJoin) and len(rights) > 1:
            rule3[0] = True
        cls = Join if isinstance(node, Join) else LeftJoin
        return [cls(l, r) for l in lefts for r in rights]

    disjuncts = walk(root)
    return UnfResult(tuple(disjuncts), rule3[0])


def push_filters(root: PatternNode) -> PatternNode:
    """Sink filter conjuncts toward the patterns that bind their variables.

    A conjunct moves into the master side of a left-outer join when all its
    variables occur there; it never crosses into an optional block and never
    moves below a node lacking one of its variables. Filter expression
    objects are reused so load-time bookkeeping can track them by identity.
    """

    def place(node: PatternNode, conjuncts: list[FilterExpr]) -> PatternNode:
        if not conjuncts:
            return descend(node)
        stuck: list[FilterExpr] = []
        for c in conjuncts:
            node, placed = sink(node, c)
            if not placed:
                stuck.append(c)
        out = descend(node)
        for c in stuck:
            out = Filter(out, c)
        return out

    def sink(node: PatternNode, c: FilterExpr) -> tuple[PatternNode, bool]:
        cvars = filter_vars(c)
        if isinstance(node, Bgp):
            return node, False
        if isinstance(node, Filter):
            inner, placed = sink(node.inner, c)
            return Filter(inner, node.expr), placed
        if isinstance(node, LeftJoin):
            if cvars <= node_vars(node.left):
                left, placed = sink(node.left, c)
                if not placed:
                    left = Filter(left, c)
                return LeftJoin(left, node.right), True
            return node, False
        if isinstance(node, Join):
            for attr in ("left", "right"):
                side = getattr(node, attr)
                if cvars <= node_vars(side):
                    sunk, placed = sink(side, c)
                    if not placed:
                        sunk = Filter(sunk, c)
                    if attr == "left":
                        return Join(sunk, node.right), True
                    return Join(node.left, sunk), True
            return node, False
        if isinstance(node, Union):
            # Rule 5: distribute into both branches.
            ls, lp = sink(node.left, c)
            rs, rp = sink(node.right, c)
            if not lp:
                ls = Filter(ls, c)
            if not rp:
                rs = Filter(rs, c)
            return Union(ls, rs), True
        return node, False

    def descend(node: PatternNode) -> PatternNode:
        if isinstance(node, Bgp):
            return node
        if isinstance(node, Filter):
            conjuncts = list(top_conjuncts(node.expr))
            return place(node.inner, conjuncts)
        if isinstance(node, Union):
            return Union(descend(node.left), descend(node.right))
        if isinstance(node, LeftJoin):
            return LeftJoin(descend(node.left), descend(node.right))
        return Join(descend(node.left), descend(node.right))

    return descend(root)


def is_loadtime(conjunct: FilterExpr) -> bool:
    """Single-variable comparison conjuncts can run as masks during matrix
    loading; disjunctions and multi-variable conjuncts must wait for rows."""
    return isinstance(conjunct, Comparison) and len(filter_vars(conjunct)) == 1


@dataclass(frozen=True)
class ScopedConjunct:
    """One filter conjunct plus the subtree it filters."""

    conjunct: FilterExpr
    scope: PatternNode
    depth: int

    @property
    def vars(self) -> frozenset[Variable]:
        return filter_vars(self.conjunct)


def collect_scoped_conjuncts(root: PatternNode) -> list[ScopedConjunct]:
    """All filter conjuncts with their scopes, innermost first."""
    out: list[ScopedConjunct] = []

    def walk(node: PatternNode, depth: int) -> None:
        if isinstance(node, Bgp):
            return
        if isinstance(node, Filter):
            walk(node.inner, depth + 1)
            for c in top_conjuncts(node.expr):
                out.append(ScopedConjunct(c, node.inner, depth))
            return
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(root, 0)
    out.sort(key=lambda sc: -sc.depth)
    return out
