"""Randomized stores and well-designed queries for agreement experiments.

Queries are grown so the guarantees the engine relies on hold by
construction: optional blocks anchor on a master-spine variable and stay
internally connected, union branches bind the same shared variable,
whether the union joins the master or is an optional block (the rule-3
shape), and filters only mention in-scope variables. A pattern with a
constant subject or object joins the query through its one variable; none
is ground. Acyclic shapes grow as trees (each new pattern shares exactly
one variable with one earlier pattern); cyclic shapes close triangles
either inside the absolute master or across a master-slave pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bitopt.algebra import (
    And,
    Bgp,
    Comparison,
    Filter,
    Join,
    LeftJoin,
    Or,
    PatternNode,
    Query,
    TriplePattern,
    Union,
    Variable,
    check_safe_filters,
    check_well_designed,
    node_vars,
)
from bitopt.terms import Iri, Literal

BASE = "http://example.org/"


@dataclass
class GenConfig:
    n_entities: int = 7
    n_predicates: int = 4
    max_triples: int = 40
    max_patterns: int = 6
    p_optional: float = 0.6
    p_second_optional: float = 0.3
    p_nested_optional: float = 0.25
    p_union: float = 0.0
    p_slave_union: float = 0.0  # root ⟕ (A ∪ B), the rule-3 shape
    p_filter: float = 0.0
    p_cycle: float = 0.0
    p_peer_join: float = 0.15
    p_int_filter: float = 0.4
    acyclic_only: bool = False


def entity(i: int) -> Iri:
    return Iri(f"{BASE}e{i}")


def predicate(i: int) -> Iri:
    return Iri(f"{BASE}p{i}")


AGE_PRED = Iri(f"{BASE}age")


def random_store_text(rng: random.Random, cfg: GenConfig) -> str:
    n = rng.randint(max(6, cfg.max_triples // 3), cfg.max_triples)
    lines = []
    seen = set()
    for _ in range(n):
        s = entity(rng.randrange(cfg.n_entities))
        if rng.random() < 0.12:
            p, o = AGE_PRED, Literal(rng.choice([25, 40, 55, 70]))
        else:
            p = predicate(rng.randrange(cfg.n_predicates))
            o = entity(rng.randrange(cfg.n_entities))
        if (s, p, o) in seen:
            continue
        seen.add((s, p, o))
        lines.append(f"{s.n3()} {p.n3()} {o.n3()} .")
    return "\n".join(lines) + "\n"


@dataclass
class _Builder:
    rng: random.Random
    cfg: GenConfig
    next_var: int = 0
    next_index: int = 1
    total_patterns: int = 0

    def fresh_var(self) -> Variable:
        v = Variable(f"v{self.next_var}")
        self.next_var += 1
        return v

    def make_pattern(self, s, p, o) -> TriplePattern:
        tp = TriplePattern(self.next_index, s, p, o)
        self.next_index += 1
        self.total_patterns += 1
        return tp

    def rand_pred(self) -> Iri:
        return predicate(self.rng.randrange(self.cfg.n_predicates))

    def budget(self) -> int:
        return self.cfg.max_patterns - self.total_patterns


def _grow_bgp(b: _Builder, anchors: list[Variable], size: int, allow_cycle: bool) -> tuple[list[TriplePattern], list[Variable]]:
    """Connected BGP of ``size`` patterns; the first uses an anchor when one
    exists. Tree growth (one shared variable per new pattern) unless a cycle
    is requested, which closes a triangle."""
    rng = b.rng
    patterns: list[TriplePattern] = []
    local_vars: list[Variable] = []

    def pick_subject() -> Variable:
        # Always reuse when possible: the master block must stay connected.
        pool = local_vars or anchors
        if pool:
            return rng.choice(pool)
        v = b.fresh_var()
        local_vars.append(v)
        return v

    for i in range(size):
        if i == 0 and anchors:
            s = rng.choice(anchors)
        else:
            s = pick_subject()
        if s not in local_vars:
            local_vars.append(s)
        roll = rng.random()
        if roll < 0.2:
            o = entity(rng.randrange(b.cfg.n_entities))
        elif roll < 0.3 and not allow_cycle:
            # (:e :p ?s): a constant subject, joined through its object. A
            # master that closes a triangle keeps its fresh variables for it.
            s, o = entity(rng.randrange(b.cfg.n_entities)), s
        else:
            o = b.fresh_var()
            local_vars.append(o)
        patterns.append(b.make_pattern(s, b.rand_pred(), o))
    if allow_cycle and len(local_vars) >= 3 and b.budget() > 0:
        a, c, d = rng.sample(local_vars, 3)
        patterns.append(b.make_pattern(a, b.rand_pred(), c))
        patterns.append(b.make_pattern(c, b.rand_pred(), d))
        patterns.append(b.make_pattern(d, b.rand_pred(), a))
    return patterns, local_vars


def _optional_block(b: _Builder, anchor: Variable, size: int) -> Bgp:
    rng = b.rng
    patterns = []
    prev = anchor
    for _ in range(size):
        nxt = b.fresh_var()
        roll = rng.random()
        if roll < 0.25:
            patterns.append(b.make_pattern(prev, b.rand_pred(), entity(rng.randrange(b.cfg.n_entities))))
        elif roll < 0.4:
            patterns.append(b.make_pattern(entity(rng.randrange(b.cfg.n_entities)), b.rand_pred(), prev))
        else:
            patterns.append(b.make_pattern(prev, b.rand_pred(), nxt))
            prev = nxt
    if not patterns:
        patterns.append(b.make_pattern(anchor, b.rand_pred(), b.fresh_var()))
    return Bgp(tuple(patterns))


def _cross_cycle_block(b: _Builder, a: Variable, c: Variable) -> Bgp:
    """Two-pattern block touching two master variables through a chain: the
    classic two-equivalence-class shape that forces nullification."""
    mid = b.fresh_var()
    return Bgp(
        (
            b.make_pattern(a, b.rand_pred(), mid),
            b.make_pattern(mid, b.rand_pred(), c),
        )
    )


def random_query(rng: random.Random, cfg: GenConfig) -> Query:
    b = _Builder(rng, cfg)
    master_size = rng.randint(1, 2 if cfg.p_union or cfg.p_filter else 3)
    cycle_master = (not cfg.acyclic_only) and rng.random() < cfg.p_cycle
    patterns, master_vars = _grow_bgp(b, [], master_size, cycle_master)
    root: PatternNode = Bgp(tuple(patterns))
    union_private: frozenset[Variable] = frozenset()

    if cfg.p_union and rng.random() < cfg.p_union and b.budget() >= 2:
        union, y, union_private = _union(b, rng.choice(master_vars))
        root = Join(root, union)
        master_vars.append(y)

    if rng.random() < cfg.p_peer_join and b.budget() >= 2 and not cfg.p_union:
        # (A lj B) j (C lj D): peers coalesce into one absolute master.
        anchor = rng.choice(master_vars)
        peer_pats, peer_vars = _grow_bgp(b, [anchor], 1, False)
        peer: PatternNode = Bgp(tuple(peer_pats))
        if b.budget() >= 1:
            peer = LeftJoin(peer, _optional_block(b, rng.choice(peer_vars), 1))
        left_opt = root
        if b.budget() >= 1 and rng.random() < 0.5:
            left_opt = LeftJoin(root, _optional_block(b, rng.choice(master_vars), 1))
        root = Join(left_opt, peer)
        master_vars.extend(peer_vars)

    if rng.random() < cfg.p_optional and b.budget() >= 1:
        if (not cfg.acyclic_only) and rng.random() < cfg.p_cycle and len(master_vars) >= 2 and b.budget() >= 2:
            a, c = rng.sample(master_vars, 2)
            root = LeftJoin(root, _cross_cycle_block(b, a, c))
        else:
            block: PatternNode = _optional_block(b, rng.choice(master_vars), rng.randint(1, min(2, max(1, b.budget()))))
            if rng.random() < cfg.p_nested_optional and b.budget() >= 1:
                inner_anchor = sorted(node_vars(block), key=lambda v: v.name)
                block = LeftJoin(block, _optional_block(b, rng.choice(inner_anchor), 1))
            root = LeftJoin(root, block)
        if rng.random() < cfg.p_second_optional and b.budget() >= 1:
            root = LeftJoin(root, _optional_block(b, rng.choice(master_vars), 1))

    if cfg.p_slave_union and rng.random() < cfg.p_slave_union and b.budget() >= 2:
        # root ⟕ (A ∪ B): distributing this union is rule 3, sound only up
        # to minimum union. Sometimes under a FILTER, which may test the
        # branches' shared variable.
        union, _, private = _union(b, rng.choice(master_vars))
        root = LeftJoin(root, union)
        union_private |= private
        if rng.random() < 0.5:
            root = Filter(root, _random_filter(b, sorted(node_vars(root) - union_private, key=lambda v: v.name)))

    if cfg.p_filter and rng.random() < cfg.p_filter:
        pool = sorted(node_vars(root) - union_private, key=lambda v: v.name)
        root = Filter(root, _random_filter(b, pool))

    all_vars = sorted(node_vars(root), key=lambda v: v.name)
    k = rng.randint(max(1, len(all_vars) - 2), len(all_vars))
    projection = tuple(rng.sample(all_vars, k)) if rng.random() < 0.3 else tuple(all_vars)
    query = Query(tuple(sorted(projection, key=lambda v: v.name)), False, root)
    check_safe_filters(query.root)
    check_well_designed(query.root)
    return query


def _union(b: _Builder, x: Variable) -> tuple[Union, Variable, frozenset[Variable]]:
    """{x p y} ∪ {x p y}, or a two-pattern chain from x to y on the right:
    the union, y, and the variables private to one branch."""
    rng = b.rng
    y = b.fresh_var()
    left = Bgp((b.make_pattern(x, b.rand_pred(), y),))
    if b.budget() >= 2 and rng.random() < 0.5:
        mid = b.fresh_var()
        right = Bgp(
            (
                b.make_pattern(x, b.rand_pred(), mid),
                b.make_pattern(mid, b.rand_pred(), y),
            )
        )
    else:
        right = Bgp((b.make_pattern(x, b.rand_pred(), y),))
    private = (node_vars(left) | node_vars(right)) - (node_vars(left) & node_vars(right))
    return Union(left, right), y, private


def _random_filter(b: _Builder, scope: list[Variable]):
    rng = b.rng
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        v = rng.choice(scope)
        if rng.random() < b.cfg.p_int_filter:
            op = rng.choice(["<", "<=", ">", ">="])
            conjuncts.append(Comparison(op, v, Literal(rng.choice([30, 50, 65]))))
        else:
            op = rng.choice(["=", "!="])
            conjuncts.append(Comparison(op, v, entity(rng.randrange(b.cfg.n_entities))))
    if len(conjuncts) == 1:
        return conjuncts[0]
    if rng.random() < 0.3:
        return Or(tuple(conjuncts))
    return And(tuple(conjuncts))


def sparql(query: Query) -> str:
    """SPARQL text that ``bitopt.parser.parse`` reads as ``query``, up to
    the numbering of its patterns."""

    def show(t) -> str:
        return str(t) if isinstance(t, Variable) else t.n3()

    def group(node: PatternNode) -> str:
        return "{ " + body(node) + " }"

    def body(node: PatternNode) -> str:
        if isinstance(node, Bgp):
            return " ".join(f"{show(tp.s)} {show(tp.p)} {show(tp.o)} ." for tp in node.patterns)
        if isinstance(node, Join):
            return f"{group(node.left)} {group(node.right)}"
        if isinstance(node, Union):
            return f"{group(node.left)} UNION {group(node.right)}"
        if isinstance(node, LeftJoin):
            # A group's FILTER applies to the whole group, OPTIONAL included.
            left = group(node.left) if isinstance(node.left, Filter) else body(node.left)
            return f"{left} OPTIONAL {group(node.right)}"
        return f"{body(node.inner)} FILTER ({node.expr})"

    head = "SELECT DISTINCT" if query.distinct else "SELECT"
    return f"{head} {' '.join(map(str, query.projection))} WHERE {group(query.root)}"
