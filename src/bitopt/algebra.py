"""Query algebra: triple patterns, the BGP/Join/LeftJoin/Union/Filter tree,
filter expressions with three-valued evaluation, and the parenthesized infix
serialization consumed by the structural analyses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .terms import Literal, Term

JOIN_SYM = "⋈"  # inner join
LEFTJOIN_SYM = "⟕"  # left outer join
UNION_SYM = "∪"
SEMIJOIN_SYM = "⋉"


class QueryRejectedError(ValueError):
    """Query is outside the supported class (checked, not a syntax error)."""


class NotWellDesignedError(QueryRejectedError):
    def __init__(self, variable: "Variable", context: str):
        super().__init__(f"not well-designed: {variable} {context}")
        self.variable = variable


class UnsafeFilterError(QueryRejectedError):
    def __init__(self, variable: "Variable"):
        super().__init__(f"unsafe filter: {variable} does not occur in the filtered pattern")
        self.variable = variable


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


TermOrVar = Term | Variable


@dataclass(frozen=True, slots=True)
class TriplePattern:
    index: int  # stable 1-based position within the query
    s: TermOrVar
    p: TermOrVar
    o: TermOrVar

    def vars(self) -> frozenset[Variable]:
        return frozenset(t for t in (self.s, self.p, self.o) if isinstance(t, Variable))

    @property
    def label(self) -> str:
        return f"T{self.index}"

    def __str__(self) -> str:
        def show(t: TermOrVar) -> str:
            return str(t) if isinstance(t, Variable) else t.n3()

        return f"({show(self.s)} {show(self.p)} {show(self.o)})"


# ---------------------------------------------------------------------------
# Filter expressions


@dataclass(frozen=True, slots=True)
class Comparison:
    op: str  # = != < <= > >=
    lhs: TermOrVar
    rhs: TermOrVar

    def __str__(self) -> str:
        def show(t: TermOrVar) -> str:
            return str(t) if isinstance(t, Variable) else t.n3()

        return f"{show(self.lhs)} {self.op} {show(self.rhs)}"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["FilterExpr", ...]

    def __str__(self) -> str:
        return " && ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["FilterExpr", ...]

    def __str__(self) -> str:
        return " || ".join(_paren(p) for p in self.parts)


@dataclass(frozen=True, slots=True)
class Not:
    inner: "FilterExpr"

    def __str__(self) -> str:
        return f"!({self.inner})"


FilterExpr = Comparison | And | Or | Not


def _paren(expr: FilterExpr) -> str:
    text = str(expr)
    return f"({text})" if isinstance(expr, (And, Or)) else text


def filter_vars(expr: FilterExpr) -> frozenset[Variable]:
    if isinstance(expr, Comparison):
        return frozenset(t for t in (expr.lhs, expr.rhs) if isinstance(t, Variable))
    if isinstance(expr, Not):
        return filter_vars(expr.inner)
    out: frozenset[Variable] = frozenset()
    for part in expr.parts:
        out |= filter_vars(part)
    return out


def top_conjuncts(expr: FilterExpr) -> tuple[FilterExpr, ...]:
    """Flatten top-level AND nesting; anything else is a single conjunct."""
    if isinstance(expr, And):
        out: list[FilterExpr] = []
        for part in expr.parts:
            out.extend(top_conjuncts(part))
        return tuple(out)
    return (expr,)


def eval_filter(expr: FilterExpr, lookup: Callable[[Variable], "Term | None"]) -> "bool | None":
    """Three-valued evaluation; ``None`` is unknown. NULL bindings and
    type-incompatible orderings yield unknown, which propagates through the
    connectives; a row passes a filter only on True."""
    if isinstance(expr, Comparison):
        lhs = lookup(expr.lhs) if isinstance(expr.lhs, Variable) else expr.lhs
        rhs = lookup(expr.rhs) if isinstance(expr.rhs, Variable) else expr.rhs
        if lhs is None or rhs is None:
            return None
        return _compare(expr.op, lhs, rhs)
    if isinstance(expr, Not):
        v = eval_filter(expr.inner, lookup)
        return None if v is None else not v
    if isinstance(expr, And):
        acc: bool | None = True
        for part in expr.parts:
            v = eval_filter(part, lookup)
            if v is False:
                return False
            if v is None:
                acc = None
        return acc
    acc = False
    for part in expr.parts:
        v = eval_filter(part, lookup)
        if v is True:
            return True
        if v is None:
            acc = None
    return acc


def _compare(op: str, lhs: Term, rhs: Term) -> "bool | None":
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    # Orderings are defined within one comparable kind only.
    if isinstance(lhs, Literal) and isinstance(rhs, Literal):
        if lhs.is_integer and rhs.is_integer:
            a, b = lhs.value, rhs.value
        elif not lhs.is_integer and not rhs.is_integer:
            a, b = str(lhs.value), str(rhs.value)
        else:
            return None
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    return None


# ---------------------------------------------------------------------------
# Pattern tree


@dataclass(frozen=True, slots=True)
class Bgp:
    patterns: tuple[TriplePattern, ...]


@dataclass(frozen=True, slots=True)
class Join:
    left: "PatternNode"
    right: "PatternNode"


@dataclass(frozen=True, slots=True)
class LeftJoin:
    left: "PatternNode"
    right: "PatternNode"


@dataclass(frozen=True, slots=True)
class Union:
    left: "PatternNode"
    right: "PatternNode"


@dataclass(frozen=True, slots=True)
class Filter:
    inner: "PatternNode"
    expr: FilterExpr


PatternNode = Bgp | Join | LeftJoin | Union | Filter


@dataclass(frozen=True)
class Query:
    projection: tuple[Variable, ...]
    distinct: bool
    root: PatternNode


def node_vars(node: PatternNode) -> frozenset[Variable]:
    if isinstance(node, Bgp):
        out: frozenset[Variable] = frozenset()
        for tp in node.patterns:
            out |= tp.vars()
        return out
    if isinstance(node, Filter):
        return node_vars(node.inner)
    return node_vars(node.left) | node_vars(node.right)


def node_patterns(node: PatternNode) -> tuple[TriplePattern, ...]:
    if isinstance(node, Bgp):
        return node.patterns
    if isinstance(node, Filter):
        return node_patterns(node.inner)
    return node_patterns(node.left) + node_patterns(node.right)


def master_region_vars(node: PatternNode) -> frozenset[Variable]:
    """Variables bound on the left spine: both sides of joins, only the left
    of left-outer joins. Everything else is owned by some optional block."""
    if isinstance(node, Bgp):
        return node_vars(node)
    if isinstance(node, Filter):
        return master_region_vars(node.inner)
    if isinstance(node, LeftJoin):
        return master_region_vars(node.left)
    if isinstance(node, Union):
        # Union is never part of a master spine once in UNF; before that the
        # escaping variables are required in both branches.
        return master_region_vars(node.left) & master_region_vars(node.right)
    return master_region_vars(node.left) | master_region_vars(node.right)


def iter_nodes(node: PatternNode) -> Iterator[PatternNode]:
    yield node
    if isinstance(node, Bgp):
        return
    if isinstance(node, Filter):
        yield from iter_nodes(node.inner)
        return
    yield from iter_nodes(node.left)
    yield from iter_nodes(node.right)


def coalesce_bgps(node: PatternNode) -> PatternNode:
    """Merge joins of OPT-free, filter-free subtrees into single BGPs so a
    supernode covers a maximal OPT-free block."""
    if isinstance(node, Bgp):
        return node
    if isinstance(node, Filter):
        return Filter(coalesce_bgps(node.inner), node.expr)
    left = coalesce_bgps(node.left)
    right = coalesce_bgps(node.right)
    if isinstance(node, Join) and isinstance(left, Bgp) and isinstance(right, Bgp):
        return Bgp(left.patterns + right.patterns)
    return type(node)(left, right)


# ---------------------------------------------------------------------------
# Well-designedness and safety checks


def check_safe_filters(node: PatternNode) -> None:
    for sub in iter_nodes(node):
        if isinstance(sub, Filter):
            scope = node_vars(sub.inner)
            for v in sorted(filter_vars(sub.expr), key=lambda v: v.name):
                if v not in scope:
                    raise UnsafeFilterError(v)


def check_well_designed(root: PatternNode) -> None:
    """Left-outer joins: a slave variable escaping its pattern must occur on
    the master side. Unions: a variable escaping the union must occur in both
    branches."""

    def outside_vars(target: PatternNode, include_filters: bool) -> frozenset[Variable]:
        def walk(node: PatternNode) -> frozenset[Variable]:
            if node is target:
                return frozenset()
            if isinstance(node, Bgp):
                return node_vars(node)
            if isinstance(node, Filter):
                out = walk(node.inner)
                if include_filters:
                    out |= filter_vars(node.expr)
                return out
            return walk(node.left) | walk(node.right)

        return walk(root)

    for sub in iter_nodes(root):
        if isinstance(sub, LeftJoin):
            # A filter mentioning an optional-only variable is fine (it is a
            # safe filter); only pattern occurrences make a variable escape.
            escaping = outside_vars(sub, include_filters=False)
            master = node_vars(sub.left)
            for v in sorted(node_vars(sub.right), key=lambda v: v.name):
                if v in escaping and v not in master:
                    raise NotWellDesignedError(v, "escapes an OPTIONAL without occurring in its master")
        elif isinstance(sub, Union):
            # Filters do count here: a branch-private variable reached by an
            # outer filter is exactly the dangerous-variable case.
            escaping = outside_vars(sub, include_filters=True)
            lv, rv = node_vars(sub.left), node_vars(sub.right)
            for v in sorted((lv | rv), key=lambda v: v.name):
                if v in escaping and not (v in lv and v in rv):
                    raise NotWellDesignedError(v, "escapes a UNION without occurring in both branches")


# ---------------------------------------------------------------------------
# Serialization


def serialize(node: "PatternNode | Query", leaf: "Callable[[Bgp], str] | None" = None) -> str:
    """Render the tree as a parenthesized infix expression over its BGPs,
    each rendered by ``leaf``; by default they are named P1..Pk, numbered
    left to right."""
    if isinstance(node, Query):
        node = node.root
    numbers = itertools.count(1)
    leaf = leaf or (lambda bgp: f"P{next(numbers)}")

    def walk(n: PatternNode, top: bool) -> str:
        if isinstance(n, Bgp):
            return leaf(n)
        if isinstance(n, Filter):
            inner = walk(n.inner, False)
            return f"{inner} F({n.expr})" if top else f"({inner} F({n.expr}))"
        sym = {Join: JOIN_SYM, LeftJoin: LEFTJOIN_SYM, Union: UNION_SYM}[type(n)]
        text = f"{walk(n.left, False)} {sym} {walk(n.right, False)}"
        return text if top else f"({text})"

    return walk(node, True)
