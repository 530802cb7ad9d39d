"""Recursive-descent parser for the SELECT / WHERE / OPTIONAL / UNION /
FILTER / DISTINCT subset, producing the query algebra.

Group semantics: adjacent triple patterns accumulate into one BGP;
``OPTIONAL { B }`` left-joins B onto everything accumulated so far in the
group; ``{A} UNION {B}`` joins as a unit; FILTERs attach to their enclosing
group regardless of position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import (
    And,
    Bgp,
    Comparison,
    Filter,
    FilterExpr,
    Join,
    LeftJoin,
    Not,
    Or,
    PatternNode,
    Query,
    QueryRejectedError,
    TriplePattern,
    Union,
    Variable,
    check_safe_filters,
    check_well_designed,
    node_vars,
    top_conjuncts,
)
from .terms import Iri, Literal, parse_integer, unescape

DEFAULT_PREFIXES = {
    "": "http://example.org/",
    "ex": "http://example.org/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


# Deepest nesting a query may have, while parsed and as a tree (see
# ``nesting_depth``): the recursive walks stay inside Python's recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"query nests deeper than {MAX_NESTING} levels"
# Most disjuncts a query's union-normal form may have (see ``unf_size``):
# each one is planned, loaded and pruned on its own. A chain of UNION
# branches at the nesting limit fits.
MAX_DISJUNCTS = 128


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<integer>[+-]?[0-9]+)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*)?:(?P<local>[A-Za-z0-9_.-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||!=|<=|>=|[{}().=<>!*,])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = pos - line_start + 1
        if m.lastgroup != "ws" and m.lastgroup != "local":
            kind = m.lastgroup
            value = m.group(0)
            if kind == "pname" or (kind is None and ":" in value):
                kind = "pname"
            tokens.append(_Token(kind or "pname", value, line, col))
        elif m.lastgroup == "local":
            tokens.append(_Token("pname", m.group(0), line, col))
        newlines = m.group(0).count("\n")
        if newlines:
            line += newlines
            line_start = pos + m.group(0).rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


_KEYWORDS = {"select", "distinct", "where", "optional", "union", "filter", "prefix"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.pattern_count = 0
        self.depth = 0  # groups, parentheses and ! open at this point

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> QuerySyntaxError:
        tok = self.peek()
        return QuerySyntaxError(message, tok.line, tok.col)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.value.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected {word.upper()}")
        self.take()

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise QueryRejectedError(_TOO_DEEP)

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise self.error(f"expected {op!r}")
        self.take()

    # -- grammar ------------------------------------------------------------

    def parse_query(self) -> Query:
        while self.at_keyword("prefix"):
            self.take()
            name_tok = self.take()
            if name_tok.kind != "pname" or not name_tok.value.endswith(":"):
                raise self.error("expected prefix declaration like 'ex:'")
            prefix = name_tok.value.split(":", 1)[0]
            iri_tok = self.take()
            if iri_tok.kind != "iri":
                raise self.error("expected IRI in PREFIX declaration")
            self.prefixes[prefix] = iri_tok.value[1:-1]
        self.expect_keyword("select")
        distinct = False
        if self.at_keyword("distinct"):
            self.take()
            distinct = True
        projection: list[Variable] = []
        while self.peek().kind == "var":
            projection.append(Variable(self.take().value[1:]))
        if not projection:
            raise self.error("expected at least one projection variable")
        self.expect_keyword("where")
        root = self.parse_group()
        if self.peek().kind != "eof":
            raise self.error("trailing content after query")
        if nesting_depth(root) > MAX_NESTING:
            raise QueryRejectedError(_TOO_DEEP)
        if unf_size(root) > MAX_DISJUNCTS:
            raise QueryRejectedError(f"query has more than {MAX_DISJUNCTS} union-normal-form disjuncts")
        scope = node_vars(root)
        for v in projection:
            if v not in scope:
                raise self.error(f"projection variable {v} not bound in WHERE")
        check_safe_filters(root)
        check_well_designed(root)
        return Query(tuple(projection), distinct, root)

    def parse_group(self) -> PatternNode:
        self.expect_op("{")
        self.enter()
        current: PatternNode | None = None
        pending_bgp: list[TriplePattern] = []
        filters: list[FilterExpr] = []

        def flush_bgp():
            nonlocal current
            if pending_bgp:
                bgp = Bgp(tuple(pending_bgp))
                pending_bgp.clear()
                current = bgp if current is None else Join(current, bgp)

        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "}":
                self.take()
                break
            if self.at_keyword("optional"):
                self.take()
                block = self.parse_group()
                flush_bgp()
                if current is None:
                    current = Bgp(())
                current = LeftJoin(current, block)
            elif self.at_keyword("filter"):
                self.take()
                filters.append(self.parse_filter_expr())
            elif tok.kind == "op" and tok.value == "{":
                block = self.parse_group()
                while self.at_keyword("union"):
                    self.take()
                    rhs = self.parse_group()
                    block = Union(block, rhs)
                flush_bgp()
                current = block if current is None else Join(current, block)
            elif tok.kind in ("iri", "var", "pname", "string", "integer"):
                pending_bgp.append(self.parse_triple_pattern())
            else:
                raise self.error(f"unexpected token {tok.value!r} in group")
        flush_bgp()
        if current is None:
            raise self.error("empty group pattern")
        for f in filters:
            current = Filter(current, f)
        self.depth -= 1
        return current

    def parse_triple_pattern(self) -> TriplePattern:
        s = self.parse_term(position="subject")
        p = self.parse_term(position="predicate")
        o = self.parse_term(position="object")
        tok = self.peek()
        if tok.kind == "op" and tok.value == ".":
            self.take()
        self.pattern_count += 1
        return TriplePattern(self.pattern_count, s, p, o)

    def parse_term(self, position: str):
        """One term in ``position``: subject, predicate, object or filter
        operand. Literals may stand only as an object or an operand."""
        tok = self.take()
        if tok.kind == "var":
            return Variable(tok.value[1:])
        if tok.kind == "iri":
            return Iri(tok.value[1:-1])
        if tok.kind == "pname":
            prefix, _, local = tok.value.partition(":")
            if prefix not in self.prefixes:
                raise QuerySyntaxError(f"unknown prefix {prefix!r}:", tok.line, tok.col)
            return Iri(self.prefixes[prefix] + local)
        if tok.kind in ("string", "integer"):
            if position in ("subject", "predicate"):
                raise QuerySyntaxError(f"literal in {position} position", tok.line, tok.col)
            if tok.kind == "integer":
                try:
                    return Literal(parse_integer(tok.value))
                except ValueError as exc:
                    raise QuerySyntaxError(str(exc), tok.line, tok.col) from None
            try:
                return Literal(unescape(tok.value[1:-1]))
            except ValueError as exc:
                raise QuerySyntaxError(f"{exc} in string literal", tok.line, tok.col) from None
        raise QuerySyntaxError(f"expected {position}, got {tok.value!r}", tok.line, tok.col)

    # FILTER expressions: ||, && over comparisons, ! and parentheses.

    def parse_filter_expr(self) -> FilterExpr:
        self.expect_op("(")
        expr = self.parse_or()
        self.expect_op(")")
        return expr

    def parse_or(self) -> FilterExpr:
        parts = [self.parse_and()]
        while self.peek().kind == "op" and self.peek().value == "||":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> FilterExpr:
        parts = [self.parse_unary()]
        while self.peek().kind == "op" and self.peek().value == "&&":
            self.take()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> FilterExpr:
        tok = self.peek()
        if tok.kind != "op" or tok.value not in ("!", "("):
            return self.parse_comparison()
        self.take()
        self.enter()
        if tok.value == "!":
            expr = Not(self.parse_unary())
        else:
            expr = self.parse_or()
            self.expect_op(")")
        self.depth -= 1
        return expr

    def parse_comparison(self) -> FilterExpr:
        lhs = self.parse_term(position="filter operand")
        tok = self.take()
        if tok.kind != "op" or tok.value not in ("=", "!=", "<", "<=", ">", ">="):
            raise QuerySyntaxError(f"expected comparison operator, got {tok.value!r}", tok.line, tok.col)
        rhs = self.parse_term(position="filter operand")
        return Comparison(tok.value, lhs, rhs)


def nesting_depth(node: PatternNode) -> int:
    """Depth of the tree, counting a FILTER once per top-level conjunct,
    since filter placement may give each conjunct a filter of its own.
    Iterative, so it measures a tree too deep for the recursive walks."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        n, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(n, Filter):
            stack.append((n.inner, depth + len(top_conjuncts(n.expr))))
        elif not isinstance(n, Bgp):
            stack += [(n.left, depth + 1), (n.right, depth + 1)]
    return deepest


def unf_size(node: PatternNode) -> int:
    """How many disjuncts ``rewriter.to_unf`` makes of the tree, counted
    without building any: a UNION adds its branches' counts, a join or
    OPTIONAL multiplies them."""
    if isinstance(node, Bgp):
        return 1
    if isinstance(node, Filter):
        return unf_size(node.inner)
    left, right = unf_size(node.left), unf_size(node.right)
    return left + right if isinstance(node, Union) else left * right


def parse(text: str) -> Query:
    return _Parser(text).parse_query()
