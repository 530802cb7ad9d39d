"""Query text parsing, tree shapes, serialization round trips, safety and
well-designedness rejection, and three-valued filter evaluation."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitopt.algebra import (
    JOIN_SYM,
    LEFTJOIN_SYM,
    UNION_SYM,
    And,
    Bgp,
    Comparison,
    Filter,
    Join,
    LeftJoin,
    NotWellDesignedError,
    Or,
    PatternNode,
    Union,
    UnsafeFilterError,
    Variable,
    eval_filter,
    node_vars,
    serialize,
)
from bitopt.parser import QuerySyntaxError, parse
from bitopt.terms import Iri, Literal

from conftest import EX, FILTER_QUERY, Q1_TEXT, Q2_TEXT


_ALG_TOKEN = re.compile(r"P\d+|[()]|" + JOIN_SYM + "|" + LEFTJOIN_SYM + "|" + UNION_SYM)


def parse_algebra(text: str) -> PatternNode:
    """Parse the filter-free infix notation back into a shape tree (each
    P-atom becomes an empty BGP); used for round-trip checks."""
    tokens = _ALG_TOKEN.findall(text)
    pos = [0]

    def peek() -> "str | None":
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take() -> str:
        tok = tokens[pos[0]]
        pos[0] += 1
        return tok

    def atom() -> PatternNode:
        tok = take()
        if tok == "(":
            node = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses in algebra text")
            return node
        if tok.startswith("P"):
            return Bgp(())
        raise ValueError(f"unexpected token {tok!r}")

    def expr() -> PatternNode:
        node = atom()
        while peek() in (JOIN_SYM, LEFTJOIN_SYM, UNION_SYM):
            op = take()
            rhs = atom()
            cls = {JOIN_SYM: Join, LEFTJOIN_SYM: LeftJoin, UNION_SYM: Union}[op]
            node = cls(node, rhs)
        return node

    node = expr()
    if peek() is not None:
        raise ValueError(f"trailing algebra tokens at {pos[0]}")
    return node


def same_shape(a: PatternNode, b: PatternNode) -> bool:
    if isinstance(a, Bgp) and isinstance(b, Bgp):
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Filter):
        return same_shape(a.inner, b.inner)
    return same_shape(a.left, b.left) and same_shape(a.right, b.right)


class TestParsing:
    def test_q1_shape(self):
        q = parse(Q1_TEXT)
        assert isinstance(q.root, LeftJoin)
        assert isinstance(q.root.left, Bgp) and len(q.root.left.patterns) == 1
        assert isinstance(q.root.right, Bgp) and len(q.root.right.patterns) == 2
        assert serialize(q) == "P1 ⟕ P2"

    def test_q2_shape(self):
        q = parse(Q2_TEXT)
        root = q.root
        assert isinstance(root, LeftJoin)
        assert isinstance(root.left, Join)
        assert isinstance(root.left.right, Union)
        assert serialize(q) == "(P1 ⋈ (P2 ∪ P3)) ⟕ P4"

    def test_single_pattern(self):
        q = parse("SELECT ?x WHERE { ?x :p :o }")
        assert isinstance(q.root, Bgp)
        assert serialize(q) == "P1"

    def test_prefix_declaration(self):
        q = parse("PREFIX f: <http://films.test/> SELECT ?x WHERE { ?x f:p :o }")
        tp = q.root.patterns[0]
        assert tp.p == Iri("http://films.test/p")
        assert tp.o == Iri(EX + "o")

    def test_unknown_prefix(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("SELECT ?x WHERE { ?x nope:p :o }")
        assert "nope" in str(err.value)

    def test_syntax_error_position(self):
        with pytest.raises(QuerySyntaxError) as err:
            parse("SELECT ?x WHERE { ?x :p }")
        assert "line" in str(err.value)

    def test_pattern_indices_textual(self):
        q = parse(Q2_TEXT)
        from bitopt.algebra import node_patterns

        assert [tp.index for tp in node_patterns(q.root)] == [1, 2, 3, 4, 5, 6]

    def test_distinct_flag(self):
        q = parse("SELECT DISTINCT ?x WHERE { ?x :p :o }")
        assert q.distinct

    def test_projection_must_be_bound(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT ?nope WHERE { ?x :p :o }")

    def test_unsafe_filter_rejected(self):
        with pytest.raises(UnsafeFilterError):
            parse("SELECT ?x WHERE { ?x :p :o . FILTER(?ghost = 1) }")

    def test_non_well_designed_optional_rejected(self):
        text = """
        SELECT ?a WHERE {
          ?a :p :o .
          OPTIONAL { ?a :q ?hidden . }
          ?hidden :r :z .
        }
        """
        with pytest.raises(NotWellDesignedError) as err:
            parse(text)
        assert err.value.variable == Variable("hidden")

    def test_non_well_designed_union_rejected(self):
        text = """
        SELECT ?a ?b WHERE {
          ?a :p ?b .
          { { ?a :q ?c . } UNION { ?a :r ?d . } }
          ?c :s :o .
        }
        """
        with pytest.raises(NotWellDesignedError):
            parse(text)

    def test_variable_predicate_accepted_by_parser(self):
        q = parse("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
        assert q.root.patterns[0].p == Variable("p")


class TestSerialization:
    def test_nested_example(self):
        # ((Pa lj Pb) j (Pc lj Pd)) lj (Pe lj Pf)
        text = """
        SELECT ?a WHERE {
          ?a :p1 ?b . OPTIONAL { ?b :p2 ?c . }
          { ?a :p3 ?d . OPTIONAL { ?d :p4 ?e . } }
          OPTIONAL { ?a :p5 ?f . OPTIONAL { ?f :p6 ?g . } }
        }
        """
        q = parse(text)
        assert serialize(q) == (
            "((P1 ⟕ P2) ⋈ (P3 ⟕ P4)) ⟕ (P5 ⟕ P6)"
        )

    @pytest.mark.parametrize("text", [Q1_TEXT, Q2_TEXT])
    def test_reparse_preserves_shape(self, text):
        q = parse(text)
        assert same_shape(parse_algebra(serialize(q)), q.root)

    def test_reparse_all_filter_free_fixtures(self):
        from conftest import EXCEPTION2_QUERY, MOVIE_QUERY

        for text in (Q1_TEXT, Q2_TEXT, EXCEPTION2_QUERY, MOVIE_QUERY):
            q = parse(text)
            assert same_shape(parse_algebra(serialize(q)), q.root)

    def test_filter_rendering(self):
        q = parse(FILTER_QUERY)
        assert "F(" in serialize(q)


class TestFilterEval:
    def lookup(self, binding):
        return lambda v: binding.get(v)

    def test_numeric_true(self):
        expr = Comparison("<", Variable("age"), Literal(60))
        assert eval_filter(expr, self.lookup({Variable("age"): Literal(45)})) is True

    def test_null_comparison_unknown(self):
        expr = Comparison("!=", Variable("dir"), Iri(EX + "Jerry"))
        assert eval_filter(expr, self.lookup({Variable("dir"): None})) is None

    def test_or_with_null_operand(self):
        expr = Or(
            (
                Comparison(">", Variable("a"), Literal(1)),
                Comparison("=", Variable("b"), Iri(EX + "x")),
            )
        )
        binding = {Variable("a"): None, Variable("b"): Iri(EX + "x")}
        assert eval_filter(expr, self.lookup(binding)) is True

    def test_type_mismatched_ordering_unknown(self):
        expr = Comparison("<", Variable("a"), Literal(10))
        assert eval_filter(expr, self.lookup({Variable("a"): Literal("ten")})) is None
        assert eval_filter(expr, self.lookup({Variable("a"): Iri(EX + "z")})) is None

    def test_string_ordering_lexicographic(self):
        expr = Comparison("<", Variable("a"), Literal("mango"))
        assert eval_filter(expr, self.lookup({Variable("a"): Literal("apple")})) is True

    @given(
        st.tuples(
            st.sampled_from([True, False, None]), st.sampled_from([True, False, None])
        )
    )
    def test_three_valued_truth_tables(self, pair):
        # Encode operand truth values through always-true/false/null comparisons.
        def leaf(value):
            if value is True:
                return Comparison("=", Literal(1), Literal(1))
            if value is False:
                return Comparison("=", Literal(1), Literal(2))
            return Comparison("<", Variable("null"), Literal(1))

        a, b = pair
        lookup = self.lookup({Variable("null"): None})

        def t3_and(x, y):
            if x is False or y is False:
                return False
            if x is None or y is None:
                return None
            return True

        def t3_or(x, y):
            if x is True or y is True:
                return True
            if x is None or y is None:
                return None
            return False

        assert eval_filter(And((leaf(a), leaf(b))), lookup) == t3_and(a, b)
        assert eval_filter(Or((leaf(a), leaf(b))), lookup) == t3_or(a, b)


class TestWellDesignedFilterInteraction:
    def test_filter_over_optional_variable_is_accepted(self):
        # The classic age/director query: the director only exists optionally.
        q = parse(FILTER_QUERY)
        assert isinstance(q.root, Filter)
        assert Variable("dir") in node_vars(q.root)
