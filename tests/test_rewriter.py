"""Union-normal-form conversion, filter pushing, load-time classification,
and semantic preservation of the rewrites under minimum union."""

import random

from bitopt.algebra import (
    And,
    Bgp,
    Comparison,
    Filter,
    Join,
    LeftJoin,
    Or,
    Union,
    Variable,
    node_vars,
    filter_vars,
    serialize,
    top_conjuncts,
)
from bitopt.executor import Relation, best_match
from bitopt.oracle import oracle_eval
from bitopt.parser import parse
from bitopt.rewriter import (
    collect_scoped_conjuncts,
    is_loadtime,
    push_filters,
    to_unf,
)
from bitopt.store import TripleStore
from bitopt.terms import Literal
from workload import GenConfig, random_query, random_store_text

from conftest import FILTER_QUERY, Q2_TEXT


class TestUnf:
    def test_q2_two_disjuncts_no_rule3(self):
        q = parse(Q2_TEXT)
        unf = to_unf(q.root)
        assert len(unf.disjuncts) == 2
        assert not unf.rule3_used
        for d in unf.disjuncts:
            assert not any(isinstance(n, Union) for n in _nodes(d))

    def test_union_under_optional_sets_rule3(self):
        q = parse("SELECT ?x ?y WHERE { ?x :p ?y . OPTIONAL { { ?y :q ?z } UNION { ?y :r ?z } } }")
        unf = to_unf(q.root)
        assert len(unf.disjuncts) == 2
        assert unf.rule3_used

    def test_union_free_is_identity(self):
        q = parse("SELECT ?x WHERE { ?x :p ?y . OPTIONAL { ?y :q ?z } }")
        unf = to_unf(q.root)
        assert len(unf.disjuncts) == 1
        assert unf.disjuncts[0] == q.root
        assert not unf.rule3_used

    def test_disjunct_count_multiplies(self):
        text = """
        SELECT ?x ?y ?z WHERE {
          ?x :p ?y .
          { { ?x :a ?z } UNION { ?x :b ?z } }
          { { ?y :c ?w } UNION { ?y :d ?w } }
        }
        """
        q = parse(text)
        assert len(to_unf(q.root).disjuncts) == 4


class TestPushFilters:
    def test_master_conjunct_sinks_slave_conjunct_stays(self):
        q = parse(FILTER_QUERY)
        pushed = push_filters(q.root)
        # ?age < 60 ends up below the left-outer join, ?dir != :Jerry above it.
        assert isinstance(pushed, Filter)
        assert filter_vars(pushed.expr) == {Variable("dir")}
        inner = pushed.inner
        assert isinstance(inner, LeftJoin)
        assert any(
            isinstance(n, Filter) and filter_vars(n.expr) == {Variable("age")}
            for n in _nodes(inner.left)
        )

    def test_filter_on_pure_bgp_stays(self):
        q = parse("SELECT ?x ?y WHERE { ?x :p ?y . FILTER(?y != :z) }")
        pushed = push_filters(q.root)
        assert isinstance(pushed, Filter)
        assert isinstance(pushed.inner, Bgp)

    def test_filter_distributes_over_union(self):
        q = parse(
            "SELECT ?x ?y WHERE { { { ?x :p ?y } UNION { ?x :q ?y } } FILTER(?y != :z) }"
        )
        pushed = push_filters(q.root)
        assert isinstance(pushed, Union)
        assert isinstance(pushed.left, Filter) and isinstance(pushed.right, Filter)

    def test_never_below_missing_variables(self):
        for seed in range(60):
            rng = random.Random(seed)
            cfg = GenConfig(p_optional=0.7, p_union=0.3, p_filter=1.0)
            q = random_query(rng, cfg)
            pushed = push_filters(q.root)
            for node in _nodes(pushed):
                if isinstance(node, Filter):
                    assert filter_vars(node.expr) <= node_vars(node.inner)


class TestLoadtimeClassification:
    def test_conjunctive_single_variable(self):
        expr = And(
            (
                Comparison(">", Variable("a"), Literal(60)),
                Comparison("!=", Variable("b"), Literal(10)),
            )
        )
        assert [is_loadtime(c) for c in top_conjuncts(expr)] == [True, True]

    def test_disjunction_wholly_residual(self):
        expr = Or(
            (
                Comparison(">", Variable("a"), Literal(60)),
                Comparison("=", Variable("b"), Literal(1)),
            )
        )
        assert [is_loadtime(c) for c in top_conjuncts(expr)] == [False]

    def test_multi_variable_conjunct_residual(self):
        expr = Comparison("=", Variable("a"), Variable("b"))
        assert top_conjuncts(expr) == (expr,)
        assert not is_loadtime(expr)

    def test_scoped_collection_orders_innermost_first(self):
        q = parse(
            """
            SELECT ?x ?y ?z WHERE {
              ?x :p ?y .
              OPTIONAL { ?y :q ?z . FILTER(?z != :a) }
              FILTER(?x != :b)
            }
            """
        )
        scoped = collect_scoped_conjuncts(push_filters(q.root))
        assert {frozenset(sc.vars) for sc in scoped} == {
            frozenset({Variable("z")}),
            frozenset({Variable("x")}),
        }
        depths = [sc.depth for sc in scoped]
        assert depths == sorted(depths, reverse=True)


class TestSemanticPreservation:
    def _oracle_rows(self, node, projection, triples):
        rel = oracle_eval(node, triples)
        return Relation(
            projection,
            [tuple(r.get(v) for v in projection) for r in rel.rows],
        )

    def test_unf_preserves_minimum_union_semantics(self):
        checked = 0
        for seed in range(250):
            rng = random.Random(seed)
            cfg = GenConfig(p_optional=0.6, p_union=0.8, p_filter=0.2)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            triples = store.term_triples()
            q = random_query(rng, cfg)
            unf = to_unf(push_filters(q.root))
            if len(unf.disjuncts) == 1:
                continue
            checked += 1
            original = self._oracle_rows(q.root, q.projection, triples)
            union_all = Relation(q.projection, [])
            for d in unf.disjuncts:
                part = self._oracle_rows(d, q.projection, triples)
                union_all.rows.extend(part.rows)
            assert set(best_match(original).rows) == set(best_match(union_all).rows), (
                f"seed {seed}: {serialize(q)}"
            )
        assert checked >= 60


def _nodes(node):
    from bitopt.algebra import iter_nodes

    return list(iter_nodes(node))
