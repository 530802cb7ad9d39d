"""DISTINCT dispatch: covering-subgraph carving, matrix-product shrinking,
the monotonicity guarantee, and agreement between the product and naive
paths."""

import random

import pytest

from bitopt import distinct, executor
from bitopt.algebra import Query, Variable
from bitopt.distinct import distinct_eval
from bitopt.parser import parse
from bitopt.store import TripleStore
from bitopt.structure import DisconnectedQueryError
from workload import GenConfig, random_query, random_store_text

from conftest import MOVIE_QUERY, local, rows_of


class TestMovieExample:
    def test_uma_and_quentin_once(self, movie_store):
        out = distinct_eval(parse(MOVIE_QUERY), movie_store)
        assert out.path == "bmm-bgp"
        rows = rows_of(out.relation)
        assert rows.count(("UmaThurman", "QuentinTarantino")) == 1
        assert rows == [
            ("DianeKeaton", "WoodyAllen"),
            ("UmaThurman", "QuentinTarantino"),
        ]

    def test_type_pattern_left_out_of_covering_subgraph(self, movie_store):
        out = distinct_eval(parse(MOVIE_QUERY), movie_store)
        carved = out.mcs_trace[0]
        assert "T2" in carved and "T3" in carved and "T1" not in carved

    def test_shrink_reaches_single_matrix(self, movie_store):
        out = distinct_eval(parse(MOVIE_QUERY), movie_store)
        assert out.mcs_trace[-1].startswith("mcs.shrunk")
        assert "edges=[]" in out.mcs_trace[-1]

    def test_trace_records_each_iteration(self, movie_store):
        out = distinct_eval(parse(MOVIE_QUERY), movie_store)
        steps = [ln for ln in out.mcs_trace if ln.startswith("mcs.step.")]
        assert len(steps) == 1  # one contraction: two patterns into one product

    def test_single_pattern_distinct(self, movie_store):
        q = parse("SELECT DISTINCT ?a WHERE { ?m :hasActor ?a }")
        out = distinct_eval(q, movie_store)
        assert rows_of(out.relation) == [("DianeKeaton",), ("UmaThurman",)]


class TestDispatch:
    def test_distinct_over_all_variables_is_sorted_unique(self, movie_store):
        q = parse("SELECT DISTINCT ?m ?a WHERE { ?m :hasActor ?a }")
        fast = distinct_eval(q, movie_store)
        naive = distinct_eval(q, movie_store, force_naive=True)
        assert rows_of(fast.relation) == rows_of(naive.relation)
        assert len(fast.relation.rows) == len({tuple(r) for r in fast.relation.rows})

    def test_union_falls_back_to_naive(self, movie_store):
        q = parse(
            "SELECT DISTINCT ?a WHERE { { ?m :hasActor ?a } UNION { ?m :hasDirector ?a } }"
        )
        out = distinct_eval(q, movie_store)
        assert out.path == "naive"
        assert rows_of(out.relation) == [
            ("DianeKeaton",),
            ("QuentinTarantino",),
            ("UmaThurman",),
            ("WoodyAllen",),
        ]

    def test_filter_falls_back_to_naive(self, movie_store):
        q = parse("SELECT DISTINCT ?a WHERE { ?m :hasActor ?a . FILTER(?a != :UmaThurman) }")
        out = distinct_eval(q, movie_store)
        assert out.path == "naive"

    def test_cyclic_falls_back_to_naive(self, movie_store):
        q = parse("SELECT DISTINCT ?a ?b WHERE { ?a :hasActor ?b . ?b :hasDirector ?c . ?c :hasActor ?a }")
        out = distinct_eval(q, movie_store)
        assert out.path == "naive"

    def test_distinct_vars_only_in_slave_falls_back(self, movie_store):
        q = parse(
            "SELECT DISTINCT ?d WHERE { ?m rdf:type :Movie . OPTIONAL { ?m :hasDirector ?d } }"
        )
        out = distinct_eval(q, movie_store)
        assert out.path == "naive"

    @pytest.mark.parametrize(
        "text,path",
        [
            (MOVIE_QUERY, "bmm-bgp"),
            (
                "SELECT DISTINCT ?m ?d WHERE { ?m rdf:type :Movie . OPTIONAL { ?m :hasDirector ?d } }",
                "bmm-bgp-opt",
            ),
            (
                "SELECT DISTINCT ?a WHERE { { ?m :hasActor ?a } UNION { ?m :hasDirector ?a } }",
                "naive",
            ),
        ],
        ids=["bmm-bgp", "bmm-bgp-opt", "naive"],
    )
    def test_only_the_path_taken_deduplicates(self, movie_store, monkeypatch, text, path):
        calls = []
        real = distinct.best_match

        def counting(relation):
            calls.append(len(relation.rows))
            return real(relation)

        monkeypatch.setattr(distinct, "best_match", counting)
        out = distinct_eval(parse(text), movie_store)
        assert out.path == path
        assert len(calls) == 1


    @pytest.mark.parametrize(
        "text,path,joins",
        [
            (MOVIE_QUERY, "bmm-bgp", 1),
            (
                "SELECT DISTINCT ?m ?d WHERE { ?m rdf:type :Movie . OPTIONAL { ?m :hasDirector ?d } }",
                "bmm-bgp-opt",
                1,
            ),
            (
                "SELECT DISTINCT ?a ?b WHERE { ?a :hasActor ?b . ?b :hasDirector ?c . ?c :hasActor ?a }",
                "naive",
                1,
            ),
            (
                "SELECT DISTINCT ?a WHERE { { ?m :hasActor ?a } UNION { ?m :hasDirector ?a } }",
                "naive",
                2,
            ),
        ],
        ids=["bmm-bgp", "bmm-bgp-opt", "naive-cyclic", "naive-union"],
    )
    def test_planned_once_and_only_the_path_taken_joins(self, movie_store, monkeypatch, text, path, joins):
        """The matrix path runs its covering-subgraph join and no base-query
        join; the naive path runs one join per disjunct."""
        plans, runs = [], []
        for module in (distinct, executor):
            real_plan = module.plan_query

            def counted_plan(*args, _real=real_plan, **kwargs):
                plans.append(args[0])
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "plan_query", counted_plan)
        real_run = executor.MultiWayJoin.run

        def counted_run(join):
            runs.append(join)
            return real_run(join)

        monkeypatch.setattr(executor.MultiWayJoin, "run", counted_run)
        out = distinct_eval(parse(text), movie_store)
        assert out.path == path
        assert len(plans) == 1
        assert len(runs) == joins


class TestContractionSafety:
    def test_chain_correlation_not_cut(self):
        # T1(v0,v1) lj [T3(v1,v3) T4(v3,v4)] with a nested [T5(v4,v5)]:
        # contracting T3xT4 over v3 while v3 still labels another edge would
        # let T4 re-bind v3 unconstrained by T3.
        store = TripleStore.from_ntriples(
            "\n".join(
                f"<http://example.org/{s}> <http://example.org/{p}> <http://example.org/{o}> ."
                for s, p, o in [
                    ("a", "p1", "b"),
                    ("b", "p2", "x"),      # T3 row for v1=b
                    ("x", "p2", "y"),      # T4 via x
                    ("z", "p2", "y"),      # alternate v3 with same v4, no T3 backing for b
                    ("c", "p2", "z"),      # T3 row for a different v1
                    ("a", "p1", "c"),
                    ("y", "p0", "out"),
                ]
            )
        )
        q = parse(
            """
            SELECT DISTINCT ?v0 ?v1 ?v5 WHERE {
              ?v0 :p1 ?v1 .
              OPTIONAL { ?v1 :p2 ?v3 . ?v3 :p2 ?v4 . OPTIONAL { ?v4 :p0 ?v5 } }
            }
            """
        )
        fast = distinct_eval(q, store)
        slow = distinct_eval(q, store, force_naive=True)
        assert sorted(map(str, fast.relation.rows)) == sorted(map(str, slow.relation.rows))

    def test_shared_master_variable_not_eliminated_twice(self):
        # Two sibling optional blocks both join the master on v0; eliminating
        # v0 in both products would correlate them only through a projected
        # variable and combine rows from different v0 bindings.
        store = TripleStore.from_ntriples(
            "\n".join(
                f"<http://example.org/{s}> <http://example.org/{p}> <http://example.org/{o}> ."
                for s, p, o in [
                    ("m1", "p1", "shared"),
                    ("m2", "p1", "shared"),
                    ("m1", "p3", "d1"),    # only m1 has the first block
                    ("m2", "p4", "e1"),    # only m2 has the second block
                ]
            )
        )
        q = parse(
            """
            SELECT DISTINCT ?v1 ?v3 ?v5 WHERE {
              ?v0 :p1 ?v1 .
              OPTIONAL { ?v0 :p3 ?v3 }
              OPTIONAL { ?v0 :p4 ?v5 }
            }
            """
        )
        fast = distinct_eval(q, store)
        slow = distinct_eval(q, store, force_naive=True)
        assert sorted(map(str, fast.relation.rows)) == sorted(map(str, slow.relation.rows))
        # (shared, d1, e1) would be the spurious combination.
        assert not any(
            row[1] is not None and row[2] is not None for row in fast.relation.rows
        )

    def test_unmatched_product_node_null_extends(self):
        # The optional block T2(v1,v3) T3(v3,v4) contracts over v3 into one
        # product node; master rows whose v1 reaches no v4 through it (c via
        # a dead-end z, e with no p2 at all) must come out with v4 NULL.
        store = TripleStore.from_ntriples(
            "\n".join(
                f"<http://example.org/{s}> <http://example.org/{p}> <http://example.org/{o}> ."
                for s, p, o in [
                    ("a", "p1", "b"),
                    ("a", "p1", "c"),
                    ("d", "p1", "e"),
                    ("b", "p2", "x"),
                    ("x", "p3", "y"),
                    ("c", "p2", "z"),  # z has no p3
                ]
            )
        )
        q = parse(
            """
            SELECT DISTINCT ?v0 ?v1 ?v4 WHERE {
              ?v0 :p1 ?v1 .
              OPTIONAL { ?v1 :p2 ?v3 . ?v3 :p3 ?v4 }
            }
            """
        )
        fast = distinct_eval(q, store)
        slow = distinct_eval(q, store, force_naive=True)
        assert fast.path == "bmm-bgp-opt"
        assert fast.mcs_trace[-1].startswith("mcs.shrunk nodes=[T1,B")
        assert rows_of(fast.relation) == [
            ("a", "b", "y"),
            ("a", "c", "NULL"),
            ("d", "e", "NULL"),
        ]
        assert rows_of(fast.relation) == rows_of(slow.relation)


class TestRandomizedAgreement:
    def _distinct_query(self, rng, cfg):
        q0 = random_query(rng, cfg)
        pool = sorted(q0.projection, key=lambda v: v.name)
        k = rng.randint(1, min(3, len(pool)))
        dvars = tuple(sorted(rng.sample(pool, k), key=lambda v: v.name))
        return Query(dvars, True, q0.root)

    def test_bgp_and_bgp_opt_paths_agree_with_naive(self):
        bmm_hits = 0
        for seed in range(120):
            rng = random.Random(seed)
            cfg = GenConfig(p_optional=0.5, acyclic_only=True, p_peer_join=0.0)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = self._distinct_query(rng, cfg)
            try:
                fast = distinct_eval(q, store)
                slow = distinct_eval(q, store, force_naive=True)
            except DisconnectedQueryError:
                continue
            if fast.path != "naive":
                bmm_hits += 1
            assert sorted(map(str, fast.relation.rows)) == sorted(
                map(str, slow.relation.rows)
            ), f"seed {seed} path={fast.path}"
        assert bmm_hits >= 60

    def test_shrink_monotone_node_counts(self):
        # The assertion inside shrink_mcs guards every step; here we check the
        # recorded history on queries that actually shrink.
        shrunk = 0
        for seed in range(80):
            rng = random.Random(seed)
            cfg = GenConfig(p_optional=0.4, acyclic_only=True, p_peer_join=0.0)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = self._distinct_query(rng, cfg)
            try:
                out = distinct_eval(q, store)
            except DisconnectedQueryError:
                continue
            if len(out.mcs_trace) >= 2:
                shrunk += 1
        assert shrunk >= 30
