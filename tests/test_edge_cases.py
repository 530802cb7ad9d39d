"""Shapes the random corpus underweights: two-variable join labels,
repeated variables, the greedy-absolute-master regime, mixed-arity unions,
an empty shared coordinate space, and the explain goldens."""

import random

from bitopt.executor import RunConfig, run_query
from bitopt.explain import render_explain
from bitopt.parser import parse
from bitopt.pruning import GREEDY_ABS, pick_regime
from bitopt.store import TripleStore
from workload import GenConfig, random_query, random_store_text
from bitopt.structure import DisconnectedQueryError

from conftest import EX, engine_relation, normalized, oracle_relation, rows_of


def nt(*triples):
    return "\n".join(f"<{EX}{s}> <{EX}{p}> <{EX}{o}> ." for s, p, o in triples) + "\n"


class TestPairJoins:
    def test_two_variable_inner_join(self):
        store = TripleStore.from_ntriples(
            nt(("a1", "p", "b1"), ("a2", "p", "b2"), ("b1", "q", "a1"), ("b2", "q", "a9"))
        )
        q = parse("SELECT ?a ?b WHERE { ?a :p ?b . ?b :q ?a }")
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        assert rows_of(engine) == [("a1", "b1")]

    def test_two_variable_master_slave_edge(self):
        # The optional block shares both variables with its master; the
        # constraint transfer is a pair semi-join, and a value-pair present
        # in neither direction must not leak through.
        store = TripleStore.from_ntriples(
            nt(
                ("a1", "p", "b1"),
                ("a2", "p", "b2"),
                ("b1", "r", "a1"),
                ("b2", "r", "a1"),
            )
        )
        q = parse("SELECT ?a ?b WHERE { ?a :p ?b . OPTIONAL { ?b :r ?a } }")
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        assert rows_of(engine) == [("a1", "b1"), ("a2", "b2")]

    def test_pair_minimality(self):
        # Componentwise folds alone keep (1,2)/(3,4) alive against reversed
        # pairs (1,4)/(3,2); the pair semi-join must drop everything.
        store = TripleStore.from_ntriples(
            nt(("e1", "p", "e2"), ("e3", "p", "e4"), ("e1", "q", "e4"), ("e3", "q", "e2"))
        )
        q = parse("SELECT ?a ?b WHERE { ?a :p ?b . ?a :q ?b }")
        result = run_query(q, store)
        assert result.relation.rows == []
        for pm in result.disjuncts[0].matrices.values():
            assert pm.count == 0


class TestRepeatedVariable:
    def test_self_loop_pattern(self):
        store = TripleStore.from_ntriples(
            nt(("a1", "p", "a1"), ("a2", "p", "b1"), ("b1", "p", "b1"))
        )
        q = parse("SELECT ?x WHERE { ?x :p ?x }")
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        assert rows_of(engine) == [("a1",), ("b1",)]

    def test_self_loop_on_empty_store(self):
        # Every matrix of an empty store has 0 x 0 cells, the diagonal mask too.
        q = parse("SELECT ?x WHERE { ?x :p ?x }")
        assert rows_of(engine_relation(q, TripleStore.from_ntriples(""))) == []

    def test_self_loop_joined(self):
        store = TripleStore.from_ntriples(
            nt(("a1", "p", "a1"), ("a1", "q", "c1"), ("a2", "q", "c2"))
        )
        q = parse("SELECT ?x ?y WHERE { ?x :p ?x . ?x :q ?y }")
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        assert rows_of(engine) == [("a1", "c1")]


class TestGreedyAbsRegime:
    TEXT = """
    SELECT ?a ?b ?c ?d WHERE {
      ?a :p ?b . ?b :q ?c . ?c :r ?a .
      OPTIONAL { ?a :s ?d . }
    }
    """

    def _store(self):
        return TripleStore.from_ntriples(
            nt(
                ("e1", "p", "e2"),
                ("e2", "q", "e3"),
                ("e3", "r", "e1"),
                ("e1", "p", "e4"),  # dead end: no q edge from e4
                ("e1", "s", "e9"),
            )
        )

    def test_regime_selected_and_agrees(self):
        store = self._store()
        q = parse(self.TEXT)
        result = run_query(q, store)
        trace = result.disjuncts[0]
        assert not trace.report.got_acyclic
        assert trace.report.abs_only_cycles
        assert not trace.report.nb_required
        assert pick_regime(trace.report) == GREEDY_ABS
        assert trace.schedule.regime == GREEDY_ABS
        assert normalized(result.relation.project(q.projection)) == normalized(
            oracle_relation(q, store)
        )

    def test_randomized_cyclic_masters(self):
        cfg = GenConfig(p_optional=0.9, p_cycle=0.9, p_peer_join=0.0)
        hits = 0
        for seed in range(200):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            try:
                result = run_query(q, store)
            except DisconnectedQueryError:
                continue
            if any(t.schedule.regime == GREEDY_ABS for t in result.disjuncts):
                hits += 1
            assert normalized(result.relation.project(q.projection)) == normalized(
                oracle_relation(q, store)
            ), f"seed {seed}"
        assert hits >= 10  # 14 of the 200 seeds take the regime


class TestEquivalenceClassAcyclicButNotReducible:
    # Acyclic by equivalence-class leaf elimination, yet no semi-join tree
    # can carry the joint (v0,v1) constraint between T1 and T3: T1's class
    # collapses through the {v0,v1} label while the remaining triangle
    # {v0,v2}/{v1,v2}/{v0} has no dominating witness. Pruning must not claim
    # minimality here, and DISTINCT must not take the product path.
    TEXT = """
    SELECT ?v0 ?v1 ?v2 WHERE {
      ?v0 :p3 ?v1 . ?v0 :p2 ?v2 . ?v1 :p3 ?v0 .
      ?v0 :p2 ?v2 . ?v2 :p1 ?v1 .
    }
    """

    def _store(self):
        return TripleStore.from_ntriples(
            nt(
                ("e4", "p3", "e5"),
                ("e0", "p3", "e1"),
                ("e4", "p2", "e5"),
                ("e5", "p1", "e1"),
            )
        )

    def test_classified_acyclic_but_not_reducible(self):
        from bitopt.algebra import coalesce_bgps
        from bitopt.structure import build_gosn, build_got, classify, ear_reducible, is_acyclic

        q = parse(self.TEXT)
        gosn = build_gosn(coalesce_bgps(q.root))
        got = build_got(gosn)
        assert is_acyclic(got)[0] is True
        assert ear_reducible(got) is False
        report = classify(gosn, got)
        assert not report.fully_reducible
        # A pure BGP still skips nullification (backtracking handles it);
        # only the minimality-dependent consumers must treat this as cyclic.
        assert not report.nb_required

    def test_engine_agrees_and_distinct_falls_back(self):
        from bitopt.algebra import Query
        from bitopt.distinct import distinct_eval

        store = self._store()
        q = parse(self.TEXT)
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        dq = Query(q.projection[2:], True, q.root)
        fast = distinct_eval(dq, store)
        assert fast.path == "naive"
        slow = distinct_eval(dq, store, force_naive=True)
        assert sorted(map(str, fast.relation.rows)) == sorted(map(str, slow.relation.rows))


class TestMixedArityUnion:
    def test_branch_private_variables_pad_null(self):
        store = TripleStore.from_ntriples(nt(("a1", "p", "y1"), ("a1", "q", "z1")))
        q = parse("SELECT ?x ?y ?z WHERE { { ?x :p ?y } UNION { ?x :q ?z } }")
        engine = engine_relation(q, store)
        assert normalized(engine) == normalized(oracle_relation(q, store))
        assert rows_of(engine) == [("a1", "NULL", "z1"), ("a1", "y1", "NULL")]


class TestEmptySharedSpace:
    def test_chain_join_without_shared_terms(self):
        # Objects of :p never occur as subjects: the S/O overlap is empty and
        # every cross-dimension semi-join must come out empty, not crash.
        store = TripleStore.from_ntriples(nt(("a1", "p", "b1"), ("c1", "q", "d1")))
        assert store.dictionary.n_so == 0
        q = parse("SELECT ?x ?y ?z WHERE { ?x :p ?y . ?y :q ?z }")
        engine = engine_relation(q, store)
        assert engine.rows == []
        assert normalized(engine) == normalized(oracle_relation(q, store))


class TestExplainGolden:
    def test_q1_report_is_stable(self, seinfeld_store):
        from conftest import Q1_TEXT

        q = parse(Q1_TEXT)
        result = run_query(q, seinfeld_store)
        report = render_explain(q, result)
        assert report == (
            "explain-format=1\n"
            "section=query\n"
            "algebra=P1 ⟕ P2\n"
            "projection=?friend,?sitcom\n"
            "distinct=false\n"
            "section=unf\n"
            "disjunct_count=1\n"
            "rule3_used=false\n"
            "best_match_applied=false\n"
            "section=pruning {T1} ⟕ {T2 T3}\n"
            "regime=per-supernode\n"
            "sn_order=SN1,SN2\n"
            "step=T2 ⋉ T1 over {?friend}  (master transfer)\n"
            "step=T2 ⋉ T3 over {?sitcom}\n"
            "step=T3 ⋉ T2 over {?sitcom}\n"
            "section=disjunct.1\n"
            "algebra={T1} ⟕ {T2 T3}\n"
            "supernode=SN1 patterns=T1 absolute_master\n"
            "supernode=SN2 patterns=T2,T3\n"
            "gosn.uni=SN1->SN2\n"
            "got.edge=T1-T2 {?friend}\n"
            "got.edge=T2-T3 {?sitcom}\n"
            "connected=true\n"
            "well_designed=true\n"
            "got_acyclic=true\n"
            "fully_reducible=true\n"
            "supernodes_acyclic=true\n"
            "supernodes_connected=true\n"
            "supernodes_reducible=true\n"
            "slaves_acyclic=true\n"
            "slaves_reducible=true\n"
            "abs_only_cycles=false\n"
            "one_equiv_class_per_master_slave_pair=true\n"
            "nb_required=false\n"
            "nullification=false\n"
            "stps=T1,T2,T3\n"
        )

    def test_rule3_report_prunes_each_disjunct(self):
        # A UNION on the slave side of an OPTIONAL: each union-normal-form
        # disjunct is pruned on its own, its branch against the master.
        store = TripleStore.from_ntriples(
            nt(("p1", "w", "d1"), ("p2", "w", "d2"), ("x1", "a", "p1"), ("x2", "a", "p9"), ("x3", "b", "p2"))
        )
        q = parse("SELECT ?p ?d ?x WHERE { ?p :w ?d . OPTIONAL { { ?x :a ?p } UNION { ?x :b ?p } } }")
        result = run_query(q, store)
        assert rows_of(result.relation.project(q.projection)) == [("p1", "d1", "x1"), ("p2", "d2", "x3")]
        structure = (
            "connected=true\n"
            "well_designed=true\n"
            "got_acyclic=true\n"
            "fully_reducible=true\n"
            "supernodes_acyclic=true\n"
            "supernodes_connected=true\n"
            "supernodes_reducible=true\n"
            "slaves_acyclic=true\n"
            "slaves_reducible=true\n"
            "abs_only_cycles=false\n"
            "one_equiv_class_per_master_slave_pair=true\n"
            "nb_required=false\n"
            "nullification=false\n"
        )
        assert render_explain(q, result) == (
            "explain-format=1\n"
            "section=query\n"
            "algebra=P1 ⟕ (P2 ∪ P3)\n"
            "projection=?p,?d,?x\n"
            "distinct=false\n"
            "section=unf\n"
            "disjunct_count=2\n"
            "rule3_used=true\n"
            "best_match_applied=true\n"
            "section=pruning {T1} ⟕ {T2}\n"
            "regime=per-supernode\n"
            "sn_order=SN1,SN2\n"
            "step=T2 ⋉ T1 over {?p}  (master transfer)\n"
            "section=pruning {T1} ⟕ {T3}\n"
            "regime=per-supernode\n"
            "sn_order=SN1,SN2\n"
            "step=T3 ⋉ T1 over {?p}  (master transfer)\n"
            "section=disjunct.1\n"
            "algebra={T1} ⟕ {T2}\n"
            "supernode=SN1 patterns=T1 absolute_master\n"
            "supernode=SN2 patterns=T2\n"
            "gosn.uni=SN1->SN2\n"
            "got.edge=T1-T2 {?p}\n"
            + structure
            + "stps=T1,T2\n"
            "section=disjunct.2\n"
            "algebra={T1} ⟕ {T3}\n"
            "supernode=SN1 patterns=T1 absolute_master\n"
            "supernode=SN2 patterns=T3\n"
            "gosn.uni=SN1->SN2\n"
            "got.edge=T1-T3 {?p}\n"
            + structure
            + "stps=T1,T3\n"
        )
