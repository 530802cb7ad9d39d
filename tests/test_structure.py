"""Supernode graph construction, pattern-graph labeling, equivalence-class
acyclicity, and the nullification/best-match classifier."""

import itertools
import random

import pytest

from bitopt.algebra import Bgp, TriplePattern, Variable, coalesce_bgps
from bitopt.parser import parse
from bitopt.rewriter import to_unf
from bitopt.structure import (
    Got,
    build_gosn,
    build_got,
    check_property_one,
    classify,
    equivalence_classes,
    is_acyclic,
)
from bitopt.terms import Iri

from conftest import EXCEPTION2_QUERY, Q1_TEXT


def V(name):
    return Variable(name)


def P(name):
    return Iri("urn:p:" + name)


def got_from_edges(n, labeled_edges):
    """Build a bare pattern graph for acyclicity tests: nodes 1..n and
    explicit edge labels."""
    nodes = tuple(TriplePattern(i, V(f"s{i}"), P("x"), V(f"o{i}")) for i in range(1, n + 1))
    edges = {
        frozenset((i, j)): frozenset(V(x) for x in label)
        for (i, j, label) in labeled_edges
    }
    return Got(nodes, edges)


def check_property_two(gosn):
    """No slave supernode has more than one incoming unidirectional edge."""
    incoming: dict[int, int] = {}
    for m, s in gosn.uni_edges:
        incoming[s] = incoming.get(s, 0) + 1
    return all(count <= 1 for count in incoming.values())


class TestGosn:
    def test_q1(self):
        q = parse(Q1_TEXT)
        gosn = build_gosn(coalesce_bgps(q.root))
        assert len(gosn.supernodes) == 2
        abs_sn = gosn.supernodes[gosn.abs_id]
        assert [tp.index for tp in abs_sn.patterns] == [1]
        assert gosn.uni_edges == {(gosn.abs_id, 2)}
        assert check_property_two(gosn)

    def test_nested_example_coalesces_absolute_masters(self):
        text = """
        SELECT ?a WHERE {
          ?a :p1 ?b . OPTIONAL { ?b :p2 ?c . }
          { ?a :p3 ?d . OPTIONAL { ?d :p4 ?e . } }
          OPTIONAL { ?a :p5 ?f . OPTIONAL { ?f :p6 ?g . } }
        }
        """
        q = parse(text)
        gosn = build_gosn(coalesce_bgps(q.root))
        # Pa and Pc were both absolute masters; after coalescing one supernode
        # holds T1 and T3 and no bidirectional edge remains.
        abs_sn = gosn.supernodes[gosn.abs_id]
        assert [tp.index for tp in abs_sn.patterns] == [1, 3]
        assert gosn.bi_edges == set()
        direct = {
            tuple(tp.index for tp in gosn.supernodes[s].patterns)
            for m, s in gosn.uni_edges
            if m == gosn.abs_id
        }
        assert direct == {(2,), (4,), (5,)}
        # The nested optional hangs off its own master, not the coalesced one.
        inner = [s for m, s in gosn.uni_edges if m != gosn.abs_id]
        assert len(inner) == 1
        assert [tp.index for tp in gosn.supernodes[inner[0]].patterns] == [6]

    def test_single_bgp(self):
        q = parse("SELECT ?x WHERE { ?x :p ?y . ?y :q ?z }")
        gosn = build_gosn(coalesce_bgps(q.root))
        assert len(gosn.supernodes) == 1
        assert gosn.uni_edges == set() and gosn.bi_edges == set()

    def test_masters_transitive(self):
        text = """
        SELECT ?a WHERE {
          ?a :p ?b .
          OPTIONAL { ?b :q ?c . OPTIONAL { ?c :r ?d . } }
        }
        """
        q = parse(text)
        gosn = build_gosn(coalesce_bgps(q.root))
        chain = gosn.topo_order()
        assert chain[0] == gosn.abs_id
        deepest = chain[-1]
        assert gosn.masters[deepest] == frozenset(chain[:-1])


class TestGot:
    def test_q1_edges(self):
        q = parse(Q1_TEXT)
        gosn = build_gosn(coalesce_bgps(q.root))
        got = build_got(gosn)
        assert got.label(1, 2) == frozenset({V("friend")})
        assert got.label(2, 3) == frozenset({V("sitcom")})
        assert got.label(1, 3) == frozenset()

    def test_cartesian_pattern_isolated(self):
        text = """
        SELECT ?friend ?name ?actor WHERE {
          :Jerry :hasFriend ?friend .
          ?friend :name ?name .
          OPTIONAL { ?actor :livesIn :LA . }
        }
        """
        q = parse(text)
        gosn = build_gosn(coalesce_bgps(q.root))
        got = build_got(gosn)
        assert not got.connected()

    def test_two_shared_variables_one_edge(self):
        q = parse("SELECT ?a ?b WHERE { ?a :p ?b . ?b :q ?a }")
        got = build_got(build_gosn(coalesce_bgps(q.root)))
        assert got.label(1, 2) == frozenset({V("a"), V("b")})


    def test_edges_match_every_allowed_pair(self):
        # The all-pairs definition: every pair of patterns in one supernode or
        # in a directly connected master-slave pair, labeled when it shares.
        from workload import GenConfig, random_query

        cfg = GenConfig(p_optional=0.6, p_union=0.3, p_slave_union=0.3)
        for seed in range(300):
            for disjunct in to_unf(random_query(random.Random(seed), cfg).root).disjuncts:
                gosn = build_gosn(coalesce_bgps(disjunct))
                sn = {tp.index: sid for sid, s in gosn.supernodes.items() for tp in s.patterns}
                pats = [tp for s in gosn.supernodes.values() for tp in s.patterns]
                want = {
                    frozenset((a.index, b.index)): a.vars() & b.vars()
                    for a, b in itertools.combinations(pats, 2)
                    if (sn[a.index] == sn[b.index] or (sn[a.index], sn[b.index]) in gosn.uni_edges
                        or (sn[b.index], sn[a.index]) in gosn.uni_edges)
                    and a.vars() & b.vars()
                }
                assert build_got(gosn).edges == want, seed

    def test_chain_costs_its_edges_not_their_square(self, monkeypatch):
        # A chain of 200 patterns: build_got reads each pattern's variables
        # once, and classifying it never scans the edge table per node.
        n = 200
        q = parse("SELECT ?v0 WHERE { " + " ".join(f"?v{i} :p ?v{i + 1} ." for i in range(n)) + " }")
        gosn = build_gosn(coalesce_bgps(q.root))
        calls = {"vars": 0, "scans": 0}
        original = TriplePattern.vars

        def counted(tp):
            calls["vars"] += 1
            return original(tp)

        monkeypatch.setattr(TriplePattern, "vars", counted)
        got = build_got(gosn)
        assert calls["vars"] == n and len(got.edges) == n - 1

        class ScannedEdges(dict):
            def items(self):
                calls["scans"] += 1
                return super().items()

        got.edges = ScannedEdges(got.edges)
        assert classify(gosn, got).got_acyclic
        assert calls["scans"] <= len(gosn.supernodes)  # one subgraph per supernode


class TestEquivalenceClasses:
    def test_subset_closure_example(self):
        labels = [frozenset({V("a")}), frozenset({V("a"), V("b")}), frozenset({V("c")})]
        classes = equivalence_classes(labels)
        assert sorted(len(c) for c in classes) == [1, 2]

    def test_chain_closure(self):
        labels = [
            frozenset({V("a")}),
            frozenset({V("a"), V("b")}),
            frozenset({V("b")}),
        ]
        assert len(equivalence_classes(labels)) == 1


class TestAcyclicity:
    def test_q1_acyclic(self):
        q = parse(Q1_TEXT)
        got = build_got(build_gosn(coalesce_bgps(q.root)))
        acyclic, order = is_acyclic(got)
        assert acyclic and len(order) == 3

    def test_corner_case_with_predicate_variable_pattern(self):
        a, b, c = V("a"), V("b"), V("c")
        bgp = Bgp(
            (
                TriplePattern(1, a, P("1"), b),
                TriplePattern(2, b, P("2"), c),
                TriplePattern(3, c, P("3"), a),
                TriplePattern(4, a, b, c),
            )
        )
        got = build_got(build_gosn(bgp))
        assert is_acyclic(got)[0] is True

    def test_plain_triangle_cyclic(self):
        a, b, c = V("a"), V("b"), V("c")
        bgp = Bgp(
            (
                TriplePattern(1, a, P("1"), b),
                TriplePattern(2, b, P("2"), c),
                TriplePattern(3, c, P("3"), a),
            )
        )
        got = build_got(build_gosn(bgp))
        assert is_acyclic(got)[0] is False

    def test_labeled_triangle_cyclic(self):
        got = got_from_edges(3, [(1, 2, ["x"]), (2, 3, ["y"]), (1, 3, ["z"])])
        assert is_acyclic(got)[0] is False


def exhaustive_acyclic(got: Got) -> bool:
    """Reference leaf elimination trying every removal order."""
    from bitopt.structure import count_node_classes

    def solve(alive: frozenset) -> bool:
        if not alive:
            return True
        leaves = [i for i in alive if count_node_classes(got, i, set(alive)) <= 1]
        if not leaves:
            return False
        return any(solve(alive - {leaf}) for leaf in leaves)

    return solve(frozenset(tp.index for tp in got.nodes))


class TestAcyclicityAgainstExhaustive:
    def test_all_small_graphs(self):
        labels = ["x", "y", "z"]
        for n in (2, 3, 4):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for assignment in itertools.product([None, *labels], repeat=len(pairs)):
                edges = [
                    (i, j, [lab])
                    for (i, j), lab in zip(pairs, assignment)
                    if lab is not None
                ]
                got = got_from_edges(n, edges)
                assert is_acyclic(got)[0] == exhaustive_acyclic(got)

    def test_sampled_five_node_graphs(self):
        rng = random.Random(99)
        labels = ["x", "y", "z", "w"]
        pairs = list(itertools.combinations(range(1, 6), 2))
        for _ in range(400):
            edges = [
                (i, j, [rng.choice(labels)]) for i, j in pairs if rng.random() < 0.45
            ]
            got = got_from_edges(5, edges)
            assert is_acyclic(got)[0] == exhaustive_acyclic(got)

    def test_sampled_six_node_single_variable_labels(self):
        rng = random.Random(123)
        labels = ["x", "y", "z", "w", "v"]
        pairs = list(itertools.combinations(range(1, 7), 2))
        for _ in range(250):
            edges = [
                (i, j, [rng.choice(labels)]) for i, j in pairs if rng.random() < 0.35
            ]
            got = got_from_edges(6, edges)
            assert is_acyclic(got)[0] == exhaustive_acyclic(got)

    def test_multi_variable_labels_sampled(self):
        rng = random.Random(7)
        vocab = ["x", "y", "z"]
        pairs = list(itertools.combinations(range(1, 5), 2))
        for _ in range(300):
            edges = []
            for i, j in pairs:
                if rng.random() < 0.5:
                    k = rng.randint(1, 2)
                    edges.append((i, j, rng.sample(vocab, k)))
            got = got_from_edges(4, edges)
            assert is_acyclic(got)[0] == exhaustive_acyclic(got)


class TestClassify:
    def report_for(self, text):
        q = parse(text)
        node = coalesce_bgps(q.root)
        gosn = build_gosn(node)
        got = build_got(gosn)
        return classify(gosn, got)

    def test_q1_no_nullification(self):
        report = self.report_for(Q1_TEXT)
        assert report.got_acyclic and not report.nb_required

    def test_exception2_requires_nullification(self):
        report = self.report_for(EXCEPTION2_QUERY)
        assert not report.got_acyclic
        assert report.slaves_acyclic
        assert not report.one_equiv_class_per_master_slave_pair
        assert report.nb_required

    def test_pure_bgp_triangle_never_needs_best_match(self):
        report = self.report_for("SELECT ?a ?b ?c WHERE { ?a :p ?b . ?b :q ?c . ?c :r ?a }")
        assert not report.got_acyclic
        assert not report.nb_required  # no optional blocks to subsume

    def test_cycle_confined_to_absolute_master(self):
        text = """
        SELECT ?a ?b ?c ?d WHERE {
          ?a :p ?b . ?b :q ?c . ?c :r ?a .
          OPTIONAL { ?a :s ?d . }
        }
        """
        report = self.report_for(text)
        assert not report.got_acyclic
        assert report.abs_only_cycles
        assert not report.nb_required

    def test_second_equivalence_class_flips_requirement(self):
        base = """
        SELECT ?a ?b ?c WHERE {
          ?a :p ?b .
          OPTIONAL { ?a :q ?c . }
        }
        """
        assert not self.report_for(base).nb_required
        assert self.report_for(EXCEPTION2_QUERY).nb_required

    def test_property_one_on_fixtures(self):
        for text in (Q1_TEXT, EXCEPTION2_QUERY):
            q = parse(text)
            node = coalesce_bgps(q.root)
            gosn = build_gosn(node)
            got = build_got(gosn)
            assert check_property_one(gosn, got)

    def test_properties_on_random_queries(self):
        from workload import GenConfig, random_query

        cfg = GenConfig(p_optional=0.8, p_nested_optional=0.4, p_peer_join=0.3)
        for seed in range(60):
            q = random_query(random.Random(seed), cfg)
            gosn = build_gosn(coalesce_bgps(q.root))
            got = build_got(gosn)
            assert check_property_two(gosn)
            if got.connected():
                assert check_property_one(gosn, got)
