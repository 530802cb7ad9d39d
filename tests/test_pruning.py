"""Supernode ordering, pass construction, semi-join execution, and the
minimality/soundness guarantees of pruning."""

import random

import pytest

from bitopt.algebra import coalesce_bgps, node_patterns
from bitopt.executor import run_query
from bitopt.oracle import oracle_eval
from bitopt.parser import parse
from bitopt.pruning import (
    GREEDY_ALL,
    PER_SUPERNODE,
    PruneContext,
    load_matrices,
    pick_regime,
    prune_triples,
    semi_join,
)
from bitopt.store import TripleStore
from bitopt.structure import build_gosn, build_got, classify
from bitopt.terms import Iri
from workload import GenConfig, random_query, random_store_text

from conftest import EX, EXCEPTION2_QUERY, Q1_TEXT, SEINFELD_NT, cell_bindings, local


def prepare(text, store, prune=True):
    q = parse(text)
    node = coalesce_bgps(q.root)
    gosn = build_gosn(node)
    got = build_got(gosn)
    report = classify(gosn, got)
    matrices, _ = load_matrices(store, gosn, got, [], prune=prune)
    ctx = PruneContext(store, gosn, got, report, matrices)
    return q, ctx


class TestOrdering:
    def test_masters_before_slaves(self, seinfeld_store):
        _, ctx = prepare(Q1_TEXT, seinfeld_store)
        order = ctx.gosn.topo_order()
        assert order[0] == ctx.gosn.abs_id
        assert order == sorted(order, key=lambda sid: len(ctx.gosn.masters[sid]))

    def test_chain_order(self):
        store = TripleStore.from_ntriples(SEINFELD_NT)
        text = """
        SELECT ?a WHERE {
          :Jerry :hasFriend ?a .
          OPTIONAL { ?a :actedIn ?b . OPTIONAL { ?b :location ?c . } }
        }
        """
        _, ctx = prepare(text, store)
        order = ctx.gosn.topo_order()
        assert len(order) == 3
        for earlier, later in zip(order, order[1:]):
            assert earlier in ctx.gosn.masters[later] or not ctx.gosn.masters[later]


class TestScheduleShapes:
    def test_q1_schedule(self, seinfeld_store):
        # Without active pruning the static counts are |T1|=2, |T2|=5, |T3|=1.
        q, ctx = prepare(Q1_TEXT, seinfeld_store, prune=False)
        stats = {idx: pm.count for idx, pm in ctx.matrices.items()}
        assert stats == {1: 2, 2: 5, 3: 1}
        schedule = prune_triples(ctx)
        assert schedule.regime == PER_SUPERNODE
        (sid_abs, bu_abs, td_abs), (sid2, bu, td) = schedule.per_sn
        assert bu_abs == [] and td_abs == []
        described = [step.describe() for step in bu]
        # Master transfer lands before the intra-supernode semi-join.
        assert described[0].startswith("T2 ⋉ T1")
        assert "master transfer" in described[0]
        assert described[1].startswith("T2 ⋉ T3")
        assert [step.describe() for step in td] == ["T3 ⋉ T2 over {?sitcom}"]

    def test_td_is_reverse_minus_transfers(self):
        rng = random.Random(3)
        cfg = GenConfig(p_optional=0.8, acyclic_only=True)
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        for seed in range(40):
            q = random_query(random.Random(seed), cfg)
            node = coalesce_bgps(q.root)
            gosn = build_gosn(node)
            got = build_got(gosn)
            report = classify(gosn, got)
            matrices, _ = load_matrices(store, gosn, got, [])
            schedule = prune_triples(PruneContext(store, gosn, got, report, matrices))
            for _, bu, td in schedule.per_sn:
                flipped = [
                    (s.source, s.target, s.join_vars) for s in reversed(bu) if not s.transfer
                ]
                assert [(s.target, s.source, s.join_vars) for s in td] == flipped

    def test_exception2_uses_global_greedy(self, exception2_store):
        _, ctx = prepare(EXCEPTION2_QUERY, exception2_store)
        assert pick_regime(ctx.report) == GREEDY_ALL
        schedule = prune_triples(ctx)
        assert schedule.regime == GREEDY_ALL
        assert schedule.per_sn == []
        assert schedule.greedy  # semi-joins still happen, once per edge
        seen = {(s.target, s.source) for s in schedule.greedy}
        assert len(seen) == len(schedule.greedy)

    def test_single_pattern_slave_gets_transfer_only(self, seinfeld_store):
        text = "SELECT ?a ?b WHERE { :Jerry :hasFriend ?a . OPTIONAL { ?a :actedIn ?b . } }"
        _, ctx = prepare(text, seinfeld_store, prune=False)
        schedule = prune_triples(ctx)
        _, (sid, bu, td) = schedule.per_sn[0], schedule.per_sn[1]
        assert [s.describe() for s in bu] == ["T2 ⋉ T1 over {?a}  (master transfer)"]
        assert td == []


class TestSemiJoinExecution:
    def test_friend_transfer_keeps_both(self, seinfeld_store):
        _, ctx = prepare(Q1_TEXT, seinfeld_store, prune=False)
        t2, t1 = ctx.matrices[2], ctx.matrices[1]
        semi_join(t2, t1, frozenset(t1.vars()) & frozenset(t2.vars()), seinfeld_store.dictionary)
        subjects = {
            local(b[t2.pattern.s])
            for b in cell_bindings(t2, seinfeld_store.dictionary)
        }
        assert subjects == {"Julia", "Larry"}

    def test_sitcom_semijoin_prunes_to_seinfeld(self, seinfeld_store):
        _, ctx = prepare(Q1_TEXT, seinfeld_store, prune=False)
        t2, t3 = ctx.matrices[2], ctx.matrices[3]
        shared = frozenset(t2.vars()) & frozenset(t3.vars())
        semi_join(t2, t3, shared, seinfeld_store.dictionary)
        rows = [
            tuple(sorted((str(v), local(t)) for v, t in b.items()))
            for b in cell_bindings(t2, seinfeld_store.dictionary)
        ]
        assert rows == [(("?friend", "Julia"), ("?sitcom", "Seinfeld"))]

    def test_self_semijoin_is_identity(self, seinfeld_store):
        _, ctx = prepare(Q1_TEXT, seinfeld_store, prune=False)
        t2 = ctx.matrices[2]
        before = t2.count
        semi_join(t2, t2, frozenset(t2.vars()), seinfeld_store.dictionary)
        assert t2.count == before


class TestPruneTriples:
    def test_q1_minimal(self, seinfeld_store):
        q, ctx = prepare(Q1_TEXT, seinfeld_store)
        prune_triples(ctx)
        assert ctx.matrices[1].count == 2  # masters keep both friends
        t2_rows = cell_bindings(ctx.matrices[2], seinfeld_store.dictionary)
        assert len(t2_rows) == 1 and local(list(t2_rows[0].values())[0]) in ("Julia", "Seinfeld")

    def test_empty_match_is_not_an_error(self, seinfeld_store):
        text = "SELECT ?a ?b WHERE { ?a :location ?b . ?b :actedIn ?c . }"
        q, ctx = prepare(text, seinfeld_store)
        prune_triples(ctx)
        assert all(pm.count == 0 for pm in ctx.matrices.values())

    def test_master_constraint_transfer(self):
        rng = random.Random(21)
        cfg = GenConfig(p_optional=0.9, acyclic_only=True)
        for seed in range(30):
            store = TripleStore.from_ntriples(random_store_text(random.Random(seed), cfg))
            q = random_query(random.Random(1000 + seed), cfg)
            node = coalesce_bgps(q.root)
            gosn = build_gosn(node)
            got = build_got(gosn)
            report = classify(gosn, got)
            matrices, _ = load_matrices(store, gosn, got, [])
            ctx = PruneContext(store, gosn, got, report, matrices)
            prune_triples(ctx)
            for m, s in gosn.uni_edges:
                for mtp in gosn.supernodes[m].patterns:
                    for stp in gosn.supernodes[s].patterns:
                        shared = got.label(mtp.index, stp.index)
                        for var in shared:
                            slave_vals = set(
                                matrices[stp.index].fold_var(var).positions()
                            )
                            master_pm = matrices[mtp.index]
                            master_beta = master_pm.fold_var(var)
                            master_vals = set(master_beta.positions())
                            # Compare in a shared coordinate space.
                            from bitopt.bitmat import intersect_arrays

                            overlap = intersect_arrays(
                                matrices[stp.index].fold_var(var), master_beta, store.dictionary.n_so
                            )
                            assert set(overlap.positions()) == slave_vals or not slave_vals

    def test_soundness_and_minimality_against_oracle(self):
        cfg = GenConfig(p_optional=0.6, acyclic_only=True)
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            try:
                result = run_query(q, store)
            except Exception:
                continue
            trace = result.disjuncts[0]
            if not (
                trace.report.got_acyclic
                and trace.report.fully_reducible
                and trace.report.supernodes_acyclic
                and trace.report.supernodes_connected
                and trace.report.supernodes_reducible
            ):
                continue
            checked += 1
            oracle_rows = oracle_eval(q, store.term_triples()).rows
            for tp in node_patterns(q.root):
                pm = trace.matrices[tp.index]
                for binding in cell_bindings(pm, store.dictionary):
                    assert any(
                        all(row.get(v) == t for v, t in binding.items())
                        for row in oracle_rows
                    ), f"seed {seed}: stranded triple in {tp.label}"
        assert checked >= 30
