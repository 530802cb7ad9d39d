"""Pattern ordering, the pipelined join, nullification, subsumption,
best-match, and the run_query pipeline on the fixture data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitopt import bitmat
from bitopt.algebra import Query, Variable, coalesce_bgps
from bitopt.distinct import distinct_eval
from bitopt.executor import (
    MultiWayJoin,
    Relation,
    RunConfig,
    best_match,
    build_stps,
    plan_query,
    run_query,
    subsumes,
)
from bitopt.parser import parse
from bitopt.patmat import PatternMatrix
from bitopt.pruning import PruneContext, load_matrices, prune_triples
from bitopt.store import TripleStore
from bitopt.structure import (
    DisconnectedQueryError,
    build_gosn,
    build_got,
    classify,
)
from bitopt.terms import Iri, Literal
from workload import GenConfig, random_query, random_store_text

from conftest import (
    EX,
    EXCEPTION2_QUERY,
    FILTER_QUERY,
    Q1_TEXT,
    engine_relation,
    normalized,
    oracle_relation,
    rows_of,
)

# The unpruned engine in textual join order with nullification and
# best-match forced on: no pruning hides a join fault from the oracle.
TEXTUAL_ORDER = RunConfig(prune=False, unsafe_order=True, nullify="on", best_match="on")


class TestStps:
    def _stps(self, text, store):
        q = parse(text)
        node = coalesce_bgps(q.root)
        gosn = build_gosn(node)
        got = build_got(gosn)
        report = classify(gosn, got)
        matrices, _ = load_matrices(store, gosn, got, [])
        prune_triples(PruneContext(store, gosn, got, report, matrices))
        return build_stps(gosn, got, matrices), gosn, got

    def test_q1_order(self, seinfeld_store):
        stps, gosn, got = self._stps(Q1_TEXT, seinfeld_store)
        assert stps == [1, 2, 3]

    def test_single_pattern(self, seinfeld_store):
        stps, _, _ = self._stps("SELECT ?a WHERE { :Jerry :hasFriend ?a }", seinfeld_store)
        assert stps == [1]

    def test_every_prefix_connected(self, seinfeld_store):
        text = """
        SELECT ?a ?b ?c WHERE {
          :Jerry :hasFriend ?a . ?a :actedIn ?b . ?b :location ?c .
        }
        """
        stps, gosn, got = self._stps(text, seinfeld_store)
        for k in range(1, len(stps)):
            assert any(got.label(stps[k], prev) for prev in stps[:k])

    def test_masters_precede_slaves(self):
        cfg = GenConfig(p_optional=0.8, p_nested_optional=0.5)
        for seed in range(40):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            try:
                result = run_query(q, store)
            except DisconnectedQueryError:
                continue
            for trace in result.disjuncts:
                gosn = trace.gosn
                rank = {sid: i for i, sid in enumerate(gosn.topo_order())}
                positions = {idx: i for i, idx in enumerate(trace.stps)}
                for m, s in gosn.uni_edges:
                    m_max = max(positions[tp.index] for tp in gosn.supernodes[m].patterns)
                    s_min = min(positions[tp.index] for tp in gosn.supernodes[s].patterns)
                    assert m_max < s_min


class TestMultiWayJoin:
    def test_q1_default_is_res3(self, seinfeld_store):
        rel = engine_relation(parse(Q1_TEXT), seinfeld_store)
        assert rows_of(rel) == [("Julia", "Seinfeld"), ("Larry", "NULL")]

    def test_forced_order_unpruned_is_res1(self, seinfeld_store):
        cfg = RunConfig(prune=False, unsafe_order=True, nullify="off", best_match="off")
        rel = engine_relation(parse(Q1_TEXT), seinfeld_store, cfg)
        assert rows_of(rel) == [
            ("Julia", "CurbYourEnthusiasm"),
            ("Julia", "NewAdventuresOfOldChristine"),
            ("Julia", "Seinfeld"),
            ("Julia", "Veep"),
            ("Larry", "CurbYourEnthusiasm"),
        ]

    def test_nullification_gives_res2(self, seinfeld_store):
        cfg = RunConfig(prune=False, unsafe_order=True, nullify="on", best_match="off")
        rel = engine_relation(parse(Q1_TEXT), seinfeld_store, cfg)
        assert rows_of(rel) == [
            ("Julia", "NULL"),
            ("Julia", "NULL"),
            ("Julia", "NULL"),
            ("Julia", "Seinfeld"),
            ("Larry", "NULL"),
        ]

    def test_best_match_of_res2_is_res3(self, seinfeld_store):
        cfg = RunConfig(prune=False, unsafe_order=True, nullify="on", best_match="off")
        rel = engine_relation(parse(Q1_TEXT), seinfeld_store, cfg)
        assert rows_of(best_match(rel)) == [("Julia", "Seinfeld"), ("Larry", "NULL")]

    def test_empty_store(self):
        store = TripleStore.from_ntriples("")
        rel = engine_relation(parse("SELECT ?a WHERE { :Jerry :hasFriend ?a }"), store)
        assert rel.rows == []

    def test_join_memory_is_one_vmap_plus_stack(self, seinfeld_store):
        q = parse(Q1_TEXT)
        result = run_query(q, seinfeld_store)
        trace = result.disjuncts[0]
        from bitopt.algebra import node_patterns

        var_cells = sum(len(tp.vars()) for tp in node_patterns(q.root))
        assert trace.stats.max_vmap_cells <= var_cells
        assert trace.stats.max_depth <= len(trace.stps) + 1


class TestNullificationSemantics:
    def test_exception2_without_nullification_is_wrong(self, exception2_store):
        q = parse(EXCEPTION2_QUERY)
        off = engine_relation(q, exception2_store, RunConfig(nullify="off", best_match="off"))
        oracle = oracle_relation(q, exception2_store)
        assert normalized(off) != normalized(oracle)
        spurious = normalized(off) - normalized(oracle)
        assert spurious  # binds ?c against a row whose block did not match

    def test_exception2_with_nullification_matches(self, exception2_store):
        q = parse(EXCEPTION2_QUERY)
        auto = engine_relation(q, exception2_store)
        assert normalized(auto) == normalized(oracle_relation(q, exception2_store))
        assert rows_of(auto) == [("a1", "b1", "NULL"), ("a1", "b2", "c1")]

    def test_filter_failure_nullifies_slave_keeps_master(self, filter_store):
        q = parse(FILTER_QUERY)
        engine = engine_relation(q, filter_store)
        oracle = oracle_relation(q, filter_store)
        assert normalized(engine) == normalized(oracle)
        julia = [row for row in normalized(engine) if "Julia" in str(row[0])]
        # Julia acted in the Jerry-directed Seinfeld: the director is nulled
        # but the master bindings survive.
        assert any(row[1] is not None and row[2] is None for row in julia)

    def test_filter_on_master_drops_row(self, filter_store):
        # Newman is 70: the age conjunct removes the row entirely.
        q = parse(FILTER_QUERY)
        engine = engine_relation(q, filter_store)
        assert not any("Newman" in str(row[0]) for row in normalized(engine))


terms = st.one_of(
    st.none(),
    st.integers(0, 3).map(lambda i: Iri(f"{EX}e{i}")),
    st.integers(0, 2).map(Literal),
)
rows3 = st.tuples(terms, terms, terms)


class TestSubsumption:
    def test_fixture_example(self):
        julia = Iri(EX + "Julia")
        seinfeld = Iri(EX + "Seinfeld")
        assert subsumes((julia, None), (julia, seinfeld))
        assert not subsumes((julia, seinfeld), (julia, None))

    @given(rows3)
    def test_never_self_subsumes(self, row):
        assert not subsumes(row, row)

    @given(rows3)
    def test_all_null_subsumed_by_any_fuller_row(self, row):
        nulls = (None, None, None)
        if any(t is not None for t in row):
            assert subsumes(nulls, row)

    @given(st.lists(rows3, max_size=14))
    @settings(max_examples=200)
    def test_best_match_antichain_and_idempotent(self, rows):
        rel = Relation(("a", "b", "c"), rows)
        out = best_match(rel)
        for r1 in out.rows:
            for r2 in out.rows:
                assert not subsumes(r1, r2)
        assert set(best_match(out).rows) == set(out.rows)
        assert len(set(out.rows)) == len(out.rows)

    @given(st.lists(rows3, max_size=14))
    def test_best_match_keeps_maximal_rows(self, rows):
        rel = Relation(("a", "b", "c"), rows)
        kept = set(best_match(rel).rows)
        for row in rows:
            if not any(subsumes(row, other) for other in rows if other != row):
                assert row in kept

    @given(
        # Cells are terms, or join keys as the engine's rows hold them.
        st.sampled_from([[Iri(f"{EX}e{i}") for i in range(3)], [1, 2, -2]]).flatmap(
            lambda cells: st.integers(1, 5).flatmap(
                lambda width: st.lists(
                    st.tuples(*[st.sampled_from([None, *cells])] * width),
                    max_size=80,
                ).map(lambda rows: Relation(tuple(f"v{i}" for i in range(width)), rows))
            )
        )
    )
    @settings(max_examples=300)
    def test_best_match_is_the_brute_force_antichain(self, rel):
        unique = set(rel.rows)
        antichain = {r for r in unique if not any(subsumes(r, other) for other in unique)}
        out = best_match(rel).rows
        assert len(out) == len(antichain) and set(out) == antichain


class TestTermsOfKeptRows:
    """Rows stay join keys through best-match: ``Dictionary.term`` is called
    only for the cells of the rows it keeps."""

    @pytest.fixture()
    def term_calls(self, monkeypatch):
        from bitopt.store import Dictionary

        calls, original = [], Dictionary.term

        def spy(self, key):
            calls.append(key)
            return original(self, key)

        monkeypatch.setattr(Dictionary, "term", spy)
        return calls

    @staticmethod
    def _cells(relation) -> int:
        return sum(t is not None for row in relation.rows for t in row)

    def test_execute(self, seinfeld_store, term_calls):
        # Res2 of the paper's example: five rows, of which best-match keeps two.
        result = run_query(parse(Q1_TEXT), seinfeld_store, TEXTUAL_ORDER)
        assert term_calls  # built before run_query returns, as part of the query
        assert sum(t.stats.rows_emitted for t in result.disjuncts) == 5
        assert rows_of(result.relation) == [("Julia", "Seinfeld"), ("Larry", "NULL")]
        assert 0 < len(term_calls) <= self._cells(result.relation)

    def test_distinct(self, term_calls):
        # The covering subgraph joins each :p edge of :a with the product's
        # row for :a, so (a, y) comes twice and the dedup keeps one.
        store = TripleStore.from_ntriples(f"<{EX}a> <{EX}p> <{EX}x> .\n<{EX}x> <{EX}q> <{EX}y> .\n<{EX}a> <{EX}p> <{EX}z> .\n")
        outcome = distinct_eval(parse("SELECT DISTINCT ?s ?y WHERE { ?s :p ?o . OPTIONAL { ?o :q ?y } }"), store)
        assert outcome.path == "bmm-bgp-opt"
        assert rows_of(outcome.relation) == [("a", "y")]
        assert 0 < len(term_calls) <= self._cells(outcome.relation)

    @pytest.mark.parametrize(
        "text, force_naive",
        [
            ("SELECT DISTINCT ?s WHERE { ?s :p ?o }", True),
            ("SELECT DISTINCT ?s WHERE { { ?s :p ?o } UNION { ?s :q ?o } }", False),
        ],
        ids=["forced", "union"],
    )
    def test_distinct_naive(self, term_calls, monkeypatch, text, force_naive):
        # Ten join rows over ?s and ?o project to one row: only its cell
        # becomes a term. The base query runs under the module's
        # ``run_query`` name, so a wrapper put there sees it.
        from bitopt import distinct

        base_queries = []
        monkeypatch.setattr(distinct, "run_query", lambda *a, **kw: base_queries.append(a) or run_query(*a, **kw))
        store = TripleStore.from_ntriples(
            "".join(f"<{EX}a> <{EX}{p}> <{EX}x{i}> .\n" for p in "pq" for i in range(5))
        )
        outcome = distinct_eval(parse(text), store, force_naive=force_naive)
        assert outcome.path == "naive" and len(base_queries) == 1
        assert rows_of(outcome.relation) == [("a",)]
        assert outcome.result.best_match_applied is False
        assert 0 < len(term_calls) <= self._cells(outcome.relation)


class TestStandaloneNullification:
    """The join's row hook, ``_nullify_inconsistent``, on rows of join keys
    laid out by the join's slots."""

    @staticmethod
    def _nullify(store, vmap, status):
        from bitopt.executor import _nullify_inconsistent

        trace = plan_query(parse(EXCEPTION2_QUERY), store).disjuncts[0]
        join = MultiWayJoin(trace.gosn, trace.matrices, trace.stps, store, nulreqd=True)
        row = [None] * len(join.slot)
        for v, s in join.slot.items():
            row[s] = vmap[v]
        by_depth = [status[idx] for idx in trace.stps]
        _nullify_inconsistent(trace.gosn, join._sn_depths, join._sn_slots, row, by_depth)
        return {v: row[s] for v, s in join.slot.items()}

    @staticmethod
    def _vmap(store, a, b, c):
        # a is a subject only, b an object only, c both.
        d = store.dictionary
        return {
            Variable("a"): d.key(bitmat.S, d.subject_id(Iri(EX + a))),
            Variable("b"): d.key(bitmat.O, d.object_id(Iri(EX + b))),
            Variable("c"): d.key(bitmat.S, d.subject_id(Iri(EX + c))),
        }

    def test_nulls_mixed_supernode_and_closure(self, exception2_store):
        from bitopt.executor import BOUND, FAILED

        vmap = self._vmap(exception2_store, "a1", "b1", "c1")
        out = self._nullify(exception2_store, vmap, {1: BOUND, 2: BOUND, 3: FAILED})
        assert out[Variable("c")] is None
        assert out[Variable("a")] == vmap[Variable("a")] and out[Variable("b")] == vmap[Variable("b")]

    def test_consistent_row_unchanged(self, exception2_store):
        from bitopt.executor import BOUND

        vmap = self._vmap(exception2_store, "a1", "b2", "c1")
        assert self._nullify(exception2_store, vmap, {1: BOUND, 2: BOUND, 3: BOUND}) == vmap


class TestSkippableNullificationIsNoOp:
    def test_forced_nb_changes_nothing_when_not_required(self):
        cfg = GenConfig(p_optional=0.7, p_cycle=0.2)
        checked = 0
        for seed in range(80):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            try:
                normal = run_query(q, store)
            except DisconnectedQueryError:
                continue
            if len(normal.disjuncts) != 1 or normal.disjuncts[0].report.nb_required:
                continue
            if normal.best_match_applied:
                continue  # a runtime filter nullified something
            forced = run_query(q, store, RunConfig(nullify="on", best_match="on"))
            checked += 1
            assert sorted(map(str, normal.relation.rows)) == sorted(
                map(str, forced.relation.rows)
            ), f"seed {seed}"
        assert checked >= 25


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(p_optional=0.7),
            GenConfig(p_optional=0.7, p_cycle=0.3),
            GenConfig(p_optional=0.6, p_union=0.5),
            GenConfig(p_optional=0.6, p_filter=0.5),
            GenConfig(p_optional=0.6, p_union=0.35, p_filter=0.35, p_cycle=0.25),
        ],
        ids=["opt", "cyclic", "union", "filter", "mixed"],
    )
    def test_randomized_agreement(self, cfg):
        ran = 0
        for seed in range(60):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            try:
                engines = [engine_relation(q, store, config) for config in (RunConfig(), TEXTUAL_ORDER)]
            except DisconnectedQueryError:
                continue
            ran += 1
            expected = normalized(oracle_relation(q, store))
            assert [normalized(e) for e in engines] == [expected, expected], f"seed {seed}"
        assert ran >= 40

    def test_slave_union_agreement(self):
        # Rule-3 shapes, root ⟕ (A ∪ B), some under a FILTER: each disjunct
        # loads its branch masked by the master, and minimum union merges them.
        cfg = GenConfig(p_optional=0.6, p_slave_union=0.6, p_filter=0.3)
        rule3 = 0
        for seed in range(60):
            rng = random.Random(seed)
            store = TripleStore.from_ntriples(random_store_text(rng, cfg))
            q = random_query(rng, cfg)
            results = [run_query(q, store, config) for config in (RunConfig(), TEXTUAL_ORDER)]
            rule3 += results[0].rule3_used
            expected = normalized(oracle_relation(q, store))
            assert [normalized(r.relation.project(q.projection)) for r in results] == [expected, expected], f"seed {seed}"
        assert rule3 >= 20


class TestReusedIdRange:
    """Ids above n_so name a subject-only term on the subject dimension and
    an object-only term on the object dimension. Here s1 and o1 share id
    n_so+1, so a join that passes a variable between the two dimensions
    must not take one for the other, with or without pruning."""

    NT = f"""\
<{EX}b> <{EX}p> <{EX}o1> .
<{EX}s1> <{EX}q> <{EX}z> .
<{EX}a> <{EX}p> <{EX}b> .
<{EX}b> <{EX}q> <{EX}c> .
"""

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?x ?y ?z WHERE { ?x :p ?y . ?y :q ?z . }",
            "SELECT ?x ?y ?z WHERE { ?y :q ?z . ?x :p ?y . }",
        ],
        ids=["object-then-subject", "subject-then-object"],
    )
    @pytest.mark.parametrize("config", [RunConfig(), TEXTUAL_ORDER], ids=["default", "textual"])
    def test_join_keeps_subject_only_and_object_only_apart(self, text, config):
        store = TripleStore.from_ntriples(self.NT)
        d = store.dictionary
        assert d.subject_id(Iri(EX + "s1")) == d.object_id(Iri(EX + "o1")) == d.n_so + 1
        q = parse(text)
        engine = engine_relation(q, store, config)
        assert rows_of(engine) == [("a", "b", "c")]
        assert normalized(engine) == normalized(oracle_relation(q, store))


class TestJoinOrientation:
    """The join turns a matrix whose column variable an earlier matrix binds,
    so no probe binds the column alone, and it leaves every matrix it is
    given as it was."""

    CONFIGS = [RunConfig(), TEXTUAL_ORDER]

    def test_no_column_only_probe_and_loaded_matrices_unchanged(self, monkeypatch):
        loaded: dict[int, tuple] = {}  # id of a matrix given to a join -> (it, row_var, col_var)
        column_only: list[str] = []
        turned_probes = 0
        original_init = MultiWayJoin.__init__
        original_bindings = PatternMatrix.bindings

        def init(join, gosn, matrices, *args, **kwargs):
            for pm in matrices.values():
                loaded[id(pm)] = (pm, pm.row_var, pm.col_var)
            original_init(join, gosn, matrices, *args, **kwargs)

        def bindings(pm, r, c):
            nonlocal turned_probes
            if pm.row_var is not None and pm.col_var is not None and r is None and c is not None:
                column_only.append(pm.label)
            turned_probes += id(pm) not in loaded
            return original_bindings(pm, r, c)

        monkeypatch.setattr(MultiWayJoin, "__init__", init)
        monkeypatch.setattr(PatternMatrix, "bindings", bindings)

        def check():
            for pm, row_var, col_var in loaded.values():
                assert (pm.row_var, pm.col_var) == (row_var, col_var), pm.label

        cfg = GenConfig(p_optional=0.6, p_union=0.3, p_filter=0.3, p_cycle=0.25)
        dcfg = GenConfig(p_optional=0.5, acyclic_only=True, p_peer_join=0.0)
        ran = 0
        for seed in range(60):
            for gen, distinct in ((cfg, False), (dcfg, True)):
                rng = random.Random(seed)
                store = TripleStore.from_ntriples(random_store_text(rng, gen))
                q = random_query(rng, gen)
                if distinct:
                    pool = sorted(q.projection, key=lambda v: v.name)
                    picked = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                    q = Query(tuple(sorted(picked, key=lambda v: v.name)), True, q.root)
                for config in self.CONFIGS:
                    loaded.clear()
                    try:
                        distinct_eval(q, store, config) if distinct else run_query(q, store, config)
                    except DisconnectedQueryError:
                        continue
                    ran += 1
                    check()
        assert ran >= 160
        assert not column_only, column_only
        assert turned_probes > 0


class TestPlanOnce:
    def test_union_free_query_is_analyzed_once(self, filter_store, monkeypatch):
        import bitopt.executor

        calls = []
        real = bitopt.executor.build_gosn

        def counted(node):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(bitopt.executor, "build_gosn", counted)
        for text in (Q1_TEXT, FILTER_QUERY):
            calls.clear()
            run_query(parse(text), filter_store)
            assert len(calls) == 1, text

    def test_each_disjunct_is_analyzed_once(self, monkeypatch):
        import bitopt.executor

        calls = []
        real = bitopt.executor.build_gosn

        def counted(node):
            calls.append(node)
            return real(node)

        monkeypatch.setattr(bitopt.executor, "build_gosn", counted)
        store = TripleStore.from_ntriples(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        text = "SELECT ?x ?y ?z WHERE { ?x :p ?y . OPTIONAL { { ?y :q ?z } UNION { ?y :r ?z } } { ?x :s ?w } UNION { ?x :t ?w } }"
        result = run_query(parse(text), store)
        assert len(result.disjuncts) == 4
        assert len(calls) == 4


class TestUnionBranchesLoadMasked:
    """Each union-normal-form disjunct loads its own matrices, masters
    first, so a UNION branch and a pattern beside a UNION are read masked
    by the patterns already loaded in their disjunct."""

    @staticmethod
    def outer_reads(monkeypatch) -> list[tuple[str, int]]:
        """(kind, predicate id) of each ``TripleStore.bitmat`` call made from
        outside the store."""
        reads: list[tuple[str, int]] = []
        depth = [0]
        real = TripleStore.bitmat

        def spy(store, kind, pid, keep=None):
            if not depth[0]:
                reads.append((kind, pid))
            depth[0] += 1
            try:
                return real(store, kind, pid, keep)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(TripleStore, "bitmat", spy)
        return reads

    @staticmethod
    def store(*triples) -> TripleStore:
        return TripleStore.from_ntriples("".join(f"<{EX}{s}> <{EX}{p}> <{EX}{o}> .\n" for s, p, o in triples))

    def test_slave_union_branches_read_masked(self, monkeypatch):
        store = self.store(
            ("p1", "w", "d1"), ("p2", "w", "d2"), ("x1", "a", "p1"), ("x2", "a", "p9"),
            ("x3", "b", "p2"), ("x4", "b", "p8"),
        )
        reads = self.outer_reads(monkeypatch)
        q = parse("SELECT ?p ?d ?x WHERE { ?p :w ?d . OPTIONAL { { ?x :a ?p } UNION { ?x :b ?p } } }")
        result = run_query(q, store)
        assert rows_of(result.relation.project(q.projection)) == [("p1", "d1", "x1"), ("p2", "d2", "x3")]
        for name in ("a", "b"):
            kinds = [kind for kind, pid in reads if pid == store.dictionary.predicate_id(Iri(EX + name))]
            assert kinds and all(kind.endswith("_MASKED") for kind in kinds), (name, kinds)

    def test_pattern_beside_union_read_masked_in_each_disjunct(self, monkeypatch):
        store = self.store(
            ("x1", "w", "d"), ("x2", "m", "d"), ("x1", "age", "a1"), ("x2", "age", "a2"), ("x3", "age", "a3"),
        )
        reads = self.outer_reads(monkeypatch)
        q = parse("SELECT ?x ?a WHERE { { ?x :w :d } UNION { ?x :m :d } ?x :age ?a . }")
        result = run_query(q, store)
        assert rows_of(result.relation.project(q.projection)) == [("x1", "a1"), ("x2", "a2")]
        age = store.dictionary.predicate_id(Iri(EX + "age"))
        assert [kind for kind, pid in reads if pid == age] == ["SO_MASKED", "SO_MASKED"]
