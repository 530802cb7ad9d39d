"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to watch the lines as the
criteria execute.
"""

import itertools
import random
import time

import pytest

from bitopt import bitmat
from bitopt.algebra import Bgp, Query, TriplePattern, Variable, node_patterns, serialize
from bitopt.bitmat import BitArray, bmm, fold, positions, unfold
from bitopt.cli import EXIT_OK, main
from bitopt.distinct import distinct_eval
from bitopt.executor import Relation, RunConfig, best_match, run_query
from bitopt.oracle import oracle_eval
from bitopt.parser import parse
from bitopt.rewriter import push_filters, to_unf
from bitopt.store import TripleStore
from bitopt.structure import DisconnectedQueryError, is_acyclic
from workload import GenConfig, random_query, random_store_text

from conftest import (
    EX,
    EXCEPTION2_NT,
    EXCEPTION2_QUERY,
    MOVIE_QUERY,
    MOVIES_NT,
    Q1_TEXT,
    Q2_TEXT,
    SEINFELD_NT,
    cell_bindings,
    engine_relation,
    normalized,
    oracle_relation,
    rows_of,
)
from test_bitmat import dense, encode, random_bitmat, render, stored_row
from test_structure import exhaustive_acyclic, got_from_edges

import numpy as np


def report(number: int, message: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS - {message}")


def _res_rows(store, text, config=None):
    return rows_of(engine_relation(parse(text), store, config))


def test_criterion_1_golden_fixture(tmp_path, capsys):
    started = time.perf_counter()
    data = tmp_path / "fixture.nt"
    data.write_text(SEINFELD_NT)
    store_dir = tmp_path / "store"
    assert main(["load", str(store_dir), str(data)]) == EXIT_OK
    qpath = tmp_path / "q1.rq"
    qpath.write_text(Q1_TEXT)
    assert main(["query", str(store_dir), str(qpath)]) == EXIT_OK
    out = capsys.readouterr().out
    body = set(out.splitlines()[-2:])
    assert body == {f"<{EX}Julia>\t<{EX}Seinfeld>", f"<{EX}Larry>\t"}

    store = TripleStore.from_ntriples(SEINFELD_NT)
    res1_cfg = RunConfig(prune=False, unsafe_order=True, nullify="off", best_match="off")
    res1 = _res_rows(store, Q1_TEXT, res1_cfg)
    assert res1 == [
        ("Julia", "CurbYourEnthusiasm"),
        ("Julia", "NewAdventuresOfOldChristine"),
        ("Julia", "Seinfeld"),
        ("Julia", "Veep"),
        ("Larry", "CurbYourEnthusiasm"),
    ]
    res2_cfg = RunConfig(prune=False, unsafe_order=True, nullify="on", best_match="off")
    res2_rel = engine_relation(parse(Q1_TEXT), store, res2_cfg)
    res2 = rows_of(res2_rel)
    assert res2 == [
        ("Julia", "NULL"),
        ("Julia", "NULL"),
        ("Julia", "NULL"),
        ("Julia", "Seinfeld"),
        ("Larry", "NULL"),
    ]
    res3 = rows_of(best_match(res2_rel))
    assert res3 == [("Julia", "Seinfeld"), ("Larry", "NULL")]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture run took {elapsed:.2f}s"
    report(1, f"Res1/Res2/Res3 reproduced exactly in {elapsed * 1000:.0f}ms")


def test_criterion_2_compression():
    assert render(encode("0010010000")) == "3 6"
    rng = random.Random(2024)
    failures = 0
    for _ in range(10_000):
        width = rng.randint(1, 256)
        bits = tuple(rng.randint(0, 1) for _ in range(width))
        if positions(stored_row(bits)[1]) != [i for i, b in enumerate(bits, start=1) if b]:
            failures += 1
    assert failures == 0
    report(2, "worked example exact; 10^4 random round trips, zero failures")


def _corpus(total, cfg_factory, start_seed=0):
    """Yield (seed, store, query) for engine-supported random instances."""
    produced = 0
    seed = start_seed
    while produced < total:
        rng = random.Random(seed)
        seed += 1
        cfg = cfg_factory(rng)
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        query = random_query(rng, cfg)
        yield seed - 1, store, query
        produced += 1


def _mixed_cfg(rng):
    return GenConfig(
        p_optional=0.7,
        p_union=0.3,
        p_filter=0.3,
        p_cycle=0.25,
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    ran = 0
    for seed, store, query in _corpus(500, _mixed_cfg):
        try:
            engine = engine_relation(query, store)
        except DisconnectedQueryError:
            continue
        ran += 1
        assert normalized(engine) == normalized(oracle_relation(query, store)), (
            f"seed {seed}: {serialize(query)}"
        )
    elapsed = time.perf_counter() - started
    assert ran >= 450
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    report(3, f"{ran} randomized queries agreed with the oracle in {elapsed:.1f}s")


def test_criterion_4_forced_nullification_noop_and_exception_witness():
    checked = 0
    for seed, store, query in _corpus(500, _mixed_cfg):
        try:
            normal = run_query(query, store)
        except DisconnectedQueryError:
            continue
        if len(normal.disjuncts) != 1:
            # Union query: the per-disjunct no-op is covered through the
            # union-free corpus below; forced best-match across disjuncts
            # would remove legitimately kept union-all rows.
            continue
        if normal.disjuncts[0].report.nb_required:
            continue
        if normal.best_match_applied:
            continue  # a filter nullified at runtime; both runs identical
        forced = run_query(query, store, RunConfig(nullify="on", best_match="on"))
        checked += 1
        assert sorted(map(str, normal.relation.rows)) == sorted(
            map(str, forced.relation.rows)
        ), f"seed {seed}: forced nullification+best-match changed the output"
    assert checked >= 200

    # The two-equivalence-class query cannot skip nullification.
    store = TripleStore.from_ntriples(EXCEPTION2_NT)
    query = parse(EXCEPTION2_QUERY)
    result = run_query(query, store)
    assert result.disjuncts[0].report.nb_required
    off = engine_relation(query, store, RunConfig(nullify="off", best_match="off"))
    oracle = oracle_relation(query, store)
    spurious = normalized(off) - normalized(oracle)
    assert normalized(off) != normalized(oracle)
    assert spurious
    witness = sorted(rows_of(Relation(query.projection, list(spurious))))[0]
    assert normalized(engine_relation(query, store)) == normalized(oracle)
    report(
        4,
        f"no-op held on {checked} nb_required=false cases; exception witness row {witness}",
    )


def _acyclic_cfg(rng):
    return GenConfig(p_optional=0.6, acyclic_only=True)


def test_criterion_5_minimality():
    violations = 0
    checked = 0
    for seed, store, query in _corpus(150, _acyclic_cfg, start_seed=50_000):
        try:
            result = run_query(query, store)
        except DisconnectedQueryError:
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
        oracle_rows = oracle_eval(query, store.term_triples()).rows
        for tp in node_patterns(query.root):
            pm = trace.matrices[tp.index]
            for binding in cell_bindings(pm, store.dictionary):
                if not any(
                    all(row.get(v) == t for v, t in binding.items())
                    for row in oracle_rows
                ):
                    violations += 1
    assert checked >= 100
    assert violations == 0
    report(5, f"{checked} acyclic queries pruned to minimal matrices, zero violations")


def test_criterion_6_acyclicity_classifier():
    from bitopt.structure import build_gosn, build_got
    from bitopt.terms import Iri

    a, b, c = Variable("a"), Variable("b"), Variable("c")

    def p(n):
        return Iri(f"urn:p{n}")

    corner = Bgp(
        (
            TriplePattern(1, a, p(1), b),
            TriplePattern(2, b, p(2), c),
            TriplePattern(3, c, p(3), a),
            TriplePattern(4, a, b, c),
        )
    )
    assert is_acyclic(build_got(build_gosn(corner)))[0] is True
    triangle = Bgp(corner.patterns[:3])
    assert is_acyclic(build_got(build_gosn(triangle)))[0] is False

    # Exhaustive agreement for graphs up to four nodes over three labels.
    labels = ["x", "y", "z"]
    graphs = 0
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for assignment in itertools.product([None, *labels], repeat=len(pairs)):
            edges = [
                (i, j, [lab]) for (i, j), lab in zip(pairs, assignment) if lab is not None
            ]
            got = got_from_edges(n, edges)
            assert is_acyclic(got)[0] == exhaustive_acyclic(got)
            graphs += 1
    # Five-node graphs: full edge-set enumeration with deterministic labels
    # plus a seeded random sample of labelings.
    rng = random.Random(5)
    pairs = list(itertools.combinations(range(1, 6), 2))
    vocab = ["x", "y", "z", "w", "v"]
    for mask in range(1 << len(pairs)):
        edges = [
            (i, j, [vocab[k % len(vocab)]])
            for k, (i, j) in enumerate(pairs)
            if mask >> k & 1
        ]
        got = got_from_edges(5, edges)
        assert is_acyclic(got)[0] == exhaustive_acyclic(got)
        graphs += 1
    for _ in range(1500):
        edges = [(i, j, [rng.choice(vocab)]) for i, j in pairs if rng.random() < 0.5]
        got = got_from_edges(5, edges)
        assert is_acyclic(got)[0] == exhaustive_acyclic(got)
        graphs += 1
    report(6, f"corner case + triangle classified; {graphs} graphs matched the exhaustive oracle")


def test_criterion_7_unf():
    q2 = parse(Q2_TEXT)
    unf = to_unf(push_filters(q2.root))
    assert len(unf.disjuncts) == 2
    assert not unf.rule3_used

    rule3_text = "SELECT ?x ?y WHERE { ?x :p ?y . OPTIONAL { { ?y :q ?z } UNION { ?y :r ?z } } }"
    q = parse(rule3_text)
    unf3 = to_unf(push_filters(q.root))
    assert unf3.rule3_used
    store = TripleStore.from_ntriples(f"<{EX}s> <{EX}p> <{EX}o> .")
    result = run_query(q, store)
    assert result.rule3_used and result.best_match_applied

    checked = 0
    for seed in range(10_000):
        if checked >= 200:
            break
        rng = random.Random(700_000 + seed)
        cfg = GenConfig(p_optional=0.6, p_union=0.9, p_filter=0.2)
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        triples = store.term_triples()
        query = random_query(rng, cfg)
        unf = to_unf(push_filters(query.root))
        if len(unf.disjuncts) == 1:
            continue
        checked += 1
        original = oracle_relation(query, store)
        union_all = Relation(query.projection, [])
        for d in unf.disjuncts:
            rel = oracle_eval(d, triples)
            union_all.rows.extend(
                tuple(r.get(v) for v in query.projection) for r in rel.rows
            )
        assert set(best_match(original).rows) == set(best_match(union_all).rows), (
            f"seed {seed}: {serialize(query)}"
        )
    assert checked == 200
    report(7, "Q2 -> 2 disjuncts, rule 3 flagged and forces best-match; 200 rewrites preserved semantics")


def test_criterion_8_distinct_bmm():
    movie_store = TripleStore.from_ntriples(MOVIES_NT)
    out = distinct_eval(parse(MOVIE_QUERY), movie_store)
    assert out.path == "bmm-bgp"
    rows = rows_of(out.relation)
    assert rows.count(("UmaThurman", "QuentinTarantino")) == 1

    agreed = 0
    bmm_hits = 0
    seed = 800_000
    while agreed < 100:
        rng = random.Random(seed)
        seed += 1
        cfg = GenConfig(p_optional=0.5, acyclic_only=True, p_peer_join=0.0)
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        base = random_query(rng, cfg)
        pool = sorted(base.projection, key=lambda v: v.name)
        dvars = tuple(sorted(rng.sample(pool, rng.randint(1, min(3, len(pool)))), key=lambda v: v.name))
        query = Query(dvars, True, base.root)
        try:
            fast = distinct_eval(query, store)
            slow = distinct_eval(query, store, force_naive=True)
        except DisconnectedQueryError:
            continue
        agreed += 1
        if fast.path != "naive":
            bmm_hits += 1
        # The monotonicity assertion inside shrink_mcs fires on violation.
        assert sorted(map(str, fast.relation.rows)) == sorted(map(str, slow.relation.rows)), (
            f"seed {seed - 1} path={fast.path}"
        )
    assert bmm_hits >= 60
    report(8, f"movie pair returned once; {agreed} randomized queries agreed ({bmm_hits} on the matrix path)")


def test_criterion_9_primitive_unit_oracles():
    rng = random.Random(99)
    mismatches = 0
    for trial in range(1000):
        rows = rng.randint(1, 64)
        cols = rng.randint(1, 64)
        bm = random_bitmat(rng, rows, cols, density=rng.choice([0.05, 0.2, 0.5]))
        d = dense(bm)
        got_rows = fold(bm, "row")
        got_cols = fold(bm, "column")
        if [got_rows.test(i + 1) for i in range(rows)] != list(d.any(axis=1)):
            mismatches += 1
        if [got_cols.test(j + 1) for j in range(cols)] != list(d.any(axis=0)):
            mismatches += 1
        mask_bits = rng.getrandbits(rows)
        clone = bm.copy()
        unfold(clone, BitArray(bitmat.S, rows, mask_bits), "row", so_count=max(rows, cols))
        want = {(r, c) for r, c in bm.cells() if mask_bits >> (r - 1) & 1}
        if set(clone.cells()) != want:
            mismatches += 1
        if trial % 3 == 0:
            k = rng.randint(1, 64)
            left = random_bitmat(rng, rows, k, density=0.2, row_space=bitmat.S, col_space=bitmat.S)
            right = random_bitmat(rng, k, cols, density=0.2, row_space=bitmat.S, col_space=bitmat.S)
            product = bmm(left, right, so_count=k)
            want_dense = np.zeros((rows, cols), dtype=bool)
            dl, dr = dense(left), dense(right)
            for i in range(rows):
                for j in range(k):
                    if dl[i, j]:
                        want_dense[i] |= dr[j]
            if (dense(product) != want_dense).any():
                mismatches += 1
    assert mismatches == 0
    report(9, "fold/unfold/product matched dense oracles on 1000 random matrices")


def test_pipelined_join_memory_invariant():
    # Auxiliary state stays within one binding map plus the recursion stack.
    store = TripleStore.from_ntriples(SEINFELD_NT)
    for text in (Q1_TEXT, Q2_TEXT):
        query = parse(text)
        result = run_query(query, store)
        var_cells = sum(len(tp.vars()) for tp in node_patterns(query.root))
        for trace in result.disjuncts:
            assert trace.stats.max_vmap_cells <= var_cells
            assert trace.stats.max_depth <= len(trace.stps) + 1
    report(0, "pipelined join held at most one vmap plus bounded recursion (memory note)")
