#!/usr/bin/env python3
"""Randomized engine-vs-reference agreement run with a small breakdown.

Generates seeded stores and well-designed queries, evaluates each with the
optimized pipeline and the brute-force evaluator, and compares the results
after minimum-union normalization. Prints counts per structural class. This
first phase also draws UNIONs on the slave side of an OPTIONAL (the rule-3
shape) and fails if none ran. Then runs the same seeds, without that
shape, in textual join order, unpruned, with nullification and best-match
forced on (the debug flags ``--no-prune --unsafe-order --nullify on
--best-match on``), which makes the join turn the most matrices, and
compares that with the brute-force evaluator too.
Then does the same for DISTINCT queries (a random subset of each query's
variables): ``distinct_eval`` as dispatched, ``distinct_eval`` forced onto
the naive path and the brute-force evaluator must all agree after minimum
union; prints how many queries took each DISTINCT path and how many joins
(``MultiWayJoin.run`` calls) each path ran, and fails if a matrix-path
query ran any join but its one covering-subgraph join or a naive-path query
ran other than one join per disjunct. Finally saves each random store,
reopens it (so every matrix is decoded on its predicate's first use),
compares the engine on the reopened store with the brute-force evaluator on
the store as built, and counts the reads the reopened stores served by the
width of their mask: one-row reads (a masked S-O read of one subject, as
for a constant subject), one-column reads (a masked O-S read of one
object, as for a constant object), wider masked S-O and O-S reads (a
two-variable pattern loaded with its neighbours' mask), and the whole
matrices decoded; it fails if a class reads 0. It also counts the terms
the dictionaries built from ``dict.tsv`` lines (only the ids a query emits
or filters on need one) and fails if ``open`` itself built any term. Last,
loads each random store twice, once as generated (every line is read by
the N-Triples reader's whole-line match) and once with a comment after
every line (which sends each line down the term-by-term path), and fails
unless the two saved stores are byte-identical and the engine on the
second agrees with the brute-force evaluator.

Usage: python scripts/agreement_experiment.py [n_queries] [seed]
"""

import random
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import bitopt.store
from bitopt.algebra import Query
from bitopt.distinct import distinct_eval
from bitopt.executor import MultiWayJoin, Relation, RunConfig, best_match, run_query
from bitopt.oracle import oracle_eval
from bitopt.store import TripleStore
from bitopt.structure import DisconnectedQueryError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from workload import GenConfig, random_query, random_store_text  # noqa: E402

DISTINCT_PATHS = ("bmm-bgp", "bmm-bgp-opt", "naive")
TEXTUAL_ORDER = RunConfig(prune=False, unsafe_order=True, nullify="on", best_match="on")
ENGINE_QUERIES = GenConfig(p_optional=0.7, p_union=0.3, p_filter=0.3, p_cycle=0.25)


def minimum_union(relation: Relation) -> frozenset:
    return frozenset(best_match(relation).rows)


def reference(query: Query, store: TripleStore) -> Relation:
    raw = oracle_eval(query, store.term_triples())
    return Relation(
        query.projection,
        [tuple(r.get(v) for v in query.projection) for r in raw.rows],
    )


def distinct_variant(rng: random.Random, query: Query) -> Query:
    pool = sorted(query.projection, key=lambda v: v.name)
    k = rng.randint(1, min(3, len(pool)))
    return Query(tuple(sorted(rng.sample(pool, k), key=lambda v: v.name)), True, query.root)


def reopened(store: TripleStore, directory: str) -> TripleStore:
    store.save(directory)
    return TripleStore.open(directory)


def engine_run(
    total: int,
    base_seed: int,
    config: "RunConfig | None" = None,
    workdir: "str | None" = None,
    cfg: GenConfig = ENGINE_QUERIES,
) -> Counter:
    """With ``workdir``, the engine runs on the store saved there and reopened."""
    stats = Counter()
    seed = base_seed
    while stats["ran"] < total:
        rng = random.Random(seed)
        seed += 1
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        query = random_query(rng, cfg)
        with counting_terms() as built, counting_reads() as reads:
            engine_store = store if workdir is None else reopened(store, workdir)
            built_at_open = built[0]
            try:
                result = run_query(query, engine_store, config)
            except DisconnectedQueryError:
                stats["rejected-cartesian"] += 1
                continue
        stats["ran"] += 1
        if workdir is not None:
            stats["terms built"] += built[0]
            d = engine_store.dictionary
            stats["dictionary lines"] += d.n_s + d.n_o - d.n_so + d.n_p
            if built_at_open:
                stats["OPEN-BUILT-TERMS"] += 1
                print(f"open built {built_at_open} terms at seed {seed - 1}")
            stats.update(reads)
        for trace in result.disjuncts:
            stats["nb-required" if trace.nulreqd else "nb-skipped"] += 1
        if result.rule3_used:
            stats["rule3"] += 1
        engine = result.relation.project(query.projection)
        if minimum_union(engine) == minimum_union(reference(query, store)):
            stats["agreed"] += 1
        else:
            stats["MISMATCH"] += 1
            print(f"mismatch at seed {seed - 1} config={config} reopened={workdir is not None}")
    return stats


@contextmanager
def counting_terms():
    """Count the terms dictionaries build from ``dict.tsv`` lines in the
    yielded one-element list."""
    calls = [0]
    parse = bitopt.store._parse_rendered_term

    def counted(rendered):
        calls[0] += 1
        return parse(rendered)

    bitopt.store._parse_rendered_term = counted
    try:
        yield calls
    finally:
        bitopt.store._parse_rendered_term = parse


READ_CLASSES = (
    "one-row reads",
    "one-column reads",
    "wider masked SO reads",
    "wider masked OS reads",
    "whole decodes",
)


@contextmanager
def counting_reads():
    """Count the store's reads in the yielded Counter, masked reads by the
    width of their mask (READ_CLASSES; an empty mask counts apart), and
    the whole matrices decoded."""
    reads = Counter()
    bitmat, decode = TripleStore.bitmat, bitopt.store._MatrixWords.decode

    def counted_bitmat(store, kind, key, keep=None):
        if kind in ("SO_MASKED", "OS_MASKED"):
            bits = keep.count()
            if bits == 1:
                reads["one-row reads" if kind == "SO_MASKED" else "one-column reads"] += 1
            else:
                reads[f"{'wider' if bits else 'empty'} masked {kind[:2]} reads"] += 1
        return bitmat(store, kind, key, keep)

    def counted_decode(words):
        reads["whole decodes"] += 1
        return decode(words)

    TripleStore.bitmat, bitopt.store._MatrixWords.decode = counted_bitmat, counted_decode
    try:
        yield reads
    finally:
        TripleStore.bitmat, bitopt.store._MatrixWords.decode = bitmat, decode


@contextmanager
def counting_joins():
    """Count ``MultiWayJoin.run`` calls in the yielded one-element list."""
    calls = [0]
    run = MultiWayJoin.run

    def counted(join):
        calls[0] += 1
        return run(join)

    MultiWayJoin.run = counted
    try:
        yield calls
    finally:
        MultiWayJoin.run = run


def distinct_run(total: int, base_seed: int) -> Counter:
    # Acyclic and mostly union- and filter-free, so every path is exercised.
    cfg = GenConfig(p_optional=0.5, p_union=0.1, p_filter=0.15, acyclic_only=True, p_peer_join=0.0)
    stats = Counter()
    seed = base_seed
    while stats["ran"] < total:
        rng = random.Random(seed)
        seed += 1
        store = TripleStore.from_ntriples(random_store_text(rng, cfg))
        query = distinct_variant(rng, random_query(rng, cfg))
        try:
            with counting_joins() as joins:
                fast = distinct_eval(query, store)
            naive = distinct_eval(query, store, force_naive=True)
        except DisconnectedQueryError:
            stats["rejected-cartesian"] += 1
            continue
        fast_joins = joins[0]
        stats["ran"] += 1
        stats[fast.path] += 1
        stats[f"{fast.path} joins"] += fast_joins
        expected_joins = len(fast.result.disjuncts) if fast.path == "naive" else 1
        if fast_joins != expected_joins:
            stats["JOIN-COUNT"] += 1
            print(f"distinct join count at seed {seed - 1}: path={fast.path} ran {fast_joins}, expected {expected_joins}")
        expected = minimum_union(reference(query, store))
        if minimum_union(fast.relation) == expected == minimum_union(naive.relation):
            stats["agreed"] += 1
        else:
            stats["MISMATCH"] += 1
            print(f"distinct mismatch at seed {seed - 1} path={fast.path}")
    return stats


def store_files(store: TripleStore, directory: Path) -> dict[str, bytes]:
    store.save(str(directory))
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def fallback_run(total: int, base_seed: int, workdir: str) -> Counter:
    cfg = ENGINE_QUERIES
    stats = Counter()
    seed = base_seed
    while stats["ran"] < total:
        rng = random.Random(seed)
        seed += 1
        text = random_store_text(rng, cfg)
        fast = TripleStore.from_ntriples(text)
        slow = TripleStore.from_ntriples("".join(line + " # per-term\n" for line in text.split("\n")))
        query = random_query(rng, cfg)
        try:
            result = run_query(query, slow)
        except DisconnectedQueryError:
            stats["rejected-cartesian"] += 1
            continue
        stats["ran"] += 1
        if store_files(fast, Path(workdir, "fast")) == store_files(slow, Path(workdir, "slow")):
            stats["identical stores"] += 1
        else:
            stats["STORE-DIFFERS"] += 1
            print(f"stores differ at seed {seed - 1}")
        if minimum_union(result.relation.project(query.projection)) == minimum_union(reference(query, fast)):
            stats["agreed"] += 1
        else:
            stats["MISMATCH"] += 1
            print(f"mismatch at seed {seed - 1} on the term-by-term store")
    return stats


def report(title: str, stats: Counter, elapsed: float) -> None:
    print(f"{title}: {stats['ran']} queries in {elapsed:.1f}s")
    for key in sorted(stats):
        print(f"  {key:>20}: {stats[key]}")


def main():
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    base_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    started = time.perf_counter()
    stats = engine_run(total, base_seed, cfg=replace(ENGINE_QUERIES, p_slave_union=0.3))
    stats.setdefault("rule3", 0)
    report("engine", stats, time.perf_counter() - started)
    started = time.perf_counter()
    tstats = engine_run(total, base_seed, TEXTUAL_ORDER)
    report("textual order", tstats, time.perf_counter() - started)
    started = time.perf_counter()
    dstats = distinct_run(total, base_seed)
    for path in DISTINCT_PATHS:
        dstats.setdefault(path, 0)
        dstats.setdefault(f"{path} joins", 0)
    report("distinct", dstats, time.perf_counter() - started)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        rstats = engine_run(total, base_seed, workdir=workdir)
    for key in ("OPEN-BUILT-TERMS", *READ_CLASSES):
        rstats.setdefault(key, 0)
    report("reopened store", rstats, time.perf_counter() - started)
    ran = max(rstats["ran"], 1)
    print(
        f"  {'terms built/query':>20}: {rstats['terms built'] / ran:.2f}"
        f" of {rstats['dictionary lines'] / ran:.2f} dictionary lines (mean)"
    )
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        fstats = fallback_run(total, base_seed, workdir)
    fstats.setdefault("STORE-DIFFERS", 0)
    report("term-by-term parse", fstats, time.perf_counter() - started)
    unread = [key for key in READ_CLASSES if not rstats[key]]
    if unread:
        print(f"reopened store: no {', '.join(unread)}")
    if not stats["rule3"]:
        print("engine: no rule-3 query ran")
    failed = (
        dstats["JOIN-COUNT"] or rstats["OPEN-BUILT-TERMS"] or fstats["STORE-DIFFERS"] or unread or not stats["rule3"]
    )
    if any(s["MISMATCH"] for s in (stats, tstats, dstats, rstats, fstats)) or failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
