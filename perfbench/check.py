"""Check-scale correctness gate.

At a scale where the brute-force oracle finishes in seconds, every template
of every workload must give the engine's result, after best-match
normalization (as ``tests/conftest.py::normalized`` does), equal to the
oracle's. The indexed reference evaluator that checks the timed runs must
agree with the oracle as well, which is what lets the timed runs trust it.

Usage: python3 perfbench/check.py [--seed 1]
Exit code 0 when every template agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

import bench_env  # noqa: F401  (puts the checkout's src/ on sys.path)
import lubm
import reference
from bitopt.distinct import distinct_eval
from bitopt.executor import Relation, best_match, run_query
from bitopt.oracle import oracle_eval
from bitopt.parser import parse
from bitopt.store import TripleStore
from templates import WORKLOAD_TEMPLATES

CHECK_SCALE = 1  # one university, about 3.7k triples


def _normalized(relation: Relation) -> frozenset:
    return frozenset(best_match(relation).rows)


def check_text(text: str, store: TripleStore, triples: list, index: reference.Index) -> "str | None":
    """None when engine, oracle and reference agree on one query, else why not."""
    query = parse(text)
    if query.distinct:
        engine = distinct_eval(query, store).relation
    else:
        engine = run_query(query, store).relation.project(query.projection)
    raw = oracle_eval(query, triples)
    oracle = Relation(query.projection, [tuple(r.get(v) for v in query.projection) for r in raw.rows])
    want = _normalized(oracle)
    if _normalized(engine) != want:
        return f"engine {len(_normalized(engine))} rows != oracle {len(want)} rows"
    rendered = sorted(tuple(reference.render(t) for t in row) for row in want)
    if reference.minimum_union(reference.expected_rows(text, index)) != rendered:
        return "reference evaluator disagrees with the oracle"
    return None


def run_gate(seed: int, out=sys.stdout) -> int:
    """Check one constant draw of every template; returns the failure count."""
    dataset = lubm.generate(seed, CHECK_SCALE)
    store = TripleStore.from_ntriples(dataset.ntriples())
    triples = store.term_triples()
    index = reference.Index(dataset.triples)
    rng = random.Random(seed)
    failures = 0
    for workload, templates in WORKLOAD_TEMPLATES.items():
        for template in templates:
            started = time.perf_counter()
            problem = check_text(template.render(rng.choice(template.pool(dataset))), store, triples, index)
            verdict = "ok" if problem is None else f"MISMATCH: {problem}"
            failures += problem is not None
            print(f"{workload}/{template.name}: {verdict} ({time.perf_counter() - started:.1f}s)", file=out)
    return failures


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description="engine vs oracle vs reference at the check scale")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    return 1 if run_gate(args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
