"""Indexed reference evaluator for the timed-scale correctness check.

It follows the semantics of ``bitopt.oracle`` (the algebra tree evaluated in
its original order; null-compatible joins; left joins that NULL-pad; union
all; a failing filter conjunct over master variables drops the row) but
matches patterns through hash indexes and joins through hash tables, so it
answers the bench's templates at the timed scale in milliseconds where the
oracle's nested loops take minutes. It shares no code with the engine.
``perfbench/check.py`` proves it equal to the oracle at the check scale.

An op's expected digest hashes the minimum union of the reference's rendered
projected rows (the normalization ``tests/conftest.py`` applies before
comparing engine and oracle), sorted. The engine's rows are hashed as
returned, only sorted: every bench template's engine result is already a
minimum union, so a duplicate or subsumed row in it is a wrong digest.

Usage: python3 perfbench/reference.py --workload point --seed 1 --out digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import defaultdict

import bench_env  # noqa: F401  (puts the checkout's src/ on sys.path)
from bitopt.algebra import (
    Bgp,
    Filter,
    Join,
    LeftJoin,
    Union,
    Variable,
    eval_filter,
    filter_vars,
    master_region_vars,
    node_vars,
    top_conjuncts,
)
from bitopt.parser import parse
from bitopt.terms import Iri, Literal

class Index:
    """Triples of the generated data keyed by predicate, subject and object."""

    def __init__(self, triples):
        self.by_p: dict = defaultdict(list)
        self.by_ps: dict = defaultdict(list)
        self.by_po: dict = defaultdict(list)
        self.triples: set = set()
        for s, p, o in triples:
            s, p = Iri(s), Iri(p)
            o = Literal(o) if isinstance(o, int) else Iri(o)
            self.triples.add((s, p, o))
            self.by_p[p].append((s, o))
            self.by_ps[p, s].append(o)
            self.by_po[p, o].append(s)

    def match(self, tp, row: dict):
        """(s, o) pairs of the triples that match ``tp`` under ``row``."""
        if isinstance(tp.p, Variable):
            raise NotImplementedError("variable predicates are not in the bench templates")

        def value(term):
            if isinstance(term, Variable):
                return row.get(term)
            return term

        s, o = value(tp.s), value(tp.o)
        if s is not None and o is not None:
            return [(s, o)] if (s, tp.p, o) in self.triples else []
        if s is not None:
            return [(s, x) for x in self.by_ps.get((tp.p, s), ())]
        if o is not None:
            return [(x, o) for x in self.by_po.get((tp.p, o), ())]
        return self.by_p.get(tp.p, ())


def _bgp(node: Bgp, index: Index) -> list[dict]:
    rows: list[dict] = [{}]
    for tp in node.patterns:
        nxt = []
        for row in rows:
            for s, o in index.match(tp, row):
                if tp.s == tp.o and isinstance(tp.s, Variable) and s != o:
                    continue
                ext = dict(row)
                if isinstance(tp.s, Variable):
                    ext[tp.s] = s
                if isinstance(tp.o, Variable):
                    ext[tp.o] = o
                nxt.append(ext)
        rows = nxt
    return rows


def _merge(a: dict, b: dict) -> "dict | None":
    # Null-compatible merge: a NULL on either side defers to the other.
    out = dict(a)
    for key, value in b.items():
        mine = out.get(key)
        if mine is not None:
            if value is not None and mine != value:
                return None
        elif key not in out or value is not None:
            out[key] = value
    return out


def _join(left: list[dict], right: list[dict], shared: frozenset, outer: bool) -> list[dict]:
    """Hash join on the shared variables that are bound on both sides; the
    candidates are then merged exactly as the oracle merges them."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for b in right:
        bound = tuple(sorted((v for v in shared if b.get(v) is not None), key=lambda v: v.name))
        groups[bound][tuple(b[v] for v in bound)].append(b)
    out = []
    for a in left:
        found = False
        for bound, table in groups.items():
            if all(a.get(v) is not None for v in bound):
                candidates = table.get(tuple(a[v] for v in bound), ())
            else:
                candidates = [b for bucket in table.values() for b in bucket]
            for b in candidates:
                merged = _merge(a, b)
                if merged is not None:
                    out.append(merged)
                    found = True
        if outer and not found:
            out.append(dict(a))
    return out


def evaluate(node, index: Index) -> list[dict]:
    if isinstance(node, Bgp):
        return _bgp(node, index)
    if isinstance(node, Filter):
        spine = master_region_vars(node.inner)
        rows = []
        for row in evaluate(node.inner, index):
            for conjunct in top_conjuncts(node.expr):
                if not filter_vars(conjunct) <= spine:
                    raise NotImplementedError("filters over optional variables are not in the bench templates")
            if all(eval_filter(c, row.get) is True for c in top_conjuncts(node.expr)):
                rows.append(row)
        return rows
    left = evaluate(node.left, index)
    right = evaluate(node.right, index)
    if isinstance(node, Union):
        return left + right
    shared = node_vars(node.left) & node_vars(node.right)
    if isinstance(node, Join):
        return _join(left, right, shared, outer=False)
    if isinstance(node, LeftJoin):
        return _join(left, right, shared, outer=True)
    raise TypeError(f"unknown algebra node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Normalization and digests


def render(term) -> str:
    """TSV rendering of one term; NULL is the empty field, as in the CLI."""
    return "" if term is None else term.n3()


def minimum_union(rows) -> list[tuple[str, ...]]:
    """Distinct rows minus every row another row subsumes (binds everything it
    binds, the same way, and strictly more), sorted. NULL is ``""``."""
    unique = set(rows)
    by_mask: dict = defaultdict(set)
    for row in unique:
        by_mask[tuple(v != "" for v in row)].add(row)
    kept = []
    for mask, group in by_mask.items():
        wider = [m for m in by_mask if m != mask and all(b or not a for a, b in zip(mask, m))]
        cols = [i for i, bound in enumerate(mask) if bound]
        covered = {tuple(r[i] for i in cols) for m in wider for r in by_mask[m]}
        kept.extend(r for r in group if tuple(r[i] for i in cols) not in covered)
    return sorted(kept)


def digest(rows) -> str:
    """Digest of rendered rows (tuples of strings), sorted but otherwise as
    given: duplicates and subsumed rows change it."""
    text = "\n".join("\t".join(row) for row in sorted(rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def expected_rows(query_text: str, index: Index) -> list[tuple[str, ...]]:
    query = parse(query_text)
    return [tuple(render(row.get(v)) for v in query.projection) for row in evaluate(query.root, index)]


def expected_digests(workload: str, seed: int, scale: "int | None" = None) -> dict[str, str]:
    """Digest per op id of every op the workload runs for ``seed`` (at the
    workload's own scale unless ``scale`` is given)."""
    from workloads import WORKLOADS, build_ops

    dataset, ops = build_ops(WORKLOADS[workload], seed, scale)
    index = Index(dataset.triples)
    return {op.op_id: digest(minimum_union(expected_rows(op.text, index))) for op in ops}


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description="write the expected digest of every op of a run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(expected_digests(args.workload, args.seed), fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
