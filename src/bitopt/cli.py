"""Command-line front end.

``bitopt load <dir> <file.nt>`` builds and persists a store;
``bitopt query <dir> <file.rq>`` evaluates a query and prints TSV.

Exit codes: 0 success, 2 I/O or usage problems, 3 unsupported capability,
4 rejected query.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import QueryRejectedError
from .distinct import distinct_eval
from .executor import Relation, RunConfig, best_match, run_query
from .explain import render_explain
from .ntriples import NTriplesError
from .oracle import OracleCapacityError, oracle_eval
from .parser import QuerySyntaxError, parse
from .patmat import UnsupportedByIndexError
from .store import StoreError, TripleStore
from .terms import render_term, term_sort_key

EXIT_OK = 0
EXIT_IO = 2
EXIT_UNSUPPORTED = 3
EXIT_REJECTED = 4


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bitopt", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    load = sub.add_parser("load", help="load an N-Triples file into a store directory")
    load.add_argument("store", nargs="?", default=None, help="store directory (default: $BITOPT_STORE)")
    load.add_argument("data", help="N-Triples input file")
    load.add_argument("--force", action="store_true", help="replace the store in a non-empty directory")

    query = sub.add_parser("query", help="run a query against a store")
    query.add_argument("store", nargs="?", default=None, help="store directory (default: $BITOPT_STORE)")
    query.add_argument("query", help="query file")
    query.add_argument("--explain", action="store_true", help="print the plan report to stderr")
    query.add_argument("--oracle", action="store_true", help="use the brute-force evaluator")
    query.add_argument("--no-prune", action="store_true", help="skip semi-join pruning (debug)")
    query.add_argument(
        "--unsafe-order",
        action="store_true",
        help="join patterns in textual order (debug; requires --no-prune)",
    )
    query.add_argument("--nullify", choices=("auto", "on", "off"), default="auto")
    query.add_argument("--best-match", choices=("auto", "on", "off"), default="auto")
    query.add_argument("-o", "--output", default=None, help="write TSV here instead of stdout")
    return ap


def _store_dir(arg: "str | None") -> str:
    directory = arg or os.environ.get("BITOPT_STORE")
    if not directory:
        raise SystemExit("no store directory given and BITOPT_STORE unset")
    return directory


def cmd_load(args) -> int:
    directory = _store_dir(args.store)
    if os.path.isdir(directory) and os.listdir(directory) and not args.force:
        print(f"error: {directory} is not empty (use --force to reload)", file=sys.stderr)
        return EXIT_IO
    try:
        with open(args.data, "rb") as fh:
            store = TripleStore.from_ntriples(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NTriplesError as exc:
        print(f"error: {args.data}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        store.save(directory)
    except (OSError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    d = store.dictionary
    print(
        f"{store.triple_count} triples, {d.n_p} predicates, "
        f"{d.n_s} subjects, {d.n_o} objects ({d.n_so} shared)"
    )
    return EXIT_OK


def _emit(relation, header, out) -> None:
    """Write the header and the rows as TSV, NULL first, then by
    ``term_sort_key``: the one place result rows are sorted."""
    out.write("\t".join(str(v) for v in header) + "\n")
    for row in sorted(relation.rows, key=lambda row: tuple((0,) if t is None else (1, *term_sort_key(t)) for t in row)):
        out.write("\t".join(render_term(t) for t in row) + "\n")


def cmd_query(args) -> int:
    if args.unsafe_order and not args.no_prune:
        print("error: --unsafe-order requires --no-prune", file=sys.stderr)
        return EXIT_IO
    directory = _store_dir(args.store)
    try:
        store = TripleStore.open(directory)
        with open(args.query, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {args.query}: not UTF-8 ({exc.reason} at byte {exc.start + 1})", file=sys.stderr)
        return EXIT_IO
    try:
        query = parse(text)
    except QuerySyntaxError as exc:
        print(f"error: syntax: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except QueryRejectedError as exc:
        print(f"error: rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED

    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.oracle:
            rows = oracle_eval(query, store.term_triples()).rows
            projected = Relation(query.projection, [tuple(row.get(v) for v in query.projection) for row in rows])
            if query.distinct:
                projected = best_match(projected)
            _emit(projected, query.projection, out)
            return EXIT_OK
        config = RunConfig(
            prune=not args.no_prune,
            unsafe_order=args.unsafe_order,
            nullify=args.nullify,
            best_match=getattr(args, "best_match"),
        )
        if query.distinct:
            outcome = distinct_eval(query, store, config)
            result, relation = outcome.result, outcome.relation
            extra = [f"distinct.path={outcome.path}"] + [f"distinct.{ln}" for ln in outcome.mcs_trace]
        else:
            result = run_query(query, store, config)
            relation, extra = result.relation.project(query.projection), []
        if args.explain:
            sys.stderr.write(render_explain(query, result, extra))
        _emit(relation, query.projection, out)
        return EXIT_OK
    except UnsupportedByIndexError as exc:
        print(f"error: unsupported-by-index: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OracleCapacityError as exc:
        # A limit of the brute-force evaluator, not a fault of the store.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except QueryRejectedError as exc:  # a Cartesian query (DisconnectedQueryError)
        print(f"error: rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except StoreError as exc:
        # A matrix file is decoded on its predicate's first use, so a store
        # fault can surface here, after open().
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if args.output:
            out.close()


def main(argv: "list[str] | None" = None) -> int:
    args = _build_argparser().parse_args(argv)
    if args.command == "load":
        return cmd_load(args)
    return cmd_query(args)


if __name__ == "__main__":
    raise SystemExit(main())
