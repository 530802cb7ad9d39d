"""Layer spans and counters for the traced run.

``Tracer.install`` wraps bitopt's public functions under the names their
callers look them up by (``bitopt.executor.load_matrices`` is a different
name from ``bitopt.pruning.load_matrices``); ``uninstall`` puts every
original back. Untraced runs never install anything. Spans stay in memory
(name, start, end, parent span, op id) and are written out at the end; a
layer's self time is its spans' duration minus the time their child spans
cover. Hot inner calls (row encodes, probes, subsumption checks) are only
counted, since a span each would cost more than the work it measures.

A name that has disappeared from bitopt stops the traced run with an error,
so a renamed function never reads as a layer that costs nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import bench_env  # noqa: F401  (puts the checkout's src/ on sys.path)

# (module, attribute path, layer). Each row is one call site's lookup name.
SPANS = (
    ("bitopt.store", "parse_ntriples", "ntriples.parse"),
    ("bitopt.store", "Dictionary.build", "store.dict_build"),
    ("bitopt.store", "TripleStore.save", "store.save"),
    ("bitopt.store", "TripleStore.open", "store.open"),
    ("bitopt.store", "TripleStore.bitmat", "store.bitmat"),
    ("bitopt.parser", "parse", "parser.parse"),
    ("bitopt.cli", "parse", "parser.parse"),
    ("bitopt.cli", "main", "cli.dispatch"),
    ("bitopt.cli", "_emit", "cli.emit"),
    ("bitopt.cli", "run_query", "executor.run_query"),
    ("bitopt.cli", "distinct_eval", "distinct.dispatch"),
    ("bitopt.executor", "run_query", "executor.run_query"),
    ("bitopt.executor", "build_gosn", "structure.analyze"),
    ("bitopt.executor", "build_got", "structure.analyze"),
    ("bitopt.executor", "classify", "structure.analyze"),
    ("bitopt.executor", "push_filters", "rewriter.rewrite"),
    ("bitopt.executor", "to_unf", "rewriter.rewrite"),
    ("bitopt.executor", "load_matrices", "pruning.load"),
    ("bitopt.executor", "prune_triples", "pruning.prune"),
    ("bitopt.executor", "MultiWayJoin.run", "executor.join"),
    ("bitopt.executor", "best_match", "executor.best_match"),
    ("bitopt.pruning", "select_pattern_matrix", "patmat.select"),
    ("bitopt.distinct", "distinct_eval", "distinct.dispatch"),
    ("bitopt.distinct", "run_query", "distinct.base_query"),
    ("bitopt.distinct", "best_match", "executor.best_match"),
    ("bitopt.distinct", "carve_mcs", "distinct.mcs"),
    ("bitopt.distinct", "shrink_mcs", "distinct.mcs"),
    ("bitopt.distinct", "_evaluate_mcs", "distinct.eval_mcs"),
    ("bitopt.distinct", "bmm", "bitmat.bmm"),
    ("bitopt.bitmat", "bmm", "bitmat.bmm"),
)

COUNTS = (
    ("bitopt.bitmat", "row_from_mask", "bitmat.row_encodes"),
    ("bitopt.store", "row_from_mask", "bitmat.row_encodes"),
    ("bitopt.pruning", "semi_join", "pruning.semijoin_steps"),
    ("bitopt.patmat", "PatternMatrix.bindings", "patmat.probes"),
    ("bitopt.executor", "subsumes", "executor.subsumption_checks"),
)

GENERATORS = {"executor.join"}  # spans that cover consuming the returned generator
EAGER = {"ntriples.parse"}  # generators drained inside the span (callers list() them anyway)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: "str | None"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (name, op id or None) -> count
        self.op: "str | None" = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Hot counters bump a one-element list instead of ``counts``: about
        # half the cost per call. Deltas are attributed to ops in end_op.
        self._cells: dict[str, list[int]] = {}
        self._at_begin: dict[str, int] = {}
        self._op_span = -1

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if idx in self._stack:
            del self._stack[self._stack.index(idx):]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name, self.op] += n

    def begin_op(self, op: str) -> None:
        """Start the root span of one timed op; spans and counts until
        ``end_op`` belong to it."""
        self.op = op
        self._at_begin = {name: cell[0] for name, cell in self._cells.items()}
        self._op_span = self.open("op")

    def end_op(self) -> None:
        self.close(self._op_span)
        for name, cell in self._cells.items():
            self.counts[name, self.op] += cell[0] - self._at_begin.get(name, 0)
        self.op = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, layer: str):
        tracer = self
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)
        if layer in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer.open(layer)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    if after is not None:
                        after(args, None)

            return gen_wrapper

        before = getattr(self, "_before_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer if before is None else before(args))
            try:
                result = fn(*args, **kwargs)
                if layer in EAGER:
                    result = iter(list(result))
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        cell = self._cells.setdefault(counter, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer hooks -------------------------------------------------------

    def _before_store_bitmat(self, args) -> str:
        """Counts the lookup; a miss is named ``store.slice_build``. The slice
        cache is private to the store: a store without one never hits."""
        store, kind, key = args[0], args[1], args[2]
        cache = getattr(store, "_cache", None)
        self.count("store.bitmat_calls")
        if cache is not None and (kind, key) in cache:
            self.count("store.slice_hits")
            return "store.bitmat"
        self.count("store.slice_builds")
        self.count(f"store.slice_builds.{kind}")
        return "store.slice_build"

    def _after_rewriter_rewrite(self, args, result) -> None:
        if hasattr(result, "disjuncts"):
            self.count("rewriter.disjuncts", len(result.disjuncts))

    def _after_pruning_load(self, args, result) -> None:
        matrices = result[0]
        self.count("pruning.triples_loaded", sum(pm.count for pm in matrices.values()))

    def _after_pruning_prune(self, args, result) -> None:
        ctx = args[0]
        self.count("pruning.triples_kept", sum(pm.count for pm in ctx.matrices.values()))

    def _after_executor_join(self, args, result) -> None:
        stats = args[0].stats
        self.count("executor.rows_emitted", stats.rows_emitted)
        self.count("executor.nullified_rows", stats.nullified_rows)

    def _after_executor_best_match(self, args, result) -> None:
        self.count("executor.best_match_rows_in", len(args[0].rows))
        self.count("executor.best_match_rows_out", len(result.rows))

    def _after_distinct_dispatch(self, args, result) -> None:
        self.count("distinct.naive_ops" if result.path == "naive" else "distinct.bmm_ops")

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer in SPANS:
            self._patch(module_name, path, lambda fn, layer=layer: self._span_wrapper(fn, layer))
        for module_name, path, counter in COUNTS:
            self._patch(module_name, path, lambda fn, counter=counter: self._count_wrapper(fn, counter))

    def _patch(self, module_name: str, path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        if attr not in owner.__dict__:
            raise AttributeError(f"{module_name}.{path} is not in bitopt; update tracing.SPANS/COUNTS")
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")

    def layer_totals(self, ops: bool) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span counts per layer, over spans inside ops
        (``ops=True``) or outside them."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, own in zip(self.spans, self.self_times()):
            if (s.op is not None) == ops:
                seconds[s.name] += own
                calls[s.name] += 1
        return seconds, calls

    def op_counts(self) -> Counter:
        total: Counter = Counter()
        for (name, op), n in self.counts.items():
            if op is not None:
                total[name] += n
        return total


def layer_metrics(tracer: Tracer, n_ops: int, traced_p50_ms: float, untraced_p50_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, each as (value, unit).

    ``_ms`` values are mean self milliseconds per op and counts are means per
    op, except the ``_s`` set-up values (one traced set-up) and
    ``store.open_ms`` (per open call, which is per op only on ``point``).
    Every ratio's numerator and denominator are reported beside it.
    """
    op_s, _ = tracer.layer_totals(ops=True)
    setup_s, _ = tracer.layer_totals(ops=False)
    counts = tracer.op_counts()
    n = max(n_ops, 1)
    open_calls = sum(1 for s in tracer.spans if s.name == "store.open")
    bmm_calls = sum(1 for s in tracer.spans if s.name == "bitmat.bmm" and s.op is not None)
    op_total = sum(s.end - s.start for s in tracer.spans if s.name == "op")

    def ms(*layers: str) -> tuple[float, str]:
        return 1000 * sum(op_s[layer] for layer in layers) / n, "ms"

    def per_op(name: str) -> tuple[float, str]:
        return counts[name] / n, "count"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    metrics = {
        "ntriples.parse_s": (setup_s["ntriples.parse"], "s"),
        "store.dict_build_s": (setup_s["store.dict_build"], "s"),
        "store.save_s": (setup_s["store.save"], "s"),
        "store.open_ms": (1000 * (op_s["store.open"] + setup_s["store.open"]) / max(open_calls, 1), "ms"),
        "store.slice_build_ms": ms("store.slice_build"),
        "store.slice_builds": per_op("store.slice_builds"),
    }
    for kind in ("SO", "OS", "PS", "PO"):
        metrics[f"store.slice_builds.{kind}"] = per_op(f"store.slice_builds.{kind}")
    metrics.update({
        "store.bitmat_calls": per_op("store.bitmat_calls"),
        "store.slice_hit_ratio": ratio(counts["store.slice_hits"], counts["store.bitmat_calls"]),
        "bitmat.row_encodes": per_op("bitmat.row_encodes"),
        "bitmat.bmm_ms": ms("bitmat.bmm"),
        "bitmat.bmm_calls": (bmm_calls / n, "count"),
        "parser.parse_ms": ms("parser.parse"),
        "structure.analyze_ms": ms("structure.analyze"),
        "rewriter.rewrite_ms": ms("rewriter.rewrite"),
        "rewriter.disjuncts": per_op("rewriter.disjuncts"),
        "pruning.load_ms": ms("pruning.load"),
        "pruning.prune_ms": ms("pruning.prune"),
        "pruning.semijoin_steps": per_op("pruning.semijoin_steps"),
        "pruning.triples_loaded": per_op("pruning.triples_loaded"),
        "pruning.triples_kept": per_op("pruning.triples_kept"),
        "pruning.survival_ratio": ratio(counts["pruning.triples_kept"], counts["pruning.triples_loaded"]),
        "patmat.select_ms": ms("patmat.select"),
        "patmat.probes": per_op("patmat.probes"),
        "executor.pipeline_ms": ms("executor.run_query"),
        "executor.join_ms": ms("executor.join"),
        "executor.rows_emitted": per_op("executor.rows_emitted"),
        "executor.nullified_rows": per_op("executor.nullified_rows"),
        "executor.emit_ratio": ratio(counts["executor.rows_emitted"], counts["patmat.probes"]),
        "executor.best_match_ms": ms("executor.best_match"),
        "executor.best_match_rows_in": per_op("executor.best_match_rows_in"),
        "executor.best_match_rows_out": per_op("executor.best_match_rows_out"),
        "executor.subsumption_checks": per_op("executor.subsumption_checks"),
        "distinct.dispatch_ms": ms("distinct.dispatch"),
        "distinct.base_query_ms": ms("distinct.base_query"),
        "distinct.mcs_ms": ms("distinct.mcs"),
        "distinct.eval_mcs_ms": ms("distinct.eval_mcs"),
        "distinct.bmm_ops": per_op("distinct.bmm_ops"),
        "distinct.naive_ops": per_op("distinct.naive_ops"),
        "cli.dispatch_ms": ms("cli.dispatch"),
        "cli.emit_ms": ms("cli.emit"),
        "trace.op_ms_p50_traced": (traced_p50_ms, "ms"),
        "trace.op_ms_p50_untraced": (untraced_p50_ms, "ms"),
        "trace.overhead_ratio": ratio(traced_p50_ms, untraced_p50_ms),
        "trace.uncovered_ratio": ratio(op_s["op"], op_total),
    })
    return metrics
