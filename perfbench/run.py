"""bitopt benchmark: one workload, one process, one client in a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

The run generates LUBM-shaped data from the seed, computes the expected
result digest of every op with the indexed reference evaluator in a child
process (so its memory stays out of ``peak_rss_mb``), sets the store up
``SETUP_REPS`` times (``setup_s`` is their median), fills the slice cache
of warm workloads untimed, then runs ops back to back, each starting after
the previous one returned (and after one run of the host-speed kernel),
until the ops have taken ``--seconds`` and at least ``MIN_OPS`` have run.
Every reported time is scaled to a reference host speed; see
``host_scaled``. Every op's output rows, sorted but not
deduplicated, are checked against its expected digest, the reference's
minimum union; a wrong digest, an exception or a non-zero CLI exit counts as
failed. With ``--trace 1`` the same timed loop runs once untraced and
once with layer wrappers installed, and the per-layer metrics are printed
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bench_env
import bitopt.cli
import bitopt.distinct
import bitopt.executor
import bitopt.parser
import bitopt.store
import reference
import tracing
from workloads import WORKLOADS, Op, WorkloadSpec, build_ops

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5
# The shared host runs the same code a fifth or more faster or slower from
# one minute to the next, and a run sees only half a minute of it. So
# every op is followed by one run of a fixed pure-Python kernel, each set-up
# is bracketed by SETUP_KERNELS runs of it, and every reported time is
# scaled by REFERENCE_KERNEL_S over the median kernel time measured around
# it: the time the work would take on a host where the kernel takes
# REFERENCE_KERNEL_S (about this 2-vCPU host's usual speed).
KERNEL_ROWS = 6_000
REFERENCE_KERNEL_S = 0.0025
KERNEL_NEIGHBOURS = 4  # an op is scaled by the kernels of the 2 * 4 + 1 ops around it
SETUP_KERNELS = 5
MIN_OPS = 100  # so that at least 10 samples lie beyond the reported p90
COMMITTED_DIGESTS = os.path.join(HERE, "expected_digests.json")


class Runner:
    """Sets the store up and runs one op the way its workload's user would."""

    def __init__(self, spec: WorkloadSpec, work: str, ops: list[Op], nt_path: str):
        self.spec = spec
        self.ops = ops
        self.nt_path = nt_path
        self.store_dir = os.path.join(work, "store")
        self.out_path = os.path.join(work, "out.tsv")
        self.query_paths = {}
        if spec.name == "point":
            for i, op in enumerate(ops):
                self.query_paths[op.op_id] = path = os.path.join(work, f"q{i}.rq")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(op.text)
        self.store = None
        self.triple_count = 0

    def setup(self) -> float:
        """Load and save; warm workloads then open the store. Returns the wall
        seconds taken, unscaled."""
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store = None  # the last set-up's store must not add to peak RSS
        started = time.perf_counter()
        with open(self.nt_path, "rb") as fh:
            store = bitopt.store.TripleStore.from_ntriples(fh.read())
        store.save(self.store_dir)
        if self.spec.warm:
            store = bitopt.store.TripleStore.open(self.store_dir)
        elapsed = time.perf_counter() - started
        self.triple_count = store.triple_count
        if self.spec.warm:
            self.store = store
        return elapsed

    def warm_up(self) -> None:
        """Untimed: on warm workloads, run every distinct query text once,
        which fills the slice cache for the timed ops."""
        if not self.spec.warm:
            return
        seen = set()
        for op in self.ops:
            if op.text not in seen:
                seen.add(op.text)
                self.execute(op)

    def execute(self, op: Op):
        if self.spec.name == "point":
            argv = ["query", self.store_dir, self.query_paths[op.op_id], "-o", self.out_path]
            return bitopt.cli.main(argv)
        query = bitopt.parser.parse(op.text)
        if self.spec.name == "distinct":
            return query, bitopt.distinct.distinct_eval(query, self.store)
        return query, bitopt.executor.run_query(query, self.store)

    def rows(self, raw) -> "list[tuple[str, ...]] | None":
        """Rendered projected rows of an op's output; None for a CLI failure."""
        if self.spec.name == "point":
            if raw != 0:
                return None
            with open(self.out_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            return [tuple(line.split("\t")) for line in lines]
        query, result = raw
        if self.spec.name == "distinct":
            relation = result.relation
        else:
            relation = result.relation.project(query.projection)
        return [tuple(reference.render(t) for t in row) for row in relation.rows]

    def store_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.store_dir, f)) for f in os.listdir(self.store_dir))


def kernel_seconds() -> float:
    """Wall seconds of the fixed host-speed kernel; it touches no bitopt code.
    Like the engine, it builds tuples, groups them in a dict, sorts and
    deduplicates, so it slows down with the host's memory traffic as well as
    with its clock; an integer loop alone tracked the store-bound ``point``
    ops half as well."""
    started = time.perf_counter()
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(KERNEL_ROWS):
        key = i * 7919 % 199
        groups.setdefault(key, []).append((i, key, i * 31 % 97))
    for rows in groups.values():
        rows.sort(key=lambda row: row[2])
        {row[2] for row in rows}
    return time.perf_counter() - started


def host_scaled(latencies: list[float], kernels: list[float]) -> list[float]:
    """Each latency scaled to the reference host speed, by the median of the
    kernel times measured right after the ops around it."""
    k = KERNEL_NEIGHBOURS
    return [x * REFERENCE_KERNEL_S / statistics.median(kernels[max(0, i - k): i + k + 1])
            for i, x in enumerate(latencies)]


def scaled_setup(runner: Runner) -> "tuple[float, float]":
    """One set-up bracketed by kernel runs: (scaled seconds, raw seconds)."""
    before = [kernel_seconds() for _ in range(SETUP_KERNELS)]
    elapsed = runner.setup()
    after = [kernel_seconds() for _ in range(SETUP_KERNELS)]
    return elapsed * REFERENCE_KERNEL_S / statistics.median(before + after), elapsed


def timed_loop(runner: Runner, expected: dict, seconds: float, tracer: "tracing.Tracer | None" = None):
    """Closed loop over the op cycle. Returns (latencies in s, kernel times
    in s, failed count); ``kernels[i]`` was measured right after op ``i``.

    The loop stops only after a whole op cycle, so every template is timed
    in its share and the percentiles do not shift with where the time ran
    out."""
    latencies: list[float] = []
    kernels: list[float] = []
    failed = 0
    busy = 0.0
    wall_start = time.perf_counter()
    i = 0
    while busy < seconds or len(latencies) < MIN_OPS or i % len(runner.ops):
        if time.perf_counter() - wall_start > 2 * seconds + 10:
            break  # slow ops: keep the run bounded, report what was measured
        op = runner.ops[i % len(runner.ops)]
        if tracer is not None:
            tracer.begin_op(f"{i}:{op.op_id}")
        error = None
        started = time.perf_counter()
        try:
            raw = runner.execute(op)
        except Exception as exc:  # a failing op is counted, never dropped
            error = exc
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        latencies.append(elapsed)
        kernels.append(kernel_seconds())
        busy += elapsed
        i += 1
        why = repr(error) if error is not None else check_op(runner, op, raw, expected)
        if why is None:
            continue
        failed += 1
        print(f"op {op.op_id} failed: {why}", file=sys.stderr)
    return latencies, kernels, failed


def check_op(runner: Runner, op: Op, raw, expected: dict) -> "str | None":
    """None when the op's output is right, else why not. The rows are hashed
    as the engine returned them, only sorted, so a duplicate or subsumed row
    left in them is a wrong digest."""
    rows = runner.rows(raw)
    if rows is None:
        return f"CLI exit {raw}"
    if reference.digest(rows) != expected[op.op_id]:
        return "wrong digest"
    return None


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def expected_digests(workload: str, seed: int, work: str) -> dict[str, str]:
    """Reference digests from a child process, checked against the committed
    ones when the seed has any."""
    out = os.path.join(work, "expected.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"), "--workload", workload, "--seed", str(seed), "--out", out],
        check=True,
        timeout=150,
    )
    with open(out, encoding="utf-8") as fh:
        digests = json.load(fh)
    with open(COMMITTED_DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh).get(workload, {}).get(str(seed))
    if committed is not None and committed != digests:
        raise SystemExit(f"error: expected digests for {workload} seed {seed} differ from {COMMITTED_DIGESTS}")
    return digests


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description="bitopt benchmark, one workload per process")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    work = os.path.join(bench_env.ROOT, ".perfbench_work", spec.name)  # replaced by each run
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    dataset, ops = build_ops(spec, args.seed)
    nt_path = os.path.join(work, "data.nt")
    with open(nt_path, "w", encoding="utf-8") as fh:
        fh.write(dataset.ntriples())
    del dataset
    expected = expected_digests(spec.name, args.seed, work)

    runner = Runner(spec, work, ops, nt_path)
    setups = [scaled_setup(runner) for _ in range(SETUP_REPS)]
    runner.warm_up()
    raw, kernels, failed = timed_loop(runner, expected, args.seconds)
    latencies = host_scaled(raw, kernels)
    attempted = len(latencies)
    p50 = 1000 * statistics.median(latencies)
    lines = [
        f"workload {spec.name} seed {args.seed}: {spec.why}",
        f"host-speed kernel median {1000 * statistics.median(kernels):.3f} ms, reference "
        f"{1000 * REFERENCE_KERNEL_S:.3f} ms; unscaled: op_ms_p50 {1000 * statistics.median(raw):.4g} ms, "
        f"op_ms_p90 {1000 * percentile_90(raw):.4g} ms, setup_s {statistics.median(r for _, r in setups):.4g} s",
    ]

    if args.trace:
        tracer = tracing.Tracer()
        try:
            tracer.install()
            runner.setup()
            runner.warm_up()
            traced_raw, traced_kernels, traced_failed = timed_loop(runner, expected, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(work, "spans.jsonl"))
        traced = host_scaled(traced_raw, traced_kernels)
        attempted += len(traced)
        failed += traced_failed
        layers = tracing.layer_metrics(tracer, len(traced), 1000 * statistics.median(traced), p50)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        p90 = 1000 * percentile_90(latencies)
        beyond = sum(1 for x in latencies if 1000 * x > p90)
        lines.append(f"op_ms_p90 from {attempted} samples, {beyond} beyond it")
        metrics = {
            "setup_s": {"value": statistics.median(scaled for scaled, _ in setups), "unit": "s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p90": {"value": p90, "unit": "ms"},
            "ops_per_s": {"value": attempted / sum(latencies), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "store_bytes_per_triple": {"value": runner.store_bytes() / runner.triple_count, "unit": "B"},
        }
    lines.append(f"failed_frac = {failed / attempted:.6f} ({failed} failed / {attempted} attempted)")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
