"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import lubm
import reference
import run
import tracing
from check import run_gate
from templates import WORKLOAD_TEMPLATES
from workloads import WORKLOADS, build_ops

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = 1  # universities

# Layers each workload must show spans for in a traced op.
LAYERS = {
    "point": {"cli.dispatch", "cli.emit", "store.open", "store.slice_build", "parser.parse",
              "executor.run_query", "structure.analyze", "rewriter.rewrite", "pruning.load",
              "pruning.prune", "patmat.select", "executor.join", "executor.best_match"},
    "analytic": {"store.bitmat", "parser.parse", "executor.run_query", "structure.analyze",
                 "rewriter.rewrite", "pruning.load", "pruning.prune", "patmat.select",
                 "executor.join", "executor.best_match"},
    "distinct": {"distinct.dispatch", "distinct.base_query", "distinct.mcs", "distinct.eval_mcs",
                 "bitmat.bmm", "executor.best_match", "pruning.load", "executor.join"},
}
SETUP_LAYERS = {"ntriples.parse", "store.dict_build", "store.save"}


def test_generator_is_deterministic(capsys):
    first = lubm.generate(3, 2).ntriples()
    assert first == lubm.generate(3, 2).ntriples()
    assert first != lubm.generate(4, 2).ntriples()
    lubm.main(["--seed", "3", "--scale", "2"])
    assert capsys.readouterr().out == first


def test_ops_are_deterministic():
    for spec in WORKLOADS.values():
        _, ops = build_ops(spec, 5, TINY)
        _, again = build_ops(spec, 5, TINY)
        assert [(op.op_id, op.text) for op in ops] == [(op.op_id, op.text) for op in again]


def _raw_targets():
    out = []
    for module_name, path, _ in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_wrappers_restore_originals():
    before = _raw_targets()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


def test_committed_digests_reproduce():
    with open(run.COMMITTED_DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh)
    assert set(committed) == set(WORKLOADS)
    for workload, by_seed in committed.items():
        assert by_seed
        for seed, digests in by_seed.items():
            assert reference.expected_digests(workload, int(seed)) == digests


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_matches_reference_at_tiny_scale(workload, tmp_path):
    spec = WORKLOADS[workload]
    runner = _tiny_runner(spec, tmp_path)
    expected = reference.expected_digests(workload, 2, TINY)
    runner.setup()
    runner.warm_up()
    for op in runner.ops:
        assert run.check_op(runner, op, runner.execute(op), expected) is None, op.op_id


@pytest.mark.parametrize("extra", ["duplicate", "subsumed"])
def test_check_rejects_a_duplicate_or_subsumed_row(extra, tmp_path, monkeypatch):
    runner = _tiny_runner(WORKLOADS["distinct"], tmp_path)
    expected = reference.expected_digests("distinct", 2, TINY)
    runner.setup()
    runner.warm_up()
    op = next(op for op in runner.ops if runner.rows(runner.execute(op)))
    raw = runner.execute(op)
    rows = runner.rows(raw)
    assert run.check_op(runner, op, raw, expected) is None
    first = rows[0]
    if extra == "duplicate":
        added = first
    else:
        i = next(i for i, v in enumerate(first) if v)
        added = first[:i] + ("",) + first[i + 1:]
    # Normalizing would hide the extra row; the check must not.
    assert reference.minimum_union(rows + [added]) == sorted(rows)
    monkeypatch.setattr(runner, "rows", lambda raw: rows + [added])
    assert run.check_op(runner, op, raw, expected) == "wrong digest"


def test_host_scaling_follows_the_kernel_around_each_op():
    ref = run.REFERENCE_KERNEL_S
    assert run.host_scaled([0.01, 0.02], [ref, ref]) == [0.01, 0.02]
    # The host halves its speed after op 10: ops there take twice as long
    # and so do the kernels run after them; scaled, every op reads the same.
    latencies = [0.01] * 10 + [0.02] * 10
    kernels = [ref] * 10 + [2 * ref] * 10
    scaled = run.host_scaled(latencies, kernels)
    far = [x for i, x in enumerate(scaled) if abs(i - 9.5) > run.KERNEL_NEIGHBOURS]
    assert far == pytest.approx([0.01] * len(far))


def _tiny_runner(spec, tmp_path):
    dataset, ops = build_ops(spec, 2, TINY)
    nt_path = str(tmp_path / "data.nt")
    with open(nt_path, "w", encoding="utf-8") as fh:
        fh.write(dataset.ntriples())
    return run.Runner(spec, str(tmp_path), ops, nt_path)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_ops_span_every_layer(workload, tmp_path):
    spec = WORKLOADS[workload]
    runner = _tiny_runner(spec, tmp_path)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        runner.setup()
        runner.warm_up()
        firsts = {op.template.name: op for op in reversed(runner.ops)}
        assert set(firsts) == {t.name for t in WORKLOAD_TEMPLATES[workload]}
        for op in firsts.values():  # one op per template
            tracer.begin_op(op.op_id)
            runner.execute(op)
            tracer.end_op()
    finally:
        tracer.uninstall()
    in_ops = {s.name for s in tracer.spans if s.op is not None}
    in_setup = {s.name for s in tracer.spans if s.op is None}
    assert LAYERS[workload] <= in_ops, LAYERS[workload] - in_ops
    assert SETUP_LAYERS <= in_setup
    assert all(s.end >= s.start for s in tracer.spans)
    counts = tracer.op_counts()
    assert counts["bitmat.row_encodes"] > 0 and counts["patmat.probes"] > 0
    metrics = tracing.layer_metrics(tracer, 3, 1.0, 1.0)
    assert 0 <= metrics["trace.uncovered_ratio"][0] < 0.5


def test_check_scale_gate_agrees_with_oracle():
    assert run_gate(seed=1, out=open(os.devnull, "w")) == 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
