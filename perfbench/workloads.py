"""The three workloads: data scale, templates, and how one op is run.

* ``point``: cold, shaped like the CLI at about 36k triples. Every op is a
  ``bitopt query`` invocation in-process, so it pays ``TripleStore.open``
  and cold index-slice builds; the join touches tens of rows.
* ``analytic``: warm library use at about 36k triples. The store is opened
  once and an untimed pass over every op fills the slice cache, so pruning,
  the join, nullification and best-match do the work.
* ``distinct``: warm, at about 14k triples. Every op is ``distinct_eval``,
  the only path through covering subgraphs, matrix products and the
  subsumption-aware dedup; its cost grows faster than linearly with the
  result, hence the smaller scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import lubm
from templates import WORKLOAD_TEMPLATES, Template


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scale: int  # universities
    warm: bool  # store opened once in set-up, slice cache filled before timing
    instances: dict[str, int]  # constant draws per template, in one op cycle
    why: str


# How many ops of each template one cycle holds. The host's speed comes in
# bursts that make a template's fast side jump from run to run while its
# slow side holds: over 25 s windows, a template's 25th-percentile latency
# spread about twice as far as its 75th. So each reported percentile is
# made to fall in the upper part of one template's latencies (or of a group
# of templates of about equal cost), never in the lower part and never
# between two groups far apart. A group holding the ranks from ``a`` to
# ``b`` of the cycle puts percentile ``r`` at ``(r - a) / (b - a)`` of its
# own latencies.
# * point: the three templates cost about the same (store open dominates),
#   so p50 and p90 fall at 0.5 and 0.9 of one group.
# * analytic: p50 at 0.67 of nested_optional (ranks 12/32 to 18/32 in
#   latency order), p90 at 0.68 of slave_union (22/32 to 32/32).
# * distinct: p50 at 0.70 of filtered_naive and dept_contract (about equal
#   cost, 0 to 20/28), p90 at 0.65 of opt_contract and bgp_contract. Near
#   the upper edge of a group a percentile reads the few largest constants
#   drawn and moves with the seed: at 0.92 of the cheap group, 0.21.
WORKLOADS = {
    "point": WorkloadSpec(
        "point", 10, False, {"prof_courses": 8, "dept_publications": 8, "course_roster": 8},
        "cold CLI queries anchored on one constant: store open and slice builds dominate",
    ),
    "analytic": WorkloadSpec(
        "analytic", 10, True,
        {"top_union": 4, "cyclic_slave": 4, "q1_optional": 4, "nested_optional": 6,
         "master_triangle": 2, "loadtime_filter": 2, "slave_union": 10},
        "warm library queries of the paper's shapes: pruning and the join dominate",
    ),
    "distinct": WorkloadSpec(
        "distinct", 4, True, {"filtered_naive": 4, "dept_contract": 16, "opt_contract": 4, "bgp_contract": 4},
        "warm DISTINCT queries: matrix products and best-match dominate",
    ),
}


@dataclass(frozen=True)
class Op:
    op_id: str
    template: Template
    text: str


def build_ops(spec: WorkloadSpec, seed: int, scale: "int | None" = None) -> tuple[lubm.Dataset, list[Op]]:
    """The generated data and the op cycle of one run. Each template's
    constants are dealt from its pool shuffled by the seed, without
    replacement until the pool is used up, so a cycle covers the data
    evenly and does not hang on a few lucky draws. Each template's ops are
    spread evenly over the cycle, so any stretch of it holds every template
    in about its share."""
    dataset = lubm.generate(seed, spec.scale if scale is None else scale)
    rng = random.Random(seed * 1_000_003 + 17)
    placed = []
    for order, template in enumerate(WORKLOAD_TEMPLATES[spec.name]):
        count = spec.instances[template.name]
        pool = template.pool(dataset)
        deck: list[dict[str, str]] = []
        for i in range(count):
            if not deck:
                deck = rng.sample(pool, len(pool))
            op = Op(f"{template.name}#{i}", template, template.render(deck.pop()))
            placed.append(((i + 0.5) / count, order, op))
    return dataset, [op for _, _, op in sorted(placed, key=lambda p: p[:2])]
