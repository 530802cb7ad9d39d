"""Plain-text plan report: serialized algebra, supernode membership, edge
lists, the structure report, pruning schedules, and join orders. Line
oriented key=value so golden tests survive additive changes."""

from __future__ import annotations

from .algebra import Query, serialize
from .executor import EngineResult, Plan
from .structure import Gosn, Got

FORMAT_VERSION = 1


def _bool(value: bool) -> str:
    return "true" if value else "false"


def render_explain(query: Query, result: Plan, extra: "list[str] | None" = None) -> str:
    """The report of a run (an ``EngineResult``), or of a plan that was not
    executed (DISTINCT's matrix path), which applied no best-match."""
    lines = [f"explain-format={FORMAT_VERSION}"]
    lines.append("section=query")
    lines.append(f"algebra={serialize(query)}")
    lines.append("projection=" + ",".join(str(v) for v in query.projection))
    lines.append(f"distinct={_bool(query.distinct)}")
    lines.append("section=unf")
    lines.append(f"disjunct_count={len(result.disjuncts)}")
    lines.append(f"rule3_used={_bool(result.rule3_used)}")
    lines.append(f"best_match_applied={_bool(isinstance(result, EngineResult) and result.best_match_applied)}")
    for trace in result.disjuncts:
        schedule = trace.schedule
        if schedule is None:
            continue
        lines.append(f"section=pruning {trace.algebra}")
        lines.append(f"regime={schedule.regime}")
        lines.append("sn_order=" + ",".join(f"SN{sid}" for sid in schedule.sn_order))
        for step in schedule.all_steps():
            lines.append(f"step={step.describe()}")
    for i, trace in enumerate(result.disjuncts, start=1):
        lines.append(f"section=disjunct.{i}")
        lines.append(f"algebra={trace.algebra}")
        lines.extend(_render_gosn(trace.gosn))
        lines.extend(_render_got(trace.got))
        for key, value in trace.report.as_pairs():
            lines.append(f"{key}={_bool(value)}")
        lines.append(f"nullification={_bool(trace.nulreqd)}")
        lines.append("stps=" + ",".join(f"T{idx}" for idx in trace.stps))
    for line in extra or []:
        lines.append(line)
    return "\n".join(lines) + "\n"


def _render_gosn(gosn: Gosn) -> list[str]:
    lines = []
    for sid in sorted(gosn.supernodes):
        sn = gosn.supernodes[sid]
        members = ",".join(tp.label for tp in sn.patterns)
        suffix = " absolute_master" if sn.is_absolute_master else ""
        lines.append(f"supernode=SN{sid} patterns={members}{suffix}")
    for m, s in sorted(gosn.uni_edges):
        lines.append(f"gosn.uni=SN{m}->SN{s}")
    for a, b in sorted(gosn.bi_edges):
        lines.append(f"gosn.bi=SN{a}<->SN{b}")
    return lines


def _render_got(got: Got) -> list[str]:
    lines = []
    for pair in sorted(got.edges, key=lambda p: tuple(sorted(p))):
        i, j = sorted(pair)
        label = ",".join(sorted(str(v) for v in got.edges[pair]))
        lines.append(f"got.edge=T{i}-T{j} {{{label}}}")
    return lines
