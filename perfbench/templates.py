"""Query templates of the three workloads, with the reason for each.

A template is query text with ``{name}`` slots; ``pool`` lists every choice
of slot constants the generated data offers. A workload deals each
template's constants from its pool in an order the seed shuffles, so the
same seed always gives the same ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from lubm import PREFIXES, Dataset


@dataclass(frozen=True)
class Template:
    name: str
    why: str
    text: str
    pool: Callable[[Dataset], list[dict[str, str]]]

    def render(self, consts: dict[str, str]) -> str:
        return PREFIXES + self.text.format(**{k: f"<{v}>" for k, v in consts.items()})


def _prof(ds: Dataset) -> list[dict[str, str]]:
    return [{"prof": p} for p in ds.professors()]


def _dept(ds: Dataset) -> list[dict[str, str]]:
    return [{"dept": d.iri} for d in ds.departments]


def _course(ds: Dataset) -> list[dict[str, str]]:
    return [{"course": c} for c in ds.courses()]


def _univ(ds: Dataset) -> list[dict[str, str]]:
    return [{"univ": u} for u in ds.universities]


def _dept_and_prof(ds: Dataset) -> list[dict[str, str]]:
    return [{"dept": d.iri, "prof": p} for d in ds.departments for p in d.professors]


POINT = (
    Template(
        "prof_courses",
        "anchored on a professor: a P-O row for the constant subject, a P-S row for the "
        "constant object, and the whole takesCourse matrix for the optional block",
        """SELECT ?course ?student WHERE {{
  {prof} ub:teacherOf ?course .
  OPTIONAL {{ ?student ub:takesCourse ?course . ?student ub:advisor {prof} . }}
}}""",
        _prof,
    ),
    Template(
        "dept_publications",
        "anchored on a department, nested OPTIONAL: professors, their papers, and the "
        "co-authors they advise; tens of rows but three full predicate matrices",
        """SELECT ?prof ?pub ?coauthor WHERE {{
  ?prof ub:worksFor {dept} .
  OPTIONAL {{ ?pub ub:publicationAuthor ?prof .
    OPTIONAL {{ ?pub ub:publicationAuthor ?coauthor . ?coauthor ub:advisor ?prof . }} }}
}}""",
        _dept,
    ),
    Template(
        "course_roster",
        "anchored on a course: its students and, optionally, their advisor's department; "
        "the optional block is a two-pattern chain away from the anchor",
        """SELECT ?student ?advisor ?dept WHERE {{
  ?student ub:takesCourse {course} .
  OPTIONAL {{ ?student ub:advisor ?advisor . ?advisor ub:worksFor ?dept . }}
}}""",
        _course,
    ),
)

ANALYTIC = (
    Template(
        "q1_optional",
        "the sitcom query Q1 at scale: an anchor, a member list, and an optional block "
        "that joins back to a second constant (Jerry/hasFriend/actedIn/location NYC)",
        """SELECT ?student ?course WHERE {{
  ?student ub:memberOf {dept} .
  OPTIONAL {{ ?student ub:takesCourse ?course . {prof} ub:teacherOf ?course . }}
}}""",
        _dept_and_prof,
    ),
    Template(
        "nested_optional",
        "OPTIONAL inside OPTIONAL over a whole university: the inner block goes NULL "
        "as a unit when a graduate student has no paper",
        """SELECT ?prof ?student ?pub WHERE {{
  ?prof ub:worksFor ?dept . ?dept ub:subOrganizationOf {univ} .
  OPTIONAL {{ ?student ub:advisor ?prof . ?student rdf:type ub:GraduateStudent .
    OPTIONAL {{ ?pub ub:publicationAuthor ?student . }} }}
}}""",
        _univ,
    ),
    Template(
        "master_triangle",
        "LUBM Q9's advisor/teacherOf/takesCourse triangle inside the absolute master: "
        "cyclic, yet nullification and best-match may be skipped",
        """SELECT ?student ?prof ?course ?age WHERE {{
  ?prof ub:degreeFrom {univ} . ?student ub:advisor ?prof .
  ?prof ub:teacherOf ?course . ?student ub:takesCourse ?course .
  OPTIONAL {{ ?student ub:age ?age . }}
}}""",
        _univ,
    ),
    Template(
        "cyclic_slave",
        "two edge classes (?student and ?prof) cross into the optional block, so the "
        "classifier demands nullification and best-match; an advisor's papers the "
        "student did not co-author leave NULL rows that best-match must drop",
        """SELECT ?student ?prof ?pub WHERE {{
  ?student ub:memberOf {dept} . ?student ub:advisor ?prof .
  OPTIONAL {{ ?pub ub:publicationAuthor ?prof . ?pub ub:publicationAuthor ?student . }}
}}""",
        _dept,
    ),
    Template(
        "slave_union",
        "a UNION on the slave side of an OPTIONAL: the union-normal-form rewrite sets "
        "rule3_used, so best-match runs over the union of the disjuncts",
        """SELECT ?prof ?x WHERE {{
  ?prof ub:worksFor ?dept . ?dept ub:subOrganizationOf {univ} .
  OPTIONAL {{ {{ ?x ub:advisor ?prof . }} UNION {{ ?x ub:publicationAuthor ?prof . }} }}
}}""",
        _univ,
    ),
    Template(
        "top_union",
        "a UNION at the top: two disjuncts joined and unioned without best-match, the "
        "contrast to slave_union",
        """SELECT ?person ?age WHERE {{
  {{ ?person ub:worksFor {dept} . }} UNION {{ ?person ub:memberOf {dept} . }}
  ?person ub:age ?age .
}}""",
        _dept,
    ),
    Template(
        "loadtime_filter",
        "a single-variable FILTER on a master variable becomes a load-time mask on the "
        "age matrix before pruning",
        """SELECT ?student ?age ?course WHERE {{
  ?student ub:memberOf {dept} . ?student ub:age ?age . ?student ub:takesCourse ?course .
  FILTER(?age < 20)
}}""",
        _dept,
    ),
)

DISTINCT = (
    Template(
        "bgp_contract",
        "acyclic BGP over one university whose non-projected ?course and ?prof are "
        "contracted by Boolean matrix products (path bmm-bgp)",
        """SELECT DISTINCT ?student ?dept WHERE {{
  ?student ub:takesCourse ?course . ?prof ub:teacherOf ?course .
  ?prof ub:worksFor ?dept . ?dept ub:subOrganizationOf {univ} .
}}""",
        _univ,
    ),
    Template(
        "dept_contract",
        "acyclic BGP anchored on one department, ?course contracted by a matrix product "
        "(path bmm-bgp); a few hundred rows, so best-match stays small and the matrix "
        "path's own cost shows; the median op falls on it or on filtered_naive",
        """SELECT DISTINCT ?student ?prof WHERE {{
  ?student ub:takesCourse ?course . ?prof ub:teacherOf ?course . ?prof ub:worksFor {dept} .
}}""",
        _dept,
    ),
    Template(
        "opt_contract",
        "acyclic BGP-OPT: the slave keeps its own projected ?degree while the slave-only "
        "?prof is contracted (path bmm-bgp-opt); students without an advisor go NULL",
        """SELECT DISTINCT ?student ?degree WHERE {{
  ?student ub:memberOf ?dept . ?dept ub:subOrganizationOf {univ} .
  OPTIONAL {{ ?student ub:advisor ?prof . ?prof ub:degreeFrom ?degree . }}
}}""",
        _univ,
    ),
    Template(
        "filtered_naive",
        "a FILTER makes the query ineligible for matrix products, so it is evaluated "
        "then deduplicated (path naive); projecting ?course away repeats every student "
        "once per course, so the dedup matters",
        """SELECT DISTINCT ?student ?dept WHERE {{
  ?student ub:memberOf ?dept . ?dept ub:subOrganizationOf {univ} .
  ?student ub:age ?age . ?student ub:takesCourse ?course .
  FILTER(?age < 21)
}}""",
        _univ,
    ),
)

WORKLOAD_TEMPLATES = {"point": POINT, "analytic": ANALYTIC, "distinct": DISTINCT}
