"""Deterministic data shaped like LUBM (Guo, Pan & Heflin, J. Web Semantics 2005).

Each university has departments; each department has professors, courses,
undergraduate and graduate students and publications, linked by the LUBM
predicates ``type``, ``subOrganizationOf``, ``worksFor``, ``memberOf``,
``teacherOf``, ``takesCourse``, ``advisor``, ``publicationAuthor`` and
``degreeFrom``, plus integer ``age`` literals. One university is about 3.7k
triples over 10 predicates. The same ``(seed, scale)`` always gives the same
bytes: only ``random.Random`` draws that are stable across Python versions
are used, in a fixed order.

Usage: python3 perfbench/lubm.py --seed 1 --scale 2 > data.nt
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
PREFIXES = f"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX ub: <{UB}>\n"

DEPARTMENTS = 6
PROFESSORS = 8  # per department; fixed, so every university has the same size
UNDERGRADS_PER_PROF = 8
GRADS_PER_PROF = 2
PROF_KINDS = ("FullProfessor", "AssociateProfessor", "AssistantProfessor")


@dataclass
class Department:
    iri: str
    professors: list[str] = field(default_factory=list)
    courses: list[str] = field(default_factory=list)
    grad_courses: list[str] = field(default_factory=list)
    grads: list[str] = field(default_factory=list)


@dataclass
class Dataset:
    """The generated triples plus the entity pools query constants come from."""

    triples: list[tuple[str, str, "str | int"]]
    universities: list[str]
    departments: list[Department]

    def ntriples(self) -> str:
        lines = []
        for s, p, o in self.triples:
            obj = str(o) if isinstance(o, int) else f"<{o}>"
            lines.append(f"<{s}> <{p}> {obj} .\n")
        return "".join(lines)

    def professors(self) -> list[str]:
        return [p for d in self.departments for p in d.professors]

    def courses(self) -> list[str]:
        return [c for d in self.departments for c in d.courses + d.grad_courses]


def generate(seed: int, scale: int) -> Dataset:
    """``scale`` universities of LUBM-shaped data drawn from ``seed``."""
    if scale < 1:
        raise ValueError("scale must be at least 1")
    rng = random.Random(seed)
    triples: list[tuple[str, str, "str | int"]] = []
    universities = [f"http://www.University{u}.edu" for u in range(scale)]
    departments: list[Department] = []

    def add(s: str, p: str, o: "str | int") -> None:
        triples.append((s, p, o))

    for univ in universities:
        add(univ, RDF_TYPE, UB + "University")
        for d in range(DEPARTMENTS):
            dept = Department(univ.replace("www.", f"www.Department{d}."))
            departments.append(dept)
            add(dept.iri, RDF_TYPE, UB + "Department")
            add(dept.iri, UB + "subOrganizationOf", univ)
            for k in range(PROFESSORS):
                kind = PROF_KINDS[k % len(PROF_KINDS)]
                prof = f"{dept.iri}/{kind}{k}"
                dept.professors.append(prof)
                for c in range(2):
                    course = f"{dept.iri}/Course{2 * k + c}"
                    if c == 0:
                        dept.courses.append(course)
                    else:
                        dept.grad_courses.append(course)
            for prof in dept.professors:
                add(prof, RDF_TYPE, UB + prof.rsplit("/", 1)[1].rstrip("0123456789"))
                add(prof, UB + "worksFor", dept.iri)
                add(prof, UB + "degreeFrom", rng.choice(universities))
                add(prof, UB + "age", rng.randint(30, 69))
            for k, prof in enumerate(dept.professors):
                add(prof, UB + "teacherOf", dept.courses[k])
                add(prof, UB + "teacherOf", dept.grad_courses[k])
            for course in dept.courses:
                add(course, RDF_TYPE, UB + "Course")
            for course in dept.grad_courses:
                add(course, RDF_TYPE, UB + "GraduateCourse")
            for i in range(UNDERGRADS_PER_PROF * PROFESSORS):
                student = f"{dept.iri}/UndergraduateStudent{i}"
                add(student, RDF_TYPE, UB + "UndergraduateStudent")
                add(student, UB + "memberOf", dept.iri)
                add(student, UB + "age", rng.randint(17, 24))
                for course in rng.sample(dept.courses, rng.randint(2, 4)):
                    add(student, UB + "takesCourse", course)
                if rng.random() < 0.2:
                    add(student, UB + "advisor", rng.choice(dept.professors))
            for i in range(GRADS_PER_PROF * PROFESSORS):
                student = f"{dept.iri}/GraduateStudent{i}"
                dept.grads.append(student)
                add(student, RDF_TYPE, UB + "GraduateStudent")
                add(student, UB + "memberOf", dept.iri)
                add(student, UB + "age", rng.randint(22, 34))
                add(student, UB + "degreeFrom", rng.choice(universities))
                add(student, UB + "advisor", rng.choice(dept.professors))
                for course in rng.sample(dept.grad_courses, rng.randint(1, 3)):
                    add(student, UB + "takesCourse", course)
            n_pub = 0
            for prof in dept.professors:
                for _ in range(rng.randint(1, 3)):
                    pub = f"{dept.iri}/Publication{n_pub}"
                    n_pub += 1
                    add(pub, RDF_TYPE, UB + "Publication")
                    add(pub, UB + "publicationAuthor", prof)
                    if rng.random() < 0.5:
                        add(pub, UB + "publicationAuthor", rng.choice(dept.grads))
    return Dataset(triples, universities, departments)


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=int, default=1, help="number of universities")
    args = ap.parse_args(argv)
    sys.stdout.write(generate(args.seed, args.scale).ntriples())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
