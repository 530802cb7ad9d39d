import pytest

from bitopt.store import TripleStore

EX = "http://example.org/"

# The eight-triple sitcom fixture: two friends, five acting credits, one
# located sitcom.
SEINFELD_NT = f"""\
<{EX}Jerry> <{EX}hasFriend> <{EX}Julia> .
<{EX}Jerry> <{EX}hasFriend> <{EX}Larry> .
<{EX}Larry> <{EX}actedIn> <{EX}CurbYourEnthusiasm> .
<{EX}Julia> <{EX}actedIn> <{EX}Seinfeld> .
<{EX}Julia> <{EX}actedIn> <{EX}Veep> .
<{EX}Julia> <{EX}actedIn> <{EX}NewAdventuresOfOldChristine> .
<{EX}Julia> <{EX}actedIn> <{EX}CurbYourEnthusiasm> .
<{EX}Seinfeld> <{EX}location> <{EX}NYC> .
"""

Q1_TEXT = """\
SELECT ?friend ?sitcom WHERE {
  :Jerry :hasFriend ?friend .
  OPTIONAL { ?friend :actedIn ?sitcom . ?sitcom :location :NYC . }
}
"""

Q2_TEXT = """\
SELECT ?friend ?sitcom WHERE {
  :Jerry :hasFriend ?friend .
  { { ?friend :actedIn ?sitcom . }
    UNION
    { ?friend :hasFriend ?friend2 . ?friend2 :actedIn ?sitcom . } }
  OPTIONAL { ?sitcom :hasDirector ?dir . ?sitcom :location :NYC . }
}
"""

# Jerry directs a located sitcom, so the director filter has a row to null.
FILTER_NT = SEINFELD_NT + f"""\
<{EX}Julia> <{EX}age> 45 .
<{EX}Larry> <{EX}age> 52 .
<{EX}Newman> <{EX}age> 70 .
<{EX}Jerry> <{EX}hasFriend> <{EX}Newman> .
<{EX}Newman> <{EX}actedIn> <{EX}Seinfeld> .
<{EX}Seinfeld> <{EX}hasDirector> <{EX}Jerry> .
<{EX}CurbYourEnthusiasm> <{EX}location> <{EX}LA> .
"""

FILTER_QUERY = """\
SELECT ?friend ?sitcom ?dir WHERE {
  :Jerry :hasFriend ?friend .
  ?friend :age ?age .
  ?friend :actedIn ?sitcom .
  OPTIONAL { ?sitcom :hasDirector ?dir . ?sitcom :location :NYC . }
  FILTER(?age < 60 && ?dir != :Jerry)
}
"""

MOVIES_NT = f"""\
<{EX}PulpFiction> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Movie> .
<{EX}KillBillVol1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Movie> .
<{EX}KillBillVol2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Movie> .
<{EX}AnnieHall> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Movie> .
<{EX}PulpFiction> <{EX}hasActor> <{EX}UmaThurman> .
<{EX}KillBillVol1> <{EX}hasActor> <{EX}UmaThurman> .
<{EX}KillBillVol2> <{EX}hasActor> <{EX}UmaThurman> .
<{EX}AnnieHall> <{EX}hasActor> <{EX}DianeKeaton> .
<{EX}PulpFiction> <{EX}hasDirector> <{EX}QuentinTarantino> .
<{EX}KillBillVol1> <{EX}hasDirector> <{EX}QuentinTarantino> .
<{EX}KillBillVol2> <{EX}hasDirector> <{EX}QuentinTarantino> .
<{EX}AnnieHall> <{EX}hasDirector> <{EX}WoodyAllen> .
"""

MOVIE_QUERY = """\
SELECT DISTINCT ?a ?d WHERE {
  ?m rdf:type :Movie .
  ?m :hasActor ?a .
  ?m :hasDirector ?d .
}
"""

# Two equivalence classes of edges cross from the master into the slave:
# nullification and best-match cannot be skipped.
EXCEPTION2_NT = f"""\
<{EX}a1> <{EX}p> <{EX}b1> .
<{EX}a1> <{EX}p> <{EX}b2> .
<{EX}a1> <{EX}q> <{EX}c1> .
<{EX}c1> <{EX}r> <{EX}b2> .
"""

EXCEPTION2_QUERY = """\
SELECT ?a ?b ?c WHERE {
  ?a :p ?b .
  OPTIONAL { ?a :q ?c . ?c :r ?b . }
}
"""


@pytest.fixture(scope="session")
def seinfeld_store():
    return TripleStore.from_ntriples(SEINFELD_NT)


@pytest.fixture(scope="session")
def filter_store():
    return TripleStore.from_ntriples(FILTER_NT)


@pytest.fixture(scope="session")
def movie_store():
    return TripleStore.from_ntriples(MOVIES_NT)


@pytest.fixture(scope="session")
def exception2_store():
    return TripleStore.from_ntriples(EXCEPTION2_NT)


def local(term) -> str:
    """Shorten a term to its local name for readable assertions."""
    if term is None:
        return "NULL"
    rendered = term.n3()
    if rendered.startswith("<"):
        return rendered.rsplit("/", 1)[-1].rstrip(">")
    return rendered


def rows_of(relation) -> list[tuple[str, ...]]:
    return sorted(tuple(local(t) for t in row) for row in relation.rows)


def oracle_relation(query, store):
    """Oracle result projected like the engine's, for comparisons."""
    from bitopt.executor import Relation
    from bitopt.oracle import oracle_eval

    raw = oracle_eval(query, store.term_triples())
    return Relation(
        tuple(query.projection),
        [tuple(r.get(v) for v in query.projection) for r in raw.rows],
    )


def engine_relation(query, store, config=None):
    from bitopt.executor import run_query

    return run_query(query, store, config).relation.project(query.projection)


def cell_bindings(pm, dictionary) -> list[dict]:
    """Term bindings of every triple a working matrix holds."""
    out = []
    for r, c in pm.bm.cells():
        binding = {}
        if pm.row_var is not None:
            binding[pm.row_var] = dictionary.term(dictionary.key(pm.bm.row_space, r))
        if pm.col_var is not None:
            binding[pm.col_var] = dictionary.term(dictionary.key(pm.bm.col_space, c))
        out.append(binding)
    return out


def normalized(relation) -> frozenset:
    from bitopt.executor import best_match

    return frozenset(best_match(relation).rows)
