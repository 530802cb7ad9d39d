"""Dictionary id assignment, loading, index slices, selection rules, and the
on-disk round trip."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitopt import bitmat
from bitopt.bitmat import BitArray
from bitopt.algebra import TriplePattern, Variable
from bitopt.ntriples import NTriplesError, parse_ntriples
from bitopt.patmat import UnsupportedByIndexError, select_pattern_matrix
from bitopt.store import TripleStore
from bitopt.terms import Iri, Literal, term_sort_key
from workload import GenConfig, random_store_text

from conftest import EX, Q1_TEXT, SEINFELD_NT


def iri(name: str) -> Iri:
    return Iri(EX + name)


# Characters str.splitlines() breaks at that N-Triples allows raw in a literal.
RAW_BREAKS = ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e"]


class TestNTriples:
    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n" + f"<{EX}a> <{EX}p> <{EX}b> . # trailing\n"
        assert len(list(parse_ntriples(text))) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(NTriplesError) as err:
            list(parse_ntriples(f"<{EX}a> <{EX}p> <{EX}b> .\nnot a triple\n"))
        assert "line 2" in str(err.value)

    def test_literal_subject_rejected(self):
        with pytest.raises(NTriplesError) as err:
            list(parse_ntriples(f'"lit" <{EX}p> <{EX}b> .'))
        assert "subject" in str(err.value)

    def test_integer_literals_both_forms(self):
        text = (
            f"<{EX}a> <{EX}age> 45 .\n"
            f'<{EX}b> <{EX}age> "55"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            f'<{EX}c> <{EX}age> "+7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        objs = [o for _, _, o in parse_ntriples(text)]
        assert objs == [Literal(45), Literal(55), Literal(7)]

    def test_escapes_decoded(self):
        text = f'<{EX}a> <{EX}p> "tab\\there\\u00e9" .\n<{EX}a> <{EX}p> "\\U0001F600 \\" \\\\ \\b\\f\\r\\n\\\'" .'
        objs = [o for _, _, o in parse_ntriples(text)]
        assert objs == [Literal("tab\thereé"), Literal("\U0001F600 \" \\ \b\f\r\n'")]

    @pytest.mark.parametrize("as_bytes", [False, True])
    @pytest.mark.parametrize("char", RAW_BREAKS)
    def test_only_line_feed_ends_a_line(self, char, as_bytes):
        text = f'<{EX}a> <{EX}p> "x{char}y" .\r\n<{EX}a> <{EX}q> <{EX}b> .\n'
        source = text.encode("utf-8") if as_bytes else text
        assert [o for _, _, o in parse_ntriples(source)] == [Literal(f"x{char}y"), iri("b")]

    @pytest.mark.parametrize("escape", ["\\uD800", "\\U00110000", "\\q", "\\u00e"])
    def test_bad_escape_rejected(self, escape):
        with pytest.raises(NTriplesError) as err:
            list(parse_ntriples(f'<{EX}a> <{EX}p> <{EX}b> .\n<{EX}a> <{EX}p> "x{escape}" .'))
        assert "line 2" in str(err.value)


# Pieces of N-Triples lines for the fast-path parity test: well formed and
# malformed terms of every kind, and the gaps between them.
_XSD_INT = "<http://www.w3.org/2001/XMLSchema#integer>"
_IRI_BODIES = st.text(st.sampled_from("abp:/#.-_9é" + ' \t<"{}|^`\\\u00a0\u2028'), max_size=6)
_TERMS = st.one_of(
    _IRI_BODIES.map(lambda body: f"<{EX}{body}>"),
    st.sampled_from([f"<{EX}a>", f"<{EX}b>", f"<{EX}p>", "<>", f"<{EX}open", f"<{EX}a<b>"]),
    st.from_regex(r"[+-]?[0-9]{0,3}", fullmatch=True),
    st.sampled_from(["7", "07", "+7", "-0", "1.5", "9" * 4301]),
    st.text(st.sampled_from('ab #."\\t'), max_size=5).map(lambda body: f'"{body}"'),
    st.sampled_from(["12", " 12", "x", "", "9" * 4301]).map(lambda lex: f'"{lex}"^^{_XSD_INT}'),
    st.just(f'"12"^^<{EX}other>'),
)
_GAPS = st.sampled_from(["", " ", "\t", " \t "])
_LINES = st.tuples(_GAPS, _TERMS, _GAPS, _TERMS, _GAPS, _TERMS, _GAPS, st.sampled_from(["", " ", "\r"])).map(
    lambda parts: "".join(parts[:7]) + "." + parts[7]
)


def _outcome(text: str):
    try:
        return list(parse_ntriples(text))
    except NTriplesError as exc:
        return f"error: {exc}"


def _commented(text: str) -> str:
    """``text`` with a comment after every line: each line then takes the
    term-by-term path."""
    return "".join(line + " # c\n" for line in text.split("\n"))


class TestFastPath:
    """A line the whole-line match reads gives what the term-by-term path
    gives for the same line with a comment after it, which that match
    never reads."""

    @given(st.lists(_LINES, min_size=1, max_size=4))
    @example([f"<{EX}><{EX}>1.5."])  # trailing content '5.', then a comment
    @settings(max_examples=400, deadline=None)
    def test_same_triples_or_error_as_term_by_term(self, lines):
        text = "\n".join(lines)
        assert _outcome(text) == _outcome(_commented(text))

    @pytest.mark.parametrize("as_lines", [False, True])
    def test_not_utf8_names_line_and_byte(self, as_lines):
        data = f"<{EX}a> <{EX}p> <{EX}b> .\n<{EX}a> <{EX}p> \"x\xff\" .\n".encode("latin-1")
        source = data.splitlines(keepends=True) if as_lines else data
        with pytest.raises(NTriplesError) as err:
            list(parse_ntriples(source))
        assert str(err.value) == f"line 2: not UTF-8 (invalid start byte at byte {len(EX) * 2 + 11} of the line)"

    def test_equal_terms_are_one_object(self):
        text = f"<{EX}a> <{EX}p> 5 .\n<{EX}b> <{EX}p> +5 .\n<{EX}b> <{EX}p> <{EX}a> ."
        (a, p, five), (b, p2, five2), (b2, p3, a2) = parse_ntriples(text)
        assert a is a2 and b is b2 and p is p2 is p3 and five is five2

    def test_store_files_identical(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            import lubm
        finally:
            sys.path.pop(0)
        for name, text in (("seinfeld", SEINFELD_NT), ("lubm", lubm.generate(1, 1).ntriples())):
            plain, commented = tmp_path / f"{name}-plain", tmp_path / f"{name}-commented"
            TripleStore.from_ntriples(text.encode()).save(str(plain))
            TripleStore.from_ntriples(_commented(text).encode()).save(str(commented))
            files = sorted(f.name for f in plain.iterdir())
            assert files == sorted(f.name for f in commented.iterdir())
            for f in files:
                assert (plain / f).read_bytes() == (commented / f).read_bytes(), (name, f)


# The CRC-32 of every file of two saved stores. A change to how rows are held
# in memory or encoded must leave every byte on disk as it is.
GOLDEN_CRCS = {
    "seinfeld": {
        "bm_so_1.bin": 1295755559,
        "bm_so_2.bin": 3755509140,
        "bm_so_3.bin": 2487650833,
        "dict.tsv": 96443862,
        "manifest.txt": 2014984739,
    },
    "lubm": {
        "bm_so_1.bin": 1488373905,
        "bm_so_2.bin": 1368714339,
        "bm_so_3.bin": 3620570026,
        "bm_so_4.bin": 3173441559,
        "bm_so_5.bin": 3717658449,
        "bm_so_6.bin": 2625418664,
        "bm_so_7.bin": 4262796832,
        "bm_so_8.bin": 313511469,
        "bm_so_9.bin": 2339095368,
        "bm_so_10.bin": 507483206,
        "dict.tsv": 3320722154,
        "manifest.txt": 707418789,
    },
}


def _golden_text(name: str) -> str:
    if name == "seinfeld":
        return SEINFELD_NT
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import lubm
    finally:
        sys.path.pop(0)
    return lubm.generate(1, 1).ntriples()


@pytest.mark.parametrize("name", sorted(GOLDEN_CRCS))
def test_golden_store_bytes(name, tmp_path):
    import zlib

    store = TripleStore.from_ntriples(_golden_text(name))
    store.save(str(tmp_path / "fresh"))
    TripleStore.open(str(tmp_path / "fresh")).save(str(tmp_path / "resaved"))
    for directory in ("fresh", "resaved"):
        got = {f.name: zlib.crc32(f.read_bytes()) for f in (tmp_path / directory).iterdir()}
        assert got == GOLDEN_CRCS[name], directory


def test_matrix_file_is_header_and_rows(tmp_path):
    # Seven header words, then an index and a length word per stored row and
    # one word per triple: a row is stored as its set positions only.
    text = _golden_text("lubm")
    store = TripleStore.from_ntriples(text)
    store.save(str(tmp_path))
    triples = set(parse_ntriples(text))
    d = store.dictionary
    for pid in range(1, d.n_p + 1):
        pred = d.predicate_term(pid)
        n_triples = sum(1 for _, p, _ in triples if p == pred)
        n_rows = len({s for s, p, _ in triples if p == pred})
        size = (tmp_path / f"bm_so_{pid}.bin").stat().st_size
        assert size == 4 * (7 + 2 * n_rows + n_triples), pid


class TestDictionary:
    def test_shared_terms_get_low_ids(self, seinfeld_store):
        d = seinfeld_store.dictionary
        # Julia, Larry, Seinfeld occur as both subject and object.
        assert d.n_so == 3
        for name in ("Julia", "Larry", "Seinfeld"):
            sid = d.subject_id(iri(name))
            assert sid == d.object_id(iri(name))
            assert sid <= d.n_so
        assert d.subject_id(iri("Jerry")) > d.n_so
        assert d.object_id(iri("NYC")) > d.n_so

    def test_id_ranges_dense(self, seinfeld_store):
        d = seinfeld_store.dictionary
        assert (d.n_s, d.n_o, d.n_p) == (4, 7, 3)
        for n, term_of in ((d.n_s, d.subject_term), (d.n_o, d.object_term), (d.n_p, d.predicate_term)):
            assert len({term_of(idx) for idx in range(1, n + 1)}) == n

    def test_round_trip(self, seinfeld_store):
        d = seinfeld_store.dictionary
        for idx in range(1, d.n_s + 1):
            assert d.subject_id(d.subject_term(idx)) == idx
        for idx in range(1, d.n_o + 1):
            assert d.object_id(d.object_term(idx)) == idx
        for idx in range(1, d.n_p + 1):
            assert d.predicate_id(d.predicate_term(idx)) == idx
        # Shared ids name one term on both dimensions; the ids above n_so
        # name a term that has no id on the other dimension.
        for idx in range(1, d.n_so + 1):
            assert d.subject_term(idx) == d.object_term(idx)
        for idx in range(d.n_so + 1, d.n_s + 1):
            assert d.object_id(d.subject_term(idx)) is None
        for idx in range(d.n_so + 1, d.n_o + 1):
            assert d.subject_id(d.object_term(idx)) is None


class TestLoad:
    def test_fixture_counts(self, seinfeld_store):
        assert seinfeld_store.triple_count == 8
        assert seinfeld_store.dictionary.n_p == 3

    def test_acted_in_slice_has_five_bits(self, seinfeld_store):
        pid = seinfeld_store.dictionary.predicate_id(iri("actedIn"))
        assert seinfeld_store.bitmat("SO", pid).triple_count == 5

    def test_empty_stream(self):
        store = TripleStore.from_ntriples("")
        assert store.triple_count == 0
        assert store.dictionary.n_p == 0

    def test_duplicate_triples_stored_once(self):
        text = f"<{EX}a> <{EX}p> <{EX}b> .\n" * 2
        store = TripleStore.from_ntriples(text)
        assert store.triple_count == 1
        pid = store.dictionary.predicate_id(iri("p"))
        assert store.bitmat("SO", pid).triple_count == 1

    def test_transpose_family(self, seinfeld_store):
        pid = seinfeld_store.dictionary.predicate_id(iri("actedIn"))
        so = seinfeld_store.bitmat("SO", pid)
        os_ = seinfeld_store.bitmat("OS", pid)
        assert {(c, r) for r, c in so.cells()} == set(os_.cells())


class TestSelection:
    def test_fixed_pred_fixed_object_loads_ps_row(self, seinfeld_store):
        d = seinfeld_store.dictionary
        tp = TriplePattern(1, Variable("sitcom"), iri("location"), iri("NYC"))
        pm = select_pattern_matrix(seinfeld_store, tp)
        # Row :NYC of the O-S matrix, a row that binds no variable.
        assert (pm.row_var, pm.col_var) == (None, Variable("sitcom"))
        assert (pm.bm.row_space, pm.bm.n_rows, pm.bm.n_cols) == (bitmat.O, d.n_o, d.n_s)
        assert list(pm.bm.rows) == [d.object_id(iri("NYC"))]
        positions = [d.subject_term(p) for p in pm.fold_var(Variable("sitcom")).positions()]
        assert positions == [iri("Seinfeld")]

    def test_fixed_subject_loads_po_row(self, seinfeld_store):
        d = seinfeld_store.dictionary
        tp = TriplePattern(1, iri("Jerry"), iri("hasFriend"), Variable("friend"))
        pm = select_pattern_matrix(seinfeld_store, tp)
        assert (pm.row_var, pm.col_var) == (None, Variable("friend"))
        assert (pm.bm.row_space, pm.bm.n_rows, pm.bm.n_cols) == (bitmat.S, d.n_s, d.n_o)
        assert list(pm.bm.rows) == [d.subject_id(iri("Jerry"))]
        found = {d.object_term(p) for p in pm.fold_var(Variable("friend")).positions()}
        assert found == {iri("Julia"), iri("Larry")}

    def test_two_variable_orientation_follows_first_join(self, seinfeld_store):
        tp = TriplePattern(1, Variable("a"), iri("actedIn"), Variable("b"))
        pm = select_pattern_matrix(seinfeld_store, tp, first_join_var=Variable("a"))
        assert (pm.bm.row_space, pm.bm.col_space) == (bitmat.S, bitmat.O) and pm.row_var == Variable("a")
        pm = select_pattern_matrix(seinfeld_store, tp, first_join_var=Variable("b"))
        assert (pm.bm.row_space, pm.bm.col_space) == (bitmat.O, bitmat.S) and pm.row_var == Variable("b")

    def test_unknown_constant_gives_empty_matrix(self, seinfeld_store):
        tp = TriplePattern(1, Variable("x"), iri("nosuch"), Variable("y"))
        pm = select_pattern_matrix(seinfeld_store, tp)
        assert pm.count == 0

    def test_variable_predicate_rejected(self, seinfeld_store):
        tp = TriplePattern(1, Variable("s"), Variable("p"), Variable("o"))
        with pytest.raises(UnsupportedByIndexError):
            select_pattern_matrix(seinfeld_store, tp)

    def test_fold_acted_in_subjects(self, seinfeld_store):
        # Column projection of the O-S actedIn slice: everyone who acted.
        d = seinfeld_store.dictionary
        pid = d.predicate_id(iri("actedIn"))
        os_ = seinfeld_store.bitmat("OS", pid)
        people = {d.subject_term(p) for p in bitmat.fold(os_, "column").positions()}
        assert people == {iri("Julia"), iri("Larry")}


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        store = TripleStore.from_ntriples(SEINFELD_NT)
        names = store.save(str(tmp_path))
        assert (tmp_path / "dict.tsv").exists()
        assert len(names) == 3
        reopened = TripleStore.open(str(tmp_path))
        assert reopened.term_triples() == store.term_triples()
        assert reopened.dictionary.n_so == store.dictionary.n_so
        for pid in (1, 2, 3):
            assert set(reopened.bitmat("SO", pid).cells()) == set(
                store.bitmat("SO", pid).cells()
            )

    def test_escaped_literal_round_trip(self, tmp_path):
        value = 'tab\there, newline\nthere, "quoted" \\ back\r'
        store = TripleStore.from_ntriples(f'<{EX}a> <{EX}p> "{Literal(value).n3()[1:-1]}" .\n')
        store.save(str(tmp_path))
        assert (tmp_path / "dict.tsv").read_bytes().count(b"\n") == 3
        # Each open reads the line afresh: one by searching, one by parsing it.
        assert TripleStore.open(str(tmp_path)).dictionary.object_id(Literal(value)) == 1
        assert TripleStore.open(str(tmp_path)).term_triples() == [(iri("a"), iri("p"), Literal(value))]

    def test_header_counts_validated(self, tmp_path):
        store = TripleStore.from_ntriples(SEINFELD_NT)
        names = store.save(str(tmp_path))
        victim = tmp_path / names[0]
        blob = bytearray(victim.read_bytes())
        blob[16] ^= 0xFF  # corrupt the triple-count word
        victim.write_bytes(bytes(blob))
        from bitopt.store import StoreError

        with pytest.raises(StoreError):
            TripleStore.open(str(tmp_path))

    def test_every_truncation_rejected(self, tmp_path):
        from bitopt.store import StoreError

        store = TripleStore.from_ntriples(SEINFELD_NT)
        names = store.save(str(tmp_path))
        for name in names:
            victim = tmp_path / name
            blob = victim.read_bytes()
            for cut in range(len(blob)):
                victim.write_bytes(blob[:cut])
                with pytest.raises(StoreError):
                    TripleStore.open(str(tmp_path))
            victim.write_bytes(blob)


def _random_store_text(seed: int) -> str:
    rng = random.Random(seed)
    cfg = GenConfig(n_entities=rng.randint(4, 12), max_triples=rng.choice([20, 40, 80]))
    return random_store_text(rng, cfg)


def _check_against_brute_force(store: TripleStore, text: str) -> None:
    """Every slice, row and column read, ground bit and count equals a
    build from the raw triples."""
    d = store.dictionary
    terms = set(parse_ntriples(text))
    ids = {(d.subject_id(s), d.predicate_id(p), d.object_id(o)) for s, p, o in terms}
    assert store.triple_count == len(ids)
    assert store.term_triples() == sorted(terms, key=lambda t: tuple(term_sort_key(x) for x in t))

    spaces = {"SO": (bitmat.S, bitmat.O, d.n_s, d.n_o), "OS": (bitmat.O, bitmat.S, d.n_o, d.n_s)}

    def check(kind, pid, want):
        bm = store.bitmat(kind, pid)
        assert (bm.row_space, bm.col_space, bm.n_rows, bm.n_cols) == spaces[kind]
        assert set(bm.cells()) == want
        assert bm.triple_count == len(want)

    def check_read(kind, pid, idx, want):
        # A row or column read is a masked read of the constant's one bit:
        # row idx of the S-O or O-S matrix.
        row_space, col_space, n_rows, n_cols = spaces[kind]
        bm = store.bitmat(kind + "_MASKED", pid, BitArray(row_space, n_rows, 1 << (idx - 1)))
        assert (bm.row_space, bm.col_space, bm.n_rows, bm.n_cols) == spaces[kind]
        assert set(bm.cells()) == {(idx, c) for c in want}
        assert bm.triple_count == len(want)

    def check_reads(pid):
        for sid in range(1, d.n_s + 1):
            check_read("SO", pid, sid, {o for s, p, o in ids if (s, p) == (sid, pid)})
        for oid in range(1, d.n_o + 1):
            check_read("OS", pid, oid, {s for s, p, o in ids if (p, o) == (pid, oid)})

    for pid in range(1, d.n_p + 1):
        check_reads(pid)  # read from the matrix's words
        check("SO", pid, {(s, o) for s, p, o in ids if p == pid})
        check("OS", pid, {(o, s) for s, p, o in ids if p == pid})
        check_reads(pid)  # picked from the cached whole matrices
    for sid in range(1, d.n_s + 1):
        for pid in range(1, d.n_p + 1):
            for oid in range(1, d.n_o + 1):
                tp = TriplePattern(
                    1, d.subject_term(sid), d.predicate_term(pid), d.object_term(oid)
                )
                assert select_pattern_matrix(store, tp).count == ((sid, pid, oid) in ids)


class TestDerivedSlices:
    @pytest.mark.parametrize("seed", range(20))
    def test_fresh_and_reopened_match_brute_force(self, seed, tmp_path):
        text = _random_store_text(seed)
        store = TripleStore.from_ntriples(text)
        _check_against_brute_force(store, text)
        store.save(str(tmp_path))
        _check_against_brute_force(TripleStore.open(str(tmp_path)), text)


class TestLazyOpen:
    """``open`` reads and checks every file but builds no matrix words; a
    predicate's words are built from those bytes on its first use, once."""

    @pytest.fixture()
    def decoded(self, monkeypatch):
        import bitopt.store

        pids = []

        class Spy(bitopt.store._MatrixWords):
            def __init__(self, *args):
                super().__init__(*args)
                pids.append(self.pid)

        monkeypatch.setattr(bitopt.store, "_MatrixWords", Spy)
        return pids

    def test_open_decodes_nothing(self, tmp_path, decoded):
        TripleStore.from_ntriples(SEINFELD_NT).save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        assert decoded == []
        assert store.triple_count == 8  # the headers' counts
        assert decoded == []

    def test_fresh_triple_count_walks_no_rows(self):
        # ``bitopt load`` prints the count: the encoder's header words.
        store = TripleStore.from_ntriples(SEINFELD_NT)
        assert store.triple_count == 8
        assert store._words == {}

    def test_query_decodes_the_predicates_it_names(self, tmp_path, decoded):
        from bitopt.executor import run_query
        from bitopt.parser import parse

        fresh = TripleStore.from_ntriples(SEINFELD_NT)
        fresh.save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        d = store.dictionary
        query = parse("SELECT ?f ?s WHERE { :Jerry :hasFriend ?f . ?f :actedIn ?s . }")

        def rows(on):
            return sorted(run_query(query, on).relation.project(query.projection).rows, key=str)

        want = rows(fresh)
        decoded.clear()  # the fresh store's words
        assert len(rows(store)) == 5 and rows(store) == want
        assert sorted(decoded) == sorted([d.predicate_id(iri("hasFriend")), d.predicate_id(iri("actedIn"))])

    def test_file_changed_after_open(self, tmp_path):
        # The store answers from the bytes open() checked; it reads no file again.
        from bitopt.store import StoreError

        fresh = TripleStore.from_ntriples(SEINFELD_NT)
        fresh.save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        victim = tmp_path / "bm_so_2.bin"
        victim.write_bytes(victim.read_bytes()[:-4] + bytes(4))
        assert store.bitmat("SO", 1).triple_count == 2
        victim.unlink()
        assert store.bitmat("SO", 2).rows == fresh.bitmat("SO", 2).rows
        with pytest.raises(StoreError, match="bm_so_2.bin"):
            TripleStore.open(str(tmp_path))


def _random_matrix_text(rng: random.Random) -> str:
    """Two predicates over random cells. Row densities range from empty to
    full, so both row encodings occur; the first columns of :p are subjects
    too, so masks cross between the subject and object spaces."""
    n_s, n_o = rng.randint(1, 25), rng.randint(1, 90)
    shared = rng.randint(0, n_s)
    obj = [f"s{j}" if j < shared else f"o{j}" for j in range(n_o)]
    lines = []
    for i in range(n_s):
        for pred in ("p", "q"):
            density = rng.choice([0.0, 0.03, 0.1, 0.5, 0.95, 1.0])
            lines += [f"<{EX}s{i}> <{EX}{pred}> <{EX}{o}> .\n" for o in obj if rng.random() < density]
    rng.shuffle(lines)
    return "".join(lines)


def _random_mask(rng: random.Random, width: int) -> int:
    density = rng.choice([0.02, 0.1, 0.5, 1.0])
    return sum(1 << i for i in range(width) if rng.random() < density)


def _check_word_reads(store: TripleStore, whole: TripleStore, rng: random.Random) -> None:
    """Row, column and masked reads of ``store`` equal the cells of the
    whole matrices of ``whole``, a store built from the same data."""
    d = store.dictionary
    for pid in range(1, d.n_p + 1):
        cells = set(whole.bitmat("SO", pid).cells())
        # Fewest bits first, before any column is read: a masked O-S read
        # reads columns while that costs less than the whole transpose,
        # then builds and caches the transpose and picks from it.
        dims = [(bitmat.S, d.n_s), (bitmat.O, d.n_o)] * 3
        masks = [BitArray(space, width, _random_mask(rng, width)) for space, width in dims]
        masks.append(BitArray(bitmat.O, d.n_o, (1 << d.n_o) - 1))
        for mask in sorted(masks, key=BitArray.count):
            subjects = bitmat.align_mask(mask, bitmat.S, d.n_s, d.n_so)
            objects = bitmat.align_mask(mask, bitmat.O, d.n_o, d.n_so)
            so = store.bitmat("SO_MASKED", pid, mask)
            want = {(s, o) for s, o in cells if subjects >> (s - 1) & 1}
            assert (so.row_space, so.n_rows, so.n_cols, so.triple_count) == (bitmat.S, d.n_s, d.n_o, len(want))
            assert set(so.cells()) == want
            os_ = store.bitmat("OS_MASKED", pid, mask)
            want = {(o, s) for s, o in cells if objects >> (o - 1) & 1}
            assert (os_.row_space, os_.n_rows, os_.n_cols, os_.triple_count) == (bitmat.O, d.n_o, d.n_s, len(want))
            assert set(os_.cells()) == want
            assert all(type(row) is int and row > 0 for row in os_.rows.values())
        # Row and column reads: masked reads of one bit.
        for sid in range(1, d.n_s + 1):
            row = store.bitmat("SO_MASKED", pid, BitArray(bitmat.S, d.n_s, 1 << (sid - 1)))
            assert set(row.cells()) == {(s, o) for s, o in cells if s == sid}
        for oid in range(1, d.n_o + 1):
            col = store.bitmat("OS_MASKED", pid, BitArray(bitmat.O, d.n_o, 1 << (oid - 1)))
            assert set(col.cells()) == {(o, s) for s, o in cells if o == oid}
            assert col.triple_count == sum(1 for _, o in cells if o == oid)


class TestWordReads:
    """Reads served from a matrix's words, fresh and after save/open: before
    any whole matrix is decoded, and again once the whole matrices are
    cached."""

    @pytest.mark.parametrize("seed", range(12))
    def test_reads_match_the_whole_matrix(self, seed, tmp_path):
        rng = random.Random(seed)
        text = _random_matrix_text(rng)
        whole = TripleStore.from_ntriples(text)
        fresh = TripleStore.from_ntriples(text)
        fresh.save(str(tmp_path))
        for store in (fresh, TripleStore.open(str(tmp_path))):
            _check_word_reads(store, whole, random.Random(seed))
            for pid in range(1, store.dictionary.n_p + 1):
                store.bitmat("OS", pid)  # masked O-S reads now restrict the cached transpose
            _check_word_reads(store, whole, random.Random(seed))

    def test_corpus_has_shared_ids(self):
        shared = 0
        for seed in range(12):
            shared += TripleStore.from_ntriples(_random_matrix_text(random.Random(seed))).dictionary.n_so
        assert shared > 0

    def test_anchored_query_decodes_no_whole_matrix(self, tmp_path, monkeypatch):
        import bitopt.store
        from bitopt.executor import run_query
        from bitopt.parser import parse

        # Enough other actors that reading Julia's four sitcoms as columns
        # costs less than decoding and transposing all of :actedIn.
        others = "".join(
            f"<{EX}actor{i}> <{EX}actedIn> <{EX}show{(7 * i + k) % 40}> .\n" for i in range(200) for k in range(3)
        )
        fresh = TripleStore.from_ntriples(SEINFELD_NT + others)
        fresh.save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        queries = [
            parse(Q1_TEXT),  # a row read, a masked S-O read, a column read
            parse("SELECT ?s ?who WHERE { :Julia :actedIn ?s . OPTIONAL { ?who :actedIn ?s } }"),  # masked O-S
            parse("SELECT ?f WHERE { :Jerry :hasFriend ?f . ?f :actedIn :Veep }"),
        ]
        wants = [sorted(run_query(q, fresh).relation.project(q.projection).rows, key=str) for q in queries]
        whole = []
        monkeypatch.setattr(bitopt.store._MatrixWords, "decode", lambda words: whole.append(words.pid))
        monkeypatch.setattr(bitopt.bitmat, "transpose", whole.append)
        for query, want in zip(queries, wants):
            got = run_query(query, store).relation.project(query.projection).rows
            assert got and sorted(got, key=str) == want
        for obj, present in (("NYC", True), ("Veep", False)):
            ground = TriplePattern(1, iri("Seinfeld"), iri("location"), iri(obj))
            assert select_pattern_matrix(store, ground).count == present
        assert whole == []

    def test_constant_object_reads_one_column(self, tmp_path, monkeypatch):
        import bitopt.store

        TripleStore.from_ntriples(SEINFELD_NT).save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        d = store.dictionary
        pid = d.predicate_id(iri("location"))
        # Every predicate here is small enough that a whole decode and
        # transpose costs less than one column read.
        assert all(store._matrix(p).column_budget < 1 for p in range(1, d.n_p + 1))
        tp = TriplePattern(1, Variable("s"), iri("location"), iri("NYC"))
        want = [d.subject_id(iri("Seinfeld"))]
        whole = []
        monkeypatch.setattr(bitopt.store._MatrixWords, "decode", lambda words: whole.append(words.pid))
        monkeypatch.setattr(bitopt.bitmat, "transpose", whole.append)
        assert select_pattern_matrix(store, tp).fold_var(Variable("s")).positions() == want
        assert whole == [] and ("OS", pid) not in store._cache
        monkeypatch.undo()

        class NoWalk(dict):
            def items(self):
                raise AssertionError("walked every row of the whole O-S matrix")

            __iter__ = keys = values = items

        cached = store.bitmat("OS", pid)
        cached.rows = NoWalk(cached.rows)
        assert select_pattern_matrix(store, tp).fold_var(Variable("s")).positions() == want


# An IRI used as predicate and as subject and object, string literals holding
# a quote, a backslash and tabs (one followed by what renders as another
# term), and both the integer 25 and the string "25".
TRICKY_NT = (
    f"<{EX}knows> <{EX}knows> <{EX}bob> .\n"
    f"<{EX}alice> <{EX}knows> <{EX}knows> .\n"
    f'<{EX}alice> <{EX}says> "a \\"quoted\\" word" .\n'
    f'<{EX}alice> <{EX}says> "back\\\\slash" .\n'
    f'<{EX}alice> <{EX}says> "tab\tinside" .\n'
    f'<{EX}alice> <{EX}says> "x\t<{EX}bob>" .\n'
    f'<{EX}alice> <{EX}says> "\t25" .\n'
    f'<{EX}bob> <{EX}says> "q\t\\"25\\"" .\n'
    f"<{EX}alice> <{EX}age> 25 .\n"
    f'<{EX}bob> <{EX}age> "25" .\n'
)

_ROLES = (
    ("n_s", "subject_term", "subject_id"),
    ("n_o", "object_term", "object_id"),
    ("n_p", "predicate_term", "predicate_id"),
)


class TestLazyDictionary:
    """``open`` builds no term; a query builds terms only for the ids it
    emits; a reopened dictionary agrees with the one built from the data."""

    @pytest.fixture()
    def parsed(self, monkeypatch):
        import bitopt.store

        terms = []
        original = bitopt.store._parse_rendered_term

        def spy(rendered):
            term = original(rendered)
            terms.append(term)
            return term

        monkeypatch.setattr(bitopt.store, "_parse_rendered_term", spy)
        return terms

    def test_open_builds_no_term(self, tmp_path, parsed):
        TripleStore.from_ntriples(SEINFELD_NT).save(str(tmp_path))
        d = TripleStore.open(str(tmp_path)).dictionary
        assert (d.n_s, d.n_o, d.n_so, d.n_p) == (4, 7, 3, 3)
        assert parsed == []

    def test_point_query_builds_only_the_terms_it_emits(self, tmp_path, parsed):
        from bitopt.executor import run_query
        from bitopt.parser import parse

        text = "".join(
            f'<{EX}a{i}> <{EX}p> <{EX}b{i}> .\n<{EX}b{i}> <{EX}q> "lit{i}" .\n' for i in range(50)
        )
        TripleStore.from_ntriples(text).save(str(tmp_path))
        store = TripleStore.open(str(tmp_path))
        query = parse("SELECT ?o ?l WHERE { :a7 :p ?o . ?o :q ?l . }")
        rows = run_query(query, store).relation.project(query.projection).rows
        assert rows == [(iri("b7"), Literal("lit7"))]
        # The constants :a7, :p and :q were found by search, not built.
        assert sorted(parsed, key=term_sort_key) == [iri("b7"), Literal("lit7")]

    @staticmethod
    def _assert_agree(text, tmp_path):
        built = TripleStore.from_ntriples(text)
        built.save(str(tmp_path))
        b = built.dictionary
        by_id = TripleStore.open(str(tmp_path)).dictionary
        by_term = TripleStore.open(str(tmp_path)).dictionary
        terms = set()
        for count, term_of, id_of in _ROLES:
            n = getattr(b, count)
            assert n == getattr(by_id, count) == getattr(by_term, count)
            for idx in range(1, n + 1):
                term = getattr(b, term_of)(idx)
                assert getattr(by_id, term_of)(idx) == term
                assert getattr(by_term, id_of)(term) == idx
                terms.add(term)
        assert b.n_so == by_id.n_so
        # Every term in every role, misses included, and every join key.
        for term in terms:
            for _, _, id_of in _ROLES:
                assert getattr(by_term, id_of)(term) == getattr(b, id_of)(term)
        keys = [b.key(bitmat.S, s) for s in range(1, b.n_s + 1)]
        keys += [b.key(bitmat.O, o) for o in range(1, b.n_o + 1)]
        assert [by_id.term(k) for k in keys] == [b.term(k) for k in keys]

    @pytest.mark.parametrize("seed", range(20))
    def test_reopened_agrees_with_built(self, seed, tmp_path):
        self._assert_agree(_random_store_text(seed), tmp_path)

    def test_reopened_agrees_with_built_on_tricky_terms(self, tmp_path):
        self._assert_agree(TRICKY_NT, tmp_path)
        d = TripleStore.open(str(tmp_path)).dictionary
        knows = iri("knows")
        assert d.subject_id(knows) == d.object_id(knows) <= d.n_so
        assert d.predicate_id(knows) is not None
        assert None not in (d.object_id(Literal(25)), d.object_id(Literal("25")))
        assert d.object_id(Literal(25)) != d.object_id(Literal("25"))
        assert d.object_id(Literal("tab\tinside")) is not None
        assert d.object_id(Literal("x\t<" + EX + "bob>")) is not None
        assert d.object_id(iri("bob")) is not None and d.object_id(Literal("inside")) is None
