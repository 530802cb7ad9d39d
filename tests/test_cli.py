"""Command-line behavior: load/query flows, flags, exit codes, TSV shape,
and explain output stability."""

import random
import struct
import zlib
from types import SimpleNamespace

import pytest

from bitopt.algebra import Query
from bitopt.cli import EXIT_IO, EXIT_OK, EXIT_REJECTED, EXIT_UNSUPPORTED, main
from bitopt.store import StoreError, TripleStore

from conftest import EX, MOVIE_QUERY, MOVIES_NT, Q1_TEXT, SEINFELD_NT
from workload import GenConfig, random_query, random_store_text, sparql


@pytest.fixture()
def store_dir(tmp_path):
    data = tmp_path / "fixture.nt"
    data.write_text(SEINFELD_NT)
    directory = tmp_path / "store"
    assert main(["load", str(directory), str(data)]) == EXIT_OK
    return directory


def write_query(tmp_path, text, name="query.rq"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoad:
    def test_counts_reported(self, tmp_path, capsys):
        data = tmp_path / "d.nt"
        data.write_text(SEINFELD_NT)
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("8 triples, 3 predicates")

    def test_missing_file(self, tmp_path):
        assert main(["load", str(tmp_path / "s"), str(tmp_path / "nope.nt")]) == EXIT_IO

    def test_refuses_nonempty_without_force(self, tmp_path, store_dir):
        data = tmp_path / "fixture.nt"
        assert main(["load", str(store_dir), str(data)]) == EXIT_IO
        assert main(["load", str(store_dir), str(data), "--force"]) == EXIT_OK

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("this is not a triple\n")
        assert main(["load", str(tmp_path / "s"), str(bad)]) == EXIT_IO

    def test_failed_reload_keeps_previous_store(self, tmp_path, store_dir, capsys, monkeypatch):
        import bitopt.store

        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_OK
        before = capsys.readouterr().out
        # Fail while the new store is half written: after dict.tsv and the
        # first matrix file, at the checksum of the first matrix file.
        checksums = []

        def failing(data):
            checksums.append(data)
            if len(checksums) == 2:
                raise OSError("disk full")
            return zlib.crc32(data)

        monkeypatch.setattr(bitopt.store, "zlib", SimpleNamespace(crc32=failing))
        movies = tmp_path / "m.nt"
        movies.write_text(MOVIES_NT)
        assert main(["load", str(store_dir), str(movies), "--force"]) == EXIT_IO
        assert capsys.readouterr().err == "error: disk full\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fixture.nt", "m.nt", "query.rq", "store"]
        assert main(["query", str(store_dir), qpath]) == EXIT_OK
        assert capsys.readouterr().out == before

    def test_reload_leaves_no_file_of_the_previous_store(self, tmp_path, store_dir):
        data = tmp_path / "one.nt"
        data.write_text(f"<{EX}a> <{EX}p> <{EX}b> .\n")
        assert main(["load", str(store_dir), str(data), "--force"]) == EXIT_OK
        assert sorted(p.name for p in store_dir.iterdir()) == ["bm_so_1.bin", "dict.tsv", "manifest.txt"]

    def test_directory_with_other_files_not_replaced(self, tmp_path, capsys):
        data = tmp_path / "d.nt"
        data.write_text(SEINFELD_NT)
        assert main(["load", str(tmp_path), str(data), "--force"]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "d.nt" in err[0], err
        assert [p.name for p in tmp_path.iterdir()] == ["d.nt"]

    def test_store_path_is_a_file(self, tmp_path, capsys):
        data = tmp_path / "d.nt"
        data.write_text(SEINFELD_NT)
        target = tmp_path / "taken"
        target.write_text("")
        assert main(["load", str(target), str(data)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_data_not_utf8(self, tmp_path, capsys):
        data = tmp_path / "bad.nt"
        data.write_bytes(SEINFELD_NT.encode() + f'<{EX}a> <{EX}p> "\xff" .\n'.encode("latin-1"))
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "line 9: not UTF-8" in err[0]
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "obj",
        [
            "1" * 5000,  # read by the whole-line match
            "1" * 5000 + " . # read term by term",
            '"' + "1" * 5000 + '"^^<http://www.w3.org/2001/XMLSchema#integer>',
        ],
    )
    def test_integer_too_long(self, tmp_path, capsys, obj):
        data = tmp_path / "bad.nt"
        data.write_text(f"<{EX}a> <{EX}age> {obj} .\n")
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "line 1: integer" in err[0] and "digits" in err[0] and len(err[0]) < 200, err

    @pytest.mark.parametrize("lexical", ["1_000", " 12 ", "\u0661\u0662", "12.0"])  # \u0661\u0662: Arabic-Indic 12
    def test_bad_integer_lexical_form(self, tmp_path, capsys, lexical):
        data = tmp_path / "bad.nt"
        data.write_text(f'<{EX}a> <{EX}age> "{lexical}"^^<http://www.w3.org/2001/XMLSchema#integer> .\n', encoding="utf-8")
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"line 1: bad integer lexical form {lexical!r}" in err[0], err


def _balanced_unions(n):
    """A group of ``n`` UNION branches nested as a balanced tree, so that
    it stays far inside the nesting limit."""
    if n == 1:
        return "{ ?x :hasFriend ?y }"
    return f"{{ {_balanced_unions(n // 2)} UNION {_balanced_unions(n - n // 2)} }}"


def _joined_unions(n):
    """A group of ``n`` disjuncts as k joined UNIONs beside a pattern, which
    make 2^k, for the largest 2^k <= n; a UNION branch per disjunct more."""
    k = n.bit_length() - 1
    unions = " ".join(f"{{ ?x :hasFriend ?a{i} }} UNION {{ ?x :hasFriend ?a{i} }}" for i in range(k))
    return f"{{ ?x :hasFriend ?y {unions} }}" + " UNION { ?x :hasFriend ?y }" * (n - 2**k)


class TestQuery:
    def test_q1_tsv(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "?friend\t?sitcom"
        assert lines[1:] == [
            f"<{EX}Julia>\t<{EX}Seinfeld>",
            f"<{EX}Larry>\t",
        ]

    def test_byte_identical_across_runs(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        main(["query", str(store_dir), qpath])
        first = capsys.readouterr().out
        main(["query", str(store_dir), qpath])
        assert capsys.readouterr().out == first

    def test_explain_mentions_classification(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath, "--explain"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "nb_required=false" in err
        assert "explain-format=1" in err
        assert "T2 ⋉ T1 over {?friend}" in err

    def test_oracle_flag_matches_engine(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        main(["query", str(store_dir), qpath])
        engine_out = capsys.readouterr().out
        main(["query", str(store_dir), qpath, "--oracle"])
        oracle_out = capsys.readouterr().out
        assert sorted(engine_out.splitlines()) == sorted(oracle_out.splitlines())

    def test_variable_predicate_unsupported(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, "SELECT ?p WHERE { :Julia ?p :Seinfeld }")
        assert main(["query", str(store_dir), qpath]) == EXIT_UNSUPPORTED
        assert "unsupported-by-index" in capsys.readouterr().err
        assert main(["query", str(store_dir), qpath, "--oracle"]) == EXIT_OK

    def test_oracle_capacity_unsupported(self, tmp_path, capsys):
        # 101 x 101 rows of a Cartesian product pass the oracle's row cap.
        data = tmp_path / "wide.nt"
        data.write_text("".join(f"<{EX}s{i}> <{EX}p> <{EX}o{i}> .\n" for i in range(101)))
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        capsys.readouterr()
        qpath = write_query(tmp_path, "SELECT ?a ?b ?c ?d WHERE { ?a :p ?b . ?c :p ?d }")
        assert main(["query", str(tmp_path / "s"), qpath, "--oracle"]) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "oracle" in captured.err

    def test_disconnected_rejected(self, tmp_path, store_dir, capsys):
        text = "SELECT ?a ?b WHERE { :Jerry :hasFriend ?a . :Seinfeld :location ?b }"
        qpath = write_query(tmp_path, text)
        assert main(["query", str(store_dir), qpath]) == EXIT_REJECTED
        assert main(["query", str(store_dir), qpath, "--oracle"]) == EXIT_OK

    def test_escaped_literal_matches_data(self, tmp_path, capsys):
        data = tmp_path / "d.nt"
        data.write_text(f'<{EX}a> <{EX}p> "tab\\there\\u00e9" .\n<{EX}b> <{EX}p> "tab\\\\there" .\n')
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        capsys.readouterr()
        for literal in ('"tab\\there\\u00e9"', '"\\u0074ab\\there\\U000000E9"'):
            qpath = write_query(tmp_path, f"SELECT ?x WHERE {{ ?x :p {literal} }}")
            assert main(["query", str(tmp_path / "s"), qpath]) == EXIT_OK
            assert capsys.readouterr().out == f"?x\n<{EX}a>\n"
        qpath = write_query(tmp_path, 'SELECT ?x ?v WHERE { ?x :p ?v FILTER(?v = "tab\\\\there") }')
        assert main(["query", str(tmp_path / "s"), qpath]) == EXIT_OK
        assert capsys.readouterr().out == f'?x\t?v\n<{EX}b>\t"tab\\\\there"\n'

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_tab_in_literal_keeps_one_field(self, tmp_path, capsys, oracle):
        data = tmp_path / "d.nt"
        data.write_text(f'<{EX}a> <{EX}p> "x\\ty" .\n')
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        capsys.readouterr()
        qpath = write_query(tmp_path, "SELECT ?x ?v WHERE { ?x :p ?v }")
        assert main(["query", str(tmp_path / "s"), qpath, *oracle]) == EXIT_OK
        assert capsys.readouterr().out == f'?x\t?v\n<{EX}a>\t"x\\ty"\n'

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_raw_line_breaks_in_literal_round_trip(self, tmp_path, capsys, oracle):
        # U+2028, U+2029, U+0085, form feed, vertical tab, U+001C: raw in the
        # data, as UCHAR escapes in the query.
        value = "x\u2028\u2029\x85\x0c\x0b\x1cy"
        data = tmp_path / "d.nt"
        data.write_bytes(f'<{EX}a> <{EX}p> "{value}" .\n<{EX}b> <{EX}p> "z" .\n'.encode("utf-8"))
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        capsys.readouterr()
        literal = '"x\\u2028\\u2029\\u0085\\u000C\\u000B\\u001Cy"'
        qpath = write_query(tmp_path, f"SELECT ?x ?v WHERE {{ ?x :p ?v FILTER(?v = {literal}) }}")
        assert main(["query", str(tmp_path / "s"), qpath, *oracle]) == EXIT_OK
        assert capsys.readouterr().out == f'?x\t?v\n<{EX}a>\t"{value}"\n'

    @pytest.mark.parametrize("escape", ["\\uDC00", "\\U00110000"])
    def test_escape_outside_unicode_fails_cleanly(self, tmp_path, store_dir, capsys, escape):
        data = tmp_path / "bad.nt"
        data.write_text(f'<{EX}a> <{EX}p> "x{escape}" .\n')
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_IO
        qpath = write_query(tmp_path, f'SELECT ?x WHERE {{ ?x :p "x{escape}" }}')
        assert main(["query", str(store_dir), qpath]) == EXIT_REJECTED
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err), err
        assert "line 1" in err[0] and "syntax" in err[1]

    def test_syntax_error_rejected(self, tmp_path, store_dir):
        qpath = write_query(tmp_path, "SELECT ?x WHERE { ?x :p }")
        assert main(["query", str(store_dir), qpath]) == EXIT_REJECTED

    def test_integer_too_long_rejected(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, f"SELECT ?x WHERE {{ ?x :age {'1' * 5000} }}")
        assert main(["query", str(store_dir), qpath]) == EXIT_REJECTED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: syntax: integer"), err
        assert "digits" in err[0] and len(err[0]) < 200, err

    @pytest.mark.parametrize("lexical", ["1_000", "\u0661\u0662"])
    def test_bad_integer_lexical_form_rejected(self, tmp_path, store_dir, capsys, lexical):
        qpath = write_query(tmp_path, f"SELECT ?x WHERE {{ ?x :age {lexical} }}")
        assert main(["query", str(store_dir), qpath]) == EXIT_REJECTED
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: syntax: "), err
        assert captured.out == ""

    def test_query_file_not_utf8(self, tmp_path, store_dir, capsys):
        qpath = tmp_path / "bad.rq"
        qpath.write_bytes('SELECT ?x WHERE { ?x :p "\xff" }'.encode("latin-1"))
        assert main(["query", str(store_dir), str(qpath)]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "bad.rq: not UTF-8" in err[0] and "byte 26" in err[0], err
        assert captured.out == ""

    # Each shape at the nesting limit runs; one more level is rejected.
    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: f"?x :hasFriend ?y FILTER ({'(' * (n - 1)}?y != ?x{')' * (n - 1)})",
            lambda n: "?x :hasFriend ?y0 " + "".join(f"OPTIONAL {{ ?y{i} :actedIn ?y{i + 1} " for i in range(n - 1)) + "}" * (n - 1),
            lambda n: "?x :hasFriend ?y OPTIONAL { ?y :actedIn ?z } FILTER (" + " && ".join(["?z != ?x"] * (n - 2)) + ")",
            lambda n: " UNION ".join(["{ ?x :hasFriend ?y }"] * n),
        ],
        ids=["parentheses", "nested-optionals", "conjuncts", "union-branches"],
    )
    def test_nesting_limit(self, tmp_path, store_dir, capsys, shape):
        from bitopt.parser import MAX_NESTING

        for depth, code in ((MAX_NESTING, EXIT_OK), (MAX_NESTING + 1, EXIT_REJECTED)):
            qpath = write_query(tmp_path, f"SELECT ?x WHERE {{ {shape(depth)} }}")
            assert main(["query", str(store_dir), qpath]) == code, depth
            err = capsys.readouterr().err.splitlines()
            if code == EXIT_OK:
                assert err == []
            else:
                assert err == [f"error: rejected: query nests deeper than {MAX_NESTING} levels"]

    # A query of as many union-normal-form disjuncts as the cap runs; one
    # more is rejected before any disjunct is built.
    @pytest.mark.parametrize(
        "shape",
        [
            _balanced_unions,
            _joined_unions,
        ],
        ids=["balanced-unions", "joined-unions"],
    )
    def test_disjunct_limit(self, tmp_path, store_dir, capsys, monkeypatch, shape):
        import bitopt.executor
        import bitopt.parser
        from bitopt.parser import MAX_DISJUNCTS, parse, unf_size
        from bitopt.rewriter import to_unf

        for size, code in ((MAX_DISJUNCTS, EXIT_OK), (MAX_DISJUNCTS + 1, EXIT_REJECTED)):
            text = f"SELECT ?x WHERE {{ {shape(size)} }}"
            with monkeypatch.context() as uncapped:
                uncapped.setattr(bitopt.parser, "MAX_DISJUNCTS", size)
                root = parse(text).root
            assert unf_size(root) == len(to_unf(root).disjuncts) == size
            if code == EXIT_REJECTED:
                monkeypatch.setattr(bitopt.executor, "to_unf", lambda root: pytest.fail("to_unf ran"))
            assert main(["query", str(store_dir), write_query(tmp_path, text)]) == code, size
            err = capsys.readouterr().err.splitlines()
            if code == EXIT_OK:
                assert err == []
            else:
                assert err == [f"error: rejected: query has more than {MAX_DISJUNCTS} union-normal-form disjuncts"]

    def test_unsafe_order_requires_no_prune(self, tmp_path, store_dir):
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath, "--unsafe-order"]) == EXIT_IO

    def test_debug_flags_reproduce_unpruned_rows(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        args = ["query", str(store_dir), qpath, "--no-prune", "--unsafe-order",
                "--nullify", "off", "--best-match", "off"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 6  # header + Res1's five rows
        assert f"<{EX}Veep>" in out

    def test_empty_result_is_success(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, "SELECT ?x WHERE { :NoSuch :hasFriend ?x }")
        assert main(["query", str(store_dir), qpath]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "?x\n"

    def test_env_var_default_store(self, tmp_path, store_dir, capsys, monkeypatch):
        monkeypatch.setenv("BITOPT_STORE", str(store_dir))
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", qpath]) == EXIT_OK

    def test_output_file(self, tmp_path, store_dir):
        qpath = write_query(tmp_path, Q1_TEXT)
        target = tmp_path / "out.tsv"
        assert main(["query", str(store_dir), qpath, "-o", str(target)]) == EXIT_OK
        assert target.read_text().startswith("?friend\t?sitcom\n")

    def test_output_directory_missing(self, tmp_path, store_dir, capsys):
        qpath = write_query(tmp_path, Q1_TEXT)
        target = tmp_path / "missing" / "out.tsv"
        assert main(["query", str(store_dir), qpath, "-o", str(target)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_distinct_query_via_cli(self, tmp_path, capsys):
        data = tmp_path / "m.nt"
        data.write_text(MOVIES_NT)
        directory = tmp_path / "movies"
        assert main(["load", str(directory), str(data)]) == EXIT_OK
        capsys.readouterr()
        qpath = write_query(tmp_path, MOVIE_QUERY, "movies.rq")
        assert main(["query", str(directory), qpath, "--explain"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.count("UmaThurman") == 1
        assert "distinct.path=bmm-bgp" in captured.err



class TestOracleDistinct:
    """DISTINCT drops subsumed rows in both modes, so ``--oracle`` prints the
    engine's TSV byte for byte."""

    @staticmethod
    def _outputs(tmp_path, data_text: str, query_text: str) -> list[bytes]:
        tmp_path.mkdir(exist_ok=True)
        data = tmp_path / "data.nt"
        data.write_text(data_text)
        assert main(["load", str(tmp_path / "s"), str(data)]) == EXIT_OK
        qpath = write_query(tmp_path, query_text)
        outs = []
        for flags in ([], ["--oracle"]):
            out = tmp_path / "out.tsv"
            assert main(["query", str(tmp_path / "s"), qpath, "-o", str(out), *flags]) == EXIT_OK
            outs.append(out.read_bytes())
        return outs

    def test_subsumed_row_dropped(self, tmp_path, capsys):
        data = f"<{EX}a> <{EX}p> <{EX}x> .\n<{EX}x> <{EX}q> <{EX}y> .\n<{EX}a> <{EX}p> <{EX}z> .\n"
        query = "SELECT DISTINCT ?s ?y WHERE { ?s :p ?o . OPTIONAL { ?o :q ?y } }"
        engine, oracle = self._outputs(tmp_path, data, query)
        assert engine == oracle == f"?s\t?y\n<{EX}a>\t<{EX}y>\n".encode()

    def test_random_queries(self, tmp_path, capsys):
        cfg = GenConfig(p_union=0.2, p_filter=0.2, p_cycle=0.2)
        for seed in range(40):
            rng = random.Random(seed)
            data = random_store_text(rng, cfg)
            query = random_query(rng, cfg)
            k = rng.randint(1, min(3, len(query.projection)))
            projection = tuple(sorted(rng.sample(query.projection, k), key=lambda v: v.name))
            text = sparql(Query(projection, True, query.root))
            engine, oracle = self._outputs(tmp_path / str(seed), data, text)
            assert engine == oracle, text

def _set_word(path, index, value):
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4 * index, value)
    path.write_bytes(bytes(blob))


def _truncate(store_dir):
    path = store_dir / "bm_so_1.bin"
    path.write_bytes(path.read_bytes()[:-2])


def _truncate_whole_word(store_dir):
    path = store_dir / "bm_so_2.bin"
    path.write_bytes(path.read_bytes()[:-4])


def _trailing_word(store_dir):
    path = store_dir / "bm_so_1.bin"
    path.write_bytes(path.read_bytes() + bytes(4))


def _malformed_dict_line(store_dir):
    path = store_dir / "dict.tsv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = "two\tso\t<http://example.org/x>\n"
    path.write_text("".join(lines))


def _dictionary_not_utf8(store_dir):
    path = store_dir / "dict.tsv"
    path.write_bytes(path.read_bytes() + b"9\ts\t<\xff>\n")


def _unknown_kind(store_dir):
    _set_word(store_dir / "bm_so_1.bin", 0, 9)


def _non_so_kind(store_dir):
    _set_word(store_dir / "bm_so_1.bin", 0, 1)  # the O-S kind code


def _rows_differ_from_dictionary(store_dir):
    _set_word(store_dir / "bm_so_1.bin", 2, 99)


def _cols_differ_from_dictionary(store_dir):
    _set_word(store_dir / "bm_so_1.bin", 3, 2)


def _slice_key_out_of_range(store_dir):
    _set_word(store_dir / "bm_so_3.bin", 1, 4)


def _slice_key_zero(store_dir):
    _set_word(store_dir / "bm_so_3.bin", 1, 0)


def _slice_key_repeated(store_dir):
    _set_word(store_dir / "bm_so_3.bin", 1, 1)


def _row_offsets(path):
    """A matrix file's words and the offset of each stored row's length
    word. The rows follow seven header words, each row its index, its
    length and its positions, and the last row ends the file."""
    words = struct.unpack(f"<{path.stat().st_size // 4}I", path.read_bytes())
    offsets, at = [], 7
    for _ in range(words[6]):
        offsets.append(at + 1)
        at += 2 + words[at + 1]
    assert at == len(words)
    return words, offsets


def _row_past_width(store_dir):
    path = store_dir / "bm_so_1.bin"
    words, offsets = _row_offsets(path)
    last_word = offsets[0] + words[offsets[0]]
    _set_word(path, last_word, words[last_word] + 1000)


def _length_past_end(store_dir):
    # The last row of :actedIn claims one position more than the file holds.
    path = store_dir / "bm_so_2.bin"
    words, offsets = _row_offsets(path)
    _set_word(path, offsets[-1], words[offsets[-1]] + 1)


def _count_differs_from_lengths(store_dir):
    # A row of :actedIn loses its last position; the header keeps its count.
    path = store_dir / "bm_so_2.bin"
    words, offsets = _row_offsets(path)
    at = next(o for o in offsets if words[o] > 1)
    last = at + words[at]
    words = [*words[:last], *words[last + 1 :]]
    words[at] -= 1
    path.write_bytes(struct.pack(f"<{len(words)}I", *words))


def _dictionary_ids_not_dense(store_dir):
    path = store_dir / "dict.tsv"
    lines = path.read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.split("\t")[1] == "s")
    lines[at] = "99" + lines[at][lines[at].index("\t"):]
    path.write_text("".join(lines))


def _dictionary_line_not_utf8(store_dir):
    # The line of :Julia (id 2), which Q1 emits.
    path = store_dir / "dict.tsv"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"2\tso\t<\xff>\n"
    path.write_bytes(b"".join(lines))


def _dictionary_wrong_class(store_dir):
    # :Julia, a shared term, as a subject-only line.
    path = store_dir / "dict.tsv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace("\tso\t", "\ts\t", 1)
    path.write_text("".join(lines))


def _dictionary_extra_line(store_dir):
    path = store_dir / "dict.tsv"
    path.write_text(path.read_text() + f"8\to\t<{EX}Extra>\n")


def _edit_dictionary_counts(store_dir, edit):
    manifest = store_dir / "manifest.txt"
    lines = manifest.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("dict.tsv "))
    name, size, crc, *numbers = lines[at].split(" ")
    counts = dict(zip(("n_s", "n_o", "n_so", "n_p"), map(int, numbers)))
    edit(counts)
    lines[at] = " ".join([name, size, crc, *(str(n) for n in counts.values())])
    manifest.write_text("\n".join(lines) + "\n")


def _dictionary_counts_disagree(store_dir):
    _edit_dictionary_counts(store_dir, lambda c: c.update(n_p=c["n_p"] + 1))


def _dictionary_counts_shifted(store_dir):
    # The same line count, split differently between the dimensions.
    _edit_dictionary_counts(store_dir, lambda c: c.update(n_s=c["n_s"] + 1, n_p=c["n_p"] - 1))


def _shared_count_above_subjects(store_dir):
    # n_so > n_s, with n_o raised so that the line count still matches.
    def edit(c):
        c.update(n_o=c["n_o"] + c["n_s"] + 1 - c["n_so"], n_so=c["n_s"] + 1)

    _edit_dictionary_counts(store_dir, edit)


def _predicate_without_file(store_dir):
    (store_dir / "bm_so_2.bin").unlink()
    manifest = store_dir / "manifest.txt"
    lines = [ln for ln in manifest.read_text().splitlines() if ln.split(" ")[0] != "bm_so_2.bin"]
    manifest.write_text("\n".join(lines) + "\n")


class TestCorruptStore:
    """A damaged store exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "damage",
        [
            _truncate,
            _truncate_whole_word,
            _trailing_word,
            _malformed_dict_line,
            _dictionary_not_utf8,
            _unknown_kind,
            _non_so_kind,
            _rows_differ_from_dictionary,
            _cols_differ_from_dictionary,
            _slice_key_out_of_range,
            _slice_key_zero,
            _slice_key_repeated,
            _row_past_width,
            _dictionary_ids_not_dense,
            _predicate_without_file,
        ],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_exits_with_one_error_line(self, tmp_path, store_dir, capsys, damage):
        damage(store_dir)
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def _reseal(store_dir, name):
    """Make the manifest line of ``name`` match the file as it is now; the
    dictionary's counts after its size and checksum stay as they are."""
    data = (store_dir / name).read_bytes()
    manifest = store_dir / "manifest.txt"
    lines = [
        " ".join([name, str(len(data)), str(zlib.crc32(data)), *ln.split(" ")[3:]])
        if ln.split(" ")[0] == name
        else ln
        for ln in manifest.read_text().splitlines()
    ]
    manifest.write_text("\n".join(lines) + "\n")


class TestLazyDecodeErrors:
    """A file that matches its manifest line but not the dictionary passes
    open() and fails when a query first uses its predicate."""

    def test_only_queries_naming_the_predicate_fail(self, tmp_path, store_dir, capsys):
        _row_past_width(store_dir)  # bm_so_1.bin holds :hasFriend
        _reseal(store_dir, "bm_so_1.bin")
        capsys.readouterr()
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bm_so_1.bin" in err[0], err
        assert captured.out == ""
        qpath = write_query(tmp_path, "SELECT ?who WHERE { ?who :actedIn :Veep }", "other.rq")
        assert main(["query", str(store_dir), qpath]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"?who\n<{EX}Julia>\n"
        assert captured.err == ""

    def test_oracle_reads_every_predicate(self, tmp_path, store_dir, capsys):
        _row_past_width(store_dir)
        _reseal(store_dir, "bm_so_1.bin")
        qpath = write_query(tmp_path, "SELECT ?who WHERE { ?who :actedIn :Veep }")
        assert main(["query", str(store_dir), qpath, "--oracle"]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestHeaderCount:
    """The header's triple count is checked against the rows' bits when a
    query first reads the predicate, whatever part of it the query reads."""

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?f WHERE { :Jerry :hasFriend ?f }",  # a row read
            "SELECT ?who WHERE { ?who :hasFriend :Julia }",  # a column read
        ],
        ids=["row", "column"],
    )
    def test_first_read_fails(self, tmp_path, store_dir, capsys, text):
        path = store_dir / "bm_so_1.bin"  # :hasFriend, two triples
        _set_word(path, 4, 3)
        _reseal(store_dir, path.name)
        TripleStore.open(str(store_dir))
        capsys.readouterr()
        assert main(["query", str(store_dir), write_query(tmp_path, text)]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bm_so_1.bin" in err[0], err
        assert "header count 3" in err[0] and captured.out == ""
        qpath = write_query(tmp_path, "SELECT ?who WHERE { ?who :actedIn :Veep }", "other.rq")
        assert main(["query", str(store_dir), qpath]) == EXIT_OK


class TestManifestVersion:
    def test_store_without_version_line_must_be_reloaded(self, tmp_path, store_dir, capsys):
        # The manifest as the previous store format wrote it: file names only.
        manifest = store_dir / "manifest.txt"
        names = [ln.split(" ")[0] for ln in manifest.read_text().splitlines()[1:]]
        manifest.write_text("\n".join(names) + "\n")
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "bitopt load --force" in err[0]

    def test_format_2_store_must_be_reloaded(self, tmp_path, store_dir, capsys):
        # The manifest as format 2 wrote it: no dict.tsv line.
        manifest = store_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert lines[0] == "bitopt-store-format 4"
        lines = ["bitopt-store-format 2"] + [ln for ln in lines[1:] if not ln.startswith("dict.tsv ")]
        manifest.write_text("\n".join(lines) + "\n")
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "bitopt load --force" in err[0]

    def test_format_3_store_must_be_reloaded(self, tmp_path, store_dir, capsys):
        # Format 3 wrote the same manifest lines over matrix files whose rows
        # carry a tag word; its version line alone tells them apart.
        manifest = store_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(["bitopt-store-format 3", *lines[1:]]) + "\n")
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "bitopt-store-format 4" in err[0] and "bitopt load --force" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("entry", ["bm_so_1.bin 72", "bm_so_1.bin 72 x", "../store/bm_so_1.bin 72 1"])
    def test_malformed_entry(self, tmp_path, store_dir, capsys, entry):
        manifest = store_dir / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:1] + [entry] + lines[2:]) + "\n")
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "manifest.txt:2" in err[0], err


class TestResealedDamage:
    """The same damage with the manifest line made to match the file, so the
    size and checksum pass: the header checks still reject the file at
    open(), the row checks when a query first uses its predicate (a row past
    the width is in TestLazyDecodeErrors). For the dictionary, the line
    count and the manifest's counts are checked at open(), a line when a
    query first reads it: every damaged line here is one Q1 reads, the line
    of its constant :Jerry or of a term it emits."""

    @pytest.mark.parametrize(
        "damage, at_open",
        [
            (_truncate, True),
            (_unknown_kind, True),
            (_non_so_kind, True),
            (_rows_differ_from_dictionary, True),
            (_cols_differ_from_dictionary, True),
            (_slice_key_out_of_range, True),
            (_slice_key_zero, True),
            (_slice_key_repeated, True),
            (_truncate_whole_word, False),
            (_trailing_word, False),
            (_malformed_dict_line, False),
            (_dictionary_line_not_utf8, False),
            (_dictionary_ids_not_dense, False),
            (_dictionary_wrong_class, False),
            (_dictionary_not_utf8, True),
            (_dictionary_extra_line, True),
            (_dictionary_counts_disagree, True),
            (_dictionary_counts_shifted, True),
            (_shared_count_above_subjects, True),
        ],
        ids=lambda f: f.__name__.lstrip("_") if callable(f) else None,
    )
    def test_exits_with_one_error_line(self, tmp_path, store_dir, capsys, damage, at_open):
        damage(store_dir)
        for path in [store_dir / "dict.tsv", *store_dir.glob("bm_so_*.bin")]:
            _reseal(store_dir, path.name)
        if at_open:
            with pytest.raises(StoreError):
                TripleStore.open(str(store_dir))
        else:
            TripleStore.open(str(store_dir))
        capsys.readouterr()
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert captured.out == ""


    @pytest.mark.parametrize(
        "damage, why",
        [(_length_past_end, "truncated S-O matrix"), (_count_differs_from_lengths, "header count 5 != stored bits 4")],
        ids=["length_past_end", "count_differs_from_lengths"],
    )
    def test_row_structure_checked_on_first_use(self, tmp_path, store_dir, capsys, damage, why):
        damage(store_dir)
        _reseal(store_dir, "bm_so_2.bin")
        TripleStore.open(str(store_dir))
        capsys.readouterr()
        qpath = write_query(tmp_path, Q1_TEXT)
        assert main(["query", str(store_dir), qpath]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bm_so_2.bin" in err[0], err
        assert why in err[0] and captured.out == ""

    def test_unordered_positions(self, tmp_path, capsys):
        # Three subjects over six objects; row s0 is stored as the positions
        # 1 4 (:o0 and :o3), rewritten here as 4 1.
        data = tmp_path / "grid.nt"
        data.write_text("".join(f"<{EX}s{i % 3}> <{EX}p> <{EX}o{i}> .\n" for i in range(6)))
        directory = tmp_path / "grid"
        assert main(["load", str(directory), str(data)]) == EXIT_OK
        path = directory / "bm_so_1.bin"
        words, offsets = _row_offsets(path)
        at = offsets[0]
        assert words[at - 1 : at + 3] == (1, 2, 1, 4)  # row index, length, positions
        _set_word(path, at + 1, 4)
        _set_word(path, at + 2, 1)
        _reseal(directory, path.name)
        capsys.readouterr()
        qpath = write_query(tmp_path, "SELECT ?s WHERE { ?s :p :o3 }")
        assert main(["query", str(directory), qpath]) == EXIT_IO
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bm_so_1.bin" in err[0], err
        assert captured.out == ""


class TestExplainRunsOnce:
    def test_distinct_explain_evaluates_query_once(self, tmp_path, capsys, monkeypatch):
        import bitopt.distinct
        import bitopt.executor

        data = tmp_path / "m.nt"
        data.write_text(MOVIES_NT)
        directory = tmp_path / "movies"
        assert main(["load", str(directory), str(data)]) == EXIT_OK
        plans, joins = [], []
        for module in (bitopt.executor, bitopt.distinct):
            original = module.plan_query

            def counted(*args, _original=original, **kwargs):
                plans.append(args[0])
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "plan_query", counted)
        original_run = bitopt.executor.MultiWayJoin.run

        def counted_run(join):
            joins.append(join)
            return original_run(join)

        monkeypatch.setattr(bitopt.executor.MultiWayJoin, "run", counted_run)
        qpath = write_query(tmp_path, MOVIE_QUERY, "movies.rq")
        assert main(["query", str(directory), qpath, "--explain"]) == EXIT_OK
        assert "distinct.path=bmm-bgp" in capsys.readouterr().err
        assert len(plans) == 1 and len(joins) == 1
