"""Dictionary-encoded triple storage: per-predicate S-O bit matrices.

Terms are mapped to dense integer coordinates. Terms occurring both as
subject and object get ids 1..n_so shared between the two dimensions;
subject-only terms continue at n_so+1..n_s, object-only terms independently
at n_so+1..n_o, predicates live in their own 1..n_p space. The conceptual
subject x predicate x object bit cube is never materialized.

The S-O matrix of each predicate is the only copy of the triples, in memory
and on disk. In memory it is the bytes of its file, read once, by ``open``
or from the encoder; the predicate's first use views them as words and
builds a row-offset table, which is never stored. A read decodes only the
rows it returns, each into an ``int`` (see ``bitmat``); a row's file
encoding, its index, its length and its set positions, is known to this
module only. Every read returns an S-O or O-S matrix over the subject and
object spaces. A masked read returns only the rows its mask keeps: S-O
rows decoded one by one, or O-S rows built as column reads, which search
the file's bytes for the column's word. So the pattern ``(:s :p ?o)``
reads row s, and ``(?s :p :o)`` one column, o. A whole matrix, and its O-S
transpose, is decoded and cached only for an unmasked read, or for a
masked O-S read of several columns that would cost more to read one by
one.

A saved store is a directory holding ``dict.tsv``, one ``bm_so_<pid>.bin``
per predicate and ``manifest.txt``: a format-version line, a ``dict.tsv``
line with its byte size, CRC-32 and the counts n_s, n_o, n_so and n_p, then
one line per matrix file with its byte size and CRC-32. ``save`` writes a
new directory beside it and renames that into place. ``TripleStore.open``
checks every file's size and checksum against the manifest, the
dictionary's line count and each matrix header against the counts, and
keeps the bytes it checked, but builds no term and decodes no rows. The
dictionary stays the bytes of ``dict.tsv``: it resolves only the terms a
query names and the ids it emits, each checked when first read. A matrix
file's structure and its header's triple count are checked on the
predicate's first use, and a row's positions when a read first decodes
that row.
"""

from __future__ import annotations

import os
import re
import shutil
import struct
import sys
import tempfile
import zlib
from array import array
from bisect import bisect_left, bisect_right
from operator import lt
from typing import Iterable

from . import bitmat
from .bitmat import (
    BitArray,
    BitMat,
    align_mask,
    row_from_mask,  # unused here; the benchmark counts its calls under this name
    row_from_positions,
)
from .ntriples import parse_ntriples
from .terms import Iri, Literal, Term, term_sort_key, unescape

SO_CLASS = "so"
S_CLASS = "s"
O_CLASS = "o"
P_CLASS = "p"

# Lookup roles and the dict.tsv classes that hold an id in each.
S_ROLE, O_ROLE, P_ROLE = bitmat.S, bitmat.O, "P"
_ROLE_CLASSES = {S_ROLE: (b"\tso", b"\ts"), O_ROLE: (b"\tso", b"\to"), P_ROLE: (b"\tp",)}


class StoreError(ValueError):
    pass


class Dictionary:
    """Term/id mapping over the bytes of ``dict.tsv``, honoring the shared
    S/O space.

    The file holds one line per id, its id, class and rendered term
    separated by tabs, in a fixed order: the shared ids 1..n_so (class
    ``so``), the subject-only ids n_so+1..n_s (``s``), the object-only ids
    n_so+1..n_o (``o``), then the predicate ids 1..n_p (``p``). So an id
    gives its line, and a line's place gives the id and class it must hold.
    Nothing is parsed up front: a term is looked up by searching for its
    rendered form as a whole line field, an id by reading its line, and both
    results are cached. A line that does not hold the id and class its place
    demands, or whose term does not parse back to the same rendering, raises
    StoreError when a lookup first reads it.
    """

    def __init__(self, data: bytes, n_s: int, n_o: int, n_so: int, n_p: int, source: str = "dict.tsv"):
        self.data = data  # the bytes of dict.tsv, as written by ``save``
        self.n_s, self.n_o, self.n_so, self.n_p = n_s, n_o, n_so, n_p
        self.source = source  # names the file in error messages
        self._lines: "list[bytes] | None" = None  # data split on first id -> term lookup
        self._terms: dict[int, Term] = {}  # line index -> term
        # Role -> term -> id, or None for a term that has no id in that role.
        self._ids: dict[str, dict[Term, "int | None"]] = {S_ROLE: {}, O_ROLE: {}, P_ROLE: {}}

    @classmethod
    def build(cls, triples: Iterable[tuple[Term, Term, Term]]) -> "Dictionary":
        # Two passes: classify terms first, then assign ids in first-appearance
        # order so the shared range 1..n_so comes out dense.
        subjects: dict[Term, None] = {}
        objects: dict[Term, None] = {}
        preds: dict[Term, None] = {}
        for s, p, o in triples:
            subjects[s] = objects[o] = preds[p] = None
        shared = [t for t in subjects if t in objects]  # in subject order
        s_only = [t for t in subjects if t not in objects]
        o_only = [t for t in objects if t not in subjects]
        n_so = len(shared)
        lines = [
            *(f"{i}\t{SO_CLASS}\t{t.n3()}\n" for i, t in enumerate(shared, 1)),
            *(f"{i}\t{S_CLASS}\t{t.n3()}\n" for i, t in enumerate(s_only, n_so + 1)),
            *(f"{i}\t{O_CLASS}\t{t.n3()}\n" for i, t in enumerate(o_only, n_so + 1)),
            *(f"{i}\t{P_CLASS}\t{t.n3()}\n" for i, t in enumerate(preds, 1)),
        ]
        d = cls("".join(lines).encode("utf-8"), len(subjects), len(objects), n_so, len(preds))
        # Every lookup is answered from the caches, so nothing is searched.
        d._terms.update(enumerate([*shared, *s_only, *o_only, *preds]))
        d._ids[S_ROLE].update(zip([*shared, *s_only], range(1, d.n_s + 1)))
        d._ids[O_ROLE].update(zip([*shared, *o_only], range(1, d.n_o + 1)))
        d._ids[P_ROLE].update(zip(preds, range(1, d.n_p + 1)))
        return d

    # -- lines ---------------------------------------------------------------

    def _entry(self, line: int) -> tuple[int, bytes]:
        """The id that line index ``line`` must hold, and the line's prefix
        up to its second tab: the id and class."""
        n_s, n_so = self.n_s, self.n_so
        if line < n_s:
            idx, cls = line + 1, b"so" if line < n_so else b"s"
        elif line < self.n_s + self.n_o - n_so:
            idx, cls = n_so + line - n_s + 1, b"o"
        else:
            idx, cls = line - (self.n_s + self.n_o - n_so) + 1, b"p"
        return idx, b"%d\t%s" % (idx, cls)

    def _term_at(self, line: int) -> Term:
        term = self._terms.get(line)
        if term is not None:
            return term
        if self._lines is None:
            self._lines = self.data.split(b"\n")
        text = self._lines[line]
        entry = self._entry(line)[1]
        try:
            if not text.startswith(entry + b"\t"):
                raise ValueError(f"expected id and class {entry.decode()!r}")
            rendered = text[len(entry) + 1 :].decode("utf-8")
            term = _parse_rendered_term(rendered)
            if term.n3() != rendered:
                raise ValueError(f"{rendered!r} is not a rendered term")
        except ValueError as exc:  # UnicodeDecodeError included
            raise StoreError(f"{self.source}:{line + 1}: malformed entry ({exc})") from None
        self._terms[line] = term
        return term

    def _lookup(self, role: str, term: Term) -> "int | None":
        found = self._ids[role].get(term, 0)  # 0: not looked up yet
        if found != 0:
            return found
        found = None
        rendered = term.n3()
        # In an intact file every hit is a whole third field: no rendering
        # holds a newline, and a tab inside one (only a string literal holds
        # one) is never followed by the rest of a rendering and the line end.
        # So the line of every hit must hold the id and class of its place.
        # A term can sit on two lines: an S/O line and a P line.
        if "\n" not in rendered:
            data = self.data
            n_lines = self.n_s + self.n_o - self.n_so + self.n_p
            needle = b"\t" + rendered.encode("utf-8") + b"\n"
            at = data.find(needle)
            while at >= 0:
                start = data.rfind(b"\n", 0, at) + 1
                # Count newlines from the nearer end: the P lines come last.
                if start <= len(data) // 2:
                    line = data.count(b"\n", 0, start)
                else:
                    line = n_lines - data.count(b"\n", start)
                idx, entry = self._entry(line)
                if data[start:at] != entry:
                    raise StoreError(
                        f"{self.source}:{line + 1}: malformed entry "
                        f"(expected id and class {entry.decode()!r})"
                    )
                if entry.endswith(_ROLE_CLASSES[role]):
                    found = idx
                    self._terms.setdefault(line, term)
                    break
                at = data.find(needle, at + 1)
        self._ids[role][term] = found
        return found

    # -- lookups -------------------------------------------------------------

    def subject_id(self, term: Term) -> "int | None":
        return self._lookup(S_ROLE, term)

    def object_id(self, term: Term) -> "int | None":
        return self._lookup(O_ROLE, term)

    def predicate_id(self, term: Term) -> "int | None":
        return self._lookup(P_ROLE, term)

    def subject_term(self, idx: int) -> Term:
        return self._term_at(idx - 1)

    def object_term(self, idx: int) -> Term:
        return self._term_at(idx - 1 if idx <= self.n_so else self.n_s - self.n_so + idx - 1)

    def predicate_term(self, idx: int) -> Term:
        return self._term_at(self.n_s + self.n_o - self.n_so + idx - 1)

    # -- join keys -----------------------------------------------------------
    #
    # The join names a bound S/O term by one int: its subject id when the term
    # occurs as a subject (the shared ids 1..n_so included), minus its object
    # id when it occurs only as an object. Ids above n_so are reused between
    # the subject-only and object-only ranges; the sign keeps them apart.

    def key(self, space: str, pos: int) -> int:
        """Join key of the term at ``pos`` of a subject or object dimension."""
        if space == bitmat.O and pos > self.n_so:
            return -pos
        return pos

    def position(self, key: "int | None", space: str) -> "int | None":
        """Position of the term named by ``key`` on a subject or object
        dimension; None for a NULL key or a term that cannot occur there."""
        if key is None:
            return None
        if space == bitmat.S:
            return key if key > 0 else None
        if key < 0:
            return -key
        return key if key <= self.n_so else None

    def term(self, key: int) -> Term:
        """The term a join key names."""
        return self._term_at(key - 1 if key > 0 else self.n_s - self.n_so - key - 1)


SO_KIND_CODE = 0  # kind word of a stored matrix; only S-O matrices are stored
MANIFEST_VERSION = "bitopt-store-format 4"  # first line of manifest.txt
_STORE_FILE = re.compile(r"dict\.tsv|manifest\.txt|bm_so_\d+\.bin")
# A column read searches each row instead of the file's bytes when the bytes
# hold more than this many hits per stored row. The false hits are length
# words, for a small column, and row index words; no column gets one per
# row. On LUBM at 36.7k triples a hit costs 1.0-1.5 us and a searched row
# 0.55-0.8 us.
_HITS_PER_ROW = 0.5


class TripleStore:
    """Immutable-after-load triple store; any number of concurrent readers.

    The S-O matrix of each predicate is held as the bytes of its file, the
    only copy of the triples. Masked reads decode only what they return; a
    whole matrix, and its transpose, is decoded on its first unmasked read
    and cached under ``("SO", pid)`` or ``("OS", pid)``.
    """

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        self._cache: dict[tuple[str, int], BitMat] = {}
        # Predicate id -> the name or path of its matrix file, and its bytes:
        # the encoder's, or those ``open`` read and checked.
        self._data: dict[int, tuple[str, bytes]] = {}
        # Predicate id -> its matrix words, built on the predicate's first use.
        self._words: dict[int, _MatrixWords] = {}

    @classmethod
    def from_ntriples(cls, source) -> "TripleStore":
        term_triples = list(parse_ntriples(source))
        d = Dictionary.build(term_triples)
        # Predicate id -> subject id -> object ids, duplicates included.
        grouped: dict[int, dict[int, list[int]]] = {pid: {} for pid in range(1, d.n_p + 1)}
        sub, obj, pred = d._ids[S_ROLE], d._ids[O_ROLE], d._ids[P_ROLE]  # full after build
        for s, p, o in term_triples:
            rows = grouped[pred[p]]
            sid = sub[s]
            oids = rows.get(sid)
            if oids is None:
                rows[sid] = [obj[o]]
            else:
                oids.append(obj[o])
        del term_triples
        store = cls(d)
        for pid in range(1, d.n_p + 1):
            store._data[pid] = (f"bm_so_{pid}.bin", _encode_matrix(pid, grouped.pop(pid), d.n_s, d.n_o))
        return store

    def _matrix(self, pid: int) -> "_MatrixWords":
        words = self._words.get(pid)
        if words is None:
            if pid not in self._data:
                raise StoreError(f"no S-O matrix for predicate {pid}")
            words = self._words[pid] = _MatrixWords(*self._data[pid], self.dictionary)
        return words

    @property
    def triple_count(self) -> int:
        """The sum of the matrix headers' triple counts, read without a walk
        of the rows: the encoder wrote them, or ``open`` read them from files
        whose header it checked. A predicate's first use checks its count
        against its rows."""
        return sum(struct.unpack_from("<I", data, 16)[0] for _, data in self._data.values())

    def term_triples(self) -> list[tuple[Term, Term, Term]]:
        d = self.dictionary
        out = [
            (d.subject_term(s), d.predicate_term(pid), d.object_term(o))
            for pid in range(1, d.n_p + 1)
            for s, o in self.bitmat("SO", pid).cells()
        ]
        out.sort(key=lambda t: tuple(term_sort_key(x) for x in t))
        return out

    # -- reads -------------------------------------------------------------------

    def bitmat(self, kind: str, pid: int, keep: "BitArray | None" = None) -> BitMat:
        """Read a stored S-O matrix, or some of its rows or columns:

        * ``"SO"`` and ``"OS"``: S-O(pid) and its transpose, decoded whole
          and cached. Callers must copy before mutating;
        * ``"SO_MASKED"`` and ``"OS_MASKED"`` with ``keep``, a mask over the
          rows to return (subjects for S-O, objects for O-S): a new S-O or
          O-S matrix of only those rows, never cached as a whole. S-O rows
          are decoded one by one. O-S rows are read as columns of S-O(pid),
          unless the whole O-S matrix is cached, or more than one column is
          asked for and the columns not yet read cost more than building it
          (see ``_MatrixWords.column_budget``): then they are picked from
          the whole O-S matrix, which is built and cached if need be."""
        if kind in ("SO_MASKED", "OS_MASKED"):
            return self._masked(kind[:2], pid, keep)
        cached = self._cache.get((kind, pid))
        if cached is not None:
            return cached
        if kind == "SO":
            bm = self._matrix(pid).decode()
        elif kind == "OS":
            bm = bitmat.transpose(self.bitmat("SO", pid))
        else:
            raise StoreError(f"unknown BitMat kind {kind!r}")
        self._cache[(kind, pid)] = bm
        return bm

    def _masked(self, kind: str, pid: int, keep: BitArray) -> BitMat:
        d = self.dictionary
        words = self._matrix(pid)
        if kind == "SO":
            bm = BitMat(bitmat.S, bitmat.O, d.n_s, d.n_o)
            bm.rows = words.rows_in(BitArray(bitmat.S, d.n_s, align_mask(keep, bitmat.S, d.n_s, d.n_so)))
        else:
            bm = BitMat(bitmat.O, bitmat.S, d.n_o, d.n_s)
            mask = BitArray(bitmat.O, d.n_o, align_mask(keep, bitmat.O, d.n_o, d.n_so))
            whole = self._cache.get(("OS", pid))
            if whole is None and not words.columns_cheaper(mask):
                whole = self.bitmat("OS", pid)
            if whole is None:
                bm.rows = words.columns_in(mask)
            elif mask.count() <= len(whole.rows):
                bm.rows = {oid: row for oid in mask.positions() if (row := whole.rows.get(oid)) is not None}
            else:
                bits = mask.mask
                bm.rows = {oid: row for oid, row in whole.rows.items() if bits >> (oid - 1) & 1}
        bm.refresh_meta()
        return bm

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str) -> list[str]:
        """Write dict.tsv, one file per S-O BitMat and the manifest into a
        new sibling directory and rename it into place, so a failed save
        leaves the previous store whole. A directory holding anything but
        store files is not replaced. Returns the matrix file names."""
        target = os.path.abspath(directory)
        if os.path.exists(target):
            foreign = sorted(n for n in os.listdir(target) if not _STORE_FILE.fullmatch(n))
            if foreign:
                raise StoreError(f"{directory} holds files that are not part of a store: {', '.join(foreign)}")
        parent = os.path.dirname(target)
        os.makedirs(parent, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f".{os.path.basename(target)}.", dir=parent)
        staged, previous = os.path.join(work, "new"), os.path.join(work, "old")
        try:
            os.mkdir(staged)
            d = self.dictionary
            with open(os.path.join(staged, "dict.tsv"), "wb") as fh:
                fh.write(d.data)
            names = []
            lines = [
                MANIFEST_VERSION,
                f"dict.tsv {len(d.data)} {zlib.crc32(d.data)} {d.n_s} {d.n_o} {d.n_so} {d.n_p}",
            ]
            for pid in range(1, d.n_p + 1):
                name = f"bm_so_{pid}.bin"
                data = self._data[pid][1]
                with open(os.path.join(staged, name), "wb") as fh:
                    fh.write(data)
                names.append(name)
                lines.append(f"{name} {len(data)} {zlib.crc32(data)}")
            with open(os.path.join(staged, "manifest.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            if os.path.exists(target):
                os.rename(target, previous)
            try:
                os.rename(staged, target)
            except BaseException:
                if os.path.isdir(previous):
                    os.rename(previous, target)
                raise
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return names

    @classmethod
    def open(cls, directory: str) -> "TripleStore":
        """Check a saved store's files against its manifest without parsing
        the dictionary or decoding a matrix. A malformed manifest, dimension
        counts that the dictionary's line count or a matrix header
        contradicts, or a file whose size or checksum differs from the
        manifest's, raises StoreError here. A dictionary line or a matrix row
        that does not fit raises it when a query first reads it, a matrix
        file's structure or triple count when a query first reads its
        predicate. The bytes checked here are kept: no file is read again."""
        dict_path = os.path.join(directory, "dict.tsv")
        manifest_path = os.path.join(directory, "manifest.txt")
        if not os.path.isfile(dict_path):
            raise StoreError(f"no store at {directory} (missing dict.tsv)")
        (size, crc, n_s, n_o, n_so, n_p), matrices = _read_manifest(manifest_path, directory)
        data = _read_checked(dict_path, size, crc)
        if min(n_s, n_o, n_so, n_p) < 0 or n_so > min(n_s, n_o):
            raise StoreError(
                f"{manifest_path}: impossible dictionary counts n_s={n_s} n_o={n_o} n_so={n_so} n_p={n_p}"
            )
        n_lines, found = n_s + n_o - n_so + n_p, data.count(b"\n")
        if found != n_lines or (data and not data.endswith(b"\n")):
            raise StoreError(f"{dict_path}: {found} lines, the manifest's counts give {n_lines}")
        store = cls(Dictionary(data, n_s, n_o, n_so, n_p, dict_path))
        d = store.dictionary
        for path, size, crc in matrices:
            data = _read_checked(path, size, crc)
            try:
                pid = _check_header(data, d)
            except StoreError as exc:
                raise StoreError(f"{path}: corrupt S-O matrix ({exc})") from None
            if pid in store._data:
                raise StoreError(f"{path}: second S-O matrix for predicate {pid}")
            store._data[pid] = (path, data)
        for pid in range(1, d.n_p + 1):
            if pid not in store._data:
                raise StoreError(f"{directory}: no S-O matrix for predicate {pid}")
        return store


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_manifest(path: str, directory: str) -> tuple[list[int], list[tuple[str, int, int]]]:
    """The manifest's ``dict.tsv`` entry (byte size, CRC-32, n_s, n_o, n_so,
    n_p), and the (path, byte size, CRC-32) of every matrix file it lists."""
    reload = "reload it with `bitopt load --force`"
    if not os.path.isfile(path):
        raise StoreError(f"{path}: missing; {reload}")
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines or lines[0] != MANIFEST_VERSION:
        raise StoreError(
            f"{path}: no {MANIFEST_VERSION!r} line; the store was written by "
            f"another version of bitopt, {reload}"
        )
    dictionary = None
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        name, *fields = line.split(" ")
        try:
            numbers = [int(f) for f in fields]
        except ValueError:
            numbers = []
        if os.path.basename(name) != name:
            raise StoreError(f"{path}:{lineno}: {name!r} is not a file name")
        if name == "dict.tsv" and len(numbers) == 6 and dictionary is None:
            dictionary = numbers
        elif name != "dict.tsv" and len(numbers) == 2:
            entries.append((os.path.join(directory, name), *numbers))
        else:
            raise StoreError(f"{path}:{lineno}: malformed entry {line!r}")
    if dictionary is None:
        raise StoreError(f"{path}: no dict.tsv entry; {reload}")
    return dictionary, entries


def _parse_rendered_term(rendered: str) -> Term:
    if rendered.startswith("<") and rendered.endswith(">"):
        return Iri(rendered[1:-1])
    if rendered.startswith('"'):
        return Literal(unescape(rendered[1:-1]))
    return Literal(int(rendered))


def _encode_matrix(pid: int, rows: dict[int, list[int]], n_rows: int, n_cols: int) -> bytes:
    """The file of S-O(pid), from its object ids per subject id. The ids
    come from the dictionary, so none is outside the matrix."""
    body = []
    cols: set[int] = set()
    count = 0
    for sid in sorted(rows):
        oids = rows[sid]
        if len(oids) > 1:
            oids = sorted(set(oids))
        cols.update(oids)
        count += len(oids)
        body += (sid, len(oids), *oids)
    words = [SO_KIND_CODE, pid, n_rows, n_cols, count, len(cols), len(rows), *body]
    return struct.pack(f"<{len(words)}I", *words)


def _read_checked(path: str, size: int, crc: int) -> bytes:
    """A store file's bytes, provided they match the manifest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StoreError(f"{path}: cannot read ({exc.strerror})") from None
    if len(data) != size:
        raise StoreError(f"{path}: {len(data)} bytes, the manifest says {size}")
    if zlib.crc32(data) != crc:
        raise StoreError(f"{path}: checksum differs from the manifest")
    return data


def _check_header(data: bytes, d: Dictionary) -> int:
    """Check a matrix file's header words against the dictionary; returns
    the predicate id."""
    if len(data) % 4 or len(data) < 28:
        raise StoreError(f"truncated to {len(data)} bytes")
    kind_code, pid, n_rows, n_cols = struct.unpack_from("<4I", data)
    if kind_code != SO_KIND_CODE:
        raise StoreError(f"kind code {kind_code} is not an S-O matrix")
    if not 1 <= pid <= d.n_p:
        raise StoreError(f"predicate {pid} outside 1..{d.n_p}")
    if (n_rows, n_cols) != (d.n_s, d.n_o):
        raise StoreError(f"{n_rows}x{n_cols} matrix, dictionary has {d.n_s}x{d.n_o}")
    return pid


class _MatrixWords:
    """One S-O matrix file as its words, and a row-offset table that is
    built when the predicate is first used and never stored.

    A file holds seven header words (kind code, predicate id, n_rows,
    n_cols, triple count, non-empty column count, number of stored rows),
    then each stored row in ascending order: its index, its length and its
    set positions, ascending. Building the table checks the header against
    the dictionary and the file's structure: ascending row indexes inside
    1..n_rows, non-zero lengths, no word after the last row, and lengths
    that sum to the header's triple count. A row's positions are checked
    when a read first decodes the row, so a bad row is reported only by a
    read that returns it. Decoded rows and read columns are kept.
    """

    def __init__(self, path: str, data: bytes, d: Dictionary):
        self.path = path
        self.data = data  # the file's bytes, searched by column reads
        try:
            self.pid = _check_header(data, d)
        except StoreError as exc:
            raise self._corrupt(str(exc)) from None
        if sys.byteorder == "little":
            words = memoryview(data).cast("I")
        else:
            words = array("I", data)
            words.byteswap()
        self.words = words
        n_rows, n_cols, count, cols_set, n_stored = words[2:7]
        self.n_rows, self.n_cols, self.count = n_rows, n_cols, count
        self._rows: dict[int, int] = {}  # row index -> row, once decoded
        self._cols: dict[int, "int | None"] = {}  # column -> its rows, once read
        self.offsets: list[int] = []  # word offset of each stored row's length word
        offsets = self.offsets
        at = 7
        try:
            # This loop is most of a predicate's first use, so it only steps
            # from row to row; the words it steps over are checked below.
            for _ in range(n_stored):
                offsets.append(at + 1)
                at += 2 + words[at + 1]
        except IndexError:  # a length word points past the end
            raise StoreError(f"{path}: truncated S-O matrix") from None
        if at > len(words):
            raise StoreError(f"{path}: truncated S-O matrix")
        if at < len(words):
            raise self._corrupt(f"{len(words) - at} words after the last row")
        ids = self.ids = [words[o - 1] for o in offsets]  # stored row indexes, ascending
        lengths = [words[o] for o in offsets]
        if ids and not (0 < ids[0] and ids[-1] <= n_rows and all(map(lt, ids, ids[1:])) and min(lengths)):
            raise self._corrupt(f"row indexes or lengths do not fit {n_rows}x{n_cols}")
        total = sum(lengths)
        if total != count:
            raise self._corrupt(f"header count {count} != stored bits {total}")
        # How many columns a masked O-S read reads one by one before a whole
        # decode and transpose costs less. The costs, in microseconds, were
        # fitted on the predicates of LUBM at 36.7k triples (README,
        # "Storage"): a column read costs 30, plus 0.008 per word for the
        # two searches of the bytes and 2.5 per expected hit; a whole decode
        # and transpose costs 0.65 per word and 1.75 per non-empty column.
        column_us = 30 + 0.008 * len(words) + 2.5 * count / max(cols_set, 1)
        self.column_budget = (0.65 * len(words) + 1.75 * cols_set) / column_us

    def _corrupt(self, why: str) -> StoreError:
        return StoreError(f"{self.path}: corrupt S-O matrix ({why})")

    def row(self, place: int) -> int:
        """The stored row at ``place`` in ``ids``, decoded and checked once."""
        row = self._rows.get(self.ids[place])
        if row is not None:
            return row
        at = self.offsets[place]
        positions = self.words[at + 1 : at + 1 + self.words[at]]
        prev = 0  # the positions must increase from 1 to at most n_cols
        for pos in positions:
            if pos <= prev:
                prev = self.n_cols + 1
                break
            prev = pos
        if prev > self.n_cols:
            raise self._corrupt(f"row {self.ids[place]} does not fit {self.n_rows}x{self.n_cols}")
        row = self._rows[self.ids[place]] = row_from_positions(positions)
        return row

    def row_of(self, idx: int) -> "int | None":
        """Row ``idx``, or None when it is empty or outside 1..n_rows."""
        row = self._rows.get(idx)
        if row is None:
            place = bisect_left(self.ids, idx)
            if place < len(self.ids) and self.ids[place] == idx:
                row = self.row(place)
        return row

    def rows_in(self, mask: BitArray) -> dict[int, int]:
        """The stored rows whose bit is set in ``mask``, by index.

        Walks the mask's bits or the stored rows, whichever are fewer. On the
        ``distinct`` workload's warm store, masks keep 1,632-1,920 of 2,907
        subjects over 684-2,112 stored rows: walking the stored rows takes
        0.13-0.37 ms there against 0.71-0.84 ms for the mask's bits."""
        if mask.count() < len(self.ids):
            return {idx: row for idx in mask.positions() if (row := self.row_of(idx)) is not None}
        keep, rows = mask.mask, self._rows
        return {idx: rows.get(idx) or self.row(place) for place, idx in enumerate(self.ids) if keep >> (idx - 1) & 1}

    def column(self, col: int) -> "int | None":
        """Column ``col`` as a row over the row indexes, read once; None when
        it is empty or outside 1..n_cols. Every row found is decoded, so its
        positions are checked."""
        try:
            return self._cols[col]
        except KeyError:
            pass
        places = sorted(self._column_places(col)) if self.ids and 1 <= col <= self.n_cols else []
        for place in places:
            self.row(place)
        row = self._cols[col] = row_from_positions([self.ids[p] for p in places]) if places else None
        return row

    def columns_cheaper(self, mask: BitArray) -> bool:
        """Whether reading the columns set in ``mask`` that have not been
        read costs less than a whole decode and transpose. One column is
        always read alone: the read of a constant object never builds the
        transpose."""
        budget = self.column_budget
        if mask.count() <= max(budget, 1):
            return True
        cols, unread = self._cols, 0
        for col in mask.positions():
            if col not in cols:
                unread += 1
                if unread > budget:
                    return False
        return True

    def columns_in(self, mask: BitArray) -> dict[int, int]:
        """The non-empty columns whose bit is set in ``mask``, by index."""
        return {col: row for col in mask.positions() if (row := self.column(col)) is not None}

    def _column_places(self, col: int) -> list[int]:
        """The places in ``ids`` of the rows that hold bit ``col``.

        Rows are found by searching the file's bytes for the column's word:
        a hit on a word boundary inside a row's positions is that row's bit.
        A short row's length word is a hit for a small column, and a row's
        index word for the column of that number, so when the bytes hold
        more hits than ``_HITS_PER_ROW`` per stored row, each row is
        searched instead, in the positions that can hold ``col`` (positions
        rise from 1, so at most the first ``col``)."""
        data, words, offsets = self.data, self.words, self.offsets
        needle = struct.pack("<I", col)
        start = 4 * (offsets[0] + 1)  # the first stored row's positions
        if data.count(needle, start) > _HITS_PER_ROW * len(offsets):
            return [
                place
                for place, at in enumerate(offsets)
                if (hi := at + 1 + min(words[at], col)) > (i := bisect_left(words, col, at + 1, hi))
                and words[i] == col
            ]
        places = []
        at = data.find(needle, start)
        while at >= 0:
            resume = at + 1
            if not at & 3:
                word = at >> 2
                place = bisect_right(offsets, word) - 1
                end = offsets[place] + 1 + words[offsets[place]]
                if offsets[place] < word < end:  # a position, not a length or the next row's index
                    places.append(place)
                    resume = 4 * end
            at = data.find(needle, resume)
        return places

    def decode(self) -> BitMat:
        """The whole matrix, every row decoded and checked."""
        bm = BitMat(bitmat.S, bitmat.O, self.n_rows, self.n_cols)
        bm.rows = {idx: self.row(place) for place, idx in enumerate(self.ids)}
        bm.triple_count = self.count
        return bm
