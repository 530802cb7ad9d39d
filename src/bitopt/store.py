"""Dictionary-encoded triple storage: per-predicate S-O bit matrices.

Terms are mapped to dense integer coordinates. Terms occurring both as
subject and object get ids 1..n_so shared between the two dimensions;
subject-only terms continue at n_so+1..n_s, object-only terms independently
at n_so+1..n_o, predicates live in their own 1..n_p space. The conceptual
subject x predicate x object bit cube is never materialized.

The S-O matrix of each predicate is the only copy of the triples, in memory
and on disk. Everything else is derived from one of those matrices on first
use and cached: an O-S slice is the transpose of one S-O matrix, the row
read of a pattern with a constant subject, ``(:s :p ?o)``, shares row s of
S-O(p), and the column read of a pattern with a constant object,
``(?s :p :o)``, tests bit o in every stored row of S-O(p).

A saved store is a directory holding ``dict.tsv``, one ``bm_so_<pid>.bin``
per predicate and ``manifest.txt``: a format-version line, a ``dict.tsv``
line with its byte size, CRC-32 and the counts n_s, n_o, n_so and n_p, then
one line per matrix file with its byte size and CRC-32. ``save`` writes a
new directory beside it and renames that into place. ``TripleStore.open``
checks every file's size and checksum against the manifest, the
dictionary's line count and each matrix header against the counts, but
builds no term and decodes no rows. The dictionary stays the bytes of
``dict.tsv``: it resolves only the terms a query names and the ids it
emits, each checked when first read, and a predicate's matrix is decoded,
fully checked, on its first use.
"""

from __future__ import annotations

import os
import re
import shutil
import struct
import tempfile
import zlib
from bisect import bisect_left
from typing import Iterable, Iterator

from . import bitmat
from .bitmat import BitMat, CompressedRow, bitmat_from_cells, row_from_mask, row_from_positions, row_test
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
MANIFEST_VERSION = "bitopt-store-format 3"  # first line of manifest.txt
_STORE_FILE = re.compile(r"dict\.tsv|manifest\.txt|bm_so_\d+\.bin")


class TripleStore:
    """Immutable-after-load triple store; any number of concurrent readers.

    The S-O matrices, cached under ``("SO", predicate id)``, are the only
    copy of the triples; every other slice is derived from them on demand.
    A store read by ``open`` decodes each S-O matrix on its first use.
    """

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        self._cache: dict[tuple[str, object], BitMat] = {}
        # Predicate id -> (path, byte size, CRC-32) of its matrix file.
        self._files: dict[int, tuple[str, int, int]] = {}

    @classmethod
    def from_ntriples(cls, source) -> "TripleStore":
        term_triples = list(parse_ntriples(source))
        d = Dictionary.build(term_triples)
        cells: dict[int, list[tuple[int, int]]] = {pid: [] for pid in range(1, d.n_p + 1)}
        sub, obj, pred = d._ids[S_ROLE], d._ids[O_ROLE], d._ids[P_ROLE]  # full after build
        for s, p, o in term_triples:
            cells[pred[p]].append((sub[s], obj[o]))
        del term_triples
        store = cls(d)
        for pid in range(1, d.n_p + 1):
            store._cache["SO", pid] = bitmat_from_cells(
                "SO", pid, bitmat.S, bitmat.O, d.n_s, d.n_o, cells.pop(pid)
            )
        return store

    def _so_matrices(self) -> Iterator[tuple[int, BitMat]]:
        for pid in range(1, self.dictionary.n_p + 1):
            yield pid, self.bitmat("SO", pid)

    @property
    def triple_count(self) -> int:
        return sum(bm.triple_count for _, bm in self._so_matrices())

    def term_triples(self) -> list[tuple[Term, Term, Term]]:
        d = self.dictionary
        out = [
            (d.subject_term(s), d.predicate_term(pid), d.object_term(o))
            for pid, bm in self._so_matrices()
            for s, o in bm.cells()
        ]
        out.sort(key=lambda t: tuple(term_sort_key(x) for x in t))
        return out

    # -- index families -------------------------------------------------------

    def bitmat(self, kind: str, slice_key: "int | tuple[int, int]") -> BitMat:
        """Fetch (decoding it on first use) a stored S-O matrix, or derive
        and cache a slice of one:

        * ``("SO", pid)`` and ``("OS", pid)``: S-O(pid) and its transpose;
        * ``("SO_ROW", (pid, sid))``: row sid of S-O(pid), a 1 x n_o matrix;
        * ``("SO_COL", (pid, oid))``: column oid of S-O(pid), as a 1 x n_s
          matrix.

        Callers must copy before mutating."""
        key = (kind, slice_key)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        d = self.dictionary
        if kind == "SO":
            entry = self._files.get(slice_key)
            if entry is None:
                raise StoreError(f"no S-O matrix for predicate {slice_key}")
            bm = _read_bitmat(entry, d)
        elif kind == "OS":
            bm = bitmat.transpose(self.bitmat("SO", slice_key))
        elif kind == "SO_ROW":
            pid, sid = slice_key
            row = self.bitmat("SO", pid).rows.get(sid)
            bm = BitMat("ROW", sid, bitmat.UNIT, bitmat.O, 1, d.n_o)
            if row is not None:
                bm.rows[1] = row  # shared as is: rows are immutable
                bm.refresh_meta()
        elif kind == "SO_COL":
            # Position rows (nearly all of them) are tested inline: this
            # loop visits every stored row of the matrix.
            pid, oid = slice_key
            hits = []
            for s, row in self.bitmat("SO", pid).rows.items():
                if row.tag == "pos":
                    pos = row.payload
                    if pos[0] <= oid <= pos[-1] and pos[bisect_left(pos, oid)] == oid:
                        hits.append(s)
                elif row_test(row, oid):
                    hits.append(s)
            bm = BitMat("ROW", oid, bitmat.UNIT, bitmat.S, 1, d.n_s)
            if hits:
                hits.sort()
                bm.rows[1] = row_from_positions(hits, d.n_s)
                bm.triple_count = len(hits)
        else:
            raise StoreError(f"unknown BitMat kind {kind!r}")
        self._cache[key] = bm
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
            for pid, bm in self._so_matrices():
                name = f"bm_so_{pid}.bin"
                data = _encode_bitmat(bm)
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
        manifest's, raises StoreError here; a dictionary line or a matrix row
        that does not fit raises it when a query first reads it."""
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
            if pid in store._files:
                raise StoreError(f"{path}: second S-O matrix for predicate {pid}")
            store._files[pid] = (path, size, crc)
        for pid in range(1, d.n_p + 1):
            if pid not in store._files:
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


def _encode_rowlike(row: CompressedRow) -> list[int]:
    tag = 2 if row.tag == "pos" else row.start_bit
    return [tag, len(row.payload), *row.payload]


def _encode_bitmat(bm: BitMat) -> bytes:
    words = [SO_KIND_CODE, bm.slice_key, bm.n_rows, bm.n_cols, bm.triple_count]
    words += _encode_rowlike(row_from_mask(bm.nonempty_rows.mask, max(bm.n_rows, 1)))
    words += _encode_rowlike(row_from_mask(bm.nonempty_cols.mask, max(bm.n_cols, 1)))
    words.append(len(bm.rows))
    for idx in sorted(bm.rows):
        words.append(idx)
        words += _encode_rowlike(bm.rows[idx])
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


def _read_bitmat(entry: tuple[str, int, int], d: Dictionary) -> BitMat:
    """Read one S-O matrix file, check it against the manifest again (it
    may have changed since ``open``), decode it and check it against the
    dictionary."""
    path = entry[0]
    data = _read_checked(*entry)
    try:
        return _decode_bitmat(data, d)
    except StoreError as exc:
        raise StoreError(f"{path}: corrupt S-O matrix ({exc})") from None
    except IndexError:  # a count word points past the end
        raise StoreError(f"{path}: truncated S-O matrix") from None


def _check_header(data: bytes, d: Dictionary) -> int:
    """Check a matrix file's header words against the dictionary; returns
    the predicate id."""
    if len(data) % 4 or len(data) < 24:
        raise StoreError(f"truncated to {len(data)} bytes")
    kind_code, slice_key, n_rows, n_cols = struct.unpack_from("<4I", data)
    if kind_code != SO_KIND_CODE:
        raise StoreError(f"kind code {kind_code} is not an S-O matrix")
    if not 1 <= slice_key <= d.n_p:
        raise StoreError(f"predicate {slice_key} outside 1..{d.n_p}")
    if (n_rows, n_cols) != (d.n_s, d.n_o):
        raise StoreError(f"{n_rows}x{n_cols} matrix, dictionary has {d.n_s}x{d.n_o}")
    return slice_key


def _decode_bitmat(data: bytes, d: Dictionary) -> BitMat:
    slice_key = _check_header(data, d)
    words = struct.unpack(f"<{len(data) // 4}I", data)
    n_rows, n_cols, count = words[2:5]
    at = 5
    for _ in range(2):  # non-empty row and column masks; recomputable
        at += 2 + words[at + 1]
    n_stored = words[at]
    at += 1
    bm = BitMat("SO", slice_key, bitmat.S, bitmat.O, n_rows, n_cols)
    for _ in range(n_stored):
        # One row: index, tag (0/1 run-length start bit, 2 positions),
        # payload length, payload. Decoded inline: this loop is most of a
        # predicate's first use.
        idx, tag, length = words[at], words[at + 1], words[at + 2]
        at += 3
        payload = words[at : at + length]
        at += length
        if tag == 2:
            row = CompressedRow("pos", 0, payload)
            fits = length > 0 and 1 <= payload[0] and payload[-1] <= n_cols
            if length > 1:  # the ends bound the rest only if positions increase
                prev = 0
                for pos in payload:
                    if pos <= prev:
                        fits = False
                        break
                    prev = pos
        else:
            row = CompressedRow("rle", tag, payload)
            fits = tag < 2 and sum(payload) == n_cols
        if not (fits and len(payload) == length and 1 <= idx <= n_rows):
            raise StoreError(f"row {idx} does not fit {n_rows}x{n_cols}")
        bm.rows[idx] = row
    if at != len(words):
        raise StoreError(f"{len(words) - at} words after the last row")
    bm.refresh_meta()
    if bm.triple_count != count:
        raise StoreError(f"header count {count} != stored bits {bm.triple_count}")
    return bm
