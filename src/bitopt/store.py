"""Dictionary-encoded triple storage: per-predicate S-O bit matrices.

Terms are mapped to dense integer coordinates. Terms occurring both as
subject and object get ids 1..n_so shared between the two dimensions;
subject-only terms continue at n_so+1..n_s, object-only terms independently
at n_so+1..n_o, predicates live in their own 1..n_p space. The conceptual
subject x predicate x object bit cube is never materialized.

The S-O matrix of each predicate is the only copy of the triples, in memory
and on disk. The other index families are derived from those matrices on
first use and cached: an O-S slice is the transpose of one S-O matrix, the
P-O slice of a subject takes that subject's row from every S-O matrix
(sharing the compressed rows), and the P-S slice of an object tests that
object's bit in every stored S-O row.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import bitmat
from .bitmat import BitMat, CompressedRow, bitmat_from_cells, row_from_mask, row_test
from .ntriples import parse_ntriples
from .terms import Iri, Literal, Term, term_sort_key

SO_CLASS = "so"
S_CLASS = "s"
O_CLASS = "o"
P_CLASS = "p"


class StoreError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Coord:
    """Canonical term coordinate: id plus the class that disambiguates it.

    Ids above n_so are reused between the subject-only and object-only
    ranges, so the class is part of the identity.
    """

    cls: str
    idx: int

    def on_subject_dim(self, n_so: int) -> "int | None":
        if self.cls == SO_CLASS or self.cls == S_CLASS:
            return self.idx
        return None

    def on_object_dim(self, n_so: int) -> "int | None":
        if self.cls == SO_CLASS or self.cls == O_CLASS:
            return self.idx
        return None

    def on_dim(self, space: str, n_so: int) -> "int | None":
        if space == bitmat.S:
            return self.on_subject_dim(n_so)
        if space == bitmat.O:
            return self.on_object_dim(n_so)
        if space == bitmat.P:
            return self.idx if self.cls == P_CLASS else None
        return None


class Dictionary:
    """Bidirectional term/id mapping honoring the shared S/O space."""

    def __init__(self):
        self._sub_ids: dict[Term, int] = {}
        self._obj_ids: dict[Term, int] = {}
        self._pred_ids: dict[Term, int] = {}
        self._sub_terms: dict[int, Term] = {}
        self._obj_terms: dict[int, Term] = {}
        self._pred_terms: dict[int, Term] = {}
        self.n_so = 0

    @classmethod
    def build(cls, triples: Iterable[tuple[Term, Term, Term]]) -> "Dictionary":
        # Two passes: classify terms first, then assign ids in first-appearance
        # order so the shared range 1..n_so comes out dense.
        triples = list(triples)
        subjects: list[Term] = []
        objects: list[Term] = []
        preds: list[Term] = []
        seen_s: set[Term] = set()
        seen_o: set[Term] = set()
        seen_p: set[Term] = set()
        for s, p, o in triples:
            if s not in seen_s:
                seen_s.add(s)
                subjects.append(s)
            if o not in seen_o:
                seen_o.add(o)
                objects.append(o)
            if p not in seen_p:
                seen_p.add(p)
                preds.append(p)
        d = cls()
        shared = seen_s & seen_o
        d.n_so = len(shared)
        next_id = 1
        for term in subjects:  # shared terms in first-appearance-as-subject order
            if term in shared:
                d._sub_ids[term] = d._obj_ids[term] = next_id
                d._sub_terms[next_id] = d._obj_terms[next_id] = term
                next_id += 1
        nid = d.n_so + 1
        for term in subjects:
            if term not in shared:
                d._sub_ids[term] = nid
                d._sub_terms[nid] = term
                nid += 1
        nid = d.n_so + 1
        for term in objects:
            if term not in shared:
                d._obj_ids[term] = nid
                d._obj_terms[nid] = term
                nid += 1
        for i, term in enumerate(preds, start=1):
            d._pred_ids[term] = i
            d._pred_terms[i] = term
        return d

    # -- sizes ---------------------------------------------------------------

    @property
    def n_s(self) -> int:
        return len(self._sub_ids)

    @property
    def n_o(self) -> int:
        return len(self._obj_ids)

    @property
    def n_p(self) -> int:
        return len(self._pred_ids)

    # -- lookups -------------------------------------------------------------

    def subject_id(self, term: Term) -> "int | None":
        return self._sub_ids.get(term)

    def object_id(self, term: Term) -> "int | None":
        return self._obj_ids.get(term)

    def predicate_id(self, term: Term) -> "int | None":
        return self._pred_ids.get(term)

    def subject_term(self, idx: int) -> Term:
        return self._sub_terms[idx]

    def object_term(self, idx: int) -> Term:
        return self._obj_terms[idx]

    def predicate_term(self, idx: int) -> Term:
        return self._pred_terms[idx]

    def coord(self, term: Term) -> "Coord | None":
        """Canonical coordinate of a term on the S/O dimensions, if any."""
        sid = self._sub_ids.get(term)
        if sid is not None:
            return Coord(SO_CLASS if sid <= self.n_so else S_CLASS, sid)
        oid = self._obj_ids.get(term)
        if oid is not None:
            return Coord(O_CLASS, oid)
        return None

    def canon(self, space: str, idx: int) -> Coord:
        if space == bitmat.S:
            return Coord(SO_CLASS if idx <= self.n_so else S_CLASS, idx)
        if space == bitmat.O:
            return Coord(SO_CLASS if idx <= self.n_so else O_CLASS, idx)
        if space == bitmat.P:
            return Coord(P_CLASS, idx)
        raise StoreError(f"no canonical coordinate in space {space!r}")

    def term_of(self, coord: Coord) -> Term:
        if coord.cls == P_CLASS:
            return self._pred_terms[coord.idx]
        if coord.cls == O_CLASS:
            return self._obj_terms[coord.idx]
        return self._sub_terms[coord.idx]

    def iter_entries(self) -> Iterator[tuple[int, str, Term]]:
        for idx in sorted(self._sub_terms):
            cls = SO_CLASS if idx <= self.n_so else S_CLASS
            yield idx, cls, self._sub_terms[idx]
        for idx in sorted(self._obj_terms):
            if idx > self.n_so:
                yield idx, O_CLASS, self._obj_terms[idx]
        for idx in sorted(self._pred_terms):
            yield idx, P_CLASS, self._pred_terms[idx]


SO_KIND_CODE = 0  # kind word of a stored matrix; only S-O matrices are stored


class TripleStore:
    """Immutable-after-load triple store; any number of concurrent readers.

    The S-O matrices, cached under ``("SO", predicate id)``, are the only
    copy of the triples; every other slice is derived from them on demand.
    """

    def __init__(self, dictionary: Dictionary):
        self.dictionary = dictionary
        self._cache: dict[tuple[str, int], BitMat] = {}

    @classmethod
    def from_ntriples(cls, source) -> "TripleStore":
        term_triples = list(parse_ntriples(source))
        d = Dictionary.build(term_triples)
        cells: dict[int, list[tuple[int, int]]] = {pid: [] for pid in range(1, d.n_p + 1)}
        for s, p, o in term_triples:
            cells[d.predicate_id(p)].append((d.subject_id(s), d.object_id(o)))
        del term_triples
        store = cls(d)
        for pid in range(1, d.n_p + 1):
            store._cache["SO", pid] = bitmat_from_cells(
                "SO", pid, bitmat.S, bitmat.O, d.n_s, d.n_o, cells.pop(pid)
            )
        return store

    def _so(self, pid: int) -> BitMat:
        bm = self._cache.get(("SO", pid))
        if bm is None:
            raise StoreError(f"no S-O matrix for predicate {pid}")
        return bm

    def _so_matrices(self) -> Iterator[tuple[int, BitMat]]:
        for pid in range(1, self.dictionary.n_p + 1):
            yield pid, self._so(pid)

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

    def bitmat(self, kind: str, slice_key: int) -> BitMat:
        """Fetch a stored S-O matrix or derive (and cache) another slice.
        Callers must copy before mutating."""
        key = (kind, slice_key)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        d = self.dictionary
        if kind == "SO":
            return self._so(slice_key)  # not cached: no such predicate
        if kind == "OS":
            bm = bitmat.transpose(self._so(slice_key))
        elif kind == "PS":
            # Column ``slice_key`` of every S-O matrix, read off the
            # compressed rows without decoding them. Position rows (nearly
            # all of them) are tested inline: this loop visits every row.
            cells = []
            for pid, so in self._so_matrices():
                for s, row in so.rows.items():
                    if row.tag == "pos":
                        pos = row.payload
                        if pos[0] <= slice_key <= pos[-1] and pos[bisect_left(pos, slice_key)] == slice_key:
                            cells.append((pid, s))
                    elif row_test(row, slice_key):
                        cells.append((pid, s))
            bm = bitmat_from_cells("PS", slice_key, bitmat.P, bitmat.S, d.n_p, d.n_s, cells)
        elif kind == "PO":
            # Row ``slice_key`` of every S-O matrix; the rows are shared as is.
            bm = BitMat("PO", slice_key, bitmat.P, bitmat.O, d.n_p, d.n_o)
            for pid, so in self._so_matrices():
                row = so.rows.get(slice_key)
                if row is not None:
                    bm.rows[pid] = row
            bm.refresh_meta()
        else:
            raise StoreError(f"unknown BitMat kind {kind!r}")
        self._cache[key] = bm
        return bm

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str) -> list[str]:
        """Write dict.tsv plus one file per S-O BitMat; returns file names."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "dict.tsv"), "w", encoding="utf-8") as fh:
            for idx, cls, term in self.dictionary.iter_entries():
                fh.write(f"{idx}\t{cls}\t{term.n3()}\n")
        names = []
        for pid, bm in self._so_matrices():
            name = f"bm_so_{pid}.bin"
            _write_bitmat(os.path.join(directory, name), bm)
            names.append(name)
        with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(names) + ("\n" if names else ""))
        return names

    @classmethod
    def open(cls, directory: str) -> "TripleStore":
        """Read a saved store. Every malformed or inconsistent file raises
        StoreError."""
        dict_path = os.path.join(directory, "dict.tsv")
        manifest_path = os.path.join(directory, "manifest.txt")
        if not os.path.isfile(dict_path):
            raise StoreError(f"no store at {directory} (missing dict.tsv)")
        store = cls(_read_dictionary(dict_path))
        if os.path.isfile(manifest_path):
            names = [ln.strip() for ln in _read_lines(manifest_path) if ln.strip()]
        else:
            names = []
        for name in names:
            path = os.path.join(directory, name)
            bm = _read_bitmat(path, store.dictionary)
            if ("SO", bm.slice_key) in store._cache:
                raise StoreError(f"{path}: second S-O matrix for predicate {bm.slice_key}")
            store._cache["SO", bm.slice_key] = bm
        for pid in range(1, store.dictionary.n_p + 1):
            if ("SO", pid) not in store._cache:
                raise StoreError(f"{directory}: no S-O matrix for predicate {pid}")
        return store


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_dictionary(path: str) -> Dictionary:
    d = Dictionary()
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line:
            continue
        try:
            idx_s, tag, rendered = line.split("\t", 2)
            idx = int(idx_s)
            term = _parse_rendered_term(rendered)
        except ValueError as exc:
            raise StoreError(f"{path}:{lineno}: malformed entry ({exc})") from None
        if tag == SO_CLASS:
            d._sub_ids[term] = d._obj_ids[term] = idx
            d._sub_terms[idx] = d._obj_terms[idx] = term
            d.n_so = max(d.n_so, idx)
        elif tag == S_CLASS:
            d._sub_ids[term] = idx
            d._sub_terms[idx] = term
        elif tag == O_CLASS:
            d._obj_ids[term] = idx
            d._obj_terms[idx] = term
        elif tag == P_CLASS:
            d._pred_ids[term] = idx
            d._pred_terms[idx] = term
        else:
            raise StoreError(f"{path}:{lineno}: unknown dictionary class {tag!r}")
    for ids, terms in (
        (d._sub_ids, d._sub_terms),
        (d._obj_ids, d._obj_terms),
        (d._pred_ids, d._pred_terms),
    ):
        # Dense 1..n ids, one per term: the matrix dimensions rely on it.
        if not len(ids) == len(terms) == max(terms, default=0):
            raise StoreError(f"{path}: ids are not a dense 1..n range of distinct terms")
    return d


def _parse_rendered_term(rendered: str) -> Term:
    if rendered.startswith("<") and rendered.endswith(">"):
        return Iri(rendered[1:-1])
    if rendered.startswith('"'):
        body = rendered[1:-1]
        return Literal(body.replace('\\"', '"').replace("\\\\", "\\"))
    return Literal(int(rendered))


def _encode_rowlike(row: CompressedRow) -> list[int]:
    tag = 2 if row.tag == "pos" else row.start_bit
    return [tag, len(row.payload), *row.payload]


def _write_bitmat(path: str, bm: BitMat) -> None:
    words = [SO_KIND_CODE, bm.slice_key, bm.n_rows, bm.n_cols, bm.triple_count]
    words += _encode_rowlike(row_from_mask(bm.nonempty_rows.mask, max(bm.n_rows, 1)))
    words += _encode_rowlike(row_from_mask(bm.nonempty_cols.mask, max(bm.n_cols, 1)))
    words.append(len(bm.rows))
    for idx in sorted(bm.rows):
        words.append(idx)
        words += _encode_rowlike(bm.rows[idx])
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<{len(words)}I", *words))


def _read_bitmat(path: str, d: Dictionary) -> BitMat:
    """Decode one S-O matrix file and check it against the dictionary."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode_bitmat(data, d)
    except StoreError as exc:
        raise StoreError(f"{path}: corrupt S-O matrix ({exc})") from None
    except IndexError:  # a count word points past the end
        raise StoreError(f"{path}: truncated S-O matrix") from None


def _decode_bitmat(data: bytes, d: Dictionary) -> BitMat:
    if len(data) % 4 or len(data) < 24:
        raise StoreError(f"truncated to {len(data)} bytes")
    words = struct.unpack(f"<{len(data) // 4}I", data)
    kind_code, slice_key, n_rows, n_cols, count = words[:5]
    if kind_code != SO_KIND_CODE:
        raise StoreError(f"kind code {kind_code} is not an S-O matrix")
    if not 1 <= slice_key <= d.n_p:
        raise StoreError(f"predicate {slice_key} outside 1..{d.n_p}")
    if (n_rows, n_cols) != (d.n_s, d.n_o):
        raise StoreError(f"{n_rows}x{n_cols} matrix, dictionary has {d.n_s}x{d.n_o}")
    at = 5
    for _ in range(2):  # non-empty row and column masks; recomputable
        at += 2 + words[at + 1]
    n_stored = words[at]
    at += 1
    bm = BitMat("SO", slice_key, bitmat.S, bitmat.O, n_rows, n_cols)
    for _ in range(n_stored):
        # One row: index, tag (0/1 run-length start bit, 2 positions),
        # payload length, payload. Decoded inline: this loop is most of open().
        idx, tag, length = words[at], words[at + 1], words[at + 2]
        at += 3
        payload = words[at : at + length]
        at += length
        if tag == 2:
            row = CompressedRow("pos", 0, payload)
            fits = length > 0 and 1 <= payload[0] and payload[-1] <= n_cols
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
