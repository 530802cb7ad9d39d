"""Line-oriented N-Triples subset reader.

Accepted per line: ``<iri> <iri> (<iri> | "literal" | integer) .`` with
optional ``#`` comments and blank lines. Integer objects may be written bare
(``45``) or as ``"45"^^<...#integer>``; both decode to integer literals.

A line of three IRIs, or of two IRIs and a bare integer, with nothing after
the ``.``, is read by one whole-line match, and its terms are interned for the length of
one call: equal terms are then the same object, so a dict that already
holds one finds it by identity. Every other line, including each line the
match rejects, is read term by term, which reports what is wrong and where.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator

from .terms import Iri, Literal, Term, parse_integer, unescape

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


class NTriplesError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\s]*)>")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_INT_RE = re.compile(r"[+-]?[0-9]+")
# The whole-line fast path: three terms, the object an IRI or a bare integer.
# An IRI here may hold any character but ``>``; ``_intern`` checks it against
# ``_IRI_RE`` once per distinct text, which costs less than a strict class
# tested on every character of every line. Each group keeps an IRI's
# brackets, so an IRI's text and an integer's text never collide as keys.
_LINE_RE = re.compile(r"(<[^>]*>)[ \t]*(<[^>]*>)[ \t]*(<[^>]*>|[+-]?[0-9]+)[ \t]*\.")


class _NotFast(Exception):
    """A fast-path match holds an IRI that ``_IRI_RE`` rejects."""


def _integer(lexical: str, line_no: int) -> Literal:
    try:
        return Literal(parse_integer(lexical))
    except ValueError as exc:
        raise NTriplesError(str(exc), line_no) from None


def _parse_term(text: str, pos: int, line_no: int) -> tuple[Term, int]:
    if pos >= len(text):
        raise NTriplesError("unexpected end of line", line_no)
    ch = text[pos]
    if ch == "<":
        m = _IRI_RE.match(text, pos)
        if not m:
            raise NTriplesError(f"malformed IRI at column {pos + 1}", line_no)
        return Iri(m.group(1)), m.end()
    if ch == '"':
        m = _STRING_RE.match(text, pos)
        if not m:
            raise NTriplesError(f"malformed literal at column {pos + 1}", line_no)
        try:
            value = unescape(m.group(1))
        except ValueError as exc:
            raise NTriplesError(f"{exc} in literal at column {pos + 1}", line_no) from None
        end = m.end()
        if text.startswith("^^", end):
            dt = _IRI_RE.match(text, end + 2)
            if not dt:
                raise NTriplesError("malformed datatype IRI", line_no)
            if dt.group(1) != XSD_INTEGER:
                raise NTriplesError(f"unsupported datatype <{dt.group(1)}>", line_no)
            return _integer(value, line_no), dt.end()
        return Literal(value), end
    m = _INT_RE.match(text, pos)
    if m:
        return _integer(m.group(0), line_no), m.end()
    raise NTriplesError(f"unrecognized term at column {pos + 1}", line_no)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def _not_utf8(exc: UnicodeDecodeError, line_no: int, column: int) -> NTriplesError:
    return NTriplesError(f"not UTF-8 ({exc.reason} at byte {column + 1} of the line)", line_no)


def _decoded(lines: Iterable) -> Iterator[str]:
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_utf8(exc, line_no, exc.start) from None
        yield line


def _intern(terms: dict, text: str, line_no: int) -> Term:
    """The term of a fast-path match group, made on the text's first
    occurrence: one ``Iri`` per IRI text and one ``Literal`` per integer
    value, kept in ``terms`` under the text (and an integer's literal also
    under its value). Raises _NotFast for an IRI that ``_IRI_RE`` rejects."""
    if text[0] == "<":
        if _IRI_RE.fullmatch(text) is None:
            raise _NotFast
        term = Iri(text[1:-1])
    else:
        literal = _integer(text, line_no)
        term = terms.setdefault(literal.value, literal)
    terms[text] = term
    return term


def parse_ntriples(source: "str | bytes | io.IOBase | Iterable[str]") -> Iterator[tuple[Term, Term, Term]]:
    """Yield (subject, predicate, object) triples; duplicates are not collapsed here."""
    # Only LF ends a line: str.splitlines() would also split inside a
    # literal at U+2028, U+0085, a form feed and other breaks.
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_start = source.rfind(b"\n", 0, exc.start) + 1
            raise _not_utf8(exc, source.count(b"\n", 0, line_start) + 1, exc.start - line_start) from None
        lines: Iterable[str] = text.split("\n")
    elif isinstance(source, str):
        lines = source.split("\n")
    else:
        lines = _decoded(source)

    terms: dict = {}  # interned fast-path terms, see _intern
    get, match = terms.get, _LINE_RE.fullmatch
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        m = match(line)
        if m is not None:
            s, p, o = m.groups()
            try:
                triple = (
                    get(s) or _intern(terms, s, line_no),
                    get(p) or _intern(terms, p, line_no),
                    get(o) or _intern(terms, o, line_no),
                )
            except _NotFast:
                pass  # the term-by-term path reports the IRI
            else:
                yield triple
                continue
        if not line or line.startswith("#"):
            continue
        pos = 0
        s, pos = _parse_term(line, pos, line_no)
        if isinstance(s, Literal):
            raise NTriplesError("literal in subject position", line_no)
        pos = _skip_ws(line, pos)
        p, pos = _parse_term(line, pos, line_no)
        if not isinstance(p, Iri):
            raise NTriplesError("predicate must be an IRI", line_no)
        pos = _skip_ws(line, pos)
        o, pos = _parse_term(line, pos, line_no)
        pos = _skip_ws(line, pos)
        if pos >= len(line) or line[pos] != ".":
            raise NTriplesError("missing terminating '.'", line_no)
        trailing = line[pos + 1 :].split("#", 1)[0].strip()  # up to a comment
        if trailing:
            raise NTriplesError(f"trailing content {trailing!r}", line_no)
        yield (s, p, o)
