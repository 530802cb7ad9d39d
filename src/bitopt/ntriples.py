"""Line-oriented N-Triples subset reader.

Accepted per line: ``<iri> <iri> (<iri> | "literal" | integer) .`` with
optional ``#`` comments and blank lines. Integer objects may be written bare
(``45``) or as ``"45"^^<...#integer>``; both decode to integer literals.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator

from .terms import Iri, Literal, Term, unescape

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


class NTriplesError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\s]*)>")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_INT_RE = re.compile(r"[+-]?[0-9]+")


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
            try:
                return Literal(int(value)), dt.end()
            except ValueError:
                raise NTriplesError(f"bad integer lexical form {value!r}", line_no) from None
        return Literal(value), end
    m = _INT_RE.match(text, pos)
    if m:
        return Literal(int(m.group(0))), m.end()
    raise NTriplesError(f"unrecognized term at column {pos + 1}", line_no)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    return pos


def parse_ntriples(source: "str | bytes | io.IOBase | Iterable[str]") -> Iterator[tuple[Term, Term, Term]]:
    """Yield (subject, predicate, object) triples; duplicates are not collapsed here."""
    # Only LF ends a line: str.splitlines() would also split inside a
    # literal at U+2028, U+0085, a form feed and other breaks.
    if isinstance(source, bytes):
        lines: Iterable[str] = source.decode("utf-8").split("\n")
    elif isinstance(source, str):
        lines = source.split("\n")
    else:
        lines = (ln.decode("utf-8") if isinstance(ln, bytes) else ln for ln in source)

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
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
        trailing = line[pos + 1 :].strip()
        if trailing and not trailing.startswith("#"):
            raise NTriplesError(f"trailing content {trailing!r}", line_no)
        yield (s, p, o)
