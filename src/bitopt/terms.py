"""RDF term model shared by the store, the query algebra, and the oracle.

Only the core term kinds are supported: IRIs, plain string literals, and
decimal integer literals. Integer literals compare numerically, strings
lexicographically; IRIs support equality only.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def n3(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class Literal:
    """Plain literal. ``value`` is ``int`` for integers, ``str`` otherwise."""

    value: "int | str"

    @property
    def is_integer(self) -> bool:
        return isinstance(self.value, int)

    def n3(self) -> str:
        if self.is_integer:
            return str(self.value)
        # No line break survives: dict.tsv keeps one rendered term per line.
        value = str(self.value)
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
        return f'"{escaped}"'


Term = Iri | Literal

_INTEGER = re.compile(r"[+-]?[0-9]+")
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def unescape(body: str) -> str:
    """Decode the escapes of a string literal's body: ECHAR (``\\t \\b \\n
    \\r \\f \\" \\' \\\\``) and UCHAR (``\\uXXXX``, ``\\UXXXXXXXX``). Raises
    ValueError for any other escape and for a code point that is a surrogate
    or above U+10FFFF."""

    def decode(m: re.Match) -> str:
        digits = m.group(1) or m.group(2)
        if digits is None:
            if m.group(3) not in _ECHAR:
                raise ValueError(f"unknown escape \\{m.group(3)}")
            return _ECHAR[m.group(3)]
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValueError(f"escape {m.group(0)} is not a Unicode scalar value")
        return chr(code)

    return _ESCAPE.sub(decode, body) if "\\" in body else body


def term_sort_key(term: Term) -> tuple:
    # IRIs before literals, then by rendered value; keeps output deterministic.
    if isinstance(term, Iri):
        return (0, term.value)
    if term.is_integer:
        return (1, "", term.value)
    return (2, str(term.value), 0)


def render_term(term: "Term | None") -> str:
    """TSV rendering; NULL becomes the empty field. A tab in a literal is
    written as ``\\t``, so every row keeps one field per column."""
    return "" if term is None else term.n3().replace("\t", "\\t")


def parse_integer(lexical: str) -> int:
    """The value of an integer's lexical form ``[+-]?[0-9]+``, ASCII digits
    only. Anything else, and a form longer than ``int()`` reads, raises a
    ValueError whose message quotes at most the first 40 characters."""
    well_formed = _INTEGER.fullmatch(lexical) is not None
    if well_formed:
        try:
            return int(lexical)
        except ValueError:
            pass
    shown = repr(lexical) if len(lexical) <= 40 else f"{lexical[:40]!r}... ({len(lexical)} characters)"
    if well_formed:  # so too long for int()
        raise ValueError(f"integer {shown} has more than {sys.get_int_max_str_digits()} digits")
    raise ValueError(f"bad integer lexical form {shown}")
