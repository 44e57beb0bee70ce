"""N-Triples parser and serialiser (RDF 1.1 N-Triples, line-based).

N-Triples is the simplest RDF concrete syntax: one triple per line, full IRIs
only.  It is used as the interchange format for the workload generators and as
the building block of the Turtle serialiser's escaping rules.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, Iterator, Tuple

from .errors import ParseError
from .graph import Graph
from .terms import (BNode, IRI, Literal, ObjectTerm, SubjectTerm, Triple,
                    escape_string, unchecked_triple)

__all__ = [
    "parse_ntriples",
    "iter_ntriples",
    "iter_ntriples_lines",
    "parse_term",
    "serialize_ntriples",
    "unescape_string",
    "escape_string",
]

_IRIREF = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_BNODE = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_LANGTAG = r"@([a-zA-Z]{1,8}(?:-[a-zA-Z0-9]{1,8})*)"

# group 1 of each position pattern is the whole token (leading whitespace
# excluded): the key of the per-call term memo in ``iter_ntriples_lines``.
_SUBJECT_RE = re.compile(rf"\s*({_IRIREF}|{_BNODE})")
_PREDICATE_RE = re.compile(rf"\s*({_IRIREF})")
_OBJECT_RE = re.compile(
    rf"\s*({_IRIREF}|{_BNODE}|{_STRING}(?:{_LANGTAG}|\^\^{_IRIREF})?)"
)
_END_RE = re.compile(r"\s*\.\s*(#.*)?$")

_ESCAPE_SEQUENCES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def unescape_string(value: str) -> str:
    """Resolve ``\\n``, ``\\t``, ``\\uXXXX`` and ``\\UXXXXXXXX`` escapes."""
    if "\\" not in value:
        return value
    out = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ParseError("dangling escape at end of string")
        esc = value[i + 1]
        if esc in _ESCAPE_SEQUENCES:
            out.append(_ESCAPE_SEQUENCES[esc])
            i += 2
        elif esc == "u":
            hex_digits = value[i + 2:i + 6]
            if len(hex_digits) != 4:
                raise ParseError(f"invalid \\u escape: {value[i:i+6]!r}")
            out.append(chr(int(hex_digits, 16)))
            i += 6
        elif esc == "U":
            hex_digits = value[i + 2:i + 10]
            if len(hex_digits) != 8:
                raise ParseError(f"invalid \\U escape: {value[i:i+10]!r}")
            out.append(chr(int(hex_digits, 16)))
            i += 10
        else:
            raise ParseError(f"unknown escape sequence: \\{esc}")
    return "".join(out)


def _parse_subject(line: str, pos: int, lineno: int) -> tuple[SubjectTerm, int]:
    match = _SUBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI or blank node as subject", lineno, pos)
    iri, bnode = match.group(2), match.group(3)
    term: SubjectTerm = IRI(unescape_string(iri)) if iri is not None else BNode(bnode)
    return term, match.end()


def _parse_predicate(line: str, pos: int, lineno: int) -> tuple[IRI, int]:
    match = _PREDICATE_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI as predicate", lineno, pos)
    return IRI(unescape_string(match.group(2))), match.end()


def _parse_object(line: str, pos: int, lineno: int) -> tuple[ObjectTerm, int]:
    match = _OBJECT_RE.match(line, pos)
    if not match:
        raise ParseError("expected IRI, blank node or literal as object", lineno, pos)
    iri, bnode, string, lang, dtype = match.group(2, 3, 4, 5, 6)
    term: ObjectTerm
    if iri is not None:
        term = IRI(unescape_string(iri))
    elif bnode is not None:
        term = BNode(bnode)
    else:
        lexical = unescape_string(string)
        if lang:
            term = Literal(lexical, lang=lang)
        elif dtype:
            term = Literal(lexical, datatype=IRI(unescape_string(dtype)))
        else:
            term = Literal(lexical)
    return term, match.end()


def parse_term(text: str) -> ObjectTerm:
    """Parse one N-Triples term (``<iri>``, ``_:bnode`` or a literal).

    The service layer's query-string contract: verdict queries name nodes in
    N-Triples syntax, the one representation every term already knows how to
    emit (:meth:`~repro.rdf.terms.Term.n3`).  Raises :class:`ParseError` on
    malformed input or trailing garbage.
    """
    stripped = text.strip()
    term, pos = _parse_object(stripped, 0, 1)
    if stripped[pos:].strip():
        raise ParseError(f"trailing characters after term: {stripped[pos:]!r}", 1, pos)
    return term


def _memo_term(memo: Dict[str, ObjectTerm], pattern: re.Pattern[str],
               parse: Callable[[str, int, int], Tuple[ObjectTerm, int]],
               line: str, pos: int, lineno: int) -> Tuple[ObjectTerm, int]:
    """The term at ``pos``, built by ``parse`` the first time its token text
    is seen and reused from ``memo`` afterwards."""
    match = pattern.match(line, pos)
    if match is None:
        # the validating path raises the positioned ParseError
        return parse(line, pos, lineno)
    token = match.group(1)
    term = memo.get(token)
    if term is None:
        term = memo[token] = parse(line, pos, lineno)[0]
    return term, match.end()


def iter_ntriples_lines(lines: Iterable[str]) -> Iterator[Triple]:
    """Yield triples from an iterable of N-Triples lines, one at a time.

    This is the streaming entry point: ``lines`` can be an open file handle
    or any other lazy line source.

    Terms are interned per call: each distinct token text goes through the
    validating ``_parse_*`` path once, and every repeat reuses that term
    object.  Besides the current line, memory holds that memo — one entry
    per distinct term (which the graph keeps anyway) keyed by its token
    text — until the iteration ends.  The position patterns fix each term's
    kind (a subject token is never a literal, a predicate token always an
    IRI), so triples skip the :class:`Triple` constructor's checks.
    """
    memo: Dict[str, ObjectTerm] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        subject, pos = _memo_term(memo, _SUBJECT_RE, _parse_subject,
                                  raw_line, 0, lineno)
        predicate, pos = _memo_term(memo, _PREDICATE_RE, _parse_predicate,
                                    raw_line, pos, lineno)
        obj, pos = _memo_term(memo, _OBJECT_RE, _parse_object,
                              raw_line, pos, lineno)
        if not _END_RE.match(raw_line, pos):
            raise ParseError("expected '.' at end of triple", lineno, pos)
        yield unchecked_triple(subject, predicate, obj)


def iter_ntriples(data: str) -> Iterator[Triple]:
    """Yield triples from N-Triples text, skipping comments and blank lines."""
    return iter_ntriples_lines(data.splitlines())


def parse_ntriples(data: str) -> Graph:
    """Parse N-Triples text into a :class:`~repro.rdf.graph.Graph`."""
    graph = Graph()
    graph.add_all(iter_ntriples(data))
    return graph


def serialize_ntriples(graph: Graph, sort: bool = True) -> str:
    """Serialise ``graph`` as N-Triples (one canonical line per triple)."""
    triples = graph.sorted_triples() if sort else list(graph)
    lines = [triple.n3() for triple in triples]
    return "\n".join(lines) + ("\n" if lines else "")
