"""Core RDF term model: IRIs, blank nodes, literals and triples.

The paper works over three vocabularies (Section 2):

* ``Vs = I ∪ B`` — subjects are IRIs or blank nodes,
* ``Vp = I`` — predicates are IRIs,
* ``Vo = I ∪ B ∪ L`` — objects are IRIs, blank nodes or literals.

This module provides immutable, hashable term classes mirroring the RDF 1.1
abstract syntax so that triples can live inside Python sets and dictionaries,
which is what both the backtracking and the derivative matchers require.
"""

from __future__ import annotations

import itertools
import operator as _operator
import re
import threading
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "Term",
    "IRI",
    "BNode",
    "Literal",
    "Triple",
    "SubjectTerm",
    "ObjectTerm",
    "is_subject_term",
    "is_predicate_term",
    "is_object_term",
    "escape_string",
]

_IRI_ILLEGAL = re.compile(r"[\x00-\x20<>\"{}|^`\\]")

# RDF 1.1 well-known datatype IRIs used when constructing literals from
# Python values.  They are plain strings here to avoid a circular import with
# :mod:`repro.rdf.namespaces`.
_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_LANGTAG_RE = re.compile(r"^[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*$")


class Term:
    """Abstract base class for RDF terms.

    Terms are immutable and totally ordered (IRIs < blank nodes < literals)
    so that graphs can be serialised deterministically and matchers can sort
    triples into a canonical processing order.
    """

    __slots__ = ()

    #: ordering rank of the term kind; overridden by subclasses.
    _sort_rank = 0

    def sort_key(self) -> tuple:
        """Return a tuple usable to order terms deterministically."""
        raise NotImplementedError

    def n3(self) -> str:
        """Return the N-Triples / Turtle lexical form of this term."""
        raise NotImplementedError

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class IRI(Term):
    """An IRI reference (RDF 1.1 IRIs, absolute or relative).

    >>> IRI("http://example.org/alice").n3()
    '<http://example.org/alice>'
    """

    __slots__ = ("value", "_hash")
    _sort_rank = 0

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be a string, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must not be empty")
        if _IRI_ILLEGAL.search(value):
            raise ValueError(f"IRI contains illegal characters: {value!r}")
        object.__setattr__(self, "value", value)
        # terms are dictionary keys everywhere (indexes, caches, counts);
        # computing the hash once at construction keeps every lookup O(1)
        # with no per-call tuple building
        object.__setattr__(self, "_hash", hash(("IRI", value)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IRI instances are immutable")

    def __reduce__(self):
        # the immutability guard breaks slot-based pickling; rebuild through
        # the constructor instead (also re-validates on the way in)
        return (IRI, (self.value,))

    def __eq__(self, other) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        return f"<{self.value}>"

    def sort_key(self) -> tuple:
        return (self._sort_rank, self.value)

    def concat(self, suffix: str) -> "IRI":
        """Return a new IRI with ``suffix`` appended (namespace member access)."""
        return IRI(self.value + suffix)


class BNode(Term):
    """A blank node.

    Blank nodes carry a local identifier; two blank nodes are equal iff their
    identifiers are equal (the paper uses *union* of graphs, which preserves
    blank-node identity, rather than *merge*).

    Creating a :class:`BNode` with no argument mints a fresh identifier that
    is unique within the running process.
    """

    __slots__ = ("id", "_hash")
    _sort_rank = 1

    _counter = itertools.count()
    _lock = threading.Lock()

    def __init__(self, id: Optional[str] = None):
        if id is None:
            with BNode._lock:
                id = f"b{next(BNode._counter)}"
        if not isinstance(id, str):
            raise TypeError(f"BNode id must be a string, got {type(id).__name__}")
        if not id:
            raise ValueError("BNode id must not be empty")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_hash", hash(("BNode", id)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BNode instances are immutable")

    def __reduce__(self):
        return (BNode, (self.id,))

    def __eq__(self, other) -> bool:
        return isinstance(other, BNode) and other.id == self.id

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BNode({self.id!r})"

    def __str__(self) -> str:
        return f"_:{self.id}"

    def n3(self) -> str:
        return f"_:{self.id}"

    def sort_key(self) -> tuple:
        return (self._sort_rank, self.id)


_ESCAPES = str.maketrans({
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
})


def escape_string(value: str) -> str:
    """Escape a literal lexical form for N-Triples / Turtle output."""
    return value.translate(_ESCAPES)


class Literal(Term):
    """An RDF literal with a lexical form, a datatype and an optional language.

    The constructor accepts either a ready lexical form plus datatype/language,
    or a plain Python value (``int``, ``float``, ``bool``, ``str``) which is
    converted to the corresponding XSD datatype:

    >>> Literal(23).datatype.value.endswith('integer')
    True
    >>> Literal("chat", lang="fr").n3()
    '"chat"@fr'
    """

    __slots__ = ("lexical", "datatype", "lang", "_hash")
    _sort_rank = 2

    def __init__(
        self,
        value: Union[str, int, float, bool],
        datatype: Optional[IRI] = None,
        lang: Optional[str] = None,
    ):
        if lang is not None and datatype is not None:
            if datatype.value != RDF_LANGSTRING:
                raise ValueError(
                    "a language-tagged literal must use rdf:langString as datatype"
                )
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or IRI(XSD_BOOLEAN)
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or IRI(XSD_INTEGER)
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or IRI(XSD_DOUBLE)
        elif isinstance(value, str):
            lexical = value
            if lang is not None:
                if not _LANGTAG_RE.match(lang):
                    raise ValueError(f"invalid language tag: {lang!r}")
                datatype = IRI(RDF_LANGSTRING)
            elif datatype is None:
                datatype = IRI(XSD_STRING)
        else:
            raise TypeError(
                f"cannot build a Literal from {type(value).__name__}; "
                "expected str, int, float or bool"
            )
        if not isinstance(datatype, IRI):
            raise TypeError("datatype must be an IRI")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "lang", lang.lower() if lang else None)
        object.__setattr__(self, "_hash",
                           hash(("Literal", lexical, datatype.value, self.lang)))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Literal instances are immutable")

    def __reduce__(self):
        # lexical + datatype + lang fully determine the literal; the lang-tag
        # invariant (datatype is rdf:langString) holds by construction
        return (Literal, (self.lexical, self.datatype, self.lang))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.lang == self.lang
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.lang:
            return f"Literal({self.lexical!r}, lang={self.lang!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype.value!r})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        quoted = f'"{escape_string(self.lexical)}"'
        if self.lang:
            return f"{quoted}@{self.lang}"
        if self.datatype.value == XSD_STRING:
            return quoted
        return f"{quoted}^^<{self.datatype.value}>"

    def sort_key(self) -> tuple:
        return (self._sort_rank, self.lexical, self.datatype.value, self.lang or "")

    # -- value access -----------------------------------------------------
    def to_python(self):
        """Convert the literal to a Python value using its datatype.

        Falls back to the lexical form when the datatype has no registered
        mapping or the lexical form is invalid for the datatype.
        """
        from .datatypes import to_python_value

        return to_python_value(self)

    @property
    def is_plain(self) -> bool:
        """True for simple ``xsd:string`` literals without a language tag."""
        return self.lang is None and self.datatype.value == XSD_STRING


SubjectTerm = Union[IRI, BNode]
ObjectTerm = Union[IRI, BNode, Literal]


def is_subject_term(term: object) -> bool:
    """True if ``term`` belongs to ``Vs = I ∪ B``."""
    return isinstance(term, (IRI, BNode))


def is_predicate_term(term: object) -> bool:
    """True if ``term`` belongs to ``Vp = I``."""
    return isinstance(term, IRI)


def is_object_term(term: object) -> bool:
    """True if ``term`` belongs to ``Vo = I ∪ B ∪ L``."""
    return isinstance(term, (IRI, BNode, Literal))


class Triple(tuple):
    """An RDF triple ``⟨s, p, o⟩``.

    Validity of the three positions is enforced at construction time, matching
    the vocabulary constraints of Section 2 of the paper.

    The class is a ``tuple`` subclass, not a dataclass: the graph hashes
    triples constantly (its indexes and neighbourhood frozensets) and
    builds them in bulk on every pattern scan, so construction, hashing and
    equality all running at C speed is a measurable win.  Field access
    stays attribute-style (``triple.subject``) through ``itemgetter``
    properties.
    """

    __slots__ = ()

    def __new__(cls, subject: SubjectTerm, predicate: IRI,
                object: ObjectTerm) -> "Triple":
        if not is_subject_term(subject):
            raise TypeError(
                f"triple subject must be an IRI or BNode, got {type(subject).__name__}"
            )
        if not is_predicate_term(predicate):
            raise TypeError(
                f"triple predicate must be an IRI, got {type(predicate).__name__}"
            )
        if not is_object_term(object):
            raise TypeError(
                f"triple object must be an IRI, BNode or Literal, "
                f"got {type(object).__name__}"
            )
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(_operator.itemgetter(0))
    predicate = property(_operator.itemgetter(1))
    object = property(_operator.itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return (self[0], self[1], self[2])

    def __repr__(self) -> str:
        return (f"Triple(subject={self[0]!r}, predicate={self[1]!r}, "
                f"object={self[2]!r})")

    # ordering follows the term sort keys (as the dataclass version did),
    # not the element-wise tuple comparison inherited from ``tuple``.
    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() >= other.sort_key()

    def sort_key(self) -> tuple:
        return (self[0].sort_key(), self[1].sort_key(), self[2].sort_key())

    def n3(self) -> str:
        """Return the N-Triples serialisation of this triple (without newline)."""
        return f"{self[0].n3()} {self[1].n3()} {self[2].n3()} ."

    def __str__(self) -> str:
        return self.n3()

    def replace(
        self,
        subject: Optional[SubjectTerm] = None,
        predicate: Optional[IRI] = None,
        object: Optional[ObjectTerm] = None,
    ) -> "Triple":
        """Return a copy of this triple with some positions replaced."""
        return Triple(
            subject if subject is not None else self[0],
            predicate if predicate is not None else self[1],
            object if object is not None else self[2],
        )


def unchecked_triple(subject: SubjectTerm, predicate: IRI,
                     obj: ObjectTerm) -> Triple:
    """Build a :class:`Triple` from positions already known to be valid.

    The N-Triples tokeniser matches each position with a pattern that
    already fixes its term kind (a subject token is never a literal, a
    predicate token always an IRI), so the vocabulary constraints of
    Section 2 hold and the constructor's ``isinstance`` checks are pure
    overhead on its ingest path.  Only use this with positions that went
    through validation once before.
    """
    return tuple.__new__(Triple, (subject, predicate, obj))
