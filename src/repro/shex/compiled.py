"""Compiled schemas: static per-label fast paths for the hot validation loop.

The derivative algorithm decides each ``(node, label)`` pair by walking the
label's expression once per neighbourhood triple.  For realistic schemas most
pairs are decidable — or at least heavily prunable — from *static* properties
of the schema alone, computed **once per schema** instead of once per node:

* **nullability** — ``ν(δ(label))`` decides the empty neighbourhood outright,
* **first-predicate sets** — predicates that can begin a match; a non-empty
  neighbourhood avoiding them entirely cannot match a non-nullable shape,
* **required-predicate bounds** — sound per-predicate ``[min, max]`` triple
  counts (:func:`~repro.shex.analysis.neighbourhood_cardinality_bounds`);
  a count outside the bounds rejects before any derivative is taken,
* **allowed-predicate sets** — the algebra is closed-world (every triple must
  be consumed by some arc), so a triple whose predicate no arc admits makes
  every derivative ``∅``,
* **value screens** — for predicates whose consuming arcs all carry trivially
  decidable object constraints, a triple satisfying none of them rejects,
* **atom tables** — each label's arc atoms, hash-consed and indexed by
  predicate, so the derivative engine looks up the atoms a triple can touch
  in O(1) instead of re-testing every predicate set.

Soundness of each fast path is argued in ``docs/architecture.md`` ("Schema
compilation").  Two properties keep the prefilter compatible with the PR 1
recursion semantics: decisions depend only on the neighbourhood's predicate
multiset, trivially-screened objects and the schema — never on the typing
context — so every prefilter verdict is **definitive** (safe to cache, safe
to share across processes), and shape-reference arcs are never screened, so
hypothesis-dependent outcomes always fall through to the full engine.

A :class:`CompiledSchema` is picklable: resident shard workers receive the
parent's compiled tables once per process instead of recompiling them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..rdf.terms import IRI, Triple
from .analysis import first_predicates, neighbourhood_cardinality_bounds
from .cache import ArcAtom
from .derivatives import nullable
from .expressions import Arc, ShapeExpr, iter_subexpressions
from .node_constraints import (
    AnyValue,
    DatatypeConstraint,
    IRIStem,
    LanguageTag,
    NodeConstraint,
    NodeKindConstraint,
    ShapeRef,
    ValueSet,
)
from .schema import Schema
from .typing import ShapeLabel

__all__ = [
    "CompiledShape",
    "CompiledSchema",
    "PrefilterDecision",
    "predicate_counts",
]


class PrefilterDecision:
    """A definitive verdict reached without running a matching engine."""

    __slots__ = ("matched", "reason")

    def __init__(self, matched: bool, reason: str = ""):
        self.matched = matched
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefilterDecision({self.matched}, {self.reason!r})"


#: shared accept decision: accepts carry no reason, so one instance suffices.
_ACCEPT = PrefilterDecision(True)

#: bound on the per-predicate memo tables (reject decisions, candidate atom
#: sets).  They are keyed by *data* predicates, so a long-lived service
#: validating ever-new vocabulary would otherwise grow them without limit;
#: FIFO eviction only ever costs a re-computation.
_MEMO_LIMIT = 4096


def _memo_insert(table: Dict, key, value) -> None:
    """Insert into a per-predicate memo table, evicting FIFO over the bound."""
    table[key] = value
    if len(table) > _MEMO_LIMIT:
        table.pop(next(iter(table)))


def predicate_counts(triples: Iterable[Triple]) -> Counter:
    """The predicate multiset of a neighbourhood (what the prefilter consumes)."""
    counts: Counter = Counter()
    for triple in triples:
        counts[triple.predicate] += 1
    return counts


def _is_screenable(constraint: NodeConstraint) -> bool:
    """True for constraints the value screen may evaluate ahead of the engine.

    "Trivially decidable" means: constant-time, context-free, and cheap
    enough that evaluating it twice (prefilter + engine on the unknown path)
    never dominates.  Shape references are context-dependent and therefore
    never screenable; boolean combinators and faceted constraints are left to
    the engine.
    """
    if isinstance(constraint, ValueSet):
        return True
    if isinstance(constraint, IRIStem) or isinstance(constraint, LanguageTag):
        return True
    if isinstance(constraint, DatatypeConstraint):
        return constraint.facets.is_trivial()
    if isinstance(constraint, NodeKindConstraint):
        return constraint.facets.is_trivial()
    return False


class CompiledShape:
    """Everything statically known about one label, computed once per schema."""

    __slots__ = (
        "label", "expr", "nullable", "first_exact", "first_open",
        "required", "max_counts", "allowed_exact", "allowed_stems",
        "allows_any", "screens", "atoms", "has_references", "_rejects",
    )

    def __init__(self, label: ShapeLabel, expr: ShapeExpr):
        self.label = label
        self.expr = expr
        self.nullable: bool = nullable(expr)
        self.first_exact, self.first_open = first_predicates(expr)

        # the flattened atom table, in the deterministic first-seen order the
        # derivative cache uses (so seeded atom tuples agree across processes)
        seen: Dict[ArcAtom, None] = {}
        allowed_exact: set = set()
        allowed_stems: set = set()
        allows_any = False
        has_references = False
        for sub in iter_subexpressions(expr):
            if not isinstance(sub, Arc):
                continue
            seen.setdefault((sub.predicate, sub.object), None)
            predicate_set = sub.predicate
            allowed_exact.update(predicate_set.predicates)
            if predicate_set.stem is not None:
                allowed_stems.add(predicate_set.stem)
            if predicate_set.any_predicate:
                allows_any = True
            if isinstance(sub.object, ShapeRef):
                has_references = True
        self.atoms: Tuple[ArcAtom, ...] = tuple(seen)
        self.allowed_exact: FrozenSet[IRI] = frozenset(allowed_exact)
        self.allowed_stems: Tuple[str, ...] = tuple(sorted(allowed_stems))
        self.allows_any: bool = allows_any
        self.has_references: bool = has_references

        bounds = neighbourhood_cardinality_bounds(expr)
        self.required: Tuple[Tuple[IRI, int], ...] = tuple(
            (predicate, bound.minimum)
            for predicate, bound in sorted(bounds.items(),
                                           key=lambda item: item[0].value)
            if bound.minimum > 0
        )
        self.max_counts: Dict[IRI, int] = {
            predicate: bound.maximum
            for predicate, bound in bounds.items()
            if bound.maximum is not None
        }

        # value screens: predicate → the constraints of every arc that could
        # consume a triple with that predicate.  Only built when *all* such
        # constraints are trivially decidable, none is the wildcard (which
        # can never reject) and no wildcard-predicate arc could absorb the
        # triple instead.
        self.screens: Dict[IRI, Tuple[NodeConstraint, ...]] = {}
        if not allows_any:
            for predicate in self.allowed_exact:
                constraints: List[NodeConstraint] = []
                screenable = not any(predicate.value.startswith(stem)
                                     for stem in self.allowed_stems)
                if screenable:
                    for predicate_set, constraint in self.atoms:
                        if not predicate_set.matches(predicate):
                            continue
                        if isinstance(constraint, AnyValue) \
                                or not _is_screenable(constraint):
                            screenable = False
                            break
                        constraints.append(constraint)
                if screenable and constraints:
                    self.screens[predicate] = tuple(constraints)

        # reject decisions are pure functions of (shape, rule, predicate):
        # memoising them makes the steady-state reject path allocation-free.
        self._rejects: Dict[Tuple[str, Optional[IRI]], PrefilterDecision] = {}

    def allows_predicate(self, predicate: IRI) -> bool:
        """True when some arc of this shape admits ``predicate``."""
        if self.allows_any or predicate in self.allowed_exact:
            return True
        return any(predicate.value.startswith(stem) for stem in self.allowed_stems)

    def _reject(self, rule: str,
                predicate: Optional[IRI] = None) -> PrefilterDecision:
        """The memoised reject decision for ``(rule, predicate)``.

        The reason string is only formatted on the first occurrence of a
        ``(rule, predicate)`` pair; afterwards rejects are allocation-free.
        """
        key = (rule, predicate)
        decision = self._rejects.get(key)
        if decision is None:
            if rule == "empty":
                reason = "empty neighbourhood but the shape requires arcs"
            elif rule == "first":
                reason = ("no triple's predicate is in the shape's "
                          "first-predicate set, so nothing can begin a match")
            elif rule == "allowed":
                reason = f"predicate {predicate.n3()} is not allowed by the shape"
            elif rule == "max":
                reason = f"more {predicate.n3()} arcs than the shape allows"
            elif rule == "required":
                reason = f"missing required {predicate.n3()} arc(s)"
            else:  # "screen"
                reason = (f"a {predicate.n3()} triple's object satisfies no "
                          "constraint able to consume it")
            decision = PrefilterDecision(False, reason)
            _memo_insert(self._rejects, key, decision)
        return decision

    # -- the prefilter ---------------------------------------------------------
    def prefilter(self, triples: Iterable[Triple],
                  counts: Optional[Mapping[IRI, int]] = None
                  ) -> Optional[PrefilterDecision]:
        """Decide the neighbourhood statically, or return ``None`` (unknown).

        Every returned decision agrees with the derivative engine by the
        soundness arguments in ``docs/architecture.md``; ``None`` means the
        engine must run.  Decisions never consult the typing context, so they
        are definitive even inside recursive validations.
        """
        if counts is None:
            counts = predicate_counts(triples)
        if not counts:
            if self.nullable:
                return _ACCEPT
            return self._reject("empty")
        if not self.nullable and not self.first_open \
                and self.first_exact.isdisjoint(counts):
            return self._reject("first")
        # the reject branches name the *least* offending predicate by
        # ``sort_key`` (not the first one met), so the reason does not
        # depend on the order the store yields counts or triples in
        allowed_exact = self.allowed_exact
        allows_any = self.allows_any
        allowed_stems = self.allowed_stems
        max_counts = self.max_counts
        offence: Optional[Tuple[tuple, str, IRI]] = None
        for predicate, count in counts.items():
            if predicate not in allowed_exact and not allows_any \
                    and not any(predicate.value.startswith(stem)
                                for stem in allowed_stems):
                rule = "allowed"
            elif max_counts and count > max_counts.get(predicate, count):
                rule = "max"
            else:
                continue
            key = predicate.sort_key()
            if offence is None or key < offence[0]:
                offence = (key, rule, predicate)
        if offence is not None:
            return self._reject(offence[1], offence[2])
        for predicate, minimum in self.required:
            if counts.get(predicate, 0) < minimum:
                return self._reject("required", predicate)
        if self.screens:
            for triple in triples:
                predicate = triple.predicate
                screen = self.screens.get(predicate)
                if screen is None:
                    continue
                if offence is not None:
                    key = predicate.sort_key()
                    if key >= offence[0]:
                        continue
                obj = triple.object
                if not any(constraint.matches(obj) for constraint in screen):
                    offence = (predicate.sort_key(), "screen", predicate)
            if offence is not None:
                return self._reject("screen", offence[2])
        return None


class CompiledSchema:
    """Per-label static tables for a whole schema, plus the shared atom index.

    Build one per :class:`~repro.shex.schema.Schema` (the
    :class:`~repro.shex.validator.Validator` does this by default) and thread
    it through validation contexts; resident shard workers receive it pickled
    instead of recompiling.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._shapes: Dict[ShapeLabel, CompiledShape] = {
            label: CompiledShape(label, expr) for label, expr in schema.items()
        }
        # the schema-wide predicate → atom index used by the derivative
        # engine: exact entries resolve in one dict lookup, stem/wildcard
        # atoms are the (rare) general tail evaluated per predicate.
        exact: Dict[IRI, set] = {}
        general: Dict[ArcAtom, None] = {}
        known: Dict[ArcAtom, None] = {}
        for shape in self._shapes.values():
            for atom in shape.atoms:
                known.setdefault(atom, None)
                predicate_set = atom[0]
                if predicate_set.any_predicate or predicate_set.stem is not None:
                    general.setdefault(atom, None)
                else:
                    for predicate in predicate_set.predicates:
                        exact.setdefault(predicate, set()).add(atom)
        self._exact_atoms: Dict[IRI, FrozenSet[ArcAtom]] = {
            predicate: frozenset(atoms) for predicate, atoms in exact.items()
        }
        self._general_atoms: Tuple[ArcAtom, ...] = tuple(general)
        self.known_atoms: FrozenSet[ArcAtom] = frozenset(known)
        #: memoised candidate sets per concrete predicate seen in the data.
        self._candidates: Dict[IRI, FrozenSet[ArcAtom]] = {}
        #: memoised *ordered* candidate tuples per predicate (signature path).
        self._signature_atoms: Dict[IRI, Tuple] = {}

    # -- accessors -------------------------------------------------------------
    def shape(self, label: ShapeLabel | str) -> CompiledShape:
        """Return the compiled tables for ``label``."""
        label = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        return self._shapes[label]

    def shape_or_none(self, label: ShapeLabel) -> Optional[CompiledShape]:
        """One-lookup variant of :meth:`shape` for the hot path."""
        return self._shapes.get(label)

    def __contains__(self, label: object) -> bool:
        if isinstance(label, str):
            label = ShapeLabel(label)
        return label in self._shapes

    def __len__(self) -> int:
        return len(self._shapes)

    def atom_tables(self) -> Dict[ShapeExpr, Tuple[ArcAtom, ...]]:
        """Per-label-expression atom tuples, for seeding a derivative cache."""
        return {shape.expr: shape.atoms for shape in self._shapes.values()}

    # -- the predicate-indexed atom dispatch -----------------------------------
    def candidate_atoms(self, predicate: IRI) -> FrozenSet[ArcAtom]:
        """The atoms (schema-wide) whose predicate set admits ``predicate``.

        One dict lookup after the first query for a predicate.  The
        derivative engine uses this to decide an atom's predicate test with a
        set-membership check instead of re-running ``PredicateSet.matches``
        for every atom at every derivative step.
        """
        cached = self._candidates.get(predicate)
        if cached is not None:
            return cached
        atoms = set(self._exact_atoms.get(predicate, ()))
        for atom in self._general_atoms:
            if atom[0].matches(predicate):
                atoms.add(atom)
        result = frozenset(atoms)
        _memo_insert(self._candidates, predicate, result)
        return result

    def signature_atoms(self, predicate: IRI
                        ) -> Tuple[Tuple[ArcAtom, object], ...]:
        """:meth:`candidate_atoms` in a *deterministic* order, with ref labels.

        Neighbourhood signatures record one verdict bit per candidate atom, so
        the bit order must be identical every time a signature is built — a
        ``frozenset`` iterates in hash-table order, which can differ between
        processes and even between rebuilds after memo eviction.  This
        accessor sorts the atoms by their (stable) textual form once per
        predicate and pairs each with the referenced shape label (``None``
        for plain constraints), pre-answering the ``isinstance(constraint,
        ShapeRef)`` test the signature loop would otherwise repeat per triple.
        """
        cached = self._signature_atoms.get(predicate)
        if cached is not None:
            return cached
        ordered = sorted(
            self.candidate_atoms(predicate),
            key=lambda atom: (atom[0].describe(), atom[1].describe(), repr(atom)),
        )
        def _ref_label(constraint) -> Optional[ShapeLabel]:
            if not isinstance(constraint, ShapeRef):
                return None
            label = constraint.label
            return label if isinstance(label, ShapeLabel) else ShapeLabel(str(label))

        result = tuple((atom, _ref_label(atom[1])) for atom in ordered)
        _memo_insert(self._signature_atoms, predicate, result)
        return result

    # -- the prefilter ---------------------------------------------------------
    def prefilter(self, label: ShapeLabel | str, triples: Iterable[Triple],
                  counts: Optional[Mapping[IRI, int]] = None
                  ) -> Optional[PrefilterDecision]:
        """Statically decide ``triples`` against ``label``, or ``None``."""
        return self.shape(label).prefilter(triples, counts)

    def decides(self, label: ShapeLabel, triples: Iterable[Triple],
                counts: Optional[Mapping[IRI, int]] = None) -> bool:
        """True when the prefilter settles ``(label, neighbourhood)`` outright.

        Used by the reference-graph partitioner: a reference whose target is
        statically decidable resolves locally in any worker, without
        recursion, so it needs no cross-component scheduling edge.
        """
        return self.prefilter(label, triples, counts) is not None

    def stats(self) -> Dict[str, int]:
        """Summary counters (for benchmarks and the CLI)."""
        return {
            "labels": len(self._shapes),
            "atoms": len(self.known_atoms),
            "indexed_predicates": len(self._exact_atoms),
            "general_atoms": len(self._general_atoms),
            "screened_predicates": sum(
                len(shape.screens) for shape in self._shapes.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSchema({len(self._shapes)} labels, {len(self.known_atoms)} atoms)"
