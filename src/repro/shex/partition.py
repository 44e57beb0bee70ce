"""Schema reference analysis for incremental revalidation.

The paper defines validation per ``(node, shape)`` pair, and checking ``n``
against a shape can recurse into ``m`` exactly when some triple
``⟨n, p, m⟩`` can trigger a shape reference: its predicate ``p`` is admitted
by a ``vp → @label`` arc of some shape in the schema.  Those node reference
edges bound what a graph mutation can change:

* :class:`ReferenceIndex` — which predicates can trigger which ``@label``
  references, and which shapes contain them (the schema-level analysis,
  also consulted by neighbourhood signatures),
* :func:`affected_nodes` — the reverse-reachability closure of a set of
  mutated subjects along those edges: every node whose verdict may differ
  after the mutation, and so exactly what ``Validator.revalidate``
  re-runs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import IRI, Literal, ObjectTerm, SubjectTerm
from .compiled import CompiledSchema
from .expressions import Arc, iter_subexpressions
from .node_constraints import PredicateSet, ShapeRef
from .schema import LazyNeighbourhood, Schema
from .typing import ShapeLabel

__all__ = ["ReferenceIndex", "affected_nodes"]


def _as_label(label: object) -> ShapeLabel:
    return label if isinstance(label, ShapeLabel) else ShapeLabel(str(label))


class ReferenceIndex:
    """Schema-level map from predicates to the shape labels they can demand.

    A triple ``⟨n, p, m⟩`` makes the validation of ``n`` (against any shape)
    potentially check ``m`` against ``@label`` iff some shape's expression
    contains an arc ``vp → @label`` with ``p ∈ vp``.  Both matching engines
    gate reference resolution on the predicate test, so this is an exact
    criterion for single-predicate sets and a sound over-approximation for
    stems and wildcards.
    """

    def __init__(self, schema: Schema):
        #: exact predicate → labels, for enumerable predicate sets.
        self._exact: Dict[IRI, Set[ShapeLabel]] = {}
        #: (predicate set, label) pairs for stems / wildcards.
        self._general: List[Tuple[PredicateSet, ShapeLabel]] = []
        #: memo for :meth:`labels_for` over the general pairs.
        self._memo: Dict[IRI, FrozenSet[ShapeLabel]] = {}
        #: the reverse index: exact predicate → labels of the shapes whose
        #: expressions *contain* a reference arc with that predicate.
        self._referrers_exact: Dict[IRI, Set[ShapeLabel]] = {}
        #: (predicate set, referrer label) pairs for stems / wildcards.
        self._referrers_general: List[Tuple[PredicateSet, ShapeLabel]] = []
        #: memo for :meth:`referrer_labels_for`.
        self._referrers_memo: Dict[IRI, FrozenSet[ShapeLabel]] = {}
        seen: Set[Tuple[PredicateSet, ShapeLabel]] = set()
        seen_referrers: Set[Tuple[PredicateSet, ShapeLabel]] = set()
        for owner, expr in schema.items():
            for sub in iter_subexpressions(expr):
                if not (isinstance(sub, Arc) and isinstance(sub.object, ShapeRef)):
                    continue
                label = _as_label(sub.object.label)
                predicate_set = sub.predicate
                pair = (predicate_set, label)
                referrer_pair = (predicate_set, owner)
                if referrer_pair not in seen_referrers:
                    seen_referrers.add(referrer_pair)
                    if predicate_set.any_predicate or predicate_set.stem is not None:
                        self._referrers_general.append(referrer_pair)
                    else:
                        for predicate in predicate_set.predicates:
                            self._referrers_exact.setdefault(
                                predicate, set()).add(owner)
                if pair in seen:
                    continue
                seen.add(pair)
                if predicate_set.any_predicate or predicate_set.stem is not None:
                    self._general.append(pair)
                else:
                    for predicate in predicate_set.predicates:
                        self._exact.setdefault(predicate, set()).add(label)

    @property
    def has_references(self) -> bool:
        """True when the schema contains any ``@label`` arc at all."""
        return bool(self._exact) or bool(self._general)

    def labels_for(self, predicate: IRI) -> FrozenSet[ShapeLabel]:
        """Labels a triple with this predicate can demand of its object."""
        cached = self._memo.get(predicate)
        if cached is not None:
            return cached
        labels: Set[ShapeLabel] = set(self._exact.get(predicate, ()))
        for predicate_set, label in self._general:
            if predicate_set.matches(predicate):
                labels.add(label)
        result = frozenset(labels)
        self._memo[predicate] = result
        return result

    def demands(self, predicate: IRI) -> bool:
        """True when a triple with this predicate can trigger any reference.

        Cheap pre-screen for the signature hot path: reference-free
        predicates (the vast majority in hub-heavy KB data) skip the
        per-atom reference bookkeeping entirely.  Exact entries answer in
        one dict probe; stems/wildcards fall back to the memoised
        :meth:`labels_for`.
        """
        if predicate in self._exact:
            return True
        if not self._general:
            return False
        return bool(self.labels_for(predicate))

    def referrer_labels_for(self, predicate: IRI) -> FrozenSet[ShapeLabel]:
        """Labels of shapes that can *follow* a triple with this predicate.

        The reverse of :meth:`labels_for`: ``labels_for`` answers "what may a
        reference demand of the triple's **object**", this answers "which
        shapes, checked against the triple's **subject**, contain a reference
        arc the triple can trigger".  Non-empty exactly when ``labels_for``
        is (both derive from the same ``vp → @label`` arcs); incremental
        revalidation uses it to walk reference edges backwards from a
        mutated subject.
        """
        cached = self._referrers_memo.get(predicate)
        if cached is not None:
            return cached
        labels: Set[ShapeLabel] = set(self._referrers_exact.get(predicate, ()))
        for predicate_set, owner in self._referrers_general:
            if predicate_set.matches(predicate):
                labels.add(owner)
        result = frozenset(labels)
        self._referrers_memo[predicate] = result
        return result


def affected_nodes(
    graph: Graph,
    schema: Schema,
    dirty_subjects: Iterable[SubjectTerm],
    index: Optional[ReferenceIndex] = None,
    compiled: Optional[CompiledSchema] = None,
) -> FrozenSet[ObjectTerm]:
    """The reverse-reachability closure of a dirty set along reference edges.

    Returns every node whose verdict (for any label) may differ after the
    mutations that dirtied ``dirty_subjects``: the dirty nodes themselves
    plus every node that can *reach* a dirty node through reference edges —
    walked backwards, one in-edge scan per affected node through the graph's
    OSP/POS indexes, so the cost is proportional to the closure, never to
    the graph.

    Soundness of the closure over the **current** edge set: a stale verdict
    was derived over the *old* edges, but any old edge that no longer exists
    had its source dirtied by the removal, so by induction along the old
    reference path every stale referrer is either dirty itself or reaches a
    dirty node along surviving edges.

    With a :class:`~repro.shex.compiled.CompiledSchema`, propagation *stops*
    at a non-dirty node whose demanded labels the prefilter decides
    statically: those verdicts are functions of the node's own (unchanged)
    neighbourhood, so its referrers consume identical facts.  Valid only
    when revalidation runs with the same compiled schema.  Dirty nodes always propagate: their
    neighbourhood changed, so even a statically-decided verdict may differ
    from what referrers consumed before.
    """
    index = index if index is not None else ReferenceIndex(schema)
    dirty = set(dirty_subjects)
    if not dirty or not index.has_references:
        return frozenset(dirty)
    affected: Set[ObjectTerm] = set(dirty)
    frontier: List[ObjectTerm] = list(dirty)
    while frontier:
        node = frontier.pop()
        if isinstance(node, Literal):
            continue
        referrers: Set[SubjectTerm] = set()
        demanded: Set[ShapeLabel] = set()
        for subject, predicate, _ in graph.triples(obj=node):
            # the reverse index gates the backward walk: the edge matters
            # only if some shape checked against the *subject* contains a
            # reference arc this predicate can trigger …
            if not index.referrer_labels_for(predicate):
                continue
            referrers.add(subject)
            # … while the forward index supplies the labels the edge can
            # demand of the *object* (the static-decidability check below).
            demanded.update(index.labels_for(predicate))
        if not referrers:
            continue
        if compiled is not None and node not in dirty:
            counts = graph.predicate_counts(node)
            if all(
                label in compiled and compiled.decides(
                    label, LazyNeighbourhood(graph.neighbourhood, node), counts)
                for label in demanded
            ):
                continue
        for referrer in referrers:
            if referrer not in affected:
                affected.add(referrer)
                frontier.append(referrer)
    return frozenset(affected)
