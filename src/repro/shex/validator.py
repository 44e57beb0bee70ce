"""Validator façade: the public entry point for RDF validation.

The :class:`Validator` ties together a graph, a schema and one of the
matching engines (derivatives, backtracking or the SPARQL compiler) and
exposes the operations users of the paper's system need:

* ``validate_node(node, label)`` — does one node have one shape?
* ``validate_map({node: label, …})`` — validate a shape map,
* ``infer_typing()`` — the type-inference algorithm of Section 8: compute a
  shape typing assigning to every node the labels it satisfies,
* ``conforming_nodes(label)`` — which nodes have a given shape (Example 2).

Engines are pluggable so the benchmarks can swap implementations while the
surrounding code stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..rdf.graph import Graph
from ..rdf.terms import ObjectTerm, SubjectTerm
from .backtracking import BacktrackingEngine
from .cache import DerivativeCache, SignatureCache
from .compiled import CompiledSchema
from .derivatives import DerivativeEngine
from .expressions import ShapeExpr
from .results import MatchResult, MatchStats, ValidationReportEntry
from .schema import Schema, SchemaError, ValidationContext
from .typing import ShapeLabel, ShapeTyping

__all__ = ["Validator", "ValidationReport", "RevalidationResult",
           "IncrementalFallback", "get_engine", "ENGINES", "run_lanes",
           "merge_settled"]


class IncrementalFallback(Exception):
    """Raised by ``revalidate(allow_full_rebuild=False)`` instead of rebuilding.

    ``reason`` is a stable machine-readable code: ``"journal-overflow"`` (the
    graph's change journal overflowed, so the change set is unknowable) or
    ``"no-baseline"`` (no usable incremental baseline: first run, label-set
    change, ``shared_context`` off, or the shared context was invalidated
    behind the baseline's back).  Long-lived services set
    ``allow_full_rebuild=False`` so an unbounded full re-run never hides
    inside what looks like a cheap delta; they map this exception to a typed
    service error (:class:`repro.service.api.ServiceError`).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


#: registry of engine factories keyed by their public names.
ENGINES = {
    "derivatives": DerivativeEngine,
    "backtracking": BacktrackingEngine,
}


def get_engine(engine: Union[str, object, None] = None, **options):
    """Resolve an engine argument into an engine instance.

    ``engine`` may be ``None`` (default: derivatives), the name of a
    registered engine, or an already-built engine object exposing
    ``match_neighbourhood``.
    """
    if engine is None:
        return DerivativeEngine(**options)
    if isinstance(engine, str):
        try:
            factory = ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; available: {sorted(ENGINES)}"
            ) from None
        return factory(**options)
    if hasattr(engine, "match_neighbourhood"):
        return engine
    raise TypeError(f"not a matching engine: {engine!r}")


@dataclass
class ValidationReport:
    """The outcome of validating a shape map or a whole graph."""

    entries: List[ValidationReportEntry] = field(default_factory=list)
    typing: ShapeTyping = field(default_factory=ShapeTyping.empty)

    @property
    def conforms(self) -> bool:
        """True when every requested (node, shape) pair conforms."""
        return all(entry.conforms for entry in self.entries)

    def failures(self) -> List[ValidationReportEntry]:
        """Return the entries that did not conform."""
        return [entry for entry in self.entries if not entry.conforms]

    def entry_for(self, node: ObjectTerm,
                  label: Union[ShapeLabel, str, None] = None) -> Optional[ValidationReportEntry]:
        """Return the report entry for ``node`` (and ``label`` if given)."""
        wanted = None
        if label is not None:
            wanted = label if isinstance(label, ShapeLabel) else ShapeLabel(label)
        for entry in self.entries:
            if entry.node == node and (wanted is None or entry.label == wanted):
                return entry
        return None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "\n".join(str(entry) for entry in self.entries)

    def total_stats(self) -> MatchStats:
        """Aggregate the per-entry statistics into one record."""
        total = MatchStats()
        for entry in self.entries:
            total.merge(entry.stats)
        return total


@dataclass
class RevalidationResult:
    """The outcome of one :meth:`Validator.revalidate` round.

    ``report`` is the full, delta-updated report (entry objects for
    unaffected pairs are reused from the previous round); ``delta`` holds
    exactly the recomputed entries.  ``dirty`` is the journal's per-subject
    change set, ``affected`` its reverse-reachability closure along the
    reference graph, ``retracted`` the number of settled verdicts dropped
    before re-running.  ``full_rebuild`` is True when incremental reuse was
    impossible (first run, journal overflow, label-set change, or state
    invalidated behind the validator's back) and everything was recomputed.
    """

    report: ValidationReport
    delta: ValidationReport
    dirty: FrozenSet[SubjectTerm]
    affected: FrozenSet[ObjectTerm]
    full_rebuild: bool
    retracted: int = 0

    @property
    def conforms(self) -> bool:
        """True when every pair of the full updated report conforms."""
        return self.report.conforms

    def stats(self) -> Dict[str, int]:
        """Summary counters (journal/closure sizes) for traces and the CLI."""
        return {
            "dirty_subjects": len(self.dirty),
            "affected_nodes": len(self.affected),
            "revalidated_pairs": len(self.delta),
            "reused_pairs": len(self.report) - len(self.delta),
            "retracted_verdicts": self.retracted,
            "full_rebuild": int(self.full_rebuild),
        }


class Validator:
    """Validate RDF graphs against Shape Expression schemas.

    Parameters
    ----------
    graph:
        the data graph to validate.
    schema:
        the Shape Expression schema ``(Λ, δ)``; optional when only
        expression-level matching is needed.
    engine:
        ``"derivatives"`` (default), ``"backtracking"`` or an engine object.
    shared_context:
        when True (default) the bulk operations — ``validate_map``,
        ``validate_graph``, ``infer_typing``, ``conforming_nodes`` — thread
        **one** :class:`ValidationContext` through the whole run (and keep it
        across runs), so confirmed/failed ``(node, label)`` verdicts
        propagate instead of being recomputed per node.  Set to False for the
        paper-faithful fresh-context-per-node behaviour.  Graph mutations
        are detected automatically: the shared context is rebuilt on the
        next call when the graph has changed.
    max_recursion_depth:
        recursion budget handed to every context this validator creates.
    precompile:
        build a :class:`~repro.shex.compiled.CompiledSchema` for the schema
        (default True) and thread it through every context this validator
        creates: statically decidable ``(node, label)`` pairs are settled by
        the prefilter without touching an engine, and the derivative engine
        dispatches arc atoms through the predicate-indexed atom tables.
        Verdicts are identical either way; set False (CLI
        ``--no-precompile``) to measure or to rule the fast paths out.
    compiled:
        a ready :class:`~repro.shex.compiled.CompiledSchema` to adopt instead
        of compiling one (must belong to ``schema``); implies ``precompile``.
    signature_cache:
        the neighbourhood-signature verdict memo
        (:class:`~repro.shex.cache.SignatureCache`) consulted by the bulk
        paths before any engine runs: a subject whose canonical one-hop
        signature was already settled against a label is answered without
        constructing a matching frame.  ``None`` (default) enables a
        validator-owned cache automatically whenever both ``shared_context``
        and ``precompile`` are on (signatures need the compiled atom tables);
        ``True`` forces one (still requires ``precompile``); ``False``
        disables signature dedupe (CLI ``--no-signature-cache``); a ready
        :class:`SignatureCache` instance is adopted as-is — the caller then
        owns its lifecycle and must clear it on schema change.  The
        validator-owned cache is dropped when ``schema`` is reassigned;
        graph mutations need no invalidation because signatures embed the
        neighbourhood structure they describe.
    engine_options:
        keyword options forwarded to the engine factory (e.g.
        ``simplify=False``, ``budget=10_000`` or ``cache=True`` to give the
        derivative engine a global cross-node derivative cache).

    .. deprecated:: PR 7
        Constructing a ``Validator`` directly for *service-shaped* use —
        load once, keep warm, apply deltas, answer point queries — is
        superseded by :class:`repro.service.ValidationSession`, the facade
        the CLI, the HTTP server and the python client all share (one
        request/response contract, typed errors, unified stats).  Every
        ``Validator(...)`` kwarg keeps working; only the ad-hoc wiring each
        caller used to repeat around it is deprecated.
    """

    def __init__(self, graph: Graph, schema: Optional[Schema] = None,
                 engine: Union[str, object, None] = None,
                 shared_context: bool = True,
                 max_recursion_depth: int = 500,
                 precompile: bool = True,
                 compiled: Optional[CompiledSchema] = None,
                 subject_filter: Optional[Callable[[SubjectTerm], bool]] = None,
                 signature_cache: Union[None, bool, SignatureCache] = None,
                 **engine_options):
        self.graph = graph
        self.schema = schema
        self.engine = get_engine(engine, **engine_options)
        self.shared_context = shared_context
        self.max_recursion_depth = max_recursion_depth
        #: restricts which subjects appear in bulk reports and the maintained
        #: baseline.  A resident shard worker validates (and maintains) only
        #: the subjects it owns; reference targets outside the filter are
        #: still derived on demand from the full local graph — the filter
        #: governs report coverage, not reachability.
        self.subject_filter = subject_filter
        self.precompile = precompile or compiled is not None
        self._compiled = compiled
        self._atoms_adopted = False
        #: neighbourhood-signature verdict dedupe: the caller's option plus
        #: the resolved validator-owned cache (invalidated on schema change).
        self._signature_cache_opt = signature_cache
        self._signature_cache: Optional[SignatureCache] = (
            signature_cache if isinstance(signature_cache, SignatureCache)
            else None)
        self._signature_cache_schema: Optional[Schema] = schema
        self._worker_engine_spec = _make_engine_spec(engine, engine_options)
        self._context: Optional[ValidationContext] = None
        self._context_key: Optional[tuple] = None
        #: incremental-revalidation baseline: the labels, per-pair entries and
        #: graph generation of the last full ``validate_graph`` run (shared
        #: context only).  ``revalidate`` consumes the graph's change journal
        #: against this generation.
        self._incremental_labels: Optional[Tuple[ShapeLabel, ...]] = None
        self._incremental_entries: Optional[
            Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry]] = None
        self._incremental_typing: Optional[ShapeTyping] = None
        self._incremental_generation: Optional[int] = None
        #: schema-level reference analysis, cached per schema object so the
        #: watch-style revalidate loop never re-walks the shape expressions.
        self._reference_index: Optional[object] = None
        self._reference_index_schema: Optional[Schema] = None

    # -- schema compilation -------------------------------------------------------
    @property
    def compiled(self) -> Optional[CompiledSchema]:
        """The compiled tables for the current schema (None when disabled).

        Compiled lazily, once per schema object: reassigning ``schema``
        triggers a recompile on the next use.  The engine's global derivative
        cache (when present) adopts the compiled atom tables so the per-label
        atom walk is never repeated.
        """
        if not self.precompile or self.schema is None:
            return None
        if self._compiled is None or self._compiled.schema is not self.schema:
            self._compiled = CompiledSchema(self.schema)
            self._atoms_adopted = False
        if not self._atoms_adopted:
            # seed the engine's derivative cache whether the compiled schema
            # was built here or handed in ready-made
            cache = getattr(self.engine, "cache", None)
            if cache is not None:
                cache.adopt_atoms(self._compiled.atom_tables())
            self._atoms_adopted = True
        return self._compiled

    @property
    def signature_cache(self) -> Optional[SignatureCache]:
        """The resolved signature cache (None when dedupe is disabled).

        Resolution follows the constructor's ``signature_cache`` option: an
        adopted instance is returned as-is; ``True`` and the auto default
        build one validator-owned cache per schema object, so reassigning
        ``schema`` starts from an empty table (signatures are keyed by the
        compiled schema's atom order and must not cross schemas).
        """
        opt = self._signature_cache_opt
        if opt is False or self.schema is None or not self.precompile:
            return None
        if isinstance(opt, SignatureCache):
            return opt
        if opt is None and not self.shared_context:
            return None
        if self._signature_cache is None \
                or self._signature_cache_schema is not self.schema:
            self._signature_cache = SignatureCache()
            self._signature_cache_schema = self.schema
        return self._signature_cache

    # -- contexts ---------------------------------------------------------------
    def _new_context(self) -> ValidationContext:
        index = self._schema_reference_index() if self.schema is not None else None
        context = ValidationContext(self.graph, self.schema,
                                    self.engine.match_neighbourhood,
                                    max_recursion_depth=self.max_recursion_depth,
                                    compiled=self.compiled,
                                    reference_index=index)
        context.signature_cache = self.signature_cache
        return context

    def _bulk_context(self) -> Optional[ValidationContext]:
        """The persistent shared context (None when ``shared_context`` is off).

        The context is rebuilt automatically when anything it was derived
        from changed: graph mutations (tracked through
        :attr:`Graph.generation`) or reassignment of ``graph``, ``schema``,
        ``engine`` or ``max_recursion_depth``.
        """
        if not self.shared_context:
            return None
        # objects are compared by identity (and kept referenced so their ids
        # cannot be recycled); the generation captures in-place graph edits.
        sources = (self.graph, self.schema, self.engine, self.compiled,
                   self.max_recursion_depth,
                   self.graph.generation)
        stale = (self._context is None or self._context_key is None
                 or any(new is not old
                        for new, old in zip(sources[:4], self._context_key[:4]))
                 or sources[4:] != self._context_key[4:])
        if stale:
            self._context = self._new_context()
            self._context_key = sources
        return self._context

    def reset_context(self) -> None:
        """Drop the persistent shared context explicitly.

        Graph mutations and graph/schema/engine reassignment are detected
        automatically; this is only needed when state the matcher consults
        changed *behind* one of those objects (e.g. an engine option was
        flipped in place).
        """
        self._context = None
        self._context_key = None
        self._incremental_labels = None
        self._incremental_entries = None
        self._incremental_typing = None
        self._incremental_generation = None

    # -- expression-level API -----------------------------------------------------
    def node_matches_expression(self, node: SubjectTerm, expr: ShapeExpr) -> MatchResult:
        """Match the neighbourhood of ``node`` against a bare expression."""
        context = self._new_context() if self.schema is not None else None
        neighbourhood = self.graph.neighbourhood(node)
        return self.engine.match_neighbourhood(expr, neighbourhood, context)

    # -- schema-level API ----------------------------------------------------------
    def validate_node(self, node: SubjectTerm,
                      label: Union[ShapeLabel, str, None] = None,
                      context: Optional[ValidationContext] = None
                      ) -> ValidationReportEntry:
        """Validate one node against one shape label (default: the start shape).

        A fresh context is used unless ``context`` is given (the bulk
        operations pass their shared context here).  The entry's stats are an
        independent snapshot of the work done *for this entry* — never an
        alias of the (possibly shared) context record.
        """
        label = self._resolve_label(label)
        if context is None:
            context = self._new_context()
        return _engine_entry(context, node, label)

    def validate_map(self, shape_map: Mapping[SubjectTerm, Union[ShapeLabel, str]]
                     ) -> ValidationReport:
        """Validate every ``node → label`` association of a shape map."""
        context = self._bulk_context()
        report = ValidationReport()
        conforming: List[Tuple[ObjectTerm, ShapeLabel]] = []
        for node, label in shape_map.items():
            entry = self.validate_node(node, label, context=context)
            report.entries.append(entry)
            if entry.conforms:
                conforming.append((node, self._resolve_label(label)))
        report.typing = ShapeTyping.from_pairs(conforming)
        return report

    def infer_typing(self, nodes: Optional[Iterable[SubjectTerm]] = None,
                     labels: Optional[Iterable[Union[ShapeLabel, str]]] = None
                     ) -> ShapeTyping:
        """Compute a shape typing for the graph (Section 8).

        Tries every combination of the given nodes (default: every subject
        node of the graph) and labels (default: every label of the schema)
        and returns the typing containing the associations that validate.
        With ``shared_context`` enabled, verdicts established while checking
        one combination are reused by every later one.
        """
        if self.schema is None:
            raise SchemaError("infer_typing requires a schema")
        node_list = list(nodes) if nodes is not None else sorted(
            self.graph.nodes(), key=lambda term: term.sort_key()
        )
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        context = self._bulk_context()
        return ShapeTyping.from_pairs(
            (node, label)
            for node in node_list
            for label in label_list
            if self.validate_node(node, label, context=context).conforms
        )

    def conforming_nodes(self, label: Union[ShapeLabel, str, None] = None
                         ) -> List[SubjectTerm]:
        """Return the subject nodes that conform to ``label`` (Example 2)."""
        label = self._resolve_label(label)
        context = self._bulk_context()
        nodes = sorted(self.graph.nodes(), key=lambda term: term.sort_key())
        return [node for node in nodes
                if self.validate_node(node, label, context=context).conforms]

    def validate_graph(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None
                       ) -> ValidationReport:
        """Validate every subject node against every (or the given) labels.

        Runs the serial bulk path unless the multi-process hook
        (:meth:`_run_parallel`, overridden by the resident shard fleet's
        :class:`~repro.service.sharding.ShardedValidator`) answers the run;
        verdicts are identical either way.
        """
        if self.schema is None:
            raise SchemaError("validate_graph requires a schema")
        label_list = [self._resolve_label(label) for label in labels] if labels \
            else list(self.schema.labels())
        entries = self._run_parallel(label_list)
        if entries is None:
            report = self._validate_graph_serial(label_list)
        else:
            report = ValidationReport(entries=[
                entries[(node, label)]
                for node in sorted(self.graph.nodes(),
                                   key=lambda term: term.sort_key())
                for label in label_list])
            report.typing = ShapeTyping.from_pairs(
                (entry.node, entry.label) for entry in report.entries
                if entry.conforms)
        self._record_incremental_baseline(label_list, report)
        return report

    def _record_incremental_baseline(self, label_list: Sequence[ShapeLabel],
                                     report: ValidationReport) -> None:
        """Remember a full run so ``revalidate`` can delta-update it."""
        if not self.shared_context:
            return
        self._incremental_labels = tuple(label_list)
        self._incremental_entries = {
            (entry.node, entry.label): entry for entry in report.entries
        }
        self._incremental_typing = report.typing
        self._incremental_generation = self.graph.generation

    def _owns(self, node: SubjectTerm) -> bool:
        """Whether bulk reports cover ``node`` (True without a filter)."""
        return self.subject_filter is None or self.subject_filter(node)

    def _validate_graph_serial(self, label_list: Sequence[ShapeLabel]) -> ValidationReport:
        """The single-process bulk path: one shared context, sorted node order."""
        context = self._bulk_context()
        subjects = sorted((node for node in self.graph.nodes()
                           if self._owns(node)),
                          key=lambda term: term.sort_key())
        if context is None:
            # the paper-faithful per-node baseline: a fresh context (and so
            # no verdict sharing, prefilter lane or signature memo) per pair
            entries = [self.validate_node(node, label)
                       for node in subjects for label in label_list]
        else:
            entries = run_lanes(context,
                                [(node, label_list) for node in subjects])
        report = ValidationReport(entries=entries)
        report.typing = ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in report.entries if entry.conforms
        )
        return report

    def _run_parallel(self, label_list: Sequence[ShapeLabel],
                      restrict: Optional[FrozenSet[ObjectTerm]] = None,
                      ) -> Optional[Dict[Tuple[ObjectTerm, ShapeLabel],
                                         ValidationReportEntry]]:
        """The multi-process hook: per-pair entries, or ``None`` for serial.

        The base validator is single-process and always answers ``None``.
        :class:`~repro.service.sharding.ShardedValidator` overrides it to
        run the resident shard fleet: a full run when ``restrict`` is
        ``None``, else an incremental round over ``restrict`` (the affected
        closure), returning at least every affected subject's pairs.
        """
        return None

    # -- session hooks --------------------------------------------------------------
    @property
    def maintained_generation(self) -> Optional[int]:
        """Graph generation of the maintained baseline (None before a run).

        The service layer stamps this into every response so clients can
        invalidate their local verdict caches when the graph moves.
        """
        return self._incremental_generation

    def maintained_entry(self, node: ObjectTerm,
                         label: Union[ShapeLabel, str, None] = None
                         ) -> Optional[ValidationReportEntry]:
        """Serve a ``(node, label)`` verdict from the maintained baseline.

        This is the warm read path of validation-as-a-service: the entry
        comes straight from the delta-updated table the last
        ``validate_graph`` / ``revalidate`` round left behind — no engine, no
        context, no fresh run.  Returns ``None`` when no baseline exists or
        the pair is not part of it (unknown subject, label outside the
        baseline's label set).  Callers are responsible for checking
        :attr:`maintained_generation` against the graph's generation; the
        entry describes the graph *as of the baseline*.
        """
        if self._incremental_entries is None:
            return None
        return self._incremental_entries.get((node, self._resolve_label(label)))

    # -- incremental revalidation --------------------------------------------------
    def revalidate(self, labels: Optional[Sequence[Union[ShapeLabel, str]]] = None,
                   allow_full_rebuild: bool = True) -> RevalidationResult:
        """Revalidate only what the graph's mutations can have changed.

        Consumes the graph's change journal against the last full
        ``validate_graph`` baseline: the dirty subjects are closed under
        reverse reference-reachability (:func:`repro.shex.partition.affected_nodes`),
        the shared context drops exactly those nodes' settled verdicts
        (:meth:`ValidationContext.retract_nodes`), and only the affected
        subjects are re-run — through the serial lane loop, or through the
        multi-process hook (:meth:`_run_parallel`) restricted to the
        affected closure.  Everything else (the context's settled
        verdicts, the report entries and the entries of the persistent
        report typing, which is updated by ``without_nodes`` plus
        ``combine``) is reused as-is.

        Falls back to a full ``validate_graph`` — flagged via
        ``full_rebuild`` — when no baseline exists, the label set changed,
        the journal overflowed, ``shared_context`` is off, or the shared
        context was rebuilt behind the baseline's back.  Verdicts are
        identical to a fresh full run either way.  With
        ``allow_full_rebuild=False`` the fallback raises
        :class:`IncrementalFallback` instead, so services can refuse (or
        surface) the unbounded re-run.
        """
        if self.schema is None:
            raise SchemaError("revalidate requires a schema")
        label_list = tuple(
            self._resolve_label(label) for label in labels
        ) if labels else tuple(self.schema.labels())

        def full_rebuild(reason: str, message: str) -> RevalidationResult:
            if not allow_full_rebuild:
                raise IncrementalFallback(reason, message)
            report = self.validate_graph(labels=label_list)
            return RevalidationResult(
                report=report, delta=report, dirty=frozenset(),
                affected=frozenset(entry.node for entry in report.entries),
                full_rebuild=True,
            )

        if not self._incremental_baseline_valid(label_list):
            return full_rebuild(
                "no-baseline",
                "no usable incremental baseline (first run, label-set change "
                "or invalidated shared context); a full run is required")
        dirty = self.graph.changes_since(self._incremental_generation)
        if dirty is None:
            # journal overflow (or truncation): the change set is unknowable.
            return full_rebuild(
                "journal-overflow",
                "the graph's change journal overflowed since the baseline; "
                "the change set is unknowable and a full run is required")
        table = self._incremental_entries
        if not dirty:
            report = self._assemble_incremental_report(
                label_list, table, self._incremental_typing)
            return RevalidationResult(
                report=report, delta=ValidationReport(), dirty=dirty,
                affected=frozenset(), full_rebuild=False,
            )

        from .partition import affected_nodes

        affected = affected_nodes(self.graph, self.schema, dirty,
                                  index=self._schema_reference_index(),
                                  compiled=self.compiled)
        context = self._context
        retracted = context.retract_nodes(affected)
        # the retained context is now consistent with the mutated graph:
        # re-key it so the bulk machinery below (and later calls) reuse it
        # instead of rebuilding from scratch.
        self._context_key = (self.graph, self.schema, self.engine,
                             self.compiled, self.max_recursion_depth,
                             self.graph.generation)

        subject_set = set(self.graph.nodes())
        affected_subjects = sorted(
            (node for node in affected
             if node in subject_set and self._owns(node)),
            key=lambda term: term.sort_key(),
        )
        new_entries: Optional[Dict[Tuple[ObjectTerm, ShapeLabel],
                                   ValidationReportEntry]] = None
        if affected_subjects:
            try:
                new_entries = self._run_parallel(label_list, restrict=affected)
            except IncrementalFallback as error:
                # the resident shard fleet declared the restricted run
                # unanswerable; honour the caller's rebuild policy exactly
                # like a coordinator-detected fallback.
                return full_rebuild(error.reason, str(error))
            except Exception:
                # the fleet died mid-round (a worker crash, say): no
                # baseline state has moved yet, but the context key was
                # already advanced to the mutated generation.  Restore it to
                # the baseline generation so the retained baseline stays
                # usable and a retried round can still answer incrementally
                # (the retraction above is idempotent — the retry recomputes
                # the same affected set and retracts the same nodes).
                self._context_key = (self.graph, self.schema, self.engine,
                                     self.compiled,
                                     self.max_recursion_depth,
                                     self._incremental_generation)
                raise
        if new_entries is None:
            new_entries = {(entry.node, entry.label): entry
                           for entry in run_lanes(
                               context, [(node, label_list)
                                         for node in affected_subjects])}

        # delta-update the baseline table: drop every affected pair (this
        # covers subjects that no longer exist), then insert the re-runs.
        for node in affected:
            for label in label_list:
                table.pop((node, label), None)
        delta_entries: List[ValidationReportEntry] = []
        for node in affected_subjects:
            for label in label_list:
                entry = new_entries[(node, label)]
                table[(node, label)] = entry
                delta_entries.append(entry)
        self._incremental_generation = self.graph.generation

        delta = ValidationReport(entries=delta_entries)
        delta.typing = ShapeTyping.from_pairs(
            (entry.node, entry.label) for entry in delta_entries if entry.conforms
        )
        # the full report's typing is maintained incrementally too: drop the
        # affected nodes' associations (persistent dissoc), fold the delta's
        # back in — O(affected log n), never O(report).
        typing = self._incremental_typing.without_nodes(affected)
        typing = typing.combine(delta.typing)
        self._incremental_typing = typing
        report = self._assemble_incremental_report(label_list, table, typing)
        return RevalidationResult(
            report=report, delta=delta, dirty=dirty,
            affected=affected, full_rebuild=False, retracted=retracted,
        )

    def _schema_reference_index(self):
        """The schema's :class:`~repro.shex.partition.ReferenceIndex`, cached
        per schema object so repeated revalidation rounds never re-walk the
        shape expressions."""
        from .partition import ReferenceIndex

        if self._reference_index is None \
                or self._reference_index_schema is not self.schema:
            self._reference_index = ReferenceIndex(self.schema)
            self._reference_index_schema = self.schema
        return self._reference_index

    def _incremental_baseline_valid(self, label_list: Tuple[ShapeLabel, ...]) -> bool:
        """True when the last full run's state is still incrementally usable.

        Beyond a baseline existing for the same label set, the retained
        shared context must still be the one that produced it: the identity
        components of the context key must match the validator's current
        sources, and the key's generation must equal the baseline generation
        (if anything rebuilt or mutated the context since — a ``validate_node``
        after an unseen mutation, say — its verdicts no longer pair with the
        baseline's entries).
        """
        if not self.shared_context or self._incremental_entries is None \
                or self._incremental_labels != label_list \
                or self._context is None:
            return False
        key = self._context_key
        return (key is not None
                and key[0] is self.graph
                and key[1] is self.schema
                and key[2] is self.engine
                and key[3] is self.compiled
                and key[4] == self.max_recursion_depth
                and key[5] == self._incremental_generation)

    def _assemble_incremental_report(
        self, label_list: Sequence[ShapeLabel],
        table: Dict[Tuple[ObjectTerm, ShapeLabel], ValidationReportEntry],
        typing: ShapeTyping,
    ) -> ValidationReport:
        """Build the full report from the baseline table, canonical order."""
        report = ValidationReport(typing=typing)
        entries = report.entries
        for node in sorted(self.graph.nodes(), key=lambda term: term.sort_key()):
            if not self._owns(node):
                continue
            for label in label_list:
                entries.append(table[(node, label)])
        return report

    # -- helpers -----------------------------------------------------------------
    def _resolve_label(self, label: Union[ShapeLabel, str, None]) -> ShapeLabel:
        if label is None:
            if self.schema is None or self.schema.start is None:
                raise SchemaError("no shape label given and the schema has no start shape")
            return self.schema.start
        if self.schema is not None:
            return self.schema.resolve_label(label)
        return label if isinstance(label, ShapeLabel) else ShapeLabel(label)


# -- the lane loop ------------------------------------------------------------------
def run_lanes(context: ValidationContext,
              work: Iterable[Tuple[ObjectTerm, Sequence[ShapeLabel]]],
              ) -> List[ValidationReportEntry]:
    """Settle every ``(node, labels)`` group of ``work``; return the entries.

    The one lane loop of every bulk path (serial runs, incremental rounds,
    the fleet's shard workers and its coordinator safety net).
    For each node, every label is first probed against the signature cache —
    the cached verdict is a pure function of the canonical neighbourhood
    signature for *any* label, so a repeated structure is answered in one
    dictionary hit before any prefilter scan or matching frame is built.
    The labels the cache cannot answer go through one compiled-schema
    ``prefilter_node`` pass, whose decisions are recorded under the
    signature too (they are signature-pure); only the remainder reaches the
    engine through ``check_reference``, and its settled verdict is stored
    back for every later lookalike subject.  Entries come out in ``work``
    order, labels in the order each group lists them.
    """
    use_prefilter = context.compiled is not None
    cache = context.signature_cache
    entries: List[ValidationReportEntry] = []
    for node, labels in work:
        answered: Dict[ShapeLabel, ValidationReportEntry] = {}
        if cache is not None:
            for label in labels:
                hit = _signature_probe(context, cache, node, label)
                if hit is not None:
                    answered[label] = hit
        pending = [label for label in labels
                   if label not in answered] if answered else labels
        decisions = (context.prefilter_node(node, pending)
                     if pending and use_prefilter else None)
        for label in labels:
            entry = answered.get(label)
            if entry is None:
                decision = decisions.get(label) if decisions else None
                if decision is not None:
                    entry = _decided_entry(node, label, decision)
                    reason = entry.reason
                else:
                    entry = _engine_entry(context, node, label)
                    reason = "" if entry.conforms else (
                        "neighbourhood signature matches a structure that "
                        f"does not satisfy {label}")
                if cache is not None:
                    _signature_store(context, cache, node, label, entry,
                                     reason)
            entries.append(entry)
    return entries


def _engine_entry(context: ValidationContext, node: ObjectTerm,
                  label: ShapeLabel) -> ValidationReportEntry:
    """Settle ``(node, label)`` through ``check_reference`` (the engine lane).

    The entry's stats are an independent snapshot of the work done *for
    this entry* — never an alias of the (possibly shared) context record.
    """
    before = context.stats.copy()
    result = context.check_reference(node, label)
    entry_stats = context.stats.delta_since(before).merge(result.stats)
    return ValidationReportEntry(
        node=node, label=label, conforms=result.matched,
        reason=result.reason, stats=entry_stats,
        limit_exceeded=result.limit_exceeded,
    )


def merge_settled(context: ValidationContext, outcomes: Iterable[tuple],
                  entries: Optional[Dict[Tuple[ObjectTerm, ShapeLabel],
                                         ValidationReportEntry]] = None,
                  ) -> Dict[Tuple[ObjectTerm, ShapeLabel],
                            ValidationReportEntry]:
    """The settled-verdict merge rule of the resident shard fleet.

    Each outcome is one shard worker's ``(entries, confirmed, failed, stats)``:
    its report entries go into ``entries`` (a new dict when not given, which
    is returned); its settled pairs are gathered first-wins (two workers may
    settle the same cross-boundary target, and the verdicts agree); its
    :class:`MatchStats` delta merges into the coordinator context so profile
    counters cover worker-side work; and the gathered pairs enter the
    context through one ``seed_settled`` call.  Provisional state never
    crosses: workers export only what their context settled.
    """
    if entries is None:
        entries = {}
    confirmed_all: List[Tuple[ObjectTerm, ShapeLabel]] = []
    failed_all: List[Tuple[ObjectTerm, ShapeLabel]] = []
    seen: Set[Tuple[ObjectTerm, ShapeLabel]] = set()
    for worker_entries, confirmed, failed, stats in outcomes:
        for entry in worker_entries:
            entries[(entry.node, entry.label)] = entry
        for pair in confirmed:
            if pair not in seen:
                seen.add(pair)
                confirmed_all.append(pair)
        for pair in failed:
            if pair not in seen:
                seen.add(pair)
                failed_all.append(pair)
        context.stats.merge(stats)
    context.seed_settled(confirmed_all, failed_all)
    return entries


# -- the bulk prefilter fast lane ---------------------------------------------------
def _decided_entry(node: ObjectTerm, label: ShapeLabel,
                   decision) -> ValidationReportEntry:
    """Build a report entry for a prefilter-decided ``(node, label)`` pair.

    The fast lane of the bulk paths: when the compiled-schema prefilter
    settles a pair, it never reaches
    :meth:`ValidationContext.check_reference` — no matching frame, no
    hypothesis bookkeeping, no per-entry statistics snapshotting.  The
    verdict itself was already recorded in the context by
    ``prefilter_node`` / ``prefilter_check``.
    """
    if decision.matched:
        return ValidationReportEntry(
            node=node, label=label, conforms=True,
            stats=MatchStats(prefilter_accepts=1),
        )
    # the entry carries the node and label already; reusing the memoised
    # reason string verbatim keeps the reject lane allocation-light
    return ValidationReportEntry(
        node=node, label=label, conforms=False,
        reason=decision.reason,
        stats=MatchStats(prefilter_rejects=1),
    )


# -- the signature dedupe lane ------------------------------------------------------
def _signature_probe(context: ValidationContext, cache: SignatureCache,
                     node: ObjectTerm, label: ShapeLabel
                     ) -> Optional[ValidationReportEntry]:
    """Answer ``(node, label)`` from the signature cache, if possible.

    Returns ``None`` when the pair is already settled in the context (the
    settled lane of ``check_reference`` is cheaper and keeps its own reason
    strings), the subject is signature-open (``node_signature`` returned
    ``None``), or the signature has no cached verdict yet.  On a hit the
    verdict is recorded in the context — exactly what a full engine run
    would have settled — so later references to ``node`` reuse it.
    """
    if context.is_confirmed(node, label) or context.is_failed(node, label):
        return None
    stats = context.stats
    start = perf_counter()
    signature = context.node_signature(node)
    cached = cache.lookup(signature, label) if signature is not None else None
    stats.signature_time += perf_counter() - start
    if signature is None:
        return None
    if cached is None:
        stats.signature_misses += 1
        return None
    conforms, reason = cached
    stats.signature_hits += 1
    if conforms:
        context.confirm(node, label)
    else:
        context.record_failure(node, label)
    return ValidationReportEntry(node=node, label=label, conforms=conforms,
                                 reason=reason,
                                 stats=MatchStats(signature_hits=1))


def _signature_store(context: ValidationContext, cache: SignatureCache,
                     node: ObjectTerm, label: ShapeLabel,
                     entry: ValidationReportEntry, reason: str) -> None:
    """Record a settled verdict under the subject's signature.

    Only *settled* outcomes are stored: budget-limited entries and verdicts
    the context did not settle (still provisional behind a hypothesis) never
    enter the cache — the two soundness gates of :class:`SignatureCache`.
    Prefilter decisions always pass them and are signature-pure too: the
    predicate multiset and the screenable constraint verdicts of each object
    the prefilter consults are a function of the canonical signature.

    ``reason`` is what every later lookalike is served, and ``entry`` gets
    it as well.  Prefilter reasons name predicates, never the node, so they
    are stored verbatim; an engine failure's own reason names this node's
    triples, and which member of a signature class reaches the engine first
    depends on the scheduler, so the lanes pass a class-wide reason that
    keeps reports identical across serial and ``--shards`` runs.
    """
    if entry.limit_exceeded:
        return
    if entry.conforms:
        if not context.is_confirmed(node, label):
            return
    elif not context.is_failed(node, label):
        return
    stats = context.stats
    start = perf_counter()
    signature = context.node_signature(node)
    stats.signature_time += perf_counter() - start
    if signature is None:
        return
    entry.reason = reason
    cache.store(signature, label, entry.conforms, reason)
    stats.signature_dedupes += 1


# -- shard worker engines -----------------------------------------------------------
def _make_engine_spec(engine: Union[str, object, None],
                      engine_options: Mapping[str, object]) -> Optional[tuple]:
    """Build the picklable ``(name, options, cache_bound)`` worker recipe.

    Worker processes rebuild their engine from this spec instead of receiving
    the parent's engine object: a shared :class:`DerivativeCache` instance
    must not cross process boundaries (each worker keeps a private one), so a
    cache instance is replaced by ``True`` plus its ``max_entries`` bound.
    Engine *objects* passed to the validator cannot be shipped; the spec is
    ``None`` then and sharded validation refuses to run.
    """
    if engine is not None and not isinstance(engine, str):
        return None
    name = engine if isinstance(engine, str) else "derivatives"
    options = dict(engine_options)
    cache_option = options.get("cache")
    cache_bound = None
    if isinstance(cache_option, DerivativeCache):
        options["cache"] = True
        cache_bound = cache_option.max_entries
    return (name, options, cache_bound)


def _engine_from_spec(engine_spec: tuple):
    """Rebuild a worker-private engine from a :func:`_make_engine_spec` recipe."""
    name, options, cache_bound = engine_spec
    options = dict(options)
    if options.get("cache") is True and cache_bound is not None:
        options["cache"] = DerivativeCache(max_entries=cache_bound)
    return get_engine(name, **options)
