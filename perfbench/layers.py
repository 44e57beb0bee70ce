"""Which ``repro`` functions are traced, and how spans become layer metrics.

:func:`install` wraps the public entry points of each layer module from the
outside, so the program's sources stay untouched; the bulk worker calls it in
its own process and ``traced_serve.py`` calls it inside the server.  Every
``*_s`` layer metric is *self* time: the span's duration minus its traced
children, so the named layers add up without counting any interval twice.
"""

from __future__ import annotations

from typing import Dict

from tracing import Tracer, wrap, wrap_generator

#: per-layer metric → (span name, "self" seconds or "calls").
SPAN_METRICS = {
    "rdf.tokenise_s": ("rdf.tokenise", "self"),
    "rdf.ingest_s": ("rdf.ingest", "self"),
    "rdf.neighbourhood_s": ("rdf.neighbourhood", "self"),
    "rdf.neighbourhood_calls": ("rdf.neighbourhood", "calls"),
    "signature.build_s": ("signature.build", "self"),
    "compiled.build_s": ("compiled.build", "self"),
    "compiled.prefilter_s": ("compiled.prefilter", "self"),
    "compiled.prefilter_calls": ("compiled.prefilter", "calls"),
    "engine.match_self_s": ("engine.match", "self"),
    "engine.match_calls": ("engine.match", "calls"),
    "context.check_reference_self_s": ("context.check_reference", "self"),
    "context.reference_checks": ("context.check_reference", "calls"),
    "typing.add_s": ("typing.add", "self"),
    "typing.add_calls": ("typing.add", "calls"),
    "gc.pause_s": ("gc", "self"),
    "gc.collections": ("gc", "calls"),
    "reporting.format_s": ("reporting.format", "self"),
    "validator.lanes_self_s": ("validator.lanes", "self"),
    "validator.lookup_s": ("validator.lookup", "self"),
    "validator.revalidate_s": ("validator.revalidate", "self"),
    "session.verdict_s": ("session.verdict", "self"),
    "session.delta_s": ("session.delta", "self"),
    "api.serialise_s": ("api.serialise", "self"),
}

#: the dict store's neighbourhood accessors (``neighbourhood_any`` delegates
#: to ``neighbourhood``, so wrapping both would count one fetch twice).
_NEIGHBOURHOOD_ACCESSORS = ("neighbourhood", "neighbourhood_ordered",
                            "predicate_objects", "predicate_counts",
                            "signature_pairs")


def install(tracer: Tracer) -> None:
    """Wrap every traced ``repro`` entry point (idempotence is not needed:
    each process installs once, before it builds any graph or validator)."""
    from repro.rdf import graph, ntriples
    from repro.service import api, server, session
    from repro.shex import compiled, derivatives, reporting, schema, typing, validator

    wrap_generator(tracer, ntriples, "iter_ntriples_lines", "rdf.tokenise")
    wrap(tracer, graph.Graph, "parse", "rdf.ingest")
    wrap(tracer, graph.TripleStore, "add_all", "rdf.ingest")
    for accessor in _NEIGHBOURHOOD_ACCESSORS:
        wrap(tracer, graph.Graph, accessor, "rdf.neighbourhood")

    context = schema.ValidationContext
    wrap(tracer, context, "node_signature", "signature.build")
    wrap(tracer, compiled.CompiledSchema, "__init__", "compiled.build")

    wrap(tracer, context, "prefilter_check", "compiled.prefilter")
    wrap(tracer, context, "prefilter_node", "compiled.prefilter")
    # one CompiledShape.prefilter call scans one (node, label) pair; the two
    # entry points above skip pairs already scanned or settled without one
    scan = compiled.CompiledShape.prefilter

    def counted_scan(self, triples, counts=None):
        decision = scan(self, triples, counts)
        tracer.count("prefilter.pairs")
        tracer.count("prefilter.decided", decision is not None)
        return decision

    compiled.CompiledShape.prefilter = counted_scan
    wrap(tracer, derivatives.DerivativeEngine, "match_neighbourhood",
         "engine.match")
    wrap(tracer, context, "check_reference", "context.check_reference")
    wrap(tracer, typing.ShapeTyping, "add", "typing.add")
    wrap(tracer, typing.ShapeTyping, "from_pairs", "typing.add")
    wrap(tracer, reporting, "format_csv", "reporting.format")
    wrap(tracer, validator.Validator, "validate_graph", "validator.lanes")
    wrap(tracer, validator.Validator, "maintained_entry", "validator.lookup")
    wrap(tracer, validator.Validator, "revalidate", "validator.revalidate")

    wrap(tracer, session.ValidationSession, "verdict", "session.verdict")
    wrap(tracer, session.ValidationSession, "apply_delta", "session.delta")
    for response in (api.VerdictResponse, api.DeltaResponse):
        wrap(tracer, response, "to_json", "api.serialise")

    make_handler = server._make_handler

    def traced_make_handler(service):
        handler = make_handler(service)
        dispatch = handler._dispatch

        def _dispatch(self, method):
            tracer.enter(f"server.{method.lower()}")
            try:
                dispatch(self, method)
            finally:
                tracer.exit()

        handler._dispatch = _dispatch
        return handler

    server._make_handler = traced_make_handler
    tracer.watch_gc()


def layer_values(snapshot: Dict[str, Dict[str, float]],
                 per: float = 1.0) -> Dict[str, float]:
    """The span-derived layer metrics, each divided by ``per`` (ops run)."""
    values: Dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        values[metric] = snapshot[kind].get(span, 0.0) / per
    counters = snapshot["counters"]
    pairs = counters.get("prefilter.pairs", 0.0)
    values["compiled.decided_ratio"] = (
        counters.get("prefilter.decided", 0.0) / pairs if pairs else 0.0)
    return values


def named_self_time(snapshot: Dict[str, Dict[str, float]]) -> float:
    """Self time of every named layer span (the coverage numerator)."""
    named = {span for span, kind in SPAN_METRICS.values() if kind == "self"}
    return sum(value for span, value in snapshot["self"].items()
               if span in named)
