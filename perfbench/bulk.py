"""Bulk worker: the ``kb-bulk`` and ``social-bulk`` operations, in-process.

Run by ``run.py`` as its own process, so its peak RSS is the program's alone.
One operation is what a ``repro validate --all-nodes --format csv`` user
waits for, followed by the warm read/write traffic a library user sends to
the validator it built:

1. setup — parse the N-Triples text into a fresh dict ``Graph``, parse the
   schema, build a ``Validator`` with the CLI defaults and compile it;
2. bulk — ``validate_graph()`` over every label, then ``format_csv``;
3. mixed — point reads (``maintained_entry``) on uniformly drawn
   ``(node, label)`` pairs, interleaved with break/repair deltas, each
   followed by ``revalidate``.

Every verdict is checked against the generator's truth.  Operations repeat
until ``--seconds`` have passed.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
from collections import Counter
from statistics import median
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.rdf import Graph
from repro.rdf.ntriples import iter_ntriples
from repro.rdf.terms import IRI
from repro.shex import Schema, Validator, reporting

from inputs import Truth, WriteSchedule
from layers import install, layer_values, named_self_time
from tracing import Tracer

#: per operation: WRITES rounds of BATCHES read batches, then one write.  A
#: lookup takes microseconds, close to the timer's own cost and to single
#: interrupts, so reads are timed READ_BATCH at a time and each sample is
#: the batch's time per read.
WRITES, BATCHES, READ_BATCH = 40, 2, 25


class Run:
    """Samples, counts and failures accumulated over one worker run."""

    def __init__(self):
        self.setup_s: List[float] = []
        self.validate_s: List[float] = []
        self.read_ms: List[float] = []
        self.write_ms: List[float] = []
        self.op_wall_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failure_types: Counter = Counter()
        self.counts: Counter = Counter()

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failure_types[kind] += 1


def _term(node: str) -> IRI:
    return IRI(node[1:-1])


def one_operation(text: str, schema_text: str, truth: Truth,
                  rng: random.Random, schedule: WriteSchedule,
                  run: Run) -> None:
    """Setup, bulk validation and mixed traffic; failures are recorded.

    ``WRITES`` is even, so the graph ends every operation in its generated
    state, as the next operation's fresh parse expects.
    """
    run.attempted += 1
    start = perf_counter()
    try:
        graph = Graph.parse(text, format="ntriples")
        validator = Validator(graph, Schema.from_shexc(schema_text))
        validator.compiled
        ready = perf_counter()
        report = validator.validate_graph()
        reporting.format_csv(report)
        done = perf_counter()
    except Exception as error:  # noqa: BLE001 - every failure is counted
        run.fail(type(error).__name__)
        return
    pairs = len(report)
    seen = {(entry.node.n3(), entry.label.name): entry.conforms
            for entry in report.entries}
    expected = {pair: truth.expected(*pair) for pair in truth.pairs}
    if pairs != len(expected) or seen != expected:
        run.fail("wrong-verdict")
        return
    run.setup_s.append(ready - start)
    run.validate_s.append(done - ready)
    run.counts["pairs"] += pairs
    cache = validator.signature_cache
    if cache is not None:
        stats = cache.stats()
        run.counts["signature.lookups"] += stats["hits"] + stats["misses"]
        run.counts["signature.hits"] += stats["hits"]
    run.counts["engine.derivative_steps"] += \
        report.total_stats().derivative_steps

    pairs_list = truth.pairs
    terms = {node: _term(node) for node in truth.subjects}
    lookup = validator.maintained_entry
    for _ in range(WRITES):
        for _ in range(BATCHES):
            batch = [rng.choice(pairs_list) for _ in range(READ_BATCH)]
            answers: List[object] = []
            began = perf_counter()
            for node, label in batch:
                try:
                    answers.append(lookup(terms[node], label))
                except Exception as error:  # noqa: BLE001
                    answers.append(error)
            run.read_ms.append((perf_counter() - began) * 1e3 / READ_BATCH)
            run.attempted += READ_BATCH
            for (node, label), entry in zip(batch, answers):
                if isinstance(entry, Exception):
                    run.fail(type(entry).__name__)
                elif entry is None or entry.conforms != truth.expected(
                        node, label, schedule.broken):
                    run.fail("wrong-verdict")
        run.attempted += 1
        add, remove, target, broken = schedule.next()
        try:
            began = perf_counter()
            added = list(iter_ntriples(add))
            removed = list(iter_ntriples(remove))
            with graph.batch():
                graph.add_all(added)
                graph.remove_all(removed)
            result = validator.revalidate(allow_full_rebuild=False)
            run.write_ms.append((perf_counter() - began) * 1e3)
        except Exception as error:  # noqa: BLE001
            run.fail(type(error).__name__)
            continue
        stats = result.stats()
        run.counts["revalidate.affected_nodes"] += stats["affected_nodes"]
        run.counts["revalidate.revalidated_pairs"] += stats["revalidated_pairs"]
        for node, label in truth.targets[target]["affected"]:
            entry = lookup(terms[node], label)
            if result.full_rebuild or entry is None \
                    or entry.conforms != truth.expected(node, label, broken):
                run.fail("wrong-verdict")
                break


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    text = (args.input / "data.nt").read_text(encoding="utf-8")
    schema_text = (args.input / "schema.shex").read_text(encoding="utf-8")
    truth = Truth.load(args.input / "truth.json")
    rng = random.Random(args.seed)
    schedule = WriteSchedule(truth, args.seed)
    run = Run()
    tracer: Optional[Tracer] = None
    began = perf_counter()
    untraced = 0
    while True:
        elapsed = perf_counter() - began
        ops = len(run.op_wall_s)
        if args.trace and tracer is None and ops >= 2 \
                and elapsed >= args.seconds / 2:
            # the first half ran untraced: it is the overhead baseline
            untraced = ops
            tracer = Tracer()
            install(tracer)
        traced_enough = not args.trace or (
            tracer is not None and ops - untraced >= 2)
        if ops and elapsed >= args.seconds and traced_enough:
            break
        if tracer is not None:
            tracer.unwatch_gc()
        gc.collect()
        if tracer is not None:
            tracer.watch_gc()
            tracer.enter("bench.op")
        op_start = perf_counter()
        one_operation(text, schema_text, truth, rng, schedule, run)
        run.op_wall_s.append(perf_counter() - op_start)
        if tracer is not None:
            tracer.exit()

    result: Dict[str, object] = {
        "ops": len(run.op_wall_s), "setup_s": run.setup_s,
        "pairs": run.counts["pairs"], "validate_s": run.validate_s,
        "read_ms": run.read_ms,
        "write_ms": run.write_ms, "op_wall_s": run.op_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted, "failed": run.failed,
        "failure_types": dict(run.failure_types),
    }
    if tracer is not None:
        tracer.unwatch_gc()
        traced_ops = len(run.op_wall_s) - untraced
        snapshot = tracer.snapshot()
        layers = layer_values(snapshot, per=traced_ops)
        for name in ("signature.lookups", "engine.derivative_steps",
                     "revalidate.affected_nodes",
                     "revalidate.revalidated_pairs"):
            layers[name] = run.counts[name] / len(run.op_wall_s)
        # the share of validated pairs a signature hit answered: open
        # (recursive) subjects never probe the cache, so this, not
        # hits / probes, shows how much work the cache takes away.
        layers["signature.hit_rate"] = (
            run.counts["signature.hits"] / run.counts["pairs"])
        plain, traced = run.op_wall_s[:untraced], run.op_wall_s[untraced:]
        layers["trace.coverage"] = named_self_time(snapshot) / sum(traced)
        layers["trace.overhead"] = median(traced) / median(plain)
        result["layers"] = layers
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
