"""Tests for multi-process bulk validation on the resident shard fleet
(``ShardedValidator(shards=2)``) and the settled-verdict protocol it merges
worker results by."""

from __future__ import annotations

import pytest

from repro.rdf import EX, Graph
from repro.rdf.namespaces import FOAF
from repro.rdf.terms import Literal, Triple
from repro.service import ShardedValidator
from repro.shex import BacktrackingEngine, Validator
from repro.shex.schema import ValidationContext
from repro.shex.typing import ShapeLabel
from repro.workloads import (
    generate_community_workload,
    generate_person_workload,
    knows_cycle_graph,
    paper_example_graph,
    person_schema,
)


def verdicts(report):
    return {(entry.node, str(entry.label)): entry.conforms for entry in report}


@pytest.fixture
def sharded():
    """Build ``ShardedValidator(shards=2)`` instances; close their fleets."""
    built = []

    def make(graph, schema, **options):
        validator = ShardedValidator(graph, schema, shards=2, **options)
        built.append(validator)
        return validator

    yield make
    for validator in built:
        validator.close_fleet()


class TestSettledVerdictProtocol:
    def test_seeded_verdicts_are_consulted(self):
        graph = paper_example_graph()
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ValidationContext(graph, schema,
                                    validator.engine.match_neighbourhood)
        label = ShapeLabel("Person")
        context.seed_settled(confirmed=[(EX.bob, label)])
        assert context.is_confirmed(EX.bob, label)
        context.seed_settled(failed=[(EX.mary, label)])
        assert context.is_failed(EX.mary, label)

    def test_settled_verdicts_round_trip(self):
        graph = paper_example_graph()
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ValidationContext(graph, schema,
                                    validator.engine.match_neighbourhood)
        for node in (EX.john, EX.bob, EX.mary):
            context.check_reference(node, "Person")
        confirmed, failed = context.settled_verdicts()
        other = ValidationContext(graph, schema,
                                  validator.engine.match_neighbourhood)
        other.seed_settled(confirmed, failed)
        label = ShapeLabel("Person")
        assert other.is_confirmed(EX.john, label)
        assert other.is_confirmed(EX.bob, label)
        assert other.is_failed(EX.mary, label)

    def test_provisional_state_is_not_exported(self):
        # a context mid-validation would hold provisional entries; a settled
        # export straight after a clean run contains only definitive pairs
        graph, _ = knows_cycle_graph(4)
        schema = person_schema()
        validator = Validator(graph, schema)
        context = ValidationContext(graph, schema,
                                    validator.engine.match_neighbourhood)
        head = EX.cycle0
        assert context.check_reference(head, "Person").matched
        confirmed, failed = context.settled_verdicts()
        assert failed == ()
        # the whole cycle settled together once the outer frame resolved
        assert {node for node, _ in confirmed} == set(graph.nodes())


class TestParallelValidateGraph:
    def test_paper_example_matches_serial(self, sharded):
        graph = paper_example_graph()
        schema = person_schema()
        serial = Validator(graph, schema).validate_graph()
        parallel = sharded(graph, schema).validate_graph()
        assert verdicts(parallel) == verdicts(serial)
        # report ordering is canonical in both paths
        assert [(e.node, str(e.label)) for e in parallel.entries] == \
            [(e.node, str(e.label)) for e in serial.entries]
        assert parallel.typing == serial.typing

    def test_community_workload_matches_serial_and_ground_truth(self, sharded):
        workload = generate_community_workload(
            num_communities=4, people_per_community=6, seed=3)
        serial = Validator(workload.graph, workload.schema, cache=True)
        parallel = sharded(workload.graph, workload.schema, cache=True)
        serial_verdicts = verdicts(serial.validate_graph())
        parallel_verdicts = verdicts(parallel.validate_graph())
        assert parallel_verdicts == serial_verdicts
        valid = set(workload.valid_nodes)
        for node in workload.all_nodes:
            assert parallel_verdicts[(node, "Person")] == (node in valid)

    def test_disconnected_subjects_validate_in_parallel(self, sharded):
        graph = Graph()
        for i in range(6):
            node = EX[f"solo{i}"]
            graph.add(Triple(node, FOAF.age, Literal(20 + i)))
            graph.add(Triple(node, FOAF.name, Literal(f"Solo {i}")))
        report = sharded(graph, person_schema()).validate_graph()
        assert report.conforms
        assert len(report) == 6

    def test_mutation_then_revalidate_with_shards(self, sharded):
        workload = generate_person_workload(num_people=12, seed=5)
        validator = sharded(workload.graph, workload.schema, cache=True)
        first = validator.validate_graph()
        victim = workload.valid_nodes[0]
        assert first.entry_for(victim).conforms
        # a second age arc violates the exactly-one cardinality; the
        # replicas missed the edit, so the next full run reloads them
        workload.graph.add(Triple(victim, FOAF.age, Literal(999)))
        second = validator.validate_graph()
        assert not second.entry_for(victim).conforms
        # and removing it again restores conformance (generation counter)
        workload.graph.discard(Triple(victim, FOAF.age, Literal(999)))
        third = validator.validate_graph()
        assert third.entry_for(victim).conforms

    def test_backtracking_engine_agrees_in_parallel(self, sharded):
        workload = generate_community_workload(
            num_communities=3, people_per_community=4, seed=4)
        derivative = Validator(workload.graph, workload.schema, cache=True)
        backtracking = sharded(workload.graph, workload.schema,
                               engine="backtracking", budget=5_000_000)
        assert verdicts(backtracking.validate_graph()) == \
            verdicts(derivative.validate_graph())

    def test_parallel_verdicts_merge_into_shared_context(self, sharded):
        workload = generate_person_workload(num_people=10, seed=6)
        validator = sharded(workload.graph, workload.schema, cache=True)
        validator.validate_graph()
        context = validator._bulk_context()
        confirmed, failed = context.settled_verdicts()
        label = ShapeLabel("Person")
        for node in workload.valid_nodes:
            assert (node, label) in confirmed
        for node in workload.invalid_nodes:
            assert (node, label) in failed


class TestTypingAgreement:
    """The HAMT swap must change no verdicts: every validation path builds
    the same typing on the recursive community workload."""

    def test_serial_parallel_and_per_node_typings_are_identical(self, sharded):
        workload = generate_community_workload(
            num_communities=3, people_per_community=6, seed=7)
        graph, schema = workload.graph, workload.schema
        serial = Validator(graph, schema, cache=True).validate_graph()
        parallel = sharded(graph, schema, cache=True).validate_graph()
        per_node = Validator(graph, schema, shared_context=False).validate_graph()
        assert serial.typing.to_dict() == parallel.typing.to_dict()
        assert serial.typing.to_dict() == per_node.typing.to_dict()
        # value semantics: the typings are equal objects with equal hashes,
        # not merely equal serialisations
        assert serial.typing == parallel.typing == per_node.typing
        assert hash(serial.typing) == hash(parallel.typing) == hash(per_node.typing)
        # and the typing matches the workload's ground truth
        valid = set(workload.valid_nodes)
        for node in workload.all_nodes:
            assert serial.typing.has(node, "Person") == (node in valid)

    def test_backtracking_typing_agrees_too(self):
        workload = generate_community_workload(
            num_communities=2, people_per_community=4, seed=9)
        graph, schema = workload.graph, workload.schema
        derivative = Validator(graph, schema, cache=True).validate_graph()
        backtracking = Validator(graph, schema, engine="backtracking",
                                 budget=5_000_000).validate_graph()
        assert backtracking.typing.to_dict() == derivative.typing.to_dict()


class TestParallelErrors:
    def test_per_node_mode_is_rejected(self, sharded):
        graph = paper_example_graph()
        validator = sharded(graph, person_schema(), shared_context=False)
        with pytest.raises(ValueError, match="shared"):
            validator.validate_graph()

    def test_engine_objects_are_rejected(self, sharded):
        graph = paper_example_graph()
        validator = sharded(graph, person_schema(),
                            engine=BacktrackingEngine())
        with pytest.raises(ValueError, match="name"):
            validator.validate_graph()
