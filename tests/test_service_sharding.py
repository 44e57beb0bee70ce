"""Tests for the hash-sharded scheduler: deterministic partitioning, verdict
identity with the serial path, and byte-identical wire responses across
serial and ``--shards`` server modes."""

from __future__ import annotations

import json

import pytest

from repro.rdf.ntriples import iter_ntriples
from repro.service import (
    DeltaRequest,
    ShardedValidator,
    ValidationSession,
    shard_of,
)
from repro.shex import Validator
from repro.workloads import (
    generate_community_workload,
    generate_kb_workload,
    person_schema,
)


def community():
    return generate_community_workload(
        num_communities=4, people_per_community=6,
        invalid_fraction=0.25, seed=11)


def fix_delta(workload):
    """An N-Triples delta that repairs a couple of invalid people and breaks
    one valid one — exercises retraction in both directions."""
    broken = sorted(workload.invalid_nodes, key=lambda t: t.value)[:2]
    victim = sorted(workload.valid_nodes, key=lambda t: t.value)[0]
    add_lines = [f'{node.n3()} <http://xmlns.com/foaf/0.1/name> "Fixed" .'
                 for node in broken]
    add_lines.append(
        f'{victim.n3()} <http://xmlns.com/foaf/0.1/age> '
        '"second"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    return "\n".join(add_lines) + "\n"


class TestShardOf:
    def test_deterministic_and_in_range(self):
        workload = community()
        nodes = workload.all_nodes
        for shards in (1, 2, 3, 8):
            buckets = [shard_of(node, shards) for node in nodes]
            assert all(0 <= b < shards for b in buckets)
            assert buckets == [shard_of(node, shards) for node in nodes]

    def test_spreads_nodes_across_shards(self):
        workload = community()
        buckets = {shard_of(node, 4) for node in workload.all_nodes}
        assert len(buckets) > 1  # 24 nodes cannot all hash to one shard


class TestShardedIdentity:
    def test_full_run_matches_serial(self):
        workload = community()
        serial = Validator(workload.graph, workload.schema).validate_graph()
        sharded = ShardedValidator(workload.graph, person_schema(),
                                   shards=2).validate_graph()
        assert len(serial) == len(sharded)
        serial_map = {(e.node, e.label): e.conforms for e in serial.entries}
        for entry in sharded.entries:
            assert serial_map[(entry.node, entry.label)] == entry.conforms

    def test_ground_truth_holds_under_sharding(self):
        workload = community()
        report = ShardedValidator(workload.graph, person_schema(),
                                  shards=3).validate_graph()
        verdicts = {entry.node: entry.conforms for entry in report.entries}
        for node in workload.valid_nodes:
            assert verdicts[node], f"{node} should conform"
        for node in workload.invalid_nodes:
            assert not verdicts[node], f"{node} should not conform"

    def test_shards_1_falls_back_to_serial(self):
        workload = community()
        validator = ShardedValidator(workload.graph, workload.schema, shards=1)
        report = validator.validate_graph()
        expected = Validator(community().graph,
                             person_schema()).validate_graph()
        assert {(e.node, e.label, e.conforms) for e in report.entries} == \
            {(e.node, e.label, e.conforms) for e in expected.entries}

    def test_delta_revalidation_matches_serial(self):
        serial_wl, sharded_wl = community(), community()
        delta = fix_delta(serial_wl)

        serial = ValidationSession(serial_wl.graph, serial_wl.schema)
        sharded = ValidationSession(sharded_wl.graph, sharded_wl.schema,
                                    shards=2)
        serial.validate()
        sharded.validate()
        serial_resp = serial.apply_delta(DeltaRequest(add=delta))
        sharded_resp = sharded.apply_delta(DeltaRequest(add=delta))
        assert not serial_resp.full_rebuild
        assert not sharded_resp.full_rebuild
        assert serial_resp.conforms == sharded_resp.conforms
        for node in serial_wl.all_nodes:
            lhs = serial.verdict(node)
            rhs = sharded.verdict(node)
            assert lhs.conforms == rhs.conforms, node


class TestByteIdentity:
    def test_default_verdict_json_identical_across_modes(self):
        """Serial and ``shards=2`` sessions must serialise every default
        (reason-less) verdict response byte-identically."""
        workloads = [community() for _ in range(2)]
        sessions = [
            ValidationSession(workloads[0].graph, workloads[0].schema),
            ValidationSession(workloads[1].graph, workloads[1].schema,
                              shards=2),
        ]
        delta = fix_delta(workloads[0])
        for session in sessions:
            session.validate()
            session.apply_delta(DeltaRequest(add=delta))
        for node in workloads[0].all_nodes:
            payloads = [
                json.dumps(session.verdict(node).to_json(), sort_keys=True)
                for session in sessions
            ]
            assert payloads[0] == payloads[1], node
        for session in sessions:
            session.close()


    @pytest.mark.parametrize("make_workload", [
        lambda: generate_kb_workload(600, 6, seed=5),
        community,
    ], ids=["kb", "community"])
    def test_report_entries_identical_across_schedulers(self, make_workload):
        """Serial and ``shards=2`` runs report every pair with the same
        verdict *and* the same reason: no reason may depend on the order a
        store or a worker meets triples or lookalike subjects in."""
        reports = []
        for options in ({}, {"shards": 2}):
            workload = make_workload()
            session = ValidationSession(workload.graph, workload.schema,
                                        **options)
            try:
                reports.append([
                    (e.node, e.label, e.conforms, e.reason, e.limit_exceeded)
                    for e in session.validate().entries])
            finally:
                session.close()
        assert reports[0] == reports[1]


class TestSignatureStats:
    def test_signature_block_counts_worker_traffic(self):
        """The ``signature`` block's hit counters agree with the merged
        ``profile`` for every scheduler — worker processes probe private
        tables the coordinator's own table never sees."""
        for options in ({}, {"shards": 2}):
            workload = generate_kb_workload(600, 6, seed=5)
            session = ValidationSession(workload.graph, workload.schema,
                                        **options)
            try:
                session.validate()
                stats = session.stats()
            finally:
                session.close()
            signature, profile = stats.signature, stats.profile
            assert signature["hits"] == profile["signature_hits"] > 0, options
            assert signature["misses"] == profile["signature_misses"], options
            assert signature["dedupes"] == profile["signature_dedupes"], \
                options
            if not options:
                # serially the coordinator's table saw every probe itself
                table = session.validator.signature_cache
                assert signature["hits"] == table.hits
                assert signature["misses"] == table.misses


class TestSignatureCacheOption:
    def test_sharded_session_honours_use_signature_cache_false(self):
        """Neither the coordinator nor the shard replicas keep a signature
        table when the session disables it."""
        workload = generate_kb_workload(200, 4, seed=5)
        session = ValidationSession(workload.graph, workload.schema,
                                    shards=2, use_signature_cache=False)
        try:
            assert session.validator.signature_cache is None
            session.validate()
            stats = session.stats()
        finally:
            session.close()
        assert stats.signature == {}
        # the merged profile includes every worker's probes
        assert stats.profile.get("signature_hits", 0) == 0
        assert stats.profile.get("signature_misses", 0) == 0


class TestShardedDeltaMachinery:
    def test_delta_is_incremental_not_a_rebuild(self):
        workload = community()
        session = ValidationSession(workload.graph, workload.schema, shards=2)
        session.validate()
        response = session.apply_delta(DeltaRequest(add=fix_delta(workload)))
        assert not response.full_rebuild
        assert response.revalidated_pairs < len(workload.all_nodes)
        assert response.reused_pairs > 0

    def test_sharded_delta_matches_fresh_direct_run(self):
        workload = community()
        delta = fix_delta(workload)
        session = ValidationSession(workload.graph, workload.schema, shards=2)
        session.validate()
        session.apply_delta(DeltaRequest(add=delta))

        fresh = community()
        fresh.graph.add_all(iter_ntriples(delta))
        direct = Validator(fresh.graph, person_schema()).validate_graph()
        for entry in direct.entries:
            assert session.verdict(entry.node, entry.label).conforms == \
                entry.conforms, entry.node
