"""Seeded workload inputs and the ground truth their verdicts are checked against.

The program under test only ever sees the files written here: N-Triples
text, ShExC schema text, and (over HTTP) requests built from them.  The
truth model is plain data, so the bulk worker and the service load generator check
verdicts with the same code:

* ``valid`` — the ``(node, label)`` pairs that conform on the generated graph;
  every other pair of ``subjects × labels`` must not conform;
* ``targets`` — nodes a write may break and repair.  Breaking one applies its
  ``add``/``remove`` N-Triples; repairing applies them the other way round.
  While a target is broken, exactly its ``affected`` pairs flip from
  conforming to not conforming.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.rdf.namespaces import EX, FOAF
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.terms import Literal, Triple
from repro.workloads import (
    KB_SCHEMA_SHEXC,
    PERSON_SCHEMA_SHEXC,
    generate_community_workload,
    generate_kb_workload,
)

#: input sizes of the three workloads (entities/hubs, communities × people).
KB_BULK_ENTITIES, KB_BULK_HUBS = 6000, 10
SOCIAL_COMMUNITIES, SOCIAL_PEOPLE = 400, 16
KB_SERVICE_ENTITIES, KB_SERVICE_HUBS = 4000, 10

#: write targets drawn per workload: enough that successive breaks touch
#: different hubs / communities, few enough to keep the truth file small.
NUM_TARGETS = 64

Pair = Tuple[str, str]


def _nt(triples: Iterable[Triple]) -> str:
    return "".join(f"{triple.n3()}\n" for triple in triples)


def _reverse_reach(edges: Dict[str, Set[str]], start: str) -> Set[str]:
    """Every node with a path to ``start`` along ``edges`` (start included)."""
    reverse: Dict[str, Set[str]] = defaultdict(set)
    for source, targets in edges.items():
        for target in targets:
            reverse[target].add(source)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for source in reverse.get(node, ()):
            if source not in seen:
                seen.add(source)
                frontier.append(source)
    return seen


def kb_inputs(seed: int, entities: int, hubs: int) -> Dict[str, object]:
    """The hub-heavy knowledge base: three labels, entity-facet writes."""
    workload = generate_kb_workload(num_entities=entities, num_hubs=hubs,
                                    seed=seed)
    graph = workload.graph
    valid: List[Pair] = (
        [(node.n3(), "Entity") for node in workload.valid_entities]
        + [(node.n3(), "Hub") for node in workload.valid_hubs])
    valid_hubs = {hub.n3() for hub in workload.valid_hubs}
    linked_by: Dict[str, Set[str]] = defaultdict(set)
    for triple in graph.triples(None, EX.links, None):
        linked_by[triple.object.n3()].add(triple.subject.n3())
    candidates = sorted(entity for entity in workload.valid_entities
                        if linked_by[entity.n3()] & valid_hubs)
    rng = random.Random(seed)
    targets = []
    for entity in rng.sample(candidates, min(NUM_TARGETS, len(candidates))):
        code = graph.value(entity, EX.code)
        node = entity.n3()
        targets.append({
            "node": node,
            # a PATTERN facet breach: the code no longer matches ^[A-Z]{2,4}$
            "add": _nt([Triple(entity, EX.code, Literal("x9"))]),
            "remove": _nt([Triple(entity, EX.code, code)]),
            "affected": [[node, "Entity"]] + [
                [hub, "Hub"] for hub in sorted(linked_by[node] & valid_hubs)],
        })
    subjects = [node.n3() for node in workload.entities + workload.hubs]
    return {"text": serialize_ntriples(graph), "schema": KB_SCHEMA_SHEXC,
            "subjects": subjects, "labels": ["Entity", "Hub", "Note"],
            "valid": valid, "targets": targets, "triples": len(graph)}


def social_inputs(seed: int, communities: int,
                  people: int) -> Dict[str, object]:
    """Recursive FOAF communities: one label, ring-breaking writes."""
    workload = generate_community_workload(
        num_communities=communities, people_per_community=people, seed=seed)
    graph = workload.graph
    knows: Dict[str, Set[str]] = defaultdict(set)
    for triple in graph.triples(None, FOAF.knows, None):
        knows[triple.subject.n3()].add(triple.object.n3())
    valid_nodes = {node.n3() for node in workload.valid_nodes}
    rng = random.Random(seed)
    targets = []
    for person in rng.sample(sorted(workload.valid_nodes),
                             min(NUM_TARGETS, len(workload.valid_nodes))):
        node = person.n3()
        # an undeclared predicate breaks the closed Person shape; everyone
        # who knows the person, directly or along the ring, fails with it.
        affected = sorted(_reverse_reach(knows, node) & valid_nodes)
        targets.append({
            "node": node,
            "add": _nt([Triple(person, EX.nickname, Literal("Zed"))]),
            "remove": "",
            "affected": [[member, "Person"] for member in affected],
        })
    return {"text": serialize_ntriples(graph), "schema": PERSON_SCHEMA_SHEXC,
            "subjects": [node.n3() for node in workload.all_nodes],
            "labels": ["Person"],
            "valid": [(node, "Person") for node in sorted(valid_nodes)],
            "targets": targets, "triples": len(graph)}


def write_inputs(inputs: Dict[str, object], directory: Path) -> Dict[str, int]:
    """Write ``data.nt``, ``schema.shex`` and ``truth.json``; return sizes."""
    directory.mkdir(parents=True, exist_ok=True)
    text = inputs["text"]
    (directory / "data.nt").write_text(text, encoding="utf-8")
    (directory / "schema.shex").write_text(inputs["schema"], encoding="utf-8")
    truth = {key: inputs[key]
             for key in ("subjects", "labels", "valid", "targets")}
    (directory / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return {"triples": inputs["triples"],
            "pairs": len(inputs["subjects"]) * len(inputs["labels"]),
            "ntriples_bytes": len(text.encode("utf-8"))}


class Truth:
    """Expected verdicts, given which target (if any) is currently broken."""

    def __init__(self, data: Dict[str, object]):
        self.subjects: List[str] = data["subjects"]
        self.labels: List[str] = data["labels"]
        self.valid: Set[Pair] = {tuple(pair) for pair in data["valid"]}
        self.targets: List[dict] = data["targets"]
        self._affected = [{tuple(pair) for pair in target["affected"]}
                          for target in self.targets]

    @classmethod
    def load(cls, path: Path) -> "Truth":
        return cls(json.loads(path.read_text(encoding="utf-8")))

    @property
    def pairs(self) -> List[Pair]:
        return [(node, label) for node in self.subjects
                for label in self.labels]

    def expected(self, node: str, label: str,
                 broken: Optional[int] = None) -> bool:
        """Whether ``(node, label)`` conforms while target ``broken`` is broken."""
        if (node, label) not in self.valid:
            return False
        return broken is None or (node, label) not in self._affected[broken]


class WriteSchedule:
    """Alternating break/repair deltas over a seeded order of targets.

    Write ``k`` breaks target ``order[k // 2]`` when ``k`` is even and
    repairs it when ``k`` is odd, so at most one target is broken at a time
    and the graph returns to its generated state after every pair.
    """

    def __init__(self, truth: Truth, seed: int):
        self.truth = truth
        self.order = list(range(len(truth.targets)))
        random.Random(seed).shuffle(self.order)
        self.count = 0

    @property
    def broken(self) -> Optional[int]:
        """The target broken after the writes issued so far, if any."""
        if self.count % 2 == 0:
            return None
        return self.order[(self.count // 2) % len(self.order)]

    def next(self) -> Tuple[str, str, int, Optional[int]]:
        """``(add, remove, target, broken-after)`` for the next write."""
        index = self.order[(self.count // 2) % len(self.order)]
        target = self.truth.targets[index]
        if self.count % 2 == 0:
            add, remove = target["add"], target["remove"]
        else:
            add, remove = target["remove"], target["add"]
        self.count += 1
        return add, remove, index, self.broken
