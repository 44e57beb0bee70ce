"""FOAF person workloads: the paper's running example, at configurable scale.

The generators in this module produce graphs shaped like Example 2 of the
paper (people with ``foaf:age``, ``foaf:name`` and ``foaf:knows`` arcs) plus
controlled violations, so tests know exactly which nodes must conform and
benchmarks can grow the data without changing its structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.namespaces import EX, FOAF, XSD
from ..rdf.terms import IRI, Literal, Triple
from ..shex.schema import Schema
from ..shex.shexc import parse_shexc

__all__ = [
    "PAPER_EXAMPLE_TURTLE",
    "PERSON_SCHEMA_SHEXC",
    "paper_example_graph",
    "person_schema",
    "PersonWorkload",
    "generate_person_workload",
    "generate_community_workload",
    "knows_chain_graph",
    "knows_cycle_graph",
    "knows_tree_graph",
]

#: the exact data of Example 2, in Turtle.
PAPER_EXAMPLE_TURTLE = """\
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
@prefix :     <http://example.org/> .

:john foaf:age 23 ;
      foaf:name "John" ;
      foaf:knows :bob .
:bob  foaf:age 34 ;
      foaf:name "Bob", "Robert" .
:mary foaf:age 50, 65 .
"""

#: the Person schema of Example 1, in ShExC.
PERSON_SCHEMA_SHEXC = """\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>

<Person> {
  foaf:age   xsd:integer ,
  foaf:name  xsd:string + ,
  foaf:knows @<Person> *
}
"""


def paper_example_graph() -> Graph:
    """Return the graph of Example 2 (``:john``, ``:bob``, ``:mary``)."""
    return Graph.parse(PAPER_EXAMPLE_TURTLE)


def person_schema() -> Schema:
    """Return the Person schema of Example 1."""
    return parse_shexc(PERSON_SCHEMA_SHEXC)


_FIRST_NAMES = [
    "Alice", "Bob", "Carol", "Dave", "Eve", "Frank", "Grace", "Heidi",
    "Ivan", "Judy", "Mallory", "Niaj", "Olivia", "Peggy", "Rupert", "Sybil",
    "Trent", "Victor", "Walter", "Yolanda",
]


@dataclass
class PersonWorkload:
    """A generated person graph together with its ground truth."""

    graph: Graph
    schema: Schema
    #: nodes that must conform to the Person shape.
    valid_nodes: List[IRI] = field(default_factory=list)
    #: nodes that must not conform, with the reason they were broken.
    invalid_nodes: Dict[IRI, str] = field(default_factory=dict)

    @property
    def all_nodes(self) -> List[IRI]:
        """Every generated person node (valid and invalid)."""
        return sorted(set(self.valid_nodes) | set(self.invalid_nodes),
                      key=lambda term: term.value)


def generate_person_workload(
    num_people: int = 50,
    invalid_fraction: float = 0.2,
    knows_probability: float = 0.3,
    max_extra_names: int = 2,
    seed: int = 0,
) -> PersonWorkload:
    """Generate a person graph with a known share of violating nodes.

    Violations are drawn from the failure modes the paper's Person shape can
    exhibit: duplicate ``foaf:age`` arcs (Example 2's ``:mary``), a missing
    ``foaf:name``, a non-integer age, an undeclared predicate (closed-shape
    violation) or a ``foaf:knows`` arc pointing at a literal.
    """
    if not 0 <= invalid_fraction <= 1:
        raise ValueError("invalid_fraction must be between 0 and 1")
    rng = random.Random(seed)
    graph = Graph()
    graph.namespaces.bind("", EX.base)
    graph.namespaces.bind("foaf", FOAF.base)
    people = [EX[f"person{i}"] for i in range(num_people)]
    num_invalid = round(num_people * invalid_fraction)
    invalid_indices = set(rng.sample(range(num_people), num_invalid)) if num_invalid else set()

    workload = PersonWorkload(graph=graph, schema=person_schema())
    # the violation applied to the node that breaks transitively-referenced
    # people must not be "knows a bad person": references only require the
    # *referenced* node to conform, so violations are local by construction.
    violations = ["duplicate_age", "missing_name", "bad_age_type",
                  "extra_predicate", "knows_literal"]

    # one batch for the whole build: journal churn coalesces into one
    # record per subject instead of one per triple.
    with graph.batch():
        for index, person in enumerate(people):
            age = rng.randint(18, 90)
            names = 1 + rng.randint(0, max_extra_names)
            violation: Optional[str] = None
            if index in invalid_indices:
                violation = violations[index % len(violations)]

            if violation == "bad_age_type":
                graph.add(Triple(person, FOAF.age, Literal(str(age), datatype=XSD.string)))
            else:
                graph.add(Triple(person, FOAF.age, Literal(age)))
                if violation == "duplicate_age":
                    graph.add(Triple(person, FOAF.age, Literal(age + 1)))

            if violation != "missing_name":
                for name_index in range(names):
                    name = f"{rng.choice(_FIRST_NAMES)} {chr(65 + name_index)}."
                    graph.add(Triple(person, FOAF.name, Literal(name)))

            if violation == "extra_predicate":
                graph.add(Triple(person, EX.nickname, Literal("Zed")))
            if violation == "knows_literal":
                graph.add(Triple(person, FOAF.knows, Literal("not a person")))

            if violation is None:
                workload.valid_nodes.append(person)
            else:
                workload.invalid_nodes[person] = violation

        # sprinkle foaf:knows arcs between *valid* people so that references
        # do not accidentally invalidate otherwise-valid nodes.
        valid = workload.valid_nodes
        for person in valid:
            for other in valid:
                if other is not person and rng.random() < knows_probability:
                    graph.add(Triple(person, FOAF.knows, other))
    return workload


#: the violation kinds shared by the workload generators (see
#: :func:`generate_person_workload` for what each one breaks).
_VIOLATIONS = ["duplicate_age", "missing_name", "bad_age_type",
               "extra_predicate", "knows_literal"]


def _emit_person(graph: Graph, rng: random.Random, person: IRI,
                 violation: Optional[str], max_extra_names: int) -> None:
    """Emit one person's age/name triples (and any local violation)."""
    age = rng.randint(18, 90)
    names = 1 + rng.randint(0, max_extra_names)
    if violation == "bad_age_type":
        graph.add(Triple(person, FOAF.age, Literal(str(age), datatype=XSD.string)))
    else:
        graph.add(Triple(person, FOAF.age, Literal(age)))
        if violation == "duplicate_age":
            graph.add(Triple(person, FOAF.age, Literal(age + 1)))
    if violation != "missing_name":
        for name_index in range(names):
            name = f"{rng.choice(_FIRST_NAMES)} {chr(65 + name_index)}."
            graph.add(Triple(person, FOAF.name, Literal(name)))
    if violation == "extra_predicate":
        graph.add(Triple(person, EX.nickname, Literal("Zed")))
    if violation == "knows_literal":
        graph.add(Triple(person, FOAF.knows, Literal("not a person")))


def generate_community_workload(
    num_communities: int = 16,
    people_per_community: int = 12,
    invalid_fraction: float = 0.2,
    knows_chords: int = 2,
    max_extra_names: int = 2,
    seed: int = 0,
) -> PersonWorkload:
    """Many independent communities: the multi-component scaling workload.

    ``foaf:knows`` arcs never cross community boundaries, so the node
    reference graph decomposes into one strongly-connected component per
    community (the valid members form a ring with ``knows_chords`` extra
    intra-ring edges each) plus upstream singletons (invalid members point
    *into* their ring but nothing points back at them).  Many independent
    recursive rings make it the reference-settlement stress test for the
    serial and sharded bulk paths alike.  Ground truth stays local by
    construction, exactly as in :func:`generate_person_workload`.
    """
    if not 0 <= invalid_fraction <= 1:
        raise ValueError("invalid_fraction must be between 0 and 1")
    if num_communities < 1 or people_per_community < 1:
        raise ValueError("need at least one community with at least one person")
    rng = random.Random(seed)
    graph = Graph()
    graph.namespaces.bind("", EX.base)
    graph.namespaces.bind("foaf", FOAF.base)
    workload = PersonWorkload(graph=graph, schema=person_schema())

    with graph.batch():
        for community in range(num_communities):
            members = [EX[f"community{community}_person{index}"]
                       for index in range(people_per_community)]
            num_invalid = round(people_per_community * invalid_fraction)
            invalid_indices = (set(rng.sample(range(people_per_community), num_invalid))
                               if num_invalid else set())
            valid_members = []
            for index, person in enumerate(members):
                violation: Optional[str] = None
                if index in invalid_indices:
                    violation = _VIOLATIONS[(community + index) % len(_VIOLATIONS)]
                _emit_person(graph, rng, person, violation, max_extra_names)
                if violation is None:
                    valid_members.append(person)
                    workload.valid_nodes.append(person)
                else:
                    workload.invalid_nodes[person] = violation
            # the ring ties the community's valid members into one SCC …
            if len(valid_members) > 1:
                for index, person in enumerate(valid_members):
                    follower = valid_members[(index + 1) % len(valid_members)]
                    graph.add(Triple(person, FOAF.knows, follower))
                # … and the chords thicken it without leaving the community.
                for person in valid_members:
                    for _ in range(knows_chords):
                        other = rng.choice(valid_members)
                        if other is not person:
                            graph.add(Triple(person, FOAF.knows, other))
            # invalid members reference the ring: upstream singleton components.
            if valid_members:
                for person in members:
                    if person in workload.invalid_nodes \
                            and workload.invalid_nodes[person] != "knows_literal":
                        graph.add(Triple(person, FOAF.knows, valid_members[0]))
    return workload


def knows_chain_graph(depth: int) -> Tuple[Graph, IRI]:
    """A chain ``p0 knows p1 knows … knows p_depth`` of valid people.

    Returns the graph and the head of the chain; validating the head forces
    the engines to recurse through the whole chain (benchmark B5).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    graph = Graph()
    people = [EX[f"chain{i}"] for i in range(depth + 1)]
    with graph.batch():
        for index, person in enumerate(people):
            graph.add(Triple(person, FOAF.age, Literal(20 + index)))
            graph.add(Triple(person, FOAF.name, Literal(f"Person {index}")))
            if index + 1 < len(people):
                graph.add(Triple(person, FOAF.knows, people[index + 1]))
    return graph, people[0]


def knows_cycle_graph(length: int) -> Tuple[Graph, IRI]:
    """A cycle of ``length`` valid people, each knowing the next.

    Exercises the coinductive handling of recursive schemas: every node on
    the cycle conforms, and naive recursion would not terminate.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    graph = Graph()
    people = [EX[f"cycle{i}"] for i in range(length)]
    with graph.batch():
        for index, person in enumerate(people):
            graph.add(Triple(person, FOAF.age, Literal(30 + index)))
            graph.add(Triple(person, FOAF.name, Literal(f"Cycle {index}")))
            graph.add(Triple(person, FOAF.knows, people[(index + 1) % length]))
    return graph, people[0]


def knows_tree_graph(depth: int, fanout: int = 2) -> Tuple[Graph, IRI]:
    """A complete ``fanout``-ary tree of valid people of the given depth."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    graph = Graph()
    counter = 0

    def build(level: int) -> IRI:
        nonlocal counter
        node = EX[f"tree{counter}"]
        counter += 1
        graph.add(Triple(node, FOAF.age, Literal(20 + level)))
        graph.add(Triple(node, FOAF.name, Literal(f"Node level {level}")))
        if level < depth:
            for _ in range(fanout):
                child = build(level + 1)
                graph.add(Triple(node, FOAF.knows, child))
        return node

    with graph.batch():
        root = build(0)
    return graph, root
