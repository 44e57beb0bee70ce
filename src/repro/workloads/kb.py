"""Hub-heavy knowledge-base workload: the signature-dedupe stress test.

YAGO-style knowledge bases pair a handful of *hub* resources (categories,
countries, portals) with very many *entity* resources that are structural
clones of each other: different literal values, identical neighbourhood
shape.  This module generates that profile with known ground truth so the
hot-path benchmark can measure the neighbourhood-signature verdict dedupe
(:class:`repro.shex.cache.SignatureCache`) under realistic conditions:

* ``<Entity>`` is reference-free but **facet-heavy** — every constraint
  carries a facet (``MINLENGTH``, ``MININCLUSIVE``, ``PATTERN``), which the
  compiled value screen refuses to evaluate, so the prefilter returns
  *unknown* and every entity reaches the derivative engine.  Entities are
  drawn from a small pool of structural templates, so thousands of nodes
  collapse onto a few dozen signatures and the cache converts all but the
  first engine run per template into a dictionary hit.
* ``<Hub>`` references ``@<Entity>`` with power-law out-degree.  Because
  conforming entities are not statically decidable, hub nodes are
  signature-*open* and always take the engine path — the workload therefore
  exercises the mixed eligible/open pipeline, not just the happy path.
* ``ex:seeAlso`` arcs target empty-neighbourhood IRIs against the nullable,
  fully screenable ``<Note>`` shape, keeping a statically decidable
  reference in the mix.
* Hubs only point downstream at entities, so reference chains are one hop
  deep: the traffic the serial lane loop serves best, and the shape of
  KB data the ``kb-bulk`` benchmark workload measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..rdf.graph import Graph
from ..rdf.namespaces import EX
from ..rdf.terms import IRI, Literal, Triple
from ..shex.schema import Schema
from ..shex.shexc import parse_shexc

__all__ = [
    "KB_SCHEMA_SHEXC",
    "KBWorkload",
    "kb_schema",
    "generate_kb_workload",
]

#: the knowledge-base schema: facet-heavy entities, referencing hubs,
#: and a nullable note shape for statically decidable reference targets.
KB_SCHEMA_SHEXC = """\
PREFIX ex:  <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>

<Entity> {
  ex:label      xsd:string MINLENGTH 3 + ,
  ex:population xsd:integer MININCLUSIVE 0 ,
  ex:code       xsd:string PATTERN "^[A-Z]{2,4}$" ,
  ex:founded    xsd:integer MININCLUSIVE 1 MAXINCLUSIVE 2100 ? ,
  ex:motto      xsd:string MINLENGTH 1 * ,
  ex:alias      xsd:string MINLENGTH 1 * ,
  ex:tag        xsd:string PATTERN "^[a-z][a-z0-9-]*$" *
}

<Hub> {
  ex:label   xsd:string MINLENGTH 3 ,
  ex:links   @<Entity> + ,
  ex:seeAlso @<Note> *
}

<Note> {
  ex:note xsd:string *
}
"""


def kb_schema() -> Schema:
    """Return the parsed knowledge-base schema."""
    return parse_shexc(KB_SCHEMA_SHEXC)


#: structural templates: (label, founded, motto, alias, tag) arc counts.
#: Literal values vary per entity but are drawn from small pools (real KBs
#: reuse codes, years and category tags heavily), and every valid value
#: passes its facet, so all entities stamped from one template share a
#: neighbourhood signature — and the derivative/verdict memo tables stay
#: warm across entities in both the cached and the uncached arms.
_ENTITY_TEMPLATES = [(labels, founded, mottos, 2 + 2 * ((labels + mottos) % 3),
                      4 + 4 * ((labels + founded) % 2))
                     for labels in (1, 2, 3)
                     for founded in (0, 1)
                     for mottos in (0, 1, 2)]

_WORDS = ["Aurora", "Borealis", "Cascade", "Delta", "Equinox", "Fjord",
          "Granite", "Harbor", "Isthmus", "Juniper", "Keystone", "Lagoon",
          "Meridian", "Nimbus", "Obsidian", "Plateau"]

_TAGS = ["ancient", "capital", "coastal", "disputed", "endemic", "federal",
         "historic", "island", "landlocked", "medieval", "modern",
         "northern", "port-city", "southern", "tropical", "unesco"]

#: local violations of the Entity shape, cycled deterministically.
_ENTITY_VIOLATIONS = ["short_label", "negative_population", "bad_code",
                      "missing_code", "extra_predicate"]


@dataclass
class KBWorkload:
    """A generated knowledge-base graph together with its ground truth."""

    graph: Graph
    schema: Schema
    #: entity nodes that must conform to ``<Entity>``.
    valid_entities: List[IRI] = field(default_factory=list)
    #: entity nodes that must not conform, with the reason they were broken.
    invalid_entities: Dict[IRI, str] = field(default_factory=dict)
    #: hub nodes that must conform to ``<Hub>``.
    valid_hubs: List[IRI] = field(default_factory=list)
    #: hub nodes that must not conform, with the reason.
    invalid_hubs: Dict[IRI, str] = field(default_factory=dict)

    @property
    def entities(self) -> List[IRI]:
        """Every entity node, valid and invalid, in name order."""
        return sorted(set(self.valid_entities) | set(self.invalid_entities),
                      key=lambda term: term.value)

    @property
    def hubs(self) -> List[IRI]:
        """Every hub node, valid and invalid, in name order."""
        return sorted(set(self.valid_hubs) | set(self.invalid_hubs),
                      key=lambda term: term.value)


class _ValuePools:
    """Small per-workload value pools: Zipf-style literal reuse across entities."""

    def __init__(self, rng: random.Random) -> None:
        self.labels = [f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
                       for _ in range(48)]
        self.populations = [rng.randint(0, 10_000_000) for _ in range(64)]
        self.codes = ["".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
                              for _ in range(rng.randint(2, 4)))
                      for _ in range(24)]
        self.years = [rng.randint(800, 2026) for _ in range(32)]
        self.mottos = [f"{rng.choice(_WORDS)} forever {index}"
                       for index in range(24)]
        self.aliases = [f"{rng.choice(_WORDS)}-{rng.choice(_TAGS)}"
                        for _ in range(32)]


def _emit_entity(graph: Graph, rng: random.Random, pools: _ValuePools,
                 entity: IRI, template: tuple, violation: Optional[str]) -> None:
    """Emit one entity's triples from ``template`` (plus any violation)."""
    labels, founded, mottos, aliases, tags = template
    # multi-valued arcs sample *distinct* pool values: a repeated literal
    # would collapse in the set-based store and change the arc count the
    # template promises (and with it the neighbourhood signature).
    for index, value in enumerate(rng.sample(pools.labels, labels)):
        if violation == "short_label" and index == 0:
            graph.add(Triple(entity, EX.label, Literal("Ab")))
        else:
            graph.add(Triple(entity, EX.label, Literal(value)))
    population = rng.choice(pools.populations)
    if violation == "negative_population":
        population = -1 - population
    graph.add(Triple(entity, EX.population, Literal(population)))
    if violation == "bad_code":
        graph.add(Triple(entity, EX.code, Literal("x9")))
    elif violation != "missing_code":
        graph.add(Triple(entity, EX.code, Literal(rng.choice(pools.codes))))
    if founded:
        graph.add(Triple(entity, EX.founded, Literal(rng.choice(pools.years))))
    for value in rng.sample(pools.mottos, mottos):
        graph.add(Triple(entity, EX.motto, Literal(value)))
    for value in rng.sample(pools.aliases, aliases):
        graph.add(Triple(entity, EX.alias, Literal(value)))
    for value in rng.sample(_TAGS, tags):
        graph.add(Triple(entity, EX.tag, Literal(value)))
    if violation == "extra_predicate":
        graph.add(Triple(entity, EX.undeclared, Literal("surprise")))


def generate_kb_workload(
    num_entities: int = 400,
    num_hubs: int = 8,
    invalid_fraction: float = 0.15,
    hub_invalid_fraction: float = 0.25,
    notes_per_hub: int = 3,
    seed: int = 0,
) -> KBWorkload:
    """Generate a hub-heavy KB graph with a known share of violations.

    Entity violations stay local (a facet breach, a missing or undeclared
    predicate); hub violations are either an undeclared predicate or a link
    to a non-conforming entity, which the closed ``<Hub>`` shape cannot
    absorb.  Hub out-degrees follow a power law: hub *i* links to roughly
    ``num_entities / (i + 1)`` entities, so the first hubs dominate the
    reference load the way category hubs do in real knowledge bases.
    """
    if not 0 <= invalid_fraction <= 1:
        raise ValueError("invalid_fraction must be between 0 and 1")
    if not 0 <= hub_invalid_fraction <= 1:
        raise ValueError("hub_invalid_fraction must be between 0 and 1")
    if num_entities < 1 or num_hubs < 0:
        raise ValueError("need at least one entity and a non-negative hub count")
    rng = random.Random(seed)
    pools = _ValuePools(rng)
    graph = Graph()
    graph.namespaces.bind("", EX.base)
    workload = KBWorkload(graph=graph, schema=kb_schema())

    num_invalid = round(num_entities * invalid_fraction)
    invalid_indices = (set(rng.sample(range(num_entities), num_invalid))
                       if num_invalid else set())
    with graph.batch():
        for index in range(num_entities):
            entity = EX[f"entity{index}"]
            template = _ENTITY_TEMPLATES[index % len(_ENTITY_TEMPLATES)]
            violation: Optional[str] = None
            if index in invalid_indices:
                violation = _ENTITY_VIOLATIONS[index % len(_ENTITY_VIOLATIONS)]
            _emit_entity(graph, rng, pools, entity, template, violation)
            if violation is None:
                workload.valid_entities.append(entity)
            else:
                workload.invalid_entities[entity] = violation

        valid = workload.valid_entities
        num_bad_hubs = round(num_hubs * hub_invalid_fraction)
        bad_hub_indices = (set(rng.sample(range(num_hubs), num_bad_hubs))
                           if num_bad_hubs else set())
        note_counter = 0
        for index in range(num_hubs):
            hub = EX[f"hub{index}"]
            graph.add(Triple(hub, EX.label, Literal(f"Hub {_WORDS[index % len(_WORDS)]}")))
            # truncated power law: hub i wants ~num_entities/(i+1) links but
            # tops out at 40.  Every consumed reference arc grows the And
            # derivative's alternative set, so an uncapped category hub costs
            # quadratic engine time and would swamp both benchmark arms with
            # work the signature cache (soundly) refuses to dedupe.
            degree = max(3, min(len(valid), 40, num_entities // (index + 1)))
            targets = rng.sample(valid, min(degree, len(valid)))
            violation = None
            if index in bad_hub_indices:
                if index % 2 and workload.invalid_entities:
                    violation = "links_invalid_entity"
                    targets[0] = sorted(workload.invalid_entities,
                                        key=lambda term: term.value)[index % len(workload.invalid_entities)]
                else:
                    violation = "extra_predicate"
                    graph.add(Triple(hub, EX.undeclared, Literal("surprise")))
            for target in targets:
                graph.add(Triple(hub, EX.links, target))
            # empty-neighbourhood IRIs conform to the nullable <Note> shape,
            # and the prefilter decides them without engine help.
            for _ in range(notes_per_hub):
                graph.add(Triple(hub, EX.seeAlso, EX[f"note{note_counter}"]))
                note_counter += 1
            if violation is None:
                workload.valid_hubs.append(hub)
            else:
                workload.invalid_hubs[hub] = violation
    return workload
