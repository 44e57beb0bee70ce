"""Unit tests for the Graph container, its indexes and the paper's graph algebra."""

import pytest

from repro.rdf import (
    BNode,
    ColumnarGraph,
    EX,
    FOAF,
    Graph,
    Literal,
    Triple,
    decomposition_count,
    decompositions,
)
from repro.rdf.errors import GraphError
from repro.rdf.graph import NeighbourhoodView


def triple(suffix_s: str, suffix_p: str, obj) -> Triple:
    return Triple(EX[suffix_s], EX[suffix_p], obj if not isinstance(obj, (int, str)) else Literal(obj))


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert len(graph) == 0
        assert not graph
        assert list(graph) == []

    def test_add_and_contains(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        assert t in graph
        assert len(graph) == 1

    def test_add_is_idempotent(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t).add(t)
        assert len(graph) == 1

    def test_add_triple_convenience(self):
        graph = Graph()
        graph.add_triple(EX.s, EX.p, Literal(1))
        assert Triple(EX.s, EX.p, Literal(1)) in graph

    def test_add_rejects_non_triples(self):
        graph = Graph()
        with pytest.raises(GraphError):
            graph.add((EX.s, EX.p, Literal(1)))

    def test_update_from_iterable(self):
        graph = Graph()
        graph.update([triple("s", "p", i) for i in range(5)])
        assert len(graph) == 5

    def test_constructor_accepts_triples(self):
        triples = [triple("s", "p", i) for i in range(3)]
        graph = Graph(triples)
        assert len(graph) == 3

    def test_remove_and_discard(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        graph.remove(t)
        assert t not in graph
        graph.discard(t)  # no error on absent triple
        with pytest.raises(GraphError):
            graph.remove(t)

    def test_remove_updates_indexes(self):
        graph = Graph()
        t = triple("s", "p", 1)
        graph.add(t)
        graph.remove(t)
        assert list(graph.triples(EX.s, None, None)) == []
        assert list(graph.triples(None, EX.p, None)) == []
        assert list(graph.triples(None, None, Literal(1))) == []

    def test_clear(self):
        graph = Graph([triple("s", "p", 1)])
        graph.clear()
        assert len(graph) == 0
        assert list(graph.triples(EX.s, None, None)) == []

    def test_equality_with_graph_and_set(self):
        t = triple("s", "p", 1)
        assert Graph([t]) == Graph([t])
        assert Graph([t]) == {t}

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())

    def test_copy_is_independent(self):
        graph = Graph([triple("s", "p", 1)])
        clone = graph.copy()
        clone.add(triple("s", "p", 2))
        assert len(graph) == 1
        assert len(clone) == 2


class TestBulkAddAll:
    """``Graph.add_all`` updates the indexes in one loop; its bookkeeping must
    match what one ``add`` per triple inside a batch used to leave behind."""

    def test_generation_counts_effective_adds_only(self):
        graph = Graph([triple("a", "p", 1)])
        start = graph.generation
        graph.add_all([triple("a", "p", 1),  # already present
                       triple("a", "p", 2),
                       triple("a", "p", 2),  # duplicate inside the input
                       triple("a", "q", 3),
                       triple("b", "p", 1)])
        assert graph.generation == start + 3
        assert len(graph) == 4

    def test_fully_present_input_changes_nothing(self):
        graph = Graph([triple("a", "p", 1), triple("b", "p", 1)])
        start, records = graph.generation, graph.journal.records
        graph.add_all([triple("b", "p", 1), triple("a", "p", 1)])
        assert graph.generation == start
        assert graph.journal.records == records
        assert graph.changes_since(start) == frozenset()

    def test_journal_records_each_touched_subject_once(self):
        graph = Graph([triple("c", "p", 1)])
        start, records = graph.generation, graph.journal.records
        graph.add_all([triple("a", "p", 1), triple("b", "p", 1),
                       triple("a", "q", 2), triple("a", "p", 3),
                       triple("c", "p", 1)])
        assert graph.journal.records == records + 2
        assert graph.changes_since(start) == {EX.a, EX.b}
        assert graph.changes_since(graph.generation) == frozenset()

    def test_drops_cached_neighbourhoods_of_touched_subjects_only(self):
        graph = Graph([triple(s, "p", 1) for s in "abc"])
        stale = {s: (graph.neighbourhood(EX[s]), graph.neighbourhood_ordered(EX[s]))
                 for s in "ab"}
        kept_set = graph.neighbourhood(EX.c)
        kept_ordered = graph.neighbourhood_ordered(EX.c)
        graph.add_all([triple("b", "p", 2), triple("a", "p", 2)])
        for s, (stale_set, stale_ordered) in stale.items():
            assert graph.neighbourhood(EX[s]) is not stale_set
            assert triple(s, "p", 2) in graph.neighbourhood(EX[s])
            assert len(graph.neighbourhood_ordered(EX[s])) == len(stale_ordered) + 1
        assert graph.neighbourhood(EX.c) is kept_set
        assert graph.neighbourhood_ordered(EX.c) is kept_ordered

    def test_outer_batch_still_defers_journalling(self):
        graph = Graph()
        start, records = graph.generation, graph.journal.records
        with graph.batch():
            graph.add_all([triple("a", "p", 1), triple("b", "p", 1)])
            graph.add_all([triple("a", "p", 2)])
            assert graph.journal.records == records
            assert graph.generation == start + 3
            with pytest.raises(GraphError):
                graph.changes_since(start)
        assert graph.journal.records == records + 2
        assert graph.changes_since(start) == {EX.a, EX.b}

    def test_indexes_match_single_adds(self):
        triples = [triple("a", "p", 1), triple("a", "q", 2), triple("b", "p", 1),
                   Triple(EX.b, EX.p, EX.a), triple("a", "p", 1)]
        bulk = Graph().add_all(triples)
        single = Graph()
        for t in triples:
            single.add(t)
        for pattern in [(EX.a, None, None), (None, EX.p, None),
                        (None, None, Literal(1)), (None, EX.p, EX.a),
                        (EX.b, EX.p, None)]:
            assert set(bulk.triples(*pattern)) == set(single.triples(*pattern))
        assert bulk.generation == single.generation


@pytest.mark.parametrize("store", [Graph, ColumnarGraph])
def test_add_all_is_atomic_on_bad_input(store):
    graph = store([triple("a", "p", 1)])
    start, records = graph.generation, graph.journal.records
    with pytest.raises(GraphError):
        graph.add_all([triple("b", "p", 1), (EX.c, EX.p, Literal(1))])
    assert len(graph) == 1
    assert triple("b", "p", 1) not in graph
    assert graph.generation == start
    assert graph.journal.records == records
    assert graph.changes_since(start) == frozenset()


class TestPatternQueries:
    @pytest.fixture
    def graph(self):
        g = Graph()
        g.add(Triple(EX.john, FOAF.age, Literal(23)))
        g.add(Triple(EX.john, FOAF.name, Literal("John")))
        g.add(Triple(EX.john, FOAF.knows, EX.bob))
        g.add(Triple(EX.bob, FOAF.age, Literal(34)))
        g.add(Triple(EX.bob, FOAF.name, Literal("Bob")))
        return g

    def test_fully_bound_pattern(self, graph):
        assert len(list(graph.triples(EX.john, FOAF.age, Literal(23)))) == 1
        assert len(list(graph.triples(EX.john, FOAF.age, Literal(99)))) == 0

    def test_subject_only(self, graph):
        assert len(list(graph.triples(EX.john, None, None))) == 3

    def test_subject_predicate(self, graph):
        assert len(list(graph.triples(EX.john, FOAF.name, None))) == 1

    def test_predicate_only(self, graph):
        assert len(list(graph.triples(None, FOAF.age, None))) == 2

    def test_predicate_object(self, graph):
        matches = list(graph.triples(None, FOAF.age, Literal(34)))
        assert matches == [Triple(EX.bob, FOAF.age, Literal(34))]

    def test_object_only(self, graph):
        matches = list(graph.triples(None, None, EX.bob))
        assert matches == [Triple(EX.john, FOAF.knows, EX.bob)]

    def test_wildcard_everything(self, graph):
        assert len(list(graph.triples())) == 5

    def test_unknown_subject_is_empty(self, graph):
        assert list(graph.triples(EX.nobody, None, None)) == []

    def test_subjects_predicates_objects(self, graph):
        assert set(graph.subjects(FOAF.age)) == {EX.john, EX.bob}
        assert set(graph.predicates(EX.john)) == {FOAF.age, FOAF.name, FOAF.knows}
        assert set(graph.objects(EX.john, FOAF.knows)) == {EX.bob}

    def test_value_returns_one_or_none(self, graph):
        assert graph.value(EX.john, FOAF.age) == Literal(23)
        assert graph.value(EX.john, FOAF.homepage) is None

    def test_nodes_are_subjects(self, graph):
        assert set(graph.nodes()) == {EX.john, EX.bob}

    def test_all_nodes_include_objects(self, graph):
        assert Literal("Bob") in set(graph.all_nodes())

    def test_degree(self, graph):
        assert graph.degree(EX.john) == 3
        assert graph.degree(EX.nobody) == 0


class TestPaperAlgebra:
    def test_union_preserves_blank_node_identity(self):
        shared = BNode("shared")
        g1 = Graph([Triple(shared, EX.p, Literal(1))])
        g2 = Graph([Triple(shared, EX.q, Literal(2))])
        union = g1 | g2
        assert len(union) == 2
        assert len(set(union.nodes())) == 1  # same blank node, not renamed

    def test_union_does_not_mutate_operands(self):
        g1 = Graph([triple("s", "p", 1)])
        g2 = Graph([triple("s", "p", 2)])
        _ = g1 + g2
        assert len(g1) == 1
        assert len(g2) == 1

    def test_union_merges_namespaces(self):
        g1 = Graph()
        g2 = Graph()
        g2.namespaces.bind("custom", "http://custom.example/")
        union = g1.union(g2)
        assert "custom" in union.namespaces

    def test_neighbourhood_is_sigma_g_n(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        graph.add(Triple(EX.n, EX.b, Literal(1)))
        graph.add(Triple(EX.other, EX.a, Literal(1)))
        graph.add(Triple(EX.x, EX.points_to, EX.n))  # incoming arc is not part of Σgₙ
        neighbourhood = graph.neighbourhood(EX.n)
        assert neighbourhood == {
            Triple(EX.n, EX.a, Literal(1)),
            Triple(EX.n, EX.b, Literal(1)),
        }

    def test_neighbourhood_of_unknown_node_is_empty(self):
        assert Graph().neighbourhood(EX.nobody) == frozenset()

    def test_example_3_decomposition(self):
        """Example 3: a 3-triple graph has exactly 2³ = 8 decompositions."""
        triples = frozenset({
            Triple(EX.n, EX.a, Literal(1)),
            Triple(EX.n, EX.b, Literal(1)),
            Triple(EX.n, EX.b, Literal(2)),
        })
        pairs = list(decompositions(triples))
        assert len(pairs) == 8
        assert decomposition_count(triples) == 8
        # every pair unions back to the original graph
        for left, right in pairs:
            assert left | right == triples
            assert left & right == frozenset()
        # both trivial splits are present
        assert (frozenset(), triples) in pairs
        assert (triples, frozenset()) in pairs

    def test_decompositions_of_empty_graph(self):
        assert list(decompositions(frozenset())) == [(frozenset(), frozenset())]

    def test_decomposition_count_grows_exponentially(self):
        triples = frozenset(triple("n", "p", i) for i in range(10))
        assert decomposition_count(triples) == 1024


class TestNeighbourhoodView:
    def test_grouping_by_predicate(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        graph.add(Triple(EX.n, EX.b, Literal(1)))
        graph.add(Triple(EX.n, EX.b, Literal(2)))
        view = graph.neighbourhood_view(EX.n)
        assert len(view) == 3
        assert view.predicates() == [EX.a, EX.b]
        assert len(view.by_predicate(EX.b)) == 2
        assert view.by_predicate(EX.missing) == ()

    def test_sorted_iteration_is_deterministic(self):
        graph = Graph()
        graph.add(Triple(EX.n, EX.b, Literal(2)))
        graph.add(Triple(EX.n, EX.a, Literal(1)))
        view = graph.neighbourhood_view(EX.n)
        assert [t.predicate for t in view] == [EX.a, EX.b]

    def test_rejects_foreign_triples(self):
        with pytest.raises(GraphError):
            NeighbourhoodView(EX.n, frozenset({Triple(EX.other, EX.a, Literal(1))}))


class TestSerialisationDispatch:
    def test_turtle_round_trip(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada"))])
        text = graph.serialize("turtle")
        assert Graph.parse(text, format="turtle") == graph

    def test_ntriples_round_trip(self):
        graph = Graph([Triple(EX.s, FOAF.name, Literal("Ada"))])
        text = graph.serialize("ntriples")
        assert Graph.parse(text, format="ntriples") == graph

    def test_unknown_format_raises(self):
        with pytest.raises(GraphError):
            Graph().serialize("rdfxml")
        with pytest.raises(GraphError):
            Graph.parse("", format="rdfxml")
