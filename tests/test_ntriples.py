"""Unit tests for the N-Triples parser and serialiser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import BNode, EX, Graph, IRI, Literal, Triple, XSD
from repro.rdf import ntriples
from repro.rdf.errors import ParseError
from repro.rdf.ntriples import (
    escape_string,
    iter_ntriples,
    parse_ntriples,
    serialize_ntriples,
    unescape_string,
)


class TestEscaping:
    def test_round_trip_simple(self):
        assert unescape_string(escape_string('say "hi"\n')) == 'say "hi"\n'

    def test_unicode_escapes(self):
        assert unescape_string("caf\\u00e9") == "café"
        assert unescape_string("\\U0001F600") == "😀"

    def test_invalid_escape_raises(self):
        with pytest.raises(ParseError):
            unescape_string("\\q")
        with pytest.raises(ParseError):
            unescape_string("dangling\\")

    def test_tab_and_backslash(self):
        assert escape_string("a\tb\\c") == "a\\tb\\\\c"

    def test_escape_free_input_is_returned_unchanged(self):
        value = "no escapes here"
        assert unescape_string(value) is value

    def test_literal_n3_uses_the_same_escaper(self):
        lexical = 'back\\slash "quoted"\nnew\rret\ttab'
        assert Literal(lexical).n3() == f'"{escape_string(lexical)}"'
        assert escape_string(lexical) == (
            'back\\\\slash \\"quoted\\"\\nnew\\rret\\ttab')


class TestParsing:
    def test_simple_triple(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> "hello" .\n'
        )
        assert Triple(EX.s, EX.p, Literal("hello")) in graph

    def test_iri_object(self):
        graph = parse_ntriples("<http://example.org/s> <http://example.org/p> <http://example.org/o> .")
        assert Triple(EX.s, EX.p, EX.o) in graph

    def test_blank_nodes(self):
        graph = parse_ntriples("_:a <http://example.org/p> _:b .")
        triple = next(iter(graph))
        assert triple.subject == BNode("a")
        assert triple.object == BNode("b")

    def test_typed_literal(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> '
            '"42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        triple = next(iter(graph))
        assert triple.object == Literal("42", datatype=XSD.integer)

    def test_language_tagged_literal(self):
        graph = parse_ntriples('<http://example.org/s> <http://example.org/p> "chat"@fr .')
        assert next(iter(graph)).object == Literal("chat", lang="fr")

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # a comment
        <http://example.org/s> <http://example.org/p> "x" .

        # another
        """
        assert len(parse_ntriples(text)) == 1

    def test_escaped_literal_content(self):
        graph = parse_ntriples(
            '<http://example.org/s> <http://example.org/p> "line1\\nline2\\t\\"q\\"" .'
        )
        assert next(iter(graph)).object.lexical == 'line1\nline2\t"q"'

    def test_trailing_comment_after_dot(self):
        graph = parse_ntriples('<http://example.org/s> <http://example.org/p> "x" . # trailing')
        assert len(graph) == 1

    def test_missing_dot_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://example.org/s> <http://example.org/p> "x"')

    def test_literal_subject_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('"literal" <http://example.org/p> "x" .')

    def test_bnode_predicate_raises(self):
        with pytest.raises(ParseError):
            parse_ntriples('<http://example.org/s> _:p "x" .')

    def test_error_reports_line_number(self):
        text = '<http://example.org/s> <http://example.org/p> "ok" .\nbroken line .'
        with pytest.raises(ParseError) as info:
            parse_ntriples(text)
        assert info.value.line == 2

    def test_iter_ntriples_is_lazy(self):
        text = '<http://example.org/s> <http://example.org/p> "x" .\n' * 3
        iterator = iter_ntriples(text)
        assert next(iterator).object == Literal("x")


class TestSerialisation:
    def test_round_trip(self):
        graph = Graph([
            Triple(EX.s, EX.p, Literal("hello\nworld")),
            Triple(EX.s, EX.p, Literal(42)),
            Triple(EX.s, EX.q, Literal("chat", lang="fr")),
            Triple(BNode("b1"), EX.p, EX.o),
        ])
        text = serialize_ntriples(graph)
        assert parse_ntriples(text) == graph

    def test_output_is_sorted_and_terminated(self):
        graph = Graph([
            Triple(EX.b, EX.p, Literal(1)),
            Triple(EX.a, EX.p, Literal(1)),
        ])
        lines = serialize_ntriples(graph).strip().splitlines()
        assert lines[0].startswith("<http://example.org/a>")
        assert all(line.endswith(" .") for line in lines)

    def test_empty_graph_serialises_to_empty_string(self):
        assert serialize_ntriples(Graph()) == ""

    def test_plain_string_has_no_datatype_suffix(self):
        graph = Graph([Triple(EX.s, EX.p, Literal("plain"))])
        assert "^^" not in serialize_ntriples(graph)


# ---------------------------------------------------------- memoised tokeniser
def reference_parse(text):
    """The term-by-term parse: every token through the validating ``_parse_*``
    path and every triple through the checking :class:`Triple` constructor."""
    triples = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        subject, pos = ntriples._parse_subject(raw_line, 0, lineno)
        predicate, pos = ntriples._parse_predicate(raw_line, pos, lineno)
        obj, pos = ntriples._parse_object(raw_line, pos, lineno)
        if not ntriples._END_RE.match(raw_line, pos):
            raise ParseError("expected '.' at end of triple", lineno, pos)
        triples.append(Triple(subject, predicate, obj))
    return triples


def outcome(parse, text):
    """The triples ``parse`` yields for ``text``, or the error it raises."""
    try:
        triples = list(parse(text))
    except (ParseError, ValueError) as error:
        return ("raised", type(error), str(error),
                getattr(error, "line", None), getattr(error, "column", None))
    return ("parsed", [repr(triple) for triple in triples])


IRI_TOKENS = ["<http://example.org/a>", "<http://example.org/b>",
              "<http://example.org/caf\u00E9>", "<urn:x:1>"]
#: the IRIREF pattern admits no backslash, so these fail to tokenise
ESCAPED_IRI_TOKENS = ["<http://example.org/caf\\u00E9>",
                      "<http://example.org/a\\u0020b>", '<http://example.org/q\\">']
BNODE_TOKENS = ["_:b1", "_:node.x", "_:z9"]
LEXICALS = ['"plain"', '"say \\"hi\\""', '"caf\\u00E9"', '"smile \\U0001F600"',
            '"line\\nbreak\\ttab"', '"back\\\\slash"', '""']
LITERAL_TOKENS = LEXICALS + [
    lexical + suffix
    for lexical in LEXICALS[:3]
    for suffix in ("@en", "@EN-us", "@fr-CA",
                   "^^<http://www.w3.org/2001/XMLSchema#integer>",
                   "^^<http://example.org/dt>")
]
SEPARATORS = [" ", "  ", "\t"]
ENDINGS = [" .", ".", " . # comment", "  .  "]


@st.composite
def ntriples_lines(draw):
    """One well-formed line over small token pools, so tokens repeat."""
    subject = draw(st.sampled_from(IRI_TOKENS + BNODE_TOKENS))
    predicate = draw(st.sampled_from(IRI_TOKENS))
    obj = draw(st.sampled_from(IRI_TOKENS + BNODE_TOKENS + LITERAL_TOKENS))
    sep = draw(st.sampled_from(SEPARATORS))
    return f"{subject}{sep}{predicate}{sep}{obj}{draw(st.sampled_from(ENDINGS))}"


@st.composite
def malformed_lines(draw):
    """A line that must raise: pool tokens in a wrong arrangement, a bad
    literal escape, or an escaped IRI in any position."""
    subject = draw(st.sampled_from(IRI_TOKENS + BNODE_TOKENS))
    predicate = draw(st.sampled_from(IRI_TOKENS))
    literal = draw(st.sampled_from(LITERAL_TOKENS))
    escaped = draw(st.sampled_from(ESCAPED_IRI_TOKENS))
    return draw(st.sampled_from([
        f"{literal} {predicate} {subject} .",
        f"{subject} {literal} {predicate} .",
        f"{subject} {predicate} {literal}",
        f"{subject} {predicate} {literal} . trailing",
        f'{subject} {predicate} "bad \\q escape" .',
        f"{escaped} {predicate} {literal} .",
        f"{subject} {escaped} {literal} .",
        f"{subject} {predicate} {escaped} .",
    ]))


@st.composite
def ntriples_documents(draw):
    """Documents of well-formed, comment and blank lines; half of them carry
    one malformed line somewhere (usually after its tokens were seen)."""
    lines = draw(st.lists(st.one_of(ntriples_lines(), ntriples_lines(),
                                    st.just("# a comment <urn:x:1>"),
                                    st.just("   ")),
                          max_size=12))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        lines.insert(at, draw(malformed_lines()))
    return "\n".join(lines)


class TestMemoisedTokeniser:
    @settings(max_examples=300, deadline=None)
    @given(text=ntriples_documents())
    def test_memoised_parse_equals_the_reference_parse(self, text):
        assert outcome(iter_ntriples, text) == outcome(reference_parse, text)

    @settings(max_examples=100, deadline=None)
    @given(text=ntriples_documents())
    def test_repeated_iri_tokens_share_one_term_object(self, text):
        try:
            triples = list(iter_ntriples(text))
        except (ParseError, ValueError):
            return
        by_value = {}
        for triple in triples:
            for term in triple:
                if isinstance(term, IRI):
                    assert by_value.setdefault(term.value, term) is term

    def test_malformed_line_of_previously_seen_tokens(self):
        valid = '<http://example.org/s> <http://example.org/p> "x" .'
        for broken, column in [
            ('<http://example.org/s> <http://example.org/p> "x"', 49),
            ('"x" <http://example.org/p> <http://example.org/s> .', 0),
            ('<http://example.org/s> "x" <http://example.org/p> .', 22),
        ]:
            text = f"{valid}\n{valid}\n{broken}\n"
            with pytest.raises(ParseError) as info:
                list(iter_ntriples(text))
            assert (info.value.line, info.value.column) == (3, column)
            assert outcome(iter_ntriples, text) == outcome(reference_parse, text)

    def test_escaped_iri_raises_on_first_and_repeated_occurrences(self):
        bad = "<http://example.org/a\\u0020b>"
        valid = "<http://example.org/s> <http://example.org/p> <http://example.org/o> ."
        for line, column in [(f"{bad} <http://example.org/p> _:b .", 0),
                             (f"_:b <http://example.org/p> {bad} .", 26)]:
            text = f"{valid}\n{line}\n{valid}\n{line}\n"
            for _ in range(2):  # every call starts from an empty memo
                with pytest.raises(ParseError) as info:
                    list(iter_ntriples(text))
                assert (info.value.line, info.value.column) == (2, column)
            # with the first occurrence gone, the repeat raises in its place
            later = text.replace(line, "# dropped", 1)
            with pytest.raises(ParseError) as info:
                list(iter_ntriples(later))
            assert (info.value.line, info.value.column) == (4, column)
            for case in (text, later):
                assert outcome(iter_ntriples, case) == outcome(reference_parse, case)

    def test_bad_escape_in_a_repeated_literal_raises(self):
        line = '<http://example.org/s> <http://example.org/p> "bad \\q" .'
        with pytest.raises(ParseError, match="unknown escape sequence"):
            list(iter_ntriples(f"{line}\n{line}"))

    def test_lang_tag_case_is_normalised_per_token(self):
        text = ('<http://example.org/s> <http://example.org/p> "chat"@FR .\n'
                '<http://example.org/s> <http://example.org/p> "chat"@fr .\n')
        first, second = iter_ntriples(text)
        assert first.object == second.object == Literal("chat", lang="fr")
