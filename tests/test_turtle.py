import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provalign import vocab
from provalign.fixtures import FIXTURE_NAMES, INSTANCE_NAMES, fixture_text
from provalign.rdf import BlankNode, Graph, Literal, Triple, graph_isomorphic, iri, new_scope
from provalign.turtle import (
    MAX_NESTING,
    ParseDiagnostic,
    TurtleParseError,
    parse_turtle,
    serialize_turtle,
)

PREFIXES = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <http://example.org/> .
"""


def test_empty_document():
    assert len(parse_turtle("")) == 0


def test_comment_only_document():
    assert len(parse_turtle("# nothing here\n")) == 0


def test_reified_axiom_block():
    doc = """
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix owl: <http://www.w3.org/2002/07/owl#> .
    @prefix prov: <http://www.w3.org/ns/prov#> .
    @prefix obo: <http://purl.obolibrary.org/obo/> .
    @prefix sssom: <https://w3id.org/sssom/> .

    [ ] rdf:type owl:Axiom ;
        owl:annotatedSource    prov:Activity ;
        owl:annotatedProperty  owl:equivalentClass ;
        owl:annotatedTarget    obo:BFO_0000015 ;
        sssom:object_label      "process" ;
        rdfs:comment "An activity happens over time without being a temporal region."@en .
    """
    g = parse_turtle(doc)
    assert len(g) == 6
    subjects = {t.subject for t in g}
    assert len(subjects) == 1
    (node,) = subjects
    assert isinstance(node, BlankNode)
    preds = {t.predicate.value for t in g}
    assert vocab.OWL_ANNOTATED_SOURCE in preds
    assert vocab.OWL_ANNOTATED_PROPERTY in preds
    assert vocab.OWL_ANNOTATED_TARGET in preds


def test_fig7_snippet_types_and_datetime():
    g = parse_turtle(fixture_text("instances/fig7.ttl"))
    illustration = iri("https://example.org/provalign/examples/chart#illustration")
    instantaneous = iri("http://www.w3.org/ns/prov#InstantaneousEvent")
    assert Triple(illustration, iri(vocab.RDF_TYPE), instantaneous) in g
    datetimes = [t.object for t in g
                 if isinstance(t.object, Literal) and t.object.datatype == vocab.XSD_DATETIME]
    assert Literal("2012-04-03T00:00:11Z", datatype=vocab.XSD_DATETIME) in datetimes


def test_collection_expands_to_first_rest_chain():
    g = parse_turtle(PREFIXES + "ex:s ex:p ( ex:a ex:b ) .")
    firsts = [t for t in g if t.predicate.value == vocab.RDF_FIRST]
    rests = [t for t in g if t.predicate.value == vocab.RDF_REST]
    assert len(firsts) == 2 and len(rests) == 2
    assert any(t.object == iri(vocab.RDF_NIL) for t in rests)
    assert len(g) == 5  # 4 list triples + the containing statement


def test_empty_collection_is_nil():
    g = parse_turtle(PREFIXES + "ex:s ex:p ( ) .")
    assert Triple(iri("http://example.org/s"), iri("http://example.org/p"),
                  iri(vocab.RDF_NIL)) in g


def test_object_and_predicate_lists():
    g = parse_turtle(PREFIXES + "ex:s ex:p ex:a , ex:b ; ex:q ex:c .")
    assert len(g) == 3


def test_literal_forms():
    g = parse_turtle(PREFIXES + """
    ex:s ex:int 42 ;
         ex:neg -7 ;
         ex:dec 4.25 ;
         ex:dbl 4.2e1 ;
         ex:flag true ;
         ex:plain "hello" ;
         ex:tagged "bonjour"@fr ;
         ex:typed "2012-04-03T00:00:11Z"^^xsd:dateTime ;
         ex:long \"\"\"line one
line two\"\"\" ;
         ex:escaped "tab\\there \\"quoted\\" back\\\\slash \\u00e9" .
    """)
    objects = {t.predicate.value.split("/")[-1]: t.object for t in g}
    assert objects["int"] == Literal("42", datatype=vocab.XSD_INTEGER)
    assert objects["neg"] == Literal("-7", datatype=vocab.XSD_INTEGER)
    assert objects["dec"] == Literal("4.25", datatype=vocab.XSD_DECIMAL)
    assert objects["dbl"] == Literal("4.2e1", datatype=vocab.XSD_DOUBLE)
    assert objects["flag"] == Literal("true", datatype=vocab.XSD_BOOLEAN)
    assert objects["plain"] == Literal("hello", datatype=vocab.XSD_STRING)
    assert objects["tagged"] == Literal("bonjour", language="fr")
    assert objects["typed"].datatype == vocab.XSD_DATETIME
    assert objects["long"].lexical == "line one\nline two"
    assert objects["escaped"].lexical == 'tab\there "quoted" back\\slash é'


def test_anonymous_bnode_and_nesting():
    g = parse_turtle(PREFIXES + "ex:s ex:p [ ex:q [ ex:r ex:o ] ] .")
    assert len(g) == 3
    assert len(g.blank_nodes()) == 2


def test_labelled_bnodes_are_shared():
    g = parse_turtle(PREFIXES + "_:x ex:p ex:a . _:x ex:q ex:b .")
    assert len(g.blank_nodes()) == 1


def test_base_resolution():
    g = parse_turtle("@base <http://example.org/data/> . <chart> a <Chart> .")
    assert Triple(iri("http://example.org/data/chart"), iri(vocab.RDF_TYPE),
                  iri("http://example.org/data/Chart")) in g


def test_sparql_style_directives():
    g = parse_turtle("PREFIX ex: <http://e/>\nBASE <http://b/>\nex:s ex:p <rel> .")
    assert Triple(iri("http://e/s"), iri("http://e/p"), iri("http://b/rel")) in g


def test_percent_escapes_in_local_names():
    g = parse_turtle("@prefix ex: <http://e/> .\nex:a%7A ex:p ex:b.%41 .")
    assert Triple(iri("http://e/a%7A"), iri("http://e/p"), iri("http://e/b.%41")) in g


@pytest.mark.parametrize("doc,fragment", [
    ("ex:s ex:p ex:o .", "unknown prefix"),
    ('@prefix ex: <http://e/> . ex:s ex:p "unterminated .', "unterminated literal"),
    ("@prefix ex: <http://e/> . ex:s ex:p .", "expected"),
    ("@prefix ex: <http://e/> . ex:s ex:p ex:o", "expected '.'"),
    ("<< ex:a ex:b ex:c >> ex:p ex:o .", "quoted triples"),
    ("{ ex:a ex:b ex:c } => { ex:d ex:e ex:f } .", "TriG"),
])
def test_parse_errors(doc, fragment):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(doc)
    diag = err.value.diagnostics[0]
    assert isinstance(diag, ParseDiagnostic)
    assert fragment.lower() in diag.message.lower()
    assert diag.line >= 1 and diag.column >= 1


def test_diagnostic_position_points_at_offender():
    with pytest.raises(TurtleParseError) as err:
        parse_turtle('@prefix ex: <http://e/> .\nex:s ex:p "oops .')
    diag = err.value.diagnostics[0]
    assert diag.line == 2


EX = "@prefix ex: <http://e/> .\n"


@pytest.mark.parametrize("doc,message,line,column", [
    (EX + 'ex:s ex:p "oops .', "unterminated literal", 2, 11),
    (EX + 'ex:s ex:p """never\nclosed" .', "unterminated literal", 2, 11),
    (EX + 'ex:s ex:p "line\nbreak" .', "unterminated literal", 2, 11),
    (EX + 'ex:s ex:p "\\u12G4" .', "bad \\u escape", 2, 14),
    (EX + 'ex:s ex:p "\\U0001F60" .', "bad \\U escape", 2, 14),
    (EX + 'ex:s ex:p "\\q" .', "unknown escape \\q", 2, 13),
    (EX + "ex:s ex:p <http://e/\\n> .", "unknown escape \\n in IRI reference", 2, 22),
    (EX + 'ex:s ex:p "abc\\', "unknown escape \\", 2, 16),
    (EX + "ex:s ex:p <http://e/a b> .", "character ' ' not allowed inside IRI reference", 2, 22),
    (EX + "ex:s ex:p <http://e/a", "unterminated IRI reference", 2, 11),
    (EX + "_: ex:p ex:o .", "empty blank node label", 2, 1),
    (EX + 'ex:s ex:p "x"@ .', "bad @ directive or language tag", 2, 14),
    (EX + "<< ex:a ex:b ex:c >> ex:p ex:o .", "quoted triples are not supported", 2, 1),
    (EX + "{ ex:a ex:b ex:c } .", "TriG graph blocks are not supported", 2, 1),
    (EX + "ex:s ex:p ~ .", "unexpected character '~'", 2, 11),
    (EX + "ex:s ex:p ex:o .\nfoo:s ex:p ex:o .", "unknown prefix 'foo' in 'foo:s'", 3, 1),
    (EX + "ex:s ex:p <rel> .", "relative IRI 'rel' with no base", 2, 11),
    ("@prefix ex: <http://e/> .\r\nex:s ex:p ex:o .\r\nex:s ex:p ex:o ~\r\n",
     "unexpected character '~'", 3, 16),
    # Columns count code points: a non-BMP character or a bare '\r' is one column.
    (EX + 'ex:s ex:p "é\U0001F600\\u00e9" , ~ .', "unexpected character '~'", 2, 24),
    (EX + "ex:s\rex:p ~ .", "unexpected character '~'", 2, 11),
    (EX + 'ex:s ex:p "\\U00110000" .', "escape \\U00110000 is beyond U+10FFFF", 2, 12),
    # PLX allows '%' only before two hex digits.
    (EX + "ex:a%zz ex:p ex:o .", "unexpected character '%'", 2, 5),
    # A token's escapes are decoded only when the parser reaches it, so a
    # syntax error wins over a bad escape on a later line.
    (EX + 'ex:s ex:p ex:o ex:x .\nex:s ex:p "\\U00110000" .\n',
     "expected '.', found ('ex', 'x')", 2, 16),
    (EX + 'ex:s ex:p ex:o ;\n  ex:q .\nex:t ex:p "\\U00110000" .\n',
     "expected subject, found '.'", 3, 8),
])
def test_parse_error_positions(doc, message, line, column):
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(doc)
    diag = err.value.diagnostics[0]
    assert (diag.message, diag.line, diag.column) == (message, line, column)


def _nested(opener, closer, depth):
    return EX + "ex:s ex:p " + f"{opener} ex:p " * depth + "ex:o" + f" {closer}" * depth + " .\n"


@pytest.mark.parametrize("opener,closer", [("[", "]"), ("(", ")")])
def test_nesting_bound(opener, closer):
    graph = parse_turtle(_nested(opener, closer, MAX_NESTING))
    assert len(graph) > MAX_NESTING
    siblings = ", ".join([f"{opener} ex:p ex:o {closer}"] * (MAX_NESTING + 1))
    parse_turtle(EX + f"ex:s ex:p {siblings} .")
    with pytest.raises(TurtleParseError) as err:
        parse_turtle(_nested(opener, closer, MAX_NESTING + 1))
    diag = err.value.diagnostics[0]
    assert diag.message == f"more than {MAX_NESTING} nested '[' or '('"
    # The offending opener follows "ex:s ex:p " and MAX_NESTING "<opener> ex:p " runs.
    assert (diag.line, diag.column) == (2, 11 + 7 * MAX_NESTING)


def test_nesting_bound_counts_mixed_openers():
    doc = EX + "ex:s ex:p " + "[ ex:p ( " * (MAX_NESTING // 2) + "ex:o" + " ) ]" * (MAX_NESTING // 2) + " .\n"
    parse_turtle(doc)
    with pytest.raises(TurtleParseError):
        parse_turtle(doc.replace("ex:o", "[ ex:p ex:o ]"))


# IRIREF characters: anything but controls, space, '<>"{}|^`' and backslash.
_IRI_CHARS = st.characters(blacklist_characters='<>"{}|^`\\', min_codepoint=0x21,
                           blacklist_categories=("Cs",))
_NAMESPACES = {"ex": "http://example.org/ns#", "exs": "http://example.org/ns#sub/",
               "": "urn:x:"}
_iris = st.builds(
    lambda ns, local: iri(ns + local),
    st.sampled_from(sorted(_NAMESPACES.values()) + ["http://other.example/"]),
    st.text(st.sampled_from("aZ09_.-"), max_size=6) | st.text(_IRI_CHARS),
)
_texts = st.text(st.sampled_from('\\"\'\n\r\t\b\f\x00\x1f\x7f a.é\U0001F600') | st.characters(
    blacklist_categories=("Cs",)))
_sign = st.sampled_from(["", "+", "-"])
_digits = st.text("0123456789", min_size=1, max_size=4)
_numbers = st.one_of(
    st.builds(lambda s, i: Literal(s + i, datatype=vocab.XSD_INTEGER), _sign, _digits),
    st.builds(lambda s, i, f: Literal(f"{s}{i}.{f}", datatype=vocab.XSD_DECIMAL),
              _sign, st.text("0123456789", max_size=3), _digits),
    st.builds(lambda s, i, es, e: Literal(f"{s}{i}.{i}e{es}{e}", datatype=vocab.XSD_DOUBLE),
              _sign, _digits, _sign, _digits),
    st.builds(Literal, st.sampled_from(["true", "false"]), st.just(vocab.XSD_BOOLEAN)),
)
_lang_tags = st.builds(lambda primary, sub: primary + sub,
                       st.text(st.sampled_from("abcXYZ"), min_size=1, max_size=8),
                       st.sampled_from(["", "-GB", "-419", "-Latn-x1"]))
_literals = st.one_of(
    st.builds(Literal, _texts, st.just(vocab.XSD_STRING)),
    st.builds(lambda s, tag: Literal(s, language=tag), _texts, _lang_tags),
    st.builds(Literal, _texts, st.sampled_from(
        [vocab.XSD_INTEGER, vocab.XSD_DECIMAL, vocab.XSD_BOOLEAN, vocab.XSD_DATETIME,
         "http://example.org/ns#dt"])),
    _numbers,
)


@st.composite
def _graphs(draw):
    scope = new_scope()
    nodes = st.builds(lambda i: BlankNode(f"n{i}", scope), st.integers(0, 3))
    graph = Graph(prefixes=_NAMESPACES)
    for s, p, o in draw(st.lists(st.tuples(_iris | nodes, _iris, _iris | nodes | _literals),
                                 max_size=8)):
        graph.add(Triple(s, p, o))
    return graph


def _one_triple(obj):
    graph = Graph(prefixes=_NAMESPACES)
    graph.add(Triple(iri("http://example.org/ns#s"), iri("http://example.org/ns#p"), obj))
    return graph


@settings(max_examples=300, deadline=None)
@given(_graphs())
@example(_one_triple(Literal(".5", datatype=vocab.XSD_DECIMAL)))
@example(_one_triple(Literal("5\n", datatype=vocab.XSD_INTEGER)))
def test_serialize_parse_round_trip(graph):
    assert graph_isomorphic(parse_turtle(serialize_turtle(graph)), graph)


@pytest.mark.parametrize("name", list(FIXTURE_NAMES) + list(INSTANCE_NAMES))
def test_fixture_round_trip(name):
    original = parse_turtle(fixture_text(name))
    replayed = parse_turtle(serialize_turtle(original))
    assert graph_isomorphic(parse_turtle(serialize_turtle(replayed)), original)


def test_serializer_is_deterministic():
    g = parse_turtle(fixture_text("align-paper.ttl"))
    assert serialize_turtle(g) == serialize_turtle(g)


def test_serialize_empty_graph():
    g = parse_turtle("")
    assert serialize_turtle(g) == ""
    g2 = parse_turtle("@prefix ex: <http://e/> .")
    assert serialize_turtle(g2).startswith("@prefix ex:")


def test_serialize_single_triple_round_trips():
    g = parse_turtle(PREFIXES + "ex:a a ex:B .")
    out = serialize_turtle(g)
    assert graph_isomorphic(parse_turtle(out), g)


def test_a_comment_ends_at_a_bare_carriage_return():
    """Turtle 1.1 ends a comment at U+000D as at U+000A."""
    graph = parse_turtle("@prefix ex: <http://e/> .\rex:a ex:p ex:b . # note\rex:c ex:p ex:d .\r")
    assert graph.triples == {Triple(iri("http://e/a"), iri("http://e/p"), iri("http://e/b")),
                             Triple(iri("http://e/c"), iri("http://e/p"), iri("http://e/d"))}
