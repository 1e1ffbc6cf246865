import pytest

from provalign import vocab
from provalign.alignment import (
    DEFAULT_JUSTIFICATION,
    Mapping,
    NamespaceOverlapError,
    UnsupportedPredicateError,
    export_sssom,
    extract_mappings,
    serialize_mapping,
    SSSOM_HEADER,
)
from provalign.checks import alignment_axiom_model, alignment_stats
from provalign.fixtures import SOURCE_NAMESPACES, TARGET_NAMESPACES
from provalign.owl import Axiom, ClassAtom, DisjointUnionOf, NamedClass, SwrlRule, extract_axioms, merge_models
from provalign.rdf import iri
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix obo: <http://purl.obolibrary.org/obo/> .
@prefix sssom: <https://w3id.org/sssom/> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
"""

PROV = "http://www.w3.org/ns/prov#"
OBO = "http://purl.obolibrary.org/obo/"


def model_of(body):
    return extract_axioms(parse_turtle(HEADER + body))


def test_reified_block_yields_one_labelled_mapping():
    model = model_of("""
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 ;
       sssom:object_label "process" .
    """)
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    (m,) = alignment.mappings
    assert m.predicate == "equivalent-class"
    assert m.subject == NamedClass(iri(PROV + "Activity"))
    assert m.object == NamedClass(iri(OBO + "BFO_0000015"))
    assert m.object_label == "process"
    assert m.justification == DEFAULT_JUSTIFICATION


def test_disjoint_union_across_namespaces_is_one_equivalence():
    model = model_of("prov:Agent owl:disjointUnionOf ( obo:BFO_0000040 obo:BFO_0000023 ) .")
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    (m,) = alignment.mappings
    union = DisjointUnionOf((NamedClass(iri(OBO + "BFO_0000040")), NamedClass(iri(OBO + "BFO_0000023"))))
    assert (m.predicate, m.subject, m.object) == ("equivalent-class", NamedClass(iri(PROV + "Agent")), union)
    assert m.payload == Axiom("equivalent-classes", (NamedClass(iri(PROV + "Agent")), union))


def test_intra_namespace_axioms_are_not_mappings():
    model = model_of("""
    prov:Person rdfs:subClassOf prov:Agent .
    prov:Entity owl:disjointWith prov:Activity .
    """)
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    assert alignment.mappings == []


def test_namespace_overlap_rejected():
    model = model_of("")
    with pytest.raises(NamespaceOverlapError):
        extract_mappings(model, ["http://a/"], ["http://a/deeper/"])
    with pytest.raises(NamespaceOverlapError):
        extract_mappings(model, [], ["http://b/"])


def test_swrl_rules_become_rule_mappings(align_model):
    alignment = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    rule_mappings = [m for m in alignment.mappings if m.predicate == "swrl-rule"]
    assert len(rule_mappings) == 5
    occurs_in_group = [m for m in rule_mappings if OBO + "BFO_0000066" in m.object]
    assert len(occurs_in_group) == 3


def test_skos_mapping_extracted_as_metadata(align_model):
    alignment = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    skos = [m for m in alignment.mappings if m.predicate == "skos-related"]
    assert len(skos) == 1
    assert skos[0].subject == iri(PROV + "qualifiedGeneration")


def test_skos_mappings_differing_in_predicate_stay_apart():
    model = model_of("prov:Entity skos:exactMatch obo:BFO_0000001 . "
                     "prov:Entity skos:closeMatch obo:BFO_0000001 .")
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    assert [m.payload.args[0] for m in alignment.mappings] == [
        vocab.SKOS + "closeMatch", vocab.SKOS + "exactMatch"]
    assert alignment_stats(alignment)["counts"]["mappings"] == 2
    # A literal side is in no namespace, so however its datatype or language
    # differ, it makes no mapping to collapse.
    literals = model_of('prov:Entity skos:closeMatch "x" , "x"@en , "x"^^<http://e/t> .')
    assert len(literals.axioms) == 3
    assert extract_mappings(literals, SOURCE_NAMESPACES, TARGET_NAMESPACES).mappings == []


def test_every_mapping_payload_comes_from_the_model(align_model, alignment):
    # no invention, no loss: each mapping's logical content is one axiom/rule
    axioms = set(align_model.axioms)
    rules = set(align_model.rules)
    for m in alignment.mappings:
        if m.predicate == "swrl-rule":
            assert m.payload in rules
        else:
            assert m.payload in axioms


def test_alignment_has_no_duplicates(alignment):
    keys = [(m.predicate, str(m.subject), str(m.object)) for m in alignment.mappings]
    assert len(keys) == len(set(keys))


def test_derived_from_versions_recorded(alignment):
    versions = {v for _, v in alignment.derived_from}
    assert any(v.endswith("2024-01-29") for v in versions)
    assert any(v.endswith("2013-04-30") for v in versions)


# -- SSSOM export ---------------------------------------------------------------

def test_export_empty_alignment():
    model = model_of("")
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    out = export_sssom(alignment)
    assert out == ",".join(SSSOM_HEADER) + "\n"


def test_export_activity_row_justification():
    model = model_of("prov:Activity owl:equivalentClass obo:BFO_0000015 .")
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    lines = export_sssom(alignment).splitlines()
    assert len(lines) == 2
    assert "manual mapping curation" in lines[1]


def test_export_counts_simple_rows_and_comments_complex(align_model):
    alignment = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    out = export_sssom(alignment)
    lines = out.splitlines()
    data_rows = [l for l in lines[1:] if l and not l.startswith("#")]
    simple = alignment.simple_mappings()
    complex_count = len(alignment.complex_mappings())
    assert len(data_rows) == len(simple)  # recount by predicate kind
    comment_lines = [l for l in lines if l.startswith("#")]
    assert len(comment_lines) == 1
    assert str(complex_count) in comment_lines[0]
    assert "swrl-rule: 5" in comment_lines[0]
    assert "property-chain: 1" in comment_lines[0]


def test_export_rows_sorted_and_lf_terminated(alignment):
    out = export_sssom(alignment)
    assert "\r" not in out
    rows = [l.split(",")[0] for l in out.splitlines()[1:] if l and not l.startswith("#")]
    assert rows == sorted(rows)


def test_two_simple_three_rules_export_shape():
    model = model_of("""
    prov:Activity owl:equivalentClass obo:BFO_0000015 .
    prov:Location owl:equivalentClass obo:BFO_0000029 .
    """)
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    from provalign.fixtures import load_model
    rules_alignment = extract_mappings(load_model("align-paper.ttl"),
                                       SOURCE_NAMESPACES, TARGET_NAMESPACES)
    occurs_in_rules = [m for m in rules_alignment.mappings
                       if m.predicate == "swrl-rule" and OBO + "BFO_0000066" in m.object]
    combined = alignment
    combined.mappings.extend(occurs_in_rules)
    out = export_sssom(combined)
    lines = out.splitlines()
    data_rows = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(data_rows) == 2
    assert "swrl-rule: 3" in lines[-1]


# -- reified serialization -------------------------------------------------------

def test_minimal_mapping_serializes_to_four_triples():
    m = Mapping(NamedClass(iri(PROV + "Activity")), "equivalent-class",
                NamedClass(iri(OBO + "BFO_0000015")))
    g = serialize_mapping(m)
    assert len(g) == 4
    preds = {t.predicate.value for t in g}
    assert vocab.OWL_ANNOTATED_PROPERTY in preds
    annotated_property = [t.object for t in g
                          if t.predicate.value == vocab.OWL_ANNOTATED_PROPERTY]
    assert annotated_property == [iri(vocab.OWL_EQUIVALENT_CLASS)]


def test_skos_mapping_not_serializable():
    m = Mapping(iri(PROV + "qualifiedGeneration"), "skos-related", iri(OBO + "x"))
    with pytest.raises(UnsupportedPredicateError):
        serialize_mapping(m)


def test_round_trip_every_fixture_mapping(alignment):
    for m in alignment.mappings:
        if m.predicate == "skos-related":
            continue
        g = serialize_mapping(m)
        model = extract_axioms(g)
        back = extract_mappings(model, alignment.source_namespaces,
                                alignment.target_namespaces)
        assert len(back.mappings) == 1, m
        assert back.mappings[0] == m


def test_mappings_over_the_same_terms_stay_apart():
    # Both chains and both rules use the same names, so their sorted name
    # tuples (the mapping sides) are equal; each is still its own mapping.
    model = model_of("""
    obo:r owl:propertyChainAxiom ( prov:p prov:q ) .
    obo:r owl:propertyChainAxiom ( prov:q prov:p ) .
    """)
    a, b = NamedClass(iri(PROV + "Entity")), NamedClass(iri(OBO + "BFO_0000002"))
    model.rules = [SwrlRule((ClassAtom(a, "x"),), (ClassAtom(b, "x"),)),
                   SwrlRule((ClassAtom(b, "x"),), (ClassAtom(a, "x"),))]
    alignment = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    chains = [m for m in alignment.mappings if m.predicate == "property-chain"]
    rules = [m for m in alignment.mappings if m.predicate == "swrl-rule"]
    assert len(chains) == len(rules) == 2
    assert {m.payload for m in chains} == set(model.axioms)
    assert {m.payload for m in rules} == set(model.rules)
    assert chains[0].subject == chains[1].subject == (PROV + "p", PROV + "q")
    assert alignment_stats(alignment)["counts"]["mappings"] == 4
    assert export_sssom(alignment).splitlines()[-1].startswith(
        "# 4 complex mapping(s) not exported as rows (property-chain: 2, swrl-rule: 2)")
    logical = alignment_axiom_model(alignment)
    assert set(logical.axioms) == set(model.axioms) and set(logical.rules) == set(model.rules)


def test_a_rule_read_twice_is_one_mapping():
    model = model_of("obo:r owl:propertyChainAxiom ( prov:p prov:q ) .")
    a, b = NamedClass(iri(PROV + "Entity")), NamedClass(iri(OBO + "BFO_0000002"))
    model.rules = [SwrlRule((ClassAtom(a, "x"),), (ClassAtom(b, "x"),))] * 2
    alignment = extract_mappings(merge_models([model, model]), SOURCE_NAMESPACES, TARGET_NAMESPACES)
    assert sorted(m.predicate for m in alignment.mappings) == ["property-chain", "swrl-rule"]


def test_a_rule_over_blank_node_variables_round_trips():
    # _:e0 is also the label of the writer's first fresh node: the variables
    # are written in a scope of their own, so the two stay apart.
    model = model_of("""
    @prefix swrl: <http://www.w3.org/2003/11/swrl#> .
    @prefix var: <http://example.org/var#> .
    _:x a swrl:Variable . _:e0 a swrl:Variable . var:z a swrl:Variable .
    [] a swrl:Imp ;
       swrl:body ( [ a swrl:ClassAtom ; swrl:classPredicate prov:Entity ; swrl:argument1 _:x ]
                   [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate prov:wasDerivedFrom ;
                     swrl:argument1 _:x ; swrl:argument2 _:e0 ]
                   [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate prov:used ;
                     swrl:argument1 _:e0 ; swrl:argument2 var:z ] ) ;
       swrl:head ( [ a swrl:ClassAtom ; swrl:classPredicate obo:BFO_0000002 ; swrl:argument1 var:z ] ) ;
       rdfs:comment "blank-node variables" .
    """)
    (m,) = extract_mappings(model, SOURCE_NAMESPACES, TARGET_NAMESPACES).mappings
    assert [atom.var1 for atom in m.payload.body[1:]] == ["_:x", "_:e0"]
    assert m.payload.head[0].var == "http://example.org/var#z"
    back = extract_mappings(extract_axioms(serialize_mapping(m)), SOURCE_NAMESPACES, TARGET_NAMESPACES)
    assert back.mappings == [m]
