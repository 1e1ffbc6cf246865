import copy
import pickle
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import provalign
from provalign import owl, vocab
from provalign.fixtures import FIXTURE_NAMES, INSTANCE_NAMES, fixture_text
from provalign.owl import (
    Axiom,
    ClassAtom,
    Complement,
    DisjointUnionOf,
    Intersection,
    InverseProperty,
    MalformedExpressionError,
    NamedClass,
    NamedProperty,
    PropertyAtom,
    SomeValuesFrom,
    UnionOf,
    UnsafeRuleError,
    UnsupportedAtomError,
    encode_class_expression,
    extract_axioms,
    extract_swrl_rules,
    merge_models,
    parse_class_expression,
    render_class_expression,
    signature,
)
from provalign.rdf import BlankNode, Graph, Literal, iri, triple_sort_key
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix swrl: <http://www.w3.org/2003/11/swrl#> .
@prefix sssom: <https://w3id.org/sssom/> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix obo: <http://purl.obolibrary.org/obo/> .
@prefix ex: <http://example.org/> .
"""

PROV = "http://www.w3.org/ns/prov#"
OBO = "http://purl.obolibrary.org/obo/"


def model_of(body):
    return extract_axioms(parse_turtle(HEADER + body))


def axioms_of_kind(model, kind):
    return [a for a in model.axioms if a.kind == kind]


@pytest.fixture(scope="module")
def perfbench_inputs(perfbench_requests):
    """The Turtle files of seed 1 of every perfbench workload."""
    fixtures = str(Path(provalign.__file__).resolve().parent / "fixtures")
    return sorted({path for requests in perfbench_requests[1].values() for request in requests
                   for path in request["files"] if not path.startswith(fixtures)})


def _assert_model_order(graph):
    """The model is in canonical order, and extraction consumed only the
    graph's own triple objects."""
    extractor = owl._Extractor(graph, "")
    model = extractor.run()
    assert model.axioms == sorted(model.axioms, key=lambda a: repr((a.kind, a.args)))
    assert model.unmodeled == sorted(model.unmodeled, key=triple_sort_key)
    own = {t: t for t in graph}
    assert all(own.get(t) is t for t in extractor.consumed)


@pytest.mark.parametrize("name", FIXTURE_NAMES + INSTANCE_NAMES)
def test_fixture_model_is_in_canonical_order(name):
    _assert_model_order(parse_turtle(fixture_text(name)))


def test_perfbench_models_are_in_canonical_order(perfbench_inputs):
    assert len(perfbench_inputs) >= 10
    for path in perfbench_inputs:
        _assert_model_order(parse_turtle(Path(path).read_text(encoding="utf-8")))


def test_empty_graph_gives_empty_model():
    model = extract_axioms(parse_turtle(""))
    assert model.axioms == [] and model.rules == []
    sig = signature(model)
    assert sig["classes"] == set() and sig["object_properties"] == set()


def test_reified_axiom_folds_with_annotations():
    model = model_of("""
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 ;
       sssom:object_label "process" ;
       rdfs:comment "activities are processes" .
    """)
    (ax,) = axioms_of_kind(model, "equivalent-classes")
    assert ax.args == (NamedClass(iri(PROV + "Activity")), NamedClass(iri(OBO + "BFO_0000015")))
    values = {p: v.lexical for p, v in ax.annotations if isinstance(v, Literal)}
    assert values[vocab.SSSOM_OBJECT_LABEL] == "process"
    assert vocab.RDFS_COMMENT in values
    assert model.unmodeled == []


def test_reified_equals_unreified():
    reified = model_of("""
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 .
    """)
    plain = model_of("prov:Activity owl:equivalentClass obo:BFO_0000015 .")
    assert axioms_of_kind(reified, "equivalent-classes") == axioms_of_kind(plain, "equivalent-classes")


def test_reified_and_plain_same_axiom_deduplicate():
    model = model_of("""
    prov:Activity owl:equivalentClass obo:BFO_0000015 .
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 ;
       rdfs:comment "same axiom, annotated" .
    """)
    found = axioms_of_kind(model, "equivalent-classes")
    assert len(found) == 1
    assert found[0].annotations


def test_a_statement_reified_twice_holds_both_annotations():
    model = model_of("""
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 ;
       rdfs:comment "first" .
    [] a owl:Axiom ;
       owl:annotatedSource prov:Activity ;
       owl:annotatedProperty owl:equivalentClass ;
       owl:annotatedTarget obo:BFO_0000015 ;
       sssom:object_label "process" .
    """)
    (ax,) = axioms_of_kind(model, "equivalent-classes")
    assert [(p, v.lexical) for p, v in ax.annotations] == [
        (vocab.RDFS_COMMENT, "first"), (vocab.SSSOM_OBJECT_LABEL, "process")]
    assert model.unmodeled == []


def test_disjoint_with():
    model = model_of("prov:Entity owl:disjointWith prov:Activity .")
    (ax,) = axioms_of_kind(model, "disjoint-classes")
    assert ax.args == (NamedClass(iri(PROV + "Entity")), NamedClass(iri(PROV + "Activity")))


def test_all_disjoint_classes_normalizes_pairwise():
    model = model_of("""
    [] a owl:AllDisjointClasses ; owl:members ( ex:A ex:B ex:C ) .
    """)
    assert len(axioms_of_kind(model, "disjoint-classes")) == 3


def test_named_class_expression():
    g = parse_turtle(HEADER + "prov:Entity a owl:Class .")
    ce = parse_class_expression(g, iri(PROV + "Entity"))
    assert ce == NamedClass(iri(PROV + "Entity"))


def test_intersection_with_complement():
    g = parse_turtle(HEADER + """
    ex:root owl:equivalentClass [ owl:intersectionOf ( obo:BFO_0000004 [ owl:complementOf obo:BFO_0000006 ] ) ] .
    """)
    node = g.object(iri("http://example.org/root"), vocab.OWL_EQUIVALENT_CLASS)
    ce = parse_class_expression(g, node)
    assert isinstance(ce, Intersection)
    assert NamedClass(iri(OBO + "BFO_0000004")) in ce.operands
    assert Complement(NamedClass(iri(OBO + "BFO_0000006"))) in ce.operands


def test_union_operand_count_matches_hand_expanded_chain():
    # Same expression written with explicit rdf:first/rdf:rest cells.
    expanded = parse_turtle(HEADER + """
    ex:root owl:equivalentClass [ owl:unionOf _:l1 ] .
    _:l1 rdf:first ex:A ; rdf:rest _:l2 .
    _:l2 rdf:first ex:B ; rdf:rest rdf:nil .
    """)
    node = expanded.object(iri("http://example.org/root"), vocab.OWL_EQUIVALENT_CLASS)
    ce = parse_class_expression(expanded, node)
    assert isinstance(ce, UnionOf)
    assert len(ce.operands) == 2


def test_someValuesFrom_restriction():
    g = parse_turtle(HEADER + """
    ex:root owl:equivalentClass [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:C ] .
    """)
    node = g.object(iri("http://example.org/root"), vocab.OWL_EQUIVALENT_CLASS)
    ce = parse_class_expression(g, node)
    assert ce == SomeValuesFrom(NamedProperty(iri("http://example.org/p")),
                                NamedClass(iri("http://example.org/C")))


def test_malformed_list_raises():
    g = parse_turtle(HEADER + "ex:root owl:equivalentClass [ owl:intersectionOf ex:notalist ] .")
    node = g.object(iri("http://example.org/root"), vocab.OWL_EQUIVALENT_CLASS)
    with pytest.raises(MalformedExpressionError):
        parse_class_expression(g, node)


def test_cyclic_expression_raises():
    g = Graph()
    node = BlankNode("c", 1)
    g.add_triple(node, iri(vocab.OWL_COMPLEMENT_OF), node)
    with pytest.raises(MalformedExpressionError):
        parse_class_expression(g, node)


def test_unsupported_restriction_lands_in_unmodeled():
    model = model_of("""
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:p ; owl:allValuesFrom ex:C ] .
    """)
    assert not axioms_of_kind(model, "sub-class-of")
    assert model.unmodeled  # kept, not rejected


_NESTED_UNSUPPORTED = "[ owl:intersectionOf ( ex:A [ a owl:Restriction ; owl:onProperty ex:p ; owl:allValuesFrom ex:B ] ) ]"


@pytest.mark.parametrize("text, size", [
    (f"ex:C rdfs:subClassOf {_NESTED_UNSUPPORTED} .", 9),
    ("[] a owl:Axiom ; owl:annotatedSource ex:C ; owl:annotatedProperty rdfs:subClassOf ; "
     f"owl:annotatedTarget {_NESTED_UNSUPPORTED} .", 12),
    (f"[] a owl:AllDisjointClasses ; owl:members ( ex:C {_NESTED_UNSUPPORTED} ) .", 14),
], ids=["plain", "reified", "all-disjoint-classes"])
def test_a_statement_dropped_below_its_first_operand_leaves_every_triple_unmodeled(text, size):
    # The intersection and its first list cell decode before the restriction
    # fails; what they read must not stay consumed.
    graph = parse_turtle(HEADER + text)
    model = extract_axioms(graph)
    assert model.axioms == []
    assert model.unmodeled == sorted(graph.triples, key=triple_sort_key) and len(model.unmodeled) == size


@pytest.mark.parametrize("text, size", [
    ("[] a owl:Axiom ; owl:annotatedSource ex:C ; owl:annotatedProperty ex:p ; owl:annotatedTarget ex:D .", 4),
    ("[] a owl:Axiom ; owl:annotatedSource ex:C ; owl:annotatedProperty rdfs:subClassOf .", 3),
    ("[] a owl:AllDisjointClasses .", 1),
], ids=["reified-non-axiom", "reified-incomplete", "all-disjoint-classes-without-members"])
def test_a_node_that_states_no_axiom_leaves_every_triple_unmodeled(text, size):
    # Its pass takes the node's type and reified parts before it can tell.
    graph = parse_turtle(HEADER + text)
    model = extract_axioms(graph)
    assert model.axioms == []
    assert model.unmodeled == sorted(graph.triples, key=triple_sort_key) and len(model.unmodeled) == size


def test_annotation_vocabulary_is_preserved_quietly():
    model = model_of("""
    ex:A a owl:Class ; rdfs:label "A" ; rdfs:comment "doc" .
    """)
    assert model.unmodeled == []
    assert "http://example.org/A" in model.declared_classes


def test_data_property_declaration_stays_unmodeled_but_domain_counts():
    model = model_of("""
    ex:when a owl:DatatypeProperty ; rdfs:domain ex:Event .
    """)
    assert axioms_of_kind(model, "property-domain")
    assert any(t.predicate.value == vocab.RDF_TYPE for t in model.unmodeled)
    assert "http://example.org/when" in model.declared_data_properties
    assert "http://example.org/when" not in signature(model)["object_properties"]


def test_disjoint_union_axiom():
    model = model_of("ex:C owl:disjointUnionOf ( ex:A ex:B ) .")
    (ax,) = axioms_of_kind(model, "disjoint-union")
    assert ax.args[0] == NamedClass(iri("http://example.org/C"))
    assert len(ax.args[1]) == 2


def test_property_chain_axiom():
    model = model_of("ex:r owl:propertyChainAxiom ( ex:p ex:q ) .")
    (ax,) = axioms_of_kind(model, "property-chain")
    chain, sup = ax.args
    assert [property_iri(pe) for pe in chain] == ["http://example.org/p", "http://example.org/q"]
    assert property_iri(sup) == "http://example.org/r"


def property_iri(pe):
    if isinstance(pe, InverseProperty):
        return pe.operand.iri.value
    return pe.iri.value


def test_inverse_axiom_and_anonymous_inverse():
    model = model_of("""
    ex:parent owl:inverseOf ex:child .
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty [ owl:inverseOf ex:p ] ; owl:someValuesFrom ex:B ] .
    """)
    (inv,) = axioms_of_kind(model, "inverse-properties")
    assert {property_iri(inv.args[0]), property_iri(inv.args[1])} == {
        "http://example.org/parent", "http://example.org/child"}
    (sub,) = axioms_of_kind(model, "sub-class-of")
    restriction = sub.args[1]
    assert isinstance(restriction.prop, InverseProperty)


def test_skos_mapping_is_annotation_only():
    model = model_of("prov:qualifiedGeneration skos:relatedMatch obo:RO_1 .")
    (ax,) = axioms_of_kind(model, "skos-related")
    assert ax.args[0].endswith("relatedMatch")
    sig = signature(model)
    assert sig["classes"] == set() and sig["object_properties"] == set()


def test_class_assertion_and_property_assertion():
    model = model_of("""
    ex:a a prov:Entity ; ex:knows ex:b ; ex:age 4 .
    """)
    assert len(axioms_of_kind(model, "class-assertion")) == 1
    assertions = axioms_of_kind(model, "property-assertion")
    assert len(assertions) == 2
    sig = signature(model)
    assert "http://example.org/a" in sig["individuals"]
    assert "http://example.org/b" in sig["individuals"]


# -- SWRL ---------------------------------------------------------------------

RULE = """
ex:x a swrl:Variable . ex:y a swrl:Variable .
[] a swrl:Imp ;
   swrl:body ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate prov:atLocation ;
                 swrl:argument1 ex:x ; swrl:argument2 ex:y ]
               [ a swrl:ClassAtom ; swrl:classPredicate prov:Activity ; swrl:argument1 ex:x ] ) ;
   swrl:head ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate obo:BFO_0000066 ;
                 swrl:argument1 ex:x ; swrl:argument2 ex:y ] ) .
"""


def test_swrl_rule_extraction_preserves_atom_order():
    rules = extract_swrl_rules(parse_turtle(HEADER + RULE))
    assert len(rules) == 1
    rule = rules[0]
    assert isinstance(rule.body[0], PropertyAtom)
    assert property_iri(rule.body[0].prop) == PROV + "atLocation"
    assert isinstance(rule.body[1], ClassAtom)
    assert rule.body[1].cls == NamedClass(iri(PROV + "Activity"))
    assert property_iri(rule.head[0].prop) == OBO + "BFO_0000066"
    assert rule.body[0].var1 == rule.head[0].var1


def test_no_rules_in_plain_graph():
    assert extract_swrl_rules(parse_turtle(HEADER + "ex:a ex:p ex:b .")) == []


def test_converse_rule():
    converse = """
    ex:x a swrl:Variable . ex:y a swrl:Variable .
    [] a swrl:Imp ;
       swrl:body ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate obo:BFO_0000066 ;
                     swrl:argument1 ex:x ; swrl:argument2 ex:y ]
                   [ a swrl:ClassAtom ; swrl:classPredicate prov:Location ; swrl:argument1 ex:y ] ) ;
       swrl:head ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate prov:atLocation ;
                     swrl:argument1 ex:x ; swrl:argument2 ex:y ] ) .
    """
    (rule,) = extract_swrl_rules(parse_turtle(HEADER + converse))
    assert property_iri(rule.body[0].prop) == OBO + "BFO_0000066"
    assert rule.body[1].cls == NamedClass(iri(PROV + "Location"))
    assert property_iri(rule.head[0].prop) == PROV + "atLocation"


def test_unsafe_rule_rejected():
    unsafe = """
    ex:x a swrl:Variable . ex:y a swrl:Variable . ex:z a swrl:Variable .
    [] a swrl:Imp ;
       swrl:body ( [ a swrl:ClassAtom ; swrl:classPredicate prov:Activity ; swrl:argument1 ex:x ] ) ;
       swrl:head ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate prov:atLocation ;
                     swrl:argument1 ex:x ; swrl:argument2 ex:z ] ) .
    """
    with pytest.raises(UnsafeRuleError):
        extract_swrl_rules(parse_turtle(HEADER + unsafe))


def test_builtin_atom_rejected():
    builtin = """
    ex:x a swrl:Variable .
    [] a swrl:Imp ;
       swrl:body ( [ a swrl:BuiltinAtom ; swrl:builtin ex:greaterThan ; swrl:arguments ( ex:x ) ] ) ;
       swrl:head ( [ a swrl:ClassAtom ; swrl:classPredicate prov:Activity ; swrl:argument1 ex:x ] ) .
    """
    with pytest.raises(UnsupportedAtomError):
        extract_swrl_rules(parse_turtle(HEADER + builtin))


# -- signature ----------------------------------------------------------------

def test_signature_excludes_builtins_and_filters(prov, bfo):
    sig = signature(prov)
    assert vocab.OWL_THING not in sig["classes"]
    assert all(not c.startswith(vocab.OWL) for c in sig["classes"])
    filtered = signature(prov, ["http://www.w3.org/ns/prov#"])
    assert filtered["classes"] == sig["classes"]  # prov-mini is pure PROV
    assert signature(bfo, ["http://www.w3.org/ns/prov#"])["classes"] == set()


def test_signature_of_prov_mini_counts(prov):
    sig = signature(prov)
    assert len(sig["classes"]) == 10
    assert len(sig["object_properties"]) == 11
    assert "http://www.w3.org/ns/prov#atTime" not in sig["object_properties"]


def test_fig9_individuals_in_signature():
    model = extract_axioms(parse_turtle(fixture_text("instances/fig9.ttl")))
    individuals = signature(model)["individuals"]
    assert "https://example.org/provalign/examples/protein#digestedProteinSample1" in individuals
    assert "https://example.org/provalign/examples/protein#proteinSample" in individuals


def test_signature_cache_matches_recomputation(prov):
    cached = prov.signature_sets()
    fresh = extract_axioms(parse_turtle(fixture_text("prov-mini.ttl"))).signature_sets()
    assert cached == fresh


def test_reading_a_signature_leaves_model_equality_alone():
    a, b = owl.OntologyModel(), owl.OntologyModel()
    assert a == b
    signature(a)
    assert a == b


def test_signature_monotone_under_axiom_addition(prov):
    extra = model_of("prov:NewThing a owl:Class ; rdfs:subClassOf prov:Entity .")
    merged = merge_models([prov, extra])
    before = signature(prov)
    after = signature(merged)
    for key in before:
        assert before[key] <= after[key]


# -- expression codec ----------------------------------------------------------

@pytest.mark.parametrize("expr", [
    NamedClass(iri("http://example.org/A")),
    Complement(NamedClass(iri("http://example.org/A"))),
    Intersection((NamedClass(iri("http://example.org/A")),
                  Complement(NamedClass(iri("http://example.org/B"))))),
    UnionOf((NamedClass(iri("http://example.org/A")), NamedClass(iri("http://example.org/B")))),
    DisjointUnionOf((NamedClass(iri("http://example.org/A")), NamedClass(iri("http://example.org/B")))),
    SomeValuesFrom(NamedProperty(iri("http://example.org/p")),
                   UnionOf((NamedClass(iri("http://example.org/A")),
                            NamedClass(iri("http://example.org/B"))))),
    SomeValuesFrom(InverseProperty(NamedProperty(iri("http://example.org/p"))),
                   NamedClass(iri("http://example.org/A"))),
])
def test_expression_encode_decode_round_trip(expr):
    g = Graph()
    node = encode_class_expression(g, expr)
    assert parse_class_expression(g, node) == expr


# -- interning -----------------------------------------------------------------

A, B = NamedClass(iri("http://example.org/A")), NamedClass(iri("http://example.org/B"))
P = NamedProperty(iri("http://example.org/p"))
ONE_OF_EACH = {
    "NamedClass(iri=<http://example.org/A>)": A,
    "Intersection(operands=(NamedClass(iri=<http://example.org/A>), NamedClass(iri=<http://example.org/B>)))":
        Intersection((A, B)),
    "UnionOf(operands=(NamedClass(iri=<http://example.org/A>), NamedClass(iri=<http://example.org/B>)))":
        UnionOf((A, B)),
    "DisjointUnionOf(operands=(NamedClass(iri=<http://example.org/A>), NamedClass(iri=<http://example.org/B>)))":
        DisjointUnionOf((A, B)),
    "Complement(operand=NamedClass(iri=<http://example.org/A>))": Complement(A),
    "SomeValuesFrom(prop=InverseProperty(operand=NamedProperty(iri=<http://example.org/p>)), "
    "filler=NamedClass(iri=<http://example.org/A>))": SomeValuesFrom(InverseProperty(P), A),
    "NamedProperty(iri=<http://example.org/p>)": P,
    "InverseProperty(operand=NamedProperty(iri=<http://example.org/p>))": InverseProperty(P),
}


def test_equal_expressions_are_one_object():
    assert NamedClass(iri("http://example.org/A")) is NamedClass(iri("http://example.org/A"))
    assert SomeValuesFrom(P, Intersection((A, B))) is SomeValuesFrom(P, Intersection((A, B)))
    assert Intersection((A, B)) is not Intersection((B, A))
    assert NamedClass(iri("http://example.org/p")) is not P


def test_equal_expressions_from_two_files_are_one_object():
    body = """
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty [ owl:inverseOf ex:p ] ;
                           owl:someValuesFrom [ a owl:Class ; owl:intersectionOf (ex:B [ owl:complementOf ex:C ]) ] ] .
    """
    first, second = model_of(body), model_of("ex:D a owl:Class .\n" + body)
    (sub1,), (sub2,) = axioms_of_kind(first, "sub-class-of"), axioms_of_kind(second, "sub-class-of")
    assert isinstance(sub1.args[1], SomeValuesFrom)
    assert sub1.args[1] is sub2.args[1]


@pytest.mark.parametrize("text,expr", ONE_OF_EACH.items())
def test_repr_is_unchanged(text, expr):
    assert repr(expr) == text


@pytest.mark.parametrize("expr", ONE_OF_EACH.values())
def test_pickle_and_copy_return_the_interned_object(expr):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(expr, protocol)) is expr
    assert copy.copy(expr) is expr
    assert copy.deepcopy(expr) is expr


@pytest.mark.parametrize("expr", ONE_OF_EACH.values())
def test_expressions_are_immutable(expr):
    with pytest.raises(FrozenInstanceError):
        expr.text = "changed"
    with pytest.raises(FrozenInstanceError):
        setattr(expr, expr.__match_args__[0], A)


def test_deep_restriction_renders_unchanged():
    expr = A
    for _ in range(128):
        expr = SomeValuesFrom(P, expr)
    expected = "(http://example.org/p some " * 128 + "http://example.org/A" + ")" * 128
    assert render_class_expression(expr) == expr.text == expected


def test_bulk_built_assertions_are_indistinguishable_from_constructed_ones(perfbench_requests):
    """Extraction builds ABox assertions through the Axiom slots; each must be
    what ``Axiom(kind, args)`` makes."""
    (trace,) = [p for p in perfbench_requests[1]["prov-trace"][0]["files"] if p.endswith("trace0.ttl")]
    count = 0
    for text in [*map(fixture_text, INSTANCE_NAMES), Path(trace).read_text(encoding="utf-8")]:
        for axiom in extract_axioms(parse_turtle(text)).axioms:
            if axiom.kind not in ("class-assertion", "property-assertion"):
                continue
            count += 1
            made = Axiom(axiom.kind, axiom.args)
            assert (axiom == made, hash(axiom) == hash(made), repr(axiom)) == (True, True, repr(made))
            assert axiom.annotations == ()
            with pytest.raises(FrozenInstanceError):
                axiom.kind = "sub-class-of"
            with pytest.raises(FrozenInstanceError):
                axiom.annotations = ()
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(axiom, protocol)) == made
            assert copy.copy(axiom) == made and copy.deepcopy(axiom) == made
    assert count > 3000
