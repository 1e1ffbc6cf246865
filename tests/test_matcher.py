from typing import Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import vocab
from provalign.alignment import extract_mappings
from provalign.fixtures import SOURCE_NAMESPACES, TARGET_NAMESPACES
from provalign.matcher import (
    UnknownPropertyError,
    _pick,
    _resolve_domain_range,
    _translations,
    effective_domain_range,
    suggest_property_mappings,
)
from provalign.owl import (
    Axiom,
    Intersection,
    InverseProperty,
    NamedClass,
    NamedProperty,
    OntologyModel,
    THING,
    extract_axioms,
)
from provalign.rdf import iri
from provalign.reasoner import TBoxIndex
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix obo: <http://purl.obolibrary.org/obo/> .
@prefix ex: <http://example.org/> .
"""

PROV = "http://www.w3.org/ns/prov#"
CCO = "https://www.commoncoreontologies.org/"
EX = "http://example.org/"
OBO = "http://purl.obolibrary.org/obo/"


def model_of(body):
    return extract_axioms(parse_turtle(HEADER + body))


def test_undeclared_property_defaults_to_thing():
    models = [model_of("ex:p a owl:ObjectProperty .")]
    dom, rng = effective_domain_range(EX + "p", models)
    assert dom == NamedClass(iri(vocab.OWL_THING))
    assert rng == NamedClass(iri(vocab.OWL_THING))


def test_declared_domain_range(prov):
    dom, rng = effective_domain_range(PROV + "generated", [prov])
    assert dom == NamedClass(iri(PROV + "Activity"))
    assert rng == NamedClass(iri(PROV + "Entity"))


def test_inherited_domain_range_one_edge(prov):
    # walk one subproperty edge: a fresh subproperty of prov:generated
    extra = model_of("ex:specifically_generated rdfs:subPropertyOf prov:generated ;"
                     " a owl:ObjectProperty .")
    models = [prov, extra]
    dom, rng = effective_domain_range(EX + "specifically_generated", models)
    assert dom == NamedClass(iri(PROV + "Activity"))
    assert rng == NamedClass(iri(PROV + "Entity"))


def test_inverse_swaps_pair():
    models = [model_of("""
    ex:p a owl:ObjectProperty ; rdfs:domain ex:C ; rdfs:range ex:D .
    ex:q a owl:ObjectProperty ; owl:inverseOf ex:p .
    """)]
    dom, rng = effective_domain_range(EX + "q", models)
    assert dom == NamedClass(iri(EX + "D"))
    assert rng == NamedClass(iri(EX + "C"))


def test_nearest_declaring_ancestor_wins():
    models = [model_of("""
    ex:p a owl:ObjectProperty ; rdfs:subPropertyOf ex:q .
    ex:q a owl:ObjectProperty ; rdfs:subPropertyOf ex:r ; rdfs:domain ex:Near .
    ex:r a owl:ObjectProperty ; rdfs:domain ex:Far ; rdfs:range ex:FarRange .
    """)]
    dom, rng = effective_domain_range(EX + "p", models)
    assert dom == NamedClass(iri(EX + "Near"))
    assert rng == NamedClass(iri(EX + "FarRange"))  # two levels up


def test_subproperty_cycle_terminates():
    models = [model_of("""
    ex:p a owl:ObjectProperty ; rdfs:subPropertyOf ex:q .
    ex:q a owl:ObjectProperty ; rdfs:subPropertyOf ex:p ; rdfs:range ex:D .
    """)]
    dom, rng = effective_domain_range(EX + "p", models)
    assert dom == NamedClass(iri(vocab.OWL_THING))
    assert rng == NamedClass(iri(EX + "D"))


def test_equivalent_property_shares_domain_range():
    # p == q entails p's domain and range are q's; the index's property edges
    # hold equivalences, so the undeclared side inherits them.
    models = [model_of("""
    ex:p a owl:ObjectProperty ; owl:equivalentProperty ex:q .
    ex:q a owl:ObjectProperty ; rdfs:domain ex:C ; rdfs:range ex:D .
    """)]
    dom, rng = effective_domain_range(EX + "p", models)
    assert dom == NamedClass(iri(EX + "C"))
    assert rng == NamedClass(iri(EX + "D"))


def recursive_domain_range(prop, tbox):
    """The recursive resolution that the matcher's explicit stack replaces."""
    def resolve(name: str, slot: int, visited: Set[str]) -> Optional[object]:
        if name in visited:
            return None
        visited.add(name)
        declared = _pick((tbox.domains if slot == 0 else tbox.ranges).get(name, ()))
        if declared is not None:
            return declared
        supers = sorted(q for q, inverted in tbox.prop_edges.get((name, False), ()) if not inverted)
        for sup in supers:
            found = resolve(sup, slot, visited)
            if found is not None:
                return found
        for inv in sorted(tbox.inverse_pairs.get(name, ())):
            found = resolve(inv, 1 - slot, visited)
            if found is not None:
                return found
        return None

    return resolve(prop, 0, set()) or THING, resolve(prop, 1, set()) or THING


_NAMES = [EX + f"p{k}" for k in range(6)]
_prop = st.builds(lambda k: NamedProperty(iri(_NAMES[k])), st.integers(0, 5))
_some_prop = st.one_of(_prop, _prop.map(InverseProperty))
_class = st.builds(lambda k: NamedClass(iri(EX + f"C{k}")), st.integers(0, 3))
_axiom = st.one_of(
    st.builds(lambda a, b: Axiom("sub-property-of", (a, b)), _prop, _prop),
    st.builds(lambda a, b: Axiom("sub-property-of", (a, b)), _some_prop, _some_prop),
    st.builds(lambda a, b: Axiom("equivalent-properties", (a, b)), _prop, _prop),
    st.builds(lambda a, b: Axiom("inverse-properties", (a, b)), _some_prop, _some_prop),
    st.builds(lambda p, c: Axiom("property-domain", (p, c)), _some_prop, _class),
    st.builds(lambda p, c: Axiom("property-range", (p, c)), _some_prop, _class),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_axiom, max_size=14))
def test_resolution_matches_the_recursive_walk(axioms):
    tbox = TBoxIndex([OntologyModel(axioms=axioms)])
    for name in _NAMES:
        assert _resolve_domain_range(name, tbox) == recursive_domain_range(name, tbox)


def test_unknown_property_raises(prov):
    with pytest.raises(UnknownPropertyError):
        effective_domain_range(EX + "nope", [prov])


def test_three_candidates_for_generated(prov, cco, bfo, alignment):
    result = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    assert [c.prop for c in result.candidates] == [
        CCO + "affects", CCO + "has_input", CCO + "has_output"]
    assert any("inverse" in note for note in result.notes)


def test_candidates_pass_independent_recheck(prov, cco, bfo, alignment):
    result = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    targets = [cco, bfo]
    seeds = model_of("")
    from provalign.owl import Axiom
    for c in result.candidates:
        for translated, _ in (c.domain_match, c.range_match):
            seeds.axioms.append(Axiom("class-assertion", (iri(EX + "probe"), translated)))
    tbox = TBoxIndex(targets + [seeds])
    for c in result.candidates:
        for translated, candidate_side in (c.domain_match, c.range_match):
            ok = tbox.subsumed(translated, candidate_side)
            if not ok and isinstance(translated, Intersection):
                ok = any(tbox.subsumed(op, candidate_side) for op in translated.operands)
            assert ok, c.prop


def test_unmapped_domain_reports_and_returns_empty(prov, cco, bfo):
    no_mappings = extract_mappings(model_of(""), SOURCE_NAMESPACES, TARGET_NAMESPACES)
    result = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], no_mappings)
    assert result.candidates == []
    assert any("unmapped-domain-or-range" in note for note in result.notes)


def test_target_without_object_properties(prov, alignment):
    empty_target = model_of("ex:OnlyAClass a owl:Class .")
    result = suggest_property_mappings(PROV + "generated", prov, [empty_target], alignment)
    assert result.candidates == []


def test_suggestions_deterministic_and_duplicate_free(prov, cco, bfo, alignment):
    a = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    b = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    props_a = [c.prop for c in a.candidates]
    assert props_a == [c.prop for c in b.candidates]
    assert len(props_a) == len(set(props_a))


def test_enlarging_targets_never_drops_candidates(prov, cco, bfo, ro, alignment):
    small = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    extra = model_of("""
    ex:produces a owl:ObjectProperty ; rdfs:domain obo:BFO_0000015 ; rdfs:range obo:BFO_0000002 .
    """)
    large = suggest_property_mappings(PROV + "generated", prov, [cco, bfo, extra], alignment)
    assert {c.prop for c in small.candidates} <= {c.prop for c in large.candidates}
    assert EX + "produces" in {c.prop for c in large.candidates}


def test_exact_match_sorts_first(prov, alignment):
    # one property matching the translated domain/range exactly, one wider
    target = model_of("""
    ex:Exact a owl:ObjectProperty ;
        rdfs:domain obo:BFO_0000015 ;
        rdfs:range [ owl:unionOf (
            [ owl:intersectionOf ( obo:BFO_0000004 [ owl:complementOf obo:BFO_0000006 ] ) ]
            obo:BFO_0000031 obo:BFO_0000020 ) ] .
    ex:Wider a owl:ObjectProperty ;
        rdfs:domain obo:BFO_0000003 ;
        rdfs:range obo:BFO_0000002 .
    obo:BFO_0000015 rdfs:subClassOf obo:BFO_0000003 .
    obo:BFO_0000004 rdfs:subClassOf obo:BFO_0000002 .
    obo:BFO_0000031 rdfs:subClassOf obo:BFO_0000002 .
    obo:BFO_0000020 rdfs:subClassOf obo:BFO_0000002 .
    """)
    result = suggest_property_mappings(PROV + "generated", prov, [target], alignment)
    kinds = {c.prop: c.match_kind for c in result.candidates}
    assert kinds[EX + "Exact"] == "exact"
    assert kinds[EX + "Wider"] == "inherited"
    assert result.candidates[0].prop == EX + "Exact"


def test_property_without_domain_or_range_accepts_any_class(prov, cco, bfo, ro, alignment):
    result = suggest_property_mappings(PROV + "generated", prov, [cco, bfo, ro], alignment)
    kinds = {c.prop: c.match_kind for c in result.candidates}
    for unrestricted in ("RO_0002410", "RO_0002559"):
        assert kinds[OBO + unrestricted] == "inherited"
        cand = next(c for c in result.candidates if c.prop == OBO + unrestricted)
        assert cand.domain_match[1] == cand.range_match[1] == NamedClass(iri(vocab.OWL_THING))
    without_ro = suggest_property_mappings(PROV + "generated", prov, [cco, bfo], alignment)
    assert {c.prop for c in without_ro.candidates} < set(kinds)


def test_an_unmapped_class_translates_to_every_mapped_ancestors_mappings():
    # Not only the nearest: s:C below s:B below s:A, with s:B and s:A mapped,
    # translates to both targets.
    prefixes = HEADER + "@prefix s: <http://example.org/s#> .\n@prefix t: <http://example.org/t#> .\n"
    source = extract_axioms(parse_turtle(prefixes + "s:C rdfs:subClassOf s:B . s:B rdfs:subClassOf s:A ."))
    mappings = extract_axioms(parse_turtle(prefixes + "s:B owl:equivalentClass t:B . s:A owl:equivalentClass t:A ."))
    alignment = extract_mappings(mappings, ["http://example.org/s#"], ["http://example.org/t#"])
    found = _translations("http://example.org/s#C", TBoxIndex([source]), alignment)
    assert found == [NamedClass(iri("http://example.org/t#A")), NamedClass(iri("http://example.org/t#B"))]
