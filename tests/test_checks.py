from provalign.alignment import extract_mappings
from provalign.checks import (
    alignment_stats,
    check_coherence,
    check_conservativity,
    check_consistency,
    check_totality,
    count_individuals,
    report_text,
)
from provalign.fixtures import SOURCE_NAMESPACES, TARGET_NAMESPACES, load_model
from provalign.owl import OntologyModel, extract_axioms
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix obo: <http://purl.obolibrary.org/obo/> .
@prefix mirror: <https://example.org/mirror#> .
@prefix ex: <http://example.org/> .
"""

PROV = "http://www.w3.org/ns/prov#"


def model_of(body):
    return extract_axioms(parse_turtle(HEADER + body))


def empty_alignment():
    return extract_mappings(model_of(""), SOURCE_NAMESPACES, TARGET_NAMESPACES)


# -- totality ---------------------------------------------------------------------

def test_empty_alignment_lists_every_source_term(prov):
    report = check_totality(prov, [], empty_alignment())
    assert report.mapped_count == 0
    assert len(report.unmapped) == report.source_total == 21
    assert {c for _, c in report.unmapped} == {"class", "object-property"}


def test_full_alignment_credits_everything(prov, targets, alignment):
    report = check_totality(prov, targets, alignment)
    assert report.unmapped == []
    assert report.mapped_count == report.source_total == 21
    assert report.credit_trace[PROV + "Start"].kind == "via-superterm"
    assert report.credit_trace[PROV + "atLocation"].kind == "via-rule"
    assert report.credit_trace[PROV + "generated"].kind == "via-inverse"


def test_start_credited_through_instantaneous_event(prov, targets):
    partial = model_of("prov:InstantaneousEvent owl:equivalentClass obo:BFO_0000035 .")
    alignment = extract_mappings(partial, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    report = check_totality(prov, targets, alignment)
    entry = report.credit_trace[PROV + "Start"]
    assert entry.kind == "via-superterm"
    assert entry.witness == PROV + "InstantaneousEvent"


def test_skos_gives_no_credit(prov, targets):
    skos_only = model_of(
        "prov:qualifiedGeneration <http://www.w3.org/2004/02/skos/core#relatedMatch> obo:RO_x .")
    alignment = extract_mappings(skos_only, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    assert alignment.mappings[0].predicate == "skos-related"
    report = check_totality(prov, targets, alignment)
    assert (PROV + "qualifiedGeneration", "object-property") in report.unmapped


def test_identity_alignment_over_renamed_twin():
    source = model_of("""
    ex:A a owl:Class . ex:B a owl:Class ; rdfs:subClassOf ex:A .
    ex:p a owl:ObjectProperty .
    """)
    twin = model_of("""
    ex:A owl:equivalentClass mirror:A .
    ex:B owl:equivalentClass mirror:B .
    ex:p owl:equivalentProperty mirror:p .
    """)
    alignment = extract_mappings(twin, ["http://example.org/"], ["https://example.org/mirror#"])
    report = check_totality(source, [], alignment)
    assert report.unmapped == []
    assert all(e.kind == "direct" for e in report.credit_trace.values())
    stats = alignment_stats(alignment, report)
    assert stats["counts"]["equivalence_coverage"] == 1.0


def test_removing_one_simple_mapping_unmaps_only_dependents(prov, targets, align_model):
    full = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    baseline = check_totality(prov, targets, full)
    assert baseline.unmapped == []
    for victim in list(full.simple_mappings()):
        reduced = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
        reduced.mappings.remove(victim)
        report = check_totality(prov, targets, reduced)
        # dependents = the victim's own source term plus terms whose credit
        # path ran through it; everything else must stay credited
        newly_unmapped = {t for t, _ in report.unmapped}
        for term in newly_unmapped:
            entry = baseline.credit_trace[term]
            assert entry.kind in ("direct", "via-superterm", "via-inverse"), (victim, term)


def test_removing_the_only_mapping_of_a_leaf_property(prov, targets, align_model):
    full = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    victim = next(m for m in full.simple_mappings()
                  if getattr(m.subject, "iri", None) == iri_of(PROV + "wasAttributedTo"))
    reduced = extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)
    reduced.mappings.remove(victim)
    report = check_totality(prov, targets, reduced)
    assert {t for t, _ in report.unmapped} == {PROV + "wasAttributedTo"}


def iri_of(value):
    from provalign.rdf import iri
    return iri(value)


# -- coherence ----------------------------------------------------------------------

def test_plan_fixture_unsatisfiable(bfo):
    plan = load_model("align-plan-incoherent.ttl")
    report = check_coherence([bfo, plan])
    assert report.unsatisfiable == [PROV + "Plan"]
    assert report.as_dict()["status"] == "fail"


def test_full_stack_coherent(full_stack):
    report = check_coherence(full_stack)
    assert report.unsatisfiable == []
    assert report.undetermined == []
    assert report.probed >= 25
    assert report.as_dict()["status"] == "pass"


def test_empty_ontology_coherent():
    report = check_coherence([OntologyModel()])
    assert report.unsatisfiable == [] and report.probed == 0


def test_unsatisfiable_in_input_still_reported_after_alignment_added(bfo, cco, ro, align_model):
    plan = load_model("align-plan-incoherent.ttl")
    alone = check_coherence([bfo, plan])
    merged = check_coherence([bfo, cco, ro, align_model, plan])
    assert set(alone.unsatisfiable) <= set(merged.unsatisfiable)


# -- consistency --------------------------------------------------------------------

def test_fig9_one_clash_with_alignment(full_stack):
    inst = load_model("instances/fig9.ttl")
    report = check_consistency(full_stack, inst)
    assert len(report.clashes) == 1
    assert report.clashes[0].individual.value.endswith("digestedProteinSample1")
    assert report.instance_count == 6


def test_corrected_variants_are_clash_free(full_stack):
    for name in ("instances/fig10.ttl", "instances/fig12.ttl"):
        report = check_consistency(full_stack, load_model(name))
        assert report.clashes == [], name


def test_example4_inconsistent_without_alignment(prov):
    report = check_consistency([prov], load_model("instances/example4.ttl"))
    assert len(report.clashes) == 1
    doc = report.as_dict()
    assert doc["status"] == "fail"
    {p for p in doc["findings"][0]["participants"]} == {PROV + "Entity", PROV + "Activity"}


def test_revision_inconsistent_without_alignment(prov):
    report = check_consistency([prov], load_model("instances/revision.ttl"))
    assert len(report.clashes) == 1


def test_instance_count_counts_blank_nodes():
    inst = load_model("instances/fig7.ttl")
    assert count_individuals(inst) == 5  # four named plus the derivation node


def test_singleton_probe_agrees_with_satisfiability(bfo):
    # if a ground singleton of class C clashes, class_satisfiable(C) is false
    from provalign.owl import NamedClass
    from provalign.rdf import iri as mk
    from provalign.reasoner import class_satisfiable
    plan = load_model("align-plan-incoherent.ttl")
    abox = extract_axioms(parse_turtle(HEADER + "ex:probe a prov:Plan ."))
    report = check_consistency([bfo, plan], abox)
    assert report.clashes
    assert class_satisfiable([bfo, plan], NamedClass(mk(PROV + "Plan"))) is False


# -- conservativity -------------------------------------------------------------------

def test_counterexample_yields_exactly_agent_under_entity(bfo):
    tiny = load_model("prov-tiny.ttl")
    cx = extract_mappings(load_model("align-counterexample.ttl"),
                          SOURCE_NAMESPACES, TARGET_NAMESPACES)
    report = check_conservativity(tiny, [bfo], cx)
    assert report.new_subsumptions == [(PROV + "Agent", PROV + "Entity", "o1")]
    assert report.new_equivalences == []
    assert report.as_dict()["status"] == "fail"


def test_empty_alignment_conservative(prov, targets):
    report = check_conservativity(prov, targets, empty_alignment())
    assert report.new_subsumptions == [] and report.new_equivalences == []


def test_paper_alignment_conservative_both_sides(prov, targets, alignment):
    report = check_conservativity(prov, targets, alignment)
    assert report.new_subsumptions == []
    assert report.new_equivalences == []
    # the alignment does entail new disjointness between source terms
    assert report.new_disjointness_count == 25
    assert report.as_dict()["status"] == "pass"


def test_self_merge_with_empty_alignment_is_empty(prov):
    report = check_conservativity(prov, [prov], empty_alignment())
    assert report.new_subsumptions == [] and report.new_equivalences == []
    assert report.new_disjointness_count == 0


# -- stats ---------------------------------------------------------------------------

def test_stats_empty_alignment():
    stats = alignment_stats(empty_alignment())
    assert stats["counts"]["mappings"] == 0
    assert stats["counts"]["simple"] == 0
    assert stats["counts"]["equivalence_coverage"] == 0.0


def test_stats_counts_recount(alignment, prov, targets):
    stats = alignment_stats(alignment, check_totality(prov, targets, alignment))
    counts = stats["counts"]
    per = counts["per_predicate"]
    assert counts["simple"] == per.get("equivalent-class", 0) + per.get("equivalent-property", 0) \
        + per.get("sub-class-of", 0) + per.get("sub-property-of", 0)
    assert counts["complex"] == per.get("swrl-rule", 0) + per.get("property-chain", 0)
    assert sum(per.values()) == counts["mappings"]


def test_report_text_is_stable(prov, targets, alignment):
    doc = check_totality(prov, targets, alignment).as_dict()
    assert report_text(doc) == report_text(doc)
    assert report_text(doc).startswith("check: totality\nstatus: pass\n")
