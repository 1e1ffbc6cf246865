"""Bottom-up coherence probing with upward pruning against probing every class."""

import pytest

from provalign import checks
from provalign.checks import check_coherence
from provalign.fixtures import load_model
from provalign.owl import Axiom, NamedClass, OntologyModel, extract_axioms, merged_signature
from provalign.rdf import Iri, iri
from provalign.reasoner import FactCapExceededError, TBoxIndex, class_satisfiable
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/tree#> .
"""
EX = "http://example.org/tree#"


def probe_every_class(models, fact_cap=1_000_000):
    """(unsatisfiable, undetermined, probed) with one probe per named class."""
    classes = sorted(merged_signature(models)["classes"])
    seed = OntologyModel(axioms=[Axiom("class-assertion", (Iri("urn:probe:individual"),
                                                           NamedClass(iri(c)))) for c in classes])
    tbox = TBoxIndex(list(models) + [seed])
    unsat, undetermined = [], []
    for c in classes:
        try:
            if not class_satisfiable(models, NamedClass(iri(c)), fact_cap=fact_cap, tbox=tbox):
                unsat.append(c)
        except FactCapExceededError as exc:
            undetermined.append((c, str(exc)))
    return unsat, undetermined, len(classes)


def tree_model():
    """Two disjoint roots, each over a 3-ary tree of depth 3, where every leaf
    has an existential. The filler F3 is below both roots, so the leaves that
    need an F3 witness clash; Cross is below a leaf of each root, and
    BelowCross is below Cross."""
    lines = ["ex:R0 owl:disjointWith ex:R1 ."]
    leaves = {}
    for root in ("R0", "R1"):
        level = [root]
        for depth in range(3):
            level = [f"{parent}_{k}" for parent in level for k in range(3)]
            for child in level:
                lines.append(f"ex:{child} rdfs:subClassOf ex:{child.rsplit('_', 1)[0]} .")
        leaves[root] = level
        for n, leaf in enumerate(level):
            lines.append(f"ex:{leaf} rdfs:subClassOf [ a owl:Restriction ; "
                         f"owl:onProperty ex:p ; owl:someValuesFrom ex:F{n % 4} ] .")
    lines.append("ex:F3 rdfs:subClassOf ex:R0 , ex:R1 .")
    lines.append(f"ex:Cross rdfs:subClassOf ex:{leaves['R0'][4]} , ex:{leaves['R1'][7]} .")
    lines.append("ex:BelowCross rdfs:subClassOf ex:Cross .")
    return extract_axioms(parse_turtle(HEADER + "\n".join(lines)))


def assert_same_as_probing_every_class(models, fact_cap=1_000_000):
    report = check_coherence(models, fact_cap=fact_cap)
    unsat, undetermined, probed = probe_every_class(models, fact_cap)
    assert report.unsatisfiable == unsat
    assert report.undetermined == undetermined
    assert report.probed == probed
    return report


@pytest.mark.parametrize("names", [
    ["prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl"],
    ["bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-plan-incoherent.ttl"],
    ["prov-tiny.ttl", "bfo-mini.ttl", "align-counterexample.ttl"],
])
@pytest.mark.parametrize("fact_cap", [1_000_000, 25, 6])
def test_pruned_coherence_matches_probing_every_class_on_fixtures(names, fact_cap):
    assert_same_as_probing_every_class([load_model(name) for name in names], fact_cap)


def test_pruned_coherence_on_tree_finds_planted_clashes_with_fewer_probes(monkeypatch):
    models = [tree_model()]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return class_satisfiable(*args, **kwargs)

    monkeypatch.setattr(checks, "class_satisfiable", counted)
    report = assert_same_as_probing_every_class(models)
    assert {EX + "Cross", EX + "BelowCross", EX + "F3"} <= set(report.unsatisfiable)
    assert EX + "R0" not in report.unsatisfiable
    assert report.undetermined == []
    assert len(calls) < report.probed
    assert len(set(calls)) == len(calls)


def test_pruned_coherence_on_tree_keeps_undetermined_subclasses():
    # Under this cap the planted classes' own probes abort while the leaf
    # above them is decided; pruning runs upward only, so they stay undetermined.
    report = assert_same_as_probing_every_class([tree_model()], fact_cap=12)
    assert [c for c, _ in report.undetermined] == [EX + "BelowCross", EX + "Cross"]
    assert EX + "R0_0_1_1" not in report.unsatisfiable
    assert report.unsatisfiable
