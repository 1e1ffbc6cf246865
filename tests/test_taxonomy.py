"""The taxonomy view against the pair sets it replaced.

Conservativity and materialize used to compare and filter whole sets of
entailed (sub, super) pairs. The reference functions below are that pair-set
code, kept as the oracle for the masked queries on ``Taxonomy.above``.
"""

import random

import pytest

from provalign import vocab
from provalign.alignment import _group, extract_mappings
from provalign.checks import alignment_axiom_model, check_conservativity
from provalign.cli import _cross_pairs
from provalign.owl import (
    NOTHING,
    THING,
    Axiom,
    InverseProperty,
    NamedClass,
    NamedProperty,
    OntologyModel,
    merged_signature,
)
from provalign.rdf import iri
from provalign.reasoner import TBoxIndex, entailed_taxonomy

S, T, X = "http://s.example/", "http://t.example/", "http://x.example/"


def _reference_taxonomy(models):
    """Sub-class, equivalent-class, sub-property and equivalent-property pairs,
    built eagerly from the schema index's own queries."""
    tbox = TBoxIndex(list(models))
    named = {ce for ce in tbox.universe if isinstance(ce, NamedClass) and ce not in (THING, NOTHING)}
    sub_class = {(c.iri.value, sup.iri.value) for c in named for sup in named.intersection(tbox.supers(c))}
    sub_prop = {(name, sup) for name in tbox._prop_names for sup in tbox.named_prop_supers(name)}

    def mutual(pairs):
        return {tuple(sorted((a, b))) for a, b in pairs if (b, a) in pairs}

    return sub_class, mutual(sub_class), sub_prop, mutual(sub_prop)


def _reference_conservativity(o1, o2, alignment):
    """New subsumptions and equivalences, as set differences of pair sets."""
    merged = _reference_taxonomy([o1, *o2, alignment_axiom_model(alignment)])
    new_subs, new_equivs = [], []
    for label, side in (("o1", [o1]), ("o2", list(o2))):
        if not side:
            continue
        own = _reference_taxonomy(side)
        sig = merged_signature(side)
        names = sig["classes"] | sig["object_properties"]
        for a, b in sorted((merged[1] | merged[3]) - (own[1] | own[3])):
            if a in names and b in names:
                new_equivs.append((a, b, label))
        members = {tuple(sorted((a, b))) for a, b, _ in new_equivs}
        for a, b in sorted((merged[0] | merged[2]) - (own[0] | own[2])):
            if a in names and b in names and tuple(sorted((a, b))) not in members:
                new_subs.append((a, b, label))
    return new_subs, new_equivs


def _reference_cross_pairs(models, source_ns, target_ns):
    """materialize's pairs: all pairs in output order, then the cross-group ones."""
    sub_class, eq_class, sub_prop, eq_prop = _reference_taxonomy(models)
    pairs = [(vocab.OWL_EQUIVALENT_CLASS, a, b, "equivalent-class") for a, b in sorted(eq_class)]
    pairs += [(vocab.OWL_EQUIVALENT_PROPERTY, a, b, "equivalent-property") for a, b in sorted(eq_prop)]
    pairs += [(vocab.RDFS_SUBCLASSOF, a, b, "sub-class-of") for a, b in sorted(sub_class)
              if tuple(sorted((a, b))) not in eq_class]
    pairs += [(vocab.RDFS_SUBPROPERTYOF, a, b, "sub-property-of") for a, b in sorted(sub_prop)
              if tuple(sorted((a, b))) not in eq_prop]
    groups = [(_group(a, source_ns, target_ns), _group(b, source_ns, target_ns)) for _, a, b, _ in pairs]
    return [pair for pair, (ga, gb) in zip(pairs, groups) if ga is not None and gb is not None and ga != gb]


_KINDS = ("sub-class-of", "equivalent-classes", "sub-property-of", "equivalent-properties",
          "inverse-properties")


def _axioms(rng, left, right, count):
    """``count`` random axioms from a name of ``left`` to one of ``right``. An IRI
    can be a class in one axiom and a property in another, so the two
    hierarchies over it cross; a property side is sometimes an inverse."""
    out = []
    for _ in range(count):
        kind, a, b = rng.choice(_KINDS), rng.choice(left), rng.choice(right)
        if a == b:
            continue
        if "class" in kind:
            out.append(Axiom(kind, (NamedClass(iri(a)), NamedClass(iri(b)))))
        else:
            q = NamedProperty(iri(b))
            out.append(Axiom(kind, (NamedProperty(iri(a)), InverseProperty(q) if rng.random() < 0.2 else q)))
    return out


def _random_stack(rng):
    src = [f"{S}a{i}" for i in range(rng.randrange(2, 5))]
    tgt = [f"{T}b{i}" for i in range(rng.randrange(2, 5))] + [f"{X}c0", f"{X}c1"]
    o1 = OntologyModel(axioms=_axioms(rng, src, src, rng.randrange(0, 10)))
    o2 = [OntologyModel(axioms=_axioms(rng, tgt, tgt, rng.randrange(0, 6))) for _ in range(rng.randrange(1, 3))]
    cross = _axioms(rng, src, tgt, rng.randrange(1, 10)) + _axioms(rng, tgt, src, rng.randrange(1, 10))
    alignment = extract_mappings(OntologyModel(axioms=cross), [S], [T])
    return o1, o2, alignment


def _punned_stack():
    # a0 and a1 are classes and properties. The side has a0 <= a1 as classes and
    # a0 == a1 <= a2 as properties; the alignment closes the class loop and a
    # property loop through b0. The class equivalence of a0 and a1 is held by
    # the side as a property one, so only a2's equivalences are new.
    a0, a1, b0 = NamedClass(iri(S + "a0")), NamedClass(iri(S + "a1")), NamedClass(iri(T + "b0"))
    o1 = OntologyModel(axioms=[
        Axiom("sub-class-of", (a0, a1)),
        Axiom("equivalent-properties", (NamedProperty(iri(S + "a0")), NamedProperty(iri(S + "a1")))),
        Axiom("sub-property-of", (NamedProperty(iri(S + "a1")), NamedProperty(iri(S + "a2"))))])
    o2 = [OntologyModel(axioms=[Axiom("sub-class-of", (b0, NamedClass(iri(T + "b1"))))])]
    cross = [Axiom("sub-class-of", (a1, b0)), Axiom("sub-class-of", (b0, a0)),
             Axiom("sub-property-of", (NamedProperty(iri(S + "a2")), NamedProperty(iri(T + "b0")))),
             Axiom("sub-property-of", (NamedProperty(iri(T + "b0")), NamedProperty(iri(S + "a1"))))]
    return o1, o2, extract_mappings(OntologyModel(axioms=cross), [S], [T])


def _stacks():
    rng = random.Random(20261019)
    yield _punned_stack()
    for _ in range(300):
        yield _random_stack(rng)


def test_a_class_equivalence_held_as_a_property_one_is_not_new():
    report = check_conservativity(*_punned_stack())
    assert (S + "a0", S + "a1", "o1") not in report.new_equivalences
    assert (S + "a1", S + "a0", "o1") not in report.new_subsumptions
    assert (S + "a0", S + "a2", "o1") in report.new_equivalences


def test_taxonomy_pairs_match_the_eager_pair_sets():
    for trial, (o1, o2, alignment) in enumerate(_stacks()):
        models = [o1, *o2, alignment_axiom_model(alignment)]
        tax = entailed_taxonomy(models)
        actual = (tax.subclass_pairs, tax.equivalent_class_pairs,
                  tax.subproperty_pairs, tax.equivalent_property_pairs)
        assert actual == _reference_taxonomy(models), f"stack {trial}"


def test_the_merge_holds_each_sides_pairs():
    # check_conservativity reads only the names whose count of signature names
    # above them differs between the merge and a side. Equal counts mean equal
    # sets only while the merge holds each of the side's pairs, kind by kind:
    # the closure must stay monotone.
    for trial, (o1, o2, alignment) in enumerate(_stacks()):
        merged = _reference_taxonomy([o1, *o2, alignment_axiom_model(alignment)])
        for side in ([o1], o2):
            sig = merged_signature(side)
            names = sig["classes"] | sig["object_properties"]
            for kind, pairs in enumerate(_reference_taxonomy(side)):
                own = {(a, b) for a, b in pairs if a in names and b in names}
                assert own <= merged[kind], f"stack {trial}, kind {kind}"


def test_conservativity_matches_the_pair_set_reference():
    for trial, (o1, o2, alignment) in enumerate(_stacks()):
        report = check_conservativity(o1, o2, alignment)
        expected = _reference_conservativity(o1, o2, alignment)
        assert (report.new_subsumptions, report.new_equivalences) == expected, f"stack {trial}"


@pytest.mark.parametrize("source_ns,target_ns", [([S], [T]), ([T], [S, X])])
def test_materialize_pairs_match_the_pair_set_reference(source_ns, target_ns):
    for trial, (o1, o2, alignment) in enumerate(_stacks()):
        models = [o1, *o2, alignment_axiom_model(alignment)]
        expected = _reference_cross_pairs(models, source_ns, target_ns)
        assert _cross_pairs(entailed_taxonomy(models), source_ns, target_ns) == expected, f"stack {trial}"
