"""The one walk over axiom and expression shapes (``owl.add_uses``,
``owl.add_names`` and ``owl.add_subexpressions``) against per-kind dispatchers
kept here as the reference: for the signature, the names that
``extract_mappings`` checks for spanning, ``count_individuals`` and the
``TBoxIndex`` universe. Also a nest deeper than the recursion limit."""

from typing import List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import vocab
from provalign.alignment import _names
from provalign.checks import count_individuals
from provalign.owl import (
    Axiom,
    ClassAtom,
    ClassExpression,
    Complement,
    DisjointUnionOf,
    Intersection,
    InverseProperty,
    NamedClass,
    NamedProperty,
    OntologyModel,
    PropertyAtom,
    PropertyExpression,
    SomeValuesFrom,
    SwrlRule,
    THING,
    UnionOf,
    add_subexpressions,
    property_name,
    signature,
)
from provalign.rdf import BlankNode, Iri, Literal, Term, iri
from provalign.reasoner import TBoxIndex

S, T = "http://example.org/s#", "http://example.org/t#"


# -- reference: one dispatcher per consumer, each switching on the axiom kind ----

def reference_expression_names(ce: ClassExpression) -> Set[str]:
    out: Set[str] = set()
    stack: List[ClassExpression] = [ce]
    while stack:
        e = stack.pop()
        if isinstance(e, NamedClass):
            out.add(e.iri.value)
        elif isinstance(e, (Intersection, UnionOf, DisjointUnionOf)):
            stack.extend(e.operands)
        elif isinstance(e, Complement):
            stack.append(e.operand)
        elif isinstance(e, SomeValuesFrom):
            out.add(property_name(e.prop))
            stack.append(e.filler)
    return out


def reference_signature(model: OntologyModel):
    classes: Set[str] = set(model.declared_classes)
    props: Set[str] = set(model.declared_object_properties)
    individuals: Set[str] = set(model.declared_individuals)

    def add_ce(ce):
        stack = [ce]
        while stack:
            e = stack.pop()
            if isinstance(e, NamedClass):
                classes.add(e.iri.value)
            elif isinstance(e, (Intersection, UnionOf, DisjointUnionOf)):
                stack.extend(e.operands)
            elif isinstance(e, Complement):
                stack.append(e.operand)
            elif isinstance(e, SomeValuesFrom):
                add_pe(e.prop)
                stack.append(e.filler)

    def add_pe(pe):
        props.add(property_name(pe))

    def add_individual(term):
        if isinstance(term, Iri):
            individuals.add(term.value)

    for ax in model.axioms:
        kind, args = ax.kind, ax.args
        if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
            add_ce(args[0])
            add_ce(args[1])
        elif kind == "disjoint-union":
            add_ce(args[0])
            for op in args[1]:
                add_ce(op)
        elif kind in ("sub-property-of", "equivalent-properties", "inverse-properties"):
            add_pe(args[0])
            add_pe(args[1])
        elif kind in ("property-domain", "property-range"):
            add_pe(args[0])
            add_ce(args[1])
        elif kind == "property-chain":
            for pe in args[0]:
                add_pe(pe)
            add_pe(args[1])
        elif kind == "class-assertion":
            add_individual(args[0])
            add_ce(args[1])
        elif kind == "property-assertion":
            add_pe(args[0])
            add_individual(args[1])
            add_individual(args[2])
    for rule in model.rules:
        for atom in rule.body + rule.head:
            if isinstance(atom, ClassAtom):
                add_ce(atom.cls)
            else:
                add_pe(atom.prop)

    def builtin(value):
        return value.startswith(vocab.BUILTIN_NAMESPACES) or value in (vocab.OWL_THING, vocab.OWL_NOTHING)

    props -= model.declared_data_properties
    props -= model.declared_annotation_properties
    return {"classes": {c for c in classes if not builtin(c)},
            "object_properties": {p for p in props if not builtin(p)},
            "individuals": {i for i in individuals if not builtin(i)}}


def reference_axiom_names(ax: Axiom) -> Set[str]:
    kind, args = ax.kind, ax.args
    names: Set[str] = set()
    if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
        names |= reference_expression_names(args[0]) | reference_expression_names(args[1])
    elif kind == "disjoint-union":
        names |= reference_expression_names(args[0])
        for op in args[1]:
            names |= reference_expression_names(op)
    elif kind in ("sub-property-of", "equivalent-properties", "inverse-properties"):
        names.update((property_name(args[0]), property_name(args[1])))
    elif kind in ("property-domain", "property-range"):
        names.add(property_name(args[0]))
        names |= reference_expression_names(args[1])
    elif kind == "property-chain":
        names.update(property_name(pe) for pe in args[0] + (args[1],))
    elif kind == "skos-related":
        names.update(t.value for t in (args[1], args[2]) if isinstance(t, Iri))
    return names


def reference_rule_names(rule: SwrlRule) -> Set[str]:
    names: Set[str] = set()
    for atom in rule.body + rule.head:
        if isinstance(atom, ClassAtom):
            names |= reference_expression_names(atom.cls)
        else:
            names.add(property_name(atom.prop))
    return names


def reference_count_individuals(abox: OntologyModel) -> int:
    individuals: Set[Term] = set()
    for ax in abox.axioms:
        if ax.kind == "class-assertion":
            individuals.add(ax.args[0])
        elif ax.kind == "property-assertion":
            individuals.add(ax.args[1])
            if not isinstance(ax.args[2], Literal):
                individuals.add(ax.args[2])
    individuals.update(Iri(name) for name in abox.declared_individuals)
    return len(individuals)


def reference_subexpressions(ce: ClassExpression):
    yield ce
    if isinstance(ce, (Intersection, UnionOf, DisjointUnionOf)):
        for op in ce.operands:
            yield from reference_subexpressions(op)
    elif isinstance(ce, Complement):
        yield from reference_subexpressions(ce.operand)
    elif isinstance(ce, SomeValuesFrom):
        yield from reference_subexpressions(ce.filler)


def reference_universe(model: OntologyModel) -> Set[ClassExpression]:
    seen: List[ClassExpression] = [THING, *(NamedClass(iri(c)) for c in model.declared_classes)]
    for ax in model.axioms:
        kind, args = ax.kind, ax.args
        if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
            seen += args
        elif kind == "disjoint-union":
            seen += [args[0], DisjointUnionOf(args[1])]
        elif kind in ("property-domain", "property-range", "class-assertion"):
            seen.append(args[1])
    seen += [atom.cls for rule in model.rules for atom in rule.body + rule.head if isinstance(atom, ClassAtom)]
    return {sub for ce in seen for sub in reference_subexpressions(ce)}


# -- generated models ----------------------------------------------------------

names = st.sampled_from([S + "a", S + "b", T + "a", T + "c", vocab.OWL_THING, vocab.RDFS + "Resource"])
named_classes = names.map(lambda n: NamedClass(iri(n)))
named_props = st.sampled_from([S + "p", T + "q", T + "r", vocab.OWL + "topObjectProperty"]).map(
    lambda n: NamedProperty(iri(n)))
props: st.SearchStrategy[PropertyExpression] = st.one_of(named_props, named_props.map(InverseProperty))


def operands(ces):
    return st.lists(ces, min_size=2, max_size=3).map(tuple)


classes: st.SearchStrategy[ClassExpression] = st.recursive(
    named_classes,
    lambda ces: st.one_of(operands(ces).map(Intersection), operands(ces).map(UnionOf),
                          operands(ces).map(DisjointUnionOf), ces.map(Complement),
                          st.builds(SomeValuesFrom, props, ces)),
    max_leaves=8)
individuals = st.one_of(names.map(iri), st.sampled_from(["b0", "b1"]).map(lambda n: BlankNode(n, 0)))
objects = st.one_of(individuals, st.sampled_from(["1", "x"]).map(Literal))
skos_terms = st.one_of(names.map(iri), st.just(Literal("label")))


def axiom(kind, *args):
    return st.tuples(*args).map(lambda a: Axiom(kind, a))


axioms = st.one_of(
    *[axiom(k, classes, classes) for k in ("sub-class-of", "equivalent-classes", "disjoint-classes")],
    axiom("disjoint-union", named_classes, operands(classes)),
    *[axiom(k, props, props) for k in ("sub-property-of", "equivalent-properties", "inverse-properties")],
    *[axiom(k, props, classes) for k in ("property-domain", "property-range")],
    axiom("property-chain", st.lists(props, min_size=2, max_size=3).map(tuple), props),
    axiom("class-assertion", individuals, classes),
    axiom("property-assertion", named_props, individuals, objects),
    axiom("skos-related", st.sampled_from(sorted(vocab.SKOS_MAPPING_PREDICATES)), skos_terms, skos_terms),
)
variables = st.sampled_from(["x", "y"])
atoms = st.one_of(st.builds(ClassAtom, classes, variables), st.builds(PropertyAtom, props, variables, variables))
rules = st.builds(SwrlRule, st.lists(atoms, min_size=1, max_size=3).map(tuple),
                  st.lists(atoms, min_size=1, max_size=2).map(tuple))
name_sets = st.sets(st.sampled_from([S + "a", S + "p", T + "q", T + "c", S + "i"]), max_size=3)


@st.composite
def models(draw):
    model = OntologyModel(axioms=draw(st.lists(axioms, max_size=12)), rules=draw(st.lists(rules, max_size=3)))
    for slot in ("declared_classes", "declared_object_properties", "declared_data_properties",
                 "declared_annotation_properties", "declared_individuals"):
        setattr(model, slot, draw(name_sets))
    return model


@settings(max_examples=300, deadline=None)
@given(models())
def test_walk_matches_the_per_kind_dispatchers(model):
    assert signature(model) == reference_signature(model)
    assert signature(model, (S,)) == {k: {t for t in v if t.startswith(S)}
                                      for k, v in reference_signature(model).items()}
    assert count_individuals(model) == reference_count_individuals(model)
    assert TBoxIndex([model]).universe == reference_universe(model)
    for ax in model.axioms:
        if ax.kind not in ("class-assertion", "property-assertion"):  # extract_mappings skips these
            assert _names(ax) == reference_axiom_names(ax), ax
    for rule in model.rules:
        assert _names(rule) == reference_rule_names(rule)


def test_add_subexpressions_collects_every_nested_expression():
    a, b, c = (NamedClass(iri(S + n)) for n in "abc")
    some = SomeValuesFrom(NamedProperty(iri(S + "p")), Complement(c))
    nested = Intersection((a, UnionOf((b, some))))
    into: Set[ClassExpression] = set()
    add_subexpressions([nested, some], into)
    assert into == {nested, a, UnionOf((b, some)), b, some, Complement(c), c}
    add_subexpressions([DisjointUnionOf((some, a))], into)  # only the union is new
    assert len(into) == 8


def test_deep_api_expression_indexes():
    # 1,500 levels is past the default recursion limit of 1,000; the extractor
    # stops at 128, so only the API builds expressions this deep.
    p, filler = NamedProperty(iri("urn:p")), NamedClass(iri("urn:c"))
    deep = filler
    for _ in range(1500):
        deep = SomeValuesFrom(p, deep)
    top = NamedClass(iri("urn:a"))
    model = OntologyModel(axioms=[Axiom("sub-class-of", (top, deep))])
    tbox = TBoxIndex([model])
    assert len(tbox.universe) == 1500 + 3  # the nest, urn:c, urn:a and owl:Thing
    assert tbox.subsumed(top, deep)
    assert signature(model) == {"classes": {"urn:a", "urn:c"}, "object_properties": {"urn:p"},
                                "individuals": set()}
    assert _names(model.axioms[0]) == {"urn:a", "urn:c", "urn:p"}
