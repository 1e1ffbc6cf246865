"""The load path: the Turtle segmenter's ASCII and wide patterns, and extraction that
decides plain triples per predicate, against the per-triple extractor it
replaced."""

import functools
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import owl, turtle, vocab
from provalign.fixtures import FIXTURE_NAMES, INSTANCE_NAMES, fixture_text
from provalign.owl import Axiom, NamedClass, NamedProperty, OwlError, extract_axioms
from provalign.rdf import (BlankNode, Graph, Iri, Literal, Triple, graph_isomorphic, iri, new_scope, term_sort_key,
                           triple_sort_key)
from provalign.turtle import parse_turtle

EX = "http://example.org/"
PROV = "http://www.w3.org/ns/prov#"


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

_REFERENCE_KIND = {
    vocab.OWL_EQUIVALENT_CLASS: "equivalent-classes",
    vocab.RDFS_SUBCLASSOF: "sub-class-of",
    vocab.OWL_DISJOINT_WITH: "disjoint-classes",
    vocab.OWL_EQUIVALENT_PROPERTY: "equivalent-properties",
    vocab.RDFS_SUBPROPERTYOF: "sub-property-of",
    vocab.OWL_INVERSE_OF: "inverse-properties",
    vocab.RDFS_DOMAIN: "property-domain",
    vocab.RDFS_RANGE: "property-range",
    vocab.OWL_PROPERTY_CHAIN: "property-chain",
}

_REFERENCE_DECLARATIONS = {
    vocab.OWL_CLASS: "class",
    vocab.RDFS + "Class": "class",
    vocab.OWL_OBJECT_PROPERTY: "object_property",
    vocab.OWL_DATATYPE_PROPERTY: "data_property",
    vocab.OWL_ANNOTATION_PROPERTY: "annotation_property",
    vocab.OWL_NAMED_INDIVIDUAL: "individual",
    vocab.RDF + "Property": "object_property",
}


class ReferenceExtractor(owl._Extractor):
    """Extraction as it was before plain triples were decided per predicate:
    every unconsumed triple, in triple order, through one decision. Statements,
    declarations and SWRL atoms are decoded kind by kind, not through the
    extractor's tables. The ontology-header, SWRL, reified-axiom and
    owl:AllDisjointClasses passes read the graph's triples themselves, and a
    statement that fails to decode gives back what it consumed through the
    reference's own ``_attempt``; the expression and list decoders are
    inherited."""

    def _attempt(self, decode, *args):
        """``decode(*args)``, or None, with the consumed triples as they were
        before, if it returns None or meets a construct outside the fragment:
        ``decode`` consumes into a set of its own, kept only on success."""
        before, self.consumed = self.consumed, set()
        try:
            result = decode(*args)
        except owl.UnsupportedExpressionError:
            result = None
        if result is not None:
            before |= self.consumed
        self.consumed = before
        return result

    def __init__(self, graph, source_label):
        super().__init__(graph, source_label)
        self.by_subject = {}  # each subject's triples, in triple order
        for t in sorted(graph.triples, key=triple_sort_key):
            self.by_subject.setdefault(t.subject, []).append(t)

    def _triples(self, node, predicate):
        return [t for t in self.by_subject.get(node, ()) if t.predicate.value == predicate]

    def _typed(self, rdf_type):
        return sorted({t.subject for t in self.graph.triples
                       if t.predicate.value == vocab.RDF_TYPE and t.object == iri(rdf_type)}, key=term_sort_key)

    def _first(self, node, predicate):
        """The object of ``node``'s first ``predicate`` triple, consumed, or None."""
        triples = self._triples(node, predicate)
        self.consumed.update(triples[:1])
        return triples[0].object if triples else None

    def _consume_types(self, node, rdf_type):
        typed = [t for t in self._triples(node, vocab.RDF_TYPE) if t.object == iri(rdf_type)]
        self.consumed.update(typed)
        return bool(typed)

    def _ontology_header(self):
        for node in self._typed(vocab.OWL_ONTOLOGY):
            self._consume_types(node, vocab.OWL_ONTOLOGY)
            if isinstance(node, Iri):
                self.model.ontology_iri = node.value
            versions = self._triples(node, vocab.OWL_VERSION_IRI)
            if versions and isinstance(versions[0].object, Iri):
                self.consumed.add(versions[0])
                self.model.version_iri = versions[0].object.value
            derived = [t for t in self._triples(node, vocab.PROV_WAS_DERIVED_FROM) if isinstance(t.object, Iri)]
            self.consumed.update(derived + self._triples(node, vocab.OWL_IMPORTS))
            self.model.derived_from = tuple(sorted(t.object.value for t in derived))

    def _swrl_rules(self):
        self.swrl_variables = set(self._typed(vocab.SWRL_VARIABLE))
        for var in self.swrl_variables:
            self._consume_types(var, vocab.SWRL_VARIABLE)
        for imp in self._typed(vocab.SWRL_IMP):
            self._consume_types(imp, vocab.SWRL_IMP)
            parts = []
            for slot in (vocab.SWRL_BODY, vocab.SWRL_HEAD):
                atoms = self._first(imp, slot)
                if atoms is None:
                    raise owl.MalformedExpressionError("swrl:Imp missing body or head")
                items = self.read_list(atoms, (vocab.SWRL_ATOM_LIST, vocab.RDF + "List"), "SWRL atom list")
                parts.append(tuple(self._reference_atom(x) for x in items))
            annotations = [t for t in self.by_subject[imp]
                           if t.predicate.value not in (vocab.RDF_TYPE, vocab.SWRL_BODY, vocab.SWRL_HEAD)]
            self.consumed.update(annotations)
            pairs = sorted({(t.predicate.value, t.object) for t in annotations},
                           key=lambda kv: (kv[0], term_sort_key(kv[1])))
            body, head = parts
            body_variables = {v for atom in body for v in _reference_variables(atom)}
            for atom in head:
                unsafe = set(_reference_variables(atom)) - body_variables
                if unsafe:
                    raise owl.UnsafeRuleError(f"head variable(s) {sorted(unsafe)} never occur in the rule body")
            self.model.rules.append(owl.SwrlRule(body, head, tuple(pairs)))

    def _reference_atom(self, node):
        if self._consume_types(node, vocab.SWRL_CLASS_ATOM):
            cls, arg1 = self._first(node, vocab.SWRL_CLASS_PREDICATE), self._first(node, vocab.SWRL_ARGUMENT1)
            if cls is None:
                raise owl.MalformedExpressionError("SWRL class atom missing classPredicate")
            return owl.ClassAtom(self.class_expression(cls), self._reference_variable(arg1))
        if self._consume_types(node, vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM):
            prop = self._first(node, vocab.SWRL_PROPERTY_PREDICATE)
            arg1, arg2 = self._first(node, vocab.SWRL_ARGUMENT1), self._first(node, vocab.SWRL_ARGUMENT2)
            if prop is None:
                raise owl.MalformedExpressionError("SWRL property atom missing propertyPredicate")
            return owl.PropertyAtom(self.property_expression(prop), self._reference_variable(arg1),
                                    self._reference_variable(arg2))
        types = sorted(t.object.value for t in self._triples(node, vocab.RDF_TYPE) if isinstance(t.object, Iri))
        raise owl.UnsupportedAtomError(
            f"unsupported SWRL atom type(s) {types}; only class and individual-property atoms are handled")

    def _reference_variable(self, term):
        if term is None or term not in self.swrl_variables:
            raise owl.UnsupportedAtomError("SWRL atom argument is not a declared swrl:Variable")
        return term.value if isinstance(term, Iri) else f"_:{term.node_id}"

    def _reified_axioms(self):
        for node in self._typed(vocab.OWL_AXIOM):
            axiom = self._attempt(self._reference_reified, node)
            if axiom is not None:
                self.add_axiom(axiom)

    def _reference_reified(self, node):
        self.consumed.update(t for t in self._triples(node, vocab.RDF_TYPE) if t.object == iri(vocab.OWL_AXIOM))
        parts = []
        for predicate in (vocab.OWL_ANNOTATED_SOURCE, vocab.OWL_ANNOTATED_PROPERTY, vocab.OWL_ANNOTATED_TARGET):
            triples = self._triples(node, predicate)
            self.consumed.update(triples[:1])
            parts.append(triples[0].object if triples else None)
        source, prop, target = parts
        if source is None or target is None or not isinstance(prop, Iri):
            return None
        axiom = self._decode_statement(source, prop.value, target)
        if axiom is None:
            return None
        annotations = [t for t in self.by_subject[node] if t.predicate.value not in (
            vocab.RDF_TYPE, vocab.OWL_ANNOTATED_SOURCE, vocab.OWL_ANNOTATED_PROPERTY, vocab.OWL_ANNOTATED_TARGET)]
        self.consumed.update(annotations)
        pairs = sorted({(t.predicate.value, t.object) for t in annotations},
                       key=lambda kv: (kv[0], term_sort_key(kv[1])))
        return Axiom(axiom.kind, axiom.args, tuple(pairs))

    def _all_disjoint_classes(self):
        for node in self._typed(vocab.OWL_ALL_DISJOINT_CLASSES):
            classes = self._attempt(self._reference_members, node) or []
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    self.add_axiom(Axiom("disjoint-classes", (a, b)))

    def _reference_members(self, node):
        self.consumed.update(t for t in self._triples(node, vocab.RDF_TYPE)
                             if t.object == iri(vocab.OWL_ALL_DISJOINT_CLASSES))
        members = self._triples(node, vocab.OWL_MEMBERS)
        if not members:
            return None
        self.consumed.add(members[0])
        return [self.class_expression(x) for x in self.read_list(members[0].object)]

    def _declarations(self):
        targets = {
            "class": self.model.declared_classes,
            "object_property": self.model.declared_object_properties,
            "data_property": self.model.declared_data_properties,
            "annotation_property": self.model.declared_annotation_properties,
            "individual": self.model.declared_individuals,
        }
        for t in self.graph.with_predicate(vocab.RDF_TYPE):
            if not isinstance(t.object, Iri):
                continue
            decl = _REFERENCE_DECLARATIONS.get(t.object.value)
            if decl is None:
                continue
            if isinstance(t.subject, Iri):
                targets[decl].add(t.subject.value)
            if decl != "data_property":
                self.consumed.add(t)

    def _decode_statement(self, s, p, o):
        kind = _REFERENCE_KIND.get(p)
        if p in vocab.SKOS_MAPPING_PREDICATES:
            return Axiom("skos-related", (p, s, o))
        if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
            return Axiom(kind, (self.class_expression(s), self.class_expression(o)))
        if kind in ("sub-property-of", "equivalent-properties", "inverse-properties"):
            return Axiom(kind, (self.property_expression(s), self.property_expression(o)))
        if kind in ("property-domain", "property-range"):
            return Axiom(kind, (self.property_expression(s), self.class_expression(o)))
        if kind == "property-chain":
            chain = tuple(self.property_expression(x) for x in self.read_list(o))
            if len(chain) < 2:
                raise owl.MalformedExpressionError("property chain needs at least two links")
            return Axiom("property-chain", (chain, self.property_expression(s)))
        return None

    def _plain_triples(self):
        for t in sorted(self.graph.triples - self.consumed, key=triple_sort_key):
            if t not in self.consumed and self._attempt(self._reference_triple, t.subject, t.predicate, t.object):
                self.consumed.add(t)
        return ()

    def _reference_triple(self, s, predicate, o):
        p = predicate.value
        if p == vocab.RDF_TYPE:
            return self._type_triple(s, o)
        if p == vocab.OWL_DISJOINT_UNION_OF and isinstance(s, Iri):
            ops = tuple(self.class_expression(x) for x in self.read_list(o))
            if len(ops) < 2:
                raise owl.MalformedExpressionError("owl:disjointUnionOf needs at least two operands")
            self.add_axiom(Axiom("disjoint-union", (NamedClass(s), ops)))
            return True
        if p == vocab.OWL_INVERSE_OF and isinstance(s, BlankNode):
            return False
        axiom = self._decode_statement(s, p, o)
        if axiom is not None:
            self.add_axiom(axiom)
            return True
        if p in owl._BENIGN_ANNOTATIONS or p in self.model.declared_annotation_properties:
            return True
        if owl._is_builtin(p):
            return False
        if isinstance(s, Literal):
            return False
        self.add_axiom(Axiom("property-assertion", (NamedProperty(predicate), s, o)))
        return True

    def _type_triple(self, s, o):
        if isinstance(o, Iri):
            if owl._is_builtin(o.value) and o.value not in (vocab.OWL_THING, vocab.OWL_NOTHING):
                return False
            self.add_axiom(Axiom("class-assertion", (s, NamedClass(o))))
            return True
        if isinstance(o, BlankNode):
            self.add_axiom(Axiom("class-assertion", (s, self.class_expression(o))))
            return True
        return False

    def _finish(self):
        self.model.axioms = sorted(self.axiom_index.values(), key=lambda a: repr((a.kind, a.args)))
        self.model.unmodeled = sorted(self.graph.triples - self.consumed, key=triple_sort_key)


def _reference_variables(atom):
    return (atom.var,) if isinstance(atom, owl.ClassAtom) else (atom.var1, atom.var2)


def _outcome(extractor):
    """Everything an extraction yields, or the type and message of its error."""
    try:
        m = extractor.run()
    except OwlError as exc:
        return type(exc), str(exc)
    return ([(a.kind, a.args, a.annotations) for a in m.axioms], [(r, r.annotations) for r in m.rules],
            m.unmodeled, m.declared_classes, m.declared_object_properties, m.declared_data_properties,
            m.declared_annotation_properties, m.declared_individuals, m.ontology_iri, m.version_iri,
            m.derived_from)


_NAMES = [iri(EX + n) for n in ("a", "b", "C", "D", "p", "q", "ann")]
_BUILTINS = [iri(v) for v in (vocab.OWL_THING, vocab.OWL_CLASS, vocab.OWL_RESTRICTION, vocab.OWL_AXIOM,
                              vocab.OWL_ANNOTATION_PROPERTY, vocab.OWL_DATATYPE_PROPERTY, vocab.RDF_NIL)]
_LITERALS = [Literal("x"), Literal("x", language="en"), Literal("1", datatype=vocab.XSD_INTEGER)]
_AXIOM_PREDICATES = [vocab.RDFS_SUBCLASSOF, vocab.OWL_EQUIVALENT_CLASS, vocab.OWL_DISJOINT_WITH,
                     vocab.RDFS_SUBPROPERTYOF, vocab.OWL_EQUIVALENT_PROPERTY, vocab.OWL_INVERSE_OF, vocab.RDFS_DOMAIN, vocab.RDFS_RANGE,
                     vocab.OWL_PROPERTY_CHAIN, vocab.OWL_DISJOINT_UNION_OF, vocab.SKOS + "exactMatch"]
_PREDICATES = _AXIOM_PREDICATES + [
    vocab.RDF_TYPE, vocab.RDF_TYPE, EX + "p", EX + "q", EX + "ann", vocab.RDFS_LABEL, vocab.RDFS_COMMENT,
    vocab.RDFS + "member", vocab.OWL_INTERSECTION_OF, vocab.OWL_UNION_OF, vocab.OWL_COMPLEMENT_OF,
    vocab.OWL_ON_PROPERTY, vocab.OWL_SOME_VALUES_FROM, vocab.RDF_FIRST, vocab.RDF_REST]


_REIFIED_PARTS = {"type": vocab.RDF_TYPE, "source": vocab.OWL_ANNOTATED_SOURCE,
                  "property": vocab.OWL_ANNOTATED_PROPERTY, "target": vocab.OWL_ANNOTATED_TARGET}
# Annotations of a reified axiom; the last is a second annotatedSource, which is no annotation.
_REIFIED_ANNOTATIONS = [(vocab.RDFS_COMMENT, Literal("why")), (vocab.RDFS_LABEL, Literal("x", language="en")),
                        (EX + "ann", iri(EX + "a")), (vocab.OWL_ANNOTATED_SOURCE, iri(EX + "b"))]
# Annotations of a rule; the last is a second swrl:body, which is no annotation
# (a literal, so it sorts after the rule's own body and is not the one read).
_RULE_ANNOTATIONS = [(vocab.RDFS_COMMENT, Literal("why")), (EX + "ann", iri(EX + "a")),
                     (vocab.SWRL_BODY, Literal("x"))]
# The faults that a rule may carry, each in one of its atoms or slots; most rules carry none.
_RULE_FAULTS = [None] * 8 + ["undeclared", "no-argument", "no-predicate", "unsupported", "untyped",
                             "no-body", "no-head", "unsafe"]
_HEADER_OBJECTS = {vocab.OWL_VERSION_IRI: [iri(EX + "v1"), iri(EX + "v2"), Literal("1.0")],
                   vocab.PROV_WAS_DERIVED_FROM: [iri(EX + "src"), iri(EX + "src2"), Literal("src")],
                   vocab.OWL_IMPORTS: [iri(EX + "imp"), Literal("imp")]}


def _atom_arguments(kind, var1, var2):
    return [var1] if kind == "class" else [var1, var2]


@st.composite
def _graphs(draw):
    """Assertions with IRI, blank and literal objects, statements that one axiom
    makes twice, reified axioms that may be complete, incomplete or annotated,
    owl:AllDisjointClasses whose member lists may repeat a class, lack or cut
    a cell, or loop, blank-node class expressions, lists that may be cut short
    or loop, declarations, ontology headers, SWRL rules that may be annotated
    or carry a fault, and random triples over one small vocabulary."""
    scope = new_scope()
    nodes = [BlankNode(f"n{i}", scope) for i in range(5)]
    cells = [BlankNode(f"l{i}", scope) for i in range(5)]
    fresh = (BlankNode(f"s{i}", scope) for i in itertools.count())
    variables = [iri(EX + "x"), BlankNode("v0", scope), BlankNode("v1", scope)]
    subjects = st.sampled_from(_NAMES + nodes + cells)
    objects = st.sampled_from(_NAMES + _BUILTINS + nodes + cells + _LITERALS)
    classes = st.sampled_from(_NAMES[:4] + nodes + [iri(vocab.OWL_THING)])
    graph = Graph()

    def add(s, p, o):
        graph.add(Triple(s, iri(p), o))

    def rdf_list(start, items, end):
        """The cells from ``cells[start]`` on holding ``items``; the last one's
        rdf:rest is missing ("cut"), loops back to the first ("loop") or is
        rdf:nil, and with "no-first" it lacks its rdf:first."""
        chain = [cells[(start + i) % len(cells)] for i in range(len(items))]
        for i, (cell, item) in enumerate(zip(chain, items)):
            if end != "no-first" or i + 1 < len(chain):
                add(cell, vocab.RDF_FIRST, item)
            if i + 1 < len(chain):
                add(cell, vocab.RDF_REST, chain[i + 1])
            elif end != "cut":
                add(cell, vocab.RDF_REST, chain[0] if end == "loop" else iri(vocab.RDF_NIL))
        return chain[0] if chain else iri(vocab.RDF_NIL)

    def swrl_rule(imp, body, head, fault, at, annotations, typed_cells):
        """A swrl:Imp (``imp``, which other rules may share, or a fresh node)
        over fresh atom nodes and cells, with ``fault`` in the atom at ``at``,
        or in a slot; a head variable that the body does not use is made one
        that it does, unless the fault is "unsafe"."""
        safe = [v for kind, _, _, *pair in body for v in _atom_arguments(kind, *pair)]
        head = [(kind, c, p, *[v if v in safe or fault == "unsafe" else safe[0] for v in pair])
                for kind, c, p, *pair in head]
        atoms = []
        for k, (kind, c, p, *pair) in enumerate(body + head):
            node, faulty = next(fresh), k == at % (len(body) + len(head))
            atom_type = {"class": vocab.SWRL_CLASS_ATOM, "property": vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM}[kind]
            if faulty and fault == "unsupported":
                atom_type = vocab.SWRL + "BuiltinAtom"
            if not (faulty and fault == "untyped"):
                add(node, vocab.RDF_TYPE, iri(atom_type))
            if not (faulty and fault == "no-predicate"):
                if kind == "class":
                    add(node, vocab.SWRL_CLASS_PREDICATE, c)
                else:
                    add(node, vocab.SWRL_PROPERTY_PREDICATE, p)
            arguments = _atom_arguments(kind, *pair)
            if faulty and fault == "undeclared":
                arguments[0] = iri(EX + "u")
            # With "no-argument" the atom lacks its last argument.
            for predicate, value in zip((vocab.SWRL_ARGUMENT1, vocab.SWRL_ARGUMENT2),
                                        arguments[:-1] if faulty and fault == "no-argument" else arguments):
                add(node, predicate, value)
            atoms.append(node)
        for v in variables:
            add(v, vocab.RDF_TYPE, iri(vocab.SWRL_VARIABLE))
        imp = imp or next(fresh)
        add(imp, vocab.RDF_TYPE, iri(vocab.SWRL_IMP))
        for slot, items in ((vocab.SWRL_BODY, atoms[:len(body)]), (vocab.SWRL_HEAD, atoms[len(body):])):
            if fault != ("no-body" if slot == vocab.SWRL_BODY else "no-head"):
                chain = [next(fresh) for _ in items]
                for cell, item, rest in zip(chain, items, chain[1:] + [iri(vocab.RDF_NIL)]):
                    add(cell, vocab.RDF_FIRST, item)
                    add(cell, vocab.RDF_REST, rest)
                    if typed_cells:
                        add(cell, vocab.RDF_TYPE, iri(vocab.SWRL_ATOM_LIST))
                add(imp, slot, chain[0] if chain else iri(vocab.RDF_NIL))
        for predicate, value in annotations:
            add(imp, predicate, value)

    atom = st.tuples(st.sampled_from(["class", "property"]), st.sampled_from(_NAMES[2:4] * 2 + nodes[:1]),
                     st.sampled_from(_NAMES[4:6] * 3 + nodes[:1]),
                     st.sampled_from(variables), st.sampled_from(variables))
    assertions = st.tuples(st.just("triple"), subjects, st.sampled_from([EX + "p", EX + "q", vocab.RDF_TYPE]),
                           st.sampled_from(_NAMES + nodes + _LITERALS))
    pieces = st.one_of(
        assertions, assertions, assertions,
        st.tuples(st.just("triple"), subjects, st.sampled_from(_PREDICATES), objects),
        st.tuples(st.just("list"), st.integers(0, 4), st.lists(classes, max_size=3),
                  st.sampled_from(["nil", "nil", "cut", "loop"])),
        st.tuples(st.just("expression"), st.sampled_from(nodes),
                  st.sampled_from([vocab.OWL_INTERSECTION_OF, vocab.OWL_UNION_OF]), st.sampled_from(cells)),
        st.tuples(st.just("expression"), st.sampled_from(nodes),
                  st.sampled_from([vocab.OWL_COMPLEMENT_OF, vocab.OWL_SOME_VALUES_FROM]), classes),
        st.tuples(st.just("reified"), st.sampled_from(nodes), st.sampled_from(_NAMES) | subjects,
                  st.sampled_from(_AXIOM_PREDICATES + [EX + "p"]).map(iri) | st.sampled_from(nodes + _LITERALS),
                  st.sampled_from(_NAMES) | objects,
                  st.one_of(st.just(frozenset()), st.just(frozenset()),
                            st.frozensets(st.sampled_from(list(_REIFIED_PARTS)), min_size=1)),
                  st.lists(st.sampled_from(_REIFIED_ANNOTATIONS), max_size=3), st.booleans()),
        st.tuples(st.just("all-disjoint"), st.sampled_from(nodes), st.integers(0, 4), st.lists(classes, max_size=4),
                  st.sampled_from(["nil", "nil", "nil", "cut", "loop", "no-first", "no-members"])),
        st.tuples(st.just("declare"), st.sampled_from(_NAMES),
                  st.sampled_from([vocab.OWL_ANNOTATION_PROPERTY, vocab.OWL_CLASS, vocab.OWL_OBJECT_PROPERTY,
                                   vocab.OWL_DATATYPE_PROPERTY, vocab.OWL_NAMED_INDIVIDUAL,
                                   vocab.RDFS + "Class", vocab.RDF + "Property"])),
        st.tuples(st.just("header"), st.sampled_from([iri(EX + "ont"), iri(EX + "ont2"), nodes[0]]),
                  *(st.lists(st.sampled_from(values), max_size=2) for values in _HEADER_OBJECTS.values())),
        st.tuples(st.just("rule"), st.sampled_from([None] * 5 + [iri(EX + "r")]),
                  st.lists(atom, min_size=1, max_size=3), st.lists(atom, min_size=1, max_size=2),
                  st.sampled_from(_RULE_FAULTS), st.integers(0, 4),
                  st.lists(st.sampled_from(_RULE_ANNOTATIONS), max_size=2), st.booleans()),
    )
    for piece in draw(st.lists(pieces, max_size=20)):
        kind, *args = piece
        if kind == "triple":
            add(*args)
        elif kind == "list":
            rdf_list(*args)
        elif kind == "expression":
            node, p, operand = args
            if p == vocab.OWL_SOME_VALUES_FROM:
                add(node, vocab.OWL_ON_PROPERTY, _NAMES[4])
            add(node, p, operand)
            add(node, vocab.RDF_TYPE, iri(vocab.OWL_CLASS))
        elif kind == "reified":
            node, s, p, o, missing, annotations, plain = args
            for part, value in zip(_REIFIED_PARTS, (iri(vocab.OWL_AXIOM), s, p, o)):
                if part not in missing:
                    add(node, _REIFIED_PARTS[part], value)
            for predicate, value in annotations:
                add(node, predicate, value)
            if plain and isinstance(p, Iri) and not isinstance(s, Literal):
                add(s, p.value, o)  # the same axiom, stated plainly too
        elif kind == "all-disjoint":
            node, start, items, end = args
            add(node, vocab.RDF_TYPE, iri(vocab.OWL_ALL_DISJOINT_CLASSES))
            if end != "no-members":
                add(node, vocab.OWL_MEMBERS, rdf_list(start, items, end))
        elif kind == "declare":
            add(args[0], vocab.RDF_TYPE, iri(args[1]))
        elif kind == "header":
            subject, *objects = args
            add(subject, vocab.RDF_TYPE, iri(vocab.OWL_ONTOLOGY))
            for predicate, values in zip(_HEADER_OBJECTS, objects):
                for value in values:
                    add(subject, predicate, value)
        else:
            swrl_rule(*args)
    return graph


@settings(max_examples=400, deadline=None)
@given(_graphs())
def test_extraction_matches_the_per_triple_reference(graph):
    extractor = owl._Extractor(graph, "g")
    assert _outcome(extractor) == _outcome(ReferenceExtractor(graph, "g"))
    own = {t: t for t in graph}
    assert all(own.get(t) is t for t in extractor.consumed)  # the graph's own objects, never rebuilt


def test_an_assertion_made_twice_is_one_axiom():
    """A class assertion of ex:C and of a one-operand intersection of ex:C are
    one axiom, whichever path decides each."""
    graph = parse_turtle(f"""@prefix owl: <{vocab.OWL}> . @prefix ex: <{EX}> .
        ex:a a ex:C , [ owl:intersectionOf ( ex:C ) ] ; ex:p ex:b , "x" .""")
    outcome = _outcome(owl._Extractor(graph, "g"))
    assert outcome == _outcome(ReferenceExtractor(graph, "g"))
    assert [kind for kind, _, _ in outcome[0]] == ["class-assertion", "property-assertion", "property-assertion"]


@pytest.mark.parametrize("name", FIXTURE_NAMES + INSTANCE_NAMES)
def test_fixture_extraction_matches_the_reference(name):
    graph = parse_turtle(fixture_text(name))
    assert _outcome(owl._Extractor(graph, "g")) == _outcome(ReferenceExtractor(graph, "g"))


def _input_files(perfbench_requests):
    return sorted({path for workloads in perfbench_requests.values() for requests in workloads.values()
                   for request in requests for path in request["files"]})


def test_perfbench_extraction_matches_the_reference(perfbench_requests):
    for path in _input_files(perfbench_requests):
        graph = parse_turtle(Path(path).read_text(encoding="utf-8"))
        assert _outcome(owl._Extractor(graph, "g")) == _outcome(ReferenceExtractor(graph, "g")), path


def test_a_pure_abox_is_decided_per_predicate(monkeypatch, perfbench_requests):
    """A workflow trace holds assertions only: no triple takes the one-by-one
    path, each predicate is classified once and each rdf:type object once."""
    (path,) = [p for p in perfbench_requests[1]["prov-trace"][0]["files"] if p.endswith("trace0.ttl")]
    graph = parse_turtle(Path(path).read_text(encoding="utf-8"))
    entered, classified = [], Counter()
    plain, classify = owl._Extractor._plain_triple, owl._Extractor._classify
    monkeypatch.setattr(owl._Extractor, "_plain_triple", lambda self, *args: entered.append(args) or plain(self, *args))
    monkeypatch.setattr(owl._Extractor, "_classify",
                        lambda self, p, o: classified.update([(p, o)]) or classify(self, p, o))
    model = extract_axioms(graph)
    assert entered == [] and set(classified.values()) == {1}
    types = {t.object for t in graph.with_predicate(vocab.RDF_TYPE)}
    assert {p for p, _ in classified} == set(graph.predicates())
    assert len(classified) == len(graph.predicates()) - 1 + len(types)
    assert len(model.axioms) == len(graph) > 3000 and model.unmodeled == []


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def _tokens(pattern, text):
    """The segmenter's lexemes of ``text`` from one findall, and each token's
    span from a match where the last one ended."""
    lexemes, spans, pos = pattern.findall(text), [], 0
    for _ in lexemes:
        m = pattern.match(text, pos)
        spans.append(m.span(1))
        pos = m.end()
    assert [text[start:end] for start, end in spans] == lexemes and spans[-1] == (len(text), len(text))
    return lexemes, spans


@pytest.mark.parametrize("name", FIXTURE_NAMES + INSTANCE_NAMES)
def test_ascii_and_wide_patterns_tokenize_fixtures_alike(name):
    text = fixture_text(name)
    assert text.isascii()
    assert _tokens(turtle._segment_re(True), text) == _tokens(turtle._segment_re(False), text)


def test_ascii_and_wide_patterns_tokenize_perfbench_inputs_alike(perfbench_requests):
    for path in _input_files(perfbench_requests):
        text = Path(path).read_text(encoding="utf-8")
        assert text.isascii()
        assert _tokens(turtle._segment_re(True), text) == _tokens(turtle._segment_re(False), text), path


_TURTLE_PIECES = ["@prefix", "@base", "PREFIX", "a", "true", "ex:", ":", "ex:a.b", "ex:a.", "_:b1", "<", ">",
                  "<http://x/y>", "<a\\u0041>", '"', "'", '"""', "'''", "\\", "\\n", "%41", "%4", "1", "-1.5",
                  ".5e3", "+2E-1", "@en-GB", "^^", "[", "]", "(", ")", ".", ";", ",", "#", "\n", " ", "\t",
                  "{", "}", "<<", "x-y", "x_y", "Z9"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TURTLE_PIECES) | st.text(st.characters(max_codepoint=127), max_size=3),
                max_size=30).map("".join))
def test_ascii_and_wide_patterns_match_alike_at_every_offset(text):
    ascii_re, wide_re = turtle._segment_re(True), turtle._segment_re(False)
    for pos in range(len(text) + 1):
        assert ascii_re.match(text, pos).span(1) == wide_re.match(text, pos).span(1)
    assert ascii_re.findall(text) == wide_re.findall(text)


# The skip prefix from when a comment ended at U+000A only; on text without a
# bare U+000D it skips exactly what ``turtle._SKIP`` skips.
_LF_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_lf_segment_re = functools.cache(
    lambda ascii: turtle._compile(_LF_SKIP + turtle._SEGMENT_SOURCE[len(turtle._SKIP):], ascii))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TURTLE_PIECES + ["\r", "\r\n", "# c", "#\r\n"])
                | st.text(st.characters(max_codepoint=127), max_size=3), max_size=30).map("".join))
def test_comments_cut_the_same_lexemes_as_before_without_a_bare_carriage_return(text):
    text = re.sub("\r(?!\n)", "\r\n", text)
    for ascii in (True, False):
        assert turtle._segment_re(ascii).findall(text) == _lf_segment_re(ascii).findall(text)


def _non_ascii_document():
    text = fixture_text("prov-mini.ttl")
    wide = re.sub(r"prov:Entity\b", "prov:Entité", text)
    assert wide != text and not wide.isascii()
    return text, wide


def test_a_fixture_with_a_non_ascii_name_parses_through_the_wide_pattern(monkeypatch):
    text, wide = _non_ascii_document()
    # The ASCII pattern would cut the name short.
    assert _tokens(turtle._segment_re(True), wide) != _tokens(turtle._segment_re(False), wide)
    chosen, segment_re = [], turtle._segment_re
    monkeypatch.setattr(turtle, "_segment_re", lambda ascii: chosen.append(ascii) or segment_re(ascii))
    graph = parse_turtle(wide)
    assert chosen == [False]
    renamed = {iri(PROV + "Entity"): iri(PROV + "Entité")}
    expected = Graph()
    for t in parse_turtle(text).triples:
        expected.add(Triple(renamed.get(t.subject, t.subject), t.predicate, renamed.get(t.object, t.object)))
    assert graph_isomorphic(graph, expected)


def test_a_first_non_ascii_parse_compiles_one_wide_pattern(monkeypatch):
    _, wide = _non_ascii_document()
    compiled, compile_ = [], re.compile
    monkeypatch.setattr(re, "compile", lambda source, flags=0: compiled.append((source, flags)) or compile_(source, flags))
    # As in a new process: no segmenter compiled yet.
    monkeypatch.setattr(turtle, "_segment_re", functools.cache(turtle._segment_re.__wrapped__))
    parse_turtle(wide)
    parse_turtle(wide)
    assert compiled == [(turtle._SEGMENT_SOURCE, 0)]
