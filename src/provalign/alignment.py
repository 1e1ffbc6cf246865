"""Alignments: sets of annotated cross-ontology mappings.

A mapping is a statement relating a term (or expression) from one namespace
group to a term of the other, with provenance annotations. Mappings are
extracted from reified OWL axioms, plain axiom triples, SWRL rules, and
property chains; SKOS mapping triples are carried as metadata with no
logical force. Simple mappings export to SSSOM-style CSV rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from . import vocab
from .owl import (
    Axiom,
    ClassAtom,
    ClassExpression,
    DisjointUnionOf,
    OntologyModel,
    PropertyExpression,
    SwrlRule,
    add_names,
    add_uses,
    _Encoder,
)
from .rdf import Graph, Iri, Literal, Term, iri, new_scope


class AlignmentError(Exception):
    pass


class NamespaceOverlapError(AlignmentError):
    """Source and target namespace groups share a prefix."""


class UnsupportedPredicateError(AlignmentError):
    """serialize_mapping cannot encode this mapping predicate."""


# The mapping relation types, and the subset that exports to tabular rows.
EQUIVALENT_CLASS = "equivalent-class"
EQUIVALENT_PROPERTY = "equivalent-property"
SUB_CLASS_OF = "sub-class-of"
SUB_PROPERTY_OF = "sub-property-of"
PROPERTY_CHAIN = "property-chain"
SWRL_RULE = "swrl-rule"
SKOS_RELATED = "skos-related"

SIMPLE_PREDICATES = (EQUIVALENT_CLASS, EQUIVALENT_PROPERTY, SUB_CLASS_OF, SUB_PROPERTY_OF)
COMPLEX_PREDICATES = (SWRL_RULE, PROPERTY_CHAIN)

DEFAULT_JUSTIFICATION = "manual mapping curation"

# The axiom kinds (and rules) that are mappings when they span both groups.
_MAPPING_PREDICATE = {
    "equivalent-classes": EQUIVALENT_CLASS,
    "disjoint-union": EQUIVALENT_CLASS,
    "sub-class-of": SUB_CLASS_OF,
    "equivalent-properties": EQUIVALENT_PROPERTY,
    "sub-property-of": SUB_PROPERTY_OF,
    "property-chain": PROPERTY_CHAIN,
    SWRL_RULE: SWRL_RULE,
    "skos-related": SKOS_RELATED,
}

_PREDICATE_IRI = {
    EQUIVALENT_CLASS: vocab.OWL_EQUIVALENT_CLASS,
    EQUIVALENT_PROPERTY: vocab.OWL_EQUIVALENT_PROPERTY,
    SUB_CLASS_OF: vocab.RDFS_SUBCLASSOF,
    SUB_PROPERTY_OF: vocab.RDFS_SUBPROPERTYOF,
}

MappingSide = Union[ClassExpression, PropertyExpression, Term, Tuple[str, ...]]


def render_side(side: MappingSide) -> str:
    if isinstance(side, tuple):
        return " ".join(side)
    if isinstance(side, Iri):
        return side.value
    if isinstance(side, Literal):
        return side.lexical
    if isinstance(side, Term):
        return repr(side)
    return side.text


@dataclass(frozen=True, slots=True)
class Mapping:
    subject: MappingSide
    predicate: str
    object: MappingSide
    subject_label: Optional[str] = None
    object_label: Optional[str] = None
    justification: str = DEFAULT_JUSTIFICATION
    comment: Optional[str] = None
    payload: Union[Axiom, SwrlRule, None] = None

    def is_simple(self) -> bool:
        return self.predicate in SIMPLE_PREDICATES

    def sort_key(self) -> Tuple:
        return (render_side(self.subject), self.predicate, render_side(self.object))


@dataclass
class Alignment:
    mappings: List[Mapping]
    source_namespaces: Tuple[str, ...]
    target_namespaces: Tuple[str, ...]
    derived_from: Tuple[Tuple[str, str], ...] = ()

    def simple_mappings(self) -> List[Mapping]:
        return [m for m in self.mappings if m.is_simple()]

    def complex_mappings(self) -> List[Mapping]:
        return [m for m in self.mappings if m.predicate in COMPLEX_PREDICATES]


def _check_namespaces(source_ns: Sequence[str], target_ns: Sequence[str]) -> None:
    if not source_ns or not target_ns:
        raise NamespaceOverlapError("source and target namespace lists must be non-empty")
    for s in source_ns:
        for t in target_ns:
            if s.startswith(t) or t.startswith(s):
                raise NamespaceOverlapError(
                    f"source namespace {s!r} overlaps target namespace {t!r}")


def _group(name: str, source_ns: Sequence[str], target_ns: Sequence[str]) -> Optional[str]:
    if name.startswith(tuple(source_ns)):
        return "source"
    if name.startswith(tuple(target_ns)):
        return "target"
    return None


def _names(item: Union[Axiom, SwrlRule]) -> Set[str]:
    """The class and property IRIs an axiom or rule uses; for SKOS metadata,
    its subject and object IRIs."""
    if isinstance(item, Axiom) and item.kind == "skos-related":
        return {t.value for t in item.args[1:] if isinstance(t, Iri)}
    classes: Set[ClassExpression] = set()
    props: Set[PropertyExpression] = set()
    names: Set[str] = set()
    add_uses((item,), classes, props, set())
    add_names(classes, props, names, names)
    return names


def _annotation_fields(annotations) -> Dict[str, Optional[str]]:
    fields: Dict[str, Optional[str]] = {
        "subject_label": None, "object_label": None,
        "justification": DEFAULT_JUSTIFICATION, "comment": None,
    }
    for pred, value in annotations:
        if not isinstance(value, Literal):
            continue
        if pred == vocab.SSSOM_SUBJECT_LABEL:
            fields["subject_label"] = value.lexical
        elif pred == vocab.SSSOM_OBJECT_LABEL:
            fields["object_label"] = value.lexical
        elif pred == vocab.SSSOM_MAPPING_JUSTIFICATION:
            fields["justification"] = value.lexical
        elif pred == vocab.RDFS_COMMENT:
            fields["comment"] = value.lexical
    return fields


def _side_tuple(names: Set[str], namespaces: Sequence[str]) -> Tuple[str, ...]:
    return tuple(sorted(n for n in names if n.startswith(tuple(namespaces))))


def extract_mappings(model: OntologyModel, source_ns: Sequence[str],
                     target_ns: Sequence[str]) -> Alignment:
    """Collect every axiom or rule whose signature spans both namespace groups.

    Axioms entirely inside one group are excluded. Annotation values populate
    labels, justification, and comment; unannotated mappings keep the default
    justification.
    """
    _check_namespaces(source_ns, target_ns)
    mappings: List[Mapping] = []
    seen: Set[Tuple] = set()

    def spans(names: Set[str]) -> bool:
        groups = {_group(n, source_ns, target_ns) for n in names}
        return "source" in groups and "target" in groups

    def add(m: Mapping) -> None:
        # Mappings are told apart by their payload, not their sides: two chains
        # or rules can share sorted name tuples, and two SKOS mappings differ
        # only in their SKOS predicate.
        key = (m.predicate, m.payload)
        if key not in seen:
            seen.add(key)
            mappings.append(m)

    for item in (*model.axioms, *model.rules):
        kind = item.kind if isinstance(item, Axiom) else SWRL_RULE
        predicate = _MAPPING_PREDICATE.get(kind)
        if predicate is None:
            continue  # disjointness, inverses, domains, ranges, assertions: no mapping types
        names = _names(item)
        if not spans(names):
            continue
        fields = _annotation_fields(item.annotations)
        if predicate in COMPLEX_PREDICATES:
            add(Mapping(_side_tuple(names, source_ns), predicate, _side_tuple(names, target_ns),
                        payload=item, **fields))
        elif kind == "disjoint-union":
            # Normalized to an equivalence with a disjoint-union expression so
            # the mapping round-trips through its reified serialization.
            union = DisjointUnionOf(item.args[1])
            add(Mapping(item.args[0], predicate, union,
                        payload=Axiom("equivalent-classes", (item.args[0], union)), **fields))
        elif kind == "skos-related":
            add(Mapping(item.args[1], predicate, item.args[2], payload=item, **fields))
        else:
            add(Mapping(item.args[0], predicate, item.args[1], payload=item, **fields))

    mappings.sort(key=Mapping.sort_key)
    derived = tuple(("", v) for v in model.derived_from)
    return Alignment(mappings=mappings, source_namespaces=tuple(source_ns),
                     target_namespaces=tuple(target_ns), derived_from=derived)


# ---------------------------------------------------------------------------
# SSSOM export
# ---------------------------------------------------------------------------

SSSOM_HEADER = ["subject_id", "predicate_id", "object_id",
                "subject_label", "object_label", "mapping_justification", "comment"]


def export_sssom(alignment: Alignment) -> str:
    """SSSOM-compatible CSV: one row per simple mapping.

    Complex mappings (SWRL rules, property chains) have no settled tabular
    convention; they are counted in a trailing comment line instead of being
    forced into rows.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SSSOM_HEADER)
    rows = []
    for m in alignment.simple_mappings():
        rows.append([
            render_side(m.subject),
            _PREDICATE_IRI[m.predicate],
            render_side(m.object),
            m.subject_label or "",
            m.object_label or "",
            m.justification,
            m.comment or "",
        ])
    rows.sort(key=lambda r: (r[0], r[2]))
    for row in rows:
        writer.writerow(row)
    complex_mappings = alignment.complex_mappings()
    if complex_mappings:
        counts = {}
        for m in complex_mappings:
            counts[m.predicate] = counts.get(m.predicate, 0) + 1
        detail = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        buffer.write(
            f"# {len(complex_mappings)} complex mapping(s) not exported as rows"
            f" ({detail}); listing them tabularly is a local convention left out"
            " pending a shared standard\n")
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Reified serialization
# ---------------------------------------------------------------------------

_STANDARD_PREFIXES = {
    "rdf": vocab.RDF,
    "rdfs": vocab.RDFS,
    "owl": vocab.OWL,
    "swrl": vocab.SWRL,
    "sssom": vocab.SSSOM,
    "xsd": vocab.XSD,
}


def serialize_mapping(mapping: Mapping) -> Graph:
    """Emit the reified owl:Axiom (or swrl:Imp) pattern for one mapping.

    Round-trips through extract_mappings to an equal Mapping. SKOS mappings
    serialize as plain triples elsewhere and are rejected here.
    """
    if mapping.predicate == SKOS_RELATED:
        raise UnsupportedPredicateError("skos mappings serialize as plain triples, not reified axioms")
    graph = Graph(prefixes=dict(_STANDARD_PREFIXES))
    scope = new_scope()
    encoder = _Encoder(graph, scope)

    def annotate(node: Term) -> None:
        if mapping.subject_label is not None:
            graph.add_triple(node, iri(vocab.SSSOM_SUBJECT_LABEL), Literal(mapping.subject_label))
        if mapping.object_label is not None:
            graph.add_triple(node, iri(vocab.SSSOM_OBJECT_LABEL), Literal(mapping.object_label))
        if mapping.justification != DEFAULT_JUSTIFICATION:
            graph.add_triple(node, iri(vocab.SSSOM_MAPPING_JUSTIFICATION),
                             Literal(mapping.justification))
        if mapping.comment is not None:
            graph.add_triple(node, iri(vocab.RDFS_COMMENT), Literal(mapping.comment))

    if mapping.predicate == SWRL_RULE:
        rule = mapping.payload
        if not isinstance(rule, SwrlRule):
            raise UnsupportedPredicateError("swrl-rule mapping has no rule payload")
        imp = encoder.fresh()
        graph.add_triple(imp, iri(vocab.RDF_TYPE), iri(vocab.SWRL_IMP))
        variables: Dict[str, Term] = {}

        def var_term(name: str) -> Term:
            node = variables.get(name)
            if node is None:
                if ":" in name and not name.startswith("_:"):
                    node = iri(name)
                else:
                    node = iri("urn:swrl:var:" + name.lstrip("_:"))
                graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.SWRL_VARIABLE))
                variables[name] = node
            return node

        def atom_node(atom) -> Term:
            node = encoder.fresh()
            if isinstance(atom, ClassAtom):
                graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.SWRL_CLASS_ATOM))
                graph.add_triple(node, iri(vocab.SWRL_CLASS_PREDICATE),
                                 encoder.class_expression(atom.cls))
                graph.add_triple(node, iri(vocab.SWRL_ARGUMENT1), var_term(atom.var))
            else:
                graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM))
                graph.add_triple(node, iri(vocab.SWRL_PROPERTY_PREDICATE),
                                 encoder.property_expression(atom.prop))
                graph.add_triple(node, iri(vocab.SWRL_ARGUMENT1), var_term(atom.var1))
                graph.add_triple(node, iri(vocab.SWRL_ARGUMENT2), var_term(atom.var2))
            return node

        for slot, atoms in ((vocab.SWRL_BODY, rule.body), (vocab.SWRL_HEAD, rule.head)):
            graph.add_triple(imp, iri(slot), encoder.encode_list([atom_node(a) for a in atoms]))
        annotate(imp)
        return graph

    node = encoder.fresh()
    graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.OWL_AXIOM))
    if mapping.predicate == PROPERTY_CHAIN:
        axiom = mapping.payload
        if not isinstance(axiom, Axiom) or axiom.kind != "property-chain":
            raise UnsupportedPredicateError("property-chain mapping has no chain payload")
        chain, sup = axiom.args
        graph.add_triple(node, iri(vocab.OWL_ANNOTATED_SOURCE), encoder.property_expression(sup))
        graph.add_triple(node, iri(vocab.OWL_ANNOTATED_PROPERTY), iri(vocab.OWL_PROPERTY_CHAIN))
        graph.add_triple(node, iri(vocab.OWL_ANNOTATED_TARGET),
                         encoder.encode_list([encoder.property_expression(pe) for pe in chain]))
        annotate(node)
        return graph

    predicate_iri = _PREDICATE_IRI[mapping.predicate]
    if mapping.predicate in (EQUIVALENT_CLASS, SUB_CLASS_OF):
        source_term = encoder.class_expression(mapping.subject)
        target_term = encoder.class_expression(mapping.object)
    else:
        source_term = encoder.property_expression(mapping.subject)
        target_term = encoder.property_expression(mapping.object)
    graph.add_triple(node, iri(vocab.OWL_ANNOTATED_SOURCE), source_term)
    graph.add_triple(node, iri(vocab.OWL_ANNOTATED_PROPERTY), iri(predicate_iri))
    graph.add_triple(node, iri(vocab.OWL_ANNOTATED_TARGET), target_term)
    annotate(node)
    return graph
