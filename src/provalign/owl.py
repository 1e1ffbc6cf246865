"""Structured OWL content extracted from RDF graphs.

The extractor folds the RDF encoding of the supported OWL fragment into
axiom objects: subclass/equivalence/disjointness, property hierarchy and
inverses, domains and ranges, property chains, disjoint unions, class and
property assertions, reified (annotated) axioms, and SWRL rules. Triples
that fit no recognized pattern are kept in an ``unmodeled`` list rather
than rejected, since real ontologies carry annotation vocabulary that is
irrelevant to verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar, Union

from . import vocab
from .rdf import BlankNode, Graph, Iri, Literal, Term, Triple, _Frozen, iri, new_scope, term_sort_key, triple_sort_key
from .turtle import MAX_NESTING


class OwlError(Exception):
    """Base class for OWL extraction errors."""


class MalformedExpressionError(OwlError):
    """An OWL expression node is structurally broken (bad list, cycle, ...)."""


class UnsupportedExpressionError(OwlError):
    """An expression uses a construct outside the supported fragment."""


class UnsafeRuleError(OwlError):
    """A SWRL rule has a head variable that never occurs in its body."""


class UnsupportedAtomError(OwlError):
    """A SWRL atom kind outside class/individual-property atoms."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# Every class and property expression, keyed by its class and fields.
_EXPRESSIONS: Dict[tuple, "_Expression"] = {}
# Each expression's ``repr``, built on first use; kept out of the objects so
# that they stay as small as their fields.
_REPRS: Dict["_Expression", str] = {}


class _Expression(_Frozen):
    """A class or property expression. Instances are interned, as ``rdf.Iri``
    is: equal expressions are one object, so equality and hashing are by
    identity, and ``text``, the compact rendering, is built once from the
    operands' ``text``, as ``repr`` is on first use. Assignment is refused, and
    copies and pickles rebuild the expression, as for ``rdf`` terms."""

    __slots__ = ("text",)
    __match_args__: Tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        expr = _EXPRESSIONS.get(key)
        if expr is None:
            expr = object.__new__(cls)
            text = cls._render(*fields)  # a wrong field count raises TypeError here
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(expr, name, value)
            object.__setattr__(expr, "text", text)
            # setdefault keeps one object per expression when two threads race here.
            expr = _EXPRESSIONS.setdefault(key, expr)
        return expr

    def __repr__(self) -> str:
        text = _REPRS.get(self)
        if text is None:
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
            text = _REPRS.setdefault(self, f"{type(self).__name__}({fields})")
        return text


class NamedClass(_Expression):
    __slots__ = __match_args__ = ("iri",)
    iri: Iri
    _render = staticmethod(lambda iri: iri.value)


class Intersection(_Expression):
    __slots__ = __match_args__ = ("operands",)
    operands: Tuple["ClassExpression", ...]
    _render = staticmethod(lambda operands: "(" + " and ".join(o.text for o in operands) + ")")


class UnionOf(_Expression):
    __slots__ = __match_args__ = ("operands",)
    operands: Tuple["ClassExpression", ...]
    _render = staticmethod(lambda operands: "(" + " or ".join(o.text for o in operands) + ")")


class DisjointUnionOf(_Expression):
    __slots__ = __match_args__ = ("operands",)
    operands: Tuple["ClassExpression", ...]
    _render = staticmethod(lambda operands: "DisjointUnion(" + ", ".join(o.text for o in operands) + ")")


class Complement(_Expression):
    __slots__ = __match_args__ = ("operand",)
    operand: "ClassExpression"
    _render = staticmethod(lambda operand: "(not " + operand.text + ")")


class SomeValuesFrom(_Expression):
    __slots__ = __match_args__ = ("prop", "filler")
    prop: "PropertyExpression"
    filler: "ClassExpression"
    _render = staticmethod(lambda prop, filler: "(" + prop.text + " some " + filler.text + ")")


ClassExpression = Union[NamedClass, Intersection, UnionOf, DisjointUnionOf, Complement, SomeValuesFrom]


class NamedProperty(_Expression):
    __slots__ = __match_args__ = ("iri",)
    iri: Iri
    _render = staticmethod(lambda iri: iri.value)


class InverseProperty(_Expression):
    __slots__ = __match_args__ = ("operand",)
    operand: NamedProperty
    _render = staticmethod(lambda operand: "inverse(" + operand.text + ")")


PropertyExpression = Union[NamedProperty, InverseProperty]

THING = NamedClass(iri(vocab.OWL_THING))
NOTHING = NamedClass(iri(vocab.OWL_NOTHING))


def inverse_of(p: PropertyExpression) -> PropertyExpression:
    """Inverse with normalization: the inverse of an inverse is the named property."""
    if isinstance(p, InverseProperty):
        return p.operand
    return InverseProperty(p)


def add_subexpressions(roots: Iterable[ClassExpression], into: Set[ClassExpression]) -> None:
    """Add ``roots`` and every class expression nested in them to ``into``.

    The walk runs on an explicit stack, so nesting depth never meets the
    recursion limit, and it does not descend into an expression that ``into``
    holds already: fill ``into`` only through this function (or with named
    classes), and every expression in it has its whole tree there too.
    """
    stack = list(roots)
    while stack:
        e = stack.pop()
        if e in into:
            continue
        into.add(e)
        if isinstance(e, NamedClass):
            continue
        if isinstance(e, (Intersection, UnionOf, DisjointUnionOf)):
            stack.extend(e.operands)
        elif isinstance(e, SomeValuesFrom):
            stack.append(e.filler)
        else:  # Complement
            stack.append(e.operand)


def property_name(pe: PropertyExpression) -> str:
    if isinstance(pe, NamedProperty):
        return pe.iri.value
    return pe.operand.iri.value


def render_class_expression(ce: ClassExpression) -> str:
    """Deterministic compact text form, used in reports and CSV cells."""
    return ce.text


# ---------------------------------------------------------------------------
# Axioms and rules
# ---------------------------------------------------------------------------

# Axiom kinds and their argument shapes:
#   sub-class-of          (sub: CE, sup: CE)
#   equivalent-classes    (a: CE, b: CE)
#   disjoint-classes      (a: CE, b: CE)
#   disjoint-union        (cls: NamedClass, operands: tuple[CE, ...])
#   sub-property-of       (sub: PE, sup: PE)
#   equivalent-properties (a: PE, b: PE)
#   inverse-properties    (a: PE, b: PE)
#   property-domain       (p: PE, c: CE)
#   property-range        (p: PE, c: CE)
#   property-chain        (chain: tuple[PE, ...], sup: PE)
#   class-assertion       (individual: Term, c: CE)
#   property-assertion    (p: PE, subject: Term, object: Term)
#   skos-related          (predicate: str, subject: Term, object: Term)

Annotation = Tuple[str, Term]


@dataclass(frozen=True, slots=True)
class Axiom:
    kind: str
    args: Tuple
    annotations: Tuple[Annotation, ...] = field(default=(), compare=False)

    def with_annotations(self, extra: Iterable[Annotation]) -> "Axiom":
        merged = sorted(set(self.annotations) | set(extra),
                        key=lambda kv: (kv[0], term_sort_key(kv[1])))
        return Axiom(self.kind, self.args, tuple(merged))


@dataclass(frozen=True, slots=True)
class ClassAtom:
    cls: ClassExpression
    var: str


@dataclass(frozen=True, slots=True)
class PropertyAtom:
    prop: PropertyExpression
    var1: str
    var2: str


Atom = Union[ClassAtom, PropertyAtom]


@dataclass(frozen=True, slots=True)
class SwrlRule:
    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]
    annotations: Tuple[Annotation, ...] = field(default=(), compare=False)


def atom_variables(atom: Atom) -> Tuple[str, ...]:
    return (atom.var,) if isinstance(atom, ClassAtom) else (atom.var1, atom.var2)


def add_uses(items: Iterable[Union[Axiom, SwrlRule]], classes: Set[ClassExpression],
             props: Set[PropertyExpression], individuals: Set[Term]) -> None:
    """Add the class expressions, property expressions and individuals that
    axioms, or rules' atoms, name outright to the caller's sets. Expressions
    nested inside them are ``add_subexpressions``' business. A literal object is
    not an individual, and ``skos-related`` metadata adds nothing."""
    for item in items:
        if isinstance(item, SwrlRule):
            for atom in item.body + item.head:
                if isinstance(atom, ClassAtom):
                    classes.add(atom.cls)
                else:
                    props.add(atom.prop)
            continue
        kind, args = item.kind, item.args
        if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
            classes.update(args)
        elif kind == "property-assertion":
            props.add(args[0])
            individuals.add(args[1])
            if not isinstance(args[2], Literal):
                individuals.add(args[2])
        elif kind == "class-assertion":
            individuals.add(args[0])
            classes.add(args[1])
        elif kind in ("sub-property-of", "equivalent-properties", "inverse-properties"):
            props.update(args)
        elif kind in ("property-domain", "property-range"):
            props.add(args[0])
            classes.add(args[1])
        elif kind == "disjoint-union":  # cls == DisjointUnion(operands)
            classes.add(args[0])
            classes.add(DisjointUnionOf(args[1]))
        elif kind == "property-chain":
            props.update(args[0])
            props.add(args[1])


def add_names(classes: Iterable[ClassExpression], props: Iterable[PropertyExpression],
              class_names: Set[str], property_names: Set[str]) -> None:
    """Add the IRIs of the named classes and properties in ``classes``, at any
    depth, and in ``props``."""
    expressions: Set[ClassExpression] = set()
    add_subexpressions(classes, expressions)
    for e in expressions:
        if isinstance(e, NamedClass):
            class_names.add(e.iri.value)
        elif isinstance(e, SomeValuesFrom):
            property_names.add(property_name(e.prop))
    property_names.update(map(property_name, props))


@dataclass
class OntologyModel:
    """Axioms, rules, and declarations extracted from one graph."""

    axioms: List[Axiom] = field(default_factory=list)
    rules: List[SwrlRule] = field(default_factory=list)
    source_label: str = ""
    declared_classes: Set[str] = field(default_factory=set)
    declared_object_properties: Set[str] = field(default_factory=set)
    declared_data_properties: Set[str] = field(default_factory=set)
    declared_annotation_properties: Set[str] = field(default_factory=set)
    declared_individuals: Set[str] = field(default_factory=set)
    unmodeled: List[Triple] = field(default_factory=list)
    ontology_iri: Optional[str] = None
    version_iri: Optional[str] = None
    derived_from: Tuple[str, ...] = ()
    _signature_cache: Optional[Dict[str, Set[str]]] = field(default=None, repr=False)

    def signature_sets(self) -> Dict[str, Set[str]]:
        if self._signature_cache is None:
            self._signature_cache = _compute_signature(self)
        return self._signature_cache


def _is_builtin(value: str) -> bool:
    return value.startswith(vocab.BUILTIN_NAMESPACES) or value in (vocab.OWL_THING, vocab.OWL_NOTHING)


def _compute_signature(model: OntologyModel) -> Dict[str, Set[str]]:
    used: Set[ClassExpression] = set()
    used_props: Set[PropertyExpression] = set()
    used_individuals: Set[Term] = set()
    add_uses(model.axioms, used, used_props, used_individuals)
    add_uses(model.rules, used, used_props, used_individuals)
    classes: Set[str] = set(model.declared_classes)
    props: Set[str] = set(model.declared_object_properties)
    add_names(used, used_props, classes, props)
    props -= model.declared_data_properties | model.declared_annotation_properties
    individuals = model.declared_individuals | {t.value for t in used_individuals if isinstance(t, Iri)}
    return {key: {t for t in terms if not _is_builtin(t)}
            for key, terms in (("classes", classes), ("object_properties", props), ("individuals", individuals))}


def signature(model: OntologyModel, namespace_filter: Optional[Sequence[str]] = None) -> Dict[str, Set[str]]:
    """Class/object-property/individual term sets used by the model.

    Built-in vocabulary (rdf/rdfs/owl/swrl/xsd plus owl:Thing and owl:Nothing)
    is excluded; declared data and annotation properties never count as object
    properties. With ``namespace_filter``, only IRIs starting with one of the
    given namespaces are returned.
    """
    sets = model.signature_sets()
    if namespace_filter is None:
        return {k: set(v) for k, v in sets.items()}
    prefixes = tuple(namespace_filter)
    return {k: {t for t in v if t.startswith(prefixes)} for k, v in sets.items()}


def axiom_sort_key(axiom: Axiom) -> str:
    """The key that orders a model's axioms."""
    return repr((axiom.kind, axiom.args))


def merge_models(models: Sequence[OntologyModel], source_label: str = "merged") -> OntologyModel:
    """Combine several models into one (axioms deduplicated, annotations merged)."""
    merged = OntologyModel(source_label=source_label)
    index: Dict[Tuple, Axiom] = {}
    for m in models:
        for ax in m.axioms:
            key = (ax.kind, ax.args)
            existing = index.get(key)
            index[key] = ax if existing is None else existing.with_annotations(ax.annotations)
        merged.rules.extend(m.rules)
        merged.declared_classes |= m.declared_classes
        merged.declared_object_properties |= m.declared_object_properties
        merged.declared_data_properties |= m.declared_data_properties
        merged.declared_annotation_properties |= m.declared_annotation_properties
        merged.declared_individuals |= m.declared_individuals
        merged.unmodeled.extend(m.unmodeled)
        merged.derived_from = tuple(sorted(set(merged.derived_from) | set(m.derived_from)))
    merged.axioms = sorted(index.values(), key=axiom_sort_key)
    return merged


def merged_signature(models: Sequence[OntologyModel],
                     namespace_filter: Optional[Sequence[str]] = None) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {"classes": set(), "object_properties": set(), "individuals": set()}
    for m in models:
        for key, terms in signature(m, namespace_filter).items():
            out[key] |= terms
    return out


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

_DECLARATION_TYPES = {
    vocab.OWL_CLASS: "class",
    vocab.RDFS + "Class": "class",
    vocab.OWL_OBJECT_PROPERTY: "object_property",
    vocab.OWL_DATATYPE_PROPERTY: "data_property",
    vocab.OWL_ANNOTATION_PROPERTY: "annotation_property",
    vocab.OWL_NAMED_INDIVIDUAL: "individual",
    vocab.RDF + "Property": "object_property",
}

# Annotation-ish predicates that are recognized plumbing, not unmodeled content.
_BENIGN_ANNOTATIONS = {
    vocab.RDFS_LABEL,
    vocab.RDFS_COMMENT,
    vocab.RDFS + "seeAlso",
    vocab.RDFS + "isDefinedBy",
    vocab.OWL + "versionInfo",
}

_REIFIED_KIND = {
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

_T = TypeVar("_T")

# The n-ary class constructors, in the order in which decoding tries them.
_NARY = {vocab.OWL_INTERSECTION_OF: Intersection, vocab.OWL_UNION_OF: UnionOf,
         vocab.OWL_DISJOINT_UNION_OF: DisjointUnionOf}


class _Extractor:
    def __init__(self, graph: Graph, source_label: str):
        self.graph = graph
        self.model = OntologyModel(source_label=source_label)
        self.consumed: Set[Triple] = set()
        self.axiom_index: Dict[Tuple, Axiom] = {}
        self.swrl_variables: Set[Term] = set()

    # -- bookkeeping -------------------------------------------------------

    def consume(self, s: Term, p: str, o: Term) -> None:
        self.consumed.add(Triple(s, iri(p), o))

    def attempt(self, decode: Callable[..., _T], *args: object) -> Optional[_T]:
        """``decode(*args)``, or None if it meets a construct outside the
        fragment; then the triples that it read stay unconsumed, so that all of
        the dropped statement's triples are unmodeled."""
        outer, self.consumed = self.consumed, set()
        try:
            result = decode(*args)
            outer |= self.consumed
            return result
        except UnsupportedExpressionError:
            return None
        finally:
            self.consumed = outer

    def add_axiom(self, axiom: Axiom) -> None:
        key = (axiom.kind, axiom.args)
        existing = self.axiom_index.get(key)
        if existing is None:
            self.axiom_index[key] = axiom
        elif axiom.annotations:
            self.axiom_index[key] = existing.with_annotations(axiom.annotations)

    # -- lists and expressions ---------------------------------------------

    def read_list(self, node: Term, types: Tuple[str, ...] = (), noun: str = "RDF list") -> List[Term]:
        """The items of the RDF list at ``node``, consuming each cell's rdf:first,
        rdf:rest and its rdf:type triples into ``types``; errors name the ``noun``."""
        items: List[Term] = []
        seen: Set[Term] = set()
        while not (isinstance(node, Iri) and node.value == vocab.RDF_NIL):
            if node in seen:
                raise MalformedExpressionError(f"cyclic {noun}")
            seen.add(node)
            for obj in self.graph.objects(node, vocab.RDF_TYPE):
                if isinstance(obj, Iri) and obj.value in types:
                    self.consume(node, vocab.RDF_TYPE, obj)
            first = self.graph.object(node, vocab.RDF_FIRST)
            rest = self.graph.object(node, vocab.RDF_REST)
            if first is None or rest is None:
                raise MalformedExpressionError(f"{noun} node missing rdf:first/rdf:rest")
            self.consume(node, vocab.RDF_FIRST, first)
            self.consume(node, vocab.RDF_REST, rest)
            items.append(first)
            node = rest
        return items

    def class_expression(self, node: Term, _visiting: Optional[Set[Term]] = None,
                         _depth: int = 0) -> ClassExpression:
        """The expression rooted at ``node``, at most ``turtle.MAX_NESTING`` deep."""
        if isinstance(node, Literal):
            raise MalformedExpressionError("literal in class expression position")
        if isinstance(node, Iri):
            return NamedClass(node)
        if _depth >= MAX_NESTING:
            raise MalformedExpressionError(f"class expression nested deeper than {MAX_NESTING} levels")
        visiting = _visiting if _visiting is not None else set()
        if node in visiting:
            raise MalformedExpressionError("cyclic class expression structure")
        visiting.add(node)
        props = self.graph.spo().get(node, {})
        for pred, make in _NARY.items():
            if pred in props:
                head = props[pred][0]
                self.consume(node, pred, head)
                self._consume_expression_type(node)
                items = self.read_list(head)
                if not items:
                    raise MalformedExpressionError("empty operand list in class expression")
                ops = tuple(self.class_expression(i, visiting, _depth + 1) for i in items)
                return ops[0] if len(ops) == 1 else make(ops)
        if vocab.OWL_COMPLEMENT_OF in props:
            operand = props[vocab.OWL_COMPLEMENT_OF][0]
            self.consume(node, vocab.OWL_COMPLEMENT_OF, operand)
            self._consume_expression_type(node)
            return Complement(self.class_expression(operand, visiting, _depth + 1))
        if vocab.OWL_ON_PROPERTY in props:
            prop_node = props[vocab.OWL_ON_PROPERTY][0]
            filler = props.get(vocab.OWL_SOME_VALUES_FROM)
            if filler is None:
                raise UnsupportedExpressionError(
                    "restriction without owl:someValuesFrom is outside the supported fragment")
            self.consume(node, vocab.OWL_ON_PROPERTY, prop_node)
            self.consume(node, vocab.OWL_SOME_VALUES_FROM, filler[0])
            self._consume_expression_type(node)
            return SomeValuesFrom(self.property_expression(prop_node),
                                  self.class_expression(filler[0], visiting, _depth + 1))
        raise UnsupportedExpressionError("blank node does not root a supported class expression")

    def _consume_expression_type(self, node: Term) -> None:
        for obj in self.graph.objects(node, vocab.RDF_TYPE):
            if isinstance(obj, Iri) and obj.value in (vocab.OWL_CLASS, vocab.OWL_RESTRICTION):
                self.consume(node, vocab.RDF_TYPE, obj)

    def property_expression(self, node: Term) -> PropertyExpression:
        """A named property under a chain of ``owl:inverseOf`` blank nodes, normalized."""
        inverted, seen = False, set()
        while isinstance(node, BlankNode) and node not in seen:
            inv = self.graph.object(node, vocab.OWL_INVERSE_OF)
            if inv is None:
                break
            seen.add(node)
            self.consume(node, vocab.OWL_INVERSE_OF, inv)
            node, inverted = inv, not inverted
        if not isinstance(node, Iri):
            raise MalformedExpressionError("node does not root a property expression")
        named = NamedProperty(node)
        return inverse_of(named) if inverted else named

    # -- passes --------------------------------------------------------------

    def run(self) -> OntologyModel:
        self._ontology_header()
        self._declarations()
        self._swrl_rules()
        self._reified_axioms()
        self._all_disjoint_classes()
        self._finish(*self._plain_triples())
        return self.model

    def _declarations(self) -> None:
        """Record entity declarations up front so later passes can consult them."""
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
            decl = _DECLARATION_TYPES.get(t.object.value)
            if decl is None:
                continue
            if isinstance(t.subject, Iri):
                targets[decl].add(t.subject.value)
            if decl != "data_property":
                # Data-property declarations stay visible as unmodeled content:
                # their mapping semantics are out of scope.
                self.consumed.add(t)

    def _ontology_header(self) -> None:
        for subject in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_ONTOLOGY)):
            self.consume(subject, vocab.RDF_TYPE, iri(vocab.OWL_ONTOLOGY))
            if isinstance(subject, Iri):
                self.model.ontology_iri = subject.value
            version = self.graph.object(subject, vocab.OWL_VERSION_IRI)
            if isinstance(version, Iri):
                self.model.version_iri = version.value
                self.consume(subject, vocab.OWL_VERSION_IRI, version)
            derived = []
            for o in self.graph.objects(subject, vocab.PROV_WAS_DERIVED_FROM):
                if isinstance(o, Iri):
                    derived.append(o.value)
                    self.consume(subject, vocab.PROV_WAS_DERIVED_FROM, o)
            self.model.derived_from = tuple(sorted(derived))
            for o in self.graph.objects(subject, vocab.OWL_IMPORTS):
                self.consume(subject, vocab.OWL_IMPORTS, o)

    def _swrl_rules(self) -> None:
        variable_terms = set(self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.SWRL_VARIABLE)))
        self.swrl_variables = variable_terms
        for var in variable_terms:
            self.consume(var, vocab.RDF_TYPE, iri(vocab.SWRL_VARIABLE))
        for imp in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.SWRL_IMP)):
            self.consume(imp, vocab.RDF_TYPE, iri(vocab.SWRL_IMP))
            body_head = []
            for slot in (vocab.SWRL_BODY, vocab.SWRL_HEAD):
                head_node = self.graph.object(imp, slot)
                if head_node is None:
                    raise MalformedExpressionError("swrl:Imp missing body or head")
                self.consume(imp, slot, head_node)
                atoms = []
                # Atom lists may carry rdf:type swrl:AtomList on each cons cell.
                for atom_node in self.read_list(head_node, (vocab.SWRL_ATOM_LIST, vocab.RDF + "List"),
                                                "SWRL atom list"):
                    atoms.append(self._swrl_atom(atom_node))
                body_head.append(tuple(atoms))
            annotations = self._collect_annotations(
                imp, exclude={vocab.RDF_TYPE, vocab.SWRL_BODY, vocab.SWRL_HEAD})
            rule = SwrlRule(body=body_head[0], head=body_head[1], annotations=annotations)
            body_vars = {var for atom in rule.body for var in atom_variables(atom)}
            for atom in rule.head:
                unsafe = set(atom_variables(atom)) - body_vars
                if unsafe:
                    raise UnsafeRuleError(f"head variable(s) {sorted(unsafe)} never occur in the rule body")
            self.model.rules.append(rule)

    def _swrl_variable_name(self, term: Optional[Term]) -> str:
        if term is None or term not in self.swrl_variables:
            raise UnsupportedAtomError(
                "SWRL atom argument is not a declared swrl:Variable")
        if isinstance(term, Iri):
            return term.value
        return f"_:{term.node_id}"

    def _swrl_atom(self, node: Term) -> Atom:
        types = [o.value for o in self.graph.objects(node, vocab.RDF_TYPE) if isinstance(o, Iri)]
        if vocab.SWRL_CLASS_ATOM in types:
            self.consume(node, vocab.RDF_TYPE, iri(vocab.SWRL_CLASS_ATOM))
            cls_node = self.graph.object(node, vocab.SWRL_CLASS_PREDICATE)
            arg1 = self.graph.object(node, vocab.SWRL_ARGUMENT1)
            if cls_node is None:
                raise MalformedExpressionError("SWRL class atom missing classPredicate")
            self.consume(node, vocab.SWRL_CLASS_PREDICATE, cls_node)
            if arg1 is not None:
                self.consume(node, vocab.SWRL_ARGUMENT1, arg1)
            return ClassAtom(self.class_expression(cls_node), self._swrl_variable_name(arg1))
        if vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM in types:
            self.consume(node, vocab.RDF_TYPE, iri(vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM))
            prop_node = self.graph.object(node, vocab.SWRL_PROPERTY_PREDICATE)
            arg1 = self.graph.object(node, vocab.SWRL_ARGUMENT1)
            arg2 = self.graph.object(node, vocab.SWRL_ARGUMENT2)
            if prop_node is None:
                raise MalformedExpressionError("SWRL property atom missing propertyPredicate")
            self.consume(node, vocab.SWRL_PROPERTY_PREDICATE, prop_node)
            if arg1 is not None:
                self.consume(node, vocab.SWRL_ARGUMENT1, arg1)
            if arg2 is not None:
                self.consume(node, vocab.SWRL_ARGUMENT2, arg2)
            return PropertyAtom(self.property_expression(prop_node),
                                self._swrl_variable_name(arg1),
                                self._swrl_variable_name(arg2))
        raise UnsupportedAtomError(
            f"unsupported SWRL atom type(s) {sorted(types)}; only class and "
            "individual-property atoms are handled")

    def _collect_annotations(self, node: Term, exclude: Set[str]) -> Tuple[Annotation, ...]:
        pairs: List[Annotation] = []
        for pred, objects in self.graph.spo().get(node, {}).items():
            if pred in exclude:
                continue
            for o in objects:
                pairs.append((pred, o))
                self.consume(node, pred, o)
        pairs.sort(key=lambda kv: (kv[0], term_sort_key(kv[1])))
        return tuple(pairs)

    def _reified_axioms(self) -> None:
        for node in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_AXIOM)):
            source = self.graph.object(node, vocab.OWL_ANNOTATED_SOURCE)
            prop = self.graph.object(node, vocab.OWL_ANNOTATED_PROPERTY)
            target = self.graph.object(node, vocab.OWL_ANNOTATED_TARGET)
            if source is None or prop is None or target is None or not isinstance(prop, Iri):
                continue  # incomplete reification: leave its triples unmodeled
            axiom = self.attempt(self._decode_statement, source, prop.value, target)
            if axiom is None:
                continue  # not an axiom, or outside the fragment: the node's triples stay unmodeled
            self.consume(node, vocab.RDF_TYPE, iri(vocab.OWL_AXIOM))
            self.consume(node, vocab.OWL_ANNOTATED_SOURCE, source)
            self.consume(node, vocab.OWL_ANNOTATED_PROPERTY, prop)
            self.consume(node, vocab.OWL_ANNOTATED_TARGET, target)
            self.add_axiom(axiom.with_annotations(self._collect_annotations(node, exclude={
                vocab.RDF_TYPE, vocab.OWL_ANNOTATED_SOURCE, vocab.OWL_ANNOTATED_PROPERTY, vocab.OWL_ANNOTATED_TARGET})))

    def _decode_statement(self, s: Term, p: str, o: Term) -> Optional[Axiom]:
        """Fold one (s, p, o) with a recognized axiom predicate into an Axiom."""
        kind = _REIFIED_KIND.get(p)
        if p in vocab.SKOS_MAPPING_PREDICATES:
            return Axiom("skos-related", (p, s, o))
        if kind is None:
            return None
        if kind in ("sub-class-of", "equivalent-classes", "disjoint-classes"):
            return Axiom(kind, (self.class_expression(s), self.class_expression(o)))
        if kind in ("sub-property-of", "equivalent-properties", "inverse-properties"):
            return Axiom(kind, (self.property_expression(s), self.property_expression(o)))
        if kind in ("property-domain", "property-range"):
            return Axiom(kind, (self.property_expression(s), self.class_expression(o)))
        if kind == "property-chain":
            chain = tuple(self.property_expression(x) for x in self.read_list(o))
            if len(chain) < 2:
                raise MalformedExpressionError("property chain needs at least two links")
            return Axiom("property-chain", (chain, self.property_expression(s)))
        return None

    def _all_disjoint_classes(self) -> None:
        for node in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_ALL_DISJOINT_CLASSES)):
            members = self.graph.object(node, vocab.OWL_MEMBERS)
            if members is None:
                continue
            classes = self.attempt(lambda: [self.class_expression(x) for x in self.read_list(members)])
            if classes is None:
                continue
            self.consume(node, vocab.RDF_TYPE, iri(vocab.OWL_ALL_DISJOINT_CLASSES))
            self.consume(node, vocab.OWL_MEMBERS, members)
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    self.add_axiom(Axiom("disjoint-classes", (classes[i], classes[j])))

    def _plain_triples(self) -> Tuple[List[Tuple[str, Axiom]], List[Triple]]:
        """Decide the triples that no earlier pass consumed per predicate, and for
        rdf:type per object (``_classify``): assertions, with their sort keys,
        and annotations in bulk, then the rest one by one in triple order.
        Returns the assertions and the triples that may stay unmodeled."""
        consumed, keyed, ordered, left = self.consumed, [], [], []
        touched = {t.predicate.value for t in consumed}
        for p in self.graph.predicates():
            triples = [t for t in self.graph.with_predicate(p) if p not in touched or t not in consumed]
            groups: Dict[Optional[Term], List[Triple]] = {None: triples}
            if p == vocab.RDF_TYPE:
                groups = {}
                for t in triples:
                    groups.setdefault(t.object, []).append(t)
            for o, group in groups.items():
                kind = self._classify(p, o)
                if kind == "class-assertion":  # each key is axiom_sort_key's, built from the reprs
                    text = repr(c := NamedClass(o))
                    keyed += [(f"('{kind}', ({t.subject!r}, {text}))", Axiom(kind, (t.subject, c))) for t in group]
                elif kind == "property-assertion":
                    text = repr(prop := NamedProperty(iri(p)))
                    keyed += [(f"('{kind}', ({text}, {t.subject!r}, {t.object!r}))",
                               Axiom(kind, (prop, t.subject, t.object))) for t in group]
                elif kind != "annotation":
                    (ordered if kind == "ordered" else left).extend(group)
        for t in sorted(ordered, key=triple_sort_key):
            if t not in consumed and self.attempt(self._plain_triple, t.subject, t.predicate.value, t.object):
                consumed.add(t)
        return keyed, left + ordered

    def _classify(self, p: str, o: Optional[Term]) -> str:
        """What the triples of ``p`` (with object ``o`` for rdf:type) are: assertion
        axioms of a kind, an "annotation", "ordered" (decoding them may raise or
        consume other triples) or "left" (unmodeled unless decoding consumes them)."""
        if p == vocab.RDF_TYPE:
            if isinstance(o, BlankNode):
                return "ordered"
            named = isinstance(o, Iri) and o.value not in _DECLARATION_TYPES and not _is_builtin(o.value)
            return "class-assertion" if named else "left"  # declarations have a pass of their own
        if p in _REIFIED_KIND or p in vocab.SKOS_MAPPING_PREDICATES or p == vocab.OWL_DISJOINT_UNION_OF:
            return "ordered"
        if p in _BENIGN_ANNOTATIONS or p in self.model.declared_annotation_properties:
            return "annotation"
        return "left" if _is_builtin(p) else "property-assertion"

    def _plain_triple(self, s: Term, p: str, o: Term) -> bool:
        """Decode one "ordered" triple into an axiom; False if it stays unmodeled."""
        if p == vocab.RDF_TYPE:
            axiom = Axiom("class-assertion", (s, self.class_expression(o)))
        elif p == vocab.OWL_DISJOINT_UNION_OF and isinstance(s, Iri):
            ops = tuple(self.class_expression(x) for x in self.read_list(o))
            if len(ops) < 2:
                raise MalformedExpressionError("owl:disjointUnionOf needs at least two operands")
            axiom = Axiom("disjoint-union", (NamedClass(s), ops))
        elif p == vocab.OWL_INVERSE_OF and isinstance(s, BlankNode):
            return False  # anonymous inverse: consumed by expression decoding when referenced
        elif (axiom := self._decode_statement(s, p, o)) is None:  # owl:disjointUnionOf on a blank node
            return p in self.model.declared_annotation_properties
        self.add_axiom(axiom)
        return True

    def _finish(self, keyed: List[Tuple[str, Axiom]], left: List[Triple]) -> None:
        """Sort the axioms, dropping an assertion that a blank-node class
        expression decoded to again, and the triples left unconsumed."""
        keyed += [(axiom_sort_key(axiom), axiom) for axiom in self.axiom_index.values()]
        keyed.sort(key=itemgetter(0))
        self.model.axioms = [axiom for i, (key, axiom) in enumerate(keyed)
                             if not i or key != keyed[i - 1][0] or axiom != keyed[i - 1][1]]
        self.model.unmodeled = sorted([t for t in left if t not in self.consumed], key=triple_sort_key)


def extract_axioms(graph: Graph, source_label: str = "") -> OntologyModel:
    """Extract the structured OWL content of a parsed graph."""
    return _Extractor(graph, source_label).run()


def parse_class_expression(graph: Graph, node: Term) -> ClassExpression:
    """Decode the class expression rooted at ``node``.

    Named IRIs decode to named classes; blank nodes must root a supported
    expression (intersection, union, disjoint union, complement, or an
    existential restriction).
    """
    return _Extractor(graph, "").class_expression(node)


def extract_swrl_rules(graph: Graph) -> List[SwrlRule]:
    """Extract every swrl:Imp in the graph as a rule, preserving atom order."""
    extractor = _Extractor(graph, "")
    extractor._swrl_rules()
    return extractor.model.rules


# ---------------------------------------------------------------------------
# Expression encoding (inverse of parse_class_expression)
# ---------------------------------------------------------------------------

class _Encoder:
    def __init__(self, graph: Graph, scope: int):
        self.graph = graph
        self.scope = scope
        self.count = 0

    def fresh(self) -> BlankNode:
        node = BlankNode(f"e{self.count}", self.scope)
        self.count += 1
        return node

    def encode_list(self, items: Sequence[Term]) -> Term:
        cells = [self.fresh() for _ in items]
        for cell, item, rest in zip(cells, items, [*cells[1:], iri(vocab.RDF_NIL)]):
            self.graph.add_triple(cell, iri(vocab.RDF_FIRST), item)
            self.graph.add_triple(cell, iri(vocab.RDF_REST), rest)
        return cells[0] if cells else iri(vocab.RDF_NIL)

    def class_expression(self, ce: ClassExpression) -> Term:
        if isinstance(ce, NamedClass):
            return ce.iri
        node = self.fresh()
        if isinstance(ce, (Intersection, UnionOf, DisjointUnionOf)):
            pred = next(p for p, make in _NARY.items() if make is type(ce))
            self.graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.OWL_CLASS))
            members = self.encode_list([self.class_expression(o) for o in ce.operands])
            self.graph.add_triple(node, iri(pred), members)
            return node
        if isinstance(ce, Complement):
            self.graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.OWL_CLASS))
            self.graph.add_triple(node, iri(vocab.OWL_COMPLEMENT_OF), self.class_expression(ce.operand))
            return node
        self.graph.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.OWL_RESTRICTION))
        self.graph.add_triple(node, iri(vocab.OWL_ON_PROPERTY), self.property_expression(ce.prop))
        self.graph.add_triple(node, iri(vocab.OWL_SOME_VALUES_FROM), self.class_expression(ce.filler))
        return node

    def property_expression(self, pe: PropertyExpression) -> Term:
        if isinstance(pe, NamedProperty):
            return pe.iri
        node = self.fresh()
        self.graph.add_triple(node, iri(vocab.OWL_INVERSE_OF), pe.operand.iri)
        return node


def encode_class_expression(graph: Graph, ce: ClassExpression, scope: Optional[int] = None) -> Term:
    """Emit the RDF encoding of an expression into ``graph``; returns its root."""
    return _Encoder(graph, scope if scope is not None else new_scope()).class_expression(ce)
