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

# The binary statements, as OWL 2's mapping to RDF reads them: each predicate's
# axiom kind, and whether its subject and its object are class (True) or
# property (False) expressions; the axiom's args are the two, in that order.
_STATEMENTS: Dict[str, Tuple[str, bool, bool]] = {
    vocab.RDFS_SUBCLASSOF: ("sub-class-of", True, True),
    vocab.OWL_EQUIVALENT_CLASS: ("equivalent-classes", True, True),
    vocab.OWL_DISJOINT_WITH: ("disjoint-classes", True, True),
    vocab.RDFS_SUBPROPERTYOF: ("sub-property-of", False, False),
    vocab.OWL_EQUIVALENT_PROPERTY: ("equivalent-properties", False, False),
    vocab.OWL_INVERSE_OF: ("inverse-properties", False, False),
    vocab.RDFS_DOMAIN: ("property-domain", False, True),
    vocab.RDFS_RANGE: ("property-range", False, True),
}
_ARGUMENT_CLASSES = {kind: (s, o) for kind, s, o in _STATEMENTS.values()}

# The other axiom kinds and their args:
#   disjoint-union        (cls: NamedClass, operands: tuple[CE, ...])
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


_SET_KIND, _SET_ARGS, _SET_ANNOTATIONS = Axiom.kind.__set__, Axiom.args.__set__, Axiom.annotations.__set__


def _bulk_axiom(kind: str, args: Tuple) -> Axiom:
    """``Axiom(kind, args)``, set through its slots: the frozen init sets each
    field through ``object.__setattr__``, about 1.7 times the cost, and
    extraction builds one assertion per ABox triple."""
    axiom = object.__new__(Axiom)
    _SET_KIND(axiom, kind)
    _SET_ARGS(axiom, args)
    _SET_ANNOTATIONS(axiom, ())
    return axiom


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
        if item.__class__ is SwrlRule:
            for atom in item.body + item.head:
                if isinstance(atom, ClassAtom):
                    classes.add(atom.cls)
                else:
                    props.add(atom.prop)
            continue
        # Assertions first: an ABox is most of what a model holds.
        kind, args = item.kind, item.args
        if kind == "property-assertion":
            props.add(args[0])
            individuals.add(args[1])
            if args[2].__class__ is not Literal:
                individuals.add(args[2])
        elif kind == "class-assertion":
            individuals.add(args[0])
            classes.add(args[1])
        elif (shape := _ARGUMENT_CLASSES.get(kind)) is not None:
            (classes if shape[0] else props).add(args[0])
            (classes if shape[1] else props).add(args[1])
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
    _signature_cache: Optional[Dict[str, Set[str]]] = field(default=None, repr=False, compare=False)

    def signature_sets(self) -> Dict[str, Set[str]]:
        if self._signature_cache is None:
            self._signature_cache = _compute_signature(self)
        return self._signature_cache


def _is_builtin(value: str) -> bool:
    return value.startswith(vocab.BUILTIN_NAMESPACES)


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

# Each declaration type and the OntologyModel field that it fills.
_DECLARATION_TYPES = {
    vocab.OWL_CLASS: "declared_classes",
    vocab.RDFS + "Class": "declared_classes",
    vocab.OWL_OBJECT_PROPERTY: "declared_object_properties",
    vocab.OWL_DATATYPE_PROPERTY: "declared_data_properties",
    vocab.OWL_ANNOTATION_PROPERTY: "declared_annotation_properties",
    vocab.OWL_NAMED_INDIVIDUAL: "declared_individuals",
    vocab.RDF + "Property": "declared_object_properties",
}

# Annotation-ish predicates that are recognized plumbing, not unmodeled content.
_BENIGN_ANNOTATIONS = {
    vocab.RDFS_LABEL,
    vocab.RDFS_COMMENT,
    vocab.RDFS + "seeAlso",
    vocab.RDFS + "isDefinedBy",
    vocab.OWL + "versionInfo",
}

_REIFICATION = (vocab.OWL_ANNOTATED_SOURCE, vocab.OWL_ANNOTATED_PROPERTY, vocab.OWL_ANNOTATED_TARGET)

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

    def take(self, node: Term, pred: str) -> Optional[Term]:
        """The first object of ``node``'s ``pred`` triples, consuming its triple."""
        triples = self.graph.triples_of(node, pred)
        if not triples:
            return None
        self.consumed.add(triples[0])
        return triples[0].object

    def take_types(self, node: Term, types: Tuple[str, ...]) -> bool:
        """Consume ``node``'s rdf:type triples whose object is one of ``types``;
        False if it has none."""
        found = [t for t in self.graph.triples_of(node, vocab.RDF_TYPE)
                 if isinstance(t.object, Iri) and t.object.value in types]
        self.consumed.update(found)
        return bool(found)

    def attempt(self, decode: Callable[..., _T], *args: object) -> Optional[_T]:
        """``decode(*args)``, or None if it returns None or meets a construct
        outside the fragment; then the triples that it read stay unconsumed, so
        that all of the dropped statement's triples are unmodeled."""
        outer, self.consumed = self.consumed, set()
        try:
            result = decode(*args)
            if result is not None:
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
            self.take_types(node, types)
            first, rest = self.take(node, vocab.RDF_FIRST), self.take(node, vocab.RDF_REST)
            if first is None or rest is None:
                raise MalformedExpressionError(f"{noun} node missing rdf:first/rdf:rest")
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
        pred = next((p for p in (*_NARY, vocab.OWL_COMPLEMENT_OF, vocab.OWL_ON_PROPERTY) if p in props), None)
        if pred is None:
            raise UnsupportedExpressionError("blank node does not root a supported class expression")
        if pred == vocab.OWL_ON_PROPERTY and vocab.OWL_SOME_VALUES_FROM not in props:
            raise UnsupportedExpressionError(
                "restriction without owl:someValuesFrom is outside the supported fragment")
        self.take_types(node, (vocab.OWL_CLASS, vocab.OWL_RESTRICTION))
        operand = self.take(node, pred)
        if pred == vocab.OWL_ON_PROPERTY:
            return SomeValuesFrom(self.property_expression(operand), self.class_expression(
                self.take(node, vocab.OWL_SOME_VALUES_FROM), visiting, _depth + 1))
        if pred == vocab.OWL_COMPLEMENT_OF:
            return Complement(self.class_expression(operand, visiting, _depth + 1))
        items = self.read_list(operand)
        if not items:
            raise MalformedExpressionError("empty operand list in class expression")
        ops = tuple(self.class_expression(i, visiting, _depth + 1) for i in items)
        return ops[0] if len(ops) == 1 else _NARY[pred](ops)

    def property_expression(self, node: Term) -> PropertyExpression:
        """A named property under a chain of ``owl:inverseOf`` blank nodes, normalized."""
        inverted, seen = False, set()
        while isinstance(node, BlankNode) and node not in seen:
            inv = self.take(node, vocab.OWL_INVERSE_OF)
            if inv is None:
                break
            seen.add(node)
            node, inverted = inv, not inverted
        if not isinstance(node, Iri):
            raise MalformedExpressionError("node does not root a property expression")
        named = NamedProperty(node)
        return InverseProperty(named) if inverted else named

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
        for t in self.graph.with_predicate(vocab.RDF_TYPE):
            decl = isinstance(t.object, Iri) and _DECLARATION_TYPES.get(t.object.value)
            if not decl:
                continue
            if isinstance(t.subject, Iri):
                getattr(self.model, decl).add(t.subject.value)
            if decl != "declared_data_properties":
                # Data-property declarations stay visible as unmodeled content:
                # their mapping semantics are out of scope.
                self.consumed.add(t)

    def _ontology_header(self) -> None:
        for subject in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_ONTOLOGY)):
            self.take_types(subject, (vocab.OWL_ONTOLOGY,))
            if isinstance(subject, Iri):
                self.model.ontology_iri = subject.value
            if isinstance(self.graph.object(subject, vocab.OWL_VERSION_IRI), Iri):
                self.model.version_iri = self.take(subject, vocab.OWL_VERSION_IRI).value
            derived = [t for t in self.graph.triples_of(subject, vocab.PROV_WAS_DERIVED_FROM)
                       if isinstance(t.object, Iri)]
            self.consumed.update(derived, self.graph.triples_of(subject, vocab.OWL_IMPORTS))
            self.model.derived_from = tuple(sorted(t.object.value for t in derived))

    def _swrl_rules(self) -> None:
        self.swrl_variables = set(self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.SWRL_VARIABLE)))
        for var in self.swrl_variables:
            self.take_types(var, (vocab.SWRL_VARIABLE,))
        for imp in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.SWRL_IMP)):
            self.take_types(imp, (vocab.SWRL_IMP,))
            body_head = []
            for slot in (vocab.SWRL_BODY, vocab.SWRL_HEAD):
                head_node = self.take(imp, slot)
                if head_node is None:
                    raise MalformedExpressionError("swrl:Imp missing body or head")
                # Atom lists may carry rdf:type swrl:AtomList on each cons cell.
                body_head.append(tuple(map(self._swrl_atom, self.read_list(
                    head_node, (vocab.SWRL_ATOM_LIST, vocab.RDF + "List"), "SWRL atom list"))))
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
        if self.take_types(node, (vocab.SWRL_CLASS_ATOM,)):
            cls_node, arg1 = self.take(node, vocab.SWRL_CLASS_PREDICATE), self.take(node, vocab.SWRL_ARGUMENT1)
            if cls_node is None:
                raise MalformedExpressionError("SWRL class atom missing classPredicate")
            return ClassAtom(self.class_expression(cls_node), self._swrl_variable_name(arg1))
        if self.take_types(node, (vocab.SWRL_INDIVIDUAL_PROPERTY_ATOM,)):
            prop_node, arg1, arg2 = (self.take(node, p) for p in (
                vocab.SWRL_PROPERTY_PREDICATE, vocab.SWRL_ARGUMENT1, vocab.SWRL_ARGUMENT2))
            if prop_node is None:
                raise MalformedExpressionError("SWRL property atom missing propertyPredicate")
            return PropertyAtom(self.property_expression(prop_node),
                                self._swrl_variable_name(arg1),
                                self._swrl_variable_name(arg2))
        types = sorted(o.value for o in self.graph.objects(node, vocab.RDF_TYPE) if isinstance(o, Iri))
        raise UnsupportedAtomError(
            f"unsupported SWRL atom type(s) {types}; only class and "
            "individual-property atoms are handled")

    def _collect_annotations(self, node: Term, exclude: Set[str]) -> Tuple[Annotation, ...]:
        pairs: List[Annotation] = []
        for pred, triples in self.graph.spo().get(node, {}).items():
            if pred not in exclude:
                self.consumed.update(triples)
                pairs += [(pred, t.object) for t in triples]
        pairs.sort(key=lambda kv: (kv[0], term_sort_key(kv[1])))
        return tuple(pairs)

    def _reified_axioms(self) -> None:
        for node in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_AXIOM)):
            # Incomplete, not an axiom, or outside the fragment: the node's triples stay unmodeled.
            axiom = self.attempt(self._reified_axiom, node)
            if axiom is not None:
                self.add_axiom(axiom)

    def _reified_axiom(self, node: Term) -> Optional[Axiom]:
        self.take_types(node, (vocab.OWL_AXIOM,))
        source, prop, target = (self.take(node, p) for p in _REIFICATION)
        if source is None or target is None or not isinstance(prop, Iri):
            return None
        axiom = self._decode_statement(source, prop.value, target)
        return axiom and axiom.with_annotations(self._collect_annotations(node, {vocab.RDF_TYPE, *_REIFICATION}))

    def _decode_statement(self, s: Term, p: str, o: Term) -> Optional[Axiom]:
        """Fold one (s, p, o) with a recognized axiom predicate into an Axiom."""
        statement = _STATEMENTS.get(p)
        if statement is not None:
            kind, s_class, o_class = statement
            return Axiom(kind, (self.class_expression(s) if s_class else self.property_expression(s),
                                self.class_expression(o) if o_class else self.property_expression(o)))
        if p in vocab.SKOS_MAPPING_PREDICATES:
            return Axiom("skos-related", (p, s, o))
        if p != vocab.OWL_PROPERTY_CHAIN:
            return None
        chain = tuple(self.property_expression(x) for x in self.read_list(o))
        if len(chain) < 2:
            raise MalformedExpressionError("property chain needs at least two links")
        return Axiom("property-chain", (chain, self.property_expression(s)))

    def _all_disjoint_classes(self) -> None:
        for node in self.graph.subjects_with(vocab.RDF_TYPE, iri(vocab.OWL_ALL_DISJOINT_CLASSES)):
            classes = self.attempt(self._disjoint_members, node) or []
            for i in range(len(classes)):
                for j in range(i + 1, len(classes)):
                    self.add_axiom(Axiom("disjoint-classes", (classes[i], classes[j])))

    def _disjoint_members(self, node: Term) -> Optional[List[ClassExpression]]:
        self.take_types(node, (vocab.OWL_ALL_DISJOINT_CLASSES,))
        members = self.take(node, vocab.OWL_MEMBERS)
        return None if members is None else [self.class_expression(x) for x in self.read_list(members)]

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
                    keyed += [(f"('{kind}', ({t.subject!r}, {text}))", _bulk_axiom(kind, (t.subject, c))) for t in group]
                elif kind == "property-assertion":
                    text = repr(prop := NamedProperty(iri(p)))
                    keyed += [(f"('{kind}', ({text}, {t.subject!r}, {t.object!r}))",
                               _bulk_axiom(kind, (prop, t.subject, t.object))) for t in group]
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
            # Declarations have a pass of their own; owl:Thing and owl:Nothing are classes.
            named = isinstance(o, Iri) and (o is THING.iri or o is NOTHING.iri or not _is_builtin(o.value))
            return "class-assertion" if named else "left"
        if (p in _STATEMENTS or p in vocab.SKOS_MAPPING_PREDICATES
                or p in (vocab.OWL_PROPERTY_CHAIN, vocab.OWL_DISJOINT_UNION_OF)):
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
