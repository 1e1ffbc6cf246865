"""RDF data model: terms, triples, graphs, prefix resolution, graph equality.

Terms come in three kinds (IRI, blank node, literal). Blank node identity is
scoped to the graph that minted it, so merging graphs never conflates labels.
Graphs are plain triple sets with a prefix map; they are built single-writer
and treated as immutable once loaded.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import FrozenInstanceError
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple
from urllib.parse import urljoin


class RdfError(Exception):
    """Base class for RDF model errors."""


class UnknownPrefixError(RdfError):
    """A prefixed name used a label that is not declared."""


class MissingBaseError(RdfError):
    """A relative IRI reference was used with no base IRI in effect."""


class IsomorphismLimitError(RdfError):
    """Blank-node matching exceeded the configured search bound."""


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


class _Frozen:
    """Refuses assignment, as a frozen dataclass does. Blank nodes, literals and
    triples derive from a plain slots class and from this: each is built as its
    slots class, which stores into the slots directly (faster than through
    their descriptors), and then given its class. Its hash is computed there,
    once."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        # Copies and pickles rebuild the term, as string hashes differ by process.
        return (self.__class__, tuple(getattr(self, name) for name in self.__match_args__))


_IRIS: Dict[str, "Iri"] = {}


class Iri(_Frozen):
    """An absolute IRI. Instances are interned, so ``Iri(v) is iri(v)`` and
    equality and hashing are by identity."""

    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: str) -> "Iri":
        term = _IRIS.get(value)
        if term is None:
            if not _SCHEME_RE.match(value):
                raise RdfError(f"IRI is not absolute: {value!r}")
            term = object.__new__(cls)
            object.__setattr__(term, "value", value)
            # setdefault keeps one object per IRI when two threads race here.
            term = _IRIS.setdefault(value, term)
        return term

    def __repr__(self) -> str:
        return f"<{self.value}>"


class _BlankNodeSlots:
    __slots__ = ("node_id", "scope", "_hash")


class BlankNode(_BlankNodeSlots, _Frozen):
    __slots__ = ()
    __match_args__ = ("node_id", "scope")

    def __new__(cls, node_id: str, scope: int) -> "BlankNode":
        node = _BlankNodeSlots()
        node.node_id, node.scope, node._hash = node_id, scope, hash((node_id, scope))
        node.__class__ = BlankNode
        return node

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BlankNode:
            return NotImplemented
        return (self.node_id, self.scope) == (other.node_id, other.scope)

    def __repr__(self) -> str:
        return f"_:{self.node_id}"


class _LiteralSlots:
    __slots__ = ("lexical", "datatype", "language", "_hash")


class Literal(_LiteralSlots, _Frozen):
    __slots__ = ()
    __match_args__ = ("lexical", "datatype", "language")

    def __new__(cls, lexical: str, datatype: Optional[str] = None, language: Optional[str] = None) -> "Literal":
        if datatype is not None and language is not None:
            raise RdfError("literal cannot carry both a datatype and a language tag")
        lit = _LiteralSlots()
        lit.lexical, lit.datatype, lit.language = lexical, datatype, language
        lit._hash = hash((lexical, datatype, language))
        lit.__class__ = Literal
        return lit

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        return (self.lexical, self.datatype, self.language) == (other.lexical, other.datatype, other.language)

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype:
            return f'"{self.lexical}"^^<{self.datatype}>'
        return f'"{self.lexical}"'


Term = Iri | BlankNode | Literal

def iri(value: str) -> Iri:
    """Interned IRI constructor; the same object as ``Iri(value)``."""
    return _IRIS.get(value) or Iri(value)


_scope_counter = itertools.count(1)


def new_scope() -> int:
    """Allocate a fresh blank-node scope (one per graph/document)."""
    return next(_scope_counter)


class _TripleSlots:
    __slots__ = ("subject", "predicate", "object", "_hash")


def new_triple(subject: Term, predicate: "Iri", object: Term) -> "Triple":
    """``Triple(subject, predicate, object)`` without its checks, for a caller
    that guarantees them: the predicate is an Iri, the subject not a Literal."""
    t = _TripleSlots()
    t.subject, t.predicate, t.object = subject, predicate, object
    t._hash = hash((subject, predicate, object))
    t.__class__ = Triple
    return t


class Triple(_TripleSlots, _Frozen):
    """An RDF statement. Immutable; its hash is computed once, at construction."""

    __slots__ = ()
    __match_args__ = ("subject", "predicate", "object")

    def __new__(cls, subject: Term, predicate: Term, object: Term) -> "Triple":
        if predicate.__class__ is not Iri:
            raise RdfError(f"triple predicate must be an IRI, got {predicate!r}")
        if subject.__class__ is Literal:
            raise RdfError("triple subject cannot be a literal")
        return new_triple(subject, predicate, object)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Triple:
            return NotImplemented
        return (self._hash == other._hash and self.predicate is other.predicate
                and self.subject == other.subject and self.object == other.object)

    def __repr__(self) -> str:
        return f"Triple(subject={self.subject!r}, predicate={self.predicate!r}, object={self.object!r})"

    def terms(self) -> Tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)


def term_sort_key(t: Term) -> Tuple:
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if t.__class__ is Iri:
        return (0, t.value)
    if t.__class__ is BlankNode:
        return (1, t.scope, t.node_id)
    return (2, t.lexical, t.datatype or "", t.language or "")


def triple_sort_key(t: Triple) -> Tuple:
    """Subject, predicate, object, in term order, as one flat tuple: two equal
    term keys have one kind and one length, so the parts line up."""
    s, o = t.subject, t.object
    if s.__class__ is Iri:
        if o.__class__ is Iri:
            return (0, s.value, t.predicate.value, 0, o.value)
        return (0, s.value, t.predicate.value, *term_sort_key(o))
    return (*term_sort_key(s), t.predicate.value, *term_sort_key(o))


class Graph:
    """A set of triples plus the prefix map and base recorded at parse time."""

    def __init__(self, prefixes: Optional[Dict[str, str]] = None, base: Optional[str] = None):
        self.triples: Set[Triple] = set()
        self.prefixes: Dict[str, str] = dict(prefixes or {})
        self.base: Optional[str] = base
        self._spo: Optional[Dict[Term, Dict[str, List[Triple]]]] = None
        self._by_predicate: Optional[Dict[str, List[Triple]]] = None

    def add(self, t: Triple) -> None:
        self.triples.add(t)
        self._spo = self._by_predicate = None

    def add_triple(self, s: Term, p: Iri, o: Term) -> None:
        self.add(Triple(s, p, o))

    def bind(self, label: str, namespace: str) -> None:
        self.prefixes[label] = namespace

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def _predicate_index(self) -> Dict[str, List[Triple]]:
        """The predicate IRI -> triples index, built on first use."""
        if self._by_predicate is None:
            by_iri: Dict[Iri, List[Triple]] = {}
            for t in self.triples:
                by_iri.setdefault(t.predicate, []).append(t)
            self._by_predicate = {p.value: triples for p, triples in by_iri.items()}
        return self._by_predicate

    def spo(self) -> Dict[Term, Dict[str, List[Triple]]]:
        """Subject -> predicate IRI -> triple list index, triples in triple order;
        built on first use, which a graph of assertions alone may never need."""
        if self._spo is None:
            spo: Dict[Term, Dict[str, List[Triple]]] = {}
            for p, triples in self._predicate_index().items():
                for t in triples:
                    spo.setdefault(t.subject, {}).setdefault(p, []).append(t)
            for props in spo.values():
                for triples in props.values():
                    if len(triples) > 1:
                        triples.sort(key=triple_sort_key)
            self._spo = spo
        return self._spo

    def with_predicate(self, predicate: str) -> List[Triple]:
        """The triples whose predicate is ``predicate``, in no set order."""
        return self._predicate_index().get(predicate, [])

    def predicates(self) -> List[str]:
        """The predicate IRIs of the graph's triples, in no set order."""
        return list(self._predicate_index())

    def triples_of(self, subject: Term, predicate: str) -> List[Triple]:
        """The triples of ``subject`` with ``predicate``, in triple order."""
        return self.spo().get(subject, {}).get(predicate, [])

    def objects(self, subject: Term, predicate: str) -> List[Term]:
        return [t.object for t in self.triples_of(subject, predicate)]

    def object(self, subject: Term, predicate: str) -> Optional[Term]:
        triples = self.triples_of(subject, predicate)
        return triples[0].object if triples else None

    def subjects_with(self, predicate: str, obj: Optional[Term] = None) -> List[Term]:
        found = [t.subject for t in self.with_predicate(predicate) if obj is None or t.object == obj]
        found.sort(key=term_sort_key)
        return found

    def blank_nodes(self) -> Set[BlankNode]:
        nodes: Set[BlankNode] = set()
        for t in self.triples:
            for term in t.terms():
                if isinstance(term, BlankNode):
                    nodes.add(term)
        return nodes


def iri_resolve(prefixes: Dict[str, str], name: str, base: Optional[str] = None) -> Iri:
    """Resolve a prefixed name or IRI reference to an absolute IRI term.

    Bracketed references (``<...>``) resolve against ``base`` when relative;
    anything containing a colon is treated as a prefixed name whose label must
    be declared; bare names are relative references.
    """
    if name.startswith("<") and name.endswith(">"):
        ref = name[1:-1]
        if _SCHEME_RE.match(ref):
            return iri(ref)
        if base is None:
            raise MissingBaseError(f"relative IRI {ref!r} with no base")
        return iri(urljoin(base, ref))
    if ":" in name:
        label, local = name.split(":", 1)
        if label not in prefixes:
            raise UnknownPrefixError(f"unknown prefix {label!r} in {name!r}")
        return iri(prefixes[label] + local)
    if base is None:
        raise MissingBaseError(f"relative name {name!r} with no base")
    return iri(urljoin(base, name))


# ---------------------------------------------------------------------------
# Blank-node aware graph equality
# ---------------------------------------------------------------------------

def _ground(t: Triple) -> bool:
    return not any(isinstance(x, BlankNode) for x in t.terms())


def _term_key_fixed(t: Term) -> Tuple:
    # Used inside refinement signatures; blank nodes are represented by color.
    if isinstance(t, Iri):
        return ("i", t.value)
    return ("l", t.lexical, t.datatype or "", t.language or "")


def _refine_colors(triples: Set[Triple], nodes: List[BlankNode]) -> Dict[BlankNode, int]:
    """Iterative color refinement by incident-triple signatures."""
    colors: Dict[BlankNode, int] = {n: 0 for n in nodes}
    incident: Dict[BlankNode, List[Triple]] = {n: [] for n in nodes}
    for t in triples:
        for term in set(t.terms()):
            if isinstance(term, BlankNode):
                incident[term].append(t)
    while True:
        signatures = {}
        for n in nodes:
            sig = []
            for t in incident[n]:
                row = []
                for pos, term in zip("spo", t.terms()):
                    if term == n:
                        row.append((pos, "self"))
                    elif isinstance(term, BlankNode):
                        row.append((pos, "peer", colors[term]))
                    else:
                        row.append((pos, *_term_key_fixed(term)))
                sig.append(tuple(row))
            sig.sort()
            signatures[n] = (colors[n], tuple(sig))
        distinct = sorted(set(signatures.values()))
        remap = {s: i for i, s in enumerate(distinct)}
        new_colors = {n: remap[signatures[n]] for n in nodes}
        if new_colors == colors:
            return colors
        colors = new_colors


def _apply_mapping(triples: Iterable[Triple], mapping: Dict[BlankNode, BlankNode]) -> Set[Triple]:
    def sub(term: Term) -> Term:
        return mapping[term] if isinstance(term, BlankNode) else term

    return {Triple(sub(t.subject), t.predicate, sub(t.object)) for t in triples}


def graph_isomorphic(a: Graph, b: Graph, max_blank_nodes: int = 64) -> bool:
    """True iff some blank-node bijection makes the triple sets equal.

    IRIs and literals compare by value. Raises IsomorphismLimitError when the
    graphs have more than ``max_blank_nodes`` blank nodes and color refinement
    leaves ambiguous classes that would need brute-force search.
    """
    if len(a.triples) != len(b.triples):
        return False
    ground_a = {t for t in a.triples if _ground(t)}
    ground_b = {t for t in b.triples if _ground(t)}
    if ground_a != ground_b:
        return False
    rest_a = a.triples - ground_a
    rest_b = b.triples - ground_b
    nodes_a = sorted({n for t in rest_a for n in t.terms() if isinstance(n, BlankNode)},
                     key=term_sort_key)
    nodes_b = sorted({n for t in rest_b for n in t.terms() if isinstance(n, BlankNode)},
                     key=term_sort_key)
    if len(nodes_a) != len(nodes_b):
        return False
    if not nodes_a:
        return rest_a == rest_b

    colors_a = _refine_colors(rest_a, nodes_a)
    colors_b = _refine_colors(rest_b, nodes_b)
    hist_a = sorted(colors_a.values())
    hist_b = sorted(colors_b.values())
    if hist_a != hist_b:
        return False

    classes_b: Dict[int, List[BlankNode]] = {}
    for n in nodes_b:
        classes_b.setdefault(colors_b[n], []).append(n)

    ambiguous = any(len(v) > 1 for v in classes_b.values())
    if ambiguous and len(nodes_a) > max_blank_nodes:
        raise IsomorphismLimitError(
            f"{len(nodes_a)} blank nodes exceed the bound of {max_blank_nodes} "
            "and refinement left ambiguous classes"
        )

    # Assign most-constrained nodes first so forced choices propagate early.
    order = sorted(nodes_a, key=lambda n: (len(classes_b.get(colors_a[n], [])), term_sort_key(n)))
    incident_a: Dict[BlankNode, List[Triple]] = {n: [] for n in nodes_a}
    for t in rest_a:
        for term in set(t.terms()):
            if isinstance(term, BlankNode):
                incident_a[term].append(t)

    mapping: Dict[BlankNode, BlankNode] = {}
    used: Set[BlankNode] = set()

    def consistent(n: BlankNode) -> bool:
        for t in incident_a[n]:
            terms = t.terms()
            if any(isinstance(x, BlankNode) and x not in mapping for x in terms):
                continue
            image = Triple(
                mapping[t.subject] if isinstance(t.subject, BlankNode) else t.subject,
                t.predicate,
                mapping[t.object] if isinstance(t.object, BlankNode) else t.object,
            )
            if image not in rest_b:
                return False
        return True

    def assign(i: int) -> bool:
        if i == len(order):
            return _apply_mapping(rest_a, mapping) == rest_b
        n = order[i]
        for candidate in classes_b.get(colors_a[n], []):
            if candidate in used:
                continue
            mapping[n] = candidate
            used.add(candidate)
            if consistent(n) and assign(i + 1):
                return True
            del mapping[n]
            used.discard(candidate)
        return False

    return assign(0)
