"""Forward-chaining materialization over the supported OWL fragment plus SWRL.

The engine precomputes a subsumption closure over every class expression in
the loaded axioms (asserted subsumptions and equivalences, intersection
decomposition and composition, union introduction, and "a union is below
anything all its operands are below"). Each arriving fact then propagates
through precompiled steps: superclasses, the property hierarchy, inverses,
domains and ranges. Existential restrictions that no known successor already
satisfies get depth-bounded skolem witnesses (a restricted chase), and
intersection composition, existential membership, property chains and SWRL
rules run as Horn rules in one indexed, semi-naive join, to fixpoint.

There is deliberately no instance-level case split on unions: the engine is
sound but incomplete relative to OWL 2 DL, which suffices for the clash
patterns checked here. Every fact records the rule and premises behind it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from operator import and_, attrgetter, or_
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import vocab
from .owl import (
    Atom,
    Axiom,
    ClassAtom,
    ClassExpression,
    Complement,
    DisjointUnionOf,
    Intersection,
    NamedClass,
    NamedProperty,
    NOTHING,
    OntologyModel,
    PropertyAtom,
    PropertyExpression,
    SomeValuesFrom,
    THING,
    UnionOf,
    add_subexpressions,
    add_uses,
    extract_axioms,
)
from .rdf import BlankNode, Graph, Iri, Literal, Term, term_sort_key


class ReasonerError(Exception):
    pass


class FactCapExceededError(ReasonerError):
    """The derived-fact count hit the nontermination guard."""


def _cap_exceeded(fact_cap: int) -> FactCapExceededError:
    return FactCapExceededError(f"derived-fact cap of {fact_cap} exceeded; closure aborted")


class UnknownFactError(ReasonerError):
    """explain() was asked about a fact that is not in the closure."""


# Fact keys: ("class", individual, expression) and ("prop", property-iri, s, o)
FactKey = Tuple


def class_fact(individual: Term, ce: ClassExpression) -> FactKey:
    return ("class", individual, ce)


def prop_fact(prop_iri: str, subject: Term, obj: Term) -> FactKey:
    return ("prop", prop_iri, subject, obj)


class Trace(NamedTuple):
    rule: str
    premises: Tuple[FactKey, ...]
    detail: str = ""


@dataclass
class TraceNode:
    fact: FactKey
    rule: str
    detail: str
    children: List["TraceNode"] = field(default_factory=list)

    def rules_used(self) -> Set[str]:
        out = {self.rule}
        for child in self.children:
            out |= child.rules_used()
        return out


# ---------------------------------------------------------------------------
# TBox index
# ---------------------------------------------------------------------------

PropKey = Tuple[str, bool]  # (property IRI, inverted?)
# A propagation plan entry: (property IRI or class expression, onto the swapped
# pair?, premise position, rule, trace detail); see TBoxIndex.prop_plan.
PlanEntry = Tuple[object, bool, int, str, str]
# An instance rule: (trace label, trace detail, body atoms, head atoms).
Rule = Tuple[str, str, Tuple[Atom, ...], Tuple[Atom, ...]]


def _prop_key(pe: PropertyExpression) -> PropKey:
    if isinstance(pe, NamedProperty):
        return (pe.iri.value, False)
    return (pe.operand.iri.value, True)


def _flip(key: PropKey) -> PropKey:
    return (key[0], not key[1])


_BYTE_BITS = [tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)]  # set bits per byte


def _bit_ids(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending: bit by bit from the
    top when under one bit in 16 is set (each step copies the mask), else by bytes."""
    if mask.bit_count() << 4 < mask.bit_length():
        ids: List[int] = []
        while mask:
            ids.append(j := mask.bit_length() - 1)
            mask ^= 1 << j
        return ids[::-1]
    return [8 * k + i for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little"))
            if byte for i in _BYTE_BITS[byte]]


def _above(reach: List[int], i: Optional[int]) -> List[int]:
    """The ids set in mask ``i`` other than ``i`` itself; none for no id."""
    return [] if i is None else _bit_ids(reach[i] & ~(1 << i))


def _close_masks(succ: List[List[int]], conjunctions: Dict[int, List[Tuple[int, int]]],
                 unions: Dict[int, List[int]]) -> List[int]:
    """The least masks, bit y of mask x set when x <= y, under: x <= x; x <= each
    y in ``succ[x]``; transitivity; x <= an intersection i whose operands are
    all above x (``conjunctions`` lists (i, operand mask) under each operand);
    a union u is below all that its operands ``unions[u]`` are below. The
    intersections found are appended to ``succ``."""
    reach, readers = [0] * len(succ), [[] for _ in succ]  # type: List[int], List[List[int]]
    for x, ys in [*enumerate(succ), *unions.items()]:
        for y in ys:
            readers[y].append(x)
    # The worklist starts in depth-first postorder, successors first; a node
    # is redone when a mask that it reads grows.
    work, queued = [], bytearray(len(succ))  # type: List[int], bytearray
    for root in range(len(succ)):
        stack = [] if queued[root] else [root]
        while stack:
            queued[stack[-1]] = 1
            y = next((y for y in succ[stack[-1]] if not queued[y]), -1)
            if y < 0:
                work.append(stack.pop())
            else:
                stack.append(y)
    work.reverse()
    operands = sum(1 << op for op in conjunctions)
    while work:
        x = work.pop()
        queued[x] = 0
        seen = old = reach[x]
        mask = reduce(or_, [reach[y] for y in succ[x]], old | 1 << x)
        if x in unions:
            mask |= reduce(and_, [reach[op] for op in unions[x]])
        while fresh := mask & ~seen & operands:  # new operands: try their intersections
            seen = mask
            for i, ops in [entry for op in _bit_ids(fresh) for entry in conjunctions[op]]:
                if mask & ops == ops and not mask >> i & 1:
                    succ[x].append(i)
                    readers[i].append(x)
                    mask |= 1 << i | reach[i]
        if mask != old:
            reach[x] = mask
            for r in readers[x]:
                if not queued[r]:
                    queued[r] = 1
                    work.append(r)
    return reach


def _structure_keys(universe: Iterable[ClassExpression]) -> Dict[ClassExpression, Tuple]:
    """Sort keys: text, type name, then fields, a class expression by its key."""
    keys: Dict[ClassExpression, Tuple] = {}
    for ce in sorted(universe, key=lambda e: len(e.text)):  # a field's text is shorter
        keys[ce] = (ce.text, type(ce).__name__, *[
            tuple(map(keys.__getitem__, v)) if isinstance(v, tuple) else keys.get(v, getattr(v, "text", ""))
            for v in map(ce.__getattribute__, ce.__match_args__)])
    return keys


class TBoxIndex:
    """Schema-level closure shared by every materialization over the same models.
    Expressions have dense ids in text order, property keys in name order, and
    bit j of a ``_reach`` mask is set when id j is above; supers decode on request."""

    def __init__(self, models: Sequence[OntologyModel]):
        self.universe: Set[ClassExpression] = {THING}
        self.edges: Dict[ClassExpression, Set[ClassExpression]] = {}
        self.disjoint_pairs: Tuple[Tuple[ClassExpression, ClassExpression], ...] = ()
        self.domains: Dict[str, List[ClassExpression]] = {}
        self.ranges: Dict[str, List[ClassExpression]] = {}
        self.inverse_pairs: Dict[str, Set[str]] = {}
        self.prop_edges: Dict[PropKey, Set[PropKey]] = {}
        # Plans for a non-literal object, then for a literal one.
        self._prop_plans: Tuple[Dict[str, Tuple[PlanEntry, ...]], ...] = ({}, {})
        self._load(models)
        self._close_classes()
        self._close_properties()

    # -- loading -------------------------------------------------------------

    def _edge(self, a: ClassExpression, b: ClassExpression) -> None:
        self.edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a: PropKey, b: PropKey) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_edges.setdefault(_flip(a), set()).add(_flip(b))

    def _load(self, models: Sequence[OntologyModel]) -> None:
        gated: Dict[Intersection, None] = {}
        chains: List[Rule] = []
        swrl: List[Rule] = []
        disjoint: List[Tuple[ClassExpression, ClassExpression]] = []
        # The class expressions that the axioms and rules use, which with their
        # subexpressions make up the universe.
        used: Set[ClassExpression] = set()
        # Each model's class and property assertions, kept for every closure.
        self._assertions: List[Tuple[OntologyModel, List[Axiom]]] = []
        for model in models:
            kept: List[Axiom] = []
            self._assertions.append((model, kept))
            add_uses(model.axioms, used, set(), set())
            add_uses(model.rules, used, set(), set())
            for ax in model.axioms:
                kind, args = ax.kind, ax.args
                if kind == "sub-class-of":
                    self._edge(args[0], args[1])
                elif kind == "equivalent-classes":
                    self._edge(args[0], args[1])
                    self._edge(args[1], args[0])
                    gated.update((ce, None) for ce in args if isinstance(ce, Intersection))
                elif kind == "disjoint-classes":
                    disjoint.append(args)  # type: ignore[arg-type]
                elif kind == "disjoint-union":
                    union = DisjointUnionOf(args[1])
                    self._edge(args[0], union)
                    self._edge(union, args[0])
                elif kind == "sub-property-of":
                    self._prop_edge(_prop_key(args[0]), _prop_key(args[1]))
                elif kind == "equivalent-properties":
                    a, b = _prop_key(args[0]), _prop_key(args[1])
                    self._prop_edge(a, b); self._prop_edge(b, a)
                elif kind == "inverse-properties":
                    a, b = _prop_key(args[0]), _prop_key(args[1])
                    self._prop_edge(_flip(a), b); self._prop_edge(b, _flip(a))
                    if not a[1] and not b[1]:
                        self.inverse_pairs.setdefault(a[0], set()).add(b[0])
                        self.inverse_pairs.setdefault(b[0], set()).add(a[0])
                elif kind == "property-domain":
                    name, inverted = _prop_key(args[0])
                    (self.ranges if inverted else self.domains).setdefault(name, []).append(args[1])
                elif kind == "property-range":
                    name, inverted = _prop_key(args[0])
                    (self.domains if inverted else self.ranges).setdefault(name, []).append(args[1])
                elif kind == "property-chain":
                    chains.append(("property-chain", f"chain into {_prop_key(args[1])[0]}",
                                   tuple(PropertyAtom(pe, f"v{i}", f"v{i + 1}")
                                         for i, pe in enumerate(args[0])),
                                   (PropertyAtom(args[1], "v0", f"v{len(args[0])}"),)))
                elif kind in ("class-assertion", "property-assertion"):
                    kept.append(ax)
            for rule in model.rules:
                comment = next((value.lexical for pred, value in rule.annotations
                                if pred == vocab.RDFS_COMMENT and isinstance(value, Literal)), "")
                swrl.append((f"swrl-rule-{len(swrl) + 1}", comment, rule.body, rule.head))
        add_subexpressions(used, self.universe)
        # Ids in text order; a shared text (IRIs with spaces) is a rare tie.
        order = sorted(self.universe, key=attrgetter("text"))
        if any(a.text == b.text for a, b in zip(order, order[1:])):
            order.sort(key=_structure_keys(order).__getitem__)
        self._order, self._ids = order, {ce: i for i, ce in enumerate(order)}
        rank = self._ids.__getitem__

        # Structural edges and disjointness contributed by expression shapes.
        for ce in order:
            if isinstance(ce, Intersection):
                for op in ce.operands:
                    self._edge(ce, op)
            elif isinstance(ce, (UnionOf, DisjointUnionOf)):
                for op in ce.operands:
                    self._edge(op, ce)
                if isinstance(ce, DisjointUnionOf):
                    disjoint += [(a, b) for i, a in enumerate(ce.operands) for b in ce.operands[i + 1:]]
        self.disjoint_pairs = tuple(sorted({(a, b) if rank(a) < rank(b) else (b, a) for a, b in disjoint
                                            if a is not b}, key=lambda pair: (rank(pair[0]), rank(pair[1]))))
        # Clash patterns: (kind, participants, the mask of their ids); owl:Nothing
        # may have no id here, so check_clash adds its own.
        self.clash_patterns: List[Tuple[str, Tuple[ClassExpression, ...], int]] = [
            ("disjointness-violation", pair, 1 << rank(pair[0]) | 1 << rank(pair[1])) for pair in self.disjoint_pairs]
        self.clash_patterns += [("complement-violation", (ce.operand, ce), 1 << rank(ce.operand) | 1 << rank(ce))
                                for ce in order if isinstance(ce, Complement)]
        for values in (*self.domains.values(), *self.ranges.values()):
            values.sort(key=rank)

        # Instance rules, in firing order: intersection composition, existential
        # membership, property chains, then SWRL rules.
        self.rules: List[Rule] = [
            ("intersection-composition", "", tuple(ClassAtom(op, "x") for op in ce.operands),
             (ClassAtom(ce, "x"),)) for ce in gated]
        self.rules += [("existential-membership", "",
                        (PropertyAtom(ce.prop, "x", "y"), ClassAtom(ce.filler, "y")),
                        (ClassAtom(ce, "x"),)) for ce in order if isinstance(ce, SomeValuesFrom)]
        self.rules += chains + swrl
        # Trigger index: the rules that read each class expression or property,
        # bit i for rule i, and how many distinct predicates each rule's body reads.
        self.readers: Dict[object, int] = {}
        self.body_sizes: List[int] = []
        for index, (_, _, body, _) in enumerate(self.rules):
            predicates = {a.cls if isinstance(a, ClassAtom) else _prop_key(a.prop)[0] for a in body}
            self.body_sizes.append(len(predicates))
            for predicate in predicates:
                self.readers[predicate] = self.readers.get(predicate, 0) | 1 << index
        # The ids whose class facts need more than a bit in a mask: the classes
        # that some rule reads, and existentials, which may need a witness.
        self._watched = sum(1 << rank(ce) for ce in {
            *(ce for ce in order if isinstance(ce, SomeValuesFrom)), *(p for p in self.readers if not isinstance(p, str))})

    # -- closures --------------------------------------------------------------

    def _close_classes(self) -> None:
        ids = self._ids
        succ = [sorted(ids[b] for b in self.edges.get(ce, ())) for ce in self._order]
        conjunctions: Dict[int, List[Tuple[int, int]]] = {}
        unions: Dict[int, List[int]] = {}
        for i, ce in enumerate(self._order):
            if isinstance(ce, Intersection):
                ops = {ids[op] for op in ce.operands}
                for op in ops:
                    conjunctions.setdefault(op, []).append((i, sum(1 << j for j in ops)))
            elif isinstance(ce, (UnionOf, DisjointUnionOf)):
                unions[i] = [ids[op] for op in ce.operands]
        self._reach = _close_masks(succ, conjunctions, unions)

    def _close_properties(self) -> None:
        # Property keys get ids 2 * (rank of the name) + inverted?.
        self._prop_names = sorted({name for key, sups in self.prop_edges.items() for name, _ in (key, *sups)})
        self._prop_ids = {name: 2 * i for i, name in enumerate(self._prop_names)}
        succ: List[List[int]] = [[] for _ in range(2 * len(self._prop_names))]
        for (name, inverted), sups in self.prop_edges.items():
            succ[self._prop_ids[name] + inverted] = [self._prop_ids[q] + inv for q, inv in sups]
        self._prop_reach = _close_masks(succ, {}, {})

    # -- queries ---------------------------------------------------------------

    def supers(self, ce: ClassExpression) -> Tuple[ClassExpression, ...]:
        """Strict superexpressions of ``ce`` within the loaded universe, in id order,
        decoded on each call."""
        return tuple(map(self._order.__getitem__, _above(self._reach, self._ids.get(ce))))

    def super_count(self, ce: ClassExpression) -> int:
        """``len(self.supers(ce))``, counted on the mask without decoding it."""
        i = self._ids.get(ce)
        return 0 if i is None else self._reach[i].bit_count() - 1

    def subsumed(self, sub: ClassExpression, sup: ClassExpression) -> bool:
        if sub == sup:
            return True
        i, j = self._ids.get(sub), self._ids.get(sup)
        return i is not None and j is not None and self._reach[i] >> j & 1 == 1

    def named_prop_supers(self, name: str) -> Tuple[str, ...]:
        """Strict named super-properties of ``name``, in name order, decoded on each call."""
        return tuple([self._prop_names[j >> 1]
                      for j in _above(self._prop_reach, self._prop_ids.get(name)) if not j & 1])

    def prop_plan(self, name: str, literal: bool) -> Tuple[PlanEntry, ...]:
        """The facts that a new fact of property ``name`` propagates to, in the
        order of a depth-first walk: (property or class, onto the swapped pair?,
        position of the premise, rule, trace detail). Position 0 is the new fact
        and entry i is at position i + 1. A property fact leads to its named
        supers not yet met on its side, lowest id first as read from the masks,
        then to its inverses, domains and ranges. Last, the new fact leads to the
        supers of ``name`` through an inverse that the walk has not met, as
        through ``p0 rdfs:subPropertyOf [ owl:inverseOf p1 ]``. A ``literal``
        object takes no flipped step."""
        plans = self._prop_plans[literal]
        plan = plans.get(name)
        if plan is None:
            ids, names, reach = self._prop_ids, self._prop_names, self._prop_reach
            named = (4 ** len(names) - 1) // 3  # bits 0, 2, 4, ...: the non-inverted keys
            seen = [1 << ids[name] if name in ids else 0, 0]  # property facts met, as-is and swapped

            def steps(name: str, swapped: bool) -> Iterator[Tuple[object, bool, str, str]]:
                supers = reach[ids[name]] & named if name in ids else 0
                while left := supers & ~seen[swapped]:
                    sup = names[(left & -left).bit_length() - 1 >> 1]
                    yield sup, False, "subproperty", f"{name} is below {sup}"
                yield from [(q, True, "inverse", f"{q} is the inverse of {name}")
                            for q in sorted(self.inverse_pairs.get(name, ()))]
                yield from [(c, False, "domain", f"domain of {name}") for c in self.domains.get(name, ())]
                yield from [(c, True, "range", f"range of {name}") for c in self.ranges.get(name, ())]

            def inverted() -> Iterator[Tuple[object, bool, str, str]]:
                supers = reach[ids[name]] >> 1 & named if name in ids and not literal else 0
                while left := supers & ~seen[True]:
                    sup = names[(left & -left).bit_length() - 1 >> 1]
                    yield sup, True, "subproperty", f"{name} is below the inverse of {sup}"

            entries: List[PlanEntry] = []
            stack = [(0, False, chain(steps(name, False), inverted()))]
            while stack:
                position, swapped, pending = stack[-1]
                for target, flipped, rule, why in pending:
                    if flipped and literal:
                        continue
                    onto = swapped != flipped
                    if not isinstance(target, str):
                        entries.append((target, onto, position, rule, why))
                    elif not seen[onto] >> ids[target] & 1:
                        seen[onto] |= 1 << ids[target]
                        entries.append((target, onto, position, rule, why))
                        stack.append((len(entries), onto, steps(target, onto)))
                        break
                else:
                    stack.pop()
            plan = plans[name] = tuple(entries)
        return plan

    def assertions(self, models: Sequence[OntologyModel]) -> Iterator[Axiom]:
        """The class and property assertions of ``models``, in order; the models
        this index was built from are not rescanned."""
        for model in models:
            kept = next((axioms for known, axioms in self._assertions if known is model), None)
            yield from kept if kept is not None else (
                ax for ax in model.axioms if ax.kind in ("class-assertion", "property-assertion"))


def _mutual(pairs: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    return {(a, b) for a, b in pairs if a < b and (b, a) in pairs}


class Taxonomy:
    """The entailed named-term hierarchy, a view on one schema index. Reflexive
    pairs are excluded; the pair sets are computed each time they are read."""

    def __init__(self, tbox: TBoxIndex):
        self.tbox = tbox
        self._class_ids = {ce.iri.value: i for ce, i in tbox._ids.items()
                           if isinstance(ce, NamedClass) and ce not in (THING, NOTHING)}
        self._named = set(self._class_ids.values())
        self.names = {*self._class_ids, *tbox._prop_names}

    def supers(self, name: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The named classes other than owl:Thing and owl:Nothing, and the named
        properties, strictly above ``name``; each sorted."""
        order, ids = self.tbox._order, _above(self.tbox._reach, self._class_ids.get(name))
        return tuple([order[j].iri.value for j in ids if j in self._named]), self.tbox.named_prop_supers(name)

    subclass_pairs = property(lambda self: {(a, b) for a in self._class_ids for b in self.supers(a)[0]})
    subproperty_pairs = property(lambda self: {(a, b) for a in self.tbox._prop_names for b in self.supers(a)[1]})
    equivalent_class_pairs = property(lambda self: _mutual(self.subclass_pairs))
    equivalent_property_pairs = property(lambda self: _mutual(self.subproperty_pairs))


@dataclass
class Clash:
    kind: str  # disjointness-violation | complement-violation | nothing-membership
    individual: Term
    participants: Tuple[ClassExpression, ...]
    trace_facts: Tuple[FactKey, ...]

    def sort_key(self) -> Tuple:
        return (term_sort_key(self.individual), self.kind,
                tuple(p.text for p in self.participants))


class ClosedKB:
    """Fixpoint of asserted plus derived facts, with derivation traces. Each
    individual's classes are one mask over class ids; a class fact is logged
    once per burst, a class with every superclass not yet held, and the facts'
    traces are replayed from the log on read."""

    def __init__(self, tbox: TBoxIndex):
        self.tbox = tbox
        self.prop_index: Dict[str, List[Tuple[Term, Term]]] = {}
        self.skolem_depths: Dict[Term, int] = {}
        self.skolem_budget_exceeded = False
        self.derived_count = 0
        self._masks: Dict[Term, int] = {}
        # The index's classes and masks, and after them any class outside it.
        self._extra: Dict[ClassExpression, int] = {}
        self._order, self._reach = tbox._order, tbox._reach
        self._prop_traces: Dict[FactKey, Trace] = {}  # property facts, in derivation order
        # Bursts: (property facts before it, individual, class id, its trace,
        # the individual's mask before it, or -1 for one fact logged alone).
        self._bursts: List[Tuple[int, Term, int, Trace, int]] = []
        # Caches: the fact count and the replayed traces; the burst count and
        # each individual's bursts.
        self._replayed: Tuple[int, Dict[FactKey, Trace]] = (0, {})
        self._by_individual: Tuple[int, Dict[Term, List]] = (0, {})

    def _id(self, ce: ClassExpression) -> Optional[int]:
        i = self.tbox._ids.get(ce)
        return self._extra.get(ce) if i is None else i

    @property
    def memberships(self) -> Dict[Term, Set[ClassExpression]]:
        """Each individual's classes, decoded from its mask on every read."""
        return {x: set(map(self._order.__getitem__, _bit_ids(mask))) for x, mask in self._masks.items()}

    @property
    def traces(self) -> Dict[FactKey, Trace]:
        """Every fact with its trace, in derivation order, replayed from the log."""
        if self._replayed[0] != self.derived_count:
            props, done, traces = iter(self._prop_traces.items()), 0, {}
            for at, *burst in self._bursts:
                traces.update(islice(props, at - done))
                traces.update(self._walk(*burst))
                done = at
            traces.update(props)
            self._replayed = (self.derived_count, traces)
        return self._replayed[1]

    def _walk(self, x: Term, i: int, trace: Trace, before: int) -> Iterator[Tuple[FactKey, Trace]]:
        """One burst's facts with their traces: class ``i``, then depth first each
        superclass not in ``before``, lowest id first, as ``add_class`` met them."""
        order = self._order
        yield (fact := class_fact(x, order[i])), trace
        held, stack = before | 1 << i, [(fact, i)]
        while stack:
            premise, n = stack[-1]
            if left := self._reach[n] & ~held:
                j = (left & -left).bit_length() - 1
                held |= 1 << j
                stack.append((class_fact(x, order[j]), j))
                yield stack[-1][0], Trace("subsumption", (premise,), f"{order[n].text} is below {order[j].text}")
            else:
                stack.pop()

    def trace_of(self, fact: FactKey) -> Optional[Trace]:
        """The trace of one fact, replaying only the burst that derived it; None
        for a fact that the closure does not hold."""
        if fact[0] != "class" or not self.has_class(fact[1], fact[2]):
            return self._prop_traces.get(fact)
        if self._by_individual[0] != len(self._bursts):
            self._by_individual = (len(self._bursts), {})
            for burst in self._bursts:
                self._by_individual[1].setdefault(burst[1], []).append(burst)
        i = self._id(fact[2])
        # The first of the individual's bursts whose facts hold class i.
        _, x, root, trace, before = next(burst for burst in self._by_individual[1][fact[1]]
                                         if (self._reach[burst[2]] & ~burst[4] | 1 << burst[2]) >> i & 1)
        return next(t for f, t in self._walk(x, root, trace, before) if f == fact)

    def has_class(self, individual: Term, ce: ClassExpression) -> bool:
        i = self._id(ce)
        return i is not None and self._masks.get(individual, 0) >> i & 1 == 1

    def has_prop(self, prop_iri: str, s: Term, o: Term) -> bool:
        return prop_fact(prop_iri, s, o) in self._prop_traces

    def individuals(self) -> List[Term]:
        return sorted(self._masks, key=term_sort_key)

    def fact_keys(self) -> List[FactKey]:
        return list(self.traces)


class _Engine(ClosedKB):
    """Brings a ClosedKB to its fixpoint: fact propagation, skolemization, the join."""

    def __init__(self, tbox: TBoxIndex, skolem_depth: int, fact_cap: int):
        super().__init__(tbox)
        self.max_depth = skolem_depth
        self.fact_cap = fact_cap
        # Join indexes, in insertion order: the members of each class expression,
        # and the prop_index positions of each (property, inverted?, subject).
        self.members_of: Dict[ClassExpression, List[Term]] = {}
        self.links: Dict[Tuple[str, bool, Term], List[int]] = {}
        self.serial: Dict[FactKey, int] = {}  # rule-read facts, numbered in derivation order
        self.fresh: List[FactKey] = []  # existential memberships not yet skolemized
        self.scopes: Dict[int, int] = {}  # blank-node scopes in the order skolemization meets them
        # Rule masks: the rules with a body fact newer than their last turn, and
        # the rules each of whose body predicates has a fact.
        self.dirty = self.ready = 0
        self.waiting = list(tbox.body_sizes)  # each rule's body predicates that have no fact yet
        self.marks: Dict[int, List[int]] = {}  # each rule's body fact counts at its last turn

    def _record(self, fact: FactKey, trace: Optional[Trace] = None) -> None:
        """Count, trace and index one new fact, and wake the rules that read it
        once each of their body predicates has a fact. A class fact without a
        trace is one that ``add_class`` has counted and logged in its burst."""
        if trace is not None:
            self.derived_count += 1
            if self.derived_count > self.fact_cap:
                raise _cap_exceeded(self.fact_cap)
        # Only the facts that some rule reads go into the join indexes.
        readers = self.tbox.readers.get(fact[2] if fact[0] == "class" else fact[1])
        if fact[0] == "class":
            _, x, ce = fact
            if trace is not None:
                i = self._id(ce)
                if i is None:
                    i = self._extra[ce] = len(self._order)
                    self._order, self._reach = [*self._order, ce], [*self._reach, 1 << i]
                self._bursts.append((len(self._prop_traces), x, i, trace, -1))  # -1: no superclass follows
                self._masks[x] = self._masks.get(x, 0) | 1 << i
            if isinstance(ce, SomeValuesFrom):
                self.fresh.append(fact)
            if readers:
                (facts := self.members_of.setdefault(ce, [])).append(x)
        else:
            self._prop_traces[fact] = trace
            _, name, s, o = fact
            facts = self.prop_index.setdefault(name, [])
            if readers:
                self.links.setdefault((name, False, s), []).append(len(facts))
                self.links.setdefault((name, True, o), []).append(len(facts))
            facts.append((s, o))
        if readers:
            self.serial[fact] = len(self.serial)
            if len(facts) == 1:  # the predicate's first fact
                for index in _bit_ids(readers):
                    self.waiting[index] -= 1
                    if not self.waiting[index]:
                        self.ready |= 1 << index
            self.dirty |= readers & self.ready

    def add_class(self, x: Term, ce: ClassExpression, rule: str,
                  premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        """Add ``x`` to ``ce`` and to every superclass that it is not in yet: one
        OR into its mask and one log entry. Only the new classes that a rule
        reads or that are existentials are indexed, in id order: a burst meets
        each class once and its facts are numbered together, so within it their
        order is not observable."""
        if isinstance(x, Literal):
            return False
        tbox = self.tbox
        i = tbox._ids.get(ce)
        if i is None:  # a class outside the index has no superclasses and no readers
            if self.has_class(x, ce):
                return False
            self._record(class_fact(x, ce), Trace(rule, premises, detail))
            return True
        before = self._masks.get(x, 0)
        if before >> i & 1:
            return False
        new = tbox._reach[i] & ~before
        self.derived_count += new.bit_count()
        if self.derived_count > self.fact_cap:
            raise _cap_exceeded(self.fact_cap)
        self._masks[x] = before | new
        self._bursts.append((len(self._prop_traces), x, i, Trace(rule, premises, detail), before))
        if new & tbox._watched:
            for j in _bit_ids(new & tbox._watched):
                self._record(class_fact(x, tbox._order[j]))
        return True

    def add_prop(self, name: str, s: Term, o: Term, rule: str,
                 premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        fact, traces = prop_fact(name, s, o), self._prop_traces
        # A literal subject, from an assertion through an inverse, derives
        # nothing, as a rule head's does not.
        if s.__class__ is Literal or fact in traces:
            return False
        self._record(fact, Trace(rule, premises, detail))
        # The plan is the depth-first walk's order. A property fact that the
        # closure already holds was propagated when it arrived, so the facts it
        # leads to, the entries below it, are skipped with it. On a loop s == o
        # an entry and its mirror on the swapped pair name one fact, and the
        # later of the two is skipped so.
        made: List[Optional[FactKey]] = [fact]
        for target, swapped, parent, step_rule, why in self.tbox.prop_plan(name, o.__class__ is Literal):
            premise = made[parent]
            if premise is None:
                made.append(None)
            elif target.__class__ is not str:
                self.add_class(o if swapped else s, target, step_rule, (premise,), why)  # type: ignore[arg-type]
                made.append(None)
            else:
                fact = prop_fact(target, o, s) if swapped else prop_fact(target, s, o)  # type: ignore[arg-type]
                if fact in traces:
                    made.append(None)
                else:
                    self._record(fact, Trace(step_rule, (premise,), why))
                    made.append(fact)
        return True

    # -- rule passes -----------------------------------------------------------

    def _pass_skolemize(self) -> bool:
        """Witness each new existential membership, in term order, unless the
        individual already has a successor in the filler whose skolem depth is
        at most the witness's (the restricted chase): that successor's own
        witnesses reach at least as deep, so it derives all the witness would."""
        changed = False
        fresh, self.fresh = self.fresh, []
        fresh.sort(key=lambda fact: (term_sort_key(fact[1]), fact[2].text))
        for premise in fresh:
            _, x, ce = premise
            name, inverted = _prop_key(ce.prop)
            facts, depth = self.prop_index.get(name, ()), self.skolem_depths.get(x, 0) + 1
            successors = (facts[position][not inverted] for position in self.links.get((name, inverted, x), ()))
            if any(self.has_class(y, ce.filler) and self.skolem_depths.get(y, 0) <= depth
                   for y in successors):
                continue
            if depth > self.max_depth:
                self.skolem_budget_exceeded = True
                continue
            # A blank node is named by the rank of its scope in this closure, not
            # by the process-wide scope, so a rerun mints the same witnesses.
            term = (1, self.scopes.setdefault(x.scope, len(self.scopes)), x.node_id) \
                if isinstance(x, BlankNode) else term_sort_key(x)
            witness = Iri("urn:skolem:" + hashlib.sha1(
                (repr(term) + "|" + ce.text).encode("utf-8")).hexdigest()[:16])
            self.skolem_depths[witness], detail = depth, "witness for " + ce.text
            s, o = (witness, x) if inverted else (x, witness)
            changed |= self.add_prop(name, s, o, "existential-witness", (premise,), detail)
            changed |= self.add_class(witness, ce.filler, "existential-witness", (premise,), detail)
        return changed

    def _turn(self, index: int) -> None:
        """Fire one rule for each way its body holds with a fact newer than its last turn.

        Semi-naive: for each atom i with new facts, the matches that take a new
        fact for atom i and any facts for the others. They fire in the order of
        the naive join (body atoms depth first, facts in insertion order), that
        is of their facts' serial numbers. Class facts are read as they stand, so
        a fired head can queue a later match; property facts as the turn began.
        """
        label, detail, body, head = self.tbox.rules[index]
        sizes = [len(self.members_of[atom.cls] if isinstance(atom, ClassAtom)
                     else self.prop_index[_prop_key(atom.prop)[0]]) for atom in body]
        marks, self.marks[index] = self.marks.get(index, [0] * len(body)), sizes
        queue: Dict[Tuple[int, ...], Tuple[Dict[str, Term], Tuple[FactKey, ...]]] = {}
        for i in range(len(body)):
            if marks[i] < sizes[i] and all(marks[:i]):  # else term j < i has these
                self._match(body, i, marks[i], sizes, queue, ())
        order, fired, seen = sorted(queue), 0, list(sizes)  # seen: class facts already read
        while fired < len(order):
            key, fired = order[fired], fired + 1
            binding, premises = queue[key]
            for atom in head:
                if isinstance(atom, ClassAtom):
                    self.add_class(binding[atom.var], atom.cls, label, premises, detail)
                elif not any(isinstance(binding[var], Literal) for var in (atom.var1, atom.var2)):
                    (name, inverted), a, b = _prop_key(atom.prop), binding[atom.var1], binding[atom.var2]
                    self.add_prop(name, *((b, a) if inverted else (a, b)), label, premises, detail)
            for i, atom in enumerate(body):
                if self.dirty >> index & 1 and isinstance(atom, ClassAtom) and len(
                        self.members_of.get(atom.cls, ())) > seen[i]:
                    later = self._match(body, i, seen[i], sizes, queue, key)
                    seen[i] = len(self.members_of[atom.cls])
                    order[fired:] = sorted(order[fired:] + later)

    def _match(self, body: Tuple[Atom, ...], first: int, start: int, sizes: List[int],
               queue: Dict, after: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """Queue each new match of ``body`` that sorts after ``after`` under its key, and
        return the keys: atom ``first`` first, from position ``start`` of its facts,
        then the rest in body order; property atoms read below their ``sizes``."""
        rest, added = [j for j in range(len(body)) if j != first], []
        stack = [self._extend(body[first], {}, (), sizes[first], start)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
            elif len(step[1]) < len(body):
                j = rest[len(step[1]) - 1]
                stack.append(self._extend(body[j], *step, sizes[j]))
            else:
                binding, premises = step
                if first:
                    premises = premises[1:first + 1] + premises[:1] + premises[first + 1:]
                key = tuple(map(self.serial.__getitem__, premises))
                if key > after and key not in queue:
                    queue[key] = binding, premises
                    added.append(key)
        return added

    def _extend(self, atom: Atom, binding: Dict[str, Term], premises: Tuple[FactKey, ...],
                limit: int, start: int = 0) -> Iterator[Tuple[Dict[str, Term], Tuple[FactKey, ...]]]:
        """Each extension of ``binding`` and ``premises`` by one fact that matches
        ``atom``, in insertion order: property facts below position ``limit``, and
        for an unbound atom from position ``start``."""
        if isinstance(atom, ClassAtom):
            x = binding.get(atom.var)
            if x is None:
                for y in islice(self.members_of.get(atom.cls, ()), start, None):
                    yield {**binding, atom.var: y}, premises + (class_fact(y, atom.cls),)
            elif self.has_class(x, atom.cls):
                yield binding, premises + (class_fact(x, atom.cls),)
            return
        name, inverted = _prop_key(atom.prop)
        facts, a, b = self.prop_index.get(name, ()), binding.get(atom.var1), binding.get(atom.var2)
        positions: Iterable[int] = (self.links.get((name, inverted, a), ()) if a is not None else
                                    self.links.get((name, not inverted, b), ()) if b is not None else
                                    range(start, limit))
        for position in positions:
            if position >= limit:
                break
            s, o = facts[position]
            x, y = (o, s) if inverted else (s, o)
            if binding.get(atom.var2, y) == y and (atom.var1 != atom.var2 or x == y):
                yield {**binding, atom.var1: x, atom.var2: y}, premises + (prop_fact(name, s, o),)

    def run(self) -> None:
        """Skolemize, then give each rule with a body fact newer than its last turn
        a turn, in rule order; until no new fact is left."""
        while self.fresh or self.dirty:
            self._pass_skolemize()
            index = 0
            while later := self.dirty >> index:
                index += (later & -later).bit_length() - 1
                self.dirty ^= 1 << index
                self._turn(index)
                index += 1


def _close(models: Sequence[OntologyModel], tbox: TBoxIndex, skolem_depth: int,
           fact_cap: int) -> ClosedKB:
    """Load the models' assertions and run the engine to fixpoint."""
    engine = _Engine(tbox, skolem_depth, fact_cap)
    for ax in tbox.assertions(models):
        if ax.kind == "class-assertion":
            engine.add_class(ax.args[0], ax.args[1], "asserted", ())
        else:
            (name, inverted), s, o = _prop_key(ax.args[0]), ax.args[1], ax.args[2]
            engine.add_prop(name, *((o, s) if inverted else (s, o)), "asserted", ())
    engine.run()
    return engine


def materialize(models: Sequence[OntologyModel], abox: Optional[Graph] = None, *,
                skolem_depth: int = 3, fact_cap: int = 1_000_000,
                tbox: Optional[TBoxIndex] = None) -> ClosedKB:
    """Compute the closure of the models plus (optional) instance graph.

    ``tbox`` may be passed to reuse a precomputed schema index across many
    materializations over the same models (satisfiability probing does this).
    """
    all_models = list(models)
    if abox is not None:
        all_models.append(extract_axioms(abox, source_label="instances"))
    if tbox is None:
        tbox = TBoxIndex(all_models)
    return _close(all_models, tbox, skolem_depth, fact_cap)


def check_clash(kb: ClosedKB) -> List[Clash]:
    """All contradictions present in a completed closure (collect-all)."""
    patterns, nothing = list(kb.tbox.clash_patterns), kb._id(NOTHING)
    if nothing is not None:
        patterns.append(("nothing-membership", (NOTHING,), 1 << nothing))
    # Each mask is tested against each pattern; the sort fixes the order.
    clashes = [Clash(kind, x, participants, tuple(class_fact(x, p) for p in participants))
               for x, mask in kb._masks.items() for kind, participants, bits in patterns if mask & bits == bits]
    clashes.sort(key=Clash.sort_key)
    return clashes


_PROBE = Iri("urn:probe:individual")


def class_satisfiable(models: Sequence[OntologyModel], ce: ClassExpression, *,
                      skolem_depth: int = 3, fact_cap: int = 1_000_000,
                      tbox: Optional[TBoxIndex] = None) -> bool:
    """Probe satisfiability: assert a fresh individual into ``ce`` and look for clashes.

    The probe and its skolem descendants live only in this closure and are
    discarded afterwards.
    """
    seed = OntologyModel(axioms=[Axiom("class-assertion", (_PROBE, ce))], source_label="probe-seed")
    probed = list(models) + [seed]
    # A named class outside the universe has no axioms: no edges, rules or
    # disjointness, so its closure is the same without it in the index.
    if tbox is None or (ce not in tbox.universe and not isinstance(ce, NamedClass)):
        tbox = TBoxIndex(probed)
    return not check_clash(_close(probed, tbox, skolem_depth, fact_cap))


def entailed_taxonomy(models: Sequence[OntologyModel],
                      tbox: Optional[TBoxIndex] = None) -> Taxonomy:
    """Named-class and named-property subsumption/equivalence closure, as a
    view on ``tbox`` or on a new index over ``models``."""
    return Taxonomy(TBoxIndex(list(models)) if tbox is None else tbox)


def explain(kb: ClosedKB, fact: FactKey) -> TraceNode:
    """Finite derivation tree for a fact, bottoming out at asserted facts."""
    trace = kb.trace_of(fact)
    if trace is None:
        raise UnknownFactError(f"fact not present in the closure: {fact!r}")
    node = TraceNode(fact=fact, rule=trace.rule, detail=trace.detail)
    for premise in trace.premises:
        node.children.append(explain(kb, premise))
    return node
