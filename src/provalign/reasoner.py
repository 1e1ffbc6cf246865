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
from itertools import islice
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
    render_class_expression,
)
from .rdf import BlankNode, Graph, Iri, Literal, Term, term_sort_key


class ReasonerError(Exception):
    pass


class FactCapExceededError(ReasonerError):
    """The derived-fact count hit the nontermination guard."""


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


class TBoxIndex:
    """Schema-level closure shared by every materialization over the same models."""

    def __init__(self, models: Sequence[OntologyModel]):
        self.universe: Set[ClassExpression] = {THING}
        self.edges: Dict[ClassExpression, Set[ClassExpression]] = {}
        self.disjoint_pairs: Set[Tuple[ClassExpression, ClassExpression]] = set()
        self.domains: Dict[str, List[ClassExpression]] = {}
        self.ranges: Dict[str, List[ClassExpression]] = {}
        self.inverse_pairs: Dict[str, Set[str]] = {}
        self.prop_edges: Dict[PropKey, Set[PropKey]] = {}
        self._prop_steps: Dict[str, Tuple[Tuple[object, bool, str, str], ...]] = {}
        # Plans for a non-literal object, then for a literal one.
        self._prop_plans: Tuple[Dict[str, Tuple[PlanEntry, ...]], ...] = ({}, {})
        self._load(models)
        self._close_classes()
        self._close_properties()
        self.complements: List[Complement] = sorted(
            (e for e in self.universe if isinstance(e, Complement)), key=render_class_expression)

    # -- loading -------------------------------------------------------------

    def _edge(self, a: ClassExpression, b: ClassExpression) -> None:
        self.edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a: PropKey, b: PropKey) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_edges.setdefault(_flip(a), set()).add(_flip(b))

    def _mark_disjoint(self, a: ClassExpression, b: ClassExpression) -> None:
        pair = tuple(sorted((a, b), key=render_class_expression))
        if pair[0] != pair[1]:
            self.disjoint_pairs.add(pair)  # type: ignore[arg-type]

    def _load(self, models: Sequence[OntologyModel]) -> None:
        gated: Dict[Intersection, None] = {}
        chains: List[Rule] = []
        swrl: List[Rule] = []
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
                    self._mark_disjoint(args[0], args[1])
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

        # Structural edges and disjointness contributed by expression shapes.
        for ce in list(self.universe):
            if isinstance(ce, Intersection):
                for op in ce.operands:
                    self._edge(ce, op)
            elif isinstance(ce, (UnionOf, DisjointUnionOf)):
                for op in ce.operands:
                    self._edge(op, ce)
                if isinstance(ce, DisjointUnionOf):
                    for i in range(len(ce.operands)):
                        for j in range(i + 1, len(ce.operands)):
                            self._mark_disjoint(ce.operands[i], ce.operands[j])
        for values in self.domains.values():
            values.sort(key=render_class_expression)
        for values in self.ranges.values():
            values.sort(key=render_class_expression)

        # Instance rules, in firing order: intersection composition, existential
        # membership, property chains, then SWRL rules.
        self.rules: List[Rule] = [
            ("intersection-composition", "", tuple(ClassAtom(op, "x") for op in ce.operands),
             (ClassAtom(ce, "x"),)) for ce in gated]
        self.rules += [("existential-membership", "",
                        (PropertyAtom(ce.prop, "x", "y"), ClassAtom(ce.filler, "y")),
                        (ClassAtom(ce, "x"),))
                       for ce in sorted((e for e in self.universe if isinstance(e, SomeValuesFrom)),
                                        key=render_class_expression)]
        self.rules += chains + swrl
        # Trigger index: the rules that read each class expression or property.
        self.readers: Dict[object, Tuple[int, ...]] = {}
        for index, (_, _, body, _) in enumerate(self.rules):
            for predicate in {a.cls if isinstance(a, ClassAtom) else _prop_key(a.prop)[0] for a in body}:
                self.readers[predicate] = self.readers.get(predicate, ()) + (index,)

    # -- closures --------------------------------------------------------------

    def _close_classes(self) -> None:
        # Worklist to the least fixpoint, with the inverse map ``below``. Each
        # entry (a, b) stands for the pairs below(a) x reach(b): first the
        # reflexive pairs, then every pair that linking a <= b added. Only the
        # intersections and unions with an operand among them can fire.
        reach: Dict[ClassExpression, Set[ClassExpression]] = {ce: {ce} for ce in self.universe}
        below: Dict[ClassExpression, Set[ClassExpression]] = {ce: {ce} for ce in self.universe}
        inter_of: Dict[ClassExpression, List[ClassExpression]] = {}
        union_of: Dict[ClassExpression, List[ClassExpression]] = {}
        for ce in self.universe:
            if isinstance(ce, (Intersection, UnionOf, DisjointUnionOf)):
                for op in set(ce.operands):
                    (inter_of if isinstance(ce, Intersection) else union_of).setdefault(op, []).append(ce)
        inter_ops, union_ops = set(inter_of), set(union_of)
        pending = [(ce, ce) for ce in self.universe]

        def link(a: ClassExpression, b: ClassExpression) -> None:
            up, down = reach[b], below[a]
            if b not in reach[a]:
                for x in down:
                    reach[x] |= up
                for y in up:
                    below[y] |= down
                pending.append((a, b))

        for a, targets in self.edges.items():
            for b in targets:
                link(a, b)
        while pending:
            a, b = pending.pop()
            for y in reach[b] & inter_ops:
                for i in inter_of[y]:
                    for x in [x for x in below[a] if all(op in reach[x] for op in i.operands)]:
                        link(x, i)
            for x in below[a] & union_ops:
                for u in union_of[x]:
                    for y in [y for y in reach[b] if all(y in reach[op] for op in u.operands)]:
                        link(u, y)
        self._reach = reach
        self._supers_sorted: Dict[ClassExpression, Tuple[ClassExpression, ...]] = {
            ce: tuple(sorted(sups - {ce}, key=render_class_expression)) for ce, sups in reach.items()}

    def _close_properties(self) -> None:
        self._named_prop_supers: Dict[str, Tuple[str, ...]] = {}
        for key in [k for k in self.prop_edges if not k[1]]:
            reach, stack = {key}, [key]
            while stack:
                for sup in self.prop_edges.get(stack.pop(), ()):
                    if sup not in reach:
                        reach.add(sup)
                        stack.append(sup)
            self._named_prop_supers[key[0]] = tuple(sorted(q for q, inv in reach if not inv and q != key[0]))

    # -- queries ---------------------------------------------------------------

    def supers(self, ce: ClassExpression) -> Tuple[ClassExpression, ...]:
        """Strict superexpressions of ``ce`` within the loaded universe."""
        return self._supers_sorted.get(ce, ())

    def subsumed(self, sub: ClassExpression, sup: ClassExpression) -> bool:
        if sub == sup:
            return True
        return sup in self._reach.get(sub, ())

    def named_prop_supers(self, name: str) -> Tuple[str, ...]:
        return self._named_prop_supers.get(name, ())

    def prop_steps(self, name: str) -> Tuple[Tuple[object, bool, str, str], ...]:
        """What a fact of property ``name`` propagates to, in order, as (property
        or class, onto the flipped pair or the object?, rule, trace detail): its
        super-properties, inverses, domains and ranges."""
        steps = self._prop_steps.get(name)
        if steps is None:
            steps = self._prop_steps[name] = tuple(
                [(sup, False, "subproperty", f"{name} is below {sup}") for sup in self.named_prop_supers(name)]
                + [(q, True, "inverse", f"{q} is the inverse of {name}")
                   for q in sorted(self.inverse_pairs.get(name, ()))]
                + [(c, False, "domain", f"domain of {name}") for c in self.domains.get(name, ())]
                + [(c, True, "range", f"range of {name}") for c in self.ranges.get(name, ())])
        return steps

    def prop_plan(self, name: str, literal: bool) -> Tuple[PlanEntry, ...]:
        """The facts that a new fact of property ``name`` propagates to, in the
        order of the depth-first walk over ``prop_steps``: (property or class,
        onto the swapped pair?, position of the premise, rule, trace detail).
        Position 0 is the new fact and entry i is at position i + 1. Each
        property fact appears once; a ``literal`` object takes no flipped step."""
        plans = self._prop_plans[literal]
        plan = plans.get(name)
        if plan is None:
            entries: List[PlanEntry] = []
            seen, stack = {(name, False)}, [(0, False, iter(self.prop_steps(name)))]
            while stack:
                position, swapped, pending = stack[-1]
                for target, flipped, rule, why in pending:
                    if flipped and literal:
                        continue
                    onto = swapped != flipped
                    if not isinstance(target, str):
                        entries.append((target, onto, position, rule, why))
                    elif (target, onto) not in seen:
                        seen.add((target, onto))
                        entries.append((target, onto, position, rule, why))
                        stack.append((len(entries), onto, iter(self.prop_steps(target))))
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


@dataclass
class Taxonomy:
    """Entailed named-term hierarchy: reflexive pairs are excluded."""

    subclass_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    equivalent_class_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    subproperty_pairs: Set[Tuple[str, str]] = field(default_factory=set)
    equivalent_property_pairs: Set[Tuple[str, str]] = field(default_factory=set)


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
    """Fixpoint of asserted plus derived facts, with derivation traces."""

    def __init__(self, tbox: TBoxIndex):
        self.tbox = tbox
        self.memberships: Dict[Term, Set[ClassExpression]] = {}
        self.prop_index: Dict[str, List[Tuple[Term, Term]]] = {}
        self.traces: Dict[FactKey, Trace] = {}  # every fact, in derivation order
        self.skolem_depths: Dict[Term, int] = {}
        self.skolem_budget_exceeded = False
        self.derived_count = 0

    def has_class(self, individual: Term, ce: ClassExpression) -> bool:
        return ce in self.memberships.get(individual, ())

    def has_prop(self, prop_iri: str, s: Term, o: Term) -> bool:
        return prop_fact(prop_iri, s, o) in self.traces

    def individuals(self) -> List[Term]:
        return sorted(self.memberships.keys(), key=term_sort_key)

    def fact_keys(self) -> List[FactKey]:
        return list(self.traces.keys())


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
        self.serial: Dict[FactKey, int] = {}  # rule-read facts' positions in ``traces``
        self.fresh: List[FactKey] = []  # existential memberships not yet skolemized
        self.scopes: Dict[int, int] = {}  # blank-node scopes in the order skolemization meets them
        self.dirty: Set[int] = set()  # rules with a body fact newer than their last turn
        self.marks: Dict[int, List[int]] = {}  # each rule's body fact counts at its last turn

    def _record(self, fact: FactKey, trace: Trace) -> None:
        """Count, index and trace one new fact, and wake the rules that read it."""
        self.derived_count += 1
        if self.derived_count > self.fact_cap:
            raise FactCapExceededError(
                f"derived-fact cap of {self.fact_cap} exceeded; closure aborted")
        self.traces[fact] = trace
        # Only the facts that some rule reads go into the join indexes.
        readers = self.tbox.readers.get(fact[2] if fact[0] == "class" else fact[1])
        if fact[0] == "class":
            _, x, ce = fact
            self.memberships.setdefault(x, set()).add(ce)
            if isinstance(ce, SomeValuesFrom):
                self.fresh.append(fact)
            if readers:
                self.members_of.setdefault(ce, []).append(x)
        else:
            _, name, s, o = fact
            facts = self.prop_index.setdefault(name, [])
            if readers:
                self.links.setdefault((name, False, s), []).append(len(facts))
                self.links.setdefault((name, True, o), []).append(len(facts))
            facts.append((s, o))
        if readers:
            self.serial[fact] = len(self.traces) - 1
            self.dirty.update(readers)

    def add_class(self, x: Term, ce: ClassExpression, rule: str,
                  premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        if isinstance(x, Literal) or ce in self.memberships.get(x, ()):
            return False
        fact, supers = class_fact(x, ce), self.tbox.supers
        self._record(fact, Trace(rule, premises, detail))
        members = self.memberships[x]
        # Depth first along the sorted superexpressions, as recursion would go.
        stack = [(fact, ce.text + " is below ", iter(supers(ce)))]
        while stack:
            premise, below, pending = stack[-1]
            for sup in pending:
                if sup not in members:
                    fact = class_fact(x, sup)
                    self._record(fact, Trace("subsumption", (premise,), below + sup.text))
                    stack.append((fact, sup.text + " is below ", iter(supers(sup))))
                    break
            else:
                stack.pop()
        return True

    def add_prop(self, name: str, s: Term, o: Term, rule: str,
                 premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        fact, traces = prop_fact(name, s, o), self.traces
        if fact in traces:
            return False
        self._record(fact, Trace(rule, premises, detail))
        # The plan is the depth-first walk's order. A property fact that the
        # closure already holds was propagated when it arrived, so the facts it
        # leads to, the entries below it, are skipped with it. On a loop s == o
        # an entry and its mirror on the swapped pair name one fact, and the
        # later of the two is skipped so.
        # A literal subject, from an assertion through an inverse, takes the
        # ordinary plan: add_class refuses the literal, and a flip back from the
        # swapped pair ends at a super-property of the last unswapped fact, which
        # the walk met before that fact's inverses.
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
            if any(ce.filler in self.memberships.get(y, ()) and self.skolem_depths.get(y, 0) <= depth
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
        sizes = [len(self.members_of.get(atom.cls, ()) if isinstance(atom, ClassAtom)
                     else self.prop_index.get(_prop_key(atom.prop)[0], ())) for atom in body]
        if not all(sizes):  # an atom without facts: nothing can match yet
            return
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
                if index in self.dirty and isinstance(atom, ClassAtom) and len(
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
            elif atom.cls in self.memberships.get(x, ()):
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
            while (index := min((r for r in self.dirty if r >= index), default=-1)) >= 0:
                self.dirty.discard(index)
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
    clashes: List[Clash] = []
    pairs = sorted(kb.tbox.disjoint_pairs, key=lambda p: (p[0].text, p[1].text))
    for x in kb.individuals():
        members = kb.memberships[x]
        for a, b in pairs:
            if a in members and b in members:
                clashes.append(Clash("disjointness-violation", x, (a, b),
                                     (class_fact(x, a), class_fact(x, b))))
        for comp in kb.tbox.complements:
            if comp in members and comp.operand in members:
                clashes.append(Clash("complement-violation", x, (comp.operand, comp),
                                     (class_fact(x, comp.operand), class_fact(x, comp))))
        if NOTHING in members:
            clashes.append(Clash("nothing-membership", x, (NOTHING,),
                                 (class_fact(x, NOTHING),)))
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
    if tbox is None or ce not in tbox.universe:
        tbox = TBoxIndex(probed)
    return not check_clash(_close(probed, tbox, skolem_depth, fact_cap))


def entailed_taxonomy(models: Sequence[OntologyModel],
                      tbox: Optional[TBoxIndex] = None) -> Taxonomy:
    """Named-class and named-property subsumption/equivalence closure."""
    if tbox is None:
        tbox = TBoxIndex(list(models))
    taxonomy = Taxonomy()
    named = {ce for ce in tbox.universe if isinstance(ce, NamedClass)
             and ce.iri.value not in (vocab.OWL_THING, vocab.OWL_NOTHING)}
    for c in named:
        for sup in named.intersection(tbox.supers(c)):
            taxonomy.subclass_pairs.add((c.iri.value, sup.iri.value))
    for a, b in list(taxonomy.subclass_pairs):
        if (b, a) in taxonomy.subclass_pairs:
            taxonomy.equivalent_class_pairs.add(tuple(sorted((a, b))))  # type: ignore[arg-type]
    for name in sorted(tbox._named_prop_supers):
        for sup in tbox.named_prop_supers(name):
            taxonomy.subproperty_pairs.add((name, sup))
    for a, b in list(taxonomy.subproperty_pairs):
        if (b, a) in taxonomy.subproperty_pairs:
            taxonomy.equivalent_property_pairs.add(tuple(sorted((a, b))))  # type: ignore[arg-type]
    return taxonomy


def explain(kb: ClosedKB, fact: FactKey) -> TraceNode:
    """Finite derivation tree for a fact, bottoming out at asserted facts."""
    trace = kb.traces.get(fact)
    if trace is None:
        raise UnknownFactError(f"fact not present in the closure: {fact!r}")
    node = TraceNode(fact=fact, rule=trace.rule, detail=trace.detail)
    for premise in trace.premises:
        node.children.append(explain(kb, premise))
    return node
