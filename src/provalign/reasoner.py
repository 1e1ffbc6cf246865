"""Forward-chaining materialization over the supported OWL fragment plus SWRL.

The engine precomputes a subsumption closure over every class expression
occurring in the loaded axioms (asserted subsumptions and equivalences,
intersection decomposition and composition, union introduction, and the
union-subclass rule "a union is below anything all its operands are below").
Instance reasoning then propagates memberships along that closure, applies the
property hierarchy, inverses, domains and ranges as each fact arrives, adds
depth-bounded skolem witnesses for existential restrictions, and evaluates
intersection composition, existential membership, property chains and SWRL
rules as Horn rules in one indexed join, to fixpoint.

There is deliberately no instance-level case split on unions: the engine is
sound but incomplete relative to OWL 2 DL, which is sufficient for the clash
patterns this toolkit checks. Every derived fact records the rule and premise
facts that produced it, so verdicts can be explained.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
    OntologyModel,
    PropertyAtom,
    PropertyExpression,
    SomeValuesFrom,
    UnionOf,
    extract_axioms,
    render_class_expression,
)
from .rdf import Graph, Iri, Literal, Term, term_sort_key


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


@dataclass(frozen=True, slots=True)
class Trace:
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


def _ce_key(ce: ClassExpression) -> str:
    return render_class_expression(ce)


# ---------------------------------------------------------------------------
# TBox index
# ---------------------------------------------------------------------------

PropKey = Tuple[str, bool]  # (property IRI, inverted?)
# An instance rule: (trace label, trace detail, body atoms, head atoms).
Rule = Tuple[str, str, Tuple[Atom, ...], Tuple[Atom, ...]]


def _prop_key(pe: PropertyExpression) -> PropKey:
    if isinstance(pe, NamedProperty):
        return (pe.iri.value, False)
    return (pe.operand.iri.value, True)


def _flip(key: PropKey) -> PropKey:
    return (key[0], not key[1])


def _subexpressions(ce: ClassExpression) -> Iterable[ClassExpression]:
    yield ce
    if isinstance(ce, (Intersection, UnionOf, DisjointUnionOf)):
        for op in ce.operands:
            yield from _subexpressions(op)
    elif isinstance(ce, Complement):
        yield from _subexpressions(ce.operand)
    elif isinstance(ce, SomeValuesFrom):
        yield from _subexpressions(ce.filler)


class TBoxIndex:
    """Schema-level closure shared by every materialization over the same models."""

    def __init__(self, models: Sequence[OntologyModel]):
        self.universe: Set[ClassExpression] = {NamedClass(Iri(vocab.OWL_THING))}
        self.edges: Dict[ClassExpression, Set[ClassExpression]] = {}
        self.disjoint_pairs: Set[Tuple[ClassExpression, ClassExpression]] = set()
        self.domains: Dict[str, List[ClassExpression]] = {}
        self.ranges: Dict[str, List[ClassExpression]] = {}
        self.inverse_pairs: Dict[str, Set[str]] = {}
        self.prop_edges: Dict[PropKey, Set[PropKey]] = {}
        self.prop_keys: Set[PropKey] = set()
        self._load(models)
        self._close_classes()
        self._close_properties()
        self.complements: List[Complement] = sorted(
            (e for e in self.universe if isinstance(e, Complement)), key=_ce_key)

    # -- loading -------------------------------------------------------------

    def _see(self, ce: ClassExpression) -> None:
        for sub in _subexpressions(ce):
            self.universe.add(sub)
            if isinstance(sub, SomeValuesFrom):
                self._see_prop(sub.prop)

    def _see_prop(self, pe: PropertyExpression) -> None:
        key = _prop_key(pe)
        self.prop_keys.add(key)
        self.prop_keys.add(_flip(key))

    def _edge(self, a: ClassExpression, b: ClassExpression) -> None:
        self.edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a: PropKey, b: PropKey) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_edges.setdefault(_flip(a), set()).add(_flip(b))

    def _mark_disjoint(self, a: ClassExpression, b: ClassExpression) -> None:
        pair = tuple(sorted((a, b), key=_ce_key))
        if pair[0] != pair[1]:
            self.disjoint_pairs.add(pair)  # type: ignore[arg-type]

    def _load(self, models: Sequence[OntologyModel]) -> None:
        gated: Dict[Intersection, None] = {}
        chains: List[Rule] = []
        swrl: List[Rule] = []
        for model in models:
            for ax in model.axioms:
                kind, args = ax.kind, ax.args
                if kind == "sub-class-of":
                    self._see(args[0]); self._see(args[1])
                    self._edge(args[0], args[1])
                elif kind == "equivalent-classes":
                    self._see(args[0]); self._see(args[1])
                    self._edge(args[0], args[1])
                    self._edge(args[1], args[0])
                    gated.update((ce, None) for ce in args if isinstance(ce, Intersection))
                elif kind == "disjoint-classes":
                    self._see(args[0]); self._see(args[1])
                    self._mark_disjoint(args[0], args[1])
                elif kind == "disjoint-union":
                    union = DisjointUnionOf(args[1])
                    self._see(args[0]); self._see(union)
                    self._edge(args[0], union)
                    self._edge(union, args[0])
                elif kind == "sub-property-of":
                    self._prop_edge(_prop_key(args[0]), _prop_key(args[1]))
                    self._see_prop(args[0]); self._see_prop(args[1])
                elif kind == "equivalent-properties":
                    a, b = _prop_key(args[0]), _prop_key(args[1])
                    self._prop_edge(a, b); self._prop_edge(b, a)
                    self._see_prop(args[0]); self._see_prop(args[1])
                elif kind == "inverse-properties":
                    a, b = _prop_key(args[0]), _prop_key(args[1])
                    self._prop_edge(_flip(a), b); self._prop_edge(b, _flip(a))
                    self._see_prop(args[0]); self._see_prop(args[1])
                    if not a[1] and not b[1]:
                        self.inverse_pairs.setdefault(a[0], set()).add(b[0])
                        self.inverse_pairs.setdefault(b[0], set()).add(a[0])
                elif kind == "property-domain":
                    p, c = args
                    self._see(c); self._see_prop(p)
                    name, inverted = _prop_key(p)
                    (self.ranges if inverted else self.domains).setdefault(name, []).append(c)
                elif kind == "property-range":
                    p, c = args
                    self._see(c); self._see_prop(p)
                    name, inverted = _prop_key(p)
                    (self.domains if inverted else self.ranges).setdefault(name, []).append(c)
                elif kind == "property-chain":
                    chains.append(("property-chain", f"chain into {_prop_key(args[1])[0]}",
                                   tuple(PropertyAtom(pe, f"v{i}", f"v{i + 1}")
                                         for i, pe in enumerate(args[0])),
                                   (PropertyAtom(args[1], "v0", f"v{len(args[0])}"),)))
                elif kind == "class-assertion":
                    self._see(args[1])
                elif kind == "property-assertion":
                    self._see_prop(args[0])
            for rule in model.rules:
                comment = next((value.lexical for pred, value in rule.annotations
                                if pred == vocab.RDFS_COMMENT and isinstance(value, Literal)), "")
                swrl.append((f"swrl-rule-{len(swrl) + 1}", comment, rule.body, rule.head))
        for _, _, body, head in chains + swrl:
            for atom in body + head:
                if isinstance(atom, ClassAtom):
                    self._see(atom.cls)
                else:
                    self._see_prop(atom.prop)

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
            values.sort(key=_ce_key)
        for values in self.ranges.values():
            values.sort(key=_ce_key)

        # Instance rules, in firing order: intersection composition, existential
        # membership, property chains, then SWRL rules.
        self.rules: List[Rule] = [
            ("intersection-composition", "", tuple(ClassAtom(op, "x") for op in ce.operands),
             (ClassAtom(ce, "x"),)) for ce in gated]
        self.rules += [("existential-membership", "",
                        (PropertyAtom(ce.prop, "x", "y"), ClassAtom(ce.filler, "y")),
                        (ClassAtom(ce, "x"),))
                       for ce in sorted((e for e in self.universe if isinstance(e, SomeValuesFrom)),
                                        key=_ce_key)]
        self.rules += chains + swrl

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
        keys = {ce: _ce_key(ce) for ce in self.universe}
        self._supers_sorted: Dict[ClassExpression, Tuple[ClassExpression, ...]] = {
            ce: tuple(sorted(sups - {ce}, key=keys.__getitem__)) for ce, sups in reach.items()}

    def _close_properties(self) -> None:
        reach: Dict[PropKey, Set[PropKey]] = {
            k: {k} | self.prop_edges.get(k, set()) for k in set(self.prop_edges) | self.prop_keys}
        changed = True
        while changed:
            changed = False
            for k in reach:
                current = reach[k]
                extra: Set[PropKey] = set()
                for sup in current:
                    extra |= reach.get(sup, set())
                if not extra <= current:
                    current |= extra
                    changed = True
        self._named_prop_supers: Dict[str, Tuple[str, ...]] = {}
        for key, sups in reach.items():
            name, inverted = key
            if inverted:
                continue
            named = sorted(q for q, inv in sups if not inv and q != name)
            self._named_prop_supers[name] = tuple(named)

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

    def named_classes(self) -> List[NamedClass]:
        return sorted((ce for ce in self.universe if isinstance(ce, NamedClass)
                       and ce.iri.value not in (vocab.OWL_THING, vocab.OWL_NOTHING)),
                      key=_ce_key)


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
                tuple(_ce_key(p) for p in self.participants))


@dataclass
class ClosedKB:
    """Fixpoint of asserted plus derived facts, with derivation traces."""

    tbox: TBoxIndex
    memberships: Dict[Term, Set[ClassExpression]]
    prop_index: Dict[str, List[Tuple[Term, Term]]]
    prop_set: Set[Tuple[str, Term, Term]]
    traces: Dict[FactKey, Trace]
    skolem_depths: Dict[Term, int]
    skolem_budget_exceeded: bool
    derived_count: int

    def has_class(self, individual: Term, ce: ClassExpression) -> bool:
        return ce in self.memberships.get(individual, ())

    def has_prop(self, prop_iri: str, s: Term, o: Term) -> bool:
        return (prop_iri, s, o) in self.prop_set

    def individuals(self) -> List[Term]:
        return sorted(self.memberships.keys(), key=term_sort_key)

    def fact_keys(self) -> List[FactKey]:
        return list(self.traces.keys())


def _depth_first(expand, first: Tuple) -> None:
    """Run ``expand(*first)`` and, nested as recursion would, ``expand(*step)`` for each
    step it yields; each ``expand`` is a generator that records its step when first advanced."""
    stack = [expand(*first)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            stack.append(expand(*step))


class _Engine:
    def __init__(self, tbox: TBoxIndex, skolem_depth: int, fact_cap: int):
        self.tbox = tbox
        self.max_depth = skolem_depth
        self.fact_cap = fact_cap
        self.memberships: Dict[Term, Set[ClassExpression]] = {}
        self.prop_set: Set[Tuple[str, Term, Term]] = set()
        self.prop_index: Dict[str, List[Tuple[Term, Term]]] = {}
        # Join indexes, in insertion order: the members of each class expression,
        # and the prop_index positions of each (property, inverted?, subject).
        self.members_of: Dict[ClassExpression, List[Term]] = {}
        self.links: Dict[Tuple[str, bool, Term], List[int]] = {}
        self.traces: Dict[FactKey, Trace] = {}
        self.depths: Dict[Term, int] = {}
        self.skolem_memo: Set[Tuple[Term, SomeValuesFrom]] = set()
        self.skolem_budget_exceeded = False
        self.derived_count = 0

    def _bump(self) -> None:
        self.derived_count += 1
        if self.derived_count > self.fact_cap:
            raise FactCapExceededError(
                f"derived-fact cap of {self.fact_cap} exceeded; closure aborted")

    def add_class(self, x: Term, ce: ClassExpression, rule: str,
                  premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        if isinstance(x, Literal):
            return False
        members = self.memberships.setdefault(x, set())
        if ce in members:
            return False

        def expand(ce, rule, premises, detail):
            self._bump()
            members.add(ce)
            self.members_of.setdefault(ce, []).append(x)
            self.traces[class_fact(x, ce)] = Trace(rule, premises, detail)
            premise = (class_fact(x, ce),)
            for sup in self.tbox.supers(ce):
                if sup not in members:
                    yield sup, "subsumption", premise, f"{_ce_key(ce)} is below {_ce_key(sup)}"

        _depth_first(expand, (ce, rule, premises, detail))
        return True

    def add_prop(self, name: str, s: Term, o: Term, rule: str,
                 premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        if (name, s, o) in self.prop_set:
            return False

        def expand(name, s, o, rule, premises, detail):
            if (name, s, o) in self.prop_set:
                return
            self._bump()
            self.prop_set.add((name, s, o))
            facts = self.prop_index.setdefault(name, [])
            self.links.setdefault((name, False, s), []).append(len(facts))
            self.links.setdefault((name, True, o), []).append(len(facts))
            facts.append((s, o))
            self.traces[prop_fact(name, s, o)] = Trace(rule, premises, detail)
            premise = (prop_fact(name, s, o),)
            for sup in self.tbox.named_prop_supers(name):
                yield sup, s, o, "subproperty", premise, f"{name} is below {sup}"
            if not isinstance(o, Literal):
                for q in sorted(self.tbox.inverse_pairs.get(name, ())):
                    yield q, o, s, "inverse", premise, f"{q} is the inverse of {name}"
            for c in self.tbox.domains.get(name, ()):
                self.add_class(s, c, "domain", premise, detail=f"domain of {name}")
            if not isinstance(o, Literal):
                for c in self.tbox.ranges.get(name, ()):
                    self.add_class(o, c, "range", premise, detail=f"range of {name}")

        _depth_first(expand, (name, s, o, rule, premises, detail))
        return True

    # -- rule passes -----------------------------------------------------------

    def _pass_skolemize(self) -> bool:
        changed = False
        pending = sorted(((x, ce) for x, members in self.memberships.items() for ce in members
                          if isinstance(ce, SomeValuesFrom) and (x, ce) not in self.skolem_memo),
                         key=lambda pair: (term_sort_key(pair[0]), _ce_key(pair[1])))
        for x, ce in pending:
            self.skolem_memo.add((x, ce))
            depth = self.depths.get(x, 0) + 1
            if depth > self.max_depth:
                self.skolem_budget_exceeded = True
                continue
            digest = hashlib.sha1(
                (repr(term_sort_key(x)) + "|" + _ce_key(ce)).encode("utf-8")).hexdigest()[:16]
            witness = Iri("urn:skolem:" + digest)
            self.depths[witness] = depth
            premise, detail = (class_fact(x, ce),), f"witness for {_ce_key(ce)}"
            name, inverted = _prop_key(ce.prop)
            s, o = (witness, x) if inverted else (x, witness)
            changed |= self.add_prop(name, s, o, "existential-witness", premise, detail)
            changed |= self.add_class(witness, ce.filler, "existential-witness", premise, detail)
        return changed

    def _pass_join(self) -> bool:
        """Fire each instance rule, in order, for every way its body holds.

        Body atoms are matched depth first, in body order. A rule whose first atom
        has no facts is skipped. Class facts are read as they stand; property
        facts as they stood when the rule's turn began, so a rule joins its own
        property conclusions only in the next round.
        """
        changed = False
        for label, detail, body, head in self.tbox.rules:
            first = body[0]
            if (first.cls not in self.members_of if isinstance(first, ClassAtom)
                    else _prop_key(first.prop)[0] not in self.prop_index):
                continue
            names = {_prop_key(atom.prop)[0] for atom in body if isinstance(atom, PropertyAtom)}
            limits = {name: len(self.prop_index.get(name, ())) for name in names}
            stack = [self._extend(first, {}, (), limits)]
            while stack:
                step = next(stack[-1], None)
                if step is None:
                    stack.pop()
                    continue
                binding, premises = step
                if len(premises) < len(body):
                    stack.append(self._extend(body[len(premises)], binding, premises, limits))
                    continue
                for atom in head:
                    if isinstance(atom, ClassAtom):
                        changed |= self.add_class(binding[atom.var], atom.cls, label, premises, detail)
                        continue
                    name, inverted = _prop_key(atom.prop)
                    a, b = binding[atom.var1], binding[atom.var2]
                    s, o = (b, a) if inverted else (a, b)
                    if not isinstance(s, Literal) and not isinstance(o, Literal):
                        changed |= self.add_prop(name, s, o, label, premises, detail)
        return changed

    def _extend(self, atom: Atom, binding: Dict[str, Term], premises: Tuple[FactKey, ...],
                limits: Dict[str, int]) -> Iterator[Tuple[Dict[str, Term], Tuple[FactKey, ...]]]:
        """Each extension of ``binding`` and ``premises`` by one fact that matches
        ``atom``, in insertion order; ``limits`` caps each property's positions."""
        if isinstance(atom, ClassAtom):
            x = binding.get(atom.var)
            if x is None:
                for y in self.members_of.get(atom.cls, ()):
                    yield {**binding, atom.var: y}, premises + (class_fact(y, atom.cls),)
            elif atom.cls in self.memberships.get(x, ()):
                yield binding, premises + (class_fact(x, atom.cls),)
            return
        name, inverted = _prop_key(atom.prop)
        facts, limit = self.prop_index.get(name, ()), limits[name]
        a, b = binding.get(atom.var1), binding.get(atom.var2)
        if a is not None:
            positions: Iterable[int] = self.links.get((name, inverted, a), ())
        elif b is not None:
            positions = self.links.get((name, not inverted, b), ())
        else:
            positions = range(limit)
        for position in positions:
            if position >= limit:
                break
            s, o = facts[position]
            x, y = (o, s) if inverted else (s, o)
            if binding.get(atom.var2, y) == y and (atom.var1 != atom.var2 or x == y):
                yield {**binding, atom.var1: x, atom.var2: y}, premises + (prop_fact(name, s, o),)

    def run(self) -> None:
        changed = True
        while changed:
            changed = self._pass_skolemize()
            changed |= self._pass_join()


def _close(models: Sequence[OntologyModel], tbox: TBoxIndex, skolem_depth: int,
           fact_cap: int) -> ClosedKB:
    """Load the models' assertions and run the engine to fixpoint."""
    engine = _Engine(tbox, skolem_depth, fact_cap)
    for model in models:
        for ax in model.axioms:
            if ax.kind == "class-assertion":
                engine.add_class(ax.args[0], ax.args[1], "asserted", ())
            elif ax.kind == "property-assertion":
                name, inverted = _prop_key(ax.args[0])
                s, o = ax.args[1], ax.args[2]
                if inverted:
                    s, o = o, s
                engine.add_prop(name, s, o, "asserted", ())
    engine.run()
    return ClosedKB(
        tbox=tbox,
        memberships=engine.memberships,
        prop_index=engine.prop_index,
        prop_set=engine.prop_set,
        traces=engine.traces,
        skolem_depths=engine.depths,
        skolem_budget_exceeded=engine.skolem_budget_exceeded,
        derived_count=engine.derived_count,
    )


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
    nothing = NamedClass(Iri(vocab.OWL_NOTHING))
    for x in kb.individuals():
        members = kb.memberships[x]
        for a, b in sorted(kb.tbox.disjoint_pairs, key=lambda p: (_ce_key(p[0]), _ce_key(p[1]))):
            if a in members and b in members:
                clashes.append(Clash("disjointness-violation", x, (a, b),
                                     (class_fact(x, a), class_fact(x, b))))
        for comp in kb.tbox.complements:
            if comp in members and comp.operand in members:
                clashes.append(Clash("complement-violation", x, (comp.operand, comp),
                                     (class_fact(x, comp.operand), class_fact(x, comp))))
        if nothing in members:
            clashes.append(Clash("nothing-membership", x, (nothing,),
                                 (class_fact(x, nothing),)))
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
    seed = OntologyModel(source_label="probe-seed")
    seed.axioms = [Axiom("class-assertion", (_PROBE, ce))]
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
    named = tbox.named_classes()
    for c in named:
        for sup in tbox.supers(c):
            if isinstance(sup, NamedClass) and sup.iri.value not in (vocab.OWL_THING, vocab.OWL_NOTHING):
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
