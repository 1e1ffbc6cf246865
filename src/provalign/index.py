"""The schema index: the closure of the loaded axioms that every
materialization over the same models shares.

Every class expression that the axioms and rules use has a dense id, in text
order, and bit j of its ``_reach`` mask is set when expression j is above it;
the subsumption closure over those masks takes intersections and unions into
account. Every property that they name has two keys, 2 * (rank of the name)
for the property and one more for its inverse, and ``_prop_reach`` closes
the property hierarchy over the keys in the same way. The index also holds
the instance rules in firing order, the rules that read each predicate, the
clash patterns, and, per property key, the propagation plan and the masks
that a new fact gives its pair.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import and_, attrgetter, is_, or_
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
    THING,
    UnionOf,
    add_subexpressions,
    add_uses,
)
from .rdf import Literal, iri


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
    intersections found are appended to ``succ``. Only the ids that these
    relations reach are visited; the mask of any other id is its own bit."""
    reach, readers = [0] * len(succ), [[] for _ in succ]  # type: List[int], List[List[int]]
    for x, ys in [*enumerate(succ), *unions.items()]:
        for y in ys:
            readers[y].append(x)
    # The worklist starts in depth-first postorder, successors first; a node
    # is redone when a mask that it reads grows.
    work, queued = [], bytearray(len(succ))  # type: List[int], bytearray
    for root in [*(x for x, ys in enumerate(succ) if ys), *unions]:
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
    return [mask or 1 << x for x, mask in enumerate(reach)]


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
    bit j of a ``_reach`` mask is set when id j is above; supers decode on request.
    Every class and property that a closure over exactly these models meets has
    an id: the models' declared classes are in the universe too."""

    def __init__(self, models: Sequence[OntologyModel]):
        self.models = tuple(models)
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
        props: Set[PropertyExpression] = set()
        # The models' class and property assertions, in order, for every closure.
        self.assertions: List[Axiom] = []
        for model in models:
            used.update(NamedClass(iri(c)) for c in model.declared_classes)
            add_uses(model.axioms, used, props, set())
            add_uses(model.rules, used, props, set())
            for ax in model.axioms:
                kind, args = ax.kind, ax.args
                if kind == "class-assertion" or kind == "property-assertion":
                    self.assertions.append(ax)
                elif kind == "sub-class-of":
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
        # A class disjoint with itself is one pair, whose clash pattern has one bit.
        self.disjoint_pairs = tuple(sorted({(a, b) if rank(a) <= rank(b) else (b, a) for a, b in disjoint},
                                           key=lambda pair: (rank(pair[0]), rank(pair[1]))))
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
        # The key of every property expression that the axioms and rules name,
        # resolved once for every closure; existentials name theirs through the
        # rules that read them.
        props.update(atom.prop for _, _, body, head in self.rules for atom in body + head
                     if isinstance(atom, PropertyAtom))
        self.prop_keys: Dict[PropertyExpression, PropKey] = {pe: _prop_key(pe) for pe in props}
        # Trigger index: the rules that read each class expression or property,
        # bit i for rule i, and how many distinct predicates each rule's body reads.
        self.readers: Dict[object, int] = {}
        self.body_sizes: List[int] = []
        for index, (_, _, body, _) in enumerate(self.rules):
            predicates = {a.cls if isinstance(a, ClassAtom) else self.prop_keys[a.prop][0] for a in body}
            self.body_sizes.append(len(predicates))
            for predicate in predicates:
                self.readers[predicate] = self.readers.get(predicate, 0) | 1 << index
        # The ids whose class facts need more than a bit in a mask: the classes
        # that some rule reads, and existentials, which may need a witness.
        self._watched = sum(1 << rank(ce) for ce in {
            *(ce for ce in order if isinstance(ce, SomeValuesFrom)), *(p for p in self.readers if not isinstance(p, str))})
        # Every property that the axioms and rules name gets a key, with or without edges.
        self._prop_names = sorted({name for name, _ in self.prop_keys.values()})

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
        ids = self._prop_ids = {name: 2 * i for i, name in enumerate(self._prop_names)}
        succ: List[List[int]] = [[] for _ in range(2 * len(self._prop_names))]
        for (name, inverted), sups in self.prop_edges.items():
            succ[ids[name] + inverted] = [ids[q] + inv for q, inv in sups]
        self._prop_reach = _close_masks(succ, {}, {})
        # Both keys of the names with a domain or range, and of the names rules read.
        self._typed = sum(3 << ids[name] for name in {*self.domains, *self.ranges})
        self._read_keys = sum(3 << ids[name] for name in self.readers if isinstance(name, str))
        self._steps: Dict[int, Tuple[int, int, int, Tuple[int, ...]]] = {}

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

    def prop_step(self, key: int, literal: bool) -> Tuple[int, int, int, Tuple[int, ...]]:
        """What a new fact of property key ``key`` gives the pair (a, b) that holds
        it, where key 2 * rank is p(a, b) and key 2 * rank + 1 is p(b, a): the
        pair's facts that it entails, as bits on the same keys; the classes, with
        their supers, that a and b gain as domains and ranges of those facts; and
        the keys of the entailed facts that rules read, in ``prop_plan`` order.
        A ``literal`` object takes no flipped step and gains no class."""
        step = self._steps.get(key << 1 | literal)
        if step is None:
            names, ids, reach = self._prop_names, self._prop_ids, self._prop_reach[key]
            if literal:
                reach &= (4 ** len(names) - 1) // 3
            sides = [0, 0]
            for bit in _bit_ids(reach & self._typed):
                for side, classes in ((bit & 1, self.domains), (~bit & 1, self.ranges)):
                    for ce in classes.get(names[bit >> 1], ()):
                        sides[side] |= self._reach[self._ids[ce]]
            read: Tuple[int, ...] = ()
            if reach & self._read_keys:
                plan = self.prop_plan(names[key >> 1], literal)
                read = tuple(bit for bit in (key, *(ids[target] + (onto != key & 1) for target, onto, *_ in plan
                                                    if target.__class__ is str)) if self._read_keys >> bit & 1)
            step = self._steps[key << 1 | literal] = (reach, sides[0], 0 if literal else sides[1], read)
        return step

    def built_from(self, models: Sequence[OntologyModel]) -> bool:
        """Whether this index was built from exactly ``models``: the same objects, in order."""
        return len(models) == len(self.models) and all(map(is_, models, self.models))
