"""Forward-chaining materialization over the supported OWL fragment plus SWRL.

The closure runs on a schema index (``index.TBoxIndex``), which closes the
class expressions and properties of the loaded axioms once. Each individual's
classes are then one mask over class ids and each pair of individuals' property
facts one mask over property keys, so a new fact with all that it entails
(superclasses, the property hierarchy, inverses, domains and ranges) is a few
ORs. Existential restrictions that no known successor already satisfies get
depth-bounded skolem witnesses (a restricted chase), and intersection
composition, existential membership, property chains and SWRL rules run as
Horn rules in one indexed, semi-naive join, to fixpoint.

There is deliberately no instance-level case split on unions: the engine is
sound but incomplete relative to OWL 2 DL, which suffices for the clash
patterns checked here. Every fact records the rule and premises behind it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import eq, is_, itemgetter, or_
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .index import PlanEntry, TBoxIndex, _bit_ids, _prop_key  # noqa: F401 (reference engines resolve keys through it)
from .owl import (
    Atom,
    Axiom,
    ClassAtom,
    ClassExpression,
    NamedClass,
    NOTHING,
    OntologyModel,
    SomeValuesFrom,
    THING,
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


_SWAP_SIDES = bytes((byte & 0x55) << 1 | byte >> 1 & 0x55 for byte in range(256))


def _mirror(mask: int) -> int:
    """``mask`` with bits 2k and 2k + 1 swapped: each property key and its inverse."""
    return int.from_bytes(mask.to_bytes((mask.bit_length() + 7) >> 3, "little").translate(_SWAP_SIDES), "little")


def _mutual(pairs: Set[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    return {(a, b) for a, b in pairs if a < b and (b, a) in pairs}


class Taxonomy:
    """The entailed named-term hierarchy, a view on one schema index: the named
    classes other than owl:Thing and owl:Nothing, and the named properties.
    Its one query, ``above``, answers with a mask over class ids and one over
    property keys, which ``decode`` turns into names. Reflexive pairs are
    excluded; the pair sets are computed each time they are read."""

    def __init__(self, tbox: TBoxIndex):
        self.tbox = tbox
        self._class_ids = {ce.iri.value: i for ce, i in tbox._ids.items()
                           if isinstance(ce, NamedClass) and ce not in (THING, NOTHING)}
        self.names = {*self._class_ids, *tbox._prop_names}
        self._all = self.mask(self.names)

    def mask(self, names: Iterable[str]) -> Tuple[int, int]:
        """The class ids and property keys of those ``names`` that the taxonomy holds."""
        classes, props, names = self._class_ids, self.tbox._prop_ids, set(names)
        return (sum(1 << classes[n] for n in names if n in classes),
                sum(1 << props[n] for n in names if n in props))

    def above(self, name: str, within: Tuple[int, int]) -> Tuple[int, int]:
        """The names of mask ``within`` strictly above ``name``, as the same two masks."""
        i, k = self._class_ids.get(name), self.tbox._prop_ids.get(name)
        return (0 if i is None else self.tbox._reach[i] & within[0] & ~(1 << i),
                0 if k is None else self.tbox._prop_reach[k] & within[1] & ~(1 << k))

    def decode(self, masks: Tuple[int, int]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """The class names and the property names of two masks from ``above``, each sorted."""
        order, props = self.tbox._order, self.tbox._prop_names
        return (tuple([order[j].iri.value for j in _bit_ids(masks[0])]),
                tuple([props[k >> 1] for k in _bit_ids(masks[1])]))

    def supers(self, name: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Every name of the taxonomy strictly above ``name``, decoded."""
        return self.decode(self.above(name, self._all))

    def pairs(self, names: Iterable[str], within: Iterable[str]) -> List[Set[Tuple[str, str]]]:
        """The class pairs, then the property pairs, (a, b) of each a of ``names``
        and each b of ``within`` strictly above it."""
        mask, out = self.mask(within), [set(), set()]  # type: Tuple[int, int], List[Set[Tuple[str, str]]]
        for a in names:
            for pairs, sups in zip(out, self.decode(self.above(a, mask))):
                pairs.update((a, b) for b in sups)
        return out

    subclass_pairs = property(lambda self: self.pairs(self.names, self.names)[0])
    subproperty_pairs = property(lambda self: self.pairs(self.names, self.names)[1])
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
    individual's classes are one mask over class ids, and each pair's property
    facts one mask over property keys. A call that adds a fact logs one burst:
    the fact, and the masks of all that it added with it. The facts' traces are
    replayed from the log on read."""

    def __init__(self, tbox: TBoxIndex):
        self.tbox = tbox
        self.skolem_depths: Dict[Term, int] = {}
        self.skolem_budget_exceeded = False
        self.derived_count = 0
        self._masks: Dict[Term, int] = {}
        self._pairs: Dict[Tuple[Term, Term], int] = {}
        self._order, self._reach = tbox._order, tbox._reach
        self._pids, self._pnames = tbox._prop_ids, tbox._prop_names
        # Bursts, in derivation order: (individual, class id, the first fact's
        # rule, premises and detail, the classes that it added), or (pair a,
        # pair b, property key, the first fact's rule, premises and detail, the
        # property keys that it added to the pair, then the classes that it
        # added to a and to b).
        self._bursts: List[Tuple] = []
        # Caches: the fact count and the replayed traces; the burst count and
        # the bursts of each individual asked about.
        self._replayed: Tuple[int, Dict[FactKey, Trace]] = (0, {})
        self._by_key: Tuple[int, Dict[object, List[Tuple]]] = (0, {})

    def _pair(self, k: int, s: Term, o: Term) -> Tuple[Term, Term, int, int]:
        """The pair (a, b) that holds facts between ``s`` and ``o``, the key of
        property key ``k`` from s to o on it, and the pair's mask."""
        held = self._pairs.get((s, o))
        if held is None:
            held = self._pairs.get((o, s))
            if held is not None:
                return o, s, k ^ 1, held
        return s, o, k, held or 0

    @property
    def memberships(self) -> Dict[Term, Set[ClassExpression]]:
        """Each individual's classes, decoded from its mask on every read."""
        return {x: set(map(self._order.__getitem__, _bit_ids(mask))) for x, mask in self._masks.items()}

    @property
    def traces(self) -> Dict[FactKey, Trace]:
        """Every fact with its trace, in derivation order, replayed from the log."""
        if self._replayed[0] != self.derived_count:
            self._replayed = (self.derived_count, dict(chain.from_iterable(map(self._replay, self._bursts))))
        return self._replayed[1]

    @property
    def prop_index(self) -> Dict[str, List[Tuple[Term, Term]]]:
        """Each property's facts as (subject, object), in derivation order,
        decoded from the pair bursts in plan order without their traces."""
        index: Dict[str, List[Tuple[Term, Term]]] = {}
        for burst in self._bursts:
            if len(burst) > 4:
                a, b, k, _, added = burst[:5]
                index.setdefault(self._pnames[k >> 1], []).append((b, a) if k & 1 else (a, b))
                for _, (target, *_), pair in self._pair_walk(a, b, k, added):
                    if pair is not None:
                        index.setdefault(target, []).append(pair)
        return index

    def _replay(self, burst: Tuple) -> Iterator[Tuple[FactKey, Trace]]:
        return self._walk(*burst) if len(burst) == 4 else self._walk_pair(*burst)

    def _walk(self, x: Term, i: int, trace: Tuple, added: int) -> Iterator[Tuple[FactKey, Trace]]:
        """One class burst's facts with their traces: class ``i``, then depth first
        each superclass in ``added`` not met yet, lowest id first."""
        order = self._order
        yield (fact := class_fact(x, order[i])), Trace(*trace)
        left, stack = added & ~(1 << i), [(fact, i)]
        while stack:
            premise, n = stack[-1]
            if above := self._reach[n] & left:
                j = (above & -above).bit_length() - 1
                left ^= 1 << j
                stack.append((class_fact(x, order[j]), j))
                yield stack[-1][0], Trace("subsumption", (premise,), f"{order[n].text} is below {order[j].text}")
            else:
                stack.pop()

    def _pair_walk(self, a: Term, b: Term, k: int, added: int) -> Iterator[Tuple[int, PlanEntry, Optional[Tuple]]]:
        """A property burst's plan entries below facts that it made, with their
        positions: each class with None, each property fact of the keys it
        ``added`` with its (subject, object). On a loop a == b an entry and its
        mirror on the swapped pair name one fact, and the later of the two is
        skipped."""
        flip, loop = k & 1, a == b
        pairs = ((b, a), (a, b)) if flip else ((a, b), (b, a))  # as-is and swapped
        plan, made = self.tbox.prop_plan(self._pnames[k >> 1], pairs[0][1].__class__ is Literal), [True]
        left = added & ~(1 << k | loop << (k ^ 1))
        for position, entry in enumerate(plan, 1):
            target, swapped, parent = entry[:3]
            pair = None
            if not made[parent]:
                pass
            elif target.__class__ is not str:
                yield position, entry, None
            elif left >> (bit := self._pids[target] + (swapped != flip)) & 1:
                left &= ~(1 << bit | loop << (bit ^ 1))
                pair = pairs[swapped]
                yield position, entry, pair
            made.append(pair is not None)

    def _walk_pair(self, a: Term, b: Term, k: int, trace: Tuple, added: int, gain_a: int,
                   gain_b: int) -> Iterator[Tuple[FactKey, Trace]]:
        """One property burst's facts with their traces: the fact, then those of
        ``_pair_walk``, each class that a side gained as a class burst."""
        s, o = (b, a) if k & 1 else (a, b)
        left, made = {b: gain_b, a: gain_a}, {0: prop_fact(self._pnames[k >> 1], s, o)}  # on a loop a's gains
        yield made[0], Trace(*trace)
        for position, (target, swapped, parent, rule, why), pair in self._pair_walk(a, b, k, added):
            if pair is not None:
                made[position] = prop_fact(target, *pair)
                yield made[position], Trace(rule, (made[parent],), why)
                continue
            x, i = o if swapped else s, self.tbox._ids[target]
            if left[x] >> i & 1:
                yield from self._walk(x, i, (rule, (made[parent],), why), self._reach[i] & left[x])
                left[x] &= ~self._reach[i]

    @staticmethod
    def _gains(burst: Tuple, key: object) -> int:
        """The classes that a burst added to individual ``key``, or the property
        keys that it added to pair ``key``, as logged."""
        return (burst[3] if len(burst) == 4 else burst[4] if key == burst[:2] else
                burst[5] if key == burst[0] else burst[6] if key == burst[1] else 0)

    def trace_of(self, fact: FactKey) -> Optional[Trace]:
        """The trace of one fact, replaying only the burst that derived it; None
        for a fact that the closure does not hold."""
        if fact[0] == "class":
            if not self.has_class(fact[1], fact[2]):
                return None
            x = key = fact[1]
            bit = self.tbox._ids[fact[2]]
        elif self.has_prop(*fact[1:]):
            x, b, bit, _ = self._pair(self._pids[fact[1]], fact[2], fact[3])
            key = (x, b)
        else:
            return None
        if self._by_key[0] != len(self._bursts):
            self._by_key = (len(self._bursts), {})
        bursts = self._by_key[1].get(x)
        if bursts is None:  # the bursts that add facts about x, in log order
            same, log = is_ if x.__class__ is Iri else eq, self._bursts  # an Iri is one object
            bursts = self._by_key[1][x] = list(compress(log, map(or_, map(same, map(itemgetter(0), log), repeat(x)),
                                                                 map(same, map(itemgetter(1), log), repeat(x)))))
        return next(trace for burst in bursts if self._gains(burst, key) >> bit & 1
                    for f, trace in self._replay(burst) if f == fact)

    def has_class(self, individual: Term, ce: ClassExpression) -> bool:
        i = self.tbox._ids.get(ce)
        return i is not None and self._masks.get(individual, 0) >> i & 1 == 1

    def has_prop(self, prop_iri: str, s: Term, o: Term) -> bool:
        k = self._pids.get(prop_iri)
        return k is not None and (self._pairs.get((s, o), 0) >> k | self._pairs.get((o, s), 0) >> (k ^ 1)) & 1 == 1

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
        # the facts of each property, and the positions there of each
        # (property, inverted?, subject). Only facts that some rule reads.
        self.members_of: Dict[ClassExpression, List[Term]] = {}
        self.pairs_of: Dict[str, List[Tuple[Term, Term]]] = {}
        self.links: Dict[Tuple[str, bool, Term], List[int]] = {}
        self.serial: Dict[FactKey, int] = {}  # rule-read facts, numbered in derivation order
        self.fresh: List[FactKey] = []  # existential memberships not yet skolemized
        self.scopes: Dict[int, int] = {}  # blank-node scopes in the order skolemization meets them
        # Rule masks: the rules with a body fact newer than their last turn, and
        # the rules each of whose body predicates has a fact.
        self.dirty = self.ready = 0
        self.waiting = list(tbox.body_sizes)  # each rule's body predicates that have no fact yet
        self.marks: Dict[int, List[int]] = {}  # each rule's body fact counts at its last turn

    def _record(self, fact: FactKey) -> None:
        """Index one new fact that ``add_class`` or ``add_prop`` has counted and
        logged in its burst, and that a rule reads or, for a class, that may
        need a witness; wake the rules that read it once each of their body
        predicates has a fact."""
        # Only the facts that some rule reads go into the join indexes.
        if fact[0] == "class":
            _, x, ce = fact
            if ce.__class__ is SomeValuesFrom:
                self.fresh.append(fact)
            readers = self.tbox.readers.get(ce)
            if not readers:
                return
            (facts := self.members_of.setdefault(ce, [])).append(x)
        else:
            _, name, s, o = fact
            readers = self.tbox.readers.get(name)
            if not readers:
                return
            facts, links = self.pairs_of.setdefault(name, []), self.links
            links.setdefault((name, False, s), []).append(len(facts))
            links.setdefault((name, True, o), []).append(len(facts))
            facts.append((s, o))
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
        if x.__class__ is Literal:
            return False
        tbox, masks = self.tbox, self._masks
        i = tbox._ids[ce]
        before = masks.get(x, 0)
        if before >> i & 1:
            return False
        new = tbox._reach[i] & ~before
        self.derived_count += new.bit_count()
        if self.derived_count > self.fact_cap:
            raise _cap_exceeded(self.fact_cap)
        masks[x] = before | new
        self._bursts.append((x, i, (rule, premises, detail), new))
        if watched := new & tbox._watched:
            order, record = tbox._order, self._record
            for j in _bit_ids(watched):
                record(("class", x, order[j]))
        return True

    def add_prop(self, name: str, s: Term, o: Term, rule: str,
                 premises: Tuple[FactKey, ...], detail: str = "") -> bool:
        """Add ``name(s, o)`` with every fact that it entails on the pair and not
        held yet, and the domains and ranges of those facts: one OR into the
        pair's mask, one into each side's class mask, and one log entry. The new
        facts that a rule reads are indexed as the plan's walk meets them, and
        the new classes as ``add_class`` indexes them; a class that a rule reads
        and that both sides gain, in the walk's order too, since then the order
        is observable."""
        # A literal subject, from an assertion through an inverse, derives
        # nothing, as a rule head's does not.
        if s.__class__ is Literal:
            return False
        pairs, k = self._pairs, self._pids[name]  # the pair, as in _pair
        held = pairs.get((s, o))
        if held is not None:
            a, b = s, o
        elif (held := pairs.get((o, s))) is not None:
            a, b, k = o, s, k ^ 1
        else:
            a, b, held = s, o, 0
        if held >> k & 1:
            return False
        tbox, masks, loop, literal = self.tbox, self._masks, a == b, b.__class__ is Literal
        reach, to_a, to_b, read = tbox._steps.get(k << 1 | literal) or tbox.prop_step(k, literal)
        new = reach & ~held
        if loop:  # p(a, b) and p(b, a) are one fact
            new |= _mirror(new)
            to_a, to_b = to_a | to_b, 0
        ma, mb = masks.get(a, 0), masks.get(b, 0)
        gain_a, gain_b = to_a & ~ma, to_b & ~mb
        self.derived_count += (new.bit_count() >> loop) + gain_a.bit_count() + gain_b.bit_count()
        if self.derived_count > self.fact_cap:
            raise _cap_exceeded(self.fact_cap)
        pairs[a, b] = held | new
        if gain_a:
            masks[a] = ma | gain_a
        if gain_b:
            masks[b] = mb | gain_b
        self._bursts.append(burst := (a, b, k, (rule, premises, detail), new, gain_a, gain_b))
        if read:
            record, names = self._record, self._pnames
            for bit in read:
                if new >> bit & 1:
                    new &= ~(1 << bit | loop << (bit ^ 1))
                    record(("prop", names[bit >> 1], b, a) if bit & 1 else ("prop", names[bit >> 1], a, b))
        watched = tbox._watched
        if (gain_a | gain_b) & watched:
            if gain_a & gain_b & watched:
                for fact, _ in self._walk_pair(*burst):
                    if fact[0] == "class" and watched >> tbox._ids[fact[2]] & 1:
                        self._record(fact)
            else:
                for x, gain in ((a, gain_a & watched), (b, gain_b & watched)):
                    for j in _bit_ids(gain) if gain else ():
                        self._record(("class", x, tbox._order[j]))
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
            name, inverted = self.tbox.prop_keys[ce.prop]
            facts, depth = self.pairs_of.get(name, ()), self.skolem_depths.get(x, 0) + 1
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
        keys = self.tbox.prop_keys
        sizes = [len(self.members_of[atom.cls] if isinstance(atom, ClassAtom)
                     else self.pairs_of[keys[atom.prop][0]]) for atom in body]
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
                    (name, inverted), a, b = keys[atom.prop], binding[atom.var1], binding[atom.var2]
                    self.add_prop(name, *((b, a) if inverted else (a, b)), label, premises, detail)
            if self.dirty >> index & 1:  # _match leaves dirty as it is
                for i, atom in enumerate(body):
                    if isinstance(atom, ClassAtom) and len(self.members_of.get(atom.cls, ())) > seen[i]:
                        later = self._match(body, i, seen[i], sizes, queue, key)
                        seen[i] = len(self.members_of[atom.cls])
                        order[fired:] = sorted(order[fired:] + later)

    def _match(self, body: Tuple[Atom, ...], first: int, start: int, sizes: List[int],
               queue: Dict, after: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """Queue each new match of ``body`` that sorts after ``after`` under its key, and
        return the keys: atom ``first`` first, from position ``start`` of its facts,
        then the rest in body order; property atoms read below their ``sizes``."""
        rest, added, serial = [j for j in range(len(body)) if j != first], [], self.serial.__getitem__
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
                key = tuple(map(serial, premises))
                if key > after and key not in queue:
                    queue[key] = binding, premises
                    added.append(key)
        return added

    def _extend(self, atom: Atom, binding: Dict[str, Term], premises: Tuple[FactKey, ...],
                limit: int, start: int = 0) -> Iterator[Tuple[Dict[str, Term], Tuple[FactKey, ...]]]:
        """Each extension of ``binding`` and ``premises`` by one fact that matches
        ``atom``, in insertion order: property facts below position ``limit``, and
        for an unbound atom from position ``start``."""
        if atom.__class__ is ClassAtom:
            var, cls = atom.var, atom.cls
            x = binding.get(var)
            if x is None:
                for y in islice(self.members_of.get(cls, ()), start, None):
                    yield {**binding, var: y}, premises + (("class", y, cls),)
            elif self.has_class(x, cls):
                yield binding, premises + (("class", x, cls),)
            return
        var1, var2, (name, inverted) = atom.var1, atom.var2, self.tbox.prop_keys[atom.prop]
        facts, a, b = self.pairs_of.get(name, ()), binding.get(var1), binding.get(var2)
        positions: Iterable[int] = (self.links.get((name, inverted, a), ()) if a is not None else
                                    self.links.get((name, not inverted, b), ()) if b is not None else
                                    range(start, limit))
        loop = var1 == var2
        for position in positions:
            if position >= limit:
                break
            s, o = facts[position]
            x, y = (o, s) if inverted else (s, o)
            if (b is None or b == y) and (not loop or x == y):
                yield {**binding, var1: x, var2: y}, premises + (("prop", name, s, o),)

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


def _close(tbox: TBoxIndex, skolem_depth: int, fact_cap: int,
           probe: Optional[ClassExpression] = None) -> ClosedKB:
    """Load the assertions of the models that ``tbox`` was built from, then
    ``_PROBE`` into ``probe`` if one is given, and run the engine to fixpoint."""
    engine = _Engine(tbox, skolem_depth, fact_cap)
    add_class, add_prop, keys = engine.add_class, engine.add_prop, tbox.prop_keys
    for ax in tbox.assertions:
        args = ax.args
        if ax.kind == "class-assertion":
            add_class(args[0], args[1], "asserted", ())
        else:
            name, inverted = keys[args[0]]
            add_prop(name, *((args[2], args[1]) if inverted else args[1:]), "asserted", ())
    if probe is not None:
        engine.add_class(_PROBE, probe, "asserted", ())
    engine.run()
    return engine


def materialize(models: Sequence[OntologyModel], abox: Optional[Graph] = None, *,
                skolem_depth: int = 3, fact_cap: int = 1_000_000,
                tbox: Optional[TBoxIndex] = None) -> ClosedKB:
    """Compute the closure of the models plus (optional) instance graph.

    A ``tbox`` is reused when it was built from exactly the closure's models,
    the same objects in the same order (the instance graph's model is a new
    one, so never with ``abox``); otherwise a new index is built.
    """
    all_models = list(models)
    if abox is not None:
        all_models.append(extract_axioms(abox, source_label="instances"))
    if tbox is None or not tbox.built_from(all_models):
        tbox = TBoxIndex(all_models)
    return _close(tbox, skolem_depth, fact_cap)


def check_clash(kb: ClosedKB) -> List[Clash]:
    """All contradictions present in a completed closure (collect-all)."""
    patterns, nothing = list(kb.tbox.clash_patterns), kb.tbox._ids.get(NOTHING)
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

    A ``tbox`` built from exactly ``models`` whose universe holds ``ce`` is
    reused; otherwise the index is built from ``models`` and a model that
    asserts the probe, which brings ``ce`` into it. The probe and its skolem
    descendants live only in this closure and are discarded afterwards.
    """
    if tbox is None or not tbox.built_from(models) or ce not in tbox.universe:
        tbox = TBoxIndex([*models, OntologyModel(axioms=[Axiom("class-assertion", (_PROBE, ce))])])
    return not check_clash(_close(tbox, skolem_depth, fact_cap, ce))


def entailed_taxonomy(models: Sequence[OntologyModel]) -> Taxonomy:
    """Named-class and named-property subsumption/equivalence closure, as a
    view on a new index over ``models``."""
    return Taxonomy(TBoxIndex(list(models)))


def explain(kb: ClosedKB, fact: FactKey) -> TraceNode:
    """Finite derivation tree for a fact, bottoming out at asserted facts."""
    trace = kb.trace_of(fact)
    if trace is None:
        raise UnknownFactError(f"fact not present in the closure: {fact!r}")
    node = TraceNode(fact=fact, rule=trace.rule, detail=trace.detail)
    for premise in trace.premises:
        node.children.append(explain(kb, premise))
    return node
