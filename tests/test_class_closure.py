"""The worklist class closure in ``TBoxIndex`` against a full-rescan fixpoint,
and conservativity's count of named disjoint pairs against a nested scan over it."""

import tracemalloc
from typing import Dict, Optional, Set, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provalign.checks import _disjoint_pair_count
from provalign.fixtures import load_model
from provalign.owl import (
    Axiom,
    ClassExpression,
    DisjointUnionOf,
    Intersection,
    NamedClass,
    NamedProperty,
    OntologyModel,
    SomeValuesFrom,
    UnionOf,
    merged_signature,
    render_class_expression,
)
from provalign import vocab
from provalign.rdf import iri
from provalign.reasoner import TBoxIndex

EX = "http://example.org/closure#"


def reference_reach(tbox: TBoxIndex) -> Dict[ClassExpression, Set[ClassExpression]]:
    """Least fixpoint by rescanning every rule over the whole universe each round."""
    reach = {ce: {ce} | tbox.edges.get(ce, set()) for ce in tbox.universe}
    unions = [ce for ce in tbox.universe if isinstance(ce, (UnionOf, DisjointUnionOf))]
    intersections = [ce for ce in tbox.universe if isinstance(ce, Intersection)]
    changed = True
    while changed:
        changed = False
        for ce in tbox.universe:
            current = reach[ce]
            extra: Set[ClassExpression] = set()
            for sup in current:
                extra |= reach.get(sup, set())
            if not extra <= current:
                current |= extra
                changed = True
        for u in unions:
            common: Optional[Set[ClassExpression]] = None
            for op in u.operands:
                common = set(reach[op]) if common is None else common & reach[op]
            if common and not common <= reach[u]:
                reach[u] |= common
                changed = True
        for i in intersections:
            ops = set(i.operands)
            for ce in tbox.universe:
                if i not in reach[ce] and ops <= reach[ce]:
                    reach[ce].add(i)
                    changed = True
    return reach


def assert_matches_reference(tbox: TBoxIndex) -> None:
    reach = reference_reach(tbox)
    assert set(reach) == tbox.universe
    for a in reach:
        for b in reach:
            assert tbox.subsumed(a, b) == (b in reach[a])
    for ce, sups in reach.items():
        assert tbox.supers(ce) == tuple(sorted(sups - {ce}, key=render_class_expression))
        assert tbox.super_count(ce) == len(sups) - 1


names = st.sampled_from("ABCDEF").map(lambda n: NamedClass(iri(EX + n)))
expressions = st.recursive(
    names,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: Intersection(tuple(ops))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: UnionOf(tuple(ops))),
        inner.map(lambda filler: SomeValuesFrom(NamedProperty(iri(EX + "p")), filler)),
    ),
    max_leaves=4,
)
axioms = st.one_of(
    st.tuples(expressions, expressions).map(lambda ab: Axiom("sub-class-of", ab)),
    st.tuples(expressions, expressions).map(lambda ab: Axiom("equivalent-classes", ab)),
    st.tuples(names, st.lists(expressions, min_size=2, max_size=3)).map(
        lambda cu: Axiom("disjoint-union", (cu[0], tuple(cu[1])))),
    st.tuples(expressions, expressions).map(lambda ab: Axiom("disjoint-classes", ab)),
)


def _named(n):
    return NamedClass(iri(EX + n))


@settings(max_examples=300, deadline=None)
@given(st.lists(axioms, max_size=8))
# F is below A, B and C; (B and C) below D; so F is below (D and A), whose
# first operand only arrives with (B and C)'s supers.
@example([Axiom("sub-class-of", (_named("F"), _named(n))) for n in "ABC"]
         + [Axiom("sub-class-of", (Intersection((_named("B"), _named("C"))), _named("D"))),
            Axiom("sub-class-of", (Intersection((_named("D"), _named("A"))), _named("E")))])
def test_worklist_closure_equals_rescan_fixpoint(generated):
    assert_matches_reference(TBoxIndex([OntologyModel(axioms=generated)]))


@pytest.mark.parametrize("names", [
    ["prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl"],
    ["prov-mini.ttl", "bfo-mini.ttl", "align-counterexample.ttl"],
    ["bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-plan-incoherent.ttl"],
])
def test_worklist_closure_equals_rescan_fixpoint_on_fixtures(names):
    assert_matches_reference(TBoxIndex([load_model(name) for name in names]))


def test_expressions_that_share_a_text_get_ids_by_structure():
    # Single-operand expressions built in Python, and IRIs with spaces (which
    # Turtle writes as \u0020), give distinct expressions one text. They go by
    # type name and then by operands, whatever the order they were made and
    # loaded in (" and" sorts before ")", and an operand before a longer one).
    x = _named("X")
    pairs = []
    for k in range(24):
        n = _named(f"N{k}")
        made = [UnionOf((n,)), Intersection((n,))] if k % 2 else [Intersection((n,)), UnionOf((n,))]
        pairs.append(sorted(made, key=lambda ce: type(ce).__name__))
    a, c = _named("A"), _named("C")
    ab, bc = NamedClass(iri(EX + "A and " + EX + "B")), NamedClass(iri(EX + "B and " + EX + "C"))
    pairs.append([Intersection((a, bc)), Intersection((ab, c))])
    for first, second in pairs:
        assert first.text == second.text
    tied = [ce for pair in pairs for ce in pair]
    for ordered in (tied, tied[::-1]):
        tbox = TBoxIndex([OntologyModel(axioms=[Axiom("sub-class-of", (x, ce)) for ce in ordered])])
        supers = tbox.supers(x)
        for first, second in pairs:
            assert supers.index(first) + 1 == supers.index(second)


def test_index_over_a_deep_subclass_chain_stays_small():
    # One mask per class holds the 4.5M pairs of the closure in about 0.6 MiB;
    # sets in both directions and a sorted tuple per class took over 400 MiB.
    chain = [_named(f"C{k:04d}") for k in range(3000)]
    model = OntologyModel(axioms=[Axiom("sub-class-of", pair) for pair in zip(chain, chain[1:])])
    tracemalloc.start()
    try:
        tbox = TBoxIndex([model])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert tbox.super_count(chain[0]) == 2999 and tbox.subsumed(chain[0], chain[-1])
    assert tbox.supers(chain[1500]) == tuple(chain[1501:])


def reference_disjoint_pairs(tbox: TBoxIndex, names: Set[str]) -> Set[Tuple[str, str]]:
    """Every pair of named classes tested against every disjoint pair."""
    out: Set[Tuple[str, str]] = set()
    classes = [NamedClass(iri(n)) for n in sorted(names)]
    for i, c in enumerate(classes):
        if c not in tbox.universe:
            continue
        for d in classes[i + 1:]:
            if d not in tbox.universe:
                continue
            for a, b in tbox.disjoint_pairs:
                if (tbox.subsumed(c, a) and tbox.subsumed(d, b)) or \
                   (tbox.subsumed(c, b) and tbox.subsumed(d, a)):
                    out.add((c.iri.value, d.iri.value))
                    break
    return out


# Most generated disjointness is between complex expressions with no named
# class below them, so named pairs are mixed in. ``names`` is a random subset
# of the generated names and owl:Thing, plus one name that no axiom mentions.
named_disjoint = st.tuples(names, names).map(lambda ab: Axiom("disjoint-classes", ab))
name_sets = st.sets(st.sampled_from([EX + n for n in "ABCDEF"] + [vocab.OWL_THING]), min_size=2).map(
    lambda chosen: chosen | {EX + "Z"})


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(axioms, named_disjoint), max_size=8), name_sets)
def test_named_disjoint_pairs_equal_nested_scan(generated, chosen):
    tbox = TBoxIndex([OntologyModel(axioms=generated)])
    assert _disjoint_pair_count(tbox, chosen) == len(reference_disjoint_pairs(tbox, chosen))


@pytest.mark.parametrize("names", [
    ["prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl"],
    ["bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-plan-incoherent.ttl"],
])
def test_named_disjoint_pairs_equal_nested_scan_on_fixtures(names):
    models = [load_model(name) for name in names]
    tbox = TBoxIndex(models)
    chosen = merged_signature(models[:-1])["classes"]
    expected = reference_disjoint_pairs(tbox, chosen)
    assert expected and _disjoint_pair_count(tbox, chosen) == len(expected)


def test_disjoint_pair_count_stays_small():
    # A million pairs of names below the two sides of one disjointness are
    # counted on masks; the set of those pairs took about 85 MiB.
    subs = [Axiom("sub-class-of", (_named(f"{side}{k:04d}"), _named(side))) for side in "AB" for k in range(1000)]
    tbox = TBoxIndex([OntologyModel(axioms=[*subs, Axiom("disjoint-classes", (_named("A"), _named("B")))])])
    names = {EX + n for side in "AB" for n in [side, *(f"{side}{k:04d}" for k in range(1000))]}
    tracemalloc.start()
    try:
        count = _disjoint_pair_count(tbox, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert count == 1001 * 1001
