import random
import time
import tracemalloc
from collections import Counter, deque
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from provalign import index, reasoner, vocab
from provalign.fixtures import INSTANCE_NAMES, fixture_text, load_model
from provalign.owl import (
    Axiom,
    ClassAtom,
    Intersection,
    InverseProperty,
    NamedClass,
    NamedProperty,
    OntologyModel,
    PropertyAtom,
    SomeValuesFrom,
    SwrlRule,
    UnionOf,
    extract_axioms,
    render_class_expression,
)
from provalign.rdf import BlankNode, Literal, iri, new_scope, term_sort_key
from provalign.reasoner import (
    FactCapExceededError,
    TBoxIndex,
    UnknownFactError,
    check_clash,
    class_fact,
    class_satisfiable,
    entailed_taxonomy,
    explain,
    materialize,
    prop_fact,
)
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix swrl: <http://www.w3.org/2003/11/swrl#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix obo: <http://purl.obolibrary.org/obo/> .
@prefix ex: <http://example.org/> .
"""

EX = "http://example.org/"
PROV = "http://www.w3.org/ns/prov#"
OBO = "http://purl.obolibrary.org/obo/"


def model_of(body):
    return extract_axioms(parse_turtle(HEADER + body))


def kb_of(tbox_body, abox_body="", **options):
    tbox = model_of(tbox_body)
    abox = parse_turtle(HEADER + abox_body) if abox_body else None
    return materialize([tbox], abox, **options)


def has_class(kb, individual, class_iri):
    return kb.has_class(iri(individual), NamedClass(iri(class_iri)))


def test_empty_inputs_empty_closure():
    kb = materialize([OntologyModel()])
    assert kb.derived_count == 0
    assert check_clash(kb) == []


def test_subclass_and_equivalence_propagation():
    kb = kb_of("ex:A rdfs:subClassOf ex:B . ex:B owl:equivalentClass ex:C .",
               "ex:i a ex:A .")
    assert has_class(kb, EX + "i", EX + "B")
    assert has_class(kb, EX + "i", EX + "C")


def test_subproperty_and_inverse():
    kb = kb_of("ex:p rdfs:subPropertyOf ex:q . ex:q owl:inverseOf ex:r .",
               "ex:a ex:p ex:b .")
    assert kb.has_prop(EX + "q", iri(EX + "a"), iri(EX + "b"))
    assert kb.has_prop(EX + "r", iri(EX + "b"), iri(EX + "a"))


def test_domain_and_range():
    kb = kb_of("ex:p rdfs:domain ex:C . ex:p rdfs:range ex:D .", "ex:a ex:p ex:b .")
    assert has_class(kb, EX + "a", EX + "C")
    assert has_class(kb, EX + "b", EX + "D")


def test_domain_fires_on_literal_object_range_does_not():
    kb = kb_of("ex:p rdfs:domain ex:C . ex:p rdfs:range ex:D .", 'ex:a ex:p "1952" .')
    assert has_class(kb, EX + "a", EX + "C")
    assert all(f[0] != "class" or f[1] != iri(EX + "D") for f in kb.fact_keys())


def test_fig9_domain_inference_yields_entity_influence(prov):
    abox = parse_turtle(HEADER + "ex:d prov:entity ex:s .")
    kb = materialize([prov], abox)
    assert has_class(kb, EX + "d", PROV + "EntityInfluence")
    trace = explain(kb, class_fact(iri(EX + "d"), NamedClass(iri(PROV + "EntityInfluence"))))
    assert trace.rule == "domain"
    assert trace.children[0].rule == "asserted"


def test_intersection_decomposition_and_composition():
    kb = kb_of("ex:E owl:equivalentClass [ owl:intersectionOf ( ex:A ex:B ) ] .",
               "ex:i a ex:A . ex:i a ex:B . ex:j a ex:E .")
    assert has_class(kb, EX + "i", EX + "E")
    assert has_class(kb, EX + "j", EX + "A")
    assert has_class(kb, EX + "j", EX + "B")


def test_existential_superclass_skolemizes_with_memo():
    kb = kb_of("""
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:B ] .
    """, "ex:i a ex:A .")
    witnesses = [o for s, o in kb.prop_index.get(EX + "p", []) if s == iri(EX + "i")]
    assert len(witnesses) == 1
    assert kb.has_class(witnesses[0], NamedClass(iri(EX + "B")))


def test_skolem_depth_bound_reports_budget():
    looping = """
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:A ] .
    """
    kb = kb_of(looping, "ex:i a ex:A .", skolem_depth=3)
    assert kb.skolem_budget_exceeded
    depths = [d for d in kb.skolem_depths.values()]
    assert depths and max(depths) == 3


def test_real_successor_needs_no_witness():
    kb = kb_of("""
    ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:q ; owl:someValuesFrom ex:E ] .
    [ a owl:Restriction ; owl:onProperty ex:q ; owl:someValuesFrom ex:E ] rdfs:subClassOf ex:B .
    """, "ex:a a ex:A ; ex:q ex:b . ex:b a ex:E . ex:c a ex:A .")
    assert has_class(kb, EX + "a", EX + "B")
    assert [o for s, o in kb.prop_index[EX + "q"] if s == iri(EX + "a")] == [iri(EX + "b")]
    # an individual without a real successor still gets its witness
    witnesses = [o for s, o in kb.prop_index[EX + "q"] if s == iri(EX + "c")]
    assert len(witnesses) == 1 and kb.has_class(witnesses[0], NamedClass(iri(EX + "E")))


def existential_path(links):
    """``(p some D) <= D`` over an ``ex:p`` path whose last individual is a D."""
    abox = "".join(f"ex:a{i} ex:p ex:a{i + 1} .\n" for i in range(links)) + f"ex:a{links} a ex:D ."
    return [model_of("""
    [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:D ] rdfs:subClassOf ex:D .
    """), extract_axioms(parse_turtle(HEADER + abox))]


def test_existential_path_closure_grows_linearly():
    from test_acceptance import Budget

    seconds, work = {}, {}
    turn, match = reasoner._Engine._turn, reasoner._Engine._match
    for links in (800, 3200):
        models = existential_path(links)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            kb = materialize(models)
            runs.append(time.perf_counter() - start)
        seconds[links] = min(runs)
        # every link is derived once, each membership from its real successor
        assert kb.derived_count == 3 * links + 1 and not kb.skolem_budget_exceeded
        assert has_class(kb, EX + "a0", EX + "D")
        # The join's work, counted outside the timed runs: rule turns and matches.
        counts = work[links] = [0, 0]

        def counted_turn(engine, index):
            counts[0] += 1
            return turn(engine, index)

        def counted_match(engine, *args):
            added = match(engine, *args)
            counts[1] += len(added)
            return added

        with mock.patch.object(reasoner._Engine, "_turn", counted_turn), \
                mock.patch.object(reasoner._Engine, "_match", counted_match):
            materialize(models)
    with Budget("3,200-link existential path", 5.0):
        materialize(existential_path(3200))
    # Four times the links, at most four times the turns and matches; a join
    # whose work per link grew with the path would fail this without a clock.
    assert all(0 < n <= 4 * m + 8 for n, m in zip(work[3200], work[800])), work
    # One round per link: quadratic work would take 16 times as long.
    assert seconds[3200] < 8 * seconds[800], seconds


def test_existential_subclass_rule():
    kb = kb_of("""
    [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:B ] rdfs:subClassOf ex:E .
    """, "ex:a ex:p ex:b . ex:b a ex:B .")
    assert has_class(kb, EX + "a", EX + "E")


def test_property_chain():
    kb = kb_of("ex:r owl:propertyChainAxiom ( ex:p ex:q ) .",
               "ex:a ex:p ex:b . ex:b ex:q ex:c .")
    assert kb.has_prop(EX + "r", iri(EX + "a"), iri(EX + "c"))


def test_swrl_rule_fires(align_model, prov):
    abox = parse_turtle(HEADER + "ex:run a prov:Activity ; prov:atLocation ex:lab .")
    kb = materialize([prov, align_model], abox)
    assert kb.has_prop(OBO + "BFO_0000066", iri(EX + "run"), iri(EX + "lab"))
    trace = explain(kb, prop_fact(OBO + "BFO_0000066", iri(EX + "run"), iri(EX + "lab")))
    assert trace.rule.startswith("swrl-rule")
    assert len(trace.children) == 2


def test_swrl_converse_rule_fires(align_model, prov):
    abox = parse_turtle(HEADER + "ex:run obo:BFO_0000066 ex:lab . ex:lab a prov:Location .")
    kb = materialize([prov, align_model], abox)
    assert kb.has_prop(PROV + "atLocation", iri(EX + "run"), iri(EX + "lab"))


def test_union_subclass_at_tbox_level_no_instance_case_split():
    kb = kb_of("""
    ex:A rdfs:subClassOf [ owl:unionOf ( ex:B ex:C ) ] .
    ex:B rdfs:subClassOf ex:D . ex:C rdfs:subClassOf ex:D .
    """, "ex:i a ex:A .")
    assert has_class(kb, EX + "i", EX + "D")
    # but membership in a specific disjunct is never invented
    assert not has_class(kb, EX + "i", EX + "B")
    assert not has_class(kb, EX + "i", EX + "C")


# -- clash detection -----------------------------------------------------------

def test_disjointness_clash_from_domains():
    kb = kb_of("""
    ex:C owl:disjointWith ex:D .
    ex:p rdfs:domain ex:C .
    """, "ex:a a ex:D . ex:a ex:p ex:b .")
    (clash,) = check_clash(kb)
    assert clash.kind == "disjointness-violation"
    assert clash.individual == iri(EX + "a")


def test_fig9_pattern_clash(prov, bfo, cco, ro, align_model):
    inst = load_model("instances/fig9.ttl")
    kb = materialize([prov, bfo, cco, ro, align_model, inst])
    clashes = check_clash(kb)
    assert len(clashes) == 1
    clash = clashes[0]
    assert clash.individual.value.endswith("digestedProteinSample1")
    participants = {ce.iri.value for ce in clash.participants}
    assert participants == {OBO + "BFO_0000002", OBO + "BFO_0000003"}
    rules = set()
    for fact in clash.trace_facts:
        rules |= explain(kb, fact).rules_used()
    assert "domain" in rules


def test_fig11_pattern_clash(prov, bfo, cco, ro, align_model):
    inst = load_model("instances/fig11.ttl")
    kb = materialize([prov, bfo, cco, ro, align_model, inst])
    clashes = check_clash(kb)
    assert len(clashes) == 1
    participants = {ce.iri.value for ce in clashes[0].participants}
    assert participants == {OBO + "BFO_0000015", OBO + "BFO_0000035"}
    rules = set()
    for fact in clashes[0].trace_facts:
        rules |= explain(kb, fact).rules_used()
    assert "domain" in rules and "subsumption" in rules


def test_complement_clash():
    kb = kb_of("""
    ex:A rdfs:subClassOf [ owl:complementOf ex:B ] .
    """, "ex:i a ex:A . ex:i a ex:B .")
    clashes = check_clash(kb)
    assert any(c.kind == "complement-violation" for c in clashes)


def test_nothing_membership_clash():
    kb = kb_of("ex:A rdfs:subClassOf owl:Nothing .", "ex:i a ex:A .")
    assert any(c.kind == "nothing-membership" for c in check_clash(kb))


def test_clash_free_fixture(prov, bfo, cco, ro, align_model):
    inst = load_model("instances/fig12.ttl")
    kb = materialize([prov, bfo, cco, ro, align_model, inst])
    assert check_clash(kb) == []


# -- satisfiability -------------------------------------------------------------

def test_intersection_of_disjoints_unsatisfiable(bfo):
    probe = Intersection((NamedClass(iri(OBO + "BFO_0000002")),
                          NamedClass(iri(OBO + "BFO_0000003"))))
    assert class_satisfiable([bfo], probe) is False


def test_thing_satisfiable(bfo):
    assert class_satisfiable([bfo], NamedClass(iri(vocab.OWL_THING))) is True


def test_every_named_class_satisfiable_in_clash_free_stack(full_stack):
    from provalign.owl import merged_signature
    names = sorted(merged_signature(full_stack)["classes"])
    assert names  # enumeration oracle: every single named class probes clean
    for name in names:
        assert class_satisfiable(full_stack, NamedClass(iri(name))), name


# -- taxonomy -------------------------------------------------------------------

def test_transitivity():
    tax = entailed_taxonomy([model_of("ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .")])
    assert (EX + "A", EX + "C") in tax.subclass_pairs


def test_counterexample_agent_under_entity(bfo):
    align = model_of("""
    prov:Entity owl:equivalentClass obo:BFO_0000002 .
    prov:Agent rdfs:subClassOf obo:BFO_0000002 .
    """)
    tax = entailed_taxonomy([align, bfo])
    assert (PROV + "Agent", PROV + "Entity") in tax.subclass_pairs


def test_equivalence_members_subsume_both_ways():
    tax = entailed_taxonomy([model_of("ex:A owl:equivalentClass ex:B .")])
    assert (EX + "A", EX + "B") in tax.subclass_pairs
    assert (EX + "B", EX + "A") in tax.subclass_pairs
    assert (EX + "A", EX + "B") in tax.equivalent_class_pairs


def test_property_hierarchy_with_inverse_symmetry():
    tax = entailed_taxonomy([model_of("""
    ex:p rdfs:subPropertyOf ex:r .
    ex:q owl:inverseOf ex:p .
    ex:s owl:inverseOf ex:r .
    """)])
    assert (EX + "p", EX + "r") in tax.subproperty_pairs
    assert (EX + "q", EX + "s") in tax.subproperty_pairs


def _random_tbox_models(rng, n_classes):
    names = [f"{EX}C{i}" for i in range(n_classes)]
    model = OntologyModel()
    edges = []
    for _ in range(rng.randrange(0, 2 * n_classes)):
        a, b = rng.sample(names, 2)
        if rng.random() < 0.2:
            model.axioms.append(Axiom("equivalent-classes",
                                      (NamedClass(iri(a)), NamedClass(iri(b)))))
            edges.append((a, b))
            edges.append((b, a))
        else:
            model.axioms.append(Axiom("sub-class-of",
                                      (NamedClass(iri(a)), NamedClass(iri(b)))))
            edges.append((a, b))
    return model, names, edges


def _reachability_closure(names, edges):
    """Independent oracle: per-node BFS over the subsumption digraph."""
    adjacency = {n: set() for n in names}
    for a, b in edges:
        adjacency[a].add(b)
    pairs = set()
    for start in names:
        seen = set()
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        for other in seen:
            if other != start:
                pairs.add((start, other))
    return pairs


def test_taxonomy_matches_reachability_oracle_on_random_tboxes():
    rng = random.Random(20240113)
    for trial in range(200):
        model, names, edges = _random_tbox_models(rng, rng.randrange(2, 21))
        expected = _reachability_closure(names, edges)
        actual = entailed_taxonomy([model]).subclass_pairs
        assert actual == expected, f"trial {trial}"


# -- closure properties ----------------------------------------------------------

def test_monotonicity_of_materialization(prov, align_model):
    base = parse_turtle(HEADER + "ex:d prov:entity ex:s .")
    bigger = parse_turtle(HEADER + "ex:d prov:entity ex:s . ex:d a prov:Entity .")
    kb_small = materialize([prov, align_model], base)
    kb_big = materialize([prov, align_model], bigger)
    assert set(kb_small.fact_keys()) <= set(kb_big.fact_keys())


def test_idempotence_second_run_adds_nothing(prov, bfo, align_model):
    inst = load_model("instances/fig9.ttl")
    kb = materialize([prov, bfo, align_model, inst])
    replay = OntologyModel(source_label="replay")
    for fact in kb.fact_keys():
        if fact[0] == "class":
            replay.axioms.append(Axiom("class-assertion", (fact[1], fact[2])))
        else:
            replay.axioms.append(Axiom("property-assertion",
                                       (NamedProperty(iri(fact[1])), fact[2], fact[3])))
    kb2 = materialize([prov, bfo, align_model, replay])
    assert set(kb2.fact_keys()) == set(kb.fact_keys())


def test_soundness_every_trace_premise_is_in_kb(prov, bfo, cco, ro, align_model):
    inst = load_model("instances/fig9.ttl")
    kb = materialize([prov, bfo, cco, ro, align_model, inst])
    facts = set(kb.fact_keys())
    for fact in facts:
        for premise in kb.traces[fact].premises:
            assert premise in facts


def test_determinism_same_inputs_same_closure(prov, bfo, cco, ro, align_model):
    inst = load_model("instances/fig9.ttl")
    kb1 = materialize([prov, bfo, cco, ro, align_model, inst])
    kb2 = materialize([prov, bfo, cco, ro, align_model, inst])
    assert kb1.fact_keys() == kb2.fact_keys()
    assert kb1.traces == kb2.traces


def test_fact_cap_raises():
    with pytest.raises(FactCapExceededError):
        kb_of("ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .",
              "ex:i a ex:A .", fact_cap=2)


def test_explain_asserted_fact_is_leaf(prov):
    abox = parse_turtle(HEADER + "ex:i a prov:Entity .")
    kb = materialize([prov], abox)
    node = explain(kb, class_fact(iri(EX + "i"), NamedClass(iri(PROV + "Entity"))))
    assert node.rule == "asserted" and node.children == []


def test_explain_unknown_fact(prov):
    kb = materialize([prov])
    with pytest.raises(UnknownFactError):
        explain(kb, class_fact(iri(EX + "ghost"), NamedClass(iri(PROV + "Entity"))))


def test_fig11_trace_cites_domain_then_equivalence(prov, bfo, align_model):
    inst = load_model("instances/fig11.ttl")
    kb = materialize([prov, bfo, align_model, inst])
    sort_activity = iri("https://example.org/provalign/examples/sort#sortActivity")
    fact = class_fact(sort_activity, NamedClass(iri(OBO + "BFO_0000035")))
    node = explain(kb, fact)
    # follow recorded premises: process-boundary <- InstantaneousEvent <- atTime domain
    assert node.rule == "subsumption"
    chain = node
    rules = []
    while chain.children:
        rules.append(chain.rule)
        chain = chain.children[0]
    rules.append(chain.rule)
    assert rules[-1] == "asserted"
    assert "domain" in rules


class RecursiveEngine(reasoner._Engine):
    """The engine with recursive fact propagation, as a reference order. After
    everything else, a fact that arrives from outside propagation leads to its
    property's supers through an inverse, in name order. Each fact is a burst
    of its own, logged as what it added: its own bit, so that it replays as
    that fact alone."""

    def _log(self, fact, trace):
        """Count one new fact, set its bit, log it alone and index it as the engine does."""
        self.derived_count += 1
        if self.derived_count > self.fact_cap:
            raise reasoner._cap_exceeded(self.fact_cap)
        if fact[0] == "class":
            _, x, ce = fact
            i = self.tbox._ids[ce]
            self._masks[x] = self._masks.get(x, 0) | 1 << i
            self._bursts.append((x, i, trace, 1 << i))
        else:
            _, name, s, o = fact
            a, b, k, held = self._pair(self._pids[name], s, o)
            added = 1 << k | (a == b) << (k ^ 1)
            self._pairs[a, b] = held | added
            self._bursts.append((a, b, k, trace, added, 0, 0))
        self._record(fact)

    def add_class(self, x, ce, rule, premises, detail=""):
        if isinstance(x, Literal):
            return False
        members = self.memberships.setdefault(x, set())
        if ce in members:
            return False
        self._log(class_fact(x, ce), reasoner.Trace(rule, premises, detail))
        for sup in self.tbox.supers(ce):
            if sup not in members:
                self.add_class(x, sup, "subsumption", (class_fact(x, ce),),
                               detail=f"{render_class_expression(ce)} is below {render_class_expression(sup)}")
        return True

    def add_prop(self, name, s, o, rule, premises, detail="", outside=True):
        if isinstance(s, Literal) or prop_fact(name, s, o) in self.traces:
            return False
        self._log(prop_fact(name, s, o), reasoner.Trace(rule, premises, detail))
        premise = (prop_fact(name, s, o),)
        for sup in self.tbox.named_prop_supers(name):
            self.add_prop(sup, s, o, "subproperty", premise, f"{name} is below {sup}", False)
        if not isinstance(o, Literal):
            for q in sorted(self.tbox.inverse_pairs.get(name, ())):
                self.add_prop(q, o, s, "inverse", premise, f"{q} is the inverse of {name}", False)
        for c in self.tbox.domains.get(name, ()):
            self.add_class(s, c, "domain", premise, detail=f"domain of {name}")
        if not isinstance(o, Literal):
            for c in self.tbox.ranges.get(name, ()):
                self.add_class(o, c, "range", premise, detail=f"range of {name}")
            for q in _bfs_supers(self.tbox, name, True) if outside else ():
                self.add_prop(q, o, s, "subproperty", premise, f"{name} is below the inverse of {q}", False)
        return True


@pytest.mark.parametrize("instances", ["fig9.ttl", "fig11.ttl", "example4.ttl", "revision.ttl"])
def test_iterative_propagation_keeps_recursive_derivation_order(
        monkeypatch, prov, bfo, cco, ro, align_model, instances):
    models = [prov, bfo, cco, ro, align_model, load_model(f"instances/{instances}")]
    kb = materialize(models)
    monkeypatch.setattr(reasoner, "_Engine", RecursiveEngine)
    reference = materialize(models)
    assert list(kb.traces.items()) == list(reference.traces.items())
    assert kb.prop_index == reference.prop_index


def _logged_facts(burst):
    """The facts that a burst's masks say it added: a property burst's pair
    keys count once per fact, so halved on a loop p(a, a)."""
    if len(burst) == 4:
        return burst[3].bit_count()
    a, b, _, _, added, gain_a, gain_b = burst
    return (added.bit_count() >> (a == b)) + gain_a.bit_count() + gain_b.bit_count()


def test_each_burst_replays_as_many_facts_as_its_masks_hold(full_stack, perfbench_requests):
    graphs = [parse_turtle(fixture_text(name)) for name in INSTANCE_NAMES]
    graphs += [parse_turtle(Path(request["argv"][request["argv"].index("--instances") + 1]).read_text(encoding="utf-8"))
               for request in perfbench_requests[1]["prov-trace"]]
    for graph in graphs:
        kb = materialize(full_stack, graph)
        replayed = [sum(1 for _ in kb._replay(burst)) for burst in kb._bursts]
        assert replayed == list(map(_logged_facts, kb._bursts))
        assert sum(replayed) == kb.derived_count



def test_the_closure_resolves_no_property_key_on_its_own(monkeypatch, full_stack, perfbench_requests):
    """The index resolves the key of every property expression that an
    assertion, an axiom or a rule atom names, once; a closure, with its
    skolemization and join, reads them from ``prop_keys``."""
    argv = perfbench_requests[1]["prov-trace"][0]["argv"]
    request = [extract_axioms(parse_turtle(Path(argv[i + 1]).read_text(encoding="utf-8")))
               for i, flag in enumerate(argv) if flag in ("--source", "--target", "--alignment", "--instances")]
    for models in ([*full_stack, load_model("instances/fig9.ttl")], request):
        tbox = TBoxIndex(models)
        named = {ax.args[0] for ax in tbox.assertions if ax.kind == "property-assertion"}
        named |= {atom.prop for _, _, body, head in tbox.rules for atom in body + head if isinstance(atom, PropertyAtom)}
        assert named <= set(tbox.prop_keys) and len(named) > 10
        calls = []
        for module in (index, reasoner):
            monkeypatch.setattr(module, "_prop_key", lambda pe, key=module._prop_key: calls.append(pe) or key(pe))
        kb = reasoner._close(tbox, 3, 1_000_000)
        monkeypatch.undo()
        assert calls == [] and kb.derived_count > len(tbox.assertions) and kb.serial

_PROPS = [NamedProperty(iri(EX + f"p{k}")) for k in range(4)]
_PES = st.sampled_from(_PROPS + [InverseProperty(p) for p in _PROPS])
_PLAN_CLASSES = st.sampled_from([NamedClass(iri(EX + n)) for n in "ABC"])
_PLAN_INDIVIDUALS = [iri(EX + f"i{k}") for k in range(3)]
_PLAN_LITERALS = [Literal("1"), Literal("1", language="en"), Literal("1", datatype=vocab.XSD_INTEGER)]
_PROPERTY_SCHEMA = st.one_of(
    st.builds(lambda kind, a, b: Axiom(kind, (a, b)),
              st.sampled_from(["sub-property-of", "equivalent-properties", "inverse-properties"]),
              _PES, _PES),
    st.builds(lambda kind, p, c: Axiom(kind, (p, c)),
              st.sampled_from(["property-domain", "property-range"]), _PES, _PLAN_CLASSES),
    st.builds(lambda a, b: Axiom("sub-class-of", (a, b)), _PLAN_CLASSES, _PLAN_CLASSES))
_PROPERTY_ABOX = st.one_of(
    st.builds(lambda p, s, o: Axiom("property-assertion", (p, s, o)), _PES,
              st.sampled_from(_PLAN_INDIVIDUALS), st.sampled_from(_PLAN_INDIVIDUALS + _PLAN_LITERALS)),
    st.builds(lambda x, c: Axiom("class-assertion", (x, c)),
              st.sampled_from(_PLAN_INDIVIDUALS), _PLAN_CLASSES))


def _plan_example(schema, abox):
    """An example in ``_PROPERTY_SCHEMA`` and ``_PROPERTY_ABOX`` terms: "p0" is a
    property, "-p0" its inverse, "A" a class, "i0" an individual, "1" a literal."""
    def term(name):
        if name.startswith("-"):
            return InverseProperty(term(name[1:]))
        if name[0] == "p":
            return NamedProperty(iri(EX + name))
        if name[0] == "i":
            return iri(EX + name)
        return Literal(name) if name[0].isdigit() else NamedClass(iri(EX + name))
    return ([Axiom(kind, tuple(map(term, args))) for kind, *args in schema],
            [Axiom("class-assertion" if len(args) == 2 else "property-assertion",
                   tuple(map(term, args))) for args in abox])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PROPERTY_SCHEMA, max_size=8), st.lists(_PROPERTY_ABOX, min_size=1, max_size=6))
# Loops through a self-inverse property and through inverse pairs, where an
# entry and its mirror on the swapped pair name one fact; literal objects, one
# asserted through an inverse, below inverses and a range, which plans without
# the literal kind would flip.
@example(*_plan_example([("inverse-properties", "p0", "p0"), ("property-range", "p0", "A")],
                        [("p0", "i0", "i0"), ("p0", "i0", "i1")]))
@example(*_plan_example([("sub-property-of", "p0", "p1"), ("inverse-properties", "p1", "p2"),
                         ("property-range", "p1", "A"), ("property-domain", "p2", "B")],
                        [("p0", "i0", "1")]))
@example(*_plan_example([("inverse-properties", "p0", "p1"), ("inverse-properties", "p1", "p2"),
                         ("property-domain", "p1", "A")],
                        [("-p0", "i0", "1")]))
@example(*_plan_example([("sub-property-of", "p0", "p1"), ("sub-property-of", "p0", "p2"),
                         ("inverse-properties", "p1", "p0"), ("inverse-properties", "p1", "p2")],
                        [("p0", "i0", "i0"), ("i1", "A")]))
def test_property_plans_match_recursive_propagation(schema, abox):
    models = [OntologyModel(axioms=schema), OntologyModel(axioms=abox)]
    kb = materialize(models)
    with mock.patch.object(reasoner, "_Engine", RecursiveEngine):
        reference = materialize(models)
    assert list(kb.traces.items()) == list(reference.traces.items())
    assert kb.prop_index == reference.prop_index
    # Each plan names each property fact once, and a literal object's takes no
    # flipped step.
    for name in (p.iri.value for p in _PROPS):
        for literal in (False, True):
            plan = kb.tbox.prop_plan(name, literal)
            facts = [(target, swapped) for target, swapped, *_ in plan if isinstance(target, str)]
            assert len(set(facts)) == len(facts) and (name, False) not in facts
            assert not literal or not any(swapped for _, swapped, *_ in plan)


def _bfs_supers(tbox, name, inverted=False):
    """The names of the property keys, inverted or not, other than ``name``'s own
    that a search from ``name`` over ``prop_edges`` reaches."""
    seen, queue = {(name, False)}, deque([(name, False)])
    while queue:
        for key in tbox.prop_edges.get(queue.popleft(), ()):
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return tuple(sorted(q for q, flag in seen - {(name, False)} if flag == inverted))


def _plan_steps(tbox, name, onto, literal):
    """One step of propagation from a fact of ``name``, onto the swapped pair or
    not, as (property or class, swapped?): its named super-properties by the
    search above, its inverses and its supers through an inverse, then its
    domains and ranges; a literal object takes no step that swaps the pair."""
    steps = [((q, onto), False) for q in _bfs_supers(tbox, name)]
    steps += [((q, not onto), True) for q in tbox.inverse_pairs.get(name, ())]
    steps += [((q, not onto), True) for q in _bfs_supers(tbox, name, True)]
    steps += [((c, onto), False) for c in tbox.domains.get(name, ())]
    steps += [((c, not onto), True) for c in tbox.ranges.get(name, ())]
    return [step for step, flips in steps if not (flips and literal)]


@settings(max_examples=300, deadline=None)
@given(st.lists(_PROPERTY_SCHEMA, max_size=10))
# A sub-property cycle, a self-inverse property, and a cycle through inverses.
@example(_plan_example([("sub-property-of", "p0", "p1"), ("sub-property-of", "p1", "p2"),
                        ("equivalent-properties", "p2", "p0"), ("property-domain", "p1", "A")], [])[0])
@example(_plan_example([("inverse-properties", "p0", "p0"), ("property-range", "p0", "A"),
                        ("property-domain", "p0", "B")], [])[0])
@example(_plan_example([("inverse-properties", "p0", "p1"), ("sub-property-of", "p1", "p2"),
                        ("inverse-properties", "p2", "p3"), ("sub-property-of", "p3", "p0")], [])[0])
def test_property_supers_and_plans_match_a_search_over_prop_edges(schema):
    tbox = TBoxIndex([OntologyModel(axioms=schema)])
    for name in (p.iri.value for p in _PROPS):
        assert tbox.named_prop_supers(name) == _bfs_supers(tbox, name)
        for literal in (False, True):
            # The facts that a search over the steps reaches, and the class
            # entries of each, against the plan's entries.
            root = (name, False)
            reached, queue, classes = {root}, deque([root]), Counter()
            while queue:
                fact = queue.popleft()
                for target, onto in _plan_steps(tbox, *fact, literal):
                    if not isinstance(target, str):
                        classes[target, onto] += 1
                    elif (target, onto) not in reached:
                        reached.add((target, onto))
                        queue.append((target, onto))
            plan = tbox.prop_plan(name, literal)
            facts = [(target, onto) for target, onto, *_ in plan if isinstance(target, str)]
            assert len(facts) == len(set(facts)) and set(facts) == reached - {root}
            assert Counter((t, onto) for t, onto, *_ in plan if not isinstance(t, str)) == classes
            # Each entry is one step from its premise, an earlier property fact.
            for position, (target, onto, parent, _, _) in enumerate(plan, 1):
                assert parent < position
                premise = root if parent == 0 else plan[parent - 1][:2]
                assert isinstance(premise[0], str)
                assert (target, onto) in _plan_steps(tbox, *premise, literal)


def test_plan_over_a_deep_sub_property_chain_is_the_chain_in_linear_memory():
    """Compiling the plan at the foot of a 1,500-deep chain reads each super from
    the masks; holding every chain member's supers would take quadratic memory."""
    names = [EX + f"p{k:04d}" for k in range(1501)]
    props = [NamedProperty(iri(name)) for name in names]
    tbox = TBoxIndex([OntologyModel(axioms=[Axiom("sub-property-of", pair) for pair in zip(props, props[1:])])])
    tracemalloc.start()
    try:
        plan = tbox.prop_plan(names[0], False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert plan == tuple((names[k + 1], False, k, "subproperty", f"{names[k]} is below {names[k + 1]}")
                         for k in range(1500))


def test_facts_below_a_deep_sub_property_chain_close_in_linear_memory():
    """A fact at the foot of a 1,500-deep sub-property chain entails a fact of
    each chain member: bits of its pair's mask, not one traced record each, and
    ``prop_index`` decodes them on read."""
    names = [EX + f"p{k:04d}" for k in range(1500)]
    props = [NamedProperty(iri(name)) for name in names]
    pairs = [(iri(EX + f"a{k}"), iri(EX + f"b{k}")) for k in range(100)]
    models = [OntologyModel(axioms=[Axiom("sub-property-of", pair) for pair in zip(props, props[1:])]),
              OntologyModel(axioms=[Axiom("property-assertion", (props[0], *pair)) for pair in pairs])]
    tracemalloc.start()
    try:
        kb = materialize(models)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert kb.derived_count == 150_000
    assert all(kb.has_prop(names[-1], a, b) and not kb.has_prop(names[-1], b, a) for a, b in pairs)
    index = kb.prop_index
    assert list(index) == names and index[names[0]] == index[names[777]] == index[names[-1]] == pairs
    assert kb.trace_of(prop_fact(names[-1], *pairs[-1])) == reasoner.Trace(
        "subproperty", (prop_fact(names[-2], *pairs[-1]),), f"{names[-2]} is below {names[-1]}")


def _prop_index_from_traces(kb):
    """``prop_index`` as the full trace replay gives it: every property fact, in
    derivation order."""
    index = {}
    for fact in kb.traces:
        if fact[0] == "prop":
            index.setdefault(fact[1], []).append(fact[2:])
    return index


def _perfbench_stacks(perfbench_requests, seeds=(1, 2, 3), kinds=None):
    """The models of each distinct perfbench request's input files; ``kinds``
    picks requests by kind."""
    loaded, stacks = {}, {}
    for seed in seeds:
        for requests in perfbench_requests[seed].values():
            for request in requests if kinds is None else [r for r in requests if r["kind"] in kinds]:
                paths = tuple(request["files"])
                stacks[paths] = [loaded.setdefault(path, extract_axioms(parse_turtle(
                    open(path, encoding="utf-8").read()), source_label=path)) for path in paths]
    return list(stacks.values())


def test_prop_index_and_traces_of_a_closure_agree(full_stack, perfbench_requests):
    """``prop_index``, decoded from the bursts' masks, and ``trace_of``, which
    replays the bursts of one individual, agree with the full trace replay."""
    kbs = [materialize(full_stack + [load_model(f"instances/{name}")])
           for name in ("fig9.ttl", "fig11.ttl", "example4.ttl", "revision.ttl")]
    kbs += [materialize(stack) for stack in _perfbench_stacks(perfbench_requests, (1,), ("check-consistency",
                                                                                       "check-all"))]
    for kb in kbs:
        assert kb.prop_index == _prop_index_from_traces(kb)
        sample = islice(kb.traces.items(), 0, None, 1 + len(kb.traces) // 300)
        assert all(kb.trace_of(fact) == trace for fact, trace in sample)


def test_trace_of_finds_a_blank_node_built_twice():
    """An equal blank node that is another object still names the same individual."""
    scope = new_scope()
    x, same = BlankNode("x", scope), BlankNode("x", scope)
    p, c = NamedProperty(iri(EX + "p")), NamedClass(iri(EX + "C"))
    kb = materialize([OntologyModel(axioms=[Axiom("property-domain", (p, c))]),
                      OntologyModel(axioms=[Axiom("property-assertion", (p, x, iri(EX + "b")))])])
    assert kb.trace_of(class_fact(same, c)) == reasoner.Trace("domain", (prop_fact(EX + "p", x, iri(EX + "b")),),
                                                             f"domain of {EX}p")


def test_prop_index_below_a_deep_sub_property_chain_decodes_in_little_memory():
    """Reading ``prop_index`` at the foot of a 1,500-deep chain with 100 facts
    decodes its 150,000 pairs from the bursts without a trace each."""
    names = [EX + f"p{k:04d}" for k in range(1500)]
    props = [NamedProperty(iri(name)) for name in names]
    pairs = [(iri(EX + f"a{k}"), iri(EX + f"b{k}")) for k in range(100)]
    kb = materialize([OntologyModel(axioms=[Axiom("sub-property-of", pair) for pair in zip(props, props[1:])]),
                      OntologyModel(axioms=[Axiom("property-assertion", (props[0], *pair)) for pair in pairs])])
    tracemalloc.start()
    try:
        index = kb.prop_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert list(index) == names and all(facts == pairs for facts in index.values())


def _prop_reach_by_search(tbox):
    """Each property key's mask by a search over ``prop_edges``."""
    masks = []
    for key in range(2 * len(tbox._prop_names)):
        start = (tbox._prop_names[key >> 1], bool(key & 1))
        seen, queue = {start}, deque([start])
        while queue:
            for sup in tbox.prop_edges.get(queue.popleft(), ()):
                if sup not in seen:
                    seen.add(sup)
                    queue.append(sup)
        masks.append(sum(1 << tbox._prop_ids[name] + inverted for name, inverted in seen))
    return masks


def test_property_masks_match_a_search_over_prop_edges(full_stack, perfbench_requests):
    """Only the keys with edges are closed, and every mask is still the one a
    search finds: an edge-less key's is its own bit."""
    stacks = [full_stack + [load_model(f"instances/{name}")] for name in ("fig9.ttl", "example4.ttl")]
    for models in stacks + _perfbench_stacks(perfbench_requests):
        tbox = TBoxIndex(models)
        assert tbox._prop_reach == _prop_reach_by_search(tbox)
        assert any(mask == 1 << key for key, mask in enumerate(tbox._prop_reach))


def test_sub_and_equivalent_property_axioms_into_an_inverse_propagate():
    kb = kb_of("""
    ex:p0 rdfs:subPropertyOf [ owl:inverseOf ex:p1 ] .
    ex:q0 owl:equivalentProperty [ owl:inverseOf ex:q1 ] .
    ex:p1 rdfs:domain ex:D .
    """, "ex:a ex:p0 ex:b . ex:a ex:q0 ex:b .")
    a, b = iri(EX + "a"), iri(EX + "b")
    assert kb.prop_index == {EX + "p0": [(a, b)], EX + "p1": [(b, a)],
                             EX + "q0": [(a, b)], EX + "q1": [(b, a)]}
    assert kb.traces[prop_fact(EX + "p1", b, a)] == reasoner.Trace(
        "subproperty", (prop_fact(EX + "p0", a, b),), f"{EX}p0 is below the inverse of {EX}p1")
    assert has_class(kb, EX + "b", EX + "D") and not has_class(kb, EX + "a", EX + "D")


def test_assertion_through_an_inverse_onto_a_literal_derives_nothing():
    a, one = iri(EX + "a"), Literal("1")
    p, q = NamedProperty(iri(EX + "p")), NamedProperty(iri(EX + "q"))
    schema = [Axiom("sub-property-of", (p, q)),
              Axiom("property-domain", (p, NamedClass(iri(EX + "A"))))]
    abox = [Axiom("property-assertion", (InverseProperty(p), a, one))]
    for engine in (reasoner._Engine, RecursiveEngine):
        with mock.patch.object(reasoner, "_Engine", engine):
            kb = materialize([OntologyModel(axioms=schema), OntologyModel(axioms=abox)])
        assert not kb.has_prop(EX + "p", one, a) and not kb.has_prop(EX + "q", one, a)
        assert kb.traces == {} and kb.prop_index == {}


def test_has_prop_answers_from_the_closure():
    kb = kb_of("ex:p rdfs:subPropertyOf ex:q . ex:q owl:inverseOf ex:r .",
               "ex:a ex:p ex:b . ex:b ex:p ex:c .")
    for name, pairs in kb.prop_index.items():
        for s, o in pairs:
            assert kb.has_prop(name, s, o)
    assert kb.has_prop(EX + "r", iri(EX + "c"), iri(EX + "b"))
    assert not kb.has_prop(EX + "r", iri(EX + "b"), iri(EX + "c"))
    assert not kb.has_prop(EX + "p", iri(EX + "a"), iri(EX + "c"))
    assert not kb.has_prop(EX + "missing", iri(EX + "a"), iri(EX + "b"))


# -- instance rules: the one join against the five-pass engine -------------------

SWRL_VARS = "ex:x a swrl:Variable . ex:y a swrl:Variable . ex:z a swrl:Variable .\n"


def swrl_rule(comment, body, head):
    """Turtle for one swrl:Imp; an atom is ("ex:C", "x") or ("ex:p", "x", "y")."""
    def atom(a):
        if len(a) == 2:
            return f"[ a swrl:ClassAtom ; swrl:classPredicate {a[0]} ; swrl:argument1 ex:{a[1]} ]"
        return (f"[ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate {a[0]} ; "
                f"swrl:argument1 ex:{a[1]} ; swrl:argument2 ex:{a[2]} ]")
    return (f'[] a swrl:Imp ; rdfs:comment "{comment}" ;\n'
            f"    swrl:body ( {' '.join(map(atom, body))} ) ;\n"
            f"    swrl:head ( {' '.join(map(atom, head))} ) .\n")


def ex(name):
    return iri(EX + name)


def test_join_traces_for_each_rule_kind():
    kb = kb_of(SWRL_VARS + """
    ex:I owl:equivalentClass [ owl:intersectionOf ( ex:A ex:B ex:C ) ] .
    [ a owl:Restriction ; owl:onProperty [ owl:inverseOf ex:p ] ; owl:someValuesFrom ex:D ]
        rdfs:subClassOf ex:E .
    ex:t owl:propertyChainAxiom ( ex:p [ owl:inverseOf ex:r ] ex:s ) .
    """ + swrl_rule("two steps", [("ex:p", "x", "y"), ("ex:q", "y", "z")], [("ex:g", "x", "z")]),
        """ex:i a ex:A , ex:B , ex:C . ex:a a ex:D ; ex:p ex:b . ex:b ex:q ex:e .
        ex:c ex:r ex:b ; ex:s ex:d .""")
    a, b, c, d, e, i = (ex(n) for n in "abcdei")
    named = {n: NamedClass(ex(n)) for n in "ABCD"}
    inter = Intersection((named["A"], named["B"], named["C"]))
    some = next(ce for ce in kb.tbox.universe if isinstance(ce, SomeValuesFrom))
    assert kb.traces[class_fact(i, inter)] == reasoner.Trace(
        "intersection-composition",
        (class_fact(i, named["A"]), class_fact(i, named["B"]), class_fact(i, named["C"])))
    assert kb.traces[class_fact(b, some)] == reasoner.Trace(
        "existential-membership", (prop_fact(EX + "p", a, b), class_fact(a, named["D"])))
    assert kb.traces[prop_fact(EX + "t", a, d)] == reasoner.Trace(
        "property-chain",
        (prop_fact(EX + "p", a, b), prop_fact(EX + "r", c, b), prop_fact(EX + "s", c, d)),
        f"chain into {EX}t")
    assert kb.traces[prop_fact(EX + "g", a, e)] == reasoner.Trace(
        "swrl-rule-1", (prop_fact(EX + "p", a, b), prop_fact(EX + "q", b, e)), "two steps")


def test_literal_heads_derive_nothing():
    chain = kb_of("ex:t owl:propertyChainAxiom ( ex:p ex:q ) .",
                  'ex:a ex:p ex:b . ex:b ex:q "1" .')
    assert EX + "t" not in chain.prop_index
    rules = kb_of(SWRL_VARS + swrl_rule("copy", [("ex:p", "x", "y")], [("ex:q", "x", "y")])
                  + swrl_rule("type", [("ex:p", "x", "y")], [("ex:C", "x")]), 'ex:a ex:p "1" .')
    assert EX + "q" not in rules.prop_index
    assert rules.traces[class_fact(ex("a"), NamedClass(ex("C")))] == reasoner.Trace(
        "swrl-rule-2", (prop_fact(EX + "p", ex("a"), Literal("1", datatype=vocab.XSD_STRING)),),
        "type")


def test_swrl_atom_with_one_variable_twice_matches_loops_only():
    kb = kb_of(SWRL_VARS + swrl_rule("loop", [("ex:p", "x", "x")], [("ex:C", "x")]),
               "ex:a ex:p ex:b . ex:c ex:p ex:c .")
    assert not has_class(kb, EX + "a", EX + "C") and not has_class(kb, EX + "b", EX + "C")
    assert has_class(kb, EX + "c", EX + "C")


class FivePassEngine(reasoner._Engine):
    """The engine as five full-rescan rule passes, as a reference for the join.

    With ``as_parent`` its SWRL pass takes each atom's facts in term order and
    lets a property head copy a literal object, as the five-pass engine did.
    Without, it takes them in insertion order, which only decides which of
    several derivations a trace records, and a literal head derives nothing,
    as in the join.
    """

    def __init__(self, tbox, skolem_depth, fact_cap, models, as_parent):
        super().__init__(tbox, skolem_depth, fact_cap)
        self.as_parent = as_parent
        self.gated = []
        for model in models:
            for ax in model.axioms:
                if ax.kind == "equivalent-classes":
                    self.gated += [ce for ce in ax.args
                                   if isinstance(ce, Intersection) and ce not in self.gated]
        self.existentials = sorted((ce for ce in tbox.universe if isinstance(ce, SomeValuesFrom)),
                                   key=render_class_expression)
        self.chains = [(tuple(reasoner._prop_key(pe) for pe in ax.args[0]),
                        reasoner._prop_key(ax.args[1]))
                       for model in models for ax in model.axioms if ax.kind == "property-chain"]
        self.swrl = [rule for model in models for rule in model.rules]

    def run(self):
        changed = True
        while changed:
            changed = self._pass_compose_intersections()
            changed |= self._pass_skolemize()
            changed |= self._pass_existential_membership()
            changed |= self._pass_chains()
            changed |= self._pass_swrl()

    def _pass_compose_intersections(self):
        changed = False
        for inter in self.gated:
            for x in list(self.memberships):
                members = self.memberships[x]
                if inter not in members and all(op in members for op in inter.operands):
                    premises = tuple(class_fact(x, op) for op in inter.operands)
                    changed |= self.add_class(x, inter, "intersection-composition", premises)
        return changed

    def _pass_existential_membership(self):
        changed = False
        for ce in self.existentials:
            name, inverted = reasoner._prop_key(ce.prop)
            for s, o in list(self.prop_index.get(name, ())):
                x, y = (o, s) if inverted else (s, o)
                if isinstance(x, Literal) or isinstance(y, Literal):
                    continue
                if ce not in self.memberships.get(x, ()) and ce.filler in self.memberships.get(y, ()):
                    premises = (prop_fact(name, s, o), class_fact(y, ce.filler))
                    changed |= self.add_class(x, ce, "existential-membership", premises)
        return changed

    def _pass_chains(self):
        changed = False
        for links, (sup, sup_inverted) in self.chains:
            # walks: (start, current end, premise facts)
            walks = []
            first_name, first_inverted = links[0]
            for s, o in list(self.prop_index.get(first_name, ())):
                x, y = (o, s) if first_inverted else (s, o)
                walks.append((x, y, (prop_fact(first_name, s, o),)))
            for name, inverted in links[1:]:
                facts = list(self.prop_index.get(name, ()))
                walks = [(x, b, premises + (prop_fact(name, s, o),))
                         for x, y, premises in walks for s, o in facts
                         for a, b in [(o, s) if inverted else (s, o)] if a == y]
            for x, z, premises in walks:
                if not isinstance(x, Literal) and not isinstance(z, Literal):
                    s, o = (z, x) if sup_inverted else (x, z)
                    changed |= self.add_prop(sup, s, o, "property-chain", premises,
                                             detail=f"chain into {sup}")
        return changed

    def _pass_swrl(self):
        changed = False
        for index, rule in enumerate(self.swrl):
            label = next((value.lexical for pred, value in rule.annotations
                          if pred == vocab.RDFS_COMMENT and isinstance(value, Literal)), "")
            bindings = [({}, ())]
            for atom in rule.body:
                extended = []
                if isinstance(atom, ClassAtom):
                    members = [f[1] for f in self.traces if f[0] == "class" and f[2] == atom.cls]
                    if self.as_parent:
                        members.sort(key=term_sort_key)
                    for binding, premises in bindings:
                        for x in ([binding[atom.var]] if atom.var in binding else members):
                            if atom.cls in self.memberships.get(x, ()):
                                extended.append(({**binding, atom.var: x},
                                                 premises + (class_fact(x, atom.cls),)))
                else:
                    name, inverted = reasoner._prop_key(atom.prop)
                    facts = list(self.prop_index.get(name, ()))
                    if self.as_parent:
                        facts.sort(key=lambda so: (term_sort_key(so[0]), term_sort_key(so[1])))
                    for binding, premises in bindings:
                        for s, o in facts:
                            a, b = (o, s) if inverted else (s, o)
                            if binding.get(atom.var1, a) == a and binding.get(atom.var2, b) == b \
                                    and (atom.var1 != atom.var2 or a == b):
                                extended.append(({**binding, atom.var1: a, atom.var2: b},
                                                 premises + (prop_fact(name, s, o),)))
                bindings = extended
            for binding, premises in bindings:
                for atom in rule.head:
                    if isinstance(atom, ClassAtom):
                        changed |= self.add_class(binding[atom.var], atom.cls,
                                                  f"swrl-rule-{index + 1}", premises, label)
                        continue
                    name, inverted = reasoner._prop_key(atom.prop)
                    a, b = binding[atom.var1], binding[atom.var2]
                    s, o = (b, a) if inverted else (a, b)
                    if not isinstance(s, Literal) and (self.as_parent or not isinstance(o, Literal)):
                        changed |= self.add_prop(name, s, o, f"swrl-rule-{index + 1}",
                                                 premises, label)
        return changed


ALL_RULE_KINDS = model_of(SWRL_VARS + """
ex:I owl:equivalentClass [ owl:intersectionOf ( ex:A ex:B ex:C ) ] .
[ a owl:Restriction ; owl:onProperty [ owl:inverseOf ex:p ] ; owl:someValuesFrom ex:D ]
    rdfs:subClassOf ex:E .
[ a owl:Restriction ; owl:onProperty ex:q ; owl:someValuesFrom ex:E ] rdfs:subClassOf ex:B .
ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:s ; owl:someValuesFrom ex:D ] .
ex:t owl:propertyChainAxiom ( ex:p [ owl:inverseOf ex:r ] ex:s ) .
ex:p owl:propertyChainAxiom ( ex:p ex:p ) .
ex:t rdfs:subPropertyOf ex:q .
ex:r owl:inverseOf ex:u .
ex:q rdfs:range ex:C .
ex:u rdfs:domain ex:A .
""" + swrl_rule("two steps", [("ex:p", "x", "y"), ("ex:q", "y", "z")], [("ex:r", "x", "z")])
    + swrl_rule("class first", [("ex:E", "x"), ("ex:s", "x", "y")], [("ex:C", "y")]))

_INDIVIDUALS = [f"ex:i{k}" for k in range(5)]
_ASSERTIONS = st.one_of(
    st.tuples(st.sampled_from(_INDIVIDUALS), st.just("a"),
              st.sampled_from(["ex:A", "ex:B", "ex:C", "ex:D", "ex:E"])),
    st.tuples(st.sampled_from(_INDIVIDUALS), st.sampled_from(["ex:p", "ex:q", "ex:r", "ex:s", "ex:u"]),
              st.sampled_from(_INDIVIDUALS + ['"1"'])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ASSERTIONS, max_size=12))
# Each example below fails an engine that breaks one ordering the five passes
# kept: the join seeing its own property conclusions in the same turn, chains
# before existentials, the join before skolemization, and a first property
# atom taken subject by subject rather than in insertion order.
@example([("ex:i1", "ex:p", "ex:i2"), ("ex:i2", "ex:p", "ex:i1"), ("ex:i2", "ex:r", "ex:i1"),
          ("ex:i0", "ex:p", "ex:i1"), ("ex:i2", "ex:p", "ex:i0")])
@example([("ex:i0", "a", "ex:A"), ("ex:i1", "a", "ex:D"), ("ex:i0", "ex:p", "ex:i3"),
          ("ex:i1", "ex:p", "ex:i2"), ("ex:i2", "ex:p", "ex:i0"), ("ex:i3", "ex:q", "ex:i0")])
@example([("ex:i0", "ex:p", "ex:i1"), ("ex:i0", "ex:r", "ex:i0"), ("ex:i1", "ex:p", "ex:i0")])
@example([("ex:i0", "ex:p", "ex:i1"), ("ex:i0", "ex:q", "ex:i0"), ("ex:i1", "ex:p", "ex:i0")])
def test_join_matches_five_pass_engine(assertions):
    abox = parse_turtle(HEADER + "".join(f"{s} {p} {o} .\n" for s, p, o in assertions))
    models = [ALL_RULE_KINDS, extract_axioms(abox)]
    references = []
    for as_parent in (True, False):
        with mock.patch.object(reasoner, "_Engine", lambda tbox, depth, cap: FivePassEngine(
                tbox, depth, cap, models, as_parent)):
            references.append(materialize(models))

    def closure(kb):
        return kb.traces, kb.derived_count, kb.skolem_budget_exceeded

    assert closure(materialize(models)) in [closure(reference) for reference in references]


# -- the semi-naive join against the naive join ------------------------------------

class NaiveJoinEngine(reasoner._Engine):
    """Every rule in every pass over every fact, firing as it matches, as a reference
    for the semi-naive join: class facts read as they stand, property facts as
    each rule's turn began."""

    def run(self):
        changed = True
        while changed:
            count = len(self.traces)
            self._pass_skolemize()
            for label, detail, body, head in self.tbox.rules:
                limits = [len(self.prop_index.get(reasoner._prop_key(atom.prop)[0], ()))
                          if isinstance(atom, PropertyAtom) else 0 for atom in body]
                stack = [self._extend(body[0], {}, (), limits[0])]
                while stack:
                    step = next(stack[-1], None)
                    if step is None:
                        stack.pop()
                    elif len(step[1]) < len(body):
                        stack.append(self._extend(body[len(step[1])], *step, limits[len(step[1])]))
                    else:
                        self._fire(head, *step, label, detail)
            changed = len(self.traces) > count

    def _fire(self, head, binding, premises, label, detail):
        for atom in head:
            if isinstance(atom, ClassAtom):
                self.add_class(binding[atom.var], atom.cls, label, premises, detail)
                continue
            name, inverted = reasoner._prop_key(atom.prop)
            a, b = binding[atom.var1], binding[atom.var2]
            if not isinstance(a, Literal) and not isinstance(b, Literal):
                self.add_prop(name, *((b, a) if inverted else (a, b)), label, premises, detail)


# Rules whose heads feed their own bodies, so the order within a turn matters.
SELF_FEEDING = model_of(SWRL_VARS + """
[ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:D ] rdfs:subClassOf ex:D .
[ a owl:Restriction ; owl:onProperty [ owl:inverseOf ex:q ] ; owl:someValuesFrom ex:E ]
    rdfs:subClassOf ex:A .
ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:s ; owl:someValuesFrom ex:B ] .
ex:I owl:equivalentClass [ owl:intersectionOf ( ex:A ex:B ) ] .
ex:I rdfs:subClassOf ex:E .
ex:r owl:propertyChainAxiom ( ex:p ex:q ) .
ex:p owl:propertyChainAxiom ( ex:p ex:p ) .
ex:r rdfs:subPropertyOf ex:s .
ex:s owl:inverseOf ex:u .
ex:u rdfs:domain ex:B .
ex:q rdfs:range ex:E .
""" + swrl_rule("spread", [("ex:D", "x"), ("ex:q", "x", "y")], [("ex:D", "y")])
    + swrl_rule("three", [("ex:E", "x"), ("ex:s", "x", "y"), ("ex:A", "y")], [("ex:I", "y")])
    + swrl_rule("back", [("ex:B", "x"), ("ex:p", "y", "x")], [("ex:q", "x", "y"), ("ex:A", "y")]))

_SELF_FEEDING_ASSERTIONS = st.one_of(
    st.tuples(st.sampled_from(_INDIVIDUALS), st.just("a"),
              st.sampled_from(["ex:A", "ex:B", "ex:D", "ex:E", "ex:I"])),
    st.tuples(st.sampled_from(_INDIVIDUALS), st.sampled_from(["ex:p", "ex:q", "ex:r", "ex:s", "ex:u"]),
              st.sampled_from(_INDIVIDUALS)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SELF_FEEDING_ASSERTIONS, max_size=16))
# The examples fail a join that reads class facts only as they stood when the
# rule's turn began, and one that fires a turn's matches term by term rather
# than in the naive order.
@example([("ex:i1", "a", "ex:D"), ("ex:i0", "ex:p", "ex:i1"), ("ex:i1", "ex:p", "ex:i0")])
@example([("ex:i0", "a", "ex:B"), ("ex:i0", "ex:p", "ex:i0"), ("ex:i1", "ex:p", "ex:i0")])
def test_semi_naive_join_keeps_the_naive_order(assertions):
    abox = parse_turtle(HEADER + "".join(f"{s} {p} {o} .\n" for s, p, o in assertions))
    models = [SELF_FEEDING, extract_axioms(abox)]
    kb = materialize(models, skolem_depth=2)
    with mock.patch.object(reasoner, "_Engine", NaiveJoinEngine):
        reference = materialize(models, skolem_depth=2)
    assert list(kb.traces.items()) == list(reference.traces.items())
    assert (kb.derived_count, kb.skolem_budget_exceeded) == (
        reference.derived_count, reference.skolem_budget_exceeded)


# -- class memberships as masks against recursive propagation ----------------------

_MASK_CLASSES = [NamedClass(iri(EX + n)) for n in "ABCDE"]
_MASK_PROPS = [NamedProperty(iri(EX + n)) for n in "pq"]
_MASK_NAMED = st.sampled_from(_MASK_CLASSES)
_MASK_EXPRESSIONS = st.one_of(
    _MASK_NAMED,
    st.builds(lambda a, b: Intersection((a, b)), _MASK_NAMED, _MASK_NAMED),
    st.builds(lambda a, b: UnionOf((a, b)), _MASK_NAMED, _MASK_NAMED),
    st.builds(SomeValuesFrom, st.sampled_from(_MASK_PROPS + [InverseProperty(p) for p in _MASK_PROPS]),
              _MASK_NAMED))
_MASK_SCHEMA = st.one_of(
    st.builds(lambda a, b: Axiom("sub-class-of", (a, b)), _MASK_EXPRESSIONS, _MASK_EXPRESSIONS),
    st.builds(lambda a, b: Axiom("equivalent-classes", (a, b)), _MASK_NAMED, _MASK_EXPRESSIONS),
    st.builds(lambda p, c: Axiom("property-domain", (p, c)), st.sampled_from(_MASK_PROPS), _MASK_EXPRESSIONS))
# SWRL rules with class atoms: a class into a class, or a class and a property
# into a class of the property's object.
_MASK_RULES = st.builds(
    lambda joined, a, b, p: SwrlRule((ClassAtom(a, "x"), PropertyAtom(p, "x", "y")), (ClassAtom(b, "y"),))
    if joined else SwrlRule((ClassAtom(a, "x"),), (ClassAtom(b, "x"),)),
    st.booleans(), _MASK_EXPRESSIONS, _MASK_EXPRESSIONS, st.sampled_from(_MASK_PROPS))
_MASK_ABOX = st.one_of(
    st.builds(lambda x, c: Axiom("class-assertion", (x, c)), st.sampled_from(_PLAN_INDIVIDUALS), _MASK_EXPRESSIONS),
    st.builds(lambda p, s, o: Axiom("property-assertion", (p, s, o)), st.sampled_from(_MASK_PROPS),
              st.sampled_from(_PLAN_INDIVIDUALS), st.sampled_from(_PLAN_INDIVIDUALS)))


def _closure_outcome(models, fact_cap):
    """Every fact with its trace, the memberships and the explain tree of every
    fact; or the fact-cap message."""
    try:
        kb = materialize(models, skolem_depth=2, fact_cap=fact_cap)
    except FactCapExceededError as exc:
        return str(exc)
    return (list(kb.traces.items()), kb.memberships, kb.derived_count, kb.skolem_budget_exceeded,
            [explain(kb, fact) for fact in kb.fact_keys()])


@settings(max_examples=300, deadline=None)
@given(st.lists(_MASK_SCHEMA, max_size=10), st.lists(_MASK_RULES, max_size=2),
       st.lists(_MASK_ABOX, min_size=1, max_size=5), st.sampled_from([1_000_000, 40, 12, 3]))
def test_mask_memberships_match_recursive_propagation(schema, rules, abox, fact_cap):
    models = [OntologyModel(axioms=schema, rules=rules), OntologyModel(axioms=abox)]
    with mock.patch.object(reasoner, "_Engine", RecursiveEngine):
        reference = _closure_outcome(models, fact_cap)
    assert _closure_outcome(models, fact_cap) == reference


def test_only_facts_that_rules_read_or_witness_are_recorded_one_by_one(prov, bfo, cco, ro, align_model):
    """A membership that no rule reads and that needs no witness is a bit in its
    individual's mask, and a property fact that no rule reads a bit in its
    pair's mask; every other fact goes through ``_record`` on its own."""
    record, calls = reasoner._Engine._record, []

    def counted(engine, fact):
        calls.append(fact)
        return record(engine, fact)

    with mock.patch.object(reasoner._Engine, "_record", counted):
        kb = materialize([prov, bfo, cco, ro, align_model, load_model("instances/fig9.ttl")])
    props = [fact for fact in kb.traces if fact[0] == "prop" and fact[1] in kb.tbox.readers]
    watched = [fact for fact in kb.traces if fact[0] == "class"
               and (fact[2] in kb.tbox.readers or isinstance(fact[2], SomeValuesFrom))]
    assert len(calls) == len(props) + len(watched) < len(kb.traces) == kb.derived_count


def _non_skolem(kb):
    """The closure's facts whose individuals are all named or asserted."""
    return {fact for fact in kb.fact_keys()
            if not any(str(getattr(t, "value", "")).startswith("urn:skolem:")
                       for t in (fact[1:2] if fact[0] == "class" else fact[2:]))}


@settings(max_examples=200, deadline=None)
@given(st.lists(_ASSERTIONS, max_size=10), st.lists(_ASSERTIONS, min_size=1, max_size=6))
# A real successor in the filler replaces ex:i0's witness for (ex:s some ex:D),
# so the facts about that witness are gone from the larger closure.
@example([("ex:i0", "a", "ex:A")], [("ex:i0", "ex:s", "ex:i1"), ("ex:i1", "a", "ex:D")])
def test_monotonicity_on_generated_aboxes(assertions, more):
    """More assertions keep every fact about a non-skolem individual, and a clash."""
    def closure(triples):
        abox = parse_turtle(HEADER + "".join(f"{s} {p} {o} .\n" for s, p, o in triples))
        return materialize([ALL_RULE_KINDS, extract_axioms(abox)])
    small, big = closure(assertions), closure(assertions + more)
    assert _non_skolem(small) <= _non_skolem(big)
    assert bool(check_clash(small)) <= bool(check_clash(big))


# -- property facts as pair masks against recursive propagation --------------------

_PAIR_CLASSES = [NamedClass(iri(EX + n)) for n in "ABC"]
# A rule reads a property, maybe through its inverse, and writes a class or a
# property, so one burst can hold facts that rules read and facts that none do.
_PAIR_RULES = st.builds(
    lambda body, cls, head: SwrlRule((PropertyAtom(body, "x", "y"), *([ClassAtom(cls, "y")] if cls else [])),
                                     (head,)),
    _PES, st.none() | _PLAN_CLASSES,
    st.one_of(st.builds(lambda c: ClassAtom(c, "x"), _PLAN_CLASSES),
              st.builds(lambda p: PropertyAtom(p, "y", "x"), _PES)))
_PAIR_SCHEMA = st.one_of(
    _PROPERTY_SCHEMA,
    st.builds(lambda links, sup: Axiom("property-chain", (tuple(links), sup)),
              st.lists(_PES, min_size=2, max_size=2), _PES))
# ex:q has no axioms, so it has no edges.
_PAIR_ABOX = st.one_of(
    _PROPERTY_ABOX,
    st.builds(lambda s, o: Axiom("property-assertion", (NamedProperty(iri(EX + "q")), s, o)),
              st.sampled_from(_PLAN_INDIVIDUALS), st.sampled_from(_PLAN_INDIVIDUALS + _PLAN_LITERALS)))


def _pair_outcome(models, fact_cap, tbox=None):
    """``_closure_outcome`` with the property index and each has_prop answer."""
    try:
        kb = materialize(models, skolem_depth=2, fact_cap=fact_cap, tbox=tbox)
    except FactCapExceededError as exc:
        return str(exc)
    terms = _PLAN_INDIVIDUALS + _PLAN_LITERALS
    answers = [kb.has_prop(p.iri.value, s, o) for p in [*_PROPS, NamedProperty(iri(EX + "q"))]
               for s in terms for o in terms]
    return (list(kb.traces.items()), kb.prop_index, answers, kb.memberships, kb.derived_count,
            [explain(kb, fact) for fact in kb.fact_keys()])


@settings(max_examples=300, deadline=None)
@given(st.lists(_PAIR_SCHEMA, max_size=8), st.lists(_PAIR_RULES, max_size=2),
       st.lists(_PAIR_ABOX, min_size=1, max_size=6), st.sampled_from([1_000_000, 40, 12, 3]))
# A rule that reads class A, which both sides of ex:p0's pair gain: the
# object first, through the range of ex:p1 above ex:p0, then the subject.
@example([Axiom("sub-property-of", (_PROPS[0], _PROPS[1])),
          Axiom("property-range", (_PROPS[1], _PAIR_CLASSES[0])),
          Axiom("property-domain", (_PROPS[0], _PAIR_CLASSES[0]))],
         [SwrlRule((PropertyAtom(_PROPS[2], "x", "y"),), (ClassAtom(_PAIR_CLASSES[1], "x"),)),
          SwrlRule((ClassAtom(_PAIR_CLASSES[0], "x"), PropertyAtom(_PROPS[3], "x", "y")),
                   (PropertyAtom(_PROPS[2], "x", "y"),))],
         [Axiom("property-assertion", (_PROPS[0], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[1])),
          Axiom("property-assertion", (_PROPS[3], _PLAN_INDIVIDUALS[1], _PLAN_INDIVIDUALS[2])),
          Axiom("property-assertion", (_PROPS[3], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[2]))],
         1_000_000)
# The walk from ex:p0 meets ex:p3(o, s) through ex:p1's inverse before
# ex:p3(s, o), and a rule reads ex:p3.
@example([Axiom("sub-property-of", (_PROPS[0], _PROPS[1])), Axiom("inverse-properties", (_PROPS[1], _PROPS[2])),
          Axiom("sub-property-of", (_PROPS[2], _PROPS[3])), Axiom("sub-property-of", (_PROPS[0], _PROPS[3]))],
         [SwrlRule((PropertyAtom(_PROPS[3], "x", "y"),), (ClassAtom(_PAIR_CLASSES[0], "x"),))],
         [Axiom("property-assertion", (_PROPS[0], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[1]))],
         1_000_000)
# On a loop ex:p1(a, a) is met twice, below ex:p0 and through ex:p2's inverse.
@example([Axiom("sub-property-of", (_PROPS[0], _PROPS[1])), Axiom("sub-property-of", (_PROPS[0], _PROPS[2])),
          Axiom("inverse-properties", (_PROPS[2], _PROPS[1]))],
         [SwrlRule((PropertyAtom(_PROPS[1], "x", "y"),), (ClassAtom(_PAIR_CLASSES[0], "y"),))],
         [Axiom("property-assertion", (_PROPS[0], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[0]))],
         1_000_000)
# A self-inverse loop below a property that a rule reads through its inverse.
@example([Axiom("inverse-properties", (_PROPS[0], _PROPS[0])), Axiom("sub-property-of", (_PROPS[0], _PROPS[1])),
          Axiom("property-domain", (InverseProperty(_PROPS[1]), _PAIR_CLASSES[0]))],
         [SwrlRule((PropertyAtom(InverseProperty(_PROPS[1]), "x", "y"),), (PropertyAtom(_PROPS[2], "y", "x"),))],
         [Axiom("property-assertion", (_PROPS[0], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[0])),
          Axiom("property-assertion", (_PROPS[0], _PLAN_INDIVIDUALS[0], _PLAN_INDIVIDUALS[1]))],
         1_000_000)
def test_pair_masks_match_recursive_propagation(schema, rules, abox, fact_cap):
    models = [OntologyModel(axioms=schema, rules=rules), OntologyModel(axioms=abox)]
    with mock.patch.object(reasoner, "_Engine", RecursiveEngine):
        reference = _pair_outcome(models, fact_cap)
    assert _pair_outcome(models, fact_cap) == reference


@settings(max_examples=100, deadline=None)
@given(st.lists(_PAIR_SCHEMA, max_size=8), st.lists(_PAIR_RULES, max_size=2),
       st.lists(_PAIR_ABOX, min_size=1, max_size=6), st.sampled_from([1_000_000, 12]))
def test_an_index_of_other_models_is_not_reused(schema, rules, abox, fact_cap):
    """An index built from the schema alone lacks the assertions' individuals,
    classes and properties, so ``materialize`` builds its own; one built from
    exactly the closure's models is reused."""
    models = [OntologyModel(axioms=schema, rules=rules), OntologyModel(axioms=abox)]
    expected = _pair_outcome(models, fact_cap)
    assert _pair_outcome(models, fact_cap, TBoxIndex(models[:1])) == expected
    assert _pair_outcome(models, fact_cap, TBoxIndex(models)) == expected
    tbox = TBoxIndex(models)
    assert materialize(models, tbox=tbox).tbox is tbox
    assert materialize(list(reversed(models)), tbox=tbox).tbox is not tbox
