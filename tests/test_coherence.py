"""Bottom-up coherence probing with upward pruning against probing every class,
class_satisfiable against the engine's closure, and every probe's traces."""

import functools
import hashlib
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import checks, index, reasoner
from provalign.checks import _fact_text, check_coherence
from provalign.cli import build_parser
from provalign.fixtures import load_model
from provalign.owl import (
    NOTHING,
    Axiom,
    ClassAtom,
    Complement,
    Intersection,
    InverseProperty,
    NamedClass,
    NamedProperty,
    OntologyModel,
    PropertyAtom,
    SomeValuesFrom,
    SwrlRule,
    extract_axioms,
    merged_signature,
)
from provalign.rdf import Iri, iri
from provalign.reasoner import FactCapExceededError, TBoxIndex, _close, check_clash, class_satisfiable
from provalign.turtle import parse_turtle

HEADER = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://example.org/tree#> .
"""
EX = "http://example.org/tree#"


def engine_probe(models, ce, fact_cap=1_000_000):
    """The engine's closure of a probe into ``ce`` on an index of the models and
    a seed model that asserts it: satisfiable, or the fact-cap message."""
    seed = OntologyModel(axioms=[Axiom("class-assertion", (Iri("urn:probe:individual"), ce))])
    try:
        return not check_clash(_close(TBoxIndex([*models, seed]), 3, fact_cap))
    except FactCapExceededError as exc:
        return str(exc)


def probe_every_class(models, fact_cap=1_000_000):
    """(unsatisfiable, undetermined, probed) with one engine probe per named class."""
    classes = sorted(merged_signature(models)["classes"])
    unsat, undetermined = [], []
    for c in classes:
        verdict = engine_probe(models, NamedClass(iri(c)), fact_cap)
        if isinstance(verdict, str):
            undetermined.append((c, verdict))
        elif not verdict:
            unsat.append(c)
    return unsat, undetermined, len(classes)


def tree_model():
    """Two disjoint roots, each over a 3-ary tree of depth 3, where every leaf
    has an existential. The filler F3 is below both roots, so the leaves that
    need an F3 witness clash; Cross is below a leaf of each root, and
    BelowCross is below Cross."""
    lines = ["ex:R0 owl:disjointWith ex:R1 ."]
    leaves = {}
    for root in ("R0", "R1"):
        level = [root]
        for depth in range(3):
            level = [f"{parent}_{k}" for parent in level for k in range(3)]
            for child in level:
                lines.append(f"ex:{child} rdfs:subClassOf ex:{child.rsplit('_', 1)[0]} .")
        leaves[root] = level
        for n, leaf in enumerate(level):
            lines.append(f"ex:{leaf} rdfs:subClassOf [ a owl:Restriction ; "
                         f"owl:onProperty ex:p ; owl:someValuesFrom ex:F{n % 4} ] .")
    lines.append("ex:F3 rdfs:subClassOf ex:R0 , ex:R1 .")
    lines.append(f"ex:Cross rdfs:subClassOf ex:{leaves['R0'][4]} , ex:{leaves['R1'][7]} .")
    lines.append("ex:BelowCross rdfs:subClassOf ex:Cross .")
    return extract_axioms(parse_turtle(HEADER + "\n".join(lines)))


def assert_same_as_probing_every_class(models, fact_cap=1_000_000):
    report = check_coherence(models, fact_cap=fact_cap)
    unsat, undetermined, probed = probe_every_class(models, fact_cap)
    assert report.unsatisfiable == unsat
    assert report.undetermined == undetermined
    assert report.probed == probed
    return report


@pytest.mark.parametrize("names", [
    ["prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl"],
    ["bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-plan-incoherent.ttl"],
    ["prov-tiny.ttl", "bfo-mini.ttl", "align-counterexample.ttl"],
])
@pytest.mark.parametrize("fact_cap", [1_000_000, 25, 6])
def test_pruned_coherence_matches_probing_every_class_on_fixtures(names, fact_cap):
    assert_same_as_probing_every_class([load_model(name) for name in names], fact_cap)


@pytest.mark.parametrize("source", ["prov-mini.ttl", "prov-tiny.ttl"])
@pytest.mark.parametrize("alignment", ["align-paper.ttl", "align-counterexample.ttl", "align-plan-incoherent.ttl"])
def test_coherence_builds_one_index_for_every_probe(monkeypatch, source, alignment):
    """Every probed class has an id in the index of the stack, so no probe
    builds an index of its own. Under align-plan-incoherent.ttl, prov-tiny.ttl
    declares classes that no axiom uses."""
    models = [load_model(name) for name in (source, "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", alignment)]
    used = TBoxIndex([OntologyModel(axioms=m.axioms, rules=m.rules) for m in models]).universe
    declared_only = merged_signature(models)["classes"] - {ce.iri.value for ce in used if isinstance(ce, NamedClass)}
    assert bool(declared_only) == ((source, alignment) == ("prov-tiny.ttl", "align-plan-incoherent.ttl"))
    built, init = [], TBoxIndex.__init__
    monkeypatch.setattr(TBoxIndex, "__init__", lambda tbox, models: built.append(models) or init(tbox, models))
    assert check_coherence(models).probed and len(built) == 1


def test_every_class_of_a_stack_has_an_id_in_its_index(perfbench_requests):
    """check_coherence reads each class's id from the stack's index without a
    fallback: every class of the merged signature has one, on the fixture
    stacks and on the stack of each perfbench seed 1-3 request."""
    load = functools.cache(lambda path: extract_axioms(parse_turtle(Path(path).read_text(encoding="utf-8"))))
    stacks = [[load_model(name) for name in (source, "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", alignment)]
              for source in ("prov-mini.ttl", "prov-tiny.ttl")
              for alignment in ("align-paper.ttl", "align-counterexample.ttl", "align-plan-incoherent.ttl")]
    for workloads in perfbench_requests.values():
        for requests in workloads.values():
            for request in requests:
                args = build_parser().parse_args(request["argv"])
                stacks.append([load(path) for paths in (args.source, args.target, args.alignment) for path in paths])
    classes = 0
    for models in stacks:
        ids, names = TBoxIndex(models)._ids, merged_signature(models)["classes"]
        assert all(NamedClass(iri(c)) in ids for c in names)
        classes += len(names)
    assert len(stacks) == 81 and classes == 17_344


def test_pruned_coherence_on_tree_finds_planted_clashes_with_fewer_probes(monkeypatch):
    models = [tree_model()]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return class_satisfiable(*args, **kwargs)

    monkeypatch.setattr(checks, "class_satisfiable", counted)
    report = assert_same_as_probing_every_class(models)
    assert {EX + "Cross", EX + "BelowCross", EX + "F3"} <= set(report.unsatisfiable)
    assert EX + "R0" not in report.unsatisfiable
    assert report.undetermined == []
    assert len(calls) < report.probed
    assert len(set(calls)) == len(calls)


def test_pruned_coherence_on_tree_keeps_undetermined_subclasses():
    # Under this cap the planted classes' own probes abort while the leaf
    # above them is decided; pruning runs upward only, so they stay undetermined.
    report = assert_same_as_probing_every_class([tree_model()], fact_cap=12)
    assert [c for c, _ in report.undetermined] == [EX + "BelowCross", EX + "Cross"]
    assert EX + "R0_0_1_1" not in report.unsatisfiable
    assert report.unsatisfiable


# -- class_satisfiable against the engine's closure ---------------------------------

_NAMED = [NamedClass(iri(EX + n)) for n in "ABCDE"]
_PROPS = [NamedProperty(iri(EX + n)) for n in "pq"]
_CLASS = st.sampled_from(_NAMED)
_EXPRESSION = st.one_of(
    st.sampled_from(_NAMED + [NOTHING]),
    st.builds(SomeValuesFrom, st.sampled_from(_PROPS + [InverseProperty(p) for p in _PROPS]),
              st.sampled_from(_NAMED + [NOTHING])),
    st.builds(Complement, _CLASS),
    st.builds(lambda a, b: Intersection((a, b)), _CLASS, _CLASS))
_AXIOM = st.one_of(
    st.builds(lambda a, b: Axiom("sub-class-of", (a, b)), _EXPRESSION, _EXPRESSION),
    st.builds(lambda a, b: Axiom("equivalent-classes", (a, b)), _CLASS, _EXPRESSION),
    st.builds(lambda a, b: Axiom("disjoint-classes", (a, b)), _CLASS, _CLASS),
    st.builds(lambda a, b, c: Axiom("disjoint-union", (a, (b, c))), _CLASS, _EXPRESSION, _EXPRESSION))
_ASSERTION = st.one_of(
    st.builds(lambda c: Axiom("class-assertion", (iri(EX + "i"), c)), _EXPRESSION),
    st.builds(lambda p: Axiom("property-assertion", (p, iri(EX + "i"), iri(EX + "j"))), st.sampled_from(_PROPS)))
# SWRL rules: a class atom alone into a class; a class atom joined with a
# property atom, or a property atom alone, into a class and a property.
_RULE = st.builds(
    lambda shape, a, b, p, q: SwrlRule(
        [(ClassAtom(a, "x"),), (ClassAtom(a, "x"), PropertyAtom(p, "x", "y")), (PropertyAtom(p, "x", "y"),)][shape],
        (ClassAtom(b, "x"),) if shape == 0 else (ClassAtom(b, "y"), PropertyAtom(q, "y", "x"))),
    st.integers(0, 2), _EXPRESSION, _EXPRESSION, st.sampled_from(_PROPS), st.sampled_from(_PROPS))


@settings(max_examples=300, deadline=None)
@given(st.lists(_AXIOM, max_size=10), st.lists(_RULE, max_size=2), st.lists(_ASSERTION, max_size=2),
       st.sampled_from([1_000_000, 25, 6]))
def test_mask_decided_probes_match_the_engine(axioms, rules, assertions, fact_cap):
    models = [OntologyModel(axioms=axioms, rules=rules), OntologyModel(axioms=assertions)]
    tbox = TBoxIndex(models)
    probes = sorted(tbox.universe, key=lambda ce: ce.text) + [Intersection((_NAMED[0], _NAMED[4]))]
    for ce in probes:
        try:
            verdict = class_satisfiable(models, ce, fact_cap=fact_cap, tbox=tbox)
        except FactCapExceededError as exc:
            verdict = str(exc)
        assert verdict == engine_probe(models, ce, fact_cap), ce.text


def traces_digest(kbs):
    """SHA-256 over every fact of the closures in order, with its rule, premises and detail."""
    lines = [f"{_fact_text(fact)} | {trace.rule} | {'; '.join(map(_fact_text, trace.premises))} | {trace.detail}"
             for kb in kbs for fact, trace in kb.traces.items()]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# The digests were taken with every rule woken by any fact of its body.
@pytest.mark.parametrize("stack, digest", [
    ("tree", "1c9a38f7ae1fdbccb4c94b86bd673c219d49a807f0adeaabee25f65c55450ec5"),
    ("prov", "10e1a855487a7a06aab8196807e2bdf1f0b492455f5449fb393184d454d001a2"),
])
def test_rules_take_turns_only_when_each_body_atom_has_facts(monkeypatch, stack, digest):
    turn, turns = reasoner._Engine._turn, []

    def checked_turn(engine, index):
        body = engine.tbox.rules[index][2]
        assert all(engine.members_of.get(atom.cls) if isinstance(atom, ClassAtom)
                   else engine.prop_index.get(reasoner._prop_key(atom.prop)[0]) for atom in body)
        turns.append(index)
        return turn(engine, index)

    monkeypatch.setattr(reasoner._Engine, "_turn", checked_turn)
    kbs = []
    if stack == "tree":
        models = [tree_model()]
        tbox = TBoxIndex(models)
        for c in sorted(merged_signature(models)["classes"]):
            kbs.append(_close(tbox, 3, 1_000_000, NamedClass(iri(c))))
    else:
        names = ["prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl", "instances/example4.ttl"]
        kbs.append(reasoner.materialize([load_model(name) for name in names]))
    assert turns
    assert traces_digest(kbs) == digest


def _ladder_models(workdir):
    """The coherence-ladder generator's first ladder at its default size."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    files = workloads._ladder(str(workdir), "ladder", random.Random("coherence-ladder:1:0"))["files"]
    return [extract_axioms(parse_turtle(Path(name).read_text(encoding="utf-8"))) for name in files]


@pytest.mark.parametrize("stack", ["tree", "ladder"])
def test_every_probe_traces_each_fact_that_it_counts(monkeypatch, tmp_path, stack):
    """The per-rule trace counts of each probe's closure sum to its fact count,
    so traced per-rule metrics add up to the derived facts."""
    scan, kbs = reasoner.check_clash, []

    def kept(kb):
        kbs.append(kb)
        return scan(kb)

    monkeypatch.setattr(reasoner, "check_clash", kept)
    check_coherence([tree_model()] if stack == "tree" else _ladder_models(tmp_path))
    assert kbs
    for kb in kbs:
        assert sum(Counter(trace.rule for trace in kb.traces.values()).values()) == kb.derived_count


def _chain_with_leaves(leaves):
    """ex:C0000 below ex:C0001 ... below ex:C2999, with ``leaves`` classes below ex:C0000."""
    names = [f"ex:C{k:04d}" for k in range(3000)]
    text = HEADER + "".join(f"{a} rdfs:subClassOf {b} .\n" for a, b in zip(names, names[1:]))
    return [extract_axioms(parse_turtle(text + "".join(f"ex:L{k} rdfs:subClassOf ex:C0000 .\n"
                                                       for k in range(leaves))))]


@pytest.mark.parametrize("leaves", [0, 300, 3000])
def test_coherence_decodes_no_ids_on_a_deep_chain_with_leaves(monkeypatch, leaves):
    # Each leaf's clash-free probe decides the whole chain above it, as bits of
    # one mask; a check that decodes each probe's hierarchy decodes about
    # leaves * 3,000 ids.
    models, bit_ids, decoded = _chain_with_leaves(leaves), index._bit_ids, [0]

    def counting(mask):
        ids = bit_ids(mask)
        decoded[0] += len(ids)
        return ids

    for module in (index, reasoner, checks):
        monkeypatch.setattr(module, "_bit_ids", counting, raising=False)
    report = check_coherence(models)
    assert decoded == [0]
    assert (report.unsatisfiable, report.undetermined, report.probed) == ([], [], 3000 + leaves)
