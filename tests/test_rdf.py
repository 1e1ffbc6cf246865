import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import vocab
from provalign.fixtures import fixture_text
from provalign.rdf import (
    BlankNode,
    Graph,
    Iri,
    IsomorphismLimitError,
    Literal,
    MissingBaseError,
    RdfError,
    Triple,
    UnknownPrefixError,
    graph_isomorphic,
    iri,
    iri_resolve,
    new_scope,
    term_sort_key,
    triple_sort_key,
)
from provalign.turtle import parse_turtle


def test_resolve_prefixed_name():
    term = iri_resolve({"ex": "http://e/"}, "ex:a")
    assert term == Iri("http://e/a")


def test_resolve_unknown_prefix():
    with pytest.raises(UnknownPrefixError):
        iri_resolve({}, "ex:a")


def test_resolve_obo_curie():
    prefixes = {"obo": "http://purl.obolibrary.org/obo/"}
    term = iri_resolve(prefixes, "obo:BFO_0000015")
    assert term.value.endswith("BFO_0000015")


def test_resolve_relative_against_base():
    term = iri_resolve({}, "<chart>", base="http://example.org/data/")
    assert term == Iri("http://example.org/data/chart")


def test_resolve_relative_without_base():
    with pytest.raises(MissingBaseError):
        iri_resolve({}, "<chart>")
    with pytest.raises(MissingBaseError):
        iri_resolve({}, "chart")


def test_resolve_is_deterministic():
    prefixes = {"ex": "http://e/"}
    assert iri_resolve(prefixes, "ex:x") is iri_resolve(prefixes, "ex:x")


def test_iri_must_be_absolute():
    with pytest.raises(RdfError):
        Iri("no-scheme-here")
    with pytest.raises(RdfError):
        iri("relative/path")


def test_iris_are_interned():
    value = "http://example.org/interned#a"
    assert Iri(value) is iri(value)
    assert iri(value) is Iri(value)
    assert Iri(value) == iri(value) and hash(Iri(value)) == hash(iri(value))
    assert Iri("http://e/a") != Iri("http://e/b")


def test_iri_value_cannot_be_assigned():
    term = iri("http://e/frozen")
    with pytest.raises(AttributeError):
        term.value = "http://e/other"
    assert term.value == "http://e/frozen"
    assert iri("http://e/frozen") is term


def test_triple_is_frozen_and_hashes_by_value():
    t = Triple(iri("http://e/s"), iri("http://e/p"), Literal("x"))
    with pytest.raises(AttributeError):
        t.object = Literal("y")
    twin = Triple(iri("http://e/s"), iri("http://e/p"), Literal("x"))
    assert t == twin and hash(t) == hash(twin) and twin in {t}
    assert t != Triple(iri("http://e/s"), iri("http://e/p"), Literal("y"))


@pytest.mark.parametrize("term,twin,other,text", [
    (BlankNode("b0", 1), BlankNode("b0", 1), BlankNode("b0", 2), "_:b0"),
    (Literal("1"), Literal("1"), Literal("1", language="en"), '"1"'),
    (Literal("1", language="en"), Literal("1", language="en"), Literal("1", language="fr"), '"1"@en'),
    (Literal("1", datatype=vocab.XSD_INTEGER), Literal("1", datatype=vocab.XSD_INTEGER),
     Literal("1", datatype=vocab.XSD_STRING), f'"1"^^<{vocab.XSD_INTEGER}>'),
])
def test_blank_nodes_and_literals_keep_their_value_semantics(term, twin, other, text):
    fields = tuple(getattr(term, name) for name in type(term).__match_args__)
    assert term == twin and term is not twin and term != other and term != fields
    assert hash(term) == hash(twin) == hash(fields) and twin in {term} and other not in {term}
    assert repr(term) == text
    with pytest.raises(TypeError):
        term < twin  # noqa: B015 -- unordered, as before
    for name in type(term).__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(term, name, "x")
    assert fields == tuple(getattr(term, name) for name in type(term).__match_args__)
    # Copies and pickles rebuild the object, so the hash follows this process's
    # string hashing and the pickle carries no hash.
    for clone in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert clone == term and hash(clone) == hash(term) and repr(clone) == text
    assert b"_hash" not in pickle.dumps(term)
    assert type(term).__match_args__ == (("node_id", "scope") if isinstance(term, BlankNode)
                                         else ("lexical", "datatype", "language"))
    assert term.__reduce__() == (type(term), fields) and not hasattr(term, "__dict__")


def test_blank_nodes_and_literals_destructure_by_their_fields():
    match Literal("1", datatype=vocab.XSD_INTEGER), BlankNode("b0", 3):
        case Literal(lexical, datatype, None), BlankNode(node_id, scope):
            assert (lexical, datatype, node_id, scope) == ("1", vocab.XSD_INTEGER, "b0", 3)
        case _:
            pytest.fail("terms did not destructure")
    with pytest.raises(RdfError, match="literal cannot carry both a datatype and a language tag"):
        Literal("x", datatype=vocab.XSD_STRING, language="en")

def test_blank_node_and_literal_hash_once():
    class Text(str):
        calls = 0

        def __hash__(self):
            Text.calls += 1
            return str.__hash__(self)

    terms = [BlankNode(Text("b0"), 1), Literal(Text("1"))]
    assert Text.calls == 2
    assert len({*terms, *terms, *terms}) == 2 and Text.calls == 2


_SORT_IRIS = st.sampled_from(["http://e/a", "http://e/ab", "http://e/b"]).map(iri)
_SORT_BLANKS = st.builds(BlankNode, st.sampled_from(["b0", "b1", "b10"]), st.integers(1, 3))
_SORT_OBJECTS = st.one_of(
    _SORT_IRIS, _SORT_BLANKS,
    st.builds(Literal, st.sampled_from(["", "1", "10"]),
              st.sampled_from([None, vocab.XSD_STRING, vocab.XSD_INTEGER])),
    st.builds(lambda lexical, language: Literal(lexical, language=language),
              st.sampled_from(["", "1"]), st.sampled_from(["en", "en-gb"])))


def _nested_triple_sort_key(t):
    """The reference order: one term key per position."""
    return (term_sort_key(t.subject), (0, t.predicate.value), term_sort_key(t.object))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Triple, st.one_of(_SORT_IRIS, _SORT_BLANKS), _SORT_IRIS, _SORT_OBJECTS),
                max_size=24))
def test_flat_triple_sort_key_keeps_the_nested_order(triples):
    def compare(x, y):
        return (x > y) - (x < y)

    for a, b in itertools.product(triples, repeat=2):
        assert compare(triple_sort_key(a), triple_sort_key(b)) == compare(
            _nested_triple_sort_key(a), _nested_triple_sort_key(b)), (a, b)
    assert sorted(triples, key=triple_sort_key) == sorted(triples, key=_nested_triple_sort_key)


def test_literal_cannot_have_datatype_and_language():
    with pytest.raises(Exception):
        Literal("x", datatype="http://www.w3.org/2001/XMLSchema#string", language="en")


def test_triple_validation():
    s, p, o = iri("http://e/s"), iri("http://e/p"), iri("http://e/o")
    with pytest.raises(Exception):
        Triple(Literal("x"), p, o)
    with pytest.raises(Exception):
        Triple(s, BlankNode("b", 1), o)


def test_triple_insertion_idempotent():
    g = Graph()
    t = Triple(iri("http://e/s"), iri("http://e/p"), iri("http://e/o"))
    g.add(t)
    n = len(g)
    g.add(t)
    assert len(g) == n


def test_blank_nodes_scoped_per_graph():
    a = BlankNode("b0", new_scope())
    b = BlankNode("b0", new_scope())
    assert a != b


# -- graph isomorphism -------------------------------------------------------

def _brute_force_isomorphic(a, b):
    """Independent oracle: try every bijection between the blank node sets."""
    nodes_a = sorted(a.blank_nodes(), key=term_sort_key)
    nodes_b = sorted(b.blank_nodes(), key=term_sort_key)
    if len(nodes_a) != len(nodes_b):
        return False
    for perm in itertools.permutations(nodes_b):
        mapping = dict(zip(nodes_a, perm))

        def sub(t):
            return mapping.get(t, t)

        image = {Triple(sub(t.subject), t.predicate, sub(t.object)) for t in a.triples}
        if image == b.triples:
            return True
    return False


def test_empty_graphs_isomorphic():
    assert graph_isomorphic(Graph(), Graph())


def test_graph_isomorphic_to_itself(prov):
    g = parse_turtle(fixture_text("prov-mini.ttl"))
    assert graph_isomorphic(g, g)


def test_fig9_parsed_twice_is_isomorphic():
    text = fixture_text("instances/fig9.ttl")
    g1 = parse_turtle(text)
    g2 = parse_turtle(text.replace("[", "[ ").replace("]", " ]"))
    assert len(g1.blank_nodes()) <= 6
    assert _brute_force_isomorphic(g1, g2)
    assert graph_isomorphic(g1, g2)


def test_isomorphism_detects_structural_difference():
    doc = """
    @prefix ex: <http://e/> .
    _:a ex:p _:b . _:b ex:p _:c . _:c ex:p _:a .
    """
    other = """
    @prefix ex: <http://e/> .
    _:a ex:p _:b . _:b ex:p _:c . _:c ex:p _:c .
    """
    g1, g2 = parse_turtle(doc), parse_turtle(other)
    assert _brute_force_isomorphic(g1, g2) is False
    assert graph_isomorphic(g1, g2) is False


def test_isomorphism_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    iris = [iri(f"http://e/n{i}") for i in range(3)]
    preds = [iri(f"http://e/p{i}") for i in range(2)]
    for trial in range(60):
        scope1, scope2 = new_scope(), new_scope()
        blanks1 = [BlankNode(f"x{i}", scope1) for i in range(4)]
        blanks2 = [BlankNode(f"y{i}", scope2) for i in range(4)]
        g1, g2 = Graph(), Graph()
        for _ in range(rng.randrange(2, 7)):
            s = rng.choice(blanks1 + iris[:2])
            o = rng.choice(blanks1 + iris)
            p = rng.choice(preds)
            g1.add(Triple(s, p, o))
        relabel = dict(zip(blanks1, rng.sample(blanks2, len(blanks1))))
        for t in g1.triples:
            s = relabel.get(t.subject, t.subject)
            o = relabel.get(t.object, t.object)
            g2.add(Triple(s, t.predicate, o))
        if rng.random() < 0.5 and g2.triples:
            victim = sorted(g2.triples, key=lambda t: rng.random())[0]
            g2.triples.discard(victim)
            g2.add(Triple(victim.subject, preds[0], iris[2]))
            g2._spo = None
        expected = _brute_force_isomorphic(g1, g2)
        assert graph_isomorphic(g1, g2) == expected, f"trial {trial}"


def test_isomorphism_is_symmetric():
    g1 = parse_turtle(fixture_text("instances/fig9.ttl"))
    g2 = parse_turtle(fixture_text("instances/fig9.ttl"))
    assert graph_isomorphic(g1, g2) and graph_isomorphic(g2, g1)


def test_isomorphism_resource_limit():
    # A ring of interchangeable blank nodes defeats color refinement; above
    # the bound the search must refuse rather than blow up.
    n = 70
    scope1, scope2 = new_scope(), new_scope()
    g1, g2 = Graph(), Graph()
    p = iri("http://e/p")
    for g, scope in ((g1, scope1), (g2, scope2)):
        nodes = [BlankNode(f"r{i}", scope) for i in range(n)]
        for i in range(n):
            g.add(Triple(nodes[i], p, nodes[(i + 1) % n]))
    with pytest.raises(IsomorphismLimitError):
        graph_isomorphic(g1, g2)
    assert graph_isomorphic(g1, g2, max_blank_nodes=128)
