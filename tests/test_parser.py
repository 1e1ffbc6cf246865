"""The Turtle parser's two flat passes, one findall over the text and one
grammar loop with an explicit stack, against the recursive parser they
replaced; and checks that the passes stay flat."""

import functools
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provalign import turtle, vocab
from provalign.fixtures import FIXTURE_NAMES, INSTANCE_NAMES, fixture_text
from provalign.rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    MissingBaseError,
    Term,
    UnknownPrefixError,
    iri_resolve,
    new_scope,
    new_triple,
)
from provalign.turtle import (
    _ESCAPE_RE,
    _ESCAPES,
    _RDF_FIRST,
    _RDF_NIL,
    _RDF_REST,
    _RDF_TYPE,
    MAX_NESTING,
    ParseDiagnostic,
    TurtleParseError,
    _unescape_local,
    parse_turtle,
)

_NUMBER_TYPES = {"double": vocab.XSD_DOUBLE, "decimal": vocab.XSD_DECIMAL, "integer": vocab.XSD_INTEGER}
# The streaming tokenizer's pattern: the token kinds, each in a named group.
_NAMED_SOURCE = turtle._SKIP + "(?:" + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in turtle._TOKEN_KINDS) + ")"
_named_re = functools.cache(lambda ascii: turtle._compile(_NAMED_SOURCE, ascii))


class ReferenceParser:
    """The parser as it was before the two flat passes: recursive descent over
    a streaming tokenizer that matches one token at a time.

    The current token is ``kind``, ``value`` and ``start``, its offset into
    the text. A punctuation token is its own kind. A prefixed name's value is
    its lexeme, resolved when it is used. A lexical error is raised when its
    token becomes current, and line and column are worked out only when a
    diagnostic is raised.
    """

    def __init__(self, text: str, base: Optional[str]):
        self.text = text
        self.match = _named_re(text.isascii()).match
        self.pos = 0
        self.graph = turtle.Graph(base=base)
        self.triples = self.graph.triples
        self.base = base
        self.scope, self.anon_scope = new_scope(), new_scope()
        self.labelled: Dict[str, BlankNode] = {}
        # Resolved names: prefixed-name lexemes under the current prefixes,
        # IRI references under the current base.
        self.pnames: Dict[str, Iri] = {}
        self.irirefs: Dict[str, Iri] = {}
        self.anon_count = 0
        self.depth = 0
        self.kind = ""
        self.value: object = None
        self.start = 0
        self._advance()

    # -- tokens ------------------------------------------------------------

    def _error(self, message: str, offset: Optional[int] = None):
        """Raise a diagnostic at ``offset``, by default the current token's."""
        if offset is None:
            offset = self.start
        # Columns count code points, so a '\r' before the offset is a column.
        line_start = self.text.rfind("\n", 0, offset) + 1
        line = self.text.count("\n", 0, line_start) + 1
        raise TurtleParseError([ParseDiagnostic(line, offset - line_start + 1, message)])

    def _unescape(self, body: str, offset: int, table: Dict[str, str]) -> str:
        """Decode the escapes of a body that starts at ``offset``: ``\\u``
        and ``\\U`` everywhere, other characters through ``table``. IRI
        references pass an empty table."""
        if "\\" not in body:
            return body

        def decode(m: "re.Match[str]") -> str:
            esc = m.group(1)
            if len(esc) > 1:
                if int(esc[1:], 16) > 0x10FFFF:
                    self._error(f"escape \\{esc} is beyond U+10FFFF", offset + m.start())
                return chr(int(esc[1:], 16))
            if esc in ("u", "U"):
                self._error(f"bad \\{esc} escape", offset + m.end())
            if esc not in table:
                where = "" if table else " in IRI reference"
                self._error(f"unknown escape \\{esc}{where}", offset + m.start() + 1)
            return table[esc]

        return _ESCAPE_RE.sub(decode, body)

    def _advance(self) -> None:
        """Make the next token current."""
        text = self.text
        m = self.match(text, self.pos)
        kind = m.lastgroup
        start, end = m.span(kind)
        self.start = start
        self.pos = end
        if kind == "pname":
            self.kind = kind
            self.value = text[start:end]
        elif kind == "punct":
            self.kind = self.value = text[start:end]
        elif kind == "name":
            lexeme = self.value = text[start:end]
            self.kind = "boolean" if lexeme == "true" or lexeme == "false" else "word"
        elif kind == "iri":
            self.kind = "iriref"
            self.value = text[start + 1:end - 1]
        elif kind == "string":
            self.kind = kind
            self.value = text[start + 1:end - 1]
        else:
            self._advance_rare(kind, start, end)

    def _advance_rare(self, kind: str, start: int, end: int) -> None:
        text = self.text
        lexeme = text[start:end]
        if kind == "iriref":
            value = self._unescape(lexeme[1:], start + 1, {})
            if end == len(text):
                self._error("unterminated IRI reference", start)
            if text[end] != ">":
                self._error(f"character {text[end]!r} not allowed inside IRI reference", end)
            self.pos = end + 1
            self.kind, self.value = "iriref", value
        elif kind in ("long_string", "short_string"):
            quote = lexeme[0] * (3 if kind == "long_string" else 1)
            value = self._unescape(lexeme[len(quote):], start + len(quote), _ESCAPES)
            if not text.startswith(quote, end):
                self._error("unterminated literal", start)
            self.pos = end + len(quote)
            self.kind, self.value = "string", value
        elif kind in _NUMBER_TYPES:
            self.kind, self.value = "number", (lexeme, _NUMBER_TYPES[kind])
        elif kind == "at":
            if lexeme == "@":
                self._error("bad @ directive or language tag", start)
            if lexeme in ("@prefix", "@base"):
                self.kind, self.value = "word", lexeme
            else:
                self.kind, self.value = "lang", lexeme[1:]
        elif kind == "bnode_label":
            label = _unescape_local(lexeme[2:])
            if not label:
                self._error("empty blank node label", start)
            self.kind, self.value = "bnode_label", label
        elif kind == "eof":
            self.kind, self.value = "eof", None
        elif kind == "quoted":
            self._error("quoted triples are not supported", start)
        elif kind == "trig":
            self._error("TriG graph blocks are not supported", start)
        else:
            self._error(f"unexpected character {lexeme!r}", start)

    def _describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        if self.kind == "pname":
            label, local = self.value.split(":", 1)
            return repr((label, _unescape_local(local)))
        return repr(self.value)

    def _expect(self, punct: str) -> None:
        if self.kind != punct:
            self._error(f"expected {punct!r}, found {self._describe()}")
        self._advance()

    def _open(self, opener: str) -> None:
        """Consume '[' or '(', keeping the parser's recursion within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self._error(f"more than {MAX_NESTING} nested '[' or '('")
        self._expect(opener)
        self.depth += 1

    def _iri(self) -> Iri:
        """Resolve the current 'iriref' or 'pname' token and move past it."""
        kind, value, start = self.kind, self.value, self.start
        self._advance()
        resolved = self.pnames if kind == "pname" else self.irirefs
        term = resolved.get(value)
        if term is None:
            name = _unescape_local(value) if kind == "pname" else f"<{value}>"
            try:
                term = iri_resolve(self.graph.prefixes, name, self.base)
            except (UnknownPrefixError, MissingBaseError) as exc:
                self._error(str(exc), start)
            resolved[value] = term
        return term

    # -- grammar -----------------------------------------------------------

    def _fresh_bnode(self) -> BlankNode:
        node = BlankNode(f"b{self.anon_count}", self.anon_scope)
        self.anon_count += 1
        return node

    def _labelled_bnode(self, label: str) -> BlankNode:
        node = self.labelled.get(label)
        if node is None:
            node = BlankNode(label, self.scope)
            self.labelled[label] = node
        return node

    def parse(self) -> Graph:
        while self.kind != "eof":
            if self.kind == "word":
                word = self.value
                if word == "@prefix" or word.lower() == "prefix":
                    self._directive_prefix(sparql=not word.startswith("@"))
                    continue
                if word == "@base" or word.lower() == "base":
                    self._directive_base(sparql=not word.startswith("@"))
                    continue
            self._triples()
            self._expect(".")
        return self.graph

    def _directive_prefix(self, sparql: bool) -> None:
        self._advance()
        if self.kind != "pname":
            self._error("expected prefix label ending in ':'")
        label, local = self.value.split(":", 1)
        if _unescape_local(local):
            self._error("prefix label must end with ':'")
        self._advance()
        if self.kind != "iriref":
            self._error("expected namespace IRI")
        self.graph.bind(label, self._iri().value)
        self.pnames.clear()
        if not sparql:
            self._expect(".")

    def _directive_base(self, sparql: bool) -> None:
        self._advance()
        if self.kind != "iriref":
            self._error("expected base IRI")
        self.base = self._iri().value
        self.graph.base = self.base
        self.irirefs.clear()
        if not sparql:
            self._expect(".")

    def _triples(self) -> None:
        if self.kind == "[":
            subject = self._bnode_property_list()
            if self.kind == ".":
                return  # bare [ ... ] . statement
            self._predicate_object_list(subject)
            return
        subject = self._subject()
        self._predicate_object_list(subject)

    def _subject(self) -> Term:
        kind = self.kind
        if kind == "pname" or kind == "iriref":
            return self._iri()
        if kind == "bnode_label":
            label = self.value
            self._advance()
            return self._labelled_bnode(label)
        if kind == "(":
            return self._collection()
        self._error(f"expected subject, found {self._describe()}")

    def _verb(self) -> Iri:
        kind = self.kind
        if kind == "pname" or kind == "iriref":
            return self._iri()
        if kind == "word" and self.value == "a":
            self._advance()
            return _RDF_TYPE
        self._error(f"expected predicate, found {self._describe()}")

    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self.kind != ";":
                return
            self._advance()
            # Trailing ';' before '.' or ']' is legal.
            while self.kind == ";":
                self._advance()
            if self.kind == "." or self.kind == "]":
                return

    def _object_list(self, subject: Term, predicate: Iri) -> None:
        add = self.triples.add
        while True:
            add(new_triple(subject, predicate, self._object()))
            if self.kind != ",":
                return
            self._advance()

    def _object(self) -> Term:
        kind = self.kind
        if kind == "pname" or kind == "iriref":
            return self._iri()
        if kind == "[":
            return self._bnode_property_list()
        if kind == "string":
            return self._string_literal()
        if kind == "number":
            lexical, datatype = self.value
            self._advance()
            return Literal(lexical, datatype=datatype)
        if kind == "boolean":
            lexical = self.value
            self._advance()
            return Literal(lexical, datatype=vocab.XSD_BOOLEAN)
        return self._subject()

    def _string_literal(self) -> Literal:
        lexical = self.value
        self._advance()
        if self.kind == "lang":
            lang = self.value
            self._advance()
            return Literal(lexical, language=lang)
        if self.kind == "^^":
            self._advance()
            if self.kind != "iriref" and self.kind != "pname":
                self._error("expected datatype IRI after '^^'")
            return Literal(lexical, datatype=self._iri().value)
        return Literal(lexical, datatype=vocab.XSD_STRING)

    def _bnode_property_list(self) -> BlankNode:
        self._open("[")
        node = self._fresh_bnode()
        if self.kind != "]":
            self._predicate_object_list(node)
        self._expect("]")
        self.depth -= 1
        return node

    def _collection(self) -> Term:
        self._open("(")
        items: List[Term] = []
        while self.kind != ")":
            if self.kind == "eof":
                self._error("unterminated collection")
            items.append(self._object())
        self._advance()
        self.depth -= 1
        if not items:
            return _RDF_NIL
        add, cells = self.triples.add, [self._fresh_bnode() for _ in items]
        for cell, item, rest in zip(cells, items, [*cells[1:], _RDF_NIL]):
            add(new_triple(cell, _RDF_FIRST, item))
            add(new_triple(cell, _RDF_REST, rest))
        return cells[0]




# ---------------------------------------------------------------------------
# Differential: the same triples, labels, prefixes and base, or the same diagnostic
# ---------------------------------------------------------------------------

class _OrderedTriples(set):
    """A triple set that also keeps the order its triples were added in."""

    def __init__(self):
        super().__init__()
        self.order = []

    def add(self, t):
        self.order.append(t)
        super().add(t)


class _RecordingGraph(Graph):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.triples = _OrderedTriples()


def _outcome(parser, text, base=None):
    """The triples in the order they were added, blank nodes by label and by the
    rank of their scope in that order, with the prefixes and base; or the
    diagnostic's message, line and column."""
    with mock.patch.object(turtle, "Graph", _RecordingGraph):
        try:
            graph = parser(text, base).parse()
        except TurtleParseError as exc:
            (diagnostic,) = exc.diagnostics
            return diagnostic.message, diagnostic.line, diagnostic.column
    scopes = {}

    def label(term):
        return ("_", term.node_id, scopes.setdefault(term.scope, len(scopes))) if term.__class__ is BlankNode else term

    return ([(label(t.subject), t.predicate, label(t.object)) for t in graph.triples.order],
            graph.prefixes, graph.base)


def _same_outcome(text, base=None):
    outcome = _outcome(turtle._Parser, text, base)
    assert outcome == _outcome(ReferenceParser, text, base), text
    return outcome


@pytest.mark.parametrize("name", FIXTURE_NAMES + INSTANCE_NAMES)
def test_fixtures_parse_as_the_recursive_parser_parses_them(name):
    triples, _, _ = _same_outcome(fixture_text(name))
    assert triples


def test_perfbench_inputs_parse_as_the_recursive_parser_parses_them(perfbench_requests):
    paths = sorted({path for workloads in perfbench_requests.values() for requests in workloads.values()
                    for request in requests for path in request["files"]})
    for path in paths:
        triples, _, _ = _same_outcome(Path(path).read_text(encoding="utf-8"))
        assert triples, path


EX = "@prefix ex: <http://example.org/> .\n"


@pytest.mark.parametrize("text", [
    # A name that does not resolve is reported after the next token is read.
    EX + r'ex:s ex:p <rel> "\q" .', EX + r'foo:s "\q" .', EX + r'@prefix ex2: <rel> "\q"',
    EX + "@prefix ex2: <rel> .", EX + "@base <rel> .", EX + "PREFIX ex2 <http://x/>",
    EX + "@prefix ex:a <http://x/> .", EX + "@prefix ex: ex:o .", EX + "BASE ex:o",
    # A name means what the prefixes and base in effect where it stands make it.
    EX + "ex:s ex:p ex:o .\n@prefix ex: <http://example.org/two#> .\nex:s ex:p ex:o .",
    "BASE <http://a/> <x> <y> <z> . @base <http://b/> . <x> <y> <z> . PREFIX ex: <x#> ex:s ex:p ex:o .",
    # A closing quote or '>' after an odd run of backslashes is escaped.
    EX + r'ex:s ex:p "abc\"', EX + r'ex:s ex:p "abc\\" .', EX + r"ex:s ex:p '''a\'''",
    EX + r'ex:s ex:p """a\""" .', EX + r'ex:s ex:p """a\"""" .', EX + r"ex:s ex:p <http://e/a\>",
    EX + r"ex:s ex:p <http://e/a\>> .", EX + 'ex:s ex:p """"" .', EX + 'ex:s ex:p """""" .',
    EX + "ex:s ex:p <http://e/a\tb> .", EX + "ex:s ex:p <http://e/a",
    # Labels, anonymous nodes and collections.
    EX + "_:b0 ex:p [] .", EX + "ex:s ex:p ( ex:a", EX + "ex:s ex:p [ ex:q ex:r", EX + "( ) .",
    EX + "ex:s ex:p ex:o ; ; ] .", EX + "[ ex:p ex:o ; ] .", EX + "[ ex:p ex:o ] ; .", EX + "ex:s ex:p ( ] ) .",
    EX + "ex:s ex:p ( ( ) [ ] ( ex:a ) ) , [ ex:q ( ex:b ) ] .", EX + "ex:s ex:p _:",
    # Literals, and characters that start no token.
    EX + 'ex:s ex:p "x"@prefix .', EX + 'ex:s ex:p "x"@ .', EX + 'ex:s ex:p "x"^^"y" .',
    EX + "ex:s ex:p 1.e5 , .5 , -.5E+2 , +1 , - .", EX + "ex:s ex:p ٣ , ٣٣:x .",
    EX + "ex:s ex:p ex:o .\nµ .", EX + "ex:s ex:p \U0001F600 .", EX + "ex:s ex:p ex:o . }",
    EX + "ex:s ^^ ex:o .", EX + "ex:s ex:p ex:o ^ .", EX + "true ex:p ex:o .", EX + "ex:s a a .",
])
def test_edge_documents_parse_as_the_recursive_parser_parses_them(text):
    _same_outcome(text)
    _same_outcome(text, "http://example.org/doc/")


@pytest.mark.parametrize("text, nodes", [
    (EX + "_:b0 ex:p [] .", 2), (EX + "_:b0 ex:q ( ex:a ) .", 2), (EX + "[] ex:p _:b0 .", 2),
    (EX + "_:b0 ex:p _:b0 , [ ex:q _:b0 ] .", 2), (EX + "_:b0 ex:p _:b0 .", 1),
])
def test_a_label_never_names_an_anonymous_node(text, nodes):
    """Anonymous nodes and collection cells, named b0, b1, ..., are not the
    labelled node of the same name; a label names one node throughout."""
    graph = parse_turtle(text)
    found = {term for t in graph.triples for term in (t.subject, t.object) if isinstance(term, BlankNode)}
    assert len(found) == nodes and {node.node_id for node in found} == {"b0"}


_SUBJECTS = ["ex:a", "ex:b.c", ":c", "ex2:d", "ex:Entité", "ex:x\\-y", "ex:%41", "<http://example.org/i>",
             "<rel>", "<http://example.org/\\u00e9>", "<#frag>", "_:x", "_:b0", "_:y.z", "_:n\\-1"]
_VERBS = st.sampled_from(["ex:p", "ex:q", "a", ":r", "<http://example.org/v>", "ex2:s"])
_LEAVES = st.sampled_from(_SUBJECTS + [
    '"plain"', '"esc\\"aped\\n"', "'single'", '"""long\n"string"""', "'''long'''", '"tagged"@en-GB',
    '"typed"^^xsd:dateTime', '"typed"^^<http://example.org/dt>', '"é"', "12", "-3.5", "+.5e3", "4E-2",
    "true", "false"])


def _property_lists(objects):
    """Predicate-object lists with runs of ';' and ',' and maybe a trailing ';'."""
    pairs = st.tuples(_VERBS, st.lists(objects, min_size=1, max_size=3)).map(
        lambda pair: pair[0] + " " + " , ".join(pair[1]))
    return st.tuples(st.lists(pairs, min_size=1, max_size=3), st.sampled_from([" ; ", " ;; ", ";"]),
                     st.sampled_from(["", " ;", " ; ;"])).map(lambda x: x[1].join(x[0]) + x[2])


_OBJECTS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.sampled_from(["[ ]", "[]", "( )", "()"]),
    _property_lists(children).map(lambda pol: f"[ {pol} ]"),
    st.lists(children, min_size=1, max_size=3).map(lambda items: "( " + " ".join(items) + " )"),
), max_leaves=8)


def _deep(depth, openers):
    """A statement whose object nests ``depth`` levels deep, cycling through ``openers``."""
    cycle = [openers[k % len(openers)] for k in range(depth)]
    inner = "".join("[ ex:p " if opener == "[" else "( " for opener in cycle)
    outer = "".join(" ]" if opener == "[" else " )" for opener in reversed(cycle))
    return f"ex:s ex:p {inner}ex:o{outer} ."


_STATEMENTS = st.one_of(
    st.tuples(st.sampled_from(_SUBJECTS + ["( ex:a ex:b )", "( )"]), _property_lists(_OBJECTS)).map(
        lambda statement: f"{statement[0]} {statement[1]} ."),
    _property_lists(_OBJECTS).map(lambda pol: f"[ {pol} ] ."),
    _property_lists(_OBJECTS).map(lambda pol: f"[ {pol} ] ex:p ex:o ."),
    st.sampled_from(["[ ] .", "[] ex:p ex:o .", "@prefix ex: <http://example.org/redefined#> .",
                     "PREFIX ex2: <http://example.org/two#>", "BASE <http://example.org/base/>",
                     "@base <sub/> .", "prefix : <http://example.org/e2#>"]),
    st.builds(_deep, st.sampled_from([1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]),
              st.sampled_from(["[", "(", "[(", "(["])),
)
_HEADER = ["@prefix ex: <http://example.org/> .", "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>",
           "@prefix : <http://example.org/empty#> ."]
# Mostly with 'ex2:' declared, so that most documents get past their first
# statement; the tests pass a base for half of them.
_HEADERS = st.sampled_from([_HEADER, _HEADER + ["@prefix ex2: <http://example.org/two#> ."],
                            _HEADER + ["PREFIX ex2: <http://example.org/two#>"]])
_DOCUMENTS = st.tuples(_HEADERS, st.lists(_STATEMENTS, max_size=6),
                       st.sampled_from(["\n", " ", "\t# a comment\n", "\r\n"])).map(
    lambda doc: doc[2].join(doc[0] + doc[1]) + "\n")
_EDIT_CHARACTERS = st.sampled_from(list(".;,[]()<>\"'@_:#\\ \nxe1^{}~é"))


@settings(max_examples=250, deadline=None)
@given(_DOCUMENTS, st.sampled_from([None, "http://example.org/doc/"]), st.data())
def test_generated_documents_and_their_edits_parse_as_the_recursive_parser_parses_them(text, base, data):
    _same_outcome(text, base)
    for _ in range(4):
        at = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            edited = text[:at] + data.draw(_EDIT_CHARACTERS) + text[at:]
        else:
            edited = text[:at] + (text[at + 1:] if edit == "delete" else "")
        _same_outcome(edited, base)


# ---------------------------------------------------------------------------
# Flat passes
# ---------------------------------------------------------------------------

def test_parsing_runs_the_token_pattern_once_per_document(monkeypatch, perfbench_requests):
    calls = []

    class Counting:
        def __init__(self, pattern):
            self.wrapped = pattern

        def __getattr__(self, name):
            attr = getattr(self.wrapped, name)
            if callable(attr):
                calls.append(name)
            return attr

    segment_re = turtle._segment_re
    monkeypatch.setattr(turtle, "_segment_re", lambda ascii: Counting(segment_re(ascii)))
    (path,) = [p for p in perfbench_requests[1]["prov-trace"][0]["files"] if p.endswith("trace0.ttl")]
    graph = parse_turtle(Path(path).read_text(encoding="utf-8"))
    assert len(graph) > 3000 and calls == ["findall"]
    # A diagnostic scans the text once more, up to its token.
    calls.clear()
    with pytest.raises(TurtleParseError):
        parse_turtle(fixture_text("prov-mini.ttl") + "ex:s ex:p ~ .\n")
    assert calls == ["findall", "finditer"]


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@pytest.mark.parametrize("opener", ["[", "("])
def test_nesting_does_not_use_the_python_stack(opener):
    text = "@prefix ex: <http://example.org/> .\n" + _deep(MAX_NESTING, opener) + "\n"
    triples, _, _ = _outcome(turtle._Parser, text)  # compiles the token patterns first
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 30)
    try:
        graph = parse_turtle(text)
        with pytest.raises(RecursionError):
            ReferenceParser(text, None).parse()
    finally:
        sys.setrecursionlimit(limit)
    assert len(graph) == len(triples) > MAX_NESTING
