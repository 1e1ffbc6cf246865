"""RDF Turtle parsing and serialization.

The parser is a table-driven tokenizer plus recursive descent over the Turtle
subset used by OWL ontologies and alignment files: prefix/base directives
(both '@' and SPARQL spellings), prefixed names, IRI references, blank node
labels and anonymous property lists, collections, 'a', predicate-object and
object lists, string/typed/language literals, numeric and boolean shorthand,
and comments. Quoted triples and TriG blocks are hard errors: silently
dropping triples would corrupt verification verdicts downstream. So is
nesting '[ ]' and '( )' more than MAX_NESTING levels deep, which would
otherwise exhaust the interpreter's stack.

Serialization is semantic, not byte-preserving: output re-parses to a graph
isomorphic to the input, with deterministic ordering.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import vocab
from .rdf import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    iri,
    iri_resolve,
    new_scope,
    new_triple,
    triple_sort_key,
    MissingBaseError,
    UnknownPrefixError,
)

MAX_NESTING = 128


@dataclass
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class TurtleParseError(Exception):
    def __init__(self, diagnostics: List[ParseDiagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}

# PN_LOCAL: word chars, digits, '-', ':', '%' HEX HEX, '\' escapes; dots only medially.
_LOCAL = r"(?:[\wÀ-￿\-:]+|%[0-9A-Fa-f]{2}|\.(?=[\wÀ-￿\-:.]|%[0-9A-Fa-f]{2})|\\[\s\S]?)*"
# A prefix label cannot end with '.'.
_PREFIX = r"[A-Za-zÀ-￿](?:[\wÀ-￿.\-]*[\wÀ-￿\-])?"

# One alternative per token kind, tried in this order at the current offset.
# "iri" and "string" match the common escape-free, terminated forms whole.
# Everything else falls through to the permissive "iriref", "long_string" and
# "short_string" bodies (any escape, no terminator), so that a bad escape is
# reported before a missing terminator. The most frequent kinds, "pname" and
# "punct", come first: no alternative they precede can match a character
# they start with, except "decimal" and "double" at '.', which stay behind
# "punct".
_TOKEN_KINDS = (
    ("pname", f"(?:{_PREFIX})?:{_LOCAL}"),
    ("punct", r"[.;,\[\]()]|\^\^"),
    ("eof", r"\Z"),
    ("quoted", r"<<"),
    ("trig", r"[{}]"),
    ("iri", r"<[^>\\ \n\t\r<\"{}|^`]*>"),
    ("iriref", r"<(?:[^>\\ \n\t\r<\"{}|^`]+|\\[\s\S]?)*"),
    ("long_string", r'"""(?:[^"\\]+|"(?!"")|\\[\s\S]?)*|\'\'\'(?:[^\'\\]+|\'(?!\'\')|\\[\s\S]?)*'),
    ("string", r'"[^"\\\n]*"|\'[^\'\\\n]*\''),
    ("short_string", r'"(?:[^"\\\n]+|\\[\s\S]?)*|\'(?:[^\'\\\n]+|\\[\s\S]?)*'),
    ("bnode_label", "_:" + _LOCAL),
    ("at", r"@(?:[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)?"),
    ("double", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.\d+[eE][+-]?\d+|\d+[eE][+-]?\d+)"),
    ("decimal", r"[+-]?\d*\.\d+"),
    ("integer", r"[+-]?\d+"),
    ("name", _PREFIX),
    ("other", r"[\s\S]"),
)
_TOKEN_SOURCE = (r"(?:[ \t\r\n]+|#[^\n]*)*(?:"
                 + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_KINDS) + ")")
# On ASCII text a class with the letters from U+00C0 up matches what its ASCII
# part matches, so the ASCII twin accepts exactly the same tokens. It compiles
# in a millisecond or two, the wide pattern in tens: that one waits for the
# first document that needs it.
_token_re = functools.cache(lambda ascii: re.compile(_TOKEN_SOURCE.replace("\u00c0-\uffff", ""), re.ASCII)
                            if ascii else re.compile(_TOKEN_SOURCE))
_NUMBER_TYPES = {"double": vocab.XSD_DOUBLE, "decimal": vocab.XSD_DECIMAL,
                 "integer": vocab.XSD_INTEGER}
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[\s\S]?)")
_LOCAL_ESCAPE_RE = re.compile(r"\\([\s\S]?)")

_RDF_TYPE = iri(vocab.RDF_TYPE)
_RDF_FIRST = iri(vocab.RDF_FIRST)
_RDF_REST = iri(vocab.RDF_REST)
_RDF_NIL = iri(vocab.RDF_NIL)


def _unescape_local(local: str) -> str:
    """Drop the backslash of each '\\' escape in a local name or label."""
    return _LOCAL_ESCAPE_RE.sub(r"\1", local) if "\\" in local else local


class _Parser:
    """Recursive descent over a streaming tokenizer.

    The current token is ``kind``, ``value`` and ``start``, its offset into
    the text. A punctuation token is its own kind. A prefixed name's value is
    its lexeme, resolved when it is used. A lexical error is raised when its
    token becomes current, and line and column are worked out only when a
    diagnostic is raised.
    """

    def __init__(self, text: str, base: Optional[str]):
        self.text = text
        self.match = _token_re(text.isascii()).match
        self.pos = 0
        self.graph = Graph(base=base)
        self.triples = self.graph.triples
        self.base = base
        self.scope = new_scope()
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
        node = BlankNode(f"b{self.anon_count}", self.scope)
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


def parse_turtle(text: str, base: Optional[str] = None) -> Graph:
    """Parse a Turtle document into a Graph.

    Raises TurtleParseError carrying positioned diagnostics on any syntax
    error, unknown prefix, or unterminated literal.
    """
    return _Parser(text, base).parse()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_LOCAL_OK_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-.]*")
_INT_SHORT_RE = re.compile(r"[+-]?\d+")
# A bare decimal may not start with '.', which would read as the end of a statement.
_DECIMAL_SHORT_RE = re.compile(r"(?:[+-]\d*|\d+)\.\d+")


# How a string literal's characters are written: the quote, the backslash and
# every control character escaped.
_STRING_ESCAPES = {**{c: f"\\u{c:04X}" for c in range(0x20)}, ord("\\"): "\\\\", ord('"'): '\\"',
                   ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}


def serialize_turtle(graph: Graph) -> str:
    """Render a graph as Turtle text.

    Deterministic: triples sort by canonical term order and blank nodes are
    relabelled in order of first appearance. Output re-parses to a graph
    isomorphic to the input.
    """
    namespaces = sorted(graph.prefixes.items(), key=lambda kv: (kv[1], kv[0]))

    def compress(value: str) -> Optional[str]:
        best: Optional[Tuple[str, str]] = None
        for label, ns in namespaces:
            if value.startswith(ns):
                local = value[len(ns):]
                if local and (not _LOCAL_OK_RE.fullmatch(local) or local.endswith(".")):
                    continue
                if best is None or len(ns) > len(graph.prefixes[best[0]]):
                    best = (label, local)
        if best is None:
            return None
        label, local = best
        return f"{label}:{local}"

    bnode_names: Dict[BlankNode, str] = {}

    def render(term: Term) -> str:
        if isinstance(term, Iri):
            short = compress(term.value)
            return short if short is not None else f"<{term.value}>"
        if isinstance(term, BlankNode):
            name = bnode_names.get(term)
            if name is None:
                name = f"b{len(bnode_names)}"
                bnode_names[term] = name
            return f"_:{name}"
        lex = term.lexical
        if term.language:
            return f'"{lex.translate(_STRING_ESCAPES)}"@{term.language}'
        dt = term.datatype
        if dt == vocab.XSD_INTEGER and _INT_SHORT_RE.fullmatch(lex):
            return lex
        if dt == vocab.XSD_DECIMAL and _DECIMAL_SHORT_RE.fullmatch(lex):
            return lex
        if dt == vocab.XSD_BOOLEAN and lex in ("true", "false"):
            return lex
        if dt is None or dt == vocab.XSD_STRING:
            return f'"{lex.translate(_STRING_ESCAPES)}"'
        dt_short = compress(dt)
        dt_text = dt_short if dt_short is not None else f"<{dt}>"
        return f'"{lex.translate(_STRING_ESCAPES)}"^^{dt_text}'

    lines: List[str] = []
    for label, ns in sorted(graph.prefixes.items()):
        lines.append(f"@prefix {label}: <{ns}> .")
    if lines:
        lines.append("")
    for t in sorted(graph.triples, key=triple_sort_key):
        lines.append(f"{render(t.subject)} {render(t.predicate)} {render(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")
