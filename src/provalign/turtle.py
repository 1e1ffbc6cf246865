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
    Triple,
    iri,
    iri_resolve,
    new_scope,
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


@dataclass
class _Token:
    kind: str  # iriref pname bnode_label string lang number boolean punct word eof
    value: object
    offset: int


_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}

# PN_LOCAL: word chars, digits, '-', ':', '%' HEX HEX, '\' escapes; dots only medially.
_LOCAL = r"(?:[\wÀ-￿\-:]+|%[0-9A-Fa-f]{2}|\.(?=[\wÀ-￿\-:.]|%[0-9A-Fa-f]{2})|\\[\s\S]?)*"
# A prefix label cannot end with '.'.
_PREFIX = r"[A-Za-zÀ-￿](?:[\wÀ-￿.\-]*[\wÀ-￿\-])?"

# One alternative per token kind, tried in this order at the current offset.
# IRI and string bodies are matched permissively (any escape, no terminator)
# so that a bad escape is reported before a missing terminator.
_TOKEN_KINDS = (
    ("eof", r"\Z"),
    ("quoted", r"<<"),
    ("trig", r"[{}]"),
    ("punct", r"[.;,\[\]()]|\^\^"),
    ("iriref", r"<(?:[^>\\ \n\t\r<\"{}|^`]+|\\[\s\S]?)*"),
    ("long_string", r'"""(?:[^"\\]+|"(?!"")|\\[\s\S]?)*|\'\'\'(?:[^\'\\]+|\'(?!\'\')|\\[\s\S]?)*'),
    ("short_string", r'"(?:[^"\\\n]+|\\[\s\S]?)*|\'(?:[^\'\\\n]+|\\[\s\S]?)*'),
    ("bnode_label", "_:" + _LOCAL),
    ("at", r"@(?:[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)?"),
    ("double", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.\d+[eE][+-]?\d+|\d+[eE][+-]?\d+)"),
    ("decimal", r"[+-]?\d*\.\d+"),
    ("integer", r"[+-]?\d+"),
    ("pname", f"(?:{_PREFIX})?:{_LOCAL}"),
    ("name", _PREFIX),
    ("other", r"[\s\S]"),
)
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:"
    + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_KINDS) + ")")
_NUMBER_TYPES = {"double": vocab.XSD_DOUBLE, "decimal": vocab.XSD_DECIMAL,
                 "integer": vocab.XSD_INTEGER}
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[\s\S]?)")
_LOCAL_ESCAPE_RE = re.compile(r"\\([\s\S]?)")


def _unescape_local(local: str) -> str:
    """Drop the backslash of each '\\' escape in a local name or label."""
    return _LOCAL_ESCAPE_RE.sub(r"\1", local) if "\\" in local else local


class _Lexer:
    """Turtle tokenizer. Tokens carry only their offset into the text;
    line and column are worked out when a diagnostic is raised."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int):
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
                    self.error(f"escape \\{esc} is beyond U+10FFFF", offset + m.start())
                return chr(int(esc[1:], 16))
            if esc in ("u", "U"):
                self.error(f"bad \\{esc} escape", offset + m.end())
            if esc not in table:
                where = "" if table else " in IRI reference"
                self.error(f"unknown escape \\{esc}{where}", offset + m.start() + 1)
            return table[esc]

        return _ESCAPE_RE.sub(decode, body)

    def next_token(self) -> _Token:
        text = self.text
        m = _TOKEN_RE.match(text, self.pos)
        kind = m.lastgroup
        start, end = m.span(kind)
        self.pos = end
        lexeme = m.group(kind)
        if kind == "pname":
            label, local = lexeme.split(":", 1)
            return _Token("pname", (label, _unescape_local(local)), start)
        if kind == "punct":
            return _Token("punct", lexeme, start)
        if kind == "iriref":
            value = self._unescape(lexeme[1:], start + 1, {})
            if end == len(text):
                self.error("unterminated IRI reference", start)
            if text[end] != ">":
                self.error(f"character {text[end]!r} not allowed inside IRI reference", end)
            self.pos = end + 1
            return _Token("iriref", value, start)
        if kind in ("long_string", "short_string"):
            quote = lexeme[0] * (3 if kind == "long_string" else 1)
            value = self._unescape(lexeme[len(quote):], start + len(quote), _ESCAPES)
            if not text.startswith(quote, end):
                self.error("unterminated literal", start)
            self.pos = end + len(quote)
            return _Token("string", value, start)
        if kind in _NUMBER_TYPES:
            return _Token("number", (lexeme, _NUMBER_TYPES[kind]), start)
        if kind == "name":
            return _Token("boolean" if lexeme in ("true", "false") else "word", lexeme, start)
        if kind == "at":
            if lexeme == "@":
                self.error("bad @ directive or language tag", start)
            if lexeme in ("@prefix", "@base"):
                return _Token("word", lexeme, start)
            return _Token("lang", lexeme[1:], start)
        if kind == "bnode_label":
            label = _unescape_local(lexeme[2:])
            if not label:
                self.error("empty blank node label", start)
            return _Token("bnode_label", label, start)
        if kind == "eof":
            return _Token("eof", None, start)
        if kind == "quoted":
            self.error("quoted triples are not supported", start)
        if kind == "trig":
            self.error("TriG graph blocks are not supported", start)
        self.error(f"unexpected character {lexeme!r}", start)


class _Parser:
    def __init__(self, text: str, base: Optional[str]):
        self.lexer = _Lexer(text)
        self.graph = Graph(base=base)
        self.base = base
        self.scope = new_scope()
        self.labelled: Dict[str, BlankNode] = {}
        self.anon_count = 0
        self.depth = 0
        self.token = self.lexer.next_token()

    def _error(self, message: str, token: Optional[_Token] = None):
        self.lexer.error(message, (token or self.token).offset)

    def _next(self) -> _Token:
        current = self.token
        self.token = self.lexer.next_token()
        return current

    def _expect_punct(self, value: str) -> None:
        if self.token.kind != "punct" or self.token.value != value:
            self._error(f"expected {value!r}, found {self._describe(self.token)}")
        self._next()

    def _open(self, opener: str) -> None:
        """Consume '[' or '(', keeping the parser's recursion within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            self._error(f"more than {MAX_NESTING} nested '[' or '('")
        self._expect_punct(opener)
        self.depth += 1

    @staticmethod
    def _describe(token: _Token) -> str:
        if token.kind == "eof":
            return "end of input"
        return repr(token.value)

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

    def _iri(self, token: _Token) -> Iri:
        """Resolve an 'iriref' or 'pname' token already consumed."""
        name = f"<{token.value}>" if token.kind == "iriref" else "%s:%s" % token.value
        try:
            return iri_resolve(self.graph.prefixes, name, self.base)
        except (UnknownPrefixError, MissingBaseError) as exc:
            self._error(str(exc), token)

    def parse(self) -> Graph:
        while self.token.kind != "eof":
            if self.token.kind == "word":
                word = str(self.token.value)
                if word == "@prefix" or word.lower() == "prefix":
                    self._directive_prefix(sparql=not word.startswith("@"))
                    continue
                if word == "@base" or word.lower() == "base":
                    self._directive_base(sparql=not word.startswith("@"))
                    continue
            self._triples()
            self._expect_punct(".")
        return self.graph

    def _directive_prefix(self, sparql: bool) -> None:
        self._next()
        if self.token.kind != "pname":
            self._error("expected prefix label ending in ':'")
        label, local = self.token.value
        if local:
            self._error("prefix label must end with ':'")
        self._next()
        if self.token.kind != "iriref":
            self._error("expected namespace IRI")
        self.graph.bind(label, self._iri(self._next()).value)
        if not sparql:
            self._expect_punct(".")

    def _directive_base(self, sparql: bool) -> None:
        self._next()
        if self.token.kind != "iriref":
            self._error("expected base IRI")
        self.base = self._iri(self._next()).value
        self.graph.base = self.base
        if not sparql:
            self._expect_punct(".")

    def _triples(self) -> None:
        if self.token.kind == "punct" and self.token.value == "[":
            subject = self._bnode_property_list()
            if self.token.kind == "punct" and self.token.value == ".":
                return  # bare [ ... ] . statement
            self._predicate_object_list(subject)
            return
        subject = self._subject()
        self._predicate_object_list(subject)

    def _subject(self) -> Term:
        t = self.token
        if t.kind in ("iriref", "pname"):
            return self._iri(self._next())
        if t.kind == "bnode_label":
            self._next()
            return self._labelled_bnode(str(t.value))
        if t.kind == "punct" and t.value == "(":
            return self._collection()
        self._error(f"expected subject, found {self._describe(t)}")

    def _verb(self) -> Iri:
        t = self.token
        if t.kind == "word" and t.value == "a":
            self._next()
            return iri(vocab.RDF_TYPE)
        if t.kind in ("iriref", "pname"):
            return self._iri(self._next())
        self._error(f"expected predicate, found {self._describe(t)}")
    def _predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self.token.kind == "punct" and self.token.value == ";":
                self._next()
                # Trailing ';' before '.' or ']' is legal.
                while self.token.kind == "punct" and self.token.value == ";":
                    self._next()
                if self.token.kind == "punct" and self.token.value in (".", "]"):
                    return
                continue
            return

    def _object_list(self, subject: Term, predicate: Iri) -> None:
        while True:
            obj = self._object()
            self.graph.add(Triple(subject, predicate, obj))
            if self.token.kind == "punct" and self.token.value == ",":
                self._next()
                continue
            return

    def _object(self) -> Term:
        t = self.token
        if t.kind == "punct" and t.value == "[":
            return self._bnode_property_list()
        if t.kind == "punct" and t.value == "(":
            return self._collection()
        if t.kind == "string":
            return self._string_literal()
        if t.kind == "number":
            self._next()
            lexical, datatype = t.value
            return Literal(lexical, datatype=datatype)
        if t.kind == "boolean":
            self._next()
            return Literal(str(t.value), datatype=vocab.XSD_BOOLEAN)
        return self._subject()

    def _string_literal(self) -> Literal:
        t = self._next()
        lexical = str(t.value)
        if self.token.kind == "lang":
            lang = str(self._next().value)
            return Literal(lexical, language=lang)
        if self.token.kind == "punct" and self.token.value == "^^":
            self._next()
            if self.token.kind not in ("iriref", "pname"):
                self._error("expected datatype IRI after '^^'")
            return Literal(lexical, datatype=self._iri(self._next()).value)
        return Literal(lexical, datatype=vocab.XSD_STRING)

    def _bnode_property_list(self) -> BlankNode:
        self._open("[")
        node = self._fresh_bnode()
        if not (self.token.kind == "punct" and self.token.value == "]"):
            self._predicate_object_list(node)
        self._expect_punct("]")
        self.depth -= 1
        return node

    def _collection(self) -> Term:
        self._open("(")
        items: List[Term] = []
        while not (self.token.kind == "punct" and self.token.value == ")"):
            if self.token.kind == "eof":
                self._error("unterminated collection")
            items.append(self._object())
        self._next()
        self.depth -= 1
        if not items:
            return iri(vocab.RDF_NIL)
        head = self._fresh_bnode()
        current = head
        for i, item in enumerate(items):
            self.graph.add(Triple(current, iri(vocab.RDF_FIRST), item))
            if i + 1 < len(items):
                nxt = self._fresh_bnode()
                self.graph.add(Triple(current, iri(vocab.RDF_REST), nxt))
                current = nxt
            else:
                self.graph.add(Triple(current, iri(vocab.RDF_REST), iri(vocab.RDF_NIL)))
        return head


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


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


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
            return f'"{_escape_string(lex)}"@{term.language}'
        dt = term.datatype
        if dt == vocab.XSD_INTEGER and _INT_SHORT_RE.fullmatch(lex):
            return lex
        if dt == vocab.XSD_DECIMAL and _DECIMAL_SHORT_RE.fullmatch(lex):
            return lex
        if dt == vocab.XSD_BOOLEAN and lex in ("true", "false"):
            return lex
        if dt is None or dt == vocab.XSD_STRING:
            return f'"{_escape_string(lex)}"'
        dt_short = compress(dt)
        dt_text = dt_short if dt_short is not None else f"<{dt}>"
        return f'"{_escape_string(lex)}"^^{dt_text}'

    lines: List[str] = []
    for label, ns in sorted(graph.prefixes.items()):
        lines.append(f"@prefix {label}: <{ns}> .")
    if lines:
        lines.append("")
    for t in sorted(graph.triples, key=triple_sort_key):
        lines.append(f"{render(t.subject)} {render(t.predicate)} {render(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")
