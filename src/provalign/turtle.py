"""RDF Turtle parsing and serialization.

The parser reads a document in two flat passes: one regular-expression
``findall`` cuts the whole text into token lexemes, and one loop drives the
grammar over them with an explicit stack of the open '[ ]' and '( )'. It
covers the Turtle subset used by OWL ontologies and alignment files:
prefix/base directives (both '@' and SPARQL spellings), prefixed names, IRI
references, blank node labels and anonymous property lists, collections, 'a',
predicate-object and object lists, string/typed/language literals, numeric
and boolean shorthand, and comments. Quoted triples and TriG blocks are hard
errors: silently dropping triples would corrupt verification verdicts
downstream. So is nesting '[ ]' and '( )' more than MAX_NESTING levels deep,
which later stages walk recursively.

Serialization is semantic, not byte-preserving: output re-parses to a graph
isomorphic to the input, with deterministic ordering.
"""

from __future__ import annotations

import functools
import itertools
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
# Whitespace and comments; a comment ends at U+000D or U+000A, as in Turtle 1.1.
_SKIP = r"[ \t\r\n]*(?:#[^\r\n]*[ \t\r\n]*)*"
# The segmenter: the alternatives in one unnamed group, so that one findall
# returns every token's lexeme. A permissive body also takes its terminator
# when one follows, so a terminated token stays one lexeme.
_TERMINATORS = {"iriref": ">?", "long_string": "(?:\"\"\"|''')?", "short_string": "[\"']?"}
_SEGMENT_SOURCE = _SKIP + "(" + "|".join(f"(?:{pattern}){_TERMINATORS.get(kind, '')}"
                                         for kind, pattern in _TOKEN_KINDS) + ")"


def _compile(source: str, ascii: bool) -> "re.Pattern[str]":
    # On ASCII text a class with the letters from U+00C0 up matches what its
    # ASCII part matches, so the ASCII twin accepts exactly the same tokens.
    # It compiles in a millisecond or two, the wide pattern in tens: that one
    # waits for the first document that needs it.
    return re.compile(source.replace("\u00c0-\uffff", ""), re.ASCII) if ascii else re.compile(source)


# _segment_re(text.isascii()) cuts a document: one pattern per flag, compiled
# when the first document that needs it arrives.
_segment_re = functools.cache(lambda ascii: _compile(_SEGMENT_SOURCE, ascii))
_PUNCT = frozenset(".;,[]()") | {"^^"}
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|[\s\S]?)")
_LOCAL_ESCAPE_RE = re.compile(r"\\([\s\S]?)")

_RDF_TYPE = iri(vocab.RDF_TYPE)
_RDF_FIRST = iri(vocab.RDF_FIRST)
_RDF_REST = iri(vocab.RDF_REST)
_RDF_NIL = iri(vocab.RDF_NIL)

# Grammar states: what the current token is read as. The first four each
# yield a term: an object, a collection item, a statement's subject, or the
# blank node that a ']' closes.
_OBJECT, _ITEM, _SUBJECT, _CLOSE, _AFTER_OBJECT, _VERB, _DOT = range(7)


def _unescape_local(local: str) -> str:
    """Drop the backslash of each '\\' escape in a local name or label."""
    return _LOCAL_ESCAPE_RE.sub(r"\1", local) if "\\" in local else local


class _Parser:
    """One findall for the token lexemes, then one grammar loop over them.

    A token is an index into ``tokens``; its kind follows from its lexeme.
    A token is decoded only when the grammar reaches it, so a syntax error
    wins over a bad escape further on. Offsets are not kept: a diagnostic
    scans the text again up to its token.
    """

    def __init__(self, text: str, base: Optional[str]):
        self.text = text
        self.segment_re = _segment_re(text.isascii())
        self.tokens: List[str] = self.segment_re.findall(text)
        self.graph = Graph(base=base)
        self.base = base
        # Labelled blank nodes keep their text in one scope; anonymous ones,
        # named b0, b1, ..., take a second, so no label can name one of them.
        self.scope, self.anon_scope = new_scope(), new_scope()
        self.labelled: Dict[str, BlankNode] = {}
        # Resolved names by lexeme: prefixed names under the current prefixes,
        # IRI references under the current base. A directive clears it.
        self.terms: Dict[str, Iri] = {}
        self.anon_count = 0

    # -- tokens ------------------------------------------------------------

    def _error(self, message: str, i: int, delta: int = 0):
        """Raise a diagnostic ``delta`` code points into token ``i``."""
        text = self.text
        offset = next(itertools.islice(self.segment_re.finditer(text), i, None)).start(1) + delta
        # Columns count code points, so a '\r' before the offset is a column.
        line_start = text.rfind("\n", 0, offset) + 1
        line = text.count("\n", 0, line_start) + 1
        raise TurtleParseError([ParseDiagnostic(line, offset - line_start + 1, message)])

    def _unescape(self, body: str, i: int, delta: int, table: Dict[str, str]) -> str:
        """Decode the escapes of a body that starts ``delta`` into token ``i``:
        ``\\u`` and ``\\U`` everywhere, other characters through ``table``.
        IRI references pass an empty table."""
        if "\\" not in body:
            return body

        def decode(m: "re.Match[str]") -> str:
            esc = m.group(1)
            if len(esc) > 1:
                if int(esc[1:], 16) > 0x10FFFF:
                    self._error(f"escape \\{esc} is beyond U+10FFFF", i, delta + m.start())
                return chr(int(esc[1:], 16))
            if esc in ("u", "U"):
                self._error(f"bad \\{esc} escape", i, delta + m.end())
            if esc not in table:
                where = "" if table else " in IRI reference"
                self._error(f"unknown escape \\{esc}{where}", i, delta + m.start() + 1)
            return table[esc]

        return _ESCAPE_RE.sub(decode, body)

    def _body(self, i: int, opening: str, close: str, table: Dict[str, str]) -> str:
        """The decoded body of IRI or string token ``i``, whose ``close`` may be missing."""
        tok = self.tokens[i]
        end = len(tok) - len(close)
        closed = end >= len(opening) and tok.endswith(close)
        if closed and "\\" not in tok:
            return tok[len(opening):end]
        # A closing character that an odd run of backslashes escapes is body.
        closed = closed and (end - len(tok[:end].rstrip("\\"))) % 2 == 0
        value = self._unescape(tok[len(opening):end if closed else None], i, len(opening), table)
        if not closed:
            if close != ">":
                self._error("unterminated literal", i)
            end = next(itertools.islice(self.segment_re.finditer(self.text), i, None)).end(1)
            if end == len(self.text):
                self._error("unterminated IRI reference", i)
            self._error(f"character {self.text[end]!r} not allowed inside IRI reference", i, len(tok))
        return value

    def _token(self, i: int) -> Tuple[str, object]:
        """Token i's kind and value, as the grammar reads them; a lexical error in it raises here."""
        tok = self.tokens[i]
        c = tok[:1]
        if c == '"' or c == "'":
            quote = c * 3 if tok.startswith(c * 3) else c
            return "string", self._body(i, quote, quote, _ESCAPES)
        if c == "<" and tok != "<<":
            return "iriref", self._body(i, "<", ">", {})
        if not tok:
            return "eof", None
        if tok in _PUNCT:
            return tok, tok
        if ":" in tok and c != "_":
            return "pname", tok
        if c.isdecimal() or c in "+-." and len(tok) > 1:
            return "number", (tok, vocab.XSD_DOUBLE if "e" in tok or "E" in tok
                              else vocab.XSD_DECIMAL if "." in tok else vocab.XSD_INTEGER)
        if "A" <= c <= "Z" or "a" <= c <= "z" or "\u00c0" <= c <= "\uffff":
            return ("boolean" if tok == "true" or tok == "false" else "word"), tok
        if c == "@":
            if tok == "@":
                self._error("bad @ directive or language tag", i)
            return ("word", tok) if tok == "@prefix" or tok == "@base" else ("lang", tok[1:])
        if tok.startswith("_:"):
            label = _unescape_local(tok[2:])
            if not label:
                self._error("empty blank node label", i)
            return "bnode_label", label
        if c == "<":
            self._error("quoted triples are not supported", i)
        if c == "{" or c == "}":
            self._error("TriG graph blocks are not supported", i)
        self._error(f"unexpected character {tok!r}", i)

    @staticmethod
    def _describe(kind: str, value: object) -> str:
        if kind == "eof":
            return "end of input"
        if kind == "pname":
            label, local = value.split(":", 1)
            return repr((label, _unescape_local(local)))
        return repr(value)

    def _expected(self, punct: str, i: int) -> None:
        kind, value = self._token(i)
        self._error(f"expected {punct!r}, found {self._describe(kind, value)}", i)

    def _resolve(self, i: int) -> Iri:
        """The IRI that pname or IRI reference token ``i`` names."""
        tok = self.tokens[i]
        term = self.terms.get(tok)
        if term is None:
            kind, value = self._token(i)
            name = _unescape_local(value) if kind == "pname" else f"<{value}>"
            try:
                term = iri_resolve(self.graph.prefixes, name, self.base)
            except (UnknownPrefixError, MissingBaseError) as exc:
                self._token(i + 1)  # the next token is read first, and so is its lexical error
                self._error(str(exc), i)
            self.terms[tok] = term
        return term

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Graph:
        tokens, terms, add = self.tokens, self.terms, self.graph.triples.add
        # Each open '[' or '(' saves the state, subject, predicate and
        # collection items it interrupts.
        stack: List[tuple] = []
        state, subject, predicate, items = _SUBJECT, None, None, None
        i = 0
        while True:
            tok = tokens[i]
            if state <= _CLOSE:
                if state == _CLOSE:
                    if tok != "]":
                        self._expected("]", i)
                    i += 1
                    term = subject
                    state, subject, predicate, items = stack.pop()
                elif (term := terms.get(tok)) is not None:
                    i += 1
                elif tok == "[" or tok == "(":
                    if len(stack) == MAX_NESTING:
                        self._error(f"more than {MAX_NESTING} nested '[' or '('", i)
                    stack.append((state, subject, predicate, items))
                    i += 1
                    if tok == "[":
                        subject = self._fresh_bnode()
                        state = _CLOSE if tokens[i] == "]" else _VERB
                    else:
                        items, state = [], _ITEM
                    continue
                elif tok == ")" and state == _ITEM:
                    i += 1
                    term = self._collection(items)
                    state, subject, predicate, items = stack.pop()
                elif state == _SUBJECT and not tok:
                    return self.graph
                elif state == _SUBJECT and (tok == "@prefix" or tok == "@base" or tok.lower() in ("prefix", "base")):
                    i = self._directive(i)
                    continue
                else:
                    term, i = self._term(i, state)
                if state == _OBJECT:
                    add(new_triple(subject, predicate, term))
                    state = _AFTER_OBJECT
                elif state == _ITEM:
                    items.append(term)
                else:
                    subject = term
                    # '[ ... ] .' is a statement of its own.
                    state = _DOT if tok == "]" and tokens[i] == "." else _VERB
            elif state == _AFTER_OBJECT:
                if tok == ",":
                    i += 1
                    state = _OBJECT
                    continue
                if tok == ";":
                    i += 1
                    while tokens[i] == ";":
                        i += 1
                    # A trailing ';' before '.' or ']' is legal.
                    if tokens[i] != "." and tokens[i] != "]":
                        state = _VERB
                        continue
                state = _CLOSE if stack else _DOT
            elif state == _VERB:
                predicate = terms.get(tok) or (_RDF_TYPE if tok == "a" else self._term(i, _VERB)[0])
                i += 1
                state = _OBJECT
            else:  # _DOT
                if tok != ".":
                    self._expected(".", i)
                i += 1
                state = _SUBJECT

    def _directive(self, i: int) -> int:
        """Read the PREFIX or BASE directive at token ``i``, in either spelling; return the index after it."""
        word = self.tokens[i]
        kind, value = self._token(i + 1)
        if word.lower().endswith("prefix"):
            if kind != "pname":
                self._error("expected prefix label ending in ':'", i + 1)
            label, local = value.split(":", 1)
            if _unescape_local(local):
                self._error("prefix label must end with ':'", i + 1)
            i += 1
            if self._token(i + 1)[0] != "iriref":
                self._error("expected namespace IRI", i + 1)
            self.graph.bind(label, self._resolve(i + 1).value)
        elif kind != "iriref":
            self._error("expected base IRI", i + 1)
        else:
            self.base = self.graph.base = self._resolve(i + 1).value
        self.terms.clear()
        i += 2
        if word[0] == "@":
            if self.tokens[i] != ".":
                self._expected(".", i)
            i += 1
        return i

    def _term(self, i: int, state: int) -> Tuple[Term, int]:
        """The term at token ``i`` in subject, verb, object or item position, and the index after it."""
        kind, value = self._token(i)
        if kind == "pname" or kind == "iriref":
            return self._resolve(i), i + 1
        if state == _VERB:
            self._error(f"expected predicate, found {self._describe(kind, value)}", i)
        if kind == "bnode_label":
            node = self.labelled.get(value)
            if node is None:
                node = self.labelled[value] = BlankNode(value, self.scope)
            return node, i + 1
        if state != _SUBJECT:
            if kind == "string":
                return self._literal(value, i + 1)
            if kind == "number":
                return Literal(value[0], datatype=value[1]), i + 1
            if kind == "boolean":
                return Literal(value, datatype=vocab.XSD_BOOLEAN), i + 1
            if kind == "eof" and state == _ITEM:
                self._error("unterminated collection", i)
        self._error(f"expected subject, found {self._describe(kind, value)}", i)

    def _literal(self, lexical: str, i: int) -> Tuple[Literal, int]:
        """A string literal whose language tag or datatype, if it has one, starts at token ``i``."""
        tok = self.tokens[i]
        if tok[:1] == "@":
            kind, value = self._token(i)
            if kind == "lang":
                return Literal(lexical, language=value), i + 1
        elif tok == "^^":
            if self.tokens[i + 1] not in self.terms and self._token(i + 1)[0] not in ("iriref", "pname"):
                self._error("expected datatype IRI after '^^'", i + 1)
            return Literal(lexical, datatype=self._resolve(i + 1).value), i + 2
        return Literal(lexical, datatype=vocab.XSD_STRING), i

    def _fresh_bnode(self) -> BlankNode:
        node = BlankNode(f"b{self.anon_count}", self.anon_scope)
        self.anon_count += 1
        return node

    def _collection(self, items: List[Term]) -> Term:
        """The head of a collection of ``items``; its cells come after them."""
        if not items:
            return _RDF_NIL
        add, cells = self.graph.triples.add, [self._fresh_bnode() for _ in items]
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

    @functools.cache  # within this call: an IRI recurs on many triples
    def iri_text(value: str) -> str:
        """The IRI as a prefixed name where a prefix fits it, else as ``<value>``."""
        best: Optional[Tuple[str, str]] = None
        for label, ns in namespaces:
            if value.startswith(ns):
                local = value[len(ns):]
                if local and (not _LOCAL_OK_RE.fullmatch(local) or local.endswith(".")):
                    continue
                if best is None or len(ns) > len(graph.prefixes[best[0]]):
                    best = (label, local)
        return f"<{value}>" if best is None else f"{best[0]}:{best[1]}"

    bnode_names: Dict[BlankNode, str] = {}

    def render(term: Term) -> str:
        if isinstance(term, Iri):
            return iri_text(term.value)
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
        return f'"{lex.translate(_STRING_ESCAPES)}"^^{iri_text(dt)}'

    lines: List[str] = []
    for label, ns in sorted(graph.prefixes.items()):
        lines.append(f"@prefix {label}: <{ns}> .")
    if lines:
        lines.append("")
    for t in sorted(graph.triples, key=triple_sort_key):
        lines.append(f"{render(t.subject)} {render(t.predicate)} {render(t.object)} .")
    return "\n".join(lines) + ("\n" if lines else "")
