"""Command-line entry point with CI-friendly exit codes.

Exit codes: 0 when the requested check passes (no findings), 1 when the
check produced findings (unmapped terms, clashes, violations), 2 on usage,
load or internal errors. Reports are deterministic: identical inputs and flags
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import threading
from functools import cache, cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import vocab
from .alignment import Alignment, NamespaceOverlapError, _group, extract_mappings, export_sssom
from .checks import (
    alignment_stats,
    check_coherence,
    check_conservativity,
    check_consistency,
    check_totality,
    report_text,
)
from .matcher import UnknownPropertyError, suggest_property_mappings
from .owl import NamedClass, NamedProperty, OntologyModel, OwlError, extract_axioms, merge_models
from .rdf import BlankNode, Graph, Literal, iri, new_scope
from .reasoner import FactCapExceededError, Taxonomy, _mutual, entailed_taxonomy
from .turtle import TurtleParseError, parse_turtle, serialize_turtle


class UsageError(Exception):
    pass


DEFAULT_FACT_CAP = 1_000_000
FACT_CAP_ENV = "PROVALIGN_FACT_CAP"


def _at_least(floor: int):
    """An argparse type: an integer no smaller than ``floor``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="provalign",
        description="Verify ontology alignments: totality, coherence, consistency, conservativity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = (
        "check-totality", "check-coherence", "check-consistency",
        "check-conservativity", "check-all", "suggest", "materialize",
        "export-sssom", "stats",
    )
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--source", action="append", default=[], metavar="PATH")
        p.add_argument("--target", action="append", default=[], metavar="PATH")
        p.add_argument("--alignment", action="append", default=[], metavar="PATH")
        p.add_argument("--instances", metavar="PATH")
        p.add_argument("--source-ns", action="append", default=[], metavar="IRI")
        p.add_argument("--target-ns", action="append", default=[], metavar="IRI")
        p.add_argument("--skolem-depth", type=_at_least(0), default=3, metavar="N")
        p.add_argument("--fact-cap", type=_at_least(1), default=None, metavar="N")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH")
        if name == "suggest":
            p.add_argument("--property", required=True, metavar="IRI")
    return parser


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_turtle(text)
    except TurtleParseError as exc:
        details = "; ".join(str(d) for d in exc.diagnostics)
        raise UsageError(f"parse failure in {path}: {details}") from exc


def _require(args, *roles: str) -> None:
    missing = [r for r in roles if not getattr(args, r.replace("-", "_"))]
    if missing:
        raise UsageError(f"{args.subcommand} requires --" + ", --".join(missing))


def _fact_cap(args) -> int:
    if args.fact_cap is not None:
        return args.fact_cap
    env = os.environ.get(FACT_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise UsageError(f"{FACT_CAP_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise UsageError(f"{FACT_CAP_ENV} must be at least 1, got {cap}")
        return cap
    return DEFAULT_FACT_CAP


class _Inputs:
    """The files named on one command line, each parsed and extracted at most once.

    Every role is loaded on first use, so usage and load errors surface in the
    order the subcommand asks for its inputs. A record lives for one ``run``.
    """

    def __init__(self, args) -> None:
        self.args = args
        self._models: Dict[str, OntologyModel] = {}

    def models(self, paths: Sequence[str]) -> List[OntologyModel]:
        for p in paths:
            if p not in self._models:
                graph = _load_graph(p)
                try:
                    self._models[p] = extract_axioms(graph, source_label=os.path.basename(p))
                except OwlError as exc:
                    raise UsageError(f"OWL extraction failure in {p}: {exc}") from exc
        return [self._models[p] for p in paths]

    @cached_property
    def source(self) -> OntologyModel:
        return merge_models(self.models(self.args.source), source_label="source")

    @cached_property
    def targets(self) -> List[OntologyModel]:
        return self.models(self.args.target)

    @cached_property
    def alignment(self) -> Alignment:
        _require(self.args, "alignment", "source-ns", "target-ns")
        merged = merge_models(self.models(self.args.alignment), source_label="alignment")
        try:
            return extract_mappings(merged, self.args.source_ns, self.args.target_ns)
        except NamespaceOverlapError as exc:
            raise UsageError(f"cannot read the mappings in {', '.join(self.args.alignment)}: {exc}") from exc

    @cached_property
    def stack(self) -> List[OntologyModel]:
        """Source, target and alignment models, unmerged."""
        models = self.models(self.args.source) + self.targets + self.models(self.args.alignment)
        if not models:
            raise UsageError(f"{self.args.subcommand} needs at least one "
                             "--source/--target/--alignment file")
        return models

    @cached_property
    def instances(self) -> OntologyModel:
        """The instance data; without any, consistency trivially passes."""
        if not self.args.instances:
            return OntologyModel(source_label="instances")
        return self.models([self.args.instances])[0]


def _write(args, payload: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _emit_report(args, doc: dict) -> int:
    if args.format == "json":
        _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        if "checks" in doc:
            payload = "".join(report_text(d) + "\n" for d in doc["checks"])
            payload += f"overall: {doc['status']}\n"
        else:
            payload = report_text(doc)
        _write(args, payload)
    return {"pass": 0, "fail": 1, "error": 2}[doc["status"]]


def _doc_totality(inp: _Inputs) -> dict:
    _require(inp.args, "source")
    return check_totality(inp.source, inp.targets, inp.alignment).as_dict()


def _doc_coherence(inp: _Inputs) -> dict:
    return check_coherence(inp.stack, skolem_depth=inp.args.skolem_depth,
                           fact_cap=_fact_cap(inp.args)).as_dict()


def _doc_consistency(inp: _Inputs) -> dict:
    _require(inp.args, "instances")
    return _consistency(inp)


def _consistency(inp: _Inputs) -> dict:
    return check_consistency(inp.stack, inp.instances, skolem_depth=inp.args.skolem_depth,
                             fact_cap=_fact_cap(inp.args)).as_dict()


def _doc_conservativity(inp: _Inputs) -> dict:
    _require(inp.args, "source")
    return check_conservativity(inp.source, inp.targets, inp.alignment).as_dict()


def _doc_check_all(inp: _Inputs) -> dict:
    docs = [_doc_totality(inp), _doc_coherence(inp), _consistency(inp),
            _doc_conservativity(inp)]
    docs.sort(key=lambda d: d["check"])
    status = "pass"
    if any(d["status"] == "error" for d in docs):
        status = "error"
    elif any(d["status"] == "fail" for d in docs):
        status = "fail"
    return {"check": "check-all", "status": status, "checks": docs}


def _doc_suggest(inp: _Inputs) -> dict:
    _require(inp.args, "source", "target")
    try:
        result = suggest_property_mappings(inp.args.property, inp.source, inp.targets,
                                           inp.alignment)
    except UnknownPropertyError as exc:
        raise UsageError(str(exc)) from exc
    return result.as_dict()


def _doc_stats(inp: _Inputs) -> dict:
    alignment = inp.alignment
    totality = None
    if inp.args.source:
        totality = check_totality(inp.source, inp.targets, alignment)
    return alignment_stats(alignment, totality)


def _run_export_sssom(inp: _Inputs) -> int:
    _write(inp.args, export_sssom(inp.alignment))
    return 0


def _cross_pairs(taxonomy: Taxonomy, source_ns: List[str],
                 target_ns: List[str]) -> List[Tuple[str, str, str, str]]:
    """(predicate IRI, a, b, predicate) for each entailed pair across the two
    namespace groups: equivalent classes, equivalent properties, then the
    sub-class and sub-property pairs that are no equivalence, each sorted."""
    groups: Dict[Optional[str], Set[str]] = {"source": set(), "target": set(), None: set()}
    for name in taxonomy.names:
        groups[_group(name, source_ns, target_ns)].add(name)
    subs = [p | q for p, q in zip(taxonomy.pairs(groups["source"], groups["target"]),
                                  taxonomy.pairs(groups["target"], groups["source"]))]  # classes, properties
    equivs = [_mutual(pairs) for pairs in subs]
    out = [(vocab.OWL_EQUIVALENT_CLASS, a, b, "equivalent-class") for a, b in sorted(equivs[0])]
    out += [(vocab.OWL_EQUIVALENT_PROPERTY, a, b, "equivalent-property") for a, b in sorted(equivs[1])]
    out += [(vocab.RDFS_SUBCLASSOF, a, b, "sub-class-of") for a, b in sorted(subs[0])
            if (min(a, b), max(a, b)) not in equivs[0]]
    out += [(vocab.RDFS_SUBPROPERTYOF, a, b, "sub-property-of") for a, b in sorted(subs[1])
            if (min(a, b), max(a, b)) not in equivs[1]]
    return out


def _run_materialize(inp: _Inputs) -> int:
    """Write the alignment plus every entailed cross-namespace mapping as Turtle."""
    args = inp.args
    _require(args, "source", "alignment", "source-ns", "target-ns")
    models, alignment = inp.stack, inp.alignment
    taxonomy = entailed_taxonomy(models)
    named = (NamedClass, NamedProperty)
    asserted = {(m.predicate, m.subject.iri.value, m.object.iri.value) for m in alignment.mappings
                if m.is_simple() and isinstance(m.subject, named) and isinstance(m.object, named)}

    out = Graph(prefixes={"owl": vocab.OWL, "rdfs": vocab.RDFS, "rdf": vocab.RDF})
    scope = new_scope()
    for k, (predicate_iri, a, b, predicate) in enumerate(_cross_pairs(taxonomy, args.source_ns, args.target_ns)):
        derived = (predicate, a, b) not in asserted and (
            predicate not in ("equivalent-class", "equivalent-property")
            or (predicate, b, a) not in asserted)
        node = BlankNode(f"m{k}", scope)
        out.add_triple(node, iri(vocab.RDF_TYPE), iri(vocab.OWL_AXIOM))
        out.add_triple(node, iri(vocab.OWL_ANNOTATED_SOURCE), iri(a))
        out.add_triple(node, iri(vocab.OWL_ANNOTATED_PROPERTY), iri(predicate_iri))
        out.add_triple(node, iri(vocab.OWL_ANNOTATED_TARGET), iri(b))
        comment = "entailed by the asserted alignment" if derived else "asserted mapping"
        out.add_triple(node, iri(vocab.RDFS_COMMENT), Literal(comment))

    _write(args, serialize_turtle(out))
    return 0


_DOC_COMMANDS = {
    "check-totality": _doc_totality,
    "check-coherence": _doc_coherence,
    "check-consistency": _doc_consistency,
    "check-conservativity": _doc_conservativity,
    "check-all": _doc_check_all,
    "suggest": _doc_suggest,
    "stats": _doc_stats,
}


_PAUSE = threading.Lock()  # guards _paused: [runs in the pause, collector on before the first]
_paused = [0, False]


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    inputs = _Inputs(args)
    # A run's graph, index and closure are long-lived and acyclic: collector
    # passes would only rescan them, and reference counting frees them.
    with _PAUSE:
        if not _paused[0]:
            _paused[1] = gc.isenabled()
            gc.disable()
        _paused[0] += 1
    try:
        if args.subcommand == "export-sssom":
            return _run_export_sssom(inputs)
        if args.subcommand == "materialize":
            return _run_materialize(inputs)
        doc = _DOC_COMMANDS[args.subcommand](inputs)
        return _emit_report(args, doc)
    except (UsageError, FactCapExceededError) as exc:
        print(f"provalign: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means findings; anything unexpected is an internal error.
        message = " ".join(str(exc).splitlines())
        print(f"provalign: error: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 2
    finally:
        with _PAUSE:
            _paused[0] -= 1
            if not _paused[0] and _paused[1]:
                gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
