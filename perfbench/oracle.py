"""Verdict oracle: checks each request's exit code and report against its answer.

Answers come from the generator's answer file, never from provalign. The
fixture gate replays the bundled fixtures' hand-pinned verdicts before any
timing starts.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from typing import Callable, Dict, List

OWL = "http://www.w3.org/2002/07/owl#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
PROV = "http://www.w3.org/ns/prov#"

PREDICATE_IRIS = {
    "equivalent-class": OWL + "equivalentClass",
    "sub-class-of": RDFS + "subClassOf",
    "sub-property-of": RDFS + "subPropertyOf",
}
_PREDICATE_NAMES = {v: k for k, v in PREDICATE_IRIS.items()}
_PREFIXES = {"owl": OWL, "rdfs": RDFS, "rdf": RDF}
_TRIPLE = re.compile(r'^(_:\S+) (\S+) (<[^>]*>|\S+:\S*|"(?:[^"\\]|\\.)*") \.$')


def load_answers(path: str) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _json_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_consistency(path: str, answer: dict) -> List[str]:
    doc = _json_report(path)
    problems = []
    clashing = sorted({f["individual"] for f in doc["findings"]})
    if clashing != answer["clashing"]:
        problems.append(f"clashing individuals {clashing} != planted {answer['clashing']}")
    if any(not f["traces"] for f in doc["findings"]):
        problems.append("a clash has no derivation trace")
    return problems


def _check_coherence(path: str, answer: dict) -> List[str]:
    doc = _json_report(path)
    problems = []
    unsat = sorted(f["unsatisfiable_class"] for f in doc["findings"] if "unsatisfiable_class" in f)
    if unsat != answer["unsatisfiable"]:
        problems.append(f"unsatisfiable {unsat} != planted {answer['unsatisfiable']}")
    if doc["counts"]["undetermined"]:
        problems.append(f"{doc['counts']['undetermined']} undetermined classes")
    if doc["counts"]["probed_classes"] != answer["probed_classes"]:
        problems.append(f"probed {doc['counts']['probed_classes']} != {answer['probed_classes']} classes")
    return problems


def _check_all(path: str, answer: dict) -> List[str]:
    doc = _json_report(path)
    checks = {d["check"]: d for d in doc["checks"]}
    problems = []
    unmapped = sorted([f["term"], f["category"]] for f in checks["totality"]["findings"])
    if unmapped != [list(u) for u in answer["unmapped"]]:
        problems.append(f"unmapped {unmapped} != planted {answer['unmapped']}")
    for name in ("coherence", "consistency"):
        if checks[name]["status"] != "pass":
            problems.append(f"{name} is {checks[name]['status']}, expected pass")
    subs = sorted([f["new_subsumption"]["sub"], f["new_subsumption"]["super"],
                   f["new_subsumption"]["signature"]]
                  for f in checks["conservativity"]["findings"] if "new_subsumption" in f)
    if subs != [list(s) for s in answer["new_subsumptions"]]:
        problems.append(f"new subsumptions {subs} != planted {answer['new_subsumptions']}")
    if checks["conservativity"]["counts"]["new_equivalences"]:
        problems.append("unexpected new equivalences")
    return problems


def _expand(term: str) -> str:
    if term.startswith("<"):
        return term[1:-1]
    if term.startswith('"'):
        return term[1:-1]
    prefix, _, local = term.partition(":")
    return _PREFIXES[prefix] + local


def _check_materialize(path: str, answer: dict) -> List[str]:
    nodes: Dict[str, Dict[str, str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("@prefix"):
                continue
            match = _TRIPLE.match(line)
            if match is None:
                return [f"unexpected Turtle line {line!r}"]
            node, pred, obj = match.groups()
            nodes.setdefault(node, {})[_expand(pred)] = _expand(obj)
    found = sorted([_PREDICATE_NAMES.get(n.get(OWL + "annotatedProperty"), "?"),
                    n.get(OWL + "annotatedSource"), n.get(OWL + "annotatedTarget"),
                    n.get(RDFS + "comment") != "asserted mapping"] for n in nodes.values())
    if found != [list(m) for m in answer["mappings"]]:
        missing = len({tuple(m) for m in answer["mappings"]} - {tuple(f) for f in found})
        return [f"{len(found)} mappings, {len(answer['mappings'])} planted, {missing} missing"]
    return []


def _check_sssom(path: str, answer: dict) -> List[str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(l for l in lines if not l.startswith("#")))))
    expected = sorted([s, PREDICATE_IRIS[p], o] for s, p, o in answer["rows"])
    problems = []
    if sorted(r[:3] for r in rows[1:]) != expected:
        problems.append(f"{len(rows) - 1} rows, {len(expected)} planted")
    if not any(l.startswith(f"# {answer['complex']} complex mapping") for l in lines):
        problems.append(f"complex mapping count is not {answer['complex']}")
    return problems


def _check_suggest(path: str, answer: dict) -> List[str]:
    doc = _json_report(path)
    found = sorted([f["property"], f["match_kind"]] for f in doc["findings"])
    if found != [list(c) for c in answer["candidates"]]:
        return [f"candidates {found} != planted {answer['candidates']}"]
    return []


CHECKS: Dict[str, Callable[[str, dict], List[str]]] = {
    "check-consistency": _check_consistency,
    "check-coherence": _check_coherence,
    "check-all": _check_all,
    "materialize": _check_materialize,
    "export-sssom": _check_sssom,
    "suggest": _check_suggest,
}


def check(kind: str, exit_code: int, out: str, answer: dict) -> List[str]:
    """Problems with one request's outcome; an empty list means a correct verdict."""
    if exit_code != answer["exit"]:
        return [f"exit {exit_code}, expected {answer['exit']}"]
    if not os.path.exists(out):
        return ["no report written"]
    try:
        return CHECKS[kind](out, answer)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


# ---------------------------------------------------------------------------
# Fixture gate
# ---------------------------------------------------------------------------

INSTANCES = ("fig7", "fig9", "fig10", "fig11", "fig12", "example4", "revision")
PROV_ONLY_CLASH = {"example4", "revision"}
ALIGNMENT_ONLY_CLASH = {"fig9", "fig11"}


def fixture_gate(run: Callable[[List[str]], int], fixtures: str, scratch: str) -> List[str]:
    """Hand-pinned verdicts on the bundled fixtures, as a list of problems."""
    fx = lambda name: os.path.join(fixtures, name)  # noqa: E731
    stack = ["--source", fx("prov-mini.ttl"), "--target", fx("bfo-mini.ttl"),
             "--target", fx("cco-mini.ttl"), "--target", fx("ro-mini.ttl"),
             "--alignment", fx("align-paper.ttl")]
    out = os.path.join(scratch, "gate.out")
    problems = []
    clash: Dict[str, set] = {"prov": set(), "aligned": set()}
    for label, models in (("prov", ["--source", fx("prov-mini.ttl")]), ("aligned", stack)):
        for name in INSTANCES:
            code = run(["check-consistency", *models, "--instances", fx(f"instances/{name}.ttl"),
                        "--format", "json", "--out", out])
            if code == 1:
                clash[label].add(name)
            elif code != 0:
                problems.append(f"gate: {label} {name} exited {code}")
    if clash["prov"] != PROV_ONLY_CLASH:
        problems.append(f"gate: PROV alone clashes on {sorted(clash['prov'])}")
    if clash["aligned"] - clash["prov"] != ALIGNMENT_ONLY_CLASH:
        problems.append(f"gate: alignment-only clashes on {sorted(clash['aligned'] - clash['prov'])}")
    code = run(["check-coherence", "--target", fx("bfo-mini.ttl"),
                "--alignment", fx("align-plan-incoherent.ttl"), "--format", "json", "--out", out])
    unsat = [f.get("unsatisfiable_class") for f in _json_report(out)["findings"]] if code == 1 else []
    if unsat != [PROV + "Plan"]:
        problems.append(f"gate: align-plan-incoherent gives exit {code}, unsatisfiable {unsat}")
    os.remove(out)
    return problems

