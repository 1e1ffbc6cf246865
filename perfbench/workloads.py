"""Seeded input generators for the three benchmark workloads.

Each generator writes Turtle files into a work directory and returns the
requests to run against them. Every request carries the answer the
generator planted, computed from its own construction and never by
provalign: the clashing individuals, the unsatisfiable classes, the unmapped
source terms, the new subsumptions, the entailed cross-namespace mappings,
the exported rows and the matcher candidates. ``write_answers`` stores those
answers in a file of their own, which the oracle reads back.

The request size is fixed per workload; the seed varies structure (tree
shapes, links, which terms are planted), so that medians and tails stay
comparable across seeds.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Set, Tuple

SRC = "https://example.org/perfbench/src/"
TGT = "https://example.org/perfbench/tgt/"

# prov-trace: activities per trace, traces per lap, planted misuses.
TRACE_ACTIVITIES = 150
TRACES = 4
PLANTED_TRACES = 2
MISUSES_PER_TRACE = 2

# coherence-ladder: target classes per stack, stacks per lap, planted classes.
LADDER_TARGET_CLASSES = 500
LADDERS = 3
PLANTED_UNSAT = 3

# ci-check-all: source classes, mapped source properties, individuals and
# links per property in each stack; stacks per lap.
CI_SOURCE_CLASSES = 100
CI_MAPPED_PROPERTIES = 6
CI_INDIVIDUALS = 300
CI_LINKS = 12
CI_STACKS = 2

PAPER_STACK = ("prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl")

HEADER = """@prefix rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs:  <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl:   <http://www.w3.org/2002/07/owl#> .
@prefix xsd:   <http://www.w3.org/2001/XMLSchema#> .
@prefix prov:  <http://www.w3.org/ns/prov#> .
@prefix skos:  <http://www.w3.org/2004/02/skos/core#> .
@prefix swrl:  <http://www.w3.org/2003/11/swrl#> .
@prefix sssom: <https://w3id.org/sssom/> .
@prefix s:     <https://example.org/perfbench/src/> .
@prefix t:     <https://example.org/perfbench/tgt/> .
@prefix v:     <https://example.org/perfbench/var#> .
"""


def _write(path: str, lines: List[str]) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(HEADER + "\n" + "\n".join(lines) + "\n")
    return path


def _request(rid: str, workdir: str, kind: str, argv: List[str], answer: dict) -> dict:
    out = os.path.join(workdir, rid + (".ttl.out" if kind == "materialize" else ".out"))
    files = sorted({argv[i + 1] for i, a in enumerate(argv)
                    if a in ("--source", "--target", "--alignment", "--instances")})
    return {"id": rid, "kind": kind, "argv": argv + ["--out", out], "out": out,
            "files": files, "answer": answer}


def _tree(roots: List[str], names: List[str], branching: int = 3) -> Dict[str, str]:
    """Complete tree in breadth-first order below the roots.

    Every seed gets the same shape, so a request's work does not swing with
    the seed; the seed picks which classes carry restrictions, mappings and
    plants.
    """
    nodes = roots + names
    return {name: nodes[i // branching] for i, name in enumerate(names)}


def _ancestors(parent: Dict[str, str], name: str) -> List[str]:
    out = []
    while name in parent:
        name = parent[name]
        out.append(name)
    return out


def _reified(source: str, predicate: str, target: str, comment: str, label: str = "") -> str:
    labelled = f"sssom:subject_label \"{label}\" ; " if label else ""
    return (f"[] a owl:Axiom ; owl:annotatedSource {source} ; owl:annotatedProperty {predicate} ;\n"
            f"    owl:annotatedTarget {target} ; {labelled}rdfs:comment \"{comment}\" .")


# ---------------------------------------------------------------------------
# prov-trace
# ---------------------------------------------------------------------------

def _prov_trace(path: str, rng: random.Random, ns: str, plant: bool) -> List[str]:
    """One connected workflow trace; returns the IRIs of the planted misuses.

    A misuse puts an entity in the subject position of prov:entity, as in the
    W3C hadUsage example (fig9): the entity becomes an entity influence, hence
    an occurrent, while prov:Entity sits under continuants.
    """
    n = TRACE_ACTIVITIES
    agents, places = max(2, n // 8), max(2, n // 10)
    lines = [f"@prefix : <{ns}> .", ""]
    for k in range(agents):
        lines.append(f":agent{k} a {'prov:Person' if k % 3 == 0 else 'prov:Agent'} .")
    for k in range(places):
        lines.append(f":place{k} a prov:Location .")
    entities: List[str] = []
    for i in range(n):
        lines.append(f":act{i} a prov:Activity ; prov:wasAssociatedWith :agent{rng.randrange(agents)} ;\n"
                     f"    prov:atLocation :place{rng.randrange(places)} ;\n"
                     f"    prov:startedAtTime \"2024-03-01T{i % 24:02d}:{i % 60:02d}:00Z\"^^xsd:dateTime .")
        for j in range(2):
            e = f"ent{i}_{j}"
            parts = [f":{e} a prov:Entity",
                     f"prov:wasAttributedTo :agent{rng.randrange(agents)}",
                     f"prov:qualifiedGeneration [ a prov:Generation ; "
                     f"prov:atTime \"2024-03-01T{i % 24:02d}:{j:02d}:30Z\"^^xsd:dateTime ]"]
            if (i + j) % 5 == 0:
                lines.append(f":act{i} prov:generated :{e} .")
            else:
                parts.append(f"prov:wasGeneratedBy :act{i}")
            if j == 1 and i % 7 == 0:
                parts.append(f"prov:atLocation :place{rng.randrange(places)}")
            if entities:
                origin = rng.choice(entities[-40:])
                relation = "prov:wasRevisionOf" if rng.random() < 0.2 else "prov:wasDerivedFrom"
                parts.append(f"{relation} :{origin}")
                # A second, qualified influence that only the chain
                # qualifiedInfluence o influencer relates to the entity.
                parts.append(f"prov:qualifiedInfluence [ a prov:Derivation ; "
                             f"prov:entity :{rng.choice(entities[-40:])} ]")
            lines.append(" ;\n    ".join(parts) + " .")
            entities.append(e)
    planted: List[str] = []
    if plant:
        for e in sorted(rng.sample(entities[1:], MISUSES_PER_TRACE)):
            lines.append(f":{e} prov:entity :{rng.choice(entities)} .")
            planted.append(ns + e)
    _write(path, lines)
    return planted


def gen_prov_trace(workdir: str, seed: int, fixtures: str) -> List[dict]:
    rng = random.Random(f"prov-trace:{seed}")
    stack = [os.path.join(fixtures, name) for name in PAPER_STACK]
    planted_traces = set(rng.sample(range(TRACES), PLANTED_TRACES))
    requests = []
    for k in range(TRACES):
        path = os.path.join(workdir, f"trace{k}.ttl")
        ns = f"https://example.org/perfbench/trace/{seed}/{k}#"
        clashing = _prov_trace(path, random.Random(f"prov-trace:{seed}:{k}"), ns, k in planted_traces)
        argv = ["check-consistency", "--source", stack[0]]
        for target in stack[1:4]:
            argv += ["--target", target]
        argv += ["--alignment", stack[4], "--instances", path, "--format", "json"]
        requests.append(_request(f"trace{k}", workdir, "check-consistency", argv,
                                 {"exit": 1 if clashing else 0, "clashing": clashing}))
    return requests


# ---------------------------------------------------------------------------
# coherence-ladder
# ---------------------------------------------------------------------------

def _ladder(workdir: str, tag: str, rng: random.Random) -> dict:
    n = LADDER_TARGET_CLASSES
    roots = ["t:RootA", "t:RootB"]
    tree = [f"t:C{i}" for i in range(n - 2 - n // 12)]
    parent = _tree(roots, tree)
    root_of = {r: r for r in roots}
    for c in tree:
        root_of[c] = root_of[parent[c]]
    target = ["t:RootA a owl:Class .", "t:RootB a owl:Class .", "t:RootA owl:disjointWith t:RootB ."]
    for c in tree:
        target.append(f"{c} a owl:Class ; rdfs:subClassOf {parent[c]} .")
    props = [f"t:rel{k}" for k in range(8)]
    for p in props:
        target.append(f"{p} a owl:ObjectProperty .")
    # Restrictions sit on leaves and fillers carry none, so each restriction
    # adds one witness to one probe and the cost does not swing with the seed.
    leaves = sorted(set(tree) - set(parent.values()))
    restricted = set(rng.sample(leaves, n // 6))
    fillers = [c for c in tree if c not in restricted]
    for c in sorted(restricted):
        target.append(f"{c} rdfs:subClassOf [ a owl:Restriction ; owl:onProperty {rng.choice(props)} ;\n"
                      f"    owl:someValuesFrom {rng.choice(fillers)} ] .")
    made = 0
    while made < n // 12:
        a, b = rng.sample(tree, 2)
        if root_of[a] != root_of[b] or a in _ancestors(parent, b) or b in _ancestors(parent, a):
            continue
        target.append(f"t:D{made} a owl:Class ; owl:equivalentClass [ owl:intersectionOf ( {a} {b} ) ] .")
        made += 1
    by_root = {r: [c for c in tree if root_of[c] == r] for r in roots}

    sources = [f"s:S{i}" for i in range(n // 4)]
    s_parent = _tree(["s:S0", "s:S1"], sources[2:])
    s_root = {"s:S0": "t:RootA", "s:S1": "t:RootB"}
    for c in sources[2:]:
        s_root[c] = s_root[s_parent[c]]
    source = [f"{c} a owl:Class ." for c in sources[:2]]
    source += [f"{c} a owl:Class ; rdfs:subClassOf {s_parent[c]} ." for c in sources[2:]]
    align = []
    for c in sources:
        align.append(_reified(c, "rdfs:subClassOf", rng.choice(by_root[s_root[c]]), "placed under the target"))
    planted = rng.sample(sources[2:], PLANTED_UNSAT)
    for c in planted:
        other = "t:RootB" if s_root[c] == "t:RootA" else "t:RootA"
        align.append(_reified(c, "rdfs:subClassOf", rng.choice(by_root[other]), "also placed under the other root"))
    unsat = {c for c in sources if any(p in planted for p in [c] + _ancestors(s_parent, c))}

    src = _write(os.path.join(workdir, f"{tag}-source.ttl"), source)
    tgt = _write(os.path.join(workdir, f"{tag}-target.ttl"), target)
    aln = _write(os.path.join(workdir, f"{tag}-align.ttl"), align)
    return {"files": (src, tgt, aln),
            "unsatisfiable": sorted(SRC + c[2:] for c in unsat),
            "classes": len(sources) + 2 + len(tree) + made}


def gen_coherence_ladder(workdir: str, seed: int, fixtures: str) -> List[dict]:
    requests = []
    for k in range(LADDERS):
        stack = _ladder(workdir, f"ladder{k}", random.Random(f"coherence-ladder:{seed}:{k}"))
        src, tgt, aln = stack["files"]
        argv = ["check-coherence", "--source", src, "--target", tgt, "--alignment", aln,
                "--format", "json"]
        requests.append(_request(f"ladder{k}", workdir, "check-coherence", argv,
                                 {"exit": 1, "unsatisfiable": stack["unsatisfiable"],
                                  "probed_classes": stack["classes"]}))
    return requests


# ---------------------------------------------------------------------------
# ci-check-all
# ---------------------------------------------------------------------------

def _iri(curie: str) -> str:
    return (SRC if curie.startswith("s:") else TGT) + curie[2:]


def _ci_stack(workdir: str, tag: str, rng: random.Random) -> dict:
    """A source, a target that mirrors it, an alignment and instance data.

    Tree source classes are equivalent to their target mirror, so that the
    mirror adds no subsumption on either side. The exceptions are planted:
    unmapped orphan classes and properties, leaves mapped only below an extra
    target class, and one leaf mapped below a second extra class, which
    entails exactly one new source subsumption.
    """
    n = CI_SOURCE_CLASSES
    roots = ["s:R0", "s:R1"]
    rest = [f"s:C{i}" for i in range(n - 2)]
    # Each root has three children, so the planted subsumption has a sibling
    # subtree to point into.
    parent = _tree(roots, rest)
    classes = roots + rest
    children: Dict[str, List[str]] = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    leaves = [c for c in rest if c not in children]
    sub_mapped = sorted(rng.sample(leaves, max(2, len(leaves) // 6)))
    mirrored = [c for c in classes if c not in sub_mapped]
    mirror = {c: "t:" + c[2:] for c in mirrored}
    root_of = {}
    for c in classes:
        root_of[c] = c if c in roots else ([a for a in _ancestors(parent, c) if a in roots][0])

    # Planted non-conservative subsumption: leaf a (not mirrored) also goes
    # below an extra class under b, a child of a's root outside a's branch.
    def siblings(leaf: str) -> List[str]:
        return [c for c in children[root_of[leaf]]
                if c not in _ancestors(parent, leaf) and c in mirror]

    plant_a = rng.choice([leaf for leaf in sub_mapped if siblings(leaf)])
    plant_b = rng.choice(siblings(plant_a))

    source = [f"{r} a owl:Class ." for r in roots] + ["s:R0 owl:disjointWith s:R1 ."]
    source += [f"{c} a owl:Class ; rdfs:subClassOf {parent[c]} ." for c in rest]
    orphans = [f"s:Orphan{k}" for k in range(3)]
    source += [f"{c} a owl:Class ." for c in orphans]

    target = ["t:R0 owl:disjointWith t:R1 ."]
    t_parent: Dict[str, str] = {}
    for c in mirrored:
        if c in roots:
            target.append(f"{mirror[c]} a owl:Class .")
        else:
            t_parent[mirror[c]] = mirror[parent[c]]
            target.append(f"{mirror[c]} a owl:Class ; rdfs:subClassOf {mirror[parent[c]]} .")
    align: List[str] = []
    for c in mirrored:
        align.append(_reified(c, "owl:equivalentClass", mirror[c], "same meaning", label=c[2:]))
    extra_of: Dict[str, str] = {}
    simple = [(c, "equivalent-class", mirror[c]) for c in mirrored]
    for k, leaf in enumerate(sub_mapped):
        extra = f"t:X{k}"
        t_parent[extra] = mirror[parent[leaf]]
        target.append(f"{extra} a owl:Class ; rdfs:subClassOf {t_parent[extra]} .")
        align.append(_reified(leaf, "rdfs:subClassOf", extra, "narrower than the target"))
        simple.append((leaf, "sub-class-of", extra))
        extra_of[leaf] = extra
    planted_extra = f"t:X{len(sub_mapped)}"
    t_parent[planted_extra] = mirror[plant_b]
    target.append(f"{planted_extra} a owl:Class ; rdfs:subClassOf {mirror[plant_b]} .")
    align.append(_reified(plant_a, "rdfs:subClassOf", planted_extra, "planted overlap"))
    simple.append((plant_a, "sub-class-of", planted_extra))

    t_tree = [mirror[c] for c in mirrored]
    t_root = {mirror[c]: mirror[root_of[c]] for c in mirrored}

    def t_anc(c: str) -> List[str]:
        return [c] + _ancestors(t_parent, c)

    # Target intersections over unrelated classes of one root: no tree class
    # lies below both operands (the closure below still checks every name).
    intersections: Dict[str, Tuple[str, str]] = {}
    while len(intersections) < max(2, n // 15):
        a, b = rng.sample(t_tree, 2)
        if t_root[a] != t_root[b] or a in t_anc(b) or b in t_anc(a):
            continue
        name = f"t:D{len(intersections)}"
        intersections[name] = (a, b)
        target.append(f"{name} a owl:Class ; owl:equivalentClass [ owl:intersectionOf ( {a} {b} ) ] .")

    # Source properties mapped below target properties whose domain and range
    # are the mirror or a mirror ancestor of the source's.
    s_props: Dict[str, Tuple[str, str]] = {}
    t_props: Dict[str, Tuple[str, str]] = {}
    mapped_props: List[str] = []
    for k in range(CI_MAPPED_PROPERTIES):
        p, tp = f"s:p{k}", f"t:tp{k}"
        dom, rng_cls = rng.choice(mirrored), rng.choice(mirrored)
        s_props[p] = (dom, rng_cls)
        t_props[tp] = (rng.choice(t_anc(mirror[dom])), rng.choice(t_anc(mirror[rng_cls])))
        align.append(_reified(p, "rdfs:subPropertyOf", tp, "narrower relation"))
        simple.append((p, "sub-property-of", tp))
        mapped_props.append(p)
    for k in range(max(4, n // 15)):
        t_props[f"t:tq{k}"] = (rng.choice(t_tree), rng.choice(t_tree))
    # Chain: pa o pb below tc; rules: pr(x, y), C(x) -> tr(x, y).
    chain_mid = rng.choice(mirrored)
    s_props["s:pa"] = (rng.choice(mirrored), chain_mid)
    s_props["s:pb"] = (chain_mid, rng.choice(mirrored))
    t_props["t:tc"] = (mirror[s_props["s:pa"][0]], mirror[s_props["s:pb"][1]])
    align.append("t:tc owl:propertyChainAxiom ( s:pa s:pb ) .")
    rules = []
    for k in range(2):
        pr, tr = f"s:pr{k}", f"t:tr{k}"
        s_props[pr] = (rng.choice(mirrored), rng.choice(mirrored))
        body_class = rng.choice([c for c in mirrored if s_props[pr][0] in [c] + _ancestors(parent, c)])
        t_props[tr] = (mirror[s_props[pr][0]], mirror[s_props[pr][1]])
        rules.append((pr, body_class, tr))
        align.append(
            f"[] a swrl:Imp ; rdfs:comment \"rule {k}\" ;\n"
            f"    swrl:body ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate {pr} ;\n"
            f"                  swrl:argument1 v:x ; swrl:argument2 v:y ]\n"
            f"                [ a swrl:ClassAtom ; swrl:classPredicate {body_class} ; swrl:argument1 v:x ] ) ;\n"
            f"    swrl:head ( [ a swrl:IndividualPropertyAtom ; swrl:propertyPredicate {tr} ;\n"
            f"                  swrl:argument1 v:x ; swrl:argument2 v:y ] ) .")
    align = ["v:x a swrl:Variable .", "v:y a swrl:Variable ."] + align
    unmapped_props = [f"s:orphanRel{k}" for k in range(2)]
    for p in unmapped_props:
        s_props[p] = (rng.choice(mirrored), rng.choice(mirrored))
    for p, (d, r) in sorted(s_props.items()):
        source.append(f"{p} a owl:ObjectProperty ; rdfs:domain {d} ; rdfs:range {r} .")
    for tp, (d, r) in sorted(t_props.items()):
        target.append(f"{tp} a owl:ObjectProperty ; rdfs:domain {d} ; rdfs:range {r} .")
    for p in rng.sample(mapped_props, 2):
        align.append(f"{p} skos:relatedMatch {rng.choice(sorted(t_props))} .")

    # Existentials on target classes, through a property whose domain covers
    # the restricted class and whose range covers the filler.
    def t_desc(c: str) -> List[str]:
        return [d for d in t_tree + list(extra_of.values()) if c in t_anc(d)]

    # Restrictions sit on leaves and fillers carry none, as in the coherence
    # ladder.
    t_leaves = sorted(set(t_tree) - set(t_parent.values()))
    restricted: Dict[str, str] = {}
    for c in rng.sample(t_leaves, len(t_leaves)):
        usable = [tp for tp, (d, _) in sorted(t_props.items()) if d in t_anc(c)]
        if usable and len(restricted) < n // 5:
            restricted[c] = rng.choice(usable)
    for c, tp in sorted(restricted.items()):
        fillers = [f for f in t_desc(t_props[tp][1]) if f not in restricted]
        if fillers:
            target.append(f"{c} rdfs:subClassOf [ a owl:Restriction ; owl:onProperty {tp} ; "
                          f"owl:someValuesFrom {rng.choice(fillers)} ] .")

    # Instance data: typed individuals, some in two classes of one root so
    # that intersections compose, linked through the source properties. Links
    # reuse individuals, so chains and rules join on shared ones.
    inst: List[str] = ["@prefix : <https://example.org/perfbench/data#> ."]
    typed_as: Dict[str, List[str]] = {}

    def individual(cls: str) -> str:
        name = f":i{sum(map(len, typed_as.values()))}"
        typed_as.setdefault(cls, []).append(name)
        inst.append(f"{name} a {cls} .")
        return name

    def pick(cls: str) -> str:
        pool = [x for d in classes if cls in [d] + _ancestors(parent, d) for x in typed_as.get(d, ())]
        return rng.choice(pool) if pool else individual(cls)

    for _ in range(CI_INDIVIDUALS):
        individual(rng.choice(classes))
    by_mirror = {v: k for k, v in mirror.items()}
    for d, (a, b) in sorted(intersections.items()):
        for _ in range(CI_LINKS // 2):
            inst.append(f"{pick(by_mirror[a])} a {by_mirror[b]} .")
    for p, (d, r) in sorted(s_props.items()):
        for _ in range(CI_LINKS):
            inst.append(f"{pick(d)} {p} {pick(r)} .")
    for pr, body_class, _ in rules:
        for _ in range(CI_LINKS):
            inst.append(f"{pick(body_class)} {pr} {pick(s_props[pr][1])} .")

    files = (
        _write(os.path.join(workdir, f"{tag}-source.ttl"), source),
        _write(os.path.join(workdir, f"{tag}-target.ttl"), target),
        _write(os.path.join(workdir, f"{tag}-align.ttl"), align),
        _write(os.path.join(workdir, f"{tag}-data.ttl"), inst),
    )

    # Entailed named supers in the merged stack, from the construction: the
    # mirror equivalences, the tree edges, the extra classes and the
    # intersections (which hold whatever lies below both operands).
    up: Dict[str, Set[str]] = {}

    def edge(a: str, b: str) -> None:
        up.setdefault(a, set()).add(b)

    for c, p in parent.items():
        edge(c, p)
    for c, m in mirror.items():
        edge(c, m)
        edge(m, c)
    for c, p in t_parent.items():
        edge(c, p)
    for s_name, _, t_name in simple:
        if not s_name.startswith("s:p"):
            edge(s_name, t_name)
    for d, (a, b) in intersections.items():
        edge(d, a)
        edge(d, b)
    names = set(up) | {b for bs in up.values() for b in bs} | set(orphans)

    def closure(c: str) -> Set[str]:
        seen, todo = set(), [c]
        while todo:
            for b in up.get(todo.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen

    supers = {c: closure(c) for c in names}
    changed = True
    while changed:
        changed = False
        for c in names:
            for d, (a, b) in intersections.items():
                if d != c and d not in supers[c] and {a, b} <= supers[c] | {c}:
                    supers[c] |= {d} | supers[d]
                    changed = True
    new_subs = sorted((_iri(plant_a), _iri(b), "o1") for b in supers[plant_a]
                      if b.startswith("s:") and b not in _ancestors(parent, plant_a))
    asserted = {(pred, _iri(a), _iri(b)) for a, pred, b in simple}
    entailed = []
    for c in sorted(names):
        for b in sorted(supers[c] - {c}):
            if c[:2] == b[:2]:
                continue
            if c in supers[b]:
                if c.startswith("s:"):
                    key = ("equivalent-class", _iri(c), _iri(b))
                    entailed.append(key + (key not in asserted,))
            else:
                key = ("sub-class-of", _iri(c), _iri(b))
                entailed.append(key + (key not in asserted,))
    for p in mapped_props:
        entailed.append(("sub-property-of", _iri(p), _iri(f"t:tp{p[3:]}"), False))

    def candidates(p: str) -> List[Tuple[str, str]]:
        dom, rng_cls = mirror[s_props[p][0]], mirror[s_props[p][1]]
        out = []
        for tp, (d, r) in sorted(t_props.items()):
            if d in t_anc(dom) and r in t_anc(rng_cls):
                out.append((_iri(tp), "exact" if (d, r) == (dom, rng_cls) else "inherited"))
        return sorted(out)

    unmapped = sorted([(_iri(c), "class") for c in orphans]
                      + [(_iri(p), "object-property") for p in unmapped_props])
    return {
        "files": files,
        "check_all": {"exit": 1, "unmapped": unmapped, "new_subsumptions": new_subs},
        "materialize": {"exit": 0, "mappings": sorted(entailed)},
        "sssom": {"exit": 0, "rows": sorted((_iri(a), pred, _iri(b)) for a, pred, b in simple),
                  "complex": 1 + len(rules)},
        "suggest": {p: {"exit": 0, "candidates": candidates(p)} for p in mapped_props},
    }


def gen_ci_check_all(workdir: str, seed: int, fixtures: str) -> List[dict]:
    requests = []
    for k in range(CI_STACKS):
        stack = _ci_stack(workdir, f"stack{k}", random.Random(f"ci-check-all:{seed}:{k}"))
        src, tgt, aln, data = stack["files"]
        common = ["--source", src, "--target", tgt, "--alignment", aln,
                  "--source-ns", SRC, "--target-ns", TGT]
        requests.append(_request(f"stack{k}-check-all", workdir, "check-all",
                                 ["check-all"] + common + ["--instances", data, "--format", "json"],
                                 stack["check_all"]))
        requests.append(_request(f"stack{k}-materialize", workdir, "materialize",
                                 ["materialize"] + common, stack["materialize"]))
        requests.append(_request(f"stack{k}-export-sssom", workdir, "export-sssom",
                                 ["export-sssom", "--alignment", aln, "--source-ns", SRC,
                                  "--target-ns", TGT], stack["sssom"]))
        for p, answer in sorted(stack["suggest"].items()):
            requests.append(_request(f"stack{k}-suggest-{p[2:]}", workdir, "suggest",
                                     ["suggest"] + common + ["--property", _iri(p), "--format", "json"],
                                     answer))
    return requests


GENERATORS = {
    "prov-trace": gen_prov_trace,
    "coherence-ladder": gen_coherence_ladder,
    "ci-check-all": gen_ci_check_all,
}


def generate(workload: str, seed: int, workdir: str, fixtures: str) -> List[dict]:
    """Write the workload's inputs and answer file; return its requests (one lap)."""
    os.makedirs(workdir, exist_ok=True)
    requests = GENERATORS[workload](workdir, seed, fixtures)
    write_answers(os.path.join(workdir, "answers.json"), requests)
    return requests


def write_answers(path: str, requests: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({r["id"]: r["answer"] for r in requests}, handle, indent=1, sort_keys=True)
