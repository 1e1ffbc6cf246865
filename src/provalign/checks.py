"""The four alignment criteria as executable verdicts.

Totality: every source class and object property is credited by the
alignment, directly or through entailment (superterm, inverse, property
chain, or rule). Coherence: every named class in the merged ontologies can
have an instance. Consistency: merged ontologies plus instance data entail
no contradiction. Conservativity: the alignment adds no subsumption or
equivalence between terms of a single input ontology's signature (new
disjointness is counted but is not a violation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import or_
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .alignment import (
    Alignment,
    COMPLEX_PREDICATES,
    EQUIVALENT_CLASS,
    EQUIVALENT_PROPERTY,
    Mapping,
    SIMPLE_PREDICATES,
    SWRL_RULE,
    render_side,
)
from .index import _bit_ids
from .owl import (
    Axiom,
    NamedClass,
    NamedProperty,
    OntologyModel,
    SwrlRule,
    add_uses,
    merged_signature,
    render_class_expression,
    signature,
)
from .rdf import Iri, Term, iri
from .reasoner import (
    Clash,
    ClosedKB,
    FactCapExceededError,
    TBoxIndex,
    _mutual,
    class_satisfiable,
    check_clash,
    entailed_taxonomy,
    explain,
    materialize,
)


def unmodeled_total(models: Sequence[OntologyModel]) -> int:
    """Triples outside the supported fragment, kept but not reasoned over."""
    return sum(len(m.unmodeled) for m in models)


def alignment_axiom_model(alignment: Alignment) -> OntologyModel:
    """The alignment's logical content as one model (mapping payloads only)."""
    model = OntologyModel(source_label="alignment")
    for m in alignment.mappings:
        if m.predicate == "skos-related":
            continue  # metadata only, no logical force
        if isinstance(m.payload, SwrlRule):
            model.rules.append(m.payload)
        elif isinstance(m.payload, Axiom):
            model.axioms.append(m.payload)
    return model


# ---------------------------------------------------------------------------
# Totality
# ---------------------------------------------------------------------------

@dataclass
class CreditEntry:
    kind: str  # direct | via-superterm | via-inverse | via-chain | via-rule
    witness: str
    predicate: Optional[str] = None


@dataclass
class TotalityReport:
    unmapped: List[Tuple[str, str]]  # (term, category)
    credit_trace: Dict[str, CreditEntry]
    mapped_count: int
    source_total: int
    unmodeled_count: int = 0

    def as_dict(self) -> dict:
        return {
            "check": "totality",
            "status": "pass" if not self.unmapped else "fail",
            "findings": [{"term": t, "category": c} for t, c in self.unmapped],
            "counts": {
                "source_terms": self.source_total,
                "mapped": self.mapped_count,
                "unmapped": len(self.unmapped),
                "unmodeled_axioms": self.unmodeled_count,
                "credited_by_kind": _credit_histogram(self.credit_trace),
            },
        }


def _credit_histogram(trace: Dict[str, CreditEntry]) -> Dict[str, int]:
    hist: Dict[str, int] = {}
    for entry in trace.values():
        hist[entry.kind] = hist.get(entry.kind, 0) + 1
    return dict(sorted(hist.items()))


def _top_level_names(side) -> List[str]:
    if isinstance(side, (NamedClass, NamedProperty)):
        return [side.iri.value]
    if isinstance(side, tuple):
        return list(side)
    return []


def check_totality(source: OntologyModel, others: Sequence[OntologyModel],
                   alignment: Alignment) -> TotalityReport:
    """Credit every source class/object property or list it as unmapped.

    Credit closure runs over the source axioms plus the alignment's own
    axioms; SKOS mappings give no credit. 'others' supplies extra inverse
    declarations but does not add source terms.
    """
    sig = signature(source, alignment.source_namespaces)
    categories = {**dict.fromkeys(sig["classes"], "class"),
                  **dict.fromkeys(sig["object_properties"], "object-property")}
    terms = set(categories)
    credit: Dict[str, CreditEntry] = {}

    def credit_term(term: str, entry: CreditEntry) -> None:
        if term in terms and term not in credit:
            credit[term] = entry

    # Direct credit, equivalences first so the synonymy statistics see them.
    ordered = sorted(alignment.mappings, key=Mapping.sort_key)
    for round_predicates in ((EQUIVALENT_CLASS, EQUIVALENT_PROPERTY), SIMPLE_PREDICATES):
        for m in ordered:
            if m.predicate not in round_predicates or m.predicate not in SIMPLE_PREDICATES:
                continue
            for own, other in ((m.subject, m.object), (m.object, m.subject)):
                for name in _top_level_names(own):
                    credit_term(name, CreditEntry("direct", render_side(other), m.predicate))
    # Property-chain and SWRL-rule mappings credit every source term they use.
    for m in ordered:
        if m.predicate not in COMPLEX_PREDICATES:
            continue
        kind = "via-rule" if m.predicate == SWRL_RULE else "via-chain"
        for name in _top_level_names(m.subject):
            credit_term(name, CreditEntry(kind, render_side(m.object), m.predicate))

    taxonomy = entailed_taxonomy([source, alignment_axiom_model(alignment)])
    inverse_pairs = {name: set(inverses) for name, inverses in taxonomy.tbox.inverse_pairs.items()}
    for a, b in (ax.args for model in others for ax in model.axioms if ax.kind == "inverse-properties"):
        if isinstance(a, NamedProperty) and isinstance(b, NamedProperty):
            inverse_pairs.setdefault(a.iri.value, set()).add(b.iri.value)
            inverse_pairs.setdefault(b.iri.value, set()).add(a.iri.value)

    credited = taxonomy.mask(credit)  # the credited terms, grown with credit
    changed = True
    while changed:
        changed = False
        for term in sorted(terms - set(credit)):
            above = min(chain(*taxonomy.decode(taxonomy.above(term, credited))), default=None)
            if above is not None:
                credit[term] = CreditEntry("via-superterm", above)
            else:
                inverses = sorted(q for q in inverse_pairs.get(term, ()) if q in credit)
                if not inverses:
                    continue
                credit[term] = CreditEntry("via-inverse", inverses[0])
            credited = tuple(map(or_, credited, taxonomy.mask((term,))))
            changed = True

    unmapped = sorted((t, categories[t]) for t in terms - set(credit))
    return TotalityReport(unmapped=unmapped, credit_trace=credit,
                          mapped_count=len(credit), source_total=len(terms),
                          unmodeled_count=unmodeled_total([source, *others]))


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

@dataclass
class CoherenceReport:
    unsatisfiable: List[str]
    undetermined: List[Tuple[str, str]]  # (class, reason)
    probed: int
    unmodeled_count: int = 0

    def as_dict(self) -> dict:
        status = "fail" if self.unsatisfiable else ("error" if self.undetermined else "pass")
        findings = [{"unsatisfiable_class": c} for c in self.unsatisfiable]
        findings += [{"undetermined_class": c, "reason": r} for c, r in self.undetermined]
        return {
            "check": "coherence",
            "status": status,
            "findings": findings,
            "counts": {
                "probed_classes": self.probed,
                "unsatisfiable": len(self.unsatisfiable),
                "undetermined": len(self.undetermined),
                "unmodeled_axioms": self.unmodeled_count,
            },
        }


def check_coherence(models: Sequence[OntologyModel], *, skolem_depth: int = 3,
                    fact_cap: int = 1_000_000) -> CoherenceReport:
    """Probe satisfiability of every named class in the merged signature.

    Probes run bottom-up: most entailed superclasses first, then by name. A
    clash-free probe under the fact cap also decides every superclass
    satisfiable, as its probe closure is a subset: the decided classes are one
    mask over class ids, which each such probe ORs its class's reach mask
    into. Pruning never runs downward, so a subclass whose own probe exceeds
    the cap stays undetermined.
    """
    models = list(models)
    seen_classes = sorted(merged_signature(models)["classes"])
    tbox = TBoxIndex(models)
    named = {c: NamedClass(iri(c)) for c in seen_classes}
    satisfiable = 0
    unsat: List[str] = []
    undetermined: List[Tuple[str, str]] = []
    for c in sorted(seen_classes, key=lambda c: (-tbox.super_count(named[c]), c)):
        i = tbox._ids.get(named[c])
        if i is not None and satisfiable >> i & 1:
            continue
        try:
            ok = class_satisfiable(models, named[c], skolem_depth=skolem_depth,
                                   fact_cap=fact_cap, tbox=tbox)
        except FactCapExceededError as exc:
            undetermined.append((c, str(exc)))
            continue
        if not ok:
            unsat.append(c)
        elif i is not None:
            satisfiable |= tbox._reach[i]
    return CoherenceReport(unsatisfiable=sorted(unsat), undetermined=sorted(undetermined),
                           probed=len(seen_classes), unmodeled_count=unmodeled_total(models))


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

def _fact_text(fact) -> str:
    if fact[0] == "class":
        return f"{render_side(fact[1])} a {render_class_expression(fact[2])}"
    return f"{render_side(fact[2])} {fact[1]} {render_side(fact[3])}"


def trace_tree_dict(kb: ClosedKB, fact) -> dict:
    return _tree_dict(explain(kb, fact))


def _tree_dict(n) -> dict:
    # Not a nested function: one that calls itself is a cycle the CLI's paused collector keeps.
    return {
        "fact": _fact_text(n.fact),
        "rule": n.rule,
        "detail": n.detail,
        "premises": [_tree_dict(child) for child in n.children],
    }


def clash_finding(kb: ClosedKB, clash: Clash) -> dict:
    return {
        "kind": clash.kind,
        "individual": render_side(clash.individual),
        "participants": [render_class_expression(p) for p in clash.participants],
        "traces": [trace_tree_dict(kb, fact) for fact in clash.trace_facts],
    }


@dataclass
class ConsistencyReport:
    clashes: List[Clash]
    instance_count: int
    kb: ClosedKB = field(repr=False)
    unmodeled_count: int = 0

    def as_dict(self) -> dict:
        return {
            "check": "consistency",
            "status": "pass" if not self.clashes else "fail",
            "findings": [clash_finding(self.kb, c) for c in self.clashes],
            "counts": {
                "instances": self.instance_count,
                "clashes": len(self.clashes),
                "derived_facts": self.kb.derived_count,
                "skolem_budget_exceeded": self.kb.skolem_budget_exceeded,
                "unmodeled_axioms": self.unmodeled_count,
            },
        }


def count_individuals(abox: OntologyModel) -> int:
    """Named plus anonymous individuals mentioned in assertions."""
    individuals: Set[Term] = {Iri(name) for name in abox.declared_individuals}
    add_uses(abox.axioms, set(), set(), individuals)
    return len(individuals)


def check_consistency(models: Sequence[OntologyModel], instances: OntologyModel, *,
                      skolem_depth: int = 3, fact_cap: int = 1_000_000) -> ConsistencyReport:
    """Materialize ontologies plus instance data and report every clash."""
    kb = materialize(list(models) + [instances], skolem_depth=skolem_depth, fact_cap=fact_cap)
    clashes = check_clash(kb)
    return ConsistencyReport(clashes=clashes, instance_count=count_individuals(instances), kb=kb,
                             unmodeled_count=unmodeled_total(list(models) + [instances]))


# ---------------------------------------------------------------------------
# Conservativity
# ---------------------------------------------------------------------------

@dataclass
class ConservativityReport:
    new_subsumptions: List[Tuple[str, str, str]]  # (sub, super, signature label)
    new_equivalences: List[Tuple[str, str, str]]
    new_disjointness_count: int  # informational, not a violation

    def as_dict(self) -> dict:
        ok = not self.new_subsumptions and not self.new_equivalences
        return {
            "check": "conservativity",
            "status": "pass" if ok else "fail",
            "findings": (
                [{"new_subsumption": {"sub": a, "super": b, "signature": s}}
                 for a, b, s in self.new_subsumptions]
                + [{"new_equivalence": {"a": a, "b": b, "signature": s}}
                   for a, b, s in self.new_equivalences]
            ),
            "counts": {
                "new_subsumptions": len(self.new_subsumptions),
                "new_equivalences": len(self.new_equivalences),
                "new_disjointness_informational": self.new_disjointness_count,
            },
        }


def _disjoint_pair_count(tbox: TBoxIndex, names: Set[str]) -> int:
    """The pairs of distinct ``names`` under the two sides of a disjoint pair,
    counted on masks over class ids: each side's partners are the names below
    the sides it is disjoint with, and each name counts the partners of the
    sides above it but itself; every pair is then counted from both ends."""
    ids = [i for i in (tbox._ids.get(NamedClass(iri(n))) for n in names) if i is not None]
    below = dict.fromkeys((tbox._ids[ce] for pair in tbox.disjoint_pairs for ce in pair), 0)
    side_mask = sum(1 << j for j in below)
    for i in ids:
        for j in _bit_ids(tbox._reach[i] & side_mask):
            below[j] |= 1 << i
    partners = dict.fromkeys(below, 0)
    for a, b in tbox.disjoint_pairs:
        a, b = tbox._ids[a], tbox._ids[b]
        partners[a] |= below[b]
        partners[b] |= below[a]
    return sum((reduce(or_, map(partners.__getitem__, _bit_ids(tbox._reach[i] & side_mask)), 0)
                & ~(1 << i)).bit_count()
               for i in ids) // 2


def check_conservativity(o1: OntologyModel, o2: Sequence[OntologyModel],
                         alignment: Alignment) -> ConservativityReport:
    """Approximate deductive difference of the merge against each input.

    Reports subsumptions/equivalences between same-signature terms that the
    merge entails but the input alone does not: the merge's pairs minus the
    input's, and its mutual pairs minus the input's. Newly entailed
    disjointness between same-ontology terms is counted informationally only.
    """
    o2 = list(o2)
    merge = entailed_taxonomy([o1, *o2, alignment_axiom_model(alignment)])
    new_subs: List[Tuple[str, str, str]] = []
    new_equivs: List[Tuple[str, str, str]] = []
    disjoint_note = 0
    for label, side_models in (("o1", [o1]), ("o2", o2)):
        if not side_models:
            continue
        own = entailed_taxonomy(side_models)
        sig = merged_signature(side_models)
        names = sig["classes"] | sig["object_properties"]
        # The merge holds every axiom of the side and the closure is monotone,
        # so a name with as many names above it in both has the same ones. A
        # new pair has an end among the rest (``grown``); a pair without one is
        # in both or in neither, and a mutual pair with one has its other end
        # above a grown name in the merge.
        masks = merge.mask(names), own.mask(names)
        grown = {a for a in names if sum(map(int.bit_count, merge.above(a, masks[0])))
                 != sum(map(int.bit_count, own.above(a, masks[1])))}
        merged = merge.pairs(grown, names)
        upper = {b for pairs in merged for _, b in pairs}
        merged = [p | q for p, q in zip(merged, merge.pairs(upper, grown))]
        mine = [p | q for p, q in zip(own.pairs(grown, names), own.pairs(upper, grown))]
        equivs = (_mutual(merged[0]) | _mutual(merged[1])) - _mutual(mine[0]) - _mutual(mine[1])
        new_equivs += [(a, b, label) for a, b in sorted(equivs)]
        members = {(a, b) for a, b, _ in new_equivs}
        new_subs += [(a, b, label) for a, b in sorted((merged[0] | merged[1]) - mine[0] - mine[1])
                     if ((a, b) if a < b else (b, a)) not in members]
        # The merge entails every disjoint pair that the side does.
        disjoint_note += (_disjoint_pair_count(merge.tbox, sig["classes"])
                          - _disjoint_pair_count(own.tbox, sig["classes"]))

    return ConservativityReport(new_subsumptions=new_subs, new_equivalences=new_equivs,
                                new_disjointness_count=disjoint_note)


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------

def alignment_stats(alignment: Alignment, totality: Optional[TotalityReport] = None) -> dict:
    """Counts per mapping predicate plus the equivalence-coverage ratio.

    The ratio is the fraction of credited source terms whose credit came from
    an equivalence mapping: a rough progress measure toward a fully
    synonymous alignment, not a decision of interpretability or synonymy.
    """
    per_predicate: Dict[str, int] = {}
    for m in alignment.mappings:
        per_predicate[m.predicate] = per_predicate.get(m.predicate, 0) + 1
    simple = sum(per_predicate.get(p, 0) for p in SIMPLE_PREDICATES)
    complex_count = sum(per_predicate.get(p, 0) for p in COMPLEX_PREDICATES)
    equivalence_ratio = 0.0
    if totality is not None and totality.mapped_count:
        credited_equiv = sum(
            1 for entry in totality.credit_trace.values()
            if entry.predicate in (EQUIVALENT_CLASS, EQUIVALENT_PROPERTY))
        equivalence_ratio = credited_equiv / totality.mapped_count
    return {
        "check": "stats",
        "status": "pass",
        "findings": [],
        "counts": {
            "mappings": len(alignment.mappings),
            "per_predicate": dict(sorted(per_predicate.items())),
            "simple": simple,
            "complex": complex_count,
            "equivalence_coverage": round(equivalence_ratio, 6),
        },
    }


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _flatten(value, prefix: str = "") -> List[str]:
    lines: List[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            lines.extend(_flatten(value[key], f"{prefix}{key}."))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            lines.extend(_flatten(item, f"{prefix}{i}."))
    else:
        lines.append(f"{prefix[:-1]}: {value}")
    return lines


def report_text(doc: dict) -> str:
    """Stable, diff-friendly text rendering of a report document."""
    lines = [f"check: {doc['check']}", f"status: {doc['status']}"]
    for line in _flatten(doc.get("counts", {}), "counts."):
        lines.append(line)
    findings = doc.get("findings", [])
    lines.append(f"findings: {len(findings)}")
    for i, finding in enumerate(findings):
        for line in _flatten(finding, f"finding.{i}."):
            lines.append(line)
    return "\n".join(lines) + "\n"
