"""Semi-automated candidate suggestion for object property mappings.

Given a source property whose (possibly inherited) domain and range classes
are already mapped, find target object properties whose effective domain and
range subsume the translated classes. Selection among the candidates remains
a human decision; this module only narrows the field. Lexical similarity is
deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .alignment import Alignment, EQUIVALENT_CLASS, SUB_CLASS_OF
from .owl import (
    Axiom,
    ClassExpression,
    Intersection,
    NamedClass,
    OntologyModel,
    THING,
    merged_signature,
    render_class_expression,
)
from .rdf import Iri
from .reasoner import TBoxIndex, Taxonomy


class MatcherError(Exception):
    pass


class UnknownPropertyError(MatcherError):
    """The queried property is not an object property of any given model."""


@dataclass
class Candidate:
    prop: str
    domain_match: Tuple[ClassExpression, ClassExpression]  # (translated, candidate's)
    range_match: Tuple[ClassExpression, ClassExpression]
    match_kind: str  # exact | inherited

    def as_dict(self) -> dict:
        return {
            "property": self.prop,
            "match_kind": self.match_kind,
            "domain": {
                "translated": render_class_expression(self.domain_match[0]),
                "candidate": render_class_expression(self.domain_match[1]),
            },
            "range": {
                "translated": render_class_expression(self.range_match[0]),
                "candidate": render_class_expression(self.range_match[1]),
            },
        }


@dataclass
class SuggestionResult:
    candidates: List[Candidate]
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "check": "suggest",
            "status": "pass",
            "findings": [c.as_dict() for c in self.candidates],
            "counts": {"candidates": len(self.candidates), "notes": self.notes},
        }


def _pick(values: Sequence[ClassExpression]) -> Optional[ClassExpression]:
    if not values:
        return None
    unique = sorted(set(values), key=render_class_expression)
    return unique[0] if len(unique) == 1 else Intersection(tuple(unique))


def _check_known(prop: str, models: Sequence[OntologyModel]) -> None:
    if prop not in merged_signature(models)["object_properties"]:
        raise UnknownPropertyError(f"{prop} is not an object property of the given models")


def _resolve_domain_range(prop: str, tbox: TBoxIndex) -> Tuple[ClassExpression, ClassExpression]:
    def resolve(slot: int) -> Optional[ClassExpression]:
        # Depth first, in preorder: a property's own declaration, then its sorted
        # named super-properties, then its sorted inverses with the slot flipped.
        stack, visited = [(prop, slot)], set()
        while stack:
            name, slot = stack.pop()
            if name in visited:
                continue
            visited.add(name)
            declared = _pick((tbox.domains if slot == 0 else tbox.ranges).get(name, ()))
            if declared is not None:
                return declared
            stack += [(inv, 1 - slot) for inv in sorted(tbox.inverse_pairs.get(name, ()), reverse=True)]
            stack += [(sup, slot) for sup in sorted((q for q, inverted in tbox.prop_edges.get((name, False), ())
                                                     if not inverted), reverse=True)]
        return None

    return resolve(0) or THING, resolve(1) or THING


def effective_domain_range(prop: str, models: Sequence[OntologyModel]) -> Tuple[ClassExpression, ClassExpression]:
    """The most specific declared domain/range, inherited when undeclared.

    Resolution order per slot: own declaration, nearest declaring ancestor in
    the subproperty hierarchy, the inverse property's declaration with the
    pair swapped, and finally owl:Thing. The hierarchy is the schema index's
    direct property edges, so an owl:equivalentProperty counts as an
    ancestor: an undeclared property inherits its equivalent's domain/range.
    """
    models = list(models)
    _check_known(prop, models)
    return _resolve_domain_range(prop, TBoxIndex(models))


def _translations(term: str, source_index: TBoxIndex, alignment: Alignment) -> List[ClassExpression]:
    """Target-side class expressions the source class translates to.

    Uses mappings on the class itself, else the union of the mappings on all
    its mapped ancestors in the source hierarchy (an upper approximation,
    which is the right direction for checking whether a property can accept
    the translated instances).
    """
    by_term: Dict[str, List[ClassExpression]] = {}
    for m in alignment.mappings:
        if m.predicate == EQUIVALENT_CLASS:
            if isinstance(m.subject, NamedClass):
                by_term.setdefault(m.subject.iri.value, []).append(m.object)
            if isinstance(m.object, NamedClass):
                by_term.setdefault(m.object.iri.value, []).append(m.subject)
        elif m.predicate == SUB_CLASS_OF and isinstance(m.subject, NamedClass):
            by_term.setdefault(m.subject.iri.value, []).append(m.object)

    def target_only(exprs: List[ClassExpression]) -> List[ClassExpression]:
        return [e for e in exprs
                if not isinstance(e, NamedClass)
                or e.iri.value.startswith(tuple(alignment.target_namespaces))]

    direct = target_only(by_term.get(term, []))
    if direct:
        return sorted(direct, key=render_class_expression)
    collected: List[ClassExpression] = []
    for ancestor in Taxonomy(source_index).supers(term)[0]:
        collected.extend(target_only(by_term.get(ancestor, [])))
    return sorted(set(collected), key=render_class_expression)


def _compatible(tbox: TBoxIndex, translated: ClassExpression, candidate: ClassExpression) -> bool:
    # TBoxIndex.subsumed(x, owl:Thing) is false; a property without a domain
    # or range accepts any class.
    if candidate == THING or tbox.subsumed(translated, candidate):
        return True
    if isinstance(translated, Intersection):
        # A conjunction translates to its conjunct set; any subsumed conjunct
        # is accepted and left for the human reviewer to judge.
        return any(tbox.subsumed(op, candidate) for op in translated.operands)
    return False


def suggest_property_mappings(prop: str, source: OntologyModel,
                              targets: Sequence[OntologyModel],
                              alignment: Alignment) -> SuggestionResult:
    """Target object properties usable in place of the given source property.

    Every candidate's effective domain and range must equal or subsume the
    translated domain/range of the source property under the targets'
    entailed taxonomy. Inverse target properties are not considered as
    candidates; the output notes that restriction.
    """
    targets = list(targets)
    notes = ["inverse target properties are not considered as candidates"]
    _check_known(prop, [source])
    source_index = TBoxIndex([source])
    domain, range_ = _resolve_domain_range(prop, source_index)
    translations = {}
    for slot_name, ce in (("domain", domain), ("range", range_)):
        if isinstance(ce, NamedClass):
            found = _translations(ce.iri.value, source_index, alignment)
        else:
            found = []
        if not found:
            notes.append(f"unmapped-domain-or-range: no alignment translation for the {slot_name} "
                         f"{render_class_expression(ce)}")
            return SuggestionResult(candidates=[], notes=notes)
        translations[slot_name] = found

    # Seed the comparison index so translated expressions join the universe.
    seed = OntologyModel(source_label="translation-seeds")
    probe = Iri("urn:probe:translation")
    for exprs in translations.values():
        for e in exprs:
            seed.axioms.append(Axiom("class-assertion", (probe, e)))
    tbox = TBoxIndex(targets + [seed])

    candidates: List[Candidate] = []
    for target_prop in sorted(merged_signature(targets)["object_properties"]):
        cand_domain, cand_range = _resolve_domain_range(target_prop, tbox)
        domain_hit = next((t for t in translations["domain"]
                           if _compatible(tbox, t, cand_domain)), None)
        if domain_hit is None:
            continue
        range_hit = next((t for t in translations["range"]
                          if _compatible(tbox, t, cand_range)), None)
        if range_hit is None:
            continue
        exact = domain_hit == cand_domain and range_hit == cand_range
        candidates.append(Candidate(
            prop=target_prop,
            domain_match=(domain_hit, cand_domain),
            range_match=(range_hit, cand_range),
            match_kind="exact" if exact else "inherited",
        ))
    candidates.sort(key=lambda c: (c.match_kind != "exact", c.prop))
    return SuggestionResult(candidates=candidates, notes=notes)
