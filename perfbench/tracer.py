"""Spans around the public calls into each provalign layer.

The wrappers live here, not in provalign: ``Tracer.install`` replaces each
public function wherever a loaded provalign module holds it, including the
names imported into ``provalign.cli``, ``provalign.checks`` and
``provalign.matcher``, and ``uninstall`` puts the originals back. Spans are
kept in memory (name, start, end, parent, request) and nest, so each layer's
figure is a self time: its spans' durations minus the time covered by their
child spans.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Span name -> (defining module, attribute). Each span name is also the stem
# of the layer's time metric ("<name>_s").
PUBLIC_CALLS: Dict[str, Tuple[str, str]] = {
    "turtle.parse": ("provalign.turtle", "parse_turtle"),
    "turtle.serialize": ("provalign.turtle", "serialize_turtle"),
    "owl.extract": ("provalign.owl", "extract_axioms"),
    "alignment.extract_mappings": ("provalign.alignment", "extract_mappings"),
    "alignment.export_sssom": ("provalign.alignment", "export_sssom"),
    "closure.materialize": ("provalign.reasoner", "materialize"),
    "closure.probe": ("provalign.reasoner", "class_satisfiable"),
    "closure.clash_scan": ("provalign.reasoner", "check_clash"),
    "closure.explain": ("provalign.reasoner", "explain"),
    "closure.taxonomy": ("provalign.reasoner", "entailed_taxonomy"),
    "checks.totality": ("provalign.checks", "check_totality"),
    "checks.coherence": ("provalign.checks", "check_coherence"),
    "checks.consistency": ("provalign.checks", "check_consistency"),
    "checks.conservativity": ("provalign.checks", "check_conservativity"),
    "matcher.suggest": ("provalign.matcher", "suggest_property_mappings"),
}
INDEX_SPAN = "index.build"  # TBoxIndex.__init__
ROOT_SPAN = "cli"  # cli.run, opened by Tracer.request

SPAN_NAMES = [ROOT_SPAN, INDEX_SPAN] + list(PUBLIC_CALLS)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self._stack: List[int] = []
        self._request = -1
        self._restore: List[Tuple[object, str, object]] = []
        # Per-request counts gathered at the span boundaries.
        self.counts: Dict[str, int] = collections.Counter()
        self._kbs: List[object] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self) -> Optional[str]:
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Direct recursion (explain) folds into the outer span.
            if self._parent_name() == name:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def request(self, request_id: int, run: Callable[[List[str]], int], argv: List[str]) -> int:
        """Run one request under a root span; counts restart for each request."""
        self._request = request_id
        self.counts.clear()
        self._kbs = []
        index = self._open(ROOT_SPAN)
        try:
            return run(argv)
        finally:
            self._close(index)

    def request_counts(self) -> Dict[str, int]:
        """Counts for the request just run, including derived facts per rule."""
        counts = collections.Counter(self.counts)
        for kb in self._kbs:
            counts["closure.derived_facts"] += kb.derived_count
            for trace in kb.traces.values():
                counts["closure.derived." + trace.rule] += 1
        self._kbs = []
        return dict(counts)

    # -- installation ------------------------------------------------------------

    def _observers(self) -> Dict[str, Callable]:
        counts = self.counts

        def parsed(args, graph):
            counts["turtle.parse_calls"] += 1
            counts["turtle.triples"] += len(graph.triples)

        def extracted(args, model):
            counts["owl.axioms"] += len(model.axioms)

        def materialized(args, kb):
            self._kbs.append(kb)

        def scanned(args, clashes):
            # A probe's closure is only visible to the clash scan it ends with.
            if self._parent_name() == "closure.probe":
                self._kbs.append(args[0])

        def probed(args, ok):
            counts["closure.probes"] += 1

        def coherence(args, report):
            counts["closure.probed_classes"] += report.probed

        def suggested(args, result):
            counts["matcher.candidates"] += len(result.candidates)

        return {"turtle.parse": parsed, "owl.extract": extracted,
                "closure.materialize": materialized, "closure.clash_scan": scanned,
                "closure.probe": probed, "checks.coherence": coherence,
                "matcher.suggest": suggested}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "provalign" or name.startswith("provalign.")) and m is not None]
        observers = self._observers()
        for name, (module_name, attr) in PUBLIC_CALLS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        tbox = sys.modules["provalign.reasoner"].TBoxIndex
        init = tbox.__init__

        def built(args, _):
            self.counts["index.builds"] += 1
            self.counts["index.universe"] += len(args[0].universe)

        self._restore.append((tbox, "__init__", init))
        tbox.__init__ = self.wrap(INDEX_SPAN, init, built)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    # -- results -------------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: Dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - covered[i]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one CSV line: name,start,end,parent,request."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,request\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                handle.write("%s,%.9f,%.9f,%d,%d\n" % row)
