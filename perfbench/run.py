"""provalign benchmark: one closed-loop client driving ``provalign.cli.run``.

    python3 perfbench/run.py --workload prov-trace --seed 1 --seconds 35 --trace 0

Run from a checkout's root (or anywhere: paths resolve from this file). One
process, one request at a time, no threads. Set-up imports provalign from
``src/`` and writes the seeded inputs and their answer file under
``.perfbench/``. An untimed gate then replays the bundled fixtures'
hand-pinned verdicts. The loop runs whole laps over the workload's requests
until ``--seconds`` have passed; after each request, outside the timed
region, the oracle checks the exit code and the report against the planted
answer.

With ``--trace 0`` the last line reports the end-to-end metrics. Their times
are wall seconds scaled by a speed gauge (see ``SpeedGauge``) to cancel the
host's drift; the record line gives them as measured too, under ``wall``. With
``--trace 1`` every request runs twice, untraced and then traced, and the last
line reports the per-layer metrics: self times and counts per request from
the traced runs, plus the tracing overhead (traced over untraced wall time).
Either way, each request's report SHA-256 and its counts must repeat on every
later run of the same request in the process; ``determinism`` in the record
line digests them, so runs with the same seed can be compared across
processes. The record line before the last one also gives the tail
percentile, the request count, nproc, the Python version and the ``src/``
line count. The spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import oracle
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "provalign", "fixtures")
OUTPUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
# The reference kernel's median seconds on the machine the bounds were set on
# (2-core Xeon VM, Python 3.11.7), and how many kernel times, centred on a
# timed region, give the host's speed for it.
REFERENCE_S = 0.03
GAUGE_WINDOW = 15


def _kernel() -> int:
    """Fixed pure-Python work shaped like provalign's: tuples, sets, dicts, sorting."""
    facts = set()
    for i in range(10000):
        facts.add(("prop", "p%d" % (i % 97), "x%d" % (i % 1013), "y%d" % (i * 7 % 1013)))
    index: Dict[str, List[Tuple[str, str]]] = {}
    for fact in sorted(facts):
        index.setdefault(fact[1], []).append((fact[2], fact[3]))
    joined = 0
    for pairs in index.values():
        seen = {a for a, _ in pairs}
        joined += sum(1 for _, b in pairs if b in seen)
    return joined


class SpeedGauge:
    """Scales wall times to the reference machine speed.

    The host's speed drifts by tens of percent over minutes, with other
    tenants' load. The kernel, which never calls provalign, runs with the
    collector off just before each timed region. Each time is scaled by
    REFERENCE_S over the median of the GAUGE_WINDOW kernel times centred on
    it, so host drift cancels while a change to provalign shows in full.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scaled(self, times: List[float]) -> List[float]:
        """The times, one per kernel sample and in order, at the reference speed."""
        out = []
        for i, elapsed in enumerate(times):
            start = max(0, min(i - GAUGE_WINDOW // 2, len(self.samples) - GAUGE_WINDOW))
            out.append(elapsed * REFERENCE_S
                       / statistics.median(self.samples[start:start + GAUGE_WINDOW]))
        return out


def _purge_provalign() -> None:
    for name in [n for n in sys.modules if n == "provalign" or n.startswith("provalign.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: str) -> Tuple[Tuple[float, float], Callable, List[dict]]:
    """Import provalign and write the inputs, several times.

    Returns the median seconds, scaled and as measured, with cli.run and the
    requests.
    """
    gauge = SpeedGauge()
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_provalign()
        shutil.rmtree(workdir, ignore_errors=True)
        gauge.sample()
        start = time.perf_counter()
        from provalign import cli
        requests = workloads.generate(workload, seed, workdir, FIXTURES)
        times.append(time.perf_counter() - start)
    medians = statistics.median(gauge.scaled(times)), statistics.median(times)
    return medians, cli.run, requests


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _tail(times: List[float]) -> Tuple[float, float]:
    """Value at the highest percentile with at least ten requests beyond it."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Loop:
    """Whole laps over the requests, with the oracle and determinism guard."""

    def __init__(self, run: Callable, requests: List[dict], answers: Dict[str, dict],
                 gauge: SpeedGauge):
        self.run = run
        self.gauge = gauge
        self.requests = requests
        self.answers = answers
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.seen: Dict[str, Tuple[str, dict]] = {}
        self.totals: Dict[str, int] = collections.Counter()

    def timed(self, request: dict, call: Callable[[], int]) -> float:
        """Run one request and check its verdict; its wall seconds."""
        if os.path.exists(request["out"]):
            os.remove(request["out"])
        self.gauge.sample()
        gc.collect()
        start = time.perf_counter()
        try:
            code = call()
        except Exception:  # a raising request is a wrong verdict; keep measuring
            code = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        self.attempted += 1
        found = [f"raised {error}"] if code is None else oracle.check(
            request["kind"], code, request["out"], self.answers[request["id"]])
        if found:
            self.failed += 1
            self.problems += [f"{request['id']}: {p}" for p in found]
        return elapsed

    def guard(self, request: dict, counts: dict) -> None:
        """Report bytes and counts must repeat on every run of a request."""
        digest = _sha256(request["out"]) if os.path.exists(request["out"]) else ""
        first = self.seen.setdefault(request["id"], (digest, counts))
        if first[0] != digest:
            self.problems.append(f"{request['id']}: report bytes differ between runs")
        if counts and first[1] and first[1] != counts:
            self.problems.append(f"{request['id']}: counts differ between traced runs")
        if counts and not first[1]:
            self.seen[request["id"]] = (digest, counts)

    def determinism_digest(self) -> str:
        text = json.dumps(sorted(self.seen.items()), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def measure(self, seconds: float, trace: Optional[tracer.Tracer]) -> Dict[str, List[float]]:
        plain: List[float] = []
        traced: List[float] = []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            for request in self.requests:
                plain.append(self.timed(request, lambda: self.run(request["argv"])))
                self.guard(request, {})
                if trace is None:
                    continue
                trace.install()
                try:
                    request_id = len(traced)
                    traced.append(self.timed(
                        request, lambda: trace.request(request_id, self.run, request["argv"])))
                finally:
                    trace.uninstall()
                counts = trace.request_counts()
                counts["files"] = len(request["files"])
                self.guard(request, counts)
                self.totals.update(counts)
        return {"plain": plain, "traced": traced}


def _timings(times: List[float], setup_s: float) -> dict:
    tail, _ = _tail(times)
    return {"verdict_p50_s": statistics.median(times), "verdict_tail_s": tail,
            "verdicts_per_s": len(times) / sum(times), "setup_s": setup_s}


def end_to_end(times: List[float], setup_s: Tuple[float, float],
               gauge: SpeedGauge) -> Tuple[dict, dict]:
    """Metrics from the scaled times; the record keeps the times as measured."""
    metrics = _timings(gauge.scaled(times), setup_s[0])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = {"tail_percentile": _tail(times)[1], "requests": len(times),
             "wall": _timings(times, setup_s[1]), "gauge_s": statistics.median(gauge.samples)}
    return metrics, extra


RULES = ("asserted", "subsumption", "domain", "range", "inverse", "subproperty",
         "property-chain", "existential-witness", "existential-membership",
         "intersection-composition", "swrl-rule-1", "swrl-rule-2", "swrl-rule-3",
         "swrl-rule-4", "swrl-rule-5")


def per_layer(trace: tracer.Tracer, totals: Dict[str, int], plain: List[float],
              traced: List[float]) -> dict:
    """Per-request means over the traced requests; times are self wall seconds."""
    n = len(traced)
    self_s = trace.self_times()
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics["cli.self_s" if name == tracer.ROOT_SPAN else name + "_s"] = self_s[name] / n
    count = lambda key: totals.get(key, 0)  # noqa: E731
    closure_s = self_s["closure.materialize"] + self_s["closure.probe"]
    metrics.update({
        "turtle.parse_calls": count("turtle.parse_calls") / n,
        "turtle.triples_per_s": count("turtle.triples") / self_s["turtle.parse"],
        "turtle.parses_per_file": count("turtle.parse_calls") / count("files"),
        "owl.axioms": count("owl.axioms") / n,
        "index.builds": count("index.builds") / n,
        "index.universe": count("index.universe") / max(1, count("index.builds")),
        "closure.derived_facts": count("closure.derived_facts") / n,
        "closure.facts_per_s": count("closure.derived_facts") / closure_s,
        "closure.probes": count("closure.probes") / n,
        "closure.probes_per_class": count("closure.probes") / max(1, count("closure.probed_classes")),
        "matcher.candidates": count("matcher.candidates") / n,
        "tracing.overhead": sum(traced) / sum(plain),
    })
    for rule in RULES:
        metrics["closure.derived." + rule] = count("closure.derived." + rule) / n
    return metrics


def _src_lines() -> int:
    """Lines of src/provalign/*.py, the figure ROADMAP.md tracks."""
    package = os.path.join(SRC, "provalign")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if not os.path.isfile(os.path.join(SRC, "provalign", "cli.py")):
        print(f"perfbench: no provalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUTPUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, run, requests = set_up(args.workload, args.seed, workdir)
        gauge = SpeedGauge()
        answers = oracle.load_answers(os.path.join(workdir, "answers.json"))
        gate = oracle.fixture_gate(run, FIXTURES, workdir)
        loop = Loop(run, requests, answers, gauge)
        trace = tracer.Tracer() if args.trace else None
        times = loop.measure(args.seconds, trace)
        if trace is None:
            metrics, extra = end_to_end(times["plain"], setup_s, gauge)
            wanted = spec["end_to_end"]
        else:
            metrics = per_layer(trace, loop.totals, times["plain"], times["traced"])
            extra = {"requests": len(times["traced"])}
            wanted = spec["per_layer"]
            trace.write(os.path.join(OUTPUT, f"spans-{args.workload}-{args.seed}.csv"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    problems = gate + loop.problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wrong_verdicts": loop.failed, "problems": problems[:20],
        "determinism": loop.determinism_digest(), **extra,
        "nproc": os.cpu_count(), "python": platform.python_version(), "src_lines": _src_lines(),
    }
    print("record: " + json.dumps(record, sort_keys=True))
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6f} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
