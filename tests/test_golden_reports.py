"""Golden digests of every fixture report.

Each case runs ``provalign`` in process through ``cli.run`` from inside the
fixture directory, so no path in a report or message depends on where the
checkout lives. It pins the SHA-256 of stdout and of stderr and the exit code;
the digests are kept in ``golden_digests.json`` next to this file.

The matrix: each alignment fixture with each source fixture, with no instance
data or with each ``instances/*.ttl``, through every subcommand but
``suggest`` (in text and in JSON where the subcommand reads ``--format``),
plus ``suggest`` for five PROV properties.

Run as a script, it needs only the standard library::

    python tests/test_golden_reports.py           # check every case
    python tests/test_golden_reports.py --update  # rewrite the digests after an intended change
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

try:
    from provalign import cli
    from provalign.fixtures import INSTANCE_NAMES, fixture_path
except ImportError:  # run as a script without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from provalign import cli
    from provalign.fixtures import INSTANCE_NAMES, fixture_path

GOLDEN = Path(__file__).with_name("golden_digests.json")

ALIGNMENTS = ("align-paper", "align-counterexample", "align-plan-incoherent")
SOURCES = ("prov-mini", "prov-tiny")
REPORT_COMMANDS = ("check-totality", "check-coherence", "check-consistency",
                   "check-conservativity", "check-all", "stats")
RAW_COMMANDS = ("materialize", "export-sssom")  # their output ignores --format
SUGGESTED = ("wasGeneratedBy", "wasDerivedFrom", "wasAssociatedWith", "wasAttributedTo", "generated")
FORMATS = ("text", "json")

NS_FLAGS = ["--source-ns", "http://www.w3.org/ns/prov#",
            "--target-ns", "http://purl.obolibrary.org/obo/",
            "--target-ns", "https://www.commoncoreontologies.org/"]
TARGET_FLAGS = ["--target", "bfo-mini.ttl", "--target", "cco-mini.ttl", "--target", "ro-mini.ttl"]


def cases() -> List[Tuple[str, List[str]]]:
    """(case id, argv) for every fixture invocation, in a fixed order."""
    out: List[Tuple[str, List[str]]] = []
    for alignment in ALIGNMENTS:
        for source in SOURCES:
            stack = ["--source", f"{source}.ttl", *TARGET_FLAGS, "--alignment", f"{alignment}.ttl", *NS_FLAGS]
            for instances in (None, *INSTANCE_NAMES):
                extra = ["--instances", instances] if instances else []
                where = f"{alignment} {source} {instances or '-'}"
                for command in REPORT_COMMANDS:
                    for fmt in FORMATS:
                        out.append((f"{command} {fmt} {where}", [command, *stack, *extra, "--format", fmt]))
                for command in RAW_COMMANDS:
                    out.append((f"{command} {where}", [command, *stack, *extra]))
        stack = ["--source", "prov-mini.ttl", *TARGET_FLAGS, "--alignment", f"{alignment}.ttl", *NS_FLAGS]
        for prop in SUGGESTED:
            for fmt in FORMATS:
                out.append((f"suggest {fmt} {alignment} prov:{prop}",
                            ["suggest", *stack, "--property", "http://www.w3.org/ns/prov#" + prop,
                             "--format", fmt]))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> Dict[str, Dict[str, object]]:
    """Run every case from inside the fixture directory; its digests by case id."""
    saved_cwd, saved_cap = os.getcwd(), os.environ.pop(cli.FACT_CAP_ENV, None)
    os.chdir(fixture_path("prov-mini.ttl").parent)
    out: Dict[str, Dict[str, object]] = {}
    try:
        for case_id, argv in cases():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
            out[case_id] = {"exit": code, "stdout": _sha256(stdout.getvalue()),
                            "stderr": _sha256(stderr.getvalue())}
    finally:
        os.chdir(saved_cwd)
        if saved_cap is not None:
            os.environ[cli.FACT_CAP_ENV] = saved_cap
    return out


def mismatches(actual: Dict[str, Dict[str, object]], golden: Dict[str, Dict[str, object]]) -> List[str]:
    return [f"{case_id}: expected {golden.get(case_id)}, got {actual.get(case_id)}"
            for case_id in sorted(set(actual) | set(golden)) if actual.get(case_id) != golden.get(case_id)]


def test_matrix_has_every_case_once():
    ids = [case_id for case_id, _ in cases()]
    assert len(ids) == len(set(ids)) == 702


def test_fixture_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert mismatches(digests(), golden) == []


def main(argv: List[str]) -> int:
    actual = digests()
    if argv == ["--update"]:
        rows = (f" {json.dumps(case_id)}: {json.dumps(actual[case_id], sort_keys=True)}" for case_id in sorted(actual))
        GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(actual)} digests to {GOLDEN.name}")
        return 0
    if argv:
        print("usage: test_golden_reports.py [--update]", file=sys.stderr)
        return 2
    lines = mismatches(actual, json.loads(GOLDEN.read_text(encoding="utf-8")))
    for line in lines:
        print(line)
    print(f"{len(actual) - len(lines)} of {len(actual)} cases match {GOLDEN.name}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
