"""Reports do not depend on the order of statements or of --target files."""

import random

import pytest

from provalign.cli import run
from provalign.fixtures import fixture_path, fixture_text
from provalign.turtle import parse_turtle, serialize_turtle

NS_FLAGS = [
    "--source-ns", "http://www.w3.org/ns/prov#",
    "--target-ns", "http://purl.obolibrary.org/obo/",
    "--target-ns", "https://www.commoncoreontologies.org/",
]
STACK = ("prov-mini.ttl", "bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl", "align-paper.ttl")
TARGETS = ("bfo-mini.ttl", "cco-mini.ttl", "ro-mini.ttl")
INSTANCES = ("instances/example4.ttl", "instances/fig9.ttl", "instances/fig11.ttl",
             "instances/revision.ttl")


def _shuffled(name, seed):
    """The fixture's triples one per line, blank nodes labelled, in a seeded order."""
    text = serialize_turtle(parse_turtle(fixture_text(name)))
    prefixes, _, statements = text.partition("\n\n")
    lines = statements.splitlines()
    random.Random(seed).shuffle(lines)
    return prefixes + "\n\n" + "\n".join(lines) + "\n"


def _outputs(tmp_path, files, targets, instances):
    """check-all (text and json) and materialize output bytes for one stack."""
    stack = ["--source", files["prov-mini.ttl"],
             *[arg for name in targets for arg in ("--target", files[name])],
             "--alignment", files["align-paper.ttl"], *NS_FLAGS]
    outputs = []
    for command in (["check-all", "--format", "text", "--instances", files[instances]],
                    ["check-all", "--format", "json", "--instances", files[instances]],
                    ["materialize"]):
        out = tmp_path / "out"
        code = run([command[0], *stack, *command[1:], "--out", str(out)])
        outputs.append((code, out.read_bytes()))
    return outputs


@pytest.fixture(scope="module")
def shuffles(tmp_path_factory):
    """Each stack file rewritten under two shuffle seeds, same basenames."""
    variants = []
    for seed in (1, 2):
        root = tmp_path_factory.mktemp(f"seed{seed}")
        (root / "instances").mkdir()
        files = {}
        for name in STACK + INSTANCES:
            path = root / name
            path.write_text(_shuffled(name, seed), encoding="utf-8")
            files[name] = str(path)
        variants.append(files)
    return variants


@pytest.mark.parametrize("instances", INSTANCES)
def test_reports_invariant_under_statement_order(tmp_path, shuffles, instances):
    first, second = (_outputs(tmp_path, files, TARGETS, instances) for files in shuffles)
    assert first == second
    assert first[0][0] == 1  # each stack has a clash, so check-all fails


@pytest.mark.parametrize("instances", INSTANCES)
def test_reports_invariant_under_target_order(tmp_path, instances):
    files = {name: str(fixture_path(name)) for name in STACK + INSTANCES}
    assert (_outputs(tmp_path, files, TARGETS, instances)
            == _outputs(tmp_path, files, TARGETS[::-1], instances))
