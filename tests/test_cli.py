import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import provalign
import provalign.checks
import provalign.cli
import provalign.index
from provalign import owl, rdf
from provalign.cli import run
from provalign.fixtures import fixture_path
from provalign.owl import extract_axioms
from provalign.turtle import MAX_NESTING, parse_turtle

NS_FLAGS = [
    "--source-ns", "http://www.w3.org/ns/prov#",
    "--target-ns", "http://purl.obolibrary.org/obo/",
    "--target-ns", "https://www.commoncoreontologies.org/",
]


def fix(name):
    return str(fixture_path(name))


def stack_flags():
    return [
        "--source", fix("prov-mini.ttl"),
        "--target", fix("bfo-mini.ttl"),
        "--target", fix("cco-mini.ttl"),
        "--target", fix("ro-mini.ttl"),
        "--alignment", fix("align-paper.ttl"),
    ]


@pytest.fixture(scope="module")
def schema():
    with open(fix("../report-schema.json")) as handle:
        return json.load(handle)


def run_json(argv, tmp_path, expect_exit):
    out = tmp_path / "report.json"
    code = run(argv + ["--format", "json", "--out", str(out)])
    assert code == expect_exit
    return json.loads(out.read_text())


def test_consistency_fig9_exits_one(tmp_path, schema):
    doc = run_json(["check-consistency", *stack_flags(),
                    "--instances", fix("instances/fig9.ttl")], tmp_path, 1)
    jsonschema.validate(doc, schema)
    assert doc["status"] == "fail"
    assert doc["counts"]["clashes"] == 1
    assert doc["findings"][0]["individual"].endswith("digestedProteinSample1")


def test_consistency_fig12_exits_zero(tmp_path, schema):
    doc = run_json(["check-consistency", *stack_flags(),
                    "--instances", fix("instances/fig12.ttl")], tmp_path, 0)
    jsonschema.validate(doc, schema)
    assert doc["status"] == "pass"


def test_totality_with_empty_alignment_lists_all(tmp_path, schema):
    doc = run_json([
        "check-totality",
        "--source", fix("prov-mini.ttl"),
        "--alignment", fix("prov-tiny.ttl"),  # parses, contains no mappings
        *NS_FLAGS,
    ], tmp_path, 1)
    jsonschema.validate(doc, schema)
    assert doc["counts"]["unmapped"] == doc["counts"]["source_terms"] == 21


def test_totality_full_alignment_passes(tmp_path, schema):
    doc = run_json(["check-totality", *stack_flags(), *NS_FLAGS], tmp_path, 0)
    jsonschema.validate(doc, schema)
    assert doc["counts"]["unmapped"] == 0


def test_coherence_and_conservativity_pass(tmp_path, schema):
    for command in ("check-coherence", "check-conservativity"):
        doc = run_json([command, *stack_flags(), *NS_FLAGS], tmp_path, 0)
        jsonschema.validate(doc, schema)
        assert doc["status"] == "pass"


def test_check_all_validates_and_passes(tmp_path, schema):
    doc = run_json(["check-all", *stack_flags(),
                    "--instances", fix("instances/fig12.ttl"), *NS_FLAGS], tmp_path, 0)
    jsonschema.validate(doc, schema)
    assert {c["check"] for c in doc["checks"]} == {
        "totality", "coherence", "consistency", "conservativity"}


def test_check_all_fails_if_any_check_fails(tmp_path, schema):
    doc = run_json(["check-all", *stack_flags(),
                    "--instances", fix("instances/fig9.ttl"), *NS_FLAGS], tmp_path, 1)
    jsonschema.validate(doc, schema)
    assert doc["status"] == "fail"


def test_check_all_byte_identical_between_runs(tmp_path):
    args = ["check-all", *stack_flags(), "--instances", fix("instances/fig9.ttl"),
            *NS_FLAGS, "--format", "json"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 1
    table = len(owl._EXPRESSIONS)
    assert run(args + ["--out", str(out2)]) == 1
    assert out1.read_bytes() == out2.read_bytes()
    # The second run interns no expression the first did not.
    assert len(owl._EXPRESSIONS) == table


def test_export_sssom_writes_csv(tmp_path):
    out = tmp_path / "mappings.csv"
    code = run(["export-sssom", "--alignment", fix("align-paper.ttl"),
                *NS_FLAGS, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "subject_id,predicate_id,object_id,subject_label,object_label,mapping_justification,comment"
    data_rows = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(data_rows) == 14


def test_suggest_subcommand(tmp_path, schema):
    doc = run_json(["suggest", "--property", "http://www.w3.org/ns/prov#generated",
                    "--source", fix("prov-mini.ttl"),
                    "--target", fix("cco-mini.ttl"),
                    "--target", fix("bfo-mini.ttl"),
                    "--alignment", fix("align-paper.ttl"), *NS_FLAGS], tmp_path, 0)
    jsonschema.validate(doc, schema)
    assert [f["property"].rsplit("/", 1)[-1] for f in doc["findings"]] == [
        "affects", "has_input", "has_output"]


def test_stats_subcommand(tmp_path, schema):
    doc = run_json(["stats", "--alignment", fix("align-paper.ttl"),
                    "--source", fix("prov-mini.ttl"), *NS_FLAGS], tmp_path, 0)
    jsonschema.validate(doc, schema)
    assert doc["counts"]["simple"] == 14


def test_materialize_emits_parseable_turtle_with_derived_mappings(tmp_path):
    out = tmp_path / "derived.ttl"
    code = run(["materialize", *stack_flags(), *NS_FLAGS, "--out", str(out)])
    assert code == 0
    graph = parse_turtle(out.read_text())
    model = extract_axioms(graph)
    derived = [a for a in model.axioms
               if any(v.lexical == "entailed by the asserted alignment"
                      for _, v in a.annotations if hasattr(v, "lexical"))]
    pairs = {(a.kind, a.args[0].iri.value, a.args[1].iri.value)
             for a in derived if a.kind in ("sub-class-of", "sub-property-of")}
    # the inverse-entailed property mapping is materialized
    assert ("sub-property-of", "http://www.w3.org/ns/prov#generated",
            "http://purl.obolibrary.org/obo/BFO_0000057") in pairs


def test_missing_file_exits_two(capsys):
    assert run(["check-coherence", "--source", "no-such-file.ttl"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix ex: <http://e/> .\nex:s ex:p \"unterminated .")
    assert run(["check-coherence", "--source", str(bad)]) == 2
    assert "parse failure" in capsys.readouterr().err


def test_missing_required_flags_exit_two(capsys):
    assert run(["check-totality", "--source", fix("prov-mini.ttl")]) == 2
    assert "requires" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    assert run(["frobnicate"]) == 2


def test_text_format_default_stdout(capsys):
    code = run(["check-coherence", "--source", fix("prov-mini.ttl")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("check: coherence\nstatus: pass\n")


def test_fact_cap_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROVALIGN_FACT_CAP", "1")
    code = run(["check-consistency", *stack_flags(),
                "--instances", fix("instances/fig9.ttl")])
    assert code == 2
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("PROVALIGN_FACT_CAP", "not-a-number")
    assert run(["check-consistency", *stack_flags(),
                "--instances", fix("instances/fig9.ttl")]) == 2
    capsys.readouterr()
    monkeypatch.setenv("PROVALIGN_FACT_CAP", "0")
    assert run(["check-coherence", "--source", fix("prov-mini.ttl")]) == 2
    assert capsys.readouterr().err == "provalign: error: PROVALIGN_FACT_CAP must be at least 1, got 0\n"


def test_fact_cap_flag_overrides_env(monkeypatch, tmp_path):
    monkeypatch.setenv("PROVALIGN_FACT_CAP", "1")
    doc = run_json(["check-consistency", *stack_flags(),
                    "--instances", fix("instances/fig12.ttl"),
                    "--fact-cap", "100000"], tmp_path, 0)
    assert doc["status"] == "pass"


def test_check_all_parses_each_file_once(monkeypatch, tmp_path):
    parsed = []
    original = provalign.cli.parse_turtle

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(provalign.cli, "parse_turtle", counting)
    run_json(["check-all", *stack_flags(), "--instances", fix("instances/fig9.ttl"),
              *NS_FLAGS], tmp_path, 1)
    assert len(parsed) == 6  # prov, bfo, cco, ro, align-paper, fig9


def test_deep_nesting_exits_two(tmp_path, capsys):
    depth = 3000
    deep = tmp_path / "deep.ttl"
    deep.write_text("@prefix ex: <http://example.org/> .\nex:a ex:p "
                    + "[ ex:p " * depth + "ex:b" + " ]" * depth + " .\n")
    assert run(["check-coherence", "--source", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("provalign: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("opener,closer", [("[ ex:p ", " ]"), ("( ", " )")])
def test_deep_nesting_is_a_parse_failure(tmp_path, capsys, opener, closer):
    depth = 3000
    deep = tmp_path / "deep.ttl"
    deep.write_text("@prefix ex: <http://example.org/> .\nex:a ex:p "
                    + opener * depth + "ex:b" + closer * depth + " .\n")
    assert run(["check-coherence", "--source", str(deep)]) == 2
    column = len("ex:a ex:p ") + len(opener) * MAX_NESTING + 1
    assert capsys.readouterr().err == (
        f"provalign: error: parse failure in {deep}: 2:{column}: error: "
        f"more than {MAX_NESTING} nested '[' or '('\n")


def test_unexpected_exception_exits_two_with_one_line(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(provalign.cli, "check_coherence", broken)
    assert run(["check-coherence", "--source", fix("prov-mini.ttl")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "provalign: error: internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_check_all_identical_across_hash_seeds(tmp_path):
    args = ["check-all", *stack_flags(), "--instances", fix("instances/fig9.ttl"),
            *NS_FLAGS, "--format", "json"]
    package_root = str(Path(provalign.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        done = subprocess.run([sys.executable, "-m", "provalign.cli", *args, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 1, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_deep_subclass_chain_exits_zero(tmp_path, capsys):
    # C0000 is the bottom, so ex:i's one assertion puts it in all 1,500 classes:
    # one mask in the closure, and a 1,500-deep subsumption trace when replayed.
    depth = 1500
    names = [f"ex:C{k:04d}" for k in range(depth)]
    chain = tmp_path / "chain.ttl"
    chain.write_text("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
                     "@prefix ex: <http://example.org/chain#> .\n"
                     + "".join(f"{a} rdfs:subClassOf {b} .\n" for a, b in zip(names, names[1:])))
    instances = tmp_path / "instances.ttl"
    instances.write_text("@prefix ex: <http://example.org/chain#> .\nex:i a ex:C0000 .\n")
    assert run(["check-coherence", "--source", str(chain)]) == 0
    assert run(["check-consistency", "--source", str(chain),
                "--instances", str(instances)]) == 0
    assert capsys.readouterr().err == ""



_CHAIN_HEADER = ("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
                 "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                 "@prefix ex: <http://example.org/src#> .\n"
                 "@prefix t: <http://example.org/tgt#> .\n")


def _chain_flags(tmp_path, files):
    """Writes each role's Turtle of ``files`` and returns every subcommand's flags."""
    flags = {}
    for role, text in files.items():
        path = tmp_path / f"chain-{role}.ttl"
        path.write_text(_CHAIN_HEADER + text)
        flags[role] = ["--" + role, str(path)]
    common = [*flags["source"], *flags["target"], *flags["alignment"],
              "--source-ns", "http://example.org/src#", "--target-ns", "http://example.org/tgt#"]
    return {"check-totality": common, "check-coherence": common,
            "check-consistency": common + flags["instances"],
            "check-conservativity": common, "check-all": common + flags["instances"],
            "suggest": common + ["--property", "http://example.org/src#p0"],
            "materialize": common, "export-sssom": common, "stats": common}


def _property_chain(tmp_path, depth):
    """ex:p0 below ex:p1 ... below ex:p<depth>, whose domain and range alone are
    declared and map onto those of t:q; returns every subcommand's flags."""
    return _chain_flags(tmp_path, {
        "source": "".join(f"ex:p{k} a owl:ObjectProperty ; rdfs:subPropertyOf ex:p{k + 1} .\n"
                          for k in range(depth))
        + f"ex:p{depth} a owl:ObjectProperty ; rdfs:domain ex:C ; rdfs:range ex:D .\n",
        "target": "t:q a owl:ObjectProperty ; rdfs:domain t:C ; rdfs:range t:D .\n",
        "alignment": "ex:C owl:equivalentClass t:C .\nex:D owl:equivalentClass t:D .\n",
        "instances": "ex:a ex:p0 ex:b .\n",
    })


def _class_chain(tmp_path, depth):
    """ex:C0 below ex:C1 ... below ex:C<depth>, which is disjoint with ex:E; the
    alignment puts ex:C0 below t:A and t:A below ex:E, so the merge adds one
    subsumption and makes ex:C0 disjoint with every other chain member; returns
    every subcommand's flags."""
    return _chain_flags(tmp_path, {
        "source": "".join(f"ex:C{k} rdfs:subClassOf ex:C{k + 1} .\n" for k in range(depth))
        + f"ex:C{depth} owl:disjointWith ex:E .\n",
        "target": "t:A a owl:Class .\n",
        "alignment": "ex:C0 rdfs:subClassOf t:A .\nt:A rdfs:subClassOf ex:E .\n",
        "instances": "ex:a a ex:C1 .\n",
    })


def test_suggest_inherits_through_a_deep_subproperty_chain(tmp_path):
    argv = _property_chain(tmp_path, 3000)["suggest"]
    doc = run_json(["suggest", *argv], tmp_path, 0)
    assert [(f["property"], f["match_kind"]) for f in doc["findings"]] == [("http://example.org/tgt#q", "exact")]


def test_every_subcommand_survives_a_deep_subproperty_chain(tmp_path, capsys):
    # Deeper than Python's default recursion limit of 1,000: any walk that
    # recurses once per link fails here.
    for subcommand, argv in _property_chain(tmp_path, 3000).items():
        assert run([subcommand, *argv, "--out", str(tmp_path / "out")]) in (0, 1), subcommand
        assert "internal error" not in capsys.readouterr().err


def test_conservativity_on_a_deep_subclass_chain_with_one_disjointness(tmp_path):
    doc = run_json(["check-conservativity", *_class_chain(tmp_path, 3000)["check-conservativity"]], tmp_path, 1)
    src = "http://example.org/src#"
    assert doc["findings"] == [{"new_subsumption": {"sub": src + "C0", "super": src + "E", "signature": "o1"}}]
    assert doc["counts"]["new_disjointness_informational"] == 3000


def _decoded_ids(monkeypatch, argv):
    """How many ids the mask decoder returns while ``argv`` runs."""
    decoded = [0]
    bit_ids = provalign.index._bit_ids

    def counting(mask):
        ids = bit_ids(mask)
        decoded[0] += len(ids)
        return ids

    with monkeypatch.context() as patch:
        for module in (provalign.index, provalign.reasoner, provalign.checks):
            patch.setattr(module, "_bit_ids", counting, raising=False)
        assert run([*argv, "--out", os.devnull]) in (0, 1)
    return decoded[0]


@pytest.mark.parametrize("chain,subcommand", [
    (_property_chain, "check-conservativity"), (_property_chain, "check-totality"),
    (_property_chain, "materialize"), (_class_chain, "check-conservativity")])
def test_decoded_names_grow_linearly_with_chain_depth(chain, subcommand, tmp_path, monkeypatch):
    # A check that decodes each chain member's whole hierarchy decodes about
    # depth squared / 2 names: 4.5 million at 3,000.
    counts = [_decoded_ids(monkeypatch, [subcommand, *chain(tmp_path, depth)[subcommand]]) for depth in (1500, 3000)]
    assert counts[1] <= 2 * counts[0] + 16 and counts[1] <= 8 * 3000, counts


@pytest.mark.parametrize("subcommand", ["check-all", "check-totality", "check-conservativity",
                                        "stats", "materialize"])
def test_checks_read_the_taxonomy_per_name(subcommand, tmp_path, capsys, monkeypatch):
    # The pair sets are for the library API; a check that builds one is
    # quadratic in the depth of a hierarchy.
    def refuse(self):
        raise AssertionError("a taxonomy pair set was read")

    for name in ("subclass_pairs", "equivalent_class_pairs", "subproperty_pairs", "equivalent_property_pairs"):
        monkeypatch.setattr(provalign.reasoner.Taxonomy, name, property(refuse))
    argv = [subcommand, *stack_flags(), *NS_FLAGS, "--out", str(tmp_path / "out")]
    if subcommand == "check-all":
        argv += ["--instances", fix("instances/fig9.ttl")]
    assert run(argv) in (0, 1)
    assert "internal error" not in capsys.readouterr().err


def test_shallow_witness_kept_beside_a_deeper_successor(tmp_path):
    # The chain gives x a p-successor in D at skolem depth 2, whose q-witnesses
    # stop at the default depth of 3 before reaching G. The witness for
    # (p some D) sits at depth 1, so its own chain reaches G and the clash.
    onto = tmp_path / "onto.ttl"
    onto.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix ex: <http://example.org/w#> .\n"
        "ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:r ; owl:someValuesFrom ex:B ] .\n"
        "ex:B rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:s ; owl:someValuesFrom ex:C ] .\n"
        "ex:p owl:propertyChainAxiom ( ex:r ex:s ) .\n"
        "ex:C rdfs:subClassOf ex:D .\n"
        "[ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:D ] rdfs:subClassOf ex:H .\n"
        "ex:D rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:q ; owl:someValuesFrom ex:F ] .\n"
        "ex:F rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:q ; owl:someValuesFrom ex:G ] .\n"
        "ex:G rdfs:subClassOf owl:Nothing .\n")
    instances = tmp_path / "instances.ttl"
    instances.write_text("@prefix ex: <http://example.org/w#> .\nex:a a ex:A .\n")
    coherence = run_json(["check-coherence", "--source", str(onto)], tmp_path, 1)
    assert {"unsatisfiable_class": "http://example.org/w#A"} in coherence["findings"]
    consistency = run_json(["check-consistency", "--source", str(onto),
                            "--instances", str(instances)], tmp_path, 1)
    assert [f["kind"] for f in consistency["findings"]] == ["nothing-membership"]


@pytest.mark.parametrize("cls, exit_code, clashes", [("Nothing", 1, ["nothing-membership"]), ("Thing", 0, [])])
def test_a_type_of_thing_or_nothing_is_a_class_assertion(tmp_path, cls, exit_code, clashes):
    head = "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n@prefix ex: <http://example.org/t#> .\n"
    onto, instances = tmp_path / "onto.ttl", tmp_path / "instances.ttl"
    onto.write_text(head + "ex:C a owl:Class .\n")
    instances.write_text(head + f"ex:a a owl:{cls} .\n")
    doc = run_json(["check-consistency", "--source", str(onto), "--instances", str(instances)], tmp_path, exit_code)
    assert [f["kind"] for f in doc["findings"]] == clashes
    assert (doc["counts"]["instances"], doc["counts"]["unmodeled_axioms"]) == (1, 0)


@pytest.mark.parametrize("statement, member, unsatisfiable", [
    ("ex:C owl:disjointWith ex:C .", "C", ["C"]),
    ("ex:U owl:disjointUnionOf ( ex:A ex:A ) .", "A", ["A", "U"]),
    ("[] a owl:AllDisjointClasses ; owl:members ( ex:C ex:D ex:C ) .", "C", ["C"]),
], ids=["disjoint-with", "disjoint-union", "all-disjoint-classes"])
def test_a_class_disjoint_with_itself_is_unsatisfiable(tmp_path, statement, member, unsatisfiable):
    ex = "http://example.org/t#"
    head = f"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n@prefix ex: <{ex}> .\n"
    onto, instances = tmp_path / "onto.ttl", tmp_path / "instances.ttl"
    onto.write_text(head + statement + "\n")
    instances.write_text(head + f"ex:a a ex:{member} .\n")
    doc = run_json(["check-consistency", "--source", str(onto), "--instances", str(instances)], tmp_path, 1)
    assert [(f["kind"], f["individual"], f["participants"]) for f in doc["findings"]] == [
        ("disjointness-violation", ex + "a", [ex + member, ex + member])]
    doc = run_json(["check-coherence", "--source", str(onto)], tmp_path, 1)
    assert [f["unsatisfiable_class"] for f in doc["findings"]] == [ex + c for c in unsatisfiable]


def test_check_all_is_an_error_when_a_check_is(tmp_path):
    # ex:A's existential loops back into ex:A, so each coherence probe meets the fact cap.
    head = ("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            "@prefix ex: <http://example.org/src#> .\n@prefix t: <http://example.org/tgt#> .\n")
    source, alignment = tmp_path / "source.ttl", tmp_path / "alignment.ttl"
    source.write_text(head + "ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:p ; "
                             "owl:someValuesFrom ex:A ] .\n")
    alignment.write_text(head + "ex:A owl:equivalentClass t:A .\nex:p owl:equivalentProperty t:p .\n")
    doc = run_json(["check-all", "--source", str(source), "--alignment", str(alignment),
                    "--source-ns", "http://example.org/src#", "--target-ns", "http://example.org/tgt#",
                    "--fact-cap", "5"], tmp_path, 2)
    assert doc["status"] == "error"
    assert {d["check"]: d["status"] for d in doc["checks"]} == {
        "coherence": "error", "conservativity": "pass", "consistency": "pass", "totality": "pass"}


def test_a_stack_without_files_is_a_usage_error(capsys):
    assert run(["check-coherence"]) == 2
    assert capsys.readouterr().err == (
        "provalign: error: check-coherence needs at least one --source/--target/--alignment file\n")


def _load_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    return err


def test_single_operand_disjoint_union_is_a_load_error(tmp_path, capsys):
    bad = tmp_path / "union.ttl"
    bad.write_text("@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                   "@prefix ex: <http://example.org/u#> .\nex:C owl:disjointUnionOf ( ex:A ) .\n")
    err = _load_error(["check-coherence", "--source", str(bad)], capsys)
    assert f"OWL extraction failure in {bad}: owl:disjointUnionOf needs at least two operands" in err


def test_undecodable_file_is_a_load_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.ttl"
    latin1.write_bytes('@prefix ex: <http://example.org/u#> .\nex:a ex:p "caf\xe9" .\n'.encode("latin-1"))
    err = _load_error(["check-coherence", "--source", str(latin1)], capsys)
    assert f"cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9" in err


def test_expression_nesting_past_the_bound_is_a_load_error(tmp_path, capsys):
    # Labelled blank nodes nest expressions without nesting Turtle syntax.
    def chain(depth, node, link, last):
        return "".join(f"{node}{k} {link} {f'{node}{k + 1}' if k + 1 < depth else last} .\n"
                       for k in range(depth))

    header = ("@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
              "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
              "@prefix ex: <http://example.org/n#> .\n")
    for depth, expect in ((MAX_NESTING, 0), (3000, 2)):
        deep = tmp_path / f"deep{depth}.ttl"
        deep.write_text(header + "ex:A rdfs:subClassOf _:r0 .\n" + "".join(
            f"_:r{k} a owl:Restriction ; owl:onProperty ex:p .\n" for k in range(depth))
            + chain(depth, "_:r", "owl:someValuesFrom", "ex:D"))
        if expect == 0:
            assert run(["check-coherence", "--source", str(deep)]) == 0
            continue
        err = _load_error(["check-coherence", "--source", str(deep)], capsys)
        assert f"OWL extraction failure in {deep}: class expression nested deeper than 128" in err
    inverses = tmp_path / "inverses.ttl"
    inverses.write_text(header + "ex:r rdfs:subPropertyOf _:q0 .\n"
                        + chain(3000, "_:q", "owl:inverseOf", "ex:p"))
    assert run(["check-coherence", "--source", str(inverses)]) == 0


def test_overlapping_namespaces_are_a_usage_error(capsys):
    err = _load_error(["export-sssom", "--alignment", fix("align-paper.ttl"),
                       "--source-ns", "http://www.w3.org/ns/", "--target-ns", NS_FLAGS[1]], capsys)
    assert f"cannot read the mappings in {fix('align-paper.ttl')}" in err


def _witness_stack(tmp_path, individuals):
    """An existential whose filler clashes, and ``individuals`` blank nodes in A."""
    onto = tmp_path / "witness.ttl"
    onto.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix ex: <http://example.org/w#> .\n"
        "ex:A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:B ] .\n"
        "ex:B rdfs:subClassOf ex:C .\n"
        "ex:C owl:disjointWith ex:B .\n")
    instances = tmp_path / f"witness-instances{individuals}.ttl"
    instances.write_text("@prefix ex: <http://example.org/w#> .\n" + "[ a ex:A ] .\n" * individuals)
    return ["check-consistency", "--source", str(onto), "--instances", str(instances)]


def test_blank_node_witnesses_identical_across_runs(tmp_path, capsys):
    argv = _witness_stack(tmp_path, 1)
    outputs, table = [], []
    for _ in range(3):
        assert run(argv) == 1
        outputs.append(capsys.readouterr().out)
        table.append(len(rdf._IRIS))
    assert "urn:skolem:" in outputs[0]
    assert outputs[1] == outputs[2] == outputs[0]
    # Each run parses a new blank-node scope but mints no new witness IRI.
    assert table[1] == table[2] == table[0]


def test_blank_nodes_of_one_file_get_distinct_witnesses(tmp_path):
    doc = run_json(_witness_stack(tmp_path, 2), tmp_path, 1)
    witnesses = [f["individual"] for f in doc["findings"]]
    assert len(witnesses) == 2 and len(set(witnesses)) == 2
    assert all(w.startswith("urn:skolem:") for w in witnesses)


def test_parser_keeps_no_state_between_runs(tmp_path, capsys):
    alone = ["check-coherence", "--source", fix("prov-mini.ttl"), "--format", "json"]
    package_root = str(Path(provalign.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "provalign.cli", *alone],
                          env=dict(os.environ, PYTHONPATH=package_root), capture_output=True, text=True)
    assert run(["check-coherence", "--source", fix("bfo-mini.ttl"), "--source", fix("cco-mini.ttl"),
                "--format", "json"]) == 0
    capsys.readouterr()
    assert run(alone) == done.returncode == 0
    assert capsys.readouterr().out == done.stdout


@pytest.mark.parametrize("flag,value,floor", [("--skolem-depth", "-1", 0), ("--fact-cap", "-3", 1)])
def test_flag_below_its_floor_is_a_usage_error(tmp_path, capsys, flag, value, floor):
    argv = _witness_stack(tmp_path, 1)
    assert run([*argv, flag, value]) == 2
    assert f"argument {flag}: must be at least {floor}, got {value}" in capsys.readouterr().err


def test_skolem_depth_zero_still_runs(tmp_path):
    # No witness at depth 0, so the clash below ex:A's existential goes unseen.
    assert run([*_witness_stack(tmp_path, 1), "--skolem-depth", "0"]) == 0


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    assert run(["check-coherence", "--source", fix("prov-mini.ttl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"provalign: error: cannot write {out}: ")
    assert "internal error" not in err


def _generated_request(workload, workdir):
    """The first request of a perfbench workload, generated under ``workdir``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    fixtures = str(Path(provalign.__file__).resolve().parent / "fixtures")
    return workloads.generate(workload, 1, str(workdir), fixtures)[0]


@pytest.mark.parametrize("workload", ["prov-trace", "coherence-ladder"])
def test_generated_reports_identical_across_hash_seeds(tmp_path, workload):
    # Set iteration feeds the closure's scheduling (dirty rules, fresh existentials).
    request = _generated_request(workload, tmp_path)
    argv = request["argv"][:request["argv"].index("--out")]
    package_root = str(Path(provalign.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
        done = subprocess.run([sys.executable, "-m", "provalign.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == request["answer"]["exit"], done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# -- the exit-code contract on generated property-heavy stacks ---------------------

_GEN_PREFIXES = ("@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
                 "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                 "@prefix ex: <http://example.org/src#> .\n@prefix t: <http://example.org/tgt#> .\n")


def _schema_statements(props, classes):
    """Turtle statements over ``props`` and ``classes``, one per line: the
    property hierarchy, inverses, domains and ranges, chains, and the class
    axioms that make clashes and witnesses; the first two classes are disjoint."""
    p, c = st.sampled_from(props), st.sampled_from(classes)
    return st.lists(st.one_of(
        *[st.builds(f"{{}} {predicate} {{}} .".format, p, p)
          for predicate in ("rdfs:subPropertyOf", "owl:equivalentProperty", "owl:inverseOf")],
        *[st.builds(f"{{}} {predicate} {{}} .".format, p, c) for predicate in ("rdfs:domain", "rdfs:range")],
        *[st.builds(f"{{}} {predicate} {{}} .".format, c, c) for predicate in ("rdfs:subClassOf", "owl:disjointWith")],
        st.builds("{} owl:propertyChainAxiom ( {} {} ) .".format, p, p, p),
        st.builds("{} rdfs:subClassOf [ a owl:Restriction ; owl:onProperty {} ; owl:someValuesFrom {} ] .".format,
                  c, p, c)), max_size=12).map(lambda lines: [f"{classes[0]} owl:disjointWith {classes[1]} .", *lines])


_SRC_PROPS, _SRC_CLASSES = [f"ex:p{k}" for k in range(4)], [f"ex:C{k}" for k in range(3)]
_TGT_PROPS, _TGT_CLASSES = [f"t:q{k}" for k in range(3)], [f"t:D{k}" for k in range(3)]
_GEN_INDIVIDUALS = [f"ex:i{k}" for k in range(4)]
_GEN_STACK = st.fixed_dictionaries({
    "source": _schema_statements(_SRC_PROPS, _SRC_CLASSES),
    "target": _schema_statements(_TGT_PROPS, _TGT_CLASSES),
    "alignment": st.lists(st.one_of(
        *[st.builds(f"{{}} {predicate} {{}} .".format, st.sampled_from(_SRC_PROPS), st.sampled_from(_TGT_PROPS))
          for predicate in ("owl:equivalentProperty", "rdfs:subPropertyOf", "owl:inverseOf")],
        *[st.builds(f"{{}} {predicate} {{}} .".format, st.sampled_from(_SRC_CLASSES), st.sampled_from(_TGT_CLASSES))
          for predicate in ("owl:equivalentClass", "rdfs:subClassOf")]), max_size=6),
    "instances": st.lists(st.one_of(
        st.builds("{} {} {} .".format, st.sampled_from(_GEN_INDIVIDUALS), st.sampled_from(_SRC_PROPS + _TGT_PROPS),
                  st.sampled_from(_GEN_INDIVIDUALS + ['"1"'])),
        st.builds("{} a {} .".format, st.sampled_from(_GEN_INDIVIDUALS),
                  st.sampled_from(_SRC_CLASSES + _TGT_CLASSES))), min_size=1, max_size=12)})


def _stack_reports(directory, stack):
    """Each subcommand's exit code, error output and report bytes on ``stack``,
    written under ``directory``."""
    flags = ["--source-ns", "http://example.org/src#", "--target-ns", "http://example.org/tgt#"]
    for role, statements in stack.items():
        path = os.path.join(directory, role + ".ttl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_GEN_PREFIXES + "".join(line + "\n" for line in statements))
        flags += ["--" + role, path]
    results, out = [], os.path.join(directory, "out")
    for command in (["check-consistency", "--format", "json"], ["check-all", "--format", "json"], ["materialize"]):
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors):
            code = run([*command, *flags, "--out", out])
        with open(out, "rb") as handle:
            results.append((command[0], code, errors.getvalue(), handle.read()))
    return results


@settings(max_examples=40, deadline=None)
@given(_GEN_STACK, st.randoms(use_true_random=False))
def test_generated_property_stacks_keep_the_exit_code_contract(stack, rng):
    """Every run ends in 0 or 1 without an internal error, and its report does
    not depend on the order of the statements in each file."""
    shuffled = {role: rng.sample(statements, len(statements)) for role, statements in stack.items()}
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        results = _stack_reports(first, stack)
        assert results == _stack_reports(second, shuffled)
    for command, code, errors, _ in results:
        assert code in (0, 1) and "internal error" not in errors, (command, code, errors)
