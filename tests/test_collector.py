"""``cli.run`` pauses the cyclic garbage collector for a run.

A run builds one long-lived, acyclic graph, index and closure, so the CLI
turns the collector off once the arguments are parsed and back on as it
returns. Two things must hold for that to be safe: every exit path restores
the collector to the state the run found it in, and no provalign code makes a
reference cycle, which the paused collector would keep for the rest of a
process that runs many requests.
"""

import contextlib
import gc
import io
import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import provalign
import provalign.cli
from provalign.cli import run
from provalign.fixtures import fixture_path
from test_golden_reports import cases as fixture_cases

PACKAGE = Path(provalign.__file__).resolve().parent
SUBCOMMANDS = ("check-totality", "check-coherence", "check-consistency", "check-conservativity",
               "check-all", "suggest", "materialize", "export-sssom", "stats")


def fix(name):
    return str(fixture_path(name))


def paper_stack():
    return ["--source", fix("prov-mini.ttl"), "--target", fix("bfo-mini.ttl"),
            "--target", fix("cco-mini.ttl"), "--target", fix("ro-mini.ttl"),
            "--alignment", fix("align-paper.ttl")]


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does, the rest of the suite runs with the collector as it was."""
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _internal_error(*args, **kwargs):
    raise RuntimeError("boom")


# (argv, exit code, whether check_coherence raises)
EXIT_PATHS = {
    "pass": (["check-consistency", *paper_stack(), "--instances", fix("instances/fig12.ttl")], 0, False),
    "findings": (["check-consistency", *paper_stack(), "--instances", fix("instances/fig9.ttl")], 1, False),
    "usage error": (["check-consistency", *paper_stack()], 2, False),
    "internal error": (["check-coherence", "--source", fix("prov-mini.ttl")], 2, True),
    "argparse help": (["--help"], 0, False),
    "argparse no subcommand": ([], 2, False),
    "argparse bad flag value": (["check-coherence", "--skolem-depth", "-1"], 2, False),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", sorted(EXIT_PATHS))
def test_every_exit_path_leaves_the_collector_as_it_found_it(monkeypatch, enabled, path):
    argv, expected, raises = EXIT_PATHS[path]
    if raises:
        monkeypatch.setattr(provalign.cli, "check_coherence", _internal_error)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(argv) == expected
    assert gc.isenabled() is enabled
    assert provalign.cli._paused[0] == 0
    assert ("internal error" in err.getvalue()) is raises


def test_a_run_inside_a_run_leaves_the_collector_on(monkeypatch, tmp_path):
    inner = []

    def nested(*args, **kwargs):
        inner.append(run(["check-consistency", "--source", fix("prov-mini.ttl"),
                          "--instances", fix("instances/fig12.ttl"), "--out", str(tmp_path / "inner.txt")]))
        assert not gc.isenabled()  # the inner run ended inside the outer run's pause
        raise RuntimeError("boom")

    monkeypatch.setattr(provalign.cli, "check_coherence", nested)
    gc.enable()
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["check-coherence", "--source", fix("prov-mini.ttl")]) == 2
    assert inner == [0] and gc.isenabled()


def test_overlapping_runs_in_threads_leave_the_collector_on(tmp_path):
    """Four threads on a two-core host, switching every microsecond: a lost
    update of the count of runs in the pause would leave the collector off."""
    argv = ["check-coherence", "--source", fix("prov-tiny.ttl"), "--format", "json"]
    codes = []

    def worker(k):
        for i in range(15):
            codes.append(run(argv + ["--out", str(tmp_path / f"{k}-{i}.json")]))

    gc.enable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * 60
    assert gc.isenabled() and provalign.cli._paused[0] == 0


def test_a_run_that_starts_inside_another_and_ends_after_it_leaves_the_collector_on(monkeypatch, tmp_path):
    """Run A pauses the collector and waits inside its check. Run B starts in
    another thread; if B reads the collector's state at all, it is held right
    after the read until A has ended. A run that decided alone from what it read
    would find the collector off, and pause it again after A turned it back on."""
    a_inside, a_go, b_read, b_go = (threading.Event() for _ in range(4))
    check_coherence = provalign.cli.check_coherence

    def held_check(*args, **kwargs):
        a_inside.set()
        a_go.wait(timeout=30)
        return check_coherence(*args, **kwargs)

    class HeldAfterRead:
        def __getattr__(self, name):
            return getattr(gc, name)

        def isenabled(self):
            enabled = gc.isenabled()
            if threading.current_thread() is b:
                b_read.set()
                b_go.wait(timeout=30)
            return enabled

    monkeypatch.setattr(provalign.cli, "check_coherence", held_check)
    monkeypatch.setattr(provalign.cli, "gc", HeldAfterRead())
    codes = {}
    a = threading.Thread(target=lambda: codes.setdefault("a", run(
        ["check-coherence", "--source", fix("prov-tiny.ttl"), "--out", str(tmp_path / "a.txt")])))
    b = threading.Thread(target=lambda: codes.setdefault("b", run(
        ["check-consistency", "--source", fix("prov-mini.ttl"), "--instances", fix("instances/fig12.ttl"),
         "--out", str(tmp_path / "b.txt")])))
    gc.enable()
    a.start()
    assert a_inside.wait(timeout=30)
    b.start()
    deadline = time.monotonic() + 30
    while b.is_alive() and not b_read.is_set() and time.monotonic() < deadline:
        time.sleep(0.001)
    a_go.set()
    a.join(timeout=30)
    b_go.set()
    b.join(timeout=30)
    assert not a.is_alive() and not b.is_alive()
    assert codes == {"a": 0, "b": 0}
    assert gc.isenabled() and provalign.cli._paused[0] == 0


# -- cycle audit ----------------------------------------------------------------------

_CODE = {types.FunctionType: "__code__", types.FrameType: "f_code", types.GeneratorType: "gi_code"}


def _defined_in_provalign(obj) -> bool:
    """Whether ``obj``'s type, or the function, method, frame or generator it is, comes from provalign."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    attribute = _CODE.get(type(obj))
    if attribute is not None:
        return PACKAGE in Path(getattr(obj, attribute).co_filename).resolve().parents
    return type(obj).__module__.partition(".")[0] == "provalign"


def _paused_garbage(argvs):
    """The cyclic garbage the runs leave, each run with the collector paused."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                run(argv)
        gc.collect()
    finally:
        gc.set_debug(0)
    garbage = list(gc.garbage)
    gc.garbage.clear()
    return garbage


def test_paused_runs_leave_no_provalign_cycles(monkeypatch, perfbench_requests):
    monkeypatch.delenv(provalign.cli.FACT_CAP_ENV, raising=False)
    monkeypatch.chdir(fixture_path("prov-mini.ttl").parent)  # the fixture cases name files relatively
    argvs = [argv for _, argv in fixture_cases()]
    argvs += [request["argv"] for requests in perfbench_requests[1].values() for request in requests]
    assert {argv[0] for argv in argvs} == set(SUBCOMMANDS)
    for subcommand in SUBCOMMANDS:
        garbage = _paused_garbage(argv for argv in argvs if argv[0] == subcommand)
        assert [repr(obj)[:120] for obj in garbage if _defined_in_provalign(obj)] == [], subcommand


def test_a_report_leaves_as_much_cyclic_garbage_for_many_clashes_as_for_one(tmp_path, perfbench_requests):
    """A cycle made per finding or per trace would grow with the clashes."""
    trace = next(r for r in perfbench_requests[1]["prov-trace"] if r["answer"]["exit"] == 1)
    fig9 = ["check-consistency", *paper_stack(), "--instances", fix("instances/fig9.ttl"),
            "--format", "json", "--out", str(tmp_path / "fig9.json")]
    counts = [len(_paused_garbage([argv])) for argv in (fig9, trace["argv"])]
    clashes = [json.loads(Path(out).read_text())["counts"]["clashes"] for out in (fig9[-1], trace["out"])]
    assert clashes[0] == 1 and clashes[1] > 1
    assert counts[0] == counts[1]
