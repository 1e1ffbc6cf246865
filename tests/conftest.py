import importlib.util
from pathlib import Path

import pytest

import provalign
from provalign.alignment import extract_mappings
from provalign.fixtures import (
    SOURCE_NAMESPACES,
    TARGET_NAMESPACES,
    fixture_path,
    load_model,
)


@pytest.fixture(scope="session")
def prov():
    return load_model("prov-mini.ttl")


@pytest.fixture(scope="session")
def bfo():
    return load_model("bfo-mini.ttl")


@pytest.fixture(scope="session")
def cco():
    return load_model("cco-mini.ttl")


@pytest.fixture(scope="session")
def ro():
    return load_model("ro-mini.ttl")


@pytest.fixture(scope="session")
def align_model():
    return load_model("align-paper.ttl")


@pytest.fixture(scope="session")
def alignment(align_model):
    return extract_mappings(align_model, SOURCE_NAMESPACES, TARGET_NAMESPACES)


@pytest.fixture(scope="session")
def targets(bfo, cco, ro):
    return [bfo, cco, ro]


@pytest.fixture(scope="session")
def full_stack(prov, bfo, cco, ro, align_model):
    return [prov, bfo, cco, ro, align_model]


def instance_model(name):
    return load_model(f"instances/{name}")


@pytest.fixture(scope="session")
def fixtures_dir():
    return fixture_path("prov-mini.ttl").parent


@pytest.fixture(scope="session")
def perfbench_requests(tmp_path_factory):
    """Seed -> workload -> the requests of one lap, for perfbench seeds 1-3,
    with their input files written."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    fixtures = str(Path(provalign.__file__).resolve().parent / "fixtures")
    return {seed: {workload: workloads.generate(workload, seed, str(tmp_path_factory.mktemp(f"{workload}-{seed}")),
                                                fixtures)
                   for workload in sorted(workloads.GENERATORS)}
            for seed in (1, 2, 3)}
