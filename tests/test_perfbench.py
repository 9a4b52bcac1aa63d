"""Guards on the benchmark harness under perfbench/, which imports the package by name."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["compare", "calibrate", "validate"])
def test_tracer_patch_targets_exist(workload: str) -> None:
    # install() looks up every name it wraps, so a renamed or deleted target
    # fails here rather than in a traced benchmark run
    tracer, workloads = _load("tracer"), _load("workloads")
    t = tracer.Tracer(workload)
    try:
        t.install(workloads)
        patched = list(t._patches)
        assert patched
    finally:
        t.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


@pytest.mark.parametrize("workload", ["compare", "calibrate", "validate"])
def test_workload_setup_runs_and_passes_its_checks(workload: str) -> None:
    # setup() makes the package calls its workload times, with the same arguments, so
    # a dropped name or keyword fails here rather than in a benchmark run
    bench = _load("workloads").WORKLOADS[workload]()
    failed = [(name, detail) for name, passed, detail in bench.setup(seed=0) if not passed]
    assert not failed
