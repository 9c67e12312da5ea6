"""The benchmark's goldens hold for the current sources.

``bench/run.py`` certifies every type of a workload and compares each
report and endpoint seed digest with its golden in ``bench/goldens/``.
Running that comparison here makes a change to any report or seed fail the
suite, not only a benchmark run.  sweep_n8 and exchange_deep run in the
default tier, eval_ladder in the slow one.  The runner is loaded from its
file, writing no bytecode next to it, and ``sys.path`` and the modules it
imports from ``bench/`` are put back afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import clusterflag.cli as cli
import clusterflag.programs as programs
from clusterflag.flags import FlagType

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None)
            if name == spec.name or (origin and Path(origin).parent == BENCH):
                del sys.modules[name]


@pytest.mark.parametrize(
    "name", ["sweep_n8", "exchange_deep", pytest.param("eval_ladder", marks=pytest.mark.slow)]
)
def test_workload_matches_its_goldens(bench_run, name):
    workload = bench_run.WORKLOADS[name]
    flags = [FlagType(dims, n) for dims, n in workload.types]
    goldens = bench_run.load_goldens(workload)
    result = bench_run.run_pass({"programs": programs, "cli": cli}, workload, flags, 0, goldens)
    assert result.problems == []
    assert len(result.type_s) == len(goldens) == len(flags)
