"""The benchmark tracer still reaches every function it wraps.

``bench/tracer.py`` wraps package functions from outside, so a target that
is renamed or deleted would otherwise only show in a traced benchmark run.
The tracer is loaded from its file, writing no bytecode next to it, and
installed on a fresh import of the package; the suite's own modules are put
back afterwards.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_package(monkeypatch, names) -> dict:
    """A new import of the package and of its modules ``names``, keyed as
    the benchmark keys them."""
    for name in list(sys.modules):
        if name == "clusterflag" or name.startswith("clusterflag."):
            monkeypatch.delitem(sys.modules, name)
    modules = {"clusterflag": importlib.import_module("clusterflag")}
    for name in names:
        modules[name] = importlib.import_module("clusterflag." + name)
    return modules


def test_tracer_installs_every_target_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = load_tracer()
    assert tracer.self_test() == []
    assert len(tracer.TARGETS) == 23

    modules = fresh_package(monkeypatch, tracer.MODULES)
    t = tracer.Tracer()
    t.install(modules)
    try:
        unwrapped = [
            name
            for name, module, path, _, _ in tracer.TARGETS
            if not getattr(getattr(*tracer._resolve(modules, module, path)), "__traced__", False)
        ]
        missed = t.missed(modules)
    finally:
        t.restore()
    assert unwrapped == []
    assert missed == []
    assert tracer.wrapped_bindings(modules) == []
