"""Certification benchmark for clusterflag.

Certifies every flag type of a workload with ``verify_theorem`` on the
sources under ``src/`` of the checkout this file sits in, checks each
report and endpoint against the goldens in ``bench/goldens/``, and prints
the metrics; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload exchange_deep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload sweep_n8 --seed 0 --record-goldens

``--trace 0`` repeats untraced passes over the workload for about
``--seconds`` seconds and reports the end-to-end metrics.  ``--trace 1``
runs one untraced pass and one traced pass and reports the per-layer split
(see ``tracer.py``); the spans go to ``bench/out/spans_<workload>.jsonl``.
``--workload all`` runs the three workloads in one process and prefixes
each metric with its workload.  Everything runs in this one process, with
no extra threads.  Exit status: 0 when every certificate passed and matched
its golden, 1 otherwise, 2 when the sources or goldens are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import MODULES, TARGETS, Tracer, aggregate, self_test, wrapped_bindings, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload, label  # noqa: E402

SETUP_REPEATS = 25
ALL_ORDER = ("eval_ladder", "sweep_n8", "exchange_deep")  # ascending peak memory


class Unavailable(Exception):
    """The checkout lacks the sources or goldens the benchmark needs."""


# -- set-up -------------------------------------------------------------------


def import_package() -> dict:
    """Import the package afresh from ``src/``, dropping loaded copies."""
    for name in list(sys.modules):
        if name == "clusterflag" or name.startswith("clusterflag."):
            del sys.modules[name]
    modules = {"clusterflag": importlib.import_module("clusterflag")}
    for name in MODULES:
        modules[name] = importlib.import_module("clusterflag." + name)
    return modules


def setup(workload: Workload) -> tuple[dict, list, list[float]]:
    """Import the package and build the input list SETUP_REPEATS times;
    returns the last modules and inputs and every set-up time."""
    if not (SRC / "clusterflag" / "__init__.py").is_file():
        raise Unavailable("no clusterflag sources under %s" % SRC)
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = import_package()
        flag_type = modules["flags"].FlagType
        flags = [flag_type(dims, n) for dims, n in workload.types]
        times.append(time.perf_counter() - start)
    loaded = Path(modules["clusterflag"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise Unavailable("clusterflag was imported from %s, not from %s" % (loaded, SRC))
    return modules, flags, times


# -- goldens ------------------------------------------------------------------


def report_record(report) -> dict:
    """The report as JSON data, without the fields that vary run to run."""
    data = report.to_dict()
    del data["elapsed_s"], data["master_seed"]
    return json.loads(json.dumps(data))


def seeds_digest(seed_to_dict, seeds) -> str:
    """sha256 of the serialized endpoint and restricted seeds."""
    data = [None if s is None else seed_to_dict(s) for s in seeds]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def golden_path(workload: Workload) -> Path:
    return GOLDENS / ("%s.json" % workload.name)


def load_goldens(workload: Workload) -> dict:
    try:
        data = json.loads(golden_path(workload).read_text())
    except (OSError, ValueError) as exc:
        raise Unavailable("goldens of %s unreadable: %s" % (workload.name, exc)) from None
    if data.get("trials") != workload.trials:
        raise Unavailable("goldens of %s were recorded with other trials" % workload.name)
    return data["types"]


def source_digest() -> str:
    """sha256 over the relative paths and contents of the measured sources."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- one pass -----------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    type_s: list[float]
    records: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({p.split(":")[0] for p in self.problems})


def run_pass(modules: dict, workload: Workload, flags: list, seed: int, goldens: dict | None) -> Pass:
    """Certify every type inside the timed window; afterwards serialize the
    captured seeds and compare each type with its golden."""
    programs = modules["programs"]
    run_program = programs.run_program
    captured: list[tuple] = []

    def capture(*args, **kwargs):
        result = run_program(*args, **kwargs)
        captured.append((result.endpoint, result.restricted))
        return result

    outcomes = []
    type_s = []
    programs.run_program = capture
    try:
        window = time.perf_counter()
        for flag in flags:
            start = time.perf_counter()
            try:
                report = programs.verify_theorem(flag, trials=workload.trials, master_seed=seed)
            except Exception as exc:  # a raising type is a failed certificate
                report = exc
            type_s.append(time.perf_counter() - start)
            outcomes.append((report, captured.pop() if captured else None))
        wall_s = time.perf_counter() - window
    finally:
        programs.run_program = run_program

    result = Pass(wall_s, type_s)
    seed_to_dict = modules["cli"].seed_to_dict
    for (dims, n), (report, seeds) in zip(workload.types, outcomes):
        name = label(dims, n)
        if isinstance(report, Exception):
            result.problems.append("%s: raised %r" % (name, report))
            continue
        record = {"report": report_record(report)}
        if seeds is not None:
            record["seeds_sha256"] = seeds_digest(seed_to_dict, seeds)
        if not report.passed:
            result.problems.append("%s: report did not pass" % name)
        if goldens is None:
            result.records[name] = record
            continue
        golden = goldens.get(name)
        if golden is None:
            result.problems.append("%s: no golden" % name)
        elif golden["report"] != record["report"]:
            result.problems.append("%s: report differs from golden" % name)
        elif golden.get("seeds_sha256") != record.get("seeds_sha256"):
            result.problems.append("%s: seed digest differs from golden" % name)
    return result


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[Pass], setup_times: list[float], peak_kib: int) -> dict:
    """Times are best-of-passes: other tenants of a shared host slow whole
    passes by 20-40%, and the fastest pass varies least from run to run."""
    best_type_s = [min(times) for times in zip(*(p.type_s for p in passes))]
    return {
        "wall_s": (min(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "type_p50_s": (percentile(best_type_s, 0.50), "s"),
        "type_p95_s": (percentile(best_type_s, 0.95), "s"),
    }


def per_layer(spans: list[list], base: Pass, traced: Pass, fail_ratio: float) -> dict:
    agg = aggregate(spans)
    metrics = {}
    for name, *_ in TARGETS:
        metrics[name + ".calls"] = (agg[name]["calls"], "count")
        metrics[name + ".s"] = (agg[name]["s"], "s")
        metrics[name + ".self_s"] = (agg[name]["self_s"], "s")
    div = agg["quiver.exact_div"]
    metrics["quiver.exact_div.max_s"] = (div["max_s"], "s")
    for key in ("num_terms", "den_terms", "quo_terms"):
        metrics["quiver.exact_div." + key] = (div[key], "count")
    metrics["quiver.laurent_mul.terms_out"] = (agg["quiver.laurent_mul"]["terms_out"], "count")
    metrics["plucker.det_mod.ops"] = (agg["plucker.det_mod"]["ops"], "count")
    lookups = agg["plucker.poly_eval"]["index_lookups"]
    hits = lookups - agg["plucker.det_mod"]["calls"]
    metrics["plucker.minor_cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    covered = sum(row["self_s"] for name, row in agg.items() if name != "cli.seed_to_dict")
    metrics["trace.untraced_wall_s"] = (base.wall_s, "s")
    metrics["trace.traced_wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - base.wall_s, "s")
    metrics["trace.coverage"] = (covered / traced.wall_s, "ratio")
    metrics["fail_ratio"] = (fail_ratio, "ratio")
    return metrics


# -- environment --------------------------------------------------------------


def source_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# -- running a workload -------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    goldens = load_goldens(workload)
    modules, flags, setup_times = setup(workload)
    problems = self_test()
    problems += ["tracer wrapper left in %s" % b for b in wrapped_bindings(modules)]

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(modules, workload, flags, seed, goldens))
        elapsed = time.perf_counter() - started
        if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    spans: list[list] = []
    if trace:
        tracer = Tracer()
        tracer.install(modules)
        problems += ["untraced binding %s" % b for b in tracer.missed(modules)]
        try:
            passes.append(run_pass(modules, workload, flags, seed, goldens))
        finally:
            tracer.restore()
        spans = tracer.spans
        problems += ["tracer wrapper left in %s" % b for b in wrapped_bindings(modules)]

    attempted = len(flags) * len(passes)
    failed = sum(p.failed for p in passes)
    fail_ratio = failed / attempted
    if trace:
        metrics = per_layer(spans, passes[0], passes[-1], fail_ratio)
        OUT.mkdir(exist_ok=True)
        write_spans(spans, OUT / ("spans_%s.jsonl" % workload.name))
    else:
        metrics = end_to_end(passes, setup_times, peak_kib)
    for p in passes:
        problems += p.problems
    return {
        "workload": workload.name,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "metrics": metrics,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_type_s": [p.type_s for p in passes],
        "setup_s_all": setup_times,
        "problems": problems,
    }


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(result: dict) -> None:
    w = result["workload"]
    print("== %s (%s): %d certificates attempted, %d failed, fail_ratio %.4f ratio"
          % (w, "traced" if result["trace"] else "untraced",
             result["attempted"], result["failed"], result["fail_ratio"]))
    print("   pass wall times (s)%s: %s" % (
        ", the last traced" if result["trace"] else "",
        " ".join("%.3f" % s for s in result["pass_wall_s"])))
    if not result["trace"]:
        print("   type percentiles: nearest rank over %d types, each the best of %d passes"
              % (len(result["pass_type_s"][0]), result["passes"]))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print("   %-40s %16.6f %s" % (name, value, unit))
    for problem in result["problems"][:10]:
        print("   FAIL %s" % problem, file=sys.stderr)


def record_goldens(workload: Workload, seed: int) -> int:
    modules, flags, _ = setup(workload)
    result = run_pass(modules, workload, flags, seed, goldens=None)
    if result.problems:
        for problem in result.problems:
            print("FAIL %s" % problem, file=sys.stderr)
        return 1
    GOLDENS.mkdir(exist_ok=True)
    data = {
        "workload": workload.name,
        "trials": workload.trials,
        "recorded_with": environment(seed),
        "types": result.records,
    }
    golden_path(workload).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print("recorded %d goldens for %s" % (len(result.records), workload.name))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0, help="master_seed of every certificate")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help="write the goldens of the workload from one pass")
    args = parser.parse_args(argv)
    names = ALL_ORDER if args.workload == "all" else (args.workload,)
    try:
        if args.record_goldens:
            return max(record_goldens(WORKLOADS[n], args.seed) for n in names)
        env = environment(args.seed)
        declared = declared_metrics(bool(args.trace))
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    except Unavailable as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2

    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for result in results:
        if sorted(result["metrics"]) != sorted(declared):
            result["problems"].append("metrics differ from BENCHMARK.json")
        result["correct"] = not result["problems"]
        print_table(result)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name, (value, unit) in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        (OUT / ("result_%s_trace%d.json" % (result["workload"], args.trace))).write_text(
            json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n"
        )
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
