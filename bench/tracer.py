"""In-memory span tracer for the clusterflag package, installed from outside.

The tracer wraps public functions and methods of the package's modules for
the duration of a traced pass and restores the originals afterwards; the
package itself carries no instrumentation.  Each call of a wrapped function
becomes one span ``[name, start, end, parent, attrs]``; ``parent`` is the
index of the innermost enclosing span (-1 at the root).  Some targets also
record size counts (``attrs``), taken after the span's end time so they do
not count as the layer's own work.

Functions are rebound in every package module that holds the same object,
which covers names imported with ``from ... import`` (``programs`` imports
``embedded_flag_seed``, ``quivers_agree`` and ``random_matrix_point`` that
way).  Classes are traced through ``__init__`` (``FlagSeed``,
``GrassmannianSeed``), which every binding of the class reaches.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType

MODULES = ("tableaux", "plucker", "quiver", "flags", "programs", "cli")


def _div_sizes(args, result):
    return len(args[0].terms), len(args[1].terms), len(result.terms)


def _product_size(args, result):
    return (len(result.terms),)


def _index_lookups(args, result):
    return (sum(map(len, args[0].terms)),)


def _det_ops(args, result):
    size = len(args[0])
    return (size**3 / 3,)


# (span name, module, attribute path, attribute names, measure)
TARGETS = (
    ("quiver.exact_div", "quiver", "LaurentExpr.exact_div",
     ("num_terms", "den_terms", "quo_terms"), _div_sizes),
    ("quiver.laurent_mul", "quiver", "LaurentExpr.__mul__", ("terms_out",), _product_size),
    ("quiver.laurent_eval", "quiver", "LaurentExpr.evaluate", (), None),
    ("quiver.quiver_mutate", "quiver", "Quiver.mutate", (), None),
    ("quiver.seed_mutate", "quiver", "Seed.mutate", (), None),
    ("quiver.freeze", "quiver", "Seed.freeze", (), None),
    ("quiver.restrict", "quiver", "Seed.restrict", (), None),
    ("quiver.is_balanced", "quiver", "Seed.is_balanced", (), None),
    ("quiver.quivers_agree", "quiver", "quivers_agree", (), None),
    ("plucker.poly_eval", "plucker", "PluckerPoly.evaluate", ("index_lookups",), _index_lookups),
    ("plucker.det_mod", "plucker", "det_mod", ("ops",), _det_ops),
    ("plucker.random_point", "plucker", "random_matrix_point", (), None),
    ("tableaux.tableau_mutation", "tableaux", "tableau_mutation", (), None),
    ("tableaux.dominance_compare", "tableaux", "dominance_compare", (), None),
    ("flags.grassmannian_seed", "flags", "GrassmannianSeed.__init__", (), None),
    ("flags.flag_seed", "flags", "FlagSeed.__init__", (), None),
    ("flags.embedded_flag_seed", "flags", "embedded_flag_seed", (), None),
    ("programs.schedule", "programs", "general_flag_program", (), None),
    ("programs.match", "programs", "match_embedded_vertices", (), None),
    ("programs.sample_point", "programs", "sample_nonsingular_point", (), None),
    ("programs.run_program", "programs", "run_program", (), None),
    ("programs.verify", "programs", "verify_theorem", (), None),
    ("cli.seed_to_dict", "cli", "seed_to_dict", (), None),
)

ATTRIBUTES = {name: attrs for name, _, _, attrs, _ in TARGETS}


def _resolve(modules: dict[str, ModuleType], module: str, path: str):
    """(owner, attribute) of a target: a class for methods, else the module."""
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(modules[module], owner_name) if owner_name else modules[module]
    return owner, attr


def _bindings(modules: dict[str, ModuleType], module: str, path: str):
    """Every (owner, attribute) through which the package reaches a target."""
    owner, attr = _resolve(modules, module, path)
    if owner is not modules[module]:
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [
        (mod, attr)
        for mod in {id(m): m for m in modules.values()}.values()
        if getattr(mod, attr, None) is original
    ]


def wrapped_bindings(modules: dict[str, ModuleType]) -> list[str]:
    """Names of target bindings that currently hold a tracer wrapper."""
    found = []
    for _, module, path, _, _ in TARGETS:
        owner, attr = _resolve(modules, module, path)
        candidates = [(owner, attr)] + [(m, attr) for m in modules.values()]
        for obj, name in candidates:
            if getattr(getattr(obj, name, None), "__traced__", False):
                found.append("%s.%s" % (getattr(obj, "__name__", obj), name))
    return sorted(set(found))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, ()]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path, _, measure in TARGETS:
            bindings = _bindings(modules, module, path)
            owner, attr = bindings[0]
            wrapper = self.wrap(name, getattr(owner, attr), measure)
            for obj, _ in bindings:
                self._saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, wrapper)

    def missed(self, modules: dict[str, ModuleType]) -> list[str]:
        """Package module bindings that still hold an original after install."""
        originals = {id(original) for _, _, original in self._saved}
        return sorted(
            "%s.%s" % (mod.__name__, name)
            for mod in modules.values()
            for name, value in vars(mod).items()
            if id(value) in originals
        )

    def restore(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval that the
    union of its children's intervals covers."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive time ``s``, ``self_s``, ``max_s``
    and the sum of each recorded size count; every target has a row, zero
    when it was not called.  No traced function recurses into itself, so
    inclusive times of one name never overlap."""

    def empty(name):
        return {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0,
                **dict.fromkeys(ATTRIBUTES.get(name, ()), 0)}

    out = {name: empty(name) for name in ATTRIBUTES}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, attrs = span
        row = out.get(name) or out.setdefault(name, empty(name))
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own
        row["max_s"] = max(row["max_s"], end - start)
        for key, value in zip(ATTRIBUTES.get(name, ()), attrs):
            row[key] += value
    return out


def write_spans(spans: list[list], path) -> None:
    """One JSON object per line: id, name, start, end (seconds from the
    first span), parent id (-1 for a root)."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(
                '{"id":%d,"name":"%s","start":%.9f,"end":%.9f,"parent":%d}\n'
                % (i, name, start - origin, end - origin, parent)
            )


def self_test() -> list[str]:
    """Check self times on a synthetic span tree and span nesting of the
    wrapper under a scripted clock; returns problems (empty when sound)."""
    problems = []
    # root [0,10] with children a [1,4] and b [3,6] (overlapping), and c [2,3]
    # under a: the children of root cover [1,6]
    spans = [
        ["root", 0.0, 10.0, -1, ()],
        ["a", 1.0, 4.0, 0, ()],
        ["b", 3.0, 6.0, 0, ()],
        ["c", 2.0, 3.0, 1, ()],
    ]
    if self_times(spans) != [5.0, 2.0, 3.0, 1.0]:
        problems.append("self times of the synthetic tree: %s" % self_times(spans))

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    if outer(1) != 4:
        problems.append("wrapped function changed its result")
    got = [(s[0], s[1], s[2], s[3]) for s in tracer.spans]
    want = [("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    if got != want:
        problems.append("recorded spans %s, expected %s" % (got, want))
    agg = aggregate(tracer.spans)
    if agg["outer"]["self_s"] != 3.0 or agg["inner"]["calls"] != 2:
        problems.append("aggregate of scripted spans: %s" % agg)
    return problems
