"""Mutation programs on the Grassmannian grid seed.

A program is an explicit list of grid mutations followed by a list of
freezes.  Each flag type gets one rectangular mutation region per pair of
consecutive levels; inside a region the schedule runs in pages, each page
sweeping the rows bottom-up with shrinking widths.  After the program runs,
vertices whose tableaux appear in the padded flag seed are kept and the rest
are deleted, which must leave a legal restricted seed equal to the flag
initial seed.  That comparison is what ``verify_theorem`` certifies, with
its last check run at ``DEFAULT_TRIALS`` random points unless told
otherwise.  The types of one target Gr(k; N) share a ``Target``: its grid
seed, its points, and at each point the Plucker values P_I mod p that
earlier checks asked for, so a type compiles a plan only of the index sets
that are not there yet.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field

from . import tableaux as tb
from .flags import FlagSeed, FlagType, GrassmannianSeed, embedded_flag_seed
from .plucker import DEFAULT_PRIME, EvaluationPlan, PluckerPoly, Point, is_prime, random_matrix_point
from .quiver import LaurentError, LaurentExpr, PowerTable, QuiverError, Seed, quivers_agree


DEFAULT_TRIALS = 20


class ProgramError(ValueError):
    pass


@dataclass(frozen=True)
class Step:
    row: int
    col: int
    region: int = 0
    page: int = 0


@dataclass
class MutationProgram:
    flag: FlagType
    mutations: list[Step]
    freezes: list[Step]


def region_parameters(flag: FlagType, j: int) -> tuple[int, int, int, int]:
    """(a, b, c, top_row) of the mutation region between levels j-1 and j:
    a rows, width cap b, page width c; the region's top row in the grid."""
    ext = flag.extended
    d1_prev, dj = ext[j - 1], ext[j]
    a = dj - d1_prev - 1
    b = flag.dims[-1] - 2
    c = d1_prev
    top = d1_prev - flag.dims[0] + 2
    return a, b, c, top


def region_mutation_count(a: int, b: int, c: int) -> int:
    """Closed form for one region's length."""
    return a * c * (c + 1) // 2 + a * (a - 1) // 2 * b


def expected_mutation_count(flag: FlagType) -> int:
    total = 0
    for j in range(2, flag.k + 1):
        a, b, c, _ = region_parameters(flag, j)
        total += region_mutation_count(a, b, c)
    return total


def _region_steps(flag: FlagType, j: int) -> list[Step]:
    a, b, c, top = region_parameters(flag, j)
    steps: list[Step] = []
    if a <= 0:
        return steps
    for page in range(1, a + c):
        for t in range(a, 0, -1):  # bottom row of the region first
            width = b if t > page else c - (page - t)
            if width <= 0:
                continue
            row = top + t - 1
            for col in range(2, width + 2):
                steps.append(Step(row, col, region=j, page=page))
    return steps


def _freeze_steps(flag: FlagType) -> list[Step]:
    d1 = flag.dims[0]
    steps: list[Step] = []
    for j in range(2, flag.k + 1):
        a, _, c, top = region_parameters(flag, j)
        steps += [Step(row, c + 1, region=j) for row in range(top, top + a)]
    # the padded coordinates P_{[1,d_j]} sitting inside the grid
    for j in range(1, flag.k):
        steps.append(Step(flag.dims[j - 1] - d1 + 1, flag.dims[j - 1] + 1))
    return steps


def general_flag_program(flag: FlagType) -> MutationProgram:
    """The per-region schedules for regions 2..k, then all freezes.  The
    regions commute: their mutable supports are disjoint."""
    mutations = [step for j in range(2, flag.k + 1) for step in _region_steps(flag, j)]
    return MutationProgram(flag, mutations, _freeze_steps(flag))


def mt_program(n: int) -> MutationProgram:
    """Three mutations, one freeze, for the (2,4) flag at any ambient size."""
    if n < 5:
        raise ProgramError("need n >= 5")
    return general_flag_program(FlagType((2, 4), n))


def sh_program(n: int) -> MutationProgram:
    """The (2, n-2) flag family; length (1/2)(n-5)(n^2-10n+30)."""
    if n < 5:
        raise ProgramError("need n >= 5")
    return general_flag_program(FlagType((2, n - 2), n))


@dataclass
class RunResult:
    """A program run; the labels are grid labels (``GrassmannianSeed.label_of``)."""

    endpoint: Seed              # after mutations and freezes, before deletion
    restricted: Seed | None
    flag_seed: Seed             # the flag initial seed, graded by the flag dimensions
    embedded: Seed              # the flag seed padded into the grid, graded by degree
    mapping: dict[int, int]     # flag vertex -> grid vertex (the kept vertices)
    match_problems: list[str]
    restrict_problem: str       # why ``restricted`` is None; "" when it is not
    mutation_labels: list[int]  # in program order
    freeze_labels: list[int]    # sorted; vertices that were already frozen are left out
    deleted_labels: list[int]   # sorted


def match_embedded_vertices(endpoint: Seed, embedded: Seed) -> tuple[dict[int, int], list[str]]:
    """Pair every embedded flag vertex with the endpoint vertex carrying the
    same tableau; a flag vertex with no such endpoint vertex, or with
    several, is reported and left unmatched."""
    problems: list[str] = []
    by_tab: dict[tb.Tableau, list[int]] = {}
    for vid, st in endpoint.variables.items():
        by_tab.setdefault(st.tableau, []).append(vid)
    mapping: dict[int, int] = {}
    used: set[int] = set()
    for fvid, st in embedded.variables.items():
        name = embedded.quiver.vertices[fvid].name
        cands = [v for v in by_tab.get(st.tableau, []) if v not in used]
        if not cands:
            problems.append("no endpoint vertex carries the tableau of %s" % name)
            continue
        if len(cands) > 1:
            problems.append("tableau of %s appears at several endpoint vertices" % name)
            continue
        mapping[fvid] = cands[0]
        used.add(cands[0])
    return mapping, problems


def run_program(gr: GrassmannianSeed, program: MutationProgram) -> RunResult:
    """Execute the program and carry out the freeze/match/delete endgame."""
    seed = gr.seed
    mutation_labels: list[int] = []
    for step in program.mutations:
        vid = gr.vertex_at(step.row, step.col)
        seed = seed.mutate(vid)
        mutation_labels.append(gr.label_of(vid))

    freeze_labels: list[int] = []
    for step in program.freezes:
        vid = gr.vertex_at(step.row, step.col)
        if not seed.quiver.is_frozen(vid):
            freeze_labels.append(gr.label_of(vid))
            seed = seed.freeze(vid)

    flag_seed = FlagSeed(program.flag)
    embedded = embedded_flag_seed(flag_seed)
    mapping, problems = match_embedded_vertices(seed, embedded)
    kept = set(mapping.values())

    restricted: Seed | None = None
    restrict_problem = ""
    if problems:
        restrict_problem = "not attempted: %d of %d flag vertices matched" % (
            len(mapping), len(embedded.variables)
        )
    else:
        try:
            restricted = seed.restrict(kept)
        except QuiverError as exc:
            restrict_problem = str(exc)
    return RunResult(
        endpoint=seed,
        restricted=restricted,
        flag_seed=flag_seed.seed,
        embedded=embedded,
        mapping=mapping,
        match_problems=problems,
        restrict_problem=restrict_problem,
        mutation_labels=mutation_labels,
        freeze_labels=sorted(freeze_labels),
        deleted_labels=sorted(gr.label_of(v) for v in seed.quiver.vertices if v not in kept),
    )


# -- verification ---------------------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    flag: FlagType
    checks: list[Check] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    mutation_labels: list[int] = field(default_factory=list)
    freeze_labels: list[int] = field(default_factory=list)
    deleted_labels: list[int] = field(default_factory=list)
    elapsed: float = 0.0
    prime: int = DEFAULT_PRIME
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, passed, detail))

    def add_problems(self, name: str, problems: list[str]) -> None:
        """A check that passes when ``problems`` is empty; its detail is the first three."""
        self.add(name, not problems, "; ".join(problems[:3]))

    def to_dict(self) -> dict:
        return {
            "schema": "clusterflag-report/1",
            "flag": {"dims": list(self.flag.dims), "n": self.flag.n},
            "grassmannian": dict(
                zip(("k", "n"), self.flag.target_grassmannian)
            ),
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "counts": self.counts,
            "mutations": self.mutation_labels,
            "freezes": self.freeze_labels,
            "deleted": self.deleted_labels,
            "elapsed_s": round(self.elapsed, 3),
            "prime": self.prime,
            "trials": self.trials,
            "master_seed": self.master_seed,
        }

    def summary_lines(self) -> list[str]:
        lines = [self.flag.heading()]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append("  [%s] %s%s" % (mark, c.name, (": " + c.detail) if c.detail else ""))
        lines.append(
            "  %d mutations, %d freezes, %d deletions, %.2fs"
            % (
                self.counts.get("mutations", 0),
                self.counts.get("freezes", 0),
                self.counts.get("deleted", 0),
                self.elapsed,
            )
        )
        return lines


def sample_nonsingular_point(
    dictionary: dict[int, PluckerPoly], rows: int, cols: int, prime: int, rng: random.Random,
    plan: EvaluationPlan,
) -> tuple[Point, list[int]]:
    """A random point (t, M) of Gr(``rows``; ``cols``), t in [1, p - 1] drawn
    first, then the ``rows`` x (``cols`` - ``rows``) chart M, with ``plan``
    run there, at which no polynomial of ``dictionary`` (position -> initial
    variable, positions 0..len - 1) vanishes, with their values in position
    order."""
    for _ in range(100):
        point = rng.randrange(1, prime), random_matrix_point(rows, cols - rows, prime, rng)
        pluckers = plan.run(point, prime)
        values = [dictionary[pos].evaluate(pluckers, prime) for pos in range(len(dictionary))]
        if all(values):
            return point, values
    raise ProgramError("could not sample a nonsingular evaluation point")


class Target:
    """The rectangles seed ``gr`` of Gr(k; N) and the value check's points
    at one prime, master seed and trial count, drawn on first use, each
    with a table of the Plucker values P_I mod p that checks asked for there."""

    def __init__(self, k: int, ambient: int, prime: int, master_seed: int, trials: int):
        self.prime, self.master_seed, self.trials = prime, master_seed, trials
        self.gr = GrassmannianSeed(k, ambient)

    @functools.cached_property
    def drawn(self) -> list[tuple[Point, list[int]]]:
        """The first ``trials`` nonsingular points of ``random.Random(master_seed)``,
        each kept as its scale and chart with the grid dictionary's values there;
        a draw that raises keeps nothing."""
        dictionary = self.gr.seed.dictionary
        rng, plan = random.Random(self.master_seed), EvaluationPlan(dictionary.values(), self.gr.k, self.gr.n)
        return [sample_nonsingular_point(dictionary, self.gr.k, self.gr.n, self.prime, rng, plan)
                for _ in range(self.trials)]

    @functools.cached_property
    def tables(self) -> list[dict[tuple[int, ...], int]]:
        """One table {I: P_I mod p} per ``drawn`` point, in draw order."""
        return [{} for _ in self.drawn]

    def points(self, lifts: list[PluckerPoly]) -> list[tuple[dict, list[int]]]:
        """The table of each ``drawn`` point, holding every index set of
        ``lifts``, with the grid dictionary's values there.  The index sets
        no earlier call asked for are run by one plan at every point."""
        tables = self.tables
        missing = [idx for idx in dict.fromkeys(idx for poly in lifts for mono in poly.terms for idx in mono)
                   if idx not in tables[0]]
        if missing:  # every table holds the same index sets: run at all points, then fill
            plan = EvaluationPlan(map(PluckerPoly.variable, missing), self.gr.k, self.gr.n)
            runs = [plan.run(point, self.prime) for point, _ in self.drawn]
            for table, run in zip(tables, runs):
                table.update(run)
        return [(table, values) for table, (_, values) in zip(tables, self.drawn)]


# The types with the same five ints share one Target in a process; a call
# with more than DEFAULT_TRIALS trials builds a private one.
_shared_target = functools.lru_cache(maxsize=128)(Target)  # 48 targets at n <= 8, 120 at n <= 12


def check_value_parameters(trials: int, prime: int, master_seed: int) -> None:
    """Raise ProgramError when the evaluation check would be vacuous
    (``trials < 1``), unsound (``prime`` not a prime below 2**64), weak
    (``prime`` below 2**31, where sampling may fail outright and a passing
    check says little) or drawn from another seed's points (a negative
    ``master_seed``: ``random.Random(-s)`` draws the stream of ``s``)."""
    if trials < 1:
        raise ProgramError("trials must be at least 1, got %d" % trials)
    if master_seed < 0:
        raise ProgramError("master seed must not be negative, got %d" % master_seed)
    if not (1 << 31 <= prime < 1 << 64 and (prime == DEFAULT_PRIME or is_prime(prime))):
        raise ProgramError("prime must be a prime between 2^31 and 2^64, got %d" % prime)


def verify_theorem(
    flag: FlagType,
    trials: int = DEFAULT_TRIALS,
    prime: int = DEFAULT_PRIME,
    master_seed: int = 0,
) -> Report:
    """Run the program for a flag type and certify that freezing plus
    deletion turns the endpoint into the padded flag initial seed; raises
    ProgramError on the parameters ``check_value_parameters`` refuses."""
    check_value_parameters(trials, prime, master_seed)
    t0 = time.perf_counter()
    report = Report(flag, prime=prime, trials=trials, master_seed=master_seed)
    _certify(report)
    report.elapsed = time.perf_counter() - t0
    return report


def _certify(report: Report) -> None:
    """Run the program for ``report.flag`` and add one check per
    certificate fact; stops after a check that later ones depend on."""
    flag, prime = report.flag, report.prime
    program = general_flag_program(flag)
    target = (Target if report.trials > DEFAULT_TRIALS else _shared_target)(
        *flag.target_grassmannian, prime, report.master_seed, report.trials)

    expected = expected_mutation_count(flag)
    report.add(
        "mutation count matches closed form",
        len(program.mutations) == expected,
        "%d vs %d" % (len(program.mutations), expected),
    )

    try:
        result = run_program(target.gr, program)
    except (LaurentError, QuiverError, tb.TableauError) as exc:
        report.add("program executed with exact exchanges", False, str(exc))
        return
    report.add(
        "program executed with exact exchanges",
        True,
        "%d Laurent divisions" % len(result.mutation_labels),
    )

    report.mutation_labels = result.mutation_labels
    report.freeze_labels = result.freeze_labels
    report.deleted_labels = result.deleted_labels
    report.counts = {
        "mutations": len(result.mutation_labels),
        "freezes": len(result.freeze_labels),
        "deleted": len(result.deleted_labels),
        "kept": len(result.mapping),
        "flag_vertices": len(result.embedded.variables),
        "grid_vertices": len(target.gr.seed.variables),
    }

    report.add_problems("endpoint degree-balanced", result.endpoint.is_balanced())
    report.add_problems("endpoint tableaux contain the padded flag tableaux", result.match_problems)
    restricted = result.restricted
    report.add(
        "deletion leaves a legal restricted seed", restricted is not None, result.restrict_problem
    )
    if restricted is None:
        return

    report.add_problems("restricted quiver equals the flag quiver",
                        quivers_agree(result.embedded.quiver, restricted.quiver, result.mapping))

    # the flag seed's own variables placed on the restricted quiver
    grading = Seed(
        restricted.quiver,
        {g: result.flag_seed.variables[f] for f, g in result.mapping.items()},
        result.flag_seed.dictionary,
    ).is_balanced()
    report.add_problems("restricted seed balanced for the flag grading", grading)

    # a kept vertex that is still its own initial variable, with its lift as
    # its dictionary entry, is certified by that equality; the rest are sampled
    lifts = {fvid: result.embedded.dictionary[fvid] for fvid in result.mapping}
    sampled = {fvid: gvid for fvid, gvid in result.mapping.items()
               if restricted.variables[gvid].laurent != LaurentExpr.generator(restricted.nvars, gvid)
               or restricted.dictionary[gvid] != lifts[fvid]}
    value_issues: list[str] = []
    if sampled:
        for trial, (pluckers, values) in enumerate(target.points([lifts[f] for f in sampled])):
            powers = PowerTable(values, prime)
            for fvid, gvid in sampled.items():
                lhs = restricted.variables[gvid].laurent.evaluate(powers)
                rhs = lifts[fvid].evaluate(pluckers, prime)
                if lhs != rhs:
                    value_issues.append(
                        "trial %d at %s" % (trial, result.embedded.quiver.vertices[fvid].name)
                    )
    report.add_problems(
        "kept variables equal the lifted flag coordinates at %d points" % report.trials, value_issues
    )
