"""Mutation programs on the Grassmannian grid seed.

A program is an explicit list of grid mutations followed by a list of
freezes.  Each flag type gets one rectangular mutation region per pair of
consecutive levels; inside a region the schedule runs in pages, each page
sweeping the rows bottom-up with shrinking widths.  After the program runs,
vertices whose tableaux appear in the padded flag seed are kept and the rest
are deleted, which must leave a legal restricted seed equal to the flag
initial seed.  That comparison is what ``verify_theorem`` certifies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import tableaux as tb
from .flags import FlagSeed, FlagType, GrassmannianSeed, embedded_flag_seed
from .plucker import DEFAULT_PRIME, EvaluationPoint, is_prime, random_matrix_point
from .quiver import LaurentError, QuiverError, Seed, quivers_agree


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
    ext = flag.extended
    d1 = flag.dims[0]
    steps: list[Step] = []
    for j in range(2, flag.k + 1):
        col = ext[j - 1] + 1
        for i in range(ext[j - 1] - d1 + 2, ext[j] - d1 + 1):
            steps.append(Step(i, col, region=j))
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
    if n < 6:
        raise ProgramError("need n >= 6")
    return general_flag_program(FlagType((2, n - 2), n))


def standard_form_tableau(flag: FlagType, j: int, j1: int, j2: int) -> tb.Tableau:
    """Padded two-column tableau that page j1+j2+1 of region j places at
    grid position (top + j1, c - j2 + 1)."""
    ext = flag.extended
    d_prev, dj = ext[j - 1], ext[j]
    t = tb.initial_tableau(j2 + 1, d_prev, d_prev + j1 + 2, dj, flag.n)
    return tb.fill_up(t, flag.dims, flag.n)


@dataclass
class RunResult:
    """A program run; the labels are grid labels (``GrassmannianSeed.label_of``)."""

    endpoint: Seed              # after mutations and freezes, before deletion
    restricted: Seed | None
    embedded: Seed
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

    embedded = embedded_flag_seed(FlagSeed(program.flag))
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
    trials: int = 20
    master_seed: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, passed, detail))

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
    seed: Seed, rows: int, cols: int, prime: int, rng: random.Random
) -> tuple[EvaluationPoint, list[int]]:
    """Random matrix at which every initial variable is nonzero."""
    for _ in range(100):
        point = random_matrix_point(rows, cols, prime, rng)
        try:
            return point, seed.initial_values(point)
        except ArithmeticError:
            continue
    raise ProgramError("could not sample a nonsingular evaluation point")


def verify_theorem(
    flag: FlagType,
    trials: int = 20,
    prime: int = DEFAULT_PRIME,
    master_seed: int = 0,
) -> Report:
    """Run the program for a flag type and certify that freezing plus
    deletion turns the endpoint into the padded flag initial seed.

    Raises ProgramError when the evaluation check would be vacuous
    (``trials < 1``), unsound (``prime`` not a prime below 2**64) or weak
    (``prime`` below 2**31, where sampling may fail outright and a passing
    check says little)."""
    if trials < 1:
        raise ProgramError("trials must be at least 1, got %d" % trials)
    if not (1 << 31 <= prime < 1 << 64 and is_prime(prime)):
        raise ProgramError("prime must be a prime between 2^31 and 2^64, got %d" % prime)
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
    k, ambient = flag.target_grassmannian
    gr = GrassmannianSeed(k, ambient)

    expected = expected_mutation_count(flag)
    report.add(
        "mutation count matches closed form",
        len(program.mutations) == expected,
        "%d vs %d" % (len(program.mutations), expected),
    )

    try:
        result = run_program(gr, program)
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
        "grid_vertices": len(gr.seed.variables),
    }

    balance = result.endpoint.is_balanced()
    report.add("endpoint degree-balanced", not balance, "; ".join(balance[:3]))
    report.add(
        "endpoint tableaux contain the padded flag tableaux",
        not result.match_problems,
        "; ".join(result.match_problems[:3]),
    )
    restricted = result.restricted
    report.add(
        "deletion leaves a legal restricted seed", restricted is not None, result.restrict_problem
    )
    if restricted is None:
        return

    mismatches = quivers_agree(result.embedded.quiver, restricted.quiver, result.mapping)
    report.add(
        "restricted quiver equals the flag quiver",
        not mismatches,
        "; ".join(mismatches[:3]),
    )

    # the flag seed's own variables placed on the restricted quiver
    grading = Seed(
        restricted.quiver,
        {g: result.embedded.variables[f] for f, g in result.mapping.items()},
        result.embedded.dictionary,
        flag.k,
    ).is_balanced()
    report.add("restricted seed balanced for the flag grading", not grading, "; ".join(grading[:3]))

    rng = random.Random(report.master_seed)
    value_issues: list[str] = []
    for trial in range(report.trials):
        point, values = sample_nonsingular_point(restricted, k, ambient, prime, rng)
        for fvid, gvid in result.mapping.items():
            lhs = restricted.variables[gvid].laurent.evaluate(values, prime)
            rhs = result.embedded.dictionary[fvid].evaluate(point)
            if lhs != rhs % prime:
                value_issues.append(
                    "trial %d at %s" % (trial, result.embedded.quiver.vertices[fvid].name)
                )
    report.add(
        "kept variables equal the lifted flag coordinates at %d points" % report.trials,
        not value_issues,
        "; ".join(value_issues[:3]),
    )
