"""Mutation schedules, their execution, and the endpoint verification."""

import copy
import dataclasses
import functools
import itertools
import math
import random

import pytest

import clusterflag.flags as flags_module
import clusterflag.programs as programs
from clusterflag.flags import FlagError, FlagType, GrassmannianSeed, embedded_flag_seed
from clusterflag.plucker import DEFAULT_PRIME, EvaluationPlan, PluckerPoly, det_mod, is_prime
from clusterflag.programs import (
    MutationProgram,
    ProgramError,
    Step,
    expected_mutation_count,
    general_flag_program,
    match_embedded_vertices,
    mt_program,
    region_mutation_count,
    region_parameters,
    run_program,
    sh_program,
    verify_theorem,
)
from clusterflag.quiver import LaurentExpr, Seed, VariableState
from clusterflag.tableaux import Tableau, fill_up

from support import all_flag_types, chart_matrix, seeds_equal, standard_form_tableau


# -- schedule shapes -----------------------------------------------------------


def test_two_step_count_formula():
    # every (d1, d2) with d2 <= 7: length equals the closed form
    for d2 in range(2, 8):
        for d1 in range(1, d2):
            a, b, c = d2 - d1 - 1, d2 - 2, d1
            expect = a * c * (c + 1) // 2 + a * (a - 1) // 2 * b
            for n in (d2 + 1, d2 + 3):
                prog = general_flag_program(FlagType((d1, d2), n))
                assert len(prog.mutations) == expect
                assert region_mutation_count(a, b, c) == expect


def test_small_two_step_sequence():
    # (2,4): one-row region, three mutations walking out and back
    prog = general_flag_program(FlagType((2, 4), 7))
    assert [(s.row, s.col) for s in prog.mutations] == [(2, 2), (2, 3), (2, 2)]
    assert [s.page for s in prog.mutations] == [1, 1, 2]


def test_ten_step_region():
    prog = general_flag_program(FlagType((4, 6), 12))
    assert len(prog.mutations) == 10
    # single region row: widths shrink 4,4,3,2,1 over pages 1..4... plus echo
    assert [(s.row, s.col) for s in prog.mutations] == [
        (2, 2), (2, 3), (2, 4), (2, 5),
        (2, 2), (2, 3), (2, 4),
        (2, 2), (2, 3),
        (2, 2),
    ]


def test_degenerate_region_is_empty():
    # adjacent dimensions: a = 0, nothing to mutate
    assert general_flag_program(FlagType((2, 3), 6)).mutations == []
    assert expected_mutation_count(FlagType((2, 3), 6)) == 0


def test_region_parameters():
    flag = FlagType((4, 6, 9), 12)
    assert region_parameters(flag, 2) == (1, 7, 4, 2)
    assert region_parameters(flag, 3) == (2, 7, 6, 4)
    assert expected_mutation_count(flag) == 10 + 49


def test_freeze_steps_follow_the_region_geometry():
    """The freezes against the closed form in the flag's extended dimensions:
    region j freezes rows d_{j-1} - d_1 + 2 .. d_j - d_1 in column d_{j-1} + 1,
    then the padded coordinates P_{[1,d_j]} follow, for every type with n <= 10."""
    for flag in all_flag_types(10, 9):
        ext, d1 = flag.extended, flag.dims[0]
        expected = [Step(row, ext[j - 1] + 1, region=j) for j in range(2, flag.k + 1)
                    for row in range(ext[j - 1] - d1 + 2, ext[j] - d1 + 1)]
        expected += [Step(d - d1 + 1, d + 1) for d in flag.dims[:-1]]
        assert programs._freeze_steps(flag) == expected, flag.heading()


def test_preset_guards():
    with pytest.raises(ProgramError):
        mt_program(4)
    with pytest.raises(ProgramError):
        sh_program(4)
    with pytest.raises(FlagError):
        general_flag_program(FlagType((3, 3), 6))


def test_count_formula_over_flag_sweep():
    for flag in all_flag_types(9, 3):
        prog = general_flag_program(flag)
        assert len(prog.mutations) == expected_mutation_count(flag)


def test_sh_lengths():
    for n, expect in [(5, 0), (6, 3), (7, 9), (8, 21)]:
        prog = sh_program(n)
        assert len(prog.mutations) == expect
        assert expect == (n - 5) * (n * n - 10 * n + 30) // 2


# -- execution traces -----------------------------------------------------------


def run_preset(program):
    k, ambient = program.flag.target_grassmannian
    gr = GrassmannianSeed(k, ambient)
    return gr, run_program(gr, program)


def test_mt_trace_and_endgame():
    prog = mt_program(6)
    gr, result = run_preset(prog)
    assert result.mutation_labels == [11, 7, 11]
    assert result.freeze_labels == [7]
    assert result.deleted_labels == [3, 4, 15]
    assert result.match_problems == []
    assert result.restricted is not None
    # boxed endpoint tableau at the twice-mutated position
    expect = fill_up(Tableau([[1, 4], [2, 5], [3], [6]]), (2, 4), 6)
    assert result.endpoint.variables[gr.vertex_at(2, 3)].tableau == expect


def test_mt_boxed_tableau_other_sizes():
    for n in (5, 7):
        prog = mt_program(n)
        gr, result = run_preset(prog)
        expect = fill_up(
            Tableau([[1, n - 2], [2, n - 1], [3], [n]]), (2, 4), n
        )
        assert result.endpoint.variables[gr.vertex_at(2, 3)].tableau == expect


def test_sh8_verbatim_labels():
    prog = sh_program(8)
    gr, result = run_preset(prog)
    assert result.mutation_labels == [
        27, 21, 15, 9, 28, 22, 16, 10, 29, 23,
        27, 21, 15, 9, 28, 22, 29, 27, 21, 28, 27,
    ]
    assert result.freeze_labels == [21, 22, 23]
    assert len(result.deleted_labels) == 15
    assert result.match_problems == []


def test_empty_program_is_identity():
    flag = FlagType((2, 3), 6)
    prog = general_flag_program(flag)
    assert prog.mutations == []
    gr, result = run_preset(prog)
    ident = {v: v for v in gr.seed.quiver.vertices}
    endpoint_unfrozen = result.endpoint
    # freezes may still fire; compare against the manually frozen start
    start = gr.seed
    for step in prog.freezes:
        vid = gr.vertex_at(step.row, step.col)
        if not start.quiver.is_frozen(vid):
            start = start.freeze(vid)
    assert seeds_equal(start, endpoint_unfrozen, ident) == []


def test_reversed_mutations_restore_seed():
    for prog in (mt_program(6), sh_program(7)):
        k, ambient = prog.flag.target_grassmannian
        gr = GrassmannianSeed(k, ambient)
        seed = gr.seed
        vids = [gr.vertex_at(s.row, s.col) for s in prog.mutations]
        for vid in vids:
            seed = seed.mutate(vid)
        for vid in reversed(vids):
            seed = seed.mutate(vid)
        ident = {v: v for v in gr.seed.quiver.vertices}
        assert seeds_equal(gr.seed, seed, ident) == []
        for vid in gr.seed.quiver.vertices:
            assert seed.variables[vid].laurent == gr.seed.variables[vid].laurent


def test_region_order_commutes():
    flag = FlagType((2, 4, 6), 7)
    prog = general_flag_program(flag)
    # region 3 first; the stable sort keeps the step order inside each region
    swapped = MutationProgram(
        flag, sorted(prog.mutations, key=lambda s: -s.region), prog.freezes
    )
    assert swapped.mutations != prog.mutations
    k, ambient = flag.target_grassmannian
    a, b = (run_program(GrassmannianSeed(k, ambient), p) for p in (prog, swapped))
    ident = {v: v for v in a.endpoint.quiver.vertices}
    assert seeds_equal(a.endpoint, b.endpoint, ident) == []
    for vid in a.endpoint.quiver.vertices:
        assert a.endpoint.variables[vid].laurent == b.endpoint.variables[vid].laurent


def test_expected_placement_through_pages():
    """After page p of a region, position (top + j1, c - j2 + 1) carries the
    padded standard two-column tableau with j1 + j2 + 1 = p."""
    cases = [(2, 4, 7), (2, 5, 8), (3, 5, 8), (1, 4, 6)]
    for d1, d2, n in cases:
        flag = FlagType((d1, d2), n)
        prog = general_flag_program(flag)
        gr = GrassmannianSeed(*flag.target_grassmannian)
        a, b, c, top = region_parameters(flag, 2)
        seed = gr.seed
        checked = []
        pages = itertools.groupby(prog.mutations, key=lambda s: (s.region, s.page))
        for (region, page), steps in pages:
            for step in steps:
                seed = seed.mutate(gr.vertex_at(step.row, step.col))
            for j1 in range(a):
                j2 = page - 1 - j1
                if j2 < 0 or j2 > c - 1:
                    continue
                vid = gr.vertex_at(top + j1, c - j2 + 1)
                expect = standard_form_tableau(flag, region, j1, j2)
                assert seed.variables[vid].tableau == expect
                checked.append((page, j1, j2))
        assert checked          # some page placed a standard tableau


# -- vertex matching ---------------------------------------------------------------


def test_match_embedded_vertices_is_injective():
    prog = mt_program(5)
    gr, result = run_preset(prog)
    mapping, problems = match_embedded_vertices(result.endpoint, result.embedded)
    assert problems == []
    assert len(mapping) == len(result.embedded.variables)
    assert len(set(mapping.values())) == len(mapping)


def test_endpoint_expansions_keep_narrow_keys():
    """Every endpoint expansion of every type with n <= 7 has 8-bit
    monomial keys: the exponents of these programs stay within +-4, far
    inside the +-31 that the narrow width holds, so no key is widened.
    Every coefficient is positive, as Laurent positivity for skew-symmetric
    cluster algebras (Lee-Schiffler, Ann. of Math. 2015) says it must be."""
    flags = [flag for flag in all_flag_types(7, 6) if flag.n >= 3]
    assert len(flags) == 119
    for flag in flags:
        result = run_program(GrassmannianSeed(*flag.target_grassmannian), general_flag_program(flag))
        expansions = [st.laurent for st in result.endpoint.variables.values()]
        assert {laurent._bits for laurent in expansions} == {8}, flag.heading()
        assert all(c > 0 for laurent in expansions for c in laurent.terms.values()), flag.heading()


# -- full verification ---------------------------------------------------------------


def test_verify_theorem_small_flags():
    for dims, n in [((2, 4), 5), ((2, 4), 6), ((2, 4), 6), ((1, 3), 5), ((2, 3, 5), 6)]:
        report = verify_theorem(FlagType(dims, n), trials=4, master_seed=1)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_verify_report_contents():
    report = verify_theorem(FlagType((2, 4), 6), trials=3)
    data = report.to_dict()
    assert data["schema"] == "clusterflag-report/1"
    assert data["passed"] is True
    assert data["counts"]["mutations"] == 3
    assert data["counts"]["freezes"] == 1
    assert data["counts"]["deleted"] == 3
    assert data["mutations"] == [11, 7, 11]
    assert data["flag"] == {"dims": [2, 4], "n": 6}
    assert data["grassmannian"] == {"k": 4, "n": 8}
    names = [c["name"] for c in data["checks"]]
    assert "restricted quiver equals the flag quiver" in names
    lines = report.summary_lines()
    assert any("ok" in line for line in lines)
    assert lines[0].startswith("flag (2,4; 6)")


def test_verify_rank_one_flag():
    # no mutations needed: the rectangle seed is already the answer
    report = verify_theorem(FlagType((3,), 6), trials=2)
    assert report.passed
    assert report.counts["mutations"] == 0
    assert report.counts["deleted"] == 0


def test_prime_guard_tests_every_prime_but_the_default(monkeypatch):
    """2^61 - 1 is known prime (``test_is_prime_against_trial_division``)
    and skips Miller-Rabin; any other prime is tested, and a composite or
    out-of-range one is refused."""
    tested = []

    def counted_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(programs, "is_prime", counted_is_prime)
    flag = FlagType((2, 4), 6)
    assert verify_theorem(flag, trials=1).passed
    assert tested == []
    other = (1 << 32) + 15      # the least prime above 2^32
    assert verify_theorem(flag, trials=1, prime=other).passed
    assert tested == [other]
    for bad in (DEFAULT_PRIME * 3, other * 3, (1 << 89) - 1, (1 << 31) - 1, DEFAULT_PRIME + 2):
        with pytest.raises(ProgramError):
            verify_theorem(flag, trials=1, prime=bad)


def test_negative_master_seed_is_refused():
    """``random.Random(-1)`` draws the points of ``random.Random(1)``, so a
    negative master seed is refused before any work."""
    assert random.Random(-1).random() == random.Random(1).random()
    with pytest.raises(ProgramError, match="master seed"):
        verify_theorem(FlagType((2, 4), 6), trials=1, master_seed=-1)


def test_verify_at_a_non_default_prime_through_n6():
    """At a prime other than 2^61 - 1, every type with n <= 6 gets the
    report it gets at the default prime, but for the prime."""
    prime = (1 << 62) - 57
    assert is_prime(prime) and prime != DEFAULT_PRIME
    for flag in all_flag_types(6, 5):
        default = verify_theorem(flag, trials=3).to_dict()
        other = verify_theorem(flag, trials=3, prime=prime).to_dict()
        assert other["passed"], flag.heading()
        assert other.pop("prime") == prime
        for data in (default, other):
            data.pop("elapsed_s")
        del default["prime"]
        assert other == default, flag.heading()


def sampled_work(monkeypatch):
    """Counters of the points drawn and the Laurent evaluations made."""
    counts = {"points": 0, "evaluations": 0}
    draw, evaluate = programs.random_matrix_point, LaurentExpr.evaluate

    def counted_draw(*args):
        counts["points"] += 1
        return draw(*args)

    def counted_evaluate(*args):
        counts["evaluations"] += 1
        return evaluate(*args)

    monkeypatch.setattr(programs, "random_matrix_point", counted_draw)
    monkeypatch.setattr(LaurentExpr, "evaluate", counted_evaluate)
    return counts


def touched_kept(flag):
    """The kept grid vertices that some mutation of the program touched."""
    gr = GrassmannianSeed(*flag.target_grassmannian)
    program = general_flag_program(flag)
    mutated = {gr.vertex_at(step.row, step.col) for step in program.mutations}
    return mutated & set(run_program(gr, program).mapping.values())


def test_value_check_samples_only_what_equality_leaves(monkeypatch):
    """A kept vertex that no mutation touched is its own grid coordinate,
    equal to its lift as a polynomial, and is not evaluated; a type with no
    other kept vertex draws no point and still reports the check.  Points
    are drawn once per target: a second type on Gr(4; 8) draws none."""
    counts = sampled_work(monkeypatch)
    first, second = FlagType((2, 4), 6), FlagType((1, 4), 5)
    assert first.target_grassmannian == second.target_grassmannian == (4, 8)
    assert len(touched_kept(first)) == 2
    assert verify_theorem(first, trials=4).passed
    assert counts == {"points": 4, "evaluations": 4 * len(touched_kept(first))}

    counts.update(points=0, evaluations=0)
    assert touched_kept(second)
    assert verify_theorem(second, trials=4).passed
    assert counts == {"points": 0, "evaluations": 4 * len(touched_kept(second))}

    counts.update(points=0, evaluations=0)
    report = verify_theorem(FlagType((2,), 5), trials=4)
    assert report.passed and report.counts["mutations"] == 0
    assert report.checks[-1].name == "kept variables equal the lifted flag coordinates at 4 points"
    assert counts == {"points": 0, "evaluations": 0}


# -- the value check's points ----------------------------------------------------------
#
# Every type with the same target Gr(k; N), prime, seed and trial count
# samples the same stream, so their shared ``Target`` draws the points once.
# No identity check can see a wrong point (a true identity passes anywhere),
# so these tests replay the stream independently and compare the points
# themselves.

GR48 = (FlagType((2, 4), 6), FlagType((1, 4), 5), FlagType((1, 2, 4), 5))
GR49 = FlagType((1, 3, 4), 6)


def replayed_stream(k, ambient, trials, prime=DEFAULT_PRIME, seed=0):
    """The first ``trials`` points (t, M) of ``random.Random(seed)``, each
    drawn as t = ``randrange(1, prime)`` and then the k x (N - k) chart M
    by ``randrange(prime)`` row-major, at which no grid coordinate vanishes,
    with the grid dictionary's values there (plain ``det_mod`` of the
    matrix the point stands for)."""
    dictionary = GrassmannianSeed(k, ambient).seed.dictionary
    rng, stream = random.Random(seed), []
    while len(stream) < trials:
        t = rng.randrange(1, prime)
        point = t, [[rng.randrange(prime) for _ in range(ambient - k)] for _ in range(k)]
        matrix = chart_matrix(point)
        values = [sum(coeff * math.prod(minor(matrix, idx, prime) for idx in mono)
                      for mono, coeff in poly.terms.items()) % prime
                  for poly in dictionary.values()]
        if all(values):
            stream.append((point, values))
    return stream


def minor(matrix, idx, prime):
    return det_mod([[row[c - 1] for c in idx] for row in matrix], prime)


def record_points(monkeypatch):
    """The (point, lift values, grid values) triples the value checks run
    on, in order."""
    used = []
    target_points = programs.Target.points

    def recording(target, lifts):
        points = target_points(target, lifts)
        used.extend((point, pluckers, values)
                    for (point, _), (pluckers, values) in zip(target.drawn, points))
        return points

    monkeypatch.setattr(programs.Target, "points", recording)
    return used


def subsets_plan(k, ambient):
    """A plan of every coordinate P_I of Gr(k; ambient)."""
    return EvaluationPlan((PluckerPoly.variable(idx)
                           for idx in itertools.combinations(range(1, ambient + 1), k)), k, ambient)


def assert_replays(used, flag, trials):
    """Each recorded point is the stream's (t, M), with the stream's grid
    values, and each lift value the check read there is the minor of the
    matrix the point stands for."""
    k, ambient = flag.target_grassmannian
    stream = replayed_stream(k, ambient, trials)
    assert len(used) == trials, flag.heading()
    for (point, pluckers, values), (expected_point, expected) in zip(used, stream):
        assert point == expected_point, flag.heading()
        assert values == expected, flag.heading()
        matrix = chart_matrix(point)
        for idx, value in pluckers.items():
            assert value == minor(matrix, idx, DEFAULT_PRIME), (flag.heading(), idx)


@pytest.mark.parametrize("trials", [3, 20, 25])
def test_value_check_points_replay_the_stream(trials, monkeypatch):
    """From an empty target cache, and after another Gr(4; 8) type (or a
    Gr(4; 9) one) ran first with fewer or more trials, each check runs on
    the first ``trials`` nonsingular matrices of the seed's stream."""
    assert {flag.target_grassmannian for flag in GR48} == {(4, 8)}
    assert GR49.target_grassmannian == (4, 9)
    used = record_points(monkeypatch)
    first, before = GR48[0], (None, (GR48[1], trials - 2), (GR48[2], trials + 2),
                              (GR49, trials + 2))
    for earlier in before:
        programs._shared_target.cache_clear()
        if earlier is not None:
            assert verify_theorem(earlier[0], trials=earlier[1]).passed
            assert_replays(used, *earlier)
        used.clear()
        assert verify_theorem(first, trials=trials).passed
        assert_replays(used, first, trials)
        used.clear()
    for flag in GR48[1:]:
        assert verify_theorem(flag, trials=trials).passed
        assert_replays(used, flag, trials)
        used.clear()


def test_value_points_are_kept_per_dictionary_prime_seed_and_trials(monkeypatch):
    """A different seed, prime or trial count gets its own ``Target`` and
    draws its own points; a call with more than 20 trials caches nothing;
    a draw that raises keeps no points, and the next call draws again."""
    shared = programs._shared_target
    counts = sampled_work(monkeypatch)
    flag, other_prime = GR48[0], (1 << 62) - 57
    for trials, prime, seed, draws, cached in [
        (3, DEFAULT_PRIME, 0, 3, 1), (3, DEFAULT_PRIME, 0, 0, 1), (3, DEFAULT_PRIME, 1, 3, 2),
        (3, other_prime, 1, 3, 3), (4, DEFAULT_PRIME, 0, 4, 4), (3, DEFAULT_PRIME, 0, 0, 4),
        (25, DEFAULT_PRIME, 0, 25, 4), (25, DEFAULT_PRIME, 0, 25, 4), (20, DEFAULT_PRIME, 0, 20, 5),
    ]:
        counts.update(points=0)
        assert verify_theorem(flag, trials=trials, prime=prime, master_seed=seed).passed
        assert counts["points"] == draws, (trials, prime, seed)
        assert shared.cache_info().currsize == cached
    for trials, prime, seed in [(3, DEFAULT_PRIME, 0), (3, DEFAULT_PRIME, 1), (3, other_prime, 1),
                                (4, DEFAULT_PRIME, 0), (20, DEFAULT_PRIME, 0)]:
        target = shared(4, 8, prime, seed, trials)
        assert (target.prime, target.master_seed, target.trials) == (prime, seed, trials)
        assert len(target.drawn) == trials
    assert shared.cache_info().currsize == 5
    draw, zero = programs.random_matrix_point, [[0] * 4] * 4
    monkeypatch.setattr(programs, "random_matrix_point", lambda *args: zero)
    with pytest.raises(ProgramError):
        verify_theorem(flag, trials=5)
    assert "drawn" not in vars(shared(4, 8, DEFAULT_PRIME, 0, 5))
    monkeypatch.setattr(programs, "random_matrix_point", draw)
    counts.update(points=0)
    assert verify_theorem(flag, trials=5).passed
    assert counts["points"] == 5


def index_sets(polys):
    """The distinct index sets of ``polys``, in first-seen order."""
    return list(dict.fromkeys(idx for poly in polys for mono in poly.terms for idx in mono))


def test_every_sampling_type_evaluates_its_lifts_the_same_way(monkeypatch):
    """Each type that samples, the first on a fresh target too, builds at
    most one lift plan, holding exactly its lifts' index sets that no
    earlier call asked for, and runs it once at each of its target's
    ``trials`` saved points; a second call of a type builds and runs none,
    and no lift run draws a point.  The draw, made once, runs a plan of
    exactly the grid dictionary's index sets once at each drawn point."""
    runs, plans, built, asked = [], [], [], []
    run, init = EvaluationPlan.run, EvaluationPlan.__init__
    sample, target_points = programs.sample_nonsingular_point, programs.Target.points

    def counted_run(plan, point, p):
        runs.append((plan, point))
        return run(plan, point, p)

    def counted_init(plan, *args):
        built.append(plan)
        init(plan, *args)

    def recording_sample(dictionary, rows, cols, prime, rng, plan):
        plans.append(plan)
        return sample(dictionary, rows, cols, prime, rng, plan)

    def drawing_none(target, lifts):
        target.drawn        # a first call draws here, before its lift plan
        before = counts["points"]
        asked.append(index_sets(lifts))
        points = target_points(target, lifts)
        assert counts["points"] == before
        return points

    counts = sampled_work(monkeypatch)
    monkeypatch.setattr(EvaluationPlan, "run", counted_run)
    monkeypatch.setattr(EvaluationPlan, "__init__", counted_init)
    monkeypatch.setattr(programs, "sample_nonsingular_point", recording_sample)
    monkeypatch.setattr(programs.Target, "points", drawing_none)
    seen, missing_counts = set(), []
    for flag in GR48 + GR48[:1]:
        assert touched_kept(flag)
        start, built_start = len(runs), len(built)
        assert verify_theorem(flag, trials=4).passed
        missing = [idx for idx in asked[-1] if idx not in seen]
        seen.update(asked[-1])
        missing_counts.append(len(missing))
        lift_plans = [plan for plan in built[built_start:] if plan is not plans[0]]
        lift_runs = [(plan, point) for plan, point in runs[start:] if plan is not plans[0]]
        if not missing:
            assert lift_plans == lift_runs == [], flag.heading()
            continue
        drawn = programs._shared_target(4, 8, DEFAULT_PRIME, 0, 4).drawn
        assert len(lift_plans) == 1 and lift_plans[0].indices == missing, flag.heading()
        assert len(lift_runs) == len(drawn) == 4, flag.heading()
        assert all(plan is lift_plans[0] for plan, _ in lift_runs), flag.heading()
        assert all(point is saved for (_, point), (saved, _) in zip(lift_runs, drawn))
    # the three types of Gr(4; 8) share index sets, and the repeat asks for none
    assert missing_counts == [8, 2, 4, 0]
    assert sum(plan is plans[0] for plan, _ in runs) == counts["points"] == 4
    assert len(plans) == 4 and all(plan is plans[0] for plan in plans)
    grid = GrassmannianSeed(4, 8).seed.dictionary
    assert set(plans[0].indices) == set(index_sets(grid.values()))


def test_kept_points_are_scaled_charts():
    """Every saved point (t, M) of every target Gr(k; N) of the types with
    n <= 6 has t != 0 and a k x (N - k) chart, the grid's ``unit``
    coordinate P_{[1,k]} has the value t there, and a plan of the grid
    dictionary of Gr(k; N) runs at each of them."""
    targets = {flag.target_grassmannian for flag in all_flag_types(6, 5)}
    assert len(targets) == 25
    trials = programs.DEFAULT_TRIALS
    for k, ambient in sorted(targets):
        target = programs._shared_target(k, ambient, DEFAULT_PRIME, 0, trials)
        unit = target.gr.extra_id
        assert target.gr.seed.dictionary[unit] == PluckerPoly.variable(range(1, k + 1))
        plan = EvaluationPlan(target.gr.seed.dictionary.values(), k, ambient)
        assert len(target.drawn) == trials
        for (t, chart), values in target.drawn:
            assert 0 < t < DEFAULT_PRIME and values[unit] == t, (k, ambient)
            assert len(chart) == k and {len(row) for row in chart} == {ambient - k}
            plan.run((t, chart), DEFAULT_PRIME)


def test_plan_runs_only_read_the_saved_points():
    """Every type with n <= 6 runs its lift plans at the saved points of
    its target, and a plan of every coordinate runs there after them; each
    target's saved points and values still equal a deep copy taken right
    after the draw, and each entry of a point's table equals that plan's
    value there."""
    saved = {}
    for flag in all_flag_types(6, 5):
        target = programs._shared_target(*flag.target_grassmannian, DEFAULT_PRIME, 0,
                                         programs.DEFAULT_TRIALS)
        if target not in saved:
            saved[target] = copy.deepcopy(target.drawn)
        assert verify_theorem(flag).passed, flag.heading()
    assert len(saved) == 25
    entries = 0
    for target, drawn in saved.items():
        plan = subsets_plan(target.gr.k, target.gr.n)
        for (point, _), table in zip(target.drawn, target.tables):
            values = plan.run(point, DEFAULT_PRIME)
            assert {idx: values[idx] for idx in table} == table, (target.gr.k, target.gr.n)
            entries += len(table)
        assert target.drawn == drawn, (target.gr.k, target.gr.n)
    assert entries


def test_target_cache_holds_every_target_through_n12():
    """The cache keeps every target Gr(d_k; n + d_k - d_1) of the types with
    n <= 12, counted here from the pair (d_1, d_k) of each type."""
    targets = {(dk, n + dk - d1) for n in range(2, 13) for d1 in range(1, n) for dk in range(d1, n)}
    assert len(targets) == 121
    assert programs._shared_target.cache_info().maxsize >= len(targets)


@pytest.mark.parametrize("dims, n", [((2,), 5), ((2, 4), 6)])
def test_memo_never_serves_a_changed_dictionary(dims, n, monkeypatch):
    """While the unmutated ``Target`` of the type's key is cached with its
    points, a run served a ``Target`` whose grid dictionary has one entry
    doubled still fails exactly the value check."""
    flag = FlagType(dims, n)
    assert verify_theorem(flag, trials=3).passed
    shared, key = programs._shared_target, (*flag.target_grassmannian, DEFAULT_PRIME, 0, 3)
    clean = shared(*key)
    clean.points([])  # draws them where the type itself sampled nothing
    monkeypatch.setattr(programs, "GrassmannianSeed", doubled_grid)
    mutant = programs.Target(*key)
    monkeypatch.setattr(programs, "_shared_target", lambda *args: mutant)
    assert list(failed_checks(flag)) == [VALUES]
    assert shared(*key) is clean and shared.cache_info().currsize == 1


def test_runs_leave_the_shared_target_unchanged():
    """Every type with n <= 6 on Gr(4; 8) runs on one ``Target``; afterwards
    its grid seed is that of a fresh ``GrassmannianSeed(4, 8)`` and its saved
    points and values still replay the seed's stream."""
    from clusterflag.cli import seed_to_dict

    flags = [flag for flag in all_flag_types(6, 5) if flag.target_grassmannian == (4, 8)]
    assert len(flags) == 6
    for flag in flags:
        assert verify_theorem(flag, trials=3).passed
    target = programs._shared_target(4, 8, DEFAULT_PRIME, 0, 3)
    assert programs._shared_target.cache_info().currsize == 1
    assert seed_to_dict(target.gr.seed) == seed_to_dict(GrassmannianSeed(4, 8).seed)
    saved = [(point, {}, values) for point, values in target.drawn]
    assert_replays(saved, flags[0], 3)


def face_keys(flag) -> set[tuple[int, ...]]:
    """The face memo's keys of a type, counted from its arrangement faces by
    ``decompose_index_set``: (i1, d1, i2, d2, n, 0) for a face's lift,
    (0, d, 0, 0, n, 0) for the unit vertex E_d, and each again with d_k in
    place of the 0 for its padded entry."""
    n, dk = flag.n, flag.dims[-1]
    lifts = {(*flags_module.decompose_index_set(face.index_set, flag), n)
             for face in flags_module.Arrangement(flag).faces}
    lifts |= {(0, d, 0, 0, n) for d in flag.dims}
    return {key + (pad,) for key in lifts for pad in (0, dk)}


def test_certifying_builds_each_face_entry_once(monkeypatch):
    """Certifying every type with n <= 6 from an empty face memo builds
    each distinct face key of those types once, and no other key; the
    Laplace expansion runs once per unpadded pair with d2 < n, and never
    for a full-height pair, which lifts to one coordinate."""
    built, build = [], flags_module.face_entry.__wrapped__
    expanded, expand = [], flags_module.laplace_initial_minor

    def recorded(*key, **named):
        built.append(key + tuple(named.values()))
        return build(*key, **named)

    def recorded_expansion(*key):
        expanded.append(key)
        return expand(*key)

    monkeypatch.setattr(flags_module, "face_entry", functools.cache(recorded))
    monkeypatch.setattr(flags_module, "laplace_initial_minor", recorded_expansion)
    flags = all_flag_types(6, 5)
    for flag in flags:
        assert verify_theorem(flag, trials=3).passed
    keys = set().union(*map(face_keys, flags))
    assert len(keys) == 274
    assert len(built) == len(keys) and set(built) == keys
    pairs = {key[:5] for key in keys if key[2] and not key[5]}
    full_height = {key for key in pairs if key[3] == key[4]}
    assert full_height and not full_height & set(expanded)
    assert sorted(expanded) == sorted(pairs - full_height)


def test_runs_leave_the_face_memo_unchanged():
    """After every type with n <= 6 is certified, each entry the face memo
    serves is equal to a build of its key from an empty memo, so no run
    changed a polynomial or tableau that later types share."""
    face_entry = flags_module.face_entry
    flags = all_flag_types(6, 5)
    for flag in flags:
        assert verify_theorem(flag, trials=3).passed
    keys = set().union(*map(face_keys, flags))
    served = {key: face_entry(*key) for key in keys}
    assert face_entry.cache_info().currsize == len(keys)
    for key, entry in served.items():
        face_entry.cache_clear()
        assert face_entry(*key) == entry, key


def test_reports_do_not_depend_on_type_order():
    """Reports, but for ``elapsed_s``, of every type with n <= 6 are the
    same in forward and reverse order, each order from an empty target cache."""
    flags = all_flag_types(6, 5)
    runs = []
    for order in (flags, flags[::-1]):
        programs._shared_target.cache_clear()
        reports = {flag.heading(): verify_theorem(flag, trials=3).to_dict() for flag in order}
        for data in reports.values():
            data.pop("elapsed_s")
        runs.append(reports)
    assert runs[0] == runs[1]


def test_tables_do_not_depend_on_type_order():
    """Every type with n <= 6 in forward and in reverse order, each order
    from an empty target cache, leaves each target with the same table at
    each point, and a target no type sampled on with none."""
    flags = all_flag_types(6, 5)
    keys = sorted({(*flag.target_grassmannian, DEFAULT_PRIME, 0, 3) for flag in flags})
    runs = []
    for order in (flags, flags[::-1]):
        programs._shared_target.cache_clear()
        for flag in order:
            assert verify_theorem(flag, trials=3).passed
        runs.append({key: vars(programs._shared_target(*key)).get("tables") for key in keys})
        assert programs._shared_target.cache_info().currsize == len(keys)
    assert runs[0] == runs[1]
    assert any(runs[0].values()) and not all(runs[0].values())


# -- certificate mutants -------------------------------------------------------------
#
# Each mutant breaks one ingredient of the certificate, and the report must
# fail exactly the checks that depend on it.  A mutant that passed would
# show a vacuous check; a failure reported under another check would point
# at the wrong cause.

COUNT = "mutation count matches closed form"
EXACT = "program executed with exact exchanges"
CONTAIN = "endpoint tableaux contain the padded flag tableaux"
DELETE = "deletion leaves a legal restricted seed"
QUIVER = "restricted quiver equals the flag quiver"
VALUES = "kept variables equal the lifted flag coordinates at 3 points"


def failed_checks(flag):
    """{name: detail} of the checks ``verify_theorem`` fails, in order."""
    report = verify_theorem(flag, trials=3)
    return {c.name: c.detail for c in report.checks if not c.passed}


def edit_programs(monkeypatch, edit):
    """Make ``verify_theorem`` run ``edit(program)`` instead of the program."""
    original = programs.general_flag_program
    monkeypatch.setattr(programs, "general_flag_program", lambda flag: edit(original(flag)))


def test_mutant_drop_last_mutation(monkeypatch):
    edit_programs(monkeypatch, lambda p: MutationProgram(p.flag, p.mutations[:-1], p.freezes))
    failed = failed_checks(FlagType((2, 5), 8))
    assert list(failed) == [COUNT, CONTAIN, DELETE]
    assert failed[DELETE] == "not attempted: 22 of 23 flag vertices matched"


def test_mutant_swap_steps_across_pages(monkeypatch):
    flag = FlagType((2, 4), 6)
    first, second = general_flag_program(flag).mutations[1:3]
    assert first.page != second.page
    # adjacent grid vertices, so the two mutations do not commute; swapping
    # steps 4 and 5 of (2,5; 8), whose vertices share no arrow, would give
    # the same endpoint and is no mutant at all
    gr = GrassmannianSeed(*flag.target_grassmannian)
    u, w = gr.vertex_at(first.row, first.col), gr.vertex_at(second.row, second.col)
    assert {(u, w), (w, u)} & set(gr.seed.quiver.arrows)

    def swap(p):
        steps = list(p.mutations)
        steps[1], steps[2] = steps[2], steps[1]
        return MutationProgram(p.flag, steps, p.freezes)

    edit_programs(monkeypatch, swap)
    failed = failed_checks(flag)
    assert list(failed) == [CONTAIN, DELETE]
    assert failed[DELETE].startswith("not attempted: ")


def test_mutant_skip_first_freeze(monkeypatch):
    edit_programs(monkeypatch, lambda p: MutationProgram(p.flag, p.mutations, p.freezes[1:]))
    failed = failed_checks(FlagType((2, 5), 8))
    assert list(failed) == [DELETE]
    assert failed[DELETE].startswith("illegal restriction: ")


def test_mutant_flip_grid_arrow(monkeypatch):
    def flipped(k, n):
        gr = GrassmannianSeed(k, n)
        u, w = gr.vertex_at(2, 2), gr.vertex_at(2, 3)
        quiver = gr.seed.quiver.copy()
        assert not quiver.is_frozen(u) and not quiver.is_frozen(w)
        quiver.arrows[(w, u)] = quiver.arrows.pop((u, w))
        gr.seed = Seed(quiver, gr.seed.variables, gr.seed.dictionary)
        return gr

    monkeypatch.setattr(programs, "GrassmannianSeed", flipped)
    failed = failed_checks(FlagType((2, 4), 6))
    assert list(failed) == [EXACT]
    assert failed[EXACT].startswith("exchange at r2c2 is not weight-balanced: ")


def test_mutant_flag_lift_coefficient(monkeypatch):
    def bumped(flag_seed):
        emb = embedded_flag_seed(flag_seed)
        vid, poly = next((v, p) for v, p in emb.dictionary.items() if len(p.terms) > 1)
        mono = next(iter(poly.terms))
        dictionary = {**emb.dictionary, vid: poly + PluckerPoly({mono: 1})}
        return Seed(emb.quiver, emb.variables, dictionary)

    monkeypatch.setattr(programs, "embedded_flag_seed", bumped)
    assert list(failed_checks(FlagType((2, 4), 6))) == [VALUES]


def test_mutant_extra_flag_arrow(monkeypatch):
    original = flags_module.build_flag_quiver

    def extra_arrow(*args):
        quiver = original(*args)
        mutable = [v for v in sorted(quiver.vertices) if not quiver.is_frozen(v)]
        u, w = next(
            (u, w)
            for i, u in enumerate(mutable)
            for w in mutable[i + 1:]
            if (u, w) not in quiver.arrows and (w, u) not in quiver.arrows
        )
        quiver.add_arrow(u, w)
        return quiver

    monkeypatch.setattr(flags_module, "build_flag_quiver", extra_arrow)
    failed = failed_checks(FlagType((2, 5), 8))
    assert list(failed) == [QUIVER]
    assert failed[QUIVER] == "arrow F{5} -> F{4,5}: multiplicity 1 vs 0"


@pytest.mark.parametrize("dims, n", [((2,), 5), ((2, 4), 6)])
def test_mutant_untouched_lift_sign(dims, n, monkeypatch):
    """The lift of a kept vertex that no mutation touched, negated: its
    tableau and the mutation labels stay as they were, so only the
    polynomials tell."""
    flipped_vids = []

    def flipped(flag_seed):
        emb = embedded_flag_seed(flag_seed)
        vid = next(v for v, p in emb.dictionary.items() if len(p.terms) == 1)
        flipped_vids.append(vid)
        dictionary = {**emb.dictionary, vid: -emb.dictionary[vid]}
        return Seed(emb.quiver, emb.variables, dictionary)

    monkeypatch.setattr(programs, "embedded_flag_seed", flipped)
    flag = FlagType(dims, n)
    failed = failed_checks(flag)
    assert list(failed) == [VALUES]
    assert failed[VALUES].startswith("trial 0 at ")
    gr = GrassmannianSeed(*flag.target_grassmannian)
    program = general_flag_program(flag)
    mutated = {gr.vertex_at(step.row, step.col) for step in program.mutations}
    assert run_program(gr, program).mapping[flipped_vids[0]] not in mutated


@pytest.mark.parametrize("dims, n", [((2, 4), 6), ((2, 5), 8)])
def test_mutant_kept_expansion_times_unit(dims, n, monkeypatch):
    """One sampled kept vertex's Laurent expansion multiplied by the grid's
    ``unit`` generator, that is by P_{[1,k]}: quivers, tableaux and gradings
    are untouched, and P_{[1,k]} is 1 on every chart [I | M], so only the
    scale t of the points tells."""
    run = programs.run_program

    def times_unit(gr, program):
        result = run(gr, program)
        restricted = result.restricted
        vid = next(v for v in sorted(restricted.variables)
                   if restricted.variables[v].laurent != LaurentExpr.generator(restricted.nvars, v))
        state = restricted.variables[vid]
        unit = LaurentExpr.generator(restricted.nvars, gr.extra_id)
        variables = {**restricted.variables, vid: VariableState(state.laurent * unit, state.tableau)}
        return dataclasses.replace(
            result, restricted=Seed(restricted.quiver, variables, restricted.dictionary))

    monkeypatch.setattr(programs, "run_program", times_unit)
    failed = failed_checks(FlagType(dims, n))
    assert list(failed) == [VALUES]
    assert failed[VALUES].startswith("trial 0 at ")


class FirstPointTables(programs.Target):
    """A ``Target`` whose tables hold the first point's values at every point."""

    def points(self, lifts):
        points = super().points(lifts)
        for table in self.tables[1:]:
            table.update(self.tables[0])
        return points


@pytest.mark.parametrize("dims, n", [((2, 4), 6), ((2, 5), 8)])
def test_mutant_first_point_tables(dims, n, monkeypatch):
    """Every point's lift values taken from the first point: the grid
    values and Laurent expansions are right, so only later trials tell."""
    monkeypatch.setattr(programs, "_shared_target", FirstPointTables)
    failed = failed_checks(FlagType(dims, n))
    assert list(failed) == [VALUES]
    assert failed[VALUES].startswith("trial 1 at ")


def doubled_grid(k, n):
    """The rectangles seed of Gr(k; n) with its first mutable vertex's
    dictionary polynomial doubled."""
    gr = GrassmannianSeed(k, n)
    vid = gr.seed.mutable_ids()[0]
    dictionary = {**gr.seed.dictionary, vid: 2 * gr.seed.dictionary[vid]}
    gr.seed = Seed(gr.seed.quiver, gr.seed.variables, dictionary)
    return gr


@pytest.mark.parametrize("dims, n", [((2,), 5), ((2, 4), 6)])
def test_mutant_grid_dictionary_entry(dims, n, monkeypatch):
    """One grid dictionary polynomial doubled: every vertex still carries
    its tableau, but the kept values no longer equal the lifts."""
    monkeypatch.setattr(programs, "GrassmannianSeed", doubled_grid)
    assert list(failed_checks(FlagType(dims, n))) == [VALUES]


@pytest.mark.slow
def test_verify_every_flag_type_through_n9():
    """The certified range: every flag type with n <= 9 (502 types, n = 2
    included; about 17 s together on a 2-core host with Python 3.11), plus
    the deeper three-step (3,7,11; 14)."""
    flags = all_flag_types(9, 8) + [FlagType((3, 7, 11), 14)]
    for flag in flags:
        report = verify_theorem(flag, trials=5)
        assert report.passed, (flag.heading(), [c.name for c in report.checks if not c.passed])
