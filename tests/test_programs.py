"""Mutation schedules, their execution, and the endpoint verification."""

import itertools
import random

import pytest

import clusterflag.programs as programs
from clusterflag.flags import FlagError, FlagType, GrassmannianSeed, embedded_flag_seed
from clusterflag.plucker import PluckerPoly
from clusterflag.programs import (
    MutationProgram,
    ProgramError,
    expected_mutation_count,
    general_flag_program,
    match_embedded_vertices,
    mt_program,
    region_mutation_count,
    region_parameters,
    run_program,
    sh_program,
    standard_form_tableau,
    verify_theorem,
)
from clusterflag.quiver import Seed, seeds_equal
from clusterflag.tableaux import Tableau, fill_up

from support import all_flag_types


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


def test_preset_guards():
    with pytest.raises(ProgramError):
        mt_program(4)
    with pytest.raises(ProgramError):
        sh_program(5)
    with pytest.raises(FlagError):
        general_flag_program(FlagType((3, 3), 6))


def test_count_formula_over_flag_sweep():
    for flag in all_flag_types(9, 3):
        prog = general_flag_program(flag)
        assert len(prog.mutations) == expected_mutation_count(flag)


def test_sh_lengths():
    for n, expect in [(6, 3), (7, 9), (8, 21)]:
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
        gr.seed = Seed(quiver, gr.seed.variables, gr.seed.dictionary, gr.seed.weight_rank)
        return gr

    monkeypatch.setattr(programs, "GrassmannianSeed", flipped)
    failed = failed_checks(FlagType((2, 4), 6))
    assert list(failed) == [EXACT]
    assert "not weight-balanced" in failed[EXACT]


def test_mutant_flag_lift_coefficient(monkeypatch):
    def bumped(flag_seed):
        emb = embedded_flag_seed(flag_seed)
        vid, poly = next((v, p) for v, p in emb.dictionary.items() if len(p.terms) > 1)
        mono = next(iter(poly.terms))
        dictionary = {**emb.dictionary, vid: poly + PluckerPoly({mono: 1})}
        return Seed(emb.quiver, emb.variables, dictionary, emb.weight_rank)

    monkeypatch.setattr(programs, "embedded_flag_seed", bumped)
    assert list(failed_checks(FlagType((2, 4), 6))) == [VALUES]


@pytest.mark.slow
def test_verify_every_flag_type_through_n9():
    """The certified range: every flag type with n <= 9 (502 types, about a
    minute and a half together), plus the deeper three-step (3,7,11; 14)."""
    flags = all_flag_types(9, 8) + [FlagType((3, 7, 11), 14)]
    for flag in flags:
        report = verify_theorem(flag, trials=5)
        assert report.passed, (flag.heading(), [c.name for c in report.checks if not c.passed])
