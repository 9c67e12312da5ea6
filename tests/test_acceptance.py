"""End-to-end acceptance criteria, one pass/fail line each.

Runtimes are asserted against generous desk-scale caps; everything below
runs comfortably inside them on ordinary hardware.
"""

import itertools
import random
import time

from clusterflag.flags import FlagSeed, FlagType, GrassmannianSeed, face_entry
from clusterflag.plucker import DEFAULT_PRIME, PluckerPoly, phi_star
from clusterflag.programs import (
    expected_mutation_count,
    general_flag_program,
    region_mutation_count,
    region_parameters,
    verify_theorem,
)
from clusterflag.tableaux import dominance_compare, quotient, union

from support import (
    all_flag_types,
    brute_dominance,
    check_semistandard,
    minors,
    pattern_minor,
    plucker_relation,
    quiver_differences,
    random_quiver,
    random_tableau,
    random_unipotent_point,
    seeds_equal,
    two_row_tableaux,
)

M = PluckerPoly.monomial


def emit(criterion: str, ok: bool, detail: str) -> None:
    print("%s %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    assert ok, "%s: %s" % (criterion, detail)


def test_criterion_1_mt_family():
    """(2,4) flags, n = 5..8: three mutations, one freeze, three deletions,
    endpoint certified at 20 random points, under 5 seconds each."""
    problems = []
    times = []
    for n in (5, 6, 7, 8):
        t0 = time.perf_counter()
        report = verify_theorem(FlagType((2, 4), n), trials=20, prime=DEFAULT_PRIME)
        dt = time.perf_counter() - t0
        times.append(dt)
        if not report.passed:
            problems.append(
                "n=%d: %s" % (n, [c.name for c in report.checks if not c.passed])
            )
        if report.counts != dict(
            report.counts,
            mutations=3,
            freezes=1,
            deleted=3,
        ):
            problems.append("n=%d counts %s" % (n, report.counts))
        if dt >= 5.0:
            problems.append("n=%d took %.2fs" % (n, dt))
    emit(
        "criterion-1 (2,4)-family endpoints",
        not problems,
        problems or "n=5..8 in %s" % " ".join("%.2fs" % t for t in times),
    )


def test_criterion_2_sh_family():
    """(2, n-2) flags, n = 6..8: closed-form lengths, verbatim n=8 labels,
    (n-3)(n-5) deletions, under 30 seconds for n = 8."""
    expected_len = {6: 3, 7: 9, 8: 21}
    verbatim_8 = [
        27, 21, 15, 9, 28, 22, 16, 10, 29, 23,
        27, 21, 15, 9, 28, 22, 29, 27, 21, 28, 27,
    ]
    problems = []
    times = []
    for n in (6, 7, 8):
        t0 = time.perf_counter()
        report = verify_theorem(FlagType((2, n - 2), n), trials=20)
        dt = time.perf_counter() - t0
        times.append(dt)
        if not report.passed:
            problems.append(
                "n=%d: %s" % (n, [c.name for c in report.checks if not c.passed])
            )
        if report.counts["mutations"] != expected_len[n]:
            problems.append("n=%d length %d" % (n, report.counts["mutations"]))
        if report.counts["freezes"] != n - 5:
            problems.append("n=%d freezes %d" % (n, report.counts["freezes"]))
        if report.counts["deleted"] != (n - 3) * (n - 5):
            problems.append("n=%d deletions %d" % (n, report.counts["deleted"]))
        if n == 8 and report.mutation_labels != verbatim_8:
            problems.append("n=8 labels %s" % report.mutation_labels)
        if n == 8 and report.freeze_labels != [21, 22, 23]:
            problems.append("n=8 freezes %s" % report.freeze_labels)
        if dt >= 30.0:
            problems.append("n=%d took %.2fs" % (n, dt))
    emit(
        "criterion-2 (2,n-2)-family endpoints",
        not problems,
        problems or "lengths 3/9/21, n=8 verbatim, in %s" % " ".join("%.2fs" % t for t in times),
    )


def test_criterion_3_three_step_worked_example():
    """(4,6,9) in ambient 12, from the 9x17 grid: 59 mutations split 10 + 49,
    full certification under 5 minutes."""
    flag = FlagType((4, 6, 9), 12)
    per_region = [
        region_mutation_count(*region_parameters(flag, j)[:3]) for j in (2, 3)
    ]
    t0 = time.perf_counter()
    report = verify_theorem(flag, trials=20)
    dt = time.perf_counter() - t0
    problems = []
    if per_region != [10, 49]:
        problems.append("region split %s" % per_region)
    if report.counts["mutations"] != 59:
        problems.append("total %d" % report.counts["mutations"])
    if not report.passed:
        problems.append(str([c.name for c in report.checks if not c.passed]))
    if dt >= 300.0:
        problems.append("took %.2fs" % dt)
    emit(
        "criterion-3 (4,6,9;12) worked example",
        not problems,
        problems or "59 = 10 + 49 mutations in %.2fs" % dt,
    )


def test_criterion_4_character_examples():
    """The two displayed quadratic lifts, as exact polynomials and against
    the direct unipotent minor at 20 random points each."""
    expect_5 = M([(1, 2, 3, 5), (3, 4)]) - M([(1, 2, 3, 4), (3, 5)])
    expect_6 = (
        M([(1, 2, 3, 4), (5, 6)])
        - M([(1, 2, 3, 5), (4, 6)])
        + M([(1, 2, 3, 6), (4, 5)])
    )
    got_5 = face_entry(1, 2, 4, 4, 5, 0)[0]
    got_6 = face_entry(1, 2, 4, 4, 6, 0)[0]
    problems = []
    if got_5 != expect_5:
        problems.append("ambient 5 expansion differs")
    if got_6 != expect_6:
        problems.append("ambient 6 expansion differs")
    rng = random.Random(2024)
    rows = (1, 2, 4)
    for n, poly in ((5, got_5), (6, got_6)):
        for _ in range(20):
            matrix = random_unipotent_point((2, 4), n, DEFAULT_PRIME, rng)
            value = poly.evaluate(minors(matrix, DEFAULT_PRIME), DEFAULT_PRIME)
            if value != pattern_minor(matrix, rows, DEFAULT_PRIME):
                problems.append("oracle mismatch at ambient %d" % n)
                break
    emit(
        "criterion-4 displayed character lifts",
        not problems,
        problems or "both expansions exact, 20-point oracle clean",
    )


def test_criterion_5a_mutation_involution():
    rng = random.Random(515)
    pairs = 0
    for _ in range(1000):
        q = random_quiver(rng)
        vid = rng.choice([v for v, vx in q.vertices.items() if not vx.frozen])
        assert quiver_differences(q.mutate(vid).mutate(vid), q) == []
        pairs += 1
    # full two-track involutions on honest seeds
    for k, n in [(2, 6), (3, 6), (3, 7)]:
        gr = GrassmannianSeed(k, n)
        seed = gr.seed
        ident = {v: v for v in seed.quiver.vertices}
        for _ in range(40):
            vid = rng.choice(seed.mutable_ids())
            stepped = seed.mutate(vid)
            back = stepped.mutate(vid)
            assert seeds_equal(seed, back, ident) == []
            assert back.variables[vid].laurent == seed.variables[vid].laurent
            seed = stepped
            pairs += 1
    emit(
        "criterion-5a mutation involution",
        pairs >= 1000,
        "%d sampled (seed, vertex) pairs" % pairs,
    )


def test_criterion_5b_laurent_exactness_on_programs():
    """Every mutation in the criterion 1-3 programs divides exactly; the
    run would raise otherwise, so executing them is the certificate."""
    total = 0
    for dims, n in [((2, 4), 5), ((2, 4), 8), ((2, 6), 8), ((4, 6, 9), 12)]:
        flag = FlagType(dims, n)
        program = general_flag_program(flag)
        gr = GrassmannianSeed(*flag.target_grassmannian)
        seed = gr.seed
        for step in program.mutations:
            seed = seed.mutate(gr.vertex_at(step.row, step.col))
            total += 1
    emit(
        "criterion-5b Laurent exactness",
        total == 3 + 3 + 21 + 59,
        "%d exchanges performed without inexact division" % total,
    )


def test_criterion_5c_tableau_invariants():
    rng = random.Random(55)
    problems = []
    for _ in range(10_000):
        a, b = random_tableau(rng), random_tableau(rng)
        u = union(a, b)
        if not check_semistandard(u.rows) or u != union(b, a) or quotient(u, a) != b:
            problems.append("union/quotient failure")
            break
    # every same-shape pair of 2-row tableaux over [5] (width <= 3) agrees
    # with an independent prefix-sum comparison; the order is antisymmetric
    # and transitive on each shape class
    tabs = two_row_tableaux(5, 3)
    by_shape = {}
    for t in tabs:
        by_shape.setdefault(t.shape, []).append(t)
    checked = 0
    for group in by_shape.values():
        up = {}
        for s, t in itertools.product(group, repeat=2):
            cmp = dominance_compare(s, t)
            if cmp != brute_dominance(s, t):
                problems.append("dominance mismatch %s %s" % (s, t))
                break
            if cmp == "equal" and s != t:
                problems.append("antisymmetry fails %s %s" % (s, t))
                break
            if cmp in ("less", "equal"):
                up.setdefault(s, set()).add(t)
            checked += 1
        if not problems and any(not up[t] <= above for above in up.values() for t in above):
            problems.append("transitivity fails on shape %s" % (group[0].shape,))
    emit(
        "criterion-5c tableau invariants",
        not problems and checked > 50_000,
        problems or "10^4 union pairs, %d exhaustive dominance pairs" % checked,
    )


def test_criterion_5d_balance_sweep():
    count = 0
    for flag in all_flag_types(9, 3):
        seed = FlagSeed(flag).seed
        bad = seed.is_balanced()
        if bad:
            emit("criterion-5d weight balance", False, "%r: %s" % (flag, bad[:2]))
        count += 1
    emit(
        "criterion-5d weight balance",
        count > 0,
        "all mutable vertices balanced across %d flag types (n <= 9, k <= 3)" % count,
    )


def test_criterion_5e_embedding_of_relations():
    checked = 0
    for n in (4, 5, 6):
        for dims in itertools.combinations(range(1, n), 2):
            dk = dims[-1]
            pads = {d: tuple(range(n + 1, n + 1 + dk - d)) for d in dims}
            for d_p, d_q in itertools.combinations_with_replacement(dims, 2):
                for J in itertools.combinations(range(1, n + 1), d_p):
                    for L in itertools.combinations(range(1, n + 1), d_q):
                        for s in range(1, d_p + 1):
                            rel = plucker_relation(J, L, s)
                            image = phi_star(rel, dims, n)
                            direct = plucker_relation(J + pads[d_p], L + pads[d_q], s)
                            assert image == direct
                            checked += 1
    emit(
        "criterion-5e relation embedding",
        checked > 0,
        "%d generator images match symbolically (n <= 6)" % checked,
    )


def test_criterion_6_two_step_count_formula():
    checked = 0
    for d2 in range(2, 8):
        for d1 in range(1, d2):
            a, b, c = d2 - d1 - 1, d2 - 2, d1
            expect = a * c * (c + 1) // 2 + a * (a - 1) // 2 * b
            prog = general_flag_program(FlagType((d1, d2), d2 + 2))
            assert len(prog.mutations) == expect, (d1, d2)
            checked += 1
    for flag in all_flag_types(9, 3):
        assert len(general_flag_program(flag).mutations) == expected_mutation_count(flag)
    emit(
        "criterion-6 schedule length formula",
        checked == 21,
        "all %d two-step types with d2 <= 7, plus the flag sweep" % checked,
    )
