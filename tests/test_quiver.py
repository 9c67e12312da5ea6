"""Laurent arithmetic, quiver mutation, and the two-track seed."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from clusterflag.quiver import (
    MAX_EXPONENT,
    LaurentError,
    LaurentExpr,
    PowerTable,
    Quiver,
    QuiverError,
    Seed,
    VariableState,
    Vertex,
    quivers_agree,
    tableau_weight,
)
from clusterflag.cli import seed_to_dict
from clusterflag.flags import GrassmannianSeed
from clusterflag.plucker import DEFAULT_PRIME, EvaluationPlan, PluckerPoly, random_matrix_point
from clusterflag.tableaux import Tableau, from_columns, one_column

from support import (chart_matrix, matrix_mutation_oracle, minors, quiver_differences, random_quiver,
                     random_tableau, seeds_equal)


def rand_laurent(rng: random.Random, nvars: int, nterms: int = 3) -> LaurentExpr:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        exps = tuple(rng.randint(-2, 3) for _ in range(nvars))
        terms[exps] = rng.randint(-6, 6) or 1
    return LaurentExpr(nvars, terms)


# -- Laurent arithmetic -------------------------------------------------------


def test_laurent_basics():
    x = LaurentExpr.generator(2, 0)
    y = LaurentExpr.generator(2, 1)
    assert (x + LaurentExpr(2, {(1, 0): -1})).is_zero()
    assert LaurentExpr(2, {(0, 0): 0}).is_zero()
    two_xy = LaurentExpr(2, {(1, 1): 2})
    assert x * y + y * x == two_xy
    assert LaurentExpr.constant(2, 1) * x == x


def test_exponent_items_return_the_constructor_terms():
    rng = random.Random(6)
    for nvars in (0, 1, 2, 5, 40):
        terms = {}
        for _ in range(30):
            values = (-MAX_EXPONENT, -1, 0, 1, MAX_EXPONENT, rng.randint(-MAX_EXPONENT, MAX_EXPONENT))
            exps = tuple(rng.choice(values) for _ in range(nvars))
            terms[exps] = rng.randint(-9, 9) or 1
        assert dict(LaurentExpr(nvars, terms).exponent_items()) == terms


def test_laurent_ring_identities():
    rng = random.Random(8)
    for _ in range(300):
        f = rand_laurent(rng, 3)
        g = rand_laurent(rng, 3)
        h = rand_laurent(rng, 3)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)


def test_exact_div_inverts_multiplication():
    rng = random.Random(4)
    for _ in range(400):
        f = rand_laurent(rng, 3)
        g = rand_laurent(rng, 3)
        if g.is_zero():
            continue
        assert (f * g).exact_div(g) == f


def test_exact_div_failures():
    x = LaurentExpr.generator(1, 0)
    one = LaurentExpr.constant(1, 1)
    with pytest.raises(LaurentError, match="inexact"):
        (x + one).exact_div(LaurentExpr(1, {(1,): 1, (0,): -2}))  # x+1 over x-2
    with pytest.raises(LaurentError, match="inexact"):
        LaurentExpr.constant(1, 3).exact_div(LaurentExpr.constant(1, 2))
    with pytest.raises(LaurentError):
        one.exact_div(LaurentExpr.zero(1))
    # negative exponents are fine as long as division is exact
    assert (x * x).exact_div(LaurentExpr(1, {(-1,): 1})) == LaurentExpr(1, {(3,): 1})


def test_mismatched_nvars_raise():
    with pytest.raises(LaurentError):
        LaurentExpr(3, {(1, 2): 1})
    with pytest.raises(LaurentError):
        LaurentExpr(2, {(1, 2, 0): 1})
    x2 = LaurentExpr.generator(2, 0)
    x3 = LaurentExpr.generator(3, 0)
    for op in (
        lambda a, b: a + b,
        lambda a, b: a * b,
        lambda a, b: a.exact_div(b),
    ):
        with pytest.raises(LaurentError):
            op(x2, x3)
        with pytest.raises(LaurentError):
            op(x3, x2)


def test_laurent_evaluate():
    f = LaurentExpr(2, {(2, -1): 3, (0, 0): -1})
    p = 101
    x, y = 7, 9
    expect = (3 * pow(x, 2, p) * pow(y, p - 2, p) - 1) % p
    assert f.evaluate(PowerTable([x, y], p)) == expect


def test_shared_power_table_against_fractions():
    """Expressions evaluated at one shared ``PowerTable``, against exact
    per-term ``Fraction`` arithmetic reduced mod p: exponents from -4 to 3,
    so the table serves values, inverses, and powers of both that it adds
    on first read."""
    rng = random.Random(31)
    p = 1000003
    values = [rng.randrange(1, p) for _ in range(4)]
    table = PowerTable(values, p)
    for _ in range(40):
        terms = {
            tuple(rng.randint(-4, 3) for _ in values): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 6))
        }
        exact = sum(
            Fraction(c) * math.prod(Fraction(v) ** e for v, e in zip(values, exps))
            for exps, c in terms.items()
        )
        expect = exact.numerator * pow(exact.denominator, -1, p) % p
        expr = LaurentExpr(len(values), terms)
        assert expr.evaluate(table) == expect, terms
        assert expr.evaluate(PowerTable(values, p)) == expect, terms
    assert {e for _, e in table} >= {-4, -3, -2, -1, 1, 2, 3}


# -- quiver structure ----------------------------------------------------------


def make_quiver(nv, arrows, frozen=()):
    q = Quiver(Vertex(i, "v%d" % i, i in frozen) for i in range(nv))
    for u, w, m in arrows:
        q.add_arrow(u, w, m)
    return q


def test_add_arrow_cancellation():
    q = make_quiver(2, [(0, 1, 2)])
    q.add_arrow(1, 0, 3)
    assert q.arrows == {(1, 0): 1}
    q.add_arrow(0, 1, 1)
    assert q.arrows == {}


def test_add_arrow_rules():
    q = make_quiver(3, [], frozen=(0, 1))
    q.add_arrow(0, 1, 5)            # frozen-frozen: silently dropped
    assert q.arrows == {}
    q.add_arrow(0, 2, 1)
    assert q.arrows == {(0, 2): 1}
    with pytest.raises(QuiverError):
        q.add_arrow(2, 2, 1)
    with pytest.raises(QuiverError):
        q.add_arrow(0, 9, 1)


def test_mutation_path_example():
    # path 0 -> 1 -> 2, mutate the middle: arrows reverse, composite appears
    q = make_quiver(3, [(0, 1, 1), (1, 2, 1)])
    m = q.mutate(1)
    assert m.arrows == {(1, 0): 1, (2, 1): 1, (0, 2): 1}
    assert quiver_differences(m.mutate(1), q) == []


def test_mutation_involution_bulk():
    rng = random.Random(19)
    count = 0
    while count < 1000:
        q = random_quiver(rng)
        mutable = [vid for vid, v in q.vertices.items() if not v.frozen]
        vid = rng.choice(mutable)
        assert quiver_differences(q.mutate(vid).mutate(vid), q) == []
        count += 1


def test_mutation_matches_matrix_rule():
    rng = random.Random(23)
    for _ in range(1000):
        q = random_quiver(rng)
        mutable = [vid for vid, v in q.vertices.items() if not v.frozen]
        vid = rng.choice(mutable)
        m = q.mutate(vid)
        assert m.arrows == matrix_mutation_oracle(q, vid)
        assert {i: v.frozen for i, v in m.vertices.items()} == {
            i: v.frozen for i, v in q.vertices.items()
        }


def test_mutation_multiplicity_example():
    # doubled arrows compose with multiplicity product
    q = make_quiver(3, [(0, 1, 2), (1, 2, 3)])
    m = q.mutate(1)
    assert m.arrows[(0, 2)] == 6
    assert quiver_differences(m.mutate(1), q) == []


def test_freeze_drops_frozen_frozen_arrows():
    q = make_quiver(3, [(0, 1, 1), (1, 2, 1)], frozen=(0,))
    f = q.freeze(1)
    assert f.vertices[1].frozen
    assert (0, 1) not in f.arrows           # both endpoints now frozen
    assert f.arrows == {(1, 2): 1}


def test_restrict_legality():
    q = make_quiver(4, [(0, 1, 1), (2, 3, 1)], frozen=(1,))
    # deleting 3 severs a mutable kept vertex (2)
    with pytest.raises(QuiverError, match="illegal restriction"):
        q.restrict({0, 1, 2})
    # freezing 2 first makes it legal
    legal = q.freeze(2).restrict({0, 1, 2})
    assert set(legal.vertices) == {0, 1, 2}
    assert legal.arrows == {(0, 1): 1}
    with pytest.raises(QuiverError, match="unknown"):
        q.restrict({0, 9})


def test_quivers_agree_under_relabeling():
    q1 = make_quiver(3, [(0, 1, 1), (1, 2, 2)], frozen=(2,))
    q2 = Quiver([Vertex(10, "a", False), Vertex(11, "b", False), Vertex(12, "c", True)])
    q2.add_arrow(10, 11, 1)
    q2.add_arrow(11, 12, 2)
    assert quivers_agree(q1, q2, {0: 10, 1: 11, 2: 12}) == []
    assert quivers_agree(q1, q2, {0: 11, 1: 10, 2: 12})      # wrong map: mismatches
    q2.add_arrow(10, 12, 1)
    assert any("extra arrow" in p for p in quivers_agree(q1, q2, {0: 10, 1: 11, 2: 12}))
    # a map onto the second quiver's vertices that sends two vertices to one
    assert quivers_agree(make_quiver(2, []), make_quiver(1, []), {0: 0, 1: 0}) == [
        "vertex map is not a bijection between the quivers"
    ]


# -- seeds ----------------------------------------------------------------------


def toy_seed(last_columns=1):
    """The square exchange by hand: mutable vertex 0 with arrows from two
    frozen vertices and arrows to two more.  Vertex 4 carries its column
    ``last_columns`` times, which is its weight under the grading by
    height 2."""
    q = make_quiver(
        5, [(1, 0, 1), (2, 0, 1), (0, 3, 1), (0, 4, 1)], frozen=(1, 2, 3, 4)
    )
    cols = {0: [1, 3], 1: [1, 2], 2: [3, 4], 3: [1, 4], 4: [2, 3]}
    variables = {
        i: VariableState(
            LaurentExpr.generator(5, i),
            from_columns([cols[i]] * (last_columns if i == 4 else 1)),
        )
        for i in range(5)
    }
    dictionary = {i: PluckerPoly.variable(tuple(cols[i])) for i in range(5)}
    return Seed(q, variables, dictionary)


def test_seed_mutate_toy():
    s = toy_seed()
    m = s.mutate(0)
    assert m.variables[0].laurent == LaurentExpr(
        5, {(-1, 1, 1, 0, 0): 1, (-1, 0, 0, 1, 1): 1}
    )
    assert m.variables[0].tableau == one_column([2, 4])
    assert tableau_weight(m.variables[0].tableau, m.heights) == (1,)
    # reversed arrows; frozen-frozen composites are dropped
    assert m.quiver.arrows == {(0, 1): 1, (0, 2): 1, (3, 0): 1, (4, 0): 1}
    back = m.mutate(0)
    assert seeds_equal(s, back, {i: i for i in range(5)}) == []
    assert back.variables[0].laurent == s.variables[0].laurent


def test_seed_mutate_rejects_unbalanced(monkeypatch):
    s = toy_seed(last_columns=2)
    assert tableau_weight(s.variables[4].tableau, s.heights) == (2,)

    def no_laurent_work(*args):
        raise AssertionError("Laurent product before the balance check")

    # the balance check comes first, so no Laurent product is ever formed
    monkeypatch.setattr(LaurentExpr, "__mul__", no_laurent_work)
    with pytest.raises(QuiverError, match=r"exchange at v0 is not weight-balanced: \[2\] vs \[3\]"):
        s.mutate(0)


def test_flipped_grid_arrow_unbalances_two_vertices():
    """Gr(3,7) with the arrow r2c2 -> r2c3 reversed: the grading counts the
    tableaux' only column height, 3, so both ends of the arrow are off."""
    gr = GrassmannianSeed(3, 7)
    u, w = gr.vertex_at(2, 2), gr.vertex_at(2, 3)
    quiver = gr.seed.quiver.copy()
    quiver.arrows[(w, u)] = quiver.arrows.pop((u, w))
    seed = Seed(quiver, gr.seed.variables, gr.seed.dictionary)
    assert seed.heights == (3,)
    problems = seed.is_balanced()
    assert len(problems) == 2
    assert [p.split(":")[0] for p in problems] == ["vertex r2c2", "vertex r2c3"]


def test_seed_mutate_rejects_frozen():
    with pytest.raises(QuiverError, match="^cannot mutate frozen vertex 1$"):
        toy_seed().mutate(1)


def test_each_mutation_scans_the_arrows_once(monkeypatch):
    """``Seed.mutate`` computes its vertex's exchange once and hands it to
    ``Quiver.mutate``, which computes one itself only when called alone;
    both give the arrows of the matrix rule, along a walk of 40 mutations
    on the Gr(3; 7) grid."""
    scans, exchange = [], Quiver.exchange

    def counted(quiver, vid):
        scans.append(vid)
        return exchange(quiver, vid)

    monkeypatch.setattr(Quiver, "exchange", counted)
    rng = random.Random(24)
    seed = GrassmannianSeed(3, 7).seed
    for _ in range(40):
        vid = rng.choice(seed.mutable_ids())
        expected = matrix_mutation_oracle(seed.quiver, vid)
        scans.clear()
        assert seed.quiver.mutate(vid).arrows == expected
        assert scans == [vid]
        scans.clear()
        seed = seed.mutate(vid)
        assert scans == [vid]
        assert seed.quiver.arrows == expected


def test_seed_heights_are_the_column_lengths():
    """``Seed.heights`` against column lengths counted off the rows (column
    j is as tall as the number of rows longer than j), on seeds of random
    tableaux that each hold the empty tableau, the seed of it alone too."""
    rng = random.Random(2310)
    for size in range(300):
        tableaux = [Tableau([])] + [random_tableau(rng, max_height=5) for _ in range(size % 5)]
        columns = [(t.rows, j) for t in tableaux for j in range(len(t.rows[0]) if t.rows else 0)]
        expected = tuple(sorted({sum(len(row) > j for row in rows) for rows, j in columns}))
        variables = {i: VariableState(LaurentExpr.generator(len(tableaux), i), t)
                     for i, t in enumerate(tableaux)}
        assert Seed(make_quiver(len(tableaux), []), variables, {}).heights == expected
        assert size % 5 or expected == ()


def test_seed_freeze_and_restrict():
    s = toy_seed().mutate(0)
    f = s.freeze(0)
    assert f.quiver.vertices[0].frozen
    assert f.quiver.arrows == {}            # everything is frozen now
    r = f.restrict({0, 1})
    assert set(r.variables) == {0, 1}
    assert r.dictionary == s.dictionary     # dictionary survives restriction
    with pytest.raises(QuiverError, match="illegal"):
        s.restrict({0, 1})                  # 0 still mutable, arrows to 2,3,4


def test_derived_seeds_leave_source_unchanged():
    gr = GrassmannianSeed(3, 6)
    s = gr.seed.mutate(gr.vertex_at(2, 2))
    before = seed_to_dict(s)
    mutable = s.mutable_ids()
    for vid in mutable:
        s.mutate(vid)
    frozen = functools.reduce(Seed.freeze, mutable, s)
    s.freeze(mutable[0])
    frozen_before = seed_to_dict(frozen)
    frozen.restrict(mutable)
    assert seed_to_dict(s) == before
    assert seed_to_dict(frozen) == frozen_before


def test_seed_requires_variable_per_vertex():
    s = toy_seed()
    with pytest.raises(QuiverError):
        Seed(s.quiver, {0: s.variables[0]}, s.dictionary)


def test_grassmannian_square_exchange_values():
    """On the 2x2 grid the single exchange is the three-term relation;
    check the Laurent track against direct polynomial evaluation."""
    gr = GrassmannianSeed(2, 4)
    seed = gr.seed
    vid = seed.mutable_ids()[0]
    mutated = seed.mutate(vid)
    rng, p = random.Random(0), DEFAULT_PRIME
    plan = EvaluationPlan((PluckerPoly.variable(idx) for idx in itertools.combinations(range(1, 5), 2)),
                          2, 4)
    for _ in range(20):
        pt = plan.run((rng.randrange(1, p), random_matrix_point(2, 2, p, rng)), p)
        vals = [poly.evaluate(pt, p) for poly in seed.dictionary.values()]
        if not all(vals):
            continue
        got = mutated.variables[vid].laurent.evaluate(PowerTable(vals, p))
        p12 = PluckerPoly.variable((1, 2)).evaluate(pt, p)
        p34 = PluckerPoly.variable((3, 4)).evaluate(pt, p)
        p14 = PluckerPoly.variable((1, 4)).evaluate(pt, p)
        p23 = PluckerPoly.variable((2, 3)).evaluate(pt, p)
        p13 = PluckerPoly.variable((1, 3)).evaluate(pt, p)
        expect = (p12 * p34 + p14 * p23) * pow(p13, p - 2, p) % p
        assert got == expect
    assert mutated.variables[vid].tableau == one_column([2, 4])


def test_seed_involution_walks():
    """Random mutation walks on small grids: mutating back restores both
    tracks exactly."""
    rng = random.Random(23)
    for k, n in [(2, 5), (2, 6), (3, 6)]:
        gr = GrassmannianSeed(k, n)
        for _ in range(12):
            seed = gr.seed
            for _ in range(5):
                vid = rng.choice(seed.mutable_ids())
                stepped = seed.mutate(vid)
                back = stepped.mutate(vid)
                ident = {v: v for v in seed.quiver.vertices}
                assert seeds_equal(seed, back, ident) == []
                assert back.variables[vid].laurent == seed.variables[vid].laurent
                seed = stepped


def test_variable_values_track_laurent():
    """Every cluster variable of Gr(2, n) is a Plucker coordinate, so after
    mutating, each Laurent track evaluates to the minor that its one-column
    tableau names."""
    gr = GrassmannianSeed(2, 5)
    seed = gr.seed
    for vid in seed.mutable_ids():
        seed = seed.mutate(vid)
    rng, p = random.Random(1), DEFAULT_PRIME
    plan = EvaluationPlan((PluckerPoly.variable(idx) for idx in itertools.combinations(range(1, 6), 2)),
                          2, 5)
    pt = plan.run((rng.randrange(1, p), random_matrix_point(2, 3, p, rng)), p)
    values = [poly.evaluate(pt, p) for poly in seed.dictionary.values()]
    for st in seed.variables.values():
        (column,) = st.tableau.columns()
        assert st.laurent.evaluate(PowerTable(values, p)) == pt[column]


def test_initial_values_raise_on_vanishing(monkeypatch):
    """A point at which an initial variable vanishes is skipped, and a
    sampler that finds no other point raises.  Each attempt draws its scale
    first, then its chart, and runs the plan once, the skipped ones
    included; the kept point's values are those of the matrix it stands for."""
    import clusterflag.programs as programs

    dictionary = GrassmannianSeed(2, 4).seed.dictionary
    plan = EvaluationPlan(dictionary.values(), 2, 4)
    zero, good = [[0, 0], [0, 0]], [[3, 4], [2, 4]]
    assert 0 in [poly.evaluate(plan.run((1, zero), 7), 7) for poly in dictionary.values()]
    run, runs = EvaluationPlan.run, []

    def counted_run(plan, point, p):
        runs.append(point)
        return run(plan, point, p)

    draws = iter([zero, good])
    monkeypatch.setattr(EvaluationPlan, "run", counted_run)
    monkeypatch.setattr(programs, "random_matrix_point", lambda *args: next(draws))
    point, values = programs.sample_nonsingular_point(dictionary, 2, 4, 7, random.Random(0), plan)
    rng = random.Random(0)
    scales = [rng.randrange(1, 7), rng.randrange(1, 7)]
    assert runs == [(scales[0], zero), (scales[1], good)] and point == runs[1]
    at_good = minors(chart_matrix(point), 7)
    assert values == [poly.evaluate(at_good, 7) for poly in dictionary.values()]
    assert all(values)
    runs.clear()
    monkeypatch.setattr(programs, "random_matrix_point", lambda *args: zero)
    with pytest.raises(programs.ProgramError):
        programs.sample_nonsingular_point(dictionary, 2, 4, 7, random.Random(0), plan)
    assert len(runs) == 100


def test_sampled_values_follow_positions_not_insertion_order(monkeypatch):
    """A dictionary whose entries are listed out of position order (as a
    seed file may list them) still gives each position its own value."""
    import clusterflag.programs as programs

    dictionary = GrassmannianSeed(2, 4).seed.dictionary
    shuffled = dict(reversed(dictionary.items()))
    assert list(shuffled) != sorted(shuffled)
    good = [[3, 4], [2, 4]]
    plan = EvaluationPlan(shuffled.values(), 2, 4)
    monkeypatch.setattr(programs, "random_matrix_point", lambda *args: good)
    point, values = programs.sample_nonsingular_point(shuffled, 2, 4, 7, random.Random(0), plan)
    at_good = minors(chart_matrix(point), 7)
    assert values == [dictionary[pos].evaluate(at_good, 7) for pos in range(len(dictionary))]
    assert values != [poly.evaluate(at_good, 7) for poly in shuffled.values()]
