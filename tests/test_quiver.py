"""Laurent arithmetic, quiver mutation, and the three-track seed."""

import functools
import random

import pytest

from clusterflag.quiver import (
    LaurentError,
    LaurentExpr,
    Quiver,
    QuiverError,
    Seed,
    VariableState,
    Vertex,
    quivers_agree,
    seeds_equal,
)
from clusterflag.cli import seed_to_dict
from clusterflag.flags import GrassmannianSeed
from clusterflag.plucker import DEFAULT_PRIME, PluckerPoly, random_matrix_point
from clusterflag.tableaux import one_column

from support import matrix_mutation_oracle, random_quiver


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
    assert (x - x).is_zero()
    assert LaurentExpr(2, {(0, 0): 0}).is_zero()
    two_xy = LaurentExpr(2, {(1, 1): 2})
    assert x * y + y * x == two_xy
    assert LaurentExpr.constant(2, 1) * x == x


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
        (x + one).exact_div(x - (one + one))       # x+1 over x-2
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
        lambda a, b: a - b,
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
    assert f.evaluate([x, y], p) == expect


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
    assert m.mutate(1) == q


def test_mutation_involution_bulk():
    rng = random.Random(19)
    count = 0
    while count < 1000:
        q = random_quiver(rng)
        mutable = [vid for vid, v in q.vertices.items() if not v.frozen]
        vid = rng.choice(mutable)
        assert q.mutate(vid).mutate(vid) == q
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
    assert m.mutate(1) == q


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


# -- seeds ----------------------------------------------------------------------


def toy_seed(last_weight=(1,)):
    """The square exchange by hand: mutable vertex 0 with arrows from two
    frozen vertices and arrows to two more."""
    q = make_quiver(
        5, [(1, 0, 1), (2, 0, 1), (0, 3, 1), (0, 4, 1)], frozen=(1, 2, 3, 4)
    )
    cols = {0: [1, 3], 1: [1, 2], 2: [3, 4], 3: [1, 4], 4: [2, 3]}
    variables = {
        i: VariableState(
            LaurentExpr.generator(5, i),
            one_column(cols[i]),
            last_weight if i == 4 else (1,),
        )
        for i in range(5)
    }
    dictionary = {i: PluckerPoly.variable(tuple(cols[i])) for i in range(5)}
    return Seed(q, variables, dictionary, 1)


def test_seed_mutate_toy():
    s = toy_seed()
    m = s.mutate(0)
    assert m.variables[0].laurent == LaurentExpr(
        5, {(-1, 1, 1, 0, 0): 1, (-1, 0, 0, 1, 1): 1}
    )
    assert m.variables[0].tableau == one_column([2, 4])
    assert m.variables[0].weight == (1,)
    # reversed arrows; frozen-frozen composites are dropped
    assert m.quiver.arrows == {(0, 1): 1, (0, 2): 1, (3, 0): 1, (4, 0): 1}
    back = m.mutate(0)
    assert seeds_equal(s, back, {i: i for i in range(5)}) == []
    assert back.variables[0].laurent == s.variables[0].laurent


def test_seed_mutate_rejects_unbalanced():
    s = toy_seed(last_weight=(2,))
    with pytest.raises(QuiverError, match="weight-balanced"):
        s.mutate(0)


def test_seed_mutate_rejects_frozen():
    with pytest.raises(QuiverError, match="frozen"):
        toy_seed().mutate(1)


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
        Seed(s.quiver, {0: s.variables[0]}, s.dictionary, 1)


def test_grassmannian_square_exchange_values():
    """On the 2x2 grid the single exchange is the three-term relation;
    check the Laurent track against direct polynomial evaluation."""
    gr = GrassmannianSeed(2, 4)
    seed = gr.seed
    vid = seed.mutable_ids()[0]
    mutated = seed.mutate(vid)
    rng = random.Random(0)
    for _ in range(20):
        pt = random_matrix_point(2, 4, DEFAULT_PRIME, rng)
        try:
            vals = seed.initial_values(pt)
        except ArithmeticError:
            continue
        got = mutated.variables[vid].laurent.evaluate(vals, pt.prime)
        p12 = PluckerPoly.variable((1, 2)).evaluate(pt)
        p34 = PluckerPoly.variable((3, 4)).evaluate(pt)
        p14 = PluckerPoly.variable((1, 4)).evaluate(pt)
        p23 = PluckerPoly.variable((2, 3)).evaluate(pt)
        p13 = PluckerPoly.variable((1, 3)).evaluate(pt)
        expect = (p12 * p34 + p14 * p23) * pow(p13, pt.prime - 2, pt.prime) % pt.prime
        assert got == expect
    assert mutated.variables[vid].tableau == one_column([2, 4])


def test_seed_involution_walks():
    """Random mutation walks on small grids: mutating back restores all
    three tracks exactly."""
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
    rng = random.Random(1)
    pt = random_matrix_point(2, 5, DEFAULT_PRIME, rng)
    values = seed.initial_values(pt)
    for st in seed.variables.values():
        (column,) = st.tableau.columns()
        assert st.laurent.evaluate(values, DEFAULT_PRIME) == pt.plucker(column)


def test_initial_values_raise_on_vanishing():
    gr = GrassmannianSeed(2, 4)
    zero_pt_matrix = [[1, 0, 0, 0], [0, 1, 0, 0]]
    from clusterflag.plucker import EvaluationPoint

    pt = EvaluationPoint(zero_pt_matrix, 7)
    with pytest.raises(ArithmeticError):
        gr.seed.initial_values(pt)
