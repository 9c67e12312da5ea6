"""Plucker polynomial algebra, relations, lifts, and the numeric oracle."""

import itertools
import random
from collections import Counter

import pytest
import sympy

from clusterflag import plucker
from clusterflag.flags import (
    FlagError,
    FlagSeed,
    FlagType,
    GrassmannianSeed,
    embedded_flag_seed,
    face_entry,
    laplace_initial_minor,
)
from clusterflag.plucker import (
    DEFAULT_PRIME,
    EvaluationPlan,
    PluckerError,
    PluckerPoly,
    batch_inverse,
    det_mod,
    format_poly,
    index_label,
    is_prime,
    mt_coordinate,
    normalize_index,
    phi_star,
    random_matrix_point,
    sh_coordinate,
)
from clusterflag.tableaux import TableauError, fill_up, one_column

from support import (
    chart_matrix,
    inversion_sign,
    minors,
    pattern_minor,
    plucker_relation,
    random_unipotent_point,
    trial_division_is_prime,
    unipotent_pattern,
)

P = PluckerPoly.variable
M = PluckerPoly.monomial


# -- index normalization ------------------------------------------------------


def test_normalize_index_examples():
    assert normalize_index((2, 1)) == (-1, (1, 2))
    assert normalize_index((1, 1)) == (0, ())
    assert normalize_index((3, 1, 2)) == (1, (1, 2, 3))
    assert normalize_index(()) == (1, ())


def test_normalize_index_sign_coherence():
    # exhaustive over permutations of indices of size <= 5
    for base in [(1, 2), (2, 5, 7), (1, 3, 4, 6), (1, 3, 4, 6, 9)]:
        for perm in itertools.permutations(base):
            inversions = sum(
                1
                for a in range(len(perm))
                for b in range(a + 1, len(perm))
                if perm[a] > perm[b]
            )
            assert normalize_index(perm) == ((-1) ** inversions, base)


# -- polynomial ring -----------------------------------------------------------


def test_poly_construction_and_arithmetic():
    x = P((1, 3))
    y = P((3, 1))
    assert y == -1 * x
    assert (x + y).is_zero()
    assert P((1, 1)).is_zero()
    prod = M([(1, 2), (3, 4)]) * 2
    assert prod.terms == {((1, 2), (3, 4)): 2}
    assert (prod - prod).is_zero()
    assert PluckerPoly({(): 1}) * x == x
    assert x.coefficient([(1, 3)]) == 1


def test_poly_constructor_sums_equal_monomials():
    # monomials equal as multisets are one term: their coefficients add up
    assert PluckerPoly({((1, 2), (3, 4)): 1, ((3, 4), (1, 2)): -1}).is_zero()
    doubled = PluckerPoly({((1, 2), (3, 4)): 1, ((3, 4), (1, 2)): 1})
    assert doubled.terms == {((1, 2), (3, 4)): 2}


def test_constructor_against_inversion_sign_oracle():
    """Each index sorted with the sign of its inversions (a repeated entry
    gives 0), each monomial sorted, equal monomials summed, zeros dropped;
    the terms passed as pairs, as an iterator and as a mapping."""
    fixed = [
        [(((2, 1),), 3)],                                   # unsorted index
        [(((1, 3, 1), (2, 4)), 5)],                         # repeated index
        [(((1, 2), (3, 4)), 2), (((4, 3), (2, 1)), 1)],     # two orders summing
        [(((1, 2), (3, 4)), 1), (((3, 4), (2, 1)), 1)],     # two orders cancelling
    ]
    assert PluckerPoly(fixed[0]) == M([(1, 2)], -3)
    assert PluckerPoly(fixed[1]).is_zero()
    assert PluckerPoly(fixed[2]).terms == {((1, 2), (3, 4)): 3}
    assert PluckerPoly(dict(fixed[3])).is_zero()
    rng = random.Random(23)

    def index():
        k = rng.randint(0, 4)
        return tuple(rng.sample(range(1, 8), k) if rng.random() < 0.7 else rng.choices(range(1, 8), k=k))

    randoms = [
        [(tuple(index() for _ in range(rng.randint(0, 3))), rng.randint(-3, 3)) for _ in range(rng.randint(0, 6))]
        for _ in range(400)
    ]
    for pairs in fixed + randoms:
        expected = {}
        for mono, coeff in pairs:
            for idx in mono:
                coeff *= inversion_sign(idx)
            key = tuple(sorted(tuple(sorted(idx)) for idx in mono))
            expected[key] = expected.get(key, 0) + coeff
        expected = {m: c for m, c in expected.items() if c}
        assert PluckerPoly(pairs).terms == expected
        assert PluckerPoly(iter(pairs)).terms == expected
        if len(dict(pairs)) == len(pairs):
            assert PluckerPoly(dict(pairs)).terms == expected


def test_monomial_is_the_product_of_its_variables():
    rng = random.Random(17)
    for _ in range(200):
        indices = [rng.sample(range(1, 7), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
        coeff = rng.randint(-3, 3)
        product = PluckerPoly({(): coeff})
        for idx in indices:
            product = product * P(idx)
        assert M(indices, coeff) == product


def test_format_poly():
    assert format_poly(PluckerPoly()) == "0"
    assert format_poly(P((3, 4, 5))) == "+P_{345}"
    assert format_poly(M([(1, 2)], -3)) == "-3P_{12}"
    assert format_poly(PluckerPoly({(): 1})) == "+1"
    assert index_label((2, 11)) == "2,11"


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(2)
    pt = minors(random_matrix_point(4, 6, DEFAULT_PRIME, rng), DEFAULT_PRIME)
    polys = []
    for _ in range(6):
        poly = PluckerPoly()
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(1, 7), rng.choice((2, 4)))))
            poly = poly + M([idx], rng.randint(-5, 5))
        polys.append(poly)
    p = DEFAULT_PRIME
    for f, g in itertools.combinations(polys, 2):
        assert (f + g).evaluate(pt, p) == (f.evaluate(pt, p) + g.evaluate(pt, p)) % p
        assert (f * g).evaluate(pt, p) == (f.evaluate(pt, p) * g.evaluate(pt, p)) % p


def test_det_mod_against_naive_expansion():
    rng = random.Random(9)
    prime = 10007
    for size in (1, 2, 3, 4):
        for _ in range(20):
            m = [[rng.randrange(prime) for _ in range(size)] for _ in range(size)]
            naive = 0
            for perm in itertools.permutations(range(size)):
                sign, _ = normalize_index(tuple(p + 1 for p in perm))
                term = sign
                for r, c in enumerate(perm):
                    term *= m[r][c]
                naive += term
            assert det_mod(m, prime) == naive % prime


def test_is_prime_against_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == trial_division_is_prime(n), n
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7,
    # and the product 101 * 9901
    for n in (561, 3215031751, 1000001):
        assert not is_prime(n) and not trial_division_is_prime(n), n
    assert is_prime(DEFAULT_PRIME)          # 2^61 - 1, a Mersenne prime
    assert not is_prime(DEFAULT_PRIME * 3)


# -- exchange relations ----------------------------------------------------------


def test_three_term_relation_exact():
    rel = plucker_relation((1, 3), (2, 4), 1)
    expected = M([(1, 3), (2, 4)]) - M([(1, 2), (3, 4)]) - M([(1, 4), (2, 3)])
    assert rel == expected


def test_relations_vanish_at_random_points():
    rng = random.Random(31)
    n = 6
    cases = []
    for d_p, d_q in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        for _ in range(4):
            J = tuple(sorted(rng.sample(range(1, n + 1), d_p)))
            L = tuple(sorted(rng.sample(range(1, n + 1), d_q)))
            s = rng.randint(1, d_p)
            cases.append(plucker_relation(J, L, s))
    for _ in range(20):
        pt = minors(random_matrix_point(4, n, DEFAULT_PRIME, rng), DEFAULT_PRIME)
        for rel in cases:
            assert rel.evaluate(pt, DEFAULT_PRIME) == 0


def test_relation_degenerate_full_swap_is_zero():
    assert plucker_relation((1, 3), (1, 3), 2).is_zero()
    assert plucker_relation((2, 4, 5), (2, 4, 5), 3).is_zero()


def test_relation_validates_sizes():
    with pytest.raises(PluckerError):
        plucker_relation((1, 2, 3), (1, 2), 1)
    with pytest.raises(PluckerError):
        plucker_relation((1, 2), (3, 4), 0)


# -- the embedding -----------------------------------------------------------------


def test_phi_star_examples():
    assert phi_star(P((1, 3)), (2, 4), 6) == P((1, 3, 7, 8))
    assert phi_star(P((1, 2, 3, 5)), (2, 4), 6) == P((1, 2, 3, 5))
    with pytest.raises(PluckerError):
        phi_star(P((1, 2, 3)), (2, 4), 6)
    with pytest.raises(PluckerError):
        phi_star(P((1, 7)), (2, 4), 6)


def test_phi_star_and_fill_up_share_the_padding_errors():
    for idx in [(1, 2, 3), (1, 7)]:
        with pytest.raises(TableauError) as tab_err:
            fill_up(one_column(idx), (2, 4), 6)
        with pytest.raises(PluckerError) as poly_err:
            phi_star(P(idx), (2, 4), 6)
        assert str(poly_err.value) == str(tab_err.value)


def test_phi_star_multiplicative():
    rng = random.Random(13)
    dims, n = (2, 3, 5), 7
    for _ in range(40):
        def rand_poly():
            poly = PluckerPoly()
            for _ in range(rng.randint(1, 3)):
                size = rng.choice(dims)
                idx = tuple(sorted(rng.sample(range(1, n + 1), size)))
                poly = poly + M([idx], rng.randint(-4, 4))
            return poly

        f, g = rand_poly(), rand_poly()
        assert phi_star(f * g, dims, n) == phi_star(f, dims, n) * phi_star(g, dims, n)
        assert phi_star(f + g, dims, n) == phi_star(f, dims, n) + phi_star(g, dims, n)
        for mono in phi_star(f, dims, n).terms:
            assert all(len(idx) == max(dims) for idx in mono)


def test_phi_star_maps_relations_to_relations():
    # symbolic correspondence on the generators, small ambient sizes
    for n in (4, 5):
        for dims in itertools.combinations(range(1, n), 2):
            d1, d2 = dims
            dk = d2
            pad1 = tuple(range(n + 1, n + 1 + dk - d1))
            for J in itertools.combinations(range(1, n + 1), d1):
                for L in itertools.combinations(range(1, n + 1), d2):
                    for s in range(1, d1 + 1):
                        rel = plucker_relation(J, L, s)
                        image = phi_star(rel, dims, n)
                        direct = plucker_relation(J + pad1, L, s)
                        assert image == direct


# -- solid and two-interval lifts -----------------------------------------------------


def test_interval_lift_examples():
    assert face_entry(1, 3, 0, 0, 6, 0) == (P((4, 5, 6)), one_column([4, 5, 6]))
    assert face_entry(2, 2, 0, 0, 5, 0) == (P((1, 5)), one_column([1, 5]))


def test_two_interval_lift_exact_polynomials():
    assert laplace_initial_minor(1, 2, 4, 4, 5)[0] == (
        M([(1, 2, 3, 5), (3, 4)]) - M([(1, 2, 3, 4), (3, 5)])
    )
    assert laplace_initial_minor(1, 2, 4, 4, 6)[0] == (
        M([(1, 2, 3, 4), (5, 6)])
        - M([(1, 2, 3, 5), (4, 6)])
        + M([(1, 2, 3, 6), (4, 5)])
    )


def test_lifts_match_unipotent_minors():
    """Evaluating a lift at a point of the unipotent patch gives the plain
    matrix minor on the lifted rows and the last columns."""
    rng = random.Random(77)
    for n in range(3, 9):
        for d in range(1, n):
            matrix = random_unipotent_point((d,), n, DEFAULT_PRIME, rng)
            pt = minors(matrix, DEFAULT_PRIME)
            for i in range(1, d + 1):
                lift = face_entry(i, d, 0, 0, n, 0)[0]
                rows = tuple(range(i, d + 1))
                assert lift.evaluate(pt, DEFAULT_PRIME) == pattern_minor(matrix, rows, DEFAULT_PRIME)
    # d2 runs up to n: the full-height pairs (i1, d1, i2, n) lift to one coordinate
    for n in range(4, 8):
        for d1, d2 in itertools.combinations(range(1, n + 1), 2):
            for trial in range(3):
                matrix = random_unipotent_point((d1, d2), n, DEFAULT_PRIME, rng)
                pt = minors(matrix, DEFAULT_PRIME)
                for i1 in range(1, d1 + 1):
                    for i2 in range(d1 + 2, d2 + 1):
                        lift = face_entry(i1, d1, i2, d2, n, 0)[0]
                        rows = tuple(range(i1, d1 + 1)) + tuple(range(i2, d2 + 1))
                        expect = pattern_minor(matrix, rows, DEFAULT_PRIME)
                        assert lift.evaluate(pt, DEFAULT_PRIME) == expect


def test_two_interval_lift_leading_coefficient():
    for n in range(4, 8):
        for d1, d2 in itertools.combinations(range(1, n), 2):
            for i1 in range(1, d1 + 1):
                with pytest.raises(FlagError):     # adjacent: no face has them
                    laplace_initial_minor(i1, d1, d1 + 1, d2, n)
                with pytest.raises(FlagError):     # full height: one coordinate
                    laplace_initial_minor(i1, d1, d2 + 1, n, n)
                for i2 in range(d1 + 2, d2 + 1):
                    lift, lead = laplace_initial_minor(i1, d1, i2, d2, n)
                    assert lift.coefficient(lead.columns()) == 1
                    # bi-homogeneous: every term one size-d1 and one size-d2
                    # coordinate
                    for mono in lift.terms:
                        assert sorted(len(i) for i in mono) == [d1, d2]


def test_two_interval_collapse_at_full_height():
    # d2 = n: the second factor is the full determinant, degree drops to one
    lift = face_entry(1, 2, 4, 5, 5, 0)[0]
    assert len(lift.terms) == 1
    mono = next(iter(lift.terms))
    assert len(mono) == 1 and len(mono[0]) == 2


# -- evaluation points -----------------------------------------------------------------


def test_plucker_of_prefix_is_one_on_unipotent_points():
    rng = random.Random(5)
    pt = minors(random_unipotent_point((2, 4), 6, DEFAULT_PRIME, rng), DEFAULT_PRIME)
    for d in (1, 2, 3, 4, 6):
        assert pt[tuple(range(1, d + 1))] == 1


def _oracle_points(prime: int):
    """Points (t, M) of every row count m <= 4 cut from three 4 x 3 charts
    (a dense one, one with a zero column, one with a repeated column), so
    N = m + 3, and one short and wide point of Gr(2; 7)."""
    rng = random.Random(prime % 1000)

    def entry():
        return 0 if rng.random() < 0.3 else rng.randrange(1, prime)

    dense = [[entry() for _ in range(3)] for _ in range(4)]
    zero_column = [[row[0], 0, row[2]] for row in dense]
    repeated_column = [[row[0], row[1], row[0]] for row in dense]
    charts = [chart[:m] for chart in (dense, zero_column, repeated_column) for m in range(5)]
    charts.append([[entry() for _ in range(5)] for _ in range(2)])
    return [(rng.randrange(1, prime), chart) for chart in charts]


def _expected(point, index):
    """t times sympy's integer determinant of the columns ``index`` of [I_m | M]."""
    t, chart = point
    full = chart_matrix((1, chart))
    return t * sympy.Matrix(len(index), len(index), [row[c - 1] for row in full for c in index]).det()


def counted_det_mods(monkeypatch) -> list[int]:
    """The prime of every ``det_mod`` call the condensation makes from now on."""
    calls = []

    def counted_det_mod(rows, p):
        calls.append(p)
        return det_mod(rows, p)

    monkeypatch.setattr(plucker, "det_mod", counted_det_mod)
    return calls


@pytest.mark.parametrize("prime", [2, 3, 7, DEFAULT_PRIME])
def test_plucker_against_sympy_determinant(prime, monkeypatch):
    """Every P_I at points (t, M) with m = len(M) <= 4, from a plan of every
    index set of size m, against t times sympy's determinant of the columns
    I of [I_m | M] mod p: a zero chart column, a repeated one, m = 0, a
    short and wide chart, and a second run of the same plan.  At p = 2 and
    3 interior minors vanish and the counted ``det_mod`` fallback runs."""
    calls = counted_det_mods(monkeypatch)
    for point in _oracle_points(prime):
        m, width = len(point[1]), (len(point[1][0]) if point[1] else 0)
        indices = list(itertools.combinations(range(1, m + width + 1), m))
        plan = EvaluationPlan((P(index) for index in indices), m, m + width)
        for _ in range(2):
            values = plan.run(point, prime)
            assert list(values) == indices
            for index in indices:
                assert values[index] == _expected(point, index) % prime, (point, index)
    if prime < 7:
        assert calls


@pytest.mark.parametrize("prime", [2, 3, 7, DEFAULT_PRIME])
def test_condensed_minors_against_sympy_determinant(prime, monkeypatch):
    """Points (-5, C[:m]) cut from one 6 x 10 integer chart C, at one plan
    per size m of Gr(m; m + 10): the Gr(4,9) grid dictionary, its index sets
    lifted by column 10, and every 6-subset of 1..10, listed in shuffled
    order, each plan run at the point of its size, against sympy's integer
    determinant mod p; then every size again, with the same values and the
    same fallbacks.  At p = 2 and 3
    interior minors vanish and elimination takes over; at 2^61 - 1
    condensation alone answers."""
    rng = random.Random(12)
    chart = [[rng.randrange(-99, 100) for _ in range(10)] for _ in range(6)]
    grid = [idx for poly in GrassmannianSeed(4, 9).seed.dictionary.values()
            for mono in poly.terms for idx in mono]
    indices = grid + [idx + (10,) for idx in grid] + list(itertools.combinations(range(1, 11), 6))
    rng.shuffle(indices)
    calls = counted_det_mods(monkeypatch)
    sizes = {m: [index for index in dict.fromkeys(indices) if len(index) == m] for m in (4, 5, 6)}
    plans = {m: EvaluationPlan((P(index) for index in sized), m, m + 10)
             for m, sized in sizes.items()}
    assert {m: plan.indices for m, plan in plans.items()} == sizes
    assert sum(map(len, sizes.values())) == len(set(indices))
    points = {m: (-5, chart[:m]) for m in plans}
    expected = {index: _expected(points[len(index)], index) % prime for index in indices}
    for m, plan in plans.items():
        assert plan.run(points[m], prime) == {index: expected[index] for index in sizes[m]}, m
    fallbacks = len(calls)
    for m, plan in plans.items():
        assert plan.run(points[m], prime) == {index: expected[index] for index in sizes[m]}, m
    assert len(calls) == 2 * fallbacks
    if prime in (2, 3):
        assert fallbacks > 0
    if prime == DEFAULT_PRIME:
        assert fallbacks == 0


@pytest.mark.parametrize("dims, n", [((2, 4), 6), ((2, 5, 7), 8), ((1, 3), 8)])
def test_plan_values_against_sympy_determinant(dims, n, monkeypatch):
    """The plan of a flag type (the grid dictionary of its Grassmannian and
    every lifted flag coordinate) at integer points (t, M) of Gr(k; N),
    against t times sympy's integer determinant of [I_k | M] mod p for p in
    {2, 3, 7, 2^61 - 1}.  The charts include a zero column, a repeated
    column and, at small p, vanishing interior minors; a counter shows that
    the fallback ran, and that at 2^61 - 1 condensation alone answers the
    dense charts (entries below 10^6 in size)."""
    flag = FlagType(dims, n)
    k, ambient = flag.target_grassmannian
    plan = EvaluationPlan([*GrassmannianSeed(k, ambient).seed.dictionary.values(),
                           *embedded_flag_seed(FlagSeed(flag)).dictionary.values()], k, ambient)
    rng = random.Random(len(dims) * 100 + n)
    dense = [[[rng.randrange(-10**6, 10**6) for _ in range(ambient - k)] for _ in range(k)]
             for _ in range(6)]
    zero_column = [row[:1] + [0] + row[2:] for row in dense[0]]
    repeated_column = [row[:2] + row[1:2] + row[3:] for row in dense[1]]
    points = [(rng.choice((-1, 1)) * rng.randrange(1, 100), chart)
              for chart in dense + [zero_column, repeated_column]]
    expected = [{index: _expected(point, index) for index in plan.indices} for point in points]
    det_calls = counted_det_mods(monkeypatch)
    assert {len(index) for index in plan.indices} == {k}
    for prime in (2, 3, 7, DEFAULT_PRIME):
        for point, values in zip(points, expected):
            got = plan.run(point, prime)
            for index, det in values.items():
                assert got[index] == det % prime, (prime, point, index)
            if point[1] is dense[-1]:
                dense_calls = det_calls.count(prime)
        if prime < 7:
            assert det_calls.count(prime) > 0, prime
    assert dense_calls == 0


def test_plan_single_lookups_and_bounds():
    """A plan of Gr(m; 5) run at a point with m chart rows gives exactly its
    index sets, each equal to ``det_mod`` of the matrix the point stands
    for; a plan refuses an index set of another size or outside the
    columns."""
    matrix = [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [5, 8, 9, 7, 9]]
    polys = {1: [], 2: [P((2, 3))], 3: [P((1, 2, 4)), P((3, 4, 5))]}
    plans = {m: EvaluationPlan(polys[m], m, 5) for m in (1, 2, 3)}
    assert [plans[m].indices for m in (1, 2, 3)] == [[], [(2, 3)], [(1, 2, 4), (3, 4, 5)]]
    points = {m: (2, [row[:5 - m] for row in matrix[:m]]) for m in (1, 2, 3)}
    values = {m: plans[m].run(points[m], 101) for m in (1, 2, 3)}
    assert [list(values[m]) for m in (1, 2, 3)] == [[], [(2, 3)], [(1, 2, 4), (3, 4, 5)]]
    for m in (1, 2, 3):
        pt = minors(chart_matrix(points[m]), 101)
        for index in itertools.combinations(range(1, 6), m):
            assert pt[index] == _expected(points[m], index) % 101, index
            assert values[m].get(index, pt[index]) == pt[index], index
    with pytest.raises(PluckerError):
        EvaluationPlan([P((1, 2, 4)) * P((2, 3))], 3, 5)     # (2, 3) has size 2
    with pytest.raises(PluckerError):
        EvaluationPlan([P((2, 6))], 2, 5)


def test_scaled_charts_are_the_matrices_with_a_nonzero_unit():
    """Over F_3 the Plucker vectors of the 3^8 matrices 2 x 4 with P_12 != 0
    are exactly those of the 2 * 3^4 points (t, M), each |SL_2(F_3)| = 24
    times, and P_12 = t at each point: a uniform point is a uniform matrix
    conditioned on P_12 != 0, the distribution the sampled check had when
    it drew whole matrices."""
    p, indices = 3, list(itertools.combinations(range(1, 5), 2))
    plan = EvaluationPlan((P(index) for index in indices), 2, 4)
    from_points = Counter()
    for t in (1, 2):
        for a, b, c, d in itertools.product(range(p), repeat=4):
            values = plan.run((t, [[a, b], [c, d]]), p)
            assert values[1, 2] == t
            from_points[tuple(values[index] for index in indices)] += 1
    from_matrices = Counter()
    for entries in itertools.product(range(p), repeat=8):
        pt = minors([list(entries[:4]), list(entries[4:])], p)
        if pt[1, 2]:
            from_matrices[tuple(pt[index] for index in indices)] += 1
    assert len(from_points) == 2 * p ** 4 and set(from_points.values()) == {1}
    assert from_matrices == {vector: 24 for vector in from_points}


def test_batch_inverse():
    p = 1000003
    values = [1, 2, p - 1, 12345, 2 * p + 7]
    assert batch_inverse(values, p) == [pow(v, -1, p) for v in values]
    assert batch_inverse([], p) == []
    with pytest.raises(ValueError):
        batch_inverse([3, p, 5], p)


def test_unipotent_pattern_shape():
    free = unipotent_pattern((2, 4), 5)
    expected = [
        [False, False, True, True, True],
        [False, False, True, True, True],
        [False, False, False, False, True],
        [False, False, False, False, True],
        [False, False, False, False, False],
    ]
    assert free == expected


def test_unipotent_point_determinism():
    a = random_unipotent_point((2, 4), 6, 10007, random.Random(42))
    b = random_unipotent_point((2, 4), 6, 10007, random.Random(42))
    assert a == b
    assert minors([[1, 0], [0, 1]], 7)[1, 2] == 1


def test_evaluation_point_bounds():
    for index in ((0, 1), (1, 4), (1,), (1, 2, 3)):
        with pytest.raises(PluckerError):
            EvaluationPlan([P(index)], 2, 3)        # not a 2-subset of the columns 1..3
    with pytest.raises(PluckerError):
        det_mod([[1, 2]], 7)


# -- coordinate dictionaries --------------------------------------------------------------


def test_sh_coordinates():
    assert format_poly(sh_coordinate(5, "bracket", 1, 2)) == "+P_{345}"
    assert sh_coordinate(5, "angle", 1, 3) == P((1, 3))
    assert sh_coordinate(5, "bracket", 2, 3) == P((1, 4, 5))       # (-1)^(2+3-1) = +1
    assert sh_coordinate(5, "bracket", 1, 3) == -1 * P((2, 4, 5))  # (-1)^(1+3-1) = -1
    with pytest.raises(PluckerError):
        sh_coordinate(5, "angle", 3, 2)
    assert sh_coordinate(11, "angle", 1, 11) == P((1, 11))
    assert sh_coordinate(11, "bracket", 2, 10) == -1 * P((1, 3, 4, 5, 6, 7, 8, 9, 11))


def test_mt_coordinates():
    assert mt_coordinate(6, (1, 2)) == P((1, 2))
    assert mt_coordinate(6, (1, 2, 3, 4)) == P((1, 2, 3, 4))
    assert mt_coordinate(6, (1, 3)) == P((1, 3))
    with pytest.raises(PluckerError):
        mt_coordinate(6, (1, 2, 3))
    with pytest.raises(PluckerError):
        mt_coordinate(6, (1, 9))


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4])
def test_coordinates_need_a_flag_type(n):
    """(2, n-2; n) and (2, 4; n) are flag types only from n = 5 on: below
    that, even an index tuple inside [1, n] has no coordinate."""
    with pytest.raises(PluckerError, match="needs n >= 5"):
        sh_coordinate(n, "angle", 1, 2)
    with pytest.raises(PluckerError, match="needs n >= 5"):
        sh_coordinate(n, "bracket", 1, 2)
    with pytest.raises(PluckerError, match="needs n >= 5"):
        mt_coordinate(n, (1, 2))
    assert sh_coordinate(5, "bracket", 1, 2) == P((3, 4, 5))
    assert mt_coordinate(5, (1, 2, 3, 4)) == P((1, 2, 3, 4))


def test_sh_bracket_matches_complementary_minor():
    """The bracket coordinate evaluates to the signed complementary minor:
    on 2x n points, <ij> times the bracket of the complement reproduces the
    determinant expansion sign."""
    rng = random.Random(3)
    n = 6
    pt = minors(random_matrix_point(n - 2, n, DEFAULT_PRIME, rng), DEFAULT_PRIME)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        comp = tuple(x for x in range(1, n + 1) if x not in (i, j))
        expect = ((-1) ** (i + j - 1)) * pt[comp] % DEFAULT_PRIME
        assert sh_coordinate(n, "bracket", i, j).evaluate(pt, DEFAULT_PRIME) == expect
