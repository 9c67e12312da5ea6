"""Plucker polynomial algebra, relations, lifts, and the numeric oracle."""

import itertools
import random

import pytest

from clusterflag.plucker import (
    DEFAULT_PRIME,
    EvaluationPoint,
    PluckerError,
    PluckerPoly,
    det_mod,
    format_poly,
    index_label,
    interval_minor_to_plucker,
    is_prime,
    laplace_initial_minor,
    mt_coordinate,
    normalize_index,
    phi_star,
    plucker_relation,
    random_matrix_point,
    sh_coordinate,
)
from clusterflag.tableaux import initial_tableau, interval_index_set

from support import (
    pattern_minor,
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


def test_format_poly():
    assert format_poly(PluckerPoly()) == "0"
    assert format_poly(P((3, 4, 5))) == "+P_{345}"
    assert format_poly(M([(1, 2)], -3)) == "-3P_{12}"
    assert format_poly(PluckerPoly({(): 1})) == "+1"
    assert index_label((2, 11)) == "2,11"


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(2)
    pt = random_matrix_point(4, 6, DEFAULT_PRIME, rng)
    polys = []
    for _ in range(6):
        poly = PluckerPoly()
        for _ in range(3):
            idx = tuple(sorted(rng.sample(range(1, 7), rng.choice((2, 4)))))
            poly = poly + M([idx], rng.randint(-5, 5))
        polys.append(poly)
    p = DEFAULT_PRIME
    for f, g in itertools.combinations(polys, 2):
        assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % p
        assert (f * g).evaluate(pt) == (f.evaluate(pt) * g.evaluate(pt)) % p


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
        pt = random_matrix_point(4, n, DEFAULT_PRIME, rng)
        for rel in cases:
            assert rel.evaluate(pt) == 0


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
    assert interval_minor_to_plucker(1, 3, 6) == P((4, 5, 6))
    assert interval_minor_to_plucker(2, 2, 5) == P((1, 5))


def test_two_interval_lift_exact_polynomials():
    assert laplace_initial_minor(1, 2, 4, 4, 5) == (
        M([(1, 2, 3, 5), (3, 4)]) - M([(1, 2, 3, 4), (3, 5)])
    )
    assert laplace_initial_minor(1, 2, 4, 4, 6) == (
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
            pt = random_unipotent_point((d,), n, DEFAULT_PRIME, rng)
            for i in range(1, d + 1):
                lift = interval_minor_to_plucker(i, d, n)
                rows = tuple(range(i, d + 1))
                assert lift.evaluate(pt) == pattern_minor(pt, rows)
    for n in range(4, 8):
        for d1, d2 in itertools.combinations(range(1, n), 2):
            for trial in range(3):
                pt = random_unipotent_point((d1, d2), n, DEFAULT_PRIME, rng)
                for i1 in range(1, d1 + 1):
                    for i2 in range(d1 + 1, d2 + 1):
                        lift = laplace_initial_minor(i1, d1, i2, d2, n)
                        rows = tuple(range(i1, d1 + 1)) + tuple(range(i2, d2 + 1))
                        assert lift.evaluate(pt) == pattern_minor(pt, rows)


def test_two_interval_lift_leading_coefficient():
    for n in range(4, 8):
        for d1, d2 in itertools.combinations(range(1, n), 2):
            for i1 in range(1, d1 + 1):
                for i2 in range(d1 + 1, d2 + 1):
                    lift = laplace_initial_minor(i1, d1, i2, d2, n)
                    lead = initial_tableau(i1, d1, i2, d2, n)
                    assert lift.coefficient(lead.columns()) == 1
                    if d2 < n and i2 > d1 + 1:
                        # bi-homogeneous: every term one size-d1 and one
                        # size-d2 coordinate
                        for mono in lift.terms:
                            assert sorted(len(i) for i in mono) == [d1, d2]
                    elif i2 == d1 + 1 and d2 < n:
                        assert lift == interval_minor_to_plucker(i1, d2, n)


def test_two_interval_collapse_at_full_height():
    # d2 = n: the second factor is the full determinant, degree drops to one
    lift = laplace_initial_minor(1, 2, 4, 5, 5)
    assert len(lift.terms) == 1
    mono = next(iter(lift.terms))
    assert len(mono) == 1 and len(mono[0]) == 2


# -- evaluation points -----------------------------------------------------------------


def test_plucker_of_prefix_is_one_on_unipotent_points():
    rng = random.Random(5)
    pt = random_unipotent_point((2, 4), 6, DEFAULT_PRIME, rng)
    for d in (1, 2, 3, 4, 6):
        assert pt.plucker(tuple(range(1, d + 1))) == 1


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
    assert a.matrix == b.matrix
    assert EvaluationPoint([[1, 0], [0, 1]], 7).plucker((1, 2)) == 1


def test_evaluation_point_bounds():
    pt = EvaluationPoint([[1, 2, 3], [0, 1, 4]], 7)
    with pytest.raises(PluckerError):
        pt.plucker((1, 2, 3))       # more rows than the matrix has
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


def test_sh_bracket_matches_complementary_minor():
    """The bracket coordinate evaluates to the signed complementary minor:
    on 2x n points, <ij> times the bracket of the complement reproduces the
    determinant expansion sign."""
    rng = random.Random(3)
    n = 6
    pt = random_matrix_point(n - 2, n, DEFAULT_PRIME, rng)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        comp = tuple(x for x in range(1, n + 1) if x not in (i, j))
        expect = ((-1) ** (i + j - 1)) * pt.plucker(comp) % DEFAULT_PRIME
        assert sh_coordinate(n, "bracket", i, j).evaluate(pt) == expect
