"""Tableau monoid, dominance order, embeddings, and mutation rule."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterflag.tableaux import (
    EMPTY,
    Tableau,
    TableauError,
    dominance_compare,
    fill_up,
    from_columns,
    initial_tableau,
    interval_index_set,
    is_factor,
    one_column,
    quotient,
    reduce,
    tableau_mutation,
    trivial_column,
    union,
)

from support import (
    brute_dominance,
    check_semistandard,
    random_tableau,
    two_row_tableaux,
)


def cols_strategy(max_n=7, max_cols=4, max_h=4):
    column = st.lists(
        st.integers(1, max_n), min_size=1, max_size=max_h, unique=True
    ).map(sorted)
    return st.lists(column, max_size=max_cols)


# -- construction and canonical form ----------------------------------------


def test_rows_canonicalized():
    t = Tableau([[1, 2], [3], []])
    assert t.rows == ((1, 2), (3,))
    assert t.shape == (2, 1)
    assert t.columns() == [(1, 3), (2,)]


def test_validation_rejects_bad_rows():
    with pytest.raises(TableauError):
        Tableau([[2, 1]])
    with pytest.raises(TableauError):
        Tableau([[1], [1]])          # column not strictly increasing
    with pytest.raises(TableauError):
        Tableau([[1], [2, 3]])       # lengths must weakly decrease
    with pytest.raises(TableauError):
        Tableau([[0]])


def test_immutability():
    t = one_column([1, 2])
    with pytest.raises(AttributeError):
        t.rows = ()


# -- union / quotient --------------------------------------------------------


def test_union_worked_examples():
    a = Tableau([[1], [4], [6]])
    b = Tableau([[2], [3]])
    assert union(a, b) == Tableau([[1, 2], [3, 4], [6]])
    t = Tableau([[1, 3], [2, 4]])
    assert union(t, EMPTY) == t
    assert union(Tableau([[1, 2], [3]]), Tableau([[1], [2]])) == Tableau(
        [[1, 1, 2], [2, 3]]
    )


def test_union_monoid_bulk():
    # 10^4 random pairs: result well-formed, commutative, associative
    rng = random.Random(20260814)
    for _ in range(10_000):
        a = random_tableau(rng)
        b = random_tableau(rng)
        u = union(a, b)
        assert check_semistandard(u.rows)
        assert u == union(b, a)
    for _ in range(500):
        a, b, c = (random_tableau(rng) for _ in range(3))
        assert union(union(a, b), c) == union(a, union(b, c))


def test_quotient_worked_examples():
    s = Tableau([[1], [3]])
    t = Tableau([[1, 2], [3, 4]])
    assert is_factor(s, t)
    assert quotient(t, s) == Tableau([[2], [4]])
    assert not is_factor(Tableau([[5]]), Tableau([[1, 2], [3]]))
    assert quotient(t, t) == EMPTY
    with pytest.raises(TableauError):
        quotient(Tableau([[1, 2], [3]]), Tableau([[5]]))


def test_quotient_cancels_union():
    rng = random.Random(7)
    for _ in range(2000):
        s = random_tableau(rng)
        t = random_tableau(rng)
        u = union(s, t)
        assert quotient(u, s) == t


@given(cols_strategy(), cols_strategy())
@settings(max_examples=150, deadline=None)
def test_union_quotient_property(cols_a, cols_b):
    a = from_columns(cols_a)
    b = from_columns(cols_b)
    u = union(a, b)
    assert check_semistandard(u.rows)
    assert quotient(u, a) == b
    assert quotient(u, b) == a


# -- reduce / equivalence -----------------------------------------------------


def test_reduce_examples():
    t = Tableau([[1, 1], [2, 5], [3], [6]])
    assert reduce(t) == t            # {1,2,3,6} is not a prefix column
    assert reduce(Tableau([[1, 1], [2, 3]])) == Tableau([[1], [3]])
    assert reduce(trivial_column(4)) == EMPTY
    assert reduce(union(trivial_column(2), trivial_column(3))) == EMPTY


def test_reduce_idempotent_and_equivalence_relation():
    rng = random.Random(11)
    tabs = [random_tableau(rng) for _ in range(500)]
    for t in tabs:
        r = reduce(t)
        assert reduce(r) == r
        # padding by trivial columns never changes the class
        assert reduce(union(t, trivial_column(rng.randint(1, 4)))) == r
        # and stripping them leaves a factor of the original
        assert is_factor(r, t)


# -- dominance -----------------------------------------------------------------


def test_dominance_basics():
    t = Tableau([[1, 3], [2, 4]])
    assert dominance_compare(t, t) == "equal"
    # smaller entries dominate: column 12 sits above column 13
    assert dominance_compare(one_column([1, 3]), one_column([1, 2])) == "less"
    assert dominance_compare(one_column([1, 2]), one_column([1, 3])) == "greater"
    with pytest.raises(TableauError):
        dominance_compare(one_column([1]), one_column([1, 2]))


def test_dominance_exhaustive_small():
    """Every same-shape pair of 2-row tableaux over [5] (width <= 3) agrees
    with an independent prefix-sum comparison; the order is antisymmetric
    and transitive on each shape class."""
    tabs = two_row_tableaux(5, 3)
    by_shape = {}
    for t in tabs:
        by_shape.setdefault(t.shape, []).append(t)
    seen = 0
    for shape, group in by_shape.items():
        up = {}
        for s, t in itertools.product(group, repeat=2):
            cmp = dominance_compare(s, t)
            assert cmp == brute_dominance(s, t)
            if cmp == "equal":
                assert s == t      # antisymmetry (canonical forms)
            if cmp in ("less", "equal"):
                up.setdefault(s, set()).add(t)
            seen += 1
        # transitivity over the full relation graph
        for s, above in up.items():
            for t in above:
                assert up[t] <= above
    assert seen > 50_000


# -- fill_up --------------------------------------------------------------------


def test_fill_up_examples():
    assert fill_up(one_column([1, 3]), (2, 4), 6) == from_columns([(1, 3, 7, 8)])
    assert fill_up(one_column([1, 2, 3, 4]), (2, 4), 6) == one_column([1, 2, 3, 4])
    with pytest.raises(TableauError):
        fill_up(one_column([1, 2, 3]), (2, 4), 6)   # height 3 not a flag dim
    with pytest.raises(TableauError):
        fill_up(one_column([1, 7]), (2, 4), 6)      # entry beyond ambient


def test_fill_up_shape_and_commutation():
    rng = random.Random(3)
    dims = (2, 3, 5)
    for _ in range(400):
        cols = [
            sorted(rng.sample(range(1, 9), rng.choice(dims)))
            for _ in range(rng.randint(0, 4))
        ]
        a = from_columns(cols[: len(cols) // 2])
        b = from_columns(cols[len(cols) // 2 :])
        fa, fb = fill_up(a, dims, 8), fill_up(b, dims, 8)
        u = fill_up(union(a, b), dims, 8)
        assert u == union(fa, fb)
        if u != EMPTY:
            assert u.num_rows == max(dims)
            assert check_semistandard(u.rows)
            assert u.max_entry() <= 8 + max(dims) - min(dims)


# -- initial tableaux -------------------------------------------------------------


def test_interval_index_set():
    assert interval_index_set(1, 3, 6) == (4, 5, 6)
    assert interval_index_set(2, 2, 5) == (1, 5)
    assert interval_index_set(3, 3, 3) == (1, 2, 3)
    with pytest.raises(TableauError):
        interval_index_set(4, 3, 6)


def test_initial_tableau_examples():
    assert initial_tableau(1, 2, 4, 4, 5) == Tableau([[1, 3], [2, 4], [3], [5]])
    assert initial_tableau(1, 2, 4, 4, 6) == Tableau([[1, 4], [2, 5], [3], [6]])
    # adjacent intervals merge into one interval column
    assert initial_tableau(1, 2, 3, 4, 6) == one_column(interval_index_set(1, 4, 6))
    assert initial_tableau(2, 2, 3, 4, 6) == one_column(interval_index_set(2, 4, 6))
    with pytest.raises(TableauError):
        initial_tableau(3, 2, 4, 4, 6)


def test_initial_tableau_column_structure():
    for n in range(5, 9):
        for d1 in range(1, n):
            for d2 in range(d1 + 1, n):
                for i1 in range(1, d1 + 1):
                    for i2 in range(d1 + 2, d2 + 1):  # skip the merged case
                        t = initial_tableau(i1, d1, i2, d2, n)
                        assert t.shape.count(2) == d1
                        assert t.num_rows == d2
                        assert check_semistandard(t.rows)


# -- mutation rule ----------------------------------------------------------------


def test_tableau_mutation_square_example():
    # the one mutable vertex of the 2x2 grid: 13 -> 24
    t_r = one_column([1, 3])
    inc = [one_column([1, 2]), one_column([3, 4])]
    out = [one_column([1, 4]), one_column([2, 3])]
    t_new = tableau_mutation(t_r, inc, out)
    assert t_new == one_column([2, 4])
    assert tableau_mutation(t_new, inc, out) == t_r


def test_tableau_mutation_incomparable_error():
    # restrictions cross: at level 1 the first union is strictly larger,
    # at level 3 strictly smaller
    assert dominance_compare(one_column([1, 4, 5]), one_column([2, 3, 4])) == "incomparable"
    with pytest.raises(TableauError, match="incomparable"):
        tableau_mutation(
            one_column([1, 2, 3]),
            [one_column([1, 4, 5])],
            [one_column([2, 3, 4])],
        )


def test_tableau_mutation_non_factor_error():
    with pytest.raises(TableauError):
        tableau_mutation(
            one_column([5, 6]),
            [one_column([1, 2])],
            [one_column([1, 3])],
        )

