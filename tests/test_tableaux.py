"""Tableau monoid, dominance order, embeddings, and mutation rule."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterflag.tableaux import (
    Tableau,
    TableauError,
    UnbalancedExchange,
    _validate_rows,
    dominance_compare,
    fill_up,
    pad_index,
    from_columns,
    one_column,
    quotient,
    tableau_mutation,
    union,
)

from support import brute_dominance, check_semistandard, random_tableau, two_row_tableaux

EMPTY = Tableau([])


def cols_strategy(max_n=7, max_cols=4, max_h=4):
    column = st.lists(
        st.integers(1, max_n), min_size=1, max_size=max_h, unique=True
    ).map(sorted)
    return st.lists(column, max_size=max_cols)


@st.composite
def tableaux(draw, max_rows=4, max_len=4):
    """A semistandard tableau built entry by entry: each entry is at
    least its left neighbour and above its upper neighbour."""
    lengths = sorted(draw(st.lists(st.integers(1, max_len), max_size=max_rows)), reverse=True)
    rows: list[list[int]] = []
    for i, length in enumerate(lengths):
        row: list[int] = []
        for j in range(length):
            least = max(row[-1] if row else 1, rows[i - 1][j] + 1 if i else 1)
            row.append(least + draw(st.integers(0, 2)))
        rows.append(row)
    return Tableau(rows)


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
    assert quotient(t, s) == Tableau([[2], [4]])
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


@given(st.lists(tableaux(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_union_is_semistandard_without_validation(ts):
    # union builds its result unchecked; the merged rows must pass the
    # validating constructor
    u = union(*ts)
    _validate_rows(u.rows)
    depth = max((t.num_rows for t in ts), default=0)
    rows = [sorted(x for t in ts if i < t.num_rows for x in t.rows[i]) for i in range(depth)]
    assert u == Tableau(rows)


@given(
    st.one_of(
        st.lists(st.integers(1, 12), max_size=6, unique=True).map(sorted),
        st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.just(2.0), st.just("3")),
                 max_size=5),
    )
)
@settings(max_examples=300, deadline=None)
def test_one_column_agrees_with_validating_constructor(entries):
    # one_column checks a column in one pass and builds it unchecked; on
    # every column it must equal the constructor, and on every bad column
    # raise the constructor's error with the same text
    try:
        expected = Tableau([[e] for e in entries])
    except TableauError as exc:
        with pytest.raises(type(exc)) as raised:
            one_column(entries)
        assert str(raised.value) == str(exc)
        return
    got = one_column(iter(entries))
    assert got == expected and got.rows == expected.rows


# -- dominance -----------------------------------------------------------------


def test_dominance_basics():
    t = Tableau([[1, 3], [2, 4]])
    assert dominance_compare(t, t) == "equal"
    # smaller entries dominate: column 12 sits above column 13
    assert dominance_compare(one_column([1, 3]), one_column([1, 2])) == "less"
    assert dominance_compare(one_column([1, 2]), one_column([1, 3])) == "greater"
    with pytest.raises(TableauError):
        dominance_compare(one_column([1]), one_column([1, 2]))


def test_dominance_on_huge_entries_matches_relabelled_brute_force():
    """Entries near 10**30 compare as their order-preserving relabelling
    1, 2, ... does under the restriction-by-restriction oracle, and as fast:
    only the entries present are tried."""
    big = sorted(random.Random(41).sample(range(10**30, 10**30 + 10**6), 5))
    by_shape = {}
    for t in two_row_tableaux(5, 2):
        by_shape.setdefault(t.shape, []).append(t)
    checked = 0
    for group in by_shape.values():
        for s, t in itertools.product(group, repeat=2):
            huge_s, huge_t = (Tableau([[big[x - 1] for x in row] for row in u.rows]) for u in (s, t))
            assert dominance_compare(huge_s, huge_t) == brute_dominance(s, t), (s, t)
            checked += 1
    assert checked > 1000


# -- fill_up --------------------------------------------------------------------


def test_fill_up_examples():
    assert fill_up(one_column([1, 3]), (2, 4), 6) == from_columns([(1, 3, 7, 8)])
    assert fill_up(one_column([1, 2, 3, 4]), (2, 4), 6) == one_column([1, 2, 3, 4])
    with pytest.raises(TableauError):
        fill_up(one_column([1, 2, 3]), (2, 4), 6)   # height 3 not a flag dim
    with pytest.raises(TableauError):
        fill_up(one_column([1, 7]), (2, 4), 6)      # entry beyond ambient


def test_pad_index():
    assert pad_index((1, 3), (2, 4), 6) == (1, 3, 7, 8)
    assert pad_index([2, 3, 5], (1, 3, 5), 6) == (2, 3, 5, 7, 8)
    assert pad_index((1, 2, 3, 4), (2, 4), 6) == (1, 2, 3, 4)
    with pytest.raises(TableauError, match="size 3 is not one of"):
        pad_index((1, 2, 3), (2, 4), 6)
    with pytest.raises(TableauError, match="exceeds ambient size 6"):
        pad_index((1, 7), (2, 4), 6)


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
            assert max(row[-1] for row in u.rows) <= 8 + max(dims) - min(dims)


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
    # unions of different shapes: the exchange is not weight-balanced
    with pytest.raises(UnbalancedExchange, match=r"differ in shape: \(2, 2\) vs \(3, 3\)") as info:
        tableau_mutation(
            one_column([2, 3]),
            [one_column([1, 3]), one_column([2, 4])],
            [one_column([1, 2]), one_column([3, 4]), one_column([1, 2])],
        )
    assert info.value.unions == (
        from_columns([[1, 3], [2, 4]]), from_columns([[1, 2], [3, 4], [1, 2]])
    )


def test_tableau_mutation_non_factor_error():
    with pytest.raises(TableauError):
        tableau_mutation(
            one_column([5, 6]),
            [one_column([1, 2])],
            [one_column([1, 3])],
        )

