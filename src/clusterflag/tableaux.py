"""Semistandard Young tableaux under the row-wise union monoid.

Tableaux here are the bookkeeping devices for cluster variables: each
one-column tableau names a Plucker coordinate, a multi-column tableau names
the leading standard monomial of a product.  The operations implemented are
the ones the mutation machinery needs:

* ``union``: row-wise multiset merge (the monoid product),
* ``quotient``: row-wise multiset difference (partial inverse),
* ``reduce``: strip prefix columns {1,...,p}, which act trivially on the
  unipotent patch, giving class representatives,
* ``dominance_compare``: the order used to pick the leading exchange term,
* ``tableau_mutation``: the combinatorial shadow of a cluster mutation.

Entries are positive integers; rows are weakly increasing, columns strictly
increasing, row lengths weakly decreasing.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable, Sequence


class TableauError(ValueError):
    pass


class Tableau:
    """Immutable semistandard Young tableau stored as a tuple of rows."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        norm = tuple(tuple(r) for r in rows)
        # drop trailing empty rows so the empty tableau has one canonical form
        while norm and not norm[-1]:
            norm = norm[:-1]
        _validate_rows(norm)
        object.__setattr__(self, "rows", norm)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows if len(row) > j)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.width)]

    def max_entry(self) -> int:
        return max((row[-1] for row in self.rows), default=0)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Tableau(%s)" % (list(map(list, self.rows)),)

    def __str__(self):
        if not self.rows:
            return "[]"
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.rows) + "]"


def _validate_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    for i, row in enumerate(rows):
        if not row and i + 1 < len(rows) and rows[i + 1]:
            raise TableauError("empty row above a nonempty row")
        for x in row:
            if not isinstance(x, int) or x < 1:
                raise TableauError("entries must be positive integers, got %r" % (x,))
        for a, b in zip(row, row[1:]):
            if a > b:
                raise TableauError("row not weakly increasing: %s" % (row,))
        if i > 0 and len(rows[i - 1]) < len(row):
            raise TableauError("row lengths must weakly decrease top to bottom")
        if i > 0:
            above = rows[i - 1]
            for j, x in enumerate(row):
                if above[j] >= x:
                    raise TableauError(
                        "column %d not strictly increasing: %d then %d" % (j, above[j], x)
                    )


def from_columns(cols: Iterable[Sequence[int]]) -> Tableau:
    """Build the tableau whose column multiset is ``cols`` (the union of
    the corresponding one-column tableaux)."""
    return union(*(Tableau([[x] for x in col]) for col in cols))


def one_column(entries: Sequence[int]) -> Tableau:
    return Tableau([[x] for x in entries])


EMPTY = Tableau([])


# -- monoid operations ---------------------------------------------------


def union(*tableaux: Tableau) -> Tableau:
    """Row-wise multiset union; commutative, associative, unit ``EMPTY``."""
    depth = max((t.num_rows for t in tableaux), default=0)
    rows: list[list[int]] = [[] for _ in range(depth)]
    for t in tableaux:
        for i, row in enumerate(t.rows):
            for x in row:
                insort(rows[i], x)
    return Tableau(rows)


def quotient(t: Tableau, s: Tableau) -> Tableau:
    """The tableau ``r`` with ``union(r, s) == t``; raises if none exists."""
    if s.num_rows > t.num_rows:
        raise TableauError("quotient: divisor has more rows")
    rows = []
    for i, row in enumerate(t.rows):
        remaining = list(row)
        if i < s.num_rows:
            for x in s.rows[i]:
                try:
                    remaining.remove(x)
                except ValueError:
                    raise TableauError(
                        "quotient: entry %d missing in row %d" % (x, i + 1)
                    ) from None
        rows.append(remaining)
    try:
        return Tableau(rows)
    except TableauError as exc:
        raise TableauError("quotient: result is not semistandard (%s)" % exc) from None


def is_factor(s: Tableau, t: Tableau) -> bool:
    try:
        quotient(t, s)
    except TableauError:
        return False
    return True


def trivial_column(p: int) -> Tableau:
    """The one-column tableau 1,2,...,p (acts as 1 on the unipotent patch)."""
    return one_column(range(1, p + 1))


def reduce(t: Tableau) -> Tableau:
    """Strip prefix-column factors {1..p} until none remains.

    Tallest columns are tried first; the result is the canonical class
    representative.
    """
    changed = True
    while changed:
        changed = False
        for p in range(t.num_rows, 0, -1):
            triv = trivial_column(p)
            while is_factor(triv, t):
                t = quotient(t, triv)
                changed = True
    return t


# -- dominance order -----------------------------------------------------


def dominance_compare(s: Tableau, t: Tableau) -> str:
    """Compare same-shape tableaux; one of 'equal', 'less', 'greater',
    'incomparable'.  'less' means s <= t: for every i, the shape of the
    entries <= i of s is dominated by that of t."""
    if s.shape != t.shape:
        raise TableauError("dominance_compare requires equal shapes")
    le = ge = True
    top = max(s.max_entry(), t.max_entry())
    for i in range(1, top + 1):
        # prefix sums of the shapes of the sub-tableaux of entries <= i
        a = b = 0
        for row_s, row_t in zip(s.rows, t.rows):
            a += bisect_right(row_s, i)
            b += bisect_right(row_t, i)
            if a > b:
                le = False
            elif b > a:
                ge = False
        if not le and not ge:
            return "incomparable"
    if le and ge:
        return "equal"
    return "less" if le else "greater"


# -- embeddings and seed tableaux -----------------------------------------


def fill_up(t: Tableau, dims: Sequence[int], n: int) -> Tableau:
    """Pad every column to height max(dims) with fresh large entries.

    A column of height d picks up the entries n+1, ..., n+max(dims)-d.  Only
    columns whose height is one of ``dims`` are allowed; this is the tableau
    side of the coordinate embedding of the flag variety into the big
    Grassmannian.
    """
    dk = max(dims)
    cols = []
    for col in t.columns():
        d = len(col)
        if d not in dims:
            raise TableauError("column height %d is not one of %s" % (d, tuple(dims)))
        if col[-1] > n:
            raise TableauError("entry %d exceeds ambient size %d" % (col[-1], n))
        cols.append(tuple(col) + tuple(range(n + 1, n + 1 + dk - d)))
    return from_columns(cols)


def interval_index_set(i: int, d: int, n: int) -> tuple[int, ...]:
    """Index set [1, i-1] u [n-d+i, n]: the coordinate of a solid minor whose
    row interval ends at level d."""
    if not (1 <= i <= d <= n):
        raise TableauError("need 1 <= i <= d <= n")
    return tuple(range(1, i)) + tuple(range(n - d + i, n + 1))


def initial_tableau(i1: int, d1: int, i2: int, d2: int, n: int) -> Tableau:
    """Leading tableau of the seed variable attached to the index set
    [i1, d1] u [i2, d2] (d2 may be n, in which case the variable is a single
    Plucker coordinate and the tableau has one column).

    For d2 < n the tableau has two columns
        col1 = [1, i2-1] u [n-d2+i2, n]              (height d2)
        col2 = [1, i1-1] u [n-d2-d1+i2+i1-1, n-d2+i2-1]  (height d1)
    """
    if not (1 <= i1 <= d1 < i2 <= d2 <= n):
        raise TableauError("need 1 <= i1 <= d1 < i2 <= d2 <= n")
    if d2 == n:
        # the expansion collapses to one surviving Plucker coordinate
        col = tuple(range(1, i1)) + tuple(range(i2 - d1 + i1 - 1, i2))
        return one_column(col)
    if i2 == d1 + 1:
        # adjacent intervals merge into the single interval [i1, d2]
        return one_column(interval_index_set(i1, d2, n))
    col1 = tuple(range(1, i2)) + tuple(range(n - d2 + i2, n + 1))
    col2 = tuple(range(1, i1)) + tuple(range(n - d2 - d1 + i2 + i1 - 1, n - d2 + i2))
    return from_columns([col1, col2])


# -- mutation -------------------------------------------------------------


def _pad_to_matching_shape(a: Tableau, b: Tableau) -> tuple[Tableau, Tableau]:
    """Union trivial prefix columns into a and b until their column-height
    multisets agree, so that dominance comparison applies."""
    from collections import Counter

    ca = Counter(len(col) for col in a.columns())
    cb = Counter(len(col) for col in b.columns())
    pads_a = []
    pads_b = []
    for p in set(ca) | set(cb):
        diff = ca[p] - cb[p]
        if diff > 0:
            pads_b.extend([trivial_column(p)] * diff)
        elif diff < 0:
            pads_a.extend([trivial_column(p)] * (-diff))
    return union(a, *pads_a), union(b, *pads_b)


def tableau_mutation(t_r: Tableau, incoming: Sequence[Tableau], outgoing: Sequence[Tableau]) -> Tableau:
    """New tableau after mutating at a vertex carrying ``t_r``.

    The unions of the incoming and outgoing neighbor tableaux are made
    shape-comparable by trivial padding; the dominance-larger union is the
    leading term of the exchange, and dividing by ``t_r`` (then reducing)
    yields the new tableau.
    """
    u_in = union(*incoming)
    u_out = union(*outgoing)
    a, b = _pad_to_matching_shape(u_in, u_out)
    cmp = dominance_compare(a, b)
    if cmp == "incomparable":
        raise TableauError(
            "exchange unions are dominance-incomparable: %s vs %s" % (a, b)
        )
    top = b if cmp == "less" else a
    if not is_factor(t_r, top):
        # the mutated tableau may be a class representative; pad with the
        # trivial columns needed to divide
        padded = union(top, *(trivial_column(len(c)) for c in t_r.columns()))
        if not is_factor(t_r, padded):
            raise TableauError("mutation: %s does not divide leading union %s" % (t_r, top))
        top = padded
    return reduce(quotient(top, t_r))

