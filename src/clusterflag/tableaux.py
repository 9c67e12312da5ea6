"""Semistandard Young tableaux under the row-wise union monoid.

Tableaux here are the bookkeeping devices for cluster variables: each
one-column tableau names a Plucker coordinate, a multi-column tableau names
the leading standard monomial of a product.  The operations implemented are
the ones the mutation machinery needs:

* ``union``: row-wise multiset merge (the monoid product),
* ``quotient``: row-wise multiset difference (partial inverse),
* ``dominance_compare``: the order used to pick the leading exchange term,
* ``tableau_mutation``: the combinatorial shadow of a cluster mutation,
* ``pad_index`` and ``fill_up``: the padding of phi-star.

The leading tableaux of the seed's face lifts are built in ``flags``.

Entries are positive integers; rows are weakly increasing, columns strictly
increasing, row lengths weakly decreasing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence


class TableauError(ValueError):
    pass


class UnbalancedExchange(TableauError):
    """Tableaux compared for dominance differ in shape.  When they are the
    unions of an exchange's in- and out-tableaux, the exchange is not
    weight-balanced."""

    def __init__(self, u_in: Tableau, u_out: Tableau):
        super().__init__("exchange unions differ in shape: %s vs %s" % (u_in.shape, u_out.shape))
        self.unions = (u_in, u_out)


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

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau over ``rows`` known to be semistandard, with no trailing
        empty row; nothing is checked."""
        t = cls.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

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
    return union(*map(one_column, cols))


def one_column(entries: Iterable[int]) -> Tableau:
    """The one-column tableau on ``entries``, checked in one pass for
    strictly increasing positive ints; the constructor raises on the rest."""
    col = tuple(entries)
    if all(isinstance(x, int) and x > last for last, x in zip((0,) + col, col)):
        return Tableau._of(tuple((x,) for x in col))
    return Tableau([[x] for x in col])


# -- monoid operations ---------------------------------------------------


def union(*tableaux: Tableau) -> Tableau:
    """Row-wise multiset union; commutative, associative, unit the empty tableau.

    A union of semistandard tableaux is semistandard, so it is built
    unchecked.  In each summand, every entry of row i+1 has its own entry
    directly above it, and that entry is smaller.  So merged row i+1 maps
    one-to-one into merged row i, each entry to a smaller one: row lengths
    still weakly decrease, and the j smallest entries of row i+1 map to j
    distinct entries of row i, all less than the j-th smallest of row i+1.
    After sorting, the j-th entry of row i is therefore less than the j-th
    of row i+1.  No row is empty, since the deepest summand's last row is
    not."""
    depth = max((t.num_rows for t in tableaux), default=0)
    rows: list[list[int]] = [[] for _ in range(depth)]
    for t in tableaux:
        for i, row in enumerate(t.rows):
            rows[i] += row
    return Tableau._of(tuple(tuple(sorted(row)) for row in rows))


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


# -- dominance order -----------------------------------------------------


def dominance_compare(s: Tableau, t: Tableau) -> str:
    """Compare same-shape tableaux; one of 'equal', 'less', 'greater',
    'incomparable'.  'less' means s <= t: for every i, the shape of the
    entries <= i of s is dominated by that of t.  The restricted shapes
    change only at entries of s or t, so only those i are tried.  Unequal
    shapes raise ``UnbalancedExchange``."""
    if s.shape != t.shape:
        raise UnbalancedExchange(s, t)
    le = ge = True
    for i in sorted({x for row in s.rows + t.rows for x in row}):
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


# -- embeddings -----------------------------------------------------------


def pad_index(idx: Sequence[int], dims: Sequence[int], n: int) -> tuple[int, ...]:
    """Pad an increasing index set of size d, one of ``dims``, with the fresh
    entries n+1, ..., n+max(dims)-d: the coordinate embedding of the flag
    variety into the big Grassmannian (phi-star)."""
    idx = tuple(idx)
    if len(idx) not in dims:
        raise TableauError("index size %d is not one of %s" % (len(idx), tuple(dims)))
    if idx and idx[-1] > n:
        raise TableauError("index %s exceeds ambient size %d" % (idx, n))
    return idx + tuple(range(n + 1, n + 1 + max(dims) - len(idx)))


def fill_up(t: Tableau, dims: Sequence[int], n: int) -> Tableau:
    """Pad every column to height max(dims) by ``pad_index``: the tableau
    side of phi-star.  A tableau that padding leaves as it was is returned
    itself."""
    padded = from_columns([pad_index(c, dims, n) for c in t.columns()])
    return t if padded == t else padded


# -- mutation -------------------------------------------------------------


def tableau_mutation(t_r: Tableau, incoming: Sequence[Tableau], outgoing: Sequence[Tableau]) -> Tableau:
    """New tableau after mutating at a vertex carrying ``t_r``.

    Every tableau is the exact leading tableau of its variable, so the
    unions of the incoming and outgoing neighbor tableaux have the same
    shape exactly when the exchange is weight-balanced; ``dominance_compare``
    raises ``UnbalancedExchange`` when they do not.  The dominance-larger
    union is the leading term of the exchange, and dividing it by ``t_r``
    yields the new tableau.
    """
    u_in = union(*incoming)
    u_out = union(*outgoing)
    cmp = dominance_compare(u_in, u_out)
    if cmp == "incomparable":
        raise TableauError(
            "exchange unions are dominance-incomparable: %s vs %s" % (u_in, u_out)
        )
    top = u_out if cmp == "less" else u_in
    return quotient(top, t_r)
