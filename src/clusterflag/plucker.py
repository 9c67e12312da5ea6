r"""Exact arithmetic in Plucker coordinates and the numeric evaluation oracle.

Variables are Plucker coordinates P_I indexed by strictly increasing tuples.
Polynomials are sparse integer combinations of monomials (multisets of index
tuples).  Identity testing is randomized: evaluate both sides on random
matrices over F_p (p a large prime) with P_I read off as the minor on the
top |I| rows and the columns I.

A point is the reduction of its top m rows, made once (``reduce_rows``):
those rows A become the reduced row echelon form R = G^-1 A with pivot
columns J, and every coordinate of size m follows as P_I(A) = P_J(A) *
P_I(R), where P_J(A) = det G and P_I(R) is +- a minor of R of size
|I \ J|.

Minors of R are condensed over F_p (Desnanot-Jacobi; Dodgson, Proc. R.
Soc. 1866): M(r, c) M(r[1:-1], c[1:-1]) = M(r[:-1], c[:-1]) M(r[1:], c[1:])
- M(r[:-1], c[1:]) M(r[1:], c[:-1]).  An ``EvaluationPlan`` holds the index
sets of a family of polynomials (for the certifier: the grid dictionary of
a target when it draws its points, or the lifts one type samples) and
compiles them once into a straight-line program: slot-indexed nodes,
grouped by size, for the generic pivots J = {1, ..., m}.
``plan.run(echelon, p)`` runs it at one reduction, with one batched
inversion per size (Montgomery, Math. Comp. 1987), and returns the values
of the plan's index sets of that size, which ``PluckerPoly.evaluate``
reads.  Two fallbacks keep every value exact: a reduction with other
pivots or dependent rows gets a program compiled for its own pivots, and
a node whose interior minor is 0 mod p is computed by ``det_mod``.  An
isolated minor of size 10 shares no windows and is about 6 times slower
than elimination; the certifier evaluates none.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .tableaux import TableauError, initial_tableau, interval_index_set, pad_index


class PluckerError(ValueError):
    pass


def normalize_index(seq: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, tracking the sign of the permutation.

    Returns (0, ()) when an index repeats, else (+-1, sorted tuple).
    """
    items = list(seq)
    if len(set(items)) != len(items):
        return 0, ()
    sign = 1
    # insertion sort, counting inversions; index tuples are short
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(items)


class PluckerPoly:
    """Sparse integer polynomial in Plucker coordinates: ``terms`` maps each
    monomial, a sorted tuple of increasing index tuples, to its nonzero
    coefficient."""

    __slots__ = ("terms",)

    # -- constructors ------------------------------------------------------

    def __init__(self, terms: Mapping[Sequence, int] | Iterable[tuple[Sequence, int]] = ()):
        """The sum of coeff * prod P_I over ``terms``, a mapping or an
        iterable of (monomial, coeff) pairs.  Each index I is sorted with its
        sign, and a repeated index drops the term; then each monomial is
        sorted, equal monomials are summed and zeros dropped."""
        self.terms = acc = {}
        for mono, coeff in terms.items() if hasattr(terms, "items") else terms:
            key = []
            for idx in mono:
                sign, idx = normalize_index(idx)
                coeff *= sign
                key.append(idx)
            if coeff:
                key = tuple(sorted(key))
                new = acc.get(key, 0) + coeff
                if new:
                    acc[key] = new
                else:
                    del acc[key]

    @classmethod
    def variable(cls, index: Sequence[int]) -> "PluckerPoly":
        return cls.monomial([index])

    @classmethod
    def monomial(cls, indices: Iterable[Sequence[int]], coeff: int = 1) -> "PluckerPoly":
        """coeff * prod P_I, each I sorted with its sign (0 on a repeat)."""
        return cls([(indices, coeff)])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PluckerPoly") -> "PluckerPoly":
        return PluckerPoly([*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "PluckerPoly":
        return self * -1

    def __sub__(self, other: "PluckerPoly") -> "PluckerPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return PluckerPoly((m, c * other) for m, c in self.terms.items())
        return PluckerPoly(
            (m1 + m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PluckerPoly) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Iterable[Sequence[int]]) -> int:
        key = tuple(sorted(tuple(i) for i in mono))
        return self.terms.get(key, 0)

    def __repr__(self):
        return "PluckerPoly(%s)" % format_poly(self)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values: Mapping[tuple[int, ...], int], p: int) -> int:
        """The value mod p, with ``values[I]`` for each P_I (``EvaluationPlan.run``)."""
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff % p
            for idx in mono:
                val = (val * values[idx]) % p
            total = (total + val) % p
        return total


def index_label(idx: Sequence[int]) -> str:
    if all(i <= 9 for i in idx):
        return "".join(str(i) for i in idx)
    return ",".join(str(i) for i in idx)


def format_poly(poly: PluckerPoly) -> str:
    if poly.is_zero():
        return "0"
    chunks = []
    for mono, coeff in sorted(poly.terms.items()):
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        body = "".join("P_{%s}" % index_label(i) for i in mono)
        if not body:
            chunks.append("%s%d" % (sign, mag))
            continue
        coeff_txt = "" if mag == 1 else str(mag)
        chunks.append("%s%s%s" % (sign, coeff_txt, body))
    return "".join(chunks)


# -- the embedding phi-star --------------------------------------------------


def phi_star(poly: PluckerPoly, dims: Sequence[int], n: int) -> PluckerPoly:
    """Embed a flag polynomial into the big Grassmannian: every index set is
    padded by ``pad_index``.  A polynomial that padding leaves as it was is
    returned itself."""
    try:
        padded = PluckerPoly(
            ([pad_index(idx, dims, n) for idx in mono], coeff) for mono, coeff in poly.terms.items()
        )
    except TableauError as exc:
        raise PluckerError(str(exc)) from None
    return poly if padded == poly else padded


# -- solid and two-interval minors ------------------------------------------


def interval_minor_to_plucker(i: int, d: int, n: int) -> PluckerPoly:
    """Lift of the solid minor with row interval [i, d]: a single Plucker
    coordinate."""
    return PluckerPoly.variable(interval_index_set(i, d, n))


def laplace_initial_minor(i1: int, d1: int, i2: int, d2: int, n: int) -> PluckerPoly:
    """Lift of the minor with row set [i1, d1] u [i2, d2] as a quadratic
    expression in Plucker coordinates (degree one when it collapses).

    Expansion: sum over J inside [l, n] of size d1-i1+1 (l = n-d1-d2+i1+i2-1)
    of +- P_{[1,i1-1] u J} P_{[1,i2-1] u J^c}; terms with repeated indices
    vanish.  When d2 = n the second factor is the full determinant, which is
    1 on the unipotent patch, so the expansion collapses to one Plucker
    coordinate.  The global sign is normalized so that the standard monomial
    of the leading tableau has coefficient +1.
    """
    if not (1 <= i1 <= d1 < i2 <= d2 <= n):
        raise PluckerError("need 1 <= i1 <= d1 < i2 <= d2 <= n")
    if i2 == d1 + 1 and d2 < n:
        # adjacent intervals merge: the row set is the single interval
        # [i1, d2] and the lift is one solid-minor coordinate
        return interval_minor_to_plucker(i1, d2, n)
    from itertools import combinations

    low = n - d1 - d2 + i1 + i2 - 1
    window = range(low, n + 1)
    size = d1 - i1 + 1
    base_sign = sum(range(i1, d1 + 1))
    head1 = tuple(range(1, i1))
    head2 = tuple(range(1, i2))
    terms = []
    for J in combinations(window, size):
        sign = (-1) ** (base_sign + sum(J))
        first = head1 + J
        second = head2 + tuple(x for x in window if x not in J)
        if d2 < n:
            terms.append(([first, second], sign))
        elif len(set(second)) == len(second):
            # second factor would be the full determinant: drop it, keeping
            # only the terms where it has no repeated index
            terms.append(([first], sign))
    out = PluckerPoly(terms)
    lead = initial_tableau(i1, d1, i2, d2, n)
    lead_coeff = out.coefficient(lead.columns())
    if lead_coeff == 0:
        raise PluckerError("leading standard monomial missing from expansion")
    if lead_coeff < 0:
        out = -out
    return out


# -- evaluation points -------------------------------------------------------


DEFAULT_PRIME = (1 << 61) - 1

# Miller-Rabin with these bases has no strong pseudoprime below 2**64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


Echelon = tuple[int, dict[int, int], list[list[int]]]


def reduce_rows(matrix: Sequence[Sequence[int]], m: int, p: int) -> Echelon:
    r"""The reduction of the top m rows A of ``matrix`` over F_p by
    Gauss-Jordan elimination: the signed product of the pivots, which is
    P_J(A) (0 when the rows are dependent), the row of each pivot column j
    in J, and the reduced rows R.  Then P_I(A) = P_J(A) * P_I(R) for
    |I| = m, and P_I(R) is the minor of R on the rows of J \ I and the
    columns I \ J, with sign (-1)^(rows of I & J + their positions in I)."""
    if len({len(row) for row in matrix}) > 1:
        raise PluckerError("matrix rows differ in length")
    if m > len(matrix):
        raise PluckerError("index size %d exceeds row count %d" % (m, len(matrix)))
    rows = [[x % p for x in row] for row in matrix[:m]]
    scale = 1
    pivot_row: dict[int, int] = {}
    for c in range(len(matrix[0]) if matrix else 0):
        r = len(pivot_row)
        if r == m:
            break
        if not rows[r][c]:
            pick = next((i for i in range(r, m) if rows[i][c]), None)
            if pick is None:
                continue
            rows[r], rows[pick] = rows[pick], rows[r]
            scale = -scale
        pivot = rows[r][c]
        scale = scale * pivot % p
        inv = pow(pivot, -1, p)
        # left of column c the pivot row is 0, and no minor reads a pivot
        # column, so each update starts right of c
        top = rows[r][c + 1:] = [x * inv % p for x in rows[r][c + 1:]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c + 1:] = [(a - f * b) % p for a, b in zip(row[c + 1:], top)]
        pivot_row[c + 1] = r
    return scale if len(pivot_row) == m else 0, pivot_row, rows


class EvaluationPlan:
    """The index sets of some Plucker polynomials, grouped by size, with
    their programs: one per row count, width and pivot columns, compiled
    on first use.  Nearly every point has the generic pivots {1, ..., m}."""

    __slots__ = ("indices", "_programs")

    def __init__(self, polys: Iterable[PluckerPoly]):
        self.indices: dict[int, list[tuple[int, ...]]] = {}
        for idx in dict.fromkeys(idx for poly in polys for mono in poly.terms for idx in mono):
            self.indices.setdefault(len(idx), []).append(idx)
        self._programs: dict[tuple, tuple] = {}

    def run(self, echelon: Echelon, p: int) -> dict[tuple[int, ...], int]:
        """P_I(A) mod p for every index set I of the plan of size m, from
        ``echelon = reduce_rows(A, m, p)``, which is only read."""
        _, pivot_row, rows = echelon
        m, width = len(rows), (len(rows[0]) if rows else 0)
        indices = self.indices.get(m, ())
        key = (m, width, *pivot_row.items())
        if key not in self._programs:
            self._programs[key] = _compile(indices, pivot_row, m, width)
        return dict(zip(indices, _run(self._programs[key], echelon, p)))


def _compile(indices: Iterable[tuple[int, ...]], pivot_row: dict[int, int], m: int, width: int) -> tuple:
    """The straight-line program of ``indices``, each of size m, at reduced
    rows R (m x ``width``) whose pivot column j is in row pivot_row[j].
    Slot r * width + c holds R[r][c], slot m * width holds 1, and every
    further slot a minor of R of size 2 or more, condensed from five
    smaller ones.  Returns the slot count, the nodes grouped by size (slot,
    the slots it reads, rows, cols), and each index set's slot and sign."""
    one = m * width
    slots: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    levels: list[list[tuple]] = [[] for _ in range(m - 1)]

    def slot(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
        size = len(rows)
        if size < 2:
            return rows[0] * width + cols[0] if size else one
        s = slots.get((rows, cols))
        if s is None:
            top, bottom, left, right = rows[:-1], rows[1:], cols[:-1], cols[1:]
            node = (slot(top, left), slot(bottom, right), slot(top, right), slot(bottom, left),
                    slot(rows[1:-1], cols[1:-1]), rows, cols)
            s = slots[rows, cols] = one + 1 + len(slots)
            levels[size - 2].append((s, *node))
        return s

    outputs = []
    for index in indices:
        if m and (index[0] < 1 or index[-1] > width or any(b <= a for a, b in zip(index, index[1:]))):
            raise PluckerError("index %s is not strictly increasing within the columns" % (index,))
        hits = {pivot_row[c]: pos for pos, c in enumerate(index) if c in pivot_row}
        rows = tuple(r for r in range(m) if r not in hits)
        cols = tuple(c - 1 for c in index if c not in pivot_row)
        outputs.append((slot(rows, cols), sum(map(sum, hits.items())) & 1))
    return one + 1 + len(slots), [level for level in levels if level], outputs


def _run(program: tuple, echelon: Echelon, p: int) -> list[int]:
    """The values P_I(A) of a program's index sets, one minor size after
    the other, with one batched inversion per size from 3 up."""
    nslots, levels, outputs = program
    scale, _, reduced = echelon
    if not scale:
        return [0] * len(outputs)
    vals = [x for row in reduced for x in row]
    vals += [1] + [0] * (nslots - len(vals) - 1)
    for s, a, b, c, d, *_ in levels[0] if levels else ():     # size 2: interior 1
        vals[s] = (vals[a] * vals[b] - vals[c] * vals[d]) % p
    for level in levels[1:]:
        inner = [vals[node[5]] for node in level]
        invs = iter(batch_inverse([x for x in inner if x], p))
        for (s, a, b, c, d, _, rows, cols), x in zip(level, inner):
            vals[s] = ((vals[a] * vals[b] - vals[c] * vals[d]) * next(invs) % p if x
                       else det_mod([[reduced[r][j] for j in cols] for r in rows], p))
    return [(-scale if neg else scale) * vals[s] % p for s, neg in outputs]


def batch_inverse(values: Sequence[int], p: int) -> list[int]:
    """Inverses of nonzero residues mod a prime from one ``pow``
    (Montgomery, Math. Comp. 1987); raises ValueError on a zero."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % p
    inv, out = pow(acc, -1, p), [0] * len(values)
    for i in reversed(range(len(values))):
        out[i], inv = inv * prefix[i] % p, inv * values[i] % p
    return out


def det_mod(matrix: list[list[int]], p: int) -> int:
    """Determinant over F_p by Gaussian elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    if any(len(row) != size for row in m):
        raise PluckerError("determinant of a non-square matrix")
    det = 1
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if m[r][col] % p:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = (det * m[col][col]) % p
        below = [r for r in range(col + 1, size) if m[r][col]]
        if below:
            inv = pow(m[col][col], -1, p)
            for r in below:
                factor = (m[r][col] * inv) % p
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def random_matrix_point(rows: int, cols: int, prime: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)]


# -- coordinates of the worked families ------------------------------------


def sh_coordinate(n: int, token_kind: str, i: int, j: int) -> PluckerPoly:
    """Coordinates used in the rank-two discussion of Fl_{2,n-2;n}:
    angle pairs are Plucker coordinates of 2-subsets; bracket pairs are
    signed coordinates of the complementary (n-2)-subsets."""
    if n < 5:
        raise PluckerError("the flag (2, n-2; n) needs n >= 5, got %d" % n)
    if not (1 <= i < j <= n):
        raise PluckerError("need 1 <= i < j <= n")
    if token_kind == "angle":
        return PluckerPoly.variable((i, j))
    if token_kind == "bracket":
        complement = tuple(x for x in range(1, n + 1) if x not in (i, j))
        return PluckerPoly.monomial([complement], (-1) ** (i + j - 1))
    raise PluckerError("unknown token kind %r" % token_kind)


def mt_coordinate(n: int, entries: Sequence[int]) -> PluckerPoly:
    """Coordinates used in the Fl_{2,4;n} discussion: angle tuples of size
    two or four are plain Plucker coordinates."""
    if n < 5:
        raise PluckerError("the flag (2, 4; n) needs n >= 5, got %d" % n)
    if len(entries) not in (2, 4):
        raise PluckerError("expected an index tuple of size 2 or 4")
    if not all(1 <= e <= n for e in entries):
        raise PluckerError("entries out of range")
    if any(b <= a for a, b in zip(entries, entries[1:])):
        raise PluckerError("entries must strictly increase")
    return PluckerPoly.variable(tuple(entries))
