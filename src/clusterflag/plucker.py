r"""Exact arithmetic in Plucker coordinates and the numeric evaluation oracle.

Variables are Plucker coordinates P_I indexed by strictly increasing tuples.
Polynomials are sparse integer combinations of monomials (multisets of index
tuples).  ``phi_star`` pads a flag polynomial into the big Grassmannian; the
lifts it pads are built in ``flags``.  Identity testing is randomized: evaluate both sides at random
points of the big cell P_{[1,m]} != 0 of Gr(m; N) over F_p (p a large prime).

A point is a scale and a chart (t, M): t in F_p^* and M an m x (N - m)
matrix over F_p, standing for the Plucker vector t * P([I_m | M]).  So
P_{[1,m]} = t, and P_I is t times +- the minor of M on the rows [m] \ I and
the columns I \ [m].  A matrix A = [A_L | A_R] with det A_L != 0 has
P(A) = (det A_L) * P([I | A_L^-1 A_R]), and for uniform A the pair
(det A_L, A_L^-1 A_R) is uniform on F_p^* x F_p^(m x (N - m)), so a uniform
(t, M) is a uniform matrix conditioned on P_{[1,m]} != 0.

Minors of M are condensed over F_p (Desnanot-Jacobi; Dodgson, Proc. R.
Soc. 1866): M(r, c) M(r[1:-1], c[1:-1]) = M(r[:-1], c[:-1]) M(r[1:], c[1:])
- M(r[:-1], c[1:]) M(r[1:], c[:-1]).  An ``EvaluationPlan`` of Gr(m; N)
holds the index sets of a family of polynomials (for the certifier: the
grid dictionary of a target when it draws its points, or the lifts one type
samples) and compiles them, when it is built, into one straight-line
program of slot-indexed nodes at the m x (N - m) charts, grouped by minor
size.  ``plan.run(point, p)`` runs it at one point, with one batched
inversion per size (Montgomery, Math. Comp. 1987), and returns the values
of all the plan's index sets, which ``PluckerPoly.evaluate`` reads.  One
fallback keeps every value exact: a node whose interior minor is 0 mod p
is computed by ``det_mod``.
An isolated minor of size 10 shares no windows and is about 6 times slower
than elimination; the certifier evaluates none.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .tableaux import TableauError, pad_index


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


Point = tuple[int, list[list[int]]]


class EvaluationPlan:
    """The distinct index sets of some Plucker polynomials, in first-seen
    order, each a k-subset of the columns 1..n, compiled into one
    straight-line program at the charts M (k x (n - k)) of Gr(k; n).  Slot
    r * (n - k) + c holds M[r][c], slot k * (n - k) holds 1, and every
    further slot a minor of M of size 2 or more, condensed from five smaller
    ones; the nodes (slot, the slots it reads, rows, cols) are grouped by
    size, and each index set has an output slot and sign."""

    __slots__ = ("indices", "_nslots", "_levels", "_outputs")

    def __init__(self, polys: Iterable[PluckerPoly], k: int, n: int):
        self.indices = list(dict.fromkeys(idx for poly in polys for mono in poly.terms for idx in mono))
        width = n - k
        one = k * width
        slots: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        levels: list[list[tuple]] = [[] for _ in range(k - 1)]

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

        self._outputs = []
        for index in self.indices:
            if len(index) != k or any(not 1 <= i <= n for i in index):
                raise PluckerError("index %s is not a %d-subset of the columns 1..%d" % (index, k, n))
            # column i <= k of [I | M] is the unit vector e_i: it drops row i from
            # the minor, with sign (-1)^(i - 1 + its position in the index)
            hits = {i - 1: pos for pos, i in enumerate(index) if i <= k}
            rows = tuple(r for r in range(k) if r not in hits)
            cols = tuple(c - k - 1 for c in index if c > k)
            self._outputs.append((slot(rows, cols), sum(map(sum, hits.items())) & 1))
        self._nslots = one + 1 + len(slots)
        self._levels = [level for level in levels if level]

    def run(self, point: Point, p: int) -> dict[tuple[int, ...], int]:
        """P_I mod p at ``point = (t, M)``, which stands for t * P([I_k | M]),
        for every index set I of the plan, one minor size after the other,
        with one batched inversion per size from 3 up; the point is only read."""
        scale, chart = point
        vals = [x % p for row in chart for x in row]
        vals += [1] + [0] * (self._nslots - len(vals) - 1)
        levels = self._levels
        for s, a, b, c, d, *_ in levels[0] if levels else ():     # size 2: interior 1
            vals[s] = (vals[a] * vals[b] - vals[c] * vals[d]) % p
        for level in levels[1:]:
            inner = [vals[node[5]] for node in level]
            invs = iter(batch_inverse([x for x in inner if x], p))
            for (s, a, b, c, d, _, rows, cols), x in zip(level, inner):
                vals[s] = ((vals[a] * vals[b] - vals[c] * vals[d]) * next(invs) % p if x
                           else det_mod([[chart[r][j] for j in cols] for r in rows], p))
        return {index: (-scale if neg else scale) * vals[s] % p
                for index, (s, neg) in zip(self.indices, self._outputs)}


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
