"""Exact arithmetic in Plucker coordinates and the numeric evaluation oracle.

Variables are Plucker coordinates P_I indexed by strictly increasing tuples.
Polynomials are sparse integer combinations of monomials (multisets of index
tuples).  Identity testing is randomized: evaluate both sides on random
matrices over F_p (p a large prime) with P_I read off as a minor.

Two kinds of evaluation points appear:

* full random matrices with d rows, for identities inside a single
  Grassmannian (every index set has size d);
* patterned unipotent n x n matrices, for identities on the open patch of a
  partial flag variety (P_I is the top-|I| x I minor; entries inside each
  diagonal block vanish, the diagonal is 1).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Sequence

from .tableaux import Tableau, initial_tableau, interval_index_set


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


Monomial = tuple[tuple[int, ...], ...]  # sorted tuple of index tuples


class PluckerPoly:
    """Sparse integer polynomial in Plucker coordinates."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        tt = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    tt[tuple(sorted(mono))] = coeff
        self.terms = tt

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PluckerPoly":
        return cls()

    @classmethod
    def one(cls) -> "PluckerPoly":
        return cls({(): 1})

    @classmethod
    def variable(cls, index: Sequence[int]) -> "PluckerPoly":
        sign, idx = normalize_index(index)
        if sign == 0:
            return cls()
        return cls({(idx,): sign})

    @classmethod
    def monomial(cls, indices: Iterable[Sequence[int]], coeff: int = 1) -> "PluckerPoly":
        out = cls({(): coeff})
        for idx in indices:
            out = out * cls.variable(idx)
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PluckerPoly") -> "PluckerPoly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        out = PluckerPoly.__new__(PluckerPoly)
        object.__setattr__(out, "terms", terms)
        return out

    def __neg__(self) -> "PluckerPoly":
        out = PluckerPoly.__new__(PluckerPoly)
        object.__setattr__(out, "terms", {m: -c for m, c in self.terms.items()})
        return out

    def __sub__(self, other: "PluckerPoly") -> "PluckerPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return PluckerPoly()
            out = PluckerPoly.__new__(PluckerPoly)
            object.__setattr__(out, "terms", {m: c * other for m, c in self.terms.items()})
            return out
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                new = terms.get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        out = PluckerPoly.__new__(PluckerPoly)
        object.__setattr__(out, "terms", terms)
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PluckerPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def coefficient(self, mono: Iterable[Sequence[int]]) -> int:
        key = tuple(sorted(tuple(i) for i in mono))
        return self.terms.get(key, 0)

    def map_variables(self, fn) -> "PluckerPoly":
        out = PluckerPoly()
        for mono, coeff in self.terms.items():
            term = PluckerPoly({(): coeff})
            for idx in mono:
                term = term * PluckerPoly.variable(fn(idx))
            out = out + term
        return out

    def __repr__(self):
        return "PluckerPoly(%s)" % format_poly(self)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: "EvaluationPoint", cache: dict | None = None) -> int:
        if cache is None:
            cache = {}
        total = 0
        p = point.prime
        for mono, coeff in self.terms.items():
            val = coeff % p
            for idx in mono:
                v = cache.get(idx)
                if v is None:
                    v = point.plucker(idx)
                    cache[idx] = v
                val = (val * v) % p
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


def standard_monomial(t: Tableau) -> PluckerPoly:
    """Product of the Plucker coordinates named by the columns of ``t``."""
    return PluckerPoly.monomial(t.columns())


# -- exchange relations ----------------------------------------------------


def plucker_relation(j_idx: Sequence[int], l_idx: Sequence[int], s: int) -> PluckerPoly:
    """The degree-two exchange relation swapping the first ``s`` entries of
    ``j_idx`` with every ordered ``s``-subset of ``l_idx``:

        P_J P_L - sum_{r_1<...<r_s} P_{J'} P_{L'}

    which vanishes on flags (|J| <= |L|) and in particular on any single
    Grassmannian when |J| = |L|.
    """
    J = tuple(j_idx)
    L = tuple(l_idx)
    if not (1 <= s <= len(J) <= len(L)):
        raise PluckerError("need 1 <= s <= |J| <= |L|")
    from itertools import combinations

    rel = PluckerPoly.monomial([J, L])
    for positions in combinations(range(len(L)), s):
        j_new = tuple(L[r] for r in positions) + J[s:]
        l_new = list(L)
        for t, r in enumerate(positions):
            l_new[r] = J[t]
        rel = rel - PluckerPoly.monomial([j_new, tuple(l_new)])
    return rel


def phi_star(poly: PluckerPoly, dims: Sequence[int], n: int) -> PluckerPoly:
    """Embed a flag polynomial into the big Grassmannian: every index set of
    size d (a flag dimension) is extended by the fresh entries
    n+1, ..., n + max(dims) - d."""
    dk = max(dims)
    sizes = set(dims)

    def extend(idx: tuple[int, ...]) -> tuple[int, ...]:
        if len(idx) not in sizes:
            raise PluckerError("index size %d is not a flag dimension" % len(idx))
        if idx and idx[-1] > n:
            raise PluckerError("index %s exceeds ambient size %d" % (idx, n))
        return idx + tuple(range(n + 1, n + 1 + dk - len(idx)))

    return poly.map_variables(extend)


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
    out = PluckerPoly()
    for J in combinations(window, size):
        rest = tuple(x for x in window if x not in J)
        sign = (-1) ** (base_sign + sum(J))
        first = head1 + J
        second = head2 + rest
        if d2 == n:
            # second factor would be the full determinant: drop it, keeping
            # only the term where it has no repeated index
            if len(set(second)) != len(second):
                continue
            out = out + PluckerPoly.monomial([first], sign)
        else:
            out = out + PluckerPoly.monomial([first, second], sign)
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


class EvaluationPoint:
    """A matrix over F_p at which Plucker coordinates are evaluated.

    ``plucker(I)`` is the minor on the top |I| rows and columns I; the
    matrix must have at least |I| rows and max(I) columns.
    """

    __slots__ = ("matrix", "prime")

    def __init__(self, matrix: Sequence[Sequence[int]], prime: int = DEFAULT_PRIME):
        self.matrix = tuple(tuple(x % prime for x in row) for row in matrix)
        self.prime = prime

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

    @property
    def num_cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> int:
        """Determinant of the submatrix (rows and cols are 1-based)."""
        sub = [[self.matrix[r - 1][c - 1] for c in cols] for r in rows]
        return det_mod(sub, self.prime)

    def plucker(self, index: Sequence[int]) -> int:
        m = len(index)
        if m > self.num_rows:
            raise PluckerError("index size %d exceeds row count %d" % (m, self.num_rows))
        return self.minor(range(1, m + 1), index)


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
        inv = pow(m[col][col], p - 2, p)
        det = (det * m[col][col]) % p
        for r in range(col + 1, size):
            if m[r][col]:
                factor = (m[r][col] * inv) % p
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return det % p


def random_matrix_point(rows: int, cols: int, prime: int, rng: random.Random) -> EvaluationPoint:
    matrix = [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)]
    return EvaluationPoint(matrix, prime)


def unipotent_pattern(dims: Sequence[int], n: int) -> list[list[bool]]:
    """Which entries of the n x n matrix are free: strictly above the
    diagonal and not inside any diagonal block of the flag type (blocks are
    (0,d1], (d1,d2], ..., (dk,n])."""
    bounds = [0] + list(dims) + [n]

    def block(i: int) -> int:
        for b in range(1, len(bounds)):
            if bounds[b - 1] < i <= bounds[b]:
                return b
        raise PluckerError("index out of range")

    free = [[False] * n for _ in range(n)]
    for r in range(1, n + 1):
        for c in range(r + 1, n + 1):
            if block(r) != block(c):
                free[r - 1][c - 1] = True
    return free


def random_unipotent_point(dims: Sequence[int], n: int, prime: int, rng: random.Random) -> EvaluationPoint:
    """Random point of the unipotent patch of the flag variety: upper
    unitriangular with zeros inside every diagonal block."""
    free = unipotent_pattern(dims, n)
    matrix = [[0] * n for _ in range(n)]
    for r in range(n):
        matrix[r][r] = 1
        for c in range(n):
            if free[r][c]:
                matrix[r][c] = rng.randrange(prime)
    return EvaluationPoint(matrix, prime)


def pattern_minor(point: EvaluationPoint, row_set: Sequence[int]) -> int:
    """Minor of the point on rows ``row_set`` and the last |row_set| columns;
    the function the lifted seed variables restrict to on the patch."""
    m = len(row_set)
    n = point.num_cols
    return point.minor(row_set, range(n - m + 1, n + 1))


# -- small coordinate dictionaries -------------------------------------------


def sh_coordinate(n: int, token_kind: str, i: int, j: int) -> PluckerPoly:
    """Coordinates used in the rank-two discussion of Fl_{2,n-2;n}:
    angle pairs are Plucker coordinates of 2-subsets; bracket pairs are
    signed coordinates of the complementary (n-2)-subsets."""
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
    if len(entries) not in (2, 4):
        raise PluckerError("expected an index tuple of size 2 or 4")
    if not all(1 <= e <= n for e in entries):
        raise PluckerError("entries out of range")
    return PluckerPoly.variable(tuple(entries))


def sh_coordinates(n: int) -> dict[str, PluckerPoly]:
    """All angle/bracket coordinates for ambient size n, keyed by their
    conventional spelling (``<ij>`` and ``[ij]``, comma-separated past 9)."""
    out: dict[str, PluckerPoly] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            body = "%d%d" % (i, j) if n <= 9 else "%d,%d" % (i, j)
            out["<%s>" % body] = sh_coordinate(n, "angle", i, j)
            out["[%s]" % body] = sh_coordinate(n, "bracket", i, j)
    return out


def mt_coordinates(n: int) -> dict[str, PluckerPoly]:
    """All 2- and 4-index angle coordinates for ambient size n."""
    out: dict[str, PluckerPoly] = {}
    for size in (2, 4):
        for combo in itertools.combinations(range(1, n + 1), size):
            joiner = "" if n <= 9 else ","
            body = joiner.join(map(str, combo))
            out["<%s>" % body] = mt_coordinate(n, combo)
    return out
