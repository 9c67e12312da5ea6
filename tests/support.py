"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written against the data layout, not against
the library's own helper functions, so that the tests in this directory check
the implementation rather than restate it.
"""

import itertools
import random

from clusterflag.tableaux import Tableau, one_column, union
from clusterflag.flags import FlagType
from clusterflag.plucker import EvaluationPoint


def random_column(rng: random.Random, n: int, max_height: int) -> Tableau:
    h = rng.randint(1, max_height)
    return one_column(sorted(rng.sample(range(1, n + 1), h)))


def random_tableau(rng: random.Random, n: int = 8, max_cols: int = 4, max_height: int = 4) -> Tableau:
    """Union of random single columns; may be empty."""
    t = Tableau([])
    for _ in range(rng.randint(0, max_cols)):
        t = union(t, random_column(rng, n, max_height))
    return t


def check_semistandard(rows) -> bool:
    """Independent semistandardness check: rows weakly increase, columns
    strictly increase, row lengths weakly decrease."""
    rows = [list(r) for r in rows]
    for r in rows:
        if any(a > b for a, b in zip(r, r[1:])):
            return False
    for r1, r2 in zip(rows, rows[1:]):
        if len(r2) > len(r1):
            return False
        if any(r1[j] >= r2[j] for j in range(len(r2))):
            return False
    return True


def brute_shape_leq(lam, mu) -> bool:
    """Prefix-sum comparison of partitions, padding with zeros.  Restricted
    shapes of same-shape tableaux have different sizes, so no equal-sum
    requirement (the one-column example 13 vs 12 forces this reading)."""
    width = max(len(lam), len(mu))
    lam = list(lam) + [0] * (width - len(lam))
    mu = list(mu) + [0] * (width - len(mu))
    acc_l = acc_m = 0
    for a, b in zip(lam, mu):
        acc_l += a
        acc_m += b
        if acc_l > acc_m:
            return False
    return True


def brute_restricted_shape(rows, i: int) -> tuple[int, ...]:
    parts = [sum(1 for e in r if e <= i) for r in rows]
    return tuple(p for p in parts if p)


def brute_dominance(s: Tableau, t: Tableau) -> str:
    """Reference comparison: prefix-sum dominance of every restriction."""
    top = max(s.max_entry(), t.max_entry(), 1)
    leq = geq = True
    for i in range(1, top + 1):
        a = brute_restricted_shape(s.rows, i)
        b = brute_restricted_shape(t.rows, i)
        if not brute_shape_leq(a, b):
            leq = False
        if not brute_shape_leq(b, a):
            geq = False
    if leq and geq:
        return "equal"
    if leq:
        return "less"
    if geq:
        return "greater"
    return "incomparable"


def two_row_tableaux(max_entry: int, max_width: int):
    """All semistandard tableaux with at most two rows, entries in
    [max_entry], and first row of length <= max_width."""
    out = []
    values = range(1, max_entry + 1)
    for w1 in range(1, max_width + 1):
        for r1 in itertools.combinations_with_replacement(values, w1):
            out.append(Tableau([r1]))
            for w2 in range(1, w1 + 1):
                for r2 in itertools.combinations_with_replacement(values, w2):
                    if all(r1[j] < r2[j] for j in range(w2)):
                        out.append(Tableau([r1, r2]))
    return out


def all_flag_types(n_max: int, k_max: int):
    """Every flag type with 2 <= n <= n_max and 1 <= k <= k_max."""
    flags = []
    for n in range(2, n_max + 1):
        for k in range(1, k_max + 1):
            for dims in itertools.combinations(range(1, n), k):
                flags.append(FlagType(dims, n))
    return flags


def column_subsets(n: int, size: int):
    return itertools.combinations(range(1, n + 1), size)


def random_quiver(rng: random.Random, max_vertices: int = 8):
    """Random multi-arrow quiver with a nonempty mutable part."""
    from clusterflag.quiver import Quiver, Vertex

    nv = rng.randint(2, max_vertices)
    frozen = [rng.random() < 0.3 for _ in range(nv)]
    if all(frozen):
        frozen[0] = False
    q = Quiver(Vertex(i, "v%d" % i, frozen[i]) for i in range(nv))
    for _ in range(rng.randint(0, 2 * nv)):
        u, w = rng.sample(range(nv), 2)
        q.add_arrow(u, w, rng.randint(1, 2))
    return q


def matrix_mutation_oracle(quiver, k: int) -> dict[tuple[int, int], int]:
    """Arrows after mutating at ``k`` by the Fomin-Zelevinsky matrix rule
    b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik) max(b_ik b_kj, 0),
    read from and written back to the ``arrows`` layout: positive entries
    only, frozen-frozen entries dropped."""
    ids = list(quiver.vertices)
    frozen = {i: quiver.vertices[i].frozen for i in ids}
    b = {
        (i, j): quiver.arrows.get((i, j), 0) - quiver.arrows.get((j, i), 0)
        for i in ids
        for j in ids
    }
    out = {}
    for i in ids:
        for j in ids:
            if k in (i, j):
                entry = -b[i, j]
            else:
                sign = (b[i, k] > 0) - (b[i, k] < 0)
                entry = b[i, j] + sign * max(b[i, k] * b[k, j], 0)
            if entry > 0 and not (frozen[i] and frozen[j]):
                out[i, j] = entry
    return out


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- the unipotent patch of a flag variety ---------------------------------------
#
# The flag seed's lifted coordinates restrict, on this patch, to plain minors
# of the matrix; these helpers are the tests' oracle for that statement.  The
# minors go through ``EvaluationPoint.minor`` (``det_mod``), which
# test_det_mod_against_naive_expansion checks against cofactor expansion.


def unipotent_pattern(dims, n: int) -> list[list[bool]]:
    """Which entries of the n x n matrix are free: strictly above the
    diagonal and not inside any diagonal block of the flag type (blocks are
    (0,d1], (d1,d2], ..., (dk,n])."""
    bounds = [0] + list(dims) + [n]

    def block(i: int) -> int:
        for b in range(1, len(bounds)):
            if bounds[b - 1] < i <= bounds[b]:
                return b
        raise ValueError("index out of range")

    free = [[False] * n for _ in range(n)]
    for r in range(1, n + 1):
        for c in range(r + 1, n + 1):
            if block(r) != block(c):
                free[r - 1][c - 1] = True
    return free


def random_unipotent_point(dims, n: int, prime: int, rng: random.Random) -> EvaluationPoint:
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


def pattern_minor(point: EvaluationPoint, row_set) -> int:
    """Minor of the point on rows ``row_set`` and the last |row_set| columns;
    the function the lifted seed variables restrict to on the patch."""
    m = len(row_set)
    n = len(point.matrix[0])
    return point.minor(row_set, range(n - m + 1, n + 1))
