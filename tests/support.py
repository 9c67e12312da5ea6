"""Shared generators and independent oracles for the test suite.

Everything here is deliberately written against the data layout, not against
the library's own helper functions, so that the tests in this directory check
the implementation rather than restate it.
"""

import itertools
import random
from collections import Counter

from clusterflag.tableaux import Tableau, one_column, union
from clusterflag.flags import FlagType, sigma_draw
from clusterflag.plucker import PluckerError, PluckerPoly, det_mod
from clusterflag.quiver import quivers_agree


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
    top = max([1, *(row[-1] for row in s.rows + t.rows)])
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


def arrangement_regions(flag) -> list[frozenset]:
    """Regions of the staircase arrangement by flood fill over unit cells.

    Cell (x, y) spans (x, x+1) x (y, y+1).  Line i runs up x = i to height
    sigma(i), then left along y = sigma(i).  Two side-by-side cells share a
    region when no segment separates them: the right neighbour when
    y >= sigma(x+1), the upper neighbour when x >= sigma^-1(y+1).
    """
    n = flag.n
    sigma = (0,) + sigma_draw(flag)
    inv = [0] * (n + 1)
    for i in range(1, n + 1):
        inv[sigma[i]] = i

    def neighbours(x, y):
        if x + 1 < n and y >= sigma[x + 1]:
            yield x + 1, y
        if x > 0 and y >= sigma[x]:
            yield x - 1, y
        if y + 1 < n and x >= inv[y + 1]:
            yield x, y + 1
        if y > 0 and x >= inv[y]:
            yield x, y - 1

    seen: set = set()
    regions = []
    for start in itertools.product(range(n), repeat=2):
        if start in seen:
            continue
        seen.add(start)
        region, stack = [start], [start]
        while stack:
            for cell in neighbours(*stack.pop()):
                if cell not in seen:
                    seen.add(cell)
                    region.append(cell)
                    stack.append(cell)
        regions.append(frozenset(region))
    return regions


def initial_index_sets(flag) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Closed-form list of the face labels: for each level pair
    (d_j, d_{j+1}) and i in [1, d_j], the bare interval [i, d_j] and the
    two-interval sets [i, d_j] u [i', d_{j+1}] with i' in [d_j + 2, d_{j+1}].

    Returns (mutable, frozen); frozen are the sets with i = 1 together with
    the bare intervals ending at d_1.
    """
    levels = list(flag.dims) + [flag.n]
    mutable, frozen = [], []
    for dj, dnext in zip(levels, levels[1:]):
        for i in range(1, dj + 1):
            bare = tuple(range(i, dj + 1))
            (frozen if i == 1 or dj == levels[0] else mutable).append(bare)
            for i2 in range(dj + 2, dnext + 1):
                (frozen if i == 1 else mutable).append(bare + tuple(range(i2, dnext + 1)))
    return mutable, frozen


def standard_form_tableau(flag, j: int, j1: int, j2: int) -> Tableau:
    """Padded two-column tableau that page j1+j2+1 of region j places at
    grid position (top + j1, c - j2 + 1): the leading tableau of the rows
    [j2+1, d_{j-1}] u [d_{j-1}+j1+2, d_j], its columns
        [1, i2-1] u [n-d_j+i2, n]                   (height d_j)
        [1, i1-1] u [n-d_j-d_{j-1}+i2+i1-1, n-d_j+i2-1]   (height d_{j-1})
    with i1 = j2+1 and i2 = d_{j-1}+j1+2, each padded by n+1, n+2, ... to
    height d_k."""
    n, dk = flag.n, flag.dims[-1]
    d1, d2 = flag.dims[j - 2], flag.dims[j - 1]
    i1, i2 = j2 + 1, d1 + j1 + 2
    col1 = [*range(1, i2), *range(n - d2 + i2, n + 1), *range(n + 1, n + 1 + dk - d2)]
    col2 = [*range(1, i1), *range(n - d2 - d1 + i2 + i1 - 1, n - d2 + i2),
            *range(n + 1, n + 1 + dk - d1)]
    return Tableau(sorted(pair) for pair in zip(col1, col2))


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


def quiver_differences(q1, q2) -> list[str]:
    """``quivers_agree`` under the identity map of vertex ids: empty exactly
    when the quivers have the same vertices, frozen status and arrows."""
    return quivers_agree(q1, q2, {v: v for v in q1.vertices})


def seeds_equal(s1, s2, mapping) -> list[str]:
    """Compare two seeds under a vertex bijection: quiver shape, frozen
    status and tableaux (equal tableaux give equal grading heights and equal
    weights).  Returns mismatch descriptions, empty when the seeds agree."""
    problems = quivers_agree(s1.quiver, s2.quiver, mapping)
    if problems:
        return problems
    for vid, st in s1.variables.items():
        if st.tableau != s2.variables[mapping[vid]].tableau:
            problems.append("tableau differs at %s" % s1.quiver.vertices[vid].name)
    return problems


# -- Plucker polynomials -----------------------------------------------------------


def inversion_sign(seq) -> int:
    """(-1)^(number of inversions) of ``seq``, 0 when an entry repeats: the
    sign that sorting an index puts on its Plucker coordinate."""
    if len(set(seq)) != len(seq):
        return 0
    return (-1) ** sum(a > b for a, b in itertools.combinations(seq, 2))


def plucker_relation(j_idx, l_idx, s: int) -> PluckerPoly:
    """The degree-two exchange relation swapping the first ``s`` entries of
    ``j_idx`` with every ordered ``s``-subset of ``l_idx``:

        P_J P_L - sum_{r_1<...<r_s} P_{J'} P_{L'}

    which vanishes on flags (|J| <= |L|) and in particular on any single
    Grassmannian when |J| = |L|.
    """
    J, L = tuple(j_idx), tuple(l_idx)
    if not (1 <= s <= len(J) <= len(L)):
        raise PluckerError("need 1 <= s <= |J| <= |L|")
    terms = [([J, L], 1)]
    for positions in itertools.combinations(range(len(L)), s):
        l_new = list(L)
        for t, r in enumerate(positions):
            l_new[r] = J[t]
        terms.append(([tuple(L[r] for r in positions) + J[s:], l_new], -1))
    return PluckerPoly(terms)


# -- the grading ------------------------------------------------------------------


def weight_of_index_set(index_set, flag) -> tuple[int, ...]:
    """Closed-form grading of the flag seed variable on a face label:
    coordinate j is 1 exactly when d_j lies in the set and d_j + 1 does not."""
    s = set(index_set)
    return tuple(1 if (d in s and (d + 1) not in s) else 0 for d in flag.dims)


def column_weight(tableau: Tableau, heights) -> tuple[int, ...]:
    """Columns of the tableau counted by height, read column by column;
    a column of any other height fails the assertion."""
    counts = Counter(len(col) for col in tableau.columns())
    assert set(counts) <= set(heights), (tableau, heights)
    return tuple(counts[h] for h in heights)


def laurent_grading_problems(state, initial_weights, heights) -> list:
    """Terms of a variable's Laurent expansion whose weighted degree, the sum
    of e_i * w_i over the initial variables i with weights w_i, differs from
    its tableau's column weight.  The two tracks are computed independently,
    so agreement links them."""
    expect = column_weight(state.tableau, heights)
    problems = []
    for exps, _ in state.laurent.exponent_items():
        degree = tuple(
            sum(e * w[j] for e, w in zip(exps, initial_weights)) for j in range(len(heights))
        )
        if degree != expect:
            problems.append((exps, degree, expect))
    return problems


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
# minors are a plain ``det_mod`` of the submatrix, independent of the
# condensation behind ``EvaluationPlan.run``; test_det_mod_against_naive_expansion
# checks ``det_mod`` against cofactor expansion.


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


def random_unipotent_point(dims, n: int, prime: int, rng: random.Random) -> list[list[int]]:
    """Random point of the unipotent patch of the flag variety: upper
    unitriangular with zeros inside every diagonal block."""
    free = unipotent_pattern(dims, n)
    matrix = [[0] * n for _ in range(n)]
    for r in range(n):
        matrix[r][r] = 1
        for c in range(n):
            if free[r][c]:
                matrix[r][c] = rng.randrange(prime)
    return matrix


def pattern_minor(matrix, row_set, prime: int) -> int:
    """Minor of the matrix on rows ``row_set`` and the last |row_set| columns;
    the function the lifted seed variables restrict to on the patch."""
    m = len(row_set)
    n = len(matrix[0])
    sub = [[matrix[r - 1][c - 1] for c in range(n - m + 1, n + 1)] for r in row_set]
    return det_mod(sub, prime)


def minors(matrix, prime: int) -> dict:
    """A lazy map I -> P_I(matrix) mod p, for ``PluckerPoly.evaluate`` at any
    index set: each I on first lookup, as ``det_mod`` of the top |I| rows
    and the columns I."""
    class Minors(dict):
        def __missing__(self, idx):
            self[idx] = det_mod([[row[c - 1] for c in idx] for row in matrix[:len(idx)]], prime)
            return self[idx]
    return Minors()


def chart_matrix(point) -> list[list[int]]:
    """The m x (m + width) integer matrix that the point (t, M) stands for:
    [I_m | M] with its first row times t, so that each of its m-minors is
    t times that of [I_m | M]."""
    t, chart = point
    m = len(chart)
    rows = [[int(r == c) for c in range(m)] + list(row) for r, row in enumerate(chart)]
    return [[t * x for x in rows[0]]] + rows[1:] if rows else []
