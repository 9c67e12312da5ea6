"""Initial seeds for partial flag varieties and Grassmannians.

The flag seed comes from a staircase arrangement of n L-shaped pseudolines on
the [0,n] x [0,n] board: line i runs from (i,0) up to (i, sigma(i)) and then
left to (0, sigma(i)).  Every unit cell is labeled by the set of lines
passing north-east of it, and a face is the class of cells with one label.
Bounded faces away from the x-axis are the seed vertices, and every cell
maps straight to its face's vertex id; faces touching the y-axis are
frozen.  Every arrow comes from one rule, applied along boundaries,
crossings and the spots where levels separate: one arrow per run of equal
consecutive (source, target) face pairs.  A face's label decodes into its
interval data (i1, d1, i2, d2), the row set [i1, d1] u [i2, d2] of an
initial minor (one interval when i2 = 0), and ``face_entry`` is the one
place that picks the minor's lift to Plucker coordinates with its leading
tableau: one coordinate for a unit vertex E_d, a single interval or a pair
whose second interval ends at n, a Laplace expansion for any other pair.
Decoding merges consecutive entries, so no face has adjacent intervals, and
the Laplace expansion refuses them and full-height pairs.  Lifts and
their padded forms depend only on a face's key, n and d_k, so the
process-level memo ``face_entry`` builds each of them once for every flag
type that shares it.

The Grassmannian seed is the familiar grid of solid minors; for one-step
flags both constructions agree vertex-for-vertex and arrow-for-arrow, which
is one of the cross-checks in the test suite.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Sequence

from . import tableaux as tb
from .plucker import PluckerPoly, phi_star
from .quiver import Quiver, Seed, VariableState, Vertex


class FlagError(ValueError):
    pass


class FlagType:
    """A partial flag variety type: dimensions d_1 < ... < d_k inside n."""

    __slots__ = ("dims", "n")

    def __init__(self, dims: Sequence[int], n: int):
        dims = tuple(dims)
        if not dims:
            raise FlagError("at least one dimension required")
        if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
            raise FlagError("dimensions must strictly increase")
        if dims[0] < 1 or dims[-1] >= n:
            raise FlagError("need 1 <= d_1 < ... < d_k < n")
        self.dims = dims
        self.n = n

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def extended(self) -> tuple[int, ...]:
        """(0, d_1, ..., d_k, n)."""
        return (0,) + self.dims + (self.n,)

    @property
    def target_grassmannian(self) -> tuple[int, int]:
        """(rows, ambient) of the Grassmannian the flag ring embeds into."""
        dk = self.dims[-1]
        return dk, self.n + dk - self.dims[0]

    def heading(self) -> str:
        """``flag (d_1,...,d_k; n) in Gr(k'; N)``, the first line of a run
        or a report."""
        return "flag (%s; %d) in Gr(%d; %d)" % (
            ",".join(map(str, self.dims)), self.n, *self.target_grassmannian
        )

    def dimension_count(self) -> int:
        """Number of arrangement faces kept: sum d_i (d_{i+1} - d_i)."""
        ext = self.extended
        return sum(ext[i] * (ext[i + 1] - ext[i]) for i in range(1, len(ext) - 1))

    def __repr__(self):
        return "FlagType(%s; %d)" % (",".join(map(str, self.dims)), self.n)

    def __eq__(self, other):
        return isinstance(other, FlagType) and self.dims == other.dims and self.n == other.n

    def __hash__(self):
        return hash((self.dims, self.n))


def sigma_draw(flag: FlagType) -> tuple[int, ...]:
    """Heights of the pseudolines: within the block (d_{j-1}, d_j] the line
    through column i rises to i - d_{j-1} + n - d_j.  (This is the inverse of
    the block-rotated word; the inverse is what the drawings show.)"""
    ext = flag.extended
    n = flag.n
    sigma = [0] * (n + 1)  # 1-based
    for b in range(1, len(ext)):
        lo, hi = ext[b - 1], ext[b]
        for i in range(lo + 1, hi + 1):
            sigma[i] = i - lo + n - hi
    return tuple(sigma[1:])


class Face:
    __slots__ = ("index_set", "frozen")

    def __init__(self, index_set: tuple[int, ...], frozen: bool):
        self.index_set = index_set
        self.frozen = frozen

    def __repr__(self):
        return "Face(%s%s)" % (set(self.index_set), ", frozen" if self.frozen else "")


class Arrangement:
    """Faces of the staircase arrangement plus a cell-level lookup table.

    Unit cell (x, y) spans (x, x+1) x (y, y+1) and is labeled by the lines
    passing north-east of it, {i > x : sigma(i) > y}; a face is a class of
    cells with one label.  This is exact: two side-by-side cells have
    different labels exactly when a line segment separates them (line x+1
    rises past y, or the line of height y+1 turns left past x), and a label
    class is connected, since labels shrink to the north-east, so the join
    (max x, max y) of two cells labeled L is labeled L, and so is every cell
    on a monotone path up to it.  Classes with the empty label or touching
    the x-axis are discarded; those touching the y-axis are frozen.

    ``faces`` is sorted by label size, then label, and a face's index in it
    is its seed-vertex id; ``cell_face`` maps every cell to the id of its
    face, or to None for a discarded cell.
    """

    def __init__(self, flag: FlagType):
        self.flag = flag
        n = flag.n
        sigma = sigma_draw(flag)
        self.sigma = sigma
        inv = [0] * (n + 1)
        for i, s in enumerate(sigma, start=1):
            inv[s] = i
        self.sigma_inv = tuple(inv[1:])

        groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for x in range(n):
            for y in range(n):
                label = tuple(i for i in range(x + 1, n + 1) if sigma[i - 1] > y)
                groups.setdefault(label, []).append((x, y))

        kept = sorted(
            (label for label, cells in groups.items() if label and all(y for _, y in cells)),
            key=lambda label: (len(label), label),
        )
        self.faces = [Face(label, any(x == 0 for x, _ in groups[label])) for label in kept]
        vertex_id = {label: vid for vid, label in enumerate(kept)}
        self.cell_face: dict[tuple[int, int], int | None] = {
            c: vertex_id.get(label) for label, cells in groups.items() for c in cells
        }

        expected = flag.dimension_count()
        if len(kept) != expected:
            raise FlagError("face count %d, expected %d" % (len(kept), expected))
        frozen = sum(1 for f in self.faces if f.frozen)
        if frozen != n - 1:
            raise FlagError("frozen face count %d, expected %d" % (frozen, n - 1))

    def face_at(self, x: int, y: int) -> int | None:
        """The vertex id of the face holding cell (x, y), if it is kept."""
        return self.cell_face.get((x, y))


def decompose_index_set(index_set: Sequence[int], flag: FlagType) -> tuple[int, int, int, int]:
    """Split a face label into its interval data (i1, d1, i2, d2); a single
    interval is reported with i2 = d2 = 0."""
    idx = tuple(index_set)
    if not idx:
        raise FlagError("empty index set")
    runs: list[tuple[int, int]] = []
    start = prev = idx[0]
    for x in idx[1:]:
        if x == prev + 1:
            prev = x
        else:
            runs.append((start, prev))
            start = prev = x
    runs.append((start, prev))
    dims = set(flag.dims)
    if len(runs) == 1:
        i, d = runs[0]
        if d not in dims:
            raise FlagError("interval %s does not end at a flag dimension" % (runs[0],))
        return i, d, 0, 0
    if len(runs) == 2:
        (i1, d1), (i2, d2) = runs
        pos = flag.dims.index(d1) if d1 in dims else -1
        nxt = flag.extended[pos + 2] if pos >= 0 else -1
        if pos < 0 or d2 != nxt:
            raise FlagError("intervals %s do not end at consecutive levels" % (runs,))
        return i1, d1, i2, d2
    raise FlagError("more than two intervals in %s" % (idx,))


def interval_index_set(i: int, d: int, n: int) -> tuple[int, ...]:
    """Index set [1, i-1] u [n-d+i, n]: the coordinate of a solid minor whose
    row interval ends at level d."""
    if not (1 <= i <= d <= n):
        raise FlagError("need 1 <= i <= d <= n")
    return tuple(range(1, i)) + tuple(range(n - d + i, n + 1))


def laplace_initial_minor(i1: int, d1: int, i2: int, d2: int, n: int) -> tuple[PluckerPoly, tb.Tableau]:
    """Lift of the minor with row set [i1, d1] u [i2, d2], two separated
    intervals with d2 < n, as a quadratic expression in Plucker coordinates,
    with its leading tableau of two columns
        col1 = [1, i2-1] u [n-d2+i2, n]                   (height d2)
        col2 = [1, i1-1] u [n-d2-d1+i2+i1-1, n-d2+i2-1]  (height d1)

    Expansion: sum over J inside [l, n] of size d1-i1+1 (l = n-d1-d2+i1+i2-1)
    of +- P_{[1,i1-1] u J} P_{[1,i2-1] u J^c}; terms with repeated indices
    vanish.  The global sign is normalized so that the standard monomial of
    the leading tableau has coefficient +1.
    """
    if not (1 <= i1 <= d1 and d1 + 1 < i2 <= d2 < n):
        raise FlagError("need 1 <= i1 <= d1, d1 + 1 < i2 <= d2 < n")
    low = n - d1 - d2 + i1 + i2 - 1
    window = range(low, n + 1)
    size = d1 - i1 + 1
    base_sign = sum(range(i1, d1 + 1))
    head1 = tuple(range(1, i1))
    head2 = tuple(range(1, i2))
    terms = []
    for J in combinations(window, size):
        sign = (-1) ** (base_sign + sum(J))
        second = head2 + tuple(x for x in window if x not in J)
        terms.append(([head1 + J, second], sign))
    out = PluckerPoly(terms)
    lead = tb.from_columns([interval_index_set(i2, d2, n), interval_index_set(i1, d1, n - d2 + i2 - 1)])
    lead_coeff = out.coefficient(lead.columns())
    if lead_coeff == 0:
        raise FlagError("leading standard monomial missing from expansion")
    return (-out if lead_coeff < 0 else out), lead


@functools.cache
def face_entry(i1: int, d1: int, i2: int, d2: int, n: int, dk: int) -> tuple[PluckerPoly, tb.Tableau]:
    """The (polynomial, tableau) of the face with interval data (i1, d1, i2,
    d2) in n, or, for i1 = 0, of the unit vertex E_{d1}; for ``dk`` = d_k > 0
    padded into the target Grassmannian by phi-star.  E_d is P_{[1,d]}; a
    single interval (i1, d1, 0, 0), and a separated pair (i1, d1, i2, n)
    whose second factor is the full determinant, 1 on the unipotent patch,
    lift to the coordinate of the interval (i1, d1) inside n, or inside
    i2 - 1.  A malformed key, E_d outside 1 <= d < n, one interval with
    d2 != 0 or an adjacent full-height pair among them, raises FlagError.
    Built once per process for every flag type with these numbers; the
    entries are shared, so callers must not change them."""
    if dk:
        poly, tab = face_entry(i1, d1, i2, d2, n, 0)
        levels = {d1, d2, dk} - {0, n}  # the flag levels the lift's indices can have
        return phi_star(poly, levels, n), tb.fill_up(tab, levels, n)
    if i1 == 0 and not (1 <= d1 < n and i2 == d2 == 0):
        raise FlagError("need 1 <= d < n for the unit vertex E_d, got %s" % ((i1, d1, i2, d2, n),))
    if i2 == d2 == 0 or d1 + 1 < i2 <= d2 == n:
        idx = interval_index_set(i1, d1, i2 - 1 if i2 else n) if i1 else range(1, d1 + 1)
        return PluckerPoly.variable(idx), tb.one_column(idx)
    if i2 == 0 or d2 == n:
        raise FlagError("need d2 = 0 for one interval, d1 + 1 < i2 for a full-height pair, got %s"
                        % ((i1, d1, i2, d2, n),))
    return laplace_initial_minor(i1, d1, i2, d2, n)


def build_flag_quiver(arr: Arrangement, vertices: list[Vertex], unit_vertex: dict) -> Quiver:
    """Arrows of the arrangement quiver, each drawn by one rule: along a
    walk of (source, target) vertex pairs, one arrow per run of equal
    consecutive pairs; a pair missing a face, or inside one face, ends the
    run and draws nothing.

    The walks are: each vertical boundary bottom to top, pairs left ->
    right; each horizontal boundary left to right, pairs top -> bottom; each
    crossing of two lines alone, its south-east -> north-west face; and for
    each extra vertex E_d (the coordinate P_{[1,d]}, ``unit_vertex[d]``) the
    spot where levels d and d+1 separate, alone, once north-west face -> E_d
    and once E_d -> south-east face.
    """
    n, sigma, inv, at = arr.flag.n, arr.sigma, arr.sigma_inv, arr.face_at
    # line x separates cell columns x-1 and x below its top
    walks = [[(at(x - 1, y), at(x, y)) for y in range(sigma[x - 1])] for x in range(1, n)]
    # the line of height y separates rows y-1 and y to the left of its corner
    walks += [[(at(x, y), at(x, y - 1)) for x in range(inv[y - 1])] for y in range(1, n)]
    # line i crosses each later line whose corner is lower (line j + 1 turns at sigma[j])
    walks += [
        [(at(i, sigma[j] - 1), at(i - 1, sigma[j]))]
        for i in range(1, n + 1) for j in range(i, n) if sigma[j] < sigma[i - 1]
    ]
    for d, uid in unit_vertex.items():
        h = sigma[d]  # height of the first line of the next block
        walks += [[(at(d - 1, h), uid)], [(uid, at(d, h - 1))]]

    quiver = Quiver(vertices)
    for walk in walks:
        prev = None
        for pair in walk:
            if None in pair or pair[0] == pair[1]:
                pair = None
            elif pair != prev:
                quiver.add_arrow(*pair)
            prev = pair
    return quiver


class FlagSeed:
    """Initial seed of a partial flag variety, with face bookkeeping: vertex
    i is the face ``arrangement.faces[i]``, followed by one frozen vertex
    E_d per level d.  ``keys[i]`` is vertex i's ``face_entry`` key: a face's
    interval data, or (0, d, 0, 0) for E_d."""

    def __init__(self, flag: FlagType):
        self.flag = flag
        arr = Arrangement(flag)
        self.arrangement = arr
        faces = arr.faces
        self.unit_vertex = {d: len(faces) + j for j, d in enumerate(flag.dims)}
        vertices = [
            Vertex(vid, "F{%s}" % ",".join(map(str, face.index_set)), face.frozen)
            for vid, face in enumerate(faces)
        ]
        vertices += [Vertex(vid, "E%d" % d, True) for d, vid in self.unit_vertex.items()]
        self.keys = [decompose_index_set(face.index_set, flag) for face in faces]
        self.keys += [(0, d, 0, 0) for d in self.unit_vertex]
        entries = {vid: face_entry(*key, flag.n, 0) for vid, key in enumerate(self.keys)}
        quiver = build_flag_quiver(arr, vertices, self.unit_vertex)
        self.seed = Seed.initial(quiver, entries)


class GrassmannianSeed:
    """Rectangle seed of Gr_{k;n}: grid of solid minors, one extra frozen
    vertex for P_{[1,k]}."""

    def __init__(self, k: int, n: int):
        if not (1 <= k < n):
            raise FlagError("need 1 <= k < n")
        self.k = k
        self.n = n
        self.rows = n - k
        self.cols = k

        vertices = []
        entries = {}
        self.grid: dict[tuple[int, int], int] = {}
        for r in range(1, self.rows + 1):
            for c in range(1, self.cols + 1):
                vid = len(vertices)
                idx = interval_index_set(c, k, n - r + 1)
                vertices.append(Vertex(vid, "r%dc%d" % (r, c), r == 1 or c == 1))
                entries[vid] = (PluckerPoly.variable(idx), tb.one_column(idx))
                self.grid[(r, c)] = vid
        self.extra_id = len(vertices)
        vertices.append(Vertex(self.extra_id, "unit", True))
        unit = range(1, k + 1)
        entries[self.extra_id] = (PluckerPoly.variable(unit), tb.one_column(unit))

        quiver = Quiver(vertices)
        for r in range(1, self.rows + 1):
            for c in range(1, self.cols + 1):
                v = self.grid[(r, c)]
                if c < self.cols:
                    quiver.add_arrow(v, self.grid[(r, c + 1)])
                if r < self.rows:
                    quiver.add_arrow(v, self.grid[(r + 1, c)])
                if r > 1 and c > 1:
                    quiver.add_arrow(v, self.grid[(r - 1, c - 1)])
        quiver.add_arrow(self.grid[(self.rows, self.cols)], self.extra_id)
        self.seed = Seed.initial(quiver, entries)

    def vertex_at(self, r: int, c: int) -> int:
        try:
            return self.grid[(r, c)]
        except KeyError:
            raise FlagError("no grid vertex (%d, %d)" % (r, c)) from None

    def label_of(self, vid: int) -> int:
        """Figure-style label: column-major from the bottom-right corner;
        the extra vertex gets the largest label.  Grid ids run row-major
        from 0, so the grid position is read off the id."""
        if vid == self.extra_id:
            return self.rows * self.cols + 1
        if not 0 <= vid < self.extra_id:
            raise FlagError("unknown vertex %d" % vid)
        r, c = divmod(vid, self.cols)  # zero-based
        return self.rows * (self.cols - 1 - c) + (self.rows - r)


def embedded_flag_seed(flag_seed: FlagSeed) -> Seed:
    """The flag seed pushed into its target Grassmannian: polynomials get
    phi-star applied and tableaux are padded to height d_k, so the seed is
    graded by degree.  Laurent data and the quiver are unchanged."""
    flag, seed = flag_seed.flag, flag_seed.seed
    padded = [face_entry(*key, flag.n, flag.dims[-1]) for key in flag_seed.keys]
    variables = {
        vid: VariableState(st.laurent, padded[vid][1]) for vid, st in seed.variables.items()
    }
    return Seed(seed.quiver, variables, {vid: padded[vid][0] for vid in seed.dictionary})
