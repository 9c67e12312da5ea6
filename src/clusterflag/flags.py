"""Initial seeds for partial flag varieties and Grassmannians.

The flag seed comes from a staircase arrangement of n L-shaped pseudolines on
the [0,n] x [0,n] board: line i runs from (i,0) up to (i, sigma(i)) and then
left to (0, sigma(i)).  Bounded regions away from the x-axis are the seed
vertices; regions touching the y-axis are frozen.  Every region is labeled by
the set of lines passing north-east of it, and that label decodes into an
explicit quadratic (or monomial) lift in Plucker coordinates.

The Grassmannian seed is the familiar grid of solid minors; for one-step
flags both constructions agree vertex-for-vertex and arrow-for-arrow, which
is one of the cross-checks in the test suite.
"""

from __future__ import annotations

from typing import Sequence

from . import tableaux as tb
from .plucker import (
    PluckerPoly,
    interval_minor_to_plucker,
    laplace_initial_minor,
    phi_star,
)
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
    """Faces of the staircase arrangement plus cell-level lookup tables."""

    def __init__(self, flag: FlagType):
        self.flag = flag
        n = flag.n
        sigma = sigma_draw(flag)
        self.sigma = sigma
        inv = [0] * (n + 1)
        for i, s in enumerate(sigma, start=1):
            inv[s] = i
        self.sigma_inv = tuple(inv[1:])

        # merge unit cells into faces; cell (x, y) spans (x,x+1) x (y,y+1)
        parent = list(range(n * n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def join(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        def cid(x: int, y: int) -> int:
            return x * n + y

        for x in range(n):
            for y in range(n):
                if x + 1 < n and y >= sigma[x]:  # line x+1 stops below: open to the right
                    join(cid(x, y), cid(x + 1, y))
                if y + 1 < n and x >= inv[y + 1]:  # line of height y+1 stops left
                    join(cid(x, y), cid(x, y + 1))

        groups: dict[int, list[tuple[int, int]]] = {}
        for x in range(n):
            for y in range(n):
                groups.setdefault(find(cid(x, y)), []).append((x, y))

        def label(x: int, y: int) -> tuple[int, ...]:
            return tuple(i for i in range(1, n + 1) if i > x and sigma[i - 1] > y)

        self.cell_face: dict[tuple[int, int], Face | None] = {}
        faces = []
        for cells in groups.values():
            labels = {label(x, y) for (x, y) in cells}
            if len(labels) != 1:
                raise FlagError("face with inconsistent line labels: %s" % labels)
            index_set = labels.pop()
            touches_x = any(y == 0 for (_, y) in cells)
            touches_y = any(x == 0 for (x, _) in cells)
            if not index_set or touches_x:
                for c in cells:
                    self.cell_face[c] = None
                continue
            face = Face(index_set, touches_y)
            faces.append(face)
            for c in cells:
                self.cell_face[c] = face
        faces.sort(key=lambda f: (len(f.index_set), f.index_set))
        self.faces = faces

        expected = flag.dimension_count()
        if len(faces) != expected:
            raise FlagError("face count %d, expected %d" % (len(faces), expected))
        frozen = sum(1 for f in faces if f.frozen)
        if frozen != n - 1:
            raise FlagError("frozen face count %d, expected %d" % (frozen, n - 1))
        if len({f.index_set for f in faces}) != len(faces):
            raise FlagError("face index sets are not distinct")

    def face_at(self, x: int, y: int) -> Face | None:
        return self.cell_face.get((x, y))


def initial_index_sets(flag: FlagType) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Closed-form list of the face labels: for each level pair
    (d_j, d_{j+1}) and i in [1, d_j], the bare interval [i, d_j] and the
    two-interval sets [i, d_j] u [i', d_{j+1}] with i' in [d_j + 2, d_{j+1}].

    Returns (mutable, frozen); frozen are the sets with i = 1 together with
    the bare intervals ending at d_1.
    """
    ext = flag.extended
    mutable: list[tuple[int, ...]] = []
    frozen: list[tuple[int, ...]] = []
    for b in range(1, len(ext) - 1):
        dj, dnext = ext[b], ext[b + 1]
        for i in range(1, dj + 1):
            bare = tuple(range(i, dj + 1))
            if i == 1 or dj == ext[1]:
                frozen.append(bare)
            else:
                mutable.append(bare)
            for i2 in range(dj + 2, dnext + 1):
                two = bare + tuple(range(i2, dnext + 1))
                if i == 1:
                    frozen.append(two)
                else:
                    mutable.append(two)
    return mutable, frozen


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


def lift_index_set(index_set: Sequence[int], flag: FlagType) -> tuple[PluckerPoly, tb.Tableau]:
    """The seed variable attached to a face label: a Plucker polynomial on
    the flag variety together with its leading tableau."""
    n = flag.n
    i1, d1, i2, d2 = decompose_index_set(index_set, flag)
    if i2 == 0:
        poly = interval_minor_to_plucker(i1, d1, n)
        tab = tb.one_column(tb.interval_index_set(i1, d1, n))
        return poly, tab
    poly = laplace_initial_minor(i1, d1, i2, d2, n)
    tab = tb.initial_tableau(i1, d1, i2, d2, n)
    return poly, tab


def weight_of_index_set(index_set: Sequence[int], flag: FlagType) -> tuple[int, ...]:
    """Grading vector: coordinate j is 1 exactly when d_j lies in the set
    and d_j + 1 does not."""
    s = set(index_set)
    return tuple(1 if (d in s and (d + 1) not in s) else 0 for d in flag.dims)


def arrangement_vertices(arr: Arrangement):
    """Deterministic vertex layout: faces sorted by label, then one extra
    frozen vertex per flag level.  Returns (vertices, face_vertex, unit_vertex)."""
    vertices: list[Vertex] = []
    face_vertex: dict[tuple[int, ...], int] = {}
    unit_vertex: dict[int, int] = {}
    vid = 0
    for face in arr.faces:
        name = "F{%s}" % ",".join(map(str, face.index_set))
        vertices.append(Vertex(vid, name, face.frozen))
        face_vertex[face.index_set] = vid
        vid += 1
    for d in arr.flag.dims:
        vertices.append(Vertex(vid, "E%d" % d, True))
        unit_vertex[d] = vid
        vid += 1
    return vertices, face_vertex, unit_vertex


def build_flag_quiver(
    arr: Arrangement, vertices: list[Vertex], face_vertex: dict, unit_vertex: dict
) -> Quiver:
    """Arrows of the arrangement quiver.

    Neighboring faces get one arrow per shared boundary run: left to right
    across vertical runs, top to bottom across horizontal runs.  Each
    crossing of two lines adds an arrow from its south-east face to its
    north-west face.  Finally each extra vertex (the coordinate P_{[1,d]})
    receives an arrow from the face north-west of the spot where levels d
    and d+1 separate, and emits one to the face south-east of it.  The
    vertices and their lookups are those of ``arrangement_vertices``.
    """
    quiver = Quiver(vertices)
    n = arr.flag.n
    sigma = arr.sigma
    inv = arr.sigma_inv

    def fid(face: Face | None) -> int | None:
        return None if face is None else face_vertex[face.index_set]

    # vertical boundaries: line x separates cell columns x-1 and x below its top
    for x in range(1, n):
        prev_pair = None
        for y in range(n):
            pair = None
            if y < sigma[x - 1]:
                left = fid(arr.face_at(x - 1, y))
                right = fid(arr.face_at(x, y))
                if left is not None and right is not None and left != right:
                    pair = (left, right)
            if pair is not None and pair != prev_pair:
                quiver.add_arrow(pair[0], pair[1])
            prev_pair = pair

    # horizontal boundaries: the line of height y separates rows y-1 and y
    # to the left of its corner
    for y in range(1, n):
        prev_pair = None
        for x in range(n):
            pair = None
            if x < inv[y - 1]:
                lower = fid(arr.face_at(x, y - 1))
                upper = fid(arr.face_at(x, y))
                if lower is not None and upper is not None and lower != upper:
                    pair = (upper, lower)
            if pair is not None and pair != prev_pair:
                quiver.add_arrow(pair[0], pair[1])
            prev_pair = pair

    # crossings
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if sigma[j - 1] < sigma[i - 1]:
                x, y = i, sigma[j - 1]
                se = fid(arr.face_at(x, y - 1))
                nw = fid(arr.face_at(x - 1, y))
                if se is not None and nw is not None and se != nw:
                    quiver.add_arrow(se, nw)

    # extra vertices
    for d in arr.flag.dims:
        uid = unit_vertex[d]
        h = sigma[d]  # height of the first line of the next block
        src = fid(arr.face_at(d - 1, h))
        dst = fid(arr.face_at(d, h - 1))
        if src is not None:
            quiver.add_arrow(src, uid)
        if dst is not None:
            quiver.add_arrow(uid, dst)
    return quiver


class FlagSeed:
    """Initial seed of a partial flag variety, with face bookkeeping."""

    def __init__(self, flag: FlagType):
        self.flag = flag
        arr = Arrangement(flag)
        self.arrangement = arr
        vertices, self.face_vertex, self.unit_vertex = arrangement_vertices(arr)
        quiver = build_flag_quiver(arr, vertices, self.face_vertex, self.unit_vertex)

        entries = {}
        for face in arr.faces:
            entries[self.face_vertex[face.index_set]] = (
                *lift_index_set(face.index_set, flag),
                weight_of_index_set(face.index_set, flag),
            )
        for j, d in enumerate(flag.dims):
            prefix = range(1, d + 1)
            entries[self.unit_vertex[d]] = (
                PluckerPoly.variable(prefix),
                tb.one_column(prefix),
                tuple(1 if t == j else 0 for t in range(flag.k)),
            )
        self.seed = Seed.initial(quiver, entries, flag.k)


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
                idx = tuple(range(1, c)) + tuple(range(n - k + c - r + 1, n - r + 2))
                vertices.append(Vertex(vid, "r%dc%d" % (r, c), r == 1 or c == 1))
                entries[vid] = (PluckerPoly.variable(idx), tb.one_column(idx), (1,))
                self.grid[(r, c)] = vid
        self.extra_id = len(vertices)
        vertices.append(Vertex(self.extra_id, "unit", True))
        unit = range(1, k + 1)
        entries[self.extra_id] = (PluckerPoly.variable(unit), tb.one_column(unit), (1,))

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
        self.seed = Seed.initial(quiver, entries, 1)

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
    phi-star applied and tableaux are padded to full height.  Laurent data,
    weights and the quiver are unchanged."""
    flag = flag_seed.flag
    seed = flag_seed.seed
    dictionary = {
        vid: phi_star(poly, flag.dims, flag.n) for vid, poly in seed.dictionary.items()
    }
    variables = {
        vid: VariableState(
            st.laurent, tb.fill_up(st.tableau, flag.dims, flag.n), st.weight
        )
        for vid, st in seed.variables.items()
    }
    return Seed(seed.quiver, variables, dictionary, seed.weight_rank)
