"""Staircase arrangements, flag and Grassmannian initial seeds, embedding."""

import itertools
import random

import pytest

from clusterflag.cli import seed_to_dict
from clusterflag.flags import (
    Arrangement,
    FlagError,
    FlagSeed,
    FlagType,
    GrassmannianSeed,
    decompose_index_set,
    embedded_flag_seed,
    face_entry,
    interval_index_set,
    laplace_initial_minor,
    sigma_draw,
)
from clusterflag.plucker import DEFAULT_PRIME, PluckerError, PluckerPoly, phi_star
from clusterflag.programs import general_flag_program, run_program
from clusterflag.quiver import tableau_weight
from clusterflag.tableaux import Tableau, TableauError, fill_up, one_column

from support import (
    all_flag_types,
    arrangement_regions,
    check_semistandard,
    column_weight,
    initial_index_sets,
    laurent_grading_problems,
    minors,
    pattern_minor,
    quiver_differences,
    random_unipotent_point,
    seeds_equal,
    weight_of_index_set,
)


# -- flag types ---------------------------------------------------------------


def test_flag_type_validation():
    f = FlagType((2, 4), 6)
    assert f.k == 2
    assert f.extended == (0, 2, 4, 6)
    assert f.target_grassmannian == (4, 8)
    assert f.dimension_count() == 2 * 2 + 4 * 2
    for bad in [((), 5), ((0, 2), 5), ((2, 2), 5), ((3, 2), 5), ((2, 5), 5)]:
        with pytest.raises(FlagError):
            FlagType(*bad)


def test_sigma_draw_small_cases():
    assert sigma_draw(FlagType((2,), 4)) == (3, 4, 1, 2)
    assert sigma_draw(FlagType((2, 4), 5)) == (4, 5, 2, 3, 1)
    assert sigma_draw(FlagType((1, 2), 3)) == (3, 2, 1)


def test_sigma_draw_is_permutation():
    for flag in all_flag_types(9, 3):
        sigma = sigma_draw(flag)
        assert sorted(sigma) == list(range(1, flag.n + 1))
        # descents exactly inside blocks: sigma increases within each block
        ext = flag.extended
        for b in range(1, len(ext)):
            for i in range(ext[b - 1] + 1, ext[b]):
                assert sigma[i - 1] < sigma[i]


# -- arrangement faces ----------------------------------------------------------


def test_square_grassmannian_faces():
    arr = Arrangement(FlagType((2,), 4))
    labels = {f.index_set: f.frozen for f in arr.faces}
    assert labels == {
        (2,): True,
        (1, 2): True,
        (1, 2, 4): True,
        (2, 4): False,
    }


def test_faces_match_closed_form_lists():
    for flag in all_flag_types(8, 3):
        arr = Arrangement(flag)
        mutable, frozen = initial_index_sets(flag)
        got_mut = sorted(f.index_set for f in arr.faces if not f.frozen)
        got_fro = sorted(f.index_set for f in arr.faces if f.frozen)
        assert got_mut == sorted(mutable)
        assert got_fro == sorted(frozen)
        assert len(arr.faces) == flag.dimension_count()


def test_faces_are_flood_filled_regions():
    """Faces are the regions off the x-axis other than the outer one (north-
    east of every line, so it holds the top-right cell); frozen faces touch
    the y-axis."""
    for flag in all_flag_types(9, 8):
        arr = Arrangement(flag)
        n = flag.n
        kept = {
            region: any(x == 0 for x, _ in region)
            for region in arrangement_regions(flag)
            if (n - 1, n - 1) not in region and all(y for _, y in region)
        }
        cells: dict = {}
        for cell, vid in arr.cell_face.items():
            cells.setdefault(vid, []).append(cell)
        dropped = cells.pop(None, [])
        assert sorted(cells) == list(range(len(arr.faces)))
        got = {frozenset(c): arr.faces[vid].frozen for vid, c in cells.items()}
        assert got == kept
        assert sorted(dropped) == sorted(
            set(itertools.product(range(n), repeat=2)).difference(*kept)
        )


def test_face_lookup_by_cell():
    arr = Arrangement(FlagType((2,), 4))
    # bottom row of cells is always discarded
    assert all(arr.face_at(x, 0) is None for x in range(4))
    vid = arr.face_at(1, 1)
    assert vid is not None and arr.faces[vid].index_set == (2, 4)


# -- index set decomposition and lifts ----------------------------------------------


def test_decompose_index_set():
    flag = FlagType((2, 4), 6)
    assert decompose_index_set((2,), flag) == (2, 2, 0, 0)
    assert decompose_index_set((2, 3, 4), flag) == (2, 4, 0, 0)
    assert decompose_index_set((2, 4), flag) == (2, 2, 4, 4)
    assert decompose_index_set((1, 2, 4), flag) == (1, 2, 4, 4)
    with pytest.raises(FlagError):
        decompose_index_set((), flag)
    with pytest.raises(FlagError):
        decompose_index_set((3,), flag)             # ends at no flag level
    with pytest.raises(FlagError):
        decompose_index_set((1, 3, 5), flag)        # three runs
    with pytest.raises(FlagError):
        decompose_index_set((2, 5), flag)           # second run at wrong level


def test_face_keys_and_entries():
    """A flag seed's keys are its faces' interval data, then (0, d, 0, 0)
    per level; a single interval lifts to one coordinate, two separated
    ones to their Laplace expansion, or to one coordinate when the second
    ends at n, and E_d to P_{[1,d]}."""
    flag = FlagType((2, 4), 5)
    fs = FlagSeed(flag)
    faces = fs.arrangement.faces
    assert fs.keys == [decompose_index_set(f.index_set, flag) for f in faces] + [(0, 2, 0, 0), (0, 4, 0, 0)]
    key = {face.index_set: k for face, k in zip(faces, fs.keys)}
    assert face_entry(*key[(2,)], 5, 0) == (PluckerPoly.variable((1, 5)), one_column([1, 5]))
    assert face_entry(*key[(2, 4)], 5, 0) == laplace_initial_minor(2, 2, 4, 4, 5)
    assert face_entry(0, 4, 0, 0, 5, 0) == (PluckerPoly.variable((1, 2, 3, 4)), one_column([1, 2, 3, 4]))
    for vid, k in enumerate(fs.keys):
        assert fs.seed.dictionary[vid] == face_entry(*k, 5, 0)[0]
    # full height: the face {1,2,4,5} of (2; 5) is the minor on rows 1, 2, 4, 5
    assert (1, 2, 4, 5) in FlagSeed(FlagType((2,), 5)).keys
    assert face_entry(1, 2, 4, 5, 5, 0) == (PluckerPoly.variable((2, 3)), one_column([2, 3]))


def test_interval_index_set():
    assert interval_index_set(1, 3, 6) == (4, 5, 6)
    assert interval_index_set(2, 2, 5) == (1, 5)
    assert interval_index_set(3, 3, 3) == (1, 2, 3)
    with pytest.raises(TableauError):
        interval_index_set(4, 3, 6)


def test_leading_tableau_examples():
    assert face_entry(1, 2, 4, 4, 5, 0)[1] == Tableau([[1, 3], [2, 4], [3], [5]])
    assert face_entry(1, 2, 4, 4, 6, 0)[1] == Tableau([[1, 4], [2, 5], [3], [6]])
    # full height: one column
    assert face_entry(1, 2, 4, 5, 5, 0)[1] == one_column([2, 3])
    # refused: adjacent intervals, which no face key has, and i1 > d1
    for key in [(1, 2, 3, 4, 6), (2, 2, 3, 4, 6), (3, 2, 4, 4, 6)]:
        with pytest.raises(PluckerError):
            face_entry(*key, 0)


def test_leading_tableau_column_structure():
    for n in range(5, 9):
        for d1 in range(1, n):
            for d2 in range(d1 + 1, n):
                for i1 in range(1, d1 + 1):
                    for i2 in range(d1 + 2, d2 + 1):
                        t = face_entry(i1, d1, i2, d2, n, 0)[1]
                        assert t.shape.count(2) == d1
                        assert t.num_rows == d2
                        assert check_semistandard(t.rows)


def test_weight_of_index_set():
    """Hand-worked values of the closed-form oracle in ``support``."""
    flag = FlagType((2, 4), 6)
    assert weight_of_index_set((2,), flag) == (1, 0)
    assert weight_of_index_set((1, 2, 4), flag) == (1, 1)
    assert weight_of_index_set((2, 3, 4), flag) == (0, 1)
    assert weight_of_index_set((1, 2, 3), flag) == (0, 0)   # 2 and 3 both in


# -- flag seeds -------------------------------------------------------------------


def test_flag_seed_counts_and_balance():
    for flag in all_flag_types(7, 3):
        fs = FlagSeed(flag)
        seed = fs.seed
        mutable, frozen = initial_index_sets(flag)
        assert len(seed.mutable_ids()) == len(mutable)
        assert len(seed.variables) == len(mutable) + len(frozen) + flag.k
        assert seed.is_balanced() == []


def test_unit_vertices_carry_prefix_columns():
    fs = FlagSeed(FlagType((2, 4), 6))
    for j, d in enumerate(fs.flag.dims):
        vid = fs.unit_vertex[d]
        st = fs.seed.variables[vid]
        assert st.tableau == one_column(range(1, d + 1))
        assert tableau_weight(st.tableau, fs.seed.heights) == ((1, 0) if j == 0 else (0, 1))
        assert fs.seed.quiver.vertices[vid].frozen


def test_flag_seed_weights_match_closed_form():
    """The weight read off each tableau equals the closed form of its face
    label, and each unit vertex E_d has weight 1 at level d only."""
    checked = 0
    for flag in all_flag_types(7, 6):
        fs = FlagSeed(flag)
        assert fs.seed.heights == flag.dims
        expect = {
            vid: weight_of_index_set(f.index_set, flag)
            for vid, f in enumerate(fs.arrangement.faces)
        }
        for j, d in enumerate(flag.dims):
            expect[fs.unit_vertex[d]] = tuple(int(t == j) for t in range(flag.k))
        assert expect.keys() == fs.seed.variables.keys()
        for vid, st in fs.seed.variables.items():
            assert tableau_weight(st.tableau, fs.seed.heights) == expect[vid], (flag, vid)
            checked += 1
    assert checked > 1000


def test_flag_seed_dictionary_matches_unipotent_minors():
    """Every face variable evaluates, on the unipotent patch, to the minor
    on its label rows and the last columns."""
    rng = random.Random(17)
    for dims, n in [((2, 4), 5), ((2, 4), 6), ((3, 5), 7), ((1, 3, 5), 6)]:
        flag = FlagType(dims, n)
        fs = FlagSeed(flag)
        for _ in range(3):
            matrix = random_unipotent_point(dims, n, DEFAULT_PRIME, rng)
            pt = minors(matrix, DEFAULT_PRIME)
            for vid, face in enumerate(fs.arrangement.faces):
                got = fs.seed.dictionary[vid].evaluate(pt, DEFAULT_PRIME)
                assert got == pattern_minor(matrix, face.index_set, DEFAULT_PRIME)


def test_rank_one_flag_equals_grassmannian_seed():
    for k, n in [(2, 4), (2, 5), (3, 6)]:
        fs = FlagSeed(FlagType((k,), n))
        gr = GrassmannianSeed(k, n)
        by_tab = {st.tableau: vid for vid, st in gr.seed.variables.items()}
        mapping = {
            vid: by_tab[st.tableau] for vid, st in fs.seed.variables.items()
        }
        assert len(set(mapping.values())) == len(mapping)
        assert seeds_equal(fs.seed, gr.seed, mapping) == []
        for vid, poly in fs.seed.dictionary.items():
            assert poly == gr.seed.dictionary[mapping[vid]]


# -- Grassmannian rectangle seed -----------------------------------------------------


def test_square_seed_layout():
    gr = GrassmannianSeed(2, 4)
    assert gr.rows == 2 and gr.cols == 2
    idx_of = {rc: gr.seed.dictionary[vid] for rc, vid in gr.grid.items()}
    assert idx_of[(1, 1)] == PluckerPoly.variable((3, 4))
    assert idx_of[(1, 2)] == PluckerPoly.variable((1, 4))
    assert idx_of[(2, 1)] == PluckerPoly.variable((2, 3))
    assert idx_of[(2, 2)] == PluckerPoly.variable((1, 3))
    assert gr.seed.dictionary[gr.extra_id] == PluckerPoly.variable((1, 2))
    assert gr.seed.mutable_ids() == [gr.vertex_at(2, 2)]
    assert gr.seed.is_balanced() == []


def test_grid_labels_round_trip():
    gr = GrassmannianSeed(4, 8)
    assert gr.label_of(gr.extra_id) == gr.rows * gr.cols + 1
    seen = set()
    for rc, vid in gr.grid.items():
        lab = gr.label_of(vid)
        r, c = rc
        # column-major from the bottom-right corner
        assert lab == gr.rows * (gr.cols - c) + (gr.rows - r + 1)
        seen.add(lab)
    assert seen == set(range(1, gr.rows * gr.cols + 1))
    # bottom-right corner carries label 1
    assert gr.label_of(gr.vertex_at(gr.rows, gr.cols)) == 1
    with pytest.raises(FlagError):
        gr.vertex_at(0, 1)


def test_square_labels():
    gr = GrassmannianSeed(2, 4)
    labels = {rc: gr.label_of(vid) for rc, vid in gr.grid.items()}
    assert labels == {(1, 1): 4, (2, 1): 3, (1, 2): 2, (2, 2): 1}


def test_grassmannian_seed_balance_sweep():
    for k in (2, 3):
        for n in range(k + 1, k + 6):
            gr = GrassmannianSeed(k, n)
            assert gr.seed.is_balanced() == []
            frozen = [v for v in gr.seed.quiver.vertices.values() if v.frozen]
            assert len(frozen) == gr.rows + gr.cols            # row 1, col 1, unit


# -- the Laurent track graded by the tableau track ----------------------------------
#
# Each initial variable i carries a weight w_i, so every Laurent monomial has
# a weighted degree sum e_i * w_i.  A mutated variable is homogeneous, and its
# degree is the weight its tableau gives: every term of its expansion must
# have that degree.


def test_grid_program_laurent_terms_have_tableau_weight():
    mutated = 0
    for flag in all_flag_types(7, 6):
        gr = GrassmannianSeed(*flag.target_grassmannian)
        heights = (gr.k,)
        seed = gr.seed
        initial = [(1,)] * seed.nvars       # every grid variable is one Plucker coordinate
        for step in general_flag_program(flag).mutations:
            vid = gr.vertex_at(step.row, step.col)
            seed = seed.mutate(vid)
            st = seed.variables[vid]
            assert laurent_grading_problems(st, initial, heights) == [], (flag, step)
            assert tableau_weight(st.tableau, seed.heights) == column_weight(st.tableau, heights)
            mutated += 1
    assert mutated == 472


def test_flag_seed_walks_laurent_terms_have_tableau_weight():
    rng = random.Random(808)
    walked = 0
    for flag in all_flag_types(6, 5):
        fs = FlagSeed(flag)
        seed = fs.seed
        initial = [None] * seed.nvars
        for vid, face in enumerate(fs.arrangement.faces):
            initial[vid] = weight_of_index_set(face.index_set, flag)
        for j, d in enumerate(flag.dims):
            initial[fs.unit_vertex[d]] = tuple(int(t == j) for t in range(flag.k))
        mutable = seed.mutable_ids()
        for _ in range(20 if mutable else 0):
            vid = rng.choice(mutable)
            seed = seed.mutate(vid)
            st = seed.variables[vid]
            assert laurent_grading_problems(st, initial, flag.dims) == [], (flag, vid)
            assert tableau_weight(st.tableau, seed.heights) == column_weight(st.tableau, flag.dims)
            walked += 1
    assert walked == 960


def test_seed_heights_are_its_column_heights():
    """A seed is graded by the column heights of its own tableaux: every
    tableau's columns are counted (``column_weight`` asserts that), and every
    height counts a column somewhere.  Checked on the grid, flag, embedded,
    endpoint and restricted seeds of every flag type with n <= 6."""

    def check(seed, expect):
        assert seed.heights == expect
        weights = [column_weight(st.tableau, seed.heights) for st in seed.variables.values()]
        assert all(map(sum, zip(*weights))), (expect, weights)

    for flag in all_flag_types(6, 5):
        gr = GrassmannianSeed(*flag.target_grassmannian)
        result = run_program(gr, general_flag_program(flag))
        k = (flag.dims[-1],)
        check(gr.seed, k)
        check(result.flag_seed, flag.dims)
        check(result.embedded, k)
        check(result.endpoint, k)
        check(result.restricted, k)


# -- the embedded flag seed ------------------------------------------------------------


def test_embedded_flag_seed():
    flag = FlagType((2, 4), 6)
    fs = FlagSeed(flag)
    emb = embedded_flag_seed(fs)
    assert quiver_differences(emb.quiver, fs.seed.quiver) == []
    for vid, st in emb.variables.items():
        plain = fs.seed.variables[vid]
        assert st.tableau == fill_up(plain.tableau, flag.dims, flag.n)
        assert st.tableau.num_rows == 4
        # degree-graded: the weight is the column count, the sum of the flag weight
        assert emb.heights == (4,)
        degree = sum(column_weight(plain.tableau, flag.dims))
        assert tableau_weight(st.tableau, emb.heights) == (degree,)
        assert st.laurent == plain.laurent
        assert emb.dictionary[vid] == phi_star(
            fs.seed.dictionary[vid], flag.dims, flag.n
        )
    assert emb.is_balanced() == []


def test_embedded_indices_have_full_size():
    flag = FlagType((2, 3, 5), 7)
    emb = embedded_flag_seed(FlagSeed(flag))
    for poly in emb.dictionary.values():
        for mono in poly.terms:
            assert all(len(idx) == 5 for idx in mono)


# -- the face memo ------------------------------------------------------------------


def test_warm_face_memo_builds_the_seeds_of_an_empty_one():
    """Every type with n <= 8, built in ``sweep`` order with the face memo
    warm, has the flag seed and embedded seed of a build made after the
    memo is emptied."""
    flags = [flag for flag in all_flag_types(8, 7) if flag.n >= 3]
    assert len(flags) == 246
    warm = []
    for flag in flags:
        fs = FlagSeed(flag)
        warm.append((seed_to_dict(fs.seed), seed_to_dict(embedded_flag_seed(fs))))
    assert face_entry.cache_info().hits > face_entry.cache_info().misses
    for flag, seeds in zip(flags, warm):
        face_entry.cache_clear()
        fs = FlagSeed(flag)
        assert (seed_to_dict(fs.seed), seed_to_dict(embedded_flag_seed(fs))) == seeds, flag.heading()


def test_padding_that_changes_nothing_keeps_the_entry():
    """A lift whose indices all have d_k entries is its own padded entry,
    not an equal copy, and so is a tableau whose columns all have height
    d_k; a shorter index or column is padded."""
    flag = FlagType((2, 4), 6)
    kept = 0
    for face in Arrangement(flag).faces:
        key = decompose_index_set(face.index_set, flag)
        (poly, tab), padded = face_entry(*key, 6, 0), face_entry(*key, 6, 4)
        full = all(len(idx) == 4 for mono in poly.terms for idx in mono)
        assert (padded[0] is poly) == full, face
        assert (padded[1] is tab) == all(len(col) == 4 for col in tab.columns()) == full, face
        kept += full
    assert 0 < kept < len(Arrangement(flag).faces)
