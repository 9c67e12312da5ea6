"""Staircase arrangements, flag and Grassmannian initial seeds, embedding."""

import itertools
import random
from collections import Counter

import pytest

from clusterflag.flags import (
    Arrangement,
    FlagError,
    FlagSeed,
    FlagType,
    GrassmannianSeed,
    decompose_index_set,
    embedded_flag_seed,
    initial_index_sets,
    lift_index_set,
    sigma_draw,
    weight_of_index_set,
)
from clusterflag.plucker import (
    DEFAULT_PRIME,
    PluckerPoly,
    laplace_initial_minor,
    phi_star,
)
from clusterflag.programs import general_flag_program
from clusterflag.quiver import seeds_equal
from clusterflag.tableaux import fill_up, initial_tableau, interval_index_set, one_column

from support import all_flag_types, pattern_minor, random_unipotent_point


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


def test_face_lookup_by_cell():
    arr = Arrangement(FlagType((2,), 4))
    # bottom row of cells is always discarded
    assert all(arr.face_at(x, 0) is None for x in range(4))
    face = arr.face_at(1, 1)
    assert face is not None and face.index_set == (2, 4)


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


def test_lift_index_set():
    flag = FlagType((2, 4), 5)
    poly, tab = lift_index_set((2,), flag)
    assert poly == PluckerPoly.variable((1, 5))
    assert tab == one_column([1, 5])
    poly, tab = lift_index_set((2, 4), flag)
    assert poly == laplace_initial_minor(2, 2, 4, 4, 5)
    assert tab == initial_tableau(2, 2, 4, 4, 5)


def test_weight_of_index_set():
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
        assert st.weight == tuple(1 if t == j else 0 for t in range(2))
        assert fs.seed.quiver.vertices[vid].frozen


def test_flag_seed_dictionary_matches_unipotent_minors():
    """Every face variable evaluates, on the unipotent patch, to the minor
    on its label rows and the last columns."""
    rng = random.Random(17)
    for dims, n in [((2, 4), 5), ((2, 4), 6), ((3, 5), 7), ((1, 3, 5), 6)]:
        flag = FlagType(dims, n)
        fs = FlagSeed(flag)
        for _ in range(3):
            pt = random_unipotent_point(dims, n, DEFAULT_PRIME, rng)
            for face in fs.arrangement.faces:
                vid = fs.face_vertex[face.index_set]
                got = fs.seed.dictionary[vid].evaluate(pt)
                assert got == pattern_minor(pt, face.index_set)


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


# -- tableau columns against weights --------------------------------------------------


def assert_columns_match_weights(seed, dims):
    """Each tableau is the exact leading tableau of its variable: it has
    weight[j] columns of height dims[j] and no other columns."""
    for vid, st in seed.variables.items():
        heights = dict(Counter(len(col) for col in st.tableau.columns()))
        assert heights == {d: w for d, w in zip(dims, st.weight) if w}, (
            seed.quiver.vertices[vid].name, st.tableau, st.weight,
        )


def test_grid_program_keeps_columns_matching_weights():
    for flag in all_flag_types(7, 6):
        gr = GrassmannianSeed(*flag.target_grassmannian)
        seed = gr.seed
        assert seed.weight_rank == 1
        assert_columns_match_weights(seed, (gr.k,))
        for step in general_flag_program(flag).mutations:
            seed = seed.mutate(gr.vertex_at(step.row, step.col))
            assert_columns_match_weights(seed, (gr.k,))


def test_flag_seed_walks_keep_columns_matching_weights():
    rng = random.Random(808)
    walked = 0
    for flag in all_flag_types(6, 5):
        seed = FlagSeed(flag).seed
        assert_columns_match_weights(seed, flag.dims)
        mutable = seed.mutable_ids()
        for _ in range(20 if mutable else 0):
            seed = seed.mutate(rng.choice(mutable))
            assert_columns_match_weights(seed, flag.dims)
            walked += 1
    assert walked >= 900


# -- the embedded flag seed ------------------------------------------------------------


def test_embedded_flag_seed():
    flag = FlagType((2, 4), 6)
    fs = FlagSeed(flag)
    emb = embedded_flag_seed(fs)
    assert emb.quiver == fs.seed.quiver
    for vid, st in emb.variables.items():
        plain = fs.seed.variables[vid]
        assert st.tableau == fill_up(plain.tableau, flag.dims, flag.n)
        assert st.tableau.num_rows == 4
        assert st.weight == plain.weight
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
