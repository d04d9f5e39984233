"""Point tree, box searches (serial tree walk and shard masks), window clustering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld
from parclust.core import NOISE, DataSet, Partition, adjusted_rand_index, generate_blobs
from parclust.kwindows import (KWindowsParams, MDBinaryTree, RangeQuery,
                               k_windows, orthogonal_range_search,
                               parallel_range_search)


def _brute(points, lo, hi):
    mask = np.all((points >= lo) & (points <= hi), axis=1)
    return set(np.nonzero(mask)[0].tolist())


# -- tree construction -----------------------------------------------------


def test_single_point_tree():
    tree = MDBinaryTree(DataSet.from_points([[3.0, 4.0]]))
    assert tree.depth() == 1
    assert tree.left[tree.root] == -1 and tree.right[tree.root] == -1


def test_three_point_line_median_at_root():
    tree = MDBinaryTree(DataSet.from_points([[1.0], [2.0], [3.0]]))
    root_row = tree.point_id[tree.root]
    assert tree.points[root_row, 0] == 2.0
    left_row = tree.point_id[tree.left[tree.root]]
    right_row = tree.point_id[tree.right[tree.root]]
    assert tree.points[left_row, 0] == 1.0
    assert tree.points[right_row, 0] == 3.0


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        MDBinaryTree(DataSet.from_points(np.zeros((0, 2))))


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                min_size=1, max_size=40))
@settings(deadline=None)
def test_tree_holds_every_row_once_and_is_balanced(coords):
    pts = np.asarray(coords, dtype=np.float64)
    tree = MDBinaryTree(DataSet.from_points(pts))
    n = pts.shape[0]
    assert sorted(tree.point_id.tolist()) == list(range(n))
    assert tree.depth() <= math.ceil(math.log2(n)) + 1 if n > 1 else 1


# -- orthogonal range search -----------------------------------------------


def test_whole_bounding_box_returns_all_ids():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 2))
    tree = MDBinaryTree(DataSet.from_points(pts))
    q = RangeQuery(pts.min(axis=0), pts.max(axis=0))
    assert orthogonal_range_search(tree, q) == set(range(30))


def test_box_away_from_data_returns_nothing():
    pts = np.zeros((5, 2))
    tree = MDBinaryTree(DataSet.from_points(pts))
    q = RangeQuery(np.array([10.0, 10.0]), np.array([11.0, 11.0]))
    assert orthogonal_range_search(tree, q) == set()


def test_random_boxes_match_linear_filter():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-5, 5, size=(200, 3))
    tree = MDBinaryTree(DataSet.from_points(pts))
    for _ in range(50):
        a = rng.uniform(-6, 6, size=3)
        b = rng.uniform(-6, 6, size=3)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert orthogonal_range_search(tree, RangeQuery(lo, hi)) == _brute(pts, lo, hi)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=25),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
@settings(deadline=None)
def test_search_equals_filter_even_with_duplicates(coords, a, b):
    pts = np.asarray(coords, dtype=np.float64)
    lo = np.minimum(a, b).astype(float)
    hi = np.maximum(a, b).astype(float)
    tree = MDBinaryTree(DataSet.from_points(pts))
    assert orthogonal_range_search(tree, RangeQuery(lo, hi)) == _brute(pts, lo, hi)


def test_query_validation():
    with pytest.raises(ValueError):
        RangeQuery(np.array([1.0]), np.array([0.0]))
    tree = MDBinaryTree(DataSet.from_points([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        orthogonal_range_search(tree, RangeQuery(np.zeros(3), np.ones(3)))


# -- shard-mask search ------------------------------------------------------


def test_parallel_search_single_node_equals_serial():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, size=(60, 2))
    tree = MDBinaryTree(DataSet.from_points(pts))
    q = RangeQuery(np.array([-1.0, -1.0]), np.array([2.0, 2.0]))
    world = CommWorld(1)
    try:
        assert parallel_range_search(world, tree, q) == \
            orthogonal_range_search(tree, q)
    finally:
        world.shutdown()


def test_parallel_search_matches_serial_set_exactly():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-4, 4, size=(150, 3))
    tree = MDBinaryTree(DataSet.from_points(pts))
    for trial in range(10):
        a = rng.uniform(-5, 5, size=3)
        b = rng.uniform(-5, 5, size=3)
        q = RangeQuery(np.minimum(a, b), np.maximum(a, b))
        world = CommWorld(4)
        try:
            got = parallel_range_search(world, tree, q)
        finally:
            world.shutdown()
        assert got == orthogonal_range_search(tree, q), trial


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_parallel_search_equals_filter_on_grid_with_duplicates(data):
    coords = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1, max_size=30))
    pts = np.asarray(coords + coords[:data.draw(st.integers(0, 5))],
                     dtype=np.float64)  # duplicate rows on top of chance ties
    n = pts.shape[0]
    # every box face lies on a data coordinate, so boundary rows are tested
    rows = st.integers(0, n - 1)
    a = pts[[data.draw(rows) for _ in range(3)], [0, 1, 2]]
    b = pts[[data.draw(rows) for _ in range(3)], [0, 1, 2]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    tree = MDBinaryTree(DataSet.from_points(pts))
    for p in (1, 2, 3):
        if p > n:
            continue
        world = CommWorld(p)
        try:
            got = parallel_range_search(world, tree, RangeQuery(lo, hi))
        finally:
            world.shutdown()
        assert got == _brute(pts, lo, hi), p


# -- window clustering -----------------------------------------------------


def test_one_window_covering_one_blob():
    X, _ = generate_blobs(seed=6, k=1, per_cluster=40, d=2, spread=0.3)
    world = CommWorld(1)
    try:
        rep = k_windows(world, X, KWindowsParams(l=1, a=3.0, seed=0))
    finally:
        world.shutdown()
    assert rep.partition.k == 1
    assert not np.any(rep.labels == NOISE)


def test_two_blobs_recovered_exactly():
    spread = 0.25
    X, truth = generate_blobs(seed=21, k=2, per_cluster=60, d=2,
                              spread=spread, separation=30 * spread)
    # seed 1 samples one seed row inside each blob (checked below)
    params = KWindowsParams(l=2, a=1.25, seed=1)
    rows = np.sort(np.random.default_rng(1).choice(X.n, size=2, replace=False))
    assert truth.labels[rows[0]] != truth.labels[rows[1]]
    reps = {}
    for p in (1, 4):
        world = CommWorld(p)
        try:
            reps[p] = k_windows(world, X, params)
        finally:
            world.shutdown()
        assert adjusted_rand_index(reps[p].partition, truth) == 1.0
    assert np.array_equal(reps[1].labels, reps[4].labels)


def test_windows_identical_for_every_node_count():
    spread = 0.25
    X, _ = generate_blobs(seed=21, k=2, per_cluster=60, d=2,
                          spread=spread, separation=30 * spread)
    params = KWindowsParams(l=2, a=1.25, seed=1)
    reps = []
    for p in (1, 2, 3):
        world = CommWorld(p)
        try:
            reps.append(k_windows(world, X, params))
        finally:
            world.shutdown()
    for rep in reps[1:]:
        assert np.array_equal(rep.labels, reps[0].labels)
        assert rep.model["windows"] == reps[0].model["windows"]


def test_labels_stay_compact_after_merges():
    X, _ = generate_blobs(seed=13, k=2, per_cluster=30, d=2,
                          spread=0.5, separation=12.0)
    world = CommWorld(1)
    try:
        rep = k_windows(world, X, KWindowsParams(l=6, a=2.0, seed=3))
    finally:
        world.shutdown()
    used = np.unique(rep.labels[rep.labels != NOISE])
    assert used.tolist() == list(range(len(used)))
    assert rep.model["k"] == len(used)


def test_params_validation():
    with pytest.raises(ValueError):
        KWindowsParams(l=0, a=1.0)
    with pytest.raises(ValueError):
        KWindowsParams(l=1, a=0.0)
    with pytest.raises(ValueError):
        KWindowsParams(l=1, a=1.0, theta_merge=1.5)
    X = DataSet.from_points([[0.0], [1.0]])
    world = CommWorld(1)
    try:
        with pytest.raises(ValueError):
            k_windows(world, X, KWindowsParams(l=5, a=1.0))
    finally:
        world.shutdown()
