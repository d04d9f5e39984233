"""Point tree, box searches (serial tree walk and key-sorted shard bands),
window clustering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parclust.comm import CommWorld, split_blocks
from parclust.core import (NOISE, DataSet, KeySortedRows, adjusted_rand_index,
                           generate_blobs)
from parclust.kwindows import (KWindowsParams, MDBinaryTree, RangeQuery, Window,
                               _round_hits, _search_node, _WindowDriver,
                               k_windows, orthogonal_range_search,
                               parallel_range_search)


def _brute(points, lo, hi):
    mask = np.all((points >= lo) & (points <= hi), axis=1)
    return set(np.nonzero(mask)[0].tolist())


def _merge_groups_loop(windows, theta_merge):
    """Oracle for `_WindowDriver._merge_groups`: every pair of windows that
    caught rows, compared one at a time in ascending (i, j) order; a merge
    relabels the later of the two groups with the earlier's smallest window."""
    group = list(range(len(windows)))
    live = [i for i, w in enumerate(windows) if w.enclosed.size]
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, j = live[a], live[b]
            lo_i, hi_i = windows[i].bounds()
            lo_j, hi_j = windows[j].bounds()
            ext = np.minimum(hi_i, hi_j) - np.maximum(lo_i, lo_j)
            if np.any(ext <= 0):
                continue
            inter = float(np.prod(ext))
            vol_i = float(np.prod(hi_i - lo_i))
            vol_j = float(np.prod(hi_j - lo_j))
            if inter > theta_merge * min(vol_i, vol_j):
                keep, gone = sorted((group[i], group[j]))
                group = [keep if g == gone else g for g in group]
    return group


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


# -- key-sorted shard search ---------------------------------------------------


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


def _one_round(lo, hi):
    """A search driver of one round of boxes: returns one id set per box."""
    async def driver(query):
        return [set(ids.tolist()) for ids in await query((lo, hi))]
    return driver


def test_a_round_with_flat_boxes_equals_filter():
    rng = np.random.default_rng(8)
    pts = rng.integers(-3, 4, size=(40, 3)).astype(np.float64)
    lo = pts[rng.integers(0, 40, size=6)].copy()
    hi = lo + rng.integers(0, 3, size=(6, 3))
    hi[:, 0] = lo[:, 0]  # every box is flat on axis 0 ...
    hi[3] = lo[3]  # ... and box 3 is a single point
    lo[5] = hi[5] = [9.0, 9.0, 9.0]  # off the data: no hits
    X = DataSet.from_points(pts)
    for p in (1, 2, 3):
        world = CommWorld(p)
        try:
            got = world.run(_search_node, X, _one_round(lo, hi))[0]
        finally:
            world.shutdown()
        assert got == [_brute(pts, a, b) for a, b in zip(lo, hi)], p
    assert got[5] == set() and all(got[:5])


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_banded_round_hits_equal_the_mask_box_for_box(data):
    d = data.draw(st.integers(1, 3), label="d")
    coords = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                         max_size=d),
                                min_size=1, max_size=12), label="coords")
    pts = np.asarray(coords + coords[:data.draw(st.integers(0, 3))],
                     dtype=np.float64)  # duplicate rows and keys
    # zeroed columns; with all of them zeroed the key column is constant
    pts[:, data.draw(st.lists(st.booleans(), min_size=d, max_size=d),
                     label="zeroed")] = 0.0
    n = pts.shape[0]

    def face(t):  # on a data coordinate, or just outside the data
        return st.sampled_from(pts[:, t].tolist() + [pts[:, t].min() - 1.0,
                                                     pts[:, t].max() + 1.0])

    boxes = []
    for _ in range(data.draw(st.integers(0, 5), label="drawn boxes")):
        a = np.array([data.draw(face(t)) for t in range(d)])
        b = np.array([data.draw(face(t)) for t in range(d)])
        flat = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        b[flat] = a[flat]  # lo == hi on these coordinates
        boxes.append((np.minimum(a, b), np.maximum(a, b)))
    row = pts[data.draw(st.integers(0, n - 1), label="row")]
    boxes += [(row, row),  # lo == hi on every coordinate, the key's too
              (pts.min(axis=0) - 2.0, pts.min(axis=0) - 1.0),  # below
              (pts.max(axis=0) + 1.0, pts.max(axis=0) + 2.0)]  # above
    lo = np.array([box[0] for box in boxes])
    hi = np.array([box[1] for box in boxes])
    X = DataSet.from_points(pts)
    for p in sorted({1, 2, 3, n}):  # p == n: single-row shards
        if p > n:
            continue
        parts = []
        for shard in split_blocks(X, p):
            keyed = KeySortedRows.build(shard.points)
            parts.append(_round_hits(keyed, shard.start + keyed.order,
                                     (lo, hi)))
        for k, box in enumerate(zip(*parts)):
            ids = np.concatenate(box)
            assert ids.dtype == np.int64
            assert np.unique(ids).size == ids.size, (p, k)
            assert set(ids.tolist()) == _brute(pts, lo[k], hi[k]), (p, k)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_each_rank_sorts_its_shard_once_per_call(p, monkeypatch):
    sorted_rows = []
    real = KeySortedRows.build

    def counting(points):
        sorted_rows.append(len(points))
        return real(points)

    monkeypatch.setattr(KeySortedRows, "build", staticmethod(counting))
    X, _ = generate_blobs(seed=1, k=4, per_cluster=60, d=4)
    world = CommWorld(p)
    try:
        k_windows(world, X, KWindowsParams(l=12, a=3.0, seed=2))
    finally:
        world.shutdown()
    assert sorted(sorted_rows) == sorted(len(s) for s in split_blocks(X, p))


# -- merging windows ---------------------------------------------------------


def _recorded(fn, *args):
    """fn(*args) and the set of distinct warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {(w.category, str(w.message)) for w in caught}


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_merge_groups_equal_the_pairwise_loop(data):
    d = data.draw(st.integers(1, 8), label="d")
    # at d = 8, half-widths of 1e40 overflow every volume to inf and those
    # of 1e-45 underflow them to 0
    scale = data.draw(st.sampled_from([1.0, 1e40, 1e-45]), label="scale")
    grid = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    halves = st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=d,
                      max_size=d)
    windows = []
    for _ in range(data.draw(st.integers(0, 8), label="windows")):
        how = data.draw(st.sampled_from(["new", "identical", "nested"]))
        if how == "new" or not windows:
            center = np.array(data.draw(grid), dtype=np.float64) * scale
        else:  # a copy of an earlier window, or one of its center
            center = windows[data.draw(st.integers(0, len(windows) - 1))].center
        half = windows[-1].half_width if how == "identical" and windows \
            else np.array(data.draw(halves)) * scale
        # integer centers and half-widths in halves make touching windows,
        # an overlap extent of exactly 0; some windows caught nothing
        caught = np.arange(data.draw(st.integers(0, 1), label="caught"))
        windows.append(Window(center.copy(), half.copy(), caught))
    theta = data.draw(st.sampled_from([0.01, 0.2, 0.5, 0.99]), label="theta")
    want, want_warnings = _recorded(_merge_groups_loop, windows, theta)
    got, got_warnings = _recorded(_WindowDriver._merge_groups, windows, theta)
    assert got == want
    assert got_warnings == want_warnings


def test_volumes_that_overflow_warn_as_the_pairwise_loop_does():
    half = np.full(8, 1e40)  # every volume is (2e40)^8, above float64's range
    apart = [Window(np.full(8, c), half, np.arange(1)) for c in (0.0, 1e41)]
    # these two touch on the last coordinate only: an extent of exactly 0
    touching = [Window(np.zeros(8), half, np.arange(1)),
                Window(np.array([0.0] * 7 + [2e40]), half, np.arange(1))]
    overlapping = [Window(np.full(8, c), half, np.arange(1))
                   for c in (0.0, 1e40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no product is taken for these
        for windows in (apart, touching):
            assert _WindowDriver._merge_groups(windows, 0.2) == [0, 1]
            assert _merge_groups_loop(windows, 0.2) == [0, 1]
    for merge in (_merge_groups_loop, _WindowDriver._merge_groups):
        with pytest.warns(RuntimeWarning, match="overflow"):
            # inf > 0.2 * inf is false, so they stay apart
            assert merge(overlapping, 0.2) == [0, 1]


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_merge_decision_at_the_edge_theta_equals_the_pairwise_loop(data):
    # theta is put where one rounding of the loop's intersection or volume
    # decides the merge, so any other rounding shows as another decision
    d = data.draw(st.integers(1, 40), label="d")
    unit = st.floats(0.5, 4.0)
    center = np.array(data.draw(st.lists(st.floats(-4, 4), min_size=d,
                                         max_size=d)))
    half_i = np.array(data.draw(st.lists(unit, min_size=d, max_size=d)))
    half_j = np.array(data.draw(st.lists(unit, min_size=d, max_size=d)))
    shift = np.array(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=d,
                                        max_size=d))) * half_i
    windows = [Window(center, half_i, np.arange(1)),
               Window(center + shift, half_j, np.arange(1))]
    (lo_i, hi_i), (lo_j, hi_j) = (w.bounds() for w in windows)
    ext = np.minimum(hi_i, hi_j) - np.maximum(lo_i, lo_j)
    assume(np.all(ext > 0))
    inter = float(np.prod(ext))
    smaller = min(float(np.prod(hi_i - lo_i)), float(np.prod(hi_j - lo_j)))
    edge = inter / smaller
    assume(0.0 < edge < 1.0 and smaller > 0.0)
    while edge * smaller >= inter:
        edge = np.nextafter(edge, 0.0)
    while np.nextafter(edge, 1.0) * smaller < inter:
        edge = np.nextafter(edge, 1.0)
    for theta in (float(edge), float(np.nextafter(edge, 1.0))):
        assert _WindowDriver._merge_groups(windows, theta) == \
            _merge_groups_loop(windows, theta)
    assert _merge_groups_loop(windows, float(edge)) == [0, 0]
    assert _merge_groups_loop(windows, float(np.nextafter(edge, 1.0))) == [0, 1]


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


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_reports_are_equal_at_one_two_three_and_one_node_per_row(data):
    # at P = n every rank holds a one-row block; n <= 16 keeps that many
    # threads small
    d = data.draw(st.integers(1, 3), label="d")
    coords = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                         max_size=d),
                                min_size=2, max_size=16), label="coords")
    scale = data.draw(st.sampled_from([1.0, 0.5, 1e-3]), label="scale")
    X = DataSet.from_points(np.asarray(coords, dtype=np.float64) * scale)
    params = KWindowsParams(
        l=data.draw(st.integers(1, X.n), label="l"),
        a=data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]), label="a"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
    reps = []
    for p in sorted({1, 2, 3, X.n}):
        if p > X.n:
            continue
        world = CommWorld(p)
        try:
            reps.append(k_windows(world, X, params))
        finally:
            world.shutdown()
    for rep in reps[1:]:
        assert np.array_equal(rep.labels, reps[0].labels), rep.p
        assert rep.model == reps[0].model, rep.p


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
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            KWindowsParams(l=1, a=a)
    with pytest.raises(ValueError):
        KWindowsParams(l=1, a=1.0, theta_merge=1.5)
    X = DataSet.from_points([[0.0], [1.0]])
    world = CommWorld(1)
    try:
        with pytest.raises(ValueError):
            k_windows(world, X, KWindowsParams(l=5, a=1.0))
    finally:
        world.shutdown()


def test_more_windows_than_rows_is_refused_before_the_world_runs(
        count_collectives):
    X = DataSet.from_points([[0.0], [1.0], [5.0]])
    world = CommWorld(2)
    try:
        with pytest.raises(ValueError, match="l=4 exceeds the 3 available"):
            k_windows(world, X, KWindowsParams(l=4, a=1.0))
        assert not count_collectives[world]
        # the world still runs
        assert k_windows(world, X, KWindowsParams(l=3, a=1.0)).p == 2
    finally:
        world.shutdown()


# -- lockstep rounds against each window run alone ----------------------------


def _serial_windows(X, params):
    """Per-window serial oracle: drives each window's path alone against a
    brute-force mask, merges, and labels one row at a time in ascending row
    order. Returns (labels, model windows, longest path in queries)."""
    driver = _WindowDriver(X, params)
    seeds = np.random.default_rng(params.seed).choice(X.n, size=params.l,
                                                      replace=False)
    windows = [Window(X.points[r].copy(), np.full(X.d, params.a))
               for r in np.sort(seeds)]
    longest = 0
    for w in windows:
        path, queries, hits = driver._path(w), 0, None
        while True:
            try:
                lo, hi = path.send(hits)
            except StopIteration:
                break
            queries += 1
            hits = np.flatnonzero(np.all((X.points >= lo) & (X.points <= hi),
                                         axis=1))
        longest = max(longest, queries)
    roots = _merge_groups_loop(windows, params.theta_merge)
    group_label = {}
    labels = [NOISE] * X.n
    for i, w in enumerate(windows):
        if w.enclosed.size:
            g = group_label.setdefault(roots[i], len(group_label))
            for row in sorted(w.enclosed.tolist()):
                if labels[row] == NOISE:
                    labels[row] = g
    present = sorted(set(labels) - {NOISE})
    labels = [NOISE if v == NOISE else present.index(v) for v in labels]
    model = [{"center": w.center.tolist(), "half_width": w.half_width.tolist(),
              "count": w.enclosed.size} for w in windows]
    return np.array(labels, dtype=np.int64), model, longest


@pytest.mark.parametrize("p", [2, 3])
def test_a_call_costs_two_collectives_per_round_plus_one(p, count_collectives):
    X, _ = generate_blobs(seed=1, k=4, per_cluster=60, d=4)
    params = KWindowsParams(l=12, a=3.0, seed=2)
    _, _, longest = _serial_windows(X, params)
    world = CommWorld(p)
    try:
        k_windows(world, X, params)
    finally:
        world.shutdown()
    # one broadcast and one gather per round, one broadcast to finish
    counts = count_collectives[world]
    rounds = counts["gather"]
    assert rounds == longest > 1
    assert counts["broadcast"] == rounds + 1
    assert sum(counts.values()) == 2 * rounds + 1


def test_a_kept_enlargement_does_not_ask_for_its_box_again():
    X, _ = generate_blobs(seed=21, k=2, per_cluster=60, d=2, spread=0.25,
                          separation=7.5)
    w = Window(X.points[0].copy(), np.full(2, 0.1))
    path = _WindowDriver(X, KWindowsParams(l=1, a=0.1))._path(w)
    boxes, hits = [], None
    while True:
        try:
            lo, hi = path.send(hits)
        except StopIteration:
            break
        boxes.append((lo.tolist(), hi.tolist()))
        hits = np.flatnonzero(np.all((X.points >= lo) & (X.points <= hi),
                                     axis=1))
    # the path keeps at least one enlargement, and each box it asks for
    # differs from the one before
    assert w.half_width.tolist() == pytest.approx([0.121, 0.1])
    assert len(boxes) == 10
    assert all(a != b for a, b in zip(boxes, boxes[1:]))


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_lockstep_equals_each_window_run_alone(data):
    d = data.draw(st.integers(1, 3), label="d")
    coords = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                         max_size=d),
                                min_size=1, max_size=20), label="coords")
    pts = np.asarray(coords + coords[:data.draw(st.integers(0, 4))],
                     dtype=np.float64)  # duplicate rows on top of chance ties
    n = pts.shape[0]
    params = KWindowsParams(
        l=data.draw(st.one_of(st.just(n), st.integers(1, n)), label="l"),
        a=data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.5]), label="a"),
        theta_enlarge=data.draw(st.sampled_from([0.05, 0.1, 0.5])),
        seed=data.draw(st.integers(0, 3), label="seed"))
    X = DataSet.from_points(pts)
    labels, model, _ = _serial_windows(X, params)
    for p in (1, 2, 3):
        if p > n:
            continue
        world = CommWorld(p)
        try:
            rep = k_windows(world, X, params)
        finally:
            world.shutdown()
        assert np.array_equal(rep.labels, labels), p
        assert rep.model["windows"] == model, p


def test_a_group_that_owns_no_rows_is_compacted_away():
    # every row that one merge group's windows enclose was claimed first by
    # a window of another group, so that group owns nothing and its label
    # is dropped (found by a random search over small grids)
    pts = np.array([[0, 2, -1], [0, -1, 0], [-2, -2, 0], [2, -2, 1],
                    [2, -3, -1], [0, -2, 2], [0, -2, 0], [0, 0, 0],
                    [-2, -2, 2], [3, 0, 0], [-3, 1, -2], [3, 1, -2],
                    [2, 3, 3], [0, 1, -1], [-2, 0, 2]], dtype=np.float64)
    X = DataSet.from_points(pts)
    params = KWindowsParams(l=11, a=2.5, seed=2)
    labels, model, _ = _serial_windows(X, params)
    windows = [Window(np.array(w["center"]), np.array(w["half_width"]),
                      np.arange(min(w["count"], 1))) for w in model]
    roots = _WindowDriver._merge_groups(windows, params.theta_merge)
    assert roots == _merge_groups_loop(windows, params.theta_merge)
    groups = {roots[i] for i, w in enumerate(windows) if w.enclosed.size}
    used = np.unique(labels[labels != NOISE])
    assert len(groups) > used.size
    assert used.tolist() == list(range(used.size))
    for p in (1, 2, 3):
        world = CommWorld(p)
        try:
            rep = k_windows(world, X, params)
        finally:
            world.shutdown()
        assert np.array_equal(rep.labels, labels), p
        assert rep.model["windows"] == model and rep.model["k"] == used.size
