"""Point tree, box searches (serial tree walk and key-sorted shard bands),
window clustering."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parclust import kwindows
from parclust.comm import CommAbort, CommWorld, split_blocks
from parclust.core import (NOISE, DataSet, KeySortedRows, Partition,
                           adjusted_rand_index, generate_blobs)
from parclust.kwindows import (KWindowsParams, MDBinaryTree, RangeQuery, Window,
                               _merge_groups, _path, _round_hits, _search,
                               _windows, k_windows, orthogonal_range_search,
                               parallel_range_search)


def _brute(points, lo, hi):
    mask = np.all((points >= lo) & (points <= hi), axis=1)
    return set(np.nonzero(mask)[0].tolist())


def _rounded(q):
    """Fraction q > 0 rounded to 53 significant bits, ties to even: a
    float64 product without float64's exponent range."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if q < Fraction(2) ** e:
        e -= 1  # now 2**e <= q < 2**(e + 1)
    unit = Fraction(2) ** (e - 52)
    return round(q / unit) * unit


def _product(factors):
    """The factors multiplied in order, each partial product rounded by
    `_rounded`: equal to the float product wherever that stays normal."""
    out = Fraction(1)
    for f in factors:
        out = _rounded(out * Fraction(f))
    return out


def _merge_groups_loop(windows, theta_merge):
    """Oracle for `_merge_groups`: every pair of windows that
    caught rows, compared one at a time in ascending (i, j) order, with
    products that neither overflow nor underflow; a merge relabels the later
    of the two groups with the earlier's smallest window."""
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
            inter = _product(ext)
            smaller = min(_product(hi_i - lo_i), _product(hi_j - lo_j))
            if inter > _product([theta_merge, smaller]):
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
    """A rounds generator of one round of boxes, requests that grow no
    coordinate: returns one id set per box."""
    answers = yield np.stack((lo, hi, lo, hi), axis=1)
    return [set(inside.tolist()) for inside, _, _ in answers]


def _grown(request):
    """The coordinates a request grows."""
    lo, hi, grown_lo, grown_hi = request
    return np.flatnonzero((grown_lo < lo) | (grown_hi > hi)).tolist()


def _trial_box(request, s):
    """A request's box, grown on coordinate s alone."""
    lo, hi, grown_lo, grown_hi = (np.array(b) for b in request)
    lo[s], hi[s] = grown_lo[s], grown_hi[s]
    return lo, hi


def _trial_boxes(request):
    """The boxes a request stands for: its box when it grows no coordinate,
    else one trial box per grown coordinate, in coordinate order."""
    grown = _grown(request)
    if not grown:
        return [(request[0], request[1])]
    return [_trial_box(request, s) for s in grown]


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
            got = _search(world, X, _one_round(lo, hi))[0]
        finally:
            world.shutdown()
        assert got == [_brute(pts, a, b) for a, b in zip(lo, hi)], p
    assert got[5] == set() and all(got[:5])


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_banded_round_hits_equal_the_mask_box_for_box(data):
    d = data.draw(st.integers(1, 9), label="d")  # more columns than 8, too
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
    # each box grows on no coordinate (a movement box), on one, on some, or
    # on every one, so on every block's key; a grown face lies on a data
    # coordinate or just outside the data, and may equal the box's face
    requests = []
    for lo, hi in boxes:
        grow = data.draw(st.sampled_from(["none", "one", "some", "all"]),
                         label="grow")
        if grow == "one":
            grown = [data.draw(st.integers(0, d - 1), label="coordinate")]
        elif grow == "some":
            grown = data.draw(st.lists(st.integers(0, d - 1), max_size=d,
                                       unique=True), label="coordinates")
        else:
            grown = list(range(d)) if grow == "all" else []
        grown_lo, grown_hi = lo.copy(), hi.copy()
        for t in grown:
            grown_lo[t] = min(lo[t], data.draw(face(t)))
            grown_hi[t] = max(hi[t], data.draw(face(t)))
        requests.append((lo, hi, grown_lo, grown_hi))
    below = pts.min(axis=0) - 2.0  # grown on every coordinate, yet off the
    requests.append((below, below + 1.0, below - 1.0, below + 1.0))  # data
    requests = np.array(requests)
    X = DataSet.from_points(pts)
    for p in sorted({1, 2, 3, n}):  # p == n: single-row shards
        if p > n:
            continue
        parts = []
        start = 0
        for block in split_blocks(X, p):
            keyed = KeySortedRows.build(block)
            cols = np.ascontiguousarray(keyed.rows.T)
            parts.append(_round_hits(cols, keyed.col, start + keyed.order,
                                     requests))
            start += len(block)
        for k, answers in enumerate(zip(*parts)):
            # empty bands, skipped, answer with int64 arrays too
            assert all(part.dtype == np.int64 for answer in answers
                       for part in answer), (p, k)
            inside, shell, tag = map(np.concatenate, zip(*answers))
            ids = np.concatenate((inside, shell))
            assert np.unique(ids).size == ids.size, (p, k)
            assert set(inside.tolist()) == _brute(pts, *requests[k, :2]), (p, k)
            # trial s holds the box's rows and the shell's tagged s, and a
            # coordinate that does not grow has no shell
            assert set(tag.tolist()) <= set(_grown(requests[k])), (p, k)
            for s in range(d):
                trial = set(inside.tolist()) | set(shell[tag == s].tolist())
                assert trial == _brute(pts, *_trial_box(requests[k], s)), \
                    (p, k, s)


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


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_merge_groups_equal_the_pairwise_loop(data):
    d = data.draw(st.integers(1, 8), label="d")
    # at d = 8, half-widths of 1e40 put every float64 volume above the
    # range and those of 1e-45 below it
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no product over- or underflows
        assert _merge_groups(windows, theta) == \
            _merge_groups_loop(windows, theta)


@pytest.mark.parametrize("scale", [1e40, 1e-45])
def test_volumes_beyond_float_range_compare_by_their_true_size(scale):
    # every volume is (2 * scale)^8, beyond float64's range either way, where
    # plain products made inf > 0.2 * inf and 0 > 0.2 * 0, both false
    half = np.full(8, scale)

    def pair(offset):
        return [Window(np.zeros(8), half, np.arange(1)),
                Window(np.asarray(offset, dtype=np.float64) * scale, half,
                       np.arange(1))]

    cases = [(pair([10.0] * 8), [0, 1]),  # apart
             (pair([0.0] * 7 + [2.0]), [0, 1]),  # touching: an extent of 0
             (pair([0.0] * 7 + [1.0]), [0, 0]),  # sharing 1/2 > 0.2
             (pair([1.0] * 8), [0, 1])]  # sharing 2**-8 < 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for windows, want in cases:
            assert _merge_groups(windows, 0.2) == want
            assert _merge_groups_loop(windows, 0.2) == want


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("power", [127, -140])
def test_a_scaled_input_gives_the_unscaled_labels(p, power):
    # scaling rows and half-width by a power of two scales every box and
    # mean exactly; only the merge's float64 volumes would leave the range
    X, _ = generate_blobs(2, 4, 250, 8)
    scaled = DataSet.from_points(np.ldexp(X.points, power))
    world = CommWorld(p)
    try:
        want = k_windows(world, X, KWindowsParams(l=16, a=3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = k_windows(world, scaled,
                            KWindowsParams(l=16, a=math.ldexp(3.0, power)))
    finally:
        world.shutdown()
    assert want.model["k"] == 4
    assert np.array_equal(got.labels, want.labels)
    assert got.model["k"] == want.model["k"]


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
        assert _merge_groups(windows, theta) == \
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


def _inside(X, lo, hi):
    """Dataset rows inside the closed box, by a brute-force mask."""
    return np.flatnonzero(np.all((X.points >= lo) & (X.points <= hi), axis=1))


def _sequential_path(X, params, w):
    """Oracle for `_path`: one window's box queries, one box
    per query, each enlargement trial asked only after the one before it
    was decided. Yields boxes, is sent each box's rows."""
    def move():
        steps = 0
        while w.enclosed.size:
            steps += 1
            if steps > X.n + 1:
                raise RuntimeError("movement failed to stabilize")
            prev = w.enclosed.size
            w.center = X.points[np.sort(w.enclosed)].mean(axis=0)
            w.enclosed = yield w.bounds()
            if w.enclosed.size - prev < params.theta_move * prev:
                break

    w.enclosed = yield w.bounds()
    yield from move()
    for _ in range(50):
        kept = False
        for t in range(X.d):
            if not w.enclosed.size:
                return
            before = w.enclosed.size
            trial = w.half_width.copy()
            trial[t] *= 1.0 + params.theta_enlarge
            found = yield w.center - trial, w.center + trial
            if found.size > before and found.size - before >= \
                    params.theta_enlarge * before:
                w.half_width, w.enclosed = trial, found
                yield from move()
                kept = True
        if not kept:
            return


def _seed_windows(X, params):
    seeds = np.random.default_rng(params.seed).choice(X.n, size=params.l,
                                                      replace=False)
    return [Window(X.points[r].copy(), np.full(X.d, params.a))
            for r in np.sort(seeds)]


def _run_alone(path, answer):
    """Drive one path to its end, sending it `answer(asked)` for what it
    asks each time; returns everything it asked, in order."""
    asked, sent = [], None
    while True:
        try:
            asked.append(path.send(sent))
        except StopIteration:
            return asked
        sent = answer(asked[-1])


def _serial_windows(X, params):
    """Per-window serial oracle: drives each window's `_sequential_path`
    alone against a brute-force mask, merges, and labels one row at a time
    in ascending row order. Returns (labels, model windows, longest path in
    queries)."""
    windows = _seed_windows(X, params)
    longest = max(len(_run_alone(_sequential_path(X, params, w),
                                 lambda box: _inside(X, *box)))
                  for w in windows)
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


def _answer(X, request):
    """A request's answer from brute-force masks of its box and of each of
    its trial boxes: the box's rows, then the rows each trial box holds
    beyond them, tagged with the trial's coordinate."""
    inside = _inside(X, request[0], request[1])
    shell = [np.setdiff1d(_inside(X, *_trial_box(request, s)), inside)
             for s in _grown(request)]
    tag = [np.full(rows.size, s) for s, rows in zip(_grown(request), shell)]
    return (inside, np.concatenate([inside[:0]] + shell),
            np.concatenate([inside[:0]] + tag))


def _path_steps(X, params, w):
    """Window w's `_path` driven alone against `_answer`: each
    step as the list of boxes its request stands for."""
    return [_trial_boxes(request)
            for request in _run_alone(_path(X, params, w),
                                      lambda request: _answer(X, request))]


def _longest_steps(X, params):
    """The most steps any window's `_path` takes when driven alone against
    a brute-force mask."""
    return max(len(_path_steps(X, params, w)) for w in _seed_windows(X, params))


def _windows_alone(X, params):
    """(labels, model) of `_windows` driven with no world, each request of
    each round answered by `_answer`."""
    rounds = _windows(X, params)
    requests = next(rounds)
    while True:
        try:
            requests = rounds.send([_answer(X, r) for r in requests])
        except StopIteration as stop:
            return stop.value


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_windows_alone_give_the_labels_and_model_of_every_world(seed):
    X, _ = generate_blobs(seed=seed, k=3, per_cluster=30, d=3)
    params = KWindowsParams(l=8, a=1.0, seed=seed)
    labels, model = _windows_alone(X, params)
    assert Partition(labels).k > 1
    # an uneven block list whose middle block is empty
    uneven = [X.points[:7], X.points[7:7], X.points[7:]]
    for p, rows in (1, X), (2, X), (3, X), (3, uneven):
        world = CommWorld(p)
        try:
            rep = k_windows(world, rows, params)
        finally:
            world.shutdown()
        assert np.array_equal(rep.labels, labels), p
        assert rep.model == {"k": Partition(labels).k, **model}, p


@pytest.mark.parametrize("p", [2, 3])
def test_a_call_costs_one_collective_per_round(p, count_collectives):
    X, _ = generate_blobs(seed=1, k=4, per_cluster=60, d=4)
    params = KWindowsParams(l=12, a=3.0, seed=2)
    world = CommWorld(p)
    try:
        k_windows(world, X, params)
    finally:
        world.shutdown()
    # one decide per round: rank 0's rule reads the answers and hands
    # every rank the next round or the result
    rounds = _longest_steps(X, params)
    assert count_collectives[world] == {"decide": rounds}
    assert 1 < rounds < _serial_windows(X, params)[2]


@pytest.mark.parametrize("p", [1, 2])
def test_a_round_that_raises_fails_the_search_and_closes_the_world(
        p, count_collectives):
    X, _ = generate_blobs(seed=1, k=2, per_cluster=10, d=2)
    lo, hi = X.points.min(axis=0), X.points.max(axis=0)

    def rounds():
        answers = yield np.array([(lo, hi, lo, hi)])
        assert np.sort(answers[0][0]).tolist() == list(range(X.n))
        raise ValueError("no second round")

    world = CommWorld(p)
    with pytest.raises(ValueError, match="no second round"):
        _search(world, X, rounds())
    # rank 0's rule failed in the first round's decide
    assert count_collectives[world] == {"decide": 1}
    with pytest.raises(CommAbort, match="closed: rank 0 failed"):
        _search(world, X, _one_round(lo[None], hi[None]))
    assert count_collectives[world] == {"decide": 1}


def test_the_benchmark_call_asks_every_enlargement_trial_in_one_round(
        count_collectives):
    X, _ = generate_blobs(1, 4, 250, 8)
    params = KWindowsParams(l=16, a=3.0)
    world = CommWorld(2)
    try:
        k_windows(world, X, params)
    finally:
        world.shutdown()
    # one box per round took 12 rounds
    assert _serial_windows(X, params)[2] == 12
    assert count_collectives[world]["decide"] <= 6


def test_the_benchmark_call_asks_each_sweep_as_one_request(monkeypatch):
    X, _ = generate_blobs(1, 4, 250, 8)
    rounds = []
    real = kwindows._round_hits

    def recording(cols, col, at, requests):
        rounds.append(requests.copy())
        return real(cols, col, at, requests)

    monkeypatch.setattr(kwindows, "_round_hits", recording)
    world = CommWorld(1)
    try:
        k_windows(world, X, KWindowsParams(l=16, a=3.0))
    finally:
        world.shutdown()
    requests = [request for asked in rounds for request in asked]
    sweeps = [request for request in requests if _grown(request)]
    assert len(requests) == 65 and len(sweeps) == 16
    # one box per trial asked 177 boxes: 49 movement boxes and the 8 trials
    # of each of the 16 sweeps; every sweep is one request of all 8 trials,
    # and no round asks more than one request per window
    assert sum(len(_trial_boxes(request)) for request in requests) == 177
    assert all(_grown(sweep) == list(range(8)) for sweep in sweeps)
    assert all(len(asked) <= 16 for asked in rounds)


def test_a_kept_enlargement_does_not_ask_for_its_box_again():
    X, _ = generate_blobs(seed=21, k=2, per_cluster=60, d=2, spread=0.25,
                          separation=7.5)
    params = KWindowsParams(l=1, a=0.1)
    w = Window(X.points[0].copy(), np.full(2, 0.1))
    steps = _path_steps(X, params, w)
    alone = Window(X.points[0].copy(), np.full(2, 0.1))
    queries = _run_alone(_sequential_path(X, params, alone),
                         lambda box: _inside(X, *box))
    # the path keeps at least one enlargement, as the sequential one does
    assert w.half_width.tolist() == alone.half_width.tolist() == \
        pytest.approx([0.121, 0.1])
    assert np.array_equal(np.sort(w.enclosed), np.sort(alone.enclosed))
    # the sequential path asks once more for a trial it refused before the
    # window changed again; that is the only box it repeats, and the path
    # under test skips it
    queries = [(lo.tolist(), hi.tolist()) for lo, hi in queries]
    fresh = [q for i, q in enumerate(queries) if q not in queries[:i]]
    assert len(fresh) == len(queries) - 1
    # each step starts with the sequential path's next fresh boxes; what
    # follows them are the trials made moot by the kept one just before
    at = 0
    for step in steps:
        matched = 0
        for lo, hi in step:
            if at + matched == len(fresh) or \
                    (lo.tolist(), hi.tolist()) != fresh[at + matched]:
                break
            matched += 1
        assert matched, at
        at += matched
    assert at == len(fresh) == 9 and len(steps) == 9
    # each box it asks for differs from the one before, so a kept trial's
    # box is not asked for again
    assert all(a != b for a, b in zip(queries, queries[1:]))


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
    roots = _merge_groups(windows, params.theta_merge)
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


def _boxes_asked_again(X, params):
    """(boxes a window asks again since its center or half-widths last
    changed, boxes asked), over every window's path driven alone against a
    brute-force mask."""
    again = total = 0
    for w in _seed_windows(X, params):
        path = _path(X, params, w)
        seen, state, sent = set(), None, None
        while True:
            try:
                request = path.send(sent)
            except StopIteration:
                break
            now = (w.center.tobytes(), w.half_width.tobytes())
            if now != state:
                seen, state = set(), now
            asked = _trial_boxes(request)
            for lo, hi in asked:
                box = (lo.tobytes(), hi.tobytes())
                again += box in seen
                seen.add(box)
            total += len(asked)
            sent = _answer(X, request)
    return again, total


def test_no_window_asks_a_box_again_before_it_changes():
    # before windows kept their refused trials and skipped a movement to
    # the same center, 637 of the 9945 boxes asked on these inputs repeated
    # a box of the same window, most of them trials refused one sweep
    # earlier from the same box; 9308 boxes are asked now
    total = 0
    for seed in range(30):
        X, _ = generate_blobs(seed, 3, 60, 3)
        for a in (0.5, 1.0, 2.0):
            again, asked = _boxes_asked_again(X, KWindowsParams(l=12, a=a))
            assert again == 0, (seed, a)
            total += asked
    assert total > 9000
