"""Density scan, core-point covers, density models, distributed merge."""

import importlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parclust import core as core_module
from parclust.comm import CommWorld, split_blocks
from parclust.core import (DISTANCE_BLOCK_CELLS, NOISE, DataSet,
                           KeySortedRows, Partition, adjusted_rand_index,
                           generate_blobs, squared_distances)
from parclust.dbscan import (DbscanParams, DdbcParams, dbscan, ddbc,
                             density_scan, rep_kmeans_model,
                             specific_core_points)

# the package re-exports the function `dbscan`, which hides the module
dbscan_module = importlib.import_module("parclust.dbscan")
kmeans_module = importlib.import_module("parclust.kmeans")


def _density_oracle(points, eps, min_pts):
    """DBSCAN's labels by brute force: connected components of the core-point
    graph, numbered by their smallest core row, and each border row in the
    cluster of smallest number among its core neighbours.

    Returns (labels, core mask).
    """
    n = points.shape[0]
    eps2 = eps * eps
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    near = d2 <= eps2
    core = near.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cid = 0
    for i in range(n):  # ascending, so each search starts at its smallest row
        if not core[i] or labels[i] != NOISE:
            continue
        stack = [i]
        labels[i] = cid
        while stack:
            j = stack.pop()
            for r in np.nonzero(near[j] & core)[0]:
                if labels[r] == NOISE:
                    labels[r] = cid
                    stack.append(r)
        cid += 1
    for i in range(n):
        owners = labels[near[i] & core]
        if not core[i] and owners.size:
            labels[i] = owners.min()
    return labels, core


# -- classical scan ---------------------------------------------------------


def test_isolated_points_are_all_noise():
    X = DataSet.from_points([[0.0], [10.0], [20.0]])
    part = dbscan(X, DbscanParams(eps=1.0, min_pts=2))
    assert np.all(part.labels == NOISE)


def test_tight_blob_is_one_cluster():
    X, _ = generate_blobs(seed=1, k=1, per_cluster=50, d=2, spread=0.2)
    part = dbscan(X, DbscanParams(eps=1.0, min_pts=4))
    assert part.k == 1
    assert not np.any(part.labels == NOISE)


def test_chain_connects_through_neighbors():
    X = DataSet.from_points([[0.0], [1.0], [2.0], [3.0]])
    part = dbscan(X, DbscanParams(eps=1.0, min_pts=2))
    assert part.k == 1
    assert np.all(part.labels == 0)


def test_min_pts_one_leaves_no_noise():
    X = DataSet.from_points([[0.0], [100.0]])
    part = dbscan(X, DbscanParams(eps=1.0, min_pts=1))
    assert part.k == 2


def test_matches_core_graph_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(60, 2)) * 0.4
    b = rng.normal(size=(60, 2)) * 0.4 + 6.0
    outliers = np.array([[20.0, -20.0], [25.0, 25.0], [-18.0, 12.0],
                         [3.0, -19.0], [-15.0, -15.0]])
    pts = np.vstack([a, b, outliers])
    scan = density_scan(DataSet.from_points(pts),
                        DbscanParams(eps=0.9, min_pts=4))
    part, core = scan.partition, scan.core
    labels, oracle_core = _density_oracle(pts, 0.9, 4)
    assert part.labels.tolist() == labels.tolist()
    assert core.tolist() == oracle_core.tolist()


@given(st.integers(0, 40), st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=300)
def test_scan_equals_the_density_oracle_exactly(n, d, data):
    # integer grids hold duplicate rows and rows exactly eps apart, and a
    # border row often sees core rows of two clusters
    grid = data.draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-3, 3)),
                     label="grid")
    eps = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])
                    | st.floats(0.5, 2.0), label="eps")
    min_pts = data.draw(st.integers(1, 7), label="min_pts")
    points = grid.astype(np.float64)
    scan = density_scan(DataSet.from_points(points.reshape(n, d)),
                        DbscanParams(eps=eps, min_pts=min_pts))
    part, core = scan.partition, scan.core
    labels, oracle_core = _density_oracle(points.reshape(n, d), eps, min_pts)
    assert part.labels.tolist() == labels.tolist()
    assert core.tolist() == oracle_core.tolist()


def test_a_border_row_joins_the_smallest_cluster_it_touches():
    # row 0 lies exactly eps from a core row of each cluster but is not core;
    # the right cluster holds the smallest core row, so it is cluster 0,
    # though the left one comes first in key order
    points = np.array([[0.0], [2.0], [2.05], [2.1], [2.15],
                       [-2.0], [-2.05], [-2.1], [-2.15]])
    scan = density_scan(DataSet.from_points(points),
                        DbscanParams(eps=2.0, min_pts=4))
    part, core = scan.partition, scan.core
    assert core.tolist() == [False] + [True] * 8
    assert part.labels.tolist() == [0] * 5 + [1] * 4


def test_scan_is_deterministic():
    X, _ = generate_blobs(seed=4, k=2, per_cluster=40, d=3, spread=0.8)
    params = DbscanParams(eps=1.2, min_pts=5)
    assert np.array_equal(dbscan(X, params).labels, dbscan(X, params).labels)


def test_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        DbscanParams(eps=1.0, min_pts=0)


@pytest.mark.parametrize("eps", [1e155, float("inf"), float("nan")])
def test_eps_whose_square_overflows_is_rejected(eps):
    # an infinite eps^2 would count every overflowed distance as a neighbour
    with pytest.raises(ValueError, match="not a finite float64"):
        DbscanParams(eps=eps, min_pts=2)


def test_largest_eps_with_a_finite_square_still_scans():
    # the sweep scores the three rows together; their squares overflow, and
    # an infinite distance is never within a finite eps^2, so no warning
    X = DataSet.from_points([[0.0, 0.0], [1e300, 0.0], [2e300, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        part = dbscan(X, DbscanParams(eps=1e154, min_pts=2))
    assert np.all(part.labels == NOISE)


# -- exact sorted-slab sweep ------------------------------------------------------


def _brute_neighbors(points, row, eps2):
    diff = points - points[row]
    return np.flatnonzero(np.sum(diff * diff, axis=1) <= eps2)


@st.composite
def slab_cases(draw):
    """Points on a grid (duplicates, ties at exactly eps), possibly offset far
    from zero, or so far that their squared norms overflow, or free floats;
    a key column that may be constant; an eps that may equal the key-column
    gap of two rows."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        grid = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-4, 4)))
        step = draw(st.sampled_from([1.0, 0.5, 0.1, 3e-7]))
        offset = draw(st.sampled_from([0.0, 1e12, -1e12, 1e15, 1e160]))
        points = offset + grid * step
    else:
        points = draw(hnp.arrays(np.float64, (n, d), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_infinity=False)))
    col = draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        points[:, col] = points[0, col]  # constant key column
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    gap = abs(points[a, col] - points[b, col])
    eps = gap if gap > 0 and draw(st.booleans()) else draw(
        st.floats(1e-9, 1e3, allow_nan=False))
    return np.ascontiguousarray(points), col, eps * eps


def _slab_on(points, col):
    """The scan's slab, keyed on a chosen column rather than the widest."""
    order = np.argsort(points[:, col], kind="stable")
    rows = points[order]
    return KeySortedRows(col, order, rows, np.ascontiguousarray(rows[:, col]))


def _sweep(slab, eps2, cells=DISTANCE_BLOCK_CELLS):
    """Each row's neighbour ids from one sweep, blocked at `cells` distances,
    after checking the CSR layout: int32 ids in slab order."""
    with mock.patch.object(dbscan_module, "DISTANCE_BLOCK_CELLS", cells), \
            mock.patch.object(core_module, "DISTANCE_BLOCK_CELLS", cells):
        indptr, nbr = dbscan_module._neighbourhoods(slab, eps2)
    n = slab.order.size
    assert nbr.dtype == np.int32 and indptr.shape == (n + 1,)
    assert indptr[0] == 0 and indptr[-1] == nbr.size
    pos = np.empty(n, dtype=np.int64)
    pos[slab.order] = np.arange(n)
    sets = {}
    for p in range(n):
        ids = nbr[indptr[p]:indptr[p + 1]]
        assert np.all(np.diff(pos[ids]) > 0)  # slab order
        sets[int(slab.order[p])] = np.sort(ids).tolist()
    return [sets[row] for row in range(n)]


@given(slab_cases(), st.sampled_from([1, 2, 5, 40, DISTANCE_BLOCK_CELLS]))
@settings(deadline=None, max_examples=300)
def test_slab_query_equals_brute_force(case, cells):
    points, col, eps2 = case
    got = _sweep(_slab_on(points, col), eps2, cells)
    for row in range(points.shape[0]):
        assert got[row] == _brute_neighbors(points, row, eps2).tolist()


# one row a block, where each row's own band decides, and the default blocks
BLOCKINGS = (1, DISTANCE_BLOCK_CELLS)


def test_slab_keeps_a_row_exactly_eps_away_on_the_key_column():
    points = np.array([[1e12], [1e12 + 1.0], [1e12 + 2.0], [1e12 + 2.0]])
    for cells in BLOCKINGS:
        got = _sweep(KeySortedRows.build(points), 1.0, cells)
        assert got[0] == [0, 1]
        assert got[1] == [0, 1, 2, 3]


def test_slab_finds_a_neighbour_past_the_rounded_reach():
    # c + sqrt(eps2) rounds below x although (x - c)**2 <= eps2 in float64,
    # so bands taken from c +- sqrt(eps2) alone would drop row 1
    c, x, eps2 = -2.2905021563861254, 0.04571200661237241, 5.4578966153947714
    assert x > c + np.sqrt(eps2) and (x - c) * (x - c) <= eps2
    points = np.array([[c], [x], [x + 1.0]])
    for cells in BLOCKINGS:
        got = _sweep(KeySortedRows.build(points), eps2, cells)
        assert got[0] == [0, 1]
        assert got[1] == [0, 1, 2]


def test_slab_with_a_constant_key_column_scores_every_pair():
    # every band is the whole slab, so each block is scored against all rows
    rng = np.random.default_rng(3)
    points = np.column_stack([np.full(300, 7.0), rng.normal(size=(300, 2))])
    slab = _slab_on(points, 0)
    for cells in (7, 1000, DISTANCE_BLOCK_CELLS):
        got = _sweep(slab, 0.25, cells)
        for row in range(points.shape[0]):
            assert got[row] == _brute_neighbors(points, row, 0.25).tolist()


def test_squares_that_underflow_stay_neighbours():
    # eps^2 rounds to 0.0, yet rows 1e-170 apart square to 0.0 as well
    points = np.array([[0.0], [1e-170], [1e-150]])
    eps2 = 1e-200 * 1e-200
    assert eps2 == 0.0
    for cells in BLOCKINGS:
        got = _sweep(KeySortedRows.build(points), eps2, cells)
        assert got == [[0, 1], [0, 1], [2]]


@pytest.mark.parametrize("seed", range(5))
def test_the_eps_filter_decides_every_pair_of_a_merge_scan(monkeypatch, seed):
    # the merge benchmark's shape: no pair lies within rounding of eps, so
    # a margin too wide to settle them would show as rows scored exactly
    scored = []
    original = core_module.squared_distances

    def counted(points, centers):
        scored.append(len(points))
        return original(points, centers)

    monkeypatch.setattr(core_module, "squared_distances", counted)
    X, _ = generate_blobs(seed=seed, k=4, per_cluster=500, d=8)
    assert dbscan(X, DbscanParams(eps=3.0, min_pts=5)).k == 4
    assert sum(scored) == 0


def _greedy_cover_oracle(points, cluster_rows, params):
    """The cover as a per-row loop that queries every neighbourhood."""
    eps2 = params.eps * params.eps
    selected = []
    for row in sorted(int(r) for r in cluster_rows):
        if _brute_neighbors(points, row, eps2).size < params.min_pts:
            continue
        p = points[row]
        near = False
        for s in selected:
            diff = p - points[s]
            if float(np.sum(diff * diff)) <= eps2:
                near = True
                break
        if not near:
            selected.append(row)
    return selected


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
                  elements=st.integers(-6, 6).map(lambda v: v * 0.5)),
       st.sampled_from([0.5, 0.75, 1.0, 1.5]), st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=200)
def test_cover_equals_the_per_row_greedy_loop(points, eps, min_pts, data):
    X = DataSet.from_points(points)
    params = DbscanParams(eps=eps, min_pts=min_pts)
    scan = density_scan(X, params)
    core = scan.core
    brute_core = [_brute_neighbors(X.points, r, eps * eps).size >= min_pts
                  for r in range(X.n)]
    assert core.tolist() == brute_core
    rows = data.draw(st.lists(st.integers(0, X.n - 1), unique=True))
    want = _greedy_cover_oracle(X.points, rows, params)
    if want:
        assert specific_core_points(scan, rows, params) == want
    else:
        with pytest.raises(ValueError, match="no core points"):
            specific_core_points(scan, rows, params)


def _count_sweeps(monkeypatch):
    """Rows of each neighbourhood sweep, in call order."""
    swept = []
    real = dbscan_module._neighbourhoods

    def counting(slab, eps2):
        swept.append(slab.order.size)
        return real(slab, eps2)

    monkeypatch.setattr(dbscan_module, "_neighbourhoods", counting)
    return swept


def test_scan_queries_each_row_once(monkeypatch):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=3, spread=0.6)
    swept = _count_sweeps(monkeypatch)
    dbscan(X, DbscanParams(eps=1.0, min_pts=4))
    assert swept == [X.n]  # one sweep finds every row's neighbourhood


def test_cover_and_model_run_no_query(monkeypatch):
    X, _ = generate_blobs(seed=2, k=3, per_cluster=40, d=3, spread=0.6)
    params = DbscanParams(eps=1.0, min_pts=4)
    scan = density_scan(X, params)
    swept = _count_sweeps(monkeypatch)
    for refine in (True, False):
        rep_kmeans_model(X, scan, params, refine=refine)
    assert swept == []


def test_single_node_merge_queries_rows_and_representatives_once(monkeypatch):
    X, _ = _blobs_with_outliers(seed=9, per_cluster=40)
    swept = _count_sweeps(monkeypatch)
    world = CommWorld(1)
    try:
        rep = ddbc(world, split_blocks(X, 1),
                   DdbcParams(local=DbscanParams(eps=0.45, min_pts=5)))
    finally:
        world.shutdown()
    assert rep.model["representatives"] > 0
    # the local scan, then the facilitator's scan of the representatives
    assert swept == [X.n, rep.model["representatives"]]


# -- specific core points ----------------------------------------------------


def test_small_cluster_collapses_to_lowest_row():
    X = DataSet.from_points([[0.0], [0.1], [0.2]])
    params = DbscanParams(eps=0.5, min_pts=2)
    assert specific_core_points(density_scan(X, params), [0, 1, 2],
                                params) == [0]


def test_only_kept_points_block_later_candidates():
    # row 1 is skipped (inside row 0's ball); row 2 is farther than eps
    # from row 0 even though it is within eps of the skipped row 1
    X = DataSet.from_points([[0.0], [0.5], [1.5]])
    params = DbscanParams(eps=1.0, min_pts=1)
    sel = specific_core_points(density_scan(X, params), [0, 1, 2], params)
    assert sel == [0, 2]


def test_cover_is_separated_and_covering():
    X, _ = generate_blobs(seed=5, k=1, per_cluster=80, d=2, spread=0.6)
    params = DbscanParams(eps=0.5, min_pts=4)
    rows = np.arange(X.n)
    sel = specific_core_points(density_scan(X, params), rows, params)
    pts = X.points
    for i, a in enumerate(sel):
        for b in sel[i + 1:]:
            assert float(np.sum((pts[a] - pts[b]) ** 2)) > params.eps ** 2
    eps2 = params.eps ** 2
    for row in rows:
        nb = np.sum((pts - pts[row]) ** 2, axis=1) <= eps2
        if nb.sum() >= params.min_pts:  # core rows must be covered
            assert any(float(np.sum((pts[row] - pts[s]) ** 2)) <= eps2
                       for s in sel)


def test_non_core_rows_never_selected():
    X = DataSet.from_points([[0.0], [0.1], [50.0]])
    params = DbscanParams(eps=0.5, min_pts=2)
    sel = specific_core_points(density_scan(X, params), [0, 1, 2], params)
    assert 2 not in sel


def test_cluster_without_core_points_rejected():
    X = DataSet.from_points([[0.0], [10.0]])
    params = DbscanParams(eps=0.5, min_pts=2)
    with pytest.raises(ValueError, match="no core points"):
        specific_core_points(density_scan(X, params), [0, 1], params)


# -- per-cluster density models ----------------------------------------------


def test_single_ball_cluster_models_as_mean_and_spread():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [0.2, 0.2]])
    X = DataSet.from_points(pts)
    params = DbscanParams(eps=1.0, min_pts=2)
    model = rep_kmeans_model(X, density_scan(X, params), params)
    assert model.k == 1 and model.cluster.tolist() == [0]
    assert np.allclose(model.centers[0], [0.1, 0.1])
    assert model.radii[0] == pytest.approx(float(np.sqrt(0.02)))


def test_singleton_clusters_have_zero_radius():
    X = DataSet.from_points([[0.0], [10.0], [20.0]])
    params = DbscanParams(eps=1.0, min_pts=1)
    model = rep_kmeans_model(X, density_scan(X, params), params,
                             refine=False)
    assert model.k == 3
    assert model.cluster.tolist() == [0, 1, 2]
    assert model.radii.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("refine", [True, False])
def test_every_clustered_point_is_covered(refine):
    X, _ = generate_blobs(seed=6, k=2, per_cluster=60, d=2, spread=0.5)
    params = DbscanParams(eps=0.6, min_pts=4)
    scan = density_scan(X, params)
    part = scan.partition
    model = rep_kmeans_model(X, scan, params, refine=refine)
    labels = part.labels
    ids = np.unique(labels[labels != NOISE]).tolist()
    assert model.k == len(ids)
    for i, cid in enumerate(ids):
        mine = model.cluster == i
        for row in np.nonzero(labels == cid)[0]:
            p = X.points[row]
            assert any(float(np.linalg.norm(p - c)) <= r + 1e-9
                       for c, r in zip(model.centers[mine], model.radii[mine]))


def _per_center_radii(X, partition, model):
    """Each model ball's radius by a loop over its centers: the largest
    distance to a member, a member being a cluster row whose nearest center
    (ties to the lowest) it is; 0.0 for a center without members."""
    labels = partition.labels
    out = []
    for i, cid in enumerate(np.unique(labels[labels != NOISE]).tolist()):
        points = X.points[labels == cid]
        centers = model.centers[model.cluster == i]
        assigned = np.argmin(squared_distances(points, centers), axis=1)
        radii = []
        for i in range(centers.shape[0]):
            members = points[assigned == i]
            if members.shape[0] == 0:
                radii.append(0.0)
            else:
                diff = members - centers[i]
                radii.append(float(np.sqrt(np.max(np.sum(diff * diff, axis=1)))))
        out.append(radii)
    return out


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("seed", [1, 6])
def test_radii_equal_the_per_center_loop(refine, seed):
    X, _ = generate_blobs(seed=seed, k=3, per_cluster=60, d=3, spread=0.5)
    # duplicate rows and a coarse grid make equal distances common
    pts = np.round(np.vstack([X.points, X.points[:20]]) * 2.0) / 2.0
    X = DataSet.from_points(pts)
    params = DbscanParams(eps=1.0, min_pts=4)
    scan = density_scan(X, params)
    part = scan.partition
    model = rep_kmeans_model(X, scan, params, refine=refine)
    got = [model.radii[model.cluster == i].tolist() for i in range(model.k)]
    assert got == _per_center_radii(X, part, model)
    assert model.radii.dtype == np.float64


def test_the_model_scores_fewer_distances_than_a_full_recompute(
        monkeypatch, count_distance_cells):
    # nested runs with more than 16 centers assign every row from one
    # product and send none to squared_distances here; those with at most
    # 16 rescore only the centers that moved, against trips x rows x k
    # distances for a full recompute
    X, _ = generate_blobs(seed=1, k=4, per_cluster=100, d=8)
    params = DbscanParams(eps=3.0, min_pts=5)
    scan = density_scan(X, params)
    rescored = []
    exact = core_module.squared_distances

    def counted(points, centers):
        rescored.append(len(points))
        return exact(points, centers)

    monkeypatch.setattr(core_module, "squared_distances", counted)
    runs = []
    original = kmeans_module.kmeans_centralized

    def recorded(sub, kp, init_centers=None):
        cells, calls = count_distance_cells["kmeans"], len(rescored)
        out = original(sub, kp, init_centers=init_centers)
        runs.append((kp.k, count_distance_cells["kmeans"] - cells,
                     sum(rescored[calls:]), out[3] * sub.n * kp.k))
        return out

    monkeypatch.setattr(kmeans_module, "kmeans_centralized", recorded)
    rep_kmeans_model(X, scan, params)
    many = [run for run in runs if run[0] > 16]
    few = [run for run in runs if run[0] <= 16]
    assert len(runs) == 4 and many and few
    assert all(cells == 0 and rows == 0 for _, cells, rows, _ in many)
    assert (sum(cells for _, cells, _, _ in few)
            < 0.75 * sum(full for _, _, _, full in few))


# -- distributed merge --------------------------------------------------------


def _blobs_with_outliers(seed, per_cluster):
    blobs, truth = generate_blobs(seed=seed, k=3, per_cluster=per_cluster,
                                  d=2, spread=0.4, separation=10.0)
    rng = np.random.default_rng(seed * 10)
    lo = blobs.points.min(axis=0) - 2.0
    hi = blobs.points.max(axis=0) + 2.0
    n_out = blobs.n // 20
    pts = np.vstack([blobs.points, rng.uniform(lo, hi, size=(n_out, 2))])
    lab = np.concatenate([truth.labels, np.full(n_out, NOISE)])
    order = rng.permutation(pts.shape[0])
    return DataSet.from_points(pts[order]), Partition(lab[order])


def test_single_node_matches_central_scan():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(40, 2)) * 0.3
    b = rng.normal(size=(40, 2)) * 0.3 + 8.0
    out = np.array([[30.0, -30.0], [40.0, 40.0], [-35.0, 10.0]])
    X = DataSet.from_points(np.vstack([a, b, out]))
    params = DbscanParams(eps=0.8, min_pts=4)
    central = dbscan(X, params)
    world = CommWorld(1)
    try:
        rep = ddbc(world, split_blocks(X, 1), DdbcParams(local=params))
    finally:
        world.shutdown()
    assert adjusted_rand_index(rep.partition, central) == 1.0
    assert np.array_equal(rep.labels == NOISE, central.labels == NOISE)


def test_one_blob_split_across_nodes_stays_one_cluster():
    X, _ = generate_blobs(seed=3, k=1, per_cluster=80, d=2, spread=0.4)
    world = CommWorld(2)
    try:
        rep = ddbc(world, split_blocks(X, 2),
                   DdbcParams(local=DbscanParams(eps=0.6, min_pts=4)))
    finally:
        world.shutdown()
    assert rep.model["k"] == 1


def test_shuffled_blobs_with_outliers_across_four_nodes():
    X, _truth = _blobs_with_outliers(seed=9, per_cluster=120)
    params = DbscanParams(eps=0.45, min_pts=5)
    world = CommWorld(4)
    try:
        rep = ddbc(world, split_blocks(X, 4), DdbcParams(local=params))
    finally:
        world.shutdown()
    central = dbscan(X, params)
    assert rep.model["k"] == 3
    assert adjusted_rand_index(rep.partition, central) >= 0.9


def test_local_clusters_never_split_in_the_merge():
    X, _ = _blobs_with_outliers(seed=9, per_cluster=60)
    params = DbscanParams(eps=0.45, min_pts=5)
    world = CommWorld(3)
    try:
        blocks = split_blocks(X, 3)
        rep = ddbc(world, blocks, DdbcParams(local=params))
    finally:
        world.shutdown()
    start = 0
    for block in blocks:
        local = dbscan(DataSet.from_points(block), params)
        final = rep.labels[start:start + len(block)]
        start += len(block)
        for cid in np.unique(local.labels[local.labels != NOISE]):
            assert np.unique(final[local.labels == cid]).size == 1


@pytest.mark.parametrize("p", [2, 3])
def test_a_merge_makes_two_gathers_and_one_broadcast(p, count_collectives):
    X, _ = _blobs_with_outliers(seed=9, per_cluster=40)
    world = CommWorld(p)
    try:
        rep = ddbc(world, split_blocks(X, p),
                   DdbcParams(local=DbscanParams(eps=0.45, min_pts=5)))
    finally:
        world.shutdown()
    assert rep.model["k"] == 3
    # the models in, the group numbers out, the labels in
    assert count_collectives[world] == {"gather": 2, "broadcast": 1}


def test_misfit_blocks_are_refused_before_the_min_pts_check():
    # four 30-row blocks, each too small for min_pts=31: on a 2-node world
    # the refusal names the misfit, on a 4-node world the block size
    X, _ = generate_blobs(seed=1, k=2, per_cluster=60, d=2)
    params = DdbcParams(local=DbscanParams(eps=1.0, min_pts=31))
    for p, why in ((2, "do not fit a 2-node world"),
                   (4, "a shard of 30 rows is smaller than min_pts=31 and "
                       "can hold no core point; use fewer nodes")):
        world = CommWorld(p)
        try:
            with pytest.raises(ValueError, match=why):
                ddbc(world, split_blocks(X, 4), params)
        finally:
            world.shutdown()


def test_merge_params_validation_and_default_reach():
    local = DbscanParams(eps=0.5, min_pts=3)
    assert DdbcParams(local=local).resolved_eps_global() == 1.0
    assert DdbcParams(local=local, eps_global=0.7).resolved_eps_global() == 0.7
    with pytest.raises(ValueError):
        DdbcParams(local=local, eps_global=0.0)
    with pytest.raises(ValueError):
        DdbcParams(local=local, min_pts_global=0)
    with pytest.raises(ValueError, match="not a finite float64"):
        DdbcParams(local=local, eps_global=1e155)
    # a local eps with a finite square whose default reach 2*eps has none
    with pytest.raises(ValueError, match="not a finite float64"):
        DdbcParams(local=DbscanParams(eps=1e154, min_pts=2))


def test_a_scan_without_a_cluster_models_as_empty_arrays():
    rng = np.random.default_rng(4)
    blobs, _ = generate_blobs(seed=4, k=2, per_cluster=50, d=2, spread=0.3,
                              separation=6.0)
    # 100 rows on a grid of step 2 far from the blobs: none is near another
    grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), axis=-1)
    sparse = 2.0 * grid.reshape(-1, 2) + 100.0 + rng.uniform(0, 0.5, (100, 2))
    params = DbscanParams(eps=0.6, min_pts=4)
    X = DataSet.from_points(sparse)
    model = rep_kmeans_model(X, density_scan(X, params), params)
    assert model.k == 0 and model.centers.shape == (0, 2)
    assert model.cluster.size == 0 and model.radii.size == 0
    # at P=2 the second shard holds the sparse rows alone
    X = DataSet.from_points(np.vstack([blobs.points, sparse]))
    reports = []
    for p in (1, 2):
        world = CommWorld(p)
        try:
            reports.append(ddbc(world, split_blocks(X, p),
                                DdbcParams(local=params)))
        finally:
            world.shutdown()
    assert reports[0].model["k"] == 2
    assert np.array_equal(reports[1].labels, reports[0].labels)
    assert reports[1].model == reports[0].model
