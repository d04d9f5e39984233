"""Density clustering: the classical scan, compact per-cluster density
models built from specific core points, and the distributed variant that
clusters model representatives at the facilitator.

Each scan finds every row's eps-neighbourhood in one blocked sweep over rows
sorted by one column, and records which rows are core points; the density
models reuse that mask and those neighbourhoods instead of querying or
scoring distances again. The labels do not depend on the order of the
rows: clusters are the connected components of the core rows, numbered by
their smallest core row, and a border row joins the cluster of smallest
number among its core neighbours."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kmeans
from .comm import CommWorld, NodeCtx, blocks_of
from .core import (DISTANCE_BLOCK_CELLS, NOISE, DataSet, KeySortedRows,
                   Partition, column_midrange, components, lifted_rows,
                   row_squared_distances, squared_distances,
                   within_squared_distance)
from .report import ClusterReport


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not math.isfinite(self.eps * self.eps):
            raise ValueError("eps=%g: its square is not a finite float64, so "
                             "no distance could be compared with it" % self.eps)
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def _neighbourhoods(slab: KeySortedRows, eps2: float):
    """Every row's eps-neighbourhood in the key-sorted rows `slab`, found in
    one blocked sweep.

    Returns CSR arrays (indptr, nbr) over slab positions: the rows whose
    squared distance to row order[p] is <= eps2 are
    nbr[indptr[p]:indptr[p + 1]], as int32 ids in slab order.

    Each block of consecutive positions is scored in full against the
    union of its rows' key bands, a band being the rows whose key lies
    within `reach` of the row's own. A rounded sum of non-negative terms
    is never below any one of them, so a row that passes has a key term
    <= eps2, and so a key gap within sqrt(eps2) up to a few roundings
    (the relative slack) or one whose square underflows (the absolute
    slack). Every band thus holds all rows that can pass, and the full
    test alone decides: the sets are exact. `core.within_squared_distance`
    makes that test, with the slab's lifted rows computed once.
    """
    keys = slab.keys
    n = keys.size
    reach = math.sqrt(eps2) * (1.0 + 2.0 ** -20) + 2.0 ** -500
    lo = np.searchsorted(keys, keys - reach, "left")
    hi = np.searchsorted(keys, keys + reach, "right")
    ids = slab.order.astype(np.int32)
    lhs, rhs = lifted_rows(slab.rows, column_midrange(slab.rows))
    counts = np.empty(n, dtype=np.int64)
    chunks = []
    start = 0
    while start < n:
        # the longest block whose rows x union of bands fits the budget
        width = hi[start:start + DISTANCE_BLOCK_CELLS] - lo[start]
        cells = width * np.arange(1, width.size + 1)
        stop = start + max(1, int(np.searchsorted(
            cells, DISTANCE_BLOCK_CELLS, "right")))
        a, b = int(lo[start]), int(hi[stop - 1])
        hit = within_squared_distance(slab.rows[start:stop], slab.rows[a:b],
                                      eps2, lhs[start:stop], rhs[a:b])
        counts[start:stop] = np.count_nonzero(hit, axis=1)
        cols = np.flatnonzero(hit)  # row-major, as nonzero's
        cols %= b - a
        chunks.append(ids[a:b][cols])
        start = stop
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nbr = np.concatenate(chunks) if chunks else ids[:0]
    return indptr, nbr


@dataclass(frozen=True)
class DensityScan:
    """One scan of a dataset: its partition, its core-point mask, and every
    row's eps-neighbourhood as the sweep found it.

    The neighbourhoods are the sweep's CSR arrays over slab positions;
    `position[row]` is the row's slab position, so `neighbours(row)` are
    the rows whose squared distance to it is <= eps2, the row included.
    """

    partition: Partition
    core: np.ndarray  # bool per row
    indptr: np.ndarray
    nbr: np.ndarray
    position: np.ndarray

    def neighbours(self, row: int) -> np.ndarray:
        p = self.position[row]
        return self.nbr[self.indptr[p]:self.indptr[p + 1]]


def density_scan(X: DataSet, params: DbscanParams) -> DensityScan:
    """Classical density scan with closed eps-balls, in an order-free form.

    A point counts itself as a neighbour, and a row is core when its
    neighbourhood holds at least min_pts rows. Clusters are the connected
    components of the core rows under the eps relation, numbered in the
    order of their smallest core row. A non-core row takes the smallest
    cluster number among its core neighbours; one with no core neighbour is
    noise. No rule depends on the order rows are visited in, so runs are
    bit-reproducible. Every row's neighbourhood is found once, in one sweep,
    and the scan keeps them for the density models.
    """
    n = X.n
    slab = KeySortedRows.build(X.points)
    indptr, nbr = _neighbourhoods(slab, params.eps * params.eps)
    counts = np.diff(indptr)
    dense = counts >= params.min_pts  # by slab position
    core = np.zeros(n, dtype=bool)
    core[slab.order] = dense
    # every neighbour pair, grouped by row, as int32 ids like nbr's; a pair
    # that is not core-core becomes a self-loop, which joins nothing
    u = np.repeat(slab.order.astype(np.int32), counts)
    root = components(n, u, np.where(np.repeat(dense, counts) & core[nbr],
                                     nbr, u))
    # a core row that is its own root is the smallest of its cluster
    number = np.cumsum(core & (root == np.arange(n))) - 1
    cluster = np.full(n, n, dtype=np.int32)  # n: not a core row
    cluster[core] = number[root[core]]
    # each row's least cluster among its neighbours: its own for a core row
    least = np.minimum.reduceat(cluster[nbr], indptr[:-1])
    labels = np.empty(n, dtype=np.int64)
    labels[slab.order] = np.where(least == n, NOISE, least)
    position = np.empty(n, dtype=np.int64)
    position[slab.order] = np.arange(n)
    return DensityScan(Partition(labels), core, indptr, nbr, position)


def dbscan(X: DataSet, params: DbscanParams) -> Partition:
    """The partition of `density_scan(X, params)`."""
    return density_scan(X, params).partition


def specific_core_points(scan: DensityScan, cluster_rows,
                         params: DbscanParams) -> list[int]:
    """Greedy eps-separated cover of one cluster's core points.

    `scan` is the density scan of the rows `cluster_rows` index. Core rows
    are visited in ascending order; one is kept only if it lies strictly
    more than eps from every point already kept, that is, if no kept row's
    neighbourhood holds it. Each kept row marks its neighbourhood covered,
    so no distance is scored: the sweep's relation is exactly
    `squared_distances <= eps2`, and a squared distance does not depend on
    which of its two rows comes first.
    """
    rows = np.sort(np.asarray(cluster_rows, dtype=np.int64))
    rows = rows[scan.core[rows]]
    if rows.size == 0:
        raise ValueError("cluster has no core points under eps=%g min_pts=%d"
                         % (params.eps, params.min_pts))
    covered = np.zeros(scan.core.size, dtype=bool)
    selected: list[int] = []
    for row in rows.tolist():
        if not covered[row]:
            selected.append(row)
            covered[scan.neighbours(row)] = True
    return selected


@dataclass(frozen=True)
class LocalDensityModel:
    """A scan's clusters as covering balls: center i, of radius radii[i],
    covers rows of local cluster cluster[i], out of clusters 0..k-1.

    `centers` is (m, d), `cluster` and `radii` are (m,); the balls run by
    cluster, then by center. A scan with no cluster has k = 0 and m = 0.
    """

    k: int
    cluster: np.ndarray
    centers: np.ndarray
    radii: np.ndarray


def rep_kmeans_model(X: DataSet, scan: DensityScan, params: DbscanParams,
                     refine: bool = True) -> LocalDensityModel:
    """Compress each cluster into |specific core points| centers.

    `scan` is `density_scan(X, params)`.

    With refine=True the centers come from k-means seeded at the specific
    core points; otherwise the specific core points themselves are kept.
    Radii are the largest distance from a center to a point assigned to
    it, so every clustered point is covered by some ball. Each cluster's
    centers and radii are stacked into the model's arrays, cluster by
    cluster.
    """
    pts = X.points
    labels = scan.partition.labels
    ids = np.unique(labels[labels != NOISE]).tolist()
    # (cluster, centers, radii) per cluster, after an empty part that makes
    # a scan without a cluster stack to a (0, d) model
    parts = [(np.empty(0, np.int64), pts[:0], np.empty(0))]
    for i, cid in enumerate(ids):
        rows = np.nonzero(labels == cid)[0]
        scor = specific_core_points(scan, rows, params)
        seeds = pts[scor]
        sub = DataSet.from_points(pts[rows])
        if refine:
            kp = kmeans.KMeansParams(k=len(scor), max_iter=300, tol=1e-9,
                                     seed=0)
            centers_set, assign, _, _ = kmeans.kmeans_centralized(
                sub, kp, init_centers=seeds)
            centers = centers_set.centers
            assigned = assign.labels
        else:
            centers = seeds
            assigned = np.argmin(squared_distances(sub.points, centers), axis=1)
        d2 = row_squared_distances(sub.points, centers[assigned])
        radius2 = np.zeros(centers.shape[0])  # an empty center keeps 0.0
        np.maximum.at(radius2, assigned, d2)
        parts.append((np.full(centers.shape[0], i, dtype=np.int64), centers,
                      np.sqrt(radius2)))
    cluster, centers, radii = zip(*parts)
    return LocalDensityModel(len(ids), np.concatenate(cluster),
                             np.vstack(centers), np.concatenate(radii))


@dataclass(frozen=True)
class DdbcParams:
    local: DbscanParams
    eps_global: float | None = None  # defaults to 2 * local eps
    min_pts_global: int = 1
    refine_model: bool = True

    def resolved_eps_global(self) -> float:
        return self.local.eps * 2.0 if self.eps_global is None else self.eps_global

    def __post_init__(self):
        if self.eps_global is not None and self.eps_global <= 0:
            raise ValueError("eps_global must be positive")
        eps_global = self.resolved_eps_global()
        if not math.isfinite(eps_global * eps_global):
            raise ValueError("eps_global=%g: its square is not a finite float64, "
                             "so no distance could be compared with it"
                             % eps_global)
        if self.min_pts_global < 1:
            raise ValueError("min_pts_global must be >= 1")


async def _ddbc_node(ctx: NodeCtx, points, params: DdbcParams):
    """One rank's scan and density model of its block, merged at rank 0;
    every rank returns (labels, representatives), with the labels at rank
    0 only. A block of fewer than min_pts rows, which can hold no core
    point, is refused."""
    if len(points) < params.local.min_pts:
        raise ValueError("a shard of %d rows is smaller than min_pts=%d and "
                         "can hold no core point; use fewer nodes"
                         % (len(points), params.local.min_pts))
    local_X = DataSet.from_points(points)
    scan = density_scan(local_X, params.local)
    models = await ctx.gather(rep_kmeans_model(local_X, scan, params.local,
                                               refine=params.refine_model))
    if ctx.rank == 0:
        # local clusters are nodes 0..n_local-1 in rank-major order, and
        # global cluster g of the representatives is node n_local + g;
        # representatives run rank-major, then as each model stacks them
        first = np.cumsum([0] + [m.k for m in models])
        n_local = int(first[-1])
        owner = np.concatenate([first[r] + m.cluster
                                for r, m in enumerate(models)])
        centers = np.vstack([m.centers for m in models])
        radii = np.concatenate([m.radii for m in models])
        g = dbscan(DataSet.from_points(centers),
                   DbscanParams(eps=params.resolved_eps_global(),
                                min_pts=params.min_pts_global)).labels
        # co-occurring representatives merge their local clusters
        u, v = owner[g != NOISE], n_local + g[g != NOISE]
        root = components(n_local + len(owner), np.concatenate([u, v]),
                          np.concatenate([v, u]))[:n_local]
        # each root is its group's first local cluster, so numbering the
        # roots in order numbers the groups by first appearance
        group = (np.cumsum(root == np.arange(n_local)) - 1)[root]
        payload = ([group[first[r]:first[r + 1]] for r in range(ctx.size)],
                   centers, radii, group[owner])
    else:
        payload = None
    groups, centers, radii, gids = await ctx.broadcast(payload)

    local = scan.partition.labels
    final = np.full(len(points), NOISE, dtype=np.int64)
    final[local != NOISE] = groups[ctx.rank][local[local != NOISE]]
    # local noise joins the cluster of the nearest covering representative
    noise_rows = np.nonzero(final == NOISE)[0]
    if noise_rows.size and gids.size:
        dist = np.sqrt(squared_distances(points[noise_rows], centers))
        inside = dist <= radii
        # first covering representative at the least distance; an infinite
        # distance inside an infinite radius still beats every outside one
        nearest = np.min(np.where(inside, dist, np.inf), axis=1, keepdims=True)
        pick = np.argmax(inside & (dist == nearest), axis=1)
        covered = inside.any(axis=1)
        final[noise_rows[covered]] = gids[pick[covered]]

    return await ctx.gather_rows(final), int(gids.size)


def ddbc(world: CommWorld, rows, params: DdbcParams) -> ClusterReport:
    """Distributed density clustering of `rows`, a DataSet or a list of
    blocks, as `CommWorld.run` takes them.

    Each node scans its block and compresses every local cluster into a
    density model; the facilitator density-clusters all representative
    centers, merges local clusters whose representatives co-occur, and
    broadcasts the relabeling.

    A shard holds a 1/P sample of the data's density, so a split can hide
    clusters that a central scan finds. Raises ValueError rather than
    answer "all noise" from shards that show no core point: when a shard
    has fewer than `min_pts` rows, or when no shard of a multi-node run
    holds a core point.
    """
    (labels, n_reps), timings = world.run(_ddbc_node, rows, params)
    blocks = blocks_of(rows, world.size)
    if n_reps == 0 and world.size > 1:
        sizes = sorted(map(len, blocks))
        raise ValueError("no shard of %d to %d rows holds a core point under "
                         "eps=%g and min_pts=%d, and an all-noise answer over "
                         "%d nodes cannot be told from shards too small to "
                         "show the clusters; use fewer nodes"
                         % (sizes[0], sizes[-1], params.local.eps,
                            params.local.min_pts, world.size))
    return ClusterReport(
        algo="ddbc",
        p=world.size,
        params={"eps": params.local.eps, "min_pts": params.local.min_pts,
                "eps_global": params.resolved_eps_global(),
                "min_pts_global": params.min_pts_global,
                "local_model": "rep-kmeans" if params.refine_model else "rep-scor"},
        n=len(labels),
        d=blocks[0].shape[1],
        labels=labels,
        model={"k": Partition(labels).k, "representatives": int(n_reps)},
        timings_ms=timings,
    )
