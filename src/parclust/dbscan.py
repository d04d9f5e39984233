"""Density clustering: the classical scan, compact per-cluster density
models built from specific core points, and the distributed variant that
clusters model representatives at the facilitator.

Each scan finds every row's eps-neighbourhood in one blocked sweep over rows
sorted by one column, and records which rows are core points; the density
models reuse that mask instead of querying again."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx
from .core import (DISTANCE_BLOCK_CELLS, NOISE, DataSet, Partition, UnionFind,
                   sort_by_widest_column, squared_distances)
from .report import ClusterReport

_UNSEEN = -2


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


@dataclass(frozen=True)
class _Slab:
    """Rows sorted by one key column, for exact eps-neighbourhood queries."""

    order: np.ndarray  # row ids in ascending key order
    rows: np.ndarray  # points[order]
    keys: np.ndarray  # rows[:, col], contiguous

    @classmethod
    def build(cls, points: np.ndarray) -> "_Slab":
        col, order = sort_by_widest_column(points)
        rows = points[order]
        return cls(order, rows, np.ascontiguousarray(rows[:, col]))

    def neighbourhoods(self, eps2: float):
        """Every row's eps-neighbourhood, found in one blocked sweep.

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
        test alone decides: the sets are exact.
        """
        keys = self.keys
        n = keys.size
        reach = math.sqrt(eps2) * (1.0 + 2.0 ** -20) + 2.0 ** -500
        lo = np.searchsorted(keys, keys - reach, "left")
        hi = np.searchsorted(keys, keys + reach, "right")
        ids = self.order.astype(np.int32)
        counts = np.empty(n, dtype=np.int64)
        chunks = []
        start = 0
        with np.errstate(over="ignore"):  # an infinite square is no neighbour
            while start < n:
                # the longest block whose rows x union of bands fits the budget
                width = hi[start:start + DISTANCE_BLOCK_CELLS] - lo[start]
                cells = width * np.arange(1, width.size + 1)
                stop = start + max(1, int(np.searchsorted(
                    cells, DISTANCE_BLOCK_CELLS, "right")))
                a, b = int(lo[start]), int(hi[stop - 1])
                hit = squared_distances(self.rows[start:stop],
                                        self.rows[a:b]) <= eps2
                counts[start:stop] = np.count_nonzero(hit, axis=1)
                chunks.append(ids[a:b][np.nonzero(hit)[1]])
                start = stop
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nbr = np.concatenate(chunks) if chunks else ids[:0]
        return indptr, nbr


def dbscan(X: DataSet, params: DbscanParams, return_core: bool = False):
    """Classical density scan with closed eps-balls.

    Rows are visited in ascending order and a point counts itself as a
    neighbor, so runs are bit-reproducible; border points join the first
    cluster that reaches them. Every row's neighbourhood is found once, in
    one sweep before the scan. Returns the Partition, or with
    return_core=True the pair (Partition, boolean core-point mask).
    """
    pts = X.points
    n = X.n
    labels = np.full(n, _UNSEEN, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    # rows that entered a frontier; one queued by an earlier cluster already
    # holds its final label, so a later cluster would only skip it
    queued = np.zeros(n, dtype=bool)
    slab = _Slab.build(pts)
    indptr, nbr = slab.neighbourhoods(params.eps * params.eps)
    pos = np.empty(n, dtype=np.int64)
    pos[slab.order] = np.arange(n)
    first, last = indptr[pos].tolist(), indptr[pos + 1].tolist()
    cid = 0
    for i in range(n):
        if labels[i] != _UNSEEN:
            continue
        if last[i] - first[i] < params.min_pts:
            labels[i] = NOISE
            continue
        core[i] = True
        labels[i] = cid
        nb = nbr[first[i]:last[i]]
        queued[nb] = True
        frontier = nb.tolist()
        head = 0
        while head < len(frontier):
            j = frontier[head]
            head += 1
            if labels[j] == NOISE:
                labels[j] = cid  # border point, claimed by the first cluster
            if labels[j] != _UNSEEN:
                continue
            labels[j] = cid
            if last[j] - first[j] >= params.min_pts:
                core[j] = True
                nbj = nbr[first[j]:last[j]]
                fresh = nbj[~queued[nbj]]
                queued[fresh] = True
                frontier.extend(fresh.tolist())
        cid += 1
    part = Partition(labels)
    return (part, core) if return_core else part


def specific_core_points(X: DataSet, cluster_rows, core: np.ndarray,
                         params: DbscanParams) -> list[int]:
    """Greedy eps-separated cover of one cluster's core points.

    `core` is the scan's core-point mask over X. Core rows are visited in
    ascending order; one is kept only if it lies strictly more than eps from
    every point already kept. A running minimum squared distance to the
    kept points decides that, so no neighbourhood is queried.
    """
    rows = np.sort(np.asarray(cluster_rows, dtype=np.int64))
    rows = rows[core[rows]]
    if rows.size == 0:
        raise ValueError("cluster has no core points under eps=%g min_pts=%d"
                         % (params.eps, params.min_pts))
    eps2 = params.eps * params.eps
    cand = X.points[rows]
    nearest = np.full(rows.size, np.inf)
    selected: list[int] = []
    i = 0
    while True:
        selected.append(int(rows[i]))
        diff = cand - cand[i]
        np.minimum(nearest, np.sum(diff * diff, axis=1), out=nearest)
        later = np.flatnonzero(nearest[i + 1:] > eps2)
        if later.size == 0:
            return selected
        i += 1 + int(later[0])


@dataclass(frozen=True)
class LocalDensityModel:
    """Per local cluster: representative centers with covering radii."""

    clusters: tuple  # tuple of tuples of (center ndarray, radius float)

    def entries(self):
        for cid, group in enumerate(self.clusters):
            for center, radius in group:
                yield cid, center, radius


def rep_kmeans_model(X: DataSet, partition: Partition, core: np.ndarray,
                     params: DbscanParams,
                     refine: bool = True) -> LocalDensityModel:
    """Compress each cluster into |specific core points| centers.

    `partition` and the core-point mask `core` come from one scan of X.

    With refine=True the centers come from k-means seeded at the specific
    core points; otherwise the specific core points themselves are kept.
    Radii are the largest distance from a center to a point assigned to
    it, so every clustered point is covered by some ball.
    """
    from .kmeans import KMeansParams, kmeans_centralized  # local to avoid a cycle

    pts = X.points
    groups = []
    labels = partition.labels
    for cid in np.unique(labels[labels != NOISE]).tolist():
        rows = np.nonzero(labels == cid)[0]
        scor = specific_core_points(X, rows, core, params)
        seeds = pts[scor]
        sub = DataSet.from_points(pts[rows])
        if refine:
            kp = KMeansParams(k=len(scor), max_iter=300, tol=1e-9, seed=0)
            centers_set, assign, _, _ = kmeans_centralized(sub, kp,
                                                           init_centers=seeds)
            centers = centers_set.centers
            assigned = assign.labels
        else:
            centers = seeds
            assigned = np.argmin(squared_distances(sub.points, centers), axis=1)
        group = []
        for i in range(centers.shape[0]):
            members = sub.points[assigned == i]
            if members.shape[0] == 0:
                radius = 0.0
            else:
                diff = members - centers[i]
                radius = float(np.sqrt(np.max(np.sum(diff * diff, axis=1))))
            group.append((centers[i].copy(), radius))
        groups.append(tuple(group))
    return LocalDensityModel(tuple(groups))


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


def _ddbc_node(ctx: NodeCtx, shards, params: DdbcParams):
    shard = shards[ctx.rank]
    local_X = DataSet.from_points(shard.points)
    local_part, core = dbscan(local_X, params.local, return_core=True)
    if local_part.k > 0:
        model = rep_kmeans_model(local_X, local_part, core, params.local,
                                 refine=params.refine_model)
    else:
        model = LocalDensityModel(())

    models = ctx.gather(model, root=0)
    if ctx.rank == 0:
        reps = []  # (rank, local cluster id, center, radius), rank-major order
        for rank, m in enumerate(models):
            for cid, center, radius in m.entries():
                reps.append((rank, cid, center, radius))
        mapping: dict = {}
        rep_entries = []
        if reps:
            rep_X = DataSet.from_points(np.vstack([r[2] for r in reps]))
            gparams = DbscanParams(eps=params.resolved_eps_global(),
                                   min_pts=params.min_pts_global)
            gpart = dbscan(rep_X, gparams)
            uf = UnionFind()
            for i, (rank, cid, _c, _r) in enumerate(reps):
                g = int(gpart.labels[i])
                if g != NOISE:  # co-occurring representatives merge clusters
                    uf.union(("local", rank, cid), ("global", g))
            next_gid = 0
            for rank, m in enumerate(models):
                for cid in range(len(m.clusters)):
                    root = uf.find(("local", rank, cid))
                    if root not in mapping:
                        mapping[root] = next_gid
                        next_gid += 1
            mapping = {("local", rank, cid): mapping[uf.find(("local", rank, cid))]
                       for rank, m in enumerate(models)
                       for cid in range(len(m.clusters))}
            rep_entries = [(center, radius, mapping[("local", rank, cid)])
                           for rank, cid, center, radius in reps]
        payload = (mapping, rep_entries)
    else:
        payload = None
    mapping, rep_entries = ctx.broadcast(payload, root=0)

    local = local_part.labels
    to_global = np.asarray([mapping[("local", ctx.rank, c)]
                            for c in range(local_part.k)], dtype=np.int64)
    final = np.full(len(shard), NOISE, dtype=np.int64)
    final[local != NOISE] = to_global[local[local != NOISE]]
    # local noise joins the cluster of the nearest covering representative
    noise_rows = np.nonzero(final == NOISE)[0]
    if noise_rows.size and rep_entries:
        centers = np.vstack([e[0] for e in rep_entries])
        radii = np.asarray([e[1] for e in rep_entries])
        gids = np.asarray([e[2] for e in rep_entries], dtype=np.int64)
        dist = np.sqrt(squared_distances(shard.points[noise_rows], centers))
        inside = dist <= radii
        # first covering representative at the least distance; an infinite
        # distance inside an infinite radius still beats every outside one
        nearest = np.min(np.where(inside, dist, np.inf), axis=1, keepdims=True)
        pick = np.argmax(inside & (dist == nearest), axis=1)
        covered = inside.any(axis=1)
        final[noise_rows[covered]] = gids[pick[covered]]

    gathered = ctx.gather(final, root=0)
    if ctx.rank == 0:
        return np.concatenate(gathered), len(rep_entries)
    return None


def ddbc(world: CommWorld, shards, params: DdbcParams) -> ClusterReport:
    """Distributed density clustering.

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
    sizes = sorted(len(s) for s in shards)
    min_pts = params.local.min_pts
    if sizes[0] < min_pts:
        raise ValueError("a shard of %d rows is smaller than min_pts=%d and "
                         "can hold no core point; use fewer nodes"
                         % (sizes[0], min_pts))
    with world.timed() as timings:
        out = world.spmd(_ddbc_node, shards, params)
    labels, n_reps = out[0]
    if n_reps == 0 and world.size > 1:
        raise ValueError("no shard of %d to %d rows holds a core point under "
                         "eps=%g and min_pts=%d, and an all-noise answer over "
                         "%d nodes cannot be told from shards too small to "
                         "show the clusters; use fewer nodes"
                         % (sizes[0], sizes[-1], params.local.eps, min_pts,
                            world.size))
    k = int(np.unique(labels[labels != NOISE]).size)
    return ClusterReport(
        algo="ddbc",
        p=world.size,
        params={"eps": params.local.eps, "min_pts": params.local.min_pts,
                "eps_global": params.resolved_eps_global(),
                "min_pts_global": params.min_pts_global,
                "local_model": "rep-kmeans" if params.refine_model else "rep-scor"},
        n=sum(len(s) for s in shards),
        d=shards[0].points.shape[1],
        labels=labels,
        model={"k": k, "representatives": int(n_reps)},
        timings_ms=timings,
    )
