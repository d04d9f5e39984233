"""Density clustering: the classical scan, compact per-cluster density
models built from specific core points, and the distributed variant that
clusters model representatives at the facilitator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx
from .core import NOISE, DataSet, Partition, UnionFind, squared_distances
from .report import ClusterReport

_UNSEEN = -2


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


def _neighbor_rows(points: np.ndarray, row: int, eps2: float) -> np.ndarray:
    diff = points - points[row]
    return np.nonzero(np.sum(diff * diff, axis=1) <= eps2)[0]


def dbscan(X: DataSet, params: DbscanParams) -> Partition:
    """Classical density scan with closed eps-balls.

    Rows are visited in ascending order and a point counts itself as a
    neighbor, so runs are bit-reproducible; border points join the first
    cluster that reaches them.
    """
    pts = X.points
    n = X.n
    eps2 = params.eps * params.eps
    labels = np.full(n, _UNSEEN, dtype=np.int64)
    cid = 0
    for i in range(n):
        if labels[i] != _UNSEEN:
            continue
        nb = _neighbor_rows(pts, i, eps2)
        if nb.size < params.min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cid
        frontier = [int(r) for r in nb]
        queued = set(frontier)
        head = 0
        while head < len(frontier):
            j = frontier[head]
            head += 1
            if labels[j] == NOISE:
                labels[j] = cid  # border point, claimed by the first cluster
            if labels[j] != _UNSEEN:
                continue
            labels[j] = cid
            nbj = _neighbor_rows(pts, j, eps2)
            if nbj.size >= params.min_pts:
                for r in nbj.tolist():
                    if r not in queued:
                        queued.add(r)
                        frontier.append(r)
        cid += 1
    return Partition(labels)


def specific_core_points(X: DataSet, cluster_rows, params: DbscanParams) -> list[int]:
    """Greedy eps-separated cover of one cluster's core points.

    Rows are visited in ascending order; a core point is kept only if it
    lies strictly more than eps from every point already kept.
    """
    pts = X.points
    eps2 = params.eps * params.eps
    selected: list[int] = []
    for row in sorted(int(r) for r in cluster_rows):
        nb = _neighbor_rows(pts, row, eps2)
        if nb.size < params.min_pts:
            continue
        p = pts[row]
        near = False
        for s in selected:
            diff = p - pts[s]
            if float(np.sum(diff * diff)) <= eps2:
                near = True
                break
        if not near:
            selected.append(row)
    if not selected:
        raise ValueError("cluster has no core points under eps=%g min_pts=%d"
                         % (params.eps, params.min_pts))
    return selected


@dataclass(frozen=True)
class LocalDensityModel:
    """Per local cluster: representative centers with covering radii."""

    clusters: tuple  # tuple of tuples of (center ndarray, radius float)

    def entries(self):
        for cid, group in enumerate(self.clusters):
            for center, radius in group:
                yield cid, center, radius


def rep_kmeans_model(X: DataSet, partition: Partition, params: DbscanParams,
                     refine: bool = True) -> LocalDensityModel:
    """Compress each cluster into |specific core points| centers.

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
        scor = specific_core_points(X, rows, params)
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
        if self.min_pts_global < 1:
            raise ValueError("min_pts_global must be >= 1")


def _ddbc_node(ctx: NodeCtx, shards, params: DdbcParams):
    shard = shards[ctx.rank]
    local_X = DataSet.from_points(shard.points)
    local_part = dbscan(local_X, params.local)
    if local_part.k > 0:
        model = rep_kmeans_model(local_X, local_part, params.local,
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

    final = np.full(len(shard), NOISE, dtype=np.int64)
    for i, c in enumerate(local_part.labels.tolist()):
        if c != NOISE:
            final[i] = mapping[("local", ctx.rank, c)]
    # local noise joins the cluster of the nearest covering representative
    noise_rows = np.nonzero(final == NOISE)[0]
    if noise_rows.size and rep_entries:
        centers = np.vstack([e[0] for e in rep_entries])
        radii = np.asarray([e[1] for e in rep_entries])
        gids = np.asarray([e[2] for e in rep_entries], dtype=np.int64)
        for i in noise_rows.tolist():
            diff = centers - shard.points[i]
            dist = np.sqrt(np.sum(diff * diff, axis=1))
            inside = np.nonzero(dist <= radii)[0]
            if inside.size:
                final[i] = gids[inside[int(np.argmin(dist[inside]))]]

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
