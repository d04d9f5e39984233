"""Lloyd k-means as one bulk-synchronous body for any node count.

The centralized run is that body on a single node (`SerialCtx`).
Per-cluster sums and the objective are accumulated exactly (see
exactsum), so the parallel run reproduces the centralized one bit for
bit for any node count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, SerialCtx, Shard, split_blocks
from .core import CentroidSet, DataSet, Partition, squared_distances
from .exactsum import (fixed_to_float, fixed_to_floats, grouped_sums_fixed,
                       sum_fixed)
from .report import ClusterReport


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and >= 0, not %r" % self.tol)


def _init_centers(X: DataSet, k: int, seed: int) -> np.ndarray:
    """k distinct rows sampled without replacement."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.n, size=k, replace=False)
    return X.points[np.sort(idx)].copy()


def _assign(points: np.ndarray, centers: np.ndarray):
    """Nearest-centroid labels (ties to the lowest index) and the min distances."""
    d2 = squared_distances(points, centers)
    labels = np.argmin(d2, axis=1).astype(np.int64)
    return labels, d2[np.arange(points.shape[0]), labels]


def _cluster_stats(points, labels, k, d2min) -> list[int]:
    """Flat integer stats vector: per-cluster exact sums, counts, objective."""
    out = grouped_sums_fixed(points, labels, k)
    out.extend(np.bincount(labels, minlength=k).tolist())
    out.append(sum_fixed(d2min))
    return out


def _unpack_stats(vec, k, d):
    sums = vec[:k * d]
    counts = vec[k * d:k * d + k]
    return sums, counts, vec[-1]


def _new_centers(sums, counts, k, d, old_centers):
    """Per-cluster means; empty clusters keep their slot for later repair."""
    centers = old_centers.copy()
    empty = []
    for i in range(k):
        if counts[i] == 0:
            empty.append(i)
            continue
        centers[i] = fixed_to_floats(sums[i * d:(i + 1) * d], counts[i])
    return centers, empty


def _local_farthest(points, gids, d2min, used):
    """Best relocation candidate on this block: max distance, ties to lowest row."""
    for row in np.argsort(-d2min, kind="stable"):
        if int(gids[row]) not in used:
            return float(d2min[row]), int(gids[row]), points[row].copy()
    return -np.inf, -1, None


def _pkm_node(ctx: NodeCtx, shards, X, params, init_centers):
    shard = shards[ctx.rank]
    pts = shard.points
    k, d = params.k, X.d
    if ctx.rank == 0:
        if init_centers is None:
            centers0 = _init_centers(X, k, params.seed)
        else:
            centers0 = np.array(init_centers, dtype=np.float64, copy=True)
            if centers0.shape != (k, d):
                raise ValueError("init_centers must have shape (k, d)")
    else:
        centers0 = None
    centers = np.array(ctx.broadcast(centers0, root=0), dtype=np.float64, copy=True)

    j_prev = None
    labels = np.zeros(len(shard), dtype=np.int64)
    j = 0.0
    iters = 0
    for t in range(1, params.max_iter + 1):
        labels, d2min = _assign(pts, centers)
        g = ctx.allreduce_sum(_cluster_stats(pts, labels, k, d2min))
        sums, counts, j_fixed = _unpack_stats(g, k, d)
        j = fixed_to_float(j_fixed)
        iters = t
        if j_prev is not None and (j_prev - j) <= params.tol:
            break
        j_prev = j
        centers, empty = _new_centers(sums, counts, k, d, centers)
        used: set[int] = set()
        for i in empty:
            cands = ctx.gather(_local_farthest(pts, shard.ids, d2min, used),
                               root=0)
            best = None
            if ctx.rank == 0:
                # max keeps the first maximum, so ties go to the lowest rank
                best = max(cands, key=lambda c: c[0])
                if best[0] <= 0:
                    # every free row already sits on a centroid
                    raise ValueError(
                        "cannot repair an empty cluster: k=%d but the data has "
                        "only %d distinct rows"
                        % (k, np.unique(X.points, axis=0).shape[0]))
            _, pick, centers[i] = ctx.broadcast(best, root=0)
            used.add(pick)

    gathered = ctx.gather(labels, root=0)
    if ctx.rank == 0:
        return np.concatenate(gathered), centers, j, iters
    return None


def kmeans_centralized(X: DataSet, params: KMeansParams, init_centers=None):
    """Full-data Lloyd iteration: the parallel body on one node.

    Returns (CentroidSet, Partition, objective, iterations). Stops when
    the objective decreases by at most tol between iterations, or at
    max_iter. Empty clusters are repaired by relocating the centroid to
    the point farthest from its assigned centroid.
    """
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    labels, centers, j, iters = _pkm_node(
        SerialCtx(), [Shard(X.points, X.ids)], X, params, init_centers)
    return CentroidSet(centers), Partition(labels), j, iters


def pkm(world: CommWorld, X: DataSet, params: KMeansParams,
        init_centers=None) -> ClusterReport:
    """Parallel k-means over a simulated node group.

    Rank 0 draws (or receives) the initial centroids and broadcasts
    them; every iteration reduces per-cluster sums, counts and the
    objective in one collective. Output is independent of world size.
    """
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    with world.timed() as timings:
        t0 = time.perf_counter()
        shards = split_blocks(X, world.size)
        timings["split"] = (time.perf_counter() - t0) * 1e3
        out = world.spmd(_pkm_node, shards, X, params, init_centers)
    labels, centers, j, iters = out[0]
    return ClusterReport(
        algo="pkm",
        p=world.size,
        params={"k": params.k, "max_iter": params.max_iter,
                "tol": params.tol, "seed": params.seed},
        n=X.n,
        d=X.d,
        labels=labels,
        centroids=centers,
        j=j,
        iterations=iters,
        timings_ms=timings,
    )
