"""Divisive partitioning along principal directions (Boley, DMKD 1998),
plus the hybrid that seeds parallel k-means with its leaf means
(Savaresi & Boley, SDM 2001).

Both are one body on every rank, one level at a time. Each rank keeps a
leaf label per row and a live mask per cluster, clusters left to right.
Every live cluster of a level is reduced at once by the package's one
covariance kernel, `pca.exact_covariance` (exact sums of the rows and of
their centered cross-products, two allreduces for the whole level), so
every node holds the same bit-identical d x d matrix per cluster, solves
it with the one direct eigensolver, and agrees on the leading direction;
the split is independent of the node count. A cluster splits on the
sign of its mean-centered projection, each row's terms added in
coordinate order, so that sign is independent of the node count too.
A cluster without a direction is final, and so is one that holds the
same rows as its parent; the levels stop once no cluster is live, so a
height beyond the tree's depth costs nothing. One allreduce of exact
per-leaf sums then gives each leaf's size and exact mean; a split that
put every row on one side left an empty leaf, dropped there.
"""

from __future__ import annotations

import numpy as np

from .comm import CommWorld, NodeCtx, dataset_of
from .core import CentroidSet, Partition, sse_objective
from .kmeans import KMeansParams, _converged, _pkm_node
from .pca import exact_covariance, exact_means, principal_axes
from .report import ClusterReport


def _project(centered: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Each row's projection onto the direction, its terms added in
    coordinate order: a value depends on its own row alone, so its sign is
    the same however the rows are sharded (a BLAS product need not be)."""
    proj = centered[:, 0] * direction[0]
    for j in range(1, len(direction)):
        proj += centered[:, j] * direction[j]
    return proj


async def _pddp_node(ctx: NodeCtx, pts, height, km_params):
    """One rank's divisive run over its block, then the leaf means on
    every rank.

    Each level reduces every live cluster at once. A cluster with a
    direction splits on the sign of its rows' projections onto it, the
    left child first; one without a direction, or with the same rows as
    its parent (a split that put every row on one side), is final and is
    not reduced again. The levels stop at `height` or when no cluster is
    live. Without `km_params`, every rank returns the leaf labels of all
    rows, at rank 0 only, and the (k, d) leaf means. With them, the leaf
    means seed one run of the Lloyd body on the same block, and every rank
    returns that body's (labels, centers, traces), with the labels at
    rank 0 only.
    """
    leaf = np.zeros(len(pts), dtype=np.int64)  # each row's cluster
    # the size of each cluster's parent; 0 for the root, whose size is not
    # 0 when it has a direction
    live, parent_n = np.ones(1, dtype=bool), np.zeros(1, dtype=np.int64)
    for _level in range(height):
        ids = np.flatnonzero(live)
        if not ids.size:
            break
        members = [np.flatnonzero(leaf == c) for c in ids]
        stats = await exact_covariance(ctx, [pts[m] for m in members])
        split_n = np.zeros(len(live), dtype=np.int64)  # 0: does not split
        right = np.zeros(len(pts), dtype=np.int64)
        for c, rows, (n, mean, C) in zip(ids, members, stats):
            if C is not None and n != parent_n[c]:
                direction = principal_axes(C)[1][0]
                # ties go left
                right[rows] = _project(pts[rows] - mean, direction) < 0.0
                split_n[c] = n
        children = 1 + (split_n > 0)
        leaf = (np.cumsum(children) - children)[leaf] + right
        live = np.repeat(split_n > 0, children)
        parent_n = np.repeat(split_n, children)

    stats = await exact_means(ctx, [pts[leaf == c] for c in range(len(live))])
    # drop the empty leaf of each split that put every row on one side
    kept = np.array([n > 0 for n, _ in stats])
    leaf = (np.cumsum(kept) - 1)[leaf]
    means = np.array([mean for n, mean in stats if n])
    if km_params is not None:
        return await _pkm_node(ctx, pts, km_params, means[None])
    return await ctx.gather_rows(leaf), means


def _run(world: CommWorld, rows, height: int, km_params=None):
    """Rank 0's result of `_pddp_node` and the run's `timings_ms`."""
    if height < 1:
        raise ValueError("height must be >= 1")
    return world.run(_pddp_node, rows, height, km_params)


def pddp_report(world: CommWorld, rows, height: int) -> ClusterReport:
    """The leaves of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them, labeled left to right, with their means as
    the centroids."""
    X = dataset_of(rows, world.size)
    (labels, means), timings = _run(world, rows, height)
    return ClusterReport(
        algo="pddp",
        p=world.size,
        params={"height": height},
        n=X.n,
        d=X.d,
        labels=labels,
        centroids=means,
        j=sse_objective(X, Partition(labels), CentroidSet(means)),
        timings_ms=timings,
    )


def pddp_km(world: CommWorld, rows, height: int, max_iter: int = 300,
            tol: float = 1e-9) -> ClusterReport:
    """Hybrid: the leaf means seed parallel k-means of `rows`, a DataSet or
    a list of blocks, as `CommWorld.run` takes them, in the same run.

    The report carries both the seed-stage objective (the first Lloyd
    assignment, to the leaf means) and the final refined objective.
    """
    # the Lloyd body takes k from the leaf means, known only after the
    # splits; checking the rest here refuses a bad max_iter or tol before
    # the world runs
    params = KMeansParams(k=1, max_iter=max_iter, tol=tol)
    (labels, centers, [trace]), timings = _run(world, rows, height, params)
    return ClusterReport(
        algo="pddp-km",
        p=world.size,
        params={"height": height, "k": centers.shape[1], "max_iter": max_iter,
                "tol": tol},
        n=len(labels),
        d=centers.shape[2],
        labels=labels[:, 0],
        centroids=centers[0],
        j=trace[-1],
        iterations=len(trace),
        converged=_converged(trace, tol),
        seed_j=trace[0],
        timings_ms=timings,
    )
