"""Divisive partitioning along principal directions (Boley, DMKD 1998),
plus the hybrid that seeds parallel k-means with its leaf means
(Savaresi & Boley, SDM 2001).

Both are one body on every rank. Each rank keeps its clusters left to
right as (local rows, global size), and a row's leaf label is its
cluster's position in that list. The covariance of each cluster comes
from the package's one covariance kernel, `pca.exact_covariance` (exact
sums of the rows and of their centered cross-products), so every node
holds the same bit-identical d x d matrix, solves it with the one direct
eigensolver, and agrees on the leading direction; the split is
independent of the node count. Clusters split on the sign of the
mean-centered projection, each row's terms added in coordinate order, so
that sign is independent of the node count too. The leaf means come from
one allreduce of exact per-leaf sums, so each is the exact mean of its
rows.
"""

from __future__ import annotations

import numpy as np

from .comm import CommWorld, NodeCtx
from .core import CentroidSet, DataSet, Partition, sse_objective
from .exactsum import fixed_to_floats, grouped_sums_fixed
from .kmeans import KMeansParams, _converged, _pkm_node
from .pca import exact_covariance, principal_axes
from .report import ClusterReport


async def _split_direction(ctx: NodeCtx, local_rows: np.ndarray):
    """Global mean and leading covariance direction of one cluster.

    Every rank solves the same bit-identical exact covariance. Returns
    (mean, direction); the direction is None when the cluster has zero
    covariance (all points identical).
    """
    _, mean, C = await exact_covariance(ctx, local_rows)
    return mean, None if C is None else principal_axes(C)[1][0]


def _project(centered: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Each row's projection onto the direction, its terms added in
    coordinate order: a value depends on its own row alone, so its sign is
    the same however the rows are sharded (a BLAS product need not be)."""
    proj = centered[:, 0] * direction[0]
    for j in range(1, len(direction)):
        proj += centered[:, j] * direction[j]
    return proj


async def _pddp_node(ctx: NodeCtx, pts, n, height, km_params):
    """One rank's divisive run over its block of the `n` rows, then the
    leaf means on every rank.

    Every cluster of two or more rows that has a direction and puts rows
    on both sides of it is split once per level until `height` levels are
    done; the left child comes first. A cluster that cannot split is final:
    the same rows give the same outcome, so it is not tried again. Without
    `km_params`, every rank returns the leaf labels of all rows, at rank 0
    only, and the (k, d) leaf means. With them, the leaf means seed the
    Lloyd body on the same block, and every rank returns its (labels,
    centers, objective trace), with the labels at rank 0 only.
    """
    # (local rows, global size, live); singletons are final from the start
    clusters = [(np.arange(len(pts)), n, n >= 2)]
    for _level in range(height):
        kept = []
        for rows, size, live in clusters:
            if live:
                sub = pts[rows]
                mean, direction = await _split_direction(ctx, sub)
                if direction is not None:
                    # ties go left
                    left = _project(sub - mean, direction) >= 0.0
                    sizes = await ctx.allreduce_sum([int(left.sum()),
                                                     int((~left).sum())])
                    if all(sizes):
                        kept += [(rows[left], sizes[0], sizes[0] >= 2),
                                 (rows[~left], sizes[1], sizes[1] >= 2)]
                        continue
            kept.append((rows, size, False))  # whole, and final
        clusters = kept

    k, d = len(clusters), pts.shape[1]
    leaf = np.empty(len(pts), dtype=np.int64)
    for i, (rows, _, _) in enumerate(clusters):
        leaf[rows] = i
    sums = await ctx.allreduce_sum(grouped_sums_fixed(pts, leaf, k))
    means = np.array([fixed_to_floats(sums[i * d:(i + 1) * d], size)
                      for i, (_, size, _) in enumerate(clusters)])
    if km_params is not None:
        return await _pkm_node(ctx, pts, km_params, means)
    return await ctx.gather_rows(leaf), means


def _run(world: CommWorld, X: DataSet, height: int, km_params=None):
    """Rank 0's result of `_pddp_node` and the run's `timings_ms`."""
    if height < 1:
        raise ValueError("height must be >= 1")
    return world.run(_pddp_node, X, X.n, height, km_params)


def pddp_report(world: CommWorld, X: DataSet, height: int) -> ClusterReport:
    """Leaves labeled left to right, with their means as the centroids."""
    (labels, means), timings = _run(world, X, height)
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


def pddp_km(world: CommWorld, X: DataSet, height: int, max_iter: int = 300,
            tol: float = 1e-9) -> ClusterReport:
    """Hybrid: the leaf means seed parallel k-means in the same run.

    The report carries both the seed-stage objective (the first Lloyd
    assignment, to the leaf means) and the final refined objective.
    """
    # the Lloyd body takes k from the leaf means, known only after the
    # splits; checking the rest here refuses a bad max_iter or tol before
    # the world runs
    params = KMeansParams(k=1, max_iter=max_iter, tol=tol)
    (labels, centers, trace), timings = _run(world, X, height, params)
    return ClusterReport(
        algo="pddp-km",
        p=world.size,
        params={"height": height, "k": len(centers), "max_iter": max_iter,
                "tol": tol},
        n=X.n,
        d=X.d,
        labels=labels,
        centroids=centers,
        j=trace[-1],
        iterations=len(trace),
        converged=_converged(trace, tol),
        seed_j=trace[0],
        timings_ms=timings,
    )
