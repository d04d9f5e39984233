"""Divisive partitioning along principal directions, plus the hybrid that
feeds its leaves to parallel k-means as the initial centroids.

The covariance of each cluster comes from the package's one covariance
kernel, `pca.exact_covariance` (exact sums of the rows and of their
centered cross-products), so every node holds the same bit-identical d x d
matrix, solves it with the one direct eigensolver, and agrees on the
leading direction; the split is independent of the node count. Clusters
split on the sign of the mean-centered projection. A leaf that is never
split takes only the exact mean, `pca.exact_mean`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, SerialCtx, split_blocks
from .core import CentroidSet, DataSet, Partition, sse_objective
from .exactsum import fixed_to_float, sum_fixed
from .kmeans import KMeansParams, _assign, pkm
from .pca import exact_covariance, exact_mean, principal_axes
from .report import ClusterReport


@dataclass
class PddpNode:
    ids: np.ndarray  # global ids, ascending
    size: int
    mean: np.ndarray | None = None
    direction: np.ndarray | None = None
    left: "PddpNode | None" = None
    right: "PddpNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


@dataclass
class PddpTree:
    root: PddpNode
    height: int

    def leaves(self) -> list[PddpNode]:
        """Leaf nodes in left-to-right order."""
        out: list[PddpNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out


def _split_direction(ctx: NodeCtx, local_rows: np.ndarray):
    """Global mean and leading covariance direction of one cluster.

    Every rank solves the same bit-identical exact covariance. Returns
    (mean, direction); the direction is None when the cluster has zero
    covariance (all points identical).
    """
    _, mean, C = exact_covariance(ctx, local_rows)
    return mean, None if C is None else principal_axes(C)[1][0]


def _pddp_node(ctx: NodeCtx, shards, X, height):
    shard = shards[ctx.rank]
    pts = shard.points
    is_root_rank = ctx.rank == 0

    clusters = [np.arange(len(shard), dtype=np.int64)]  # local row indices
    sizes = [X.n]
    root = PddpNode(ids=np.arange(X.n, dtype=np.int64), size=X.n) \
        if is_root_rank else None
    nodes: list = [root]

    for _level in range(height):
        next_clusters, next_sizes, next_nodes = [], [], []
        for rows, size, node in zip(clusters, sizes, nodes):
            if size < 2:  # singletons pass through untouched
                next_clusters.append(rows)
                next_sizes.append(size)
                next_nodes.append(node)
                continue
            sub = pts[rows]
            mean, direction = _split_direction(ctx, sub)
            if is_root_rank:
                node.mean = mean
                node.direction = direction
            if direction is None:
                next_clusters.append(rows)
                next_sizes.append(size)
                next_nodes.append(node)
                continue
            proj = (sub - mean) @ direction
            left_mask = proj >= 0.0  # boundary points go left
            counts = ctx.allreduce_sum([int(left_mask.sum()),
                                        int((~left_mask).sum())])
            if counts[0] == 0 or counts[1] == 0:
                # every point landed on one side; keep the cluster whole
                next_clusters.append(rows)
                next_sizes.append(size)
                next_nodes.append(node)
                continue
            left_rows, right_rows = rows[left_mask], rows[~left_mask]
            lids = ctx.gather(shard.ids[left_rows], root=0)
            rids = ctx.gather(shard.ids[right_rows], root=0)
            lnode = rnode = None
            if is_root_rank:
                lnode = PddpNode(ids=np.sort(np.concatenate(lids)),
                                 size=int(counts[0]))
                rnode = PddpNode(ids=np.sort(np.concatenate(rids)),
                                 size=int(counts[1]))
                node.left, node.right = lnode, rnode
            next_clusters.extend([left_rows, right_rows])
            next_sizes.extend([int(counts[0]), int(counts[1])])
            next_nodes.extend([lnode, rnode])
        clusters, sizes, nodes = next_clusters, next_sizes, next_nodes

    if is_root_rank:
        return root
    return None


def pddp(world: CommWorld, X: DataSet, height: int):
    """Build the split tree and the leaf partition.

    Every non-singleton, non-degenerate cluster is split once per level
    until `height` levels are done; leaves are labeled left to right.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    shards = split_blocks(X, world.size)
    root = world.spmd(_pddp_node, shards, X, height)[0]
    tree = PddpTree(root=root, height=height)
    row_of = np.empty(X.n, dtype=np.int64)
    row_of[X.ids] = np.arange(X.n)
    labels = np.empty(X.n, dtype=np.int64)
    for idx, leaf in enumerate(tree.leaves()):
        if leaf.mean is None:  # never attempted: singleton or max-height leaf
            leaf.mean = exact_mean(SerialCtx(), X.points[row_of[leaf.ids]])[1]
        labels[row_of[leaf.ids]] = idx
    return tree, Partition(labels)


def pddp_report(world: CommWorld, X: DataSet, height: int) -> ClusterReport:
    """Run pddp and package leaves as a report (objective uses leaf means)."""
    with world.timed() as timings:
        tree, part = pddp(world, X, height)
    leaves = tree.leaves()
    means = np.vstack([leaf.mean for leaf in leaves])
    j = sse_objective(X, part, CentroidSet(means))
    return ClusterReport(
        algo="pddp",
        p=world.size,
        params={"height": height},
        n=X.n,
        d=X.d,
        labels=part.labels,
        centroids=means,
        j=j,
        timings_ms=timings,
    )


def pddp_km(world: CommWorld, X: DataSet, height: int, max_iter: int = 300,
            tol: float = 1e-9) -> ClusterReport:
    """Hybrid: leaf means of the split tree seed parallel k-means.

    The report carries both the seed-stage objective (leaf means used as
    centroids for one assignment) and the final refined objective.
    """
    with world.timed() as timings:
        tree, _ = pddp(world, X, height)
        means = np.vstack([leaf.mean for leaf in tree.leaves()])
        k = means.shape[0]
        params = KMeansParams(k=k, max_iter=max_iter, tol=tol, seed=0)
        refined = pkm(world, X, params, init_centers=means)
    timings["split"] = refined.timings_ms["split"]
    _, d2min = _assign(X.points, means)
    seed_j = fixed_to_float(sum_fixed(d2min))
    return ClusterReport(
        algo="pddp-km",
        p=world.size,
        params={"height": height, "k": k, "max_iter": max_iter, "tol": tol},
        n=X.n,
        d=X.d,
        labels=refined.labels,
        centroids=refined.centroids,
        j=refined.j,
        iterations=refined.iterations,
        seed_j=seed_j,
        timings_ms=timings,
    )
