"""Divisive partitioning along principal directions, plus the hybrid that
feeds its leaves to parallel k-means as the initial centroids.

The covariance direction of each cluster is found matrix-free: every
power-iteration step reduces one exactly-accumulated d-vector, so all
nodes agree bitwise on the direction and the split is independent of the
node count. Clusters split on the sign of the mean-centered projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, split_blocks
from .core import CentroidSet, DataSet, Partition, sse_objective
from .exactsum import column_sums_fixed, fixed_mean, fixed_to_float, sum_fixed
from .kmeans import KMeansParams, _assign, pkm
from .pca import _fix_sign
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


def _exact_mean_rows(points: np.ndarray) -> np.ndarray:
    sums = column_sums_fixed(points)
    n = points.shape[0]
    return np.array([fixed_mean(s, n) for s in sums], dtype=np.float64)


def _power_direction(ctx: NodeCtx, local_rows: np.ndarray, d: int, size: int,
                     tol: float, max_iter: int):
    """Global mean and leading covariance direction of one cluster.

    Returns (mean, direction, splittable). Not splittable when the
    cluster has zero covariance or the iteration collapses to the zero
    vector. Every rank participates and sees identical values.
    """
    g = ctx.allreduce_sum(column_sums_fixed(local_rows))
    mean = np.array([fixed_mean(s, size) for s in g], dtype=np.float64)
    centered = local_rows - mean
    diag = ctx.allreduce_sum(column_sums_fixed(centered * centered))
    if all(v == 0 for v in diag):
        return mean, None, False  # all points identical
    v = np.zeros(d)
    v[int(np.argmax([fixed_to_float(x) for x in diag]))] = 1.0
    lam = 0.0
    for _ in range(max_iter):
        t = centered @ v
        wf = ctx.allreduce_sum(column_sums_fixed(centered * t[:, None]))
        w = np.array([fixed_mean(x, size) for x in wf], dtype=np.float64)
        lam = float(v @ w)
        # both norms run on w / 2^e with 2^e near max|w|, so squaring cannot
        # overflow; a power-of-two scale is exact and changes no other result
        e = int(np.frexp(np.max(np.abs(w)))[1])
        if np.linalg.norm(np.ldexp(w - lam * v, -e)) <= \
                np.ldexp(tol * max(1.0, abs(lam)), -e):
            break
        u = np.ldexp(w, -e)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return mean, None, False  # direction collapsed, treat as degenerate
        v = u / nu
    return mean, _fix_sign(v), True


def _pddp_node(ctx: NodeCtx, shards, X, height, tol, max_iter):
    shard = shards[ctx.rank]
    pts = shard.points
    d = X.d
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
            mean, direction, splittable = _power_direction(
                ctx, sub, d, size, tol, max_iter)
            if is_root_rank:
                node.mean = mean
                node.direction = direction
            if not splittable:
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


def pddp(world: CommWorld, X: DataSet, height: int, tol: float = 1e-10,
         max_iter: int = 1000):
    """Build the split tree and the leaf partition.

    Every non-singleton, non-degenerate cluster is split once per level
    until `height` levels are done; leaves are labeled left to right.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    shards = split_blocks(X, world.size)
    root = world.spmd(_pddp_node, shards, X, height, tol, max_iter)[0]
    tree = PddpTree(root=root, height=height)
    row_of = np.empty(X.n, dtype=np.int64)
    row_of[X.ids] = np.arange(X.n)
    labels = np.empty(X.n, dtype=np.int64)
    for idx, leaf in enumerate(tree.leaves()):
        if leaf.mean is None:  # never attempted: singleton or max-height leaf
            leaf.mean = _exact_mean_rows(X.points[row_of[leaf.ids]])
        labels[row_of[leaf.ids]] = idx
    return tree, Partition(labels)


def pddp_report(world: CommWorld, X: DataSet, height: int, tol: float = 1e-10,
                max_iter: int = 1000) -> ClusterReport:
    """Run pddp and package leaves as a report (objective uses leaf means)."""
    with world.timed() as timings:
        tree, part = pddp(world, X, height, tol, max_iter)
    leaves = tree.leaves()
    means = np.vstack([leaf.mean for leaf in leaves])
    j = sse_objective(X, part, CentroidSet(means))
    return ClusterReport(
        algo="pddp",
        p=world.size,
        params={"height": height, "tol": tol, "max_iter": max_iter},
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
