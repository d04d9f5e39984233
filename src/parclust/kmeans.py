"""Lloyd k-means as one bulk-synchronous body for any node count.

The centralized run is that body on a one-node world.
Per-cluster sums and the objective are accumulated exactly (see
exactsum), so the parallel run reproduces the centralized one bit for
bit for any node count.

Each rank assigns its rows in one of two ways, with the same labels and
distances bit for bit. With more than 16 centers, `core.nearest_centers`
settles nearly every row from one BLAS product against rows lifted once
per run, and rescores only rows whose nearest center is within rounding
of another. With at most 16, the distance matrix is kept between
iterations and only the columns of centers that moved are scored again:
every `squared_distances` value depends on its own point and center
alone, so a kept column equals a fresh one bit for bit. The exact
per-cluster sums and counts are kept too, and each iteration sums only
the rows that changed cluster; integer addition is exact, so the updated
sums equal a full recount. Only the centers whose sums or counts changed
are recomputed, and a mean of unchanged sums is the same float.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx
from .core import (_FEW_CENTERS, CentroidSet, DataSet, Partition,
                   column_midrange, lifted_rows, nearest_centers,
                   squared_distances)
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


def _start(X: DataSet, params: KMeansParams, init_centers) -> np.ndarray:
    """The first centers of a run, drawn with the seed or checked, before
    the world runs: every rank is handed the same (k, d) array."""
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    if init_centers is None:
        return _init_centers(X, params.k, params.seed)
    centers = np.array(init_centers, dtype=np.float64, copy=True)
    if centers.shape != (params.k, X.d):
        raise ValueError("init_centers must have shape (k, d)")
    return centers


def _moved_stats(points, old, new, k) -> list[int]:
    """This block's exact change of the per-cluster sums and counts.

    Only the rows whose label differs are summed, in one grouped call: each
    goes into group `new` and, unless it had no cluster yet (label -1),
    negated into group `old`; negation is exact, so each group's sum is
    what joined it minus what left it. Returns k * d sum changes in
    cluster-major order, then k count changes.
    """
    moved = np.flatnonzero(old != new)
    src, dst = old[moved], new[moved]
    had = src >= 0
    out = grouped_sums_fixed(
        np.concatenate((points[moved], -points[moved[had]])),
        np.concatenate((dst, src[had])), k)
    out.extend((np.bincount(dst, minlength=k)
                - np.bincount(src[had], minlength=k)).tolist())
    return out


def _assignment(points, centers):
    """The function from the current centers to (labels, d2min) of the
    rows `points`: each row's nearest center, ties to the lowest index,
    and its squared distance, the same bits as argmin and pick of
    `squared_distances(points, centers)`.

    More than _FEW_CENTERS centers go to `nearest_centers`, with the rows
    lifted once about their midrange. Fewer keep the distance matrix and
    rescore only the columns of centers that moved, or the whole matrix
    when every center moved.
    """
    if len(centers) > _FEW_CENTERS:
        origin = column_midrange(points)
        lhs = lifted_rows(points, origin)[0]
        return lambda c: nearest_centers(points, c, lhs,
                                         lifted_rows(c, origin)[1])
    rows = np.arange(len(points))
    scored, d2 = centers, squared_distances(points, centers)

    def refresh(c):
        nonlocal scored, d2
        shifted = np.flatnonzero(np.any(c != scored, axis=1))
        if shifted.size == len(c):
            d2 = squared_distances(points, c)
        elif shifted.size:
            d2[:, shifted] = squared_distances(points, c[shifted])
        scored = c
        new = np.argmin(d2, axis=1)
        return new, d2[rows, new]
    return refresh


def _converged(trace, tol) -> bool:
    """Whether the last Lloyd step lowered the objective by at most tol,
    the test that ends the loop before max_iter."""
    return len(trace) > 1 and trace[-2] - trace[-1] <= tol


def _local_farthest(points, start, d2min, used):
    """Best relocation candidate on the block whose first row is dataset row
    `start`: max distance, ties to lowest row."""
    for row in np.argsort(-d2min, kind="stable"):
        if start + row not in used:
            return float(d2min[row]), int(start + row), points[row].copy()
    return -np.inf, -1, None


async def _pkm_node(ctx: NodeCtx, pts, params, centers):
    """One rank's Lloyd run over its block from the (k, d) start
    `centers`, the same on every rank; every rank returns (labels,
    centers, trace), with the labels at rank 0 only, the trace holding
    each iteration's objective. `params` gives max_iter and tol.

    Each iteration makes one allreduce of this block's changes to the
    per-cluster sums and counts, and its exact objective. Which centers to
    recompute, and so which distance columns to refresh, follows from the
    reduced changes and the replicated centers only, never from this
    block's own rows: a center moves on every rank when rows of any block
    change cluster. The labels are the last assignment's, the centers
    the last update's. A relocation that finds no free row off a
    centroid refuses, with the distinct rows counted over every block.
    """
    k, d = centers.shape
    labels = np.full(len(pts), -1, dtype=np.int64)  # no cluster yet
    sums = [0] * (k * d)  # exact per-cluster sums and counts over all blocks
    counts = [0] * k
    assign = _assignment(pts, centers)
    trace: list[float] = []
    for _ in range(params.max_iter):
        new, d2min = assign(centers)
        stats = _moved_stats(pts, labels, new, k)
        stats.append(sum_fixed(d2min))
        g = await ctx.allreduce_sum(stats)
        labels = new
        trace.append(fixed_to_float(g[-1]))
        if _converged(trace, params.tol):
            break
        # the reduced changes are the same on every rank, so every rank
        # recomputes the same centers
        changed = {i // d for i in range(k * d) if g[i]}
        changed.update(i for i in range(k) if g[k * d + i])
        centers = centers.copy()
        for i in changed:
            cluster = slice(i * d, (i + 1) * d)
            sums[cluster] = [a + b for a, b in zip(sums[cluster], g[cluster])]
            counts[i] += g[k * d + i]
            if counts[i]:
                centers[i] = fixed_to_floats(sums[cluster], counts[i])
        empty = [i for i in range(k) if counts[i] == 0]
        used: set[int] = set()
        for i in empty:
            cands = await ctx.gather(
                _local_farthest(pts, ctx.start, d2min, used))
            # max keeps the first maximum, so ties go to the lowest rank
            best = await ctx.broadcast(max(cands, key=lambda c: c[0])
                                       if cands else None)
            if best[0] <= 0:  # every free row already sits on a centroid
                rows = await ctx.gather_rows(np.unique(pts, axis=0))
                if ctx.rank == 0:
                    raise ValueError(
                        "cannot repair an empty cluster: k=%d but the data has "
                        "only %d distinct rows"
                        % (k, len(np.unique(rows, axis=0))))
                return None
            _, pick, centers[i] = best
            used.add(pick)

    return await ctx.gather_rows(labels), centers, trace


def kmeans_centralized(X: DataSet, params: KMeansParams, init_centers=None):
    """Full-data Lloyd iteration: the parallel body on one node.

    Returns (CentroidSet, Partition, objective, iterations). Stops when
    the objective decreases by at most tol between iterations, or at
    max_iter. Empty clusters are repaired by relocating the centroid to
    the point farthest from its assigned centroid.
    """
    (labels, centers, trace), _ = CommWorld(1).run(
        _pkm_node, X, params, _start(X, params, init_centers))
    return CentroidSet(centers), Partition(labels), trace[-1], len(trace)


def pkm(world: CommWorld, X: DataSet, params: KMeansParams,
        init_centers=None) -> ClusterReport:
    """Parallel k-means over a simulated node group.

    The initial centroids are drawn (or checked) before the world runs and
    handed to every rank; every iteration reduces the changes to the
    per-cluster sums and counts, and the objective, in one collective.
    Output is independent of world size.
    """
    (labels, centers, trace), timings = world.run(
        _pkm_node, X, params, _start(X, params, init_centers))
    return ClusterReport(
        algo="pkm",
        p=world.size,
        params=dataclasses.asdict(params),
        n=X.n,
        d=X.d,
        labels=labels,
        centroids=centers,
        j=trace[-1],
        iterations=len(trace),
        converged=_converged(trace, params.tol),
        timings_ms=timings,
    )
