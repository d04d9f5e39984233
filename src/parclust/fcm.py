"""Fuzzy c-means over the simulated runtime.

Each node keeps the membership rows of its own block; centroid updates
and the objective are global reductions. Initial memberships are drawn
per global row id, so the trajectory does not depend on how many nodes
the rows were split over. A single-node world is the centralized run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, dataset_of
from .core import squared_distances
from .exactsum import fixed_ratios, fixed_to_float, grouped_sums_fixed, sum_fixed
from .report import ClusterReport


@dataclass(frozen=True)
class FcmParams:
    k: int
    m: float = 2.0
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.m) and self.m > 1.0):
            raise ValueError("fuzzifier m must be finite and > 1, not %r"
                             % self.m)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and >= 0, not %r" % self.tol)


def initial_membership(n: int, k: int, seed: int, start: int = 0,
                       stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 (all n by default) of a row-stochastic n x k
    matrix; row j depends only on (seed, j).

    Row j is normalized from draws j*k .. j*k + k - 1 of one stream, so the
    generator skips the start*k draws before the block and draws only its
    own rows.
    """
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError("rows %d..%d are not a block of %d rows"
                         % (start, stop, n))
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start * k)
    u = rng.random((stop - start, k))
    return u / u.sum(axis=1, keepdims=True)


def membership_update(d2: np.ndarray, m: float) -> np.ndarray:
    """Standard inverse-distance membership update of the local rows, from
    their (rows, k) squared distances to the centroids.

    A point coinciding with one or more centroids gets membership 1 on
    the lowest-index coincident centroid and 0 elsewhere. Without such a
    point, every row takes the inverse-distance weights directly, with no
    masked copies.
    """
    zero_rows = (d2 == 0.0).any(axis=1)
    if not zero_rows.any():
        w = d2 ** (-1.0 / (m - 1.0))
        return w / w.sum(axis=1, keepdims=True)
    u = np.zeros_like(d2)
    hit = np.argmax(d2[zero_rows] == 0.0, axis=1)
    u[np.nonzero(zero_rows)[0], hit] = 1.0
    reg = ~zero_rows
    if reg.any():
        w = d2[reg] ** (-1.0 / (m - 1.0))
        u[reg] = w / w.sum(axis=1, keepdims=True)
    return u


async def centroid_update(ctx: NodeCtx, points: np.ndarray, u: np.ndarray,
                          m: float) -> np.ndarray:
    """Weighted means of every rank's rows `points`, with memberships `u`,
    from one global reduction.

    The reduced vector holds the k x d numerators, then the k denominators.
    """
    k = u.shape[1]
    d = points.shape[1]
    w = u ** m
    local: list[int] = []
    pt = np.ascontiguousarray(points.T)
    buf = np.empty_like(pt)
    for i in range(k):  # column-major products, which the sums read in place
        local += grouped_sums_fixed(np.multiply(pt, w[:, i], out=buf).T)
    local += grouped_sums_fixed(w)
    g = await ctx.allreduce_sum(local)
    dens = g[k * d:]
    centers = np.empty((k, d), dtype=np.float64)
    for i in range(k):
        if dens[i] == 0:
            raise ValueError("degenerate membership column %d: all weights zero" % i)
        centers[i] = fixed_ratios(g[i * d:(i + 1) * d], dens[i])
    return centers


async def fcm_objective(ctx: NodeCtx, u: np.ndarray, d2: np.ndarray,
                        m: float) -> float:
    """Weighted within-cluster scatter of the local memberships `u` and
    squared distances `d2`, reduced exactly over all nodes."""
    local = sum_fixed((u ** m) * d2)
    total = await ctx.allreduce_sum([local])
    return fixed_to_float(total[0])


def _converged(trace, tol) -> bool:
    """Whether the objective moved by at most tol in the last iteration,
    the test that ends the loop before max_iter."""
    return len(trace) > 1 and abs(trace[-2] - trace[-1]) <= tol


async def _pfcm_node(ctx: NodeCtx, points, params):
    """One rank's run over its block; every rank returns (labels, centers,
    trace), with the labels of every block, the trace holding each
    iteration's objective. Row j's start memberships depend on (seed, j)
    alone, so the block draws them as the last rows of a dataset that
    ends with it."""
    u = initial_membership(ctx.start + len(points), params.k, params.seed,
                           ctx.start)
    trace: list[float] = []
    for _ in range(params.max_iter):
        centers = await centroid_update(ctx, points, u, params.m)
        d2 = squared_distances(points, centers)
        u = membership_update(d2, params.m)
        trace.append(await fcm_objective(ctx, u, d2, params.m))
        if _converged(trace, params.tol):
            break
    labels = np.argmax(u, axis=1).astype(np.int64)  # ties to the lowest index
    return await ctx.gather_rows(labels), centers, trace


def pfcm(world: CommWorld, rows, params: FcmParams) -> ClusterReport:
    """Parallel fuzzy c-means of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them; defuzzified labels are argmax
    memberships."""
    X = dataset_of(rows, world.size)
    if params.k > X.n:
        raise ValueError("k=%d exceeds the %d available rows" % (params.k, X.n))
    (labels, centers, trace), timings = world.run(_pfcm_node, rows, params)
    return ClusterReport(
        algo="pfcm",
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
