"""Fuzzy c-means over the simulated runtime.

Each node keeps the membership rows of its own block. Each trip makes
one exact allreduce, of the trip's objective and the weighted sums that
give the next trip's centroids, so every rank holds the same centroids
and objective bit for bit. Initial memberships are drawn per global row
id, so the trajectory does not depend on how many nodes the rows were
split over. A single-node world is the centralized run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .comm import CommWorld, NodeCtx, as_count, dataset_of
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
        as_count(self.k, "k")
        if not (math.isfinite(self.m) and self.m > 1.0):
            raise ValueError("fuzzifier m must be finite and > 1, not %r"
                             % self.m)
        as_count(self.max_iter, "max_iter")
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
    the lowest-index coincident centroid and 0 elsewhere. Every other row
    takes the inverse-distance weights, each divided by the row's sum of
    them, which adds the columns in index order whatever the layout of
    `d2`; without a coincident point no row is masked or copied.
    """
    with np.errstate(divide="ignore"):  # a coincident point's weight is inf
        w = d2 ** (-1.0 / (m - 1.0))
    zero_rows = np.flatnonzero((d2 == 0.0).any(axis=1))
    if zero_rows.size:
        hit = np.argmax(d2[zero_rows] == 0.0, axis=1)
        w[zero_rows] = 0.0
        w[zero_rows, hit] = 1.0
    total = w[:, 0].copy()
    for column in w.T[1:]:
        total += column
    w /= total[:, None]
    return w


def _weighted_sums(pt: np.ndarray, w: np.ndarray) -> list[int]:
    """This block's exact weighted sums for the centroids, from its
    points as a (d, rows) C-ordered array `pt` and its (rows, k) weights
    `w`: the k x d numerators, then the k denominators. Each product is
    formed column-major, and `w` is read in place when it is too."""
    local: list[int] = []
    buf = np.empty_like(pt)
    for column in w.T:
        local += grouped_sums_fixed(np.multiply(pt, column, out=buf).T)
    return local + grouped_sums_fixed(w)


def _weighted_means(g: list[int], k: int, d: int) -> np.ndarray:
    """The (k, d) centroids from reduced `_weighted_sums` at the front of
    `g`, each numerator over its denominator, rounded once."""
    centers = np.empty((k, d), dtype=np.float64)
    for i in range(k):
        den = g[k * d + i]
        if den == 0:
            raise ValueError("degenerate membership column %d: all weights zero" % i)
        centers[i] = fixed_ratios(g[i * d:(i + 1) * d], den)
    return centers


def _converged(trace, tol) -> bool:
    """Whether the objective moved by at most tol in the last iteration,
    the test that ends the loop before max_iter."""
    return len(trace) > 1 and abs(trace[-2] - trace[-1]) <= tol


async def _pfcm_node(ctx: NodeCtx, points, params):
    """One rank's run over its block; every rank returns (labels, centers,
    trace), with the labels of every block, the trace holding each
    iteration's objective. Row j's start memberships depend on (seed, j)
    alone, so the block draws them as the last rows of a dataset that
    ends with it.

    One allreduce before the loop sums the start memberships' weights
    `u ** m` and their products with the rows; each trip then makes one
    allreduce, as Lloyd's does: this block's weighted sums for the next
    trip's centers, then the trip's exact objective. The last trip
    (max_iter) sends no sums, but a run that converges earlier has sent
    one set that nothing reads. Distances are scored center-major, a
    (k, rows) block, and used through its transpose, so the weights come
    out column-major and are summed in place.
    """
    m, k, d = params.m, params.k, points.shape[1]
    pt = np.ascontiguousarray(points.T)
    w = initial_membership(ctx.start + len(points), k, params.seed,
                           ctx.start) ** m
    g = await ctx.allreduce_sum(_weighted_sums(pt, w))
    trace: list[float] = []
    for trip in range(1, params.max_iter + 1):
        centers = _weighted_means(g, k, d)
        d2 = squared_distances(centers, points).T
        u = membership_update(d2, m)
        w = u ** m
        local = _weighted_sums(pt, w) if trip < params.max_iter else []
        g = await ctx.allreduce_sum(local + [sum_fixed((w * d2).T)])
        trace.append(fixed_to_float(g[-1]))
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
