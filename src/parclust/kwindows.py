"""Box-window clustering with box queries answered over key-sorted shards.

Every rank holds one contiguous block of rows (`blocks_of`) and sorts
it once per call by its widest column, the key, into one column-major
copy. Rank 0 runs the window phases. A window's path of box queries
(movement, then enlargement) depends only on that window and the data
(Alevizos, Tasoulis & Vrahatis, PPAM 2003), so all windows advance in
lockstep: each round holds one list of boxes per unfinished window (its
movement box, or every enlargement trial still open, asked at once since
they all grow the same window) and costs one broadcast of the boxes and
one gather of the rows each block has inside each box, named by dataset
position. A box can hold only the rows whose key lies within its key
bounds, one band of the sorted block, so only that band is tested, one
coordinate row at a time, and a box with an empty band is not tested at
all. A call costs as many rounds as its longest window path, and every
search returns the same rows for any node count. Windows merge under one
matrix of pairwise overlap extents, with volumes that neither overflow
nor underflow.

The balanced multi-dimensional binary tree and its serial walk remain as
a reference search. The tree stores one point per node, cycling the
split coordinate with depth and breaking coordinate ties by row
position, so lookups stay balanced on duplicate data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .comm import CommWorld, NodeCtx, dataset_of
from .core import NOISE, DataSet, KeySortedRows, Partition, components
from .report import ClusterReport


@dataclass(frozen=True)
class RangeQuery:
    """Closed axis-aligned box: lo[t] <= x[t] <= hi[t] on every coordinate."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("query bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("query has lo > hi on some coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class KWindowsParams:
    l: int
    a: float
    theta_move: float = 0.01
    theta_enlarge: float = 0.1
    theta_merge: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("window count l must be >= 1")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError("initial half-width a must be finite and "
                             "positive, not %r" % self.a)
        for name in ("theta_move", "theta_enlarge", "theta_merge"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)


class MDBinaryTree:
    """Balanced point tree with index-addressable node arrays."""

    def __init__(self, X: DataSet):
        if X.n < 1:
            raise ValueError("cannot build a tree over an empty dataset")
        self.points = X.points
        self.d = X.d
        n = X.n
        self.point_id = np.empty(n, dtype=np.int64)
        self.axis = np.empty(n, dtype=np.int64)
        self.left = np.full(n, -1, dtype=np.int64)
        self.right = np.full(n, -1, dtype=np.int64)
        self._next = 0
        self.root = self._build(np.arange(n, dtype=np.int64), 0)

    def _build(self, rows: np.ndarray, depth: int) -> int:
        axis = depth % self.d
        order = rows[np.lexsort((rows, self.points[rows, axis]))]
        mid = order.size // 2
        idx = self._next
        self._next += 1
        self.point_id[idx] = order[mid]
        self.axis[idx] = axis
        if mid > 0:
            self.left[idx] = self._build(order[:mid], depth + 1)
        if mid + 1 < order.size:
            self.right[idx] = self._build(order[mid + 1:], depth + 1)
        return idx

    def depth(self) -> int:
        """Height in nodes along the longest root-to-leaf path."""
        best = 0
        stack = [(self.root, 1)]
        while stack:
            node, h = stack.pop()
            best = max(best, h)
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    stack.append((child, h + 1))
        return best


def orthogonal_range_search(tree: MDBinaryTree, query: RangeQuery) -> set[int]:
    """Single-rank tree walk returning the set of matching rows.

    Children are pruned only on the interval test, never on whether the
    node itself is inside the box.
    """
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    lo, hi = query.lo, query.hi
    found: set[int] = set()
    stack = [tree.root]
    while stack:
        idx = stack.pop()
        row = tree.point_id[idx]
        p = tree.points[row]
        if np.all(lo <= p) and np.all(p <= hi):
            found.add(int(row))
        axis = tree.axis[idx]
        c = p[axis]
        # left holds (coord, row) lexicographically below the node, right above,
        # so equal coordinates can appear on either side of the node
        if tree.left[idx] >= 0 and c >= lo[axis]:
            stack.append(int(tree.left[idx]))
        if tree.right[idx] >= 0 and c <= hi[axis]:
            stack.append(int(tree.right[idx]))
    return found


def _round_hits(cols: np.ndarray, col: int, at: np.ndarray,
                boxes) -> list[np.ndarray]:
    """Dataset rows of the block rows inside each closed box of one round.

    `cols` holds the block's rows sorted by key as a C-contiguous (d, rows)
    array, so `cols[col]` is the sorted key column, and `at` holds their
    dataset rows in that order; `boxes` is a pair of (b, d) arrays, lo and
    hi. A row inside a box has its key in [lo, hi] on the key column, so it
    lies in the band that two binary searches per round find in the sorted
    keys; only the boxes with a non-empty band are tested, each over its
    band alone, and one coordinate row at a time, so the d tests reduce as
    d - 1 contiguous ANDs. Every other box gets an empty int64 array.
    """
    lo, hi = boxes
    start = np.searchsorted(cols[col], lo[:, col], "left").tolist()
    stop = np.searchsorted(cols[col], hi[:, col], "right").tolist()
    hits = [at[:0]] * len(lo)
    for i, (low, high, a, b) in enumerate(zip(lo[:, :, None], hi[:, :, None],
                                              start, stop)):
        if a < b:
            band = cols[:, a:b]
            inside = np.logical_and.reduce((band >= low) & (band <= high),
                                           axis=0)
            hits[i] = at[a:b][inside]
    return hits


async def _search_node(ctx: NodeCtx, points: np.ndarray, driver):
    """Rank 0's value of `await driver(query)`, with every rank answering
    its rounds of box queries.

    `await query(boxes)` is one round: `boxes` is a pair of (b, d) lo and
    hi arrays, which rank 0 broadcasts once; every rank answers it with its
    per-box hit arrays, gathered once, and `query` returns one int64 array
    of dataset rows per box, in no particular order and without repeats
    (the blocks are disjoint); row i of a rank's block `points` is dataset
    row `ctx.start + i`. When `driver` returns, rank 0 broadcasts None; the
    other ranks answer rounds until then and return None. Each rank sorts
    its block once, before the first round, and lays it out by column.
    """
    keyed = KeySortedRows.build(points)
    cols = np.ascontiguousarray(keyed.rows.T)
    at = ctx.start + keyed.order
    if ctx.rank != 0:
        while (boxes := await ctx.broadcast(None)) is not None:
            await ctx.gather(_round_hits(cols, keyed.col, at, boxes))
        return None

    async def query(boxes):
        boxes = await ctx.broadcast(boxes)
        parts = await ctx.gather(_round_hits(cols, keyed.col, at, boxes))
        return [np.concatenate(box) for box in zip(*parts)]

    out = await driver(query)
    await ctx.broadcast(None)
    return out


def parallel_range_search(world: CommWorld, tree: MDBinaryTree,
                          query: RangeQuery) -> set[int]:
    """Box search over the tree's rows split into one block per node."""
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    async def one_box(ask):
        return (await ask((query.lo[None], query.hi[None])))[0]

    hits, _ = world.run(_search_node, DataSet(tree.points), one_box)
    return set(hits.tolist())


def _products(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's product of its positive factors, taken in order, as a
    mantissa in [0.5, 1) and an integer exponent.

    The running product is renormalized with `np.frexp` after each factor,
    so it never overflows or underflows; scaling by a power of two changes
    no rounding, so wherever the plain float product stays normal,
    mantissa * 2**exponent equals it.
    """
    mant, exp = np.frexp(factors)
    m, e = mant[:, 0], exp.sum(axis=1)
    for t in range(1, factors.shape[1]):
        m, k = np.frexp(m * mant[:, t])
        e += k
    return m, e


def _exceeds(x, y) -> np.ndarray:
    """x > y for the (mantissa, exponent) pairs of `_products`."""
    return (x[1] > y[1]) | ((x[1] == y[1]) & (x[0] > y[0]))


@dataclass
class Window:
    center: np.ndarray
    half_width: np.ndarray
    # dataset rows inside, distinct, in no particular order
    enclosed: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    def bounds(self):
        return self.center - self.half_width, self.center + self.half_width


class _WindowDriver:
    """Window paths in lockstep, then merge and labeling, executed at rank 0.

    `run` is a `_search_node` driver, and reads the rows of X for the
    seeds and the window means. A window's path (movement, then
    enlargement with movement after each kept growth) depends only on
    that window and the data, so every live window takes one step of its
    path per round and a call costs as many rounds as its longest path.
    A step asks for a list of boxes: one for movement, and every
    remaining enlargement trial at once.
    """

    def __init__(self, X: DataSet, params: KWindowsParams):
        self.X = X
        self.params = params

    def _move(self, w: Window):
        """Movement from `w.enclosed`, the rows its current box holds, which
        the caller has already queried: re-center on the mean of the
        enclosed rows until the count grows by less than theta_move."""
        steps = 0
        while w.enclosed.size:
            steps += 1
            if steps > self.X.n + 1:
                raise RuntimeError("movement failed to stabilize")
            prev = w.enclosed.size
            w.center = self._mean(w.enclosed)
            w.enclosed, = yield [w.bounds()]
            if w.enclosed.size - prev < self.params.theta_move * prev:
                break

    def _mean(self, enclosed: np.ndarray) -> np.ndarray:
        # ascending row order keeps the mean independent of node count
        return self.X.points[np.sort(enclosed)].mean(axis=0)

    def _path(self, w: Window):
        """One window's box queries: yields lists of boxes, is sent the rows
        of each box in the same order.

        Until a trial is kept, every enlargement trial grows the same center
        and half-widths, so the trials of all remaining coordinates are asked
        in one step; the first kept trial wins and the answers after it are
        dropped. A kept enlargement keeps the rows its trial box found, so
        movement goes on from them without asking for that box again."""
        d, theta = self.X.d, self.params.theta_enlarge
        w.enclosed, = yield [w.bounds()]
        yield from self._move(w)
        # safety cap: movement after a kept growth may shed points again
        for _ in range(50):
            kept, t = False, 0
            while t < d and w.enclosed.size:
                before, grown, t = w.enclosed.size, range(t, d), d
                trials = []
                for s in grown:
                    trial = w.half_width.copy()
                    trial[s] *= 1.0 + theta
                    trials.append(trial)
                found = yield [(w.center - h, w.center + h) for h in trials]
                for s, trial, hits in zip(grown, trials, found):
                    if hits.size > before and \
                            hits.size - before >= theta * before:
                        w.half_width, w.enclosed = trial, hits
                        yield from self._move(w)
                        kept, t = True, s + 1
                        break
            if not kept:
                return

    @staticmethod
    async def _lockstep(paths: list, query):
        """Advance every unfinished path one step per round, each round one
        `query` of all the boxes the steps ask for, until all finish."""
        live = [(path, next(path)) for path in paths]
        while live:
            boxes = [box for _, asked in live for box in asked]
            hits = await query((np.array([lo for lo, _ in boxes]),
                                np.array([hi for _, hi in boxes])))
            step, at = [], 0
            for path, asked in live:
                try:
                    step.append((path, path.send(hits[at:at + len(asked)])))
                except StopIteration:
                    pass
                at += len(asked)
            live = step

    @staticmethod
    def _merge_groups(windows: list[Window], theta_merge: float) -> list[int]:
        """Each window's smallest merged window index under the
        overlap-volume rule.

        Two windows that caught rows merge when they overlap by a positive
        extent on every coordinate and the volume they share exceeds
        theta_merge times the smaller window's; merging is transitive.
        Volumes are `_products` of the extents, so a volume beyond float64's
        range still compares by its true size.
        """
        merged = np.zeros((2, 0), dtype=np.int64)  # pairs of windows, by column
        live = np.array([i for i, w in enumerate(windows) if w.enclosed.size],
                        dtype=np.int64)
        if live.size > 1:
            center = np.array([windows[i].center for i in live])
            half = np.array([windows[i].half_width for i in live])
            lo, hi = center - half, center + half
            # ext[a, b]: the overlap extents of live windows a and b, so
            # ext[a, a] are the widths of window a
            ext = (np.minimum(hi[:, None], hi[None]) -
                   np.maximum(lo[:, None], lo[None]))
            a, b = np.nonzero(np.triu(~np.any(ext <= 0, axis=2), 1))
            # inter > theta * min(vol_a, vol_b) holds exactly where it
            # holds for either volume, since a rounded product is monotone
            inter = _products(ext[a, b])
            ok = np.zeros(a.size, dtype=bool)
            for i in (a, b):
                scaled = np.append(ext[i, i], np.full((i.size, 1), theta_merge),
                                   axis=1)
                ok |= _exceeds(inter, _products(scaled))
            merged = live[np.stack([a[ok], b[ok]])]
        return components(len(windows), merged.ravel(),
                          merged[::-1].ravel()).tolist()

    async def run(self, query):
        X, params = self.X, self.params
        rng = np.random.default_rng(params.seed)
        seeds = rng.choice(X.n, size=params.l, replace=False)
        windows = [Window(X.points[r].copy(), np.full(X.d, params.a, dtype=np.float64))
                   for r in np.sort(seeds)]
        await self._lockstep([self._path(w) for w in windows], query)
        roots = self._merge_groups(windows, params.theta_merge)
        group_label: dict[int, int] = {}
        labels = np.full(X.n, NOISE, dtype=np.int64)
        for i, w in enumerate(windows):
            if not w.enclosed.size:
                continue  # a window that caught nothing represents nothing
            g = group_label.setdefault(roots[i], len(group_label))
            # a window's rows are distinct, so the order they are claimed
            # in does not matter; earlier windows keep what they claimed
            labels[w.enclosed[labels[w.enclosed] == NOISE]] = g
        # a group can end up owning no points when earlier windows claim
        # everything it covers; compact so labels stay below k
        owned = labels != NOISE
        labels[owned] = np.searchsorted(np.unique(labels[owned]), labels[owned])
        model = {
            "windows": [{"center": w.center.tolist(),
                         "half_width": w.half_width.tolist(),
                         "count": w.enclosed.size} for w in windows],
        }
        return labels, model


def k_windows(world: CommWorld, rows, params: KWindowsParams) -> ClusterReport:
    """Window clustering of `rows`, a DataSet or a list of blocks, as
    `CommWorld.run` takes them, with every box query answered over
    key-sorted shards; rank 0's windows read the whole dataset."""
    X = dataset_of(rows, world.size)
    if params.l > X.n:
        raise ValueError("l=%d exceeds the %d available rows" % (params.l, X.n))
    (labels, model), timings = world.run(_search_node, rows,
                                         _WindowDriver(X, params).run)
    return ClusterReport(
        algo="kwindows",
        p=world.size,
        params=dataclasses.asdict(params),
        n=X.n,
        d=X.d,
        labels=labels,
        j=None,
        iterations=None,
        model={"k": Partition(labels).k, **model},
        timings_ms=timings,
    )
