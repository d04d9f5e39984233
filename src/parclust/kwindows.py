"""Box-window clustering with box queries answered by shard-local masks.

Every rank holds one contiguous block of rows (`split_blocks`). Rank 0
runs the window phases; each box query is one broadcast of the box and
one gather of the ids each block has inside it, so a search returns the
same set for any node count.

The balanced multi-dimensional binary tree and its serial walk remain as
a reference search. The tree stores one point per node, cycling the
split coordinate with depth and breaking coordinate ties by global row
id, so lookups stay balanced on duplicate data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .comm import CommWorld, NodeCtx, Shard, split_blocks
from .core import NOISE, DataSet, UnionFind
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
        if self.a <= 0:
            raise ValueError("initial half-width a must be positive")
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
        # rows are addressed positionally; X.ids break ordering ties
        self.ids = X.ids
        self.root = self._build(np.arange(n, dtype=np.int64), 0)

    def _build(self, rows: np.ndarray, depth: int) -> int:
        axis = depth % self.d
        order = rows[np.lexsort((self.ids[rows], self.points[rows, axis]))]
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
    """Single-rank tree walk returning the set of matching row ids.

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
            found.add(int(tree.ids[row]))
        axis = tree.axis[idx]
        c = p[axis]
        # left holds (coord, id) lexicographically below the node, right above,
        # so equal coordinates can appear on either side of the node
        if tree.left[idx] >= 0 and c >= lo[axis]:
            stack.append(int(tree.left[idx]))
        if tree.right[idx] >= 0 and c <= hi[axis]:
            stack.append(int(tree.right[idx]))
    return found


def _box_hits(shard: Shard, box) -> np.ndarray:
    """Global ids of the shard rows inside the closed box (lo, hi)."""
    lo, hi = box
    return shard.ids[np.all((shard.points >= lo) & (shard.points <= hi), axis=1)]


def _search_node(ctx: NodeCtx, shards: list[Shard], job):
    """Rank 0 returns job(search), where search(lo, hi) broadcasts the box and
    gathers every shard's hits; the other ranks answer boxes until rank 0
    broadcasts None."""
    shard = shards[ctx.rank]
    if ctx.rank == 0:
        def search(lo, hi) -> set[int]:
            hits = ctx.gather(_box_hits(shard, ctx.broadcast((lo, hi))))
            return set(np.concatenate(hits).tolist())

        out = job(search)
        ctx.broadcast(None)
        return out
    while (box := ctx.broadcast(None)) is not None:
        ctx.gather(_box_hits(shard, box))
    return None


def parallel_range_search(world: CommWorld, tree: MDBinaryTree,
                          query: RangeQuery) -> set[int]:
    """Box search over the tree's rows split into one block per node."""
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    shards = split_blocks(DataSet(tree.points, tree.ids), world.size)
    return world.spmd(_search_node, shards,
                      lambda search: search(query.lo, query.hi))[0]


@dataclass
class Window:
    center: np.ndarray
    half_width: np.ndarray
    enclosed: set[int] = field(default_factory=set)

    def bounds(self):
        return self.center - self.half_width, self.center + self.half_width


class _WindowDriver:
    """Movement, enlargement, merge and labeling phases, executed at rank 0."""

    def __init__(self, X: DataSet, params: KWindowsParams, search):
        self.X = X
        self.params = params
        self.search = search
        # row lookup by global id; ids are a permutation so this inverts it
        self.row_of = np.empty(X.n, dtype=np.int64)
        self.row_of[X.ids] = np.arange(X.n)

    def _enclosed(self, w: Window) -> set[int]:
        lo, hi = w.bounds()
        return self.search(lo, hi)

    def _move(self, w: Window) -> None:
        w.enclosed = self._enclosed(w)
        steps = 0
        while w.enclosed:
            steps += 1
            if steps > self.X.n + 1:
                raise RuntimeError("movement failed to stabilize")
            prev = len(w.enclosed)
            w.center = self._mean(w.enclosed)
            w.enclosed = self._enclosed(w)
            if len(w.enclosed) - prev < self.params.theta_move * prev:
                break

    def _mean(self, enclosed: set[int]) -> np.ndarray:
        # fixed ascending-id order keeps the mean independent of node count
        rows = self.row_of[sorted(enclosed)]
        return self.X.points[rows].mean(axis=0)

    def _enlarge(self, w: Window) -> None:
        # safety cap: movement after a kept growth may shed points again
        for _ in range(50):
            kept = False
            for t in range(self.X.d):
                if not w.enclosed:
                    return
                before = len(w.enclosed)
                trial = w.half_width.copy()
                trial[t] *= 1.0 + self.params.theta_enlarge
                lo = w.center - trial
                hi = w.center + trial
                count = len(self.search(lo, hi))
                if count > before and \
                        count - before >= self.params.theta_enlarge * before:
                    w.half_width = trial
                    self._move(w)
                    kept = True
            if not kept:
                return

    @staticmethod
    def _merge_groups(windows: list[Window], theta_merge: float) -> list[int]:
        """Union-find component per window under the overlap-volume rule."""
        groups = UnionFind()
        live = [i for i, w in enumerate(windows) if w.enclosed]
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                i, j = live[a], live[b]
                lo_i, hi_i = windows[i].bounds()
                lo_j, hi_j = windows[j].bounds()
                ext = np.minimum(hi_i, hi_j) - np.maximum(lo_i, lo_j)
                if np.any(ext <= 0):
                    continue
                inter = float(np.prod(ext))
                vol_i = float(np.prod(hi_i - lo_i))
                vol_j = float(np.prod(hi_j - lo_j))
                if inter > theta_merge * min(vol_i, vol_j):
                    groups.union(i, j)
        return [groups.find(i) for i in range(len(windows))]

    def run(self):
        X, params = self.X, self.params
        if params.l > X.n:
            raise ValueError("l=%d exceeds the %d available rows" % (params.l, X.n))
        rng = np.random.default_rng(params.seed)
        seeds = rng.choice(X.n, size=params.l, replace=False)
        windows = [Window(X.points[r].copy(), np.full(X.d, params.a, dtype=np.float64))
                   for r in np.sort(seeds)]
        for w in windows:
            self._move(w)
        for w in windows:
            self._enlarge(w)
        roots = self._merge_groups(windows, params.theta_merge)
        group_label: dict[int, int] = {}
        labels = np.full(X.n, NOISE, dtype=np.int64)
        for i, w in enumerate(windows):
            if not w.enclosed:
                continue  # a window that caught nothing represents nothing
            g = group_label.setdefault(roots[i], len(group_label))
            for gid in sorted(w.enclosed):
                row = self.row_of[gid]
                if labels[row] == NOISE:
                    labels[row] = g
        # a group can end up owning no points when earlier windows claim
        # everything it covers; compact so labels stay below k
        present = np.unique(labels[labels != NOISE])
        remap = {int(v): i for i, v in enumerate(present)}
        labels = np.array([NOISE if v == NOISE else remap[v]
                           for v in labels.tolist()], dtype=np.int64)
        model = {
            "windows": [{"center": [float(v) for v in w.center],
                         "half_width": [float(v) for v in w.half_width],
                         "count": len(w.enclosed)} for w in windows],
        }
        return labels, model


def k_windows(world: CommWorld, X: DataSet, params: KWindowsParams) -> ClusterReport:
    """Window clustering with every box query answered by shard-local masks."""
    with world.timed() as timings:
        t0 = time.perf_counter()
        shards = split_blocks(X, world.size)
        timings["split"] = (time.perf_counter() - t0) * 1e3
        labels, model = world.spmd(
            _search_node, shards,
            lambda search: _WindowDriver(X, params, search).run())[0]
    k = int(np.unique(labels[labels != NOISE]).size)
    return ClusterReport(
        algo="kwindows",
        p=world.size,
        params={"l": params.l, "a": params.a, "theta_move": params.theta_move,
                "theta_enlarge": params.theta_enlarge,
                "theta_merge": params.theta_merge, "seed": params.seed},
        n=X.n,
        d=X.d,
        labels=labels,
        j=None,
        iterations=None,
        model={"k": k, **model},
        timings_ms=timings,
    )
