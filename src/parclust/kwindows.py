"""Box-window clustering over a balanced multi-dimensional binary tree.

The tree stores one point per node, cycling the split coordinate with
depth and breaking coordinate ties by global row id, so lookups stay
balanced on duplicate data. Range searches visit a node's children
whenever their coordinate interval can intersect the box, regardless of
whether the node itself lies inside. Under more than one node, searches
run master/slave: rank 0 owns an idle pool and hands whole subtrees to
free ranks when a busy rank would have to descend both children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .comm import CLOSED, CommAbort, CommWorld, NodeCtx
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
    """Balanced point tree; node arrays are index-addressable for delegation."""

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


def _search_subtree(tree: MDBinaryTree, start: int, lo, hi, ask) -> set[int]:
    """Collect row ids inside the box below `start`.

    `ask(child)` may hand a subtree off to another rank; it returns True
    when the child was taken. Children are pruned only on the interval
    test, never on whether the node itself is inside the box.
    """
    found: set[int] = set()
    stack = [start]
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
        go_left = tree.left[idx] >= 0 and c >= lo[axis]
        go_right = tree.right[idx] >= 0 and c <= hi[axis]
        if go_left and go_right:
            if not ask(int(tree.right[idx])):
                stack.append(int(tree.right[idx]))
            stack.append(int(tree.left[idx]))
        elif go_left:
            stack.append(int(tree.left[idx]))
        elif go_right:
            stack.append(int(tree.right[idx]))
    return found


def orthogonal_range_search(tree: MDBinaryTree, query: RangeQuery) -> set[int]:
    """Single-rank box search returning the set of matching row ids."""
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    return _search_subtree(tree, tree.root, query.lo, query.hi, lambda _: False)


class _SearchMaster:
    """Rank 0 side of the subtree-delegation protocol."""

    def __init__(self, ctx: NodeCtx, tree: MDBinaryTree):
        self.ctx = ctx
        self.tree = tree
        self.idle = set(range(1, ctx.size))
        self.delegations = 0

    def query(self, lo, hi) -> set[int]:
        ctx = self.ctx
        if ctx.size == 1:
            return _search_subtree(self.tree, self.tree.root, lo, hi,
                                   lambda _: False)
        first = min(self.idle)
        self.idle.remove(first)
        ctx.send(first, ("task", self.tree.root, lo, hi))
        outstanding = 1
        found: set[int] = set()
        while outstanding:
            got = ctx.recv()
            if got is CLOSED:
                raise CommAbort("world closed during range search")
            src, msg = got
            if msg[0] == "ask":
                if self.idle:
                    dst = min(self.idle)
                    self.idle.remove(dst)
                    ctx.send(dst, ("task", msg[1], lo, hi))
                    outstanding += 1
                    self.delegations += 1
                    ctx.send(src, ("go",))
                else:
                    ctx.send(src, ("mine",))
            else:  # ("found", ids)
                found |= msg[1]
                outstanding -= 1
                self.idle.add(src)
        return found

    def stop(self):
        for r in range(1, self.ctx.size):
            self.ctx.send(r, ("stop",))


def _slave_loop(ctx: NodeCtx, tree: MDBinaryTree) -> None:
    """Serve subtree searches until told to stop or the world closes."""
    while True:
        got = ctx.recv()
        if got is CLOSED:
            return
        _, msg = got
        if msg[0] == "stop":
            return
        _, start, lo, hi = msg

        def ask(child: int) -> bool:
            ctx.send(0, ("ask", child))
            reply = ctx.recv()
            if reply is CLOSED:
                raise CommAbort("world closed while awaiting delegation reply")
            return reply[1][0] == "go"

        found = _search_subtree(tree, start, lo, hi, ask)
        ctx.send(0, ("found", frozenset(found)))


def _search_node(ctx: NodeCtx, tree: MDBinaryTree, job):
    """Rank 0 returns job(search), where search(lo, hi) is a box query served
    by the group; the other ranks serve subtree searches meanwhile."""
    if ctx.rank == 0:
        master = _SearchMaster(ctx, tree)
        out = job(master.query)
        master.stop()
        return out
    _slave_loop(ctx, tree)
    return None


def parallel_range_search(world: CommWorld, tree: MDBinaryTree,
                          query: RangeQuery) -> set[int]:
    """Master/slave box search; result equals the single-rank search."""
    if query.lo.size != tree.d:
        raise ValueError("query dimension %d does not match data dimension %d"
                         % (query.lo.size, tree.d))
    return world.spmd(_search_node, tree,
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
    """Window clustering with every box query served by the node group."""
    with world.timed() as timings:
        t0 = time.perf_counter()
        tree = MDBinaryTree(X)
        timings["split"] = (time.perf_counter() - t0) * 1e3
        labels, model = world.spmd(
            _search_node, tree,
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
