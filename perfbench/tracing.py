"""Spans recorded from outside the library, by wrapping its functions at run time.

Nothing under src/ knows about this module. `Tracer.install()` replaces each
target in `TARGETS` with a timing wrapper and `uninstall()` puts the
originals back, so the same process can time untraced and traced passes.

Two details of the package decide how targets are found:

- `parclust/__init__.py` re-exports the functions `dbscan` and `pddp`, so
  `import parclust.dbscan` yields the function. Modules are therefore
  reached through `importlib.import_module`.
- A name bound with `from .x import y` lives in every importing module
  (`sum_fixed` is bound in exactsum, core, kmeans, fcm and pddp), so a
  module-level target is replaced wherever that same object is bound.

A target that no longer exists is recorded in `Tracer.missing` and the
metrics that read it are reported as missing; the run goes on.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import pickle
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


# -- computed payload sizes -----------------------------------------------

def payload_bytes(obj) -> tuple[int, int]:
    """(computed bytes, of which estimated) for one message or collective payload.

    Arrays count `nbytes` and Python ints `bit_length()/8` rounded up, which
    is how the exact fixed-point vectors travel. Objects of any other type
    are sized by their pickle, which is an estimate; the second element
    says how many of the bytes came from such estimates. None of this is
    measured traffic: the runtime passes references between threads.
    """
    if obj is None:
        return 0, 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes), 0
    if isinstance(obj, (bool, np.bool_)):
        return 1, 0
    if isinstance(obj, (int, np.integer)):
        return max(1, (int(obj).bit_length() + 7) // 8), 0
    if isinstance(obj, (float, np.floating)):
        return 8, 0
    if isinstance(obj, (str, bytes)):
        return len(obj), 0
    if isinstance(obj, dict):
        obj = [*obj.keys(), *obj.values()]
    if isinstance(obj, (list, tuple, set, frozenset)):
        total = est = 0
        for item in obj:
            b, e = payload_bytes(item)
            total += b
            est += e
        return total, est
    size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    return size, size


# -- what gets wrapped ------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One library callable to time.

    `attr` is a module attribute or `Class.method`. `info(args, out)` returns
    counters stored on the span; `audit(args, out)` returns False when the
    result differs from a brute-force recomputation. Both run after the
    span's end time is taken, so they do not count as the layer's time.
    """

    module: str
    attr: str
    span: str
    info: Callable | None = None
    audit: Callable | None = None


def _elems(args, out):
    return {"elems": int(np.size(args[0]))}


def _rows(args, out):
    return {"rows": int(args[0].shape[0])}


def _kmeans_iters(args, out):
    return {"iterations": int(out[3])}


def _report_iters(args, out):
    return {"iterations": int(out.iterations or 0)}


def _collective_bytes(args, out):
    b, e = payload_bytes(args[1])
    return {"bytes": b, "est_bytes": e}


def _send_bytes(args, out):
    b, e = payload_bytes(args[2])
    return {"bytes": b, "est_bytes": e}


def _recv_info(args, out):
    return {"msg": isinstance(out, tuple)}


def _dbscan_rows(args, out):
    return {"rows": int(args[0].n)}


def _ddbc_reps(args, out):
    return {"representatives": int(out.model["representatives"])}


def _box_hits(args, out):
    return {"hits": len(out)}


def _box_audit(args, out):
    master, lo, hi = args[0], args[1], args[2]
    tree = master.tree
    mask = np.all((tree.points >= lo) & (tree.points <= hi), axis=1)
    return set(tree.ids[mask].tolist()) == set(out)


def _eps_audit(args, out):
    points, row, eps2 = args[0], args[1], args[2]
    diff = points - points[row]
    want = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= eps2)
    return np.array_equal(np.sort(np.asarray(out)), want)


TARGETS = (
    Target("exactsum", "sum_fixed", "exactsum.sum_fixed", info=_elems),
    Target("kmeans", "_assign", "kmeans.assign", info=_rows),
    Target("kmeans", "kmeans_centralized", "kmeans.kmeans_centralized",
           info=_kmeans_iters),
    Target("kmeans", "pkm", "kmeans.pkm", info=_report_iters),
    Target("fcm", "_distances_sq", "fcm.distances"),
    Target("fcm", "membership_update", "fcm.membership"),
    Target("fcm", "pfcm", "fcm.pfcm", info=_report_iters),
    Target("pddp", "pddp", "pddp.tree"),
    Target("pddp", "_power_direction", "pddp.power"),
    Target("pddp", "pddp_km", "pddp.pddp_km"),
    Target("pca", "leading_eigenvector", "pca.eig"),
    Target("pca", "local_pca", "pca.local"),
    Target("pca", "cpca_cluster", "pca.cpca_cluster"),
    Target("dbscan", "_neighbor_rows", "dbscan.eps_query", audit=_eps_audit),
    Target("dbscan", "dbscan", "dbscan.dbscan", info=_dbscan_rows),
    Target("dbscan", "specific_core_points", "dbscan.scp"),
    Target("dbscan", "rep_kmeans_model", "dbscan.rep_model"),
    Target("dbscan", "ddbc", "dbscan.ddbc", info=_ddbc_reps),
    Target("kwindows", "_search_subtree", "kwindows.search"),
    Target("kwindows", "MDBinaryTree.__init__", "kwindows.tree_build"),
    Target("kwindows", "_SearchMaster.query", "kwindows.box_query",
           info=_box_hits, audit=_box_audit),
    Target("kwindows", "k_windows", "kwindows.k_windows"),
    Target("comm", "NodeCtx.allreduce_sum", "comm.allreduce",
           info=_collective_bytes),
    Target("comm", "NodeCtx.gather", "comm.gather", info=_collective_bytes),
    Target("comm", "NodeCtx.broadcast", "comm.broadcast",
           info=_collective_bytes),
    Target("comm", "NodeCtx.send", "comm.send", info=_send_bytes),
    Target("comm", "NodeCtx.recv", "comm.recv", info=_recv_info),
    Target("comm", "CommWorld.spmd", "comm.spmd"),
)


# -- the recorder -----------------------------------------------------------

@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: str
    rank: int  # -1 for the calling thread, r for the thread "node-<r>"
    run: str
    start: float
    end: float
    attrs: dict | None = None
    # seconds the wrapper spent after `end` on counters and the audit; the
    # parent's self time excludes it, so tracing does not inflate a layer
    after: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _rank_of(thread_name: str) -> int:
    if thread_name.startswith("node-"):
        return int(thread_name[5:])
    return -1


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.mismatches = 0
        self.run = ""  # id of the benchmark call in progress
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, target=None, parent=None):
        """Run fn inside a span; `parent` links a thread's root span across threads."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._record(sid, parent, name, t0, time.perf_counter(), {"error": True})
            raise
        finally:
            stack.pop()
        t1 = time.perf_counter()
        attrs = None
        if target is not None:
            if target.info is not None:
                attrs = target.info(args, out)
            if target.audit is not None and not target.audit(args, out):
                with self._lock:
                    self.mismatches += 1
        self._record(sid, parent, name, t0, t1, attrs, time.perf_counter() - t1)
        return out

    def _record(self, sid, parent, name, t0, t1, attrs, after=0.0):
        thread = threading.current_thread().name
        self.spans.append(Span(sid, parent, name, thread, _rank_of(thread),
                               self.run, t0, t1, attrs, after))

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self._record(sid, parent, name, t0, time.perf_counter(), None)

    # patching ----------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            mod = importlib.import_module("parclust." + target.module)
            owner_name, _, name = target.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, name, None) if owner is not None else None
            if orig is None:
                if target.span not in self.missing:
                    self.missing.append(target.span)
                continue
            wrapped = self._wrap(target, orig)
            if owner_name:
                self._patch(owner, name, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname == "parclust" or mname.startswith("parclust."):
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _wrap(self, target: Target, orig):
        tracer = self
        if target.span == "comm.spmd":
            def spmd(world, fn, *args, **kwargs):
                sid_box = []

                def rank_body(ctx, *a):
                    return tracer.call("comm.rank_body", fn, (ctx,) + a, {},
                                       parent=sid_box[0])

                def run(*_):
                    sid_box.append(tracer._stack()[-1])
                    return orig(world, rank_body, *args, **kwargs)

                return tracer.call("comm.spmd", run, (), {})
            return spmd

        def wrapper(*args, **kwargs):
            return tracer.call(target.span, orig, args, kwargs, target=target)
        wrapper.__name__ = getattr(orig, "__name__", target.attr)
        wrapper.__wrapped__ = orig
        return wrapper

    # output ------------------------------------------------------------

    def write_jsonl(self, path, spans) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name,
                    "rank": s.rank, "thread": s.thread, "run": s.run,
                    "start": s.start, "end": s.end, **(s.attrs or {}),
                }) + "\n")


# -- per-layer metrics --------------------------------------------------------

#: Per-layer metric name -> unit, in the order they are printed. Every time
#: metric is a self time or a wait; at P=2 it is the critical path (the
#: calling thread plus the slowest rank) and `.rank_sum` adds all ranks.
LAYER_UNITS = {
    "exactsum.calls": "count", "exactsum.elems": "count",
    "exactsum.self_ms": "ms", "exactsum.ns_per_elem": "ns",
    "comm.allreduce.calls": "count", "comm.allreduce.bytes": "B",
    "comm.allreduce.wait_ms": "ms",
    "comm.gather.calls": "count", "comm.gather.bytes": "B",
    "comm.gather.wait_ms": "ms",
    "comm.broadcast.calls": "count", "comm.broadcast.bytes": "B",
    "comm.broadcast.wait_ms": "ms",
    "comm.send.msgs": "count", "comm.send.ms": "ms",
    "comm.recv.msgs": "count", "comm.recv.wait_ms": "ms",
    "comm.spmd_overhead_ms": "ms",
    "kmeans.assign.calls": "count", "kmeans.assign.rows": "count",
    "kmeans.assign.self_ms": "ms", "kmeans.iterations": "count",
    "kmeans.nested_calls": "count",
    "fcm.distances.self_ms": "ms", "fcm.membership.self_ms": "ms",
    "fcm.iterations": "count",
    "pddp.tree.ms": "ms", "pddp.power.calls": "count",
    "pddp.power.self_ms": "ms",
    "pca.eig.calls": "count", "pca.eig.self_ms": "ms",
    "pca.local.self_ms": "ms",
    "kwindows.tree_build.ms": "ms", "kwindows.box_queries": "count",
    "kwindows.box_query.ms_p50": "ms", "kwindows.box_hits_mean": "count",
    "kwindows.msgs_per_query": "count", "kwindows.search.self_ms": "ms",
    "dbscan.eps_queries": "count", "dbscan.eps_query.self_ms": "ms",
    "dbscan.queries_per_point": "ratio", "dbscan.scp.self_ms": "ms",
    "dbscan.rep_model.self_ms": "ms", "ddbc.representatives": "count",
    "report.serialize_ms": "ms", "report.validate_ms": "ms",
}

#: Self-time metric -> the span it reads; these get a P=2 `.rank_sum` twin.
SELF_TIME_SPANS = {
    "exactsum.self_ms": "exactsum.sum_fixed",
    "comm.allreduce.wait_ms": "comm.allreduce",
    "comm.gather.wait_ms": "comm.gather",
    "comm.broadcast.wait_ms": "comm.broadcast",
    "comm.send.ms": "comm.send",
    "comm.recv.wait_ms": "comm.recv",
    "kmeans.assign.self_ms": "kmeans.assign",
    "fcm.distances.self_ms": "fcm.distances",
    "fcm.membership.self_ms": "fcm.membership",
    "pddp.power.self_ms": "pddp.power",
    "pca.eig.self_ms": "pca.eig",
    "pca.local.self_ms": "pca.local",
    "kwindows.search.self_ms": "kwindows.search",
    "dbscan.eps_query.self_ms": "dbscan.eps_query",
    "dbscan.scp.self_ms": "dbscan.scp",
    "dbscan.rep_model.self_ms": "dbscan.rep_model",
}

#: Metrics that do not depend on P: they are reported once, from the P=1 pass.
P1_ONLY = ("kmeans.iterations", "fcm.iterations", "report.serialize_ms",
           "report.validate_ms")

#: Metric-name prefix -> the wrapped span it is computed from.
METRIC_SOURCES = {
    "exactsum.": "exactsum.sum_fixed", "comm.allreduce": "comm.allreduce",
    "comm.gather": "comm.gather", "comm.broadcast": "comm.broadcast",
    "comm.send": "comm.send", "comm.recv": "comm.recv",
    "comm.spmd": "comm.spmd", "kmeans.assign": "kmeans.assign",
    "kmeans.iterations": "kmeans.kmeans_centralized",
    "kmeans.nested": "kmeans.kmeans_centralized",
    "fcm.distances": "fcm.distances", "fcm.membership": "fcm.membership",
    "fcm.iterations": "fcm.pfcm", "pddp.tree": "pddp.tree",
    "pddp.power": "pddp.power", "pca.eig": "pca.eig",
    "pca.local": "pca.local", "kwindows.tree_build": "kwindows.tree_build",
    "kwindows.box": "kwindows.box_query",
    "kwindows.msgs": "kwindows.box_query",
    "kwindows.search": "kwindows.search",
    "dbscan.eps_quer": "dbscan.eps_query",
    "dbscan.queries": "dbscan.eps_query", "dbscan.scp": "dbscan.scp",
    "dbscan.rep_model": "dbscan.rep_model",
    "ddbc.": "dbscan.ddbc",
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, P=1 and P=2 together."""
    names = list(LAYER_UNITS)
    names += ["p2." + n for n in LAYER_UNITS if n not in P1_ONLY]
    names += ["p2." + n + ".rank_sum" for n in SELF_TIME_SPANS]
    names += ["trace.overhead", "trace.query_mismatches"]
    return names


def metric_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name == "trace.query_mismatches":
        return "count"
    base = name[3:] if name.startswith("p2.") else name
    base = base[:-len(".rank_sum")] if base.endswith(".rank_sum") else base
    return LAYER_UNITS[base]


def missing_metrics(missing_spans) -> list[str]:
    out = []
    for name in layer_metric_names():
        base = name[3:] if name.startswith("p2.") else name
        for prefix, span in METRIC_SOURCES.items():
            if base.startswith(prefix) and span in missing_spans:
                out.append(name)
                break
    return out


class _PassView:
    """Self times and counters of the spans of one pass."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        by_id = {s.sid: s for s in spans}
        child_ms: dict[int, float] = {}
        for s in spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                child_ms[s.parent] = (child_ms.get(s.parent, 0.0) + s.ms
                                      + s.after * 1e3)
        self.by_id = by_id
        self.self_ms = {s.sid: s.ms - child_ms.get(s.sid, 0.0) for s in spans}
        self.named: dict[str, list[Span]] = {}
        for s in spans:
            self.named.setdefault(s.name, []).append(s)

    def of(self, name) -> list[Span]:
        return self.named.get(name, [])

    def count(self, name) -> int:
        return len(self.of(name))

    def attr_sum(self, name, key) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in self.of(name))

    def self_time(self, name) -> tuple[float, float]:
        """(critical path, summed over ranks) of a span's self time, in ms."""
        per_rank: dict[int, float] = {}
        for s in self.of(name):
            per_rank[s.rank] = per_rank.get(s.rank, 0.0) + self.self_ms[s.sid]
        caller = per_rank.pop(-1, 0.0)
        crit = caller + (max(per_rank.values()) if per_rank else 0.0)
        return crit, caller + sum(per_rank.values())

    def wall(self, name) -> float:
        return sum(s.ms for s in self.of(name))


def layer_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer metrics of one pass: (values, P=2 rank sums of self times)."""
    v = _PassView(spans)
    m: dict[str, float] = {}
    sums: dict[str, float] = {}
    for metric, span in SELF_TIME_SPANS.items():
        m[metric], sums[metric] = v.self_time(span)

    m["exactsum.calls"] = v.count("exactsum.sum_fixed")
    m["exactsum.elems"] = v.attr_sum("exactsum.sum_fixed", "elems")
    m["exactsum.ns_per_elem"] = (sums["exactsum.self_ms"] * 1e6
                                 / m["exactsum.elems"]) if m["exactsum.elems"] else 0.0
    for kind in ("allreduce", "gather", "broadcast"):
        m["comm.%s.calls" % kind] = v.count("comm." + kind)
        m["comm.%s.bytes" % kind] = v.attr_sum("comm." + kind, "bytes")
    m["comm.send.msgs"] = v.count("comm.send")
    m["comm.recv.msgs"] = sum(1 for s in v.of("comm.recv")
                              if (s.attrs or {}).get("msg"))
    overhead = v.wall("comm.world")
    for s in v.of("comm.spmd"):
        bodies = [b.ms for b in v.of("comm.rank_body") if b.parent == s.sid]
        overhead += s.ms - (max(bodies) if bodies else 0.0)
    m["comm.spmd_overhead_ms"] = overhead

    m["kmeans.assign.calls"] = v.count("kmeans.assign")
    m["kmeans.assign.rows"] = v.attr_sum("kmeans.assign", "rows")
    m["kmeans.iterations"] = (v.attr_sum("kmeans.kmeans_centralized", "iterations")
                              + v.attr_sum("kmeans.pkm", "iterations"))
    m["kmeans.nested_calls"] = sum(
        1 for s in v.of("kmeans.kmeans_centralized")
        if s.parent not in v.by_id or v.by_id[s.parent].name != "bench.call")
    m["fcm.iterations"] = v.attr_sum("fcm.pfcm", "iterations")

    m["pddp.tree.ms"] = v.wall("pddp.tree")
    m["pddp.power.calls"] = v.count("pddp.power")
    m["pca.eig.calls"] = v.count("pca.eig")

    queries = v.of("kwindows.box_query")
    m["kwindows.tree_build.ms"] = v.wall("kwindows.tree_build")
    m["kwindows.box_queries"] = len(queries)
    m["kwindows.box_query.ms_p50"] = (statistics.median(q.ms for q in queries)
                                      if queries else 0.0)
    m["kwindows.box_hits_mean"] = (v.attr_sum("kwindows.box_query", "hits")
                                   / len(queries)) if queries else 0.0
    window_runs = {s.run for s in v.of("kwindows.k_windows")}
    window_msgs = sum(1 for s in v.of("comm.send") if s.run in window_runs)
    m["kwindows.msgs_per_query"] = window_msgs / len(queries) if queries else 0.0

    m["dbscan.eps_queries"] = v.count("dbscan.eps_query")
    scanned = v.attr_sum("dbscan.dbscan", "rows")
    m["dbscan.queries_per_point"] = (m["dbscan.eps_queries"] / scanned
                                     if scanned else 0.0)
    m["ddbc.representatives"] = v.attr_sum("dbscan.ddbc", "representatives")

    m["report.serialize_ms"] = v.wall("report.serialize")
    m["report.validate_ms"] = v.wall("report.validate")
    assert set(m) == set(LAYER_UNITS), sorted(set(LAYER_UNITS) ^ set(m))
    return m, sums


def top_self_times(spans: list[Span], n: int = 5) -> list[tuple[str, float]]:
    """Span names with the largest summed self time, for the printed layer shares."""
    v = _PassView(spans)
    totals: dict[str, float] = {}
    for s in spans:
        if s.name in ("bench.call", "comm.rank_body", "comm.spmd",
                      "report.validate"):
            continue
        totals[s.name] = totals.get(s.name, 0.0) + v.self_ms[s.sid]
    return sorted(totals.items(), key=lambda kv: -kv[1])[:n]
