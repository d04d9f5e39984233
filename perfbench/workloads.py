"""The three workloads: inputs made from a seed, one pass per node count, checks.

A pass runs each of the workload's algorithms once at one node count. Each
call builds a fresh `CommWorld`, runs the library's public entry point, shuts
the world down and serialises the report, because every `parclust run` pays
all of that; those steps are what a call's time covers. Validation and the
correctness checks run outside the timed region.

Library functions are looked up on their modules at call time, so the
wrappers that `tracing.Tracer` installs are the ones called.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import jsonschema
import numpy as np

NODE_COUNTS = (1, 2)
N_CLUSTERS = 4
DIM = 8


def _mod(name: str):
    return importlib.import_module("parclust." + name)


@dataclass(frozen=True)
class Scale:
    """Input sizes: `full` is measured, `tiny` serves the smoke test."""

    lloyd_per_cluster: int
    merge_per_cluster: int
    windows_per_cluster: int
    setups: int


SCALES = {
    "full": Scale(lloyd_per_cluster=500, merge_per_cluster=500,
                  windows_per_cluster=250, setups=3),
    "tiny": Scale(lloyd_per_cluster=60, merge_per_cluster=60,
                  windows_per_cluster=100, setups=1),
}

# Iteration caps keep the work per pass nearly independent of the seed.
# Lloyd needs 7 to 70 iterations to converge on the lloyd inputs (30 seeds
# tried, fewer than 8 once), so nearly every lloyd call runs exactly MAX_ITER.
# The restarts of cpca-cluster's local k-means converge in 3 to 40 iterations
# depending on their random start; LOCAL_MAX_ITER makes nearly all of them run
# the same count.
MAX_ITER = 8
LOCAL_MAX_ITER = 4

# -- lloyd: bulk-synchronous exact reductions --------------------------------
#
# Overlapping blobs stretched along two axes. The stretch gives the covariance
# of every split in pddp a fixed eigengap, so its power iteration takes a
# near-constant number of steps (36 to 49 allreduces per tree over 30 seeds,
# against 53 to 554 unstretched).
LLOYD_SPREAD = 1.0
LLOYD_SEPARATION = 0.5
LLOYD_STRETCH = np.array([16.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])

# -- merge: local model, then one merge at the facilitator ---------------------
#
# Well-separated blobs (CLI default spread 1, separation 10). At d=8 an eps
# of 2.5 to 3.5 lets the central scan recover the blobs; 1.5 does not.
# 500 rows a blob keep a P=1 pass near one second, so that a run holds
# enough passes for a steady median; every check passes on seeds 0..99.
MERGE_EPS = 3.0
MERGE_MIN_PTS = 5
DDBC_MIN_ARI = 0.9  # acceptance criterion 4 of the library
# cpca-cluster keeps the principal directions that hold 90% of the variance,
# which can merge two blobs: seed 45 reaches ARI 0.98 at P=1 and 0.71 at P=2,
# seed 14 0.97 at P=1, while every other seed of 0..99 reaches 0.98 or more
# at both node counts. The pin catches a collapse, not that case.
CPCA_MIN_ARI = 0.6

# -- windows: master/worker box queries ----------------------------------------
#
# 16 windows of half-width 3 over 4 blobs: every blob gets at least one window
# and windows inside one blob merge, so k equals the blob count.
WINDOWS_L = 16
WINDOWS_A = 3.0


@dataclass
class Inputs:
    X: object
    truth: object
    shards: dict = field(default_factory=dict)  # node count -> shard list

    @property
    def shape(self) -> list[int]:
        return [int(self.X.n), int(self.X.d)]


def make_inputs(workload: str, seed: int, scale: Scale) -> Inputs:
    core = _mod("core")
    if workload == "lloyd":
        X0, truth = core.generate_blobs(seed, N_CLUSTERS, scale.lloyd_per_cluster,
                                        DIM, spread=LLOYD_SPREAD,
                                        separation=LLOYD_SEPARATION)
        X = core.DataSet.from_points(X0.points * LLOYD_STRETCH)
    elif workload == "merge":
        X, truth = core.generate_blobs(seed, N_CLUSTERS, scale.merge_per_cluster, DIM)
    elif workload == "windows":
        X, truth = core.generate_blobs(seed, N_CLUSTERS,
                                       scale.windows_per_cluster, DIM)
    else:
        raise ValueError("unknown workload %r" % workload)
    split = _mod("comm").split_blocks
    return Inputs(X, truth, {p: split(X, p) for p in NODE_COUNTS})


# -- calls ---------------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    algo: str
    run: Callable  # (world or None, Inputs) -> ClusterReport
    uses_world: bool = True


def _kmeans_central(_world, inp):
    km = _mod("kmeans")
    params = km.KMeansParams(k=N_CLUSTERS, max_iter=MAX_ITER, seed=0)
    centers, part, j, iters = km.kmeans_centralized(inp.X, params)
    return _mod("report").ClusterReport(
        algo="kmeans", p=1,
        params={"k": params.k, "max_iter": params.max_iter,
                "tol": params.tol, "seed": params.seed},
        n=inp.X.n, d=inp.X.d, labels=part.labels, centroids=centers.centers,
        j=j, iterations=iters)


def _pkm(world, inp):
    km = _mod("kmeans")
    return km.pkm(world, inp.X, km.KMeansParams(k=N_CLUSTERS,
                                                max_iter=MAX_ITER, seed=0))


def _pfcm(world, inp):
    fcm = _mod("fcm")
    return fcm.pfcm(world, inp.X, fcm.FcmParams(k=N_CLUSTERS,
                                                max_iter=MAX_ITER, seed=0))


def _pddp_km(world, inp):
    return _mod("pddp").pddp_km(world, inp.X, height=2, max_iter=MAX_ITER)


def _dbscan_central(_world, inp):
    db = _mod("dbscan")
    part = db.dbscan(inp.X, db.DbscanParams(eps=MERGE_EPS, min_pts=MERGE_MIN_PTS))
    return _mod("report").ClusterReport(
        algo="dbscan", p=1, params={"eps": MERGE_EPS, "min_pts": MERGE_MIN_PTS},
        n=inp.X.n, d=inp.X.d, labels=part.labels, model={"k": part.k})


def _ddbc(world, inp):
    db = _mod("dbscan")
    params = db.DdbcParams(local=db.DbscanParams(eps=MERGE_EPS,
                                                 min_pts=MERGE_MIN_PTS))
    return db.ddbc(world, inp.shards[world.size], params)


def _cpca(world, inp):
    pca = _mod("pca")
    local = pca.KMeansLocal(seed=0, max_iter=LOCAL_MAX_ITER)
    return pca.cpca_cluster(world, inp.shards[world.size], local, N_CLUSTERS)


def _kwindows(world, inp):
    kw = _mod("kwindows")
    return kw.k_windows(world, inp.X, kw.KWindowsParams(l=WINDOWS_L, a=WINDOWS_A))


PASSES = {
    "lloyd": {1: [Call("kmeans", _kmeans_central, uses_world=False),
                  Call("pkm", _pkm), Call("pfcm", _pfcm),
                  Call("pddp-km", _pddp_km)],
              2: [Call("pkm", _pkm), Call("pfcm", _pfcm),
                  Call("pddp-km", _pddp_km)]},
    "merge": {1: [Call("dbscan", _dbscan_central, uses_world=False),
                  Call("ddbc", _ddbc), Call("cpca-cluster", _cpca)],
              2: [Call("ddbc", _ddbc), Call("cpca-cluster", _cpca)]},
    "windows": {1: [Call("kwindows", _kwindows)],
                2: [Call("kwindows", _kwindows)]},
}


# -- running and checking ---------------------------------------------------------

@dataclass
class Outcome:
    """One call: its report as emitted, the time it took, and what went wrong."""

    algo: str
    p: int
    seconds: float
    doc: dict | None
    errors: list[str] = field(default_factory=list)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_call(call: Call, p: int, inp: Inputs, tracer=None) -> Outcome:
    """Time one call end to end, then validate its report against the schema."""
    world = None
    try:
        with _span(tracer, "bench.call"):
            t0 = time.perf_counter()
            if call.uses_world:
                with _span(tracer, "comm.world"):
                    world = _mod("comm").CommWorld(p)
            try:
                report = call.run(world, inp)
            finally:
                if world is not None:
                    with _span(tracer, "comm.world"):
                        world.shutdown()
            with _span(tracer, "report.serialize"):
                text = json.dumps(report.to_json_dict())
            seconds = time.perf_counter() - t0
    except Exception as exc:  # a failed call is counted, the run goes on
        return Outcome(call.algo, p, 0.0, None, ["%s raised %r" % (call.algo, exc)])
    doc = json.loads(text)
    out = Outcome(call.algo, p, seconds, doc)
    with _span(tracer, "report.validate"):
        try:
            jsonschema.validate(doc, _mod("report").REPORT_SCHEMA)
        except jsonschema.ValidationError as exc:
            out.errors.append("%s report fails the schema: %s"
                              % (call.algo, exc.message))
    return out


def run_pass(workload: str, p: int, inp: Inputs, tracer=None,
             run_prefix: str = "", after_call=None) -> list[Outcome]:
    """Run the workload's calls at node count `p`; `after_call(outcome)` runs
    right after each call, before the next one starts."""
    outs = []
    for call in PASSES[workload][p]:
        if tracer is not None:
            tracer.run = "%sp%d.%s" % (run_prefix, p, call.algo)
        outs.append(run_call(call, p, inp, tracer))
        if after_call is not None:
            after_call(outs[-1])
    return outs


def _result_fields(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timings_ms"}


def _ari(labels_a, labels_b) -> float:
    core = _mod("core")
    return core.adjusted_rand_index(core.Partition(np.asarray(labels_a)),
                                    core.Partition(np.asarray(labels_b)))


def check_pass(workload: str, outs: list[Outcome], ref: dict, inp: Inputs) -> None:
    """Append to each outcome's errors every check it fails.

    `ref` maps (algo, p) to the report of the first pass (the warm-up), or is
    empty while the warm-up itself is checked. Every later pass must repeat
    the first exactly, timings aside.
    """
    by_algo = {o.algo: o for o in outs if o.doc is not None}
    for o in outs:
        if o.doc is None:
            continue
        first = ref.get((o.algo, o.p))
        if first is not None and _result_fields(o.doc) != _result_fields(first):
            o.errors.append("%s at P=%d differs from the first pass" % (o.algo, o.p))
        p1 = ref.get((o.algo, 1))
        if workload == "lloyd":
            if o.algo == "pkm" and o.p == 1 and "kmeans" in by_algo:
                central = by_algo["kmeans"].doc
                for key in ("labels", "j", "centroids", "iterations"):
                    if o.doc[key] != central[key]:
                        o.errors.append("pkm at P=1 differs from kmeans_centralized "
                                        "in %s" % key)
            if o.p > 1 and p1 is not None:
                for key in ("labels", "j"):
                    if o.doc[key] != p1[key]:
                        o.errors.append("%s %s at P=%d is not bit-identical to P=1"
                                        % (o.algo, key, o.p))
        elif workload == "merge":
            if o.algo == "dbscan" and o.doc["model"]["k"] != N_CLUSTERS:
                o.errors.append("central dbscan found %d clusters, not %d"
                                % (o.doc["model"]["k"], N_CLUSTERS))
            if o.algo == "ddbc":
                central = ref.get(("dbscan", 1)) or (
                    by_algo["dbscan"].doc if "dbscan" in by_algo else None)
                if central is None:
                    o.errors.append("no central dbscan result to compare ddbc with")
                elif _ari(o.doc["labels"], central["labels"]) < DDBC_MIN_ARI:
                    o.errors.append("ddbc at P=%d is below ARI %.2f against dbscan"
                                    % (o.p, DDBC_MIN_ARI))
            if o.algo == "cpca-cluster" and \
                    _ari(o.doc["labels"], inp.truth.labels) < CPCA_MIN_ARI:
                o.errors.append("cpca-cluster at P=%d is below ARI %.2f against "
                                "the generated labels" % (o.p, CPCA_MIN_ARI))
        elif workload == "windows":
            if o.doc["model"]["k"] != N_CLUSTERS:
                o.errors.append("kwindows at P=%d found %d clusters, not %d"
                                % (o.p, o.doc["model"]["k"], N_CLUSTERS))
            if o.p > 1 and p1 is not None and o.doc["labels"] != p1["labels"]:
                o.errors.append("kwindows labels at P=%d differ from P=1" % o.p)
