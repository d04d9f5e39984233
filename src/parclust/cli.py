"""Command line front end: gen, run, bench.

Reports go to stdout as one LF-terminated, strict JSON document (no NaN
or Infinity); diagnostics go to stderr. Exit codes: 0 success, 1 usage
error, 2 runtime error, which includes a report holding a non-finite value.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple

from .comm import CommWorld
from .core import (DataSet, adjusted_rand_index, generate_blobs, load_csv,
                   write_csv)
from .dbscan import DbscanParams, DdbcParams, dbscan, ddbc
from .fcm import FcmParams, pfcm
from .kmeans import KMeansParams, pkm
from .kwindows import KWindowsParams, k_windows
from .pca import DbscanLocal, KMeansLocal, cpca_cluster
from .pddp import pddp_km, pddp_report
from .report import ClusterReport

ALGOS = ("kmeans", "pkm", "fcm", "pfcm", "kwindows", "cpca-cluster",
         "dbscan", "ddbc", "pddp", "pddp-km")
#: Single-node algorithms and the parallel algorithm to use instead.
_PARALLEL = {"kmeans": "pkm", "fcm": "pfcm", "dbscan": "ddbc"}
_KM = ("kmeans", "pkm")
_FCM = ("fcm", "pfcm")
#: cpca-cluster reads the flags of its local clusterer, so it is listed
#: once per --local-algo choice
_CPCA_KM = "cpca-cluster --local-algo kmeans"
_CPCA_DB = "cpca-cluster --local-algo dbscan"
_CPCA = (_CPCA_KM, _CPCA_DB)
_DENSITY = ("dbscan", "ddbc", _CPCA_DB)


class _Flag(NamedTuple):
    kind: type | tuple  # the argument's type, or the tuple of its choices
    default: object
    readers: tuple
    help: str | None = None


#: Each flag that only some algorithms read, with its default and those
#: algorithms. Any other algorithm refuses the flag rather than ignore it.
#: Its argument name is the flag's, as argparse derives it. --seed is read
#: where it matters and accepted everywhere.
_FLAGS = {
    "--k": _Flag(int, 3, _KM + _FCM + _CPCA),
    "--m": _Flag(float, 2.0, _FCM, "fuzzifier"),
    "--tol": _Flag(float, 1e-9, _KM + _FCM + ("pddp-km",)),
    "--max-iter": _Flag(int, 300, _KM + _FCM + (_CPCA_KM, "pddp-km")),
    "--eps": _Flag(float, 0.5, _DENSITY),
    "--min-pts": _Flag(int, 5, _DENSITY),
    "--eps-global": _Flag(float, None, ("ddbc",),
                          "representative eps (default: 2*eps)"),
    "--min-pts-global": _Flag(int, 1, ("ddbc",),
                              "representative min_pts (default: 1)"),
    "--local-model": _Flag(("rep-kmeans", "rep-scor"), "rep-kmeans",
                           ("ddbc",),
                           "density model: refine with k-means (default) "
                           "or keep core points"),
    "--windows": _Flag(int, 3, ("kwindows",), "window count l"),
    "--half-width": _Flag(float, 1.0, ("kwindows",),
                          "initial window half-width a"),
    "--theta-move": _Flag(float, 0.01, ("kwindows",)),
    "--theta-enlarge": _Flag(float, 0.1, ("kwindows",)),
    "--theta-merge": _Flag(float, 0.2, ("kwindows",)),
    "--height": _Flag(int, 2, ("pddp", "pddp-km"), "split tree height"),
    "--variance-fraction": _Flag(float, 0.9, _CPCA),
    "--reps-per-cluster": _Flag(int, 3, _CPCA),
    "--local-algo": _Flag(("kmeans", "dbscan"), "kmeans", _CPCA,
                          "local clusterer for cpca-cluster"),
}


def _dest(flag: str) -> str:
    """The argument name argparse gives `flag`."""
    return flag[2:].replace("-", "_")


def _reader(args) -> str:
    """The name `_FLAGS` lists for the run `args` configures."""
    if args.algo != "cpca-cluster":
        return args.algo
    return "cpca-cluster --local-algo %s" % (args.local_algo
                                             or _FLAGS["--local-algo"].default)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="parclust",
                     description="Desk-scale parallel clustering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled blob dataset")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--clusters", type=int, default=3)
    gen.add_argument("--per-cluster", type=int, default=100)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--spread", type=float, default=1.0)
    gen.add_argument("--separation", type=float, default=10.0)
    gen.add_argument("--out", required=True, help="data CSV path")
    gen.add_argument("--labels-out", default=None,
                     help="ground-truth labels CSV (default: <out>.labels.csv)")

    run = sub.add_parser("run", help="run one clustering algorithm")
    run.add_argument("--nodes", type=int, default=1,
                     help="simulated node count")
    _add_run_flags(run)

    bench = sub.add_parser("bench", help="run over several node counts")
    bench.add_argument("--nodes", default="1,2,4",
                       help="comma-separated node counts, e.g. 1,2,4,8")
    bench.add_argument("--baseline", default=None, choices=ALGOS,
                       help="centralized counterpart to compare against")
    _add_run_flags(bench)
    return parser


def _add_run_flags(p) -> None:
    p.add_argument("--algo", required=True, choices=ALGOS)
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--seed", type=int, default=0)
    # the rest default to None, "not given", so that an algorithm that does
    # not read one can refuse it; _FLAGS holds the defaults
    for flag, f in _FLAGS.items():
        if isinstance(f.kind, tuple):
            p.add_argument(flag, choices=f.kind, help=f.help)
        else:
            p.add_argument(flag, type=f.kind, help=f.help)


def _with_defaults(args):
    """args with every flag its algorithm reads set; refuses any other flag."""
    filled = argparse.Namespace(**vars(args))
    reader = _reader(args)
    for flag, f in _FLAGS.items():
        name = _dest(flag)
        if reader not in f.readers:
            if getattr(args, name) is not None:
                raise _UsageError("%s does not read %s (read by: %s)"
                                  % (reader, flag, ", ".join(f.readers)))
        elif getattr(args, name) is None:
            setattr(filled, name, f.default)
    return filled


async def _dbscan_node(ctx, shard, params):
    """The central scan as the body of a one-node run."""
    return dbscan(DataSet(shard.points), params)


def _run_algo(args, X: DataSet, nodes: int) -> ClusterReport:
    if nodes < 1:
        raise _UsageError("--nodes must be >= 1")
    algo = args.algo
    if algo in _PARALLEL and nodes != 1:
        raise _UsageError("%s is the single-node variant; use %s"
                          % (algo, _PARALLEL[algo]))
    args = _with_defaults(args)
    world = CommWorld(nodes)
    try:
        if algo == "dbscan":
            params = DbscanParams(eps=args.eps, min_pts=args.min_pts)
            part, timings = world.run(_dbscan_node, X, params)
            return ClusterReport(
                algo="dbscan", p=1,
                params={"eps": args.eps, "min_pts": args.min_pts},
                n=X.n, d=X.d, labels=part.labels,
                model={"k": part.k}, timings_ms=timings)
        if algo in ("kmeans", "pkm"):
            rep = pkm(world, X, KMeansParams(k=args.k, max_iter=args.max_iter,
                                             tol=args.tol,
                                             seed=args.seed))
            rep.algo = algo
            return rep
        if algo in ("fcm", "pfcm"):
            rep = pfcm(world, X, FcmParams(k=args.k, m=args.m,
                                           max_iter=args.max_iter,
                                           tol=args.tol,
                                           seed=args.seed))
            rep.algo = algo
            return rep
        if algo == "kwindows":
            return k_windows(world, X, KWindowsParams(
                l=args.windows, a=args.half_width,
                theta_move=args.theta_move, theta_enlarge=args.theta_enlarge,
                theta_merge=args.theta_merge, seed=args.seed))
        if algo == "ddbc":
            return ddbc(world, X, DdbcParams(
                local=DbscanParams(eps=args.eps, min_pts=args.min_pts),
                eps_global=args.eps_global,
                min_pts_global=args.min_pts_global,
                refine_model=args.local_model != "rep-scor"))
        if algo == "cpca-cluster":
            if args.local_algo == "kmeans":
                local = KMeansLocal(seed=args.seed, max_iter=args.max_iter)
            else:
                local = DbscanLocal(eps=args.eps, min_pts=args.min_pts)
            return cpca_cluster(world, X, local, args.k,
                                reps_per_cluster=args.reps_per_cluster,
                                variance_fraction=args.variance_fraction,
                                seed=args.seed)
        if algo == "pddp":
            return pddp_report(world, X, args.height)
        if algo == "pddp-km":
            return pddp_km(world, X, args.height, max_iter=args.max_iter,
                           tol=args.tol)
        raise _UsageError("unknown algorithm %r" % algo)
    finally:
        world.shutdown()


def _emit(doc: dict) -> None:
    """Write `doc` to stdout as strict JSON; a NaN or infinity refuses it."""
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError:
        raise ValueError("the report holds a non-finite number, which "
                         "JSON cannot represent") from None
    sys.stdout.write(text + "\n")


def _cmd_gen(args) -> int:
    X, truth = generate_blobs(args.seed, args.clusters, args.per_cluster,
                              args.dim, spread=args.spread,
                              separation=args.separation)
    write_csv(X, args.out)
    labels_path = args.labels_out or args.out + ".labels.csv"
    with open(labels_path, "w", encoding="utf-8") as fh:
        for v in truth.labels:
            fh.write("%d\n" % v)
    print("wrote %d x %d points to %s and labels to %s"
          % (X.n, X.d, args.out, labels_path), file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    X = load_csv(args.data)
    report = _run_algo(args, X, args.nodes)
    _emit(report.to_json_dict())
    return 0


def _cmd_bench(args) -> int:
    X = load_csv(args.data)
    try:
        node_counts = [int(v) for v in args.nodes.split(",") if v.strip()]
    except ValueError:
        raise _UsageError("--nodes must be comma-separated integers")
    if not node_counts or any(p < 1 for p in node_counts):
        raise _UsageError("--nodes entries must be >= 1")
    baseline_part = None
    out = {"algo": args.algo, "data": args.data, "n": X.n, "d": X.d,
           "baseline": args.baseline, "runs": []}
    if args.baseline is not None:
        base_args = argparse.Namespace(**vars(args))
        base_args.algo = args.baseline
        reader = _reader(base_args)
        for flag, f in _FLAGS.items():
            if reader not in f.readers:  # they configure the compared run
                setattr(base_args, _dest(flag), None)
        base = _run_algo(base_args, X, 1)
        baseline_part = base.partition
        out["baseline_j"] = base.j
    for p in node_counts:
        t0 = time.perf_counter()
        rep = _run_algo(args, X, p)
        wall_ms = (time.perf_counter() - t0) * 1e3
        entry = {"p": p, "wall_ms": wall_ms, "j": rep.j,
                 "iterations": rep.iterations, "timings_ms": rep.timings_ms}
        if baseline_part is not None:
            entry["ari_vs_baseline"] = adjusted_rand_index(
                rep.partition, baseline_part)
        out["runs"].append(entry)
    _emit(out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
