"""Time the benchmark calls of two checkouts in one process, alternately.

    python tools/ab_calls.py TREE_A TREE_B --workload merge --rounds 21
    python tools/ab_calls.py TREE_A TREE_B --workload merge --calls dbscan,ddbc

TREE_A and TREE_B are roots of parclust checkouts. Each tree's
`src/parclust` and `perfbench/workloads.py` are loaded as module objects
of their own. `workloads` looks the library up in `sys.modules` when it
calls it, so the `parclust` entries there are swapped to a tree's modules
before each of its passes. Both trees build their inputs from the same
seed, and every pass of B must give the reports of A, timings aside.

A round runs one pass at each node count for both trees; the tree that
goes first alternates from round to round. `--calls` names the calls of
the workload that a pass runs, so a change to one kernel gets more rounds
in the same time; a node count with none of them is left out, and "pass"
is the named calls' sum. After one warm-up round, the
tool prints, for each node count and each call, the medians of A and B,
their ratio B/A and the number of rounds in which B was faster, then one
JSON line with the same figures. The process pins itself to one CPU and
sets OPENBLAS_NUM_THREADS=1 before numpy is imported, as the benchmark
does; nothing in either tree is edited.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _library_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "parclust" or name.startswith("parclust.")}


def _activate(modules: dict) -> None:
    """Make `modules` the `parclust` entries of `sys.modules`."""
    for name in _library_modules():
        del sys.modules[name]
    sys.modules.update(modules)


class Tree:
    """One checkout's library and workloads, loaded beside the other's."""

    def __init__(self, root: str, tag: str):
        self.root = Path(root).resolve()
        _activate({})
        src = str(self.root / "src")
        sys.path.insert(0, src)
        try:
            lib = importlib.import_module("parclust")
        finally:
            sys.path.remove(src)
        if Path(lib.__file__).resolve().parent != self.root / "src" / "parclust":
            raise SystemExit("ab_calls: %s has no src/parclust" % self.root)
        spec = importlib.util.spec_from_file_location(
            "ab_workloads_" + tag, self.root / "perfbench" / "workloads.py")
        self.wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.wl)
        self.modules = _library_modules()

    def passes(self, workload, p, inp, calls):
        """One pass of the calls named `calls` at node count p: their
        outcomes, with this tree's library active throughout."""
        _activate(self.modules)
        outs = [self.wl.run_call(call, p, inp)
                for call in self.wl.PASSES[workload][p] if call.algo in calls]
        self.modules = _library_modules()  # and any module it imported
        return outs


def _fields(outcome) -> dict:
    if outcome.errors or outcome.doc is None:
        raise SystemExit("ab_calls: %s at P=%d failed: %s"
                         % (outcome.algo, outcome.p, outcome.errors))
    return {k: v for k, v in outcome.doc.items() if k != "timings_ms"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True,
                    choices=("lloyd", "merge", "windows"))
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--calls", metavar="NAME[,NAME]",
                    help="run only these calls of each pass (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    trees = [Tree(args.tree_a, "a"), Tree(args.tree_b, "b")]
    inputs = []
    for tree in trees:
        _activate(tree.modules)
        inputs.append(tree.wl.make_inputs(args.workload, args.seed,
                                          tree.wl.SCALES["full"]))
    passes = trees[0].wl.PASSES[args.workload]
    algos = {call.algo for calls in passes.values() for call in calls}
    calls = algos if args.calls is None else set(args.calls.split(","))
    if not calls <= algos:
        ap.error("--calls: %s is not a call of %s, whose calls are %s"
                 % (",".join(sorted(calls - algos)), args.workload,
                    ",".join(sorted(algos))))
    counts = [p for p in trees[0].wl.NODE_COUNTS
              if any(call.algo in calls for call in passes[p])]
    # (p, call) -> (seconds of A per round, seconds of B per round)
    times: dict[tuple[int, str], tuple[list[float], list[float]]] = {}

    def record(key, a, b):
        pair = times.setdefault(key, ([], []))
        pair[0].append(a)
        pair[1].append(b)

    for rnd in range(args.rounds + 1):  # round 0 warms up
        order = (0, 1) if rnd % 2 else (1, 0)
        for p in counts:
            outs = [None, None]
            for i in order:
                outs[i] = trees[i].passes(args.workload, p, inputs[i], calls)
            for a, b in zip(*outs):
                if _fields(a) != _fields(b):
                    raise SystemExit("ab_calls: %s at P=%d reports differently "
                                     "in the two trees" % (a.algo, p))
            if rnd:
                record((p, "pass"), *(sum(o.seconds for o in side)
                                      for side in outs))
                for a, b in zip(*outs):
                    record((p, a.algo), a.seconds, b.seconds)

    summary = {"workload": args.workload, "seed": args.seed,
               "rounds": args.rounds, "calls_run": sorted(calls),
               "a": str(trees[0].root),
               "b": str(trees[1].root), "calls": {}}
    print("%s seed %d, %d rounds after one warm-up; medians in ms, ratio B/A"
          % (args.workload, args.seed, args.rounds))
    for (p, call), (a, b) in times.items():
        ma, mb = statistics.median(a), statistics.median(b)
        faster = sum(y < x for x, y in zip(a, b))
        name = "P=%d %s" % (p, call)
        print("%-22s A %9.3f  B %9.3f  ratio %.3f  B faster in %d of %d"
              % (name, 1e3 * ma, 1e3 * mb, mb / ma, faster, len(a)))
        summary["calls"][name] = {"a_median_s": ma, "b_median_s": mb,
                                  "ratio": mb / ma, "b_faster": faster,
                                  "a_s": a, "b_s": b}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
