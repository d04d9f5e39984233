#!/usr/bin/env python3
"""parclust benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload lloyd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from `src/` there
and nowhere else. `--trace 0` sets up (inputs, one warm-up pass at each node
count, the reference results), then alternates P=1 and P=2 passes for
`--seconds` and reports the end-to-end metrics. Set-up and pass times are
wall seconds rescaled to a reference host speed by a calibration kernel timed
between calls (see hostspeed.py); the raw wall times are printed beside them
and kept in the result file. `--trace 1` alternates an
untraced P=1 pass with traced P=1 and P=2 passes and reports the per-layer
metrics. Every call is checked (see workloads.check_pass). Human-readable
lines come first; the last line of stdout is one JSON object. The full
result, with provenance, goes to `.bench_out/` in the checkout, and a traced
run also writes the spans of its first traced passes there as JSONL.

The process pins itself to one CPU before it measures. The rank threads
share one interpreter lock, so a second CPU buys them no parallelism: on a
2-vCPU VM, pinned passes were as fast as unpinned ones (windows P=2: 0.84 s
both) or faster. But when the host steals time from one vCPU, a lock holder
descheduled there stalls the rank waiting on the other, and unpinned P=2
passes slowed up to 3.4x (windows P=2: median 2.48 s unpinned against 0.91 s
pinned, measured alternately in the same minute).

Exit codes: 0 when every call passed its checks, 1 when any failed (the
result is still printed), 2 on a usage error. Without `src/parclust` the
command exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("lloyd", "merge", "windows")


def _import_library():
    init = SRC / "parclust" / "__init__.py"
    if not init.is_file():
        raise SystemExit("perfbench: %s is missing; run this from the root of a "
                         "parclust checkout" % init.relative_to(ROOT))
    sys.path.insert(0, str(SRC))
    import parclust
    if Path(parclust.__file__).resolve() != init.resolve():
        raise SystemExit("perfbench: imported parclust from %s, not from %s"
                         % (parclust.__file__, init))


def _pin_to_one_cpu() -> None:
    """Restrict this process, and so every rank thread, to its lowest allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _provenance(args, inp) -> dict:
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": _commit(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "input_shape": inp.shape,
        "shard_rows": {str(p): [len(s) for s in shards]
                       for p, shards in inp.shards.items()},
    }


def _tail(samples: list[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100)[q - 1]
    return None


class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outs) -> None:
        for o in outs:
            self.attempted += 1
            if o.errors:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.extend(o.errors)


class Stopwatch:
    """Sums timed segments, as wall seconds and rescaled to the reference speed.

    Without a rescaler the rescaled sum is the wall sum.
    """

    def __init__(self, rescaler=None):
        self.rescaler = rescaler
        self.wall = 0.0
        self.scaled = 0.0

    def add(self, seconds: float) -> None:
        self.wall += seconds
        self.scaled += (self.rescaler.rescale(seconds) if self.rescaler is not None
                        else seconds)


def _setup(wl, args, scale, tally, watch=None):
    """Inputs, one checked warm-up pass per node count, and the references.

    `watch` gets the set-up time: making the inputs, then each warm-up call.
    """
    watch = watch or Stopwatch()
    t0 = time.perf_counter()
    inp = wl.make_inputs(args.workload, args.seed, scale)
    watch.add(time.perf_counter() - t0)
    ref: dict = {}
    for p in wl.NODE_COUNTS:
        outs = wl.run_pass(args.workload, p, inp,
                           after_call=lambda o: watch.add(o.seconds))
        wl.check_pass(args.workload, outs, ref, inp)
        tally.add(outs)
        ref.update({(o.algo, o.p): o.doc for o in outs if o.doc is not None})
    return inp, ref


def _timed_pass(wl, args, p, inp, ref, tally, tracer=None, prefix="", calls=None,
                watch=None):
    """Run and check one pass; its time is the sum of its calls' timed regions.

    Returns the wall time; `watch`, when given, also gets every call's time.
    """
    outs = wl.run_pass(args.workload, p, inp, tracer, prefix,
                       after_call=None if watch is None
                       else lambda o: watch.add(o.seconds))
    wl.check_pass(args.workload, outs, ref, inp)
    tally.add(outs)
    if calls is not None:
        for o in outs:
            calls.setdefault("p%d.%s" % (o.p, o.algo), []).append(o.seconds)
    return sum(o.seconds for o in outs)


def run_end_to_end(wl, args, scale, tally):
    rescaler = hostspeed.Rescaler()
    setups, setups_wall = [], []
    for _ in range(scale.setups):
        watch = Stopwatch(rescaler)
        inp, ref = _setup(wl, args, scale, tally, watch)
        setups.append(watch.scaled)
        setups_wall.append(watch.wall)
    samples: dict[int, list[float]] = {p: [] for p in wl.NODE_COUNTS}
    wall: dict[int, list[float]] = {p: [] for p in wl.NODE_COUNTS}
    calls: dict[str, list[float]] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        for p in wl.NODE_COUNTS:
            watch = Stopwatch(rescaler)
            wall[p].append(_timed_pass(wl, args, p, inp, ref, tally, calls=calls,
                                       watch=watch))
            samples[p].append(watch.scaled)
        if time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p1_s": (statistics.median(samples[1]), "s"),
        "p2_s": (statistics.median(samples[2]), "s"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = ["times are wall seconds rescaled to a host where the calibration "
             "kernel takes %.1f ms; it took %.1f ms here (median of %d)"
             % (1e3 * hostspeed.REF_SECONDS, 1e3 * statistics.median(rescaler.kernel),
                len(rescaler.kernel)),
             "setup_s       %.4f s  median of %d set-ups (inputs, a warm-up pass "
             "at each P); wall %.4f s" % (metrics["setup_s"][0], len(setups),
                                          statistics.median(setups_wall))]
    for p in wl.NODE_COUNTS:
        line = "p%d_s          %.4f s  median of %d P=%d passes" % (
            p, metrics["p%d_s" % p][0], len(samples[p]), p)
        tail = _tail(samples[p])
        if tail is not None:
            line += ", p%d %.4f s" % tail
        line += "; wall %.4f s" % statistics.median(wall[p])
        lines.append(line)
    lines.append("p1/p2         %.3f  (printed, not gated)"
                 % (metrics["p1_s"][0] / metrics["p2_s"][0]))
    lines.append("fail_rate     %.4f  (%d of %d calls failed)"
                 % (tally.failed / tally.attempted, tally.failed, tally.attempted))
    lines.append("success_rate  %.4f  (the gated form of fail_rate)"
                 % metrics["success_rate"][0])
    lines.append("peak_rss_mb   %.1f MB" % rss_mb)
    detail = {"reference_kernel_s": hostspeed.REF_SECONDS,
              "kernel_s": rescaler.kernel,
              "setup_s": setups, "setup_wall_s": setups_wall,
              "pass_s": {str(p): s for p, s in samples.items()},
              "pass_wall_s": {str(p): s for p, s in wall.items()},
              "call_wall_s": calls}
    return inp, metrics, lines, detail


def run_traced(wl, args, scale, tally):
    from tracing import (Tracer, layer_metric_names, layer_metrics, metric_unit,
                         missing_metrics, top_self_times)
    inp, ref = _setup(wl, args, scale, tally)
    tracer = Tracer()
    untraced: list[float] = []
    traced: dict[int, list[float]] = {p: [] for p in wl.NODE_COUNTS}
    per_pass: dict[int, list[tuple[dict, dict]]] = {p: [] for p in wl.NODE_COUNTS}
    kept_spans: list = []
    shares: dict[int, list] = {}
    call_shares: list = []
    mismatches = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        untraced.append(_timed_pass(wl, args, 1, inp, ref, tally))
        tracer.install()
        try:
            for p in wl.NODE_COUNTS:
                tracer.spans = []
                tracer.mismatches = 0
                traced[p].append(_timed_pass(wl, args, p, inp, ref, tally, tracer,
                                             "pass%d." % i))
                per_pass[p].append(layer_metrics(tracer.spans))
                mismatches += tracer.mismatches
                if i == 0:
                    kept_spans.extend(tracer.spans)
                    shares[p] = top_self_times(tracer.spans)
                    if p == 1:
                        for run in dict.fromkeys(s.run for s in tracer.spans):
                            call_shares.append((run, top_self_times(
                                [s for s in tracer.spans if s.run == run], 3)))
        finally:
            tracer.uninstall()
        i += 1
        if time.perf_counter() >= deadline:
            break

    def med(p, name, which=0):
        return statistics.median(m[which][name] for m in per_pass[p])

    values: dict[str, float] = {}
    for name in layer_metric_names():
        if name.startswith("trace."):
            continue
        if name.endswith(".rank_sum"):
            values[name] = med(2, name[3:-len(".rank_sum")], which=1)
        elif name.startswith("p2."):
            values[name] = med(2, name[3:])
        else:
            values[name] = med(1, name)
    values["trace.overhead"] = (statistics.median(traced[1])
                                / statistics.median(untraced))
    values["trace.query_mismatches"] = mismatches
    if mismatches:
        tally.failed += 1
        tally.errors.append("%d box or eps queries differ from a brute-force mask"
                            % mismatches)
    metrics = {name: (v, metric_unit(name)) for name, v in values.items()}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("%s-seed%d-spans.jsonl" % (args.workload, args.seed))
    tracer.write_jsonl(spans_path, kept_spans)
    missing = missing_metrics(tracer.missing)
    lines = ["traced passes: %d at P=1, %d at P=2; untraced P=1 passes: %d"
             % (len(traced[1]), len(traced[2]), len(untraced))]
    for p in wl.NODE_COUNTS:
        lines.append("largest self times at P=%d (first traced pass): %s" % (
            p, ", ".join("%s %.1f ms" % kv for kv in shares[p])))
    for run, top in call_shares:
        lines.append("  %s: %s" % (run, ", ".join("%s %.1f ms" % kv for kv in top)))
    lines.append("trace.overhead %.3f, trace.query_mismatches %d"
                 % (values["trace.overhead"], mismatches))
    if missing:
        lines.append("missing (target no longer exists, reported as 0): %s"
                     % ", ".join(missing))
    lines.append("spans of the first traced passes: %s" % spans_path.relative_to(ROOT))
    detail = {"missing_targets": tracer.missing, "missing_metrics": missing,
              "untraced_p1_s": untraced,
              "traced_pass_s": {str(p): s for p, s in traced.items()},
              "comm_bytes_note": "computed payload sizes, not measured traffic; "
                                 "objects other than arrays, ints, floats and "
                                 "strings are sized by their pickle",
              "estimated_bytes_p2": {
                  kind: sum(s.attrs.get("est_bytes", 0) for s in kept_spans
                            if s.name == "comm." + kind and s.attrs
                            and s.run.startswith("pass0.p2"))
                  for kind in ("allreduce", "gather", "broadcast", "send")}}
    return inp, metrics, lines, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    _import_library()
    _pin_to_one_cpu()
    import workloads as wl

    scale = wl.SCALES[args.scale]
    tally = Tally()
    t0 = time.perf_counter()
    runner = run_traced if args.trace else run_end_to_end
    inp, metrics, lines, detail = runner(wl, args, scale, tally)

    print("workload %s  seed %d  input %dx%d  P in %s  (%.1f s)"
          % (args.workload, args.seed, inp.shape[0], inp.shape[1],
             list(wl.NODE_COUNTS), time.perf_counter() - t0))
    for line in lines:
        print(line)
    for err in tally.errors:
        print("FAILED: " + err)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                      args.trace))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": _provenance(args, inp), "errors": tally.errors,
                   "detail": detail, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
