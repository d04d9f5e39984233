"""Print a digest of every CLI algorithm's report, one line per run.

Each algorithm runs in-process through `parclust.cli.main` on generated
blobs (3 clusters of 100 rows, seed 1) at d = 2 and d = 9, at P = 1, 2
and 3 where the algorithm allows more than one node; cpca-cluster runs
again with its local k-means capped at 1 and 4 Lloyd trips, so that its
restarts stop at the cap as well as at convergence; k-windows runs
again with 16 windows at half-widths 0.5, 2 and 3, and pddp and pddp-km
again at heights 1, 3 and 5, deep enough for singletons, leaves that
cannot split and levels that stop early. A line holds the
algorithm, P, d, the exit code and a hash of the report with
`timings_ms` dropped (of the error message, for a run that fails).
Then every driver (`pkm`, `pfcm`, `pddp_report`, `pddp_km`, `k_windows`,
`ddbc` with either local model, `cpca_cluster` with either local
clusterer, and the `cpca` basis) runs with the CLI's defaults on the same
blobs, passed as a list of blocks: cut by `split_blocks` at P = 1, 2 and
3, and cut unevenly into blocks of 1, 0 and n - 1 rows, a path the CLI
never takes; a line holds the driver, P (the block sizes for the uneven
cut), d, "ok" or "error" and a hash of the report without `timings_ms`,
of the basis's arrays, or of the error. Two source trees give equal
results exactly where their digests match:

    python tools/report_digest.py > before.txt   # in one checkout
    python tools/report_digest.py > after.txt    # in the other
    diff before.txt after.txt

`tests/report_digest.txt` holds this tree's output, and
`tests/test_report_digest.py` checks that it still holds; a change that
alters a report's bits regenerates it:

    python tools/report_digest.py > tests/report_digest.txt

The blob CSVs go to a temporary directory, removed on exit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parclust import cli  # noqa: E402
from parclust.comm import CommWorld, split_blocks  # noqa: E402
from parclust.core import generate_blobs, write_csv  # noqa: E402
from parclust.dbscan import DbscanParams, DdbcParams, ddbc  # noqa: E402
from parclust.fcm import FcmParams, pfcm  # noqa: E402
from parclust.kmeans import KMeansParams, pkm  # noqa: E402
from parclust.kwindows import KWindowsParams, k_windows  # noqa: E402
from parclust.pca import (DbscanLocal, KMeansLocal, cpca,  # noqa: E402
                          cpca_cluster)
from parclust.pddp import pddp_km, pddp_report  # noqa: E402

# every algorithm, once per value of a flag that picks its local body;
# cpca-cluster's local k-means capped at 1 and 4 trips, where restarts stop
# at the cap and not at convergence;
# k-windows with enough windows and half-widths for paths of many
# enlargements; the divisive trees at heights other than the default 2
_RUNS = ("kmeans", "pkm", "fcm", "pfcm", "kwindows", "cpca-cluster",
         "cpca-cluster --max-iter 1", "cpca-cluster --max-iter 4",
         "cpca-cluster --local-algo dbscan", "dbscan", "ddbc",
         "ddbc --local-model rep-scor", "pddp", "pddp-km",
         "kwindows --windows 16 --half-width 0.5",
         "kwindows --windows 16 --half-width 2",
         "kwindows --windows 16 --half-width 3",
         *("%s --height %d" % (algo, h) for algo in ("pddp", "pddp-km")
           for h in (1, 3, 5)))
# the density algorithms' eps: a few neighbours in unit-spread blobs
_EPS = {2: 0.5, 9: 2.0}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv: list[str]) -> tuple[int, str]:
    """main's exit code and the digest of its report or error message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        doc = json.loads(out.getvalue())
        doc.pop("timings_ms", None)
        text = json.dumps(doc, sort_keys=True)
    else:
        text = err.getvalue()
    return code, _digest(text.encode())


def _block_drivers(eps: float) -> dict:
    """Every driver, with the CLI's defaults."""
    local = DbscanParams(eps=eps, min_pts=5)
    return {
        "ddbc": lambda w, b: ddbc(w, b, DdbcParams(local=local)),
        "ddbc --local-model rep-scor": lambda w, b: ddbc(
            w, b, DdbcParams(local=local, refine_model=False)),
        "cpca-cluster": lambda w, b: cpca_cluster(w, b, KMeansLocal(), 3),
        "cpca-cluster --local-algo dbscan": lambda w, b: cpca_cluster(
            w, b, DbscanLocal(eps, 5), 3),
        "cpca": lambda w, b: cpca(w, b, 0.9),
        "pkm": lambda w, b: pkm(w, b, KMeansParams(k=3)),
        "pfcm": lambda w, b: pfcm(w, b, FcmParams(k=3)),
        "pddp": lambda w, b: pddp_report(w, b, 2),
        "pddp-km": lambda w, b: pddp_km(w, b, 2),
        "kwindows": lambda w, b: k_windows(w, b, KWindowsParams(l=3, a=1.0)),
    }


def _run_blocks(driver, blocks: list) -> tuple[str, str]:
    """"ok" and the digest of the driver's result on the list `blocks`,
    or "error" and the digest of its error."""
    world = CommWorld(len(blocks))
    try:
        out = driver(world, blocks)
    except (ValueError, RuntimeError) as exc:
        return "error", _digest(("%s: %s" % (type(exc).__name__, exc)).encode())
    finally:
        world.shutdown()
    if hasattr(out, "to_json_dict"):
        doc = out.to_json_dict()
        doc.pop("timings_ms", None)
        return "ok", _digest(json.dumps(doc, sort_keys=True).encode())
    return "ok", _digest(b"".join(a.tobytes() for a in (
        out.mean, out.components, out.eigenvalues)))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for d in sorted(_EPS):
            X = generate_blobs(1, 3, 100, d)[0]
            data = str(Path(tmp) / ("blobs_d%d.csv" % d))
            write_csv(X, data)
            for name in _RUNS:
                algo, *extra = name.split()
                if name in cli._DENSITY or algo in cli._DENSITY:
                    extra += ["--eps", str(_EPS[d])]
                nodes = (1,) if algo in cli._PARALLEL else (1, 2, 3)
                for p in nodes:
                    argv = ["run", "--algo", algo, "--data", data,
                            "--nodes", str(p), *extra]
                    code, digest = _run(argv)
                    print("%-32s P=%d d=%d exit=%d %s"
                          % (name, p, d, code, digest))
            uneven = [X.points[:1], X.points[1:1], X.points[1:]]
            cuts = [(str(p), split_blocks(X, p)) for p in (1, 2, 3)]
            cuts.append(("+".join(str(len(b)) for b in uneven), uneven))
            for name, driver in _block_drivers(_EPS[d]).items():
                for p, blocks in cuts:
                    print("%-39s P=%s d=%d %-5s %s"
                          % (("blocks " + name, p, d)
                             + _run_blocks(driver, blocks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
