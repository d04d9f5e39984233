"""Print a digest of every CLI algorithm's report, one line per run.

Each algorithm runs in-process through `parclust.cli.main` on generated
blobs (3 clusters of 100 rows, seed 1) at d = 2 and d = 9, at P = 1, 2
and 3 where the algorithm allows more than one node. A line holds the
algorithm, P, d, the exit code and a hash of the report with
`timings_ms` dropped (of the error message, for a run that fails).
Two source trees give equal reports exactly where their digests match:

    python tools/report_digest.py > before.txt   # in one checkout
    python tools/report_digest.py > after.txt    # in the other
    diff before.txt after.txt

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
from parclust.core import generate_blobs, write_csv  # noqa: E402

# every algorithm, once per value of a flag that picks its local body
_RUNS = ("kmeans", "pkm", "fcm", "pfcm", "kwindows", "cpca-cluster",
         "cpca-cluster --local-algo dbscan", "dbscan", "ddbc",
         "ddbc --local-model rep-scor", "pddp", "pddp-km")
# the density algorithms' eps: a few neighbours in unit-spread blobs
_EPS = {2: 0.5, 9: 2.0}


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
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for d in sorted(_EPS):
            data = str(Path(tmp) / ("blobs_d%d.csv" % d))
            write_csv(generate_blobs(1, 3, 100, d)[0], data)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
