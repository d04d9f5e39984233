"""Command line behavior: gen/run/bench, exit codes, JSON contract."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from parclust.cli import main
from parclust.core import Partition, adjusted_rand_index, load_csv
from parclust.report import REPORT_SCHEMA


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    rc = main(["gen", "--seed", "5", "--clusters", "3", "--per-cluster", "40",
               "--dim", "2", "--out", str(path)])
    assert rc == 0
    return path


def _run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.endswith("\n")
    return json.loads(captured.out)


# -- gen ----------------------------------------------------------------------


def test_gen_writes_data_and_labels(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["gen", "--seed", "1", "--clusters", "2", "--per-cluster",
                 "50", "--dim", "3", "--out", str(out)]) == 0
    X = load_csv(str(out))
    assert (X.n, X.d) == (100, 3)
    labels = [int(line) for line in
              (tmp_path / "d.csv.labels.csv").read_text().splitlines()]
    assert len(labels) == 100 and set(labels) == {0, 1}


def test_gen_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["gen", "--seed", "9", "--clusters", "2", "--per-cluster", "20",
            "--dim", "2", "--spread", "0.5", "--separation", "8.0"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_into_missing_directory_is_a_runtime_error(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "nope" / "d.csv")]) == 2


# -- run ----------------------------------------------------------------------


def test_run_emits_schema_valid_report(blob_csv, capsys):
    doc = _run_json(capsys, ["run", "--algo", "pkm", "--data", str(blob_csv),
                             "--nodes", "2", "--k", "3", "--seed", "7"])
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["algo"] == "pkm" and doc["p"] == 2
    assert doc["n"] == 120 and len(doc["labels"]) == 120
    assert set(doc["timings_ms"]) >= {"split", "compute", "comm"}


@pytest.mark.parametrize("algo,extra", [
    ("kmeans", ["--k", "3"]),
    ("fcm", ["--k", "3"]),
    ("dbscan", ["--eps", "0.8", "--min-pts", "4"]),
    ("kwindows", ["--windows", "4", "--half-width", "1.5"]),
    ("cpca-cluster", ["--k", "3", "--variance-fraction", "0.999"]),
    ("ddbc", ["--eps", "0.8", "--min-pts", "4"]),
    ("pddp", ["--height", "2"]),
    ("pddp-km", ["--height", "2"]),
])
def test_every_algorithm_yields_a_valid_report(algo, extra, blob_csv, capsys):
    doc = _run_json(capsys, ["run", "--algo", algo, "--data", str(blob_csv),
                             "--seed", "3"] + extra)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["algo"] == algo
    assert len(doc["labels"]) == 120


def test_parallel_kmeans_matches_centralized_via_cli(blob_csv, capsys):
    base = ["--data", str(blob_csv), "--k", "3", "--seed", "11"]
    central = _run_json(capsys, ["run", "--algo", "kmeans"] + base)
    parallel = _run_json(capsys, ["run", "--algo", "pkm", "--nodes", "1"] + base)
    assert central["labels"] == parallel["labels"]
    assert central["j"] == parallel["j"]


def test_split_tree_finds_four_blobs(tmp_path, capsys):
    out = tmp_path / "four.csv"
    assert main(["gen", "--seed", "41", "--clusters", "4", "--per-cluster",
                 "30", "--dim", "2", "--spread", "0.5", "--separation",
                 "15.0", "--out", str(out)]) == 0
    doc = _run_json(capsys, ["run", "--algo", "pddp", "--data", str(out),
                             "--height", "2", "--nodes", "2"])
    assert sorted(set(doc["labels"])) == [0, 1, 2, 3]


def test_run_is_deterministic(blob_csv, capsys):
    argv = ["run", "--algo", "pfcm", "--data", str(blob_csv), "--nodes", "3",
            "--k", "3", "--seed", "2"]
    first = _run_json(capsys, argv)
    second = _run_json(capsys, argv)
    first.pop("timings_ms")  # wall clock is the one legitimate variation
    second.pop("timings_ms")
    assert first == second


def test_usage_errors_exit_one(blob_csv, capsys):
    assert main(["run", "--algo", "pkm", "--data", str(blob_csv),
                 "--nodes", "0"]) == 1
    assert main(["run", "--algo", "made-up", "--data", str(blob_csv)]) == 1
    assert main(["run", "--algo", "fcm", "--data", str(blob_csv),
                 "--nodes", "2"]) == 1
    assert main(["run", "--algo", "kmeans", "--data", str(blob_csv),
                 "--nodes", "4"]) == 1
    assert main(["run", "--algo", "dbscan", "--data", str(blob_csv),
                 "--nodes", "4"]) == 1
    capsys.readouterr()  # drop accumulated stderr


def test_missing_data_file_exits_two(capsys):
    assert main(["run", "--algo", "pkm", "--data", "/no/such/file.csv"]) == 2
    capsys.readouterr()


def test_bad_csv_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    assert main(["run", "--algo", "kmeans", "--data", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("algo", ["pkm", "pfcm", "pddp"])
@pytest.mark.parametrize("nodes", ["1", "2"])
def test_overflowing_input_exits_two(algo, nodes, tmp_path, capsys):
    # squared distances and variances of +-1e200 overflow to infinity
    data = tmp_path / "huge.csv"
    data.write_text("1e200,1\n-1e200,2\n1,3\n2,-1e200\n5,5\n6,6\n")
    rc = main(["run", "--algo", algo, "--data", str(data), "--k", "2",
               "--nodes", nodes])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "non-finite" in errors[0]


def test_more_clusters_than_distinct_rows_exits_two(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("0,0\n0,0\n0,0\n1,1\n")
    for nodes in ("1", "2"):
        rc = main(["run", "--algo", "pkm", "--data", str(data), "--k", "3",
                   "--nodes", nodes])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: cannot repair an empty cluster" in captured.err


def test_more_nodes_than_rows_exits_two(tmp_path, capsys):
    data = tmp_path / "five.csv"
    data.write_text("0,0\n1,1\n2,2\n3,3\n4,4\n")
    rc = main(["run", "--algo", "kwindows", "--data", str(data), "--windows",
               "1", "--nodes", "8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: cannot split 5 rows over 8 nodes" in captured.err


# -- bench --------------------------------------------------------------------


def test_bench_compares_node_counts(blob_csv, capsys):
    doc = _run_json(capsys, ["bench", "--algo", "pkm", "--data", str(blob_csv),
                             "--nodes", "1,2", "--k", "3", "--seed", "7",
                             "--baseline", "kmeans"])
    assert [r["p"] for r in doc["runs"]] == [1, 2]
    assert "baseline_j" in doc
    for run in doc["runs"]:
        assert run["ari_vs_baseline"] == 1.0
        assert run["j"] == doc["baseline_j"]
        assert run["wall_ms"] > 0


def test_bench_density_against_central_scan(tmp_path, capsys):
    data = tmp_path / "tight.csv"
    assert main(["gen", "--seed", "5", "--clusters", "3", "--per-cluster",
                 "60", "--dim", "2", "--spread", "0.4", "--out",
                 str(data)]) == 0
    doc = _run_json(capsys, ["bench", "--algo", "ddbc", "--data", str(data),
                             "--nodes", "2", "--eps", "0.5", "--min-pts", "4",
                             "--baseline", "dbscan"])
    assert doc["runs"][0]["ari_vs_baseline"] >= 0.9


def test_bench_rejects_bad_node_lists(blob_csv, capsys):
    base = ["bench", "--algo", "pkm", "--data", str(blob_csv)]
    assert main(base + ["--nodes", ""]) == 1
    assert main(base + ["--nodes", "1,x"]) == 1
    assert main(base + ["--nodes", "0,2"]) == 1
    capsys.readouterr()


# -- console script -------------------------------------------------------------


def test_installed_entry_point_round_trips(tmp_path):
    data = tmp_path / "cli.csv"
    gen = subprocess.run(
        [sys.executable, "-m", "parclust.cli", "gen", "--seed", "2",
         "--clusters", "2", "--per-cluster", "25", "--dim", "2",
         "--out", str(data)],
        capture_output=True, text=True)
    assert gen.returncode == 0
    assert gen.stdout == ""  # diagnostics stay on stderr

    run = subprocess.run(
        [sys.executable, "-m", "parclust.cli", "run", "--algo", "pkm",
         "--data", str(data), "--nodes", "2", "--k", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.endswith("\n") and not run.stdout.endswith("\n\n")
    doc = json.loads(run.stdout)
    truth = [int(v) for v in
             (tmp_path / "cli.csv.labels.csv").read_text().splitlines()]
    ari = adjusted_rand_index(Partition(np.asarray(doc["labels"])),
                              Partition(np.asarray(truth)))
    assert ari == 1.0
