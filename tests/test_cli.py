"""Command line behavior: gen/run/bench, exit codes, JSON contract."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import parclust
from parclust import cli
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


def _strict_json(text):
    """The document in `text`; NaN, Infinity or -Infinity in it fail the test."""
    def refuse(name):
        raise AssertionError("CLI report holds %s, which is not JSON" % name)
    return json.loads(text, parse_constant=refuse)


def _run_json(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.endswith("\n")
    return _strict_json(captured.out)


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


@pytest.mark.parametrize("flag,value", [
    ("--separation", "nan"), ("--separation", "inf"), ("--separation", "1e308"),
    ("--spread", "nan")])
def test_gen_with_a_spread_or_separation_out_of_range_exits_two(
        flag, value, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["gen", flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize("algo,extra", [
    ("pkm", ["--k", "3", "--nodes", "2"]),
    ("kmeans", ["--k", "3"]),
    ("pfcm", ["--k", "3", "--nodes", "2"]),
    ("fcm", ["--k", "3"]),
    ("pddp-km", ["--height", "2", "--nodes", "2"]),
])
def test_a_run_cut_off_by_max_iter_reports_it_did_not_converge(
        algo, extra, blob_csv, capsys):
    argv = ["run", "--algo", algo, "--data", str(blob_csv)] + extra
    cut = _run_json(capsys, argv + ["--max-iter", "1"])
    jsonschema.validate(cut, REPORT_SCHEMA)
    assert cut["iterations"] == 1 and cut["converged"] is False
    full = _run_json(capsys, argv)
    assert full["iterations"] > 1 and full["converged"] is True


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
    assert main(["run", "--algo", "pddp", "--data", str(blob_csv),
                 "--tol", "1e-6"]) == 1  # pddp has no tolerance
    for ddbc_only in (["--eps-global", "1.0"], ["--min-pts-global", "2"],
                      ["--local-model", "rep-scor"],
                      ["--local-model", "rep-kmeans"]):
        assert main(["run", "--algo", "dbscan", "--data", str(blob_csv)]
                    + ddbc_only) == 1
    capsys.readouterr()  # drop accumulated stderr


@pytest.mark.parametrize("argv,flag", [
    (["--algo", "pkm", "--k", "2", "--eps-global", "5"], "--eps-global"),
    (["--algo", "kmeans", "--k", "2", "--local-model", "rep-scor"],
     "--local-model"),
    (["--algo", "pkm", "--k", "2", "--min-pts", "3", "--windows", "9"],
     "--min-pts"),
    # cpca-cluster reads only the flags of its local clusterer
    (["--algo", "cpca-cluster", "--k", "3", "--eps", "3"], "--eps"),
    (["--algo", "cpca-cluster", "--k", "3", "--local-algo", "kmeans",
      "--eps", "3", "--min-pts", "9"], "--eps"),
    (["--algo", "cpca-cluster", "--k", "3", "--local-algo", "dbscan",
      "--max-iter", "5"], "--max-iter"),
])
def test_a_flag_the_algorithm_does_not_read_exits_one(argv, flag, blob_csv,
                                                      capsys):
    rc = main(["run", "--data", str(blob_csv)] + argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    who = argv[1]
    if who == "cpca-cluster":  # the message names the local clusterer
        local = argv[argv.index("--local-algo") + 1] \
            if "--local-algo" in argv else "kmeans"
        who += " --local-algo " + local
    assert "usage error: %s does not read %s" % (who, flag) in captured.err


def test_bench_baseline_drops_the_flags_it_does_not_read(blob_csv, capsys):
    # --m configures the compared pfcm runs, not the kmeans baseline
    doc = _run_json(capsys, ["bench", "--algo", "pfcm", "--data", str(blob_csv),
                             "--nodes", "1,2", "--k", "3", "--m", "1.5",
                             "--baseline", "kmeans"])
    assert [r["ari_vs_baseline"] for r in doc["runs"]] == [1.0, 1.0]


def test_bench_baseline_drops_the_local_clusterer_flags(blob_csv, capsys):
    # --eps and --min-pts configure cpca-cluster's dbscan local clusterer;
    # the kmeans baseline reads --k only
    doc = _run_json(capsys, ["bench", "--algo", "cpca-cluster",
                             "--data", str(blob_csv), "--nodes", "1", "--k", "3",
                             "--local-algo", "dbscan", "--eps", "1.5",
                             "--min-pts", "4", "--baseline", "kmeans"])
    assert doc["baseline"] == "kmeans" and len(doc["runs"]) == 1


def test_missing_data_file_exits_two(capsys):
    assert main(["run", "--algo", "pkm", "--data", "/no/such/file.csv"]) == 2
    capsys.readouterr()


def test_bad_csv_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    assert main(["run", "--algo", "kmeans", "--data", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("header", ["", "x,y\n"])
def test_a_byte_order_mark_drops_no_data_row(header, tmp_path, capsys):
    # a mark read as text would make row 1 non-numeric, so a header
    data = tmp_path / "bom.csv"
    data.write_bytes(("\ufeff" + header + "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
                     .encode("utf-8"))
    doc = _run_json(capsys, ["run", "--algo", "kmeans", "--data", str(data),
                             "--k", "1"])
    assert doc["n"] == 3 and doc["centroids"] == [[3.0, 4.0]]


@pytest.mark.parametrize("algo", ["pkm", "pfcm", "pddp"])
@pytest.mark.parametrize("nodes", ["1", "2"])
def test_overflowing_input_exits_two(algo, nodes, tmp_path, capsys):
    # squared distances and variances of +-1e200 overflow to infinity
    data = tmp_path / "huge.csv"
    data.write_text("1e200,1\n-1e200,2\n1,3\n2,-1e200\n5,5\n6,6\n")
    k = [] if algo == "pddp" else ["--k", "2"]  # pddp refuses --k
    with pytest.warns(RuntimeWarning):
        rc = main(["run", "--algo", algo, "--data", str(data), "--nodes",
                   nodes] + k)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "non-finite" in errors[0]


@pytest.mark.parametrize("algo,nodes", [("kmeans", "1"), ("pkm", "2")])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_objective_beyond_float_range_exits_two(algo, nodes, seed, tmp_path,
                                                capsys):
    # every squared distance to the mean is finite, their exact sum is not
    data = tmp_path / "wide.csv"
    data.write_text("0\n" * 5 + "1.2e154\n" * 2)
    rc = main(["run", "--algo", algo, "--data", str(data), "--k", "1",
               "--nodes", nodes, "--seed", seed])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: exact result out of float64 range" in captured.err


@pytest.mark.parametrize("algo,extra", [
    ("dbscan", ["--eps", "1e155"]),
    ("ddbc", ["--eps", "1e155"]),
    ("ddbc", ["--eps", "1e154"]),  # the default eps_global = 2*eps overflows
    ("ddbc", ["--eps", "1", "--eps-global", "1e155"]),
])
def test_eps_whose_square_overflows_exits_two(algo, extra, tmp_path, capsys):
    # with eps^2 = inf every overflowed distance would count as a neighbour
    data = tmp_path / "far.csv"
    data.write_text("0,0\n1e300,0\n2e300,0\n")
    rc = main(["run", "--algo", algo, "--data", str(data), "--min-pts", "2"]
              + extra)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "is not a finite float64" in captured.err


_NON_FINITE = [
    ["--algo", "kwindows", "--windows", "3", "--half-width", "nan"],
    ["--algo", "kwindows", "--windows", "3", "--half-width", "inf"],
    ["--algo", "pkm", "--k", "3", "--tol", "nan"],
    ["--algo", "pkm", "--k", "3", "--tol", "inf"],
    ["--algo", "pfcm", "--k", "3", "--tol", "nan"],
    ["--algo", "pfcm", "--k", "3", "--tol", "inf"],
    ["--algo", "pddp-km", "--tol", "nan"],
    ["--algo", "pfcm", "--k", "3", "--m", "nan"],
    ["--algo", "pfcm", "--k", "3", "--m", "inf"],
]


@pytest.mark.parametrize("argv,nodes", [
    (argv, nodes) for argv in _NON_FINITE for nodes in ("1", "2")
] + [(["--algo", algo, "--k", "3", "--tol", "nan"], "1")
     for algo in ("kmeans", "fcm")],
    ids=lambda v: v if isinstance(v, str) else v[1] + v[-2] + "=" + v[-1])
def test_a_non_finite_half_width_or_tol_exits_two(argv, nodes, blob_csv,
                                                  capsys):
    rc = main(["run", "--data", str(blob_csv), "--nodes", nodes] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "must be finite" in errors[0]
    if argv[-2] == "--m":
        assert "fuzzifier m " in errors[0]


@pytest.mark.parametrize("command", ["run", "bench"])
def test_a_report_holding_a_non_finite_number_exits_two(command, blob_csv,
                                                        capsys, monkeypatch):
    real = cli._run_algo

    def nan_objective(args, X, nodes):
        report = real(args, X, nodes)
        report.j = float("nan")
        return report

    monkeypatch.setattr(cli, "_run_algo", nan_objective)
    rc = main([command, "--algo", "pkm", "--data", str(blob_csv), "--k", "3",
               "--nodes", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: the report holds a non-finite number" in captured.err


def _alternating_pairs_csv(tmp_path):
    data = tmp_path / "pairs.csv"
    data.write_text("0,0\n5,5\n" * 10)
    return data


def test_ddbc_over_too_sparse_shards_exits_two(tmp_path, capsys):
    # 5-row shards hold at most 3 copies of either point, so no shard has a
    # core point under min_pts 5 although the central scan finds two clusters
    data = _alternating_pairs_csv(tmp_path)
    for nodes, why in (("4", "no shard of 5 to 5 rows holds a core point"),
                       ("5", "a shard of 4 rows is smaller than min_pts=5")):
        rc = main(["run", "--algo", "ddbc", "--data", str(data), "--eps",
                   "0.5", "--min-pts", "5", "--nodes", nodes])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: " + why in captured.err


def test_ddbc_over_dense_enough_shards_finds_both_points(tmp_path, capsys):
    data = _alternating_pairs_csv(tmp_path)
    doc = _run_json(capsys, ["run", "--algo", "ddbc", "--data", str(data),
                             "--eps", "0.5", "--min-pts", "5", "--nodes", "2"])
    assert doc["model"]["k"] == 2
    assert doc["labels"] == [0, 1] * 10


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


def test_more_nodes_than_rows_gives_the_one_node_report(tmp_path, capsys):
    data = tmp_path / "five.csv"
    data.write_text("0,0\n1,1\n2,2\n3,3\n4,4\n")
    docs = [_run_json(capsys, ["run", "--algo", "kwindows", "--data",
                               str(data), "--windows", "1", "--nodes", nodes])
            for nodes in ("8", "1")]
    # three of the eight blocks are empty
    assert [doc.pop("p") for doc in docs] == [8, 1]
    for doc in docs:
        del doc["timings_ms"]
    assert docs[0] == docs[1]


@pytest.mark.parametrize("nodes, shards", [
    ("1", "node 0: 180 rows"), ("2", "node 0: 90 rows, node 1: 90 rows")])
def test_cpca_cluster_whose_local_scans_find_only_noise_exits_two(
        nodes, shards, tmp_path, capsys):
    data = tmp_path / "two.csv"
    assert main(["gen", "--seed", "3", "--clusters", "2", "--per-cluster",
                 "90", "--dim", "2", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["run", "--algo", "cpca-cluster", "--local-algo", "dbscan",
               "--eps", "1e-6", "--min-pts", "3", "--k", "2", "--nodes", nodes,
               "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: no representatives for the global basis: local dbscan "
        "clustering in each node's own PCA space marked every row as noise "
        "on every shard (%s)\n" % shards)


@pytest.mark.parametrize("nodes, shard, why", [
    ("1", "node 0's 6-row shard", "k=3 but the data has only 2 distinct rows"),
    # all three 2-row shards fail; the lowest rank's error is the one shown
    ("3", "node 0's 2-row shard", "k=2 but the data has only 1 distinct rows")])
def test_cpca_cluster_local_kmeans_failure_names_shard_and_stage(
        nodes, shard, why, tmp_path, capsys):
    data = tmp_path / "six.csv"
    data.write_text("1,1\n" * 4 + "2,2\n" * 2)
    rc = main(["run", "--algo", "cpca-cluster", "--k", "3", "--nodes", nodes,
               "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "error: %s: local kmeans clustering (k=3) in the node's own PCA space "
        "failed: cannot repair an empty cluster: %s\n" % (shard, why))


@pytest.mark.parametrize("k", ["3", "4"])
def test_cpca_cluster_with_k_above_the_distinct_sketches_exits_two(
        k, tmp_path, capsys):
    # two copies of two blobs over two nodes: four sketches, two distinct
    blobs = tmp_path / "blobs.csv"
    assert main(["gen", "--seed", "3", "--clusters", "2", "--per-cluster",
                 "30", "--dim", "2", "--spread", "0.3", "--out",
                 str(blobs)]) == 0
    capsys.readouterr()
    data = tmp_path / "doubled.csv"
    data.write_text(blobs.read_text() * 2)
    rc = main(["run", "--algo", "cpca-cluster", "--local-algo", "dbscan",
               "--eps", "1.0", "--min-pts", "3", "--k", k, "--nodes", "2",
               "--variance-fraction", "0.999", "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: k=%s exceeds the 2 distinct cluster "
                            "sketches\n" % k)


def test_pddp_split_of_exact_ties_is_the_same_at_any_node_count(
        tmp_path, capsys):
    # the minor rows project to exactly 0: a BLAS product put them on
    # either side depending on which rows shared the call
    data = tmp_path / "ties.csv"
    data.write_text("".join("%s,%s\n%s,%s\n" % (a, b, -a, -b) for a, b in
                            [(1, 1), (2, 2), (3, 3), (0.1, -0.1),
                             (0.2, -0.2)]))
    docs = [_run_json(capsys, ["run", "--algo", "pddp", "--height", "1",
                               "--nodes", nodes, "--data", str(data)])
            for nodes in ("1", "10")]
    assert docs[0]["labels"] == [0, 1, 0, 1, 0, 1, 0, 0, 0, 0]  # ties go left
    for key in ("labels", "centroids", "j"):
        assert docs[1][key] == docs[0][key]


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
    # the ddbc-only flags configure the compared run, not the dbscan baseline
    doc = _run_json(capsys, ["bench", "--algo", "ddbc", "--data", str(data),
                             "--nodes", "2", "--eps", "0.5", "--min-pts", "4",
                             "--local-model", "rep-scor", "--eps-global", "1.2",
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
    # the subprocess imports the package this test imported, wherever the
    # test runner found it
    src = str(pathlib.Path(parclust.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = tmp_path / "cli.csv"
    gen = subprocess.run(
        [sys.executable, "-m", "parclust.cli", "gen", "--seed", "2",
         "--clusters", "2", "--per-cluster", "25", "--dim", "2",
         "--out", str(data)],
        capture_output=True, text=True, env=env)
    assert gen.returncode == 0
    assert gen.stdout == ""  # diagnostics stay on stderr

    run = subprocess.run(
        [sys.executable, "-m", "parclust.cli", "run", "--algo", "pkm",
         "--data", str(data), "--nodes", "2", "--k", "2", "--seed", "1"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert run.stdout.endswith("\n") and not run.stdout.endswith("\n\n")
    doc = _strict_json(run.stdout)
    truth = [int(v) for v in
             (tmp_path / "cli.csv.labels.csv").read_text().splitlines()]
    ari = adjusted_rand_index(Partition(np.asarray(doc["labels"])),
                              Partition(np.asarray(truth)))
    assert ari == 1.0
