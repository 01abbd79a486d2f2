import argparse
import hashlib
import json
import math

import numpy as np
import pytest

from querybound import Workload, all_range, cli, save_workload_csv, workloads
from querybound.bounds import predicate_projected_ratio, range_projected_ratio
from querybound.mechanism import TRIAL_CAP

BOUND_FIELDS = {"svdb", "svdb_log10", "projected_svdb", "projected_subset",
                "tight", "diag_spread", "looseness_factor", "l1_svdb",
                "l1_geometric"}
EVAL_FIELDS = {"sensitivity_l2", "sensitivity_l1", "p_factor", "total_error",
               "total_error_log10", "support_residual", "ratio_to_svdb"}


def run_json(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_bound_all_predicate(capsys):
    code, rep, err = run_json(
        ["bound", "--workload", "all-predicate", "--cells", "4"], capsys)
    assert code == 0
    assert set(rep) == BOUND_FIELDS
    np.testing.assert_allclose(rep["svdb"], 14.0 + 6.0 * math.sqrt(5.0),
                               rtol=1e-12)
    assert rep["tight"] is True
    np.testing.assert_allclose(rep["looseness_factor"], 1.0, rtol=1e-12)
    assert err.startswith("svdb=")


def test_bound_with_range_projections(capsys):
    code, rep, _ = run_json(
        ["bound", "--workload", "all-range", "--dims", "4",
         "--projections", "ranges"], capsys)
    assert code == 0
    assert rep["projected_svdb"] >= rep["svdb"] - 1e-12
    assert rep["projected_subset"] == [1, 2, 3, 4]


def test_bound_from_workload_csv(tmp_path, capsys):
    path = tmp_path / "w.csv"
    save_workload_csv(all_range([3]), path)
    code, rep, _ = run_json(["bound", "--workload", f"csv:{path}"], capsys)
    assert code == 0
    from querybound import svdb
    np.testing.assert_allclose(rep["svdb"], svdb(all_range([3])), rtol=1e-12)


def test_bound_projections_csv(tmp_path, capsys):
    fam = tmp_path / "fam.csv"
    fam.write_text("1\n1,2\n")
    code, rep, _ = run_json(
        ["bound", "--workload", "all-range", "--cells", "3",
         "--projections", f"csv:{fam}"], capsys)
    assert code == 0
    assert rep["projected_subset"] in ([1], [1, 2])


def test_bound_writes_out_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = cli.main(["bound", "--workload", "all-range", "--cells", "2",
                     "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    np.testing.assert_allclose(rep["svdb"], (math.sqrt(3.0) + 1.0) ** 2 / 2.0,
                               rtol=1e-12)
    assert capsys.readouterr().out == ""


def test_eval_identity_on_ranges(capsys):
    code, rep, err = run_json(
        ["eval", "--workload", "all-range", "--cells", "4",
         "--strategy", "identity"], capsys)
    assert code == 0
    assert set(rep) == EVAL_FIELDS
    np.testing.assert_allclose(rep["total_error"], 488.24290582120665,
                               rtol=1e-12)
    assert rep["sensitivity_l2"] == 1.0 and rep["support_residual"] <= 1e-12
    assert "ratio_to_svdb=" in err


def test_eval_sqrt_is_within_looseness(capsys):
    code, rep, _ = run_json(
        ["eval", "--workload", "all-range", "--cells", "8",
         "--strategy", "sqrt", "--epsilon", "0.5"], capsys)
    assert code == 0
    assert 1.0 <= rep["ratio_to_svdb"] <= 8.0


def test_eval_data_cube(capsys):
    code, rep, _ = run_json(
        ["eval", "--workload", "data-cube", "--dims", "2,2",
         "--cuboids", "1;2;;", "--weights", "1,1,2",
         "--strategy", "workload"], capsys)
    assert code == 0
    assert rep["total_error"] > 0 and rep["ratio_to_svdb"] >= 1.0 - 1e-9


def test_eval_multidim_kron_strategy(capsys):
    code, rep, _ = run_json(
        ["eval", "--workload", "all-range", "--dims", "4,4",
         "--strategy", "hierarchical"], capsys)
    assert code == 0
    np.testing.assert_allclose(rep["sensitivity_l2"], 3.0, rtol=1e-12)


def test_run_reports_sane_z(capsys):
    code, rep, _ = run_json(
        ["run", "--workload", "all-range", "--cells", "4",
         "--strategy", "hierarchical", "--trials", "4000", "--seed", "3"],
        capsys)
    assert code == 0
    assert abs(rep["z"]) <= 4.0
    assert rep["trials"] == 4000 and rep["seed"] == 3


def test_run_is_deterministic(tmp_path):
    argv = ["run", "--workload", "all-range", "--cells", "3",
            "--strategy", "identity", "--trials", "500", "--seed", "11"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2), "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# stdout of `run ... --trials 3000 --seed 77`, byte for byte: drawing the
# noise a block at a time must reproduce the per-trial streams exactly. The
# last entry is the (mean, stderr) pinned when W A^+ came from an SVD: taking
# it from the strategy's eigenpairs moves them by rounding only (an identity
# strategy not at all), while another noise stream would move mean by ~1e-2
RUN_GOLDEN = [
    (["--cells", "124", "--strategy", "identity"],
     '"analytic": 7946153.292240144,\n  "mean": 8200087.649808484,\n  "seed": 77,\n'
     '  "stderr": 139001.87590697498,\n  "trials": 3000,\n  "z": 1.826841227224029',
     (8200087.649808484, 139001.87590697498)),
    (["--dims", "7,8", "--strategy", "hierarchical", "--fanout", "4"],
     '"analytic": 199303.7132041311,\n  "mean": 199680.16784872493,\n  "seed": 77,\n'
     '  "stderr": 1023.8998282106899,\n  "trials": 3000,\n  "z": 0.36766745556710245',
     (199680.16784872476, 1023.8998282106894)),
    (["--cells", "64", "--strategy", "sqrt"],
     '"analytic": 295982.4240048084,\n  "mean": 299881.3172819246,\n  "seed": 77,\n'
     '  "stderr": 2085.6493097422695,\n  "trials": 3000,\n  "z": 1.869390630008636',
     (299881.31728192506, 2085.6493097422713)),
]


@pytest.mark.parametrize("flags, body, svd_pinned", RUN_GOLDEN,
                         ids=["identity", "hierarchical", "sqrt"])
def test_run_output_is_pinned_byte_for_byte(flags, body, svd_pinned, capsys):
    code = cli.main(["run", "--workload", "all-range", *flags,
                     "--trials", "3000", "--seed", "77"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "{\n  " + body + "\n}\n"
    rep = json.loads(out)
    np.testing.assert_allclose([rep["mean"], rep["stderr"]], svd_pinned, rtol=1e-13)


# md5 of stdout then stderr of `bound` and `eval` requests, one for each route
# of the bound analysis: explicit and Gram-form 1-D ranges, a product grid,
# a uniform log-space Gram, projection scans (exhaustive on explicit rows,
# the sub-range kernel), a weighted cube, and every strategy. Pinned at
# OpenBLAS on one thread and at its default
BOUND_EVAL_GOLDEN = {
    "bound-1d-explicit": (["bound", "--cells", "40"], "b058b0de162932ec3891ef5771eaf8ad"),
    "bound-1d-gram": (["bound", "--cells", "300"], "47af078fcb94d05fdd91196c4489a8a4"),
    "bound-grid": (["bound", "--dims", "16,32"], "91d3ff4ef2bad5408efe8541c121896e"),
    "bound-predicate-uniform": (
        ["bound", "--workload", "all-predicate", "--cells", "300"],
        "5f1678ee35f7b9efa8d639af88919324"),
    "bound-predicate-exhaustive": (
        ["bound", "--workload", "all-predicate", "--cells", "8", "--projections", "exhaustive"],
        "a0faedd658b33ed512da63764b49de24"),
    "bound-ranges": (["bound", "--cells", "40", "--projections", "ranges"],
                     "d8297f2ffacaf94cccf16f13e6b83cfa"),
    "bound-cube": (
        ["bound", "--workload", "data-cube", "--dims", "3,4,5", "--cuboids", "1,2;3;;",
         "--weights", "1.5,0.75,2", "--epsilon", "0.5"],
        "b293d16fec1647b7b57a7793e716e160"),
    "eval-identity": (["eval", "--cells", "40", "--strategy", "identity"],
                      "e3eb77936983ba35358c2286ae0d2231"),
    "eval-workload": (["eval", "--cells", "40", "--strategy", "workload"],
                      "204e4b46e2a9d29085428698103ca984"),
    "eval-hierarchical": (["eval", "--cells", "40", "--strategy", "hierarchical"],
                          "757bc1817fd53fecc7ab3fe0c2071a81"),
    "eval-sqrt": (["eval", "--cells", "40", "--strategy", "sqrt"],
                  "fad3bf5c96e38644bc4d77fd95f99f2e"),
    "eval-haar": (["eval", "--cells", "32", "--strategy", "haar"],
                  "796fb99a73fd0fb4617852e84a5757e9"),
}


@pytest.mark.parametrize("argv, digest", BOUND_EVAL_GOLDEN.values(),
                         ids=BOUND_EVAL_GOLDEN.keys())
def test_bound_and_eval_output_is_pinned_byte_for_byte(argv, digest, capsys):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.md5((captured.out + captured.err).encode()).hexdigest() == digest


def test_exit_2_on_a_negative_seed(capsys):
    assert cli.main(["run", "--workload", "all-range", "--cells", "2",
                     "--trials", "2", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("DimOutOfRange: seed must be a non-negative integer")


def test_run_with_data_file(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text("1\n2\n3\n")
    code, rep, _ = run_json(
        ["run", "--workload", "all-range", "--cells", "3",
         "--strategy", "identity", "--trials", "100", "--data", str(data)],
        capsys)
    assert code == 0
    assert rep["mean"] > 0


def test_exit_2_on_bad_specs(capsys):
    assert cli.main(["bound", "--workload", "mystery"]) == 2
    assert cli.main(["bound", "--workload", "all-range"]) == 2
    assert cli.main(["run", "--workload", "all-range", "--cells", "2",
                     "--trials", "1"]) == 2
    assert cli.main(["bound", "--workload", "csv:/no/such/file.csv"]) == 2
    assert "DimOutOfRange" in capsys.readouterr().err


def test_exit_2_on_thread_count_beyond_the_cap(capsys):
    # --threads has no effect, but a value outside 1..THREAD_CAP is still refused
    assert cli.main(["run", "--workload", "all-range", "--cells", "2",
                     "--trials", "2", "--threads", "1000000"]) == 2
    assert "DimOutOfRange" in capsys.readouterr().err


def test_exit_2_on_trials_beyond_the_cap(capsys):
    assert cli.main(["run", "--workload", "all-range", "--cells", "2",
                     "--trials", str(TRIAL_CAP + 1)]) == 2
    assert "DimOutOfRange" in capsys.readouterr().err


def test_exit_3_on_indefinite_gram(tmp_path, capsys):
    path = tmp_path / "g.csv"
    path.write_text("gram n=2\n1.0,2.0\n2.0,1.0\n")
    assert cli.main(["bound", "--workload", f"csv:{path}"]) == 3
    assert "NotPSD" in capsys.readouterr().err


def test_exit_4_on_support_violation(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("strategy n=2\n1.0,1.0\n")
    assert cli.main(["eval", "--workload", "all-range", "--cells", "2",
                     "--strategy", f"csv:{path}"]) == 4
    assert "SupportViolation" in capsys.readouterr().err


def test_run_exits_4_on_a_strategy_below_the_spectral_cutoff(tmp_path, capsys):
    work, strat = tmp_path / "w.csv", tmp_path / "a.csv"
    work.write_text("n=3\n1,0,0\n0,1,0\n0,0,1\n")
    strat.write_text("strategy n=3\n1,0,0\n0,1,0\n0,0,1e-7\n")
    assert cli.main(["run", "--workload", f"csv:{work}", "--strategy", f"csv:{strat}",
                     "--trials", "10"]) == 4
    # refused by the recovery matrix's check, before any trial runs
    assert "||W||_F" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["identity", "hierarchical", "sqrt", "workload"])
def test_run_takes_no_svd(strategy, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("run took an SVD")
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    code, rep, _ = run_json(["run", "--workload", "all-range", "--cells", "16",
                             "--strategy", strategy, "--trials", "200"], capsys)
    assert code == 0 and rep["mean"] > 0


def test_exit_5_on_wrong_data_length(tmp_path, capsys):
    data = tmp_path / "x.csv"
    data.write_text("1\n2\n3\n")
    assert cli.main(["run", "--workload", "all-range", "--cells", "4",
                     "--strategy", "identity", "--trials", "10",
                     "--data", str(data)]) == 5
    assert "DimensionMismatch" in capsys.readouterr().err


def test_strategy_csv_round_trip_through_eval(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("strategy n=2\n1.0,0.0\n0.0,1.0\n")
    code, rep, _ = run_json(
        ["eval", "--workload", "all-range", "--cells", "2",
         "--strategy", f"csv:{path}"], capsys)
    assert code == 0
    ident = cli.main(["eval", "--workload", "all-range", "--cells", "2",
                      "--strategy", "identity"])
    assert ident == 0
    other = json.loads(capsys.readouterr().out)
    assert rep == other


def test_projected_ratio_helpers_cover_identity_case():
    assert range_projected_ratio(4) == 1.0
    assert predicate_projected_ratio(3) == 1.0
    assert predicate_projected_ratio(17) == 1.0


def test_gram_only_workload_via_csv(tmp_path, capsys):
    path = tmp_path / "g.csv"
    G = all_range([5]).gram
    from querybound import save_gram_csv
    save_gram_csv(Workload.from_gram(G), path)
    code, rep, _ = run_json(["bound", "--workload", f"csv:{path}"], capsys)
    assert code == 0
    from querybound import svdb
    np.testing.assert_allclose(rep["svdb"], svdb(all_range([5])), rtol=1e-10)


def test_bound_on_a_1d_range_forms_no_rows(row_formations, capsys):
    # the report reads the closed-form spectrum, diagonal and trace: the
    # explicit rows of every 1-D range up to the entry cap are never formed
    for d in range(8, 272):
        assert cli.main(["bound", "--cells", str(d)]) == 0
        assert all_range([d]).is_explicit
    capsys.readouterr()
    assert row_formations == []


def test_table2_runs_no_eigensolve_over_64_rows(tmp_path, eigensolves, row_formations,
                                                monkeypatch):
    # every Gram of the reference workloads and strategies has a closed-form
    # basis, per factor for the grids
    bases = []
    real_basis = workloads._dst1_basis
    monkeypatch.setattr(workloads, "_dst1_basis", lambda d: bases.append(d) or real_basis(d))
    assert cli.main(["table2", "--out", str(tmp_path / "table2.csv")]) == 0
    assert [rows for rows in eigensolves if rows > 64] == []
    # the table prints svdb alone of the bound analysis, which reads only the
    # range workloads' eigenvalues: their DST-I eigenvectors are never built
    assert bases == []
    # the errors read column counts and eigenpairs, never the explicit rows
    # of a strategy or product
    assert row_formations == []
    # the table's bytes, pinned at OpenBLAS on one thread and at its default
    table = (tmp_path / "table2.csv").read_bytes()
    assert hashlib.md5(table).hexdigest() == "8802f9cf91f10f236b7ab9a6d7e27b0e"


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    counts = []
    for _ in range(2):
        assert cli.main(["bound", "--workload", "all-range", "--cells", "2"]) == 0
        counts.append(len(added))
    assert counts[1] == counts[0]
