"""Acceptance suite: one test per shipping criterion, at the stated
tolerances. Each test prints its own pass/fail line under pytest -v."""

import csv
import io
import math
import time

import numpy as np
import pytest

from querybound import (
    PrivacyParams,
    Workload,
    ZeroNoise,
    all_predicate_gram,
    all_range,
    analytic_total_error,
    bound_report,
    cli,
    crossproduct,
    data_cube,
    empirical_error,
    equalize_columns,
    evaluate_strategy,
    haar_strategy,
    identity_strategy,
    looseness_upper_bound,
    matrix_mechanism,
    sensitivity,
    sqrt_strategy,
    stack,
    svdb,
    svdb_projected,
    union,
    workload_strategy,
)

TABLE_BUDGET_SECONDS = 600.0


@pytest.fixture(scope="module")
def table2(tmp_path_factory):
    """Runs the summary-table command once; returns (rows-by-name, seconds)."""
    out = tmp_path_factory.mktemp("table") / "table2.csv"
    start = time.monotonic()
    assert cli.main(["table2", "--out", str(out)]) == 0
    elapsed = time.monotonic() - start
    reader = csv.reader(io.StringIO(out.read_text()))
    header = next(reader)
    rows = {row[0]: dict(zip(header, row)) for row in reader}
    return rows, elapsed


def test_acceptance_1_table_reproduction_at_desk_scale(table2):
    rows, elapsed = table2
    assert elapsed <= TABLE_BUDGET_SECONDS

    r2048 = rows["AllRange(2048)"]
    np.testing.assert_allclose(float(r2048["identity_ratio"]), 47.25, rtol=5e-3)

    r6432 = rows["AllRange(64,32)"]
    np.testing.assert_allclose(float(r6432["identity_ratio"]), 12.11, rtol=1e-2)
    np.testing.assert_allclose(10.0 ** float(r6432["svdb_log10"]), 2.261e7,
                               rtol=1e-2)

    rcube = rows["AllRange(2x2x...x2, 10 dims)"]
    np.testing.assert_allclose(10.0 ** float(rcube["svdb_log10"]), 5.242e5,
                               rtol=5e-3)
    for col in ("identity_ratio", "hierarchical_ratio", "haar_ratio"):
        np.testing.assert_allclose(float(rcube[col]), 2.000, rtol=5e-3)

    rpred = rows["AllPredicate(1024)"]
    np.testing.assert_allclose(float(rpred["identity_ratio"]), 1.884, rtol=1e-2)


def test_acceptance_2_hierarchical_and_wavelet_ratios(table2):
    rows, _ = table2
    r2048 = rows["AllRange(2048)"]
    np.testing.assert_allclose(float(r2048["hierarchical_ratio"]), 1.776,
                               rtol=2e-2)
    np.testing.assert_allclose(float(r2048["haar_ratio"]), 1.545, rtol=2e-2)


def test_acceptance_3_analytic_error_never_below_svdb():
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 11))
        W = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, n + 4)), n)), dedup=False)
        if checked % 2:
            A = Workload.from_matrix(
                rng.standard_normal((n + int(rng.integers(0, 3)), n)),
                dedup=False)
        else:
            # rank-deficient strategy with the workload inside its row space
            A = Workload.from_matrix(
                rng.standard_normal((max(1, n - 1), n)), dedup=False)
            W = Workload.from_matrix(
                rng.standard_normal((int(rng.integers(1, 4)), A.matrix.shape[0]))
                @ A.matrix, dedup=False)
        err = analytic_total_error(W, A).total_error
        bound = svdb(W)
        assert err >= bound * (1.0 - 1e-6)
        checked += 1
    assert checked == 200


def test_acceptance_4_tightness_and_sqrt_strategy_optimality():
    cases = [all_predicate_gram(n) for n in range(1, 17)]

    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        off = float(rng.uniform(0.0, 5.0))
        diag = off + float(rng.uniform(0.1, 5.0))
        G = (diag - off) * np.eye(n) + off * np.ones((n, n))
        cases.append(Workload.from_gram(G))

    attrs = [1, 2, 3]
    for _ in range(20):
        dims = [int(rng.integers(1, d + 1)) for d in (3, 3, 2)]
        count = int(rng.integers(1, 5))
        cuboids = [sorted(a for a in attrs if rng.random() < 0.5)
                   for _ in range(count)]
        weights = rng.uniform(0.2, 3.0, size=count).tolist()
        cases.append(data_cube(dims, cuboids, weights))

    for W in cases:
        rep = bound_report(W)
        assert rep.tight, f"certificate failed (spread {rep.diag_spread})"
        ratio = evaluate_strategy(W, sqrt_strategy(W)).ratio_to_svdb
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-6)


def test_acceptance_5_looseness_witness_instance():
    n, t = 16, 0.1
    rows = np.zeros((2, n))
    rows[0, 0] = 1.0
    rows[1, :] = t
    W = Workload.from_matrix(rows, dedup=False)

    value = svdb(W)
    np.testing.assert_allclose(value, 0.1209, rtol=1e-3)
    np.testing.assert_allclose(value, 0.12091229182759274, rtol=1e-10)

    projected, subset = svdb_projected(W, [(1,)])
    assert subset == (1,)
    np.testing.assert_allclose(projected, 1.01, rtol=1e-12)

    assert looseness_upper_bound(W.gram) > value  # strictly, at P = 1
    params = PrivacyParams(0.5, 1e-6)
    assert looseness_upper_bound(W.gram, params) > params.p_factor * value


def test_acceptance_6_algebra_laws():
    rng = np.random.default_rng(66)
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        W1 = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 8)), n1)), dedup=False)
        W2 = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 8)), n2)), dedup=False)
        np.testing.assert_allclose(svdb(crossproduct(W1, W2)),
                                   svdb(W1) * svdb(W2), rtol=1e-9)

    for _ in range(100):
        n = int(rng.integers(1, 7))
        W1 = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 8)), n)), dedup=False)
        W2 = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 8)), n)), dedup=False)
        lhs = math.sqrt(svdb(W1)) + math.sqrt(svdb(W2))
        assert lhs >= math.sqrt(svdb(union(W1, W2))) - 1e-9

    # every axis-aligned rectangle of the 2x2 grid, cells row-major
    rects = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1],
             [1, 1, 1, 1]]
    G = np.array(rects, dtype=float).T @ np.array(rects, dtype=float)
    np.testing.assert_array_equal(all_range([2, 2]).gram, G)


def test_acceptance_7_monte_carlo_matches_analytic():
    params = PrivacyParams(1.0, 1e-5)
    tree2 = Workload.from_matrix([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    triples = [
        (Workload.from_matrix(np.eye(2)), identity_strategy(2),
         np.array([3.0, 5.0])),
        (all_range([2]), identity_strategy(2), np.array([1.0, 2.0])),
        (all_range([2]), tree2, np.array([2.0, 0.0])),
        (all_range([2]), sqrt_strategy(all_range([2]), explicit=True),
         np.array([1.0, 1.0])),
        (all_range([4]), haar_strategy(4),
         np.array([1.0, 2.0, 3.0, 4.0])),
    ]
    for seed, (W, A, x) in enumerate(triples):
        mean, se = empirical_error(W, A, x, params, trials=10 ** 4, seed=seed)
        analytic = analytic_total_error(W, A, params).total_error
        assert abs(mean - analytic) <= 3.0 * se, (seed, mean, analytic, se)

    W, A, x = triples[1]
    mean, se = empirical_error(W, A, x, params, trials=2, noise=ZeroNoise())
    assert mean == 0.0 and se == 0.0
    np.testing.assert_array_equal(
        matrix_mechanism(W, A, x, params, ZeroNoise()), W.matrix @ x)


def test_acceptance_8_equalization_never_hurts():
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n + int(rng.integers(0, 3)), n))
        A[:, 0] *= float(rng.uniform(0.2, 3.0))  # force unequal column norms
        W = Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 6)), n)), dedup=False)
        strategy = Workload.from_matrix(A, dedup=False)
        equalized = equalize_columns(strategy)
        sens_before = sensitivity(strategy)
        sens_after = sensitivity(equalized)
        assert abs(sens_after - sens_before) <= 1e-9 * sens_before
        err_before = analytic_total_error(W, strategy).total_error
        err_after = analytic_total_error(W, equalized).total_error
        assert err_after <= err_before * (1.0 + 1e-9)
