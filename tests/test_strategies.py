import math
import tracemalloc

import numpy as np
import pytest

from querybound import (
    DimOutOfRange,
    ExplicitRequired,
    NotPowerOfTwo,
    Workload,
    all_predicate_gram,
    all_range,
    bound_report,
    evaluate_strategy,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    kron_strategy,
    load_strategy_csv,
    psd_sqrt,
    range_gram_1d,
    save_strategy_csv,
    sensitivity,
    sqrt_strategy,
    svdb,
    workload_strategy,
)
from querybound.strategies import _uniform_sqrt


def test_identity_strategy():
    A = identity_strategy(3)
    np.testing.assert_array_equal(A.matrix, np.eye(3))
    with pytest.raises(DimOutOfRange):
        identity_strategy(0)


def test_hierarchical_rows_n4_breadth_first():
    A = hierarchical_strategy(4, 2)
    np.testing.assert_array_equal(A.matrix, [
        [1, 1, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


def test_hierarchical_single_cell_and_validation():
    np.testing.assert_array_equal(hierarchical_strategy(1).matrix, [[1.0]])
    with pytest.raises(DimOutOfRange):
        hierarchical_strategy(4, 1)
    with pytest.raises(DimOutOfRange):
        hierarchical_strategy(0)


def test_hierarchical_depth_and_coverage():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(2, 70))
        fanout = int(rng.integers(2, 6))
        A = hierarchical_strategy(n, fanout)
        M = A.matrix
        # every row is a contiguous 0/1 interval
        assert np.isin(M, (0.0, 1.0)).all()
        for row in M:
            on = np.flatnonzero(row)
            assert on.size == on[-1] - on[0] + 1
        cover = M.sum(axis=0)  # rows covering each cell = its leaf depth + 1
        levels = math.ceil(math.log(n, fanout)) + 1
        assert cover.max() == levels
        assert cover.min() >= 2
        # uneven remainders go to the last child: sizes within a split differ
        # but the tree still contains each singleton exactly once
        assert (M.sum(axis=1) == 1).sum() == n


def test_hierarchical_last_child_takes_remainder():
    A = hierarchical_strategy(5, 2)
    np.testing.assert_array_equal(A.matrix[1], [1, 1, 1, 0, 0])
    np.testing.assert_array_equal(A.matrix[2], [0, 0, 0, 1, 1])


def test_haar_small_matrices():
    np.testing.assert_array_equal(haar_strategy(2).matrix, [[1, 1], [1, -1]])
    np.testing.assert_array_equal(haar_strategy(4).matrix, [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 0, 0],
        [0, 0, 1, -1],
    ])


def test_haar_requires_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        haar_strategy(3)
    with pytest.raises(NotPowerOfTwo):
        haar_strategy(0)


def test_haar_sensitivity_is_levels():
    for k in (0, 1, 3, 6):
        n = 2 ** k
        A = haar_strategy(n)
        assert A.matrix.shape == (n, n)
        np.testing.assert_allclose(sensitivity(A, "l2") ** 2, k + 1, rtol=1e-12)
        counts = (A.matrix != 0).sum(axis=0)
        np.testing.assert_array_equal(counts, np.full(n, k + 1))


def test_constructors_support_their_workloads():
    W = all_range([8])
    for A in (identity_strategy(8), hierarchical_strategy(8), haar_strategy(8),
              sqrt_strategy(W)):
        rep = evaluate_strategy(W, A)
        assert rep.support_residual <= 1e-9
        assert rep.ratio_to_svdb >= 1.0 - 1e-6


def test_sqrt_strategy_gram_is_matrix_root():
    W = all_range([4])
    A = sqrt_strategy(W)
    np.testing.assert_allclose(A.gram, psd_sqrt(W.gram), rtol=1e-12)
    explicit = sqrt_strategy(W, explicit=True)
    np.testing.assert_allclose(explicit.matrix.T @ explicit.matrix,
                               psd_sqrt(W.gram), rtol=1e-9, atol=1e-12)


def test_sqrt_strategy_on_identity_and_ranges():
    rep = evaluate_strategy(Workload.from_matrix(np.eye(5)),
                            sqrt_strategy(np.eye(5)))
    np.testing.assert_allclose(rep.total_error, 5.0, rtol=1e-12)
    rep = evaluate_strategy(all_range([2]), sqrt_strategy(all_range([2])))
    np.testing.assert_allclose(rep.total_error, 2.0 + math.sqrt(3.0), rtol=1e-12)
    np.testing.assert_allclose(rep.ratio_to_svdb, 1.0, rtol=1e-12)


def test_sqrt_strategy_ratio_equals_looseness_factor():
    rng = np.random.default_rng(62)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        W = Workload.from_matrix(rng.standard_normal((int(rng.integers(1, 8)), n)),
                                 dedup=False)
        ratio = evaluate_strategy(W, sqrt_strategy(W)).ratio_to_svdb
        loose = bound_report(W).looseness_factor
        np.testing.assert_allclose(ratio, loose, rtol=1e-9)


def test_uniform_sqrt_matches_materialized_root():
    W = all_predicate_gram(17)
    A = _uniform_sqrt(W)
    direct = psd_sqrt(W.uniform.materialize(17))
    np.testing.assert_allclose(A.uniform.materialize(17), direct, rtol=1e-9)


def test_sqrt_strategy_beyond_float_range_stays_uniform():
    A = sqrt_strategy(all_predicate_gram(1024))
    assert A.uniform is not None
    with pytest.raises(ExplicitRequired):
        sqrt_strategy(all_predicate_gram(1024), explicit=True)


def test_evaluate_strategy_reference_ratios():
    np.testing.assert_allclose(
        evaluate_strategy(all_range([2]), identity_strategy(2)).ratio_to_svdb,
        4.0 / svdb(all_range([2])), rtol=1e-12)
    np.testing.assert_allclose(
        evaluate_strategy(all_predicate_gram(1024),
                          identity_strategy(1024)).ratio_to_svdb,
        1.884, rtol=1e-2)
    W = all_range([64, 32])
    A = kron_strategy([identity_strategy(64), identity_strategy(32)])
    np.testing.assert_allclose(evaluate_strategy(W, A).ratio_to_svdb, 12.11,
                               rtol=1e-2)


def test_evaluate_strategy_rescaling_invariance():
    W = all_range([4])
    A = hierarchical_strategy(4)
    base = evaluate_strategy(W, A)
    scaled = evaluate_strategy(W, 7.5 * A.matrix)
    np.testing.assert_allclose(scaled.total_error, base.total_error, rtol=1e-9)
    np.testing.assert_allclose(scaled.ratio_to_svdb, base.ratio_to_svdb, rtol=1e-9)


def test_workload_strategy_wraps_the_workload():
    W = all_range([3])
    A = workload_strategy(W)
    assert A is W


def test_kron_strategy_gram_is_kronecker():
    A = kron_strategy([hierarchical_strategy(2), haar_strategy(2)])
    G1 = hierarchical_strategy(2).gram
    G2 = haar_strategy(2).gram
    np.testing.assert_allclose(A.gram, np.kron(G1, G2), rtol=1e-12)
    big = kron_strategy([hierarchical_strategy(64), hierarchical_strategy(32)])
    assert not big.is_explicit  # falls back to the Gram beyond the entry cap
    np.testing.assert_allclose(
        big.gram,
        np.kron(hierarchical_strategy(64).gram,
                hierarchical_strategy(32).gram), rtol=1e-12)


def test_evaluating_an_explicit_identity_product_forms_no_rows():
    # the product of identities is explicit (2048 x 2048 rows, 32 MiB) but
    # its error reads only column counts and the factors' eigenpairs
    tracemalloc.start()
    try:
        A = kron_strategy([identity_strategy(64), identity_strategy(32)])
        evaluate_strategy(all_range([64, 32]), A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.is_explicit
    assert peak < 2 * 2 ** 20


def test_strategy_csv_roundtrip(tmp_path):
    A = hierarchical_strategy(4)
    path = tmp_path / "a.csv"
    save_strategy_csv(A, path)
    with open(path) as fh:
        assert fh.readline().strip() == "strategy n=4"
    back = load_strategy_csv(path)
    np.testing.assert_array_equal(back.matrix, A.matrix)
    with pytest.raises(ExplicitRequired):
        save_strategy_csv(sqrt_strategy(all_range([4])), tmp_path / "b.csv")


def test_every_constructor_returns_a_workload(tmp_path):
    W = all_range([4])
    path = tmp_path / "a.csv"
    save_strategy_csv(hierarchical_strategy(4), path)
    for A in (identity_strategy(4), workload_strategy(W), hierarchical_strategy(4, 3),
              haar_strategy(4), sqrt_strategy(W), sqrt_strategy(W, explicit=True),
              sqrt_strategy(range_gram_1d(4)), sqrt_strategy(all_predicate_gram(1024)),
              kron_strategy([identity_strategy(2), haar_strategy(2)]),
              load_strategy_csv(path)):
        assert isinstance(A, Workload)


def test_kron_strategy_takes_raw_matrices():
    A = kron_strategy([np.eye(2), np.eye(2)])
    assert isinstance(A, Workload) and A.n == 4
    np.testing.assert_array_equal(A.matrix, np.eye(4))


def test_save_strategy_csv_takes_a_raw_matrix(tmp_path):
    path = tmp_path / "eye.csv"
    save_strategy_csv(np.eye(2), path)
    np.testing.assert_array_equal(load_strategy_csv(path).matrix, np.eye(2))
