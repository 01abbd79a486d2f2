import math

import numpy as np
import pytest

from querybound import (
    DimensionMismatch,
    DimOutOfRange,
    EmptyCuboidList,
    ExplicitRequired,
    IndexOutOfRange,
    NotVariableAgnostic,
    UniformGram,
    Workload,
    all_predicate_gram,
    all_range,
    column_project,
    contained_in,
    data_cube,
    equivalent,
    kron_product,
    kron_strategy,
    load_data_vector,
    load_gram_csv,
    load_workload_csv,
    range_gram_1d,
    save_gram_csv,
    save_workload_csv,
    svdb,
)
from querybound import numkernel, workloads
from querybound.workloads import check_subset

LN2 = math.log(2.0)


def test_from_matrix_dedups_keeping_first_occurrence_order():
    W = Workload.from_matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(W.matrix, [[1.0, 0.0], [0.0, 1.0]])
    assert W.query_count == 2


def test_from_matrix_rejects_bad_shapes():
    with pytest.raises(DimOutOfRange):
        Workload.from_matrix(np.zeros((0, 3)))
    with pytest.raises(DimOutOfRange):
        Workload.from_matrix(np.zeros((3, 0)))


def test_gram_is_wtw():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((5, 3))
    W = Workload.from_matrix(M, dedup=False)
    np.testing.assert_allclose(W.gram, M.T @ M, rtol=1e-14, atol=1e-14)


def test_uniform_gram_requires_diag_above_off():
    with pytest.raises(NotVariableAgnostic):
        Workload.from_uniform_gram(4, 1.0, 1.0)
    W = Workload.from_uniform_gram(4, math.log(2.0), math.log(1.0))
    np.testing.assert_allclose(W.gram, np.ones((4, 4)) + np.eye(4), rtol=1e-14)


def test_uniform_gram_materializability():
    assert UniformGram(1.0, 0.0).materializable()
    assert not UniformGram(1023 * LN2, 1022 * LN2).materializable()


def test_all_range_1d_rows_are_lexicographic_intervals():
    W = all_range([2])
    np.testing.assert_array_equal(W.matrix, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert W.query_count == 3


def test_all_range_gram_closed_form_matches_rows():
    for d in (1, 2, 3, 5, 8):
        W = all_range([d])
        np.testing.assert_allclose(W.gram, range_gram_1d(d), rtol=1e-13)


def test_all_range_multidim_gram_is_kronecker():
    W = all_range([2, 3])
    np.testing.assert_allclose(W.gram, np.kron(range_gram_1d(2), range_gram_1d(3)),
                               rtol=1e-13)
    assert W.query_count == 3 * 6


def test_all_range_falls_back_to_gram_beyond_caps():
    W = all_range([2048])
    assert not W.is_explicit
    assert W.query_count == 2048 * 2049 // 2
    np.testing.assert_allclose(np.diag(W.gram)[:3], [2048.0, 2 * 2047.0, 3 * 2046.0],
                               rtol=1e-13)


def test_kron_product_returns_a_single_part_unchanged():
    W = all_range([3])
    assert kron_product([W]) is W
    with pytest.raises(DimOutOfRange):
        kron_product([])


def test_kron_product_gram_form_matches_rows_and_keeps_query_counts(monkeypatch):
    A, B = all_range([3]), all_predicate_gram(2)
    X = kron_product([A, B])
    assert X.is_explicit and X.query_count == 6 * 4
    monkeypatch.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
    Y = kron_product([A, B])
    assert not Y.is_explicit and Y.query_count == 6 * 4
    np.testing.assert_array_equal(Y.gram, X.gram)
    # a factor without a query count leaves the product without one
    assert kron_product([Workload.from_gram(np.eye(2)), A]).query_count is None


def test_gram_form_products_are_not_validated_again(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Gram formed by a product was validated again")
    monkeypatch.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
    monkeypatch.setattr(workloads, "EXPLICIT_CELL_CAP", 0)
    for module in (numkernel, workloads):
        monkeypatch.setattr(module, "as_sym_matrix", refuse)
    products = [all_range([4]), all_range([3, 2]),
                kron_product([all_range([2]), all_predicate_gram(2)]),
                kron_strategy([all_range([2]), all_range([3])]).workload,
                data_cube([2, 3], [[1], []], [1.0, 2.0])]
    for W in products:
        assert not W.is_explicit
        assert np.array_equal(W.gram, W.gram.T)


def test_all_predicate_small_is_explicit_with_all_patterns():
    W = all_predicate_gram(3)
    assert W.matrix.shape == (8, 3)
    # cell 1 is the least-significant bit of the row index
    np.testing.assert_array_equal(W.matrix[5], [1.0, 0.0, 1.0])
    np.testing.assert_allclose(W.gram, 2.0 * np.eye(3) + 2.0 * np.ones((3, 3)),
                               rtol=0)


def test_all_predicate_uniform_logs_match_explicit_boundary():
    # n=17 is the first Gram-only size; its logs must continue the explicit law
    W = all_predicate_gram(17)
    assert W.uniform is not None
    np.testing.assert_allclose(W.uniform.log_diag, 16 * LN2, rtol=1e-15)
    np.testing.assert_allclose(W.uniform.log_off, 15 * LN2, rtol=1e-15)
    assert W.query_count == 2 ** 17
    explicit = all_predicate_gram(16)
    np.testing.assert_allclose(np.diag(explicit.gram), 2.0 ** 15, rtol=0)
    np.testing.assert_allclose(explicit.gram[0, 1], 2.0 ** 14, rtol=0)


def test_data_cube_rows_and_weights():
    W = data_cube([2], [[], [1]], [1.0, 1.0])
    np.testing.assert_array_equal(W.matrix, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    W2 = data_cube([2], [[], [1]], [3.0, 1.0])
    np.testing.assert_array_equal(W2.matrix[0], [3.0, 3.0])


def test_data_cube_group_by_second_attribute():
    W = data_cube([2, 3], [[2]], [1.0])
    assert W.matrix.shape == (3, 6)
    np.testing.assert_array_equal(W.matrix[0], [1, 0, 0, 1, 0, 0])
    np.testing.assert_array_equal(W.matrix.sum(axis=1), [2.0, 2.0, 2.0])


def test_data_cube_full_cuboid_is_identity():
    W = data_cube([2, 2], [[1, 2]], [1.0])
    np.testing.assert_array_equal(W.matrix, np.eye(4))


def test_data_cube_forms_agree_on_repeated_rows(monkeypatch):
    # a size-1 attribute makes cuboid (1,) repeat the total query, and a
    # cuboid listed twice repeats all its rows: both forms keep every row
    cases = [([1, 3], [[1], []], [1.0, 1.0]), ([2, 3], [[2], [2]], [1.0, 1.0])]
    explicit = [data_cube(*case) for case in cases]
    monkeypatch.setattr(workloads, "EXPLICIT_CELL_CAP", 0)
    for W, case in zip(explicit, cases):
        G = data_cube(*case)
        assert W.is_explicit and not G.is_explicit
        assert W.query_count == G.query_count
        np.testing.assert_array_equal(W.gram, G.gram)
        np.testing.assert_allclose(svdb(W), svdb(G), rtol=1e-12)


def test_data_cube_validation_errors():
    with pytest.raises(EmptyCuboidList):
        data_cube([2], [], [])
    with pytest.raises(IndexOutOfRange):
        data_cube([2], [[3]], [1.0])
    with pytest.raises(DimensionMismatch):
        data_cube([2], [[1]], [1.0, 2.0])
    with pytest.raises(DimOutOfRange):
        data_cube([2], [[1]], [-1.0])


def test_check_subset_validates_and_converts():
    np.testing.assert_array_equal(check_subset((3, 1), 4), [0, 2])
    with pytest.raises(IndexOutOfRange):
        check_subset((), 4)
    with pytest.raises(IndexOutOfRange):
        check_subset((0,), 4)
    with pytest.raises(IndexOutOfRange):
        check_subset((5,), 4)


def test_column_project_keeps_zero_and_duplicate_rows():
    # predicate workload projected onto a subset keeps its row count: rows
    # that collapse to zero or to duplicates still contribute to the Gram
    W = all_predicate_gram(3)
    P = column_project(W, (1, 3))
    assert P.matrix.shape == (8, 2)
    assert P.query_count == 8
    np.testing.assert_allclose(P.gram, W.gram[np.ix_([0, 2], [0, 2])], rtol=0)


def test_column_project_gram_only_takes_principal_submatrix():
    W = Workload.from_gram(range_gram_1d(5))
    P = column_project(W, (2, 4))
    np.testing.assert_allclose(P.gram, range_gram_1d(5)[np.ix_([1, 3], [1, 3])],
                               rtol=0)


def test_column_project_uniform_keeps_logs():
    W = all_predicate_gram(20)
    P = column_project(W, (1, 2, 3))
    assert P.n == 3
    assert P.uniform.log_diag == W.uniform.log_diag


def test_equivalent_ignores_row_order_and_representation():
    W1 = all_range([3])
    W2 = Workload.from_matrix(W1.matrix[::-1])
    W3 = Workload.from_gram(range_gram_1d(3))
    assert equivalent(W1, W2)
    assert equivalent(W1, W3)
    assert not equivalent(W1, Workload.from_matrix(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        equivalent(W1, all_range([4]))


def test_equivalent_uniform_and_mixed():
    assert equivalent(all_predicate_gram(20), all_predicate_gram(20))
    big = all_predicate_gram(1024)
    small = Workload.from_gram(np.eye(1024))
    assert not equivalent(big, small)


def test_contained_in_reflexive_and_monotone():
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        M1 = rng.standard_normal((int(rng.integers(1, 5)), n))
        M2 = rng.standard_normal((int(rng.integers(1, 5)), n))
        W1 = Workload.from_matrix(M1, dedup=False)
        both = Workload.from_matrix(np.vstack([M1, M2]), dedup=False)
        assert contained_in(W1, W1)
        assert contained_in(W1, both)
        # strict domination the other way must fail unless M2 adds nothing
        if np.linalg.norm(M2) > 1e-6:
            assert not contained_in(both, W1)


def test_workload_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(33)
    M = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 9, size=(4, 3))
    W = Workload.from_matrix(M, dedup=False)
    path = tmp_path / "w.csv"
    save_workload_csv(W, path)
    with open(path) as fh:
        assert fh.readline().strip() == "n=3"
    back = load_workload_csv(path)
    np.testing.assert_array_equal(back.matrix, W.matrix)


def test_gram_csv_roundtrip_is_exact(tmp_path):
    W = all_range([2048])
    path = tmp_path / "g.csv"
    save_gram_csv(W, path)
    with open(path) as fh:
        assert fh.readline().strip() == "gram n=2048"
    back = load_gram_csv(path)
    np.testing.assert_array_equal(back.gram, W.gram)


def test_gram_only_workload_rejects_matrix_serialization(tmp_path):
    with pytest.raises(ExplicitRequired):
        save_workload_csv(all_range([2048]), tmp_path / "w.csv")


def test_data_vector_loading(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.5\n0\n2\n")
    np.testing.assert_array_equal(load_data_vector(path), [1.5, 0.0, 2.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("1\n-2\n")
    with pytest.raises(DimOutOfRange):
        load_data_vector(bad)
