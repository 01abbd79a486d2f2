"""Kronecker products keep their factors: spectra, the certificate and the
analytic error come from per-factor eigenpairs (closed forms, or eigensolves
where a factor has none), and a Gram-form product forms its n x n Gram only
when it is read. Also counted here: the eigensolves of the sqrt strategy and
the validations of projected Grams, which reuse spectra and exactly symmetric
Grams the same way."""

import numpy as np
import pytest

from querybound import (
    NonSymmetric,
    Workload,
    all_range,
    bound_report,
    cli,
    data_cube,
    evaluate_strategy,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    kron_product,
    kron_strategy,
    range_gram_1d,
    sqrt_strategy,
)
from querybound import numkernel, workloads


@pytest.fixture
def gram_form(monkeypatch):
    monkeypatch.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)


def _without_basis(W):
    """The same Gram with no closed-form eigenpairs: it is solved densely."""
    return Workload.from_gram(W.gram, query_count=W.query_count)


def _count_validations(monkeypatch):
    shapes = []
    real = numkernel.as_sym_matrix

    def counted(S, *args, **kwargs):
        shapes.append(np.shape(S))
        return real(S, *args, **kwargs)
    for module in (numkernel, workloads):
        monkeypatch.setattr(module, "as_sym_matrix", counted)
    return shapes


def test_products_record_flattened_factors_in_both_forms(monkeypatch):
    a, b, c = all_range([2]), all_range([3]), all_range([2])
    X = kron_product([kron_product([a, b]), c])
    assert X.is_explicit and X.factors == (a, b, c)
    monkeypatch.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
    Y = kron_product([kron_product([a, b]), c])
    assert not Y.is_explicit and Y.factors == (a, b, c)
    assert Y._gram is None  # formed only when read
    np.testing.assert_array_equal(Y.gram, X.gram)
    assert all_range([5]).factors is None
    assert data_cube([2, 3], [[1]], [1.0]).factors is None


def test_product_spectra_need_no_eigensolve_at_the_product_size(gram_form, eigensolves):
    dense = np.kron(range_gram_1d(4), range_gram_1d(3))
    closed = all_range([4, 3])
    solved = kron_product([_without_basis(f) for f in closed.factors])
    for W, solves in ((solved, [4, 3]), (closed, [])):
        del eigensolves[:]
        values, vectors = W.gram_eig()
        assert eigensolves == solves
        assert np.all(np.diff(values) <= 0)
        np.testing.assert_allclose((vectors * values) @ vectors.T, dense, atol=1e-10)
        np.testing.assert_allclose(W.gram_eigvals(), np.linalg.eigvalsh(dense), rtol=1e-12)
        np.testing.assert_array_equal(W.gram_diag(), np.diag(dense))
        assert W.gram_trace() == np.trace(dense)


def test_nothing_n_by_n_when_workload_and_strategy_are_products(gram_form, monkeypatch,
                                                                eigensolves):
    makers = (identity_strategy, hierarchical_strategy, haar_strategy)
    closed = [all_range([8, 4])] + [kron_strategy([make(d) for d in (8, 4)])
                                    for make in makers]
    # the same factor Grams with no closed-form eigenpairs: solved per factor
    solved = [kron_product([_without_basis(f) for f in X.factors])
              for X in closed]
    sizes = []
    real_kron = np.kron

    def counted_kron(a, b):
        out = real_kron(a, b)
        sizes.append(out.size)
        return out
    monkeypatch.setattr(np, "kron", counted_kron)
    for (W, *strategies_), solves in ((solved, [8, 4] * 4), (closed, [])):
        del eigensolves[:], sizes[:]
        bound_report(W)
        for A in strategies_:
            evaluate_strategy(W, A)
        assert eigensolves == solves
        assert sizes and max(sizes) <= 32
        assert W._gram is None


def test_unaligned_factors_take_the_dense_path():
    W = all_range([4, 3])
    for A in (identity_strategy(12), kron_strategy([hierarchical_strategy(3),
                                                    hierarchical_strategy(4)])):
        rep = evaluate_strategy(W, A)
        ref = evaluate_strategy(Workload.from_gram(W.gram),
                                Workload.from_gram(A.gram))
        np.testing.assert_allclose(rep.total_error, ref.total_error, rtol=1e-12)


def test_sqrt_strategy_solves_once_and_validates_nothing(monkeypatch, capsys, eigensolves):
    # the root keeps the workload's eigenpairs: only a workload without a
    # closed form is solved, once
    W = Workload.from_gram(range_gram_1d(64))
    validated = _count_validations(monkeypatch)
    evaluate_strategy(W, sqrt_strategy(W))
    assert eigensolves == [64]
    for argv, solves in ((["--workload", "data-cube", "--dims", "4,5", "--cuboids", "1;2;"],
                          [20]),
                         (["--workload", "all-range", "--cells", "64"], [])):
        del eigensolves[:]
        assert cli.main(["eval", *argv, "--strategy", "sqrt"]) == 0
        assert eigensolves == solves
    assert validated == []


def test_sqrt_strategy_still_validates_raw_matrices():
    with pytest.raises(NonSymmetric):
        sqrt_strategy(np.array([[1.0, 0.5], [0.0, 1.0]]))
    explicit = sqrt_strategy(range_gram_1d(4), explicit=True)
    np.testing.assert_allclose(explicit.matrix @ explicit.matrix,
                               sqrt_strategy(range_gram_1d(4)).gram,
                               rtol=1e-9, atol=1e-12)


def test_range_projections_of_gram_form_grids_are_not_validated(gram_form, monkeypatch,
                                                                capsys):
    validated = _count_validations(monkeypatch)
    assert cli.main(["bound", "--workload", "all-range", "--dims", "3,4",
                     "--projections", "ranges"]) == 0
    assert validated == []
