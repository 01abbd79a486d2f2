import math

import numpy as np
import pytest

from querybound import (
    DimensionMismatch,
    DimOutOfRange,
    ExplicitRequired,
    GaussianNoise,
    GramOnlyL1,
    NonFinite,
    NotPSD,
    PrivacyParams,
    SupportViolation,
    Workload,
    ZeroNoise,
    all_predicate_gram,
    all_range,
    analytic_total_error,
    empirical_error,
    equalize_columns,
    gaussian_mechanism,
    hierarchical_strategy,
    matrix_mechanism,
    sensitivity,
    svdb,
)
PARAMS = PrivacyParams(1.0, 1e-5)

# a mixed query set over eight cells: one total, two half-sums, two pair
# sums, and one signed contrast; the max column norm sits in columns 1-4
MIXED_QUERIES = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, -1, -1],
], dtype=float)


def test_sensitivity_identity():
    assert sensitivity(np.eye(5), "l2") == 1.0
    assert sensitivity(np.eye(5), "l1") == 1.0


def test_sensitivity_mixed_queries():
    np.testing.assert_allclose(sensitivity(MIXED_QUERIES, "l2"), math.sqrt(3.0),
                               rtol=1e-15)
    np.testing.assert_allclose(sensitivity(MIXED_QUERIES, "l1"), 3.0, rtol=0)


def test_sensitivity_hierarchical_tree():
    A = hierarchical_strategy(2048, 2)
    np.testing.assert_allclose(sensitivity(A, "l2"), math.sqrt(12.0), rtol=1e-12)


def test_sensitivity_gram_only():
    W = Workload.from_gram(np.array([[4.0, 1.0], [1.0, 9.0]]))
    assert sensitivity(W, "l2") == 3.0
    with pytest.raises(GramOnlyL1):
        sensitivity(W, "l1")
    np.testing.assert_allclose(sensitivity(all_predicate_gram(17), "l2"),
                               2.0 ** 8, rtol=1e-12)


def test_gaussian_mechanism_zero_noise_is_exact():
    W = all_range([3])
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(gaussian_mechanism(W, x, PARAMS, ZeroNoise()),
                                  W.matrix @ x)


def test_gaussian_mechanism_deterministic_per_seed():
    W = Workload.from_matrix(np.eye(1))
    a = gaussian_mechanism(W, [5.0], PARAMS, GaussianNoise(9))
    b = gaussian_mechanism(W, [5.0], PARAMS, GaussianNoise(9))
    c = gaussian_mechanism(W, [5.0], PARAMS, GaussianNoise(10))
    np.testing.assert_array_equal(a, b)
    assert a[0] != c[0]


def test_gaussian_mechanism_empirical_variance():
    W = Workload.from_matrix(np.eye(1))
    noise = GaussianNoise(123)
    outs = np.array([gaussian_mechanism(W, [0.0], PARAMS, noise, trial=t)[0]
                     for t in range(10_000)])
    np.testing.assert_allclose(outs.var(), PARAMS.p_factor, rtol=0.05)


def test_gaussian_mechanism_validates_data():
    with pytest.raises(DimensionMismatch):
        gaussian_mechanism(all_range([3]), [1.0, 2.0], PARAMS, ZeroNoise())


def test_mechanisms_refuse_non_finite_data():
    W = all_range([3])
    for bad in ([1.0, math.nan, 2.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(NonFinite):
            gaussian_mechanism(W, bad, PARAMS, ZeroNoise())
        with pytest.raises(NonFinite):
            matrix_mechanism(W, np.eye(3), bad, PARAMS, ZeroNoise())
        with pytest.raises(NonFinite):
            empirical_error(W, np.eye(3), bad, PARAMS, 2)


def test_matrix_mechanism_with_self_strategy_matches_gaussian():
    # for invertible W the recovery W W^+ is the identity, so running the
    # workload through itself reproduces the plain mechanism output exactly
    W = Workload.from_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = np.array([3.0, 4.0])
    direct = gaussian_mechanism(W, x, PARAMS, GaussianNoise(5))
    via = matrix_mechanism(W, W, x, PARAMS, GaussianNoise(5))
    np.testing.assert_allclose(via, direct, rtol=1e-12, atol=1e-12)


def test_matrix_mechanism_zero_noise_and_support():
    W = all_range([2])
    x = np.array([1.0, 7.0])
    out = matrix_mechanism(W, np.eye(2), x, PARAMS, ZeroNoise())
    np.testing.assert_allclose(out, W.matrix @ x, atol=1e-12)
    with pytest.raises(SupportViolation):
        matrix_mechanism(Workload.from_matrix(np.eye(2)),
                         np.array([[1.0, 1.0]]), x, PARAMS, ZeroNoise())
    with pytest.raises(ExplicitRequired):
        matrix_mechanism(all_range([2048]), np.eye(2048), np.zeros(2048),
                         PARAMS, ZeroNoise())


def test_analytic_error_identity_on_identity():
    for n in (1, 3, 6):
        rep = analytic_total_error(Workload.from_matrix(np.eye(n)), np.eye(n))
        np.testing.assert_allclose(rep.total_error, n, rtol=1e-12)
        np.testing.assert_allclose(rep.ratio_to_svdb, 1.0, rtol=1e-12)
        assert rep.support_residual <= 1e-12


def test_analytic_error_twolevel_tree_on_ranges():
    # strategy {11, 10, 01} has Gram [[2,1],[1,2]] whose hand inverse is
    # [[2,-1],[-1,2]]/3; sens^2 = 2 and the trace works out to exactly 2
    A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    rep = analytic_total_error(all_range([2]), A)
    np.testing.assert_allclose(rep.total_error, 4.0, rtol=1e-12)


def test_analytic_error_allrange_2048_identity():
    rep = analytic_total_error(all_range([2048]), np.eye(2048))
    np.testing.assert_allclose(rep.total_error, 2048 * 2049 * 2050 / 6, rtol=1e-9)
    np.testing.assert_allclose(rep.ratio_to_svdb, 47.25, rtol=5e-3)


def test_analytic_error_with_privacy_params():
    rep = analytic_total_error(all_range([4]), np.eye(4), PARAMS)
    np.testing.assert_allclose(rep.total_error, PARAMS.p_factor * 20.0, rtol=1e-12)
    np.testing.assert_allclose(rep.p_factor, PARAMS.p_factor, rtol=0)


def test_analytic_error_scaling_invariance():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        W = Workload.from_matrix(rng.standard_normal((n + 1, n)), dedup=False)
        A = rng.standard_normal((n, n)) + 2 * np.eye(n)
        base = analytic_total_error(W, A).total_error
        scaled = analytic_total_error(W, float(rng.uniform(0.1, 10)) * A).total_error
        np.testing.assert_allclose(scaled, base, rtol=1e-9)


def test_analytic_error_orthonormal_rows_self_strategy():
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        W = Workload.from_matrix(Q.T, dedup=False)  # m orthonormal rows
        rep = analytic_total_error(W, W)
        delta_sq = sensitivity(W, "l2") ** 2
        np.testing.assert_allclose(rep.total_error, delta_sq * m, rtol=1e-9)


def test_analytic_error_support_violation():
    with pytest.raises(SupportViolation):
        analytic_total_error(Workload.from_matrix(np.eye(2)),
                             np.array([[1.0, 1.0]]))


def test_analytic_error_refuses_an_indefinite_gram_only_strategy():
    # the negative direction must not be dropped as if it were a rank deficit
    with pytest.raises(NotPSD):
        analytic_total_error(Workload.from_matrix(np.eye(2)),
                             Workload.from_gram(np.diag([1.0, -1.0])))


def test_analytic_error_uniform_workload_concrete_strategy():
    # the log-space path for huge uniform workloads must agree with the
    # concrete path at the boundary size where both are computable
    n = 17
    W_uniform = all_predicate_gram(n)
    W_concrete = Workload.from_gram(W_uniform.uniform.materialize(n))
    rng = np.random.default_rng(53)
    A = rng.standard_normal((n, n)) + 3 * np.eye(n)
    for strategy in (np.eye(n), A):
        lo = analytic_total_error(W_uniform, strategy)
        hi = analytic_total_error(W_concrete, strategy)
        np.testing.assert_allclose(lo.total_error, hi.total_error, rtol=1e-9)
        np.testing.assert_allclose(lo.ratio_to_svdb, hi.ratio_to_svdb, rtol=1e-9)


def test_analytic_error_uniform_strategy_paths():
    from querybound.strategies import _uniform_sqrt

    n = 17
    W_uniform = all_predicate_gram(n)
    A_uniform = _uniform_sqrt(W_uniform)
    A_concrete = Workload.from_gram(A_uniform.uniform.materialize(n))
    W_concrete = Workload.from_gram(W_uniform.uniform.materialize(n))
    # concrete workload x uniform strategy
    mixed = analytic_total_error(W_concrete, A_uniform)
    full = analytic_total_error(W_concrete, A_concrete)
    np.testing.assert_allclose(mixed.total_error, full.total_error, rtol=1e-9)
    # uniform x uniform closed form
    both = analytic_total_error(W_uniform, A_uniform)
    np.testing.assert_allclose(both.total_error, full.total_error, rtol=1e-9)


def test_analytic_error_uniform_requires_full_rank_strategy():
    with pytest.raises(SupportViolation):
        analytic_total_error(all_predicate_gram(17),
                             np.ones((1, 17)))


def test_uniform_and_dense_forms_share_the_support_rule():
    # G_W = 1e-6 I + J; the rank-7 strategy I - vv' (v orthogonal to the
    # constant vector) misses 1e-6 of trace 8.000008, within the support
    # tolerance, whichever form holds G_W
    W = Workload.from_uniform_gram(8, math.log(1 + 1e-6), 0.0)
    v = np.zeros(8)
    v[:2] = np.array([1.0, -1.0]) / math.sqrt(2.0)
    A = np.eye(8) - np.outer(v, v)
    lo = analytic_total_error(W, A)
    hi = analytic_total_error(Workload.from_gram(W.uniform.materialize(8)), A)
    np.testing.assert_allclose(lo.total_error, hi.total_error, rtol=1e-12)
    np.testing.assert_allclose(lo.support_residual, hi.support_residual, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hi.support_residual, 1e-6 / 8.000008, rtol=1e-6)


def test_sensitivity_of_explicit_rows_forms_no_gram():
    W = Workload.from_matrix(MIXED_QUERIES, dedup=False)
    np.testing.assert_array_equal(W.gram_diag(), np.sum(MIXED_QUERIES ** 2, axis=0))
    assert sensitivity(W, "l2") == math.sqrt(3.0)
    assert W._gram is None


def test_report_json_fields():
    doc = analytic_total_error(all_range([2]), np.eye(2), PARAMS).to_json_dict()
    assert sorted(doc) == sorted(["sensitivity_l2", "sensitivity_l1", "p_factor",
                                  "total_error", "total_error_log10",
                                  "support_residual", "ratio_to_svdb"])
    rep = analytic_total_error(all_predicate_gram(1024), np.eye(1024))
    assert rep.total_error == math.inf
    assert rep.to_json_dict()["total_error"] is None
    np.testing.assert_allclose(rep.ratio_to_svdb, 1.8841354840247093, rtol=1e-9)


def test_equalize_columns_appends_diagonal_rows():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = equalize_columns(A)
    np.testing.assert_allclose(out.matrix,
                               np.vstack([A, [0.0, 1.0]]), rtol=0)
    col_norms = np.linalg.norm(out.matrix, axis=0)
    np.testing.assert_allclose(col_norms, math.sqrt(2.0), rtol=1e-15)


def test_equalize_columns_keeps_uniform_strategies_unchanged():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_array_equal(equalize_columns(A).matrix, A)


def test_equalize_columns_never_hurts():
    rng = np.random.default_rng(54)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((int(rng.integers(n, n + 3)), n))
        W = Workload.from_matrix(rng.standard_normal((2, A.shape[0])) @ A,
                                 dedup=False)
        eq = equalize_columns(A)
        np.testing.assert_allclose(sensitivity(eq, "l2"), sensitivity(A, "l2"),
                                   rtol=1e-12)
        before = analytic_total_error(W, A).total_error
        after = analytic_total_error(W, eq).total_error
        assert after <= before * (1 + 1e-9)


def test_empirical_error_zero_noise():
    W = all_range([2])
    mean, se = empirical_error(W, np.eye(2), [0.0, 0.0], PARAMS, 16,
                               noise=ZeroNoise())
    assert mean == 0.0 and se == 0.0


def test_empirical_error_deterministic_and_thread_invariant():
    W = all_range([2])
    one = empirical_error(W, np.eye(2), [1.0, 2.0], PARAMS, 500, seed=3)
    two = empirical_error(W, np.eye(2), [1.0, 2.0], PARAMS, 500, seed=3)
    assert one == two
    other = empirical_error(W, np.eye(2), [1.0, 2.0], PARAMS, 500, seed=4)
    assert one != other


def test_empirical_error_tracks_analytic():
    W = Workload.from_matrix(np.eye(2))
    mean, se = empirical_error(W, np.eye(2), [0.0, 0.0], PARAMS, 4000, seed=11)
    analytic = analytic_total_error(W, np.eye(2), PARAMS).total_error
    assert abs(mean - analytic) <= 3.0 * se


def test_empirical_error_requires_two_trials():
    with pytest.raises(DimOutOfRange):
        empirical_error(all_range([2]), np.eye(2), [0.0, 0.0], PARAMS, 1)


def test_noise_streams_are_splittable_and_reproducible():
    noise = GaussianNoise(99)
    a = noise.sample(4, trial=7)
    b = GaussianNoise(99).sample(4, trial=7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, noise.sample(4, trial=8))


def test_workload_as_its_own_strategy_solves_one_spectrum(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    W = all_range([73])
    rep = analytic_total_error(W, W)
    assert calls == ["eigh"]
    monkeypatch.undo()
    np.testing.assert_allclose(rep.ratio_to_svdb,
                               rep.total_error / svdb(all_range([73])), rtol=1e-12)
