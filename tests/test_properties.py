"""Property tests of the storage forms and bound laws over random small inputs.

Factor entries are small integers, so every Gram entry is an exact integer
sum in float64 and the explicit and Gram-only forms of a product must agree
bit for bit, not just to a tolerance. Quantities a product assembles from its
factors agree with the dense path on the same Gram to rounding, and so do
the uniform log-space form and its materialized Gram. The analytic error
never falls below the spectral bound, and sqrt(svdb) is subadditive under
union. Examples are drawn deterministically, so every run checks the same
ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound import (
    PrivacyParams,
    Workload,
    analytic_total_error,
    bound_report,
    hierarchical_strategy,
    kron_product,
    kron_strategy,
    svdb,
    svdb_log,
    union,
    workloads,
)
from querybound.strategies import _uniform_sqrt

factor = st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n).map(
        lambda v: Workload.from_matrix(np.reshape(v, (m, n)).astype(float),
                                       dedup=False))))
factors = st.lists(factor, min_size=2, max_size=3)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _product_and_strategy(parts):
    W = kron_product(parts)
    A = kron_strategy([hierarchical_strategy(p.n) for p in parts])
    return W, A


@SETTINGS
@given(factors)
def test_explicit_and_gram_forms_of_a_product_agree(parts):
    W, A = _product_and_strategy(parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
        Wg, Ag = _product_and_strategy(parts)
    assert W.is_explicit and A.is_explicit
    assert not (Wg.is_explicit or Ag.is_explicit)
    np.testing.assert_array_equal(Wg.gram, W.gram)
    np.testing.assert_allclose(svdb(Wg), svdb(W), rtol=1e-12)
    np.testing.assert_allclose(analytic_total_error(Wg, Ag).total_error,
                               analytic_total_error(W, A).total_error, rtol=1e-9)


@SETTINGS
@given(factors)
def test_svdb_is_multiplicative_under_kron_product(parts):
    np.testing.assert_allclose(svdb(kron_product(parts)),
                               np.prod([svdb(p) for p in parts]), rtol=1e-9, atol=1e-12)


def _stripped(W):
    """The same Gram without its factors: every quantity takes the dense path."""
    return Workload.from_gram(W.gram, query_count=W.query_count)


@SETTINGS
@given(factors, st.booleans())
def test_factored_and_dense_paths_agree(parts, gram_form):
    with pytest.MonkeyPatch.context() as mp:
        if gram_form:
            mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
        W, A = _product_and_strategy(parts)
    assert W.factors is not None and A.workload.factors is not None
    rep, ref = bound_report(W), bound_report(_stripped(W))
    np.testing.assert_allclose(rep.svdb, ref.svdb, rtol=1e-12)
    np.testing.assert_allclose(rep.diag_spread, ref.diag_spread, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(rep.looseness_factor, ref.looseness_factor, rtol=1e-9)
    err = analytic_total_error(W, A)
    dense = analytic_total_error(_stripped(W), _stripped(A.workload))
    np.testing.assert_allclose(err.total_error, dense.total_error, rtol=1e-9)
    np.testing.assert_allclose(err.support_residual, dense.support_residual, rtol=0,
                               atol=1e-12)


def _matrices(rows, n):
    return rows.flatmap(lambda m: st.lists(st.integers(-3, 3), min_size=m * n,
                                           max_size=m * n).map(
        lambda v: np.reshape(v, (m, n)).astype(float)))


@st.composite
def workload_and_full_rank_strategy(draw):
    """A workload and a strategy with an identity block, as one or two factors."""
    Ws, As = [], []
    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        Ws.append(Workload.from_matrix(draw(_matrices(st.integers(1, 4), n)), dedup=False))
        extra = draw(_matrices(st.integers(0, 3), n))
        As.append(Workload.from_matrix(np.vstack([np.eye(n), extra]), dedup=False))
    return kron_product(Ws), kron_strategy(As)


@SETTINGS
@given(workload_and_full_rank_strategy())
def test_analytic_error_is_at_least_p_times_svdb_for_full_rank_strategies(pair):
    W, A = pair
    rep = analytic_total_error(W, A, PrivacyParams(1.0, 1e-5))
    assert rep.total_error >= rep.p_factor * svdb(W) * (1 - 1e-9)


@st.composite
def uniform_workloads(draw):
    """A constant-diagonal Gram up to the materializable() boundary, off = 0 allowed."""
    n = draw(st.integers(1, 32))
    log_diag = draw(st.floats(-20.0, math.log(1e300), exclude_max=True))
    share = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.9)))  # off / diag
    log_off = log_diag + math.log(share) if share > 0 else -math.inf
    return Workload.from_uniform_gram(n, log_diag, log_off)


def _materialized(W):
    return Workload.from_gram(W.uniform.materialize(W.n))


@SETTINGS
@given(uniform_workloads())
def test_uniform_log_and_materialized_forms_agree(W):
    # relative agreement of the values, checked on their logs (atol covers ln 1 = 0)
    dense = _materialized(W)
    np.testing.assert_allclose(svdb_log(dense), svdb_log(W), rtol=1e-12, atol=1e-12)
    root = _uniform_sqrt(W)
    for forms in ([root, _materialized(root)], [hierarchical_strategy(W.n)]):
        reps = [analytic_total_error(w, a) for w in (W, dense) for a in forms]
        for rep in reps[1:]:
            np.testing.assert_allclose(rep.total_error_log10, reps[0].total_error_log10,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rep.support_residual, reps[0].support_residual,
                                       rtol=0, atol=1e-12)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_matrices(st.integers(1, 4), n),
                                                     _matrices(st.integers(1, 4), n))))
def test_sqrt_svdb_is_subadditive_under_union(pair):
    W1, W2 = (Workload.from_matrix(M) for M in pair)
    joint = math.sqrt(svdb(union(W1, W2)))
    assert joint <= (math.sqrt(svdb(W1)) + math.sqrt(svdb(W2))) * (1 + 1e-12) + 1e-12
