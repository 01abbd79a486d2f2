"""Property tests of the Kronecker product over random small explicit factors.

Factor entries are small integers, so every Gram entry is an exact integer
sum in float64 and the explicit and Gram-only forms of a product must agree
bit for bit, not just to a tolerance. Quantities a product assembles from its
factors agree with the dense path on the same Gram to rounding, and the
analytic error never falls below the spectral bound. Examples are drawn
deterministically, so every run checks the same ones.
"""

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
    workloads,
)

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
