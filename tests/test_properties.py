"""Property tests of the Kronecker product over random small explicit factors.

Factor entries are small integers, so every Gram entry is an exact integer
sum in float64 and the explicit and Gram-only forms of a product must agree
bit for bit, not just to a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querybound import (
    Workload,
    analytic_total_error,
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
SETTINGS = settings(max_examples=40, deadline=None)


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
