"""Workload composition: stacking, union, crossproduct, and conjunction.

These operators come with laws the tests verify: stacking adds Grams, the
square root of the bound is subadditive under union, and both the bound and
its projected variant are multiplicative under crossproducts (conjunction is
the crossproduct restricted to 0/1 predicate workloads).
"""

import numpy as np

from .exceptions import DimensionMismatch, ExplicitRequired, NotPredicate
from .logspace import log_add
from .workloads import Workload, kron_product


def _count_sum(W1: Workload, W2: Workload):
    if W1.query_count is None or W2.query_count is None:
        return None
    return W1.query_count + W2.query_count


def stack(W1: Workload, W2: Workload) -> Workload:
    """All rows of both workloads, duplicates kept; Grams simply add."""
    if W1.n != W2.n:
        raise DimensionMismatch(f"cannot stack workloads on {W1.n} and {W2.n} cells")
    if W1.is_explicit and W2.is_explicit:
        return Workload.from_matrix(np.vstack([W1.matrix, W2.matrix]), dedup=False)
    if W1.uniform is not None and W2.uniform is not None:
        return Workload.from_uniform_gram(
            W1.n,
            log_add(W1.uniform.log_diag, W2.uniform.log_diag),
            log_add(W1.uniform.log_off, W2.uniform.log_off),
            query_count=_count_sum(W1, W2))
    return Workload.from_gram(W1.gram + W2.gram, query_count=_count_sum(W1, W2))


def union(W1: Workload, W2: Workload) -> Workload:
    """Set union of the query rows: stacked with duplicates removed."""
    if W1.n != W2.n:
        raise DimensionMismatch(f"cannot union workloads on {W1.n} and {W2.n} cells")
    if not (W1.is_explicit and W2.is_explicit):
        raise ExplicitRequired("union needs explicit rows to detect duplicates")
    return Workload.from_matrix(np.vstack([W1.matrix, W2.matrix]), dedup=True)


def crossproduct(W1: Workload, W2: Workload) -> Workload:
    """Queries w1_i * w2_j over the product domain, row-major on both axes.

    The Gram is the Kronecker product of the factor Grams (see kron_product).
    """
    return kron_product([W1, W2])


def _require_predicate(W: Workload, side: str):
    if not W.is_explicit:
        raise ExplicitRequired(f"conjunction needs explicit rows for the {side} workload")
    if not np.isin(W.matrix, (0.0, 1.0)).all():
        raise NotPredicate(f"{side} workload has entries outside {{0, 1}}")


def conjunction(W1: Workload, W2: Workload) -> Workload:
    """Entrywise AND of predicate pairs: the 0/1 crossproduct."""
    _require_predicate(W1, "left")
    _require_predicate(W2, "right")
    return crossproduct(W1, W2)
