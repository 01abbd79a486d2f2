"""Strategy constructors and a uniform evaluator against the spectral bound.

A strategy is the query set actually submitted to the noise mechanism; the
workload's answers are recovered from it. This module builds the standard
ones (identity, the workload itself, fanout-k hierarchical trees, Haar
wavelets, and the Gram-square-root strategy that achieves the certificate
bound) and evaluates any of them analytically.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .exceptions import DimOutOfRange, ExplicitRequired, NotPowerOfTwo
from .logspace import log_add
from .mechanism import StrategyErrorReport, analytic_total_error
from .numkernel import EigenPair, as_sym_matrix, clean_spectrum, psd_sqrt_of
from .workloads import (
    Workload,
    _exact_gram,
    _read_matrix_csv,
    _write_matrix_csv,
    check_gram_cells,
    kron_product,
)


@dataclass(frozen=True)
class Strategy:
    """A tagged strategy: the wrapped workload plus how it was built."""

    kind: str
    workload: Workload

    @property
    def n(self) -> int:
        return self.workload.n

    @property
    def is_explicit(self) -> bool:
        return self.workload.is_explicit

    @property
    def matrix(self) -> np.ndarray:
        return self.workload.matrix


def identity_strategy(n: int) -> Strategy:
    """One query per cell: the baseline strategy."""
    if n < 1:
        raise DimOutOfRange(f"n must be >= 1, got {n}")
    check_gram_cells(n)
    return Strategy("identity", Workload.from_matrix(np.eye(n), dedup=False))


def workload_strategy(W: Workload) -> Strategy:
    """Submit the workload itself as the strategy."""
    return Strategy("workload", W)


def hierarchical_strategy(n: int, fanout: int = 2) -> Strategy:
    """Interval-tree strategy: one row per node of a fanout-ary tree.

    The root sums the whole domain, leaves are singletons, and uneven splits
    give the last child the remainder, so the depth is ceil(log_fanout n)+1
    levels and each cell appears in exactly that many rows when n is a power
    of fanout.
    """
    n, fanout = int(n), int(fanout)
    if n < 1:
        raise DimOutOfRange(f"n must be >= 1, got {n}")
    if fanout < 2:
        raise DimOutOfRange(f"fanout must be >= 2, got {fanout}")
    check_gram_cells(n)
    nodes = []
    queue = deque([(0, n)])  # breadth-first so levels come out in order
    while queue:
        lo, size = queue.popleft()
        nodes.append((lo, size))
        if size > 1:
            k = min(fanout, size)
            q = -(-size // k)  # ceil keeps every child <= ceil(size/fanout),
            starts = list(range(lo, lo + size, q))  # so the depth stays log
            ends = starts[1:] + [lo + size]
            for s, e in zip(starts, ends):
                queue.append((s, e - s))
    M = np.zeros((len(nodes), n))
    for r, (lo, size) in enumerate(nodes):
        M[r, lo:lo + size] = 1.0
    return Strategy(f"hierarchical(fanout={fanout})",
                    Workload.from_matrix(M, dedup=False))


def haar_strategy(n: int) -> Strategy:
    """Unnormalized Haar wavelet rows: a total row plus +1/-1 half-blocks.

    Every column carries exactly log2(n) + 1 nonzero entries, all of
    magnitude one, so the squared L2 sensitivity is log2(n) + 1.
    """
    n = int(n)
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"Haar strategy needs n = 2^k, got {n}")
    check_gram_cells(n)
    M = np.zeros((n, n))  # the total row plus n/2 + n/4 + ... + 1 contrasts
    M[0] = 1.0
    r, block = 1, n
    while block > 1:
        half = block // 2
        for start in range(0, n, block):
            M[r, start:start + half] = 1.0
            M[r, start + half:start + block] = -1.0
            r += 1
        block = half
    return Strategy("haar", Workload.from_matrix(M, dedup=False))


def _uniform_sqrt(W: Workload) -> Workload:
    """Square root of a constant-diagonal Gram, computed on log scales.

    The root keeps the eigenspaces and takes square roots of the gap and the
    ratio, so its off-diagonal is sqrt(gap) * (sqrt(ratio) - 1) / n.
    """
    n = W.n
    l_gap, l_ratio = W.uniform.log_spectrum(n)
    l_root_gap = 0.5 * l_gap
    excess = math.expm1(0.5 * l_ratio)
    l_off = l_root_gap + math.log(excess) - math.log(n) if excess > 0 else -math.inf
    return Workload.from_uniform_gram(n, log_add(l_off, l_root_gap), l_off)


def sqrt_strategy(G, explicit: bool = False) -> Strategy:
    """Strategy whose Gram is the matrix square root of the workload Gram.

    Its error meets the looseness upper bound d0 * trace(sqrt(G)) * P and
    collapses to P * svdb exactly when the tightness certificate holds.
    Accepts a Gram matrix or a Workload; explicit=True realizes the strategy
    as the symmetric fourth root for use in the sampling mechanisms. Both
    roots come from one eigensolve: a Workload's own (which also fills the
    spectrum cache svdb reads), or that of the validated matrix.
    """
    if isinstance(G, Strategy):
        G = G.workload
    if isinstance(G, Workload):
        if G.uniform is not None and not G.uniform.materializable():
            if explicit:
                raise ExplicitRequired(
                    "sqrt strategy for this workload exceeds float range; "
                    "only the log-space Gram form exists")
            return Strategy("sqrt", _uniform_sqrt(G))
        pair = G.gram_eig()
    else:
        pair = EigenPair.of_symmetric(as_sym_matrix(G))
    if explicit:
        fourth = psd_sqrt_of(EigenPair(np.sqrt(clean_spectrum(pair.values)), pair.vectors))
        return Strategy("sqrt", Workload.from_matrix(fourth, dedup=False))
    return Strategy("sqrt", _exact_gram(psd_sqrt_of(pair)))


def kron_strategy(parts) -> Strategy:
    """Kronecker product of per-dimension strategies (row-major cell order)."""
    parts = [p if isinstance(p, Strategy) else Strategy("custom", p) for p in parts]
    return Strategy("x".join(p.kind for p in parts),
                    kron_product([p.workload for p in parts]))


def evaluate_strategy(W: Workload, A, params=None) -> StrategyErrorReport:
    """Analytic error report of a strategy (or raw matrix) on a workload."""
    A = A.workload if isinstance(A, Strategy) else A
    return analytic_total_error(W, A, params)


def save_strategy_csv(A, path):
    A = A if isinstance(A, Strategy) else Strategy("custom", A)
    if not A.is_explicit:
        raise ExplicitRequired("only explicit strategies serialize to CSV")
    _write_matrix_csv(A.matrix, path, "strategy")


def load_strategy_csv(path) -> Strategy:
    M = _read_matrix_csv(path, "strategy")
    return Strategy("custom", Workload.from_matrix(M, dedup=False))
