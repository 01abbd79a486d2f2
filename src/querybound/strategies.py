"""Constructors of strategies and a uniform evaluator against the spectral bound.

A strategy is the query set actually submitted to the noise mechanism, held
as a Workload like any other query set; the workload's answers are recovered
from it. This module builds the standard ones (identity, the workload itself,
fanout-k hierarchical trees, Haar wavelets, and the Gram-square-root strategy
that achieves the certificate bound) and evaluates any of them analytically.
"""

import math
from collections import deque

import numpy as np

from .exceptions import DimOutOfRange, ExplicitRequired, NotPowerOfTwo
from .logspace import log_add
from .mechanism import StrategyErrorReport, _as_strategy, analytic_total_error
from .numkernel import EigenPair, clean_spectrum, psd_sqrt_of
from .workloads import (
    _LAZY,
    Workload,
    _exact_gram,
    _read_matrix_csv,
    _write_matrix_csv,
    check_gram_cells,
    kron_product,
)


def _helmert(k: int) -> np.ndarray:
    """k x (k-1) orthonormal contrasts; column m is (1, ..., 1, -m, 0, ...) / sqrt(m(m+1))."""
    H = np.zeros((k, k - 1))
    for m in range(1, k):
        H[:m, m - 1] = 1.0
        H[m, m - 1] = -m
        H[:, m - 1] /= math.sqrt(m * (m + 1))
    return H


def _block_contrasts(n: int, k: int) -> np.ndarray:
    """Orthonormal basis of n = k^j cells, as columns: the constant vector,
    then for each block of b = n, n/k, ..., k cells the k - 1 Helmert
    contrasts between its k children, larger blocks first. Column-major, so
    each vector is contiguous."""
    V = np.zeros((n, n), order="F")
    V[:, 0] = 1.0 / math.sqrt(n)
    H = _helmert(k)
    cells = np.arange(n)[:, None]
    col, b = 1, n
    while b > 1:
        c = b // k
        V[cells, col + (cells // b) * (k - 1) + np.arange(k - 1)] = \
            H[(cells[:, 0] % b) // c] / math.sqrt(c)
        col += n // b * (k - 1)
        b = c
    return V


def _block_spectrum(n: int, k: int, constant, contrast) -> np.ndarray:
    """Eigenvalues in _block_contrasts order: constant on the constant vector,
    contrast(b) on each of the (k-1) n/b contrasts of the b-cell blocks."""
    values, b = [constant], n
    while b > 1:
        values += [contrast(b)] * (n // b * (k - 1))
        b //= k
    return np.array(values, dtype=np.float64)


def _is_power(n: int, k: int) -> bool:
    while n % k == 0:
        n //= k
    return n == 1


def identity_strategy(n: int) -> Workload:
    """One query per cell: the baseline strategy. Its Gram is I: mu = 1 on
    the standard basis."""
    if n < 1:
        raise DimOutOfRange(f"n must be >= 1, got {n}")
    check_gram_cells(n)
    A = Workload(n, matrix=_LAZY, query_count=n)
    A._defer_rows(lambda: np.eye(n), np.ones(n))
    A._attach_basis(np.ones(n), lambda: np.eye(n, order="F"))
    return A


def workload_strategy(W: Workload) -> Workload:
    """Submit the workload itself as the strategy."""
    return W


def hierarchical_strategy(n: int, fanout: int = 2) -> Workload:
    """Interval-tree strategy: one row per node of a fanout-ary tree.

    The root sums the whole domain, leaves are singletons, and uneven splits
    give the last child the remainder, so the depth is ceil(log_fanout n)+1
    levels and each cell appears in exactly that many rows when n is a power
    of fanout. Such a regular tree has closed-form eigenpairs on the block
    contrasts: (b-1)/(k-1) on those of a b-cell block, (nk-1)/(k-1) on the
    constant vector (Hay et al., VLDB 2010).
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

    def rows():
        M = np.zeros((len(nodes), n))
        for r, (lo, size) in enumerate(nodes):
            M[r, lo:lo + size] = 1.0
        return M

    # a cell's column count is the number of nodes covering it: a running
    # sum over +1 at each node's first cell and -1 past its last
    edges = np.zeros(n + 1)
    np.add.at(edges, [lo for lo, _ in nodes], 1.0)
    np.add.at(edges, [lo + size for lo, size in nodes], -1.0)
    A = Workload(n, matrix=_LAZY, query_count=len(nodes))
    A._defer_rows(rows, np.cumsum(edges[:n]))
    if _is_power(n, fanout):
        k = fanout
        values = _block_spectrum(n, k, (n * k - 1) // (k - 1), lambda b: (b - 1) // (k - 1))
        A._attach_basis(values, lambda: _block_contrasts(n, k))
    return A


def haar_strategy(n: int) -> Workload:
    """Unnormalized Haar wavelet rows: a total row plus +1/-1 half-blocks.

    Every column carries exactly log2(n) + 1 nonzero entries, all of
    magnitude one, so the squared L2 sensitivity is log2(n) + 1. The rows are
    orthogonal, so the Gram's eigenvectors are the normalized rows: b on a
    contrast of b cells and n on the constant vector (Xiao, Wang and Gehrke,
    ICDE 2010).
    """
    n = int(n)
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"Haar strategy needs n = 2^k, got {n}")
    check_gram_cells(n)

    def rows():
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
        return M

    A = Workload(n, matrix=_LAZY, query_count=n)
    A._defer_rows(rows, np.full(n, n.bit_length()))  # log2(n) + 1 rows per cell
    A._attach_basis(_block_spectrum(n, 2, n, lambda b: b), lambda: _block_contrasts(n, 2))
    return A


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


def sqrt_strategy(G, explicit: bool = False) -> Workload:
    """The strategy whose Gram is the matrix square root of the workload Gram.

    Its error meets the looseness upper bound d0 * trace(sqrt(G)) * P and
    collapses to P * svdb exactly when the tightness certificate holds.
    Accepts a Workload or a Gram matrix, which enters as Workload.from_gram;
    explicit=True realizes the strategy as the symmetric fourth root for use
    in the sampling mechanisms. Both roots come from G.gram_eig(), which also
    fills the spectrum cache svdb reads, and keep its eigenpairs: the root's
    Gram carries the basis (sqrt(clean_spectrum(values)), vectors), so
    evaluating it solves nothing.
    """
    if not isinstance(G, Workload):
        G = Workload.from_gram(G)
    if G.uniform is not None and not G.uniform.materializable():
        if explicit:
            raise ExplicitRequired(
                "sqrt strategy for this workload exceeds float range; "
                "only the log-space Gram form exists")
        return _uniform_sqrt(G)
    pair = G.gram_eig()
    root = EigenPair(np.sqrt(clean_spectrum(pair.values)), pair.vectors)
    if explicit:
        A = Workload.from_matrix(psd_sqrt_of(root), dedup=False)  # the fourth root
    else:
        A = _exact_gram(psd_sqrt_of(pair))
    A._attach_basis(root.values, lambda: root.vectors)
    return A


def kron_strategy(parts) -> Workload:
    """Kronecker product of per-dimension strategies (row-major cell order);
    a raw matrix part is taken as explicit strategy rows."""
    return kron_product([_as_strategy(p) for p in parts])


def evaluate_strategy(W: Workload, A, params=None) -> StrategyErrorReport:
    """Analytic error report of a strategy (or raw matrix) on a workload."""
    return analytic_total_error(W, A, params)


def save_strategy_csv(A, path):
    A = _as_strategy(A)
    if not A.is_explicit:
        raise ExplicitRequired("only explicit strategies serialize to CSV")
    _write_matrix_csv(A.matrix, path, "strategy")


def load_strategy_csv(path) -> Workload:
    return Workload.from_matrix(_read_matrix_csv(path, "strategy"), dedup=False)
