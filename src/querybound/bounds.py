"""The spectral lower bound on workload error, its variants, and certificates.

svdb(W) = (sum of singular values)^2 / n is a lower bound on the unit-noise
total error achievable by any strategy satisfying the support condition; it
is computed from the Gram spectrum. The projected variant maximizes over
column projections (it can exceed the plain bound). The tightness certificate
(equal diagonal of sqrt(Gram)) characterizes exactly when some strategy
achieves the bound, and the looseness factor bounds the gap when it does not.
"""

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exceptions import (
    DimOutOfRange,
    FamilyTooLarge,
    NotVariableAgnostic,
    SubsetTooLarge,
)
from .logspace import json_num, log_add, log10_of, to_float
from .numkernel import EigenPair, clean_spectrum, kron_matvec, sym_eig
from .privacy import p_factor_of
from .workloads import UniformGram, Workload, check_subset, column_project

RANGE_FAMILY_CAP = 10 ** 6
EXHAUSTIVE_CELL_CAP = 20
TIGHT_SPREAD_TOL = 1e-8


def _singular_value_sum(W: Workload) -> float:
    """Sum of sqrt Gram eigenvalues, read from the workload's spectrum cache."""
    return float(np.sum(np.sqrt(clean_spectrum(W.gram_eigvals()))))


def uniform_svdb_log(log_diag: float, log_off: float, n: int) -> float:
    """ln svdb for a Gram with constant diagonal/off-diagonal, overflow-free.

    The spectrum is diag + (n-1) off (once) and diag - off (n-1 times), so
    svdb = (diag - off) * (sqrt(1 + n*off/(diag - off)) + n - 1)^2 / n.
    """
    if n == 1:
        return log_diag
    l_gap, l_ratio = UniformGram(log_diag, log_off).log_spectrum(n)
    return l_gap + 2.0 * log_add(0.5 * l_ratio, math.log(n - 1)) - math.log(n)


def svdb_log(W: Workload) -> float:
    """ln svdb(W); always finite even when svdb overflows float64."""
    if W.uniform is not None:
        return uniform_svdb_log(W.uniform.log_diag, W.uniform.log_off, W.n)
    s = _singular_value_sum(W)
    return 2.0 * math.log(s) - math.log(W.n) if s > 0 else -math.inf


def svdb(W: Workload) -> float:
    """(sum of sqrt Gram eigenvalues)^2 / n; inf if beyond float range."""
    if W.uniform is not None:
        return to_float(svdb_log(W))
    return _singular_value_sum(W) ** 2 / W.n


def variable_agnostic_svdb(diag: float, off: float, n: int) -> float:
    """Closed-form svdb for a Gram with constant diagonal and off-diagonal.

    Valid for any n >= 1 (the eigenstructure argument needs no power of two):
    (1/n) * (sqrt(diag + (n-1) off) + (n-1) sqrt(diag - off))^2, evaluated
    by uniform_svdb_log.
    """
    n = int(n)
    if n < 1:
        raise DimOutOfRange(f"n must be >= 1, got {n}")
    if not (diag > off >= 0) or not math.isfinite(diag):
        raise NotVariableAgnostic(f"need diag > off >= 0, got diag={diag}, off={off}")
    log_off = math.log(off) if off > 0 else -math.inf
    return to_float(uniform_svdb_log(math.log(diag), log_off, n))


def range_projection_family(dims) -> list:
    """All axis-aligned sub-ranges of the grid, as 1-based cell subsets."""
    from .workloads import _check_dims

    dims = _check_dims(dims)
    count = math.prod(d * (d + 1) // 2 for d in dims)
    if count > RANGE_FAMILY_CAP:
        raise FamilyTooLarge(f"{count} sub-ranges exceed the cap {RANGE_FAMILY_CAP}")
    strides = np.ones(len(dims), dtype=np.int64)
    for a in range(len(dims) - 2, -1, -1):
        strides[a] = strides[a + 1] * dims[a + 1]
    per_dim = [[(lo, hi) for lo in range(d) for hi in range(lo, d)] for d in dims]
    family = []
    for combo in itertools.product(*per_dim):
        cells = np.zeros(1, dtype=np.int64)
        for (lo, hi), stride in zip(combo, strides):
            cells = (cells[:, None] + stride * np.arange(lo, hi + 1)[None, :]).ravel()
        family.append(tuple(int(c) + 1 for c in np.sort(cells)))
    return family


def exhaustive_projection_family(n: int) -> list:
    """Every non-empty cell subset; only permitted for n <= 20."""
    if n > EXHAUSTIVE_CELL_CAP:
        raise SubsetTooLarge(f"2^{n}-1 subsets exceed the exhaustive cap (n <= {EXHAUSTIVE_CELL_CAP})")
    cells = list(range(1, n + 1))
    family = []
    for size in range(1, n + 1):
        family.extend(itertools.combinations(cells, size))
    return family


def svdb_projected(W: Workload, family):
    """Max of svdb over the column projections in family.

    Returns (best value, best subset); ties resolve to the lexicographically
    smallest subset so results are independent of evaluation order.
    """
    subsets = [tuple(sorted(set(int(i) for i in mu))) for mu in family]
    if not subsets:
        raise DimOutOfRange("projection family is empty")
    for mu in subsets:
        check_subset(mu, W.n)
    if W.uniform is not None:
        # value depends only on subset size; evaluate each size once
        by_size = {}
        for mu in subsets:
            k = len(mu)
            if k not in by_size:
                by_size[k] = uniform_svdb_log(W.uniform.log_diag, W.uniform.log_off, k)
        logs = [by_size[len(mu)] for mu in subsets]
    else:
        logs = [svdb_log(column_project(W, mu)) for mu in subsets]
    best_log, best_mu = logs[0], subsets[0]
    for l, mu in zip(logs[1:], subsets[1:]):
        if l > best_log or (l == best_log and mu < best_mu):
            best_log, best_mu = l, mu
    return to_float(best_log), best_mu


def greedy_projected_svdb(W: Workload, restarts: int = 8, seed: int = 0):
    """Heuristic search for a high-svdb projection (no optimality guarantee).

    Hill-climbs by adding/removing one cell at a time from the current subset,
    restarting from the full set once and from random subsets otherwise.
    """
    rng = np.random.default_rng(seed)
    n = W.n

    def value(mask):
        mu = tuple(np.flatnonzero(mask) + 1)
        return svdb_log(column_project(W, mu)), mu

    best = value(np.ones(n, dtype=bool))
    for r in range(max(1, int(restarts))):
        mask = np.ones(n, dtype=bool) if r == 0 else rng.random(n) < 0.5
        if not mask.any():
            mask[int(rng.integers(n))] = True
        cur = value(mask)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                if mask[i] and mask.sum() == 1:
                    continue
                mask[i] = ~mask[i]
                cand = value(mask)
                if cand[0] > cur[0]:
                    cur, improved = cand, True
                else:
                    mask[i] = ~mask[i]
        if cur[0] > best[0] or (cur[0] == best[0] and cur[1] < best[1]):
            best = cur
    return to_float(best[0]), best[1]


def _sqrt_diag_and_trace(values: np.ndarray, diag_of) -> tuple:
    """(diag(sqrt(G)), trace(sqrt(G))) from G's eigenvalues, cut off as psd_sqrt.

    diag_of maps a spectrum s, in the order of values, to
    diag(V diag(s) V') = sum_k v_ik^2 s_k over the matching eigenvectors.
    """
    root = np.sqrt(clean_spectrum(values))
    return diag_of(root), float(np.sum(root))


def _dense_root_inputs(pair: EigenPair) -> tuple:
    """_sqrt_diag_and_trace inputs from eigenpairs: the einsum forms no n x n matrix."""
    return pair.values, lambda root: np.einsum("ik,k,ik->i", pair.vectors, root,
                                               pair.vectors)


def _root_inputs(W: Workload) -> tuple:
    """_sqrt_diag_and_trace inputs for W's Gram.

    A product takes them from its factors' eigenpairs: the products of their
    eigenvalues in Kronecker order, and the Kronecker mat-vec of their
    squared eigenvectors, so nothing n x n is formed.
    """
    if W.factors is None:
        return _dense_root_inputs(W.gram_eig())
    pairs = [f.gram_eig() for f in W.factors]
    squares = [p.vectors * p.vectors for p in pairs]
    return (reduce(np.kron, [p.values for p in pairs]),
            lambda root: kron_matvec(squares, root))


def _diag_spread(diag: np.ndarray) -> float:
    dmax = float(diag.max(initial=0.0))
    return float((dmax - diag.min()) / dmax) if dmax > 0 else 0.0


def tightness_certificate(G) -> tuple:
    """(tight, diag_spread) from the diagonal of sqrt(G).

    The bound is achievable exactly when all diagonal entries of sqrt(Gram)
    coincide; diag_spread = (max - min) / max of that diagonal.
    """
    spread = _diag_spread(_sqrt_diag_and_trace(*_dense_root_inputs(sym_eig(G)))[0])
    return spread <= TIGHT_SPREAD_TOL, spread


def looseness_upper_bound(G, params=None) -> float:
    """P * d0 * trace(sqrt(G)): an achievable upper bound on minimum error.

    Equals n * d0 * P * svdb / trace(sqrt(G)) and is attained by the strategy
    whose Gram is sqrt(G); collapses to P * svdb when the certificate holds.
    """
    diag, trace = _sqrt_diag_and_trace(*_dense_root_inputs(sym_eig(G)))
    return p_factor_of(params) * float(np.max(diag)) * trace


def l1_reference(W: Workload, epsilon: float) -> tuple:
    """(svdb/eps^2, trace(Gram)/eps^2): spectral bound and the constant-free
    reference lower bound for pure-epsilon mechanisms (sum of squared
    singular values); both in count^2 units."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise DimOutOfRange(f"epsilon must be positive, got {epsilon}")
    return svdb(W) / epsilon ** 2, to_float(W.frob_sq_log) / epsilon ** 2


# --- fast path for 1-D all-ranges subrange spectra --------------------------

# Newton iterations end once every step is below this fraction of its root
_PHASE_RTOL = 1e-14
# safeguarded Newton takes 4-13 passes; bisection alone would need about 50
_PHASE_MAX_ITER = 100


def range_subrange_eigvals(d: int, lo: int, hi: int) -> np.ndarray:
    """Spectrum of the 1-D all-ranges Gram restricted to cells lo..hi (1-based).

    The full Gram is (d+1) times the inverse of the Dirichlet second-difference
    tridiagonal matrix, so the principal submatrix inverts a tridiagonal T of
    size L = hi - lo + 1 with -1 off the diagonal and 2 on it, less
    alpha = (lo-1)/lo in the first corner and beta = (d-hi)/(d-hi+1) in the
    last. T has eigenvalues t_k = 4 sin^2(theta_k / 2), where theta_k is the
    root of the phase equation

        (L+1) theta + psi_alpha(theta) + psi_beta(theta) = k pi,  k = 1..L,
        psi_x(theta) = atan2(x sin(theta), 1 - x cos(theta)).

    psi_x lies in [0, pi/2) with slope above -1/2, so the left side has slope
    above L and each root is alone in [(k-1) pi/(L+1), k pi/(L+1)]: a
    safeguarded Newton iteration on all L roots at once costs O(L).
    alpha = beta = 0 gives the DST-I roots k pi/(L+1). Every step is symmetric
    in alpha and beta, so the mirror range (d+1-hi, d+1-lo) has a
    bit-identical spectrum. Eigenvalues come out in descending order.
    """
    if not (1 <= lo <= hi <= d):
        raise DimOutOfRange(f"need 1 <= lo <= hi <= d, got ({lo}, {hi}, {d})")
    L = hi - lo + 1
    alpha = (lo - 1) / lo
    beta = (d - hi) / (d - hi + 1)
    if L == 1:
        return np.array([(d + 1) / (2.0 - (alpha + beta))])
    n = L + 1
    target = np.arange(1, n, dtype=np.float64) * math.pi
    a = (target - math.pi) / n  # f(a) < 0 <= f(b): the root's bracket
    b = target / n
    theta = b.copy()
    a2, b2 = alpha * alpha, beta * beta
    for _ in range(_PHASE_MAX_ITER):
        cos, sin = np.cos(theta), np.sin(theta)
        ac, bc = alpha * cos, beta * cos
        f = n * theta - target
        f += np.arctan2(alpha * sin, 1.0 - ac) + np.arctan2(beta * sin, 1.0 - bc)
        # d psi_x / d theta = (x cos - x^2) / (1 + x^2 - 2 x cos)
        slope = (ac - a2) / ((1.0 + a2) - 2.0 * ac) + (bc - b2) / ((1.0 + b2) - 2.0 * bc)
        slope += n
        np.copyto(a, theta, where=f < 0)
        np.copyto(b, theta, where=f > 0)
        step = theta - f / slope
        # strict tests: a converged root may sit on its bracket's end
        np.copyto(step, 0.5 * (a + b), where=(step < a) | (step > b))
        done = np.max(np.abs(step - theta) / theta) <= _PHASE_RTOL
        theta = step
        if done:
            break
    return (d + 1) / (4.0 * np.sin(0.5 * theta) ** 2)


def range_subrange_svdb(d: int, lo: int, hi: int) -> float:
    """svdb of the 1-D all-ranges workload projected onto cells lo..hi."""
    ev = np.clip(range_subrange_eigvals(d, lo, hi), 0.0, None)
    return float(np.sum(np.sqrt(ev)) ** 2 / (hi - lo + 1))


def range_trim_projected_svdb(d: int, max_trim: int = 16):
    """Max svdb over contiguous ranges trimming <= max_trim cells per side.

    A documented subfamily of the full range family (the observed argmax for
    all-ranges workloads trims only a few boundary cells); its maximum is a
    lower bound on the supreme bound. Returns (value, (lo, hi)), the first
    maximum in (left trim, right trim) order.

    Trims (a, b) and (b, a) are mirror images with bit-identical values, and
    a tie resolves to the one with the smaller left trim, so only b >= a is
    evaluated.
    """
    best, arg = -math.inf, None
    for a in range(0, min(max_trim, d - 1) + 1):
        for b in range(a, min(max_trim, d - 1 - a) + 1):
            lo, hi = 1 + a, d - b
            v = range_subrange_svdb(d, lo, hi)
            if v > best:
                best, arg = v, (lo, hi)
    return best, arg


# --- aggregated report ------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Everything the bound analysis says about one workload."""

    svdb: float
    svdb_log10: float
    projected_svdb: float | None
    projected_subset: tuple | None
    tight: bool
    diag_spread: float
    looseness_factor: float
    l1_svdb: float
    l1_geometric: float

    def to_json_dict(self) -> dict:
        return {
            "svdb": json_num(self.svdb),
            "svdb_log10": json_num(self.svdb_log10),
            "projected_svdb": json_num(self.projected_svdb),
            "projected_subset": list(self.projected_subset) if self.projected_subset is not None else None,
            "tight": bool(self.tight),
            "diag_spread": json_num(self.diag_spread),
            "looseness_factor": json_num(self.looseness_factor),
            "l1_svdb": json_num(self.l1_svdb),
            "l1_geometric": json_num(self.l1_geometric),
        }


def bound_report(W: Workload, projections=None, epsilon: float = 1.0) -> BoundReport:
    """Assemble the full bound report; projections is an optional family."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise DimOutOfRange(f"epsilon must be positive, got {epsilon}")
    if W.uniform is not None:
        # constant-diagonal sqrt(Gram): certificate holds with zero spread
        tight, spread, loose = True, 0.0, 1.0
    else:
        # the one eigensolve (one per factor for a product): it also fills the
        # spectrum cache svdb_log reads
        d, tr = _sqrt_diag_and_trace(*_root_inputs(W))
        spread = _diag_spread(d)
        tight = spread <= TIGHT_SPREAD_TOL
        loose = W.n * float(d.max(initial=0.0)) / tr if tr > 0 else 1.0
    s_log = svdb_log(W)
    projected_v, projected_mu = (None, None)
    if projections is not None:
        projected_v, projected_mu = svdb_projected(W, projections)
    return BoundReport(
        svdb=to_float(s_log),
        svdb_log10=log10_of(s_log),
        projected_svdb=projected_v,
        projected_subset=projected_mu,
        tight=tight,
        diag_spread=spread,
        looseness_factor=loose,
        l1_svdb=to_float(s_log) / epsilon ** 2,
        l1_geometric=to_float(W.frob_sq_log) / epsilon ** 2,
    )
