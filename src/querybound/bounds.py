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
from collections import defaultdict
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
from .numkernel import clean_spectrum, kron_matvec
from .privacy import p_factor_of
from .workloads import UniformGram, Workload, _check_dims, subset_cells

RANGE_FAMILY_CAP = 10 ** 6
# floats in one stacked block of projected Grams (8 MiB): svdb_projected's
# working memory stays bounded whatever the family's size
PROJECTION_BLOCK_FLOATS = 2 ** 20
EXHAUSTIVE_CELL_CAP = 20
TIGHT_SPREAD_TOL = 1e-8


def _root_sums(values: np.ndarray):
    """Sum of the square roots of clean_spectrum(values), per row of a stack."""
    return np.sum(np.sqrt(clean_spectrum(values)), axis=-1)


def _svdb_log_of_sum(s: float, n: int) -> float:
    """ln(s^2 / n), the svdb of n cells whose singular values sum to s; -inf
    for a zero sum, with no warning. Every svdb not in closed form is this."""
    return 2.0 * math.log(s) - math.log(n) if s > 0 else -math.inf


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
    return _svdb_log_of_sum(float(_root_sums(W.gram_eigvals())), W.n)


def svdb(W: Workload) -> float:
    """(sum of sqrt Gram eigenvalues)^2 / n; inf if beyond float range."""
    return to_float(svdb_log(W))


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
    dims = _check_dims(dims)
    count = math.prod(d * (d + 1) // 2 for d in dims)
    if count > RANGE_FAMILY_CAP:
        raise FamilyTooLarge(f"{count} sub-ranges exceed the cap {RANGE_FAMILY_CAP}")
    # each dim's ranges, (lo, hi) lexicographic; the last dim's are 1-based
    last = len(dims) - 1
    spans = [[range(lo + (i == last), hi + 1 + (i == last))
              for lo in range(d) for hi in range(lo, d)] for i, d in enumerate(dims)]
    # boxes over the leading dims as ascending row-major cells of those dims;
    # each further dim refines every box by each of its ranges
    family = [tuple(span) for span in spans[0]]
    for d, dim_spans in zip(dims[1:], spans[1:]):
        family = [tuple(c * d + j for c in box for j in span)
                  for box in family for span in dim_spans]
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


def _principal_svdb_logs(G: np.ndarray, subsets: list) -> list:
    """ln svdb of G's principal submatrix on each subset, in family order.

    A projection's Gram is the principal submatrix of G on its cells, so no
    projected workload is built. Subsets of one size k are stacked k x k,
    at most PROJECTION_BLOCK_FLOATS floats at a time (one subset when a
    single k x k exceeds it), and each stack is one batched eigvalsh whose
    spectra are cleaned row by row.
    """
    by_size = defaultdict(list)
    for i, mu in enumerate(subsets):
        by_size[len(mu)].append(i)
    logs = [0.0] * len(subsets)
    for k, members in by_size.items():
        step = max(1, PROJECTION_BLOCK_FLOATS // (k * k))
        for start in range(0, len(members), step):
            block = members[start:start + step]
            idx = np.array([subsets[i] for i in block], dtype=np.intp) - 1
            sums = _root_sums(np.linalg.eigvalsh(G[idx[:, :, None], idx[:, None, :]]))
            for i, s in zip(block, sums.tolist()):
                logs[i] = _svdb_log_of_sum(s, k)
    return logs


def _range_svdb_logs(d: int, subsets: list, logs: list) -> list:
    """Fill logs[i] for each contiguous subset i of the 1-D all-ranges
    workload on d cells from one _subrange_map call; returns the indices
    of the other subsets.

    A range and its mirror image have bit-identical spectra, so each is
    solved once, as the one with lo + hi <= d + 1.
    """
    rest, ranges, slot, members = [], [], {}, []
    for i, mu in enumerate(subsets):
        lo, hi = mu[0], mu[-1]
        if hi - lo + 1 != len(mu):
            rest.append(i)
            continue
        if lo + hi > d + 1:
            lo, hi = d + 1 - hi, d + 1 - lo
        j = slot.setdefault((lo, hi), len(ranges))
        if j == len(ranges):
            ranges.append((lo, hi))
        members.append((i, j))
    range_logs = _subrange_svdb_logs(d, ranges)
    for i, j in members:
        logs[i] = range_logs[j]
    return rest


def _projected_svdb_logs(W: Workload, subsets: list) -> list:
    """ln svdb of W's column projection on each subset (sorted distinct
    1-based cells), in order, with no projected workload built.

    A uniform workload's value depends only on the subset size, so each size
    is evaluated once. On the 1-D all-ranges workload (either storage form)
    a contiguous subset's value solves the phase equation (_range_svdb_logs).
    Any other is read from the principal submatrices of W.gram
    (_principal_svdb_logs).
    """
    if W.uniform is not None:
        by_size = {}
        for mu in subsets:
            k = len(mu)
            if k not in by_size:
                by_size[k] = uniform_svdb_log(W.uniform.log_diag, W.uniform.log_off, k)
        return [by_size[len(mu)] for mu in subsets]
    logs = [None] * len(subsets)
    rest = range(len(subsets))
    if W.is_all_range_1d():
        rest = _range_svdb_logs(W.n, subsets, logs)
    if rest:
        dense = _principal_svdb_logs(W.gram, [subsets[i] for i in rest])
        for i, l in zip(rest, dense):
            logs[i] = l
    return logs


def svdb_projected(W: Workload, family):
    """Max of svdb over the column projections in family.

    Returns (best value, best subset); ties resolve to the lexicographically
    smallest subset so results are independent of evaluation order. Each
    subset's value comes from _projected_svdb_logs.
    """
    subsets = [subset_cells(mu, W.n) for mu in family]
    if not subsets:
        raise DimOutOfRange("projection family is empty")
    logs = _projected_svdb_logs(W, subsets)
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
        mu = tuple((np.flatnonzero(mask) + 1).tolist())
        return _projected_svdb_logs(W, [mu])[0], mu

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


def _sqrt_certificate(G) -> tuple:
    """(tight, diag_spread, max diagonal, trace) of sqrt(G), cut off as
    psd_sqrt, for a Workload or a Gram matrix G (which enters as
    Workload.from_gram).

    The diagonal is sum_k v_ik^2 sqrt(s_k) over G's eigenpairs (s_k, v_k),
    and nothing n x n is formed. A product takes them from its factors'
    eigenpairs: the products of their eigenvalues in Kronecker order, and
    the Kronecker mat-vec of their squared eigenvectors. Any other workload
    takes them from W.gram_eig() through an einsum.
    """
    W = G if isinstance(G, Workload) else Workload.from_gram(G)
    if W.factors is None:
        pair = W.gram_eig()
        root = np.sqrt(clean_spectrum(pair.values))
        diag = np.einsum("ik,k,ik->i", pair.vectors, root, pair.vectors)
    else:
        pairs = [f.gram_eig() for f in W.factors]
        root = np.sqrt(clean_spectrum(reduce(np.kron, [p.values for p in pairs])))
        diag = kron_matvec([p.vectors * p.vectors for p in pairs], root)
    dmax = float(diag.max(initial=0.0))
    spread = float((dmax - diag.min()) / dmax) if dmax > 0 else 0.0
    return spread <= TIGHT_SPREAD_TOL, spread, dmax, float(np.sum(root))


def tightness_certificate(G) -> tuple:
    """(tight, diag_spread) from the diagonal of sqrt(G).

    The bound is achievable exactly when all diagonal entries of sqrt(Gram)
    coincide; diag_spread = (max - min) / max of that diagonal. G is a
    Workload or a Gram matrix, which enters as Workload.from_gram.
    """
    return _sqrt_certificate(G)[:2]


def looseness_upper_bound(G, params=None) -> float:
    """P * d0 * trace(sqrt(G)): an achievable upper bound on minimum error.

    Equals n * d0 * P * svdb / trace(sqrt(G)) and is attained by the strategy
    whose Gram is sqrt(G); collapses to P * svdb when the certificate holds.
    G is taken as in tightness_certificate.
    """
    _, _, dmax, trace = _sqrt_certificate(G)
    return p_factor_of(params) * dmax * trace


def l1_reference(W: Workload, epsilon: float) -> tuple:
    """(svdb/eps^2, trace(Gram)/eps^2): spectral bound and the constant-free
    reference lower bound for pure-epsilon mechanisms (sum of squared
    singular values); both in count^2 units."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise DimOutOfRange(f"epsilon must be positive, got {epsilon}")
    return svdb(W) / epsilon ** 2, to_float(W.frob_sq_log) / epsilon ** 2


# --- 1-D all-ranges sub-range spectra: one batched phase-equation kernel ----

# Newton iterations on a range end once every step is below this fraction of
# its root
_PHASE_RTOL = 1e-14
# safeguarded Newton takes 4-13 passes; bisection alone would need about 50
_PHASE_MAX_ITER = 100
# roots iterated together, which bounds the kernel's working memory: about
# 20 arrays of a block's roots are live at once. 2^12 ran table2's scans up
# to 20% faster, but its 0.7 MB blocks raised table2's peak RSS by 0.4 MB;
# at 2^10 the peak is the per-range solver's
_PHASE_BLOCK_ROOTS = 2 ** 10


def _subrange_map(d: int, ranges, per_block) -> list:
    """Apply per_block to the spectra of the 1-D all-ranges Gram restricted to
    cells lo..hi (1-based), for every (lo, hi) in ranges, one block of whole
    ranges at a time; returns its results in range order.

    per_block(values, starts), starts a list, returns one result per range of
    the block: its k-th range has eigenvalues values[starts[k]:starts[k + 1]],
    in descending order. The single cells form one block; the other ranges
    are packed in order into blocks of at most _PHASE_BLOCK_ROOTS roots, or
    one longer range. A block's arrays are dropped before the next block is
    solved, so the working memory stays bounded however many ranges are
    asked for.

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
    safeguarded Newton iteration costs O(L) per range (_phase_block). L = 1
    has the closed form (d+1) / (2 - alpha - beta). alpha = beta = 0 gives the
    DST-I roots k pi/(L+1). Every step is symmetric in alpha and beta and acts
    on each root alone, so the mirror range (d+1-hi, d+1-lo) has a
    bit-identical spectrum, and a range's spectrum does not depend on the
    other ranges asked for with it.
    """
    rng = np.array(ranges, dtype=np.int64).reshape(-1, 2)
    lo, hi = rng[:, 0], rng[:, 1]
    bad = np.flatnonzero((lo < 1) | (lo > hi) | (hi > d))
    if bad.size:
        i = bad[0]
        raise DimOutOfRange(f"need 1 <= lo <= hi <= d, got ({lo[i]}, {hi[i]}, {d})")
    L = hi - lo + 1
    alpha = (lo - 1) / lo
    beta = (d - hi) / (d - hi + 1)
    results = [None] * len(L)

    def put(members, values, starts):
        for k, x in zip(members, per_block(values, starts)):
            results[k] = x

    cells = np.flatnonzero(L == 1)
    if cells.size:
        put(cells.tolist(), (d + 1) / (2.0 - (alpha[cells] + beta[cells])),
            list(range(cells.size + 1)))
    solve = np.flatnonzero(L > 1)
    L, alpha, beta = L[solve], alpha[solve], beta[solve]
    sizes = L.tolist()
    i = 0
    while i < len(sizes):
        starts, j = [0], i
        while j < len(sizes) and (j == i or starts[-1] + sizes[j] <= _PHASE_BLOCK_ROOTS):
            starts.append(starts[-1] + sizes[j])
            j += 1
        put(solve[i:j].tolist(), _phase_block(d, L[i:j], alpha[i:j], beta[i:j], starts[-1]),
            starts)
        i = j
    return results


def _phase_block(d, L, alpha, beta, size) -> np.ndarray:
    """Eigenvalues (d+1) / (4 sin^2(theta_k / 2)) of a block of ranges (each
    L >= 2, size roots in all) from their phase-equation roots, range after
    range, k = 1..L.

    Every root takes the same safeguarded Newton step. A range leaves the
    block at the pass where all its steps fall below _PHASE_RTOL of their
    roots; one still iterating after _PHASE_MAX_ITER passes raises
    np.linalg.LinAlgError.
    """
    first = np.zeros(len(L), dtype=np.intp)  # each range's first root
    np.cumsum(L[:-1], out=first[1:])
    target = (np.arange(size) - np.repeat(first, L) + 1) * math.pi
    # per range, broadcast to its roots: L + 1, alpha, beta. A range alone in
    # its block (the long trims) keeps them scalar, as cheap in time and
    # memory as a per-range solve
    n, alpha, beta = (x[0] if len(L) == 1 else np.repeat(x, L)
                      for x in (L + 1.0, alpha, beta))
    a2, b2 = alpha * alpha, beta * beta
    # the bracket [lower, upper] of each root: f(lower) < 0 <= f(upper)
    lower, upper = (target - math.pi) / n, target / n
    theta = upper.copy()
    out = where = None  # the roots that left, and each staying root's place in out
    for _ in range(_PHASE_MAX_ITER):
        cos, sin = np.cos(theta), np.sin(theta)
        ac, bc = alpha * cos, beta * cos
        f = n * theta - target
        f += np.arctan2(alpha * sin, 1.0 - ac) + np.arctan2(beta * sin, 1.0 - bc)
        # d psi_x / d theta = (x cos - x^2) / (1 + x^2 - 2 x cos)
        slope = (ac - a2) / ((1.0 + a2) - 2.0 * ac) + (bc - b2) / ((1.0 + b2) - 2.0 * bc)
        slope += n
        np.copyto(lower, theta, where=f < 0)
        np.copyto(upper, theta, where=f > 0)
        step = theta - f / slope
        # strict tests: a converged root may sit on its bracket's end
        np.copyto(step, 0.5 * (lower + upper), where=(step < lower) | (step > upper))
        done = np.maximum.reduceat(np.abs(step - theta) / theta, first) <= _PHASE_RTOL
        theta = step
        if done.all():
            if out is not None:
                out[where] = theta
                theta = out
            return (d + 1) / (4.0 * np.sin(0.5 * theta) ** 2)
        if done.any():
            if out is None:
                out, where = np.empty(size), np.arange(size)
            leave = np.repeat(done, L)
            out[where[leave]] = theta[leave]
            stay = ~leave
            target, n, alpha, beta, a2, b2, lower, upper, theta, where = (
                x[stay] for x in (target, n, alpha, beta, a2, b2, lower, upper, theta, where))
            L = L[~done]
            first = np.zeros(len(L), dtype=np.intp)
            np.cumsum(L[:-1], out=first[1:])
    raise np.linalg.LinAlgError(
        f"phase equation of {len(L)} sub-ranges did not converge in "
        f"{_PHASE_MAX_ITER} Newton passes")


def _slices(values, starts) -> list:
    return [values[s:e] for s, e in zip(starts[:-1], starts[1:])]


def _subrange_spectra(d: int, ranges) -> list:
    """Each range's spectrum, descending, in range order (_subrange_map)."""
    return _subrange_map(d, ranges, _slices)


def _subrange_svdb_logs(d: int, ranges) -> list:
    """ln svdb of each range, in range order, from the sum of the square roots
    of its spectrum, reduced block by block (_subrange_map)."""
    return _subrange_map(d, ranges, lambda values, starts: [
        _svdb_log_of_sum(root.sum(), root.size) for root in _slices(np.sqrt(values), starts)])


def range_subrange_eigvals(d: int, lo: int, hi: int) -> np.ndarray:
    """Spectrum of the 1-D all-ranges Gram restricted to cells lo..hi (1-based),
    in descending order: a batch of one for _subrange_map."""
    return _subrange_spectra(d, [(lo, hi)])[0]


def range_subrange_svdb(d: int, lo: int, hi: int) -> float:
    """svdb of the 1-D all-ranges workload projected onto cells lo..hi."""
    return to_float(_subrange_svdb_logs(d, [(lo, hi)])[0])


def range_trim_projected_svdb(d: int, max_trim: int = 16):
    """Max svdb over contiguous ranges trimming <= max_trim cells per side.

    A documented subfamily of the full range family (the observed argmax for
    all-ranges workloads trims only a few boundary cells); its maximum is a
    lower bound on the supreme bound. Returns (value, (lo, hi)), the first
    maximum in (left trim, right trim) order.

    Trims (a, b) and (b, a) are mirror images with bit-identical values, and
    a tie resolves to the one with the smaller left trim, so only b >= a is
    evaluated, all in one _subrange_map call.
    """
    if d < 1 or max_trim < 0:
        raise DimOutOfRange(f"need d >= 1 and max_trim >= 0, got d={d}, max_trim={max_trim}")
    ranges = [(1 + a, d - b) for a in range(0, min(max_trim, d - 1) + 1)
              for b in range(a, min(max_trim, d - 1 - a) + 1)]
    best, arg = -math.inf, None
    for (lo, hi), l in zip(ranges, _subrange_svdb_logs(d, ranges)):
        v = to_float(l)
        if v > best:
            best, arg = v, (lo, hi)
    return best, arg


def range_projected_ratio(d: int) -> float:
    """Best projected svdb over sub-ranges of the d-cell all-ranges workload,
    / its plain svdb (at least 1).

    Scans every contiguous range (trims up to d - 1 cells per side) when that
    is cheap, otherwise the documented boundary-trim subfamily (argmaxes
    observed trim only a few cells).
    """
    full = range_subrange_svdb(d, 1, d)
    max_trim = d - 1 if d * (d + 1) // 2 <= 10 ** 4 else 16
    best, _ = range_trim_projected_svdb(d, max_trim)
    return max(1.0, best / full)


def predicate_projected_ratio(n: int) -> float:
    """Best projected svdb of the n-cell all-predicates workload / its plain
    svdb (at least 1).

    Projections keep the same Gram shape (diagonal 2^(n-1), off-diagonal
    2^(n-2)), so the best subset is found by scanning sizes with the closed
    form.
    """
    la, lb = (n - 1) * math.log(2.0), (n - 2) * math.log(2.0)
    full = uniform_svdb_log(la, lb, n)
    best = max(uniform_svdb_log(la, lb, k) for k in range(1, n + 1))
    return max(1.0, math.exp(best - full))


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
    if W.uniform is not None:
        # constant-diagonal sqrt(Gram): certificate holds with zero spread
        tight, spread, loose = True, 0.0, 1.0
    else:
        # the one eigensolve (one per factor for a product): it also fills the
        # spectrum cache svdb_log and l1_reference read
        tight, spread, dmax, trace = _sqrt_certificate(W)
        loose = W.n * dmax / trace if trace > 0 else 1.0
    s_log = svdb_log(W)
    l1_svdb, l1_geometric = l1_reference(W, epsilon)
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
        l1_svdb=l1_svdb,
        l1_geometric=l1_geometric,
    )
