"""Gaussian and strategy-based mechanisms, and the analytic error they incur.

The strategy mechanism answers a workload W by submitting a strategy A to the
Gaussian mechanism and recovering W's answers via W A^+. Its total error
(sum of per-query MSE) is P(eps, delta) * sens(A)^2 * trace(G_W pinv(G_A)),
and the trace is sum_g Q_g / mu_g over A's eigenspaces g, with mu_g A's
eigenvalue on g and Q_g the trace of G_W on g. Every storage form provides
these terms, with a log scale for those beyond float range, and the error is
evaluated from them on one path. Monte-Carlo runs validate it.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bounds import svdb_log
from .exceptions import (
    DimensionMismatch,
    DimOutOfRange,
    ExplicitRequired,
    GramOnlyL1,
    NonFinite,
    SupportViolation,
)
from .logspace import json_num, log10_of, to_float
from .numkernel import pinv_trace_and_residual, pseudoinverse, quadratic_forms
from .privacy import PrivacyParams, p_factor_of
from .workloads import Workload

SUPPORT_TOL_MATRIX = 1e-7  # relative Frobenius residual of W A^+ A - W
SUPPORT_TOL_GRAM = 1e-6  # relative trace residual of G_W off A's row space


class GaussianNoise:
    """Deterministic stream of standard normals, splittable by trial index.

    Each trial draws from an independent child stream derived from (seed,
    trial), so any trial can be reproduced on its own.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def generator(self, trial: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(trial),))
        return np.random.Generator(np.random.PCG64(ss))

    def sample(self, size: int, trial: int = 0) -> np.ndarray:
        return self.generator(trial).standard_normal(size)


class ZeroNoise:
    """Noise stream that always returns zeros (mechanism sanity checks)."""

    def sample(self, size: int, trial: int = 0) -> np.ndarray:
        return np.zeros(size)


def _as_strategy(A) -> Workload:
    inner = getattr(A, "workload", None)  # unwrap tagged Strategy objects
    if isinstance(inner, Workload):
        return inner
    if isinstance(A, Workload):
        return A
    return Workload.from_matrix(np.asarray(A, dtype=float), dedup=False)


def sensitivity(A, norm: str = "l2") -> float:
    """Max column norm of the strategy: its L2 or L1 sensitivity."""
    A = _as_strategy(A)
    norm = norm.lower()
    if norm not in ("l1", "l2"):
        raise ValueError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if norm == "l1":
        if not A.is_explicit:
            raise GramOnlyL1("L1 sensitivity needs explicit rows, not just a Gram")
        return float(np.max(np.sum(np.abs(A.matrix), axis=0), initial=0.0))
    if A.uniform is not None:
        return to_float(0.5 * A.uniform.log_diag)
    return float(np.sqrt(np.max(A.gram_diag(), initial=0.0)))


def _sens_sq_log(A: Workload) -> float:
    """ln of the squared L2 sensitivity, exact for every representation."""
    if A.uniform is not None:
        return A.uniform.log_diag
    top = float(np.max(A.gram_diag(), initial=0.0))
    return math.log(top) if top > 0 else -math.inf


def _constant_and_trace(W: Workload) -> tuple:
    """(ln scale, 1'G_W 1 / n, trace(G_W)), the last two divided by exp(scale)."""
    if W.uniform is not None:
        l_gap, l_ratio = W.uniform.log_spectrum(W.n)
        ratio = math.exp(l_ratio)
        return l_gap, ratio, ratio + (W.n - 1)
    return 0.0, float(np.sum(W.gram)) / W.n, W.gram_trace()


def _pinv_trace_inputs(W: Workload, A: Workload) -> tuple:
    """(ln scale, quads, values, total) with trace(G_W pinv(G_A)) equal to
    exp(scale) times pinv_trace_and_residual(quads, values, total).

    The strategy's form gives the eigenspaces:
    - aligned products (W and A over the same factor sizes): Kronecker
      products of the factors' terms, so nothing n x n is formed;
    - a uniform strategy: the constant vector and its complement, with
      eigenvalues gap * ratio and gap, the gap carried on the scale;
    - otherwise G_A's eigenvectors, on which a uniform G_W = gap (I + r 11')
      has forms gap (1 + r (1'v)^2). Their sum over the complete basis is
      the total, so a full-rank strategy leaves a residual of exactly 0.
    """
    if W.factors is not None and A.factors is not None and \
            [f.n for f in W.factors] == [f.n for f in A.factors]:
        scales, quads, values, totals = zip(*[_pinv_trace_inputs(w, a)
                                              for w, a in zip(W.factors, A.factors)])
        return (sum(scales), reduce(np.kron, quads), reduce(np.kron, values),
                math.prod(totals))
    if A.uniform is not None:
        l_gap, l_ratio = A.uniform.log_spectrum(A.n)
        scale, const, total = _constant_and_trace(W)
        return (scale - l_gap, np.array([const, total - const]),
                np.array([math.exp(l_ratio), 1.0]), total)
    pair = A.gram_eig()
    if W.uniform is None:
        return 0.0, quadratic_forms(W.gram, pair), pair.values, W.gram_trace()
    l_gap, _ = W.uniform.log_spectrum(W.n)
    r = math.exp(W.uniform.log_off - l_gap)
    quads = 1.0 + r * np.sum(pair.vectors, axis=0) ** 2
    return l_gap, quads, pair.values, float(np.sum(quads))


def _check_data(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise DimensionMismatch(f"data vector has length {x.size}, workload needs {n}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("data vector has non-finite entries")
    return x


def gaussian_mechanism(W: Workload, x, params: PrivacyParams, noise,
                       trial: int = 0) -> np.ndarray:
    """W x plus iid Gaussian noise scaled to W's own L2 sensitivity."""
    if not W.is_explicit:
        raise ExplicitRequired("gaussian mechanism needs explicit workload rows")
    x = _check_data(x, W.n)
    sigma = sensitivity(W, "l2") * params.sigma_factor
    z = np.asarray(noise.sample(W.matrix.shape[0], trial), dtype=float)
    return W.matrix @ x + sigma * z


def _recovery_matrix(W: Workload, A: Workload) -> np.ndarray:
    """W A^+ after verifying A's rows support W (matrix-level check)."""
    if not (W.is_explicit and A.is_explicit):
        raise ExplicitRequired("matrix mechanism needs explicit workload and strategy")
    if A.n != W.n:
        raise DimensionMismatch(f"strategy covers {A.n} cells, workload {W.n}")
    WA = W.matrix @ pseudoinverse(A.matrix)
    w_norm = float(np.linalg.norm(W.matrix))
    resid = float(np.linalg.norm(WA @ A.matrix - W.matrix))
    if resid > SUPPORT_TOL_MATRIX * max(w_norm, 1e-300):
        raise SupportViolation(
            f"strategy does not support workload: residual {resid:.3e} "
            f"vs {SUPPORT_TOL_MATRIX:.0e} * ||W||_F = {SUPPORT_TOL_MATRIX * w_norm:.3e}")
    return WA


def matrix_mechanism(W: Workload, A, x, params: PrivacyParams, noise,
                     trial: int = 0) -> np.ndarray:
    """Answer W through strategy A: Wx + W A^+ (sigma z), sigma from A."""
    A = _as_strategy(A)
    WA = _recovery_matrix(W, A)
    x = _check_data(x, W.n)
    sigma = sensitivity(A, "l2") * params.sigma_factor
    z = np.asarray(noise.sample(A.matrix.shape[0], trial), dtype=float)
    return W.matrix @ x + WA @ (sigma * z)


@dataclass(frozen=True)
class StrategyErrorReport:
    """Analytic error of one (workload, strategy) pair."""

    sensitivity_l2: float
    sensitivity_l1: float | None
    p_factor: float
    total_error: float
    total_error_log10: float
    support_residual: float
    ratio_to_svdb: float

    def to_json_dict(self) -> dict:
        return {
            "sensitivity_l2": json_num(self.sensitivity_l2),
            "sensitivity_l1": json_num(self.sensitivity_l1),
            "p_factor": json_num(self.p_factor),
            "total_error": json_num(self.total_error),
            "total_error_log10": json_num(self.total_error_log10),
            "support_residual": json_num(self.support_residual),
            "ratio_to_svdb": json_num(self.ratio_to_svdb),
        }


def analytic_total_error(W: Workload, A, params: PrivacyParams | None = None
                         ) -> StrategyErrorReport:
    """Exact total error P * sens(A)^2 * trace(G_W pinv(G_A)).

    params=None evaluates at P = 1 (the privacy-free shape of the error).
    Every pairing of storage forms takes the same path, in log space: a
    strategy that leaves more than SUPPORT_TOL_GRAM of trace(G_W) outside its
    range raises SupportViolation.
    """
    A = _as_strategy(A)
    if A.n != W.n:
        raise DimensionMismatch(f"strategy covers {A.n} cells, workload {W.n}")
    p = p_factor_of(params)
    log_p = math.log(p)
    log_sens_sq = _sens_sq_log(A)
    # A's spectrum before svdb_log(W): when A is W, svdb reads the values it left
    scale, quads, values, total = _pinv_trace_inputs(W, A)
    log_svdb = svdb_log(W)
    trace, resid = pinv_trace_and_residual(quads, values, total)
    if resid > SUPPORT_TOL_GRAM:
        raise SupportViolation(
            f"strategy does not support workload: trace residual {resid:.3e} "
            f"exceeds {SUPPORT_TOL_GRAM:.0e} (relative)")
    log_err = log_p + log_sens_sq + scale + (math.log(trace) if trace > 0 else -math.inf)

    ratio = math.exp(log_err - log_p - log_svdb) if log_err != -math.inf else 0.0
    return StrategyErrorReport(
        sensitivity_l2=to_float(0.5 * log_sens_sq),
        sensitivity_l1=sensitivity(A, "l1") if A.is_explicit else None,
        p_factor=p,
        total_error=to_float(log_err),
        total_error_log10=log10_of(log_err),
        support_residual=resid,
        ratio_to_svdb=ratio,
    )


def equalize_columns(A) -> Workload:
    """Append diagonal rows so every column norm reaches the sensitivity.

    The result answers the same workloads with never-larger error and the
    same sensitivity; rows appended for already-full columns are dropped.
    """
    A = _as_strategy(A)
    if not A.is_explicit:
        raise ExplicitRequired("column equalization needs explicit rows")
    M = A.matrix
    col_sq = np.sum(M * M, axis=0)
    top = float(np.max(col_sq, initial=0.0))
    deficit = np.clip(top - col_sq, 0.0, None)
    extra = [np.sqrt(deficit[j]) * np.eye(1, A.n, j)[0]
             for j in range(A.n) if deficit[j] > 0]
    if not extra:
        return A
    return Workload.from_matrix(np.vstack([M] + extra), dedup=False)


def empirical_error(W: Workload, A, x, params: PrivacyParams, trials: int,
                    seed: int = 0, noise=None):
    """Monte-Carlo total squared error of the strategy mechanism.

    Returns (mean, standard error) over independent trials, run serially;
    deterministic for a fixed seed.
    """
    trials = int(trials)
    if trials < 2:
        raise DimOutOfRange(f"need at least 2 trials, got {trials}")
    A = _as_strategy(A)
    WA = _recovery_matrix(W, A)
    _check_data(x, W.n)  # the error does not depend on x, but validate anyway
    sigma = sensitivity(A, "l2") * params.sigma_factor
    B = sigma * WA
    if noise is None:
        noise = GaussianNoise(seed)
    errs = np.empty(trials)
    for t in range(trials):
        e = B @ np.asarray(noise.sample(B.shape[1], t), dtype=float)
        errs[t] = e @ e
    mean = float(errs.mean())
    return mean, float(errs.std(ddof=1) / math.sqrt(trials))
