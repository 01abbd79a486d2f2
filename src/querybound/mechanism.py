"""Gaussian and strategy-based mechanisms, and the analytic error they incur.

The strategy mechanism answers a workload W by submitting a strategy A to the
Gaussian mechanism and recovering W's answers via W A^+. Its total error
(sum of per-query MSE) is P(eps, delta) * sens(A)^2 * trace(G_W pinv(G_A)),
which this module evaluates exactly, including a scaled log-space path for
workloads far outside float range, and validates by Monte-Carlo.
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
from .logspace import json_num, log_add, log_sub, log10_of, to_float
from .numkernel import (
    EIG_ZERO_REL,
    pinv_trace_and_residual,
    pseudoinverse,
    quadratic_forms,
)
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
    if A.is_explicit:
        M = A.matrix
        if norm == "l2":
            return float(np.sqrt(np.max(np.sum(M * M, axis=0), initial=0.0)))
        return float(np.max(np.sum(np.abs(M), axis=0), initial=0.0))
    if norm == "l1":
        raise GramOnlyL1("L1 sensitivity needs explicit rows, not just a Gram")
    if A.uniform is not None:
        return to_float(0.5 * A.uniform.log_diag)
    return float(np.sqrt(np.max(A.gram_diag(), initial=0.0)))


def _sens_sq_log(A: Workload) -> float:
    """ln of the squared L2 sensitivity, exact for every representation."""
    if A.uniform is not None:
        return A.uniform.log_diag
    top = float(np.max(A.gram_diag(), initial=0.0)) if not A.is_explicit \
        else float(np.max(np.sum(A.matrix * A.matrix, axis=0), initial=0.0))
    return math.log(top) if top > 0 else -math.inf


def _pinv_trace_inputs(W: Workload, A: Workload) -> tuple:
    """pinv_trace_and_residual inputs (quads, values, total) for G_W and G_A.

    When W and A are products over the same factor sizes, each is the
    Kronecker product (or, for the trace, the product) of the factors'
    inputs, so nothing n x n is formed; otherwise G_A's eigenpairs give them.
    """
    if W.factors is not None and A.factors is not None and \
            [f.n for f in W.factors] == [f.n for f in A.factors]:
        quads, values, totals = zip(*[_pinv_trace_inputs(w, a)
                                      for w, a in zip(W.factors, A.factors)])
        return reduce(np.kron, quads), reduce(np.kron, values), math.prod(totals)
    pair = A.gram_eig()
    return quadratic_forms(W.gram, pair), pair.values, W.gram_trace()


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
    Workloads and strategies may each be explicit, Gram-only, or uniform;
    combinations outside float range are evaluated fully in log space.
    """
    A = _as_strategy(A)
    if A.n != W.n:
        raise DimensionMismatch(f"strategy covers {A.n} cells, workload {W.n}")
    p = p_factor_of(params)
    log_p = math.log(p)
    log_sens_sq = _sens_sq_log(A)
    # A's spectrum before svdb_log(W): when A is W, svdb reads the values it left
    spectrum = None
    if A.uniform is None:
        spectrum = A.gram_eig() if W.uniform is not None else _pinv_trace_inputs(W, A)
    log_svdb = svdb_log(W)
    n = W.n

    if W.uniform is None and A.uniform is None:
        trace, resid = pinv_trace_and_residual(*spectrum)
        if resid > SUPPORT_TOL_GRAM:
            raise SupportViolation(
                f"strategy does not support workload: trace residual {resid:.3e} "
                f"exceeds {SUPPORT_TOL_GRAM:.0e} (relative)")
        log_err = log_p + log_sens_sq + (math.log(trace) if trace > 0 else -math.inf)
    elif W.uniform is not None and A.uniform is None:
        la, lb = W.uniform.log_diag, W.uniform.log_off
        values, vectors = spectrum
        top = values[0] if values.size else 0.0
        kept = values > EIG_ZERO_REL * max(top, 0.0)
        if int(kept.sum()) < n:
            # the uniform Gram is positive definite, so A must have full rank
            raise SupportViolation(
                f"strategy rank {int(kept.sum())} cannot support a full-rank "
                f"workload on {n} cells")
        resid = 0.0
        t1 = float(np.sum(1.0 / values))
        ones_proj = np.sum(vectors, axis=0) ** 2  # (1' v_k)^2
        t2 = float(np.sum(ones_proj / values))
        l_dm1 = log_sub(la, lb)  # ln(diag - off)
        r = math.exp(lb - l_dm1) if lb != -math.inf else 0.0
        log_err = log_p + log_sens_sq + l_dm1 + math.log(t1 + r * t2)
    elif W.uniform is None and A.uniform is not None:
        lgd, lgo = A.uniform.log_diag, A.uniform.log_off
        tw = W.gram_trace()
        sw = float(np.sum(W.gram))
        resid = 0.0  # uniform strategy Grams are positive definite
        l_tw = math.log(tw) if tw > 0 else -math.inf
        l_sw = math.log(sw) if sw > 0 else -math.inf
        l_top = log_add(lgd, math.log(n - 1) + lgo) if n > 1 else lgd
        l_term = log_sub(l_tw, lgo + l_sw - l_top) if sw > 0 else l_tw
        log_err = log_p + lgd + l_term - log_sub(lgd, lgo)
    else:
        la, lb = W.uniform.log_diag, W.uniform.log_off
        lgd, lgo = A.uniform.log_diag, A.uniform.log_off
        resid = 0.0
        if n == 1:
            log_err = log_p + la
        else:
            term1 = math.log(n - 1) + log_sub(la, lb) - log_sub(lgd, lgo)
            term2 = log_add(la, math.log(n - 1) + lb) \
                - log_add(lgd, math.log(n - 1) + lgo)
            log_err = log_p + lgd + log_add(term1, term2)

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
