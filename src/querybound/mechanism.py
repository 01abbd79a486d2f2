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
import numbers
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
    StreamMismatch,
    SupportViolation,
)
from .logspace import json_num, log10_of, to_float
from .numkernel import clean_spectrum, pinv_trace_and_residual
from .privacy import PrivacyParams, p_factor_of
from .workloads import Workload

SUPPORT_TOL_MATRIX = 1e-7  # relative Frobenius residual of W A^+ A - W
SUPPORT_TOL_GRAM = 1e-6  # relative trace residual of G_W off A's row space
TRIAL_CAP = 10 ** 7  # Monte-Carlo trials per request: 80 MB of per-trial errors
BLOCK_FLOATS = 2 ** 16  # floats per block of noise draws or strategy rows


# NumPy's SeedSequence hash and PCG64 seeding (numpy/random/bit_generator.pyx,
# pcg64.c), reproduced so that a block of child streams is derived at once
_MASK32 = 0xFFFFFFFF
_MASK128 = 2 ** 128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix while entropy is mixed in
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash of generate_state's output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_HASHES = 16  # hashmix calls on a 4-word pool: 4 to fill it, 4 * 3 to mix it
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
SPAWN_KEY_CAP = 2 ** 32  # trials GaussianNoise.block serves: one spawn-key word
SEED_CHUNK = 256  # trials whose seed words are derived in one pass: bounds its temporaries


class GaussianNoise:
    """Deterministic stream of standard normals, splittable by trial index.

    Each trial draws from an independent child stream derived from (seed,
    trial), so any trial can be reproduced on its own. `generator` and
    `sample` are the per-trial definition; `block` draws many trials at once,
    bit for bit the same.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise DimOutOfRange(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self._pool = None

    def generator(self, trial: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(trial),))
        return np.random.Generator(np.random.PCG64(ss))

    def sample(self, size: int, trial: int = 0) -> np.ndarray:
        return self.generator(trial).standard_normal(size)

    def block(self, size: int, start: int, count: int) -> np.ndarray:
        """(count, size) array whose row i is sample(size, start + i), bit for bit.

        The seed's pool is mixed once; the spawn keys of SEED_CHUNK trials at
        a time are mixed in and hashed to their PCG64 seed words in one
        vectorized pass; one PCG64 is reseeded per trial. The first trial's
        words are checked against NumPy's own SeedSequence, so a change in
        NumPy's seeding raises StreamMismatch instead of drawing different
        streams.
        """
        if not 0 <= start <= start + count <= SPAWN_KEY_CAP:
            raise DimOutOfRange(f"trials {start}..{start + count - 1} are outside "
                                f"0..{SPAWN_KEY_CAP - 1}")
        out = np.empty((count, size))
        first = np.random.SeedSequence(entropy=self.seed, spawn_key=(start,))
        bg = np.random.PCG64(first)
        gen = np.random.Generator(bg)
        state = {"state": 0, "inc": 0}
        doc = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        for lo in range(0, count, SEED_CHUNK):
            keys = np.arange(start + lo, start + min(count, lo + SEED_CHUNK), dtype=np.uint64)
            words = _child_seed_words(*self._seed_pool(), keys)
            if lo == 0 and not np.array_equal(words[0], first.generate_state(4, np.uint64)):
                raise StreamMismatch(
                    f"seed words for trial {start} differ from NumPy's SeedSequence")
            for row, (s_hi, s_lo, i_hi, i_lo) in zip(out[lo:], words.tolist()):
                inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128  # pcg64_srandom_r
                state["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
                state["inc"] = inc
                bg.state = doc
                gen.standard_normal(size, out=row)
        return out

    def _seed_pool(self) -> tuple:
        """(pool, hash constant) of SeedSequence(seed) before a spawn key is
        mixed in: the pool NumPy computes, and INIT_A advanced once per
        hashmix so far, four per entropy word beyond the pool's four."""
        if self._pool is None:
            pool = [int(p) for p in np.random.SeedSequence(self.seed).pool]
            n_words = max(1, -(-self.seed.bit_length() // 32))
            hashes = _POOL_HASHES + 4 * max(0, n_words - 4)
            self._pool = pool, _INIT_A * pow(_MULT_A, hashes, 2 ** 32) & _MASK32
        return self._pool


def _child_seed_words(pool: list, hash_a: int, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(t,)).generate_state(4, uint64) for each t
    in keys (uint64, below 2^32), as a (len(keys), 4) uint64 array.

    Mixing the key word in takes one hashmix and one mix per pool word, and
    generate_state hashes the pool cyclically into eight 32-bit words. Every
    product is of two 32-bit words in uint64 arrays, masked back to 32 bits.
    """
    mask, shift = np.uint64(_MASK32), np.uint64(16)

    def scramble(x, before, after):  # x ^= h; h *= MULT; x *= h; x ^= x >> 16
        x = ((x ^ np.uint64(before)) * np.uint64(after)) & mask
        return x ^ (x >> shift)

    mixed = []
    for p in pool:
        nxt = hash_a * _MULT_A & _MASK32
        h = scramble(keys, hash_a, nxt)
        hash_a = nxt
        x = (np.uint64(_MIX_L * p & _MASK32) - np.uint64(_MIX_R) * h) & mask
        mixed.append(x ^ (x >> shift))
    hashed, hash_b = [], _INIT_B
    for i in range(8):
        nxt = hash_b * _MULT_B & _MASK32
        hashed.append(scramble(mixed[i % 4], hash_b, nxt))
        hash_b = nxt
    return np.stack([lo | (hi << np.uint64(32))
                     for lo, hi in zip(hashed[::2], hashed[1::2])], axis=1)


class ZeroNoise:
    """Noise stream that always returns zeros (mechanism sanity checks)."""

    def sample(self, size: int, trial: int = 0) -> np.ndarray:
        return np.zeros(size)

    def block(self, size: int, start: int, count: int) -> np.ndarray:
        return np.zeros((count, size))


def _as_strategy(A) -> Workload:
    """A strategy as a Workload; a raw matrix is taken as explicit rows."""
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
        # rows of 0 and +-1 entries: a column's L1 norm is its closed-form count
        sums = _column_abs_sums(A.matrix) if A._counts is None else A._counts
        return float(np.max(sums, initial=0.0))
    if A.uniform is not None:
        return to_float(0.5 * A.uniform.log_diag)
    return float(np.sqrt(np.max(A.gram_diag(), initial=0.0)))


def _column_abs_sums(M: np.ndarray) -> np.ndarray:
    """Column sums of |M|, accumulated over blocks of rows so that no
    temporary is larger than BLOCK_FLOATS."""
    rows = max(1, BLOCK_FLOATS // max(M.shape[1], 1))
    sums = np.zeros(M.shape[1])
    for i in range(0, M.shape[0], rows):
        sums += np.abs(M[i:i + rows]).sum(axis=0)
    return sums


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
    """(ln scale, quads, values) with trace(G_W pinv(G_A)) equal to exp(scale)
    times pinv_trace_and_residual(quads, values).

    The strategy's form gives the eigenspaces:
    - aligned products (W and A over the same factor sizes): Kronecker
      products of the factors' terms, so nothing n x n is formed;
    - a uniform strategy: the constant vector and its complement, with
      eigenvalues gap * ratio and gap, the gap carried on the scale;
    - otherwise A.gram_eig(): a closed-form basis where A's constructor
      attached one, else an eigensolve. W gives its forms over these
      eigenvectors: W.gram_forms (prefix sums for 1-D ranges, dense
      otherwise), or for a uniform G_W = gap (I + r 11'), gap (1 + r (1'v)^2).
    Every branch covers all of G_A's eigenspaces, so the quads sum to
    trace(G_W) and a full-rank strategy leaves a residual of exactly 0.
    """
    if W.factors is not None and A.factors is not None and \
            [f.n for f in W.factors] == [f.n for f in A.factors]:
        scales, quads, values = zip(*[_pinv_trace_inputs(w, a)
                                      for w, a in zip(W.factors, A.factors)])
        return sum(scales), reduce(np.kron, quads), reduce(np.kron, values)
    if A.uniform is not None:
        l_gap, l_ratio = A.uniform.log_spectrum(A.n)
        scale, const, total = _constant_and_trace(W)
        return (scale - l_gap, np.array([const, total - const]),
                np.array([math.exp(l_ratio), 1.0]))
    pair = A.gram_eig()
    if W.uniform is None:
        scale, quads = 0.0, W.gram_forms(pair)
    else:
        scale, _ = W.uniform.log_spectrum(W.n)
        r = math.exp(W.uniform.log_off - scale)
        quads = 1.0 + r * np.sum(pair.vectors, axis=0) ** 2
    return scale, quads, pair.values


def _check_draw(z, shape: tuple, what: str) -> np.ndarray:
    """A noise draw as a float array of exactly `shape`: a scalar or
    length-1 draw would otherwise broadcast one value over every query."""
    z = np.asarray(z, dtype=float)
    if z.shape != shape:
        raise DimensionMismatch(f"{what} has shape {z.shape}, needs {shape}")
    return z


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
    m = W.matrix.shape[0]
    z = _check_draw(noise.sample(m, trial), (m,), f"noise for trial {trial}")
    return W.matrix @ x + sigma * z


def _recovery_matrix(W: Workload, A: Workload) -> np.ndarray:
    """W A^+ after verifying A's rows support W (matrix-level check).

    With G_A = V diag(mu) V' from A.gram_eig(), A^+ = V_k diag(1/mu_k) V_k' A'
    over the eigenvectors V_k that clean_spectrum keeps, the cutoff
    analytic_total_error applies. The support residual is ||W V_d||_F / ||W||_F
    over the dropped eigenvectors V_d, which equals ||W A^+ A - W||_F / ||W||_F
    and is exactly 0 when none is dropped.
    """
    if not (W.is_explicit and A.is_explicit):
        raise ExplicitRequired("matrix mechanism needs explicit workload and strategy")
    if A.n != W.n:
        raise DimensionMismatch(f"strategy covers {A.n} cells, workload {W.n}")
    values, vectors = A.gram_eig()
    mu = clean_spectrum(values)
    kept = mu > 0
    w_norm = float(np.linalg.norm(W.matrix))
    resid = float(np.linalg.norm(W.matrix @ vectors[:, ~kept]))
    if resid > SUPPORT_TOL_MATRIX * max(w_norm, 1e-300):
        raise SupportViolation(
            f"strategy does not support workload: residual {resid:.3e} "
            f"vs {SUPPORT_TOL_MATRIX:.0e} * ||W||_F = {SUPPORT_TOL_MATRIX * w_norm:.3e}")
    V_k = vectors[:, kept]
    # multi_dot orders the products by cost: a tall W or a one-row W alike
    return np.linalg.multi_dot([W.matrix, V_k / mu[kept], V_k.T, A.matrix.T])


def matrix_mechanism(W: Workload, A, x, params: PrivacyParams, noise,
                     trial: int = 0) -> np.ndarray:
    """Answer W through strategy A: Wx + W A^+ (sigma z), sigma from A."""
    A = _as_strategy(A)
    WA = _recovery_matrix(W, A)
    x = _check_data(x, W.n)
    sigma = sensitivity(A, "l2") * params.sigma_factor
    m = A.matrix.shape[0]
    z = _check_draw(noise.sample(m, trial), (m,), f"noise for trial {trial}")
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
    scale, quads, values = _pinv_trace_inputs(W, A)
    log_svdb = svdb_log(W)
    trace, resid = pinv_trace_and_residual(quads, values)
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
    col_sq = A.gram_diag()
    top = float(np.max(col_sq, initial=0.0))
    deficit = np.clip(top - col_sq, 0.0, None)
    cols = np.flatnonzero(deficit > 0)
    if cols.size == 0:
        return A
    extra = np.zeros((cols.size, A.n))
    extra[np.arange(cols.size), cols] = np.sqrt(deficit[cols])
    return Workload.from_matrix(np.vstack([A.matrix, extra]), dedup=False)


def _r_factor(B: np.ndarray) -> np.ndarray:
    """R factor of B's QR decomposition: K'K = B'B, with min(m_W, m_A) rows.

    Taken over blocks of B's rows, each folded into the R of those before
    it, so that a tall B is never copied whole: no temporary is much larger
    than BLOCK_FLOATS or K itself.
    """
    m = B.shape[1]
    rows = max(BLOCK_FLOATS // max(m, 1), m)
    K = np.linalg.qr(B[:rows], mode="r")
    for i in range(rows, B.shape[0], rows):
        K = np.linalg.qr(np.vstack([K, B[i:i + rows]]), mode="r")
    return K


def empirical_error(W: Workload, A, x, params: PrivacyParams, trials: int,
                    seed: int = 0, noise=None):
    """Monte-Carlo total squared error of the strategy mechanism.

    Returns (mean, standard error) over independent trials; deterministic for
    a fixed seed. Trial t's error is |B z_t|^2 = |K z_t|^2 with B = sigma W A^+
    and K = _r_factor(B): K has min(m_W, m_A) rows, so neither its size nor a
    trial's cost exceeds B's. The draws z_t, t = 0..trials-1, come in blocks
    of at most BLOCK_FLOATS from noise.block(m_A, start, k), whose row i is
    z_(start+i), and each block takes one matrix product. More than TRIAL_CAP
    trials are refused.
    """
    trials = int(trials)
    if not 2 <= trials <= TRIAL_CAP:
        raise DimOutOfRange(f"trials must be in 2..{TRIAL_CAP}, got {trials}")
    if noise is None:
        noise = GaussianNoise(seed)  # validates the seed before any work
    A = _as_strategy(A)
    B = _recovery_matrix(W, A)
    _check_data(x, W.n)  # the error does not depend on x, but validate anyway
    B *= sensitivity(A, "l2") * params.sigma_factor  # sigma W A^+ (B is a fresh array)
    K = _r_factor(B)
    m = K.shape[1]
    errs = np.empty(trials)
    rows = max(1, min(trials, BLOCK_FLOATS // max(m, 1)))
    for start in range(0, trials, rows):
        k = min(rows, trials - start)
        Z = _check_draw(noise.block(m, start, k), (k, m),
                        f"noise for trials {start}..{start + k - 1}")
        Y = Z @ K.T
        errs[start:start + k] = np.einsum("ij,ij->i", Y, Y)
        del Z, Y  # freed before the next draw: one Z and one Y live at most
    mean = float(errs.mean())
    return mean, float(errs.std(ddof=1) / math.sqrt(trials))
