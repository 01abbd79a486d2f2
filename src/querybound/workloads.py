"""Workload construction, representation, projection, and comparison.

A workload is a set of linear counting queries over n cells. It is held
either as an explicit m x n matrix or, when enumeration is impractical, as
its n x n Gram matrix (query count kept as exact metadata). Workloads whose
Gram has constant diagonal a and constant off-diagonal b ("variable-agnostic")
additionally carry (log a, log b) so bound and error formulas can run in log
space when a overflows float64.
"""

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DimOutOfRange,
    EmptyCuboidList,
    ExplicitRequired,
    IndexOutOfRange,
    NonFinite,
    NotVariableAgnostic,
)
from .logspace import log_add, log_sub, to_float
from .numkernel import EigenPair, as_sym_matrix

# explicit rows give way to the Gram form beyond EXPLICIT_ENTRY_CAP matrix
# entries (kron_product, all_range) or, for data cubes, EXPLICIT_CELL_CAP cells
EXPLICIT_CELL_CAP = 4096
EXPLICIT_ENTRY_CAP = 10 ** 7
# dense Grams (and explicit strategies, at least as large) beyond this many
# cells (512 MiB of float64 each) are refused
GRAM_CELL_CAP = 8192

# largest materializable Gram entry before closed forms take over
_ENTRY_LIMIT = 1e300


@dataclass(frozen=True)
class UniformGram:
    """Constant-diagonal/off-diagonal Gram held as natural logs.

    Represents G = diag * I + off * (J - I) with diag = exp(log_diag),
    off = exp(log_off); log_off = -inf encodes off = 0.
    """

    log_diag: float
    log_off: float

    def log_spectrum(self, n: int) -> tuple:
        """(ln gap, ln ratio) of the n-cell Gram, overflow-free.

        gap = diag - off is the eigenvalue of every vector orthogonal to the
        constant vector, and the constant vector's is gap * ratio, with
        ratio = 1 + n * off / gap.
        """
        l_gap = log_sub(self.log_diag, self.log_off)
        return l_gap, log_add(0.0, math.log(n) + self.log_off - l_gap)

    def materializable(self) -> bool:
        return self.log_diag < math.log(_ENTRY_LIMIT)

    def materialize(self, n: int) -> np.ndarray:
        if not self.materializable():
            raise NonFinite("Gram entries exceed float64 range; use log-space paths")
        check_gram_cells(n)
        diag, off = to_float(self.log_diag), to_float(self.log_off)
        G = np.full((n, n), off)
        np.fill_diagonal(G, diag)
        return G


class Workload:
    """Immutable set of linear counting queries over n cells.

    A product formed by kron_product keeps its flattened factors in
    `factors` (None otherwise): its spectrum, Gram diagonal and trace are
    assembled from theirs, and a Gram-form product forms its n x n Gram only
    when `gram` is read.
    """

    def __init__(self, n, matrix=None, gram=None, uniform=None, query_count=None,
                 labels=None):
        self.n = int(n)
        self.matrix = matrix
        self._gram = gram
        self.uniform = uniform
        self._query_count = query_count
        self.labels = labels
        self._gram_eigvals = None
        self.factors = None
        if self.n < 1:
            raise DimOutOfRange(f"cell count must be >= 1, got {n}")
        if matrix is None and gram is None and uniform is None:
            raise ValueError("workload needs a matrix, a Gram, or a uniform descriptor")

    @classmethod
    def from_matrix(cls, M, dedup=True, labels=None):
        M = np.atleast_2d(np.asarray(M, dtype=np.float64))
        if M.shape[0] < 1 or M.shape[1] < 1:
            raise DimOutOfRange(f"matrix shape {M.shape} is empty")
        if not np.all(np.isfinite(M)):
            raise NonFinite("workload matrix contains NaN or infinity")
        if dedup:
            _, idx = np.unique(M, axis=0, return_index=True)
            M = M[np.sort(idx)]
        M.setflags(write=False)
        return cls(M.shape[1], matrix=M, query_count=M.shape[0], labels=labels)

    @classmethod
    def from_gram(cls, G, query_count=None):
        G = as_sym_matrix(G)
        G.setflags(write=False)
        return cls(G.shape[0], gram=G, query_count=query_count)

    @classmethod
    def from_uniform_gram(cls, n, log_diag, log_off, query_count=None):
        if log_off >= log_diag:  # need diag > off for positive definiteness
            raise NotVariableAgnostic(
                f"uniform Gram needs log_diag > log_off, got {log_diag} vs {log_off}")
        return cls(n, uniform=UniformGram(log_diag, log_off), query_count=query_count)

    @property
    def is_explicit(self) -> bool:
        return self.matrix is not None

    @property
    def query_count(self):
        """Exact number of queries (Python int; may exceed float range)."""
        return self._query_count

    @property
    def gram(self) -> np.ndarray:
        """Concrete n x n Gram; materializes uniform forms when finite."""
        if self._gram is None:
            if self.matrix is not None:
                check_gram_cells(self.n)
                G = self.matrix.T @ self.matrix
                G = 0.5 * (G + G.T)
            elif self.factors is not None:
                # exactly symmetric factors: so is their Kronecker product
                G = reduce(np.kron, [f.gram for f in self.factors])
            else:
                G = self.uniform.materialize(self.n)
            G.setflags(write=False)
            self._gram = G
        return self._gram

    def gram_diag(self) -> np.ndarray:
        """Diagonal of the Gram: explicit rows give their column sums of
        squares, a product the Kronecker product of its factors' diagonals."""
        if self.matrix is not None:
            return np.sum(self.matrix * self.matrix, axis=0)
        if self.factors is not None:
            return reduce(np.kron, [f.gram_diag() for f in self.factors])
        return np.diag(self.gram)

    def gram_trace(self) -> float:
        """Trace of the Gram; a product's is the product of its factors'."""
        if self.factors is not None:
            return math.prod(f.gram_trace() for f in self.factors)
        return float(np.trace(self.gram))

    def gram_eigvals(self) -> np.ndarray:
        """Gram eigenvalues in ascending order, solved for once per workload.

        A product sorts the products of its factors' eigenvalues instead.
        Only values are kept: a cached n x n eigenvector matrix would double
        the memory a dense workload holds.
        """
        if self._gram_eigvals is None:
            if self.factors is not None:
                values = np.sort(reduce(np.kron, [f.gram_eigvals() for f in self.factors]))
            else:
                values = np.linalg.eigvalsh(self.gram)
            self._keep_eigvals(values)
        return self._gram_eigvals

    def gram_eig(self) -> EigenPair:
        """Eigenvalues and eigenvectors of the Gram (sym_eig order).

        Every call solves afresh, but the first one leaves its values in the
        cache that gram_eigvals reads. The Gram is not validated again: every
        constructor symmetrizes it where it is formed or loaded. A product
        assembles its pairs from its factors' (EigenPair.of_kron): no
        eigensolve runs at the product size.
        """
        if self.factors is not None:
            pair = EigenPair.of_kron([f.gram_eig() for f in self.factors])
        else:
            pair = EigenPair.of_symmetric(self.gram)
        if self._gram_eigvals is None:
            self._keep_eigvals(pair.values[::-1])
        return pair

    def _keep_eigvals(self, values):
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        self._gram_eigvals = values

    @property
    def frob_sq_log(self) -> float:
        """ln of the squared Frobenius norm (= Gram trace); -inf for a zero workload."""
        if self.uniform is not None:
            return math.log(self.n) + self.uniform.log_diag
        trace = self.gram_trace()
        return math.log(trace) if trace > 0 else -math.inf

    def __repr__(self):
        form = "explicit" if self.is_explicit else (
            "uniform-gram" if self.uniform is not None else "gram")
        return f"Workload(n={self.n}, form={form}, queries={self._query_count})"


def _range_rows_1d(d: int) -> np.ndarray:
    """Indicator rows of all d(d+1)/2 contiguous ranges, (start, end) lexicographic."""
    rows = np.zeros((d * (d + 1) // 2, d))
    k = 0
    for lo in range(d):
        for hi in range(lo, d):
            rows[k, lo:hi + 1] = 1.0
            k += 1
    return rows


def range_gram_1d(d: int) -> np.ndarray:
    """Gram of the 1-D all-ranges workload: G_ij = min(i,j) * (d - max(i,j) + 1)."""
    i = np.arange(1, d + 1, dtype=np.float64)
    return np.minimum.outer(i, i) * (d + 1 - np.maximum.outer(i, i))


def check_gram_cells(n: int):
    """Refuse an n x n (or larger) matrix beyond GRAM_CELL_CAP before it is allocated."""
    if n > GRAM_CELL_CAP:
        raise DimOutOfRange(
            f"a dense Gram on {n} cells exceeds the cap of {GRAM_CELL_CAP} cells")


def _check_dims(dims):
    dims = [int(d) for d in dims]
    if not dims:
        raise DimOutOfRange("dims must be non-empty")
    if any(d < 1 for d in dims):
        raise DimOutOfRange(f"every dim must be >= 1, got {dims}")
    return dims


def _exact_gram(G, query_count=None) -> Workload:
    """Gram-form workload from a Gram this module formed exactly symmetric."""
    G.setflags(write=False)
    return Workload(G.shape[0], gram=G, query_count=query_count)


def kron_product(parts) -> Workload:
    """Kronecker product of workloads over the row-major product domain.

    The one place a product of workloads is formed: explicit rows while the
    product has at most EXPLICIT_ENTRY_CAP entries, otherwise the Gram form,
    whose n x n Gram (the Kronecker product of the factor Grams, exactly
    symmetric and so not validated again) is formed only when it is read.
    Either form records the flattened factors in `factors`. A single part is
    returned unchanged.
    """
    parts = list(parts)
    if not parts:
        raise DimOutOfRange("need at least one workload to compose")
    if len(parts) == 1:
        return parts[0]
    n = math.prod(p.n for p in parts)
    if all(p.is_explicit for p in parts) and \
            math.prod(p.matrix.shape[0] for p in parts) * n <= EXPLICIT_ENTRY_CAP:
        W = Workload.from_matrix(reduce(np.kron, [p.matrix for p in parts]), dedup=False)
    else:
        check_gram_cells(n)
        counts = [p.query_count for p in parts]
        W = Workload(n, gram=(), query_count=None if None in counts else math.prod(counts))
        W._gram = None  # () only passed the constructor's check: .gram forms it
    W.factors = tuple(f for p in parts for f in (p.factors or (p,)))
    return W


def _all_range_1d(d: int, explicit: bool) -> Workload:
    if explicit:
        return Workload.from_matrix(_range_rows_1d(d), dedup=False)
    check_gram_cells(d)
    return _exact_gram(range_gram_1d(d), query_count=d * (d + 1) // 2)


def all_range(dims) -> Workload:
    """All axis-aligned range-count queries over a grid of the given dims.

    Each dimension contributes every contiguous interval including the full
    domain; multi-dim queries are products of per-dim intervals. Explicit up
    to the entry cap, Gram-only (Kronecker of per-dim Grams) beyond.
    """
    dims = _check_dims(dims)
    # the factors take the form kron_product will give their product: one
    # dimension's rows reach 80 MB (d = 271) where only its Gram is used
    explicit = math.prod(d * (d + 1) // 2 * d for d in dims) <= EXPLICIT_ENTRY_CAP
    return kron_product([_all_range_1d(d, explicit) for d in dims])


def all_predicate_gram(n: int) -> Workload:
    """The workload of all 2^n predicate (0/1) queries over n cells.

    Explicit enumeration for n <= 16; beyond that, the Gram has constant
    diagonal 2^(n-1) and off-diagonal 2^(n-2), kept in log space.
    """
    n = int(n)
    if n < 1:
        raise DimOutOfRange(f"cell count must be >= 1, got {n}")
    if n <= 16:
        codes = np.arange(2 ** n, dtype=np.uint32)
        M = ((codes[:, None] >> np.arange(n)) & 1).astype(np.float64)
        return Workload.from_matrix(M, dedup=False)
    ln2 = math.log(2.0)
    return Workload.from_uniform_gram(n, (n - 1) * ln2, (n - 2) * ln2,
                                      query_count=2 ** n)


def data_cube(dims, cuboids, weights) -> Workload:
    """Weighted union of cuboids: one group-by counting query set per cuboid.

    A cuboid is a subset of attribute indices (1-based); it contributes one
    query per value combination of those attributes, each summing all cells
    that agree on them, scaled by the cuboid's weight. The empty cuboid is
    the single total-sum query. Rows repeated across cuboids are all kept, so
    the explicit form has the same Gram as the Gram-only form.
    """
    dims = _check_dims(dims)
    cuboids = [tuple(sorted(set(int(a) for a in c))) for c in cuboids]
    if not cuboids:
        raise EmptyCuboidList("at least one cuboid is required")
    for c in cuboids:
        if any(a < 1 or a > len(dims) for a in c):
            raise IndexOutOfRange(f"cuboid {c} references attributes outside 1..{len(dims)}")
    weights = [float(w) for w in weights]
    if len(weights) != len(cuboids):
        raise DimensionMismatch(f"{len(cuboids)} cuboids but {len(weights)} weights")
    if any(not (w > 0 and math.isfinite(w)) for w in weights):
        raise DimOutOfRange(f"weights must be positive finite, got {weights}")

    n = math.prod(dims)
    m = sum(math.prod(dims[a - 1] for a in c) for c in cuboids)
    if n <= EXPLICIT_CELL_CAP and m * n <= EXPLICIT_ENTRY_CAP:
        blocks = []
        for c, w in zip(cuboids, weights):
            parts = [np.eye(d) if (a + 1) in c else np.ones((1, d))
                     for a, d in enumerate(dims)]
            blocks.append(w * reduce(np.kron, parts))
        return Workload.from_matrix(np.vstack(blocks), dedup=False)
    check_gram_cells(n)
    G = np.zeros((n, n))
    for c, w in zip(cuboids, weights):
        parts = [np.eye(d) if (a + 1) in c else np.ones((d, d))
                 for a, d in enumerate(dims)]
        G += w * w * reduce(np.kron, parts)
    return _exact_gram(G, query_count=m)


def check_subset(mu, n) -> np.ndarray:
    """Validate a 1-based cell subset against n; returns sorted 0-based indices."""
    idx = sorted(set(int(i) for i in mu))
    if not idx:
        raise IndexOutOfRange("projection subset is empty")
    if idx[0] < 1 or idx[-1] > n:
        raise IndexOutOfRange(f"subset {idx} not within 1..{n}")
    return np.asarray(idx, dtype=np.intp) - 1


def column_project(W: Workload, mu) -> Workload:
    """Restrict a workload to the cells in mu (1-based indices).

    Rows are kept verbatim (including rows that become zero or duplicate):
    the Gram of the projection is the principal submatrix of the Gram.
    """
    idx = check_subset(mu, W.n)
    if W.is_explicit:
        labels = [W.labels[i] for i in idx] if W.labels else None
        M = np.ascontiguousarray(W.matrix[:, idx])
        M.setflags(write=False)
        return Workload(len(idx), matrix=M, query_count=W.matrix.shape[0],
                        labels=labels)
    if W.uniform is not None:
        return Workload(len(idx), uniform=W.uniform, query_count=W.query_count)
    # a principal submatrix of an exactly symmetric Gram is exactly symmetric
    return _exact_gram(W.gram[np.ix_(idx, idx)], query_count=W.query_count)


def _comparable_grams(W1: Workload, W2: Workload):
    """Concrete Gram pair for comparison, or None if only log-space forms exist."""
    mats = []
    for W in (W1, W2):
        if W.uniform is not None and not W.uniform.materializable():
            return None
        mats.append(W.gram)
    return mats


def equivalent(W1: Workload, W2: Workload) -> bool:
    """True iff the workloads have equal Grams (identical error behavior)."""
    if W1.n != W2.n:
        raise DimensionMismatch(f"cell counts differ: {W1.n} vs {W2.n}")
    pair = _comparable_grams(W1, W2)
    if pair is None:
        if W1.uniform is None or W2.uniform is None:
            return False  # one side finite, the other beyond float range
        return (abs(W1.uniform.log_diag - W2.uniform.log_diag) <= 1e-9
                and abs(W1.uniform.log_off - W2.uniform.log_off) <= 1e-9)
    G1, G2 = pair
    tol = 1e-9 * max(np.max(np.abs(G1)), np.max(np.abs(G2)), 1e-300)
    return bool(np.max(np.abs(G1 - G2)) <= tol)


def contained_in(W1: Workload, W2: Workload) -> bool:
    """True iff W2's Gram dominates W1's (W2 can emulate W1 plus a remainder).

    Decided by PSD-ness of gram(W2) - gram(W1) with a relative eigenvalue
    tolerance so that contained_in(W, W) survives float round-off.
    """
    if W1.n != W2.n:
        raise DimensionMismatch(f"cell counts differ: {W1.n} vs {W2.n}")
    pair = _comparable_grams(W1, W2)
    if pair is None:
        raise NonFinite("containment needs materializable Grams on both sides")
    G1, G2 = pair
    lam = np.linalg.eigvalsh(0.5 * ((G2 - G1) + (G2 - G1).T))
    scale = max(float(lam[-1]), np.max(np.abs(G1)), np.max(np.abs(G2)), 1e-300)
    return bool(lam[0] >= -1e-9 * scale)


# --- CSV interchange -------------------------------------------------------
# Workload CSV: header "n=<int>", one comma-separated query row per line.
# Gram CSV: header "gram n=<int>", then n rows. Strategy CSV reuses the
# workload layout with header "strategy n=<int>". All values are written with
# 17 significant digits so float64 round-trips bit-exactly.

_HEADERS = {"workload": r"n=(\d+)", "gram": r"gram n=(\d+)", "strategy": r"strategy n=(\d+)"}


def _fmt_row(row) -> str:
    return ",".join(format(float(v), ".17g") for v in row)


def _write_matrix_csv(M, path, kind):
    prefix = {"workload": "n=", "gram": "gram n=", "strategy": "strategy n="}[kind]
    with open(path, "w") as fh:
        fh.write(f"{prefix}{M.shape[1]}\n")
        for row in M:
            fh.write(_fmt_row(row) + "\n")


def _read_matrix_csv(path, kind):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DimOutOfRange(f"{path}: empty file")
    m = re.fullmatch(_HEADERS[kind], lines[0])
    if not m:
        raise DimOutOfRange(f"{path}: expected header matching '{_HEADERS[kind]}', got '{lines[0]}'")
    n = int(m.group(1))
    try:
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as e:
        raise NonFinite(f"{path}: unparseable value ({e})") from None
    M = np.asarray(rows, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] != n:
        raise DimensionMismatch(f"{path}: rows do not all have n={n} columns")
    if not np.all(np.isfinite(M)):
        raise NonFinite(f"{path}: non-finite value")
    return M


def save_workload_csv(W: Workload, path):
    if not W.is_explicit:
        raise ExplicitRequired("Gram-only workloads serialize via save_gram_csv")
    _write_matrix_csv(W.matrix, path, "workload")


def load_workload_csv(path) -> Workload:
    return Workload.from_matrix(_read_matrix_csv(path, "workload"))


def save_gram_csv(W, path):
    G = W.gram if isinstance(W, Workload) else as_sym_matrix(W)
    _write_matrix_csv(G, path, "gram")


def load_gram_csv(path) -> Workload:
    M = _read_matrix_csv(path, "gram")
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{path}: Gram must be square, got {M.shape}")
    return Workload.from_gram(M)


def load_data_vector(path) -> np.ndarray:
    """Single-column CSV of nonnegative reals (the cell-count vector)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    try:
        x = np.asarray([float(ln) for ln in lines], dtype=np.float64)
    except ValueError as e:
        raise NonFinite(f"{path}: unparseable value ({e})") from None
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"{path}: non-finite value")
    if np.any(x < 0):
        raise DimOutOfRange(f"{path}: data vector must be nonnegative")
    return x
