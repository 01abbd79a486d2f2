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
from .numkernel import EigenPair, as_sym_matrix, quadratic_forms

# explicit rows give way to the Gram form beyond EXPLICIT_ENTRY_CAP matrix
# entries (kron_product, all_range) or, for data cubes, EXPLICIT_CELL_CAP cells
EXPLICIT_CELL_CAP = 4096
EXPLICIT_ENTRY_CAP = 10 ** 7
# dense Grams (and explicit strategies, at least as large) beyond this many
# cells (512 MiB of float64 each) are refused
GRAM_CELL_CAP = 8192

# largest materializable Gram entry before closed forms take over
_ENTRY_LIMIT = 1e300

# `gram` argument of a form whose n x n Gram is formed only when `gram` is read
_LAZY = object()


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
    when `gram` is read. A constructor that knows its Gram's eigenpairs in
    closed form attaches them (_attach_basis); no copy or projection
    inherits them. Explicit rows the library builds itself are formed only
    when `matrix` is read (_defer_rows).
    """

    def __init__(self, n, matrix=None, gram=None, uniform=None, query_count=None):
        self.n = int(n)
        self._explicit = matrix is not None
        self._matrix = None if matrix is _LAZY else matrix
        self._gram = None if gram is _LAZY else gram
        self.uniform = uniform
        if query_count is None and self._matrix is not None:
            query_count = self._matrix.shape[0]  # kron_product reads it, not the rows
        self._query_count = query_count
        self._gram_eigvals = None
        self._basis = None  # builds the eigenvectors of the cached eigenvalues
        self._rows = None  # builds the explicit rows on first read of `matrix`
        self._counts = None  # closed-form column counts of rows in {0, +-1}
        self.factors = None
        if self.n < 1:
            raise DimOutOfRange(f"cell count must be >= 1, got {n}")
        if matrix is None and gram is None and uniform is None:
            raise ValueError("workload needs a matrix, a Gram, or a uniform descriptor")

    @classmethod
    def from_matrix(cls, M, dedup=True):
        M = np.atleast_2d(np.asarray(M, dtype=np.float64))
        if M.shape[0] < 1 or M.shape[1] < 1:
            raise DimOutOfRange(f"matrix shape {M.shape} is empty")
        if not np.all(np.isfinite(M)):
            raise NonFinite("workload matrix contains NaN or infinity")
        if dedup:
            _, idx = np.unique(M, axis=0, return_index=True)
            M = M[np.sort(idx)]
        M.setflags(write=False)
        return cls(M.shape[1], matrix=M, query_count=M.shape[0])

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
        return self._explicit

    @property
    def matrix(self):
        """Explicit m x n rows (None for the Gram forms), formed on first read."""
        if self._matrix is None and self._explicit:
            M = self._form_matrix()
            M.setflags(write=False)
            self._matrix = M
        return self._matrix

    def _form_matrix(self) -> np.ndarray:
        return self._rows()

    @property
    def query_count(self):
        """Exact number of queries (Python int; may exceed float range)."""
        return self._query_count

    @property
    def gram(self) -> np.ndarray:
        """Concrete n x n Gram; materializes uniform forms when finite."""
        if self._gram is None:
            G = self._form_gram()
            G.setflags(write=False)
            self._gram = G
        return self._gram

    def _form_gram(self) -> np.ndarray:
        if self._explicit:
            check_gram_cells(self.n)
            G = self.matrix.T @ self.matrix
            return 0.5 * (G + G.T)
        if self.factors is not None:
            # exactly symmetric factors: so is their Kronecker product
            return reduce(np.kron, [f.gram for f in self.factors])
        return self.uniform.materialize(self.n)

    def gram_diag(self) -> np.ndarray:
        """Diagonal of the Gram: explicit rows give their column sums of
        squares (their closed-form counts when every entry is 0 or +-1), a
        product the Kronecker product of its factors' diagonals."""
        if self._counts is not None:
            return self._counts
        if self._explicit:
            return np.einsum("ij,ij->j", self.matrix, self.matrix)
        if self.factors is not None:
            return reduce(np.kron, [f.gram_diag() for f in self.factors])
        return np.diag(self.gram)

    def gram_trace(self) -> float:
        """Trace of the Gram; a product's is the product of its factors'."""
        if self.factors is not None:
            return math.prod(f.gram_trace() for f in self.factors)
        return float(np.trace(self.gram))

    def gram_forms(self, pair: EigenPair) -> np.ndarray:
        """v' G v for every eigenvector column v of pair."""
        return quadratic_forms(self.gram, pair)

    def gram_eigvals(self) -> np.ndarray:
        """Gram eigenvalues in ascending order, solved for once per workload.

        A closed-form basis gives them without a solve, and a product sorts
        the products of its factors' eigenvalues. Only values are kept: a
        cached n x n eigenvector matrix would double the memory a dense
        workload holds.
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

        The first source that applies gives them, and none but the last
        solves at the Gram's size:
        - a closed-form basis its constructor attached (eigenvectors built
          again on each call, eigenvalues from the cache);
        - a product's factors' pairs, assembled by EigenPair.of_kron;
        - one eigensolve per call, whose values fill the cache that
          gram_eigvals reads. The Gram is not validated again: every
          constructor symmetrizes it where it is formed or loaded.
        """
        if self._basis is not None:
            return EigenPair(self._gram_eigvals[::-1], self._basis())
        if self.factors is not None:
            pair = EigenPair.of_kron([f.gram_eig() for f in self.factors])
        else:
            pair = EigenPair.of_symmetric(self.gram)
        if self._gram_eigvals is None:
            self._keep_eigvals(pair.values[::-1])
        return pair

    def is_all_range_1d(self) -> bool:
        """True when the Gram is the 1-D all-ranges Gram on n cells, in either
        storage form: a projection onto contiguous cells then has the
        phase-equation spectrum of bounds._subrange_map."""
        return False

    def _keep_eigvals(self, values):
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        self._gram_eigvals = values

    def _defer_rows(self, rows, counts=None):
        """Explicit rows that rows() forms on first read of `matrix`, without
        from_matrix's checks. counts, when the entries are all 0 or +-1,
        holds each column's count of nonzero entries: its sum of squares
        and its L1 norm alike, so neither needs the rows."""
        self._rows = rows
        if counts is not None:
            counts = np.asarray(counts, dtype=np.float64)
            counts.setflags(write=False)
            self._counts = counts

    def _attach_basis(self, values, vectors):
        """Closed-form eigenpairs: values non-increasing, vectors() the matching
        orthonormal eigenvectors as columns, built on each call."""
        self._keep_eigvals(np.asarray(values, dtype=np.float64)[::-1])
        self._basis = vectors

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
    # the ranges starting at lo are a lower-triangular block of ones from
    # column lo: one assignment per start, and no temporary of the rows' size
    rows = np.zeros((d * (d + 1) // 2, d))
    T = np.tri(d, dtype=bool)
    k = 0
    for lo in range(d):
        rows[k:k + d - lo, lo:] = T[:d - lo, :d - lo]
        k += d - lo
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
    counts = [p.query_count for p in parts]
    m = None if None in counts else math.prod(counts)
    factors = tuple(f for p in parts for f in (p.factors or (p,)))
    if all(p.is_explicit for p in parts) and m * n <= EXPLICIT_ENTRY_CAP:
        W = Workload(n, matrix=_LAZY, query_count=m)
        unit = all(f._counts is not None for f in factors)
        W._defer_rows(lambda: _finite_kron([p.matrix for p in parts]),
                      reduce(np.kron, [f._counts for f in factors]) if unit else None)
    else:
        check_gram_cells(n)
        W = Workload(n, gram=_LAZY, query_count=m)
    W.factors = factors
    return W


def _finite_kron(mats) -> np.ndarray:
    """Kronecker product of explicit rows, checked: rows from outside the
    library may hold finite entries whose products overflow."""
    M = reduce(np.kron, mats)
    if not np.all(np.isfinite(M)):
        raise NonFinite("workload matrix contains NaN or infinity")
    return M


def _dst1_basis(d: int) -> np.ndarray:
    """Orthonormal DST-I vectors: column k is sqrt(2/(d+1)) sin(i k pi/(d+1)).

    i k is reduced modulo 2(d+1) in integers and each sine is taken at most a
    quarter turn from its nearest zero, so every entry is accurate to rounding
    and the zeros are exact. The matrix is symmetric; it is returned as its
    transpose, column-major, so each eigenvector is contiguous (gram_forms
    runs a cumulative sum down the columns).
    """
    m = np.arange(2 * (d + 1))
    r = m % (d + 1)
    table = np.sin(np.minimum(r, d + 1 - r) * (math.pi / (d + 1)))
    table[d + 1:] *= -1.0
    table *= math.sqrt(2.0 / (d + 1))
    i = np.arange(1, d + 1, dtype=np.int32)  # i k <= GRAM_CELL_CAP^2 < 2^31
    idx = np.multiply.outer(i, i)
    idx %= 2 * (d + 1)
    return table[idx].T


class _AllRange1D(Workload):
    """All d(d+1)/2 contiguous ranges of d cells, as explicit rows or a Gram.

    The Gram is (d+1) T^-1, with T the Dirichlet second difference, so its
    eigenpairs are closed form: (d+1) / (4 sin^2(k pi / (2(d+1)))) on the
    DST-I vectors, k = 1..d. So are its diagonal i (d+1-i), its trace
    d (d+1) (d+2) / 6 and its quadratic forms (prefix sums, gram_forms).
    The Gram form holds no matrix until `gram` is read.
    """

    def __init__(self, d: int, explicit: bool):
        if explicit:
            super().__init__(d, matrix=_LAZY, query_count=d * (d + 1) // 2)
            self._defer_rows(lambda: _range_rows_1d(d), self.gram_diag())
        else:
            check_gram_cells(d)
            super().__init__(d, gram=_LAZY, query_count=d * (d + 1) // 2)
        k = np.arange(1, d + 1)
        self._attach_basis((d + 1) / (4.0 * np.sin(k * (math.pi / (2 * (d + 1)))) ** 2),
                           lambda: _dst1_basis(d))

    def _form_gram(self) -> np.ndarray:
        return range_gram_1d(self.n)  # the rows' Gram, exactly

    def is_all_range_1d(self) -> bool:
        return True

    def gram_diag(self) -> np.ndarray:
        i = np.arange(1, self.n + 1, dtype=np.float64)
        return i * (self.n + 1 - i)

    def gram_trace(self) -> float:
        d = self.n
        return float(d * (d + 1) * (d + 2) // 6)

    def gram_forms(self, pair: EigenPair) -> np.ndarray:
        """v' G v = sum over ranges (a, b] of (P_b - P_a)^2, with P the d + 1
        prefix sums of v (P_0 = 0): (d+1) sum (P - mean P)^2, O(d) per vector."""
        P = np.cumsum(pair.vectors, axis=0)
        mean = np.sum(P, axis=0) / (self.n + 1)
        P -= mean
        return (self.n + 1) * (np.einsum("ij,ij->j", P, P) + mean * mean)


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
    return kron_product([_AllRange1D(d, explicit) for d in dims])


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

    def parts(c):  # cuboid c's rows: the Kronecker product of these
        return [np.eye(d) if (a + 1) in c else np.ones((1, d)) for a, d in enumerate(dims)]

    n = math.prod(dims)
    m = sum(math.prod(dims[a - 1] for a in c) for c in cuboids)
    if n <= EXPLICIT_CELL_CAP and m * n <= EXPLICIT_ENTRY_CAP:
        return Workload.from_matrix(
            np.vstack([w * reduce(np.kron, parts(c)) for c, w in zip(cuboids, weights)]),
            dedup=False)
    check_gram_cells(n)
    G = np.zeros((n, n))
    for c, w in zip(cuboids, weights):
        # an identity is its own Gram, and I_d.T @ I_d would cost d^3 flops
        G += w * w * reduce(np.kron, [p.T @ p if len(p) == 1 else p for p in parts(c)])
    return _exact_gram(G, query_count=m)


def subset_cells(mu, n) -> tuple:
    """A 1-based cell subset validated against n, as sorted distinct cells."""
    cells = tuple(sorted(set(map(int, mu))))
    if not cells:
        raise IndexOutOfRange("projection subset is empty")
    if cells[0] < 1 or cells[-1] > n:
        raise IndexOutOfRange(f"subset {list(cells)} not within 1..{n}")
    return cells


def check_subset(mu, n) -> np.ndarray:
    """Validate a 1-based cell subset against n; returns sorted 0-based indices."""
    return np.asarray(subset_cells(mu, n), dtype=np.intp) - 1


def column_project(W: Workload, mu) -> Workload:
    """Restrict a workload to the cells in mu (1-based indices).

    Rows are kept verbatim (including rows that become zero or duplicate):
    the Gram of the projection is the principal submatrix of the Gram.
    """
    idx = check_subset(mu, W.n)
    if W.is_explicit:
        M = np.ascontiguousarray(W.matrix[:, idx])
        M.setflags(write=False)
        return Workload(len(idx), matrix=M, query_count=W.matrix.shape[0])
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
# Gram CSV: header "gram n=<int>", then n rows. A strategy CSV reuses the
# workload layout with header "strategy n=<int>". All values are written with
# 17 significant digits so float64 round-trips bit-exactly. _HEADERS holds
# each header's prefix; the reader's pattern is derived from it.

_HEADERS = {"workload": "n=", "gram": "gram n=", "strategy": "strategy n="}


def _write_matrix_csv(M, path, kind):
    row_fmt = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{_HEADERS[kind]}{M.shape[1]}\n")
        for row in M:
            fh.write(row_fmt % tuple(row.tolist()))


def _read_matrix_csv(path, kind):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DimOutOfRange(f"{path}: empty file")
    pattern = _HEADERS[kind] + r"(\d+)"
    m = re.fullmatch(pattern, lines[0])
    if not m:
        raise DimOutOfRange(f"{path}: expected header matching '{pattern}', got '{lines[0]}'")
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
