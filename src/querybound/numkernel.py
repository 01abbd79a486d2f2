"""Deterministic dense symmetric-matrix kernels.

Everything downstream (bounds, strategies, mechanism error, the recovery
matrix W A^+) reduces to symmetric eigendecompositions, PSD square roots and
traces over eigenpairs computed here, under the one relative spectral cutoff
of clean_spectrum. No kernel takes an SVD. All kernels are pure functions of
their float64 inputs.
"""

from functools import reduce
from typing import NamedTuple

import numpy as np

from .exceptions import NonFinite, NonSymmetric, NotPSD

# relative spectral cutoff: eigenvalues below EIG_ZERO_REL * max are rank-deficient
EIG_ZERO_REL = 1e-12
# tolerated relative asymmetry / negative eigenvalue mass
SYM_TOL = 1e-9
PSD_TOL = 1e-9


class EigenPair(NamedTuple):
    """Eigenvalues in nonincreasing order and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of_symmetric(cls, S: np.ndarray) -> "EigenPair":
        """eigh of a matrix already known to be symmetric, reordered descending."""
        values, vectors = np.linalg.eigh(S)
        return cls(values[::-1].copy(), vectors[:, ::-1].copy())

    @classmethod
    def of_kron(cls, pairs) -> "EigenPair":
        """Eigenpairs of the Kronecker product of the matrices the pairs solve.

        Products of factor eigenvalues with Kronecker products of their
        eigenvectors, reordered descending: no eigensolve at the product size.
        """
        values = reduce(np.kron, [p.values for p in pairs])
        order = np.argsort(-values, kind="stable")
        return cls(values[order], reduce(np.kron, [p.vectors for p in pairs])[:, order])


def kron_matvec(mats, x: np.ndarray) -> np.ndarray:
    """(M_1 kron ... kron M_k) @ x without forming the product (row-major x)."""
    X = np.reshape(x, [M.shape[1] for M in mats])
    for axis, M in enumerate(mats):
        X = np.moveaxis(np.tensordot(M, X, axes=(1, axis)), 0, axis)
    return X.reshape(-1)


def as_sym_matrix(S) -> np.ndarray:
    """Validate a square symmetric finite matrix and return it symmetrized.

    Asymmetry up to SYM_TOL * max|entry| is forgiven (accumulated float error);
    anything larger raises NonSymmetric.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise NonFinite("matrix contains NaN or infinity")
    scale = np.max(np.abs(S)) if S.size else 0.0
    gap = np.max(np.abs(S - S.T)) if S.size else 0.0
    if gap > SYM_TOL * max(scale, 1e-300):
        raise NonSymmetric(f"asymmetry {gap:.3e} exceeds {SYM_TOL:.0e} of max entry {scale:.3e}")
    return 0.5 * (S + S.T)


def sym_eig(S) -> EigenPair:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending."""
    return EigenPair.of_symmetric(as_sym_matrix(S))


def check_psd(values: np.ndarray) -> np.ndarray:
    """Clamp small negative eigenvalues to 0; raise NotPSD below -PSD_TOL * max.

    values is one spectrum, or a (batch, k) stack with one spectrum per row;
    each row is held to its own max.
    """
    top = values.max(axis=-1, keepdims=True, initial=0.0)
    floor = -PSD_TOL * np.maximum(top, 1e-300)
    low = values.min(axis=-1, keepdims=True, initial=0.0)
    bad = np.flatnonzero(low < floor)
    if bad.size:
        i = bad[0]
        raise NotPSD(f"eigenvalue {low.flat[i]:.6e} below tolerance {floor.flat[i]:.3e}")
    return np.clip(values, 0.0, None)


def clean_spectrum(values: np.ndarray) -> np.ndarray:
    """PSD-checked copy of a spectrum with roundoff-level eigenvalues zeroed.

    Eigenvalues in [-1e-9 * max, 0) are treated as exact zeros, as is
    anything below the shared relative spectral cutoff: their square roots
    (~1e-8 for float64 roundoff) would otherwise dominate rank-deficient
    sums, traces and diagonals. A (batch, k) stack is cleaned row by row,
    as check_psd checks it.
    """
    values = check_psd(values)
    values[values < EIG_ZERO_REL * values.max(axis=-1, keepdims=True, initial=0.0)] = 0.0
    return values


def psd_sqrt_of(pair: EigenPair) -> np.ndarray:
    """Symmetric PSD square root from a matrix's eigenpairs (cutoffs as clean_spectrum)."""
    values, vectors = pair
    R = (vectors * np.sqrt(clean_spectrum(values))) @ vectors.T
    return 0.5 * (R + R.T)


def psd_sqrt(S) -> np.ndarray:
    """Symmetric PSD square root R with R @ R == S (cutoffs as clean_spectrum)."""
    return psd_sqrt_of(sym_eig(S))


def quadratic_forms(G_W: np.ndarray, pair: EigenPair) -> np.ndarray:
    """v_k' G_W v_k for every eigenvector v_k of the pair."""
    return np.einsum("ij,ij->j", pair.vectors, G_W @ pair.vectors)


def pinv_trace_and_residual(quads: np.ndarray, values: np.ndarray) -> tuple:
    """(trace(G_W pinv(G_A)), relative trace residual of G_W off G_A's range).

    values are G_A's eigenvalues, one per eigenspace in any order, and quads
    the trace of G_W on each eigenspace, multiplicity included (v' G_W v for
    a single eigenvector v). The eigenspaces must cover the whole space, so
    the quads sum to trace(G_W). G_A must be PSD (NotPSD otherwise). Only
    eigenvalues clean_spectrum keeps are inverted. The residual is the
    share of that sum outside the kept eigenspaces (exactly 0 when every one
    is kept): the caller compares it with its support tolerance.
    """
    values = clean_spectrum(values)
    kept = values > 0
    total = float(np.sum(quads))
    covered = float(np.sum(quads[kept]))
    resid = max(0.0, total - covered) / total if total > 0 else 0.0
    trace = float(np.sum(quads[kept] / values[kept])) if kept.any() else 0.0
    return trace, resid
