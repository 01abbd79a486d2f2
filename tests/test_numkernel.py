import numpy as np
import pytest

from querybound import NonFinite, NonSymmetric, NotPSD, Workload, analytic_total_error
from querybound.numkernel import (
    as_sym_matrix,
    check_psd,
    clean_spectrum,
    psd_sqrt,
    sym_eig,
)
from querybound.workloads import range_gram_1d

# Spectrum of the 4-cell all-ranges Gram, frozen from an independent route:
# Faddeev-LeVerrier gives the exact characteristic polynomial
# x^4 - 20 x^3 + 105 x^2 - 200 x + 125, whose roots via np.roots yield
ALLRANGE4_CHARPOLY = [1.0, -20.0, 105.0, -200.0, 125.0]
ALLRANGE4_EIGVALS = [13.09016994374948, 3.6180339887498953,
                     1.9098300562505255, 1.3819660112501051]


def test_as_sym_matrix_accepts_and_symmetrizes():
    S = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
    out = as_sym_matrix(S)
    np.testing.assert_allclose(out, out.T, rtol=0)


def test_as_sym_matrix_rejects_bad_input():
    with pytest.raises(NonSymmetric):
        as_sym_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NonSymmetric):
        as_sym_matrix(np.ones((2, 3)))
    with pytest.raises(NonFinite):
        as_sym_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eig_matches_frozen_charpoly_spectrum():
    values, vectors = sym_eig(range_gram_1d(4))
    np.testing.assert_allclose(values, ALLRANGE4_EIGVALS, rtol=1e-12)
    # the frozen roots really solve the integer characteristic polynomial
    residual = np.polyval(ALLRANGE4_CHARPOLY, np.asarray(ALLRANGE4_EIGVALS))
    np.testing.assert_allclose(residual, 0.0, atol=1e-9)


def test_sym_eig_reconstructs_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        S = rng.standard_normal((n, n))
        S = S + S.T
        values, vectors = sym_eig(S)
        assert np.all(np.diff(values) <= 0)  # descending order
        recon = (vectors * values) @ vectors.T
        assert np.linalg.norm(recon - S) <= 1e-8 * max(np.linalg.norm(S), 1e-30)


def test_check_psd_clamps_roundoff_and_rejects_negatives():
    clamped = check_psd(np.array([2.0, 1e-13, -1e-13]))
    assert np.all(clamped >= 0)
    with pytest.raises(NotPSD):
        check_psd(np.array([1.0, -0.5]))


def test_check_psd_and_clean_spectrum_act_row_by_row():
    rows = np.array([[-1e-13, 1e-10, 2.0], [0.0, 0.0, 0.0], [-1e-8, 3e-13, 1e4]])
    np.testing.assert_array_equal(check_psd(rows), [check_psd(r) for r in rows])
    cleaned = clean_spectrum(rows)
    assert cleaned[0, 1] == 1e-10  # kept beside 2, though below 1e-12 * 1e4
    for row, got in zip(rows, cleaned):
        assert got.tobytes() == clean_spectrum(row).tobytes()
    # each row is held to its own max: -1e-8 passes beside 1e4, not beside 2
    with pytest.raises(NotPSD) as stacked:
        check_psd(np.array([[-1e-8, 1e4], [-1e-8, 2.0]]))
    with pytest.raises(NotPSD) as alone:
        check_psd(np.array([-1e-8, 2.0]))
    assert str(stacked.value) == str(alone.value)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        M = rng.standard_normal((n + 1, n))
        S = M.T @ M
        R = psd_sqrt(S)
        np.testing.assert_allclose(R, R.T, rtol=0)
        assert np.linalg.norm(R @ R - S) <= 1e-7 * max(np.linalg.norm(S), 1e-30)


def test_psd_sqrt_zeroes_rank_deficient_noise():
    # rank-1 Gram: the sqrt diagonal must not pick up ~1e-8 roundoff roots
    v = np.arange(1.0, 6.0)
    R = psd_sqrt(np.outer(v, v))
    np.testing.assert_allclose(R, np.outer(v, v) / np.linalg.norm(v), rtol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _unit_error(GW, GA) -> float:
    """trace(G_W pinv(G_A)) through the one error path: the P = 1 error
    divided by sens(A)^2 = max diag(G_A)."""
    W, A = Workload.from_gram(GW), Workload.from_gram(GA)
    return analytic_total_error(W, A).total_error / np.max(np.diag(GA))


def test_pinv_trace_matches_direct_product():
    rng = np.random.default_rng(24)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        MW = rng.standard_normal((n + 2, n))
        MA = rng.standard_normal((n + 2, n))
        GW, GA = MW.T @ MW, MA.T @ MA
        direct = np.trace(GW @ np.linalg.pinv(GA))
        np.testing.assert_allclose(_unit_error(GW, GA), direct, rtol=1e-9)


def test_pinv_trace_validates_inputs():
    with pytest.raises(NotPSD):
        _unit_error(np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
