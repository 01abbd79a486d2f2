import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from querybound import (
    DimOutOfRange,
    FamilyTooLarge,
    NotPSD,
    NotVariableAgnostic,
    SubsetTooLarge,
    Workload,
    all_predicate_gram,
    all_range,
    bound_report,
    column_project,
    contained_in,
    data_cube,
    evaluate_strategy,
    exhaustive_projection_family,
    greedy_projected_svdb,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    l1_reference,
    looseness_upper_bound,
    psd_sqrt,
    range_gram_1d,
    range_projection_family,
    range_subrange_eigvals,
    range_subrange_svdb,
    range_trim_projected_svdb,
    sqrt_strategy,
    stack,
    svdb,
    svdb_log,
    svdb_projected,
    tightness_certificate,
    variable_agnostic_svdb,
)
from querybound import bounds, cli, numkernel, workloads
from querybound.bounds import (
    PROJECTION_BLOCK_FLOATS,
    _principal_svdb_logs,
    _range_svdb_logs,
    _subrange_spectra,
    uniform_svdb_log,
)
from querybound.privacy import PrivacyParams

# frozen from the Faddeev-LeVerrier characteristic polynomial oracle
SVDB_ALLRANGE_4 = 16.31224283168804
SVDB_ALLRANGE_2 = (math.sqrt(3.0) + 1.0) ** 2 / 2.0
# frozen from the 2x2 quadratic-formula oracle for the two-query witness
SVDB_WITNESS_16 = 0.12091229182759274


def witness_workload(n=16, t=0.1) -> Workload:
    """Two queries: the first cell alone, and a small multiple of the total."""
    return Workload.from_matrix(np.vstack([np.eye(1, n, 0)[0], t * np.ones(n)]),
                                dedup=False)


def test_svdb_identity_is_n():
    for n in (1, 2, 5, 17):
        np.testing.assert_allclose(svdb(Workload.from_matrix(np.eye(n))), n,
                                   rtol=1e-12)


def test_svdb_allrange_values():
    np.testing.assert_allclose(svdb(all_range([2])), SVDB_ALLRANGE_2, rtol=1e-12)
    np.testing.assert_allclose(svdb(all_range([4])), SVDB_ALLRANGE_4, rtol=1e-12)


def test_svdb_rejects_indefinite_gram():
    with pytest.raises(NotPSD):
        svdb(Workload.from_gram(np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_svdb_log_agrees_with_svdb():
    W = all_range([7])
    np.testing.assert_allclose(math.exp(svdb_log(W)), svdb(W), rtol=1e-12)


def test_uniform_svdb_log_matches_concrete():
    for n in (1, 2, 3, 8, 16):
        W = all_predicate_gram(n)
        la, lb = (n - 1) * math.log(2), (n - 2) * math.log(2)
        np.testing.assert_allclose(math.exp(uniform_svdb_log(la, lb, n)),
                                   svdb(W), rtol=1e-12)


def test_variable_agnostic_closed_form():
    np.testing.assert_allclose(variable_agnostic_svdb(2, 1, 2), SVDB_ALLRANGE_2,
                               rtol=1e-14)
    np.testing.assert_allclose(variable_agnostic_svdb(8, 4, 4),
                               (math.sqrt(20.0) + 6.0) ** 2 / 4.0, rtol=1e-14)
    # a=1, b=0 is the identity workload, whose bound is n
    for n in (1, 2, 5, 100):
        np.testing.assert_allclose(variable_agnostic_svdb(1, 0, n), n, rtol=1e-14)


def test_variable_agnostic_agrees_with_eigensolve_up_to_64():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 65))
        b = float(rng.uniform(0, 3))
        a = b + float(rng.uniform(0.1, 5))
        G = (a - b) * np.eye(n) + b * np.ones((n, n))
        np.testing.assert_allclose(variable_agnostic_svdb(a, b, n),
                                   svdb(Workload.from_gram(G)), rtol=1e-9)


def test_variable_agnostic_validation():
    with pytest.raises(NotVariableAgnostic):
        variable_agnostic_svdb(1.0, 1.0, 4)
    with pytest.raises(NotVariableAgnostic):
        variable_agnostic_svdb(1.0, -0.5, 4)
    with pytest.raises(DimOutOfRange):
        variable_agnostic_svdb(2.0, 1.0, 0)


def test_predicate_closed_form_exact_in_log_space():
    # 2^(n-2)/n * (n-1+sqrt(n+1))^2 against the general closed form, on logs
    for n in (2, 4, 8, 16):
        closed = (n - 2) * math.log(2.0) + 2.0 * math.log(n - 1 + math.sqrt(n + 1.0)) \
            - math.log(n)
        lib = uniform_svdb_log((n - 1) * math.log(2.0), (n - 2) * math.log(2.0), n)
        np.testing.assert_allclose(lib, closed, rtol=0, atol=1e-12)


def test_predicate_identity_ratio_at_1024():
    # identity error n * 2^(n-1) over the closed-form bound, all in log space
    n = 1024
    l_err = math.log(n) + (n - 1) * math.log(2.0)
    l_svdb = svdb_log(all_predicate_gram(n))
    np.testing.assert_allclose(math.exp(l_err - l_svdb),
                               2 * n * n / (n - 1 + math.sqrt(n + 1.0)) ** 2,
                               rtol=1e-12)


def test_range_projection_family_small_cases():
    fam = range_projection_family([2])
    assert fam == [(1,), (1, 2), (2,)]
    assert len(range_projection_family([3])) == 6
    fam22 = range_projection_family([2, 2])
    assert len(fam22) == 9
    assert (1, 2, 3, 4) in fam22
    assert (1, 3) in fam22  # full range in dim 1, first cell in dim 2
    with pytest.raises(FamilyTooLarge):
        range_projection_family([2048])


def test_exhaustive_family():
    fam = exhaustive_projection_family(3)
    assert len(fam) == 7
    assert fam[0] == (1,)
    with pytest.raises(SubsetTooLarge):
        exhaustive_projection_family(21)


def test_svdb_projected_full_set_recovers_plain():
    W = all_range([5])
    v, mu = svdb_projected(W, [tuple(range(1, 6))])
    np.testing.assert_allclose(v, svdb(W), rtol=1e-12)
    assert mu == (1, 2, 3, 4, 5)


def test_svdb_projected_witness_prefers_single_cell():
    W = witness_workload()
    v, mu = svdb_projected(W, exhaustive_projection_family(16))
    np.testing.assert_allclose(v, 1.01, rtol=1e-12)
    assert mu == (1,)
    assert v > svdb(W)


def test_svdb_projected_tie_break_is_lexicographic():
    W = Workload.from_matrix(np.eye(4))
    v, mu = svdb_projected(W, [(4,), (2,), (3,)])
    np.testing.assert_allclose(v, 1.0, rtol=0)
    assert mu == (2,)


def test_svdb_projected_uniform_scans_by_size():
    W = all_predicate_gram(24)
    v, mu = svdb_projected(W, [(1, 2, 3), (5, 9), tuple(range(1, 25))])
    np.testing.assert_allclose(math.log(v), svdb_log(W), rtol=1e-12)
    assert mu == tuple(range(1, 25))


def test_svdb_projected_mirror_ranges_tie_to_the_smaller():
    # a range and its mirror image have permuted Grams of equal spectrum,
    # which the phase equation gives bit for bit: every pair ties, and the
    # smaller subset wins in either family order
    d = 9
    W = all_range([d])
    ties = 0
    for mu in range_projection_family([d]):
        mirror = tuple(d + 1 - c for c in reversed(mu))
        if mirror <= mu:
            continue
        a, b = svdb_projected(W, [mu])[0], svdb_projected(W, [mirror])[0]
        np.testing.assert_allclose(a, b, rtol=1e-13)
        for family in ([mu, mirror], [mirror, mu]):
            assert svdb_projected(W, family) == (max(a, b), mu if a >= b else mirror)
        ties += a == b
    symmetric = (d + 1) // 2  # ranges that are their own mirror
    assert ties == (d * (d + 1) // 2 - symmetric) // 2


def test_svdb_projected_raises_on_an_indefinite_projection():
    W = Workload.from_gram([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    v, mu = svdb_projected(W, [(1,), (3,)])
    np.testing.assert_allclose(v, 5.0, rtol=1e-15)
    assert mu == (3,)
    # the indefinite projection sits between two definite ones in its block
    with pytest.raises(NotPSD, match=r"eigenvalue -1\.000000e\+00 below tolerance"):
        svdb_projected(W, [(1, 3), (1, 2), (2, 3)])


def test_svdb_projected_onto_untouched_cells_is_zero():
    W = Workload.from_matrix([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], dedup=False)
    assert svdb_projected(W, [(3,)]) == (0.0, (3,))
    v, mu = svdb_projected(W, [(3,), (2, 3), (1,)])
    np.testing.assert_allclose(v, 2.0, rtol=1e-15)
    assert mu == (1,)


def test_svdb_projected_stacks_at_most_one_block(monkeypatch):
    W = Workload.from_matrix(np.eye(12))
    W.gram  # formed before the measurement, as bound_report leaves it
    combos = list(itertools.combinations(range(1, 13), 8))
    family = [combos[i % len(combos)] for i in range(10 ** 5)]
    stacked = []
    real = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        stacked.append(a.nbytes)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    block = 8 * PROJECTION_BLOCK_FLOATS
    tracemalloc.start()
    try:
        v, mu = svdb_projected(W, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(v, 8.0, rtol=1e-15)
    assert mu == combos[0]
    whole = 8 * 64 * len(family)  # 49 MB: the family's 8 x 8 Grams stacked at once
    assert max(stacked) <= block and len(stacked) == -(-whole // block)
    # one block and its spectra, beside about 16 MB of normalized subsets
    # and their values
    assert peak < 4 * block < whole


def test_greedy_heuristic_never_loses_to_the_full_set():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        W = Workload.from_matrix(rng.standard_normal((n + 1, n)), dedup=False)
        v, mu = greedy_projected_svdb(W, restarts=4, seed=7)
        assert v >= svdb(W) * (1 - 1e-9)
        exhaustive, _ = svdb_projected(W, exhaustive_projection_family(n))
        assert v <= exhaustive * (1 + 1e-9)


def test_greedy_finds_the_witness_projection():
    v, mu = greedy_projected_svdb(witness_workload(), restarts=4, seed=0)
    np.testing.assert_allclose(v, 1.01, rtol=1e-9)
    assert mu == (1,)


def test_greedy_returns_python_int_cells_valued_as_their_projection():
    # each route of the projected evaluator: principal submatrices (explicit
    # rows, a plain Gram), the sub-range kernel and the uniform closed form
    for W in (witness_workload(8), all_range([7]), Workload.from_gram(range_gram_1d(6)),
              all_predicate_gram(18)):
        v, mu = greedy_projected_svdb(W, restarts=3, seed=1)
        assert all(type(c) is int for c in mu)
        assert json.loads(json.dumps(mu)) == list(mu)
        np.testing.assert_allclose(v, svdb(column_project(W, mu)), rtol=1e-12)


def test_tightness_certificate_examples():
    tight, spread = tightness_certificate(all_predicate_gram(4).gram)
    assert tight and spread <= 1e-12
    cube = data_cube([2], [[], [1]], [1.0, 1.0])
    assert tightness_certificate(cube.gram)[0]
    tight, spread = tightness_certificate(witness_workload().gram)
    assert not tight and spread > 0.5


def test_looseness_upper_bound_examples():
    G = all_predicate_gram(4).gram
    np.testing.assert_allclose(looseness_upper_bound(G),
                               svdb(all_predicate_gram(4)), rtol=1e-9)
    np.testing.assert_allclose(looseness_upper_bound(range_gram_1d(2)),
                               SVDB_ALLRANGE_2, rtol=1e-12)
    W = witness_workload()
    assert looseness_upper_bound(W.gram) > svdb(W)
    params = PrivacyParams(1.0, 1e-5)
    np.testing.assert_allclose(looseness_upper_bound(G, params),
                               params.p_factor * svdb(all_predicate_gram(4)),
                               rtol=1e-9)


def test_l1_reference_values():
    n = 5
    np.testing.assert_allclose(l1_reference(Workload.from_matrix(np.eye(n)), 1.0),
                               (n, n), rtol=1e-12)
    v_svdb, v_geo = l1_reference(all_range([2]), 1.0)
    np.testing.assert_allclose(v_svdb, SVDB_ALLRANGE_2, rtol=1e-12)
    np.testing.assert_allclose(v_geo, 4.0, rtol=1e-12)
    half = l1_reference(all_range([2]), 2.0)
    np.testing.assert_allclose(half, (v_svdb / 4.0, 1.0), rtol=1e-12)


def test_l1_geometric_dominates_svdb():
    # sum of squared singular values >= (sum of singular values)^2 / n
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        W = Workload.from_matrix(rng.standard_normal((m, n)), dedup=False)
        v_svdb, v_geo = l1_reference(W, 1.0)
        assert v_geo >= v_svdb * (1 - 1e-9)
    # equality when all singular values coincide
    v_svdb, v_geo = l1_reference(Workload.from_matrix(np.eye(4)), 1.0)
    np.testing.assert_allclose(v_svdb, v_geo, rtol=1e-12)


def test_containment_is_monotone_for_svdb():
    rng = np.random.default_rng(44)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        W1 = Workload.from_matrix(rng.standard_normal((int(rng.integers(1, 5)), n)),
                                  dedup=False)
        W2 = stack(W1, Workload.from_matrix(
            rng.standard_normal((int(rng.integers(1, 5)), n)), dedup=False))
        assert contained_in(W1, W2)
        assert svdb(W1) <= svdb(W2) + 1e-9 * max(svdb(W2), 1.0)


def test_svdb_invariant_under_permutations_and_rotations():
    rng = np.random.default_rng(45)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        M = rng.standard_normal((m, n))
        base = svdb(Workload.from_matrix(M, dedup=False))
        rowp = M[rng.permutation(m)]
        colp = M[:, rng.permutation(n)]
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        for variant in (rowp, colp, Q @ M):
            np.testing.assert_allclose(
                svdb(Workload.from_matrix(variant, dedup=False)), base, rtol=1e-9)


def test_range_subrange_fast_path_matches_dense():
    rng = np.random.default_rng(46)
    for _ in range(40):
        d = int(rng.integers(1, 40))
        lo = int(rng.integers(1, d + 1))
        hi = int(rng.integers(lo, d + 1))
        fast = range_subrange_svdb(d, lo, hi)
        dense = svdb(column_project(all_range([d]), tuple(range(lo, hi + 1))))
        np.testing.assert_allclose(fast, dense, rtol=1e-10)
        ev_fast = np.sort(range_subrange_eigvals(d, lo, hi))
        ev_dense = np.sort(np.linalg.eigvalsh(
            range_gram_1d(d)[np.ix_(range(lo - 1, hi), range(lo - 1, hi))]))
        np.testing.assert_allclose(ev_fast, ev_dense, rtol=1e-9)


def _assert_subrange_matches_dense(d, lo, hi, G):
    fast = range_subrange_eigvals(d, lo, hi)
    dense = np.linalg.eigvalsh(G[lo - 1:hi, lo - 1:hi])
    np.testing.assert_allclose(np.sort(fast), dense, rtol=1e-9)
    np.testing.assert_allclose(range_subrange_svdb(d, lo, hi),
                               np.sum(np.sqrt(dense)) ** 2 / (hi - lo + 1),
                               rtol=1e-10)


def test_range_subrange_phase_equation_every_range_up_to_64():
    # svdb is checked on the same spectra (range_subrange_svdb only sums them);
    # of each mirror pair only the range with lo + hi <= d + 1 is solved, as the
    # mirror test below shows the other's spectrum is bit-identical. All ranges
    # of one length take one kernel call and one batched eigvalsh, and a sample
    # of the kernel's rows is checked against the scalar function bit for bit
    rng = np.random.default_rng(50)
    for d in range(1, 65):
        G = range_gram_1d(d)
        for L in range(1, d + 1):
            los = range(1, (d - L + 2) // 2 + 1)
            dense = np.linalg.eigvalsh(np.stack([G[lo - 1:lo - 1 + L, lo - 1:lo - 1 + L]
                                                 for lo in los]))
            rows = np.array(_subrange_spectra(d, [(lo, lo + L - 1) for lo in los]))
            fast = np.sort(rows, axis=1)
            np.testing.assert_allclose(fast, dense, rtol=1e-9)
            np.testing.assert_allclose(np.sum(np.sqrt(fast), axis=1) ** 2 / L,
                                       np.sum(np.sqrt(dense), axis=1) ** 2 / L, rtol=1e-10)
            if rng.random() < 0.25:
                i = int(rng.integers(len(los)))
                np.testing.assert_array_equal(
                    rows[i], range_subrange_eigvals(d, los[i], los[i] + L - 1))


def test_subrange_kernel_does_not_depend_on_batch_order_size_or_blocks(monkeypatch):
    rng = np.random.default_rng(51)
    d = 200
    ranges = [(1, d), (2, d - 1), (7, 7), (1, 1), (d, d), (3, 4)]
    for lo in rng.integers(1, d + 1, 120):
        ranges.append((int(lo), int(rng.integers(lo, d + 1))))
    ranges = list(dict.fromkeys(ranges))
    ref = _spectra_by_range(d, ranges)
    for r in ranges[:8] + ranges[-4:]:  # batches of one: the scalar function
        np.testing.assert_array_equal(range_subrange_eigvals(d, *r), ref[r])
    shuffled = [ranges[i] for i in rng.permutation(len(ranges))]
    cut = sorted(int(c) for c in rng.integers(1, len(ranges), 5))
    batches = [shuffled[:cut[0]]] + [shuffled[a:b] for a, b in zip(cut, cut[1:])] + \
        [shuffled[cut[-1]:]]
    for budget in (1, 37, 500, bounds._PHASE_BLOCK_ROOTS, 10 ** 6):
        monkeypatch.setattr(bounds, "_PHASE_BLOCK_ROOTS", budget)
        got = {}
        for batch in batches:
            got.update(_spectra_by_range(d, batch))
        assert got.keys() == ref.keys()
        for r in ranges:
            np.testing.assert_array_equal(got[r], ref[r])


def test_subrange_kernel_single_cells_take_the_closed_form():
    assert range_subrange_eigvals(1, 1, 1).tolist() == [1.0]
    assert range_subrange_svdb(1, 1, 1) == 1.0
    for d in (2, 5, 64, 2048):
        cells = list(range(1, d + 1, max(1, d // 50)))
        spectra = _subrange_spectra(d, [(i, i) for i in cells] + [(1, d)])
        assert spectra[-1].size == d
        for i, (v,) in zip(cells, spectra):
            assert v == (d + 1) / (2.0 - ((i - 1) / i + (d - i) / (d - i + 1)))
            # G_ii; 2 - alpha - beta cancels, so rounding grows with d
            np.testing.assert_allclose(v, i * (d + 1 - i), rtol=d * 1e-15)


def test_subrange_kernel_rejects_invalid_ranges():
    for bad in ((0, 1), (3, 2), (1, 9), (9, 9), (-1, 4)):
        with pytest.raises(DimOutOfRange, match="need 1 <= lo <= hi <= d"):
            range_subrange_eigvals(8, *bad)
        with pytest.raises(DimOutOfRange, match="need 1 <= lo <= hi <= d"):
            range_subrange_svdb(8, *bad)
        with pytest.raises(DimOutOfRange, match="need 1 <= lo <= hi <= d"):
            _subrange_spectra(8, [(1, 8), bad, (2, 3)])
    # the trim scan too, where no range would be left to scan
    for bad in ((0,), (5, -1), (-3,)):
        with pytest.raises(DimOutOfRange, match="need d >= 1 and max_trim >= 0"):
            range_trim_projected_svdb(*bad)


def test_subrange_kernel_raises_linalg_error_when_newton_does_not_converge(
        monkeypatch, capsys):
    monkeypatch.setattr(bounds, "_PHASE_MAX_ITER", 1)
    assert range_subrange_eigvals(10, 4, 4).size == 1  # closed form: no iteration
    with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1 Newton"):
        range_subrange_eigvals(10, 2, 9)
    with pytest.raises(np.linalg.LinAlgError):
        range_trim_projected_svdb(64, 4)
    assert cli.main(["bound", "--cells", "10", "--projections", "ranges"]) == 3
    assert "LinAlgError: phase equation" in capsys.readouterr().err


def _dense_route(d):
    """The 1-D all-ranges Gram as a plain Gram: its projections take the
    batched eigvalsh route."""
    return Workload.from_gram(range_gram_1d(d))


def test_svdb_projected_on_1d_ranges_agrees_with_the_dense_route():
    for d in range(1, 49):
        family = range_projection_family([d])
        logs = [None] * len(family)
        assert _range_svdb_logs(d, family, logs) == []
        dense = np.exp(_principal_svdb_logs(range_gram_1d(d), family))
        np.testing.assert_allclose(np.exp(logs), dense, rtol=1e-10)
        W = all_range([d])
        assert W.is_explicit and W.is_all_range_1d()
        v, mu = svdb_projected(W, family)
        assert v == math.exp(max(logs))
        np.testing.assert_allclose(v, dense.max(), rtol=1e-10)
        assert mu[0] + mu[-1] <= d + 1  # of a mirror pair, the smaller lo


def test_svdb_projected_on_a_gram_form_range_workload_forms_no_gram():
    d = 300
    W = all_range([d])
    assert not W.is_explicit and W.is_all_range_1d()
    rng = np.random.default_rng(52)
    family = [tuple(range(1 + a, d + 1 - b)) for a in range(3) for b in range(3)]
    for lo in rng.integers(1, d + 1, 12):
        family.append(tuple(range(int(lo), int(rng.integers(lo, d + 1)) + 1)))
    v, mu = svdb_projected(W, family)
    assert W._gram is None
    v_dense, _ = svdb_projected(_dense_route(d), family)
    np.testing.assert_allclose(v, v_dense, rtol=1e-10)
    np.testing.assert_allclose(svdb(column_project(_dense_route(d), mu)), v, rtol=1e-10)


def test_csv_family_mixing_ranges_and_other_subsets_matches_the_dense_route(
        tmp_path, capsys):
    d = 20
    family = [(1,), (2, 3), (5, 6, 7), (16, 15, 17), (4, 9), (1, 3, 5, 7, 9, 11), (20,),
              (3, 4, 5, 6, 7, 8, 9, 10, 11), (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)]
    path = tmp_path / "family.csv"
    path.write_text("".join(",".join(map(str, mu)) + "\n" for mu in family))
    v_dense, mu_dense = svdb_projected(_dense_route(d), family)
    for W in (all_range([d]), Workload.from_gram(range_gram_1d(d))):
        v, mu = svdb_projected(W, family)
        np.testing.assert_allclose(v, v_dense, rtol=1e-10)
        assert mu == mu_dense == family[-1]
    for mu in family:  # each subset alone, whichever route it takes
        np.testing.assert_allclose(svdb_projected(all_range([d]), [mu])[0],
                                   svdb_projected(_dense_route(d), [mu])[0], rtol=1e-10)
    assert cli.main(["bound", "--cells", str(d), "--projections", f"csv:{path}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["projected_svdb"], v_dense, rtol=1e-10)
    assert tuple(doc["projected_subset"]) == mu_dense


def test_range_projection_family_matches_a_plain_reference():
    def reference(dims):
        per_dim = [[range(lo, hi + 1) for lo in range(d) for hi in range(lo, d)]
                   for d in dims]
        family = []
        for box in itertools.product(*per_dim):
            cells = [int(np.ravel_multi_index(ix, dims)) + 1
                     for ix in itertools.product(*box)]
            family.append(tuple(sorted(cells)))
        return family
    for dims in ([1], [5], [3, 4], [2, 2, 2]):
        family = range_projection_family(dims)
        assert family == reference(dims)
        assert all(type(c) is int for mu in family for c in mu)


def test_range_subrange_phase_equation_random_trims_at_256_and_2048():
    rng = np.random.default_rng(47)
    for d, count in ((256, 12), (2048, 3)):
        G = range_gram_1d(d)
        for _ in range(count):
            lo = 1 + int(rng.integers(0, 17))
            hi = d - int(rng.integers(0, 17))
            _assert_subrange_matches_dense(d, lo, hi, G)
        lo = int(rng.integers(1, d // 2))
        _assert_subrange_matches_dense(d, lo, int(rng.integers(lo, d + 1)), G)


def _spectra_by_range(d, ranges):
    return dict(zip(ranges, _subrange_spectra(d, ranges)))


def test_range_subrange_mirror_ranges_have_identical_spectra():
    # the scans evaluate one range per mirror pair, relying on exact equality,
    # whether the two are solved alone or in one batch
    rng = np.random.default_rng(49)
    cases = [(2, 1, 1), (7, 1, 3), (2048, 3, 2040), (2048, 17, 2048)]
    for d in (16, 64, 256):
        cases += [(d, int(lo), int(rng.integers(lo, d + 1)))
                  for lo in rng.integers(1, d + 1, 20)]
    for d, lo, hi in cases:
        np.testing.assert_array_equal(range_subrange_eigvals(d, lo, hi),
                                      range_subrange_eigvals(d, d + 1 - hi, d + 1 - lo))
    for d in {c[0] for c in cases}:
        ranges = [(lo, hi) for e, lo, hi in cases if e == d]
        mirrors = [(d + 1 - hi, d + 1 - lo) for lo, hi in ranges]
        spectra = _spectra_by_range(d, ranges + mirrors)
        for r, m in zip(ranges, mirrors):
            np.testing.assert_array_equal(spectra[r], spectra[m])


def test_range_trim_scan_returns_first_maximum_in_scan_order():
    for d, max_trim in ((1, 16), (2, 16), (3, 3), (12, 12), (33, 4), (2048, 16)):
        best, arg = -math.inf, None
        for a in range(0, min(max_trim, d - 1) + 1):
            for b in range(0, min(max_trim, d - 1 - a) + 1):
                v = range_subrange_svdb(d, 1 + a, d - b)
                if v > best:
                    best, arg = v, (1 + a, d - b)
        assert range_trim_projected_svdb(d, max_trim) == (best, arg)


def test_range_trim_scan_matches_full_scan_for_small_d():
    # max_trim = d - 1 covers every range: the CLI's full scan for small d
    for d in (1, 2, 12, 64):
        best_full = max(range_subrange_svdb(d, lo, hi)
                        for lo in range(1, d + 1) for hi in range(lo, d + 1))
        best_trim, (lo, hi) = range_trim_projected_svdb(d, max_trim=d - 1)
        assert best_trim == best_full
        assert 1 <= lo <= hi <= d


def test_bound_report_json_fields():
    rep = bound_report(all_range([4]), projections=range_projection_family([4]))
    doc = rep.to_json_dict()
    assert sorted(doc) == sorted(
        ["svdb", "svdb_log10", "projected_svdb", "projected_subset", "tight",
         "diag_spread", "looseness_factor", "l1_svdb", "l1_geometric"])
    np.testing.assert_allclose(doc["svdb"], SVDB_ALLRANGE_4, rtol=1e-12)
    assert doc["projected_svdb"] >= doc["svdb"] - 1e-12
    assert isinstance(doc["tight"], bool)
    assert doc["looseness_factor"] >= 1.0 - 1e-9


def test_bound_report_uniform_is_log_space_and_tight():
    rep = bound_report(all_predicate_gram(1024))
    assert rep.svdb == math.inf
    doc = rep.to_json_dict()
    assert doc["svdb"] is None  # non-finite floats serialize as null
    np.testing.assert_allclose(rep.svdb_log10, 310.6888733921551, rtol=1e-12)
    assert rep.tight and rep.diag_spread == 0.0
    np.testing.assert_allclose(rep.looseness_factor, 1.0, rtol=0)


def test_bound_report_and_three_evaluations_solve_four_spectra(monkeypatch, eigensolves):
    closed = [all_range([64]), identity_strategy(64), hierarchical_strategy(64, 2),
              haar_strategy(64)]
    # the same Grams without their closed-form bases: one eigensolve each
    dense = [Workload.from_gram(range_gram_1d(64))] + \
        [Workload.from_gram(A.gram) for A in closed[1:]]
    # a workload's own Gram is symmetrized where it is formed: never re-validated
    validated = []
    real_check = numkernel.as_sym_matrix

    def counted_check(S, *args, **kwargs):
        validated.append(np.shape(S))
        return real_check(S, *args, **kwargs)
    for module in (numkernel, workloads):
        monkeypatch.setattr(module, "as_sym_matrix", counted_check)
    for (W, *strategies_), solves in ((dense, [64] * 4), (closed, [])):
        del eigensolves[:]
        bound_report(W)
        for A in strategies_:
            evaluate_strategy(W, A)
        assert eigensolves == solves
    assert validated == []


def test_raw_grams_take_the_workload_path(eigensolves):
    rng = np.random.default_rng(49)
    B = rng.standard_normal((6, 4))
    G = B @ B.T  # rank 4, and symmetric only up to rounding
    params = PrivacyParams(0.5, 1e-6)
    for call in (tightness_certificate, looseness_upper_bound,
                 lambda X: looseness_upper_bound(X, params)):
        del eigensolves[:]
        raw = call(G)
        assert eigensolves == [6]
        assert call(Workload.from_gram(G)) == raw
    del eigensolves[:]
    A = sqrt_strategy(G)
    assert eigensolves == [6]
    ref = sqrt_strategy(Workload.from_gram(G))
    np.testing.assert_array_equal(A.gram, ref.gram)
    np.testing.assert_array_equal(A.gram_eigvals(), ref.gram_eigvals())


def _old_certificate(G):
    R = psd_sqrt(G)
    d = np.diag(R)
    dmax, tr = float(d.max()), float(np.trace(R))
    return (dmax - d.min()) / dmax, G.shape[0] * dmax / tr, dmax * tr


def test_certificate_from_one_eigensolve_matches_psd_sqrt_formula():
    rng = np.random.default_rng(48)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        rank = int(rng.integers(1, n + 1))  # rank < n gives a rank-deficient Gram
        B = rng.standard_normal((n, rank)) * rng.uniform(0.1, 10.0, rank)
        G = B @ B.T
        spread, loose, upper = _old_certificate(G)
        rep = bound_report(Workload.from_gram(G))
        np.testing.assert_allclose(rep.diag_spread, spread, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rep.looseness_factor, loose, rtol=1e-12)
        np.testing.assert_allclose(tightness_certificate(G)[1], spread,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(looseness_upper_bound(G), upper, rtol=1e-12)
