"""Property tests of the storage forms and bound laws over random small inputs.

Factor entries are small integers, so every Gram entry is an exact integer
sum in float64 and the explicit and Gram-only forms of a product must agree
bit for bit, not just to a tolerance. Quantities a product assembles from its
factors agree with the dense path on the same Gram to rounding, and so do
the uniform log-space form and its materialized Gram. The closed-form
eigenpairs of 1-D ranges, the identity, Haar and regular trees diagonalize
their Grams, and errors through them agree with the same Grams solved
densely. Rows the library forms on first read are its eager rows bit for
bit, and their closed-form column counts are the column sums over them.
The analytic error never falls below the spectral bound, and
sqrt(svdb) is subadditive under union. The batched projection scan is the
per-subset scan, bit for bit on integer workloads, with each subset solved
by the rule the scan applies to it. A block of noise draws
equals the per-trial streams bit for bit. Examples are drawn deterministically, so every
run checks the same ones.
"""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from querybound import (
    GaussianNoise,
    PrivacyParams,
    SupportViolation,
    Workload,
    all_predicate_gram,
    all_range,
    analytic_total_error,
    bound_report,
    column_project,
    data_cube,
    empirical_error,
    exhaustive_projection_family,
    haar_strategy,
    hierarchical_strategy,
    identity_strategy,
    kron_product,
    kron_strategy,
    range_gram_1d,
    range_projection_family,
    range_subrange_eigvals,
    sensitivity,
    sqrt_strategy,
    svdb,
    svdb_log,
    svdb_projected,
    union,
    workloads,
)
from querybound.logspace import to_float
from querybound.mechanism import _column_abs_sums, _recovery_matrix
from querybound.numkernel import EigenPair, quadratic_forms
from querybound.strategies import _uniform_sqrt

factor = st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n).map(
        lambda v: Workload.from_matrix(np.reshape(v, (m, n)).astype(float),
                                       dedup=False))))
factors = st.lists(factor, min_size=2, max_size=3)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _product_and_strategy(parts):
    W = kron_product(parts)
    A = kron_strategy([hierarchical_strategy(p.n) for p in parts])
    return W, A


@SETTINGS
@given(factors)
def test_explicit_and_gram_forms_of_a_product_agree(parts):
    W, A = _product_and_strategy(parts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
        Wg, Ag = _product_and_strategy(parts)
    assert W.is_explicit and A.is_explicit
    assert not (Wg.is_explicit or Ag.is_explicit)
    np.testing.assert_array_equal(Wg.gram, W.gram)
    np.testing.assert_allclose(svdb(Wg), svdb(W), rtol=1e-12)
    np.testing.assert_allclose(analytic_total_error(Wg, Ag).total_error,
                               analytic_total_error(W, A).total_error, rtol=1e-9)


@SETTINGS
@given(factors)
def test_svdb_is_multiplicative_under_kron_product(parts):
    np.testing.assert_allclose(svdb(kron_product(parts)),
                               np.prod([svdb(p) for p in parts]), rtol=1e-9, atol=1e-12)


def _stripped(W):
    """The same Gram without its factors: every quantity takes the dense path."""
    return Workload.from_gram(W.gram, query_count=W.query_count)


@SETTINGS
@given(factors, st.booleans())
def test_factored_and_dense_paths_agree(parts, gram_form):
    with pytest.MonkeyPatch.context() as mp:
        if gram_form:
            mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
        W, A = _product_and_strategy(parts)
    assert W.factors is not None and A.factors is not None
    rep, ref = bound_report(W), bound_report(_stripped(W))
    np.testing.assert_allclose(rep.svdb, ref.svdb, rtol=1e-12)
    np.testing.assert_allclose(rep.diag_spread, ref.diag_spread, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(rep.looseness_factor, ref.looseness_factor, rtol=1e-9)
    err = analytic_total_error(W, A)
    dense = analytic_total_error(_stripped(W), _stripped(A))
    np.testing.assert_allclose(err.total_error, dense.total_error, rtol=1e-9)
    np.testing.assert_allclose(err.support_residual, dense.support_residual, rtol=0,
                               atol=1e-12)


def _matrices(rows, n):
    return rows.flatmap(lambda m: st.lists(st.integers(-3, 3), min_size=m * n,
                                           max_size=m * n).map(
        lambda v: np.reshape(v, (m, n)).astype(float)))


@st.composite
def workload_and_full_rank_strategy(draw):
    """A workload and a strategy with an identity block, as one or two factors."""
    Ws, As = [], []
    for n in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        Ws.append(Workload.from_matrix(draw(_matrices(st.integers(1, 4), n)), dedup=False))
        extra = draw(_matrices(st.integers(0, 3), n))
        As.append(Workload.from_matrix(np.vstack([np.eye(n), extra]), dedup=False))
    return kron_product(Ws), kron_strategy(As)


@SETTINGS
@given(workload_and_full_rank_strategy())
def test_analytic_error_is_at_least_p_times_svdb_for_full_rank_strategies(pair):
    W, A = pair
    rep = analytic_total_error(W, A, PrivacyParams(1.0, 1e-5))
    assert rep.total_error >= rep.p_factor * svdb(W) * (1 - 1e-9)


@st.composite
def uniform_workloads(draw):
    """A constant-diagonal Gram up to the materializable() boundary, off = 0 allowed."""
    n = draw(st.integers(1, 32))
    log_diag = draw(st.floats(-20.0, math.log(1e300), exclude_max=True))
    share = draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.9)))  # off / diag
    log_off = log_diag + math.log(share) if share > 0 else -math.inf
    return Workload.from_uniform_gram(n, log_diag, log_off)


def _materialized(W):
    return Workload.from_gram(W.uniform.materialize(W.n))


@SETTINGS
@given(uniform_workloads())
def test_uniform_log_and_materialized_forms_agree(W):
    # relative agreement of the values, checked on their logs (atol covers ln 1 = 0)
    dense = _materialized(W)
    np.testing.assert_allclose(svdb_log(dense), svdb_log(W), rtol=1e-12, atol=1e-12)
    root = _uniform_sqrt(W)
    for forms in ([root, _materialized(root)], [hierarchical_strategy(W.n)]):
        reps = [analytic_total_error(w, a) for w in (W, dense) for a in forms]
        for rep in reps[1:]:
            np.testing.assert_allclose(rep.total_error_log10, reps[0].total_error_log10,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rep.support_residual, reps[0].support_residual,
                                       rtol=0, atol=1e-12)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_matrices(st.integers(1, 4), n),
                                                     _matrices(st.integers(1, 4), n))))
def test_sqrt_svdb_is_subadditive_under_union(pair):
    W1, W2 = (Workload.from_matrix(M) for M in pair)
    joint = math.sqrt(svdb(union(W1, W2)))
    assert joint <= (math.sqrt(svdb(W1)) + math.sqrt(svdb(W2))) * (1 + 1e-12) + 1e-12


def _range(d, gram_form):
    with pytest.MonkeyPatch.context() as mp:
        if gram_form:
            mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
        W = all_range([d])
    assert W.is_explicit != gram_form
    return W


# the cell counts of the regular trees: n = k^j <= 256
TREE_SIZES = {k: [k ** j for j in range(9) if k ** j <= 256] for k in (2, 3, 4)}


@st.composite
def closed_forms(draw):
    """A workload or strategy with a closed-form basis, and its Gram formed densely."""
    kind = draw(st.sampled_from(["range", "identity", "haar", "tree"]))
    if kind == "range":
        d = draw(st.integers(1, 64))
        return _range(d, draw(st.booleans())), range_gram_1d(d)
    if kind == "identity":
        A = identity_strategy(draw(st.integers(1, 64)))
    elif kind == "haar":
        A = haar_strategy(draw(st.sampled_from(TREE_SIZES[2])))
    else:
        k = draw(st.sampled_from([2, 3, 4]))
        A = hierarchical_strategy(draw(st.sampled_from(TREE_SIZES[k])), k)
    return A, A.matrix.T @ A.matrix


@SETTINGS
@given(closed_forms())
def test_closed_form_eigenpairs_diagonalize_their_grams(case):
    X, G = case
    values, vectors = X.gram_eig()
    assert np.max(np.abs(G @ vectors - vectors * values)) <= 1e-12 * np.max(np.abs(G))
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(X.n), rtol=0, atol=1e-12)
    assert np.all(np.diff(values) <= 0)
    np.testing.assert_array_equal(X.gram_eigvals(), values[::-1])


@st.composite
def workload_and_closed_strategy(draw):
    """A workload on a regular tree's cell count and a strategy with a closed-form basis."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from(TREE_SIZES[k]))
    kind = draw(st.sampled_from(["range", "explicit", "predicate"]))
    if kind == "range":
        W = _range(n, draw(st.booleans()))
    elif kind == "explicit" or n < 17:  # all-predicate takes the uniform form from 17
        W = Workload.from_matrix(draw(_matrices(st.integers(1, 4), n)), dedup=False)
    else:
        W = all_predicate_gram(n)
    strategies_ = [identity_strategy(n), hierarchical_strategy(n, k), sqrt_strategy(W)]
    if k == 2:
        strategies_.append(haar_strategy(n))
    if kind == "range":
        strategies_.append(W)
    return W, draw(st.sampled_from(strategies_))


@SETTINGS
@given(workload_and_closed_strategy())
def test_errors_through_closed_forms_match_the_dense_twins(pair):
    W, A = pair
    Wd = Workload.from_gram(W.uniform.materialize(W.n) if W.uniform else W.gram)
    rep, dense = analytic_total_error(W, A), analytic_total_error(Wd, Workload.from_gram(A.gram))
    np.testing.assert_allclose(rep.total_error, dense.total_error, rtol=1e-9)
    np.testing.assert_allclose(rep.support_residual, dense.support_residual, rtol=0,
                               atol=1e-12)


@SETTINGS
@given(st.integers(1, 64), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_range_forms_by_prefix_sums_match_the_dense_forms(d, gram_form, seed):
    W = _range(d, gram_form)
    rng = np.random.default_rng(seed)
    for vectors in (rng.standard_normal((d, 2 * d)), W.gram_eig().vectors,
                    identity_strategy(d).gram_eig().vectors):
        pair = EigenPair(np.zeros(vectors.shape[1]), vectors)
        np.testing.assert_allclose(W.gram_forms(pair), quadratic_forms(range_gram_1d(d), pair),
                                   rtol=1e-12)


def _eager_tree_rows(n, k):
    """Tree rows as the constructor once formed them: breadth-first nodes,
    the last child of an uneven split taking the remainder."""
    nodes, queue = [], [(0, n)]
    while queue:
        lo, size = queue.pop(0)
        nodes.append((lo, size))
        if size > 1:
            q = -(-size // min(k, size))
            starts = list(range(lo, lo + size, q))
            queue += [(s, e - s) for s, e in zip(starts, starts[1:] + [lo + size])]
    M = np.zeros((len(nodes), n))
    for r, (lo, size) in enumerate(nodes):
        M[r, lo:lo + size] = 1.0
    return M


def _eager_haar_rows(n):
    M = np.zeros((n, n))
    M[0] = 1.0
    r, block = 1, n
    while block > 1:
        half = block // 2
        for start in range(0, n, block):
            M[r, start:start + half] = 1.0
            M[r, start + half:start + block] = -1.0
            r += 1
        block = half
    return M


@st.composite
def deferred_rows(draw, max_n=64):
    """(X, M, unit): a library workload whose rows are formed on first read,
    each entry 0 or +-1, with the rows M its eager builder formed; now and
    then explicit integer rows instead, which carry no column counts."""
    kind = draw(st.sampled_from(["identity", "tree", "haar", "range", "rows"]))
    n = draw(st.integers(1, max_n))
    if kind == "identity":
        return identity_strategy(n), np.eye(n), True
    if kind == "tree":
        k = draw(st.integers(2, 4))
        regular = max(k ** j for j in range(7) if k ** j <= n)
        n = draw(st.sampled_from([n, regular]))
        return hierarchical_strategy(n, k), _eager_tree_rows(n, k), True
    if kind == "haar":
        n = 2 ** draw(st.integers(0, 8 if max_n > 8 else 2))
        return haar_strategy(n), _eager_haar_rows(n), True
    if kind == "range":
        return _range(n, False), workloads._range_rows_1d(n), True
    M = draw(_matrices(st.integers(1, 3), min(n, 4)))
    return Workload.from_matrix(M, dedup=False), M, False


@st.composite
def deferred_rows_and_products(draw):
    """deferred_rows, or an explicit product of two or three small ones,
    perhaps nested, with the Kronecker product of their eager rows."""
    if draw(st.booleans()):
        return draw(deferred_rows())
    parts = draw(st.lists(deferred_rows(max_n=6), min_size=2, max_size=3))
    X = kron_product([X for X, _, _ in parts])
    if len(parts) == 3 and draw(st.booleans()):
        X = kron_product([kron_product([X for X, _, _ in parts[:2]]), parts[2][0]])
    assert X.is_explicit
    return X, reduce(np.kron, [M for _, M, _ in parts]), all(u for _, _, u in parts)


@SETTINGS
@given(deferred_rows_and_products())
def test_deferred_rows_and_column_counts_are_the_eager_ones_bit_for_bit(case):
    X, M, unit = case
    assert (X._counts is not None) == unit
    if unit:  # the closed forms, read before any row is formed
        diag, l1 = X.gram_diag(), sensitivity(X, "l1")
        assert X._matrix is None
        np.testing.assert_array_equal(diag, np.einsum("ij,ij->j", M, M))
        np.testing.assert_array_equal(X._counts, _column_abs_sums(M))
        assert l1 == float(np.max(_column_abs_sums(M)))
    assert X.is_explicit and X.query_count == M.shape[0]
    assert X.matrix.dtype == M.dtype and X.matrix.flags.c_contiguous
    np.testing.assert_array_equal(X.matrix, M)
    assert X.matrix is X.matrix and not X.matrix.flags.writeable
    np.testing.assert_array_equal(X.gram_diag(), np.einsum("ij,ij->j", M, M))


def test_irregular_trees_and_derived_workloads_carry_no_basis(eigensolves):
    W = all_range([12])
    for X in (hierarchical_strategy(12, 2), hierarchical_strategy(8, 3),
              column_project(W, range(1, 13)), Workload.from_gram(W.gram),
              data_cube([3, 4], [[1]], [1.0])):
        del eigensolves[:]
        X.gram_eig()
        assert eigensolves == [X.n]


def _subset_svdb_log(W, mu):
    """ln svdb of one projection, by the rule svdb_projected applies to it: a
    contiguous range of the 1-D all-ranges workload from its phase-equation
    spectrum, any other subset from the projected workload's eigensolve."""
    if W.is_all_range_1d() and mu[-1] - mu[0] + 1 == len(mu):
        s = np.sum(np.sqrt(range_subrange_eigvals(W.n, mu[0], mu[-1])))
        return 2.0 * math.log(s) - math.log(len(mu))
    return svdb_log(column_project(W, mu))


def _projected_by_subset(W, family):
    """max of _subset_svdb_log(W, mu) over the family, and the smallest
    subset that attains it."""
    logs = {mu: _subset_svdb_log(W, mu) for mu in {tuple(sorted(set(mu))) for mu in family}}
    top = max(logs.values())
    return to_float(top), min(mu for mu, l in logs.items() if l == top)


@st.composite
def integer_workload_and_family(draw):
    """All-range grids (explicit or Gram form) with their range family, or an
    explicit all-predicate workload with its exhaustive family, each with a
    few drawn subsets appended."""
    if draw(st.booleans()):
        dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
        with pytest.MonkeyPatch.context() as mp:
            if draw(st.booleans()):
                mp.setattr(workloads, "EXPLICIT_ENTRY_CAP", 0)
            W = all_range(dims)
        family = range_projection_family(dims)
    else:
        W = all_predicate_gram(draw(st.integers(1, 7)))
        family = exhaustive_projection_family(W.n)
    extra = st.lists(st.integers(1, W.n), min_size=1, max_size=W.n)
    return W, family + draw(st.lists(extra, max_size=6))


@SETTINGS
@given(integer_workload_and_family())
def test_projected_scan_is_the_per_subset_scan_bit_for_bit(pair):
    W, family = pair
    assert svdb_projected(W, family) == _projected_by_subset(W, family)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_projected_scan_matches_the_per_subset_scan_on_real_workloads(n, m, seed):
    W = Workload.from_matrix(np.random.default_rng(seed).standard_normal((m, n)),
                             dedup=False)
    family = exhaustive_projection_family(n)
    v, mu = svdb_projected(W, family)
    ref, _ = _projected_by_subset(W, family)
    np.testing.assert_allclose(v, ref, rtol=1e-12)
    # near-ties may round either way: the witness need only attain the max
    np.testing.assert_allclose(svdb(column_project(W, mu)), ref, rtol=1e-12)


# seeds of one, two to four, and more than four uint32 words
noise_seeds = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1),
                        st.integers(2 ** 32, 2 ** 128 - 1), st.integers(2 ** 128, 2 ** 200))


@st.composite
def trial_blocks(draw):
    """(start, count): blocks at the first trial or ending near 2^32."""
    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.integers(0, 40)), count
    return 2 ** 32 - count - draw(st.integers(0, 3)), count


@SETTINGS
@given(noise_seeds, st.integers(1, 9), trial_blocks())
@example(0, 1, (0, 1))
@example(2 ** 128, 1, (2 ** 32 - 1, 1))
@example(2 ** 64, 5, (2 ** 32 - 3, 3))
def test_noise_block_is_the_stacked_per_trial_streams(seed, size, block):
    start, count = block
    noise = GaussianNoise(seed)
    expected = np.stack([noise.generator(t).standard_normal(size)
                         for t in range(start, start + count)])
    drawn = noise.block(size, start, count)
    assert drawn.shape == expected.shape and drawn.tobytes() == expected.tobytes()


@st.composite
def strategies_near_the_cutoff(draw):
    """(W, A, s): A = U diag(s) V' with singular values s in [0.05, 1] times a
    scale, some of them 0 and perhaps one in (1e-12, 1e-6) s_max; W's rows lie
    in the span of A's large singular directions, of those and the next one,
    or anywhere."""
    n, m_a, m_w = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = min(m_a, n)
    s = np.sort(rng.uniform(0.05, 1.0, r))[::-1] * 10.0 ** draw(st.integers(-3, 3))
    large = r - draw(st.integers(0, r - 1))
    s[large:] = 0.0
    if large < r and draw(st.booleans()):
        s[large] = s[0] * 10.0 ** draw(st.floats(-12.0, -6.0, exclude_min=True,
                                                 exclude_max=True))
    U = np.linalg.qr(rng.standard_normal((m_a, m_a)))[0][:, :r]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    span = {"large": V[:, :large], "next": V[:, :large + 1], "any": np.eye(n)}[
        draw(st.sampled_from(["large", "next", "any"]))]
    W = rng.standard_normal((m_w, span.shape[1])) @ span.T
    return (Workload.from_matrix(W, dedup=False),
            Workload.from_matrix((U * s) @ V[:, :r].T, dedup=False), s)


@settings(SETTINGS, max_examples=200)
@given(strategies_near_the_cutoff())
@example((Workload.from_matrix(np.eye(3), dedup=False),
          Workload.from_matrix(np.diag([1.0, 1.0, 1e-7]), dedup=False),
          np.array([1.0, 1.0, 1e-7])))
def test_run_refuses_what_eval_refuses_and_recovers_as_the_cut_pinv(case):
    W, A, s = case
    try:
        empirical_error(W, A, np.zeros(W.n), PrivacyParams(1.0, 1e-5), 2)
    except SupportViolation:
        return
    analytic_total_error(W, A)  # accepted too: the same kept eigenvectors
    cutoff = 1e-6 * s.max()  # on singular values: 1e-12 on Gram eigenvalues
    if np.all((s < cutoff / 10) | (s > cutoff * 10)):
        got = _recovery_matrix(W, A)
        ref = W.matrix @ np.linalg.pinv(A.matrix, rcond=1e-6)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)
