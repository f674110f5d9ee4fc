"""Cost and diagnostics tests.

The production routes work on the Jones-overlap Gram alone: xi from its
Cholesky factor, and sigma_k(S) = sqrt(eig_k(G)), kappa(S) and the
log-volume from its eigenvalues, which are accurate to about eps * cond(G)
relative, as xi itself is.  They are checked against a direct inverse
trace, against the SVD of the explicitly built Stokes matrix, against the
orthonormal lower bound, and against the closed-form penalties of the
symmetric families up to 30 modes.
"""
import math
import tracemalloc

import numpy as np
import pytest

from stokesopt.errors import ConfigError, DimensionError, SingularSetError
from stokesopt.metrics import (
    SetMetrics,
    cost,
    gram,
    metrics,
    metrics_from_gram,
    penalty_db,
    variance_prediction,
    _LEAF,
    _STRIP,
    _inverse_factor,
    _xi,
)
from stokesopt.sets import (
    LaunchSet,
    mub_gram,
    mub_set,
    random_set,
    sic_gram,
    sic_search,
    yang_gram,
    yang_nolan,
)


def _sample_sets():
    return [yang_nolan(3), mub_set(3), random_set(2, seed=2),
            random_set(4, seed=2), random_set(5, seed=9)]


def test_cost_equals_inverse_gram_trace():
    for s in _sample_sets():
        direct = float(np.trace(np.linalg.inv(gram(s))))
        np.testing.assert_allclose(cost(s), direct, rtol=1e-9)


def _family_sets():
    return ([yang_nolan(n) for n in range(2, 9)]
            + [mub_set(n) for n in (2, 3, 5, 7)]
            + [random_set(n, seed=n) for n in range(2, 9)]
            + [sic_search(n, seed=0) for n in range(2, 11)])


def test_metrics_routes_agree():
    # xi comes from the Gram's Cholesky factor, the singular values from its
    # eigenvalues; the SVD of the explicitly built S is the independent check
    for s in _sample_sets() + _family_sets():
        m = metrics(s)
        sv = np.linalg.svd(s.stokes_matrix(), compute_uv=False)
        np.testing.assert_allclose(m.singular_values, sv, rtol=1e-8)
        np.testing.assert_allclose(m.condition_number, sv[0] / sv[-1],
                                   rtol=1e-8)
        np.testing.assert_allclose(m.log_volume, np.sum(np.log(sv)),
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(m.xi, np.sum(m.singular_values ** -2.0),
                                   rtol=1e-8)
        sign, logdet = np.linalg.slogdet(gram(s))
        assert sign > 0
        np.testing.assert_allclose(m.log_volume, 0.5 * logdet,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(m.penalty, m.xi / m.m, rtol=1e-15)
        np.testing.assert_allclose(m.penalty_db, 10 * math.log10(m.penalty),
                                   rtol=1e-12)


@pytest.mark.parametrize("make", [yang_nolan, mub_set])
def test_orthonormal_stokes_rows_reach_bound(make):
    m = metrics(make(2))
    np.testing.assert_allclose(m.xi, 3.0, atol=1e-12)
    np.testing.assert_allclose(m.penalty_db, 0.0, atol=1e-12)
    np.testing.assert_allclose(m.condition_number, 1.0, atol=1e-9)
    np.testing.assert_allclose(m.log_volume, 0.0, atol=1e-12)
    assert m.bound_ok


def test_bound_and_volume_sign_hold_generally():
    for s in _sample_sets():
        m = metrics(s)
        assert m.bound_ok
        assert m.penalty >= 1.0 - 1e-12
        assert m.log_volume <= 1e-9
        if m.penalty > 1.0 + 1e-6:
            assert m.condition_number > 1.0 + 1e-6


def test_variance_prediction_scales_with_cost():
    s = sic_search(4, seed=0)
    sigma_sq = 2.5e-3
    want = sigma_sq * 2.0 * 15.0 ** 2 / 16.0  # 28.125 per measurement set
    np.testing.assert_allclose(variance_prediction(s, sigma_sq), want,
                               rtol=1e-6)
    assert variance_prediction(s, 0.0) == 0.0
    with pytest.raises(ConfigError):
        variance_prediction(s, -1.0)


def test_duplicate_states_are_singular():
    states = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
    s = LaunchSet(n=2, states=states)
    with pytest.raises(SingularSetError):
        cost(s)
    with pytest.raises(SingularSetError):
        metrics(s)


def test_gram_entry_ranges():
    for s in _sample_sets():
        g = gram(s)
        n = s.n
        np.testing.assert_allclose(g, g.T, atol=1e-13)
        np.testing.assert_allclose(np.diag(g), 1.0, atol=1e-12)
        assert g.min() >= -1.0 / (n - 1.0) - 1e-12
        assert g.max() <= 1.0 + 1e-12
        assert np.linalg.eigvalsh(g)[0] > -1e-12


def test_thirty_mode_symmetric_families_match_closed_forms():
    sic = metrics_from_gram(sic_gram(30))
    np.testing.assert_allclose(sic.penalty_db, 10 * math.log10(2 * 899 / 900),
                               rtol=1e-10)
    assert abs(sic.penalty_db - 3.00) < 0.02
    mub = metrics_from_gram(mub_gram(30))
    np.testing.assert_allclose(mub.penalty_db, 10 * math.log10(2 * 29 / 30),
                               rtol=1e-10)
    assert abs(mub.penalty_db - 2.86) < 0.02


def test_thirty_mode_pairwise_family_penalty():
    yang = metrics_from_gram(yang_gram(30))
    direct = float(np.trace(np.linalg.inv(yang_gram(30))))
    np.testing.assert_allclose(yang.xi, direct, rtol=1e-9)
    np.testing.assert_allclose(yang.penalty_db, 5.657971, atol=1e-5)
    assert abs(yang.penalty_db - 5.65) < 0.05


def test_metrics_from_gram_matches_metrics():
    s = mub_set(3)
    a = metrics(s)
    g = gram(s)
    b = metrics_from_gram(g)
    assert np.array_equal(g, gram(s))  # the caller's Gram is left alone
    assert isinstance(b, SetMetrics)
    assert (b.n, b.m) == (a.n, a.m)
    np.testing.assert_allclose(b.xi, a.xi, rtol=1e-10)
    np.testing.assert_allclose(b.singular_values, a.singular_values,
                               rtol=1e-8)
    np.testing.assert_allclose(b.log_volume, a.log_volume,
                               rtol=1e-8, atol=1e-10)


def test_metrics_from_gram_validates_shape():
    with pytest.raises(DimensionError):
        metrics_from_gram(np.eye(4)[:2])
    with pytest.raises(DimensionError):
        metrics_from_gram(np.eye(7))  # 7 + 1 is not a square


def test_penalty_db_values():
    assert penalty_db(1.0) == 0.0
    np.testing.assert_allclose(penalty_db(2.0), 10 * math.log10(2.0),
                               rtol=1e-15)


def test_xi_cholesky_matches_cho_factor_route_bitwise(lapack_inverse_factor):
    # cho_factor then trtri, the LAPACK route, is the second subject of the
    # mpmath test below: the fixture is that route to the bit.  The package
    # kernel factors with numpy instead, so it is held to the route within
    # k eps cond(G) (k = 1 on each entry of L^-1 against max|L^-1| and on
    # xi; the largest k measured over 36 random sets, n = 2..7, is 0.13),
    # and to metrics' xi to the bit
    from scipy.linalg import cho_factor
    from scipy.linalg.lapack import dtrtri

    eps = np.finfo(float).eps
    for n, seed in ((2, 1), (4, 2), (7, 3)):
        s = random_set(n, seed=seed)
        g = gram(s)
        c, _ = cho_factor(g, lower=True, check_finite=False)
        ref, info = dtrtri(np.tril(c), lower=1)
        assert info == 0
        assert lapack_inverse_factor(g).tobytes() == ref.tobytes()
        bound = eps * np.linalg.cond(g)
        linv = _inverse_factor(g)
        assert not np.any(np.triu(linv, 1))
        assert np.abs(linv - ref).max() <= bound * np.abs(ref).max()
        assert abs(_xi(linv) - _xi(ref)) <= bound * _xi(ref)
        assert _xi(linv) == metrics(s).xi
    with pytest.raises(SingularSetError, match="not positive definite"):
        _inverse_factor(-np.eye(3))


def _copying_factor(g):
    """The kernel's recursion into fresh arrays, `g` untouched: the same
    products of the same strips, each read before the kernel overwrites it."""
    m = g.shape[0]
    if m <= _LEAF:
        return np.linalg.inv(np.linalg.cholesky(g)) * np.tri(m, dtype=bool)
    h, s = m // 2, _STRIP
    b = g[h:, :h]
    x11 = _copying_factor(g[:h, :h])
    l21 = np.empty_like(b)
    for lo in reversed(range(0, h, s)):
        l21[:, lo:lo + s] = b[:, :lo + s] @ x11[lo:lo + s, :lo + s].T
    schur = np.array(g[h:, h:])
    for lo in range(0, m - h, s):
        schur[lo:lo + s, :lo + s] -= l21[lo:lo + s] @ l21[:lo + s].T
    x22 = _copying_factor(schur)
    t = np.empty_like(b)
    for lo in range(0, h, s):
        t[:, lo:lo + s] = l21[:, lo:] @ x11[lo:, lo:lo + s]
    inv = np.zeros_like(g)
    inv[:h, :h] = x11
    inv[h:, h:] = x22
    for lo in reversed(range(0, m - h, s)):
        inv[h + lo:h + lo + s, :h] = -(x22[lo:lo + s, :lo + s] @ t[:lo + s])
    return inv


@pytest.mark.parametrize("n", [9, 10, 30])
def test_inverse_factor_in_place_matches_copying_recursion_bitwise(n):
    # m = 80, 99, 899: one split into two leaves, a split with leaves of
    # uneven size, and four levels of splits, the top one over two strips
    g = gram(random_set(n, seed=n))
    want = _copying_factor(g)
    linv = _inverse_factor(g)
    assert linv is g
    assert linv.tobytes() == want.tobytes()


def test_inverse_factor_peak_memory_is_strips_only():
    # L^-1 is written over the Gram itself: at m = 399 the traced peak is a
    # strip product and the leaves' buffers, under one _STRIP x m strip.
    # numpy's LAPACK wrappers copy their operands into buffers from plain
    # malloc, which tracemalloc does not see
    n = 20
    m = n * n - 1
    g = gram(random_set(n, seed=0))
    _inverse_factor(g.copy())
    tracemalloc.start()
    try:
        _inverse_factor(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _STRIP * m


def test_inverse_factor_matches_cho_solve_reference():
    # the inversion step alone: G^-1 from scipy's cho_solve against I on the
    # kernel's own Cholesky factor (triangular solves, a route the package
    # does not use) against L^-T L^-1.  Factor accuracy is the mpmath
    # test's.  Tolerance: 1e-13 relative on xi and 1e-13 * max|G^-1| on
    # each entry; n = 9, 10 (m = 80, 99) take the blocked recursion past
    # one leaf.  The largest misses measured (cond(G) up to 6.6e4) are
    # 4.0e-16 and 1.0e-15.
    from scipy.linalg import cho_solve

    for n in range(2, 11):
        g = gram(random_set(n, seed=n))
        ref = cho_solve((np.linalg.cholesky(g), True), np.eye(g.shape[0]))
        linv = _inverse_factor(g)
        assert not np.any(np.triu(linv, 1))
        np.testing.assert_allclose(_xi(linv), np.trace(ref), rtol=1e-13)
        np.testing.assert_allclose(linv.T @ linv, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())


def test_inverse_factor_matches_mpmath_reference(mp_inverse,
                                                 lapack_inverse_factor):
    # xi and G^-1 = L^-T L^-1 against a 40-digit inverse of the same float
    # Gram.  Bounds, met by the package kernel and by LAPACK potrf/trtri
    # alike: |xi - ref| <= k eps cond(G) ref with k = 1, and every entry of
    # G^-1 within k eps cond(G) max|G^-1| with k = 4.  The largest k
    # measured over these 25 sets (cond(G) up to 1.0e6) is 0.23 and 1.07;
    # n = 9 (m = 80, cond(G) 1.0e6, k up to 0.004) takes the blocked
    # recursion past one leaf.
    eps = np.finfo(float).eps
    cases = [(n, seed) for n in range(2, 6) for seed in range(6)] + [(9, 0)]
    for n, seed in cases:
        s = random_set(n, seed=seed)
        g = gram(s)
        ref = mp_inverse(g)
        ref_xi = math.fsum(np.diag(ref))
        cond = np.linalg.cond(g)
        linv = _inverse_factor(g.copy())  # the kernel overwrites g
        assert not np.any(np.triu(linv, 1))
        assert _xi(linv) == metrics(s).xi
        for factor in (linv, lapack_inverse_factor(g)):
            assert abs(_xi(factor) - ref_xi) <= eps * cond * ref_xi
            assert (np.abs(factor.T @ factor - ref).max()
                    <= 4.0 * eps * cond * np.abs(ref).max()), (n, seed)
    with pytest.raises(SingularSetError, match="not positive definite"):
        _inverse_factor(-np.eye(3))
