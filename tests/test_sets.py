"""Launch-set family tests.

Closed-form Grams, penalties and log-volumes are cross-checked against the
constructed states; the SIC search is checked against its defining overlap
property and a finite-difference oracle for its fiducial Jacobian;
persistence is checked for exact round trips.
"""
import json
import tracemalloc

import numpy as np
import pytest

from stokesopt.errors import ConfigError, DimensionError, SearchFailedError
from stokesopt.metrics import metrics, metrics_from_gram
from stokesopt.seeding import rng_for
from stokesopt.sets import (
    LaunchSet,
    SimplexSet,
    _GRAM_ROWS,
    _fiducial_residuals,
    bundled_optimal_set,
    canonicalize_phases,
    gram_from_states,
    load_set,
    mub_bases,
    mub_gram,
    mub_log_volume,
    mub_penalty,
    mub_set,
    random_set,
    random_states,
    save_set,
    sic_gram,
    sic_log_volume,
    sic_penalty,
    sic_search,
    simplex_set,
    yang_gram,
    yang_nolan,
)

PRIMES = [2, 3, 5, 7, 11, 13]


# ---------------------------------------------------------------------------
# Gram from Jones overlaps
# ---------------------------------------------------------------------------

def _one_shot_gram(states, n):
    """The overlap Gram formula over the whole stack in one expression."""
    ov = states.conj() @ states.T
    nrm2 = ov.diagonal().real.copy()
    sq = (ov.conj() * ov).real
    return (n / (n - 1.0)) * (sq - nrm2[:, None] * nrm2 / n)


@pytest.mark.parametrize("n", [5, 6, 8, 9, 12, 30])
def test_gram_from_states_matches_one_shot_formula_bitwise(n):
    # m = 24 fits one strip of rows, m = 35 needs a second strip of three,
    # and m = 63, 80, 143, 899 take two to 29 strips; off the unit spheres
    # too, where the norm term differs row by row
    assert 24 <= _GRAM_ROWS < 35
    states = random_set(n, seed=n).states
    scaled = states * rng_for(n, 1).uniform(0.5, 2.0, (n * n - 1, 1))
    for stack in (states, scaled):
        assert (gram_from_states(stack, n).tobytes()
                == _one_shot_gram(stack, n).tobytes())


def test_gram_from_states_peak_memory_is_one_output_buffer():
    # at m = 399 the one-shot formula peaks near four m x m float arrays;
    # by strips of rows the traced peak stays under one and a half
    n = 20
    m = n * n - 1
    states = random_set(n, seed=0).states
    gram_from_states(states, n)
    tracemalloc.start()
    try:
        gram_from_states(states, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m * m


# ---------------------------------------------------------------------------
# Yang-Nolan family
# ---------------------------------------------------------------------------

def test_yang_two_modes_is_orthonormal_stokes_triple():
    s = yang_nolan(2)
    rt = 1.0 / np.sqrt(2.0)
    expected = np.array([[1, 0], [rt, rt], [rt, 1j * rt]])
    np.testing.assert_allclose(s.states, expected, atol=0)
    # Stokes images are the three coordinate axes (a permutation of them)
    perm = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(s.stokes_matrix(), perm, atol=1e-15)
    np.testing.assert_allclose(gram_from_states(s.states, 2), np.eye(3),
                               atol=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
def test_yang_count_family_and_norms(n):
    s = yang_nolan(n)
    assert s.family == "yang"
    assert s.states.shape == (n * n - 1, n)
    np.testing.assert_allclose(np.linalg.norm(s.states, axis=1), 1.0,
                               atol=1e-14)


@pytest.mark.parametrize("n", range(2, 7))
def test_yang_gram_table_matches_construction(n):
    built = gram_from_states(yang_nolan(n).states, n)
    np.testing.assert_allclose(built, yang_gram(n), atol=1e-12)


def test_yang_rejects_single_mode():
    with pytest.raises(DimensionError):
        yang_nolan(1)


# ---------------------------------------------------------------------------
# Mutually unbiased bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", PRIMES)
def test_mub_bases_orthonormal_and_unbiased(n):
    bases = mub_bases(n)
    assert len(bases) == n + 1
    for b in bases:
        np.testing.assert_allclose(b.conj() @ b.T, np.eye(n), atol=1e-12)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            cross = np.abs(bases[i].conj() @ bases[j].T) ** 2
            np.testing.assert_allclose(cross, 1.0 / n, atol=1e-12)


@pytest.mark.parametrize("n", PRIMES)
def test_mub_set_counts_and_gram(n):
    s = mub_set(n)
    assert s.family == "mub"
    assert s.states.shape == (n * n - 1, n)
    np.testing.assert_allclose(gram_from_states(s.states, n), mub_gram(n),
                               atol=1e-12)


@pytest.mark.parametrize("n", PRIMES)
def test_mub_cost_matches_closed_form(n):
    got = metrics(mub_set(n)).xi
    want = (n * n - 1) * mub_penalty(n)
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("n", [4, 6, 9, 15])
def test_mub_composite_dimension_rejected(n):
    with pytest.raises(DimensionError, match="prime"):
        mub_set(n)


def test_mub_two_modes_has_no_penalty():
    assert mub_penalty(2) == 1.0
    np.testing.assert_allclose(mub_gram(2), np.eye(3), atol=0)
    assert mub_log_volume(2) == 0.0


@pytest.mark.parametrize("n", PRIMES)
def test_mub_log_volume_matches_gram_determinant(n):
    sign, logdet = np.linalg.slogdet(mub_gram(n))
    assert sign > 0
    np.testing.assert_allclose(mub_log_volume(n), 0.5 * logdet, atol=1e-9)


# ---------------------------------------------------------------------------
# SIC sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_sic_gram_entries(n):
    g = sic_gram(n)
    m = n * n - 1
    assert g.shape == (m, m)
    np.testing.assert_allclose(np.diag(g), 1.0, atol=0)
    off = g[~np.eye(m, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / m, atol=0)


@pytest.mark.parametrize("n", range(2, 9))
def test_sic_log_volume_matches_gram_determinant(n):
    sign, logdet = np.linalg.slogdet(sic_gram(n))
    assert sign > 0
    np.testing.assert_allclose(sic_log_volume(n), 0.5 * logdet, atol=1e-9)


@pytest.mark.parametrize("n", range(2, 11))
def test_sic_search_reaches_equal_overlaps(n):
    s = sic_search(n, seed=0)
    assert s.family == "sic"
    assert s.states.shape == (n * n - 1, n)
    assert s.meta["residual"] < 1e-8
    built = gram_from_states(s.states, n)
    np.testing.assert_allclose(built, sic_gram(n), atol=1e-10)
    # output is phase-canonical
    for row in s.states:
        piv = row[int(np.argmax(np.abs(row)))]
        assert piv.imag == 0.0 and piv.real >= 0.0


@pytest.mark.parametrize("n, want", [(2, 4.5), (3, 128.0 / 9.0)])
def test_sic_search_cost_matches_closed_form(n, want):
    s = sic_search(n, seed=0)
    np.testing.assert_allclose(metrics(s).xi, want, atol=1e-6)
    np.testing.assert_allclose((n * n - 1) * sic_penalty(n), want, rtol=1e-15)


def test_sic_search_deterministic():
    a = sic_search(3, seed=4)
    b = sic_search(3, seed=4)
    assert np.array_equal(a.states, b.states)


def test_sic_search_unreachable_tol_reports_best_residual():
    # 1e-17 is below the double-precision floor for this residual
    with pytest.raises(SearchFailedError) as exc:
        sic_search(2, seed=0, tol=1e-17, starts=1)
    assert exc.value.residual < 1e-10


def test_sic_search_rejects_bad_arguments():
    with pytest.raises(DimensionError):
        sic_search(1)
    with pytest.raises(ConfigError):
        sic_search(2, tol=0.0)
    with pytest.raises(ConfigError):
        sic_search(2, starts=0)


def test_fiducial_jacobian_matches_finite_differences():
    h = 1e-6
    for n in (2, 3, 5, 8):
        x = rng_for(90, n).standard_normal(2 * n)
        res, jac = _fiducial_residuals(x, n)
        # residuals against explicit shift and clock matrices, (a, b) != 0
        psi = x[:n] + 1j * x[n:]
        shift = np.roll(np.eye(n), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        want = [abs(psi.conj() @ np.linalg.matrix_power(shift, a)
                    @ np.linalg.matrix_power(clock, b) @ psi) ** 2
                for a in range(n) for b in range(n)][1:]
        np.testing.assert_allclose(res, np.array(want) - 1.0 / (n + 1),
                                   rtol=1e-12, atol=1e-12)
        assert jac.shape == (n * n - 1, 2 * n)
        fd = np.column_stack([
            (_fiducial_residuals(x + h * e, n)[0]
             - _fiducial_residuals(x - h * e, n)[0]) / (2 * h)
            for e in np.eye(2 * n)])
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# Random sets and simplices
# ---------------------------------------------------------------------------

def test_random_set_deterministic_and_nonsingular():
    a = random_set(3, seed=5)
    b = random_set(3, seed=5)
    c = random_set(3, seed=6)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.family == "random"
    sv = np.linalg.svd(a.stokes_matrix(), compute_uv=False)
    assert sv[-1] > 1e-12 * sv[0]


def test_random_set_keeps_the_first_draw():
    # the sets of every n and seed the sweep and the benchmark use are the
    # first draw of rng_for(seed), the draws the earlier redraw rules kept
    for seed in [*range(10), 1000]:
        for n in range(2, 31):
            s = random_set(n, seed=seed)
            first = random_states(rng_for(seed), n * n - 1, n)
            assert np.array_equal(s.states, first)


def test_random_set_high_dimension_penalty_is_large():
    # a single uniform draw in 30 modes is far from optimal (tens of dB,
    # draw-dependent; this seed gives 32.0 dB)
    s = random_set(30, seed=7)
    m = metrics_from_gram(gram_from_states(s.states, 30))
    assert m.penalty_db > 20.0


@pytest.mark.parametrize("n", range(2, 7))
def test_simplex_orthonormal_with_zero_stokes_sum(n):
    s = simplex_set(n, seed=0)
    np.testing.assert_allclose(s.states.conj() @ s.states.T, np.eye(n),
                               atol=1e-12)
    from stokesopt.gellmann import jones_to_stokes_batch
    total = jones_to_stokes_batch(s.states).sum(axis=0)
    np.testing.assert_allclose(total, 0.0, atol=1e-12)


def test_simplex_deterministic():
    a = simplex_set(4, seed=1)
    b = simplex_set(4, seed=1)
    assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("seed", [0, 3])
def test_simplex_stream_is_not_the_fiber_unitary_stream(seed):
    # the simplex and a synthetic fiber built from the same seed draw
    # independent unitaries, so the simplex is not the fiber's U transposed
    from stokesopt.fibersim import synth_md_fiber
    fiber = synth_md_fiber(4, 0.0, np.zeros(15), seed=seed)
    simplex = simplex_set(4, seed=seed).states
    assert np.max(np.abs(simplex - fiber.base_unitary.T)) > 0.1


def test_set_constructors_validate():
    with pytest.raises(DimensionError):
        LaunchSet(n=2, states=np.eye(2, dtype=complex))  # wrong count
    bad = np.ones((3, 2), dtype=complex)
    with pytest.raises(DimensionError):
        LaunchSet(n=2, states=bad)  # not unit norm
    nan = yang_nolan(2).states
    nan[1, 0] = np.nan  # a NaN norm passes any "deviation > tol" test
    with pytest.raises(DimensionError, match="finite"):
        LaunchSet(n=2, states=nan)
    with pytest.raises(DimensionError):
        SimplexSet(n=2, states=np.ones((2, 2), dtype=complex))


@pytest.mark.parametrize("build", [
    lambda: LaunchSet(n=1, states=np.zeros((0, 1))),
    lambda: SimplexSet(n=1, states=[[1.0]]),
])
def test_set_types_need_two_modes(build):
    # shapes that match n = 1 are refused by the mode-count rule itself
    with pytest.raises(DimensionError, match="need at least 2 modes, got n=1"):
        build()


# ---------------------------------------------------------------------------
# Phase canonicalization and persistence
# ---------------------------------------------------------------------------

def test_canonicalize_preserves_state_and_is_idempotent():
    rng = rng_for(17)
    st = random_states(rng, 8, 3)
    canon = canonicalize_phases(st)
    overlap = np.abs(np.sum(canon.conj() * st, axis=1))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-12)
    for row in canon:
        piv = row[int(np.argmax(np.abs(row)))]
        assert piv.imag == 0.0 and piv.real >= 0.0
    assert np.array_equal(canonicalize_phases(canon), canon)


def _canonicalize_row_by_row(states):
    states = np.array(states, dtype=complex)
    for row in states:
        idx = int(np.argmax(np.abs(row)))
        a = row[idx]
        if (a.imag == 0.0 and a.real >= 0.0) or abs(a) == 0.0:
            continue
        row *= a.conjugate() / abs(a)
        row[idx] = abs(a)
    return states


def test_canonicalize_matches_the_row_loop_bit_for_bit():
    # saved sets are byte-compared on reruns, so the vectorized rotation
    # must reproduce the scalar one of each row to the last bit
    rng = rng_for(18)
    special = np.array([
        [-1.0, 0.5, 0.2j], [0.3, -0.3, 0.1], [0.0, 0.0, 0.0],
        [1j, -1j, 0.5], [complex(-0.0, 0.0), 0.0, 0.0], [2.0, 2.0, 2.0],
        [complex(-0.0, -1.0), 1.0, 1j], [complex(0.0, -0.0), 0.0, 0.0],
        [0.5, 0.5j, -0.5], [1.0, 0.0, 0.0]])
    samples = [special, random_states(rng, 15, 4), random_states(rng, 8, 3)]
    for m, n in ((1, 2), (35, 6), (99, 10)):
        samples.append(1e-3 * (rng.standard_normal((m, n))
                               + 1j * rng.standard_normal((m, n))))
    for states in samples:
        got = canonicalize_phases(states)
        assert got.tobytes() == _canonicalize_row_by_row(states).tobytes()


def test_save_load_round_trip_is_exact(tmp_path):
    s = random_set(4, seed=11)
    p1 = tmp_path / "set.json"
    p2 = tmp_path / "set2.json"
    save_set(s, p1)
    loaded = load_set(p1)
    assert loaded.n == s.n
    assert loaded.family == s.family
    assert loaded.meta == s.meta
    assert np.array_equal(loaded.states, canonicalize_phases(s.states))
    save_set(loaded, p2)
    assert p1.read_text() == p2.read_text()


def test_load_accepts_mildly_rounded_states(tmp_path):
    s = yang_nolan(2)
    path = tmp_path / "rounded.json"
    save_set(s, path)
    doc = json.loads(path.read_text())
    doc["vectors"] = [[[round(re, 10), round(im, 10)] for re, im in row]
                      for row in doc["vectors"]]
    path.write_text(json.dumps(doc))
    loaded = load_set(path)
    np.testing.assert_allclose(np.linalg.norm(loaded.states, axis=1), 1.0,
                               atol=1e-14)
    np.testing.assert_allclose(loaded.states, canonicalize_phases(s.states),
                               atol=1e-9)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("vectors"), "vectors"),
    (lambda d: d.pop("n"), "'n'"),
    (lambda d: d.update(n=2.0), "integer"),
    (lambda d: d.update(vectors=d["vectors"][:-1]), "expected"),
    (lambda d: d["vectors"][0].append([0.5, 0.0]), "vectors"),
    (lambda d: d.update(vectors=[[[2.0, 0.0], [0.0, 0.0]]] * 3), "non-unit"),
    (lambda d: d["vectors"][1][0].__setitem__(0, float("nan")), "non-finite"),
    (lambda d: d.update(meta=[1, 2]), "'meta'"),
    (lambda d: d.update(meta="abc"), "'meta'"),
    (5, "top level"),
])
def test_load_rejects_malformed_documents(tmp_path, mutate, fragment):
    # `mutate` edits the saved document in place, or is a whole replacement
    path = tmp_path / "bad.json"
    save_set(yang_nolan(2), path)
    doc = json.loads(path.read_text())
    if callable(mutate):
        mutate(doc)
    else:
        doc = mutate
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=fragment):
        load_set(path)


def test_load_rejects_unparseable_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_set(path)


def test_bundled_reference_set():
    s = bundled_optimal_set()
    assert s.n == 4 and s.family == "optimized"
    assert s.states.shape == (15, 4)
    np.testing.assert_allclose(metrics(s).xi, 16.899404502119857, atol=1e-9)
    with pytest.raises(ConfigError):
        bundled_optimal_set(5)
