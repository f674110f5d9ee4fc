"""Fiber testbed tests.

Propagation is checked against finite-difference extraction of its own
generator, the waveform readout against the analytic narrowband law, the
noise formulas against Monte-Carlo runs with frozen seeds, and the loss
reconstruction against closed forms evaluated on the true model.
"""
import dataclasses
import math

import numpy as np
import pytest

from stokesopt import fibersim as fsim
from stokesopt import metrics
from stokesopt.errors import (
    ConfigError,
    DimensionError,
    EstimationFailedError,
    SingularSetError,
)
from stokesopt.gellmann import expand_matrix, jones_to_stokes, norm_coeff
from stokesopt.metrics import variance_prediction
from stokesopt.seeding import rng_for
from stokesopt.sets import (
    bundled_optimal_set,
    mub_set,
    random_set,
    simplex_set,
    yang_nolan,
)

PS = 1e-12


def clean_receiver(window=50e-9, pulse=10e-9, rate=5e9):
    return fsim.ReceiverModel(responsivity=0.8, noise_psd=0.0, window=window,
                              pulse_width=pulse, sample_rate=rate,
                              energy=5e-10)


def noisy_receiver():
    return fsim.ReceiverModel(responsivity=0.8, noise_psd=2e-22,
                              window=50e-9, pulse_width=10e-9,
                              sample_rate=5e9, energy=5e-10)


def random_fiber(n, seed, tau0=5 * PS, scale=PS):
    md = rng_for(seed, 17).normal(0.0, scale, n * n - 1)
    return fsim.synth_md_fiber(n, tau0, md, seed=seed)


def unit_state(rng, n):
    s = rng.normal(size=n) + 1j * rng.normal(size=n)
    return s / np.linalg.norm(s)


# ---------------------------------------------------------------------------
# Synthesis and propagation
# ---------------------------------------------------------------------------

def test_synth_is_deterministic_and_unitary():
    a = fsim.synth_md_fiber(3, 0.0, np.zeros(8), seed=5)
    b = fsim.synth_md_fiber(3, 0.0, np.zeros(8), seed=5)
    c = fsim.synth_md_fiber(3, 0.0, np.zeros(8), seed=6)
    assert np.array_equal(a.base_unitary, b.base_unitary)
    assert np.max(np.abs(a.base_unitary - c.base_unitary)) > 1e-3
    eye = np.eye(3)
    dev = a.base_unitary.conj().T @ a.base_unitary - eye
    assert np.max(np.abs(dev)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_propagated_matrix_stays_unitary(n):
    f = random_fiber(n, seed=n)
    for domega in (1e5, 1e7, 1e9, -2e8):
        u = fsim.propagate_unitary(f, domega)
        dev = u.conj().T @ u - np.eye(n)
        assert np.max(np.abs(dev)) < 1e-12


def test_zero_detuning_returns_base_exactly():
    f = random_fiber(3, seed=9)
    assert np.array_equal(fsim.propagate_unitary(f, 0.0), f.base_unitary)


def test_zero_md_propagation_is_global_phase():
    f = fsim.synth_md_fiber(3, tau0=4 * PS, md_vector=np.zeros(8), seed=2)
    domega = 3e8
    expected = f.base_unitary * np.exp(-1j * f.tau0 * domega)
    assert np.allclose(fsim.propagate_unitary(f, domega), expected,
                       atol=1e-13)


def test_two_mode_eigen_delays_split_symmetrically():
    dtau = 3 * PS
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, dtau]),
                        base_unitary=np.eye(2))
    evals = np.linalg.eigvalsh(fsim.delay_operator(f))
    assert np.allclose(np.sort(evals), [PS - dtau / 2, PS + dtau / 2],
                       rtol=1e-12)


def test_delay_operator_expansion_round_trip():
    f = random_fiber(4, seed=3)
    scalar, vector = expand_matrix(fsim.delay_operator(f))
    assert abs(scalar - f.tau0) < 1e-24
    assert np.allclose(vector.real, f.md_vector, atol=1e-24)
    assert np.max(np.abs(vector.imag)) < 1e-24


def test_numeric_extraction_round_trips_generator():
    f = random_fiber(3, seed=11)
    scalar, vector = fsim.numeric_gd_expansion(f, 1e6)
    assert abs(scalar.real - f.tau0) / f.tau0 < 1e-8
    rel = (np.linalg.norm(vector.real - f.md_vector)
           / np.linalg.norm(f.md_vector))
    assert rel < 1e-8
    with pytest.raises(ConfigError):
        fsim.numeric_gd_expansion(f, 0.0)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

def test_fiber_model_rejects_bad_inputs():
    eye = np.eye(2)
    with pytest.raises(DimensionError, match="unitary"):
        fsim.FiberModel(2, 0.0, np.zeros(3), 2.0 * eye)
    with pytest.raises(DimensionError, match="md_vector"):
        fsim.FiberModel(2, 0.0, np.zeros(4), eye)
    with pytest.raises(ConfigError, match="together"):
        fsim.FiberModel(2, 0.0, np.zeros(3), eye, pa_coeffs=np.ones(2))
    with pytest.raises(DimensionError, match="orthonormal"):
        fsim.FiberModel(2, 0.0, np.zeros(3), eye, pa_coeffs=np.ones(2),
                        pa_modes=np.ones((2, 2)))
    with pytest.raises(ConfigError, match="pa_slope"):
        fsim.FiberModel(2, 0.0, np.zeros(3), eye, pa_slope=np.ones(2))
    with pytest.raises(ConfigError, match="finite"):
        fsim.FiberModel(2, 0.0, np.array([np.inf, 0.0, 0.0]), eye)
    for tau0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="tau0 must be finite"):
            fsim.FiberModel(2, tau0, np.zeros(3), eye)
    with pytest.raises(ConfigError, match="pa_slope must be finite"):
        fsim.FiberModel(2, 0.0, np.zeros(3), eye, pa_coeffs=np.ones(2),
                        pa_modes=eye, pa_slope=np.array([math.nan, 0.0]))


def test_receiver_rejects_bad_configs():
    good = dict(responsivity=0.8, noise_psd=0.0, window=50e-9,
                pulse_width=10e-9, sample_rate=5e9, energy=5e-10)
    with pytest.raises(ConfigError, match="window"):
        fsim.ReceiverModel(**{**good, "window": 30e-9})
    with pytest.raises(ConfigError, match="whole sample count"):
        fsim.ReceiverModel(**{**good, "window": 50.00001e-9})
    with pytest.raises(ConfigError, match="3k\\+1"):
        fsim.ReceiverModel(**{**good, "sample_rate": 4.98e9})
    with pytest.raises(ConfigError, match="positive"):
        fsim.ReceiverModel(**{**good, "responsivity": 0.0})
    with pytest.raises(ConfigError, match="noise_psd"):
        fsim.ReceiverModel(**{**good, "noise_psd": -1e-22})
    with pytest.raises(ConfigError, match="quadrature"):
        fsim.ReceiverModel(**{**good, "quadrature": "trapezoid"})


def test_receiver_grid_and_weights_are_exact():
    rx = clean_receiver()
    t = rx.time_grid()
    w = rx.quadrature_weights()
    assert rx.sample_count == 250
    assert abs(float(np.sum(t))) < 1e-20
    assert np.allclose(w, w[::-1])
    # composite Simpson 3/8 integrates cubics exactly over the grid span
    span = (rx.sample_count - 1) / rx.sample_rate
    assert math.isclose(float(np.sum(w)), span, rel_tol=1e-12)
    assert math.isclose(float(w @ (t * t)), (span / 2) ** 3 * 2 / 3,
                        rel_tol=1e-12)
    assert abs(float(w @ (t ** 3))) < 1e-40


def test_delay_variance_formula():
    rx = noisy_receiver()
    expected = (2 * rx.noise_psd) * rx.window ** 3 / (
        24 * rx.responsivity ** 2 * rx.energy ** 2)
    assert math.isclose(rx.delay_variance, expected, rel_tol=1e-12)
    assert math.isclose(rx.sample_noise_variance,
                        rx.noise_psd * rx.sample_rate, rel_tol=1e-12)
    assert clean_receiver().delay_variance == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruction_rejects_non_finite_readings(bad):
    ls = random_set(2, seed=1)
    sx = simplex_set(2)
    with pytest.raises(ConfigError, match="measurement value must be finite"):
        fsim.reconstruct_md(ls, [0.0, bad, 0.0], 0.0)
    with pytest.raises(ConfigError, match="measurement value must be finite"):
        fsim.reconstruct_mdl(ls, sx, [1.0, 1.0, bad], [1.0, 1.0])
    with pytest.raises(ConfigError, match="measurement value must be finite"):
        fsim.reconstruct_mdl(ls, sx, [1.0, 1.0, 1.0], [bad, 1.0])


# ---------------------------------------------------------------------------
# Delay measurement
# ---------------------------------------------------------------------------

def test_aligned_two_mode_delay():
    dtau = 2 * PS
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, dtau]),
                        base_unitary=np.eye(2))
    delay = fsim.measure_delay(f, np.array([1.0, 0.0]), clean_receiver())
    assert math.isclose(delay, PS + dtau / 2, rel_tol=1e-14)
    assert type(delay) is float


def test_waveform_matches_analytic_narrowband():
    # wide window: 400 samples, pulse tails ~1e-7 at the edges
    rx = clean_receiver(window=80e-9, pulse=10e-9, rate=5e9)
    count = 0
    for n in (2, 3, 4):
        for trial in range(17):
            f = random_fiber(n, seed=100 * n + trial)
            s = unit_state(rng_for(50, n, trial), n)
            wave = fsim.measure_delay(f, s, rx, mode="waveform")
            ana = fsim.measure_delay(f, s, rx, mode="analytic")
            assert abs(wave - ana) / abs(ana) < 1e-3
            count += 1
    assert count >= 50


def test_waveform_resolves_tenth_picosecond():
    rx = clean_receiver()
    f = fsim.FiberModel(2, tau0=0.0, md_vector=np.array([0.0, 0.0, 0.2 * PS]),
                        base_unitary=np.eye(2))
    delay = fsim.measure_delay(f, np.array([1.0, 0.0]), rx, mode="waveform")
    assert abs(delay - 0.1 * PS) / (0.1 * PS) < 0.01


def test_waveform_window_captures_pulse_energy():
    rx = clean_receiver()
    t = rx.time_grid()
    peak = rx.energy / (rx.pulse_width * math.sqrt(math.pi))
    intensity = peak * np.exp(-(t / rx.pulse_width) ** 2)
    windowed = float(rx.quadrature_weights() @ intensity)
    captured = 1.0 - math.erfc(rx.window / (2 * rx.pulse_width))
    assert abs(windowed / rx.energy - captured) < 1e-4


def test_measure_delay_error_paths():
    f = random_fiber(2, seed=1)
    rx = clean_receiver()
    with pytest.raises(ConfigError, match="mode"):
        fsim.measure_delay(f, np.array([1.0, 0.0]), rx, mode="exact")
    with pytest.raises(ConfigError, match="seed"):
        fsim.measure_delay(f, np.array([1.0, 0.0]), noisy_receiver())
    with pytest.raises(DimensionError, match="unit"):
        fsim.measure_delay(f, np.array([1.0, 1.0]), rx)
    with pytest.raises(DimensionError, match="shape"):
        fsim.measure_delay(f, np.array([1.0, 0.0, 0.0]), rx)


def test_noisy_analytic_variance_matches_closed_form():
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    s = np.array([1.0, 0.0])
    vals = np.array([fsim.measure_delay(f, s, rx, "analytic", (7, k))
                     for k in range(100_000)])
    assert abs(vals.var() / rx.delay_variance - 1.0) < 0.03
    assert abs(vals.mean() - 2 * PS) < 3 * math.sqrt(
        rx.delay_variance / vals.size)


def test_noisy_waveform_variance_matches_weighted_sum():
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    s = np.array([1.0, 0.0])
    t = rx.time_grid()
    w = rx.quadrature_weights()
    peak = rx.energy / (rx.pulse_width * math.sqrt(math.pi))
    energy_win = float(w @ (rx.responsivity * peak
                            * np.exp(-(t / rx.pulse_width) ** 2)))
    exact = rx.sample_noise_variance * float(np.sum((w * t) ** 2)) / energy_win ** 2
    # discrete quadrature weights inflate the continuum variance slightly
    assert 1.0 < exact / rx.delay_variance < 1.05
    vals = np.array([fsim.measure_delay(f, s, rx, "waveform", (9, k))
                     for k in range(20_000)])
    assert abs(vals.var() / exact - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Common-mode delay estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_tau0_noiseless_exact(n):
    f = random_fiber(n, seed=21 + n)
    est = fsim.estimate_tau0(f, clean_receiver(), simplex_set(n))
    assert abs(est - f.tau0) / f.tau0 < 1e-12


def test_tau0_variance_shrinks_with_repeats_and_modes():
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    sx = simplex_set(2)
    single = np.array([fsim.estimate_tau0(f, rx, sx, repeats=1, seed=(13, r))
                       for r in range(3000)])
    tenfold = np.array([fsim.estimate_tau0(f, rx, sx, repeats=10,
                                           seed=(11, r))
                        for r in range(3000)])
    assert abs(single.var() / (rx.delay_variance / 2) - 1.0) < 0.1
    assert abs(tenfold.var() / (rx.delay_variance / 20) - 1.0) < 0.1


def test_tau0_rejects_bad_arguments():
    f = random_fiber(2, seed=1)
    with pytest.raises(ConfigError, match="repeats"):
        fsim.estimate_tau0(f, clean_receiver(), simplex_set(2), repeats=0)
    with pytest.raises(DimensionError, match="modes"):
        fsim.estimate_tau0(f, clean_receiver(), simplex_set(3))
    with pytest.raises(ConfigError, match="seed"):
        fsim.estimate_tau0(f, noisy_receiver(), simplex_set(2))


# ---------------------------------------------------------------------------
# Delay-vector reconstruction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_noiseless_reconstruction_round_trips(n):
    f = random_fiber(n, seed=31 + n)
    ls = random_set(n, seed=7)
    rx = clean_receiver()
    delays = [fsim.measure_delay(f, s, rx) for s in ls.states]
    recovered = fsim.reconstruct_md(ls, delays, f.tau0)
    rel = (np.linalg.norm(recovered - f.md_vector)
           / np.linalg.norm(f.md_vector))
    assert rel < 1e-10
    # an array of the same readings gives the same solve
    again = fsim.reconstruct_md(ls, np.array(delays), f.tau0)
    assert np.array_equal(recovered, again)


def test_zero_md_reconstructs_zero():
    f = fsim.synth_md_fiber(3, tau0=4 * PS, md_vector=np.zeros(8), seed=2)
    ls = random_set(3, seed=3)
    records = [fsim.measure_delay(f, s, clean_receiver()) for s in ls.states]
    recovered = fsim.reconstruct_md(ls, records, f.tau0)
    assert np.max(np.abs(recovered)) < 1e-24


def test_reconstruction_error_paths():
    ls = random_set(2, seed=1)
    with pytest.raises(DimensionError, match="records"):
        fsim.reconstruct_md(ls, [0.0, 0.0], 0.0)
    dup = ls.states.copy()
    dup[1] = dup[0]
    degenerate = type(ls)(n=2, states=dup)
    with pytest.raises(SingularSetError):
        fsim.reconstruct_md(degenerate, [0.0, 0.0, 0.0], 0.0)


def test_monte_carlo_matches_variance_prediction():
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    ortho = fsim.monte_carlo_md(f, mub_set(2), rx, 10_000, seed=3)
    oblique = fsim.monte_carlo_md(f, random_set(2, seed=5), rx, 10_000,
                                  seed=3)
    for out in (ortho, oblique):
        assert abs(out["mean_sq_error"] / out["predicted_mean_sq"] - 1) < 0.05
    # the oblique set amplifies noise: strictly larger, both ways
    assert oblique["predicted_mean_sq"] > ortho["predicted_mean_sq"] * 1.5
    assert oblique["mean_sq_error"] > ortho["mean_sq_error"] * 1.5


def test_analytic_prediction_is_the_closed_form():
    rx = noisy_receiver()
    for n, launch in ((2, random_set(2, seed=5)), (4, bundled_optimal_set())):
        c = norm_coeff(n)
        out = fsim.monte_carlo_md(random_fiber(n, seed=n), launch, rx, 2,
                                  seed=1)
        want = variance_prediction(
            launch, (2 * c * c) ** 2 * rx.delay_variance)
        assert out["predicted_mean_sq"] == pytest.approx(want, rel=1e-12,
                                                         abs=0)


def test_waveform_prediction_is_quadrature_exact():
    # without any delay every launch reads the same windowed energy E, so
    # each reading's noise variance is v = sigma^2 sum (w_p t_p)^2 / E^2,
    # a little above the continuum delay_variance
    rx = noisy_receiver()
    launch = bundled_optimal_set()
    f = fsim.FiberModel(4, tau0=0.0, md_vector=np.zeros(15),
                        base_unitary=np.eye(4))
    t = rx.time_grid()
    w = rx.quadrature_weights()
    peak = rx.energy / (rx.pulse_width * math.sqrt(math.pi))
    energy_win = float(w @ (rx.responsivity * peak
                            * np.exp(-(t / rx.pulse_width) ** 2)))
    v = (rx.sample_noise_variance * float(np.sum((w * t) ** 2))
         / energy_win ** 2)
    c = norm_coeff(4)
    want = (2 * c * c) ** 2 * metrics(launch).xi * v
    out = fsim.monte_carlo_md(f, launch, rx, 2, seed=0, mode="waveform")
    assert out["predicted_mean_sq"] == pytest.approx(want, rel=1e-10, abs=0)


def test_monte_carlos_reject_a_singular_set_before_drawing(monkeypatch):
    ls = random_set(2, seed=1)
    near = ls.states.copy()
    near[1] = near[0] + 1e-9 * near[1]
    near[1] /= np.linalg.norm(near[1])
    degenerate = type(ls)(n=2, states=near)
    with pytest.raises(SingularSetError):
        metrics(degenerate)
    f = random_fiber(2, seed=1)
    lossy, sx = _mdl_scene(2)

    def no_draw(*args):
        raise AssertionError("noise drawn for a singular launch set")

    monkeypatch.setattr(fsim, "rng_for", no_draw)
    with pytest.raises(SingularSetError):
        fsim.monte_carlo_md(f, degenerate, noisy_receiver(), 10)
    with pytest.raises(SingularSetError):
        fsim.monte_carlo_mdl(lossy, degenerate, sx, 1e-2, 10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_readings_match_their_stokes_forms(n):
    rng = rng_for(n, 29)
    f = random_fiber(n, seed=30 + n)
    states = np.array([unit_state(rng, n) for _ in range(20)])
    shat = np.array([jones_to_stokes(s) for s in states])
    c2 = norm_coeff(n) ** 2
    alpha0, gamma = 0.7, rng.normal(0.0, 0.1, n * n - 1)
    delays = fsim.group_delay(f, states)
    attenuations = fsim.predicted_attenuation(alpha0, gamma, states)
    np.testing.assert_allclose(delays, f.tau0 + shat @ f.md_vector / (2 * c2),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(attenuations,
                               alpha0 * (1.0 + shat @ gamma / (2 * c2)),
                               rtol=1e-12, atol=0)
    # a single state reads exactly its row of the stack
    for s, d, a in zip(states, delays, attenuations):
        assert fsim.group_delay(f, s) == d
        assert fsim.predicted_attenuation(alpha0, gamma, s) == a


def test_monte_carlo_errors_are_centred_and_uncorrelated():
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    out = fsim.monte_carlo_md(f, mub_set(2), rx, 10_000, seed=3)
    stderr = np.sqrt(np.diag(out["covariance"]) / out["trials"])
    assert np.all(np.abs(out["mean_error"]) < 3 * stderr)
    scale = np.sqrt(np.diag(out["covariance"]))
    corr = out["covariance"] / np.outer(scale, scale)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_monte_carlo_waveform_mode_and_parallel_merge(monkeypatch):
    rx = noisy_receiver()
    f = fsim.FiberModel(2, tau0=PS, md_vector=np.array([0.0, 0.0, 2 * PS]),
                        base_unitary=np.eye(2))
    out = fsim.monte_carlo_md(f, mub_set(2), rx, 120, seed=3,
                              mode="waveform")
    assert 0.9 < out["mean_sq_error"] / out["predicted_mean_sq"] < 1.3
    # trial t's noise depends neither on the run length nor on how the
    # draws are split into blocks; the n=4 waveform run crosses a block
    # boundary at the default block size
    for fiber, launch in ((f, mub_set(2)),
                          (random_fiber(4, seed=4), bundled_optimal_set())):
        for mode in fsim.DELAY_MODES:
            def run(trials):
                return fsim.monte_carlo_md(fiber, launch, rx, trials, seed=3,
                                           mode=mode)["sq_errors"]
            long = run(333)
            np.testing.assert_allclose(long[:20], run(20), rtol=1e-12,
                                       atol=0, err_msg=mode)
            with monkeypatch.context() as patch:
                patch.setattr(fsim, "_DRAW_BLOCK", 1)
                np.testing.assert_allclose(run(333), long, rtol=1e-12,
                                           atol=0, err_msg=mode)


def _noiseless_pulse(f, state, rx):
    """Detected photocurrent of one launch without receiver noise, built
    frequency by frequency from propagate_unitary."""
    t = rx.time_grid()
    peak = rx.energy / (rx.pulse_width * math.sqrt(math.pi))
    amp = math.sqrt(peak) * np.exp(-0.5 * (t / rx.pulse_width) ** 2)
    domegas = 2 * np.pi * np.fft.fftfreq(t.size, d=1.0 / rx.sample_rate)
    spectra = np.array([fsim.propagate_unitary(f, dw) @ state
                        for dw in domegas])
    fields = np.fft.ifft(np.fft.fft(amp)[:, None] * spectra, axis=0)
    return rx.responsivity * np.sum(np.abs(fields) ** 2, axis=1)


def _waveform_reference_reads(f, states, rx, rng, rows):
    """Noisy waveform delays, one launch at a time: the clean readout plus
    the first moment of a noise row over the noiseless windowed energy, the
    rows drawn from rng in (row, launch) order.

    The moment is taken term by term because adding microampere noise
    samples to a pulse of tens of milliamperes before the sum rounds away
    about 1e-12 of the noise.
    """
    clean = dataclasses.replace(rx, noise_psd=0.0)
    t, w = rx.time_grid(), rx.quadrature_weights()
    sigma = math.sqrt(rx.sample_noise_variance)
    delays = [fsim.measure_delay(f, s, clean, "waveform")
              for s in states]
    pulses = [_noiseless_pulse(f, s, rx) for s in states]
    energies = [w @ pulse for pulse in pulses]
    # the clean readout is itself checked against this independent synthesis
    np.testing.assert_allclose(
        delays, [w @ (t * p) / e for p, e in zip(pulses, energies)],
        rtol=1e-11, atol=0)
    reads = np.empty((rows, len(states)))
    for row in range(rows):
        for i, (delay, energy) in enumerate(zip(delays, energies)):
            noise = rng.normal(0.0, sigma, t.size)
            reads[row, i] = delay + w @ (t * noise) / energy
    return reads


@pytest.mark.parametrize("n, launch", [(2, mub_set(2)),
                                       (4, bundled_optimal_set())])
def test_waveform_monte_carlo_matches_per_pulse_reference(n, launch):
    f = random_fiber(n, seed=n)
    rx = noisy_receiver()
    reads = _waveform_reference_reads(
        f, launch.states, rx, rng_for(7, fsim._NOISE_STREAM), 12)
    errors = np.array([fsim.reconstruct_md(launch, r, f.tau0) - f.md_vector
                       for r in reads])
    ref = {"sq_errors": np.einsum("tm,tm->t", errors, errors),
           "mean_error": errors.mean(axis=0),
           "covariance": errors.T @ errors / len(errors)}
    out = fsim.monte_carlo_md(f, launch, rx, 12, seed=7, mode="waveform")
    for key, want in ref.items():
        np.testing.assert_allclose(out[key], want, rtol=1e-12, atol=0,
                                   err_msg=key)


def test_waveform_tau0_matches_measure_delay_mean():
    f = random_fiber(4, seed=3)
    sx = simplex_set(4, seed=1)
    rx = noisy_receiver()
    reads = _waveform_reference_reads(f, sx.states, rx, rng_for(5, 9), 3)
    got = fsim.estimate_tau0(f, rx, sx, repeats=3, seed=(5, 9),
                             mode="waveform")
    assert math.isclose(got, float(np.mean(reads)), rel_tol=1e-12)


def test_monte_carlo_rejects_bad_arguments():
    f = fsim.FiberModel(2, tau0=0.0, md_vector=np.zeros(3),
                        base_unitary=np.eye(2))
    with pytest.raises(ConfigError, match="trials"):
        fsim.monte_carlo_md(f, mub_set(2), noisy_receiver(), 0)
    with pytest.raises(ConfigError, match="noisy"):
        fsim.monte_carlo_md(f, mub_set(2), clean_receiver(), 10)
    with pytest.raises(ConfigError, match="mode"):
        fsim.monte_carlo_md(f, mub_set(2), noisy_receiver(), 10, mode="x")
    with pytest.raises(DimensionError, match="modes"):
        fsim.monte_carlo_md(f, mub_set(3), noisy_receiver(), 10)


# ---------------------------------------------------------------------------
# Attenuation and loss reconstruction
# ---------------------------------------------------------------------------

def test_loss_matrix_shapes_and_positivity():
    f = fsim.synth_mdl_fiber(3, np.array([0.05, 0.3, 0.6]), z=1.5, seed=11)
    p = f.loss_matrix()
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(p)) > 0
    assert np.allclose(p @ p, f.loss_matrix(squared=True), atol=1e-14)
    lossless = random_fiber(3, seed=1)
    assert np.array_equal(lossless.loss_matrix(), np.eye(3))


def test_attenuation_matches_closed_form_everywhere():
    f = fsim.synth_mdl_fiber(4, np.array([0.1, 0.25, 0.4, 0.05]), z=2.0,
                             seed=9)
    alpha0, gamma = fsim.mdl_parameters(f)
    rng = rng_for(77)
    for _ in range(100):
        s = unit_state(rng, 4)
        measured = fsim.measure_attenuation(f, s)
        predicted = fsim.predicted_attenuation(alpha0, gamma, s)
        assert abs(measured - predicted) < 1e-12


def test_equal_rates_mean_flat_loss():
    f = fsim.synth_mdl_fiber(3, np.full(3, 0.4), z=2.5, seed=4)
    alpha0, gamma = fsim.mdl_parameters(f)
    assert np.max(np.abs(gamma)) < 1e-14
    expected = math.exp(-0.4 * 2.5)
    rng = rng_for(78)
    for _ in range(20):
        s = unit_state(rng, 3)
        assert math.isclose(fsim.measure_attenuation(f, s), expected,
                            rel_tol=1e-12)


def test_two_mode_loss_ratio_closed_form():
    rates = np.array([0.12, 0.57])
    f = fsim.synth_mdl_fiber(2, rates, z=3.0, seed=6)
    ls = random_set(2, seed=2)
    sx = simplex_set(2)
    est = fsim.reconstruct_mdl(
        ls, sx,
        [fsim.measure_attenuation(f, s) for s in ls.states],
        [fsim.measure_attenuation(f, s) for s in sx.states])
    expected = math.exp((rates.max() - rates.min()) * 3.0)
    assert math.isclose(est.mdl_ratio, expected, rel_tol=1e-10)


def test_noiseless_mdl_round_trip_and_equalization():
    rng = rng_for(90)
    f = fsim.synth_mdl_fiber(3, np.array([0.05, 0.3, 0.6]), z=1.5, seed=11,
                             tau0=2 * PS, md_vector=rng.normal(0, PS, 8))
    ls = random_set(3, seed=4)
    sx = simplex_set(3)
    est = fsim.reconstruct_mdl(
        ls, sx,
        [fsim.measure_attenuation(f, s) for s in ls.states],
        [fsim.measure_attenuation(f, s) for s in sx.states])
    alpha0, gamma = fsim.mdl_parameters(f)
    assert abs(est.alpha0 - alpha0) < 1e-10
    assert np.linalg.norm(est.gamma - gamma) < 1e-10
    # the right division by the estimated loss is already unitary
    p_hat = fsim.loss_matrix_from_estimate(est)
    w = np.linalg.solve(p_hat.T, f.transfer_matrix().T).T
    assert np.max(np.abs(w.conj().T @ w - np.eye(3))) < 1e-10
    eq = fsim.equalize(f, est)
    assert np.max(np.abs(eq.base_unitary - f.base_unitary)) < 1e-10
    assert eq.pa_coeffs is None


def test_equalize_keeps_the_polar_factor_of_a_noisy_estimate():
    # with a noisy loss estimate the right division W is not unitary;
    # equalize keeps its unitary polar factor, checked against scipy's polar
    from scipy.linalg import polar

    f = fsim.synth_mdl_fiber(3, np.array([0.05, 0.3, 0.6]), z=1.5, seed=11)
    ls = random_set(3, seed=4)
    sx = simplex_set(3)
    est = fsim.reconstruct_mdl(
        ls, sx,
        [fsim.measure_attenuation(f, s, 1e-2, (1, i))
         for i, s in enumerate(ls.states)],
        [fsim.measure_attenuation(f, s, 1e-2, (2, i))
         for i, s in enumerate(sx.states)])
    p_hat = fsim.loss_matrix_from_estimate(est)
    w = np.linalg.solve(p_hat.T, f.transfer_matrix().T).T
    assert np.max(np.abs(w.conj().T @ w - np.eye(3))) > 1e-4
    u = fsim.equalize(f, est).base_unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-14
    assert np.max(np.abs(u - polar(w)[0])) < 1e-13


def test_zero_mdl_equalization_is_identity():
    f = random_fiber(3, seed=41)
    ls = random_set(3, seed=5)
    sx = simplex_set(3)
    est = fsim.reconstruct_mdl(
        ls, sx,
        [fsim.measure_attenuation(f, s) for s in ls.states],
        [fsim.measure_attenuation(f, s) for s in sx.states])
    assert np.max(np.abs(est.gamma)) < 1e-12
    assert math.isclose(est.alpha0, 1.0, rel_tol=1e-12)
    assert math.isclose(est.mdl_ratio, 1.0, rel_tol=1e-10)
    eq = fsim.equalize(f, est)
    assert np.allclose(eq.base_unitary, f.base_unitary, atol=1e-12)


def test_noisy_mdl_favors_low_amplification_set():
    f = fsim.synth_mdl_fiber(4, np.array([0.02, 0.10, 0.16, 0.06]), z=1.0,
                             seed=21)
    _, gamma_true = fsim.mdl_parameters(f)
    sx = simplex_set(4)

    def gamma_mse(ls, tag):
        acc = 0.0
        for trial in range(300):
            setv = [fsim.measure_attenuation(f, s, 1e-4, (tag, trial, i))
                    for i, s in enumerate(ls.states)]
            sxv = [fsim.measure_attenuation(f, s, 1e-4, (tag, trial, 100 + i))
                   for i, s in enumerate(sx.states)]
            est = fsim.reconstruct_mdl(ls, sx, setv, sxv)
            acc += float(np.sum((est.gamma - gamma_true) ** 2))
        return acc / 300

    mse_opt = gamma_mse(bundled_optimal_set(4), 0)
    mse_yang = gamma_mse(yang_nolan(4), 1)
    assert mse_yang > 1.2 * mse_opt


def _mdl_scene(n=4):
    f = fsim.synth_mdl_fiber(n, np.linspace(0.05, 0.5, n), z=1.2, seed=3)
    return f, simplex_set(n, seed=2)


def test_monte_carlo_mdl_matches_per_trial_reference():
    f, sx = _mdl_scene()
    ls = bundled_optimal_set()
    out = fsim.monte_carlo_mdl(f, ls, sx, 1e-2, 40, seed=6)
    _, gamma_true = fsim.mdl_parameters(f)
    # each reading in trial order, launches then simplex, from one stream
    rng = rng_for(6, fsim._ATTENUATION_STREAM)
    ref = {"gamma_sq_errors": [], "alpha0": [], "mdl_ratio": []}
    for _ in range(40):
        setv = [fsim.measure_attenuation(f, s) * (1.0 + rng.normal(0.0, 1e-2))
                for s in ls.states]
        sxv = [fsim.measure_attenuation(f, s) * (1.0 + rng.normal(0.0, 1e-2))
               for s in sx.states]
        est = fsim.reconstruct_mdl(ls, sx, setv, sxv)
        ref["gamma_sq_errors"].append(np.sum((est.gamma - gamma_true) ** 2))
        ref["alpha0"].append(est.alpha0)
        ref["mdl_ratio"].append(est.mdl_ratio)
    for key, want in ref.items():
        np.testing.assert_allclose(out[key], want, rtol=1e-12, atol=0,
                                   err_msg=key)
    assert out["gamma_mse"] == pytest.approx(np.mean(ref["gamma_sq_errors"]),
                                             rel=1e-12)


def test_monte_carlo_mdl_prefix_and_blocks(monkeypatch):
    f, sx = _mdl_scene()
    ls = bundled_optimal_set()

    def run(trials):
        out = fsim.monte_carlo_mdl(f, ls, sx, 1e-2, trials, seed=4)
        return np.column_stack([out["gamma_sq_errors"], out["alpha0"],
                                out["mdl_ratio"]])

    long = run(77)
    np.testing.assert_array_equal(long[:9], run(9))
    with monkeypatch.context() as patch:
        patch.setattr(fsim, "_DRAW_BLOCK", 1)
        np.testing.assert_array_equal(run(77), long)


def test_noiseless_monte_carlo_mdl_is_reconstruct_mdl():
    f, sx = _mdl_scene(3)
    ls = random_set(3, seed=4)
    est = fsim.reconstruct_mdl(
        ls, sx, [fsim.measure_attenuation(f, s) for s in ls.states],
        [fsim.measure_attenuation(f, s) for s in sx.states])
    out = fsim.monte_carlo_mdl(f, ls, sx, 0.0, 3, seed=1)
    _, gamma_true = fsim.mdl_parameters(f)
    assert out["gamma_sq_errors"].tolist() == [
        np.sum((est.gamma - gamma_true) ** 2)] * 3
    assert out["alpha0"].tolist() == [est.alpha0] * 3
    assert out["mdl_ratio"].tolist() == [est.mdl_ratio] * 3
    assert out["predicted_gamma_mse"] == 0.0


def test_monte_carlo_mdl_matches_closed_form_prediction():
    f, sx = _mdl_scene()
    predicted = {}
    for name, ls in (("optimized", bundled_optimal_set()),
                     ("yang", yang_nolan(4))):
        out = fsim.monte_carlo_mdl(f, ls, sx, 1e-3, 5000, seed=0)
        ratio = out["gamma_mse"] / out["predicted_gamma_mse"]
        assert abs(ratio - 1.0) < 0.05, (name, ratio)
        predicted[name] = out["predicted_gamma_mse"]
    assert predicted["yang"] > predicted["optimized"]


def test_monte_carlo_mdl_raises_on_the_first_unphysical_trial():
    f, sx = _mdl_scene(2)
    with pytest.raises(EstimationFailedError, match="positive"):
        fsim.monte_carlo_mdl(f, mub_set(2), sx, 0.9, 50, seed=1)


def test_mdl_reconstruction_failure_modes():
    ls = random_set(2, seed=1)
    sx = simplex_set(2)
    with pytest.raises(EstimationFailedError, match="positive"):
        fsim.reconstruct_mdl(ls, sx, [1.0, 1.0, 1.0], [-1.0, -1.0])
    with pytest.raises(EstimationFailedError, match="positive definite"):
        fsim.reconstruct_mdl(ls, sx, [50.0, 1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DimensionError, match="set records"):
        fsim.reconstruct_mdl(ls, sx, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DimensionError, match="simplex records"):
        fsim.reconstruct_mdl(ls, sx, [1.0, 1.0, 1.0], [1.0])


def test_mdl_estimate_and_attenuation_validation():
    with pytest.raises(EstimationFailedError, match="positive"):
        fsim.MdlEstimate(2, -1.0, np.zeros(3), 1.0)
    with pytest.raises(EstimationFailedError, match=">= 1"):
        fsim.MdlEstimate(2, 1.0, np.zeros(3), 0.5)
    with pytest.raises(DimensionError, match="gamma"):
        fsim.MdlEstimate(2, 1.0, np.zeros(4), 1.0)
    f = random_fiber(2, seed=1)
    with pytest.raises(ConfigError, match="seed"):
        fsim.measure_attenuation(f, np.array([1.0, 0.0]), rel_noise=0.1)
    sx = simplex_set(2)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="rel_noise"):
            fsim.measure_attenuation(f, np.array([1.0, 0.0]), rel_noise=bad,
                                     seed=1)
        with pytest.raises(ConfigError, match="rel_noise"):
            fsim.monte_carlo_mdl(f, mub_set(2), sx, bad, 4)
    with pytest.raises(ConfigError, match="trials"):
        fsim.monte_carlo_mdl(f, mub_set(2), sx, 0.1, 0)
    with pytest.raises(ConfigError, match="non-negative"):
        fsim.synth_mdl_fiber(2, np.array([-0.1, 0.2]), z=1.0)


# ---------------------------------------------------------------------------
# Composed group-delay operator
# ---------------------------------------------------------------------------

def test_lossless_composition_reduces_to_delay_operator():
    f = random_fiber(3, seed=51)
    op = fsim.full_gd_operator(f, 1e6)
    assert not op.defective
    assert np.max(np.abs(op.chi_vector.imag)) < 1e-20
    assert np.allclose(op.chi_vector.real, f.md_vector, atol=1e-24)
    assert math.isclose(op.chi0.real, f.tau0, rel_tol=1e-12)
    direct = np.sort(np.linalg.eigvalsh(fsim.delay_operator(f)))
    assert np.allclose(op.dmgds, direct, rtol=1e-12)


def test_flat_mdl_similarity_keeps_real_delays():
    md = np.array([0.4 * PS, -0.7 * PS, 1.1 * PS])
    f = fsim.synth_mdl_fiber(2, np.array([0.1, 0.8]), z=2.0, seed=8,
                             tau0=3 * PS, md_vector=md)
    op = fsim.full_gd_operator(f, 1e6)
    half = np.linalg.norm(md) / 2
    assert np.allclose(op.dmgds, [3 * PS - half, 3 * PS + half], rtol=1e-10)
    assert np.max(np.abs(np.imag(np.sort_complex(
        np.linalg.eigvals(fsim.delay_operator(f)))))) < 1e-24


def test_loss_slope_adds_imaginary_part():
    md = np.array([0.4 * PS, -0.7 * PS, 1.1 * PS])
    slope = np.array([2e-4, -1e-4])
    f = fsim.synth_mdl_fiber(2, np.array([0.1, 0.8]), z=2.0, seed=8,
                             tau0=3 * PS, md_vector=md, pa_slope=slope)
    op = fsim.full_gd_operator(f, 1.0)
    # analytic dP/domega: the loss states are frequency-flat, only the
    # rates move, so the derivative is diagonal in the loss eigenbasis
    v = f.pa_modes
    rates = f.pa_coeffs
    dw = (-slope * f.z / 2) * np.exp(-rates * f.z / 2)
    loss_omega = (v.T * dw) @ v.conj()
    ref = fsim.compose_gd_operator(2, f.tau0, md, f.loss_matrix(), loss_omega)
    assert np.linalg.norm(op.chi_vector.imag) > 0
    assert np.allclose(op.chi_vector, ref.chi_vector, rtol=1e-6, atol=1e-20)
    assert np.allclose(op.dmgds, ref.dmgds, rtol=1e-6)


def test_defective_composition_uses_schur_fallback():
    eps = PS
    f = fsim.FiberModel(2, tau0=0.0, md_vector=np.array([2 * eps, 0.0, 0.0]),
                        base_unitary=np.eye(2),
                        pa_coeffs=np.array([0.0, 46.0]),
                        pa_modes=np.eye(2), z=1.0)
    op = fsim.full_gd_operator(f, 1e6)
    assert op.defective
    assert np.allclose(op.dmgds, [-eps, eps], rtol=1e-6)
    mild = fsim.synth_mdl_fiber(2, np.array([0.1, 0.3]), z=1.0, seed=3,
                                md_vector=np.array([2 * eps, 0.0, 0.0]))
    assert not fsim.full_gd_operator(mild, 1e6).defective


@pytest.mark.parametrize("n", [2, 3])
def test_pipeline_composition_matches_direct_operator(n):
    rng = rng_for(60 + n)
    rates = rng.uniform(0.05, 0.5, n)
    f = fsim.synth_mdl_fiber(n, rates, z=1.2, seed=70 + n, tau0=4 * PS,
                             md_vector=rng.normal(0, PS, n * n - 1))
    ls = random_set(n, seed=6)
    sx = simplex_set(n)
    rx = clean_receiver()
    est = fsim.reconstruct_mdl(
        ls, sx,
        [fsim.measure_attenuation(f, s) for s in ls.states],
        [fsim.measure_attenuation(f, s) for s in sx.states])
    eq = fsim.equalize(f, est)
    tau0_est = fsim.estimate_tau0(eq, rx, sx)
    records = [fsim.measure_delay(eq, s, rx) for s in ls.states]
    md_est = fsim.reconstruct_md(ls, records, tau0_est)
    composed = fsim.compose_gd_operator(
        n, tau0_est, md_est, fsim.loss_matrix_from_estimate(est))
    direct = fsim.full_gd_operator(f, 1e6)
    scale = np.max(np.abs(direct.dmgds))
    assert np.max(np.abs(composed.dmgds - direct.dmgds)) / scale < 1e-6


def test_full_gd_operator_rejects_bad_detuning():
    f = random_fiber(2, seed=1)
    with pytest.raises(ConfigError, match="domega"):
        fsim.full_gd_operator(f, 0.0)


# ---------------------------------------------------------------------------
# Crosstalk sensitivity
# ---------------------------------------------------------------------------

def test_crosstalk_vanishes_without_leakage():
    assert fsim.crosstalk_bound(0.0) == (0.0, 0.0)


def test_crosstalk_reference_level():
    norm_ds, rel_bound = fsim.crosstalk_bound(1e-4)
    assert abs(norm_ds - 0.02828) < 1e-4
    # identity coefficient matrix: condition number one, bound == norm
    assert math.isclose(rel_bound, norm_ds, rel_tol=1e-12)


def test_crosstalk_square_root_asymptotics():
    ratios = []
    for expo in range(3, 9):
        eps = 10.0 ** (-expo)
        norm_ds, _ = fsim.crosstalk_bound(eps)
        ratios.append(norm_ds / (2 * math.sqrt(2 * eps)))
    devs = [abs(r - 1) for r in ratios]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-4
    assert all(abs(r - 1) < 0.01 for r in ratios[3:])


def test_crosstalk_domain():
    for bad in (-1e-3, 0.5, 0.7):
        with pytest.raises(ConfigError, match="crosstalk"):
            fsim.crosstalk_bound(bad)
