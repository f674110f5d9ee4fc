"""Acceptance suite: one test per numbered criterion, in order.

Each test carries its own wall-clock budget and finishes by printing a
single "criterion NN: PASS" line (shown under -v -s).  Launch sets built
along the way are pooled in a module-level registry; the final criterion
sweeps the registry, plus a fresh family universe, for the cost floor and
the Gram-volume ceiling that every valid set must respect.
"""
import math
import time

import numpy as np
import pytest

from stokesopt import fibersim as fsim
from stokesopt.fibersim import ReceiverModel
from stokesopt.metrics import metrics, metrics_from_gram
from stokesopt.optimize import (
    ALGORITHMS,
    OptimizerConfig,
    descend,
    gradient_check,
    jitter_set,
    multi_start,
)
from stokesopt.sets import (
    bundled_optimal_set,
    mub_gram,
    mub_set,
    random_set,
    sic_gram,
    sic_search,
    simplex_set,
    yang_nolan,
)
from stokesopt.seeding import rng_for

PS = 1e-12

NOISY_RX = ReceiverModel(responsivity=0.8, noise_psd=2e-22, window=5e-8,
                         pulse_width=1e-8, sample_rate=5e9, energy=5e-10)
CLEAN_RX = ReceiverModel(responsivity=0.8, noise_psd=0.0, window=5e-8,
                         pulse_width=1e-8, sample_rate=5e9, energy=5e-10)

_SETS = []


def track(s):
    """Pool a launch set for the final floor/volume sweep."""
    _SETS.append(s)
    return s


def finish(num, budget_s, started, detail):
    wall = time.monotonic() - started
    assert wall < budget_s, (
        f"criterion {num} took {wall:.1f}s, budget {budget_s}s")
    print(f"criterion {num:02d}: PASS ({detail}; wall {wall:.1f}s)")


def test_criterion_01_closed_form_families():
    started = time.monotonic()
    for n in (2, 3, 5, 7):
        pen = metrics(track(mub_set(n))).penalty
        assert abs(pen - 2.0 * (n - 1) / n) < 1e-10
    for n in range(2, 31):
        sic_pen = metrics_from_gram(sic_gram(n)).penalty
        assert abs(sic_pen - 2.0 * (n * n - 1) / n ** 2) < 1e-12
        mub_pen = metrics_from_gram(mub_gram(n)).penalty
        assert abs(mub_pen - 2.0 * (n - 1) / n) < 1e-12
    sic_seq = [2.0 * (n * n - 1) / n ** 2 for n in range(2, 101)]
    mub_seq = [2.0 * (n - 1) / n for n in range(2, 101)]
    for seq in (sic_seq, mub_seq):
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert all(v < 2.0 for v in seq)
    assert 2.0 - sic_seq[-1] < 3e-4
    assert 2.0 - mub_seq[-1] < 2.1e-2
    assert abs(10 * math.log10(sic_seq[-1]) - 3.0103) < 1e-3
    assert abs(10 * math.log10(mub_seq[-1]) - 3.0103) < 0.05
    finish(1, 10, started,
           "mub/sic penalties match closed forms, monotone toward 3.01 dB")


def test_criterion_02_reference_set():
    started = time.monotonic()
    mt = metrics(track(bundled_optimal_set(4)))
    assert abs(mt.xi - 16.9) <= 0.3
    assert abs(mt.penalty_db - 0.517) <= 0.08
    finish(2, 1, started,
           f"bundled 4-mode set xi={mt.xi:.4f}, {mt.penalty_db:.4f} dB")


def test_criterion_03_optimizer_endpoints():
    started = time.monotonic()
    best2 = multi_start(2, starts=4, config=OptimizerConfig(
        algorithm="projected", max_iters=5000, seed=0)).best.final_set
    pdb2 = metrics(track(best2)).penalty_db
    assert pdb2 <= 0.001

    best4 = multi_start(4, starts=8, config=OptimizerConfig(
        algorithm="hyperspherical", max_iters=2000, seed=0)).best.final_set
    mt4 = metrics(track(best4))
    assert mt4.xi <= 17.0

    pdb = {4: mt4.penalty_db}
    for n in (5, 6):
        best = multi_start(n, starts=4, config=OptimizerConfig(
            algorithm="hyperspherical", max_iters=4000, seed=0)).best.final_set
        pdb[n] = metrics(track(best)).penalty_db
    assert pdb[5] < pdb[4]
    assert pdb[6] < pdb[5]
    finish(3, 600, started,
           f"n=2 {pdb2:.2e} dB; n=4 xi={mt4.xi:.4f}; "
           f"penalties fall {pdb[4]:.4f} > {pdb[5]:.4f} > {pdb[6]:.4f} dB")


def test_criterion_04_family_init_ordering():
    started = time.monotonic()
    families = {"sic": sic_search(5, seed=0), "mub": mub_set(5),
                "yang": yang_nolan(5)}
    init_xi = {}
    for algo in ALGORITHMS:
        config = OptimizerConfig(algorithm=algo, max_iters=20000, seed=0)
        finals = {}
        for fam, s in families.items():
            run = descend(jitter_set(s, scale=1e-6, seed=11), config)
            track(run.final_set)
            assert not run.aborted
            assert run.final_xi < run.initial_xi
            finals[fam] = run.final_xi
            init_xi[fam] = run.initial_xi
        assert finals["sic"] <= finals["mub"] + 1e-9
        assert finals["sic"] <= finals["yang"] + 1e-9
    random_xi = metrics(track(random_set(5, seed=0))).xi
    assert random_xi > max(init_xi.values())
    finish(4, 900, started,
           f"both algorithms: sic <= mub, yang; random init xi={random_xi:.0f} "
           f"above family inits (max {max(init_xi.values()):.1f})")


def test_criterion_05_variance_law():
    started = time.monotonic()
    for n in (2, 3):
        fiber = fsim.synth_md_fiber(
            n, tau0=5 * PS,
            md_vector=rng_for(77, n).normal(0.0, PS, n * n - 1), seed=n)
        good = multi_start(n, starts=2, config=OptimizerConfig(
            algorithm="projected", max_iters=3000, seed=0)).best.final_set
        oblique = random_set(n, seed=4)
        track(good), track(oblique)
        results = {}
        for tag, s in (("good", good), ("oblique", oblique)):
            out = fsim.monte_carlo_md(fiber, s, NOISY_RX, 10000, seed=31,
                                      mode="analytic")
            ratio = out["mean_sq_error"] / out["predicted_mean_sq"]
            assert abs(ratio - 1.0) < 0.05
            results[tag] = out
        assert (results["oblique"]["mean_sq_error"]
                > results["good"]["mean_sq_error"])
        assert (results["oblique"]["predicted_mean_sq"]
                > results["good"]["predicted_mean_sq"])
    finish(5, 120, started,
           "Monte-Carlo error within 5% of prediction, oblique set larger")


def test_criterion_06_waveform_quadrature():
    started = time.monotonic()
    fiber = fsim.FiberModel(2, tau0=0.0,
                            md_vector=np.array([0.0, 0.0, 0.2 * PS]),
                            base_unitary=np.eye(2))
    delay = fsim.measure_delay(fiber, np.array([1.0, 0.0]), CLEAN_RX,
                               mode="waveform")
    rel = abs(delay - 0.1 * PS) / (0.1 * PS)
    assert rel < 0.01
    finish(6, 5, started, f"0.1 ps delay recovered to {rel:.2%}")


def test_criterion_07_mdl_pipeline():
    started = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        rng = rng_for(60 + n)
        fiber = fsim.synth_mdl_fiber(
            n, rng.uniform(0.05, 0.5, n), z=1.2, seed=70 + n, tau0=4 * PS,
            md_vector=rng.normal(0.0, PS, n * n - 1))
        launch = track(random_set(n, seed=6))
        simplex = simplex_set(n)
        est = fsim.reconstruct_mdl(
            launch, simplex,
            [fsim.measure_attenuation(fiber, s) for s in launch.states],
            [fsim.measure_attenuation(fiber, s) for s in simplex.states])
        equalized = fsim.equalize(fiber, est)
        w = equalized.base_unitary
        assert np.max(np.abs(w.conj().T @ w - np.eye(n))) < 1e-8
        tau0_est = fsim.estimate_tau0(equalized, CLEAN_RX, simplex)
        records = [fsim.measure_delay(equalized, s, CLEAN_RX)
                   for s in launch.states]
        md_est = fsim.reconstruct_md(launch, records, tau0_est)
        composed = fsim.compose_gd_operator(
            n, tau0_est, md_est, fsim.loss_matrix_from_estimate(est))
        direct = fsim.full_gd_operator(fiber, 1e6)
        scale = float(np.max(np.abs(direct.dmgds)))
        dev = float(np.max(np.abs(composed.dmgds - direct.dmgds)) / scale)
        assert dev < 1e-6
        worst = max(worst, dev)
    finish(7, 30, started,
           f"equalize + reconstruct round trip, worst delay deviation "
           f"{worst:.1e}")


def test_criterion_08_crosstalk_bound():
    started = time.monotonic()
    for eps in (1e-6, 1e-7, 1e-8):
        norm_ds, _ = fsim.crosstalk_bound(eps)
        assert 0.99 <= norm_ds / (2.0 * math.sqrt(2.0 * eps)) <= 1.01
    _, rel = fsim.crosstalk_bound(1e-4)
    assert abs(rel - 0.0283) < 1e-4
    finish(8, 1, started,
           f"square-root leakage law; relative bound {rel:.4f} at 1e-4")


def test_criterion_09_gradient_suite():
    started = time.monotonic()
    worst = 0.0
    # finite-difference step balances truncation (worst on near-singular
    # two-mode sets) against roundoff; the analytic side is h-independent
    for algo in ALGORITHMS:
        for n in (2, 3, 4):
            err = gradient_check(n, algo, trials=100, seed=0, h=3e-7)
            assert err < 1e-6
            worst = max(worst, err)
    for algo in ALGORITHMS:
        run = descend(random_set(3, seed=5),
                      OptimizerConfig(algorithm=algo, max_iters=2000, seed=0))
        track(run.final_set)
        assert np.all(np.diff(run.trajectory[:, 1]) <= 1e-12)
    finish(9, 120, started,
           f"600 finite-difference points, worst {worst:.1e}; "
           f"logged descents monotone")


def test_criterion_10_cost_floor_and_volume():
    started = time.monotonic()
    for n in (2, 3, 4, 5, 6):
        track(yang_nolan(n))
        track(random_set(n, seed=n))
    for n in (2, 3, 5, 7):
        track(mub_set(n))
    for n in (2, 3):
        track(sic_search(n, seed=1))
    track(bundled_optimal_set(4))
    assert len(_SETS) >= 16
    for s in _SETS:
        mt = metrics(s)
        assert mt.xi >= s.m - 1e-6
        assert mt.log_volume <= 1e-9
        assert mt.bound_ok
    finish(10, 120, started,
           f"{len(_SETS)} sets respect xi >= n^2-1 and |det| <= 1")
