"""Optimizer tests: gradient oracles, descent behavior, multi-start.

Both gradient forms are held against componentwise central finite
differences of the off-sphere cost extension; descent endpoints are held
against the known small-dimension optima and the orthonormal bound.
"""
import os

import numpy as np
import pytest

from stokesopt import spheres
from stokesopt.errors import ConfigError
from stokesopt.gellmann import angles_to_states
from stokesopt.optimize import (
    OptimizerConfig,
    OptimizerRun,
    cost_and_gradient,
    descend,
    gradient_check,
    gradient_hyperspherical,
    gradient_jones,
    multi_start,
    _states_to_angles,
)
from stokesopt.parallel import pool_map, resolve_workers
from stokesopt.sets import (
    LaunchSet,
    mub_set,
    random_set,
    random_states,
    sic_search,
    yang_nolan,
)
from stokesopt.seeding import rng_for


def _phase2_costs(run: OptimizerRun) -> np.ndarray:
    """Logged costs after the fixed-step phase (accepted Armijo steps)."""
    t = run.trajectory
    return t[t[:, 0] >= run.phase1_iters, 1]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_defaults_are_valid():
    cfg = OptimizerConfig()
    assert cfg.algorithm == "hyperspherical"
    assert cfg.max_iters == 100_000


@pytest.mark.parametrize("kwargs", [
    {"algorithm": "newton"},
    {"max_iters": 0},
    {"grad_tol": -1.0},
    {"normalized_phase_threshold": 0.0},
    {"normalized_phase_step": 0.0},
    {"backtracking_alpha": 1.5},
    {"backtracking_beta": 0.0},
    {"initial_step": -0.1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        OptimizerConfig(**kwargs)


# ---------------------------------------------------------------------------
# Gradient oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["projected", "hyperspherical"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradients_match_finite_differences(algorithm, n):
    assert gradient_check(n, algorithm=algorithm, trials=3, seed=0) < 1e-6


def test_gradient_check_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        gradient_check(3, algorithm="exact")


def test_projected_gradient_is_tangent():
    # residual radial components are pure roundoff, so the tolerance scales
    # with each row's gradient magnitude (near-singular draws reach ~1e7)
    for trial in range(5):
        st = random_set(3, seed=20 + trial).states
        _, g = gradient_jones(np.array(st), 3)
        radial = np.sum(st.conj() * g, axis=1).real
        rows = np.linalg.norm(g, axis=1)
        assert np.max(np.abs(radial) / (1.0 + rows)) < 1e-13


def test_gradient_vanishes_at_two_mode_optimum():
    # an orthonormal Stokes triple is the global minimum for 2 modes
    _, g = gradient_jones(np.array(yang_nolan(2).states), 2)
    assert np.linalg.norm(g) < 1e-8


def test_angle_gradient_finite_and_zero_at_pole():
    # sin(phi_0) = 0 makes every later angle redundant; the analytic chain
    # must return exact zeros there, not NaNs
    m, n = 8, 3
    rng = rng_for(31)
    angles = rng.uniform(0.2, 1.4, size=(m, 2 * (n - 1)))
    angles[0, 0] = 0.0
    xi, g = gradient_hyperspherical(angles, n)
    assert np.all(np.isfinite(g))
    states = angles_to_states(angles[:, : n - 1], angles[:, n - 1:])
    assert abs(states[0, 1]) == 0.0 and abs(states[0, 2]) == 0.0
    # phases of zero components cannot matter
    np.testing.assert_allclose(g[0, n - 1:], 0.0, atol=0)


def test_cost_extension_matches_on_sphere_cost():
    from stokesopt.metrics import cost

    s = random_set(4, seed=1)
    xi, _ = cost_and_gradient(np.array(s.states), 4)
    np.testing.assert_allclose(xi, cost(s), rtol=1e-12)


# ---------------------------------------------------------------------------
# Descent endpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["projected", "hyperspherical"])
def test_two_modes_reach_orthonormal_bound(algorithm):
    cfg = OptimizerConfig(algorithm=algorithm, max_iters=3000, seed=0)
    run = descend(random_set(2, seed=3), cfg)
    assert run.final_xi <= 3.0 * 10 ** 0.0001  # 0.001 dB over the bound
    assert run.final_xi >= 3.0 - 1e-9


def test_four_modes_multi_start_reaches_reference_cost():
    cfg = OptimizerConfig(algorithm="projected", seed=0)
    res = multi_start(4, starts=5, config=cfg)
    assert res.best.final_xi <= 17.0
    assert res.best.final_xi == min(r.final_xi for r in res.runs
                                    if not r.aborted)
    assert len(res.runs) == 5


def test_five_mode_family_inits_order():
    # equal squared overlaps beat the pairwise-superposition family as a
    # starting point, and both strictly improve
    cfg = OptimizerConfig(algorithm="projected", max_iters=20_000, seed=0)
    run_sic = descend(sic_search(5, seed=0), cfg)
    run_yang = descend(yang_nolan(5), cfg)
    assert run_sic.final_xi < run_sic.initial_xi
    assert run_yang.final_xi < run_yang.initial_xi
    assert run_sic.final_xi <= run_yang.final_xi + 1e-9


def test_descent_invariants_and_trajectory():
    for algorithm in ("projected", "hyperspherical"):
        cfg = OptimizerConfig(algorithm=algorithm, max_iters=2000, seed=0)
        run = descend(random_set(3, seed=8), cfg)
        assert run.final_xi <= run.initial_xi
        norms = np.linalg.norm(run.final_set.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)
        assert run.final_set.family == "optimized"
        assert run.trajectory.shape[1] == 3
        costs = _phase2_costs(run)
        assert np.all(np.diff(costs) <= 1e-12)


def test_phase_one_engages_on_nearly_singular_start():
    n, m = 3, 8
    rng = rng_for(77)
    base = random_states(rng, 1, n)[0]
    clump = base[None, :] + 3e-2 * (rng.standard_normal((m, n))
                                    + 1j * rng.standard_normal((m, n)))
    s0 = LaunchSet(n=n, states=spheres.normalize_rows(clump))
    cfg = OptimizerConfig(algorithm="projected", max_iters=3000, seed=0)
    run = descend(s0, cfg)
    assert run.initial_xi > 1e5
    assert run.phase1_iters >= 1
    assert run.final_xi < 10.0


def test_mub_init_is_a_stationary_point():
    # the unbiased-bases set is an exact critical point: descent stops
    # immediately and must not report an increase
    cfg = OptimizerConfig(algorithm="projected", seed=0)
    run = descend(mub_set(3), cfg)
    assert run.iterations_used == 0
    assert run.converged
    assert run.final_xi == run.initial_xi


def test_descend_deterministic():
    cfg = OptimizerConfig(algorithm="projected", max_iters=2000, seed=0)
    a = descend(random_set(3, seed=8), cfg)
    b = descend(random_set(3, seed=8), cfg)
    assert np.array_equal(a.final_set.states, b.final_set.states)
    assert a.final_xi == b.final_xi


def test_multi_start_parallel_matches_serial(monkeypatch):
    cfg = OptimizerConfig(algorithm="projected", max_iters=2000, seed=0)
    monkeypatch.delenv("STOKES_OPT_THREADS", raising=False)
    serial = multi_start(3, starts=3, config=cfg)
    monkeypatch.setenv("STOKES_OPT_THREADS", "2")
    parallel = multi_start(3, starts=3, config=cfg)
    assert serial.best_index == parallel.best_index
    for a, b in zip(serial.runs, parallel.runs):
        assert a.final_xi == b.final_xi
        assert np.array_equal(a.final_set.states, b.final_set.states)


def test_multi_start_explicit_workers_match_serial(monkeypatch):
    cfg = OptimizerConfig(algorithm="projected", max_iters=500, seed=0)
    monkeypatch.setenv("STOKES_OPT_THREADS", "2")
    serial = multi_start(3, starts=2, config=cfg, workers=1)
    pooled = multi_start(3, starts=2, config=cfg, workers=2)
    for a, b in zip(serial.runs, pooled.runs):
        assert np.array_equal(a.final_set.states, b.final_set.states)


def test_pool_helper_serial_fallback_and_env_default(monkeypatch):
    # a lambda cannot be sent to a worker process, so these ran in-process
    assert pool_map(lambda j: j * j, [1, 2, 3], 1) == [1, 4, 9]
    assert pool_map(lambda j: -j, [5], 4) == [-5]
    monkeypatch.delenv("STOKES_OPT_THREADS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("STOKES_OPT_THREADS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("STOKES_OPT_THREADS", "two")
    with pytest.raises(ConfigError, match="STOKES_OPT_THREADS"):
        resolve_workers(None)


def test_multi_start_rejects_zero_starts():
    with pytest.raises(ConfigError):
        multi_start(3, starts=0)


def test_hyperspherical_round_trip_preserves_cost():
    # entering the angle chart gauges each state but cannot change the cost
    s = random_set(3, seed=12)
    angles = _states_to_angles(s.states)
    xi_angles, _ = gradient_hyperspherical(angles, 3)
    xi_direct, _ = cost_and_gradient(np.array(s.states), 3)
    np.testing.assert_allclose(xi_angles, xi_direct, rtol=1e-10)
