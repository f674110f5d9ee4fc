"""Optimizer tests: gradient oracles, descent behavior, multi-start.

Both gradient forms are held against componentwise central finite
differences of the off-sphere cost extension; descent endpoints are held
against the known small-dimension optima and the orthonormal bound.
"""
import math

import numpy as np
import pytest

from stokesopt import gellmann, optimize, spheres
from stokesopt.errors import ConfigError, SingularSetError
from stokesopt.gellmann import angles_to_states, states_to_angles
from stokesopt.metrics import cost, metrics, _inverse_factor, _xi
from stokesopt.optimize import (
    OptimizerConfig,
    cost_and_gradient,
    descend,
    gradient_check,
    gradient_hyperspherical,
    gradient_jones,
    multi_start,
    _factor,
    _probe,
)
from stokesopt.sets import (
    LaunchSet,
    bundled_optimal_set,
    gram_from_states,
    mub_set,
    random_set,
    random_states,
    sic_search,
    yang_nolan,
)
from stokesopt.seeding import rng_for


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
    with pytest.raises(ConfigError, match="unknown algorithm 'exact', pick"):
        gradient_check(3, algorithm="exact")


@pytest.mark.parametrize("trials", [0, -1])
def test_gradient_check_needs_a_trial(trials):
    with pytest.raises(ConfigError, match="trials"):
        gradient_check(2, trials=trials)


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
    xi, g, _ = gradient_hyperspherical(angles, n)
    assert np.all(np.isfinite(g))
    states = angles_to_states(angles)
    assert abs(states[0, 1]) == 0.0 and abs(states[0, 2]) == 0.0
    # phases of zero components cannot matter
    np.testing.assert_allclose(g[0, n - 1:], 0.0, atol=0)


def _analytic_chart_metric(angles):
    """prefix_a^2 = prod_{u<a} sin^2(phi_u) for phi_a, |s_{a+1}|^2 for
    theta_a."""
    nm1 = angles.shape[1] // 2
    prefix = np.cumprod(np.sin(angles[:, :nm1]) ** 2, axis=1)
    phis = np.hstack([np.ones((len(angles), 1)), prefix[:, :-1]])
    return np.hstack([phis, np.abs(angles_to_states(angles)[:, 1:]) ** 2])


@pytest.mark.parametrize("start", ["random", "mub pole"])
def test_chart_metric_is_the_diagonal_jacobian_gram(start):
    # J^H J of the angle chart is diagonal, so its diagonal is the whole
    # metric the chart's L-BFGS directions start from
    n = 5
    if start == "random":
        angles = rng_for(41).uniform(-np.pi, np.pi, (24, 2 * (n - 1)))
    else:
        angles = states_to_angles(mub_set(n).states)
    _, jac = gellmann.angles_to_states_jacobian(angles)
    gram = np.einsum("qac,qbc->qab", jac.conj(), jac).real
    diag = np.einsum("qaa->qa", gram)
    off = gram - diag[:, :, None] * np.eye(2 * (n - 1))
    assert np.max(np.abs(off)) <= 1e-14
    analytic = _analytic_chart_metric(angles)
    np.testing.assert_allclose(diag, analytic, rtol=1e-12, atol=1e-15)
    _, _, metric = gradient_hyperspherical(angles, n)
    np.testing.assert_allclose(
        metric, np.maximum(diag, optimize._METRIC_FLOOR), rtol=1e-14)
    if start == "mub pole":
        # basis states and their zero components put the chart at its
        # poles: the floor replaces the zero rows of the Jacobian
        assert np.min(analytic) == 0.0
        assert np.min(metric) == optimize._METRIC_FLOOR


def test_cost_extension_matches_on_sphere_cost():
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
        np.testing.assert_array_equal(run.trajectory[:, 0],
                                      np.arange(run.iterations_used + 1))
        assert np.all(np.diff(run.trajectory[:, 1]) <= 1e-12)


def test_trajectory_logs_each_iteration_once():
    capped = descend(random_set(3, seed=8),
                     OptimizerConfig(algorithm="projected", max_iters=5))
    assert capped.stop_reason == "max_iters"
    np.testing.assert_array_equal(capped.trajectory[:, 0], np.arange(6))
    # a probe cost that never falls stalls the first line search
    _, stop_reason, trajectory = spheres.projected_descent(
        lambda x: (1e9, None), lambda x, _: (float(x @ x), 2.0 * x, None),
        np.ones(3), grad_tol=0.0, max_iters=50, on_spheres=False)
    assert stop_reason == "line_search_stall"
    np.testing.assert_array_equal(trajectory[:, 0], [0, 1])


def test_gradient_raising_after_an_accepted_step_aborts():
    # the start and the first accepted step get gradients; the gradient at
    # the second accepted point raises, which ends iteration 2 as singular
    scale = np.array([1.0, 3.0, 10.0])
    grad_calls = []

    def cost_fn(x):
        return float(x @ (scale * x)), None

    def grad_fn(x, work):
        grad_calls.append(x)
        if len(grad_calls) == 3:
            raise ArithmeticError("singular")
        return cost_fn(x)[0], 2.0 * scale * x, None

    point, stop_reason, trajectory = spheres.projected_descent(
        cost_fn, grad_fn, np.ones(3), grad_tol=0.0, max_iters=50,
        on_spheres=False)
    assert stop_reason == "singular_iterate"
    np.testing.assert_array_equal(trajectory[:, 0], [0, 1, 2])
    # the last accepted point and its cost are kept
    assert point is grad_calls[2]
    assert cost_fn(point)[0] == trajectory[2, 1]
    assert trajectory[2, 1] < trajectory[1, 1] < trajectory[0, 1]


def _repeat_first_state(s):
    s.states[1] = s.states[0]
    return s


def _gradient_raising_at_call(monkeypatch, call):
    real, calls = optimize.gradient_jones, []

    def gradient_jones(*args):
        calls.append(args)
        if len(calls) == call:
            raise SingularSetError("singular")
        return real(*args)

    monkeypatch.setattr(optimize, "gradient_jones", gradient_jones)


def _stalling_search(monkeypatch):
    monkeypatch.setattr(spheres, "armijo_step",
                        lambda cost_fn, states, f0, *args: (f0, None, None))


# one case per stop: (initial set, max_iters, patch, stop, iterations)
_STOPS = {
    "converged": (lambda: random_set(3, seed=8), 2000, None, "converged",
                  None),
    "exact mub": (lambda: mub_set(3), 2000, None, "converged", 0),
    "capped": (lambda: random_set(3, seed=8), 5, None, "max_iters", 5),
    "singular start": (lambda: _repeat_first_state(random_set(3, seed=1)),
                       2000, None, "singular_iterate", 0),
    "singular step": (lambda: random_set(3, seed=8), 2000,
                      lambda mp: _gradient_raising_at_call(mp, 3),
                      "singular_iterate", 2),
    "stalled search": (lambda: random_set(3, seed=8), 2000, _stalling_search,
                       "line_search_stall", 1),
}


@pytest.mark.parametrize("case", list(_STOPS))
def test_run_record_is_the_last_trajectory_row(monkeypatch, case):
    make, max_iters, patch, stop, iterations = _STOPS[case]
    if patch is not None:
        patch(monkeypatch)
    run = descend(make(), OptimizerConfig(algorithm="projected",
                                          max_iters=max_iters))
    assert run.stop_reason == stop
    assert run.converged == (stop == "converged")
    assert run.aborted == (stop == "singular_iterate")
    if iterations is not None:
        assert run.iterations_used == iterations
    assert type(run.iterations_used) is int
    assert type(run.final_xi) is float and type(run.grad_norm) is float
    assert tuple(run.trajectory[-1]) == (run.iterations_used, run.final_xi,
                                         run.grad_norm)
    np.testing.assert_array_equal(run.trajectory[:, 0],
                                  np.arange(run.iterations_used + 1))
    assert run.final_set.meta["final_xi"] == run.final_xi
    assert run.final_set.meta["iterations"] == run.iterations_used
    # no gradient exists at a singular point, so its norm is logged as inf
    singular = case in ("singular start", "singular step")
    assert math.isinf(run.grad_norm) == singular


def test_descent_converges_from_nearly_singular_start():
    # a clump of nearly equal states sits on the steep cliff of singular
    # configurations; the one descent rule walks off it and converges
    n, m = 3, 8
    rng = rng_for(77)
    base = random_states(rng, 1, n)[0]
    clump = base[None, :] + 3e-2 * (rng.standard_normal((m, n))
                                    + 1j * rng.standard_normal((m, n)))
    s0 = LaunchSet(n=n, states=spheres.normalize_rows(clump))
    cfg = OptimizerConfig(algorithm="projected", max_iters=3000, seed=0)
    run = descend(s0, cfg)
    assert run.initial_xi > 1e5
    assert run.converged and run.stop_reason == "converged"
    assert run.final_xi < 10.0


def test_mub_init_is_a_stationary_point():
    # the unbiased-bases set is an exact critical point: descent stops
    # immediately and must not report an increase
    cfg = OptimizerConfig(algorithm="projected", seed=0)
    run = descend(mub_set(3), cfg)
    assert run.iterations_used == 0
    assert run.converged
    assert run.final_xi == run.initial_xi


def test_lbfgs_direction_without_pairs_is_minus_gradient():
    rng = rng_for(5)
    g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.array_equal(spheres._lbfgs_direction(g, [], None), -g)


def test_lbfgs_direction_meets_the_secant_condition():
    # H y = s for the newest pair, whatever metric H0 starts from
    rng = rng_for(6)
    s = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    y = s + 0.3 * (rng.standard_normal((8, 3))
                   + 1j * rng.standard_normal((8, 3)))
    for metric in (None, rng.uniform(1e-3, 1.0, (8, 3))):
        hy = -spheres._lbfgs_direction(y, [(s, y)], metric)
        assert np.max(np.abs(hy - s)) <= 1e-12 * np.max(np.abs(s))


def test_lbfgs_direction_with_unit_metric_is_the_plain_two_loop():
    # the spheres pass no metric; a unit one changes no bit of the direction
    def plain_two_loop(g, pairs):
        q, alphas = g, []
        for s, y in reversed(pairs):
            alphas.append(np.vdot(s, q).real / np.vdot(y, s).real)
            q = q - alphas[-1] * y
        s, y = pairs[-1]
        q = (np.vdot(s, y).real / np.vdot(y, y).real) * q
        for (s, y), a in zip(pairs, reversed(alphas)):
            q = q + (a - np.vdot(y, q).real / np.vdot(y, s).real) * s
        return -q

    rng = rng_for(7)
    draw = lambda: rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    pairs = []
    for _ in range(4):
        s = draw()
        pairs.append((s, s + 0.3 * draw()))
    g = draw()
    expect = plain_two_loop(g, pairs)
    assert np.array_equal(spheres._lbfgs_direction(g, pairs, None), expect)
    assert np.array_equal(
        spheres._lbfgs_direction(g, pairs, np.ones((8, 3))), expect)


@pytest.mark.parametrize("algorithm", ["hyperspherical", "projected"])
def test_non_descent_direction_falls_back_to_minus_gradient(monkeypatch,
                                                             algorithm):
    asked, searched = [], []

    def uphill(g, pairs, metric):
        asked.append((g, len(pairs)))
        return g.copy()

    armijo = spheres.armijo_step

    def spy(cost_fn, states, f0, direction, *args):
        searched.append(direction)
        return armijo(cost_fn, states, f0, direction, *args)

    monkeypatch.setattr(spheres, "_lbfgs_direction", uphill)
    monkeypatch.setattr(spheres, "armijo_step", spy)
    run = descend(random_set(3, seed=8),
                  OptimizerConfig(algorithm=algorithm, max_iters=200))
    assert run.iterations_used >= 1
    assert len(searched) == len(asked) == run.iterations_used
    for (g, n_pairs), direction in zip(asked, searched):
        assert n_pairs <= 1  # cleared at every fallback
        assert np.array_equal(direction, -g)
    assert np.all(np.diff(run.trajectory[:, 1]) <= 0.0)
    assert run.final_xi < run.initial_xi


def test_design_chart_starts_all_converge():
    # every start of the benchmark's n=4 angle-chart pass stops on the
    # stop rule, well before the cap, at the known optimum; starts take
    # 73-99 iterations from the chart-metric H0 and took 134-278 from a
    # unit one
    res = multi_start(4, 8, OptimizerConfig(algorithm="hyperspherical",
                                            max_iters=2000, seed=0))
    for run in res.runs:
        assert run.converged and run.stop_reason == "converged"
        assert run.iterations_used < 150
        assert abs(run.final_xi - 16.8943683531) < 1e-9


def test_descend_deterministic():
    cfg = OptimizerConfig(algorithm="projected", max_iters=2000, seed=0)
    a = descend(random_set(3, seed=8), cfg)
    b = descend(random_set(3, seed=8), cfg)
    assert np.array_equal(a.final_set.states, b.final_set.states)
    assert a.final_xi == b.final_xi


def _assert_same_search(a, b):
    assert a.best_index == b.best_index
    assert len(a.runs) == len(b.runs)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.final_xi == rb.final_xi
        assert np.array_equal(ra.final_set.states, rb.final_set.states)


def test_multi_start_parallel_matches_serial():
    # one start runs in this process whatever the worker count
    cfg = OptimizerConfig(algorithm="projected", max_iters=2000, seed=0)
    for starts in (1, 3):
        _assert_same_search(multi_start(3, starts=starts, config=cfg),
                            multi_start(3, starts=starts, config=cfg,
                                        workers=2))


@pytest.mark.parametrize("workers", [-1, 0, 1, 2])
def test_pool_map_keeps_job_order_at_any_width(workers):
    assert optimize.pool_map(abs, [-3, 1, -2], workers) == [3, 1, 2]


def test_multi_start_explicit_workers_match_serial():
    cfg = OptimizerConfig(algorithm="projected", max_iters=500, seed=0)
    serial = multi_start(3, starts=2, config=cfg, workers=1)
    pooled = multi_start(3, starts=2, config=cfg, workers=2)
    _assert_same_search(serial, pooled)


def test_multi_start_ignores_worker_env(monkeypatch):
    cfg = OptimizerConfig(algorithm="projected", max_iters=200, seed=0)
    serial = multi_start(3, starts=2, config=cfg)
    monkeypatch.setenv("STOKES_OPT_THREADS", "two")
    _assert_same_search(serial, multi_start(3, starts=2, config=cfg))


def test_multi_start_rejects_zero_starts():
    with pytest.raises(ConfigError):
        multi_start(3, starts=0)


@pytest.mark.parametrize("algorithm", ["hyperspherical", "projected"])
def test_singular_start_aborts_only_itself(monkeypatch, algorithm):
    # random_set keeps its first draw; one that repeats a state (probability
    # zero) is singular, and its start aborts without stopping the others
    draw = optimize.random_set

    def repeat_a_state_at_seed_1(n, seed=0):
        s = draw(n, seed=seed)
        if seed == 1:
            s.states[1] = s.states[0]
        return s

    monkeypatch.setattr(optimize, "random_set", repeat_a_state_at_seed_1)
    with pytest.raises(SingularSetError):
        metrics(repeat_a_state_at_seed_1(3, seed=1))
    res = multi_start(3, starts=3, config=OptimizerConfig(
        algorithm=algorithm, max_iters=200, seed=0))
    bad = res.runs[1]
    assert bad.aborted and bad.stop_reason == "singular_iterate"
    assert bad.iterations_used == 0 and bad.final_xi == math.inf
    assert not any(run.aborted for run in (res.runs[0], res.runs[2]))
    assert res.best_index != 1


def test_hyperspherical_round_trip_preserves_cost():
    # entering the angle chart gauges each state but cannot change the cost
    s = random_set(3, seed=12)
    angles = states_to_angles(s.states)
    xi_angles, _, _ = gradient_hyperspherical(angles, 3)
    xi_direct, _ = cost_and_gradient(np.array(s.states), 3)
    np.testing.assert_allclose(xi_angles, xi_direct, rtol=1e-10)


def test_angle_gradient_evaluates_the_chart_once(monkeypatch):
    chart = gellmann._chart
    calls = []

    def counting_chart(*args):
        calls.append(1)
        return chart(*args)

    monkeypatch.setattr(gellmann, "_chart", counting_chart)
    angles = states_to_angles(random_set(4, seed=3).states)
    gradient_hyperspherical(angles, 4)
    assert len(calls) == 1


def test_inverse_gram_matches_scipy_cholesky_wrappers_bitwise():
    # the optimizer's factor, its G^-1 = L^-T L^-1 and its cost are the
    # metrics kernel's on the same Gram to the bit, so the kernel's accuracy
    # tests cover them; against scipy's cho_factor/cho_solve wrappers they
    # agree within k eps cond(G) max|G^-1| on each entry of G^-1 (k = 4, as
    # in the mpmath reference test) and k eps cond(G) on the cost (k = 1)
    from scipy.linalg import cho_factor, cho_solve

    eps = np.finfo(float).eps
    for n, seed in ((2, 1), (4, 2), (6, 3)):
        states = np.array(random_set(n, seed=seed).states)
        g = gram_from_states(states, n)
        kernel = _inverse_factor(g)
        linv = _factor(states, n)
        assert linv.tobytes() == kernel.tobytes()
        assert (linv.T @ linv).tobytes() == (kernel.T @ kernel).tobytes()
        xi = cost_and_gradient(states, n)[0]
        assert xi == _xi(kernel)
        ref = cho_solve(cho_factor(g, lower=True, check_finite=False),
                        np.eye(g.shape[0]))
        bound = eps * np.linalg.cond(g)
        assert (np.abs(linv.T @ linv - ref).max()
                <= 4.0 * bound * np.abs(ref).max())
        assert abs(xi - np.trace(ref)) <= bound * np.trace(ref)


def _xi_sample_sets():
    return ([random_set(n, seed=seed) for n in range(2, 7)
             for seed in range(5)]
            + [yang_nolan(n) for n in range(2, 6)]
            + [mub_set(5), bundled_optimal_set()])


def test_every_xi_route_gives_the_same_float():
    # metrics, cost, the descent's probe, its gradient call and the
    # finite-difference cost share one Gram and one inverse factor
    sets = _xi_sample_sets()
    assert len(sets) == 31
    for s in sets:
        xi = metrics(s).xi
        assert cost(s) == xi
        assert cost_and_gradient(s.states, s.n)[0] == xi
        assert _probe(s.states, s.n)[0] == xi


def test_inverse_gram_singular_message():
    states = np.array(random_set(3, seed=4).states)
    states[0] = 0.0
    with pytest.raises(SingularSetError) as err:
        _inverse_factor(gram_from_states(states, 3))
    assert str(err.value) == "Gram matrix is not positive definite"


def test_cost_and_gradient_with_reused_factor_is_bitwise_fresh():
    for n, seed in ((3, 6), (4, 5)):
        states = np.array(random_set(n, seed=seed).states)
        xi, grad = cost_and_gradient(states, n)
        xi_r, grad_r = cost_and_gradient(states, n, _factor(states, n))
        assert xi_r == xi
        assert np.array_equal(grad_r, grad)


def test_probe_returns_the_cost_and_factor_of_its_states():
    n = 4
    a = np.array(random_set(n, seed=1).states)
    xi, factor = _probe(a, n)
    assert xi == cost_and_gradient(a, n)[0]
    assert factor.tobytes() == _factor(a, n).tobytes()


def test_singular_probe_returns_no_factor():
    states = np.array(random_set(3, seed=4).states)
    states[0] = 0.0
    assert _probe(states, 3) == (math.inf, None)


def test_armijo_step_hands_over_the_accepted_probe():
    # the line search returns the cost, point and work of the probe it
    # accepts, which is its last; a stall returns f0 and neither
    probes = []

    def cost_fn(x):
        probes.append((float(x @ x), x, object()))
        return probes[-1][0], probes[-1][2]

    x0 = np.array([1.0, -2.0, 0.5])
    f0 = float(x0 @ x0)
    out = spheres.armijo_step(cost_fn, x0, f0, -8.0 * x0, -16.0 * f0,
                              lambda x: x)
    assert len(probes) > 1
    ft, trial, work = probes[-1]
    assert out[0] == ft and out[1] is trial and out[2] is work
    assert ft < f0
    stall = spheres.armijo_step(lambda x: (math.inf, object()), x0, f0,
                                -x0, -f0, lambda x: x)
    assert stall == (f0, None, None)


@pytest.mark.parametrize("algorithm", ["hyperspherical", "projected"])
def test_descent_gradients_reuse_only_the_accepted_probe(monkeypatch, algorithm):
    # the start, which the line search never probed, gets no factor; every
    # later gradient reuses the accepted probe's and matches a fresh one
    # bit for bit
    fresh = optimize.cost_and_gradient
    calls = []

    def spy(states, n, factor=None):
        out = fresh(states, n, factor)
        if factor is not None:
            ref = fresh(states, n)
            assert out[0] == ref[0] and np.array_equal(out[1], ref[1])
        calls.append(factor is not None)
        return out

    monkeypatch.setattr(optimize, "cost_and_gradient", spy)
    n, m = 3, 8
    rng = rng_for(77)
    base = random_states(rng, 1, n)[0]
    clump = base[None, :] + 3e-2 * (rng.standard_normal((m, n))
                                    + 1j * rng.standard_normal((m, n)))
    s0 = LaunchSet(n=n, states=spheres.normalize_rows(clump))
    run = descend(s0, OptimizerConfig(algorithm=algorithm, max_iters=200))
    assert run.iterations_used >= 1
    assert calls == [False] + [True] * run.iterations_used


# final_xi of two fixed descents, to the bit: any change to the kernel, the
# chart or the descent rule that moves an endpoint shows here
@pytest.mark.parametrize("algorithm, seed, final_xi", [
    ("hyperspherical", 2, 16.89436835311696),
    ("projected", 3, 16.89436835311694),
])
def test_fixed_descents_match_frozen_final_xi(algorithm, seed, final_xi):
    cfg = OptimizerConfig(algorithm=algorithm, max_iters=300)
    run = descend(random_set(4, seed=seed), cfg)
    assert run.final_xi == final_xi
