"""Descent of the noise-amplification cost over launch-state sets.

Two parameterizations of the same search space are offered: "projected"
walks the states directly on the product of unit spheres (tangent gradient
plus renormalization), "hyperspherical" walks the unconstrained angle chart
of each state.  Both run the one loop of `spheres`: L-BFGS directions
searched by Armijo backtracking, stopped once the cost no longer falls.
The chart passes its diagonal metric diag(J^H J) along with each gradient,
so its directions start from the inverse metric; on the spheres the metric
is the unit one.  A caller sets the algorithm, iteration cap and seed; the
rest is fixed.

The cost gradient is exact and analytic.  The Gram of
`sets.gram_from_states`, G_jk = (n/(n-1)) (|<s_j|s_k>|^2 - |s_j|^2 |s_k|^2 / n),
extends the cost smoothly off the unit spheres, which is what makes plain
finite differences a valid oracle for the full gradient; the sphere
algorithms then project or chain-rule that gradient into their own
coordinates.

Every cost and gradient goes through the one kernel of `metrics`, the
inverse Cholesky factor L^-1 of that Gram (a recursive blocked Cholesky
that writes L^-1 over the probe's own Gram), with xi = ||L^-1||_F^2, so the
optimizer and `metrics` agree to the last bit.
Each line-search probe returns its L^-1 along with its cost, and the Armijo
search hands the accepted probe's factor to the gradient at that point, so
each iteration factorizes once per probe and never again for its gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import spheres
from .errors import ConfigError, SearchFailedError, SingularSetError
from .gellmann import (
    angles_to_states,
    angles_to_states_jacobian,
    states_to_angles,
)
from .metrics import _inverse_factor, _xi
from .sets import LaunchSet, canonicalize_phases, gram_from_states, random_set
from .seeding import complex_normal, rng_for

__all__ = [
    "ALGORITHMS",
    "OptimizerConfig",
    "OptimizerRun",
    "MultiStartResult",
    "cost_and_gradient",
    "gradient_jones",
    "gradient_hyperspherical",
    "descend",
    "multi_start",
    "gradient_check",
    "jitter_set",
]

ALGORITHMS = ("hyperspherical", "projected")
_METRIC_FLOOR = 1e-3  # least diagonal entry of the angle chart's metric


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings: the algorithm, the iteration cap and the seed of
    the first multi-start set.

    The rest is fixed by the constants in `spheres`: L-BFGS directions
    searched by Armijo backtracking, converged once the cost fell by at most
    1e-12 of itself over 10 iterations or the gradient norm is at most 1e-9 m
    (m = n^2 - 1).  In the angle chart each direction starts from the
    inverse of the chart's diagonal metric, floored at _METRIC_FLOOR.
    """

    algorithm: str = "hyperspherical"
    max_iters: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}, pick from {ALGORITHMS}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass
class OptimizerRun:
    """One descent, start to finish; iterations_used, final_xi and grad_norm
    are the trajectory's last row."""

    final_set: LaunchSet
    algorithm: str
    initial_xi: float
    final_xi: float
    grad_norm: float
    iterations_used: int
    phase1_iters: int  # always 0: the descent has no fixed-step phase
    converged: bool
    aborted: bool
    stop_reason: str
    trajectory: np.ndarray  # (iterations_used + 1, 3): iteration, cost, grad norm


@dataclass
class MultiStartResult:
    """All starts of a multi-start search; best picks the lowest final cost
    among runs that did not abort (ties go to the lowest start index)."""

    runs: list
    best_index: int

    @property
    def best(self) -> OptimizerRun:
        return self.runs[self.best_index]


def _factor(states: np.ndarray, n: int) -> np.ndarray:
    """L^-1 of the states' Gram, written over that fresh Gram; raises
    SingularSetError when not SPD."""
    return _inverse_factor(gram_from_states(states, n))


def cost_and_gradient(states: np.ndarray, n: int,
                      factor: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Cost Tr(G^-1) and its full Euclidean gradient in the state entries.

    Valid for non-unit rows as well (the off-sphere extension above), so a
    componentwise finite difference reproduces it without any projection.
    `factor` is L^-1 of the states' Gram when the caller already has it
    (the descent's accepted line-search probe); it is computed otherwise.

    Raises
    ------
    SingularSetError
        When the Gram is not numerically positive definite.
    """
    linv = factor if factor is not None else _factor(states, n)
    ginv = linv.T @ linv
    q = ginv @ ginv
    ov = states.conj() @ states.T
    nrm2 = ov.diagonal().real
    coef = 4.0 * n / (n - 1.0)
    grad = -coef * ((q * ov.conj()) @ states
                    - ((q @ nrm2) / n)[:, None] * states)
    return _xi(linv), grad


def _probe(states: np.ndarray, n: int) -> tuple[float, np.ndarray | None]:
    """Cost Tr(G^-1) and L^-1 of the states' Gram; (inf, None) when singular."""
    try:
        factor = _factor(states, n)
    except SingularSetError:
        return math.inf, None
    return _xi(factor), factor


def gradient_jones(states: np.ndarray, n: int,
                   factor: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Cost and tangent-projected gradient for the projected algorithm."""
    xi, grad = cost_and_gradient(states, n, factor)
    return xi, spheres.tangent_project(states, grad)


def gradient_hyperspherical(angles: np.ndarray, n: int,
                            factor: np.ndarray | None = None
                            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Cost, gradient and metric in the stacked angle chart.

    `angles` is a stacked (m, 2(n-1)) angle array in the layout of
    `gellmann`; one chart evaluation gives the states and the analytic
    Jacobian.  The chain rule contracts the full state-space gradient with
    that Jacobian; radial components vanish in the contraction because the
    chart moves states only tangentially.  `factor` is passed on to
    cost_and_gradient.

    The metric J^H J of the angle chart is diagonal: an angle moves its
    state orthogonally to every other angle of that state, phi_a by
    sin(phi_0) ... sin(phi_{a-1}) and theta_a by |s_{a+1}|.  Its diagonal,
    the squared norms of the Jacobian rows, is floored at _METRIC_FLOOR,
    since chart poles give zero rows.
    """
    states, jac = angles_to_states_jacobian(angles)
    xi, grad = cost_and_gradient(states, n, factor)
    rows = jac.view(float)
    metric = np.einsum("qpc,qpc->qp", rows, rows)
    return (xi, np.einsum("qc,qpc->qp", grad.conj(), jac).real,
            np.maximum(metric, _METRIC_FLOOR, out=metric))


def descend(initial: LaunchSet, config: OptimizerConfig | None = None) -> OptimizerRun:
    """Minimize the noise-amplification cost starting from one launch set."""
    if config is None:
        config = OptimizerConfig()
    n, m = initial.n, initial.m

    on_spheres = config.algorithm == "projected"
    if on_spheres:
        point0 = initial.states
        cost_fn = lambda st: _probe(st, n)
        grad_fn = lambda st, factor: (*gradient_jones(st, n, factor), None)
    else:
        point0 = states_to_angles(initial.states)
        cost_fn = lambda a: _probe(angles_to_states(a), n)
        grad_fn = lambda a, factor: gradient_hyperspherical(a, n, factor)

    initial_xi = _probe(initial.states, n)[0]
    point, stop_reason, trajectory = spheres.projected_descent(
        cost_fn, grad_fn, point0,
        grad_tol=1e-9 * m, max_iters=config.max_iters, on_spheres=on_spheres)

    final_states = canonicalize_phases(
        point if on_spheres else angles_to_states(point))
    it, final_xi, grad_norm = trajectory[-1].tolist()
    converged = stop_reason == "converged"
    meta = {
        "algorithm": config.algorithm,
        "initial_family": initial.family,
        "initial_xi": initial_xi,
        "final_xi": final_xi,
        "iterations": int(it),
        "converged": converged,
    }
    final_set = LaunchSet(n=n, states=final_states, family="optimized",
                          meta=meta)
    return OptimizerRun(
        final_set=final_set, algorithm=config.algorithm,
        initial_xi=initial_xi, final_xi=final_xi, grad_norm=grad_norm,
        iterations_used=int(it), phase1_iters=0, converged=converged,
        aborted=stop_reason == "singular_iterate", stop_reason=stop_reason,
        trajectory=trajectory)


def jitter_set(s: LaunchSet, scale: float = 1e-6, seed: int = 0) -> LaunchSet:
    """Nudge every state tangentially by `scale`, deterministically.

    Exact family constructions can sit at stationary points of the cost,
    where descent stops on the spot with a zero gradient.  A tiny tangent
    kick breaks the symmetry while moving each state by only about `scale`,
    so descent started from the jittered set reports a strictly smaller
    final cost whenever the start was not a local minimum.
    """
    if scale <= 0:
        raise ConfigError("jitter scale must be positive")
    states = s.states
    noise = complex_normal(rng_for(seed, 202), states.shape)
    bump = spheres.tangent_project(states, noise)
    norms = np.linalg.norm(bump, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    jittered = spheres.normalize_rows(states + scale * bump / norms)
    meta = dict(s.meta)
    meta.update({"jitter_scale": scale, "jitter_seed": seed})
    return LaunchSet(n=s.n, states=jittered, family=s.family, meta=meta)


@lru_cache(maxsize=None)
def _openblas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS,
    through ctypes; None under any other BLAS."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        try:
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
        except AttributeError:
            continue
    return None


def blas_threads(count: int | None = None) -> int | None:
    """The thread count of numpy's OpenBLAS, after setting it to `count`
    when one is given; None, with nothing set, under any other BLAS.

    BLAS products round differently at different thread counts, so the
    CLI's commands and the pool's workers run at one thread.
    """
    calls = _openblas_threads()
    if calls is None:
        return None
    get, set_ = calls
    if count is not None:
        set_(count)
    return get()


def pool_width(workers: int, jobs: int) -> int:
    """The width `pool_map` runs `jobs` jobs at: `workers`, but at least one
    process and no more than there are jobs."""
    return max(1, min(workers, jobs))


def pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], in this process at width 1, else over the
    package's one pool of pool_width(workers, len(jobs)) processes, each at
    one BLAS thread (fn and jobs must pickle); jobs start in list order."""
    workers = pool_width(workers, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=blas_threads,
                             initargs=(1,)) as pool:
        return list(pool.map(fn, jobs))


def _descend_start(args) -> OptimizerRun:
    n, config, start = args
    initial = random_set(n, seed=config.seed + start)
    return descend(initial, config)


def multi_start(n: int, starts: int = 8,
                config: OptimizerConfig | None = None,
                workers: int = 1) -> MultiStartResult:
    """Descend from `starts` random sets (seed + i for start i) and keep all
    runs.  Starts run over up to `workers` processes, in this one when
    workers <= 1 or starts == 1.  Each start draws from its own seed, so
    results do not depend on `workers`.

    Raises
    ------
    SearchFailedError
        When every start aborted on a singular iterate; its `diagnostics`
        holds every run.
    """
    if starts < 1:
        raise ConfigError("starts must be at least 1")
    if config is None:
        config = OptimizerConfig()
    runs = pool_map(_descend_start, [(n, config, i) for i in range(starts)],
                    workers)
    best_index = None
    for i, run in enumerate(runs):
        if run.aborted:
            continue
        if best_index is None or run.final_xi < runs[best_index].final_xi:
            best_index = i
    if best_index is None:
        raise SearchFailedError(
            f"all {starts} starts aborted on singular iterates for n={n}",
            diagnostics=runs)
    return MultiStartResult(runs=runs, best_index=best_index)


def gradient_check(n: int, algorithm: str = "projected", trials: int = 3,
                   seed: int = 0, h: float = 1e-6) -> float:
    """Largest relative error between the analytic gradient and a central
    finite difference of the cost, over `trials` random nonsingular sets.

    The projected check differentiates the off-sphere cost extension
    against the full gradient, each state entry as a (re, im) pair; the
    hyperspherical check perturbs each angle of the chart.
    """
    OptimizerConfig(algorithm=algorithm)  # ConfigError for an unknown one
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    worst = 0.0
    for trial in range(trials):
        states = random_set(n, seed=seed + trial).states
        if algorithm == "projected":
            point, to_states = states, (lambda p: p)
            _, an = cost_and_gradient(states, n)
        else:
            point, to_states = states_to_angles(states), angles_to_states
            _, an, _ = gradient_hyperspherical(point, n)
        reals = point.view(float)
        cost_at = lambda r: _probe(to_states(r.view(point.dtype)), n)[0]
        fd = np.empty_like(reals)
        for idx in np.ndindex(reals.shape):
            bump = np.zeros_like(reals)
            bump[idx] = h
            fd[idx] = (cost_at(reals + bump) - cost_at(reals - bump)) / (2 * h)
        fd = fd.view(point.dtype)
        err = float(np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-300))
        worst = max(worst, err)
    return worst
