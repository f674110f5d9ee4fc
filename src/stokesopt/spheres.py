"""Descent machinery on a product of unit spheres in C^n.

A point is an (m, n) complex array whose rows are unit vectors.  Treating each
row as a real 2n-vector, the feasible set is a product of m real unit spheres;
the tangent projection removes the radial component Re<s|g> s row by row and a
step retracts by renormalizing rows.

The launch-set optimizer drives this module, supplying its own
cost/gradient callables for either parameterization.  The line search is
plain Armijo backtracking with a warm-started, regrowing trial step; its
sufficient-decrease fraction, backtracking factor and first trial step are
the fixed module constants below.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "normalize_rows",
    "no_retraction",
    "tangent_project",
    "armijo_step",
    "DescentLog",
    "DescentResult",
    "projected_descent",
]

_STEP_FLOOR = 1e-18
_ARMIJO_FRACTION = 0.3   # sufficient-decrease fraction of the slope
_BACKTRACK_FACTOR = 0.5  # trial-step shrink per rejected probe
_FIRST_STEP = 1.0        # trial step of the first phase-2 line search


def normalize_rows(states: np.ndarray) -> np.ndarray:
    """Retract onto the product of spheres."""
    return states / np.linalg.norm(states, axis=1)[:, None]


def no_retraction(point: np.ndarray) -> np.ndarray:
    """Identity map, for unconstrained parameterizations (angle charts)."""
    return point


def tangent_project(states: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove the per-row radial component of a Euclidean gradient."""
    radial = np.sum(states.conj() * grad, axis=1).real
    return grad - radial[:, None] * states


def armijo_step(cost_fn: Callable[[np.ndarray], float],
                states: np.ndarray,
                f0: float,
                direction: np.ndarray,
                slope: float,
                t0: float,
                retract: Callable[[np.ndarray], np.ndarray],
                ) -> tuple[float, np.ndarray | None, float]:
    """Backtracking line search along `direction` with retraction.

    Accepts the first t = t0 * _BACKTRACK_FACTOR^k with
    f(retract(x + t d)) <= f0 + _ARMIJO_FRACTION * t * slope (slope is the
    directional derivative, negative for a descent direction).

    Returns
    -------
    (t, new_states, new_cost); new_states is None when no acceptable step
    exists above the step floor.  An accepted new_states is the very array
    passed to the last cost_fn call, so a cost_fn may keep work for it.
    """
    t = t0
    while t > _STEP_FLOOR:
        trial = retract(states + t * direction)
        ft = cost_fn(trial)
        if np.isfinite(ft) and ft <= f0 + _ARMIJO_FRACTION * t * slope:
            return t, trial, ft
        t *= _BACKTRACK_FACTOR
    return t, None, f0


@dataclass
class DescentLog:
    """Decimated per-iteration samples (iteration, cost, gradient norm)."""

    stride: int = 1
    rows: list = field(default_factory=list)

    def record(self, iteration: int, cost: float, grad_norm: float,
               force: bool = False):
        if force or iteration % self.stride == 0:
            self.rows.append((iteration, cost, grad_norm))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float).reshape(-1, 3)


@dataclass
class DescentResult:
    states: np.ndarray
    cost: float
    grad_norm: float
    iterations: int
    converged: bool
    aborted: bool
    phase1_iters: int
    log: DescentLog
    stop_reason: str


def projected_descent(cost_fn: Callable[[np.ndarray], float],
                      grad_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
                      states0: np.ndarray,
                      *,
                      grad_tol: float,
                      max_iters: int,
                      phase1_threshold: float,
                      phase1_step: float,
                      log_stride: int,
                      retract: Callable[[np.ndarray], np.ndarray],
                      ) -> DescentResult:
    """Two-phase gradient descent with a pluggable retraction.

    `normalize_rows` as the retraction gives descent on the product of unit
    spheres; `no_retraction` turns the same loop into plain descent over an
    unconstrained parameterization.

    Phase 1: while cost > phase1_threshold, take steps of length phase1_step
    along the normalized gradient.  Costs may transiently rise here; the
    phase exists to walk down the steep cliff of nearly singular
    configurations where backtracking would crawl.  The switch to phase 2 is
    one-way.

    Phase 2: Armijo backtracking along the negative gradient with a warm
    trial step (_FIRST_STEP, then the last accepted step divided by
    _BACKTRACK_FACTOR).  Accepted costs are strictly decreasing; a stalled
    line search terminates the run.

    grad_fn must return (cost, gradient) with the gradient already in the
    parameterization's own coordinates (tangent-projected for the sphere
    case); cost_fn alone is used for the cheaper line-search probes.
    """
    states = retract(np.array(states0))
    log = DescentLog(stride=log_stride)
    f, g = grad_fn(states)
    gnorm = float(np.linalg.norm(g))
    log.record(0, f, gnorm, force=True)

    in_phase1 = f > phase1_threshold
    phase1_iters = 0
    t_warm = _FIRST_STEP
    it = 0
    stop_reason = "max_iters"
    converged = False
    aborted = False

    while it < max_iters:
        if gnorm <= grad_tol:
            stop_reason = "grad_tol"
            converged = True
            break
        it += 1
        if in_phase1:
            states = retract(states - (phase1_step / max(gnorm, 1e-300)) * g)
            try:
                f, g = grad_fn(states)
            except ArithmeticError:
                aborted = True
                stop_reason = "singular_iterate"
                break
            gnorm = float(np.linalg.norm(g))
            phase1_iters = it
            if f <= phase1_threshold:
                in_phase1 = False
        else:
            t, trial, ft = armijo_step(cost_fn, states, f, -g, -gnorm * gnorm,
                                       t_warm, retract)
            if trial is None:
                stop_reason = "line_search_stall"
                break
            states, f = trial, ft
            t_warm = min(t / _BACKTRACK_FACTOR, 1e6)
            try:
                _, g = grad_fn(states)
            except ArithmeticError:
                aborted = True
                stop_reason = "singular_iterate"
                break
            gnorm = float(np.linalg.norm(g))
        log.record(it, f, gnorm)

    log.record(it, f, gnorm, force=True)
    return DescentResult(states=states, cost=f, grad_norm=gnorm, iterations=it,
                         converged=converged, aborted=aborted,
                         phase1_iters=phase1_iters, log=log,
                         stop_reason=stop_reason)
