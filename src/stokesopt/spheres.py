"""Descent machinery on a product of unit spheres in C^n.

A point is an (m, n) complex array whose rows are unit vectors.  Treating each
row as a real 2n-vector, the feasible set is a product of m real unit spheres;
the tangent projection removes the radial component Re<s|g> s row by row and a
step retracts by renormalizing rows.

The launch-set optimizer drives this module, supplying its own
cost/gradient callables for either parameterization.  Each iteration
searches the L-BFGS direction (Nocedal 1980; Liu & Nocedal 1989) by plain
Armijo backtracking; the memory, line-search constants and stop rule are the
fixed module constants below.  A chart may pass the diagonal metric of its
coordinates along with each gradient; the two-loop recursion then starts
from the inverse metric, scaled, instead of a multiple of the identity
(Absil, Mahony & Sepulchre 2008, ch. 3), so curvilinear coordinates whose
scale varies from angle to angle do not slow the descent.  The spheres use
the unit metric.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "normalize_rows",
    "tangent_project",
    "armijo_step",
    "projected_descent",
]

_STEP_FLOOR = 1e-18
_ARMIJO_FRACTION = 0.3   # sufficient-decrease fraction of the slope
_BACKTRACK_FACTOR = 0.5  # trial-step shrink per rejected probe
_FIRST_STEP = 1.0        # trial step of every line search
_MEMORY = 15             # (s, y) pairs kept by L-BFGS
_WINDOW = 10             # converged once the cost fell over this many steps
_DROP = 1e-12            # ... by at most this fraction of itself


def normalize_rows(states: np.ndarray) -> np.ndarray:
    """Retract onto the product of spheres."""
    return states / np.linalg.norm(states, axis=1)[:, None]


def tangent_project(states: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Remove the per-row radial component of a Euclidean gradient."""
    radial = np.sum(states.conj() * grad, axis=1).real
    return grad - radial[:, None] * states


def armijo_step(cost_fn: Callable[[np.ndarray], tuple[float, object]],
                states: np.ndarray,
                f0: float,
                direction: np.ndarray,
                slope: float,
                retract: Callable[[np.ndarray], np.ndarray],
                ) -> tuple[float, np.ndarray | None, object]:
    """Backtracking line search along `direction` with retraction.

    Accepts the first t = _FIRST_STEP * _BACKTRACK_FACTOR^k with
    f(retract(x + t d)) <= f0 + _ARMIJO_FRACTION * t * slope (slope is the
    directional derivative, negative for a descent direction).  cost_fn(p)
    returns (f(p), work), work being whatever the probe computed at p that
    a gradient there may reuse.

    Returns
    -------
    (new_cost, new_states, work) of the accepted probe, or (f0, None, None)
    when no acceptable step exists above the step floor.
    """
    t = _FIRST_STEP
    while t > _STEP_FLOOR:
        trial = retract(states + t * direction)
        ft, work = cost_fn(trial)
        if np.isfinite(ft) and ft <= f0 + _ARMIJO_FRACTION * t * slope:
            return ft, trial, work
        t *= _BACKTRACK_FACTOR
    return f0, None, None


def _lbfgs_direction(g: np.ndarray, pairs: list,
                     metric: np.ndarray | None) -> np.ndarray:
    """Two-loop recursion for -H g from the (s, y) pairs, oldest first, with
    H0 = gamma M^-1, gamma = s.y / y.M^-1 y of the newest pair; -g when
    there are none.  M is the diagonal metric of the coordinates, shaped
    like g, and None stands for the unit metric (H0 = s.y / y.y).  Complex
    entries count as pairs of reals: every inner product is Re vdot."""
    q, alphas = g, []
    curvatures = [np.vdot(y, s).real for s, y in pairs]
    for (s, y), ys in zip(reversed(pairs), reversed(curvatures)):
        alphas.append(np.vdot(s, q).real / ys)
        q = q - alphas[-1] * y
    if pairs:
        s, y = pairs[-1]
        hy, hq = (y, q) if metric is None else (y / metric, q / metric)
        q = (np.vdot(s, y).real / np.vdot(y, hy).real) * hq
    for (s, y), ys, a in zip(pairs, curvatures, reversed(alphas)):
        q = q + (a - np.vdot(y, q).real / ys) * s
    return -q


def projected_descent(cost_fn: Callable[[np.ndarray], tuple[float, object]],
                      grad_fn: Callable[[np.ndarray, object],
                                        tuple[float, np.ndarray,
                                              np.ndarray | None]],
                      states0: np.ndarray,
                      *,
                      grad_tol: float,
                      max_iters: int,
                      on_spheres: bool,
                      ) -> tuple[np.ndarray, str, np.ndarray]:
    """L-BFGS descent searched by `armijo_step` from _FIRST_STEP.

    With on_spheres the loop walks the product of unit spheres: trial points
    are retracted by `normalize_rows`, and the (s, y) pairs, y = g - g_old,
    are carried to each new point by tangent projection.  Without it the
    loop is plain L-BFGS in a chart.  Pairs with y.s <= 0 are not stored; a
    direction that does not descend is replaced by -g and the pairs are
    cleared.  Accepted costs strictly decrease.

    Returns (point, stop_reason, trajectory).  The stop is "converged" when
    the gradient norm is at most grad_tol or the cost fell by at most _DROP
    of itself over the last _WINDOW iterations, else "max_iters",
    "line_search_stall" or "singular_iterate".  trajectory has one row
    (iteration, cost, gradient norm) per iteration, the start's first, and
    its last row is the returned point's; a stalled search logs that row
    with the last norm computed, a gradient raising at an accepted point
    logs it with norm inf, and a singular start returns (0, inf, inf).

    cost_fn is the line-search probe of `armijo_step`.  grad_fn(point,
    work) must return (cost, gradient, metric) with the gradient already in
    the parameterization's own coordinates (tangent-projected for the
    sphere case); work is what the accepted probe at that point returned,
    None at the start.  metric is the diagonal of the coordinates' metric
    at that point, shaped like the gradient, or None for the unit metric of
    the spheres; the next L-BFGS direction starts from its scaled inverse
    (`_lbfgs_direction`).
    """
    retract = normalize_rows if on_spheres else (lambda point: point)
    states = retract(np.array(states0))
    try:
        f, g, metric = grad_fn(states, None)
    except ArithmeticError:
        # a singular start aborts before its first iteration
        return states, "singular_iterate", np.array([(0.0, np.inf, np.inf)])
    gnorm = float(np.linalg.norm(g))
    log = [(0, f, gnorm)]

    pairs = []
    it = 0
    stop_reason = "max_iters"

    while it < max_iters:
        if gnorm <= grad_tol:
            stop_reason = "converged"
            break
        it += 1
        direction = _lbfgs_direction(g, pairs, metric)
        slope = np.vdot(g, direction).real
        if not slope < 0.0:
            pairs.clear()
            direction, slope = -g, -gnorm * gnorm
        ft, trial, work = armijo_step(cost_fn, states, f, direction, slope,
                                      retract)
        if trial is None:
            stop_reason = "line_search_stall"
            break
        step, g_old = trial - states, g
        states, f = trial, ft
        try:
            _, g, metric = grad_fn(states, work)
        except ArithmeticError:
            stop_reason, gnorm = "singular_iterate", np.inf
            break
        gnorm = float(np.linalg.norm(g))
        pairs.append((step, g - g_old))
        if on_spheres:
            pairs = [(tangent_project(states, s), tangent_project(states, y))
                     for s, y in pairs]
        if np.vdot(*pairs[-1]).real <= 0.0:
            pairs.pop()
        del pairs[:-_MEMORY]
        log.append((it, f, gnorm))
        if it >= _WINDOW and log[it - _WINDOW][1] - f <= _DROP * f:
            stop_reason = "converged"
            break

    if len(log) == it:
        # a stalled line search or a singular iterate ends iteration it
        log.append((it, f, gnorm))
    return states, stop_reason, np.array(log, dtype=float)
