"""Gram matrix, noise-amplification cost and launch-set diagnostics.

For a launch set with coefficient matrix S (rows = Stokes images) the noise
amplification of the linear delay-vector reconstruction is

    xi = || S^-1 ||_F^2 = Tr(G^-1),        G = S S^T,

bounded below by n^2 - 1 with equality exactly when the Stokes rows are
orthonormal.  The per-measurement penalty is delta = xi / (n^2 - 1), reported
either raw or in dB.  G is always evaluated from Jones overlaps by
`sets.gram_from_states` (G_jk = 2 c_n^2 (|<s_j|s_k>|^2 - 1/n) on unit
states), which is cheaper and better conditioned than squaring an
explicitly built S; tests compare the two routes.  Every xi in the package,
the optimizer's included, comes from one kernel: the inverse Cholesky factor
L^-1 of G, with xi = ||L^-1||_F^2.

At large m = n^2 - 1 the kernel holds one m x m buffer beside strips: G is
filled a strip of rows at a time, and a recursive blocked Cholesky writes
L^-1 over that G.  The kernel owns the Gram it is handed: `metrics` and
the optimizer pass the one they just built, and only `metrics_from_gram`,
whose Gram is its caller's, copies.  eigvalsh's LAPACK copy of G, taken
first, is the one other m x m buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionError, SingularSetError
from .sets import (COND_LIMIT, LaunchSet, conditioned_spectrum,
                   gram_from_states, read_only)

__all__ = [
    "COND_LIMIT",
    "SetMetrics",
    "gram",
    "cost",
    "penalty_db",
    "metrics",
    "metrics_from_gram",
    "variance_prediction",
]


@dataclass(frozen=True)
class SetMetrics:
    """Diagnostics of one launch set.

    penalty is xi / (n^2 - 1) >= 1; log_volume = log |det S| <= 0 (natural
    log), zero only for orthonormal Stokes rows; condition_number is
    kappa(S) = sigma_max / sigma_min.
    """

    n: int
    m: int
    xi: float
    penalty: float
    penalty_db: float
    condition_number: float
    singular_values: np.ndarray
    log_volume: float
    bound_ok: bool


def gram(s: LaunchSet) -> np.ndarray:
    """Stokes Gram G = S S^T computed from Jones overlaps."""
    return gram_from_states(s.states, s.n)


# blocks this size or smaller are factored and inverted whole by numpy;
# larger ones split in two, so the bulk of the work is matmul, taken
# _STRIP rows or columns at a time
_LEAF = 64
_STRIP = 256


@lru_cache(maxsize=None)
def _lower_mask(m: int) -> np.ndarray:
    return read_only(np.tri(m, dtype=bool))


def _factor_in_place(g: np.ndarray) -> None:
    """Overwrite the Gram block `g` with L^-1, L its lower Cholesky factor,
    reading only the lower triangle of `g` (recursive blocked Cholesky,
    Gustavson 1997).

    A leaf is np.linalg.inv of np.linalg.cholesky, masked to lower
    triangular, since LU pivoting leaves rounding (about 1e-15) above the
    diagonal.  Above _LEAF, with g = [[A, .], [B, D]]: A becomes
    X11 = L11^-1, B becomes L21 = B X11^T, the lower triangle of D becomes
    the Schur complement D - L21 L21^T and then X22, and B becomes
    X21 = -X22 L21 X11.  X11 and X22 are lower triangular, so each strip
    of a product reads only the rows or columns it can meet, in an order
    that has not yet overwritten them; no temporary is bigger than a strip.
    """
    m = g.shape[0]
    if m <= _LEAF:
        np.multiply(np.linalg.inv(np.linalg.cholesky(g)), _lower_mask(m),
                    out=g)
        return
    h, s = m // 2, _STRIP
    a, b, d = g[:h, :h], g[h:, :h], g[h:, h:]
    g[:h, h:] = 0.0
    _factor_in_place(a)
    for lo in reversed(range(0, h, s)):
        b[:, lo:lo + s] = b[:, :lo + s] @ a[lo:lo + s, :lo + s].T
    for lo in range(0, m - h, s):
        d[lo:lo + s, :lo + s] -= b[lo:lo + s] @ b[:lo + s].T
    _factor_in_place(d)
    for lo in range(0, h, s):
        b[:, lo:lo + s] = b[:, lo:] @ a[lo:, lo:lo + s]
    for lo in reversed(range(0, m - h, s)):
        np.negative(d[lo:lo + s, :lo + s] @ b[:lo + s], out=b[lo:lo + s])


def _inverse_factor(g: np.ndarray) -> np.ndarray:
    """The one Tr(G^-1) kernel: L^-1 for the lower Cholesky factor L of a
    real Gram G = L L^T, written over `g` itself, which is returned.

    The caller hands over a Gram it owns: `metrics` and the optimizer's
    probes pass the one they just built, `metrics_from_gram` a copy of its
    caller's.  L^-1 is exactly lower triangular: xi = ||L^-1||_F^2 (`_xi`)
    and G^-1 = L^-T L^-1.  Shared by the metrics and the optimizer loop
    (no explicit condition check).

    Raises
    ------
    SingularSetError
        When G is not numerically positive definite.
    """
    try:
        _factor_in_place(g)
    except np.linalg.LinAlgError:
        raise SingularSetError("Gram matrix is not positive definite") from None
    return g


def _xi(linv: np.ndarray) -> float:
    """Tr(G^-1) = ||L^-1||_F^2 from the factor `_inverse_factor` returns."""
    flat = linv.ravel("K")
    return float(flat @ flat)


def cost(s: LaunchSet) -> float:
    """Noise-amplification cost xi = Tr(G^-1).

    Raises
    ------
    SingularSetError
        When cond2(G) exceeds COND_LIMIT (kappa(S) > 1e7).
    """
    return metrics(s).xi


def penalty_db(penalty: float) -> float:
    """Penalty in dB, 10 log10(delta)."""
    return 10.0 * math.log10(penalty)


def metrics(s: LaunchSet) -> SetMetrics:
    """Full diagnostics of a launch set from its Jones-overlap Gram alone.

    One eigvalsh of G gives the conditioning check, sigma_k(S) =
    sqrt(eig_k(G)), kappa(S) and log |det S| to about eps * cond(G)
    relative, the accuracy of xi (Cholesky of G) itself; S is not formed.
    """
    g = gram(s)
    lam = conditioned_spectrum(g)
    return _set_metrics(s.n, lam, _xi(_inverse_factor(g)))


def metrics_from_gram(g: np.ndarray) -> SetMetrics:
    """Diagnostics straight from a Gram matrix (no states required).

    Serves the closed-form families at mode counts where constructing the
    states is not practical; sigma_k(S) = sqrt(eig_k(G)) exactly.  `g` is
    left as it was: the kernel factors a copy.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected a square Gram matrix, got {g.shape}")
    m = g.shape[0]
    n = int(round(math.sqrt(m + 1)))
    if n * n - 1 != m or n < 2:
        raise DimensionError(f"Gram size {m} is not n^2-1 for any n >= 2")
    lam = conditioned_spectrum(g)
    return _set_metrics(n, lam, _xi(_inverse_factor(g.copy())))


def _set_metrics(n: int, lam: np.ndarray, xi: float) -> SetMetrics:
    """SetMetrics from the ascending spectrum of G and xi = Tr(G^-1)."""
    m = lam.size
    sv = np.sqrt(np.maximum(lam[::-1], 0.0))
    pen = xi / m
    return SetMetrics(
        n=n, m=m, xi=xi, penalty=pen, penalty_db=penalty_db(pen),
        condition_number=float(sv[0] / sv[-1]),
        singular_values=sv,
        log_volume=float(0.5 * np.sum(np.log(lam))),
        bound_ok=bool(xi >= m - 1e-6),
    )


def variance_prediction(s: LaunchSet, sigma_tg_sq: float) -> float:
    """Predicted E{||delta tau_vec||^2} = sigma_tg_sq * Tr((S S^T)^-1)."""
    if sigma_tg_sq < 0:
        raise ConfigError("variance must be non-negative")
    return sigma_tg_sq * cost(s)
