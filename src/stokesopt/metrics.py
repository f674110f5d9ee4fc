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

At large m = n^2 - 1 the kernel holds one m x m buffer per stage beside
strips and quarter blocks: G is filled a strip of rows at a time, and L^-1
is written into the Cholesky factor it inverts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionError, SingularSetError
from .sets import LaunchSet, gram_from_states

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


# operative numerical-singularity threshold on cond2(G) = kappa(S)^2: the
# metrics reject a set above it
COND_LIMIT = 1e14


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


# blocks this size or smaller are inverted whole by np.linalg.inv; larger
# ones split in two, so the bulk of the work is matmul
_LEAF = 64


@lru_cache(maxsize=None)
def _lower_mask(m: int) -> np.ndarray:
    mask = np.tri(m, dtype=bool)
    mask.flags.writeable = False
    return mask


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, exactly lower triangular.

    Blocked: with L = [[A, 0], [C, D]], L^-1 = [[A^-1, 0], [-D^-1 C A^-1,
    D^-1]], written into `low` itself above _LEAF (C A^-1 is taken before
    C is overwritten), so the caller's L is gone.  LU pivoting in
    np.linalg.inv leaves rounding (about 1e-15) above the diagonal of a
    leaf block, which the mask sets back to 0.
    """
    m = low.shape[0]
    if m <= _LEAF:
        inv = np.linalg.inv(low)
        inv *= _lower_mask(m)
        return inv
    h = m // 2
    a, c, d = low[:h, :h], low[h:, :h], low[h:, h:]
    a[...] = _lower_inverse(a)  # a no-op copy when a was inverted in place
    ca = c @ a
    d[...] = _lower_inverse(d)
    np.matmul(d, ca, out=c)
    np.negative(c, out=c)
    return low


def _inverse_factor(g: np.ndarray) -> np.ndarray:
    """The one Tr(G^-1) kernel: L^-1 for the lower Cholesky factor L of a
    real Gram G = L L^T, by np.linalg.cholesky and `_lower_inverse`, which
    overwrites that fresh factor and nothing the caller holds.

    L^-1 is exactly lower triangular: xi = ||L^-1||_F^2 (`_xi`) and
    G^-1 = L^-T L^-1.  Shared by the metrics and the optimizer loop (no
    explicit condition check).

    Raises
    ------
    SingularSetError
        When G is not numerically positive definite.
    """
    try:
        return _lower_inverse(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        raise SingularSetError("Gram matrix is not positive definite") from None


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
    return metrics_from_gram(gram(s))


def metrics_from_gram(g: np.ndarray) -> SetMetrics:
    """Diagnostics straight from a Gram matrix (no states required).

    Serves the closed-form families at mode counts where constructing the
    states is not practical; sigma_k(S) = sqrt(eig_k(G)) exactly.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionError(f"expected a square Gram matrix, got {g.shape}")
    m = g.shape[0]
    n = int(round(math.sqrt(m + 1)))
    if n * n - 1 != m or n < 2:
        raise DimensionError(f"Gram size {m} is not n^2-1 for any n >= 2")
    lam = np.linalg.eigvalsh(g)  # ascending; cond2(G) is inf unless G is PD
    cond = math.inf if lam[0] <= 0.0 else float(lam[-1] / lam[0])
    if cond > COND_LIMIT:
        raise SingularSetError(
            f"launch set is numerically singular: cond(G) = {cond:.3e} "
            f"exceeds {COND_LIMIT:.0e}")
    xi = _xi(_inverse_factor(g))
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
