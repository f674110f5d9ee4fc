"""Generalized Gell-Mann algebra and Jones/Stokes conversions.

An N-mode field state ("Jones state") is a unit vector in C^N.  Its image in
generalized Stokes space is the real (N^2-1)-vector

    shat_i = c_n(N) <s| L_i |s>,        c_n(N) = sqrt(N / (2 (N-1))),

where {L_i} are the N^2-1 generalized Gell-Mann matrices: Hermitian, traceless
and orthogonal under Tr(L_i L_j) = 2 delta_ij.  With that scaling every pure
state lands on the unit hypersphere.  The basis ordering is frozen (it is part
of the serialization contract):

    1. symmetric off-diagonal   E_jk + E_kj          for j < k,
    2. antisymmetric            -i (E_jk - E_kj)     for j < k,
    3. diagonal ladder          sqrt(2/(l(l+1))) diag(1,...,1, -l, 0,...)
                                with l ones, for l = 1 .. N-1,

each family enumerated in lexicographic (j, k) order.  For N = 2 this is
exactly (sigma_1, sigma_2, sigma_3), so the classical Stokes triple appears in
the familiar order.

The module also provides the hyperspherical chart used by the unconstrained
optimizer, on stacks of m states at once.  Row q of an (m, 2(N-1)) angle
array holds the polar angles phi_0 .. phi_{N-2} of state q, then its phases
theta_0 .. theta_{N-2}:

    s_0     = cos(phi_0)
    s_v     = sin(phi_0) ... sin(phi_{v-1}) cos(phi_v) e^{i theta_{v-1}}
    s_{N-1} = sin(phi_0) ... sin(phi_{N-2})            e^{i theta_{N-2}}

(v runs over 1 .. N-2 in the middle line).  It covers the unit states whose
first component is real, a per-state global phase gauge that costs nothing
for phase-invariant costs.  Only `_chart` splits the angle array;
angles_to_states, angles_to_states_jacobian and states_to_angles are the
whole chart API.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = [
    "norm_coeff",
    "gell_mann_basis",
    "jones_to_stokes",
    "jones_to_stokes_batch",
    "stokes_dot_from_jones",
    "projection_operator",
    "expand_matrix",
    "assemble",
    "angles_to_states",
    "angles_to_states_jacobian",
    "states_to_angles",
]


def check_modes(n: int) -> None:
    """The package's one mode-count rule: DimensionError unless n >= 2."""
    if n < 2:
        raise DimensionError(f"need at least 2 modes, got n={n}")


def norm_coeff(n: int) -> float:
    """Stokes normalization coefficient c_n = sqrt(n / (2 (n - 1)))."""
    check_modes(n)
    return np.sqrt(n / (2.0 * (n - 1)))


@lru_cache(maxsize=32)
def _basis_cached(n: int) -> np.ndarray:
    m = n * n - 1
    stack = np.zeros((m, n, n), dtype=complex)
    idx = 0
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    for j, k in pairs:
        stack[idx, j, k] = 1.0
        stack[idx, k, j] = 1.0
        idx += 1
    for j, k in pairs:
        stack[idx, j, k] = -1.0j
        stack[idx, k, j] = 1.0j
        idx += 1
    for l in range(1, n):
        d = np.zeros(n)
        d[:l] = 1.0
        d[l] = -l
        stack[idx, np.arange(n), np.arange(n)] = d * np.sqrt(2.0 / (l * (l + 1)))
        idx += 1
    stack.setflags(write=False)
    return stack


def gell_mann_basis(n: int) -> np.ndarray:
    """The n^2-1 generalized Gell-Mann matrices in the frozen ordering: the
    cached, read-only (n^2-1, n, n) complex stack for n modes.

    Raises
    ------
    DimensionError
        If n < 2.
    """
    check_modes(n)
    return _basis_cached(int(n))


def _as_state(s, n: int | None = None) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if s.ndim != 1:
        raise DimensionError(f"expected a 1-d state vector, got shape {s.shape}")
    if n is not None and s.shape[0] != n:
        raise DimensionError(f"state has {s.shape[0]} modes, expected {n}")
    if s.shape[0] < 2:
        raise DimensionError("state needs at least 2 modes")
    return s


def jones_to_stokes(s) -> np.ndarray:
    """Map a Jones state to its generalized Stokes vector.

    Parameters
    ----------
    s : array_like, shape (n,), complex
        Jones state.  Unit norm gives a unit Stokes vector; the map itself is
        defined for any vector (it scales quadratically with the norm).

    Returns
    -------
    ndarray, shape (n^2-1,), real
    """
    return jones_to_stokes_batch(_as_state(s)[None, :])[0]


def jones_to_stokes_batch(states) -> np.ndarray:
    """Vectorized jones_to_stokes for an (m, n) stack of states -> (m, n^2-1)."""
    st = np.asarray(states, dtype=complex)
    if st.ndim != 2:
        raise DimensionError(f"expected (m, n) state stack, got shape {st.shape}")
    n = st.shape[1]
    basis = gell_mann_basis(n)
    # <s|L_i|s> = sum_ab s*_a (L_i)_ab s_b; one GEMM for the whole stack
    outer = st.conj()[:, :, None] * st[:, None, :]
    flat = basis.reshape(len(basis), n * n)
    vals = outer.reshape(-1, n * n) @ flat.T
    return norm_coeff(n) * vals.real


def stokes_dot_from_jones(a, b) -> float:
    """Inner product of two Stokes images straight from the Jones overlap.

    For unit states, shat_a . shat_b = 2 c_n^2 (|<a|b>|^2 - 1/n).  Orthogonal
    Jones states therefore sit at -1/(n-1), not at -1: antipodal points exist
    in Stokes space only for n = 2.
    """
    a = _as_state(a)
    b = _as_state(b, a.shape[0])
    n = a.shape[0]
    c2 = n / (2.0 * (n - 1))
    ov = np.vdot(a, b)
    return 2.0 * c2 * ((ov.conj() * ov).real - 1.0 / n)


def projection_operator(s) -> np.ndarray:
    """Rank-one projector |s><s| rebuilt from the state's Stokes image.

    Evaluates (1/n) I + (1/(2 c_n)) shat . L, which equals the outer product
    for any unit state.  Useful as a consistency check of the expansion
    conventions rather than as a fast path.
    """
    s = _as_state(s)
    n = s.shape[0]
    return assemble(n, 1.0 / n, jones_to_stokes(s))


def expand_matrix(m) -> tuple[complex, np.ndarray]:
    """Expand an (n, n) matrix over {I, L_i} with the delay-operator scaling.

    Returns (scalar, vector) with M = scalar * I + (1/(2 c_n)) vector . L, so
    that a mode-dispersion vector can be read off directly.  Both parts are
    complex, so arbitrary (not just Hermitian) matrices expand exactly;
    Hermitian input yields real coefficients up to roundoff.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    check_modes(n)
    scalar = np.trace(m) / n
    # Tr(M L_i) = vector_i / c_n under the normalization above
    traces = np.einsum("iab,ba->i", gell_mann_basis(n), m)
    return complex(scalar), norm_coeff(n) * traces


def assemble(n: int, scalar, vector) -> np.ndarray:
    """The matrix scalar * I + vector . L / (2 c_n); inverse of expand_matrix.
    A (..., n^2-1) stack of vectors gives the (..., n, n) stack, each matrix
    bit for bit its single call's (the same (1, n^2-1) matmul per row)."""
    basis = gell_mann_basis(n)
    vec = np.asarray(vector, dtype=complex)
    if vec.shape[-1:] != (len(basis),):
        raise DimensionError(
            f"vector part has shape {vec.shape}, expected (..., {len(basis)})")
    acc = vec[..., None, :] @ basis.reshape(len(basis), n * n)
    acc = acc.reshape(*vec.shape[:-1], n, n)
    return complex(scalar) * np.eye(n) + acc / (2.0 * norm_coeff(n))


# ---------------------------------------------------------------------------
# Hyperspherical chart
# ---------------------------------------------------------------------------

def _chart(angles):
    """Chart evaluation that keeps its factors for the Jacobian.

    Returns (sin, cos, prefix, phase, amps, states), with prefix[:, v] the
    product of sin(phi_u) over u < v, phase = e^{i theta}, and states the
    amplitudes with phase[:, v-1] on component v >= 1.

    Raises
    ------
    DimensionError
        Unless `angles` is 2-d with an even, nonzero width 2(n-1).
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] == 0 or angles.shape[1] % 2:
        raise DimensionError(
            f"need an (m, 2(n-1)) angle array, got shape {angles.shape}")
    m, width = angles.shape
    nm1 = width // 2
    phis, thetas = angles[:, :nm1], angles[:, nm1:]
    sin = np.sin(phis)
    cos = np.cos(phis)
    prefix = np.ones((m, nm1 + 1))
    np.cumprod(sin, axis=1, out=prefix[:, 1:])
    amps = prefix.copy()
    amps[:, :nm1] *= cos
    phase = np.exp(1j * thetas)
    states = amps.astype(complex)
    states[:, 1:] *= phase
    return sin, cos, prefix, phase, amps, states


def angles_to_states(angles) -> np.ndarray:
    """Chart evaluation: (m, 2(n-1)) angles -> (m, n) unit states."""
    return _chart(angles)[-1]


def angles_to_states_jacobian(angles) -> tuple[np.ndarray, np.ndarray]:
    """States and analytic Jacobian of the chart from one chart evaluation.

    Returns
    -------
    states : ndarray, shape (m, n), complex
        Bit for bit angles_to_states(angles).
    jac : ndarray, shape (m, 2(n-1), n), complex
        jac[q, a, :]     = d s_q / d phi_a      for a in 0 .. n-2
        jac[q, n-1+a, :] = d s_q / d theta_a.

    Pole-safe: every entry is a fresh product, never a quotient by a sine,
    so chart poles (sin phi = 0) give exact zeros where an angle has become
    redundant.
    """
    sin, cos, prefix, phase, amps, states = _chart(angles)
    m, nm1 = sin.shape
    u = np.arange(nm1)
    jac = np.zeros((m, 2 * nm1, nm1 + 1), dtype=complex)
    # gap[:, a, v-1] = prod_{a < u < v} sin(phi_u): a running product along
    # u with the factors u <= a masked to 1
    gap = np.cumprod(np.where(u > u[:, None], sin[:, None, :], 1.0), axis=2)
    # d amps_v / d phi_a for v > a: swap sin(phi_a) for cos(phi_a), so
    # amps_a * gap * cos(phi_v), without the cos for the trailing amplitude
    d = amps[:, :nm1, None] * gap
    d[:, :, : nm1 - 1] *= cos[:, None, 1:]
    jac[:, :nm1, 1:] = np.where(u >= u[:, None], d * phase[:, None, :], 0.0)
    # v == a term (only the cos factor differentiates); s_0 has phase 1
    phase_a = np.ones((m, nm1), dtype=complex)
    phase_a[:, 1:] = phase[:, :-1]
    jac[:, u, u] = -prefix[:, :nm1] * sin * phase_a
    jac[:, nm1 + u, u + 1] = 1j * states[:, 1:]
    return states, jac


def states_to_angles(states) -> np.ndarray:
    """Invert the chart: (m, n) unit states -> (m, 2(n-1)) angles.

    Any unit state is reachable: each state is first multiplied by a global
    phase so s_0 >= 0 (a no-op when s_0 = 0), then polar angles are peeled
    off the magnitude chain and phases come from the argument of each
    remaining component.

    Raises
    ------
    DimensionError
        For anything but an (m, n >= 2) stack of unit-norm states.
    """
    st = np.asarray(states, dtype=complex)
    if st.ndim != 2 or st.shape[1] < 2:
        raise DimensionError(
            f"expected an (m, n) state stack with n >= 2, got shape {st.shape}")
    nm1 = st.shape[1] - 1
    nrm = np.linalg.norm(st, axis=1)
    off = ~np.isclose(nrm, 1.0, atol=1e-8)
    if off.any():
        raise DimensionError(f"expected a unit state, got norm {nrm[off][0]:.3e}")
    st = st / nrm[:, None]
    lead = np.abs(st[:, 0])
    gauge = np.ones(len(st), dtype=complex)
    np.divide(st[:, 0].conj(), lead, out=gauge, where=lead > 0)
    st *= gauge[:, None]
    # tail[:, v] = ||s[v:]||, descending cumulative magnitudes
    mags = np.abs(st)
    tail = np.sqrt(np.cumsum(mags[:, ::-1] ** 2, axis=1)[:, ::-1])
    head = mags[:, :nm1]
    head[:, 0] = st[:, 0].real
    return np.hstack([np.arctan2(tail[:, 1:], head), np.angle(st[:, 1:])])
