"""Launch-state set families and their closed-form figures of merit.

A launch set for n modes is an ordered tuple of n^2 - 1 unit Jones states;
stacking their Stokes images as rows gives the coefficient matrix S whose
conditioning controls noise amplification in delay-vector reconstruction.
This module builds the named families:

    yang_nolan   basis states plus pairwise (1, 1) and (1, i) superpositions
    mub_set      mutually unbiased bases (prime n), last vector of each dropped
    sic_search   symmetric informationally complete set (equal squared
                 overlaps 1/(n+1)): the Weyl-Heisenberg orbit of a fiducial
                 found by Levenberg-Marquardt, last vector dropped
    random_set   uniform random states, one draw per seed
    simplex_set  an orthonormal basis (n states), used for the common-mode
                 delay estimate; its Stokes images sum to zero

plus the closed-form penalties and log-volumes of the two symmetric families,
and the package's JSON reader and writer, which persist sets.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import (ConfigError, DimensionError, SearchFailedError,
                     SingularSetError)
from .gellmann import check_modes, jones_to_stokes_batch
from .seeding import complex_normal, rng_for

__all__ = [
    "LaunchSet",
    "SimplexSet",
    "yang_nolan",
    "yang_gram",
    "mub_set",
    "mub_gram",
    "sic_gram",
    "sic_search",
    "sic_penalty",
    "mub_penalty",
    "sic_log_volume",
    "mub_log_volume",
    "random_set",
    "random_states",
    "simplex_set",
    "haar_unitary",
    "canonicalize_phases",
    "save_set",
    "load_set",
    "read_json",
    "write_json",
    "bundled_optimal_set",
]


def read_only(values: np.ndarray) -> np.ndarray:
    """`values`, made read-only in place."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class LaunchSet:
    """n modes and the ordered (n^2-1, n) stack of unit launch states, kept
    as a read-only copy, so S^-1 is formed once per set (`stokes_inverse`)."""

    n: int
    states: np.ndarray
    family: str = "custom"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_modes(self.n)
        st = np.array(self.states, dtype=complex)
        m = self.n * self.n - 1
        if st.shape != (m, self.n):
            raise DimensionError(
                f"launch set for n={self.n} needs shape ({m}, {self.n}), "
                f"got {st.shape}")
        norms = np.linalg.norm(st, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):  # False for NaN too
            raise DimensionError("launch states must be finite and unit norm")
        object.__setattr__(self, "states", read_only(st))

    def __reduce__(self):
        # an unpickled array comes back writeable: rebuild through __init__
        return type(self), (self.n, self.states, self.family, self.meta)

    @property
    def m(self) -> int:
        return self.n * self.n - 1

    def stokes_matrix(self) -> np.ndarray:
        """Coefficient matrix S, rows = Stokes images."""
        return jones_to_stokes_batch(self.states)

    @cached_property
    def stokes_inverse(self) -> np.ndarray:
        """S^-1, read-only; SingularSetError when `conditioned_spectrum`
        rejects the set's Gram, as it does in the metrics."""
        conditioned_spectrum(gram_from_states(self.states, self.n))
        return read_only(np.linalg.inv(self.stokes_matrix()))


@dataclass(frozen=True)
class SimplexSet:
    """An orthonormal basis used for common-mode (tau_0) estimation; its
    family and meta are written by `save_set` as a launch set's are."""

    n: int
    states: np.ndarray
    family: str = "simplex"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_modes(self.n)
        st = np.array(self.states, dtype=complex)
        if st.shape != (self.n, self.n):
            raise DimensionError(
                f"simplex for n={self.n} needs shape ({self.n}, {self.n}), "
                f"got {st.shape}")
        object.__setattr__(
            self, "states", read_only(check_orthonormal(st, "simplex states")))

    __reduce__ = LaunchSet.__reduce__


def check_orthonormal(rows: np.ndarray, what: str) -> np.ndarray:
    """`rows` (n, n); DimensionError unless they are orthonormal to 1e-10."""
    if np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows)))) > 1e-10:
        raise DimensionError(f"{what} must be orthonormal")
    return rows


# stacks of more states than this are turned into a Gram this many rows at
# a time, so the complex overlaps never take more than a strip of memory
_GRAM_ROWS = 32


def gram_from_states(states: np.ndarray, n: int) -> np.ndarray:
    """Stokes Gram of a state stack straight from Jones overlaps.

    G_jk = (n/(n-1)) (|<s_j|s_k>|^2 - |s_j|^2 |s_k|^2 / n).  On unit rows
    this is shat_j . shat_k = 2 c_n^2 (|<s_j|s_k>|^2 - 1/n); off the unit
    spheres it is the smooth extension whose cost the optimizer's gradient
    reproduces entry by entry.

    Above _GRAM_ROWS states the real (m, m) result is the one m x m buffer:
    it is filled a strip of rows at a time, the |<s_j|s_k>|^2 in a first
    pass and the norm term in a second, with the same operations in the
    same order as the one-strip case, so every entry has the same bits.
    """
    m = states.shape[0]
    if m <= _GRAM_ROWS:
        ov = states.conj() @ states.T
        nrm2 = ov.diagonal().real.copy()
        # |<s_j|s_k>|^2 overwrites the overlaps: one m x m complex buffer
        sq = np.multiply(ov.conj(), ov, out=ov).real
        return (n / (n - 1.0)) * (sq - nrm2[:, None] * nrm2 / n)
    g = np.empty((m, m))
    nrm2 = np.empty(m)
    strips = [slice(lo, lo + _GRAM_ROWS) for lo in range(0, m, _GRAM_ROWS)]
    for rows in strips:
        ov = states[rows].conj() @ states.T
        nrm2[rows] = ov[:, rows].diagonal().real
        g[rows] = np.multiply(ov.conj(), ov, out=ov).real
    for rows in strips:
        strip = g[rows]
        t = nrm2[rows, None] * nrm2
        t /= n
        strip -= t
        strip *= n / (n - 1.0)
    return g


# operative numerical-singularity threshold on cond2(G) = kappa(S)^2: the
# metrics and every estimator reject a set above it
COND_LIMIT = 1e14


def conditioned_spectrum(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Gram G, ascending; SingularSetError when cond2(G)
    exceeds COND_LIMIT (kappa(S) > 1e7), the one singularity rule."""
    lam = np.linalg.eigvalsh(g)  # cond2(G) is inf unless G is PD
    cond = math.inf if lam[0] <= 0.0 else float(lam[-1] / lam[0])
    if cond > COND_LIMIT:
        raise SingularSetError(
            f"launch set is numerically singular: cond(G) = {cond:.3e} "
            f"exceeds {COND_LIMIT:.0e}")
    return lam


# ---------------------------------------------------------------------------
# Yang-Nolan family
# ---------------------------------------------------------------------------

def yang_nolan(n: int) -> LaunchSet:
    """Basis states and pairwise equal-weight superpositions.

    (n-1) basis states |i>, then (|i>+|j>)/sqrt(2), then (|i>+i|j>)/sqrt(2)
    over all i < j, each block in lexicographic pair order.  For n = 2 this is
    the classical orthonormal Stokes triple.
    """
    check_modes(n)
    eye = np.eye(n, dtype=complex)
    rows = [eye[i] for i in range(n - 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rt = 1.0 / np.sqrt(2.0)
    for i, j in pairs:
        rows.append(rt * (eye[i] + eye[j]))
    for i, j in pairs:
        rows.append(rt * (eye[i] + 1j * eye[j]))
    return LaunchSet(n=n, states=np.array(rows), family="yang")


def yang_gram(n: int) -> np.ndarray:
    """Yang-Nolan Gram from the closed Kronecker-delta overlap table.

    Independent of the constructed states; used to cross-check gram().
    """
    check_modes(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npr = len(pairs)
    nx = n - 1
    m = nx + 2 * npr
    q = np.zeros((m, m))

    def d(a, b):
        return 1.0 if a == b else 0.0

    for a in range(nx):
        for b in range(nx):
            q[a, b] = d(a, b)
    for a in range(nx):
        for p, (j, k) in enumerate(pairs):
            v_y = (d(a, j) + d(a, k)) ** 2 / 2.0
            v_z = (d(a, j) + d(a, k)) / 2.0
            q[a, nx + p] = q[nx + p, a] = v_y
            q[a, nx + npr + p] = q[nx + npr + p, a] = v_z
    for p1, (i, j) in enumerate(pairs):
        for p2, (k, l) in enumerate(pairs):
            q[nx + p1, nx + p2] = (d(i, k) + d(i, l) + d(j, k) + d(j, l)) ** 2 / 4.0
            q[nx + npr + p1, nx + npr + p2] = (
                (d(i, k) + d(j, l)) ** 2 + (d(i, l) - d(j, k)) ** 2) / 4.0
            q[nx + p1, nx + npr + p2] = (
                (d(i, k) + d(j, k)) ** 2 + (d(i, l) + d(j, l)) ** 2) / 4.0
            q[nx + npr + p2, nx + p1] = q[nx + p1, nx + npr + p2]
    return (n / (n - 1.0)) * (q - 1.0 / n)


# ---------------------------------------------------------------------------
# Mutually unbiased bases
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mub_bases(n: int) -> list[np.ndarray]:
    """The n + 1 mutually unbiased orthonormal bases of a prime dimension.

    Computational basis first; for odd prime p the remaining bases have
    components p^{-1/2} exp(2 pi i (m j^2 + k j) / p) (basis m, vector k,
    component j).  The quadratic construction degenerates at p = 2, where the
    three Pauli eigenbases are used instead.
    """
    if not _is_prime(n):
        raise DimensionError(
            f"complete MUB construction implemented for prime n only, got n={n}")
    bases = [np.eye(n, dtype=complex)]
    if n == 2:
        rt = 1.0 / np.sqrt(2.0)
        bases.append(np.array([[rt, rt], [rt, -rt]], dtype=complex))
        bases.append(np.array([[rt, 1j * rt], [rt, -1j * rt]]))
        return bases
    j = np.arange(n)
    for m in range(n):
        # vector k in rows, component j in columns
        k = j[:, None]
        phase = (m * j[None, :] ** 2 + k * j[None, :]) % n
        bases.append(np.exp(2j * np.pi * phase / n) / np.sqrt(n))
    return bases


def mub_set(n: int) -> LaunchSet:
    """All n + 1 unbiased bases with the last vector of each dropped."""
    bases = mub_bases(n)
    rows = []
    for b in bases:
        rows.extend(b[:-1])
    return LaunchSet(n=n, states=np.array(rows), family="mub")


def mub_gram(n: int) -> np.ndarray:
    """Analytic MUB Gram: block diagonal, unit diagonal, -1/(n-1) in-block."""
    check_modes(n)
    blk = np.full((n - 1, n - 1), -1.0 / (n - 1)) + np.eye(n - 1) * n / (n - 1)
    g = np.zeros((n * n - 1, n * n - 1))
    for b in range(n + 1):
        sl = slice(b * (n - 1), (b + 1) * (n - 1))
        g[sl, sl] = blk
    return g


def mub_penalty(n: int) -> float:
    """Noise-amplification penalty 2 (n - 1) / n of the MUB family."""
    check_modes(n)
    return 2.0 * (n - 1.0) / n


def mub_log_volume(n: int) -> float:
    """log |det S| for the MUB family (natural log; underflow-safe)."""
    check_modes(n)
    return 0.5 * ((n - 2.0) * (n + 1.0) * math.log(n)
                  - (n * n - 1.0) * math.log(n - 1.0))


# ---------------------------------------------------------------------------
# Symmetric informationally complete sets
# ---------------------------------------------------------------------------

def sic_gram(n: int) -> np.ndarray:
    """Analytic SIC Gram: unit diagonal, -1/(n^2-1) everywhere else."""
    check_modes(n)
    m = n * n - 1
    off = -1.0 / m
    g = np.full((m, m), off)
    np.fill_diagonal(g, off + (1.0 - off))
    return g


def sic_penalty(n: int) -> float:
    """Noise-amplification penalty 2 (n^2 - 1) / n^2 of the SIC family."""
    check_modes(n)
    return 2.0 * (n * n - 1.0) / (n * n)


def sic_log_volume(n: int) -> float:
    """log |det S| for the SIC family (natural log; underflow-safe)."""
    check_modes(n)
    return (n * n - 2.0) * math.log(n) - 0.5 * (n * n - 1.0) * math.log(n * n - 1.0)


def _equiangularity_residual(states: np.ndarray, n: int) -> float:
    ov = states.conj() @ states.T
    p = (ov.conj() * ov).real
    np.fill_diagonal(p, 1.0 / (n + 1.0))
    return float(np.max(np.abs(p - 1.0 / (n + 1.0))))


def _weyl_heisenberg_orbit(psi: np.ndarray) -> np.ndarray:
    """The n^2 displaced copies X^a Z^b psi, row a*n + b.

    X|j> = |j+1 mod n> and Z|j> = w^j |j> with w = exp(2 pi i / n), so
    (X^a Z^b psi)_j = w^(b (j-a)) psi_(j-a).
    """
    n = psi.size
    k = np.arange(n)
    phase = np.exp(2j * np.pi * np.outer(k, k) / n)  # [b, j] -> w^(b j)
    back = (k[None, :] - k[:, None]) % n             # [a, j] -> j - a
    return (phase[:, back] * psi[back]).transpose(1, 0, 2).reshape(n * n, n)


def _fiducial_residuals(x: np.ndarray, n: int):
    """Residuals |<psi|X^a Z^b|psi>|^2 - 1/(n+1) over (a, b) != (0, 0) and
    their Jacobian in x = (Re psi, Im psi).

    For D = X^a Z^b, u = D psi and cv = conj(D^H psi), the overlap
    M = <psi|u> moves by d|M|^2 = 2 Re(conj(M) (u + cv)) . dRe psi
    + 2 Im(conj(M) (u - cv)) . dIm psi.  Since Z X = w X Z,
    D^H = w^(ab) X^-a Z^-b, so cv comes from the same orbit as u.  The
    residuals also fix the norm: the sum of |M|^2 over all (a, b) is
    n |psi|^4, so |psi| = 1 at a root.
    """
    psi = x[:n] + 1j * x[n:]
    k = np.arange(n)
    neg = -k % n
    u = _weyl_heisenberg_orbit(psi).reshape(n, n, n)
    cv = (np.exp(-2j * np.pi * np.outer(k, k) / n)[:, :, None]
          * u[neg[:, None], neg].conj()).reshape(n * n, n)[1:]
    u = u.reshape(n * n, n)[1:]
    ov = u @ psi.conj()
    co = ov.conj()[:, None]
    jac = 2.0 * np.hstack([(co * (u + cv)).real, (co * (u - cv)).imag])
    return (ov.conj() * ov).real - 1.0 / (n + 1.0), jac


def _levenberg_marquardt(psi: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton on the fiducial residuals, started from psi.

    Stops when the step no longer moves psi (converged to rounding level) or
    the damping has grown past any useful value (a local minimum that is
    not a root, left for the next start).
    """
    n = psi.size
    x = np.concatenate([psi.real, psi.imag])
    res, jac = _fiducial_residuals(x, n)
    cost = res @ res
    mu = 1e-3
    for _ in range(200):
        step = np.linalg.solve(jac.T @ jac + mu * np.eye(2 * n), -(jac.T @ res))
        trial_res, trial_jac = _fiducial_residuals(x + step, n)
        trial_cost = trial_res @ trial_res
        if trial_cost < cost:
            x, res, jac, cost = x + step, trial_res, trial_jac, trial_cost
            mu = max(0.3 * mu, 1e-12)
        else:
            mu *= 10.0
        if np.linalg.norm(step) <= 1e-13 or mu > 1e8:
            break
    return x[:n] + 1j * x[n:]


def sic_search(n: int, seed: int = 0, tol: float = 1e-8,
               starts: int = 8) -> LaunchSet:
    """Numerically construct a SIC set as a Weyl-Heisenberg orbit.

    A SIC fiducial is a unit psi with |<psi|X^a Z^b|psi>|^2 = 1/(n+1) for
    every (a, b) != (0, 0); its n^2 displaced copies X^a Z^b psi then have
    equal pairwise squared overlaps 1/(n+1) (Renes, Blume-Kohout, Scott &
    Caves, J. Math. Phys. 45, 2171 (2004)).  Each start draws psi at random
    and solves the n^2 - 1 real residuals over its 2n real parameters by
    Levenberg-Marquardt with the analytic Jacobian.  The residual reported
    and tested is max | |<psi_i|psi_j>|^2 - 1/(n+1) | over the built orbit;
    the last displaced copy is dropped.

    Raises
    ------
    SearchFailedError
        When no start reaches tol; carries the best residual seen.
    """
    check_modes(n)
    if tol <= 0 or starts < 1:
        raise ConfigError("tol must be positive, starts at least 1")
    best = None
    for start in range(starts):
        psi = _levenberg_marquardt(random_states(rng_for(seed, start), 1, n)[0])
        states = _weyl_heisenberg_orbit(psi / np.linalg.norm(psi))
        residual = _equiangularity_residual(states, n)
        if best is None or residual < best[1]:
            best = (states, residual, start)
        if residual < tol:
            break
    states, residual, start = best
    if residual >= tol:
        raise SearchFailedError(
            f"SIC search for n={n} did not reach tol={tol:.1e} in "
            f"{starts} starts (best residual {residual:.3e})",
            residual=residual)
    meta = {"seed": seed, "start": start, "tol": tol, "residual": residual}
    return LaunchSet(n=n, states=canonicalize_phases(states[:-1]),
                     family="sic", meta=meta)


# ---------------------------------------------------------------------------
# Random sets, simplex, utilities
# ---------------------------------------------------------------------------

def random_states(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Uniform (Haar-marginal) unit states: normalized complex Gaussians."""
    raw = complex_normal(rng, (count, n))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def random_set(n: int, seed: int = 0) -> LaunchSet:
    """Uniform random launch set: the first draw of rng_for(seed).

    A singular draw has probability zero.  Should one occur, `metrics`
    rejects it with SingularSetError (exit 3 in the CLI), and in
    `multi_start` it aborts only its own start.
    """
    check_modes(n)
    states = random_states(rng_for(seed), n * n - 1, n)
    return LaunchSet(n=n, states=states, family="random", meta={"seed": seed})


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    q, r = np.linalg.qr(complex_normal(rng, (n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def simplex_set(n: int, seed: int = 0) -> SimplexSet:
    """Random orthonormal basis; its Stokes images sum to zero, which makes
    the mean measured delay over the basis the common-mode delay exactly."""
    check_modes(n)
    # a stream of its own: rng_for(seed) builds a synthetic fiber's unitary
    u = haar_unitary(n, rng_for(seed, 501))
    return SimplexSet(n=n, states=u.T.copy(), meta={"seed": seed})


def canonicalize_phases(states: np.ndarray) -> np.ndarray:
    """Rotate each state so its largest-magnitude component is real >= 0.

    Exactly idempotent: already-canonical rows pass through bit for bit, so
    a save/load/save cycle reproduces the file byte for byte.
    """
    states = np.array(states, dtype=complex)
    idx = np.argmax(np.abs(states), axis=1)
    a = states[np.arange(len(states)), idx]
    mag = np.hypot(a.real, a.imag)  # bit for bit the scalar abs(a)
    rows = np.flatnonzero(~((a.imag == 0.0) & (a.real >= 0.0)) & (mag != 0.0))
    states[rows] *= (np.conj(a[rows]) / mag[rows])[:, None]
    states[rows, idx[rows]] = mag[rows]
    return states


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _states_to_json(states: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in states]


def _states_from_json(vectors, n: int, path: str) -> np.ndarray:
    try:
        arr = np.asarray(vectors, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: field 'vectors' is not numeric") from exc
    if arr.ndim != 3 or arr.shape[1] != n or arr.shape[2] != 2:
        raise ConfigError(
            f"{path}: field 'vectors' must be (count, {n}, 2) re/im triplets, "
            f"got {arr.shape}")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def write_json(path, doc) -> None:
    """The package's one JSON layout: sorted keys, indent 1, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path) -> dict:
    """The JSON object in `path`; ConfigError for a file that is not UTF-8
    JSON or holds no object at top level, OSError for one that won't open."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a UnicodeDecodeError or JSONDecodeError
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def save_set(s: LaunchSet | SimplexSet, path) -> None:
    """Write the shared JSON schema; states phase-canonicalized first."""
    write_json(path, {
        "n": int(s.n),
        "family": s.family,
        "meta": s.meta,
        "vectors": _states_to_json(canonicalize_phases(s.states)),
    })


def load_set(path) -> LaunchSet:
    """Read a launch set, validating schema, count and norms."""
    doc = read_json(path)
    for key in ("n", "family", "vectors"):
        if key not in doc:
            raise ConfigError(f"{path}: missing field '{key}'")
    n = doc["n"]
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"{path}: field 'n' must be an integer >= 2")
    states = _states_from_json(doc["vectors"], n, str(path))
    if states.shape[0] != n * n - 1:
        raise ConfigError(
            f"{path}: field 'vectors' has {states.shape[0]} states, "
            f"expected {n * n - 1}")
    norms = np.linalg.norm(states, axis=1)
    dev = np.max(np.abs(norms - 1.0))
    if not dev <= 1e-8:  # NaN fails every comparison
        raise ConfigError(
            f"{path}: field 'vectors' contains non-unit or non-finite states")
    if dev > 1e-12:
        # tolerate mildly rounded inputs, but keep exact files bit-exact
        states = states / norms[:, None]
    if not isinstance(doc.get("meta", {}), dict):
        raise ConfigError(f"{path}: field 'meta' must be a JSON object")
    return LaunchSet(n=n, states=states, family=str(doc["family"]),
                     meta=dict(doc.get("meta", {})))


def bundled_optimal_set(n: int = 4) -> LaunchSet:
    """The packaged reference optimal set (currently n = 4 only)."""
    if n != 4:
        raise ConfigError(f"no bundled optimal set for n={n}")
    ref = resources.files("stokesopt").joinpath("data/optimal_n4.json")
    with resources.as_file(ref) as path:
        return load_set(path)
