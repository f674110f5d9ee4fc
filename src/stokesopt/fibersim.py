"""Virtual testbed for delay-based modal-dispersion measurement.

The fiber is a lumped transfer matrix H(w0 + dw) = U(dw) P(dw): a unitary
part U whose frequency dependence is generated by the Hermitian delay
operator tau0*I + md_vector . L / (2 c_n), and an optional Hermitian
positive-definite loss part P built from per-mode attenuation rates.  On top
of that sit the measurement channels: group delay read from the first moment
of a detected Gaussian pulse (or its analytic narrowband limit) with thermal
receiver noise, and per-launch attenuation read from the output power.  The
reconstruction routines invert a launch set's Stokes coefficient matrix to
recover the delay vector and the loss parameters, mirroring how the physical
experiment would process the same records.

Every noiseless narrowband reading is an expectation <s|O|s>.  Both delay
readouts obey one law: launch i reads d_i + s_i z, with d_i its noiseless
delay, z standard normal and s_i a fixed scale (sqrt(delay_variance), or in
waveform mode sigma ||g_i||: per-sample noise e ~ N(0, sigma^2) reads as
g_i . e).  measure_delay, estimate_tau0 and monte_carlo_md compute (d, s)
once per launch and then only draw z; monte_carlo_mdl likewise takes each
clean attenuation a once and then only draws z in a (1 + rel_noise z).
One Stokes solve, S^-1 formed once per set and applied row by row, serves
every estimator: reconstruct_md and reconstruct_mdl are one-row cases, and
both Monte Carlos estimate each bounded block of trials as they draw it, so
a trial reads bit for bit what the single call reads and memory stays flat
in the trial count.
Delay deviations from tau0 and power readings must be finite.  Both Monte
Carlos predict their error by one law: reading noise of covariance R R^T
reconstructs to a mean square ||2 c_n^2 S^-1 R||_F^2.

Units are SI throughout: seconds, Hz, rad/s for the frequency detuning,
watts, amperes, joules, metres.  Mixing propagation quantities (delays)
with receiver quantities (noise PSD, responsivity, pulse energy) is exactly
where silent scale errors creep in, so every dataclass field states its unit.

Only the narrowband regime is modelled: the delay vector is constant across
the pulse band, and loss is frequency-flat unless an explicit per-mode slope
is supplied.  Nonlinearity and distributed mode coupling are out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, EstimationFailedError
from .gellmann import assemble, check_modes, expand_matrix, norm_coeff
from .seeding import rng_for
from .sets import (LaunchSet, SimplexSet, check_orthonormal, haar_unitary,
                   read_only)

__all__ = [
    "FiberModel",
    "ReceiverModel",
    "MdlEstimate",
    "ComplexGdOperator",
    "synth_md_fiber",
    "synth_mdl_fiber",
    "propagate_unitary",
    "numeric_gd_expansion",
    "group_delay",
    "measure_delay",
    "estimate_tau0",
    "reconstruct_md",
    "monte_carlo_md",
    "monte_carlo_mdl",
    "measure_attenuation",
    "mdl_parameters",
    "predicted_attenuation",
    "reconstruct_mdl",
    "loss_matrix_from_estimate",
    "equalize",
    "compose_gd_operator",
    "full_gd_operator",
    "crosstalk_bound",
]

DELAY_MODES = ("analytic", "waveform")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberModel:
    """Lumped n-mode fiber: unitary delay part plus optional mode loss.

    Fields
    ------
    n : mode count.
    tau0 : common-mode group delay (s).
    md_vector : real (n^2-1,) delay vector (s) in the Stokes expansion of
        the group-delay operator.
    base_unitary : U at the carrier, complex (n, n), unitary to 1e-12.
    pa_coeffs : per-mode attenuation rates a_k (1/m), or None for a lossless
        fiber.  Given together with pa_modes.
    pa_modes : rows are the n orthonormal principal attenuation states.
    pa_slope : optional d a_k / d omega (s/m); loss is frequency-flat when
        omitted.
    z : fiber length (m); only the products a_k * z enter the model.

    The model is immutable: its array fields are read-only copies, so the
    operators built once from them (delay_operator, squared_loss) stay valid.
    """

    n: int
    tau0: float
    md_vector: np.ndarray
    base_unitary: np.ndarray
    pa_coeffs: np.ndarray | None = None
    pa_modes: np.ndarray | None = None
    pa_slope: np.ndarray | None = None
    z: float = 1.0

    def __post_init__(self):
        n = self.n
        check_modes(n)
        md = np.array(self.md_vector, dtype=float)
        if md.shape != (n * n - 1,):
            raise DimensionError(
                f"md_vector for n={n} needs shape ({n * n - 1},), got {md.shape}")
        _finite(md, "md_vector")
        if not math.isfinite(self.tau0):
            raise ConfigError(f"tau0 must be finite, got {self.tau0}")
        u = np.array(self.base_unitary, dtype=complex)
        if u.shape != (n, n):
            raise DimensionError(f"base_unitary must be ({n}, {n}), got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(n))) > 1e-12:
            raise DimensionError("base_unitary must be unitary to 1e-12")
        if (self.pa_coeffs is None) != (self.pa_modes is None):
            raise ConfigError("pa_coeffs and pa_modes must be given together")
        fields = {"md_vector": md, "base_unitary": u}
        if self.pa_coeffs is not None:
            a = np.array(self.pa_coeffs, dtype=float)
            v = np.array(self.pa_modes, dtype=complex)
            if a.shape != (n,):
                raise DimensionError(f"pa_coeffs must have shape ({n},)")
            _finite(a, "pa_coeffs")
            if v.shape != (n, n):
                raise DimensionError(f"pa_modes must be ({n}, {n})")
            check_orthonormal(v, "pa_modes rows")
            if not (np.isfinite(self.z) and self.z >= 0.0):
                raise ConfigError("fiber length must be finite and non-negative")
            fields.update(pa_coeffs=a, pa_modes=v)
        if self.pa_slope is not None:
            if self.pa_coeffs is None:
                raise ConfigError("pa_slope needs pa_coeffs")
            sl = np.array(self.pa_slope, dtype=float)
            if sl.shape != (n,):
                raise DimensionError(f"pa_slope must have shape ({n},)")
            _finite(sl, "pa_slope")
            fields.update(pa_slope=sl)
        for name, value in fields.items():
            object.__setattr__(self, name, read_only(value))

    @property
    def m(self) -> int:
        return self.n * self.n - 1

    @cached_property
    def delay_operator(self) -> np.ndarray:
        """Hermitian generator tau0*I + md_vector . L / (2 c_n), built once."""
        return read_only(assemble(self.n, self.tau0, self.md_vector))

    @cached_property
    def squared_loss(self) -> np.ndarray:
        """P^2 at the carrier, built once; identity for a lossless fiber."""
        return read_only(self.loss_matrix(squared=True))

    def loss_matrix(self, domega: float = 0.0, squared: bool = False) -> np.ndarray:
        """P (or P^2) at detuning domega; identity for a lossless fiber."""
        if self.pa_coeffs is None:
            return np.eye(self.n, dtype=complex)
        rates = self.pa_coeffs
        if self.pa_slope is not None:
            rates = rates + self.pa_slope * domega
        scale = np.exp(-rates * self.z * (1.0 if squared else 0.5))
        v = self.pa_modes
        return (v.T * scale) @ v.conj()

    def transfer_matrix(self, domega: float = 0.0) -> np.ndarray:
        """H = U(domega) P(domega)."""
        return propagate_unitary(self, domega) @ self.loss_matrix(domega)


@dataclass(frozen=True)
class ReceiverModel:
    """Direct-detection receiver for pulse-delay readout.

    Fields
    ------
    responsivity : photodiode responsivity (A/W).
    noise_psd : two-sided PSD of the additive current noise (A^2/Hz); the
        autocorrelation is noise_psd * delta(t - t').  Zero gives a
        noiseless receiver.
    window : integration window T (s), centred on the pulse.
    pulse_width : Gaussian 1/e power half-width (s).
    sample_rate : ADC rate (Hz).
    energy : detected pulse energy (J), used to scale the noise formulas.

    The window must cover the pulse (window > 4 * pulse_width) and hold
    3k + 1 samples so the composite Simpson 3/8 rule applies exactly.
    """

    responsivity: float
    noise_psd: float
    window: float
    pulse_width: float
    sample_rate: float
    energy: float

    def __post_init__(self):
        for name in ("responsivity", "window", "pulse_width", "sample_rate",
                     "energy"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive, got {value}")
        if not (np.isfinite(self.noise_psd) and self.noise_psd >= 0):
            raise ConfigError("noise_psd must be non-negative")
        if self.window <= 4.0 * self.pulse_width:
            raise ConfigError(
                "integration window must exceed 4x the pulse half-width")
        exact = self.window * self.sample_rate
        count = round(exact)
        if abs(exact - count) > 1e-9 * max(count, 1):
            raise ConfigError(
                f"window * sample_rate = {exact} is not a whole sample count")
        if count < 4 or count % 3 != 1:
            raise ConfigError(
                f"Simpson 3/8 needs 3k+1 samples, got {count}")

    @property
    def sample_count(self) -> int:
        return round(self.window * self.sample_rate)

    @property
    def delay_variance(self) -> float:
        """Variance of one analytic delay measurement (s^2).

        With a full noise PSD of N0 = 2 * noise_psd this is the standard
        first-moment result N0 T^3 / (24 R^2 E^2).
        """
        n0 = 2.0 * self.noise_psd
        return n0 * self.window ** 3 / (
            24.0 * self.responsivity ** 2 * self.energy ** 2)

    @property
    def sample_noise_variance(self) -> float:
        """Per-sample current variance N0 * f_s / 2 in waveform mode (A^2)."""
        return self.noise_psd * self.sample_rate

    def time_grid(self) -> np.ndarray:
        """Sample times, symmetric about zero."""
        count = self.sample_count
        idx = np.arange(count, dtype=float)
        return (idx - 0.5 * (count - 1)) / self.sample_rate

    def quadrature_weights(self) -> np.ndarray:
        """Composite Simpson 3/8 weights including the step factor (s)."""
        count = self.sample_count
        w = np.full(count, 3.0)
        w[0] = w[-1] = 1.0
        w[3:-1:3] = 2.0
        return w * (3.0 / (8.0 * self.sample_rate))


@dataclass
class MdlEstimate:
    """Loss parameters recovered from attenuation records.

    alpha0 is the mean attenuation, gamma the loss vector in the Stokes
    expansion P^2 = alpha0 (I + gamma . L / (2 c_n)), and mdl_ratio the
    largest-to-smallest eigenvalue ratio of the reconstructed P^2.
    """

    n: int
    alpha0: float
    gamma: np.ndarray
    mdl_ratio: float

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.shape != (self.n * self.n - 1,):
            raise DimensionError(
                f"gamma for n={self.n} needs shape ({self.n * self.n - 1},)")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise EstimationFailedError(
                f"mean attenuation must be positive, got {self.alpha0}")
        if not (math.isfinite(self.mdl_ratio) and self.mdl_ratio >= 1.0):
            raise EstimationFailedError(
                f"loss eigenvalue ratio must be >= 1, got {self.mdl_ratio}")
        self.gamma = g


@dataclass
class ComplexGdOperator:
    """Eigendata of the group-delay operator of a lossy fiber.

    chi0 and chi_vector are the (complex) scalar and Stokes parts of
    i H^-1 dH/domega; dmgds are the real parts of its eigenvalues in
    ascending order and pms the matching (generally non-orthogonal) unit
    eigenvectors, stored as rows.  `defective` marks eigenproblems solved
    through a Schur fallback, whose pms are then only an orthonormal
    triangularizing basis.
    """

    n: int
    chi0: complex
    chi_vector: np.ndarray
    dmgds: np.ndarray
    pms: np.ndarray
    defective: bool = False


# ---------------------------------------------------------------------------
# Synthesis and propagation
# ---------------------------------------------------------------------------

def synth_md_fiber(n: int, tau0: float, md_vector, seed: int = 0) -> FiberModel:
    """Lossless fiber with the given delay data and a Haar-random U."""
    check_modes(n)
    u = haar_unitary(n, rng_for(seed, 0))
    return FiberModel(n=n, tau0=float(tau0), md_vector=md_vector,
                      base_unitary=u)


def synth_mdl_fiber(n: int, pa_coeffs, z: float, seed: int = 0,
                    tau0: float = 0.0, md_vector=None,
                    pa_slope=None) -> FiberModel:
    """Lossy fiber: Haar-random U and random orthonormal loss states.

    The same seed reproduces the same U as synth_md_fiber; the loss states
    come from an independent substream.
    """
    check_modes(n)
    a = np.asarray(pa_coeffs, dtype=float)
    if np.any(a < 0):
        raise ConfigError("attenuation rates must be non-negative")
    if md_vector is None:
        md_vector = np.zeros(n * n - 1)
    u = haar_unitary(n, rng_for(seed, 0))
    modes = haar_unitary(n, rng_for(seed, 1))
    return FiberModel(n=n, tau0=float(tau0), md_vector=md_vector,
                      base_unitary=u, pa_coeffs=a, pa_modes=modes,
                      pa_slope=pa_slope, z=float(z))


def propagate_unitary(f: FiberModel, domega: float) -> np.ndarray:
    """U at detuning domega: U(0) exp(-i * delay_operator * domega)."""
    if domega == 0.0:
        return np.array(f.base_unitary)
    d, v = np.linalg.eigh(f.delay_operator)
    phases = np.exp(-1j * d * domega)
    return f.base_unitary @ ((v * phases) @ v.conj().T)


def numeric_gd_expansion(f: FiberModel,
                         domega: float) -> tuple[complex, np.ndarray]:
    """Extract (tau0, md_vector) from U by a central difference in omega.

    Serves as the self-consistency check that propagation really is
    generated by delay_operator; agreement is O(domega^2 ||md||^3).
    """
    if not domega > 0:
        raise ConfigError("domega must be positive")
    up = propagate_unitary(f, domega)
    um = propagate_unitary(f, -domega)
    deriv = (up - um) / (2.0 * domega)
    return expand_matrix(1j * f.base_unitary.conj().T @ deriv)


# ---------------------------------------------------------------------------
# Delay measurement
# ---------------------------------------------------------------------------

def _expectation(op: np.ndarray, states):
    """Re <s|O|s> of one state (n,), as a float, or of each row of a (k, n)
    stack.  Two 2-operand einsums, unlike BLAS or one 3-operand einsum,
    round each row the same at any k: a batch reads what single calls read."""
    states = np.asarray(states, dtype=complex)
    rows = states if states.ndim == 2 else states[None]
    values = np.einsum("ka,ka->k", rows.conj(),
                       np.einsum("kb,ab->ka", rows, op)).real
    return values if states.ndim == 2 else float(values[0])


def group_delay(f: FiberModel, states):
    """Narrowband delay <s| delay_operator |s> = tau0 + md_vector . s_hat /
    (2 c_n^2) of a unit launch state (n,), or of each row of a (k, n) stack."""
    return _expectation(f.delay_operator, states)


def _rng_from(seed, what: str) -> np.random.Generator:
    """The stream of `seed` (int or tuple of ints), which `what` needs."""
    if seed is None:
        raise ConfigError(f"a seed is required for {what}")
    if isinstance(seed, (tuple, list)):
        return rng_for(*seed)
    return rng_for(seed)


def _launch_state(f: FiberModel, state) -> np.ndarray:
    """`state` as a complex (n,) array; rejects a wrong shape or norm."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (f.n,):
        raise DimensionError(
            f"launch state must have shape ({f.n},), got {state.shape}")
    if abs(math.sqrt(np.vdot(state, state).real) - 1.0) > 1e-10:
        raise DimensionError("launch state must be unit norm")
    return state


def _fiber_modes(f: FiberModel, states: np.ndarray) -> np.ndarray:
    """A (k, n) launch stack, rejected unless n is the fiber's mode count."""
    if states.shape[1] != f.n:
        raise DimensionError(
            f"launch states have {states.shape[1]} modes, fiber has {f.n}")
    return states


def _readout(f: FiberModel, states: np.ndarray, rx: ReceiverModel,
             mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(delays, scales) of unit launches `states` (k, n): launch i reads
    delays[i] + scales[i] z, with z standard normal.

    Analytic: the narrowband delay, scale sqrt(delay_variance).  Waveform:
    the Simpson 3/8 first moment of the noiseless detected pulse over its
    windowed energy E_i; per-sample noise of variance sigma^2 reaches it
    through the gain g_i = weights * t / E_i, so its scale is sigma ||g_i||.
    That intensity is the power-weighted sum of the n principal-mode pulses,
    each delayed by its eigen-delay; the frequency-flat U(0) cannot change it.
    """
    if mode not in DELAY_MODES:
        raise ConfigError(f"mode must be one of {DELAY_MODES}, got {mode!r}")
    _fiber_modes(f, states)
    if mode == "analytic":
        return (group_delay(f, states),
                np.full(len(states), math.sqrt(rx.delay_variance)))
    t = rx.time_grid()
    weights = rx.quadrature_weights()
    peak = rx.energy / (rx.pulse_width * math.sqrt(math.pi))
    amp = math.sqrt(peak) * np.exp(-(t * t) / (2.0 * rx.pulse_width ** 2))
    domegas = 2.0 * np.pi * np.fft.fftfreq(rx.sample_count,
                                           d=1.0 / rx.sample_rate)
    eig_delays, pms = np.linalg.eigh(f.delay_operator)
    mode_pulses = np.fft.ifft(np.fft.fft(amp)[:, None]
                              * np.exp(-1j * np.outer(domegas, eig_delays)),
                              axis=0)
    # einsum, unlike BLAS, rounds each launch the same at any k, so
    # measure_delay and the batched callers read identical noiseless delays
    powers = np.abs(np.einsum("kn,nj->kj", states, pms.conj())) ** 2
    signal = rx.responsivity * np.einsum("kj,pj->kp", powers,
                                         np.abs(mode_pulses) ** 2)
    energy = np.einsum("kp,p->k", signal, weights)
    noise = math.sqrt(rx.sample_noise_variance) * np.linalg.norm(weights * t)
    return np.einsum("kp,p->k", signal * t, weights) / energy, noise / energy


def _noisy_reads(delays: np.ndarray, scales: np.ndarray,
                 rng: np.random.Generator, rows: int) -> np.ndarray:
    """`rows` readouts (rows, k) of one launch batch, drawn in order."""
    return delays + rng.standard_normal((rows, delays.size)) * scales


def measure_delay(f: FiberModel, state, rx: ReceiverModel,
                  mode: str = "analytic", seed=None) -> float:
    """One group-delay readout d + s z for a unit launch state.

    Analytic mode reads the narrowband delay.  Waveform mode synthesizes the
    detected pulse (Gaussian spectrum, per-frequency modal propagation, total
    intensity) and reads its Simpson 3/8 first moment over its windowed
    energy.  Either way receiver noise adds one normal of the readout's scale
    s (see _readout).  Both read the delay of the unitary part only;
    attenuation has its own channel.  `seed` (int or tuple of ints) is
    required whenever rx.noise_psd > 0.
    """
    delays, scales = _readout(f, _launch_state(f, state)[None], rx, mode)
    if rx.noise_psd > 0.0:
        rng = _rng_from(seed, "a noisy receiver")
        delays = _noisy_reads(delays, scales, rng, 1)[0]
    return float(delays[0])


def estimate_tau0(f: FiberModel, rx: ReceiverModel, simplex: SimplexSet,
                  repeats: int = 1, seed=None,
                  mode: str = "analytic") -> float:
    """Common-mode delay from repeats x n measurements over a simplex.

    The simplex Stokes images sum to zero, so the mean kills the delay
    vector's contribution; noiseless analytic mode returns tau0 exactly and
    the noisy estimator variance is delay_variance / (repeats * n).  The
    noise comes from the `seed` stream in (repeat, launch) order.
    """
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    delays, scales = _readout(f, simplex.states, rx, mode)
    if rx.noise_psd > 0.0:
        rng = _rng_from(seed, "a noisy receiver")
        delays = _noisy_reads(delays, scales, rng, repeats)
    return float(np.mean(delays))


# ---------------------------------------------------------------------------
# Delay-vector reconstruction
# ---------------------------------------------------------------------------

def _readings(values, count: int, what: str) -> np.ndarray:
    """`count` outside readings as a float array of shape (count,)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count,):
        raise DimensionError(
            f"need {what} of shape ({count},), got shape {values.shape}")
    return values


def _finite(values: np.ndarray, what: str = "measurement value"):
    """`values`, rejected with ConfigError unless each is finite."""
    if not np.isfinite(values).all():
        raise ConfigError(f"{what} must be finite")
    return values


def _solve_stokes(launch_set: LaunchSet, dev: np.ndarray) -> np.ndarray:
    """x = 2 c_n^2 S^-1 d for each row d of a (t, m) stack, from the set's
    S^-1 by a 2-operand einsum, which rounds each row the same at any t (see
    _expectation): a row solves bit for bit as it does alone."""
    c = norm_coeff(launch_set.n)
    return np.einsum("ij,tj->ti", 2.0 * c * c * launch_set.stokes_inverse, dev)


def reconstruct_md(launch_set: LaunchSet, delays, tau0: float) -> np.ndarray:
    """Delay vector from one delay (s) per launch, via a linear solve.

    The deviations tau_g - tau0, which must be finite, scaled by 2 c_n^2
    are the right-hand side b of S x = b, S the set's Stokes coefficient
    matrix, solved as x = S^-1 b.
    """
    dev = _finite(_readings(delays, launch_set.m, "records") - tau0)
    return _solve_stokes(launch_set, dev[None])[0]


def _predicted_mse(launch_set: LaunchSet, root) -> float:
    """Mean squared reconstruction error (2 c_n^2)^2 Tr(S^-1 C S^-T) =
    ||2 c_n^2 S^-1 R||_F^2 of readings with noise covariance C = R R^T."""
    x = _solve_stokes(launch_set, root.T)
    return float(np.sum(x * x))


# noise values per Monte Carlo block, whose estimates use ~70 bytes a value
_DRAW_BLOCK = 1 << 16
# SeedSequence drops trailing zero words: rng_for(seed) is rng_for(seed, 0),
# which builds a fiber's unitary, so each Monte Carlo draws its noise from a
# stream of its own
_NOISE_STREAM, _ATTENUATION_STREAM = 303, 505


def _in_trial_order(estimate, trials: int, draws_per_trial: int) -> list:
    """Per-trial outputs of estimate(rows), which draws and estimates the
    next `rows` trials, called on blocks of at most _DRAW_BLOCK noise values
    and joined in trial order: memory beyond the outputs stays flat in the
    trial count, and the first t trials do not depend on the run length."""
    block = max(1, _DRAW_BLOCK // draws_per_trial)
    outs = []
    for first in range(0, trials, block):
        parts = estimate(min(block, trials - first))
        outs = outs or [np.empty((trials, *p.shape[1:])) for p in parts]
        for out, part in zip(outs, parts):
            out[first:first + len(part)] = part
    return outs


def monte_carlo_md(f: FiberModel, launch_set: LaunchSet, rx: ReceiverModel,
                   trials: int, seed: int = 0,
                   mode: str = "analytic") -> dict:
    """Repeat the delay-vector measurement and tabulate the errors.

    The readouts d + s z draw their noise from one stream of seed in trial
    order, in bounded blocks, so the first t trials do not depend on the run
    length; each block is solved as drawn, each trial as reconstruct_md.
    Returns the per-trial squared error norms, their mean, the mean error
    vector, the empirical covariance and the mean square predicted from the
    noise drawn, of variance s_i^2 at launch i.  A launch set that metrics
    rejects raises SingularSetError before any draw.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if rx.noise_psd <= 0:
        raise ConfigError("monte_carlo_md needs a noisy receiver")
    delays, scales = _readout(f, launch_set.states, rx, mode)
    predicted = _predicted_mse(launch_set, np.diag(scales))
    rng = rng_for(seed, _NOISE_STREAM)

    def estimate(rows):
        dev = _noisy_reads(delays, scales, rng, rows) - f.tau0
        return (_solve_stokes(launch_set, _finite(dev)) - f.md_vector,)

    errors, = _in_trial_order(estimate, trials, delays.size)
    sq = np.einsum("tm,tm->t", errors, errors)
    return {
        "trials": trials,
        "mode": mode,
        "mean_error": errors.mean(axis=0),
        "covariance": errors.T @ errors / trials,
        "sq_errors": sq,
        "mean_sq_error": float(sq.mean()),
        "predicted_mean_sq": predicted,
    }


# ---------------------------------------------------------------------------
# Attenuation measurement and loss reconstruction
# ---------------------------------------------------------------------------

def measure_attenuation(f: FiberModel, state, rel_noise: float = 0.0,
                        seed=None) -> float:
    """Output power fraction <s| H^+ H |s> = <s| P^2 |s> for a unit launch.

    rel_noise > 0 adds multiplicative Gaussian noise, modelling a power
    meter with that relative accuracy.
    """
    state = _launch_state(f, state)
    if not 0.0 <= rel_noise < math.inf:
        raise ConfigError("rel_noise must be finite and non-negative")
    value = _expectation(f.squared_loss, state)
    if rel_noise > 0:
        value *= 1.0 + _rng_from(seed, "noisy power readings").normal(
            0.0, rel_noise)
    return value


def mdl_parameters(f: FiberModel) -> tuple[float, np.ndarray]:
    """True (alpha0, gamma) of the fiber's P^2 in its Stokes expansion."""
    scalar, vector = expand_matrix(f.squared_loss)
    alpha0 = float(scalar.real)
    return alpha0, vector.real / alpha0


def predicted_attenuation(alpha0: float, gamma, state):
    """Attenuation <s| alpha0 (I + gamma . L / (2 c_n)) |s> = alpha0 (1 +
    gamma . s_hat / (2 c_n^2)) of a unit state (n,) or of each stack row."""
    n = np.shape(state)[-1]
    return _expectation(_squared_loss(n, alpha0, gamma), state)


def _squared_loss(n: int, alpha0, gamma) -> np.ndarray:
    """P^2 = alpha0 (I + gamma . L / (2 c_n)), stacked over a (t,) alpha0."""
    alpha0 = np.asarray(alpha0)[..., None, None]
    return alpha0 * assemble(n, 1.0, gamma)


def _estimate_mdl(launch_set: LaunchSet, reads: np.ndarray):
    """(alpha0, gamma, mdl_ratio) of each row of (t, m + n) readings, set
    then simplex: alpha0 is the simplex mean (the orthonormal Stokes images
    sum to zero), gamma comes from the Stokes solve of the delay vector, and
    mdl_ratio from the eigenvalues of the rebuilt P^2.  Each row is solved
    and its eigvalsh taken on its own, so it reads bit for bit what it
    reads alone.  The first row with alpha0 <= 0 or a P^2 not positive
    definite raises EstimationFailedError: its records describe no physical
    loss."""
    m = launch_set.m
    alpha0 = np.add.reduce(reads[:, m:], axis=1) / (reads.shape[1] - m)
    if not alpha0.min() > 0:
        first = int(np.argmax(alpha0 <= 0))
        if first:  # an earlier row may fail on its P^2
            _estimate_mdl(launch_set, reads[:first])
        raise EstimationFailedError(
            f"mean attenuation must be positive, got {float(alpha0[first])}")
    gamma = _solve_stokes(launch_set, reads[:, :m] / alpha0[:, None] - 1.0)
    evals = np.linalg.eigvalsh(_squared_loss(launch_set.n, alpha0, gamma))
    if evals[:, 0].min() <= 0:
        raise EstimationFailedError(
            "reconstructed squared loss operator is not positive definite")
    return alpha0, gamma, evals[:, -1] / evals[:, 0]


def reconstruct_mdl(launch_set: LaunchSet, simplex: SimplexSet,
                    set_values, simplex_values) -> MdlEstimate:
    """Loss parameters from one attenuation reading per launch of the set
    and of the simplex: the one-row case of `_estimate_mdl`."""
    reads = np.concatenate([
        _finite(_readings(set_values, launch_set.m, "set records")),
        _finite(_readings(simplex_values, simplex.n, "simplex records"))])
    (alpha0,), (gamma,), (ratio,) = _estimate_mdl(launch_set, reads[None])
    return MdlEstimate(n=launch_set.n, alpha0=float(alpha0), gamma=gamma,
                       mdl_ratio=float(ratio))


def monte_carlo_mdl(f: FiberModel, launch_set: LaunchSet, simplex: SimplexSet,
                    rel_noise: float, trials: int, seed: int = 0) -> dict:
    """Repeat the loss measurement and tabulate the errors.

    A trial reads each launch of the set, then each simplex state, as
    a (1 + rel_noise z): a is the clean measure_attenuation reading and z is
    standard normal, drawn from one stream of seed in trial order and in
    bounded blocks, so the first t trials do not depend on the run length.
    _estimate_mdl reads each block as drawn, each trial as reconstruct_mdl;
    the first trial that no physical loss fits raises EstimationFailedError.
    A launch set that metrics rejects raises SingularSetError before a draw.

    Returns the true alpha0, the per-trial squared gamma errors, estimated
    alpha0 and mdl_ratio, their means, and the first-order prediction of
    the gamma MSE, (2 c_n^2)^2 Tr(S^-1 C S^-T).  C is the covariance of
    v / alpha0_hat - 1, rel_noise^2 (diag(r^2) + r r^T sum(b^2) / (n alpha0)^2),
    with r = a / alpha0 over the set and b the clean simplex readings.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if not 0.0 <= rel_noise < math.inf:
        raise ConfigError("rel_noise must be finite and non-negative")
    m = launch_set.m
    clean = _expectation(f.squared_loss, np.concatenate([
        _fiber_modes(f, launch_set.states), _fiber_modes(f, simplex.states)]))
    alpha0_true, gamma_true = mdl_parameters(f)
    # C = R R^T with R = rel_noise [diag(r) | spread r]
    r = clean[:m] / alpha0_true
    spread = math.sqrt(clean[m:] @ clean[m:]) / (f.n * alpha0_true)
    root = rel_noise * np.column_stack([np.diag(r), spread * r])
    predicted = _predicted_mse(launch_set, root)
    rng = rng_for(seed, _ATTENUATION_STREAM)

    def estimate(rows):
        reads = clean * (1.0 + rng.normal(0.0, rel_noise, (rows, clean.size)))
        alpha0, gamma, ratio = _estimate_mdl(launch_set, reads)
        return np.sum((gamma - gamma_true) ** 2, axis=1), alpha0, ratio

    sq, alpha0, ratio = _in_trial_order(estimate, trials, clean.size)
    return {
        "alpha0_true": alpha0_true,
        "gamma_sq_errors": sq,
        "alpha0": alpha0,
        "mdl_ratio": ratio,
        "gamma_mse": float(sum(sq) / trials),
        "alpha0_mse": float(sum((alpha0 - alpha0_true) ** 2) / trials),
        "mdl_ratio_mean": float(sum(ratio) / trials),
        "predicted_gamma_mse": predicted,
    }


def loss_matrix_from_estimate(est: MdlEstimate) -> np.ndarray:
    """Principal square root P of the estimate's P^2."""
    evals, vecs = np.linalg.eigh(_squared_loss(est.n, est.alpha0, est.gamma))
    if evals[0] <= 0:
        raise EstimationFailedError(
            "estimated squared loss operator is not positive definite")
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def equalize(f: FiberModel, est: MdlEstimate) -> FiberModel:
    """Undo the estimated loss: lossless model with unitary part H P_hat^-1.

    The right division W is re-unitarized by its polar factor U V^H (from the
    SVD W = U Sigma V^H), so a noisy estimate still yields a valid model; the
    Hermitian factor V Sigma V^H it discards is exactly the residual mismatch
    between true and estimated loss.
    """
    if est.n != f.n:
        raise DimensionError(f"estimate has {est.n} modes, fiber has {f.n}")
    p_hat = loss_matrix_from_estimate(est)
    h = f.transfer_matrix(0.0)
    w = np.linalg.solve(p_hat.T, h.T).T
    u, _, vh = np.linalg.svd(w, full_matrices=False)
    u_eq = u @ vh
    return FiberModel(n=f.n, tau0=f.tau0, md_vector=f.md_vector,
                      base_unitary=u_eq)


# ---------------------------------------------------------------------------
# Composed group-delay operator of a lossy fiber
# ---------------------------------------------------------------------------

def compose_gd_operator(n: int, tau0: float, md_vector, loss=None,
                        loss_omega=None) -> ComplexGdOperator:
    """Eigendata of P^-1 (delay generator) P + i P^-1 dP/domega.

    With loss omitted this is just the Hermitian delay operator.  The
    composed matrix is generally non-normal; when its eigenvector matrix is
    numerically singular the routine falls back to a Schur form and flags
    the result as defective.
    """
    gen = assemble(n, tau0, md_vector)
    if loss is None:
        composed = gen
    else:
        loss = np.asarray(loss, dtype=complex)
        composed = np.linalg.solve(loss, gen @ loss)
        if loss_omega is not None:
            composed = composed + 1j * np.linalg.solve(loss, loss_omega)
    chi0, chi_vector = expand_matrix(composed)
    vals, vecs = np.linalg.eig(composed)
    defective = False
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > 1e8:
        # imported here so that no other path loads SciPy
        from scipy.linalg import schur

        tmat, zmat = schur(composed, output="complex")
        vals = np.diag(tmat)
        vecs = zmat
        defective = True
    order = np.argsort(vals.real, kind="stable")
    return ComplexGdOperator(n=n, chi0=chi0, chi_vector=chi_vector,
                             dmgds=vals.real[order],
                             pms=np.ascontiguousarray(vecs[:, order].T),
                             defective=defective)


def full_gd_operator(f: FiberModel, domega: float) -> ComplexGdOperator:
    """Composed group-delay operator of the fiber at the carrier.

    dP/domega is taken by a central difference at +-domega; it vanishes for
    frequency-flat loss, leaving the pure similarity transform of the delay
    generator.
    """
    if not domega > 0:
        raise ConfigError("domega must be positive")
    if f.pa_coeffs is None:
        return compose_gd_operator(f.n, f.tau0, f.md_vector)
    loss = f.loss_matrix()
    loss_omega = None
    if f.pa_slope is not None:
        loss_omega = (f.loss_matrix(domega)
                      - f.loss_matrix(-domega)) / (2.0 * domega)
    return compose_gd_operator(f.n, f.tau0, f.md_vector, loss, loss_omega)


# ---------------------------------------------------------------------------
# Launch crosstalk sensitivity (two-mode demonstrator)
# ---------------------------------------------------------------------------

def crosstalk_bound(epsilon: float) -> tuple[float, float]:
    """Error bound for leaky two-mode launches of the orthonormal triple.

    A mode converter that leaks power fraction epsilon into the orthogonal
    state turns the identity coefficient matrix S = I into a perturbed S';
    the return is (||S' - S||_2, kappa(S) ||S' - S|| / ||S||), the relative
    delay-vector error bound, which equals the first: kappa(I) = ||I||_2 = 1.
    Both behave as 2 sqrt(2 eps) for small epsilon: the error grows with the
    square root of the leakage.
    """
    if not (0.0 <= epsilon < 0.5):
        raise ConfigError(
            f"crosstalk level must lie in [0, 0.5), got {epsilon}")
    leak = 2.0 * math.sqrt((1.0 - epsilon) * epsilon)
    diag = 1.0 - 2.0 * epsilon
    s_actual = np.array([
        [diag, leak, 0.0],
        [leak, diag, 0.0],
        [leak, 0.0, diag],
    ])
    ds = s_actual - np.eye(3)
    norm_ds = float(np.linalg.norm(ds, 2))
    return norm_ds, norm_ds
