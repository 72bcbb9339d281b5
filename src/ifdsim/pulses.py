"""Super-Gaussian drive envelopes and amplitude calibration.

The drive shape is Omega(t) = Omega_0 exp(-(t/tau)^4 / 2), truncated to
zero outside |t| <= tau_c. Rotation angles are set through the effective
pulse area A = integral of the envelope over [-tau_c, tau_c]: a probe
pulse of strength theta uses Omega_0 = theta / A and a beam splitter for
an N-round protocol uses Omega_0 = pi / ((N + 1) A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Standard pulse family: 56 ns total duration T, tau = T / 4, tau_c = T / 2.
DEFAULT_DURATION = 56e-9
DEFAULT_SAMPLING_RATE = 1e9
# Trapezoid steps per tau of effective_area: within 2.6e-8 relative at tau_c = 2 tau.
AREA_STEPS_PER_TAU = 128

# Amplitude headroom runs out at theta = 3.38 pi for the 56 ns family;
# beyond it the duration is stepped 1 ns at a time up to 61 ns at 4 pi.
STRETCH_THETA = 3.38 * np.pi
STRETCH_THETA_MAX = 4.0 * np.pi
STRETCH_BASE_NS = 56
STRETCH_MAX_NS = 61


@dataclass(frozen=True)
class PulseEnvelope:
    """Parameters of one super-Gaussian drive pulse."""

    omega0: float  # peak drive amplitude, rad/s
    tau: float  # shape time constant, s
    tau_c: float  # truncation half-width, s

    def __post_init__(self):
        if self.tau <= 0 or self.tau_c <= 0:
            raise ValueError("tau and tau_c must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")


def super_gaussian(t, tau: float):
    """The untruncated shape exp(-(t/tau)^4 / 2), peak 1, elementwise over t."""
    return np.exp(-0.5 * (t / tau) ** 4)


def effective_area(tau: float, tau_c: float) -> float:
    """Integral of exp(-(t/tau)^4/2) over [-tau_c, tau_c], in seconds.

    Composite trapezoid with steps of at most tau / AREA_STEPS_PER_TAU.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau_c < 0:
        raise ValueError("tau_c must be non-negative")
    if tau_c == 0:
        return 0.0
    dt = tau / AREA_STEPS_PER_TAU
    n = int(np.ceil(2 * tau_c / dt))
    ts = np.linspace(-tau_c, tau_c, n + 1)
    return float(np.trapezoid(super_gaussian(ts, tau), ts))


def amplitude_for_bpulse(theta: float, area: float) -> float:
    """Peak amplitude giving probe-pulse strength theta for the given area.

    A strength whose amplitude overflows float64 raises ValueError.
    """
    if area <= 0:
        raise ValueError("area must be positive")
    with np.errstate(over="ignore"):
        amp = theta / area
    if not np.all(np.isfinite(amp)):
        raise ValueError(f"a probe strength of {np.max(theta) / np.pi:.3g} pi has no finite amplitude")
    return amp


def amplitude_for_beamsplitter(n_segments: int, area: float) -> float:
    """Peak amplitude of the pi/(N+1) beam splitter for the given area."""
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if area <= 0:
        raise ValueError("area must be positive")
    return np.pi / ((n_segments + 1) * area)


@dataclass(frozen=True)
class SampledWaveform:
    """Envelope sampled on a uniform grid, centred at t = 0.

    Samples sit at t_i = -tau_c + i * dt with both endpoints included.
    """

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        s = np.array(self.samples, dtype=float)
        if s.ndim != 1 or not np.all(np.isfinite(s)):
            raise ValueError("samples must be a finite 1-d sequence")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def t_start(self) -> float:
        return -0.5 * (len(self.samples) - 1) * self.dt

    @property
    def t_end(self) -> float:
        return -self.t_start

    def value_at(self, t: float):
        """Linear interpolation between samples; zero outside the span."""
        ts = np.asarray(t, dtype=float)
        x = (ts - self.t_start) / self.dt
        i = np.clip(np.floor(x).astype(int), 0, len(self.samples) - 2)
        frac = x - i
        val = (1 - frac) * self.samples[i] + frac * self.samples[i + 1]
        inside = (ts >= self.t_start) & (ts <= self.t_end)
        return np.where(inside, val, 0.0)


def grid_steps(span: float, dt: float) -> int:
    """Number of equal steps, each at most dt, that cover span.

    span / dt carries rounding (60.00000000000001 for 60 ns at 1 GS/s);
    the tolerance keeps a whole number of samples from gaining a step.
    A count beyond the float64 range raises ValueError.
    """
    with np.errstate(over="ignore"):
        steps = np.ceil(span / dt - 1e-9)
    if not np.isfinite(steps):
        raise ValueError(f"a span of {span:.3g} s in steps of {dt:.3g} s needs {steps} RK4 base steps")
    return max(1, int(steps))


def sample_waveform(pulse: PulseEnvelope, sampling_rate: float = DEFAULT_SAMPLING_RATE) -> SampledWaveform:
    """Sample a pulse envelope on [-tau_c, tau_c], both ends included.

    A pulse that lasts a whole number of generator periods is sampled at
    the generator rate; otherwise the step shrinks to the longest one
    below 1 / rate that divides 2 tau_c. The grid spans the pulse by
    construction, so the shape is evaluated untruncated: a last time that
    rounds past tau_c keeps its sample instead of dropping to zero.
    """
    if sampling_rate <= 0:
        raise ValueError("sampling_rate must be positive")
    span = 2 * pulse.tau_c
    dt = 1.0 / sampling_rate
    n_intervals = grid_steps(span, dt)
    if n_intervals < 8:
        raise ValueError("degenerate sampling: need at least 8 samples across the pulse")
    if abs(n_intervals * dt - span) > 1e-9 * dt:
        dt = span / n_intervals
    ts = -pulse.tau_c + dt * np.arange(n_intervals + 1)
    return SampledWaveform(dt=dt, samples=pulse.omega0 * super_gaussian(ts, pulse.tau))


def stretched_duration(theta, base: float = STRETCH_BASE_NS * 1e-9):
    """Total probe duration in seconds of the 56 ns family, elementwise over theta in [0, 4 pi].

    base (56 ns) up to 3.38 pi; above that the duration is stepped
    through 56..61 ns in six equal theta bins so the area grows and the
    peak amplitude stays within generator headroom. The first bin is
    base itself, so a geometry that passes its own b_duration gets one
    56 ns shape, however that duration was spelt.
    """
    theta = np.asarray(theta, dtype=float)
    outside = ~((theta >= 0) & (theta <= STRETCH_THETA_MAX))
    if np.any(outside):
        raise ValueError(f"theta must be in [0, 4 pi], got {theta[outside].flat[0]}")
    n_bins = STRETCH_MAX_NS - STRETCH_BASE_NS + 1
    width = (STRETCH_THETA_MAX - STRETCH_THETA) / n_bins
    step = np.clip(((theta - STRETCH_THETA) / width).astype(int), 0, n_bins - 1)
    return np.where(step == 0, base, (STRETCH_BASE_NS + step) * 1e-9)


@dataclass(frozen=True)
class PulseGeometry:
    """Per-protocol pulse timing: beam-splitter and probe durations."""

    s_duration: float = DEFAULT_DURATION
    b_duration: float = DEFAULT_DURATION
    sampling_rate: float = DEFAULT_SAMPLING_RATE
    stretch_long_pulses: bool = True

    def b_durations(self, theta):
        """Probe-pulse durations, elementwise over theta; the 56 ns family stretches above 3.38 pi."""
        theta = np.asarray(theta, dtype=float)
        total = np.full(theta.shape, self.b_duration)
        if self.stretch_long_pulses and abs(self.b_duration - 56e-9) < 1e-15:
            long = theta > STRETCH_THETA
            total[long] = stretched_duration(theta[long], self.b_duration)
        return total


def geometry_for_n(n_segments: int) -> PulseGeometry:
    """Default timing: 56 ns probe pulses for N <= 2, 112 ns for longer protocols."""
    if n_segments <= 2:
        return PulseGeometry(b_duration=56e-9)
    return PulseGeometry(b_duration=112e-9)
