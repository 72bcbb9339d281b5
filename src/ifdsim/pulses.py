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

# Standard pulse family: 56 ns total duration, tau_c = 2 tau.
DEFAULT_TAU = 14e-9
DEFAULT_TAU_C = 28e-9
DEFAULT_SAMPLING_RATE = 1e9

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
    phase: float = -np.pi / 2
    transition: str = "01"

    def __post_init__(self):
        if self.tau <= 0 or self.tau_c <= 0:
            raise ValueError("tau and tau_c must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.transition not in ("01", "12"):
            raise ValueError(f"transition must be '01' or '12', got {self.transition!r}")


def envelope_value(pulse: PulseEnvelope, t: float):
    """Drive amplitude at time t (pulse centred at t = 0), zero outside +-tau_c."""
    t = np.asarray(t, dtype=float)
    shape = np.exp(-0.5 * (t / pulse.tau) ** 4)
    return pulse.omega0 * np.where(np.abs(t) <= pulse.tau_c, shape, 0.0)


def effective_area(tau: float, tau_c: float, dt: float | None = None) -> float:
    """Integral of exp(-(t/tau)^4/2) over [-tau_c, tau_c], in seconds.

    Composite trapezoid; dt defaults to tau/128 which is converged well
    below 1e-4 relative for this envelope.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau_c < 0:
        raise ValueError("tau_c must be non-negative")
    if tau_c == 0:
        return 0.0
    if dt is None:
        dt = tau / 128.0
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > tau / 100.0:
        raise ValueError(f"dt={dt} too coarse for tau={tau} (need dt <= tau/100)")
    n = int(np.ceil(2 * tau_c / dt))
    ts = np.linspace(-tau_c, tau_c, n + 1)
    return float(np.trapezoid(np.exp(-0.5 * (ts / tau) ** 4), ts))


def amplitude_for_bpulse(theta: float, area: float) -> float:
    """Peak amplitude giving probe-pulse strength theta for the given area."""
    if area <= 0:
        raise ValueError("area must be positive")
    return theta / area


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
    phase: float = -np.pi / 2
    transition: str = "01"

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


def sample_waveform(pulse: PulseEnvelope, sampling_rate: float = DEFAULT_SAMPLING_RATE) -> SampledWaveform:
    """Sample a pulse envelope at the generator rate, covering [-tau_c, tau_c]."""
    if sampling_rate <= 0:
        raise ValueError("sampling_rate must be positive")
    n_intervals = int(round(2 * pulse.tau_c * sampling_rate))
    if n_intervals < 8:
        raise ValueError("degenerate sampling: need at least 8 samples across the pulse")
    dt = 1.0 / sampling_rate
    ts = -pulse.tau_c + dt * np.arange(n_intervals + 1)
    return SampledWaveform(
        dt=dt,
        samples=np.asarray(envelope_value(pulse, ts), dtype=float),
        phase=pulse.phase,
        transition=pulse.transition,
    )


def duration_for_theta(theta: float) -> tuple[float, float]:
    """(tau, tau_c) for a probe pulse of strength theta in [0, 4 pi].

    56 ns total duration up to 3.38 pi; above that the total duration is
    stepped through 57..61 ns in six equal theta bins so the area grows
    and the peak amplitude stays within generator headroom. The shape
    ratio tau_c = 2 tau is kept fixed.
    """
    if theta < 0 or theta > STRETCH_THETA_MAX:
        raise ValueError(f"theta must be in [0, 4 pi], got {theta}")
    if theta <= STRETCH_THETA:
        total_ns = STRETCH_BASE_NS
    else:
        n_bins = STRETCH_MAX_NS - STRETCH_BASE_NS + 1
        width = (STRETCH_THETA_MAX - STRETCH_THETA) / n_bins
        step = min(int((theta - STRETCH_THETA) / width), n_bins - 1)
        total_ns = STRETCH_BASE_NS + step
    total = total_ns * 1e-9
    return total / 4.0, total / 2.0


@dataclass(frozen=True)
class PulseGeometry:
    """Per-protocol pulse timing: beam-splitter and probe durations."""

    s_duration: float = 4 * DEFAULT_TAU
    b_duration: float = 4 * DEFAULT_TAU
    sampling_rate: float = DEFAULT_SAMPLING_RATE
    stretch_long_pulses: bool = True

    def s_shape(self) -> tuple[float, float]:
        return self.s_duration / 4.0, self.s_duration / 2.0

    def b_shape(self, theta: float) -> tuple[float, float]:
        """Probe-pulse (tau, tau_c); the 56 ns family stretches above 3.38 pi."""
        base = (self.b_duration / 4.0, self.b_duration / 2.0)
        if (
            self.stretch_long_pulses
            and abs(self.b_duration - 56e-9) < 1e-15
            and theta > STRETCH_THETA
        ):
            return duration_for_theta(theta)
        return base

    def total_duration(self, n_segments: int, thetas=None) -> float:
        """Length of the full sequence: N+1 beam splitters and N probe windows."""
        if thetas is None:
            thetas = [0.0] * n_segments
        b_total = sum(4.0 * self.b_shape(th)[0] for th in thetas)
        return (n_segments + 1) * self.s_duration + b_total


def geometry_for_n(n_segments: int) -> PulseGeometry:
    """Default timing: 56 ns probe pulses for N <= 2, 112 ns for longer protocols."""
    if n_segments <= 2:
        return PulseGeometry(b_duration=56e-9)
    return PulseGeometry(b_duration=112e-9)
