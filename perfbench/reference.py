"""Reference computations written apart from `ifdsim`.

Nothing here imports the program. The dissipative reference integrates
the transition-pairwise master equation stated in the `ifdsim.dynamics`
docstring with scipy's DOP853 at tight tolerances, so it shares neither
the RK4 stepping, the substep grouping nor the trapezoid pulse area of
the program. The ideal reference is the real 3-vector recursion
S_N B(theta_N) S_N ... B(theta_1) S_N |0>, vectorised over rows.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.constants import hbar as HBAR, k as K_B
from scipy.integrate import quad, solve_ivp

# Device presets as documented (plain Hz for frequencies, 1/s for rates).
PRESETS = {
    "sample1": dict(f01=5.01e9, f12=4.65e9, gamma10=0.72e6, gamma21=1.55e6,
                    gphi10=0.40e6, gphi21=0.60e6, gphi02=1.00e6, temperature=0.050),
    "sample2": dict(f01=7.20e9, f12=6.85e9, gamma10=0.29e6, gamma21=1.15e6,
                    gphi10=0.18e6, gphi21=1.82e6, gphi02=1.70e6, temperature=0.050),
}

DEPOL_PER_PI = 1.8e-3
STRETCH_FROM_PI = 3.38
STRETCH_NS = (56, 61)


def seed_point(rng_seed: int, n: int, m: int) -> int:
    """The README's sub-seed rule: first 8 bytes of SHA-256, big endian."""
    digest = hashlib.sha256(f"ifdsim:{rng_seed}:{n}:{m}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def random_strengths(rng_seed: int, n: int, m: int) -> np.ndarray:
    """Uniform strengths in [0, pi) of realisation (n, m)."""
    return np.random.default_rng(seed_point(rng_seed, n, m)).uniform(0.0, np.pi, n)


# ---------------------------------------------------------------------------
# Dissipative reference
# ---------------------------------------------------------------------------

def _bose(omega: float, temperature: float) -> float:
    return 1.0 / math.expm1(HBAR * omega / (K_B * temperature))


class Device:
    """Rates and thermal start state of one preset, by detailed balance."""

    def __init__(self, preset: str):
        p = PRESETS[preset]
        w01, w12 = 2 * math.pi * p["f01"], 2 * math.pi * p["f12"]
        n01, n12 = _bose(w01, p["temperature"]), _bose(w12, p["temperature"])
        self.up01, self.down10 = n01 * p["gamma10"], (n01 + 1) * p["gamma10"]
        self.up12, self.down21 = n12 * p["gamma21"], (n12 + 1) * p["gamma21"]
        # The pairwise model: coherence k-l decays at half the up and down
        # rates of transition k-l (of both transitions for 0-2) plus the
        # measured dephasing of that pair.
        g01 = (self.up01 + self.down10) / 2 + p["gphi10"]
        g12 = (self.up12 + self.down21) / 2 + p["gphi21"]
        g02 = (self.up01 + self.down10 + self.up12 + self.down21) / 2 + p["gphi02"]
        self.decay = np.array([[0.0, g01, g02], [g01, 0.0, g12], [g02, g12, 0.0]])
        boltz = np.exp(-HBAR * np.array([0.0, w01, w01 + w12]) / (K_B * p["temperature"]))
        self.rho0 = np.diag(boltz / boltz.sum()).astype(complex)

    def rhs(self, rho: np.ndarray, h: np.ndarray) -> np.ndarray:
        out = -1j * (h @ rho - rho @ h) - self.decay * rho
        r00, r11, r22 = rho[0, 0], rho[1, 1], rho[2, 2]
        flow01 = self.down10 * r11 - self.up01 * r00
        flow12 = self.down21 * r22 - self.up12 * r11
        out[0, 0] += flow01
        out[1, 1] += flow12 - flow01
        out[2, 2] -= flow12
        return out


def _sigma_y(k: int, l: int) -> np.ndarray:
    s = np.zeros((3, 3), dtype=complex)
    s[k, l], s[l, k] = -1j, 1j
    return s


SY01, SY12 = _sigma_y(0, 1), _sigma_y(1, 2)


def pulse_area(duration_s: float) -> float:
    """Area of exp(-(t/tau)^4 / 2) over [-tau_c, tau_c], tau_c = 2 tau = duration / 2."""
    tau = duration_s / 4
    return quad(lambda t: math.exp(-0.5 * (t / tau) ** 4), -2 * tau, 2 * tau,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def probe_duration_ns(theta: float, base_ns: float, stretch: bool = True) -> float:
    """56 ns probes above 3.38 pi take 56..61 ns in six equal strength bins."""
    lo, hi = STRETCH_NS
    if not stretch or base_ns != lo or theta <= STRETCH_FROM_PI * math.pi:
        return base_ns
    width = (4 - STRETCH_FROM_PI) * math.pi / (hi - lo + 1)
    return lo + min(int((theta - STRETCH_FROM_PI * math.pi) / width), hi - lo)


def _drive(rho: np.ndarray, device: Device, gen: np.ndarray, angle: float, duration_s: float) -> np.ndarray:
    peak = angle / pulse_area(duration_s) if angle else 0.0
    tau, tau_c = duration_s / 4, duration_s / 2

    def f(t, y):
        h = 0.5 * peak * math.exp(-0.5 * (t / tau) ** 4) * gen
        return device.rhs(y.reshape(3, 3), h).ravel()

    sol = solve_ivp(f, (-tau_c, tau_c), rho.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14, first_step=tau_c / 200)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(3, 3)


def dissipative_probabilities(thetas, preset: str, s_ns: float, b_ns: float, stretch: bool = True) -> np.ndarray:
    """(p0, p1, p2) after S B(theta_N) S ... B(theta_1) S from the thermal state.

    Every probe is followed by depolarizing (the `lindblad_depol` model).
    """
    device = Device(preset)
    n = len(thetas)
    rho = device.rho0.copy()
    s_angle, s_dur = math.pi / (n + 1), s_ns * 1e-9
    rho = _drive(rho, device, SY01, s_angle, s_dur)
    for theta in thetas:
        rho = _drive(rho, device, SY12, float(theta), probe_duration_ns(theta, b_ns, stretch) * 1e-9)
        eps = min(1.0, DEPOL_PER_PI * theta / math.pi)
        rho = (1 - eps) * rho + eps * np.eye(3) / 3
        rho = _drive(rho, device, SY01, s_angle, s_dur)
    return np.real(np.diag(rho))


# ---------------------------------------------------------------------------
# Ideal (closed-system) reference
# ---------------------------------------------------------------------------

def ideal_amplitudes(n: int, thetas: np.ndarray, checkpoints: bool = False):
    """Real amplitudes of S_N B(theta_N) S_N ... S_N |0> for rows of strengths.

    thetas has shape (rows, n). Returns (rows, 3), or with checkpoints a
    list of (rows, 3) arrays: after the first S and after each segment.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    half = math.pi / (2 * (n + 1))
    c, s = math.cos(half), math.sin(half)
    a = np.full(thetas.shape[0], c)
    b = np.full(thetas.shape[0], s)
    g = np.zeros(thetas.shape[0])
    out = [np.stack([a, b, g], axis=1)]
    for j in range(n):
        ct, st = np.cos(thetas[:, j] / 2), np.sin(thetas[:, j] / 2)
        b, g = ct * b - st * g, st * b + ct * g
        a, b = c * a - s * b, s * a + c * b
        out.append(np.stack([a, b, g], axis=1))
    return out if checkpoints else out[-1]


def ideal_probabilities(n: int, thetas: np.ndarray) -> np.ndarray:
    return ideal_amplitudes(n, thetas) ** 2
