"""Drive generators, decoherence rates, and one RK4 core for all propagation.

Internally hbar = 1: Hamiltonians are expressed in rad/s and times in
seconds. Temperature enters only once, when converting transition
frequencies to thermal occupation numbers.

Dissipation follows the transition-pairwise master equation

    drho/dt = -i[H, rho]
              + Gamma_{1->0} rho_11 (s00 - s11) + Gamma_{0->1} rho_00 (s11 - s00)
              + Gamma_{2->1} rho_22 (s11 - s22) + Gamma_{1->2} rho_11 (s22 - s11)
              - sum_{k != l} gamma_kl rho_kl |k><l|

with thermal up/down rates tied by detailed balance and off-diagonal
decay rates gamma_kl built from the measured transition dephasings.

The batched solver behind every dissipative scenario,
:func:`lindblad_segment_batch`, integrates this equation in Liouville
space (superoperators as in Havel, J. Math. Phys. 44, 534 (2003); the
vectorised Liouvillian of QuTiP, Comput. Phys. Commun. 183, 1760
(2012)). rho is the row-major 9-vector vec(rho)[3 k + l] = rho_kl, so
vec(A rho B) = (A kron B^T) vec(rho). One segment is
d vec(rho)/dt = (a e(t) L_H + L_D) vec(rho): a fixed unit-amplitude drive
term L_H = -i (G kron I - I kron G^T), scaled by the pulse amplitude a and
envelope e(t), plus the constant dissipator L_D (:func:`liouvillian`).
At the default drive phase -pi/2 the generator G is imaginary, so L_H is
real, and L_D is always real; thermal, ground and level-1 starts are real
too, so RK4 runs in real arithmetic. Complex states and other phases go
through the same code in complex arithmetic. Every beam splitter of a
protocol is the same linear map, so
:func:`ifdsim.protocol.dissipative_sweep` integrates it once per sweep as
a 9 x 9 matrix and applies it with one matmul.

The same RK4 loop also runs the sampled-waveform propagators:
:func:`propagate_lindblad` on the same superoperators, and
:func:`propagate_schrodinger` on state vectors with generator -i G and
no dissipator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NumericToleranceError
from .pulses import SampledWaveform, grid_steps
from .su3 import DensityMatrix, Operator3

# Exact SI values since 2019: hbar = h / 2 pi and the Boltzmann constant.
HBAR = 6.62607015e-34 / (2 * np.pi)
K_B = 1.380649e-23

# Keep the per-step rotation small enough that classic RK4 stays well
# below the 1e-6 unitarity/trace guarantees (error ~ (amp*dt/2)^5/120).
MAX_PHASE_PER_STEP = 0.05

_S01 = np.zeros((3, 3), dtype=complex)
_S01[0, 1] = 1.0
_S12 = np.zeros((3, 3), dtype=complex)
_S12[1, 2] = 1.0


# ---------------------------------------------------------------------------
# Decoherence model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoherenceModel:
    """Transition frequencies, zero-temperature decay and dephasing rates.

    Frequencies are angular (rad/s), rates are plain 1/s, temperature is
    in kelvin.
    """

    omega01: float
    omega12: float
    gamma10: float
    gamma21: float
    gphi10: float
    gphi21: float
    gphi02: float
    temperature: float

    def __post_init__(self):
        if self.omega01 <= 0 or self.omega12 <= 0:
            raise ValueError("transition frequencies must be positive")
        for name in ("gamma10", "gamma21", "gphi10", "gphi21", "gphi02"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


# Device parameter sets from standard characterisation measurements.
SAMPLE_1 = DecoherenceModel(
    omega01=2 * np.pi * 5.01e9,
    omega12=2 * np.pi * 4.65e9,
    gamma10=0.72e6,
    gamma21=1.55e6,
    gphi10=0.40e6,
    gphi21=0.60e6,
    gphi02=1.00e6,
    temperature=0.050,
)

SAMPLE_2 = DecoherenceModel(
    omega01=2 * np.pi * 7.20e9,
    omega12=2 * np.pi * 6.85e9,
    gamma10=0.29e6,
    gamma21=1.15e6,
    gphi10=0.18e6,
    gphi21=1.82e6,
    gphi02=1.70e6,
    temperature=0.050,
)

PRESETS = {"sample1": SAMPLE_1, "sample2": SAMPLE_2}


@dataclass(frozen=True)
class ThermalRates:
    """Thermal excitation/decay rates plus off-diagonal decay rates (1/s)."""

    up01: float
    down10: float
    up12: float
    down21: float
    gamma_od_01: float
    gamma_od_12: float
    gamma_od_02: float


def _occupation(omega: float, temperature: float) -> float:
    if temperature == 0:
        return 0.0
    return 1.0 / np.expm1(HBAR * omega / (K_B * temperature))


def thermal_rates(model: DecoherenceModel) -> ThermalRates:
    """Detailed-balance rates at the model temperature.

    Occupation numbers n = 1/(exp(hbar w / kB T) - 1) give up rates
    n * Gamma and down rates (n + 1) * Gamma per transition.
    """
    n01 = _occupation(model.omega01, model.temperature)
    n12 = _occupation(model.omega12, model.temperature)
    up01 = n01 * model.gamma10
    down10 = (n01 + 1.0) * model.gamma10
    up12 = n12 * model.gamma21
    down21 = (n12 + 1.0) * model.gamma21
    return ThermalRates(
        up01=up01,
        down10=down10,
        up12=up12,
        down21=down21,
        gamma_od_01=(down10 + up01) / 2.0 + model.gphi10,
        gamma_od_12=(up12 + down21) / 2.0 + model.gphi21,
        gamma_od_02=(down10 + down21 + up01 + up12) / 2.0 + model.gphi02,
    )


def thermal_state(model: DecoherenceModel) -> DensityMatrix:
    """Diagonal Boltzmann state over E = (0, hbar w01, hbar (w01 + w12))."""
    if model.temperature == 0:
        return DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    energies = HBAR * np.array([0.0, model.omega01, model.omega01 + model.omega12])
    weights = np.exp(-energies / (K_B * model.temperature))
    weights /= weights.sum()
    return DensityMatrix(np.diag(weights).astype(complex))


def _dissipator_arrays(rates: ThermalRates) -> tuple[np.ndarray, np.ndarray]:
    """(off-diagonal damping matrix, population flow matrix)."""
    damping = np.array(
        [
            [0.0, rates.gamma_od_01, rates.gamma_od_02],
            [rates.gamma_od_01, 0.0, rates.gamma_od_12],
            [rates.gamma_od_02, rates.gamma_od_12, 0.0],
        ]
    )
    popflow = np.array(
        [
            [-rates.up01, rates.down10, 0.0],
            [rates.up01, -(rates.down10 + rates.up12), rates.down21],
            [0.0, rates.up12, -rates.down21],
        ]
    )
    return damping, popflow


def lindblad_pairwise_rhs(rho: np.ndarray, h: np.ndarray, rates: ThermalRates) -> np.ndarray:
    """Right-hand side of the pairwise master equation.

    Works on a single 3x3 matrix or on a (..., 3, 3) batch.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    damping, popflow = _dissipator_arrays(rates)
    out = -1j * (h @ rho - rho @ h)
    out -= damping * rho
    pops = np.einsum("kl,...ll->...k", popflow.astype(complex), rho)
    idx = np.arange(3)
    out[..., idx, idx] += pops
    return out


# ---------------------------------------------------------------------------
# General Lindblad form and the per-level dephasing decomposition
# ---------------------------------------------------------------------------

def per_level_dephasing(model: DecoherenceModel) -> np.ndarray:
    """Per-level dephasing weights (c0, c1, c2) for the jump-form equation.

    Chosen so that sum_k (c_k/2) D[|k><k|] together with the four thermal
    relaxation channels reproduces the pairwise off-diagonal rates
    exactly. Individual level dephasings are not measurable on their own
    and the solution may have negative entries; in that case the jump
    form is an algebraic rewriting rather than a CPTP decomposition and
    the pairwise form remains the physical one.
    """
    r = thermal_rates(model)
    # Off-diagonal decay produced by the relaxation channels alone.
    relax01 = (r.down10 + r.up01 + r.up12) / 2.0
    relax12 = (r.down10 + r.up12 + r.down21) / 2.0
    relax02 = (r.up01 + r.down21) / 2.0
    target = 4.0 * np.array(
        [
            r.gamma_od_01 - relax01,
            r.gamma_od_12 - relax12,
            r.gamma_od_02 - relax02,
        ]
    )
    # (c_k + c_l)/4 per pair (01, 12, 02).
    pairs = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    return np.linalg.solve(pairs, target)


def _lindblad_dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    opd = op.conj().T
    anti = opd @ op
    return op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)


def lindblad_general_rhs(rho: np.ndarray, h: np.ndarray, model: DecoherenceModel) -> np.ndarray:
    """Jump-operator form: -i[H, rho] + relaxation + per-level dephasing.

    Agrees with :func:`lindblad_pairwise_rhs` entrywise by construction
    of :func:`per_level_dephasing`.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    r = thermal_rates(model)
    out = -1j * (h @ rho - rho @ h)
    jumps = (
        (r.down10, _S01),  # |0><1|
        (r.up01, _S01.conj().T),
        (r.down21, _S12),  # |1><2|
        (r.up12, _S12.conj().T),
    )
    for rate, op in jumps:
        if rate != 0.0:
            out += rate * _lindblad_dissipator(op, rho)
    for level, weight in enumerate(per_level_dephasing(model)):
        proj = np.zeros((3, 3), dtype=complex)
        proj[level, level] = 1.0
        out += 0.5 * weight * _lindblad_dissipator(proj, rho)
    return out


# ---------------------------------------------------------------------------
# Drive and propagation: one RK4 core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveHamiltonianSpec:
    """One sampled drive, on the 0-1 (wave01) or the 1-2 (wave12) transition.

    The waveform's own transition must match its keyword. The drive
    phase is the waveform's.
    """

    wave01: SampledWaveform | None = None
    wave12: SampledWaveform | None = None

    def __post_init__(self):
        if (self.wave01 is None) == (self.wave12 is None):
            raise ValueError("a drive spec holds exactly one of wave01 and wave12")
        if self.wave.transition != self.transition:
            raise ValueError(
                f"a {self.wave.transition} waveform passed as wave{self.transition}; "
                f"pass it as wave{self.wave.transition}"
            )

    @property
    def transition(self) -> str:
        return "01" if self.wave01 is not None else "12"

    @property
    def wave(self) -> SampledWaveform:
        return self.wave01 if self.wave01 is not None else self.wave12


def drive_generator(transition: str, phase: float = -np.pi / 2) -> Operator3:
    """Dimensionless drive term (e^{i phase} |k><l| + h.c.)/2 for unit amplitude."""
    base = _S01 if transition == "01" else _S12
    return 0.5 * (np.exp(1j * phase) * base + np.exp(-1j * phase) * base.conj().T)


def _rk4_rows(x, amps, envelope, l_h, l_d, t0: float, span: float, dt: float) -> np.ndarray:
    """RK4 on dy/dt = (a e(t) L_H + L_D) y for every row y of x, over [t0, t0 + span].

    x has shape (rows, d), amps holds each row's amplitude a, and
    envelope is e(t) with peak 1, vectorised over t. The span is cut into
    grid_steps(span, dt) equal base steps, each split into the substeps
    the row's amplitude needs; rows are integrated in substep groups, so
    each result is independent of how the batch is composed. The result
    has the common dtype of x, L_H and L_D.
    """
    dtype = np.result_type(x, l_h, l_d)
    l_h, l_d = l_h.astype(dtype), l_d.astype(dtype)
    n_base = grid_steps(span, dt)
    base_step = span / n_base

    def rhs(y, drive):
        # (drive * L_H + L_D) on columns y; drive holds each column's a e(t)
        k = l_h @ y
        k *= drive
        k += l_d @ y
        return k

    out = np.empty_like(x, dtype=dtype)
    subcounts = np.array([max(1, int(np.ceil(a * base_step / MAX_PHASE_PER_STEP))) for a in amps], dtype=int)
    for n_sub in np.unique(subcounts):
        rows = subcounts == n_sub
        n_steps = n_base * int(n_sub)
        step = span / n_steps
        nodes = t0 + step * np.arange(n_steps + 1)
        env_node = envelope(nodes)
        env_mid = envelope(nodes[:-1] + 0.5 * step)
        a = amps[rows][None, :]
        # One column per row: (d, d) @ (d, rows) products are the fast layout.
        y = np.array(x[rows].T, dtype=dtype, order="C")
        # An unstable step overflows to inf or nan without a warning;
        # the caller's check reports the row.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n_steps):
                k1 = rhs(y, a * env_node[i])
                k2 = rhs(y + (0.5 * step) * k1, a * env_mid[i])
                k3 = rhs(y + (0.5 * step) * k2, a * env_mid[i])
                k4 = rhs(y + step * k3, a * env_node[i + 1])
                # y += step / 6 (k1 + 2 (k2 + k3) + k4), in place
                k2 += k3
                k2 *= 2.0
                k1 += k2
                k1 += k4
                k1 *= step / 6.0
                y += k1
        out[rows] = y.T
    return out


def _propagate_sampled(spec: DriveHamiltonianSpec, x: np.ndarray, l_h: np.ndarray, l_d: np.ndarray) -> np.ndarray:
    """The RK4 core across the span of the spec's waveform.

    The amplitude is the peak sample and the envelope the interpolated
    samples divided by it, on the waveform's own step.
    """
    wave = spec.wave
    peak = float(np.max(np.abs(wave.samples)))
    scale = peak or 1.0  # a zero waveform has a = 0 and e = 0

    def envelope(t):
        return wave.value_at(t) / scale

    amps = np.full(len(x), peak)
    return _rk4_rows(x, amps, envelope, l_h, l_d, wave.t_start, wave.t_end - wave.t_start, wave.dt)


def propagate_schrodinger(spec: DriveHamiltonianSpec) -> Operator3:
    """Unitary generated by the drive, verified to be unitary to 1e-6.

    The RK4 core integrates i du/dt = H(t) u on the three basis vectors,
    with generator -i G (:func:`drive_generator`) and no dissipator.
    """
    gen = -1j * drive_generator(spec.transition, spec.wave.phase)
    u = _propagate_sampled(spec, np.eye(3, dtype=complex), gen, np.zeros((3, 3))).T
    defect = np.max(np.abs(u.conj().T @ u - np.eye(3)))
    if defect > 1e-6:
        raise NumericToleranceError(f"propagated unitary defect {defect:.2e} exceeds 1e-6; sample more finely")
    return u


def propagate_lindblad(rho0: DensityMatrix, spec: DriveHamiltonianSpec, model: DecoherenceModel) -> DensityMatrix:
    """Dissipative evolution of rho0 across the drive span.

    The RK4 core integrates the superoperators of :func:`liouvillian`;
    the result must pass :func:`check_density_batch`.
    """
    l_h, l_d = liouvillian(spec.transition, thermal_rates(model), spec.wave.phase)
    rho = _propagate_sampled(spec, np.reshape(rho0.matrix, (1, 9)), l_h, l_d).reshape(3, 3)
    check_density_batch(rho, "propagate_lindblad")
    return DensityMatrix(0.5 * (rho + rho.conj().T))


def liouvillian(transition: str, rates: ThermalRates, phase: float = -np.pi / 2) -> tuple[np.ndarray, np.ndarray]:
    """Superoperators (L_H, L_D) acting on the row-major vec(rho).

    L_H is the unit-amplitude drive term -i[G, .] with G from
    :func:`drive_generator`, L_D the pairwise dissipator, so that
    a L_H vec(rho) + L_D vec(rho) = vec(lindblad_pairwise_rhs(rho, a G, rates)).
    L_D is real, and L_H is real at the default phase -pi/2.
    """
    gen = drive_generator(transition, phase)
    eye = np.eye(3)
    l_h = -1j * (np.kron(gen, eye) - np.kron(eye, gen.T))
    damping, popflow = _dissipator_arrays(rates)
    l_d = np.diag(-damping.ravel())
    diagonal = 4 * np.arange(3)  # positions of rho_00, rho_11, rho_22 in vec(rho)
    l_d[np.ix_(diagonal, diagonal)] += popflow
    # cos(-pi/2) rounds to 6e-17, not 0. Entries of the unit-amplitude
    # L_H are O(1), so parts below 1e-15 are rounding and are dropped:
    # that makes L_H exactly real at the default phase.
    l_h.real[np.abs(l_h.real) < 1e-15] = 0.0
    l_h.imag[np.abs(l_h.imag) < 1e-15] = 0.0
    if not np.any(l_h.imag):
        l_h = l_h.real
    return l_h, l_d


def lindblad_segment_batch(
    rho: np.ndarray,
    amplitudes: np.ndarray,
    transition: str,
    tau: float,
    tau_c: float,
    rates: ThermalRates,
    dt: float = 1e-9,
    phase: float = -np.pi / 2,
) -> np.ndarray:
    """Propagate a batch of density matrices through one drive segment.

    rho has shape (..., 3, 3) and amplitudes broadcasts against the
    leading dimensions. The RK4 core runs on vec(rho) across
    [-tau_c, tau_c] with the analytic super-Gaussian envelope at the
    stage times and the superoperators of :func:`liouvillian`. The result
    is real when rho and L_H are, complex otherwise.
    """
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    amps = np.broadcast_to(np.asarray(amplitudes, dtype=float), lead).ravel()
    l_h, l_d = liouvillian(transition, rates, phase)
    x = rho.reshape(-1, 9)
    if np.iscomplexobj(x) and not np.any(x.imag) and not np.iscomplexobj(l_h):
        x = x.real

    def envelope(t):
        return np.exp(-0.5 * (t / tau) ** 4)

    return _rk4_rows(x, amps, envelope, l_h, l_d, -tau_c, 2.0 * tau_c, dt).reshape(lead + (3, 3))


def check_density_batch(rho: np.ndarray, where: str) -> None:
    """Raise NumericToleranceError unless every row is a density matrix.

    Each row must be finite, keep its trace within 1e-6 of 1 and have no
    eigenvalue of its Hermitian part below -1e-6. RK4 is not exactly
    positive: a pure state in a closed system reaches -1e-7 after a
    4 pi probe, so the bound is the solver's 1e-6 accuracy, as for the
    trace.
    """
    rho = np.asarray(rho).reshape(-1, 3, 3)
    finite = np.all(np.isfinite(rho), axis=(1, 2))
    if not np.all(finite):
        row = int(np.flatnonzero(~finite)[0])
        raise NumericToleranceError(f"{where}, row {row}: non-finite density matrix")
    drift = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    if np.any(drift > 1e-6):
        row = int(np.argmax(drift))
        raise NumericToleranceError(f"{where}, row {row}: trace drift {drift[row]:.2e} exceeds 1e-6")
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(1, 2)))[:, 0]
    if np.any(lowest < -1e-6):
        row = int(np.argmin(lowest))
        raise NumericToleranceError(f"{where}, row {row}: eigenvalue {lowest[row]:.2e} below -1e-6")


# ---------------------------------------------------------------------------
# Depolarizing channel
# ---------------------------------------------------------------------------

def depolarizing_kraus(epsilon: float) -> list[Operator3]:
    """The ten Kraus operators of the qutrit depolarizing channel."""
    from .su3 import gellmann

    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    root6 = np.sqrt(epsilon / 6.0)
    root = np.sqrt(epsilon)
    ops = [root6 * gellmann(i) for i in (1, 2, 4, 5, 6, 7)]
    ops.append(root / 3.0 * gellmann(3))
    ops.append(root / 6.0 * (np.sqrt(3) * gellmann(8) - gellmann(3)))
    ops.append(root / 6.0 * (np.sqrt(3) * gellmann(8) + gellmann(3)))
    ops.append(np.sqrt(1.0 - 8.0 * epsilon / 9.0) * np.eye(3, dtype=complex))
    return ops


def apply_depolarizing(rho: np.ndarray, epsilon) -> np.ndarray:
    """rho -> epsilon I/3 + (1 - epsilon) rho on a batch of shape (..., 3, 3).

    epsilon broadcasts against the leading dimensions: one probability
    per matrix, each in [0, 1].
    """
    eps = np.asarray(epsilon, dtype=float)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if np.any(bad):
        raise ValueError(f"epsilon must be in [0, 1], got {eps[bad].flat[0]}")
    eps = eps[..., None, None]
    return eps * np.eye(3) / 3.0 + (1.0 - eps) * rho


# Mixing probability of a pi probe pulse, from a best fit to long sequences.
DEPOL_EPSILON_PER_PI = 1.8e-3


def epsilon_for_theta(theta):
    """Depolarizing probability of a probe pulse, linear in its strength.

    theta is one strength or an array of them, all non-negative.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise ValueError(f"theta must be non-negative, got {theta[theta < 0].flat[0]}")
    return np.minimum(1.0, DEPOL_EPSILON_PER_PI * theta / np.pi)


def operator_distance_2norm(u: Operator3, v: Operator3) -> float:
    """Largest singular value of u - v (at most 2 for unitaries)."""
    return float(np.linalg.svd(np.asarray(u) - np.asarray(v), compute_uv=False)[0])
