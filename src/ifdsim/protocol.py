"""The coherent detection protocol and the projective quantum-Zeno baseline.

A protocol of size N interleaves N + 1 beam splitters S_N with N probe
pulses of strengths theta_1..theta_N:

    U_N = S_N B(theta_N) S_N ... B(theta_1) S_N

Detector probabilities are the populations of |0> (successful
interaction-free detection), |1> (inconclusive) and |2> (absorption).
The projective baseline measures the |2> population after every segment
instead, collapsing the surviving branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DecoherenceModel,
    apply_depolarizing,
    check_density_batch,
    epsilon_for_theta,
    lindblad_segment_batch,
    operator_distance_2norm,
    thermal_rates,
    thermal_state,
)
from .pulses import PulseGeometry, amplitude_for_beamsplitter, amplitude_for_bpulse, effective_area, geometry_for_n
from .su3 import DensityMatrix, Operator3, PureState, b_pulse, beam_splitter

MODELS = ("ideal", "lindblad", "lindblad_depol")


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Final detector probabilities (p0, p1, p2): floats, or one column per batch."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self):
        for name in ("p0", "p1", "p2"):
            v = np.asarray(getattr(self, name))
            bad = ~((v >= -1e-9) & (v <= 1.0 + 1e-9))
            if np.any(bad):
                raise ValueError(f"{name}={v[bad].flat[0]} is not a probability")

    def as_array(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2])

    @property
    def total(self) -> float:
        return self.p0 + self.p1 + self.p2


@dataclass(frozen=True)
class ProjectiveOutcome:
    """Projective-protocol results with per-segment absorption bookkeeping."""

    p_det: float
    p_inconclusive: float
    p_abs: float
    per_segment_abs: tuple[float, ...]


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol instance: size, strengths, initial state and model."""

    n_segments: int
    thetas: tuple[float, ...]
    initial: PureState | DensityMatrix | None = None
    model: str = "ideal"
    decoherence: DecoherenceModel | None = None
    pulse_geometry: PulseGeometry | None = None

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if len(self.thetas) != self.n_segments:
            raise ValueError(
                f"expected {self.n_segments} pulse strengths, got {len(self.thetas)}"
            )
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model != "ideal" and self.decoherence is None:
            raise ValueError("dissipative models need a DecoherenceModel")

    def geometry(self) -> PulseGeometry:
        return self.pulse_geometry or geometry_for_n(self.n_segments)

    def initial_rho(self) -> DensityMatrix:
        if self.initial is None:
            if self.model == "ideal":
                return PureState.basis(0).density()
            return thermal_state(self.decoherence)
        if isinstance(self.initial, PureState):
            return self.initial.density()
        return self.initial


def ideal_amplitudes(n_segments: int, thetas, initial=(1.0, 0.0, 0.0), checkpoints: bool = False) -> np.ndarray:
    """Real amplitudes of S_N B(theta_N) S_N ... B(theta_1) S_N |initial> for a batch.

    thetas has shape (batch, n_segments), one protocol per row. initial is
    a real state vector, or one per row, and defaults to |0>. S_N and
    B(theta) are real rotations, so each pulse is two elementwise updates
    of (batch,) columns, in the operation order of the 3 x 3 products.
    Returns shape (batch, 3); with checkpoints=True, shape
    (batch, 2 N + 2, 3): the initial state and the state after every
    applied pulse.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != n_segments:
        raise ValueError(f"thetas must have shape (batch, {n_segments}), got {thetas.shape}")
    if not np.all(np.isfinite(thetas)):
        raise ValueError(f"theta must be finite, got {thetas[~np.isfinite(thetas)][0]}")
    s_matrix = beam_splitter(n_segments)
    c, s = s_matrix[0, 0].real, s_matrix[1, 0].real
    ct, st = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    if np.any(np.imag(initial)):
        raise ValueError("the initial state of the ideal recursion must be real")
    a, b, g = np.broadcast_to(np.real(initial), (len(thetas), 3)).T

    states = []

    def keep():
        if checkpoints:
            states.append(np.stack([a, b, g], axis=-1))

    keep()
    a, b = c * a - s * b, s * a + c * b
    keep()
    for j in range(n_segments):
        b, g = ct[:, j] * b - st[:, j] * g, st[:, j] * b + ct[:, j] * g
        keep()
        a, b = c * a - s * b, s * a + c * b
        keep()
    if checkpoints:
        return np.stack(states, axis=1)
    return np.stack([a, b, g], axis=-1)


def coherent_sequence_unitary(n_segments: int, thetas) -> Operator3:
    """U_N = S_N B(theta_N) S_N ... B(theta_1) S_N, column by column."""
    columns = ideal_amplitudes(n_segments, np.tile(thetas, (3, 1)), np.eye(3))
    return columns.T.astype(complex)


def ideal_states(n_segments: int, thetas, initial: PureState = PureState.basis(0)) -> list[PureState]:
    """State after the first beam splitter and after each segment (N + 1 states)."""
    states = ideal_amplitudes(n_segments, [thetas], initial.vector, checkpoints=True)[0, 1::2]
    return [PureState(v) for v in states]


def run_coherent_ideal(spec: ProtocolSpec) -> OutcomeProbabilities:
    """Detector probabilities |<k| U_N |psi_init>|^2 for the closed system."""
    if spec.model != "ideal":
        raise ValueError("run_coherent_ideal requires model='ideal'")
    u = coherent_sequence_unitary(spec.n_segments, spec.thetas)
    if isinstance(spec.initial, DensityMatrix):
        rho = u @ spec.initial.matrix @ u.conj().T
        p = np.real(np.diag(rho))
    else:
        init = spec.initial if spec.initial is not None else PureState.basis(0)
        p = np.abs(u @ init.vector) ** 2
    return OutcomeProbabilities(*p)


# ---------------------------------------------------------------------------
# Dissipative protocol runner
# ---------------------------------------------------------------------------

def dissipative_sweep(
    thetas: np.ndarray,
    n_segments: int,
    model: DecoherenceModel,
    geometry: PulseGeometry | None = None,
    depolarize: bool = True,
    initial: DensityMatrix | None = None,
    collect_checkpoints: bool = False,
):
    """Propagate a batch of protocols through the Lindblad master equation.

    thetas has shape (batch, n_segments); every row is one realisation.
    The beam-splitter segment is the same for every row and every
    position, so its 9 x 9 map on vec(rho) is integrated once and applied
    as one matmul. Probe segments whose strength differs only in
    amplitude share the RK4 grid, so the whole batch advances segment by
    segment. After every segment each row is checked to be a density
    matrix (:func:`check_density_batch`). Returns the final density
    matrices with shape (batch, 3, 3), real when the initial state is;
    with collect_checkpoints=True also a list of per-checkpoint copies
    (initial state plus one entry per applied pulse, 2 N + 2 in total).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    batch = thetas.shape[0]
    if thetas.shape[1] != n_segments:
        raise ValueError(f"thetas must have {n_segments} columns")
    geo = geometry or geometry_for_n(n_segments)
    rates = thermal_rates(model)
    dt = 1.0 / geo.sampling_rate

    rho0 = initial.matrix if initial is not None else thermal_state(model).matrix
    if not np.any(rho0.imag):
        rho0 = rho0.real
    rho = np.broadcast_to(rho0, (batch, 3, 3)).copy()

    s_tau, s_tau_c = geo.s_shape()
    s_amp = amplitude_for_beamsplitter(n_segments, effective_area(s_tau, s_tau_c))
    # Row k of the map is the image of the k-th basis matrix, so
    # vec(rho) @ s_map applies the segment to every row.
    basis = np.eye(9).reshape(9, 3, 3)
    s_map = lindblad_segment_batch(basis, s_amp, "01", s_tau, s_tau_c, rates, dt).reshape(9, 9)

    checkpoints = [rho.copy()] if collect_checkpoints else None

    def finish_segment(where):
        check_density_batch(rho, where)
        if collect_checkpoints:
            checkpoints.append(rho.copy())

    def run_s(j):
        nonlocal rho
        rho = (rho.reshape(batch, 9) @ s_map).reshape(batch, 3, 3)
        finish_segment(f"beam splitter {j + 1} of {n_segments + 1}")

    run_s(0)
    for j in range(n_segments):
        col = thetas[:, j]
        # Group rows by probe-pulse shape; the 56 ns family stretches at
        # large theta, changing tau and the calibration area.
        shapes = np.array([geo.b_shape(t) for t in col])
        for shape in np.unique(shapes, axis=0):
            mask = np.all(shapes == shape, axis=1)
            tau, tau_c = shape
            amps = amplitude_for_bpulse(col[mask], effective_area(tau, tau_c))
            rho[mask] = lindblad_segment_batch(rho[mask], amps, "12", tau, tau_c, rates, dt)
        if depolarize:
            rho = apply_depolarizing(rho, epsilon_for_theta(col))
        finish_segment(f"probe {j + 1} of {n_segments}")
        run_s(j + 1)

    if collect_checkpoints:
        return rho, checkpoints
    return rho


def _sweep_spec(spec: ProtocolSpec, collect_checkpoints: bool = False):
    """dissipative_sweep on the one protocol of spec."""
    if spec.model == "ideal":
        raise ValueError("the master-equation runners need a dissipative model; use run_coherent_ideal")
    return dissipative_sweep(
        np.array([spec.thetas]),
        spec.n_segments,
        spec.decoherence,
        geometry=spec.geometry(),
        depolarize=(spec.model == "lindblad_depol"),
        initial=spec.initial_rho(),
        collect_checkpoints=collect_checkpoints,
    )


def run_coherent_dissipative(spec: ProtocolSpec) -> OutcomeProbabilities:
    """Full protocol through the master equation; returns diag(rho_final)."""
    rho = _sweep_spec(spec)
    return OutcomeProbabilities(*np.real(np.diagonal(rho[0])))


def dissipative_checkpoints(spec: ProtocolSpec) -> list[DensityMatrix]:
    """Density matrix before the sequence and after every applied pulse."""
    _, checkpoints = _sweep_spec(spec, collect_checkpoints=True)
    out = []
    for c in checkpoints:
        m = 0.5 * (c[0] + c[0].conj().T)
        out.append(DensityMatrix(m / np.trace(m).real))
    return out


# ---------------------------------------------------------------------------
# Amplitude recursion and coefficient expansions
# ---------------------------------------------------------------------------

def amplitude_recursion(n_segments: int, thetas) -> list[tuple[float, float, float]]:
    """Real amplitudes (alpha_j, beta_j, gamma_j) after each segment.

    j = 0 is the state right after the first beam splitter,
    (cos(pi/2(N+1)), sin(pi/2(N+1)), 0); each further step applies
    B(theta_{j+1}) followed by S_N. Squares of the final triple are the
    detector probabilities.
    """
    states = ideal_amplitudes(n_segments, [thetas], checkpoints=True)[0, 1::2]
    return [tuple(v) for v in states.tolist()]


def _shift_cos_mul_cos(coeffs: np.ndarray) -> np.ndarray:
    """cos(theta/2) * sum c_k cos(k theta/2), re-expanded in cos(k theta/2)."""
    out = np.zeros(len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k + 1] += 0.5 * c
        out[abs(k - 1)] += 0.5 * c
    return out


def _shift_sin_mul_sin(coeffs: np.ndarray) -> np.ndarray:
    """sin(theta/2) * sum s_k sin(k theta/2), re-expanded in cos(k theta/2)."""
    out = np.zeros(len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        if k == 0:
            continue
        out[k - 1] += 0.5 * c
        out[k + 1] -= 0.5 * c
    return out


def _shift_sin_mul_cos(coeffs: np.ndarray) -> np.ndarray:
    """sin(theta/2) * sum c_k cos(k theta/2), re-expanded in sin(k theta/2)."""
    out = np.zeros(len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k + 1] += 0.5 * c
        if k - 1 >= 1:
            out[k - 1] -= 0.5 * c
        elif k - 1 == -1:
            out[1] += 0.5 * c
    return out


def _shift_cos_mul_sin(coeffs: np.ndarray) -> np.ndarray:
    """cos(theta/2) * sum s_k sin(k theta/2), re-expanded in sin(k theta/2)."""
    out = np.zeros(len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        if k == 0:
            continue
        out[k + 1] += 0.5 * c
        if k - 1 >= 1:
            out[k - 1] += 0.5 * c
    return out


def expansion_coefficients(n_segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trigonometric expansion tables for identical-strength protocols.

    For theta_j = theta the final amplitudes are
    alpha_N = sum_k C[k] cos(k theta/2), beta_N = sum_k Cp[k] cos(k theta/2)
    and gamma_N = sum_k Cpp[k] sin(k theta/2), with k = 0..N. Entries
    outside the valid index range are explicit zeros.
    """
    if not 1 <= n_segments <= 25:
        raise ValueError(f"n_segments must be in 1..25, got {n_segments}")
    phi = np.pi / (2.0 * (n_segments + 1))
    c, s = np.cos(phi), np.sin(phi)
    ca = np.array([c])  # alpha_0 = cos(phi), constant in theta
    cb = np.array([s])
    cg = np.array([0.0])
    for _ in range(n_segments):
        new_a = c * np.pad(ca, (0, 1)) - s * _shift_cos_mul_cos(cb) + s * _shift_sin_mul_sin(cg)
        new_b = s * np.pad(ca, (0, 1)) + c * _shift_cos_mul_cos(cb) - c * _shift_sin_mul_sin(cg)
        new_g = _shift_sin_mul_cos(cb) + _shift_cos_mul_sin(cg)
        ca, cb, cg = new_a, new_b, new_g
    return ca, cb, cg


def reconstruct_amplitudes(coeffs, theta: float) -> tuple[float, float, float]:
    """Evaluate the expansion tables at one common pulse strength."""
    ca, cb, cg = coeffs
    k = np.arange(len(ca))
    cos_basis = np.cos(k * theta / 2.0)
    sin_basis = np.sin(k * theta / 2.0)
    return float(ca @ cos_basis), float(cb @ cos_basis), float(cg @ sin_basis)


# ---------------------------------------------------------------------------
# Projective baseline
# ---------------------------------------------------------------------------

def run_projective(n_segments: int, thetas) -> ProjectiveOutcome:
    """Quantum-Zeno variant: measure the |2> population after every segment.

    Probabilities are accumulated exactly (no sampling): the absorbed
    branch is recorded and the surviving branch renormalised before the
    next beam splitter.
    """
    thetas = tuple(thetas)
    if len(thetas) != n_segments:
        raise ValueError(f"expected {n_segments} pulse strengths, got {len(thetas)}")
    s = beam_splitter(n_segments)
    v = PureState.basis(0).vector.copy()
    survival = 1.0
    per_segment = []
    for theta in thetas:
        v = b_pulse(theta) @ (s @ v)
        p2 = float(np.abs(v[2]) ** 2)
        per_segment.append(survival * p2)
        survival *= 1.0 - p2
        v[2] = 0.0
        norm = np.linalg.norm(v)
        if norm > 0:
            v = v / norm
    v = s @ v
    p_det = survival * float(np.abs(v[0]) ** 2)
    p_inc = survival * float(np.abs(v[1]) ** 2)
    return ProjectiveOutcome(
        p_det=p_det,
        p_inconclusive=p_inc,
        p_abs=sum(per_segment),
        per_segment_abs=tuple(per_segment),
    )


def projective_closed_form(n_segments: int) -> tuple[float, float]:
    """(p_det, p_abs) of the projective protocol at full strength theta = pi.

    p_det = cos^{2(N+1)}(pi/2(N+1)) and p_abs sums the independent
    per-segment absorption probabilities.
    """
    phi = np.pi / (2.0 * (n_segments + 1))
    c2 = np.cos(phi) ** 2
    p_det = c2 ** (n_segments + 1)
    p_abs = np.sin(phi) ** 2 * sum(c2**n for n in range(n_segments))
    return float(p_det), float(p_abs)


# ---------------------------------------------------------------------------
# Structure checks
# ---------------------------------------------------------------------------

def large_n_residual(n_segments: int) -> float:
    """2-norm distance of U_N(pi..pi) from |0><0| + (-i sigma^y_12)^N.

    The comparator is 4-periodic in N since (-i sigma^y_12)^2 = -I_12.
    """
    u = coherent_sequence_unitary(n_segments, [np.pi] * n_segments)
    block = np.zeros((3, 3), dtype=complex)
    block[0, 0] = 1.0
    m = np.zeros((3, 3), dtype=complex)
    m[1, 2] = -1.0
    m[2, 1] = 1.0  # -i sigma^y_12
    comparator = block + np.linalg.matrix_power(m, n_segments)
    return operator_distance_2norm(u, comparator)


def segment_absorption_compare(x: float, y: float, n_segments: int) -> tuple[float, float]:
    """Absorption probability of one full-strength segment, coherent vs projective.

    The coherent branch enters as sqrt(1-x^2-y^2)|0> + x|1> + y|2>; the
    projective branch has been collapsed onto sqrt(1-x^2)|0> + x|1>.
    """
    if x < 0 or y < 0 or x * x + y * y > 1.0 + 1e-12:
        raise ValueError("need x, y >= 0 with x^2 + y^2 <= 1")
    phi = np.pi / (2.0 * (n_segments + 1))
    coh = (np.sqrt(max(0.0, 1.0 - x * x - y * y)) * np.sin(phi) + x * np.cos(phi)) ** 2
    proj = (np.sqrt(1.0 - x * x) * np.sin(phi) + x * np.cos(phi)) ** 2
    return float(coh), float(proj)
