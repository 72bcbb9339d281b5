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
    ThermalRates,
    apply_depolarizing,
    check_density_batch,
    epsilon_for_theta,
    lindblad_segment_batch,
    operator_distance_2norm,
    substep_counts,
    thermal_rates,
    thermal_state,
)
from .pulses import PulseGeometry, amplitude_for_beamsplitter, amplitude_for_bpulse, effective_area, geometry_for_n
from .su3 import DensityMatrix, Operator3, PureState, b_pulse, beam_splitter

MODELS = ("ideal", "lindblad", "lindblad_depol")
EXPANSION_MAX_N = 25  # largest N of the expansion_coefficients tables
# Chebyshev nodes per substep group of a probe map: 16 interpolate every
# probe shape to rounding level (12 leave errors up to 3.4e-11). A group
# with fewer distinct amplitudes integrates those instead.
CHEBYSHEV_NODES = 16


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
    """One protocol instance: size, strengths, initial state and model.

    initial=None starts from |0> under the ideal model and from the
    thermal state of decoherence otherwise; pulse_geometry=None takes
    :func:`~ifdsim.pulses.geometry_for_n`. Those defaults belong to
    :func:`run_coherent_ideal` and :func:`dissipative_sweep`.
    """

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

class ProbeMaps:
    """Probe segments as 9 x 9 maps on vec(rho), built once for a set of strengths.

    thetas holds the strengths to serve, in any shape. A probe's key is
    its duration T (:meth:`~ifdsim.pulses.PulseGeometry.b_durations`)
    and its substep group g (:func:`substep_counts`, width w), in which
    its RK4 map is smooth in the amplitude a. A key with fewer distinct
    amplitudes than CHEBYSHEV_NODES maps each probe exactly at its own
    amplitude. Any other key interpolates its map from CHEBYSHEV_NODES
    Chebyshev points of ((g - 1) w, g w] to rounding level (Trefethen,
    Approximation Theory and Approximation Practice, 2013), summed by
    Clenshaw's recurrence. One :func:`lindblad_segment_batch` call on the
    9 basis matrices reads out the core's real map of every (T, amplitude).
    """

    def __init__(self, thetas, geometry: PulseGeometry, rates: ThermalRates, dt: float):
        # T -> area; (T, g) -> (exact nodes, their maps) or (None, Chebyshev coefficients in x)
        self._geometry, self._dt, self._areas, self._maps = geometry, dt, {}, {}
        angles = np.pi * (np.arange(CHEBYSHEV_NODES) + 0.5) / CHEBYSHEV_NODES
        # c_j = (2 / K) sum_k M(a_k) cos(j angle_k), with c_0 halved
        transform = (2.0 / CHEBYSHEV_NODES) * np.cos(np.outer(np.arange(CHEBYSHEV_NODES), angles))
        transform[0] *= 0.5
        keys = []  # (key, nodes), in the order of the segment call's rows
        for key, _, amps, width in self._keys(_distinct(thetas)):
            nodes = _distinct(amps)
            if len(nodes) >= CHEBYSHEV_NODES:
                nodes = (key[1] - 0.5) * width + 0.5 * width * np.cos(angles)
            keys.append((key, nodes))
        amplitudes = np.concatenate([np.empty(0)] + [nodes for _, nodes in keys])[:, None]
        durations = np.concatenate([np.empty(0)] + [np.full(len(nodes), key[0]) for key, nodes in keys])[:, None]
        basis = np.broadcast_to(np.eye(9).reshape(9, 3, 3), (len(amplitudes), 9, 3, 3))
        maps = lindblad_segment_batch(basis, amplitudes, "12", durations, rates, dt).reshape(-1, 9, 9)
        for key, nodes in keys:
            block, maps = maps[: len(nodes)], maps[len(nodes) :]
            exact = len(nodes) < CHEBYSHEV_NODES
            self._maps[key] = (nodes, block) if exact else (None, np.einsum("jk,kab->jab", transform, block))

    def _keys(self, thetas: np.ndarray):
        """Each (T, g) key among the 1-d thetas, with its entries' indices and amplitudes, and w."""
        durations = self._geometry.b_durations(thetas)
        for duration in _distinct(durations):
            if duration not in self._areas:
                self._areas[duration] = effective_area(duration / 4, duration / 2)
            on_shape = np.flatnonzero(durations == duration)
            amps = amplitude_for_bpulse(thetas[on_shape], self._areas[duration])
            groups, width = substep_counts(amps, duration, self._dt)
            for g in _distinct(groups):
                yield (duration, g), on_shape[groups == g], amps[groups == g], width

    def apply(self, vec: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Rows of vec(rho), shape (rows, 9), each through the probe of its strength in thetas (rows,).

        The maps are real, so the result has the dtype of vec.
        """
        out = np.empty_like(vec)
        for key, rows, amps, width in self._keys(thetas):
            nodes, maps = self._maps[key]
            if nodes is None:
                # each amplitude's place in its group's interval, mapped to [-1, 1]
                out[rows] = _clenshaw(vec[rows], 2.0 * (amps[:, None] / width - (key[1] - 0.5)), maps)
                continue
            which = np.searchsorted(nodes, amps)
            if not np.array_equal(nodes[np.minimum(which, len(nodes) - 1)], amps):
                raise ValueError("a strength of an exact key has no map; build ProbeMaps from every strength")
            for k in _distinct(which):
                out[rows[which == k]] = _clenshaw(vec[rows[which == k]], 0.0, maps[k : k + 1])
        return out


def _distinct(values) -> np.ndarray:
    """The sorted distinct values, as np.unique gives them.

    Asking for the counts keeps numpy 2 off the path that imports
    numpy.ma on its first call, about 16 ms of every fresh process.
    """
    return np.unique(values, return_counts=True)[0]


def _clenshaw(v: np.ndarray, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_j T_j(x) (v @ coeffs[j]) for rows v and each row's x, by Clenshaw's recurrence."""
    # A non-finite table or row propagates without a warning; the
    # caller's check reports the row.
    with np.errstate(over="ignore", invalid="ignore"):
        b1 = b2 = 0.0
        x2 = 2.0 * x
        for c in coeffs[:0:-1]:
            # v @ c + 2x b1 - b2, in that order, without temporaries
            t = v @ c
            t += x2 * b1
            t -= b2
            b1, b2 = t, b1
        return v @ coeffs[0] + x * b1 - b2


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

    thetas has shape (batch, n_segments); every row is one realisation,
    and a negative or non-finite theta raises ValueError.
    The beam-splitter segment is the same for every row and every
    position, so its 9 x 9 map on vec(rho) is integrated once and applied
    as one matmul. A probe segment's map depends only on its shape and
    amplitude; :class:`ProbeMaps` builds the sweep's maps once, and probe
    j applies them by its column of strengths, thetas[:, j]. After every
    segment each row is checked to be a density matrix (:func:`check_density_batch`).
    Returns the final density matrices with shape (batch, 3, 3), real
    when the initial state is; with collect_checkpoints=True also a list
    of per-checkpoint copies (initial state plus one entry per applied
    pulse, 2 N + 2 in total).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    batch = thetas.shape[0]
    if thetas.shape[1] != n_segments:
        raise ValueError(f"thetas must have {n_segments} columns")
    if not np.all(np.isfinite(thetas)):
        raise ValueError(f"theta must be finite, got {thetas[~np.isfinite(thetas)][0]}")
    # Each substep group's Chebyshev nodes cover non-negative amplitudes only.
    if np.any(thetas < 0):
        raise ValueError(f"theta must be non-negative, got {thetas[thetas < 0].flat[0]}")
    geo = geometry or geometry_for_n(n_segments)
    rates = thermal_rates(model)
    dt = 1.0 / geo.sampling_rate

    rho0 = initial.matrix if initial is not None else thermal_state(model).matrix
    if not np.any(rho0.imag):
        rho0 = rho0.real
    rho = np.broadcast_to(rho0, (batch, 3, 3)).copy()

    s_amp = amplitude_for_beamsplitter(n_segments, effective_area(geo.s_duration / 4, geo.s_duration / 2))
    # Row k of the map is the image of the k-th basis matrix, so
    # vec(rho) @ s_map applies the segment to every row.
    basis = np.eye(9).reshape(9, 3, 3)
    s_map = lindblad_segment_batch(basis, s_amp, "01", geo.s_duration, rates, dt).reshape(9, 9)
    probes = ProbeMaps(thetas, geo, rates, dt)

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
        rho = probes.apply(rho.reshape(batch, 9), thetas[:, j]).reshape(batch, 3, 3)
        if depolarize:
            rho = apply_depolarizing(rho, epsilon_for_theta(thetas[:, j]))
        finish_segment(f"probe {j + 1} of {n_segments}")
        run_s(j + 1)

    if collect_checkpoints:
        return rho, checkpoints
    return rho


def populations(rho: np.ndarray) -> np.ndarray:
    """diag(rho) of :func:`dissipative_sweep` results, clipped to [0, 1].

    :func:`check_density_batch` accepts the solver's 1e-6 accuracy, so
    a population that is exactly 0 in a closed system can come out just
    below it; OutcomeProbabilities allows only 1e-9.
    """
    return np.clip(np.real(np.diagonal(rho, axis1=-2, axis2=-1)), 0.0, 1.0)


def run_coherent_dissipative(spec: ProtocolSpec) -> OutcomeProbabilities:
    """Full protocol through the master equation; returns diag(rho_final)."""
    if spec.model == "ideal":
        raise ValueError("run_coherent_dissipative needs a dissipative model; use run_coherent_ideal")
    rho = dissipative_sweep(
        np.array([spec.thetas]),
        spec.n_segments,
        spec.decoherence,
        geometry=spec.pulse_geometry,
        depolarize=(spec.model == "lindblad_depol"),
        initial=spec.initial.density() if isinstance(spec.initial, PureState) else spec.initial,
    )
    return OutcomeProbabilities(*populations(rho[0]))


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


def expansion_coefficients(n_segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trigonometric expansion tables for identical-strength protocols.

    For theta_j = theta the final amplitudes are
    alpha_N = sum_k C[k] cos(k theta/2), beta_N = sum_k Cp[k] cos(k theta/2)
    and gamma_N = sum_k Cpp[k] sin(k theta/2), with k = 0..N. The tables
    are the real DFT of :func:`ideal_amplitudes` sampled at the
    m = 2(N + 1) strengths theta_j = 4 pi j / m. Each amplitude is a
    trigonometric polynomial of degree N in theta/2 and N < m/2, so no
    harmonic aliases onto another and the DFT is exact up to rounding.
    Cpp[0] multiplies sin(0) and is written as an exact +0.
    """
    if not 1 <= n_segments <= EXPANSION_MAX_N:
        raise ValueError(f"n_segments must be in 1..{EXPANSION_MAX_N}, got {n_segments}")
    m = 2 * (n_segments + 1)
    j = np.arange(m)
    amps = ideal_amplitudes(n_segments, np.repeat(4.0 * np.pi * j[:, None] / m, n_segments, axis=1))
    # k j is reduced mod m first, so the twiddle angles stay in [0, 2 pi).
    phase = 2.0 * np.pi * (np.outer(np.arange(n_segments + 1), j) % m) / m
    ca, cb = (2.0 / m) * (np.cos(phase) @ amps[:, :2]).T
    cg = (2.0 / m) * (np.sin(phase) @ amps[:, 2])
    ca[0], cb[0], cg[0] = amps[:, 0].mean(), amps[:, 1].mean(), 0.0
    return ca, cb, cg


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
