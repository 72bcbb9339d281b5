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
Every drive is G = sigma^y_kl / 2 on its transition, as in
:mod:`ifdsim.su3`: a fixed drive phase is the gauge diag(1, e^{ia}, e^{ib}),
which commutes with the diagonal start states and the pairwise
dissipator and so moves no population. G is imaginary, so L_H is real,
as is L_D, and so is every map the solver builds; a complex start goes
through the same real maps. Every segment is a linear map on vec(rho),
so :func:`ifdsim.protocol.dissipative_sweep` integrates only the 9 basis
matrices: the beam splitter once per sweep as a 9 x 9 matrix, and every
probe pulse, described by its duration T, in one call per sweep at the
amplitudes of each substep group (:func:`substep_counts`): at its own
amplitudes where the group has fewer than 16, else at 16 Chebyshev nodes
from which every row's map is interpolated.

One RK4 core (:func:`_rk4_maps`) builds every map of a call, one per
distinct amplitude and shape: B g steps (B base steps of the shape, g
substeps each) are stepped as g chunk maps of B steps on identity
columns and composed, the exact, linear case of time-parallel
integration (M. J. Gander, "50 years of time parallel time integration",
2015). The chunks are laid out longest shape first and drop out of the
loop once their steps are done, so a call costs its longest shape's base
steps, not its longest map's B g. The same core gives the sampled-waveform
propagators their maps: :func:`propagate_lindblad` on the same
superoperators, and :func:`propagate_schrodinger` the unitary itself,
with the real generator -i G and no dissipator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import NumericToleranceError
from .pulses import SampledWaveform, grid_steps, super_gaussian
from .su3 import DensityMatrix, Operator3, gellmann

# Exact SI values since 2019: hbar = h / 2 pi and the Boltzmann constant.
HBAR = 6.62607015e-34 / (2 * np.pi)
K_B = 1.380649e-23

# Keep the per-step rotation small enough that classic RK4 stays well
# below the 1e-6 unitarity/trace guarantees (error ~ (amp*dt/2)^5/120).
MAX_PHASE_PER_STEP = 0.05
# Bounds on one segment call's RK4 chunk maps, and on those times its longest B.
MAX_CHUNK_MAPS = 2**15
MAX_MAP_STEPS = 2**22

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


def _occupation(omega: float, temperature: float, transition: str) -> float:
    """n = 1/(exp(x) - 1), x = hbar w / kB T; a kB T that underflows counts as T = 0.

    An x beyond the float64 range gives n = 0. An x so small that n is
    not finite is a ValueError naming the transition.
    """
    k_t = K_B * temperature
    if k_t == 0:
        return 0.0
    with np.errstate(over="ignore", divide="ignore"):
        n = 1.0 / np.expm1(HBAR * omega / k_t)
    if not np.isfinite(n):
        raise ValueError(f"the {transition} transition's thermal occupation is infinite (hbar omega << k_B T)")
    return n


def thermal_rates(model: DecoherenceModel) -> ThermalRates:
    """Detailed-balance rates at the model temperature.

    Occupation numbers n = 1/(exp(hbar w / kB T) - 1) give up rates
    n * Gamma and down rates (n + 1) * Gamma per transition. A rate
    beyond the float64 range is a ValueError naming the first such rate.
    """
    n01 = _occupation(model.omega01, model.temperature, "0-1")
    n12 = _occupation(model.omega12, model.temperature, "1-2")
    with np.errstate(over="ignore"):
        up01 = n01 * model.gamma10
        down10 = (n01 + 1.0) * model.gamma10
        up12 = n12 * model.gamma21
        down21 = (n12 + 1.0) * model.gamma21
        rates = ThermalRates(
            up01=up01,
            down10=down10,
            up12=up12,
            down21=down21,
            gamma_od_01=(down10 + up01) / 2.0 + model.gphi10,
            gamma_od_12=(up12 + down21) / 2.0 + model.gphi21,
            gamma_od_02=(down10 + down21 + up01 + up12) / 2.0 + model.gphi02,
        )
    for name, rate in vars(rates).items():
        if not np.isfinite(rate):
            raise ValueError(f"the {name} rate is beyond the float64 range")
    return rates


def thermal_state(model: DecoherenceModel) -> DensityMatrix:
    """Diagonal Boltzmann state over E = (0, hbar w01, hbar (w01 + w12)); the ground state where kB T underflows."""
    k_t = K_B * model.temperature
    if k_t == 0:
        return DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    energies = HBAR * np.array([0.0, model.omega01, model.omega01 + model.omega12])
    with np.errstate(over="ignore"):
        weights = np.exp(-energies / k_t)
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
    """One sampled drive, on the 0-1 (wave01) or the 1-2 (wave12) transition."""

    wave01: SampledWaveform | None = None
    wave12: SampledWaveform | None = None

    def __post_init__(self):
        if (self.wave01 is None) == (self.wave12 is None):
            raise ValueError("a drive spec holds exactly one of wave01 and wave12")

    @property
    def transition(self) -> str:
        return "01" if self.wave01 is not None else "12"

    @property
    def wave(self) -> SampledWaveform:
        return self.wave01 if self.wave01 is not None else self.wave12


def drive_generator(transition: str) -> Operator3:
    """Dimensionless drive term sigma^y_kl / 2 = i (|l><k| - |k><l|) / 2 for unit amplitude."""
    base = _S01 if transition == "01" else _S12
    return 0.5j * (base.T - base)


def substep_counts(amps, span: float, dt: float) -> tuple[np.ndarray, float]:
    """RK4 substeps per base step for each amplitude over span, and the group width w.

    The span is cut into grid_steps(span, dt) base steps of length h, and
    amplitude a takes g = max(1, ceil(|a| h / MAX_PHASE_PER_STEP)) substeps
    of each, so a and -a, which differ by a gauge, take the same substeps.
    Substep group g therefore holds the amplitudes of magnitude in
    ((g - 1) w, g w], w = MAX_PHASE_PER_STEP / h, and group 1 also a = 0.
    A g above MAX_CHUNK_MAPS raises ValueError.
    """
    base_step = span / grid_steps(span, dt)
    counts = np.ceil(np.abs(np.asarray(amps, dtype=float)) * base_step / MAX_PHASE_PER_STEP)
    if np.any(counts > MAX_CHUNK_MAPS):
        raise ValueError(f"a pulse needs {np.max(counts):.3g} RK4 substeps per base step, more than {MAX_CHUNK_MAPS}")
    return np.maximum(1, counts).astype(int), MAX_PHASE_PER_STEP / base_step


def _rk4_maps(amps, shapes, which, l_h, l_d, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 maps of dy/dt = (a e(t) L_H + L_D) y, one per distinct amplitude and shape.

    amps holds each row's amplitude a. shapes is a sequence of
    (envelope, t0, span), envelope being e(t) with peak 1 vectorised over
    t, and which holds each row's index into shapes: the row runs over
    [t0, t0 + span] of its shape. A span is cut into
    B = grid_steps(span, dt) equal base steps, each split into the
    substeps the row's amplitude needs (:func:`substep_counts`), so a row
    of substep group g takes n = B g steps of h = span / n, with the
    envelope at its own nodes t0 + h i and midpoints.

    A key is one distinct (shape, substep group, amplitude). Its n steps
    run as g blocks, chunk c over steps c B to (c + 1) B, each stepped once
    on d identity columns into its d x d chunk map, and the key's map
    composes its chunk maps 0..g - 1 in order: for a linear segment the
    same discretisation (Havel, J. Math. Phys. 44, 534 (2003)), with
    rounding of order 1e-15. A block reads a e(t) at its nodes and
    midpoints from its own column of two drive tables. One loop steps every
    column, keys longest shape first: step i advances the prefix of columns
    with steps left and a finished column is not touched again, so a call
    costs its longest shape's B steps, and a key's map depends on it alone.

    L_H and L_D are real, and maps[key_of[r]] is row r's float64 map.
    More than MAX_CHUNK_MAPS chunk maps, or MAX_MAP_STEPS chunk maps times
    the longest B, raise ValueError before any array is sized.
    """
    d = len(l_h)

    def rhs(y, drive):
        # (drive * L_H + L_D) on columns y; drive holds each column's a e(t)
        k = l_h @ y
        k *= drive
        k += l_d @ y
        return k

    # Keys: np.unique over (rank, shape, group, amplitude), rank being the
    # shape's place longest first (ties by index), so base steps never increase.
    shape_steps = [grid_steps(span, dt) for _, _, span in shapes]
    order = sorted(range(len(shapes)), key=lambda k: -shape_steps[k])
    group = np.empty(len(amps))
    for k in order:
        on_shape = np.flatnonzero(which == k)
        group[on_shape], _ = substep_counts(amps[on_shape], shapes[k][2], dt)
    keys, key_of = np.unique(np.stack([np.argsort(order)[which], which, group, amps]), axis=1, return_inverse=True)
    key_shape, blocks = keys[1].astype(int), keys[2].astype(int)
    total, longest = int(blocks.sum()), max(shape_steps, default=0)
    if total > MAX_CHUNK_MAPS or total * longest > MAX_MAP_STEPS:
        raise ValueError(f"a segment call of {total:.3g} RK4 chunk maps over {longest:.3g} base steps exceeds the work bound")
    # Block j is chunk chunk[j] of key block_key[j]; a key's blocks are consecutive.
    first_block, block_key = np.cumsum(blocks) - blocks, np.repeat(np.arange(len(blocks)), blocks)
    block_shape, chunk = key_shape[block_key], np.arange(total) - first_block[block_key]

    # Drive tables, one column per block: chunk c of key (shape, g, a) holds
    # a e(t0 + (c B + i) h) and a e(t0 + (c B + i + 1/2) h), h = span / (B g).
    drive_nodes, drive_mids = np.zeros((longest + 1, total)), np.zeros((longest, total))
    base, step = np.empty(total, dtype=int), np.empty(total)
    for k in set(key_shape.tolist()):
        envelope, t0, span = shapes[k]
        b, on = shape_steps[k], np.flatnonzero(block_shape == k)
        groups, of_group = np.unique(blocks[block_key[on]], return_inverse=True)
        steps, sizes = span / (b * groups), b * groups + 1
        base[on], step[on] = b, steps[of_group]
        # one envelope call: each group's nodes t0 + h i (i = 0..B g), then each node + h / 2
        nodes = np.concatenate([t0 + h * np.arange(n) for h, n in zip(steps, sizes)])
        samples = envelope(np.concatenate([nodes, nodes + 0.5 * np.repeat(steps, sizes)]))
        at = (np.cumsum(sizes) - sizes)[of_group] + b * chunk[on] + np.arange(b + 1)[:, None]
        drive_nodes[: b + 1, on] = keys[3][block_key[on]] * samples[at]
        drive_mids[:b, on] = keys[3][block_key[on]] * samples[at[:-1] + len(nodes)]
        del nodes, samples, at  # as large as the tables, and not needed in the loop

    col_steps, col_block = np.repeat(base, d), np.repeat(np.arange(total), d)
    h = np.repeat(step, d)[None, :]
    half, sixth = 0.5 * h, h / 6.0
    # d columns per block: (d, d) @ (d, columns) products are the fast layout.
    y = np.tile(np.eye(d), total)
    # Step i advances the columns with more than i steps: a prefix of
    # the columns, which shrinks each time a step count is reached.
    start = 0
    # An unstable step overflows to inf or nan without a warning, and so
    # may the products of the chunk maps; the caller's check reports the row.
    with np.errstate(over="ignore", invalid="ignore"):
        for stop in sorted(set(col_steps.tolist())):
            m = np.count_nonzero(col_steps > start)
            bm, ym, hm, hh, sm = col_block[:m], y[:, :m], half[:, :m], h[:, :m], sixth[:, :m]
            drive_next = drive_nodes[start, bm]
            for i in range(start, stop):
                drive_node, drive_next = drive_next, drive_nodes[i + 1, bm]
                drive_mid = drive_mids[i, bm]
                k1 = rhs(ym, drive_node)
                k2 = rhs(ym + hm * k1, drive_mid)
                k3 = rhs(ym + hm * k2, drive_mid)
                k4 = rhs(ym + hh * k3, drive_next)
                # y += h / 6 (k1 + 2 (k2 + k3) + k4), in place
                k2 += k3
                k2 *= 2.0
                k1 += k2
                k1 += k4
                k1 *= sm
                ym += k1
            start = stop
        # chunks[b][:, j] is block b's image of the j-th basis vector
        chunks = y.reshape(d, -1, d).transpose(1, 0, 2)
        maps = chunks[first_block]
        for c in range(1, int(blocks.max(initial=0))):
            on = np.flatnonzero(blocks > c)
            maps[on] = chunks[first_block[on] + c] @ maps[on]
    return maps, key_of


def _propagate_sampled(spec: DriveHamiltonianSpec, l_h: np.ndarray, l_d: np.ndarray) -> np.ndarray:
    """The RK4 core's map across the span of the spec's waveform.

    The amplitude is the peak sample and the envelope the interpolated
    samples divided by it, on the waveform's own step.
    """
    wave = spec.wave
    peak = float(np.max(np.abs(wave.samples)))
    scale = peak or 1.0  # a zero waveform has a = 0 and e = 0

    def envelope(t):
        return wave.value_at(t) / scale

    shapes = [(envelope, wave.t_start, wave.t_end - wave.t_start)]
    maps, _ = _rk4_maps(np.array([peak]), shapes, np.zeros(1, dtype=int), l_h, l_d, wave.dt)
    return maps[0]


def propagate_schrodinger(spec: DriveHamiltonianSpec) -> Operator3:
    """Unitary generated by the drive, verified to be unitary to 1e-6.

    The RK4 core integrates i du/dt = H(t) u with the real generator
    -i G (:func:`drive_generator`) and no dissipator; its map is u.
    """
    u = _propagate_sampled(spec, (-1j * drive_generator(spec.transition)).real, np.zeros((3, 3)))
    defect = np.max(np.abs(u.T @ u - np.eye(3)))
    if defect > 1e-6:
        raise NumericToleranceError(f"propagated unitary defect {defect:.2e} exceeds 1e-6; sample more finely")
    return u


def propagate_lindblad(rho0: DensityMatrix, spec: DriveHamiltonianSpec, model: DecoherenceModel) -> DensityMatrix:
    """Dissipative evolution of rho0 across the drive span.

    The RK4 core's map of the superoperators of :func:`liouvillian` acts
    on vec(rho0); the result must pass :func:`check_density_batch`.
    """
    l_h, l_d = liouvillian(spec.transition, thermal_rates(model))
    with np.errstate(over="ignore", invalid="ignore"):
        rho = (_propagate_sampled(spec, l_h, l_d) @ rho0.matrix.reshape(9)).reshape(3, 3)
    check_density_batch(rho, "propagate_lindblad")
    return DensityMatrix(0.5 * (rho + rho.conj().T))


def liouvillian(transition: str, rates: ThermalRates) -> tuple[np.ndarray, np.ndarray]:
    """Superoperators (L_H, L_D) acting on the row-major vec(rho), both real.

    L_H is the unit-amplitude drive term -i[G, .] with G from
    :func:`drive_generator`, L_D the pairwise dissipator, so that
    a L_H vec(rho) + L_D vec(rho) = vec(lindblad_pairwise_rhs(rho, a G, rates)).
    G is imaginary, so L_H is the real part of an exactly real product.
    """
    gen = drive_generator(transition)
    eye = np.eye(3)
    l_h = (-1j * (np.kron(gen, eye) - np.kron(eye, gen.T))).real
    damping, popflow = _dissipator_arrays(rates)
    l_d = np.diag(-damping.ravel())
    diagonal = 4 * np.arange(3)  # positions of rho_00, rho_11, rho_22 in vec(rho)
    l_d[np.ix_(diagonal, diagonal)] += popflow
    return l_h, l_d


def lindblad_segment_batch(
    rho: np.ndarray,
    amplitudes: np.ndarray,
    transition: str,
    duration: float,
    rates: ThermalRates,
    dt: float = 1e-9,
) -> np.ndarray:
    """Propagate a batch of density matrices through one drive segment each.

    rho has shape (..., 3, 3); amplitudes and duration broadcast against
    the leading dimensions. A pulse of duration T is the analytic
    super-Gaussian with tau = T / 4 on [-T / 2, T / 2]. The RK4 core builds
    one real map on vec(rho) per distinct amplitude and duration from
    :func:`liouvillian`, and each matrix goes through its own. The result
    is real when rho has no imaginary part, complex otherwise. A
    non-finite amplitude or a duration that is not positive raises
    ValueError.
    """
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    amps, durations = (np.broadcast_to(np.asarray(v, dtype=float), lead).ravel() for v in (amplitudes, duration))
    if not np.all(np.isfinite(amps)):
        raise ValueError(f"amplitude must be finite, got {amps[~np.isfinite(amps)][0]}")
    if not np.all(durations > 0):
        raise ValueError(f"duration must be positive, got {durations[~(durations > 0)][0]}")
    lengths, which = np.unique(durations, return_inverse=True)
    shapes = [(partial(super_gaussian, tau=t / 4), -t / 2, t) for t in lengths]
    maps, key_of = _rk4_maps(amps, shapes, which, *liouvillian(transition, rates), dt)
    x = rho.reshape(-1, 9)
    if np.iscomplexobj(x) and not np.any(x.imag):
        x = x.real
    # A non-finite map or start stays in its own rows; the caller's check reports them.
    with np.errstate(over="ignore", invalid="ignore"):
        return (maps[key_of] @ x[:, :, None]).reshape(lead + (3, 3))


def check_density_batch(rho: np.ndarray, where: str) -> None:
    """Raise NumericToleranceError unless every row is a density matrix.

    Each row must be finite, keep its trace within 1e-6 of 1 and have no
    eigenvalue of its Hermitian part H below -1e-6. RK4 is not exactly
    positive: a pure state in a closed system reaches -1e-7 after a
    4 pi probe, so the bound is the solver's 1e-6 accuracy, as for the
    trace.

    Most rows are certified in closed form: H + 5e-7 I is positive
    definite exactly when its leading principal minors are positive
    (Sylvester's criterion; Horn and Johnson, Matrix Analysis, 2nd ed.,
    2013, Thm 7.2.5), and then every eigenvalue of H lies above -5e-7.
    The minors are taken as the pivots of H + 5e-7 I = L D L^dagger,
    the ratios of consecutive minors, whose rounding moves the certified
    bound by about 1e-15 on a trace-1 row. Only the rows left
    uncertified go to eigvalsh, which decides and names the row as it
    would over the whole batch.
    """
    rho = np.asarray(rho).reshape(-1, 3, 3)
    if not np.isfinite(rho).all():
        row = int(np.flatnonzero(~np.isfinite(rho).all(axis=(1, 2)))[0])
        raise NumericToleranceError(f"{where}, row {row}: non-finite density matrix")
    drift = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    if np.any(drift > 1e-6):
        row = int(np.argmax(drift))
        raise NumericToleranceError(f"{where}, row {row}: trace drift {drift[row]:.2e} exceeds 1e-6")
    h = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    uncertified = np.flatnonzero(~_positive_pivots(h, 5e-7))
    if len(uncertified) == 0:
        return
    lowest = np.linalg.eigvalsh(h[uncertified])[:, 0]
    if np.any(lowest < -1e-6):
        row = int(np.argmin(lowest))
        raise NumericToleranceError(
            f"{where}, row {uncertified[row]}: eigenvalue {lowest[row]:.2e} below -1e-6"
        )


def _positive_pivots(h: np.ndarray, shift: float) -> np.ndarray:
    """Whether each Hermitian 3 x 3 row of h + shift I is positive definite.

    The pivots of h + shift I = L D L^dagger are d0 = m00,
    d1 = m11 - |m01|^2 / d0 and d2 = m22 - |m02|^2 / d0 - |w|^2 / d1 with
    w = m12 - conj(m01) m02 / d0; they are positive exactly when the
    leading principal minors d0, d0 d1 and d0 d1 d2 are. A zero, overflowed
    or nan pivot leaves its row uncertified.
    """
    m00, m11, m22 = (h[:, k, k].real + shift for k in range(3))
    m01, m02, m12 = h[:, 0, 1], h[:, 0, 2], h[:, 1, 2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d1 = m11 - (m01 * m01.conj()).real / m00
        w = m12 - m01.conj() * m02 / m00
        d2 = m22 - (m02 * m02.conj()).real / m00 - (w * w.conj()).real / d1
        return (m00 > 0) & (d1 > 0) & (d2 > 0)


# ---------------------------------------------------------------------------
# Depolarizing channel
# ---------------------------------------------------------------------------

def depolarizing_kraus(epsilon: float) -> list[Operator3]:
    """The ten Kraus operators of the qutrit depolarizing channel."""
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
