import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as k_b

from ifdsim import NumericToleranceError, dynamics
from ifdsim.dynamics import (
    HBAR,
    K_B,
    SAMPLE_1,
    SAMPLE_2,
    DecoherenceModel,
    DriveHamiltonianSpec,
    apply_depolarizing,
    check_density_batch,
    depolarizing_kraus,
    drive_generator,
    epsilon_for_theta,
    lindblad_general_rhs,
    lindblad_pairwise_rhs,
    lindblad_segment_batch,
    liouvillian,
    operator_distance_2norm,
    per_level_dephasing,
    propagate_lindblad,
    propagate_schrodinger,
    substep_counts,
    thermal_rates,
    thermal_state,
)
from ifdsim import protocol, scenarios
from ifdsim.config import ExperimentConfig
from ifdsim.protocol import ProbeMaps, dissipative_sweep
from ifdsim.pulses import PulseEnvelope, PulseGeometry, effective_area, grid_steps, sample_waveform, super_gaussian
from ifdsim.su3 import DensityMatrix, PureState, b_pulse, beam_splitter, subspace_pauli

TAU, TAU_C = 14e-9, 28e-9
DURATION = 2 * TAU_C


def closed_model(duration_rates=0.0):
    return DecoherenceModel(
        omega01=2 * np.pi * 5e9,
        omega12=2 * np.pi * 4.6e9,
        gamma10=duration_rates,
        gamma21=duration_rates,
        gphi10=0.0,
        gphi21=0.0,
        gphi02=0.0,
        temperature=0.0,
    )


def random_density(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# ---------------------------------------------------------------------------
# Thermal rates and states
# ---------------------------------------------------------------------------

def test_thermal_rates_zero_temperature():
    m = closed_model(duration_rates=0.0)
    m = DecoherenceModel(**{**m.__dict__, "gamma10": 0.7e6, "gphi10": 0.4e6})
    r = thermal_rates(m)
    assert r.up01 == 0.0 and r.up12 == 0.0
    assert r.down10 == pytest.approx(0.7e6)
    assert r.gamma_od_01 == pytest.approx(0.7e6 / 2 + 0.4e6)


def test_si_constants_equal_scipy_bit_for_bit():
    assert HBAR == hbar
    assert K_B == k_b


def test_detailed_balance_ratio():
    r = thermal_rates(SAMPLE_1)
    boltzmann = np.exp(-hbar * SAMPLE_1.omega01 / (k_b * SAMPLE_1.temperature))
    assert r.up01 / r.down10 == pytest.approx(boltzmann, rel=1e-10)
    assert r.up01 / r.down10 == pytest.approx(8.2e-3, abs=2e-4)


def test_thermal_state_sample1():
    pops = thermal_state(SAMPLE_1).populations()
    assert pops == pytest.approx([0.9917, 0.0082, 0.0001], abs=5e-4)


def test_thermal_state_limits():
    assert thermal_state(closed_model()).populations() == pytest.approx([1.0, 0.0, 0.0])
    hot = DecoherenceModel(**{**SAMPLE_1.__dict__, "temperature": 1e6})
    assert thermal_state(hot).populations() == pytest.approx([1 / 3] * 3, abs=1e-6)


def test_model_validation():
    with pytest.raises(ValueError):
        DecoherenceModel(**{**SAMPLE_1.__dict__, "temperature": -0.1})
    with pytest.raises(ValueError):
        DecoherenceModel(**{**SAMPLE_1.__dict__, "gamma10": -1.0})


# ---------------------------------------------------------------------------
# Drive specification
# ---------------------------------------------------------------------------

def test_drive_spec_holds_exactly_one_drive():
    wf01 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C), sampling_rate=1e9)
    wf12 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C), sampling_rate=2e9)
    with pytest.raises(ValueError):
        DriveHamiltonianSpec()
    with pytest.raises(ValueError):
        DriveHamiltonianSpec(wave01=wf01, wave12=wf12)
    assert DriveHamiltonianSpec(wave12=wf12).transition == "12"


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

def test_schrodinger_zero_drive_is_identity():
    wf = sample_waveform(PulseEnvelope(omega0=0.0, tau=TAU, tau_c=TAU_C))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave01=wf))
    assert np.max(np.abs(u - np.eye(3))) < 1e-10


def test_schrodinger_reproduces_probe_pulse():
    area = effective_area(TAU, TAU_C)
    wf = sample_waveform(PulseEnvelope(omega0=np.pi / area, tau=TAU, tau_c=TAU_C))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave12=wf))
    assert operator_distance_2norm(u, b_pulse(np.pi)) < 0.01


def test_schrodinger_beam_splitter_deviation_small():
    area = effective_area(TAU, TAU_C)
    wf = sample_waveform(PulseEnvelope(omega0=np.pi / (2 * area), tau=TAU, tau_c=TAU_C))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave01=wf))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-6
    assert operator_distance_2norm(u, beam_splitter(1)) < 0.02


def test_lindblad_closed_limit_matches_schrodinger():
    area = effective_area(TAU, TAU_C)
    wf = sample_waveform(PulseEnvelope(omega0=np.pi / area, tau=TAU, tau_c=TAU_C))
    spec = DriveHamiltonianSpec(wave12=wf)
    rho0 = DensityMatrix(random_density(3))
    u = propagate_schrodinger(spec)
    direct = u @ rho0.matrix @ u.conj().T
    lind = propagate_lindblad(rho0, spec, closed_model())
    assert np.max(np.abs(lind.matrix - direct)) < 1e-8


def test_lindblad_free_decay_matches_exponential():
    model = DecoherenceModel(**{**closed_model().__dict__, "gamma10": 0.5e6})
    duration = 400e-9
    wf = sample_waveform(PulseEnvelope(omega0=0.0, tau=duration / 4, tau_c=duration / 2))
    rho = propagate_lindblad(PureState.basis(1).density(), DriveHamiltonianSpec(wave01=wf), model)
    expected_p0 = 1.0 - np.exp(-0.5e6 * duration)
    assert rho.populations()[0] == pytest.approx(expected_p0, abs=1e-6)


@pytest.mark.parametrize(
    "transition, theta, start, bound",
    # The thermal start barely populates level 1, so the 1-2 probe meets the
    # 1e-6 budget; states the pulse moves strongly see the interpolation error.
    [("12", np.pi, "thermal", 1e-6), ("01", np.pi / 2, "thermal", 3e-5), ("12", np.pi, "level1", 3e-5)],
)
def test_sampled_lindblad_agrees_with_segment_core(transition, theta, start, bound):
    # Both run the same RK4 core; they differ only in the envelope, linear
    # interpolation between 1 ns samples against the analytic super-Gaussian.
    amp = theta / effective_area(TAU, TAU_C)
    wf = sample_waveform(PulseEnvelope(omega0=amp, tau=TAU, tau_c=TAU_C))
    rho0 = thermal_state(SAMPLE_1) if start == "thermal" else PureState.basis(1).density()
    sampled = propagate_lindblad(rho0, DriveHamiltonianSpec(**{"wave" + transition: wf}), SAMPLE_1)
    analytic = lindblad_segment_batch(rho0.matrix[None], amp, transition, DURATION, thermal_rates(SAMPLE_1))[0]
    assert np.max(np.abs(sampled.matrix - analytic)) <= bound


def test_propagate_lindblad_guard_raises():
    # A decay rate of 1e11/s makes RK4 at 1 ns steps diverge.
    model = DecoherenceModel(**{**SAMPLE_1.__dict__, "gamma10": 1e11})
    wf = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C))
    with pytest.raises(NumericToleranceError, match="^propagate_lindblad, row 0: non-finite density matrix$"):
        propagate_lindblad(thermal_state(SAMPLE_1), DriveHamiltonianSpec(wave01=wf), model)


def test_lindblad_trace_and_positivity_through_protocol():
    area = effective_area(TAU, TAU_C)
    rho = thermal_state(SAMPLE_1).matrix[None]
    rates = thermal_rates(SAMPLE_1)
    for transition, amp in (("01", np.pi / (2 * area)), ("12", np.pi / area), ("01", np.pi / (2 * area))):
        rho = lindblad_segment_batch(rho, np.array([amp]), transition, DURATION, rates)
        assert abs(np.trace(rho[0]).real - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(0.5 * (rho[0] + rho[0].conj().T))) > -1e-7


def test_rk4_step_halving_converges():
    area = effective_area(TAU, TAU_C)
    rho0 = thermal_state(SAMPLE_1).matrix[None]
    rates = thermal_rates(SAMPLE_1)
    amp = np.array([np.pi / area])
    coarse = lindblad_segment_batch(rho0, amp, "12", DURATION, rates, dt=1e-9)
    fine = lindblad_segment_batch(rho0, amp, "12", DURATION, rates, dt=0.5e-9)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_strong_pulse_keeps_unitarity_via_substeps():
    tau, tau_c = 61e-9 / 4, 61e-9 / 2
    area = effective_area(tau, tau_c)
    wf = sample_waveform(PulseEnvelope(omega0=4 * np.pi / area, tau=tau, tau_c=tau_c))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave12=wf))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-6


# ---------------------------------------------------------------------------
# General vs pairwise form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [SAMPLE_1, SAMPLE_2], ids=["sample1", "sample2"])
def test_general_equals_pairwise(model):
    rng = np.random.default_rng(11)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 1e6 * (h + h.conj().T)
    rates = thermal_rates(model)
    for seed in range(6):
        rho = random_density(seed)
        a = lindblad_pairwise_rhs(rho, h, rates)
        b = lindblad_general_rhs(rho, h, model)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-10 * scale


def test_general_rhs_trivial_limits():
    model = closed_model()
    rho = random_density(4)
    h = 1e6 * np.diag([0.0, 1.0, 2.0]).astype(complex)
    rhs = lindblad_general_rhs(rho, h, model)
    commutator = -1j * (h @ rho - rho @ h)
    assert np.max(np.abs(rhs - commutator)) < 1e-10


def test_dephasing_only_keeps_populations():
    model = DecoherenceModel(**{**closed_model().__dict__, "gphi10": 1e6, "gphi21": 2e6, "gphi02": 2.5e6})
    rho = random_density(5)
    rhs = lindblad_general_rhs(rho, np.zeros((3, 3)), model)
    assert np.max(np.abs(np.diag(rhs))) < 1e-6  # diagonal untouched


def test_per_level_dephasing_reproduces_pairwise_rates():
    weights = per_level_dephasing(SAMPLE_1)
    r = thermal_rates(SAMPLE_1)
    relax = {
        (0, 1): (r.down10 + r.up01 + r.up12) / 2,
        (1, 2): (r.down10 + r.up12 + r.down21) / 2,
        (0, 2): (r.up01 + r.down21) / 2,
    }
    targets = {(0, 1): r.gamma_od_01, (1, 2): r.gamma_od_12, (0, 2): r.gamma_od_02}
    for (k, l), total in targets.items():
        assert relax[(k, l)] + (weights[k] + weights[l]) / 4 == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# Depolarizing channel
# ---------------------------------------------------------------------------

def test_kraus_zero_strength():
    ops = depolarizing_kraus(0.0)
    assert len(ops) == 10
    assert np.allclose(ops[-1], np.eye(3))
    for op in ops[:-1]:
        assert np.max(np.abs(op)) == 0.0


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.5, 1.0])
def test_kraus_completeness(eps):
    total = sum(op.conj().T @ op for op in depolarizing_kraus(eps))
    assert np.max(np.abs(total - np.eye(3))) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
def test_kraus_action_matches_closed_form(eps):
    rho = random_density(7)
    out = sum(op @ rho @ op.conj().T for op in depolarizing_kraus(eps))
    closed = eps * np.eye(3) / 3 + (1 - eps) * rho
    assert np.max(np.abs(out - closed)) < 1e-12


def test_apply_depolarizing():
    rho = np.stack([random_density(seed) for seed in range(4)])
    eps = np.array([0.0, 0.25, 0.5, 1.0])
    out = apply_depolarizing(rho, eps)
    assert out.shape == (4, 3, 3)
    for row, e in enumerate(eps):
        assert np.max(np.abs(out[row] - (e * np.eye(3) / 3 + (1 - e) * rho[row]))) < 1e-15
    pure = np.diag([1.0, 0.0, 0.0])[None]
    assert np.allclose(np.diagonal(apply_depolarizing(pure, [0.5])[0]), [2 / 3, 1 / 6, 1 / 6])
    for bad in (1.5, -0.1):
        with pytest.raises(ValueError):
            apply_depolarizing(rho, np.array([0.0, 0.1, bad, 0.2]))
    with pytest.raises(ValueError):
        depolarizing_kraus(-0.1)


def test_epsilon_for_theta():
    thetas = np.array([np.pi, 0.0, np.pi / 2, 1e6])
    eps = epsilon_for_theta(thetas)
    assert eps == pytest.approx([1.8e-3, 0.0, 9e-4, 1.0])
    assert eps.tolist() == [epsilon_for_theta(t) for t in thetas]
    assert eps[1] == 0.0 and eps[3] == 1.0
    with pytest.raises(ValueError):
        epsilon_for_theta(np.array([0.5, -1.0, 2.0]))
    with pytest.raises(ValueError):
        epsilon_for_theta(-1.0)


def test_operator_distance():
    u = beam_splitter(4)
    assert operator_distance_2norm(u, u) == 0.0
    assert operator_distance_2norm(np.eye(3), -np.eye(3)) == pytest.approx(2.0)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    assert operator_distance_2norm(a, b) == pytest.approx(np.linalg.norm(a - b, ord=2))


def test_drive_generator_default_phase_is_y_like():
    # every drive is sigma^y / 2 on its transition, exactly
    assert np.array_equal(drive_generator("01"), 0.5 * subspace_pauli("y", 0, 1))
    assert np.array_equal(drive_generator("12"), 0.5 * subspace_pauli("y", 1, 2))


# ---------------------------------------------------------------------------
# Liouville-space core
# ---------------------------------------------------------------------------

rates_hz = st.floats(min_value=0.0, max_value=5e6, allow_nan=False)


def random_hermitian_density(seed, complex_=True):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_ else 0.0)
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    gammas=st.tuples(rates_hz, rates_hz, rates_hz, rates_hz, rates_hz),
    temperature=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.3)),
    transition=st.sampled_from(["01", "12"]),
    amplitude=st.floats(min_value=0.0, max_value=5e8),
)
@settings(max_examples=80, deadline=None)
def test_liouvillian_matches_pairwise_and_general_rhs(seed, gammas, temperature, transition, amplitude):
    model = DecoherenceModel(2 * np.pi * 5e9, 2 * np.pi * 4.6e9, *gammas, temperature)
    rates = thermal_rates(model)
    rho = random_hermitian_density(seed)
    h = amplitude * drive_generator(transition)
    l_h, l_d = liouvillian(transition, rates)
    assert l_h.dtype == float and l_d.dtype == float
    vec = (amplitude * l_h @ rho.ravel() + l_d @ rho.ravel()).reshape(3, 3)
    pairwise = lindblad_pairwise_rhs(rho, h, rates)
    general = lindblad_general_rhs(rho, h, model)
    scale = max(1.0, float(np.max(np.abs(pairwise))))
    assert np.max(np.abs(vec - pairwise)) <= 1e-12 * scale
    assert np.max(np.abs(vec - general)) <= 1e-12 * scale


@pytest.mark.parametrize("complex_", [False, True])
def test_cached_map_matches_segment(complex_):
    rates = thermal_rates(SAMPLE_2)
    area = effective_area(TAU, TAU_C)
    amp = np.pi / (26 * area)
    basis = np.eye(9).reshape(9, 3, 3)
    s_map = lindblad_segment_batch(basis, amp, "01", DURATION, rates).reshape(9, 9)
    batch = np.array([random_hermitian_density(seed, complex_) for seed in range(6)])
    direct = lindblad_segment_batch(batch, amp, "01", DURATION, rates)
    mapped = (batch.reshape(-1, 9) @ s_map).reshape(-1, 3, 3)
    assert np.max(np.abs(mapped - direct)) <= 1e-13


def test_segment_dtype_follows_data():
    rates = thermal_rates(SAMPLE_1)
    amp = np.pi / effective_area(TAU, TAU_C)
    real_start = thermal_state(SAMPLE_1).matrix[None]  # complex dtype, zero imaginary part
    assert lindblad_segment_batch(real_start, amp, "12", DURATION, rates).dtype == float
    complex_start = random_hermitian_density(2)[None]
    assert np.iscomplexobj(lindblad_segment_batch(complex_start, amp, "12", DURATION, rates))


def test_dissipative_sweep_complex_initial_matches_single_rows():
    rho0 = random_hermitian_density(9)
    assert np.max(np.abs(rho0 - np.diag(np.diag(rho0)))) > 0.1
    # two probe shapes: the 56 ns family stretches above 3.38 pi
    thetas = np.pi * np.array([[0.2, 3.9], [1.0, 0.3], [3.5, 3.95], [0.0, 1.0]])
    geometry = PulseGeometry(b_duration=56e-9)
    initial = DensityMatrix(rho0)
    batch = dissipative_sweep(thetas, 2, SAMPLE_1, geometry=geometry, initial=initial)
    assert np.iscomplexobj(batch)
    for row, theta in zip(batch, thetas):
        single = dissipative_sweep(theta[None], 2, SAMPLE_1, geometry=geometry, initial=initial)[0]
        assert np.max(np.abs(row - single)) <= 1e-14


@pytest.mark.parametrize("rate", [0.7e9, 1e7, 1e5])
def test_segment_covers_pulse_when_rate_does_not_divide_it(rate):
    rates = thermal_rates(SAMPLE_1)
    amp = np.pi / effective_area(TAU, TAU_C)
    rho0 = random_hermitian_density(4)[None]
    for transition in ("01", "12"):
        reference = lindblad_segment_batch(rho0, amp, transition, DURATION, rates, dt=1e-9)
        other = lindblad_segment_batch(rho0, amp, transition, DURATION, rates, dt=1.0 / rate)
        assert np.max(np.abs(other - reference)) < 1e-6


@pytest.mark.parametrize("transition", ["01", "12"])
def test_segment_batch_negative_amplitude_substeps_on_magnitude(transition):
    # -a is the gauge diag(1, -1, 1) of +a, so it takes the substeps of
    # |a|, and a diagonal start comes out with the same populations to the
    # bit. Substepped on the signed a, -3e9 fell into group 1, and the 1-2
    # drive took level 1 to populations (0.026, 1.060, -0.086).
    rates = thermal_rates(SAMPLE_1)
    amps = np.array([3e8, 3e9])
    assert np.array_equal(substep_counts(-amps, 56e-9, 1e-9)[0], substep_counts(amps, 56e-9, 1e-9)[0])
    starts = np.array([np.diag(p) for p in ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5])])
    for amp in amps:
        plus, minus = (lindblad_segment_batch(starts, a, transition, 56e-9, rates) for a in (amp, -amp))
        check_density_batch(minus, "negative amplitude")
        np.testing.assert_array_equal(np.diagonal(minus, axis1=1, axis2=2), np.diagonal(plus, axis1=1, axis2=2))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_segment_batch_mixes_shapes_bit_for_bit(complex_):
    # Rows of 56, 57, 60.2, 60.7 and 61 ns probes (the last three tie at
    # 61 base steps) at a = 0 and in substep groups 1..8, three rows with
    # different starts per amplitude, so that rows of one (amplitude,
    # shape) share their chunk maps, all interleaved in one call: the rows
    # of each (amplitude, shape), of each shape and each row alone come out
    # as from a call of their own, and permuting the rows permutes the
    # result.
    rates, rng = thermal_rates(SAMPLE_1), np.random.default_rng(3)
    amps, durations = [], []
    for duration_ns in (56, 57, 60.2, 60.7, 61):
        duration = duration_ns * 1e-9
        _, width = substep_counts([0.0], duration, 1e-9)
        groups = np.arange(1, 9)
        amps.append(np.concatenate([[0.0], (groups - 0.5) * width]))
        assert np.array_equal(substep_counts(amps[-1], duration, 1e-9)[0], np.concatenate([[1], groups]))
        durations.append(np.full(len(amps[-1]), duration))
    amps, durations = np.repeat(np.concatenate(amps), 3), np.repeat(np.concatenate(durations), 3)
    mix = rng.permutation(len(amps))
    amps, durations = amps[mix], durations[mix]
    rho = np.array([random_hermitian_density(seed, complex_) for seed in range(len(amps))])
    batch = lindblad_segment_batch(rho, amps, "12", durations, rates)
    assert np.iscomplexobj(batch) == complex_
    for duration in np.unique(durations):
        rows = durations == duration
        np.testing.assert_array_equal(batch[rows], lindblad_segment_batch(rho[rows], amps[rows], "12", duration, rates))
    for amp, duration in set(zip(amps.tolist(), durations.tolist())):
        rows = (amps == amp) & (durations == duration)
        assert np.count_nonzero(rows) == 3
        np.testing.assert_array_equal(batch[rows], lindblad_segment_batch(rho[rows], amp, "12", duration, rates))
    for row, start, amp, duration in zip(batch, rho, amps, durations):
        np.testing.assert_array_equal(row, lindblad_segment_batch(start, amp, "12", duration, rates))
    perm = rng.permutation(len(amps))
    np.testing.assert_array_equal(
        lindblad_segment_batch(rho[perm], amps[perm], "12", durations[perm], rates), batch[perm]
    )


def sequential_rk4(rho, amp, duration, rates, dt=1e-9):
    """Classic RK4 on one row, its B g steps one after another.

    The nodes t0 + h i and midpoints (t0 + h i) + h / 2 are those of
    the segment solver, with t0 = -duration / 2, B = grid_steps(duration, dt)
    and g the row's substep group.
    """
    l_h, l_d = liouvillian("12", rates)
    (group,), _ = substep_counts([amp], duration, dt)
    n = grid_steps(duration, dt) * int(group)
    h = duration / n
    nodes = -duration / 2 + h * np.arange(n + 1)
    tau = duration / 4
    drive, drive_mid = amp * super_gaussian(nodes, tau), amp * super_gaussian(nodes[:-1] + 0.5 * h, tau)

    def f(y, a):
        return a * (l_h @ y) + l_d @ y

    y = rho.reshape(9)
    for i in range(n):
        k1 = f(y, drive[i])
        k2 = f(y + 0.5 * h * k1, drive_mid[i])
        k3 = f(y + 0.5 * h * k2, drive_mid[i])
        k4 = f(y + h * k3, drive[i + 1])
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y.reshape(3, 3)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_chunked_segment_matches_sequential_rk4(complex_):
    # Rows of substep groups 1, 2 and 8 on 56 and 61 ns probes, in one
    # call: composing a row's chunk maps agrees with stepping it through
    # all of its steps in sequence.
    rates = thermal_rates(SAMPLE_1)
    amps, durations = [], []
    for duration_ns in (56, 61):
        duration = duration_ns * 1e-9
        groups = np.array([1, 2, 8])
        _, width = substep_counts([0.0], duration, 1e-9)
        amps.append((groups - 0.5) * width)
        assert np.array_equal(substep_counts(amps[-1], duration, 1e-9)[0], groups)
        durations.append(np.full(len(groups), duration))
    amps, durations = np.concatenate(amps), np.concatenate(durations)
    rho = np.array([random_hermitian_density(seed, complex_) for seed in range(len(amps))])
    batch = lindblad_segment_batch(rho, amps, "12", durations, rates)
    for row, start, amp, duration in zip(batch, rho, amps, durations):
        assert np.max(np.abs(row - sequential_rk4(start, amp, duration, rates))) <= 1e-13


def test_later_group_failures_are_reported_by_row():
    # Rows of substep groups 2 and 8 at 56 ns. A non-finite start stays
    # in its row, though a healthy row shares its chunk maps; decay far
    # past RK4's stability grows every row finite at 1e10/s and overflows
    # at 1e11/s. Each is reported with the guard's usual message and no
    # warning, and a batch of no rows still runs.
    _, width = substep_counts([0.0], DURATION, 1e-9)
    amps = np.array([1.5, 7.5, 7.5, 1.5]) * width
    assert np.array_equal(substep_counts(amps, DURATION, 1e-9)[0], [2, 8, 8, 2])
    rho = np.array([random_hermitian_density(seed, complex_=False) for seed in range(len(amps))])
    rho[2, 1, 1] = np.nan
    rates = thermal_rates(SAMPLE_1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lindblad_segment_batch(rho, amps, "12", DURATION, rates)
        check_density_batch(out[[0, 1, 3]], "probe 1 of 2")
        with pytest.raises(NumericToleranceError, match=r"^probe 1 of 2, row 2: non-finite density matrix$"):
            check_density_batch(out, "probe 1 of 2")
        for gamma, message in ((1e10, r"trace drift \S+ exceeds 1e-6"), (1e11, "non-finite density matrix")):
            stiff = thermal_rates(DecoherenceModel(**{**SAMPLE_1.__dict__, "gamma10": gamma}))
            out = lindblad_segment_batch(rho[[0, 1]], amps[[0, 1]], "12", DURATION, stiff)
            with pytest.raises(NumericToleranceError, match=rf"^probe 1 of 2, row \d: {message}$"):
                check_density_batch(out, "probe 1 of 2")
        empty = lindblad_segment_batch(np.zeros((0, 3, 3)), np.zeros(0), "12", DURATION, rates)
        assert empty.shape == (0, 3, 3)
        check_density_batch(empty, "probe 1 of 2")


def probe_map_error(duration_ns, complex_, model, seed, amps, exact):
    """Largest distance of ProbeMaps rows from direct RK4 at amplitudes near amps.

    The probes get strengths amps * area, so each amplitude is within
    one ulp of its target. Every substep group must hold fewer distinct
    amplitudes than CHEBYSHEV_NODES if exact, else at least as many.
    """
    geometry = PulseGeometry(b_duration=duration_ns * 1e-9, stretch_long_pulses=False)
    duration = float(geometry.b_durations(0.0))
    area = effective_area(duration / 4, duration / 2)
    thetas = amps * area
    amps = thetas / area
    groups, _ = substep_counts(amps, duration, 1e-9)
    for g in np.unique(groups):
        assert (len(np.unique(amps[groups == g])) < protocol.CHEBYSHEV_NODES) == exact
    rho = np.array([random_hermitian_density(seed + i, complex_) for i in range(len(amps))])
    rates = thermal_rates(model)
    direct = lindblad_segment_batch(rho, amps, "12", duration, rates)
    probes = ProbeMaps(thetas[:, None], geometry, rates, 1e-9)
    mapped = probes.apply(rho.reshape(-1, 9), thetas).reshape(-1, 3, 3)
    assert np.iscomplexobj(mapped) == complex_
    return np.max(np.abs(mapped - direct))


def probe_groups(duration_ns):
    """Substep groups 1..top a probe of this shape reaches up to 4 pi, and the group width."""
    tau_c = duration_ns * 1e-9 / 2
    (top,), width = substep_counts([4 * np.pi / effective_area(tau_c / 2, tau_c)], 2 * tau_c, 1e-9)
    return np.arange(1, top + 1), width


@pytest.mark.parametrize("duration_ns", [56, 61, 112])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@given(
    model=st.sampled_from([SAMPLE_1, SAMPLE_2]),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=2, deadline=None)
def test_interpolated_probe_map_matches_segment(duration_ns, complex_, model, fraction, seed):
    # Every substep group up to 4 pi, each with CHEBYSHEV_NODES drawn
    # interior amplitudes clear of its edges, its top edge g w and the
    # float above (g - 1) w, plus a = 0.
    groups, width = probe_groups(duration_ns)
    interior = (np.arange(1, protocol.CHEBYSHEV_NODES + 1) + fraction) / (protocol.CHEBYSHEV_NODES + 2)
    inside = ((groups - 1)[:, None] + interior).ravel() * width
    amps = np.concatenate([[0.0], groups * width, np.nextafter((groups - 1) * width, np.inf), inside])
    assert probe_map_error(duration_ns, complex_, model, seed, amps, exact=False) <= 1e-13


@pytest.mark.parametrize("duration_ns", [56, 61, 112])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@given(
    model=st.sampled_from([SAMPLE_1, SAMPLE_2]),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=2, deadline=None)
def test_exact_probe_map_matches_segment(duration_ns, complex_, model, fraction, seed):
    # The same edges with one drawn interior amplitude per group: every
    # key holds at most four distinct amplitudes.
    groups, width = probe_groups(duration_ns)
    amps = np.concatenate(
        [[0.0], groups * width, np.nextafter((groups - 1) * width, np.inf), (groups - 1 + fraction) * width]
    )
    assert probe_map_error(duration_ns, complex_, model, seed, amps, exact=True) <= 1e-13


def test_probe_maps_are_keyed_by_strength():
    # A build over the strengths of several sweeps maps every column of
    # each sweep bit-for-bit like a build over that sweep alone, and a
    # row's result does not depend on its place in the column. The extra
    # strengths keep each key of the identical grid on its side of the
    # exact/interpolated rule: its 8 strengths in substep group 2 become
    # 15, group 1 is interpolated either way, and groups 3 and 4 are new.
    geometry, rates = PulseGeometry(b_duration=112e-9), thermal_rates(SAMPLE_2)
    config = ExperimentConfig("multi_random", rng_seed=1)
    random_sweeps = [scenarios._random_thetas(config, n, 400, "uniform") for n in (24, 25)]
    grid = np.arange(1, 181) * np.pi / 180
    rng = np.random.default_rng(5)
    extra = np.concatenate([rng.uniform(0.1, 0.9, 5), rng.uniform(1.01, 1.9, 7), rng.uniform(2.0, 3.8, 20)]) * np.pi
    vec = rng.standard_normal((400, 9))
    # (the strengths of one build, the sweeps it must map like their own builds)
    cases = ((random_sweeps, random_sweeps), ([grid, extra], [grid[:, None]]))
    for strengths, sweeps in cases:
        pooled = ProbeMaps(np.concatenate([t.ravel() for t in strengths]), geometry, rates, 1e-9)
        for thetas in sweeps:
            alone = ProbeMaps(thetas, geometry, rates, 1e-9)
            rows = vec[: len(thetas)]
            for column in thetas.T:
                mapped = pooled.apply(rows, column)
                np.testing.assert_array_equal(mapped, alone.apply(rows, column))
                perm = rng.permutation(len(column))
                np.testing.assert_array_equal(pooled.apply(rows[perm], column[perm]), mapped[perm])
    # A strength of an exact key that the build did not see has no map.
    with pytest.raises(ValueError, match="has no map"):
        ProbeMaps(grid, geometry, rates, 1e-9).apply(vec[:1], extra[5:6])


def test_probe_maps_build_every_shape_in_one_segment_call(monkeypatch):
    # Strengths 0..4 pi at 56 ns reach the 56 ns shape and the five
    # stretched ones; all their keys come from one "12" segment call.
    calls = []

    def recording(rho, amplitudes, transition, *args, **kwargs):
        calls.append(transition)
        return lindblad_segment_batch(rho, amplitudes, transition, *args, **kwargs)

    monkeypatch.setattr(protocol, "lindblad_segment_batch", recording)
    geometry = PulseGeometry(b_duration=56e-9)
    thetas = np.linspace(0.0, 4.0 * np.pi, 41)
    assert len(np.unique(geometry.b_durations(thetas))) == 6
    # The call costs the longest shape's base steps, 61 loop iterations
    # (four right-hand sides each), though that shape reaches substep group
    # 8. The first right-hand side steps every chunk map: 190 blocks of 9
    # identity columns for the 41 strengths and their later chunks.
    rhs_columns = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rhs" and frame.f_code.co_filename == dynamics.__file__:
            rhs_columns.append(frame.f_locals["y"].shape[1])

    sys.setprofile(count)
    try:
        ProbeMaps(thetas, geometry, thermal_rates(SAMPLE_1), 1e-9)
    finally:
        sys.setprofile(None)
    assert calls == ["12"]
    assert len(rhs_columns) == 4 * 61
    assert rhs_columns[0] == 1710


def breaking_probe_node(node):
    """lindblad_segment_batch with the map of one probe node made non-finite."""

    def broken(rho, amplitudes, transition, *args, **kwargs):
        maps = lindblad_segment_batch(rho, amplitudes, transition, *args, **kwargs)
        if transition == "12":
            maps[node, 4] = np.nan
        return maps

    return broken


def test_non_finite_probe_map_is_reported_by_row(monkeypatch):
    # At 112 ns a pi probe takes two substeps per base step, 0.1..0.8 pi
    # one. Group 1 comes first among a shape's nodes: here its second
    # exact node (0.5 pi), then any node of its interpolated map.
    exact = [[1.0, 1.0], [0.3, 1.0], [0.5, 1.0]]
    fitted = [[1.0, 1.0]] + [[t, 1.0] for t in np.linspace(0.1, 0.8, protocol.CHEBYSHEV_NODES)]
    for thetas, node, row in ((exact, 1, 2), (fitted, 0, 1)):
        monkeypatch.setattr(protocol, "lindblad_segment_batch", breaking_probe_node(node))
        with pytest.raises(NumericToleranceError, match=rf"^probe 1 of 2, row {row}: non-finite density matrix$"):
            dissipative_sweep(np.pi * np.array(thetas), 2, SAMPLE_2, geometry=PulseGeometry(b_duration=112e-9))


@pytest.mark.parametrize("distinct", [15, 16])
def test_probe_key_is_exact_below_chebyshev_nodes_amplitudes(monkeypatch, distinct):
    nodes = []

    def recording(rho, amplitudes, transition, *args, **kwargs):
        if transition == "12":
            nodes.append(np.ravel(amplitudes))
        return lindblad_segment_batch(rho, amplitudes, transition, *args, **kwargs)

    monkeypatch.setattr(protocol, "lindblad_segment_batch", recording)
    geometry = PulseGeometry(b_duration=112e-9)
    duration = float(geometry.b_durations(0.0))
    # At 112 ns every strength up to 0.8 pi takes one substep per base
    # step; each strength appears twice, in one substep group.
    strengths = np.pi * np.linspace(0.1, 0.8, distinct)
    thetas = np.repeat(strengths, 2)[:, None]
    rho = dissipative_sweep(thetas, 1, SAMPLE_2, geometry=geometry)
    (used,) = nodes
    exact = distinct < protocol.CHEBYSHEV_NODES
    assert np.array_equal(used, strengths / effective_area(duration / 4, duration / 2)) == exact
    assert len(used) == (distinct if exact else protocol.CHEBYSHEV_NODES)
    # Each row alone is a key of one amplitude, always exact.
    for row, theta in zip(rho, thetas):
        single = dissipative_sweep(theta[None], 1, SAMPLE_2, geometry=geometry)[0]
        assert np.max(np.abs(row - single)) <= 1e-13


def test_density_guard_names_row():
    good = np.array([thermal_state(SAMPLE_1).matrix] * 3)
    check_density_batch(good, "segment x")
    for bad_value, message in ((np.nan, "non-finite"), (0.5, "trace drift")):
        bad = good.copy()
        bad[2, 1, 1] += bad_value
        with pytest.raises(NumericToleranceError, match=f"segment x, row 2: {message}"):
            check_density_batch(bad, "segment x")
    negative = good.copy()
    negative[1] = np.diag([1.1, -0.1, 0.0])
    with pytest.raises(NumericToleranceError, match="row 1: eigenvalue"):
        check_density_batch(negative, "segment x")


def eigvalsh_guard(rho, where):
    """The eigenvalue check with eigvalsh on every row, for finite trace-1 rows."""
    lowest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(1, 2)))[:, 0]
    if np.any(lowest < -1e-6):
        row = int(np.argmin(lowest))
        raise NumericToleranceError(f"{where}, row {row}: eigenvalue {lowest[row]:.2e} below -1e-6")


def guard_message(check, rho):
    try:
        check(rho, "probe 3 of 25")
    except NumericToleranceError as exc:
        return str(exc)
    return None


# Small eigenvalues of a trace-1 row: within 1e-9 of the bound -1e-6 and
# of the certification margin -5e-7, exactly 0 (pure and rank-2 states),
# and anywhere around them.
small_eigenvalues = st.one_of(
    st.floats(min_value=-1e-6 - 1e-9, max_value=-1e-6 + 1e-9),
    st.floats(min_value=-5e-7 - 1e-9, max_value=-5e-7 + 1e-9),
    st.just(0.0),
    st.floats(min_value=-3e-6, max_value=0.3),
)


@st.composite
def guard_batches(draw):
    """Trace-1 Hermitian rows U diag(e0, e1, 1 - e0 - e1) U^dagger, real or complex."""
    complex_ = draw(st.booleans())

    def row(e0, e1, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_ else 0.0)
        u = np.linalg.qr(a)[0]
        return (u * np.array([e0, e1, 1.0 - e0 - e1])) @ u.conj().T

    seeds = st.integers(min_value=0, max_value=2**32 - 1)
    rows = draw(st.lists(st.builds(row, small_eigenvalues, small_eigenvalues, seeds), min_size=1, max_size=6))
    # A failing row among rows the closed form certifies.
    failing = st.floats(min_value=-1e-6 - 1e-9, max_value=-1e-6 - 1e-12)
    if draw(st.booleans()):
        place = draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(place, draw(st.builds(row, failing, st.just(0.0), seeds)))
    return np.array(rows)


@given(rho=guard_batches())
@settings(max_examples=300, deadline=None)
def test_density_guard_matches_eigvalsh_reference(rho):
    assert guard_message(check_density_batch, rho) == guard_message(eigvalsh_guard, rho)
    # A row certified in closed form has no eigenvalue below the margin.
    h = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    certified = dynamics._positive_pivots(h, 5e-7)
    assert np.all(np.linalg.eigvalsh(h[certified])[:, 0] > -5e-7 - 1e-12)


def test_healthy_sweep_sends_no_row_to_eigvalsh(monkeypatch):
    # Sample 2 at N = 25 and 112 ns probes, as the published random-strength
    # point: every row after every segment is certified in closed form.
    initial = thermal_state(SAMPLE_2)  # DensityMatrix runs eigvalsh on itself
    thetas = np.random.default_rng(25).uniform(0.0, np.pi, size=(4, 25))
    sent, checks = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        sent.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    def counting_check(rho, where):
        checks.append(where)
        check_density_batch(rho, where)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(protocol, "check_density_batch", counting_check)
    dissipative_sweep(thetas, 25, SAMPLE_2, initial=initial)
    assert len(checks) == 2 * 25 + 1
    assert sum(sent) == 0
    # A row below the margin does reach eigvalsh, and only that row.
    low = np.diag([1.0 + 7e-7, 0.0, -7e-7])
    check_density_batch(np.array([initial.matrix, low, initial.matrix]), "probe 1 of 1")
    assert sent == [1]
