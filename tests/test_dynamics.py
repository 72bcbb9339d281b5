import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import hbar, k as k_b

from ifdsim import NumericToleranceError
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
    thermal_rates,
    thermal_state,
)
from ifdsim.protocol import dissipative_sweep
from ifdsim.pulses import PulseEnvelope, PulseGeometry, effective_area, sample_waveform
from ifdsim.su3 import DensityMatrix, PureState, b_pulse, beam_splitter, subspace_pauli

TAU, TAU_C = 14e-9, 28e-9


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

def test_misaligned_waveforms_rejected():
    wf01 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C), sampling_rate=1e9)
    wf12 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C, transition="12"), sampling_rate=2e9)
    with pytest.raises(ValueError):
        DriveHamiltonianSpec(wave01=wf01, wave12=wf12)


def test_drive_spec_holds_exactly_one_drive():
    wf01 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C))
    wf12 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C, transition="12"))
    with pytest.raises(ValueError):
        DriveHamiltonianSpec()
    with pytest.raises(ValueError):
        DriveHamiltonianSpec(wave01=wf01, wave12=wf12)
    assert DriveHamiltonianSpec(wave12=wf12).transition == "12"


def test_drive_spec_rejects_a_waveform_for_the_other_transition():
    wf01 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C))
    wf12 = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C, transition="12"))
    with pytest.raises(ValueError, match="12 waveform passed as wave01"):
        DriveHamiltonianSpec(wave01=wf12)
    with pytest.raises(ValueError, match="01 waveform passed as wave12"):
        DriveHamiltonianSpec(wave12=wf01)


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------

def test_schrodinger_zero_drive_is_identity():
    wf = sample_waveform(PulseEnvelope(omega0=0.0, tau=TAU, tau_c=TAU_C))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave01=wf))
    assert np.max(np.abs(u - np.eye(3))) < 1e-10


def test_schrodinger_reproduces_probe_pulse():
    area = effective_area(TAU, TAU_C)
    wf = sample_waveform(PulseEnvelope(omega0=np.pi / area, tau=TAU, tau_c=TAU_C, transition="12"))
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
    wf = sample_waveform(PulseEnvelope(omega0=np.pi / area, tau=TAU, tau_c=TAU_C, transition="12"))
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
    wf = sample_waveform(PulseEnvelope(omega0=amp, tau=TAU, tau_c=TAU_C, transition=transition))
    rho0 = thermal_state(SAMPLE_1) if start == "thermal" else PureState.basis(1).density()
    sampled = propagate_lindblad(rho0, DriveHamiltonianSpec(**{"wave" + transition: wf}), SAMPLE_1)
    analytic = lindblad_segment_batch(rho0.matrix[None], amp, transition, TAU, TAU_C, thermal_rates(SAMPLE_1))[0]
    assert np.max(np.abs(sampled.matrix - analytic)) <= bound


def test_propagate_lindblad_guard_raises():
    # A decay rate of 1e11/s makes RK4 at 1 ns steps diverge.
    model = DecoherenceModel(**{**SAMPLE_1.__dict__, "gamma10": 1e11})
    wf = sample_waveform(PulseEnvelope(omega0=1e8, tau=TAU, tau_c=TAU_C))
    with pytest.raises(NumericToleranceError, match="propagate_lindblad"):
        propagate_lindblad(thermal_state(SAMPLE_1), DriveHamiltonianSpec(wave01=wf), model)


def test_lindblad_trace_and_positivity_through_protocol():
    area = effective_area(TAU, TAU_C)
    rho = thermal_state(SAMPLE_1).matrix[None]
    rates = thermal_rates(SAMPLE_1)
    for transition, amp in (("01", np.pi / (2 * area)), ("12", np.pi / area), ("01", np.pi / (2 * area))):
        rho = lindblad_segment_batch(rho, np.array([amp]), transition, TAU, TAU_C, rates)
        assert abs(np.trace(rho[0]).real - 1.0) < 1e-8
        assert np.min(np.linalg.eigvalsh(0.5 * (rho[0] + rho[0].conj().T))) > -1e-7


def test_rk4_step_halving_converges():
    area = effective_area(TAU, TAU_C)
    rho0 = thermal_state(SAMPLE_1).matrix[None]
    rates = thermal_rates(SAMPLE_1)
    amp = np.array([np.pi / area])
    coarse = lindblad_segment_batch(rho0, amp, "12", TAU, TAU_C, rates, dt=1e-9)
    fine = lindblad_segment_batch(rho0, amp, "12", TAU, TAU_C, rates, dt=0.5e-9)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_strong_pulse_keeps_unitarity_via_substeps():
    tau, tau_c = 61e-9 / 4, 61e-9 / 2
    area = effective_area(tau, tau_c)
    wf = sample_waveform(PulseEnvelope(omega0=4 * np.pi / area, tau=tau, tau_c=tau_c, transition="12"))
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
    g = drive_generator("01")
    assert np.max(np.abs(g - 0.5 * subspace_pauli("y", 0, 1))) < 1e-15


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
    phase=st.floats(min_value=-np.pi, max_value=np.pi),
    amplitude=st.floats(min_value=0.0, max_value=5e8),
)
@settings(max_examples=80, deadline=None)
def test_liouvillian_matches_pairwise_and_general_rhs(seed, gammas, temperature, transition, phase, amplitude):
    model = DecoherenceModel(2 * np.pi * 5e9, 2 * np.pi * 4.6e9, *gammas, temperature)
    rates = thermal_rates(model)
    rho = random_hermitian_density(seed)
    h = amplitude * drive_generator(transition, phase)
    l_h, l_d = liouvillian(transition, rates, phase)
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
    s_map = lindblad_segment_batch(basis, amp, "01", TAU, TAU_C, rates).reshape(9, 9)
    batch = np.array([random_hermitian_density(seed, complex_) for seed in range(6)])
    direct = lindblad_segment_batch(batch, amp, "01", TAU, TAU_C, rates)
    mapped = (batch.reshape(-1, 9) @ s_map).reshape(-1, 3, 3)
    assert np.max(np.abs(mapped - direct)) <= 1e-13


def test_segment_dtype_follows_data():
    rates = thermal_rates(SAMPLE_1)
    amp = np.pi / effective_area(TAU, TAU_C)
    real_start = thermal_state(SAMPLE_1).matrix[None]  # complex dtype, zero imaginary part
    assert lindblad_segment_batch(real_start, amp, "12", TAU, TAU_C, rates).dtype == float
    complex_start = random_hermitian_density(2)[None]
    assert np.iscomplexobj(lindblad_segment_batch(complex_start, amp, "12", TAU, TAU_C, rates))
    # a phase other than -pi/2 makes the drive term complex even on a real state
    out = lindblad_segment_batch(real_start, amp, "12", TAU, TAU_C, rates, phase=0.3)
    assert np.iscomplexobj(out) and np.max(np.abs(out.imag)) > 1e-5


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
        reference = lindblad_segment_batch(rho0, amp, transition, TAU, TAU_C, rates, dt=1e-9)
        other = lindblad_segment_batch(rho0, amp, transition, TAU, TAU_C, rates, dt=1.0 / rate)
        assert np.max(np.abs(other - reference)) < 1e-6


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
