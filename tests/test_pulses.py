import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammainc

from ifdsim.config import parse_config_text
from ifdsim.dynamics import DriveHamiltonianSpec, operator_distance_2norm, propagate_schrodinger
from ifdsim.pulses import (
    PulseEnvelope,
    PulseGeometry,
    amplitude_for_beamsplitter,
    amplitude_for_bpulse,
    effective_area,
    geometry_for_n,
    sample_waveform,
    stretched_duration,
    super_gaussian,
)
from ifdsim.su3 import b_pulse, beam_splitter

TAU = 14e-9
TAU_C = 28e-9


def test_envelope_values():
    p = PulseEnvelope(omega0=2.0e8, tau=TAU, tau_c=TAU_C)
    assert p.omega0 * super_gaussian(0.0, p.tau) == pytest.approx(2.0e8)
    assert p.omega0 * super_gaussian(TAU, p.tau) == pytest.approx(2.0e8 * np.exp(-0.5))
    ts = np.linspace(-TAU_C, TAU_C, 57)
    assert np.allclose(super_gaussian(ts, p.tau), super_gaussian(-ts, p.tau))


def test_envelope_validation():
    with pytest.raises(ValueError):
        PulseEnvelope(omega0=1.0, tau=-1e-9, tau_c=TAU_C)
    with pytest.raises(ValueError):
        PulseEnvelope(omega0=-1.0, tau=TAU, tau_c=TAU_C)


def test_effective_area_reference_values():
    area = effective_area(TAU, TAU_C)
    assert area == pytest.approx(30.18e-9, abs=0.02e-9)
    oracle, _ = quad(lambda t: np.exp(-0.5 * (t / TAU) ** 4), -TAU_C, TAU_C, epsabs=1e-18)
    assert area == pytest.approx(oracle, rel=1e-6)
    assert effective_area(28e-9, 56e-9) == pytest.approx(60.36e-9, abs=0.04e-9)
    assert effective_area(TAU, 0.0) == 0.0


def test_effective_area_converged_and_linear():
    # At tau_c = 2 tau the exact area is tau 2^(1/4) Gamma(1/4) P(1/4, 8) / 2,
    # and the trapezoid's step scales with tau, so its error is scale-free.
    for tau in (1e-9, TAU, 28e-9, 61e-9 / 4, 1e-3):
        exact = tau * 2**0.25 * gamma(0.25) * gammainc(0.25, 8.0) / 2
        assert effective_area(tau, 2 * tau) == pytest.approx(exact, rel=3e-8)
    # linear in tau at fixed tau_c / tau
    a1 = effective_area(TAU, 2 * TAU)
    a2 = effective_area(3 * TAU, 6 * TAU)
    assert a2 / a1 == pytest.approx(3.0, rel=1e-4)


def test_effective_area_rejects_negative_widths():
    with pytest.raises(ValueError):
        effective_area(-TAU, TAU_C)
    with pytest.raises(ValueError):
        effective_area(TAU, -TAU_C)


def test_amplitude_calibration():
    area = effective_area(TAU, TAU_C)
    amp = amplitude_for_bpulse(np.pi, area)
    assert amp == pytest.approx(np.pi / 30.18e-9, rel=1e-3)
    assert amplitude_for_bpulse(0.0, area) == 0.0
    assert amplitude_for_bpulse(2 * np.pi, area) == pytest.approx(2 * amp)
    assert amplitude_for_beamsplitter(1, area) == pytest.approx(np.pi / (2 * area))
    assert amplitude_for_beamsplitter(24, area) == pytest.approx(np.pi / (25 * area))
    with pytest.raises(ValueError):
        amplitude_for_bpulse(np.pi, 0.0)
    with pytest.raises(ValueError):
        amplitude_for_beamsplitter(0, area)


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_beamsplitter_amplitude_propagates_to_target_rotation(n):
    area = effective_area(TAU, TAU_C)
    amp = amplitude_for_beamsplitter(n, area)
    wf = sample_waveform(PulseEnvelope(omega0=amp, tau=TAU, tau_c=TAU_C))
    u = propagate_schrodinger(DriveHamiltonianSpec(wave01=wf))
    # an angle error delta shows up as a 2-norm distance ~ delta / 2
    assert operator_distance_2norm(u, beam_splitter(n)) < 2e-3


def test_sample_waveform_grid():
    p = PulseEnvelope(omega0=1.0e8, tau=TAU, tau_c=TAU_C)
    wf = sample_waveform(p, sampling_rate=1e9)
    assert len(wf.samples) == 57
    assert wf.samples[28] == pytest.approx(1.0e8)  # grid contains t = 0
    assert wf.t_start == pytest.approx(-TAU_C)
    zero = sample_waveform(PulseEnvelope(omega0=0.0, tau=TAU, tau_c=TAU_C))
    assert np.all(zero.samples == 0.0)
    with pytest.raises(ValueError):
        sample_waveform(p, sampling_rate=1e8)  # fewer than 8 samples


def test_sample_waveform_spans_the_pulse_at_any_rate():
    p = PulseEnvelope(omega0=1.0e8, tau=TAU, tau_c=TAU_C)
    wf = sample_waveform(p, sampling_rate=0.7e9)
    # 39.2 generator periods: 40 intervals of 1.4 ns, not 39 of 1/0.7 ns
    assert len(wf.samples) == 41
    assert wf.t_start == pytest.approx(-TAU_C, rel=1e-12)
    assert wf.t_end == pytest.approx(TAU_C, rel=1e-12)
    times = wf.t_start + wf.dt * np.arange(len(wf.samples))
    assert wf.samples == pytest.approx(p.omega0 * super_gaussian(times, p.tau), rel=1e-12)
    assert wf.samples[20] == pytest.approx(1.0e8)


def test_sample_waveform_keeps_the_generator_step():
    # A whole number of generator periods keeps dt = 1 / rate exactly.
    for duration in (56e-9, 60e-9, 61e-9, 400e-9):
        p = PulseEnvelope(omega0=1.0e8, tau=duration / 4, tau_c=duration / 2)
        wf = sample_waveform(p, sampling_rate=1e9)
        assert wf.dt == 1e-9
        ts = -p.tau_c + 1e-9 * np.arange(len(wf.samples))
        assert np.array_equal(wf.samples[1:-1], p.omega0 * super_gaussian(ts[1:-1], p.tau))
        # The last grid time rounds past tau_c; its sample is kept, not zeroed.
        assert wf.samples[-1] == pytest.approx(wf.samples[0], rel=1e-12)


def test_waveform_interpolation():
    p = PulseEnvelope(omega0=1.0e8, tau=TAU, tau_c=TAU_C)
    wf = sample_waveform(p)
    assert wf.value_at(0.0) == pytest.approx(1.0e8)
    assert wf.value_at(TAU_C + 1e-9) == 0.0
    mid = wf.value_at(0.5e-9)
    assert mid == pytest.approx(0.5 * (wf.samples[28] + wf.samples[29]))


def test_duration_for_theta_table():
    assert stretched_duration(np.pi) == pytest.approx(56e-9)
    assert stretched_duration(3.38 * np.pi) == pytest.approx(56e-9)
    assert stretched_duration(4 * np.pi) == pytest.approx(61e-9)
    assert round(float(stretched_duration(3.5 * np.pi)) * 1e9) in (57, 58)
    assert PulseGeometry().b_durations(3.5 * np.pi) == stretched_duration(3.5 * np.pi)
    with pytest.raises(ValueError):
        stretched_duration(-0.1)
    with pytest.raises(ValueError):
        stretched_duration(4.01 * np.pi)


def test_stretch_rule_array_form_matches_scalar_calls():
    thetas = np.linspace(0.0, 4 * np.pi, 401)
    totals = stretched_duration(thetas)
    assert sorted(set(np.round(totals * 1e9).astype(int))) == [56, 57, 58, 59, 60, 61]
    for theta, total in zip(thetas, totals):
        assert stretched_duration(theta) == total
    for geo in (PulseGeometry(), PulseGeometry(b_duration=112e-9), PulseGeometry(stretch_long_pulses=False)):
        assert list(geo.b_durations(thetas)) == [geo.b_durations(t) for t in thetas]
    for bad in (-0.1, 4.01 * np.pi, np.nan):
        with pytest.raises(ValueError, match=r"theta must be in \[0, 4 pi\]"):
            stretched_duration([np.pi, bad])


def test_56ns_probe_has_one_duration_however_spelt():
    # geometry_for_n says 56e-9; a config file says 56 (ns), which becomes
    # 56 * 1e-9, one ulp above it. Each geometry's first stretched bin is
    # its own b_duration, so both see the same six shapes.
    thetas = np.linspace(0.0, 4 * np.pi, 41)
    durations = []
    for geo in (geometry_for_n(2), parse_config_text("scenario = n2_map\n").geometry(default_b_ns=56.0)):
        totals = np.unique(geo.b_durations(thetas))
        assert len(totals) == 6 and totals[0] == geo.b_duration
        durations.append(totals)
    assert durations[0][0] != durations[1][0]
    assert np.array_equal(durations[0][1:], durations[1][1:])


def test_duration_stretch_lowers_amplitude():
    # stretching must never demand more amplitude than the unstretched
    # 56 ns pulse would, and the 61 ns endpoint bounds the whole table
    area_56 = effective_area(14e-9, 28e-9)
    ceiling = amplitude_for_bpulse(4 * np.pi, effective_area(61e-9 / 4, 61e-9 / 2))
    for theta in np.linspace(3.39 * np.pi, 4 * np.pi, 12):
        duration = PulseGeometry().b_durations(theta)
        amp = amplitude_for_bpulse(theta, effective_area(duration / 4, duration / 2))
        assert amp <= amplitude_for_bpulse(theta, area_56)
        assert amp <= ceiling * 1.0001


@pytest.mark.parametrize("theta_pi", [0.25, 1.0, 2.0, 3.0, 3.9])
def test_calibration_round_trip(theta_pi):
    theta = theta_pi * np.pi
    duration = float(PulseGeometry().b_durations(theta))
    tau, tau_c = duration / 4, duration / 2
    area = effective_area(tau, tau_c)
    wf = sample_waveform(
        PulseEnvelope(omega0=amplitude_for_bpulse(theta, area), tau=tau, tau_c=tau_c)
    )
    u = propagate_schrodinger(DriveHamiltonianSpec(wave12=wf))
    assert operator_distance_2norm(u, b_pulse(theta)) < 0.02


def test_geometry_defaults():
    assert geometry_for_n(2).b_duration == pytest.approx(56e-9)
    assert geometry_for_n(3).b_duration == pytest.approx(112e-9)
    geo = PulseGeometry()
    assert geo.s_duration == 56e-9
    # the 112 ns family never stretches
    long = PulseGeometry(b_duration=112e-9)
    assert long.b_durations(3.9 * np.pi) == 112e-9
    assert geo.b_durations(3.9 * np.pi) > 56e-9

