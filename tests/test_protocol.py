import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifdsim.dynamics import SAMPLE_1, DecoherenceModel, lindblad_segment_batch, thermal_rates, thermal_state
from ifdsim.protocol import (
    OutcomeProbabilities,
    ProtocolSpec,
    amplitude_recursion,
    coherent_sequence_unitary,
    dissipative_sweep,
    expansion_coefficients,
    ideal_amplitudes,
    ideal_states,
    large_n_residual,
    projective_closed_form,
    run_coherent_dissipative,
    run_coherent_ideal,
    run_projective,
    segment_absorption_compare,
)
from ifdsim.pulses import PulseGeometry
from ifdsim.su3 import PureState, b_pulse, beam_splitter, subspace_pauli


def closed_system():
    return DecoherenceModel(
        omega01=2 * np.pi * 5e9,
        omega12=2 * np.pi * 4.6e9,
        gamma10=0.0,
        gamma21=0.0,
        gphi10=0.0,
        gphi21=0.0,
        gphi02=0.0,
        temperature=0.0,
    )


# ---------------------------------------------------------------------------
# Sequence unitary and ideal probabilities
# ---------------------------------------------------------------------------

def test_sequence_unitary_single_segment():
    u = coherent_sequence_unitary(1, [np.pi])
    direct = beam_splitter(1) @ b_pulse(np.pi) @ beam_splitter(1)
    assert np.max(np.abs(u - direct)) < 1e-14


def test_sequence_without_pulses_moves_ground_to_excited():
    for n in (1, 3, 8):
        u = coherent_sequence_unitary(n, [0.0] * n)
        target = -1j * subspace_pauli("y", 0, 1)
        target[2, 2] = 1.0
        assert np.max(np.abs(u - target)) < 1e-10


def test_three_segment_closed_form():
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    expected = np.array(
        [
            c * (c**3 + 2 * s**2),
            s * (c**3 + s**2 - c**2),
            s * c * (c - 1),
        ]
    )
    out = coherent_sequence_unitary(3, [np.pi] * 3) @ PureState.basis(0).vector
    assert np.max(np.abs(out - expected)) < 1e-12


def test_sequence_rejects_length_mismatch():
    with pytest.raises(ValueError):
        coherent_sequence_unitary(2, [np.pi])
    with pytest.raises(ValueError):
        ProtocolSpec(2, [np.pi])


def test_ideal_single_segment_probabilities():
    p = run_coherent_ideal(ProtocolSpec(1, [np.pi]))
    assert p.as_array() == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)
    p2 = run_coherent_ideal(ProtocolSpec(1, [2 * np.pi]))
    assert p2.as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_ideal_two_segment_probabilities():
    p = run_coherent_ideal(ProtocolSpec(2, [np.pi, np.pi]))
    assert p.p0 == pytest.approx((31 + 12 * np.sqrt(3)) / 64, abs=1e-12)
    assert p.as_array() == pytest.approx([0.8091, 0.0034, 0.1875], abs=5e-4)


def test_ideal_no_pulse_gives_inconclusive():
    for n in (1, 4, 25):
        p = run_coherent_ideal(ProtocolSpec(n, [0.0] * n))
        assert p.as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)


def test_single_segment_law_over_grid():
    grid = np.linspace(0, 4 * np.pi, 61)
    for theta in grid:
        p = run_coherent_ideal(ProtocolSpec(1, [theta]))
        assert p.p0 == pytest.approx(np.sin(theta / 4) ** 4, abs=1e-12)
        assert p.p1 == pytest.approx(np.cos(theta / 4) ** 4, abs=1e-12)
        assert p.p2 == pytest.approx(0.5 * np.sin(theta / 2) ** 2, abs=1e-12)


def test_four_pi_periodicity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        thetas = rng.uniform(0, 4 * np.pi, n)
        a = run_coherent_ideal(ProtocolSpec(n, thetas))
        b = run_coherent_ideal(ProtocolSpec(n, thetas + 4 * np.pi))
        assert np.max(np.abs(a.as_array() - b.as_array())) <= 1e-12


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        p = run_coherent_ideal(ProtocolSpec(n, rng.uniform(0, 4 * np.pi, n)))
        assert p.total == pytest.approx(1.0, abs=1e-9)


def test_outcome_validation():
    with pytest.raises(ValueError):
        OutcomeProbabilities(1.2, -0.1, -0.1)


def test_outcome_validation_over_a_batch():
    ok = OutcomeProbabilities(np.array([0.5, 1.0]), np.array([0.5, 0.0]), np.array([0.0, -1e-10]))
    assert ok.total == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError, match=r"p2=-0\.2 is not a probability"):
        OutcomeProbabilities(np.array([0.5, 0.6]), np.array([0.5, 0.6]), np.array([0.0, -0.2]))
    with pytest.raises(ValueError, match="p0=nan"):
        OutcomeProbabilities(np.array([np.nan]), np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# Batched real recursion against per-row complex products
# ---------------------------------------------------------------------------

def complex_checkpoints(n, thetas, init):
    """Initial state and the state after every applied pulse, one 3 x 3 product at a time."""
    s = beam_splitter(n)
    v = np.asarray(init, dtype=complex)
    states = [v, s @ v]
    for theta in thetas:
        states.append(b_pulse(theta) @ states[-1])
        states.append(s @ states[-1])
    return np.array(states)


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0, 1]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_ideal_amplitudes_match_complex_products(n, batch, level, data):
    theta = st.floats(min_value=0.0, max_value=4 * np.pi)
    thetas = np.array(data.draw(st.lists(st.lists(theta, min_size=n, max_size=n), min_size=batch, max_size=batch)))
    init = np.eye(3)[level]
    final = ideal_amplitudes(n, thetas, init)
    every = ideal_amplitudes(n, thetas, init, checkpoints=True)
    assert final.shape == (batch, 3) and every.shape == (batch, 2 * n + 2, 3)
    assert np.array_equal(every[:, -1], final)
    for row, states in zip(thetas, every):
        reference = complex_checkpoints(n, row, init)
        assert np.max(np.abs(states - reference)) <= 1e-14


def test_ideal_amplitudes_default_start_and_wrappers():
    thetas = np.array([[0.3, 2.0, np.pi]])
    assert np.array_equal(ideal_amplitudes(3, thetas), ideal_amplitudes(3, thetas, PureState.basis(0).vector))
    every = ideal_amplitudes(3, thetas, checkpoints=True)[0]
    assert np.array_equal(every[0], [1.0, 0.0, 0.0])
    assert [s.vector.real.tolist() for s in ideal_states(3, thetas[0])] == every[1::2].tolist()
    assert amplitude_recursion(3, thetas[0]) == [tuple(v) for v in every[1::2].tolist()]
    u = coherent_sequence_unitary(3, thetas[0])
    assert np.array_equal(u[:, 0].real, every[-1])
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-14


def test_ideal_amplitudes_rejects_bad_input():
    with pytest.raises(ValueError, match="theta must be finite"):
        ideal_amplitudes(2, [[0.1, np.nan]])
    with pytest.raises(ValueError, match="shape"):
        ideal_amplitudes(2, [[0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match="must be real"):
        ideal_amplitudes(1, [[0.1]], np.array([1j, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ideal_amplitudes(0, np.empty((1, 0)))


def test_dissipative_sweep_rejects_non_finite_strength():
    # A nan or inf strength must not reach substep_counts, whose int cast
    # warns and gives a negative count; the segment core takes no
    # non-finite amplitude either, nor a duration that is not positive
    # (a negative one integrated backwards, and 0 divided by tau = 0). All
    # raise before numpy warns.
    basis = np.eye(9).reshape(9, 3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, thetas in ((1, [[np.nan]]), (3, [[0.5, np.inf, 1.0]]), (2, [[-np.inf, 1.0]])):
            with pytest.raises(ValueError, match="theta must be finite"):
                dissipative_sweep(thetas, n, SAMPLE_1)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            lindblad_segment_batch(basis, [np.nan] * 9, "12", 56e-9, thermal_rates(SAMPLE_1))
        for duration in (-56e-9, 0.0):
            with pytest.raises(ValueError, match="duration must be positive"):
                lindblad_segment_batch(basis, [0.0] * 9, "12", duration, thermal_rates(SAMPLE_1))


def test_dissipative_sweep_bounds_rk4_work():
    # A strength of 1e300 would overflow the int cast of substep_counts,
    # and 1e6 pi on a 112 ns probe asks for about a million substeps per
    # base step. 2000 strengths up to 2000 pi ask the core for millions of
    # chunk maps, and a 10 ms probe for 1e7 base steps. Each raises before
    # any array is sized from it, and before numpy warns.
    geometry = PulseGeometry(b_duration=112e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (1e300, 1e6 * np.pi):
            with pytest.raises(ValueError, match="RK4 substeps per base step, more than"):
                dissipative_sweep([[theta]], 1, SAMPLE_1, geometry=geometry)
        with pytest.raises(ValueError, match=r"^a segment call of 2\.08e\+06 RK4 chunk maps over 112 base steps"):
            dissipative_sweep(np.linspace(0.0, 2000 * np.pi, 2000)[:, None], 1, SAMPLE_1, geometry=geometry)
        with pytest.raises(ValueError, match=r"^a segment call of 1 RK4 chunk maps over 1e\+07 base steps"):
            dissipative_sweep([[np.pi]], 1, SAMPLE_1, geometry=PulseGeometry(b_duration=1e-2))


# ---------------------------------------------------------------------------
# Recursion and expansions
# ---------------------------------------------------------------------------

def test_recursion_seed_and_single_step():
    amps = amplitude_recursion(1, [np.pi])
    assert amps[0] == pytest.approx((np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0))
    alpha, beta, gamma = amps[-1]
    assert alpha == pytest.approx(0.5) and alpha**2 == pytest.approx(0.25)
    assert gamma**2 == pytest.approx(0.5)


def test_recursion_two_segments():
    alpha = amplitude_recursion(2, [np.pi, np.pi])[-1][0]
    assert alpha == pytest.approx((2 + 3 * np.sqrt(3)) / 8, abs=1e-12)


def test_recursion_no_pulse_keeps_level2_empty():
    for _, _, gamma in amplitude_recursion(6, [0.0] * 6):
        assert gamma == 0.0


def test_recursion_matches_matrix_products_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        thetas = rng.uniform(0.0, 4 * np.pi, n)
        alpha, beta, gamma = amplitude_recursion(n, thetas)[-1]
        p = run_coherent_ideal(ProtocolSpec(n, thetas))
        assert abs(alpha**2 - p.p0) < 1e-10
        assert abs(beta**2 - p.p1) < 1e-10
        assert abs(gamma**2 - p.p2) < 1e-10


def test_expansion_tables_single_segment():
    ca, cb, cg = expansion_coefficients(1)
    assert ca == pytest.approx([0.5, -0.5], abs=1e-12)
    assert cb == pytest.approx([0.5, 0.5], abs=1e-12)
    assert cg[1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert cg[0] == 0.0 and not np.signbit(cg[0])  # written as 0, never -0


def test_expansion_reconstruction_matches_recursion():
    grid = np.linspace(0.0, 4 * np.pi, 50)
    for n in range(1, 26):
        ca, cb, cg = expansion_coefficients(n)
        k = np.arange(n + 1)
        for theta in grid:
            expected = amplitude_recursion(n, [theta] * n)[-1]
            cos_k, sin_k = np.cos(k * theta / 2), np.sin(k * theta / 2)
            got = (ca @ cos_k, cb @ cos_k, cg @ sin_k)
            assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-9


def test_expansion_range_check():
    with pytest.raises(ValueError):
        expansion_coefficients(0)
    with pytest.raises(ValueError):
        expansion_coefficients(26)


# ---------------------------------------------------------------------------
# Projective baseline
# ---------------------------------------------------------------------------

def test_projective_single_segment():
    out = run_projective(1, [np.pi])
    assert out.p_det == pytest.approx(0.25, abs=1e-12)
    assert out.p_inconclusive == pytest.approx(0.25, abs=1e-12)
    assert out.p_abs == pytest.approx(0.50, abs=1e-12)


def test_projective_two_segments():
    out = run_projective(2, [np.pi, np.pi])
    assert out.p_det == pytest.approx(27 / 64, abs=1e-10)
    assert out.p_inconclusive == pytest.approx(0.1406, abs=5e-5)
    assert out.p_abs == pytest.approx(7 / 16, abs=1e-10)


def test_projective_no_pulse():
    out = run_projective(4, [0.0] * 4)
    assert (out.p_det, out.p_inconclusive, out.p_abs) == pytest.approx((0.0, 1.0, 0.0), abs=1e-9)


def test_projective_outcome_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        out = run_projective(n, rng.uniform(0, 2 * np.pi, n))
        assert out.p_det + out.p_inconclusive + out.p_abs == pytest.approx(1.0, abs=1e-9)
        assert sum(out.per_segment_abs) == pytest.approx(out.p_abs, abs=1e-9)


def test_projective_closed_form_matches_sequential():
    for n in range(1, 26):
        p_det, p_abs = projective_closed_form(n)
        out = run_projective(n, [np.pi] * n)
        assert abs(p_det - out.p_det) < 1e-10
        assert abs(p_abs - out.p_abs) < 1e-10


def test_projective_large_n_limit():
    p_det, _ = projective_closed_form(1000)
    assert p_det >= 0.997


def test_coherent_beats_projective():
    for n in range(2, 26):
        p = run_coherent_ideal(ProtocolSpec(n, [np.pi] * n))
        p_det, p_abs = projective_closed_form(n)
        assert p.p0 > p_det
        assert p.p2 < p_abs


# ---------------------------------------------------------------------------
# Initial-state sensitivity and large-N structure
# ---------------------------------------------------------------------------

def test_ground_start_converges_excited_start_alternates():
    ground = PureState.basis(0)
    excited = PureState.basis(1)
    p0_ground = {}
    p0_excited = {}
    parity = {}
    for n in range(10, 26):
        pg = run_coherent_ideal(ProtocolSpec(n, [np.pi] * n, initial=ground))
        pe = run_coherent_ideal(ProtocolSpec(n, [np.pi] * n, initial=excited))
        p0_ground[n] = pg.p0
        p0_excited[n] = pe.p0
        parity[n] = (pe.p1, pe.p2)
    assert min(p0_ground.values()) >= 0.95
    assert p0_ground[25] >= 0.95
    # the excited start never stabilises on detection
    assert max(p0_excited.values()) <= 0.2
    # excitation shuffles between detector and pulse with period two
    for n, (p1, p2) in parity.items():
        if n % 2 == 0:
            assert p1 > 0.9
        else:
            assert p2 > 0.9


def test_large_n_residual_shrinks():
    r1, r5, r25 = (large_n_residual(n) for n in (1, 5, 25))
    assert r25 < r5 < r1


def test_large_n_residual_single_segment_direct():
    u = coherent_sequence_unitary(1, [np.pi])
    comparator = np.zeros((3, 3), dtype=complex)
    comparator[0, 0] = 1.0
    comparator += -1j * subspace_pauli("y", 1, 2)
    direct = np.linalg.norm(u - comparator, ord=2)
    assert large_n_residual(1) == pytest.approx(direct, abs=1e-12)


def test_comparator_period_four():
    m = np.zeros((3, 3), dtype=complex)
    m[1, 2] = -1.0
    m[2, 1] = 1.0
    i12 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    assert np.allclose(np.linalg.matrix_power(m, 2), -i12)
    assert np.allclose(np.linalg.matrix_power(m, 4), i12)


def test_segment_absorption_compare():
    coh, proj = segment_absorption_compare(0.3, 0.0, 4)
    assert coh == pytest.approx(proj, abs=1e-12)
    coh, proj = segment_absorption_compare(0.0, 0.5, 1)
    assert proj / coh == pytest.approx(4 / 3, rel=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y = rng.uniform(0, 0.7, 2)
        coh, proj = segment_absorption_compare(x, y, int(rng.integers(1, 20)))
        assert proj >= coh - 1e-12
    with pytest.raises(ValueError):
        segment_absorption_compare(0.9, 0.9, 2)


# ---------------------------------------------------------------------------
# Dissipative runner
# ---------------------------------------------------------------------------

def test_dissipative_zero_rates_matches_ideal():
    model = closed_system()
    spec = ProtocolSpec(
        2,
        [1.1, 2.3],
        model="lindblad",
        decoherence=model,
        initial=PureState.basis(0).density(),
    )
    diss = run_coherent_dissipative(spec)
    ideal = run_coherent_ideal(ProtocolSpec(2, [1.1, 2.3]))
    assert np.max(np.abs(diss.as_array() - ideal.as_array())) < 1e-4


def test_dissipative_single_pulse_detection_probability():
    spec = ProtocolSpec(1, [np.pi], model="lindblad", decoherence=SAMPLE_1)
    p = run_coherent_dissipative(spec)
    assert p.p0 == pytest.approx(0.26, abs=0.02)
    assert p.total == pytest.approx(1.0, abs=1e-6)


def test_dissipative_requires_model():
    with pytest.raises(ValueError):
        ProtocolSpec(1, [np.pi], model="lindblad")
    with pytest.raises(ValueError):
        run_coherent_dissipative(ProtocolSpec(1, [np.pi]))


def test_dissipative_sweep_checkpoints():
    for n in (1, 2):
        rho, checkpoints = dissipative_sweep(
            np.full((1, n), np.pi),
            n,
            SAMPLE_1,
            collect_checkpoints=True,
        )
        assert len(checkpoints) == 2 * n + 2
        assert np.max(np.abs(checkpoints[-1] - rho)) == 0.0
        assert np.real(np.diag(checkpoints[0][0])) == pytest.approx(thermal_state(SAMPLE_1).populations(), abs=1e-12)
        for c in checkpoints:
            assert abs(np.trace(c[0]).real - 1.0) < 1e-8


def test_depolarizing_model_shifts_outcome():
    base = run_coherent_dissipative(ProtocolSpec(1, [np.pi], model="lindblad", decoherence=SAMPLE_1))
    depol = run_coherent_dissipative(ProtocolSpec(1, [np.pi], model="lindblad_depol", decoherence=SAMPLE_1))
    # one pi pulse mixes with probability 1.8e-3
    assert abs(depol.p0 - base.p0) < 2e-3
    assert depol.p0 != pytest.approx(base.p0, abs=1e-7)


def test_ideal_run_accepts_density_matrix_initial():
    from ifdsim.su3 import DensityMatrix

    mixed = DensityMatrix((np.eye(3) / 3).astype(complex))
    # a unitary protocol cannot unmix the maximally mixed state
    for thetas in ([0.7], [np.pi]):
        p = run_coherent_ideal(ProtocolSpec(1, thetas, initial=mixed))
        assert p.as_array() == pytest.approx([1 / 3] * 3, abs=1e-12)
