import numpy as np
import pytest
from scipy.linalg import expm

from ifdsim.protocol import ProtocolSpec, run_coherent_ideal
from ifdsim.quantized import (
    CompositeState,
    FieldCoupling,
    coupling_unitary,
    jc_hamiltonian,
    run_qubit_probe,
    run_single_mode,
    run_two_mode,
    theta_n,
)


def test_theta_n():
    assert theta_n(1.5, 0, 2.0) == 0.0
    assert theta_n(1.5, 4, 2.0) == pytest.approx(2 * theta_n(1.5, 1, 2.0))
    with pytest.raises(ValueError):
        theta_n(1.0, -1, 1.0)


def test_jc_hamiltonian_matrix_elements():
    g, n_max = 1.3, 4
    h = jc_hamiltonian(g, n_max)
    assert np.max(np.abs(h - h.conj().T)) < 1e-15
    for n in range(1, n_max + 1):
        i1 = n * 3 + 1
        i2 = (n - 1) * 3 + 2
        assert h[i1, i2] == pytest.approx(0.5j * g * np.sqrt(n))
    assert np.max(np.abs(jc_hamiltonian(0.0, 2))) == 0.0


def test_jc_block_eigenvalues():
    g, n_max = 0.8, 3
    h = jc_hamiltonian(g, n_max)
    eigs = np.sort(np.linalg.eigvalsh(h))
    expected = sorted(
        [0.0] * (3 * (n_max + 1) - 2 * n_max)
        + [s * 0.5 * g * np.sqrt(n) for n in range(1, n_max + 1) for s in (-1, 1)]
    )
    assert np.allclose(eigs, expected)


def test_jc_evolution_conserves_excitation():
    g, n_max, t = 1.1, 4, 0.9
    h = jc_hamiltonian(g, n_max)
    dim = (n_max + 1) * 3
    excitation = np.zeros((dim, dim))
    for n in range(n_max + 1):
        for level in range(3):
            excitation[n * 3 + level, n * 3 + level] = n + (1 if level == 2 else 0)
    u = expm(-1j * h * t)
    assert np.max(np.abs(u.conj().T @ excitation @ u - excitation)) < 1e-10


def test_coupling_unitary_matches_exponential_up_to_block_phase():
    # same Rabi magnitudes as exp(-iHt); the rotation sense is fixed to
    # embed the semiclassical probe pulse per block
    g, t, n_max = 1.3, 0.7, 4
    u_block = coupling_unitary(g, t, n_max)
    u_exp = expm(-1j * jc_hamiltonian(g, n_max) * t)
    assert np.max(np.abs(np.abs(u_block) - np.abs(u_exp))) < 1e-12
    assert np.max(np.abs(u_block.conj().T @ u_block - np.eye(u_block.shape[0]))) < 1e-12


def test_exact_pi_rotation_block():
    n = 3
    g = 1.0
    t = np.pi / np.sqrt(n)  # theta_n = pi
    u = coupling_unitary(g, t, n + 1)
    i1, i2 = n * 3 + 1, (n - 1) * 3 + 2
    assert abs(u[i1, i1]) < 1e-12
    assert u[i2, i1] == pytest.approx(1.0)


def test_single_mode_full_strength_amplitudes():
    n = 1
    state = run_single_mode(1, n, FieldCoupling(g=np.pi, t_b=1.0))
    assert state.amplitudes[n, 0] == pytest.approx(0.5)
    assert state.amplitudes[n, 1] == pytest.approx(0.5)
    assert state.amplitudes[n - 1, 2] == pytest.approx(1 / np.sqrt(2))


def test_single_mode_general_strength_matches_closed_form():
    n, g, t_b = 3, 0.9, 0.8
    th = theta_n(g, n, t_b)
    state = run_single_mode(1, n, FieldCoupling(g=g, t_b=t_b))
    assert state.amplitudes[n, 0] == pytest.approx(np.sin(th / 4) ** 2, abs=1e-9)
    assert state.amplitudes[n, 1] == pytest.approx(np.cos(th / 4) ** 2, abs=1e-9)
    assert state.amplitudes[n - 1, 2] == pytest.approx(np.sin(th / 2) / np.sqrt(2), abs=1e-9)


def test_single_mode_without_coupling():
    state = run_single_mode(2, 2, FieldCoupling(g=0.0, t_b=1.0))
    assert abs(state.amplitudes[2, 1]) == pytest.approx(1.0)


def test_single_mode_photon_bookkeeping():
    # absorption lowers the field by exactly one quantum
    state = run_single_mode(3, 2, FieldCoupling(g=1.1, t_b=0.9))
    amps = state.amplitudes
    for occ in range(amps.shape[0]):
        if occ != 1:  # |2> amplitude only allowed on n - 1 = 1
            assert abs(amps[occ, 2]) < 1e-10
        if occ != 2:  # levels 0 and 1 keep the field at n = 2
            assert abs(amps[occ, 0]) < 1e-10
            assert abs(amps[occ, 1]) < 1e-10


@pytest.mark.parametrize("n_segments", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("photons", [1, 2, 3, 4])
def test_quantized_marginals_match_semiclassical(n_segments, photons):
    coupling = FieldCoupling(g=0.77, t_b=1.3)
    th = theta_n(coupling.g, photons, coupling.t_b)
    state = run_single_mode(n_segments, photons, coupling)
    classical = run_coherent_ideal(ProtocolSpec(n_segments, [th] * n_segments))
    assert np.max(np.abs(state.qutrit_marginals() - classical.as_array())) < 1e-9


def test_single_mode_rejects_tight_truncation():
    with pytest.raises(ValueError):
        run_single_mode(1, 3, FieldCoupling(g=1.0, t_b=1.0), n_max=3)


def test_two_mode_without_coupling():
    state = run_two_mode(2, 3, 0.0, 0.0, 1.0, 1.0)
    assert abs(state.amplitudes[2, 3, 1]) == pytest.approx(1.0)


def test_two_mode_printed_amplitude_structure():
    m, n = 2, 3
    g1, g2, t1, t2 = 0.8, 0.6, 0.9, 1.1
    th1n = theta_n(g1, n, t1)
    th2m = theta_n(g2, m, t2)
    th2m1 = theta_n(g2, m + 1, t2)
    state = run_two_mode(m, n, g1, g2, t1, t2)
    s3 = np.sqrt(3)
    expected = {
        (m, n, 0): (3 * s3 - s3 * np.cos(th1n / 2) - 2 * s3 * np.cos(th1n / 4) ** 2 * np.cos(th2m / 2)) / 8,
        (m + 1, n - 1, 0): 2 * np.sin(th1n / 2) * np.sin(th2m1 / 2) / 8,
        (m, n, 1): (3 - np.cos(th1n / 2) + 6 * np.cos(th1n / 4) ** 2 * np.cos(th2m / 2)) / 8,
        (m + 1, n - 1, 1): -2 * s3 * np.sin(th1n / 2) * np.sin(th2m1 / 2) / 8,
        (m, n - 1, 2): 0.5 * np.sin(th1n / 2) * np.cos(th2m1 / 2),
        (m - 1, n, 2): 0.5 * s3 * np.cos(th1n / 4) ** 2 * np.sin(th2m / 2),
    }
    total = 0.0
    for index, value in expected.items():
        assert state.amplitudes[index] == pytest.approx(value, abs=1e-9)
        total += value**2
    assert total == pytest.approx(1.0, abs=1e-9)


def test_two_mode_ground_branch_is_two_component_superposition():
    state = run_two_mode(1, 2, 1.0, 0.7, 0.8, 0.9)
    ground = state.amplitudes[:, :, 0]
    nonzero = np.argwhere(np.abs(ground) > 1e-10)
    assert {tuple(idx) for idx in nonzero} == {(1, 2), (2, 1)}


def test_qubit_probe_empty_field_never_couples():
    for n in (1, 4, 11):
        state = run_qubit_probe(n, 1.0, 0.0, target_initial=0)
        assert abs(state.amplitudes[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_qubit_probe_excited_field_protected_at_large_n():
    state = run_qubit_probe(25, 0.0, 1.0, target_initial=0)
    assert abs(state.amplitudes[1, 0]) ** 2 >= 0.99


def test_qubit_probe_swap_like_mapping():
    alpha, beta = 0.6, 0.8
    state = run_qubit_probe(25, alpha, beta, target_initial=0)
    target = np.zeros((2, 3), dtype=complex)
    target[0, 1] = alpha
    target[1, 0] = beta
    overlap = abs(np.vdot(target, state.amplitudes))
    assert overlap >= 0.99


@pytest.mark.parametrize(
    "n_segments,expect_level,expect_field",
    [(25, 2, 0), (24, 1, 1)],
)
def test_qubit_probe_excited_target_parity(n_segments, expect_level, expect_field):
    alpha, beta = 0.6, 0.8
    state = run_qubit_probe(n_segments, alpha, beta, target_initial=1)
    target = np.zeros((2, 3), dtype=complex)
    target[0, 0] = -alpha
    phase = (1j) ** (n_segments + 1) if n_segments % 2 else (1j) ** n_segments
    target[expect_field, expect_level] = -phase * beta if n_segments % 2 else phase * beta
    overlap = abs(np.vdot(target, state.amplitudes))
    assert overlap >= 0.95


def test_qubit_probe_validation():
    with pytest.raises(ValueError):
        run_qubit_probe(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        run_qubit_probe(3, 1.0, 0.0, target_initial=2)


def test_composite_state_validation():
    with pytest.raises(ValueError):
        CompositeState(np.zeros((2, 3)), (2,))
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = 1.0
    state = CompositeState(amps, (2,))
    assert state.qutrit_marginals() == pytest.approx([1.0, 0.0, 0.0])


def test_truncation_leakage_reads_the_top_fock_level_of_each_mode():
    # 0.6 on the top Fock level of one mode axis (0.8 on the vacuum) is the
    # leakage, at any qutrit level; the qutrit's own top level |2> is not.
    for dims in ((4,), (3, 4)):
        shape = dims + (3,)
        for axis in range(len(dims)):
            for level in range(3):
                amps = np.zeros(shape, dtype=complex)
                amps[(0,) * len(shape)] = 0.8
                top = [1] * len(dims) + [level]
                top[axis] = dims[axis] - 1
                amps[tuple(top)] = 0.6j
                assert CompositeState(amps, dims).truncation_leakage() == pytest.approx(0.6)
        amps = np.zeros(shape, dtype=complex)
        amps[(0,) * len(dims) + (2,)] = 1.0
        assert CompositeState(amps, dims).truncation_leakage() == 0.0
    state = run_single_mode(3, 2, FieldCoupling(g=1.1, t_b=0.9))
    assert state.truncation_leakage() == 0.0


def test_field_coupling_validation():
    with pytest.raises(ValueError):
        FieldCoupling(g=-1.0, t_b=1.0)
