import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ifdsim.su3 import (
    DensityMatrix,
    PureState,
    b_pulse,
    beam_splitter,
    gellmann,
    is_unitary,
    subspace_pauli,
    subspace_rotation_y,
)

angles = st.floats(min_value=-15.0, max_value=15.0, allow_nan=False)


def test_subspace_pauli_y_01():
    m = subspace_pauli("y", 0, 1)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = -1j
    expected[1, 0] = 1j
    assert np.array_equal(m, expected)


def test_subspace_pauli_z_01():
    assert np.array_equal(subspace_pauli("z", 0, 1), np.diag([1, -1, 0]).astype(complex))


def test_subspace_pauli_x_12():
    m = subspace_pauli("x", 1, 2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (0, 3), (-1, 2)])
def test_subspace_pauli_rejects_bad_levels(k, l):
    with pytest.raises(ValueError):
        subspace_pauli("x", k, l)


def test_subspace_pauli_rejects_bad_axis():
    with pytest.raises(ValueError):
        subspace_pauli("w", 0, 1)


@pytest.mark.parametrize("k,l", [(0, 1), (0, 2), (1, 2)])
def test_pauli_y_squares_to_subspace_identity(k, l):
    sy = subspace_pauli("y", k, l)
    ikl = np.zeros((3, 3), dtype=complex)
    ikl[k, k] = ikl[l, l] = 1
    assert np.max(np.abs(sy @ sy - ikl)) < 1e-15


def test_gellmann_diagonal_entries():
    assert np.allclose(gellmann(3), np.diag([1, -1, 0]))
    assert np.allclose(gellmann(8), np.diag([1, 1, -2]) / np.sqrt(3))


def test_gellmann_5():
    m = gellmann(5)
    assert m[0, 2] == -1j and m[2, 0] == 1j
    assert np.count_nonzero(m) == 2


def test_gellmann_orthogonality():
    # Tr(lambda_i lambda_j) = 2 delta_ij
    for i in range(1, 9):
        for j in range(1, 9):
            tr = np.trace(gellmann(i) @ gellmann(j))
            assert abs(tr - (2.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("index", [0, 9, -1])
def test_gellmann_rejects_bad_index(index):
    with pytest.raises(ValueError):
        gellmann(index)


@pytest.mark.parametrize("k,l", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 2, np.pi, 2 * np.pi, -1.7])
def test_rotation_matches_matrix_exponential(k, l, angle):
    oracle = expm(-0.5j * angle * subspace_pauli("y", k, l))
    assert np.max(np.abs(subspace_rotation_y(k, l, angle) - oracle)) < 1e-12


def test_rotation_basics():
    assert np.allclose(subspace_rotation_y(0, 1, 0.0), np.eye(3))
    assert np.allclose(subspace_rotation_y(1, 2, 2 * np.pi), np.diag([1, -1, -1]))
    s1 = subspace_rotation_y(0, 1, np.pi / 2)
    expected = (np.eye(3) - 1j * subspace_pauli("y", 0, 1)) / np.sqrt(2)
    expected[2, 2] = 1.0
    assert np.max(np.abs(s1 - expected)) < 1e-15


def test_rotation_requires_ordered_levels():
    with pytest.raises(ValueError):
        subspace_rotation_y(1, 0, 0.1)


def test_beam_splitter_n1_is_balanced():
    s = beam_splitter(1)
    assert np.allclose(np.abs(s[:2, :2]) ** 2, 0.5)
    assert s[2, 2] == 1.0


def test_beam_splitter_n2_closed_form():
    expected = np.array(
        [
            [np.sqrt(3) / 2, -0.5, 0],
            [0.5, np.sqrt(3) / 2, 0],
            [0, 0, 1],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(beam_splitter(2) - expected)) < 1e-15


def test_beam_splitter_power_cycles_ground_to_excited():
    s = beam_splitter(7)
    full = np.linalg.matrix_power(s, 8)
    target = -1j * subspace_pauli("y", 0, 1)
    target[2, 2] = 1.0
    assert np.max(np.abs(full - target)) < 1e-10
    out = full @ PureState.basis(0).vector
    assert abs(abs(out[1]) - 1.0) < 1e-10


def test_beam_splitter_rejects_zero():
    with pytest.raises(ValueError):
        beam_splitter(0)


def test_b_pulse_special_angles():
    assert np.allclose(b_pulse(0.0), np.eye(3))
    bp = b_pulse(np.pi)
    assert abs(bp[1, 2] + 1) < 1e-15 and abs(bp[2, 1] - 1) < 1e-15
    assert np.allclose(b_pulse(2 * np.pi), np.diag([1, -1, -1]))


def test_b_pulse_rejects_nonfinite():
    with pytest.raises(ValueError):
        b_pulse(float("nan"))


@given(angles)
@settings(max_examples=60, deadline=None)
def test_b_pulse_two_pi_shift_flips_sign(theta):
    lhs = b_pulse(theta + 2 * np.pi)
    rhs = b_pulse(2 * np.pi) @ b_pulse(theta)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert np.max(np.abs(b_pulse(theta + 4 * np.pi) - b_pulse(theta))) <= 1e-12


@given(angles, st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_generated_unitaries_are_unitary(theta, n):
    for u in (b_pulse(theta), beam_splitter(n), subspace_rotation_y(0, 2, theta)):
        assert is_unitary(u, 1e-10)


def test_apply_unitary_identity_and_splitter():
    psi = PureState.basis(0)
    plus = PureState(beam_splitter(1) @ psi.vector)
    target = PureState(np.array([1, 1, 0]) / np.sqrt(2))
    assert abs(np.vdot(plus.vector, target.vector)) > 1 - 1e-12


def test_apply_unitary_full_single_segment_state():
    theta = 1.3
    u = beam_splitter(1) @ b_pulse(theta) @ beam_splitter(1)
    out = PureState(u @ PureState.basis(0).vector)
    expected = PureState(
        np.array(
            [
                np.sin(theta / 4) ** 2,
                np.cos(theta / 4) ** 2,
                np.sin(theta / 2) / np.sqrt(2),
            ]
        )
    )
    assert abs(np.vdot(out.vector, expected.vector)) > 1 - 1e-12


@given(angles, angles)
@settings(max_examples=40, deadline=None)
def test_norm_preserved(theta1, theta2):
    u = beam_splitter(3) @ b_pulse(theta1) @ beam_splitter(3) @ b_pulse(theta2)
    out = u @ PureState(np.array([0.6, 0.48j, 0.64])).vector
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState(np.array([np.inf, 0.0, 0.0]))
    st_norm = PureState(np.array([3.0, 4.0, 0.0]))  # renormalised
    assert abs(np.linalg.norm(st_norm.vector) - 1.0) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.6, 0.6, -0.2]).astype(complex))
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    m[0, 0] = m[1, 1] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(m)  # not Hermitian
    ok = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert np.allclose(ok.populations(), [0.5, 0.3, 0.2])

