import numpy as np
import pytest
from scipy.linalg import expm

from ifdsim.majorana import MajoranaStars, majorana_polynomial, majorana_stars, star_trajectory
from ifdsim.protocol import ideal_states
from ifdsim.su3 import PureState

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])


def same_pair(a, b, tol):
    """Set equality of two star pairs within tol, trying both labelings."""
    direct = max(np.max(np.abs(a.s1 - b.s1)), np.max(np.abs(a.s2 - b.s2)))
    swapped = max(np.max(np.abs(a.s1 - b.s2)), np.max(np.abs(a.s2 - b.s1)))
    return min(direct, swapped) <= tol


def random_state(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return PureState(v / np.linalg.norm(v))


def test_polynomial_basis_states():
    assert majorana_polynomial(PureState.basis(0)) == pytest.approx((1 / np.sqrt(2), 0.0, 0.0))
    assert majorana_polynomial(PureState.basis(1)) == pytest.approx((0.0, -1.0, 0.0))
    mixed = PureState(np.array([0.5, 0.5, 1 / np.sqrt(2)]))
    assert majorana_polynomial(mixed) == pytest.approx((1 / (2 * np.sqrt(2)), -0.5, 0.5))


def test_basis_state_anchors():
    both_north = majorana_stars(PureState.basis(0))
    assert same_pair(both_north, MajoranaStars(NORTH, NORTH), 1e-12)
    split = majorana_stars(PureState.basis(1))
    assert same_pair(split, MajoranaStars(NORTH, SOUTH), 1e-12)
    both_south = majorana_stars(PureState.basis(2))
    assert same_pair(both_south, MajoranaStars(SOUTH, SOUTH), 1e-12)


def test_single_segment_endpoint_stars():
    final = ideal_states(1, [np.pi])[-1]
    stars = majorana_stars(final)
    ref = MajoranaStars(
        np.array([0.586, 0.792, -0.172]) / np.linalg.norm([0.586, 0.792, -0.172]),
        np.array([0.586, -0.792, -0.172]) / np.linalg.norm([0.586, -0.792, -0.172]),
    )
    assert same_pair(stars, ref, 1e-3)


def test_two_segment_endpoint_stars():
    final = ideal_states(2, [np.pi, np.pi])[-1]
    stars = majorana_stars(final)
    # published magnitudes; the x component of the exact state is negative
    ref_a = np.array([-0.062, 0.935, 0.350])
    ref_b = np.array([-0.062, -0.935, 0.350])
    ref = MajoranaStars(ref_a / np.linalg.norm(ref_a), ref_b / np.linalg.norm(ref_b))
    assert same_pair(stars, ref, 1e-3)


def test_spin_one_rotation_moves_stars_rigidly():
    # exp(-i phi J_y) in the (m = +1, 0, -1) ordering rotates both stars
    # by the same SO(3) rotation about the y axis
    jp = np.zeros((3, 3))
    jp[0, 1] = jp[1, 2] = np.sqrt(2)
    jy = (jp - jp.T) / 2j
    for seed, phi in ((0, 0.73), (1, -1.1), (2, 2.9)):
        state = random_state(seed)
        rot = expm(-1j * phi * jy)
        rotated = majorana_stars(PureState(rot @ state.vector))
        ry = np.array(
            [
                [np.cos(phi), 0.0, np.sin(phi)],
                [0.0, 1.0, 0.0],
                [-np.sin(phi), 0.0, np.cos(phi)],
            ]
        )
        before = majorana_stars(state)
        expected = MajoranaStars(ry @ before.s1, ry @ before.s2)
        assert same_pair(rotated, expected, 1e-8)


def test_stars_are_unordered():
    state = random_state(5)
    stars = majorana_stars(state)
    swapped = MajoranaStars(stars.s2, stars.s1)
    assert same_pair(stars, swapped, 0.0 + 1e-15)


def test_round_trip_reconstruction():
    for seed in range(40):
        state = random_state(seed)
        stars = majorana_stars(state)
        if min(stars.s1[2], stars.s2[2]) < -1.0 + 1e-6:
            continue  # a star at the south pole drops the degree
        roots = [
            (s[0] + 1j * s[1]) / (1.0 + s[2])
            for s in (stars.s1, stars.s2)
        ]
        # monic polynomial from the projected roots, rescaled to a state
        a0 = 1.0
        a1 = -(roots[0] + roots[1])
        a2 = roots[0] * roots[1]
        vec = np.array([np.sqrt(2) * a0, -a1, np.sqrt(2) * a2])
        rebuilt = PureState(vec / np.linalg.norm(vec))
        assert abs(np.vdot(rebuilt.vector, state.vector)) >= 1 - 1e-8


def test_trajectory_constant_sequence():
    state = random_state(7)
    traj = star_trajectory([state] * 5)
    for stars in traj[1:]:
        assert np.max(np.abs(stars.s1 - traj[0].s1)) < 1e-12
        assert np.max(np.abs(stars.s2 - traj[0].s2)) < 1e-12


def test_trajectory_single_segment_no_pulse():
    states = ideal_states(1, [0.0])
    checkpoints = [PureState.basis(0)] + states
    traj = star_trajectory(checkpoints)
    assert len(traj) == 3
    final = traj[-1]
    assert same_pair(final, MajoranaStars(NORTH, SOUTH), 1e-10)


def test_trajectory_labels_minimise_motion():
    states = ideal_states(25, [np.pi] * 25)
    traj = star_trajectory(states)
    assert len(traj) == 26

    def hop(a, b):
        return np.arccos(np.clip(np.dot(a, b), -1, 1))

    for prev, cur in zip(traj, traj[1:]):
        kept = hop(prev.s1, cur.s1) + hop(prev.s2, cur.s2)
        swapped = hop(prev.s1, cur.s2) + hop(prev.s2, cur.s1)
        assert kept <= swapped + 1e-12


def test_long_protocol_confines_stars_near_north_pole():
    # with full-strength pulses both stars end in the northern hemisphere,
    # approaching the pole as the protocol grows
    final_z = {}
    for n in (2, 5, 25):
        stars = majorana_stars(ideal_states(n, [np.pi] * n)[-1])
        assert stars.s1[2] == pytest.approx(stars.s2[2], abs=1e-9)
        final_z[n] = stars.s1[2]
    assert final_z[2] > 0.0
    assert final_z[25] > final_z[5] > final_z[2]
    assert final_z[25] > 0.85


def test_rejects_zero_state():
    with pytest.raises(ValueError):
        PureState(np.zeros(3))
