"""Majorana stellar representation of qutrit pure states.

A spin-1 state maps to two points on the unit sphere through the roots
of its Majorana polynomial. With the qutrit levels (|0>, |1>, |2>)
identified with the spin projections m = (+1, 0, -1), the polynomial of
a state (alpha, beta, gamma) is

    P(z) = (alpha / sqrt 2) z^2 - beta z + gamma / sqrt 2,

and each root maps to the sphere by inverse stereographic projection
from the south pole. A vanishing leading coefficient drops the degree
and contributes a star at the south pole itself. Level |0> therefore
sits at the double north pole, |2> at the double south pole and |1> at
one of each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su3 import PureState

_DEGREE_DROP = 1e-12


@dataclass(frozen=True)
class MajoranaStars:
    """Unordered pair of unit vectors on the sphere."""

    s1: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        for name in ("s1", "s2"):
            v = np.array(getattr(self, name), dtype=float).reshape(3)
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValueError(f"{name} is not a unit vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def majorana_polynomial(state: PureState) -> tuple[complex, complex, complex]:
    """Coefficients (a0, a1, a2) of the degree-2 Majorana polynomial."""
    alpha, beta, gamma = state.vector
    return (
        complex(alpha / np.sqrt(2.0)),
        complex(-beta),
        complex(gamma / np.sqrt(2.0)),
    )


def _project(root: complex) -> np.ndarray:
    m2 = abs(root) ** 2
    return np.array(
        [2.0 * root.real / (1.0 + m2), 2.0 * root.imag / (1.0 + m2), (1.0 - m2) / (1.0 + m2)]
    )


_SOUTH = np.array([0.0, 0.0, -1.0])


def majorana_stars(state: PureState) -> MajoranaStars:
    """Both stars of a qutrit state.

    Roots of the Majorana polynomial are projected onto the sphere;
    degree deficits (leading coefficients below 1e-12 of the largest)
    are handled symbolically as roots at infinity, i.e. south-pole stars.
    """
    a0, a1, a2 = majorana_polynomial(state)
    scale = max(abs(a0), abs(a1), abs(a2))
    points = []
    if abs(a0) < _DEGREE_DROP * scale:
        points.append(_SOUTH)
        if abs(a1) < _DEGREE_DROP * scale:
            points.append(_SOUTH)  # state is |2> itself
        else:
            points.append(_project(-a2 / a1))
    else:
        disc = np.sqrt(complex(a1 * a1 - 4.0 * a0 * a2))
        points.append(_project((-a1 + disc) / (2.0 * a0)))
        points.append(_project((-a1 - disc) / (2.0 * a0)))
    return MajoranaStars(points[0], points[1])


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))


def star_trajectory(states) -> list[MajoranaStars]:
    """Star pairs along a state sequence with consistent labels.

    The two stars of each step are assigned to the labels of the
    previous step so that the total great-circle displacement is
    minimal; ties keep the previous assignment.
    """
    out: list[MajoranaStars] = []
    for state in states:
        stars = majorana_stars(state)
        if not out:
            out.append(stars)
            continue
        prev = out[-1]
        keep = _angle(prev.s1, stars.s1) + _angle(prev.s2, stars.s2)
        swap = _angle(prev.s1, stars.s2) + _angle(prev.s2, stars.s1)
        if swap < keep:
            stars = MajoranaStars(stars.s2, stars.s1)
        out.append(stars)
    return out
