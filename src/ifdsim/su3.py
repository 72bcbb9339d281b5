"""Exact operator algebra for the three-level system.

Levels are ordered (|0>, |1>, |2>) as column indices everywhere. All
rotations are realised in closed form on the relevant two-level subspace,
so the returned operators are exact up to floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Operator3 = np.ndarray  # 3x3 complex matrix

UNITARITY_TOL = 1e-10

_LEVELS = (0, 1, 2)


def _check_levels(k: int, l: int) -> None:
    if k not in _LEVELS or l not in _LEVELS:
        raise ValueError(f"level indices must be in 0..2, got ({k}, {l})")
    if k == l:
        raise ValueError(f"level indices must differ, got ({k}, {l})")


def subspace_pauli(axis: str, k: int, l: int) -> Operator3:
    """Pauli generator on the {|k>, |l>} subspace, embedded in 3x3.

    sigma^x_kl = |k><l| + |l><k|
    sigma^y_kl = -i|k><l| + i|l><k|
    sigma^z_kl = |k><k| - |l><l|
    """
    _check_levels(k, l)
    m = np.zeros((3, 3), dtype=complex)
    if axis == "x":
        m[k, l] = 1.0
        m[l, k] = 1.0
    elif axis == "y":
        m[k, l] = -1.0j
        m[l, k] = 1.0j
    elif axis == "z":
        m[k, k] = 1.0
        m[l, l] = -1.0
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return m


def gellmann(index: int) -> Operator3:
    """Gell-Mann matrix lambda_1 .. lambda_8.

    lambda_{1,2} = sigma^{x,y}_01, lambda_{4,5} = sigma^{x,y}_02,
    lambda_{6,7} = sigma^{x,y}_12, lambda_3 = sigma^z_01 and
    lambda_8 = (sigma^z_02 + sigma^z_12)/sqrt(3).
    """
    table = {
        1: ("x", 0, 1),
        2: ("y", 0, 1),
        3: ("z", 0, 1),
        4: ("x", 0, 2),
        5: ("y", 0, 2),
        6: ("x", 1, 2),
        7: ("y", 1, 2),
    }
    if index in table:
        return subspace_pauli(*table[index])
    if index == 8:
        return (subspace_pauli("z", 0, 2) + subspace_pauli("z", 1, 2)) / np.sqrt(3)
    raise ValueError(f"Gell-Mann index must be in 1..8, got {index}")


def subspace_rotation_y(k: int, l: int, angle: float) -> Operator3:
    """exp(-i * angle * sigma^y_kl / 2), acting as identity on the third level."""
    _check_levels(k, l)
    if k > l:
        raise ValueError(f"expected k < l, got ({k}, {l})")
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    m = np.eye(3, dtype=complex)
    m[k, k] = c
    m[l, l] = c
    m[k, l] = -s
    m[l, k] = s
    return m


def beam_splitter(n_segments: int) -> Operator3:
    """Beam-splitter unitary for an n_segments-round protocol.

    A pi/(n_segments + 1) y-rotation on the {|0>, |1>} subspace; applying
    it n_segments + 1 times in the absence of probe pulses transfers all
    ground-state population to |1>.
    """
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    return subspace_rotation_y(0, 1, np.pi / (n_segments + 1))


def b_pulse(theta: float) -> Operator3:
    """Probe-pulse unitary of strength theta on the {|1>, |2>} subspace.

    |0><0| + cos(theta/2) I_12 - i sin(theta/2) sigma^y_12. Strengths are
    4pi-periodic; theta -> theta + 2pi flips the sign of both subspace
    amplitudes.
    """
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return subspace_rotation_y(1, 2, theta)


def is_unitary(u: Operator3, tol: float = UNITARITY_TOL) -> bool:
    u = np.asarray(u)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(3))) <= tol)


@dataclass(frozen=True)
class PureState:
    """Unit-norm qutrit state vector, ordered (|0>, |1>, |2>)."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex).reshape(3)
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("state amplitudes must be finite")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ValueError("cannot normalise the zero vector")
            v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @classmethod
    def basis(cls, level: int) -> "PureState":
        if level not in _LEVELS:
            raise ValueError(f"level must be in 0..2, got {level}")
        v = np.zeros(3, dtype=complex)
        v[level] = 1.0
        return cls(v)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """3x3 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex).reshape(3, 3)
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace must be 1, got {np.trace(m).real}")
        if np.min(np.linalg.eigvalsh(m)) < -1e-9:
            raise ValueError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))
