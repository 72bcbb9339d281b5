"""Fully quantum treatment of the probe pulse.

The probe field is one or two bosonic modes (or a two-level system in
the toy model) exchanging quanta with the 1-2 transition of the
detector. The resonant coupling conserves total excitation number, so
each pair (|n> x |1>, |n-1> x |2>) forms a closed two-dimensional block
that undergoes a rotation by theta_n = g sqrt(n) t_B. The blocks are
rotated in closed form rather than by exponentiating the Hamiltonian,
with the rotation sense chosen to embed the semiclassical probe pulse
b_pulse(theta_n) per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su3 import beam_splitter


@dataclass(frozen=True)
class FieldCoupling:
    """Exchange coupling g (rad/s) acting for a time t_B (s)."""

    g: float
    t_b: float

    def __post_init__(self):
        if self.g < 0 or self.t_b < 0:
            raise ValueError("coupling strength and duration must be non-negative")


def theta_n(g: float, n: int, t_b: float) -> float:
    """Rotation strength of an n-photon probe: g sqrt(n) t_B."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return g * np.sqrt(n) * t_b


@dataclass(frozen=True)
class CompositeState:
    """Amplitudes over (field occupations..., qutrit level).

    mode_dims lists the Fock-space truncation sizes; the qutrit is always
    the last axis with dimension 3.
    """

    amplitudes: np.ndarray
    mode_dims: tuple[int, ...]

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        expected = tuple(self.mode_dims) + (3,)
        if a.shape != expected:
            raise ValueError(f"amplitudes shape {a.shape} does not match {expected}")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1 within 1e-10")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def amplitude(self, *index) -> complex:
        return complex(self.amplitudes[index])

    def qutrit_marginals(self) -> np.ndarray:
        """(p0, p1, p2) after tracing out all field modes."""
        probs = np.abs(self.amplitudes) ** 2
        return probs.reshape(-1, 3).sum(axis=0)

    def truncation_leakage(self) -> float:
        """Largest amplitude magnitude on any top Fock level."""
        worst = 0.0
        for axis in range(len(self.mode_dims)):
            top = np.take(self.amplitudes, -1, axis=axis)
            worst = max(worst, float(np.max(np.abs(top))))
        return worst


def jc_hamiltonian(g: float, n_max: int) -> np.ndarray:
    """Resonant exchange Hamiltonian (i g / 2)(b^dag |1><2| - b |2><1|).

    Returned as a matrix over the product basis |n> x |level> with the
    qutrit index fastest, n = 0..n_max. Hermitian; the block spanned by
    (|n,1>, |n-1,2>) has eigenvalues +- g sqrt(n) / 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dim = (n_max + 1) * 3
    h = np.zeros((dim, dim), dtype=complex)
    for n in range(1, n_max + 1):
        i1 = n * 3 + 1  # |n, 1>
        i2 = (n - 1) * 3 + 2  # |n-1, 2>
        h[i1, i2] = 0.5j * g * np.sqrt(n)
        h[i2, i1] = -0.5j * g * np.sqrt(n)
    return h


def _exchange_unitary(g: float, t_b: float, dims: tuple[int, ...], mode: int) -> np.ndarray:
    """Exchange coupling between the qutrit and one mode of the field.

    dims lists the Fock truncation of each mode, and the qutrit index is
    fastest. Each block (|.., n, .., 1>, |.., n - 1, .., 2>), n the
    occupation of the coupled mode, is rotated by theta_n = g sqrt(n) t_B
    in the same sense as the semiclassical b_pulse, so an n-photon Fock
    state drives exactly the classical strength-theta_n pulse.
    """
    shape = tuple(dims) + (3,)
    u = np.eye(int(np.prod(shape)), dtype=complex)
    for occ in np.ndindex(*dims):
        n = occ[mode]
        if n < 1:
            continue
        th = theta_n(g, n, t_b)
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        lowered = occ[:mode] + (n - 1,) + occ[mode + 1:]
        i1 = np.ravel_multi_index(occ + (1,), shape)
        i2 = np.ravel_multi_index(lowered + (2,), shape)
        u[i1, i1] = c
        u[i2, i2] = c
        u[i1, i2] = -s
        u[i2, i1] = s
    return u


def coupling_unitary(g: float, t_b: float, n_max: int) -> np.ndarray:
    """Probe-segment unitary on the (mode x qutrit) space, Fock levels 0..n_max.

    Each (|n,1>, |n-1,2>) block is rotated by theta_n = g sqrt(n) t_B.
    """
    return _exchange_unitary(g, t_b, (n_max + 1,), 0)


def _splitter_on_composite(n_segments: int, field_dim: int) -> np.ndarray:
    return np.kron(np.eye(field_dim), beam_splitter(n_segments))


def run_single_mode(
    n_segments: int,
    n_photons: int,
    coupling: FieldCoupling,
    n_max: int | None = None,
) -> CompositeState:
    """Protocol with one Fock-state mode |n_photons> as the probe.

    Starts from |n_photons> x |0> and alternates beam splitters with the
    exchange coupling. Absorption always lowers the field by exactly one
    quantum, so the |2> branch lives on |n_photons - 1>.
    """
    if n_max is None:
        n_max = n_photons + 2
    if n_photons >= n_max:
        raise ValueError("n_photons must be below the truncation n_max")
    dim = n_max + 1
    psi = np.zeros(dim * 3, dtype=complex)
    psi[n_photons * 3 + 0] = 1.0
    s = _splitter_on_composite(n_segments, dim)
    u = coupling_unitary(coupling.g, coupling.t_b, n_max)
    psi = s @ psi
    for _ in range(n_segments):
        psi = s @ (u @ psi)
    state = CompositeState(psi.reshape(dim, 3), (dim,))
    if state.truncation_leakage() > 1e-8:
        raise ValueError("truncation leakage above 1e-8; increase n_max")
    return state


def run_two_mode(
    m_photons: int,
    n_photons: int,
    g1: float,
    g2: float,
    t_b1: float,
    t_b2: float,
    n_max: int | None = None,
) -> CompositeState:
    """Two-segment protocol interrogating two distinct modes.

    The mode holding n_photons couples in the first segment, the mode
    holding m_photons in the second. Axis order of the result is
    (mode-b occupancy m, mode-a occupancy n, qutrit level). The second
    mode can gain a quantum through re-emission from |2>, so its
    truncation leaves headroom above m_photons + 1.
    """
    if n_max is None:
        n_max = max(m_photons, n_photons) + 3
    if m_photons + 1 >= n_max or n_photons >= n_max:
        raise ValueError("photon numbers too close to the truncation n_max")
    dims = (n_max + 1, n_max + 1)  # (mode-b, mode-a)
    psi = np.zeros(dims[0] * dims[1] * 3, dtype=complex)
    psi[(m_photons * dims[1] + n_photons) * 3 + 0] = 1.0
    s = _splitter_on_composite(2, dims[0] * dims[1])
    u_first = _exchange_unitary(g1, t_b1, dims, mode=1)  # mode-a (n photons)
    u_second = _exchange_unitary(g2, t_b2, dims, mode=0)  # mode-b (m photons)
    psi = s @ psi
    psi = s @ (u_first @ psi)
    psi = s @ (u_second @ psi)
    state = CompositeState(psi.reshape(dims[0], dims[1], 3), dims)
    if state.truncation_leakage() > 1e-8:
        raise ValueError("truncation leakage above 1e-8; increase n_max")
    return state


def run_qubit_probe(
    n_segments: int,
    alpha: complex,
    beta: complex,
    target_initial: int = 0,
    theta_single: float = np.pi,
) -> CompositeState:
    """Toy model: the probe is a two-level system in alpha|0> + beta|1>.

    The coupling strength is set so that the single-excitation block
    rotates by theta_single per segment. For long protocols and the
    detector starting in |0> this maps
    alpha|0_q>|0> + beta|1_q>|0> onto alpha|0_q>|1> + beta|1_q>|0>,
    detecting the probe excitation without absorbing it.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")
    if target_initial not in (0, 1):
        raise ValueError("target_initial must be level 0 or 1")
    psi = np.zeros(2 * 3, dtype=complex)
    psi[0 * 3 + target_initial] = alpha
    psi[1 * 3 + target_initial] = beta
    s = _splitter_on_composite(n_segments, 2)
    u = coupling_unitary(theta_single, 1.0, n_max=1)
    psi = s @ psi
    for _ in range(n_segments):
        psi = s @ (u @ psi)
    return CompositeState(psi.reshape(2, 3), (2,))
