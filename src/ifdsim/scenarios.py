"""Scenario catalog for the experiment runner.

Every scenario maps a validated :class:`ExperimentConfig` to a
:class:`SweepResult` holding CSV rows plus summary aggregates. Every
scenario runs in the calling thread, one N after another; the
``threads`` setting is accepted and validated but has no effect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import ConfigError, __version__
from .config import ExperimentConfig, point_seed
from .dynamics import thermal_state
from .majorana import star_trajectory
from .metrics import cumulative_absorption, efficiency, pr_nr, sample_shots
from .protocol import (
    OutcomeProbabilities,
    ProtocolSpec,
    amplitude_recursion,
    dissipative_checkpoints,
    dissipative_sweep,
    expansion_coefficients,
    ideal_amplitudes,
    projective_closed_form,
    run_coherent_ideal,
    run_projective,
)
from .quantized import FieldCoupling, run_single_mode

# b_pulse and beam_splitter are not called here; they stay module attributes
# because the traced benchmark run (perfbench/invoke.py) wraps them by name,
# as tests/test_cli.py checks.
from .su3 import PureState, b_pulse, beam_splitter  # noqa: F401


@dataclass
class SweepResult:
    scenario: str
    headers: tuple[str, ...]
    rows: list[tuple]
    aggregates: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)
    rng_seed: int = 0


@lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """One %-format for a row of these value types: %d, %s or %.12g per value."""
    return ",".join(
        "%d" if issubclass(t, (int, np.integer)) else "%s" if issubclass(t, str) else "%.12g" for t in types
    )


def emit_csv(result: SweepResult, path: str) -> None:
    """Write rows with '.' decimals and >= 9 significant digits, locale-free."""
    lines = [",".join(result.headers)]
    for row in result.rows:
        lines.append(_row_format(tuple(map(type, row))) % tuple(row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_summary_json(result: SweepResult, path: str) -> None:
    """Machine-readable run summary; schema documented in the README."""
    payload = {
        "scenario": result.scenario,
        "library_version": __version__,
        "rng_seed": result.rng_seed,
        "config": result.config_echo,
        "row_count": len(result.rows),
        "aggregates": result.aggregates,
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_scenario(config: ExperimentConfig) -> SweepResult:
    runner, _ = SCENARIOS[config.scenario]
    result = runner(config)
    result.config_echo = dict(sorted(config.raw.items(), key=lambda kv: kv[0]))
    result.config_echo = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in result.config_echo.items()
    }
    result.rng_seed = config.rng_seed
    return result


# ---------------------------------------------------------------------------
# Strength sweeps for N = 1 and N = 2
# ---------------------------------------------------------------------------

def _initial_state(config: ExperimentConfig, model=None):
    """The configured start state: a real vector for the ideal recursion
    (|0> by default) or, given a dissipative model, a density matrix
    (thermal by default)."""
    choice = config.get("protocol.initial", "ground" if model is None else "thermal")
    if choice == "thermal":
        if model is None:
            raise ConfigError("protocol.initial = thermal requires a dissipative model")
        return thermal_state(model)
    state = PureState.basis(0 if choice == "ground" else 1)
    return state.vector if model is None else state.density()


# Model defaults of the two scenario families: the N <= 2 strength maps
# (ideal, sample 1, 56 ns probes) and the multi-segment sweeps
# (depolarizing Lindblad, sample 2, 112 ns probes).
_SMALL_N = dict(default_kind="ideal", preset="sample1", b_ns=56.0)
_MULTI = dict(default_kind="lindblad_depol", preset="sample2", b_ns=112.0)


def _probabilities(
    config: ExperimentConfig, thetas: np.ndarray, n: int, default_kind: str, preset: str, b_ns: float
) -> np.ndarray:
    """(p0, p1, p2) for a batch of strength vectors, shape (batch, 3).

    On a dissipative model, a value outside the domain of the model or
    the pulses (a negative temperature, a probe the 56 ns family cannot
    stretch to) is a configuration error.
    """
    kind = config.get("model.kind", default_kind)
    if kind == "ideal":
        return ideal_amplitudes(n, thetas, _initial_state(config)) ** 2
    try:
        model = config.decoherence(default_preset=preset)
        rho = dissipative_sweep(
            thetas,
            n,
            model,
            geometry=config.geometry(default_b_ns=b_ns),
            depolarize=(kind == "lindblad_depol"),
            initial=_initial_state(config, model),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return np.real(np.diagonal(rho, axis1=1, axis2=2))


def _ratio_rows(thetas: np.ndarray, p: np.ndarray) -> list[tuple]:
    """Rows (theta columns..., p0, p1, p2, pr, nr, eta_c), built from columns."""
    probs = OutcomeProbabilities(*p.T)
    pr, nr = pr_nr(probs)
    eta = efficiency(probs.p0, probs.p2)
    return list(zip(*thetas.T, probs.p0, probs.p1, probs.p2, pr, nr, eta))


def _run_n1_sweep(config: ExperimentConfig) -> SweepResult:
    points = config.get("sweep.points", 181)
    theta_max = config.get("sweep.theta_max_pi", 4.0) * np.pi
    thetas = np.linspace(0.0, theta_max, points)[:, None]
    p = _probabilities(config, thetas, 1, **_SMALL_N)
    return SweepResult(
        scenario="n1_sweep",
        headers=("theta_rad", "p0", "p1", "p2", "pr", "nr", "eta_c"),
        rows=_ratio_rows(thetas, p),
        aggregates={"grid_points": points, "theta_max_rad": theta_max},
    )


def _run_n2_map(config: ExperimentConfig) -> SweepResult:
    points = config.get("sweep.points", 161)
    theta_max = config.get("sweep.theta_max_pi", 4.0) * np.pi
    grid = np.linspace(0.0, theta_max, points)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    thetas = np.stack([t1.ravel(), t2.ravel()], axis=1)
    p = _probabilities(config, thetas, 2, **_SMALL_N)
    return SweepResult(
        scenario="n2_map",
        headers=("theta1_rad", "theta2_rad", "p0", "p1", "p2", "pr", "nr", "eta_c"),
        rows=_ratio_rows(thetas, p),
        aggregates={"grid_points": points * points},
    )


# ---------------------------------------------------------------------------
# Multi-segment sweeps
# ---------------------------------------------------------------------------

def _run_multi(
    config: ExperimentConfig, scenario: str, m_count: int, strengths, theta_spec, extra_stats, **aggregates
) -> SweepResult:
    """Sweep N over sweep.n_min..n_max at the multi-segment model defaults.

    strengths(n) gives the (m_count, n) strengths of size n, theta_spec
    the theta_spec column (one value per m), and extra_stats(p0) the
    scenario's per-N statistics beyond the mean and spread of p0.
    """
    rows = []
    per_n = {}
    for n in range(config.get("sweep.n_min", 1), config.get("sweep.n_max", 25) + 1):
        probs = _probabilities(config, strengths(n), n, **_MULTI)
        for m, (spec, p) in enumerate(zip(theta_spec, probs), start=1):
            rows.append((n, m, spec, *p))
        p0 = probs[:, 0]
        per_n[str(n)] = {"mean_p0": float(p0.mean()), "std_p0": float(p0.std()), **extra_stats(p0)}
    return SweepResult(
        scenario=scenario,
        headers=("n", "m", "theta_spec", "p0", "p1", "p2"),
        rows=rows,
        aggregates={"per_n": per_n, "m": m_count, **aggregates},
    )


def _run_multi_identical(config: ExperimentConfig) -> SweepResult:
    m_count = config.get("sweep.m", 180)
    theta_grid = np.arange(1, m_count + 1) * np.pi / m_count
    return _run_multi(
        config,
        "multi_identical",
        m_count,
        strengths=lambda n: np.repeat(theta_grid[:, None], n, axis=1),
        theta_spec=theta_grid,
        extra_stats=lambda p0: {"p0_at_pi": float(p0[-1])},
    )


def _random_thetas(config: ExperimentConfig, n: int, m_count: int) -> np.ndarray:
    kind = config.get("sweep.random_kind", "uniform")
    thetas = np.empty((m_count, n))
    for m in range(1, m_count + 1):
        rng = np.random.default_rng(point_seed(config.rng_seed, n, m))
        if kind == "uniform":
            thetas[m - 1] = rng.uniform(0.0, np.pi, n)
        else:
            thetas[m - 1] = rng.integers(0, 2, n) * np.pi
    return thetas


def _run_multi_random(config: ExperimentConfig) -> SweepResult:
    m_count = config.get("sweep.m", 400)
    kind = config.get("sweep.random_kind", "uniform")
    return _run_multi(
        config,
        "multi_random",
        m_count,
        strengths=lambda n: _random_thetas(config, n, m_count),
        theta_spec=[kind] * m_count,
        extra_stats=lambda p0: {"min_p0": float(p0.min()), "max_p0": float(p0.max())},
        random_kind=kind,
    )


# ---------------------------------------------------------------------------
# Histogram, trajectories, comparisons, tables
# ---------------------------------------------------------------------------

def _run_histogram(config: ExperimentConfig) -> SweepResult:
    n = config.get("protocol.n", 1)
    theta = config.get("histogram.theta_pi", 1.0) * np.pi
    shots = config.get("histogram.shots", 1_000_000)
    thetas = config.thetas(n) or (theta,) * n
    p = _probabilities(config, np.array([thetas]), n, **(_SMALL_N if n <= 2 else _MULTI))[0]
    probs = OutcomeProbabilities(*p)
    counts = sample_shots(probs, shots, point_seed(config.rng_seed, n, 0))
    rows = [
        ("d0", counts.d0, counts.d0 / counts.total),
        ("d1", counts.d1, counts.d1 / counts.total),
        ("d2", counts.d2, counts.d2 / counts.total),
    ]
    return SweepResult(
        scenario="histogram",
        headers=("detector", "count", "fraction"),
        rows=rows,
        aggregates={
            "shots": shots,
            "theta_rad": list(thetas),
            "probabilities": list(probs.as_array()),
        },
    )


def _run_majorana_trajectory(config: ExperimentConfig) -> SweepResult:
    n = config.get("protocol.n", 25)
    thetas = config.thetas(n) or (np.pi,) * n
    kind = config.get("model.kind", "ideal")
    rows = []

    def add(mode: str, states):
        for step, stars in enumerate(star_trajectory(states)):
            rows.append((step, mode, *stars.s1, *stars.s2))

    ideal_init = PureState.basis(0).vector if kind != "ideal" else _initial_state(config)
    ideal = ideal_amplitudes(n, [thetas], ideal_init, checkpoints=True)[0]
    add("ideal", [PureState(v) for v in ideal])
    if kind != "ideal":
        defaults = _SMALL_N if n <= 2 else _MULTI
        try:
            model = config.decoherence(default_preset=defaults["preset"])
            geometry = config.geometry(default_b_ns=defaults["b_ns"])
            initial = _initial_state(config, model)
            spec = ProtocolSpec(n, thetas, initial, model=kind, decoherence=model, pulse_geometry=geometry)
            checkpoints = dissipative_checkpoints(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        add("dissipative_dominant", [c.dominant_eigenvector() for c in checkpoints])
    return SweepResult(
        scenario="majorana_trajectory",
        headers=("step", "mode", "s1x", "s1y", "s1z", "s2x", "s2y", "s2z"),
        rows=rows,
        aggregates={"n": n, "model": kind},
    )


def _run_projective_compare(config: ExperimentConfig) -> SweepResult:
    n_min = config.get("sweep.n_min", 1)
    n_max = config.get("sweep.n_max", 25)
    rows = []
    for n in range(n_min, n_max + 1):
        thetas = [np.pi] * n
        p = run_coherent_ideal(ProtocolSpec(n, thetas))
        amps = amplitude_recursion(n, thetas)
        cum_coh = cumulative_absorption([g * g for _, _, g in amps[1:]])
        proj = run_projective(n, thetas)
        p_det, p_abs = projective_closed_form(n)
        cum_proj = cumulative_absorption(proj.per_segment_abs)
        rows.append(
            (
                n,
                p.p0,
                p.p2,
                efficiency(p.p0, p.p2),
                p_det,
                p_abs,
                efficiency(p_det, p_abs),
                cum_coh,
                cum_proj,
            )
        )
    return SweepResult(
        scenario="projective_compare",
        headers=(
            "n",
            "p0_coh",
            "p2_coh",
            "eta_c",
            "p_det_proj",
            "p_abs_proj",
            "eta_proj",
            "cum_abs_coh",
            "cum_abs_proj",
        ),
        rows=rows,
    )


def _run_coefficients(config: ExperimentConfig) -> SweepResult:
    n_min = config.get("sweep.n_min", 1)
    n_max = config.get("sweep.n_max", 4)
    rows = []
    for n in range(n_min, n_max + 1):
        tables = expansion_coefficients(n)
        for series, coeffs in zip(("amp0", "amp1", "amp2"), tables):
            for k, value in enumerate(coeffs):
                rows.append((n, series, k, value))
    return SweepResult(
        scenario="coefficients",
        headers=("n", "series", "k", "value"),
        rows=rows,
    )


def _run_quantized_check(config: ExperimentConfig) -> SweepResult:
    n_max_segments = config.get("sweep.n_max", 5)
    rows = []
    worst = 0.0
    for n in range(1, n_max_segments + 1):
        for photons in range(1, 5):
            coupling = FieldCoupling(g=np.pi / np.sqrt(photons), t_b=1.0)
            theta = coupling.g * np.sqrt(photons) * coupling.t_b
            quantum = run_single_mode(n, photons, coupling).qutrit_marginals()
            classical = run_coherent_ideal(ProtocolSpec(n, [theta] * n)).as_array()
            for level in range(3):
                diff = abs(quantum[level] - classical[level])
                worst = max(worst, diff)
                rows.append((n, photons, level, classical[level], quantum[level], diff))
    return SweepResult(
        scenario="quantized_check",
        headers=("n", "n_photons", "level", "p_semiclassical", "p_quantized", "abs_diff"),
        rows=rows,
        aggregates={"max_abs_diff": worst},
    )


# name -> (runner, CSV file name): the one list of scenarios.
SCENARIOS = {
    "n1_sweep": (_run_n1_sweep, "n1_sweep.csv"),
    "n2_map": (_run_n2_map, "n2_map.csv"),
    "multi_identical": (_run_multi_identical, "multi.csv"),
    "multi_random": (_run_multi_random, "multi.csv"),
    "histogram": (_run_histogram, "histogram.csv"),
    "majorana_trajectory": (_run_majorana_trajectory, "majorana.csv"),
    "projective_compare": (_run_projective_compare, "compare.csv"),
    "coefficients": (_run_coefficients, "coefficients.csv"),
    "quantized_check": (_run_quantized_check, "quantized_check.csv"),
}
CSV_NAMES = {name: csv_name for name, (_, csv_name) in SCENARIOS.items()}
