"""Scenario catalog for the experiment runner.

Every scenario is a runner in ``SCENARIOS`` that maps a validated
:class:`ExperimentConfig` to its own results only: CSV headers, rows and
summary aggregates (``{}`` where it has none). :func:`run_scenario` is
the one place that builds the :class:`SweepResult`, adding the scenario
name, the config echo and the seed. The rows are a list of tuples or,
for the strength sweeps, numpy columns read row by row, so those rows
are made only as they are written. The two model families, the N <= 2
strength maps and the multi-segment sweeps, each keep their model
defaults in one record. Every scenario runs in the calling thread, one
N after another; the ``threads`` setting is accepted and validated but
has no effect.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import ConfigError, __version__
from .config import ExperimentConfig, point_seed
from .dynamics import thermal_state
from .majorana import star_trajectory
from .metrics import cumulative_absorption, efficiency, pr_nr, sample_shots
from .protocol import (
    EXPANSION_MAX_N,
    OutcomeProbabilities,
    ProtocolSpec,
    amplitude_recursion,
    dissipative_sweep,
    expansion_coefficients,
    ideal_amplitudes,
    populations,
    projective_closed_form,
    run_coherent_ideal,
    run_projective,
)
from .quantized import FieldCoupling, run_single_mode, theta_n
from .rng import next64, pcg64

# b_pulse and beam_splitter are not called here; they stay module attributes
# because the traced benchmark run (perfbench/invoke.py) wraps them by name,
# as tests/test_cli.py checks.
from .su3 import PureState, b_pulse, beam_splitter  # noqa: F401


# Rows formatted and written per piece by emit_csv.
CSV_CHUNK_ROWS = 4096


@dataclass
class SweepResult:
    """One scenario run: its CSV headers and rows, its summary aggregates and the config that made it.

    A runner in SCENARIOS computes only (headers, rows, aggregates), its
    :data:`Run`; :func:`run_scenario` adds the scenario name, a copy of
    the config's raw values and its seed.
    """

    scenario: str
    headers: tuple[str, ...]
    rows: Sequence[tuple]
    aggregates: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)
    rng_seed: int = 0


# What a scenario runner returns: (headers, rows, aggregates).
Run = tuple[tuple[str, ...], Sequence[tuple], dict]


def _value_format(t: type) -> str:
    """The %-format of a value of type t: %d for integers, %s for strings, %.12g otherwise."""
    return "%d" if issubclass(t, (int, np.integer)) else "%s" if issubclass(t, str) else "%.12g"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the header and rows as CSV, '.' decimals, locale-free.

    Each value is written by one rule: ``%d`` for integers, the text for
    strings and ``%.12g`` otherwise (at most 12 significant digits,
    trailing zeros dropped). Rows are formatted and written
    ``CSV_CHUNK_ROWS`` at a time, so at most one chunk of text is held.
    The rule is decided once per column per chunk, or value by value in
    a column of several types. A row of the wrong length raises
    ``ValueError``.
    """
    _write_atomically(path, _csv_pieces(result))


def _csv_pieces(result: SweepResult) -> Iterator[str]:
    """The header line, then the text of each chunk of rows, formatted by one row template."""
    yield ",".join(result.headers) + "\n"
    rows = result.rows
    rows_left = iter(rows)
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        if isinstance(rows, _Columns):
            columns = [column[start : start + CSV_CHUNK_ROWS] for column in rows._columns]
        else:
            columns = list(zip(*islice(rows_left, CSV_CHUNK_ROWS), strict=True))
        formats = []
        for i, column in enumerate(columns):
            # A numpy column of a fixed dtype holds one type and is not scanned.
            fixed = isinstance(column, np.ndarray) and column.dtype != object
            types = {column.dtype.type} if fixed else set(map(type, column))
            if len(types) == 1:
                formats.append(_value_format(*types))
            else:
                formats.append("%s")
                columns[i] = [_value_format(type(v)) % v for v in column]
        template = ",".join(formats) + "\n"
        yield "".join(map(template.__mod__, zip(*columns, strict=True)))


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
    _write_atomically(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_atomically(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces in order to a temp file beside path, then rename it over path.

    A run that fails part-way, while the pieces are still being made,
    leaves path as it was, and no temp file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def run_scenario(config: ExperimentConfig) -> SweepResult:
    """Run the configured scenario; the one place a SweepResult is built."""
    runner, _ = SCENARIOS[config.scenario]
    headers, rows, aggregates = runner(config)
    return SweepResult(config.scenario, headers, rows, aggregates, dict(config.raw), config.rng_seed)


def _n_range(config: ExperimentConfig, default_max: int, limit: int | None = None) -> range:
    """sweep.n_min..sweep.n_max, with this scenario's default n_max.

    An empty range, or an n_max above the scenario's limit, is a
    configuration error; the parser has already checked both ends >= 1.
    """
    n_min = config.get("sweep.n_min", 1)
    n_max = config.get("sweep.n_max", default_max)
    if n_min > n_max:
        raise ConfigError(f"need sweep.n_min <= sweep.n_max, got {n_min} > {n_max}")
    if limit is not None and n_max > limit:
        raise ConfigError(f"sweep.n_max must be <= {limit} for {config.scenario}, got {n_max}")
    return range(n_min, n_max + 1)


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
_SMALL_N = dict(kind="ideal", preset="sample1", b_ns=56.0)
_MULTI = dict(kind="lindblad_depol", preset="sample2", b_ns=112.0)


def _family(n: int) -> dict:
    """The model defaults of the family an N-segment run belongs to."""
    return _SMALL_N if n <= 2 else _MULTI


def _dissipative_run(config: ExperimentConfig, thetas: np.ndarray, n: int, family: dict, collect_checkpoints=False):
    """dissipative_sweep of a batch of strength vectors on the configured model, pulse geometry and start state.

    The family's kind, preset and probe length fill in what the config
    does not set. A value outside the domain of the model or the pulses (a negative
    temperature, a probe the 56 ns family cannot stretch to) is a
    configuration error.
    """
    try:
        model = config.decoherence(default_preset=family["preset"])
        return dissipative_sweep(
            thetas,
            n,
            model,
            geometry=config.geometry(default_b_ns=family["b_ns"]),
            depolarize=(config.get("model.kind", family["kind"]) == "lindblad_depol"),
            initial=_initial_state(config, model),
            collect_checkpoints=collect_checkpoints,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _probabilities(config: ExperimentConfig, thetas: np.ndarray, n: int, family: dict) -> np.ndarray:
    """(p0, p1, p2) for a batch of strength vectors, shape (batch, 3)."""
    if config.get("model.kind", family["kind"]) == "ideal":
        return ideal_amplitudes(n, thetas, _initial_state(config)) ** 2
    return populations(_dissipative_run(config, thetas, n, family))


class _Columns(Sequence):
    """Rows read from equal-length columns; a row tuple exists only while it is read."""

    def __init__(self, *columns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index: int) -> tuple:
        return tuple(column[index] for column in self._columns)

    def __iter__(self) -> Iterator[tuple]:
        return zip(*self._columns)


def _ratio_rows(thetas: np.ndarray, p: np.ndarray) -> _Columns:
    """Rows (theta columns..., p0, p1, p2, pr, nr, eta_c) from columns; a ratio is nan where its denominator is <= 0."""
    probs = OutcomeProbabilities(*p.T)
    pr, nr = pr_nr(probs)
    return _Columns(*thetas.T, probs.p0, probs.p1, probs.p2, pr, nr, efficiency(probs.p0, probs.p2))


def _run_n1_sweep(config: ExperimentConfig) -> Run:
    points = config.get("sweep.points", 181)
    theta_max = config.get("sweep.theta_max_pi", 4.0) * np.pi
    thetas = np.linspace(0.0, theta_max, points)[:, None]
    p = _probabilities(config, thetas, 1, _SMALL_N)
    headers = ("theta_rad", "p0", "p1", "p2", "pr", "nr", "eta_c")
    return headers, _ratio_rows(thetas, p), {"grid_points": points, "theta_max_rad": theta_max}


def _run_n2_map(config: ExperimentConfig) -> Run:
    points = config.get("sweep.points", 161)
    theta_max = config.get("sweep.theta_max_pi", 4.0) * np.pi
    grid = np.linspace(0.0, theta_max, points)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    thetas = np.stack([t1.ravel(), t2.ravel()], axis=1)
    p = _probabilities(config, thetas, 2, _SMALL_N)
    headers = ("theta1_rad", "theta2_rad", "p0", "p1", "p2", "pr", "nr", "eta_c")
    return headers, _ratio_rows(thetas, p), {"grid_points": points * points}


# ---------------------------------------------------------------------------
# Multi-segment sweeps
# ---------------------------------------------------------------------------

def _run_multi(config: ExperimentConfig, m_count: int, strengths, theta_spec, extra_stats, **aggregates) -> Run:
    """Sweep N over sweep.n_min..n_max at the multi-segment model defaults.

    strengths(n) gives the (m_count, n) strengths of size n, theta_spec
    the theta_spec column (one value per m), and extra_stats(p0) the
    scenario's per-N statistics beyond the mean and spread of p0.
    """
    rows = []
    per_n = {}
    for n in _n_range(config, 25):
        probs = _probabilities(config, strengths(n), n, _MULTI)
        for m, (spec, p) in enumerate(zip(theta_spec, probs), start=1):
            rows.append((n, m, spec, *p))
        p0 = probs[:, 0]
        per_n[str(n)] = {"mean_p0": float(p0.mean()), "std_p0": float(p0.std()), **extra_stats(p0)}
    return ("n", "m", "theta_spec", "p0", "p1", "p2"), rows, {"per_n": per_n, "m": m_count, **aggregates}


def _run_multi_identical(config: ExperimentConfig) -> Run:
    m_count = config.get("sweep.m", 180)
    theta_grid = np.arange(1, m_count + 1) * np.pi / m_count
    return _run_multi(
        config,
        m_count,
        strengths=lambda n: np.repeat(theta_grid[:, None], n, axis=1),
        theta_spec=theta_grid,
        extra_stats=lambda p0: {"p0_at_pi": float(p0[-1])},
    )


def _seeded_strengths(seeds: np.ndarray, n: int, kind: str) -> np.ndarray:
    """The (len(seeds), n) strengths np.random.default_rng(s) draws for each seed s < 2**64.

    uniform: rng.uniform(0, pi, n); binary: rng.integers(0, 2, n) * pi.
    """
    state, inc = pcg64(np.asarray(seeds, dtype=np.uint64))
    draws = np.empty((len(seeds), n if kind == "uniform" else (n + 1) // 2), dtype=np.uint64)
    for k in range(draws.shape[1]):
        state, draws[:, k] = next64(state, inc)
    if kind == "uniform":
        return np.pi * ((draws >> np.uint64(11)) * 2.0**-53)
    # Each 64-bit draw gives two 32-bit draws, low half first; integers(0, 2)
    # takes the top bit of each.
    bits = np.stack([(draws >> np.uint64(31)) & np.uint64(1), draws >> np.uint64(63)], axis=2)
    return bits.reshape(len(seeds), -1)[:, :n] * np.pi


def _random_thetas(config: ExperimentConfig, n: int, m_count: int, kind: str) -> np.ndarray:
    """The (m_count, n) strengths of grid points (n, 1..m_count), each from default_rng(point_seed)."""
    seeds = np.fromiter((point_seed(config.rng_seed, n, m) for m in range(1, m_count + 1)), np.uint64, m_count)
    return _seeded_strengths(seeds, n, kind)


def _run_multi_random(config: ExperimentConfig) -> Run:
    m_count = config.get("sweep.m", 400)
    kind = config.get("sweep.random_kind", "uniform")
    return _run_multi(
        config,
        m_count,
        strengths=lambda n: _random_thetas(config, n, m_count, kind),
        theta_spec=[kind] * m_count,
        extra_stats=lambda p0: {"min_p0": float(p0.min()), "max_p0": float(p0.max())},
        random_kind=kind,
    )


# ---------------------------------------------------------------------------
# Histogram, trajectories, comparisons, tables
# ---------------------------------------------------------------------------

def _run_histogram(config: ExperimentConfig) -> Run:
    n = config.get("protocol.n", 1)
    theta = config.get("histogram.theta_pi", 1.0) * np.pi
    shots = config.get("histogram.shots", 1_000_000)
    thetas = config.thetas(n) or (theta,) * n
    p = _probabilities(config, np.array([thetas]), n, _family(n))[0]
    probs = OutcomeProbabilities(*p)
    counts = sample_shots(probs, shots, point_seed(config.rng_seed, n, 0))
    rows = [
        ("d0", counts.d0, counts.d0 / counts.total),
        ("d1", counts.d1, counts.d1 / counts.total),
        ("d2", counts.d2, counts.d2 / counts.total),
    ]
    aggregates = {"shots": shots, "theta_rad": list(thetas), "probabilities": list(probs.as_array())}
    return ("detector", "count", "fraction"), rows, aggregates


def _run_majorana_trajectory(config: ExperimentConfig) -> Run:
    n = config.get("protocol.n", 25)
    thetas = config.thetas(n) or (np.pi,) * n
    kind = config.get("model.kind", "ideal")
    rows = []

    def add(mode: str, states):
        for step, stars in enumerate(star_trajectory(states)):
            rows.append((step, mode, *stars.s1, *stars.s2))

    # The reference starts from the configured pure state; a thermal start's is its dominant eigenvector |0>.
    thermal = kind != "ideal" and config.get("protocol.initial", "thermal") == "thermal"
    ideal_init = PureState.basis(0).vector if thermal else _initial_state(config)
    ideal = ideal_amplitudes(n, [thetas], ideal_init, checkpoints=True)[0]
    add("ideal", [PureState(v) for v in ideal])
    if kind != "ideal":
        _, checkpoints = _dissipative_run(config, np.array([thetas]), n, _family(n), collect_checkpoints=True)
        rho = np.concatenate(checkpoints)
        # Each Hermitian part's top eigenvector: clipping the solver's small negative
        # eigenvalues cannot move it, as a trace-1 row's largest eigenvalue is >= 1/3.
        _, vectors = np.linalg.eigh(0.5 * (rho + rho.conj().transpose(0, 2, 1)))
        add("dissipative_dominant", [PureState(v) for v in vectors[:, :, -1]])
    return ("step", "mode", "s1x", "s1y", "s1z", "s2x", "s2y", "s2z"), rows, {"n": n, "model": kind}


def _run_projective_compare(config: ExperimentConfig) -> Run:
    rows = []
    for n in _n_range(config, 25):
        thetas = [np.pi] * n
        amps = amplitude_recursion(n, thetas)
        alpha, _, gamma = amps[-1]
        p0, p2 = alpha * alpha, gamma * gamma
        cum_coh = cumulative_absorption([g * g for _, _, g in amps[1:]])
        proj = run_projective(n, thetas)
        p_det, p_abs = projective_closed_form(n)
        cum_proj = cumulative_absorption(proj.per_segment_abs)
        rows.append(
            (
                n,
                p0,
                p2,
                efficiency(p0, p2),
                p_det,
                p_abs,
                efficiency(p_det, p_abs),
                cum_coh,
                cum_proj,
            )
        )
    headers = ("n", "p0_coh", "p2_coh", "eta_c", "p_det_proj", "p_abs_proj", "eta_proj", "cum_abs_coh", "cum_abs_proj")
    return headers, rows, {}


def _run_coefficients(config: ExperimentConfig) -> Run:
    rows = []
    for n in _n_range(config, 4, limit=EXPANSION_MAX_N):
        tables = expansion_coefficients(n)
        for series, coeffs in zip(("amp0", "amp1", "amp2"), tables):
            for k, value in enumerate(coeffs):
                rows.append((n, series, k, value))
    return ("n", "series", "k", "value"), rows, {}


def _run_quantized_check(config: ExperimentConfig) -> Run:
    rows = []
    worst = 0.0
    for n in _n_range(config, 5):
        for photons in range(1, 5):
            coupling = FieldCoupling(g=np.pi / np.sqrt(photons), t_b=1.0)
            theta = theta_n(coupling.g, photons, coupling.t_b)
            quantum = run_single_mode(n, photons, coupling).qutrit_marginals()
            classical = run_coherent_ideal(ProtocolSpec(n, [theta] * n)).as_array()
            for level in range(3):
                diff = abs(quantum[level] - classical[level])
                worst = max(worst, diff)
                rows.append((n, photons, level, classical[level], quantum[level], diff))
    return ("n", "n_photons", "level", "p_semiclassical", "p_quantized", "abs_diff"), rows, {"max_abs_diff": worst}


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
