"""The three workloads: their `ifd-sim` inputs and the checks on their outputs.

Each workload is a list of invocations, `(scenario, config text)`, that
one round runs in order, one process at a time, with `--threads 1`.
The benchmark seed sets `rng_seed` in every config and chooses the rows
the reference recomputes; grids and sizes are fixed, so every seed asks
for the same amount of work.
"""

from __future__ import annotations

import math
import os

import numpy as np

import checks

# Published random-strength point (acceptance criterion 9c): deep and narrow.
RANDOM_N25 = dict(n=25, m_count=400, preset="sample2", s_ns=56.0, b_ns=112.0)
# Two strong-drive probes on a 41 x 41 grid: shallow and wide, with stretched probes.
STRETCH_MAP = dict(points=41, theta_max_pi=4.0, preset="sample1", s_ns=56.0, b_ns=56.0)
STRETCH_FROM = 3.38 * math.pi
# Every closed-system scenario at its ideal defaults, in the order a round runs them.
IDEAL_SCENARIOS = (
    "n2_map",
    "n1_sweep",
    "projective_compare",
    "coefficients",
    "majorana_trajectory",
    "quantized_check",
    "histogram",
)
# Output file names from the README; this process does not import the program.
CSV_NAMES = {
    "multi_random": "multi.csv",
    "n2_map": "n2_map.csv",
    "n1_sweep": "n1_sweep.csv",
    "projective_compare": "compare.csv",
    "coefficients": "coefficients.csv",
    "majorana_trajectory": "majorana.csv",
    "quantized_check": "quantized_check.csv",
    "histogram": "histogram.csv",
}
# Rows recomputed by the reference integrator (about 1 s each at N = 25,
# 0.1-0.2 s each on the map).
RANDOM_SAMPLE = 3
STRETCH_SAMPLE_HIGH = 3
STRETCH_SAMPLE_LOW = 2

WORKLOADS = ("random_n25", "stretch_map", "ideal_catalogue")


def _config(items: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def invocations(workload: str, seed: int) -> list[tuple[str, str]]:
    if workload == "random_n25":
        w = RANDOM_N25
        return [("multi_random", _config({
            "model.kind": "lindblad_depol",
            "decoherence.preset": w["preset"],
            "pulse.s_duration_ns": w["s_ns"],
            "pulse.b_duration_ns": w["b_ns"],
            "sweep.n_min": w["n"],
            "sweep.n_max": w["n"],
            "sweep.m": w["m_count"],
            "rng_seed": seed,
        }))]
    if workload == "stretch_map":
        w = STRETCH_MAP
        return [("n2_map", _config({
            "model.kind": "lindblad_depol",
            "decoherence.preset": w["preset"],
            "pulse.s_duration_ns": w["s_ns"],
            "pulse.b_duration_ns": w["b_ns"],
            "sweep.points": w["points"],
            "sweep.theta_max_pi": w["theta_max_pi"],
            "rng_seed": seed,
        }))]
    if workload == "ideal_catalogue":
        return [(scenario, _config({"rng_seed": seed})) for scenario in IDEAL_SCENARIOS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _choose(rng: np.random.Generator, population, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(np.asarray(population), size=k, replace=False))


def reference_rows(workload: str, seed: int) -> list[int]:
    """Row indices the reference recomputes, chosen by the seed."""
    rng = np.random.default_rng([seed, 0x1FD])
    if workload == "random_n25":
        return _choose(rng, range(RANDOM_N25["m_count"]), RANDOM_SAMPLE)
    if workload == "stretch_map":
        w = STRETCH_MAP
        grid = np.linspace(0.0, w["theta_max_pi"] * math.pi, w["points"])
        high = np.maximum.outer(grid, grid).ravel() > STRETCH_FROM
        return sorted(_choose(rng, np.flatnonzero(high), STRETCH_SAMPLE_HIGH)
                      + _choose(rng, np.flatnonzero(~high), STRETCH_SAMPLE_LOW))
    return []


def check_outputs(workload: str, seed: int, scenario: str, out_dir: str) -> list[str]:
    """Every check on one invocation's CSV and summary.json."""
    csv_path = os.path.join(out_dir, CSV_NAMES[scenario])
    sample = reference_rows(workload, seed)
    if workload == "random_n25":
        errors = checks.check_multi_random(csv_path, rng_seed=seed, sample=sample, **RANDOM_N25)
    elif workload == "stretch_map":
        errors = checks.check_n2_map_dissipative(csv_path, sample=sample, **STRETCH_MAP)
    else:
        errors = {
            "n2_map": checks.check_n2_map_ideal,
            "n1_sweep": checks.check_n1_sweep,
            "projective_compare": checks.check_projective_compare,
            "coefficients": checks.check_coefficients,
            "majorana_trajectory": checks.check_majorana,
            "quantized_check": checks.check_quantized,
            "histogram": checks.check_histogram,
        }[scenario](csv_path)
    _, rows = checks.read_csv(csv_path)
    errors += checks.check_summary(os.path.join(out_dir, "summary.json"), scenario=scenario, row_count=len(rows))
    return errors

