"""Regenerate reference_outputs.json, the outputs test_reference_outputs.py holds the program to.

    PYTHONPATH=src python tests/make_reference_outputs.py

Every scenario runs at its defaults, and the benchmark's random_n25 and
stretch_map configs run as well, all at rng_seed = 1. For each run the
reference keeps the CSV headers, the row count, the summary.json
aggregates and a sample of rows: the first, every k-th and the last,
with k = max(1, rows // SAMPLED_ROWS). Floats are written by repr, so
they keep every digit. A change that regenerates the file says which
runs moved, and by at most how much, where it records its changes.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ifdsim.config import parse_config_text
from ifdsim.scenarios import SCENARIOS, run_scenario

REFERENCE = pathlib.Path(__file__).with_name("reference_outputs.json")
SAMPLED_ROWS = 200

# name -> (scenario, config text)
RUNS = {name: (name, "rng_seed = 1\n") for name in SCENARIOS}
RUNS["random_n25"] = (
    "multi_random",
    "model.kind = lindblad_depol\ndecoherence.preset = sample2\npulse.s_duration_ns = 56.0\n"
    "pulse.b_duration_ns = 112.0\nsweep.n_min = 25\nsweep.n_max = 25\nsweep.m = 400\nrng_seed = 1\n",
)
RUNS["stretch_map"] = (
    "n2_map",
    "model.kind = lindblad_depol\ndecoherence.preset = sample1\npulse.s_duration_ns = 56.0\n"
    "pulse.b_duration_ns = 56.0\nsweep.points = 41\nsweep.theta_max_pi = 4.0\nrng_seed = 1\n",
)


def plain(row) -> list:
    """A CSV row as JSON values: int for every integer, float for every other number, str as is."""
    return [v if isinstance(v, str) else int(v) if isinstance(v, (int, np.integer)) else float(v) for v in row]


def reference_entry(scenario: str, text: str) -> dict:
    result = run_scenario(parse_config_text(text, scenario))
    count = len(result.rows)
    step = max(1, count // SAMPLED_ROWS)
    sampled = sorted(set(range(0, count, step)) | {count - 1}) if count else []
    return {
        "scenario": scenario,
        "config": text,
        "headers": list(result.headers),
        "row_count": count,
        "aggregates": json.loads(json.dumps(result.aggregates)),
        "rows": [[i, plain(result.rows[i])] for i in sampled],
    }


def main() -> None:
    runs = {name: reference_entry(scenario, text) for name, (scenario, text) in RUNS.items()}
    # One sampled row per line, so a regenerated file diffs row by row.
    lines = []
    for name, entry in runs.items():
        head = {key: value for key, value in entry.items() if key != "rows"}
        rows = ",\n".join(f"    {json.dumps(row)}" for row in entry["rows"])
        lines.append(f"  {json.dumps(name)}: {json.dumps(head)[:-1]}, \"rows\": [\n{rows}\n  ]}}")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="ascii")


if __name__ == "__main__":
    main()
