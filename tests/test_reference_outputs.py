"""Today's outputs as a test: every scenario's run against tests/reference_outputs.json.

Each run must give the reference's headers and row count exactly, and
its sampled rows and summary.json aggregates within an absolute 1e-12,
with nan equal to nan and integers and strings equal exactly. The
reference comes from tests/make_reference_outputs.py.
"""

import json
import math
import pathlib

import pytest

from ifdsim.config import parse_config_text
from ifdsim.scenarios import run_scenario

REFERENCE = json.loads(pathlib.Path(__file__).with_name("reference_outputs.json").read_text(encoding="ascii"))
TOLERANCE = 1e-12


def assert_matches(actual, expected, where: str) -> None:
    """actual equals the JSON value expected: floats within TOLERANCE, everything else exactly."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        close = actual == expected or abs(actual - expected) <= TOLERANCE
        assert close or (math.isnan(actual) and math.isnan(expected)), f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_outputs_match_reference(name):
    case = REFERENCE[name]
    config = parse_config_text(case["config"], case["scenario"])
    result = run_scenario(config)
    # run_scenario names the result and echoes a copy of the config it ran.
    assert (result.scenario, result.rng_seed) == (case["scenario"], config.rng_seed)
    assert result.config_echo == config.raw and result.config_echo is not config.raw
    assert list(result.headers) == case["headers"]
    assert len(result.rows) == case["row_count"]
    # The values as summary.json and the CSV hold them: JSON aggregates, plain Python rows.
    assert_matches(json.loads(json.dumps(result.aggregates)), case["aggregates"], f"{name} aggregates")
    for index, expected in case["rows"]:
        row = [v.item() if hasattr(v, "item") else v for v in result.rows[index]]
        assert_matches(row, expected, f"{name} row {index}")
