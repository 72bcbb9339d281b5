"""The benchmark's checks must reject corrupted outputs.

    python3 -m pytest perfbench

Small real outputs of the program are made once per module, then each
test corrupts a copy and expects the check to fail: a probability moved
by 1e-6 on a row the reference recomputes, a dropped row, and one byte
changed between two runs of the same invocation.
"""

import os
import shutil

import pytest

import checks
import run
import workloads


def _emit(tmp, scenario, config_text):
    cfg = os.path.join(tmp, f"{scenario}.cfg")
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(config_text)
    out = os.path.join(tmp, scenario)
    record = run.invoke(scenario, cfg, out, out + ".json")
    assert record["ok"], record.get("error")
    return out


def _rewrite(src_dir, dst_dir, edit):
    """Copy an output directory, passing the CSV's lines through edit()."""
    shutil.copytree(src_dir, dst_dir)
    name = next(n for n in os.listdir(dst_dir) if n.endswith(".csv"))
    path = os.path.join(dst_dir, name)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    return path


def _shift(lines, row, column, delta):
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    return lines[: row + 1] + [",".join(fields)] + lines[row + 2:]


def _drop(lines, row):
    return lines[: row + 1] + lines[row + 2:]


RANDOM = dict(workloads.RANDOM_N25, m_count=2)
MAP = dict(workloads.STRETCH_MAP, points=2)


@pytest.fixture(scope="module")
def dissipative(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("dissipative"))
    random_text = workloads.invocations("random_n25", 7)[0][1].replace("sweep.m = 400", "sweep.m = 2")
    map_text = workloads.invocations("stretch_map", 7)[0][1].replace("sweep.points = 41", "sweep.points = 2")
    return _emit(tmp, "multi_random", random_text), _emit(tmp, "n2_map", map_text)


@pytest.fixture(scope="module")
def ideal(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("ideal"))
    return {s: _emit(tmp, s, "rng_seed = 7\n") for s in workloads.IDEAL_SCENARIOS}


def _check_random(path, sample=(1,)):
    return checks.check_multi_random(path, rng_seed=7, sample=list(sample), **RANDOM)


def _check_map(path, sample=(3,)):
    return checks.check_n2_map_dissipative(path, sample=list(sample), **MAP)


def test_untouched_outputs_pass(dissipative, ideal):
    random_dir, map_dir = dissipative
    assert _check_random(os.path.join(random_dir, "multi.csv"), sample=(0, 1)) == []
    assert _check_map(os.path.join(map_dir, "n2_map.csv"), sample=(0, 1, 2, 3)) == []
    for scenario, out in ideal.items():
        assert workloads.check_outputs("ideal_catalogue", 7, scenario, out) == [], scenario


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_reference_rejects_p0_shift(dissipative, tmp_path, delta):
    random_dir, map_dir = dissipative
    # Row 1 at N = 25; row 3 of the map is (4 pi, 4 pi), a 61 ns probe.
    path = _rewrite(random_dir, tmp_path / "r", lambda lines: _shift(lines, 1, 3, delta))
    assert any("vs reference" in e for e in _check_random(path))
    path = _rewrite(map_dir, tmp_path / "m", lambda lines: _shift(lines, 3, 2, delta))
    assert any("vs reference" in e for e in _check_map(path))


def test_reference_sees_the_stretched_probe(dissipative):
    """The reference must stretch probes above 3.38 pi as the program does."""
    _, map_dir = dissipative
    _, rows = checks.read_csv(os.path.join(map_dir, "n2_map.csv"))
    unstretched = checks.reference.dissipative_probabilities(
        [float(rows[3][0]), float(rows[3][1])], "sample1", 56.0, 56.0, stretch=False
    )
    assert abs(unstretched[0] - float(rows[3][2])) > 10 * checks.REFERENCE_TOL


def test_dropped_row_rejected(dissipative, ideal, tmp_path):
    random_dir, map_dir = dissipative
    assert _check_random(_rewrite(random_dir, tmp_path / "r", lambda lines: _drop(lines, 0)), sample=())
    assert _check_map(_rewrite(map_dir, tmp_path / "m", lambda lines: _drop(lines, 2)), sample=())
    for scenario, out in ideal.items():
        bad = tmp_path / scenario
        _rewrite(out, bad, lambda lines: _drop(lines, 1))
        assert workloads.check_outputs("ideal_catalogue", 7, scenario, str(bad)), scenario


@pytest.mark.parametrize("scenario,row,column", [
    ("n2_map", 5000, 2),
    ("n1_sweep", 40, 1),
    ("projective_compare", 3, 4),
    ("coefficients", 7, 3),
    ("majorana_trajectory", 9, 4),
    ("quantized_check", 11, 4),
])
def test_ideal_value_shift_rejected(ideal, tmp_path, scenario, row, column):
    _rewrite(ideal[scenario], tmp_path / "x", lambda lines: _shift(lines, row, column, 1e-6))
    assert workloads.check_outputs("ideal_catalogue", 7, scenario, str(tmp_path / "x"))


def test_changed_byte_between_runs_rejected(dissipative, tmp_path, monkeypatch):
    _, map_dir = dissipative
    second = tmp_path / "second"
    shutil.copytree(map_dir, second)
    assert checks.identical(os.path.join(map_dir, "n2_map.csv"), str(second / "n2_map.csv")) == []
    path = second / "summary.json"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert checks.identical(os.path.join(map_dir, "summary.json"), str(path))

    # verify() counts the second run as failed.
    records = [{"ok": True, "scenario": "n2_map", "out_dir": d} for d in (map_dir, str(second))]
    monkeypatch.setattr(workloads, "check_outputs", lambda *args: [])
    attempted, failed, errors = run.verify("stretch_map", 7, [[records[0]], [records[1]]])
    assert (attempted, failed) == (2, 1) and errors
