import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ifdsim
from ifdsim import ConfigError, NumericToleranceError, protocol, scenarios
from ifdsim.cli import build_parser, main
from ifdsim.config import load_config, parse_config_text, point_seed
from ifdsim.scenarios import CSV_NAMES, SCENARIOS, run_scenario


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_basic_config():
    cfg = parse_config_text(
        """
        # comment
        scenario = n1_sweep
        sweep.points = 5
        rng_seed = 7
        """
    )
    assert cfg.scenario == "n1_sweep"
    assert cfg.get("sweep.points") == 5
    assert cfg.rng_seed == 7


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = n1_sweep\nsweeps.points = 5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = n1_sweep\nrng_seed = 1\nrng_seed = 2\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = n1_sweep\nsweep.points = many\n")


def test_scenario_mismatch_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = n1_sweep\n", scenario="n2_map")


def test_missing_scenario_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("rng_seed = 1\n")


def test_range_validation():
    with pytest.raises(ConfigError):
        parse_config_text("scenario = multi_random\nsweep.m = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("scenario = multi_random\nsweep.random_kind = gaussian\n")


def test_unknown_scenario_in_config_file_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "u.cfg", "scenario = n3_sweep\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(cfg)
    assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / "u")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_choices_come_from_the_scenario_table():
    parser = build_parser()
    for name in SCENARIOS:
        assert parser.parse_args([name, "--config", "c.cfg"]).scenario == name
    with pytest.raises(SystemExit) as exc:
        main(["n3_sweep", "--config", "c.cfg"])
    assert exc.value.code == 2
    assert CSV_NAMES == {name: csv_name for name, (_, csv_name) in SCENARIOS.items()}


def test_traced_benchmark_names_resolve():
    # The traced benchmark run wraps each (module, attribute) of its TRACED
    # table where scenarios and protocol look the name up.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "invoke.py"
    spec = importlib.util.spec_from_file_location("perfbench_invoke", path)
    invoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(invoke)
    modules = {"scenarios": scenarios, "protocol": protocol}
    missing = [
        (module, attr) for module, attr, _ in invoke.TRACED if not callable(getattr(modules[module], attr, None))
    ]
    assert invoke.TRACED and not missing


def test_theta_broadcasting():
    cfg = parse_config_text("scenario = histogram\nprotocol.thetas_pi = 0.5\n")
    assert cfg.thetas(3) == pytest.approx((np.pi / 2,) * 3)
    cfg = parse_config_text("scenario = histogram\nprotocol.thetas_pi = 0.5,1.0\n")
    with pytest.raises(ConfigError):
        cfg.thetas(3)


def test_decoherence_overrides():
    cfg = parse_config_text(
        "scenario = n1_sweep\ndecoherence.preset = sample1\ndecoherence.temperature_k = 0.07\n"
    )
    model = cfg.decoherence("sample2")
    assert model.temperature == pytest.approx(0.07)
    assert model.gamma10 == pytest.approx(0.72e6)


def test_point_seed_is_stable():
    # part of the reproducibility contract: sha256("ifdsim:1:2:3")[:8]
    assert point_seed(1, 2, 3) == 0xB0BC2F439859BD78
    assert point_seed(1, 2, 3) != point_seed(1, 2, 4)
    assert point_seed(1, 2, 3) != point_seed(2, 2, 3)


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------

def test_cli_n1_sweep_ideal(tmp_path):
    cfg = write(tmp_path, "a.cfg", "sweep.points = 9\nsweep.theta_max_pi = 4\n")
    out = tmp_path / "out"
    assert main(["n1_sweep", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "n1_sweep.csv")
    assert headers == ["theta_rad", "p0", "p1", "p2", "pr", "nr", "eta_c"]
    assert len(rows) == 9
    theta = [float(r[0]) for r in rows]
    assert theta[0] == 0.0 and theta[-1] == pytest.approx(4 * np.pi)
    p0 = [float(r[1]) for r in rows]
    assert p0 == pytest.approx([np.sin(t / 4) ** 4 for t in theta], abs=1e-9)


def test_cli_exit_code_on_bad_config(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "nonsense = 1\n")
    assert main(["n1_sweep", "--config", cfg]) == 2
    assert main(["n1_sweep", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_exit_code_on_numeric_failure(tmp_path, monkeypatch):
    cfg = write(tmp_path, "a.cfg", "sweep.points = 3\n")

    def boom(config):
        raise NumericToleranceError("synthetic")

    monkeypatch.setattr("ifdsim.cli.run_scenario", boom)
    assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "scenario, text",
    [
        ("n1_sweep", "model.kind = lindblad\nsweep.points = 3\n"),
        ("multi_random", "sweep.n_max = 3\nsweep.m = 4\n"),
    ],
)
def test_cli_exit_code_on_unstable_integration(tmp_path, capsys, scenario, text):
    # A decay rate of 1e11/s makes RK4 at 1 ns steps diverge.
    cfg = write(tmp_path, "stiff.cfg", text + "decoherence.gamma10_hz = 1e11\n")
    out = tmp_path / "stiff"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 3
    assert "beam splitter 1 of" in capsys.readouterr().err
    assert not out.exists()


def run_cli_process(*args):
    """`python -m ifdsim.cli` in a fresh interpreter on this checkout, warnings shown."""
    src = os.path.dirname(os.path.dirname(ifdsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-W", "default", *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "scenario, text",
    [
        ("n1_sweep", "model.kind = lindblad\nsweep.points = 3\n"),
        ("multi_random", "sweep.n_max = 3\nsweep.m = 4\n"),
    ],
)
def test_cli_numeric_failure_prints_one_line(tmp_path, scenario, text):
    cfg = write(tmp_path, "stiff.cfg", text + "decoherence.gamma10_hz = 1e11\n")
    proc = run_cli_process("-m", "ifdsim.cli", scenario, "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("numeric tolerance failure:")


@pytest.mark.parametrize("scenario", ["coefficients", "projective_compare", "quantized_check"])
@pytest.mark.parametrize("text", ["model.kind = lindbladd\n", "protocol.initial = groundd\n"], ids=["kind", "initial"])
def test_cli_misspelt_choice_exits_2(tmp_path, capsys, scenario, text):
    # These scenarios never read the two keys, so only the parser can catch a typo.
    cfg = write(tmp_path, "typo.cfg", "sweep.n_max = 2\n" + text)
    out = tmp_path / "typo"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    code = "import sys, ifdsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_cli_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "text",
    [
        "model.kind = lindblad\nsweep.theta_max_pi = 5\n",
        "sweep.theta_max_pi = nan\n",
        "decoherence.temperature_k = -1\n",
        "model.kind = lindblad\ndecoherence.temperature_k = -1\n",
        "protocol.thetas_pi = 1,inf\n",
        "pulse.sampling_rate_hz = 0\n",
    ],
    ids=["stretch_out_of_range", "nan_theta", "negative_temperature_ideal",
         "negative_temperature_lindblad", "infinite_theta_list", "zero_sampling_rate"],
)
def test_cli_out_of_domain_values_exit_2(tmp_path, capsys, text):
    cfg = write(tmp_path, "bad.cfg", "sweep.points = 3\n" + text)
    assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = write(
        tmp_path,
        "multi.cfg",
        "model.kind = ideal\nsweep.n_max = 3\nsweep.m = 6\nrng_seed = 5\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["multi_random", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["multi_random", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "multi.csv").read_bytes() == (out2 / "multi.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_cli_thread_count_does_not_change_bytes(tmp_path):
    cfg = write(
        tmp_path,
        "multi.cfg",
        "model.kind = ideal\nsweep.n_max = 4\nsweep.m = 5\nrng_seed = 3\n",
    )
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    assert main(["multi_random", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["multi_random", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "multi.csv").read_bytes() == (out2 / "multi.csv").read_bytes()


def test_cli_seed_override_changes_random_sweep(tmp_path):
    cfg = write(tmp_path, "multi.cfg", "model.kind = ideal\nsweep.n_max = 2\nsweep.m = 4\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["multi_random", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["multi_random", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "multi.csv").read_bytes() != (out2 / "multi.csv").read_bytes()


def test_env_var_thread_default(tmp_path, monkeypatch):
    cfg = write(tmp_path, "a.cfg", "model.kind = ideal\nsweep.n_max = 2\nsweep.m = 3\n")
    monkeypatch.setenv("IFD_SIM_THREADS", "2")
    out = tmp_path / "env"
    assert main(["multi_identical", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "multi.csv").exists()
    for bad in ("two", "0"):
        monkeypatch.setenv("IFD_SIM_THREADS", bad)
        assert main(["multi_identical", "--config", cfg, "--out", str(tmp_path / bad)]) == 2


def test_grid_coverage_unique(tmp_path):
    cfg = parse_config_text("scenario = multi_identical\nmodel.kind = ideal\nsweep.n_max = 4\nsweep.m = 7\n")
    result = run_scenario(cfg)
    keys = [(row[0], row[1]) for row in result.rows]
    assert len(keys) == len(set(keys)) == 4 * 7


def test_summary_aggregates_match_csv(tmp_path):
    cfg = write(
        tmp_path,
        "multi.cfg",
        "model.kind = ideal\nsweep.n_max = 3\nsweep.m = 8\nrng_seed = 2\n",
    )
    out = tmp_path / "agg"
    assert main(["multi_identical", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "multi.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "multi_identical"
    assert summary["rng_seed"] == 2
    for n in ("1", "2", "3"):
        p0 = [float(r[3]) for r in rows if r[0] == n]
        assert summary["aggregates"]["per_n"][n]["mean_p0"] == pytest.approx(np.mean(p0), abs=1e-9)


def test_histogram_scenario_no_pulse(tmp_path):
    cfg = write(
        tmp_path,
        "hist.cfg",
        "protocol.n = 1\nhistogram.theta_pi = 0\nhistogram.shots = 1000\nmodel.kind = ideal\n",
    )
    out = tmp_path / "hist"
    assert main(["histogram", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "histogram.csv")
    assert headers == ["detector", "count", "fraction"]
    by_det = {r[0]: (int(r[1]), float(r[2])) for r in rows}
    assert by_det["d1"] == (1000, 1.0)
    assert by_det["d0"][0] == 0 and by_det["d2"][0] == 0


def test_majorana_scenario_rows(tmp_path):
    cfg = write(tmp_path, "maj.cfg", "protocol.n = 3\nmodel.kind = lindblad\n")
    out = tmp_path / "maj"
    assert main(["majorana_trajectory", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "majorana.csv")
    assert headers == ["step", "mode", "s1x", "s1y", "s1z", "s2x", "s2y", "s2z"]
    modes = {r[1] for r in rows}
    assert modes == {"ideal", "dissipative_dominant"}
    ideal_rows = [r for r in rows if r[1] == "ideal"]
    assert len(ideal_rows) == 2 * 3 + 2
    # trajectory starts with both stars at the north pole
    assert float(ideal_rows[0][4]) == pytest.approx(1.0)
    assert float(ideal_rows[0][7]) == pytest.approx(1.0)


def test_compare_scenario(tmp_path):
    cfg = write(tmp_path, "cmp.cfg", "sweep.n_max = 6\n")
    out = tmp_path / "cmp"
    assert main(["projective_compare", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "compare.csv")
    assert headers[0] == "n" and len(rows) == 6
    for row in rows[1:]:  # coherent advantage for every N >= 2
        assert float(row[1]) > float(row[4])
        assert float(row[3]) > float(row[6])


def test_coefficients_scenario(tmp_path):
    cfg = write(tmp_path, "c.cfg", "rng_seed = 0\n")
    out = tmp_path / "coef"
    assert main(["coefficients", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "coefficients.csv")
    assert headers == ["n", "series", "k", "value"]
    # N = 1 detection-amplitude series is (0.5, -0.5)
    amp0_n1 = {int(r[2]): float(r[3]) for r in rows if r[0] == "1" and r[1] == "amp0"}
    assert amp0_n1 == {0: pytest.approx(0.5), 1: pytest.approx(-0.5)}


def test_quantized_check_scenario(tmp_path):
    cfg = write(tmp_path, "q.cfg", "sweep.n_max = 3\n")
    out = tmp_path / "q"
    assert main(["quantized_check", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "quantized_check.csv")
    assert headers[-1] == "abs_diff"
    assert max(float(r[-1]) for r in rows) < 1e-9


def test_n2_map_rows_and_order(tmp_path):
    cfg = write(tmp_path, "n2.cfg", "sweep.points = 5\n")
    out = tmp_path / "n2"
    assert main(["n2_map", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "n2_map.csv")
    assert len(rows) == 25
    t1 = [float(r[0]) for r in rows]
    assert t1 == sorted(t1)  # lexicographic over grid indices


def test_n1_sweep_dissipative_with_stretch_region(tmp_path):
    cfg = write(
        tmp_path,
        "n1d.cfg",
        "model.kind = lindblad\nsweep.points = 5\nsweep.theta_max_pi = 4\n",
    )
    out = tmp_path / "n1d"
    assert main(["n1_sweep", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "n1_sweep.csv")
    assert len(rows) == 5
    p0 = [float(r[1]) for r in rows]
    # decoherence keeps the endpoint maximum below the ideal value of 1
    assert 0.8 < max(p0) < 1.0
    totals = [float(r[1]) + float(r[2]) + float(r[3]) for r in rows]
    assert all(abs(t - 1.0) < 1e-6 for t in totals)


def test_initial_state_config_key(tmp_path):
    cfg = write(
        tmp_path,
        "init.cfg",
        "model.kind = ideal\nprotocol.initial = level1\nsweep.points = 3\nsweep.theta_max_pi = 1\n",
    )
    out = tmp_path / "init"
    assert main(["n1_sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "n1_sweep.csv")
    # starting from |1> with no pulse, the protocol maps |1> -> -|0>
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)


def test_initial_thermal_requires_dissipative():
    cfg = parse_config_text("scenario = n1_sweep\nprotocol.initial = thermal\nsweep.points = 3\n")
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_emit_csv_empty_result(tmp_path):
    from ifdsim.scenarios import SweepResult, emit_csv

    path = tmp_path / "empty.csv"
    emit_csv(SweepResult(scenario="n1_sweep", headers=("a", "b"), rows=[]), str(path))
    assert path.read_text() == "a,b\n"


def test_emit_csv_matches_the_per_value_rule(tmp_path):
    from ifdsim.scenarios import SweepResult, emit_csv

    def per_value(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        return "{:.12g}".format(float(v))

    rows = [
        (1, np.int64(-7), "d0", 0.1, np.float64(2.0 / 3.0)),
        (True, np.int32(3), "uniform", -0.0, 1e-300),
        (0, np.int64(0), "", 1e21, np.float64(-1e21)),
        (2**70, np.uint8(255), "x", float("nan"), np.float64(np.inf)),
        (5, np.int64(5), "d2", np.float32(0.1), 123456789012.5),
        (1.5, 2, 3, 4.0, "s"),
    ]
    path = tmp_path / "mixed.csv"
    emit_csv(SweepResult(scenario="histogram", headers=("a", "b", "c", "d", "e"), rows=rows), str(path))
    expected = "a,b,c,d,e\n" + "".join(",".join(map(per_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("ascii")


def test_multi_identical_ideal_endpoint(tmp_path):
    cfg = parse_config_text(
        "scenario = multi_identical\nmodel.kind = ideal\nsweep.n_min = 25\nsweep.n_max = 25\nsweep.m = 10\n"
    )
    result = run_scenario(cfg)
    # final grid row is theta = pi; the long ideal protocol detects with
    # near-certainty
    last = result.rows[-1]
    assert last[0] == 25 and last[1] == 10
    assert last[3] >= 0.95
