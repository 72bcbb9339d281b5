import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ifdsim
from ifdsim import ConfigError, NumericToleranceError, metrics, protocol, rng, scenarios
from ifdsim.cli import build_parser, main
from ifdsim.config import KNOWN_KEYS, load_config, parse_config_text, point_seed
from ifdsim.dynamics import SAMPLE_2, thermal_state
from ifdsim.majorana import star_trajectory
from ifdsim.protocol import dissipative_sweep
from ifdsim.pulses import PulseGeometry
from ifdsim.scenarios import CSV_NAMES, SCENARIOS, run_scenario
from ifdsim.su3 import PureState


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def assert_config_error(tmp_path, capsys, scenario, text):
    """The CLI exits 2 with a one-line config error and writes no output directory."""
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "bad"
    assert main([scenario, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert not out.exists()
    return err


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


def perfbench_invoke():
    """perfbench/invoke.py as a module, loaded from its file without running it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "invoke.py"
    spec = importlib.util.spec_from_file_location("perfbench_invoke", path)
    invoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(invoke)
    return invoke


def test_traced_benchmark_names_resolve():
    # The traced benchmark run wraps each (module, attribute) of its TRACED
    # table where scenarios and protocol look the name up.
    invoke = perfbench_invoke()
    modules = {"scenarios": scenarios, "protocol": protocol}
    missing = [
        (module, attr) for module, attr, _ in invoke.TRACED if not callable(getattr(modules[module], attr, None))
    ]
    assert invoke.TRACED and not missing


def test_traced_benchmark_counts_segment_rows(monkeypatch):
    # The traced benchmark wraps protocol.lindblad_segment_batch by name and
    # counts rows from its first argument. A dissipative sweep makes two
    # calls: the beam splitter on the 9 basis matrices, then every probe
    # node on 9 each (three exact nodes here), and wrapping changes nothing.
    geometry = PulseGeometry(b_duration=112e-9)
    thetas = np.pi * np.array([[0.3, 1.0], [0.5, 0.3]])
    untraced = dissipative_sweep(thetas, 2, SAMPLE_2, geometry=geometry)
    # recorded so that monkeypatch puts the unwrapped function back
    monkeypatch.setattr(protocol, "lindblad_segment_batch", protocol.lindblad_segment_batch)
    tracer = perfbench_invoke().Tracer()
    tracer.wrap(protocol, "lindblad_segment_batch", "dynamics.segment")
    traced = dissipative_sweep(thetas, 2, SAMPLE_2, geometry=geometry)
    assert [span[4] for span in tracer.spans if span[0] == "dynamics.segment"] == [9, 9 * 3]
    np.testing.assert_array_equal(traced, untraced)


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


def numpy_strengths(seeds, n, kind):
    """The strengths of the reproducibility contract, one numpy generator per seed."""
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    if kind == "uniform":
        return np.array([rng.uniform(0.0, np.pi, n) for rng in rngs])
    return np.array([rng.integers(0, 2, n) * np.pi for rng in rngs])


@pytest.mark.parametrize("n", [1, 2, 7, 25])
def test_seeded_strengths_are_numpys_default_rng_stream(n):
    # Seeds below 2**32 are one SeedSequence entropy word, larger ones two;
    # an odd N leaves the upper half of the last binary draw unused.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds += [point_seed(base, n, m) for base in (0, 1, 7919, 2**64 - 1) for m in (1, 2, 400)]
    array = np.array(seeds, dtype=np.uint64)
    words = rng._seed_words(array)
    for i, seed in enumerate(seeds):
        np.testing.assert_array_equal(words[:, i], np.random.SeedSequence(seed).generate_state(4, np.uint64))
    for kind in ("uniform", "binary"):
        np.testing.assert_array_equal(scenarios._seeded_strengths(array, n, kind), numpy_strengths(seeds, n, kind))


@pytest.mark.parametrize("kind", ["uniform", "binary"])
def test_multi_random_builds_no_generator(tmp_path, monkeypatch, kind):
    # The sweep draws its strengths without a per-point numpy generator and
    # writes the bytes that the generators' own draws give.
    cfg = write(tmp_path, "r.cfg", f"model.kind = lindblad_depol\nsweep.n_min = 3\nsweep.n_max = 4\nsweep.m = 10\n"
                f"sweep.random_kind = {kind}\nrng_seed = 7919\n")
    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "_seeded_strengths", numpy_strengths)
        assert main(["multi_random", "--config", cfg, "--out", str(tmp_path / "numpy")]) == 0

    def no_generator(*args, **kwargs):
        raise AssertionError("multi_random built a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert main(["multi_random", "--config", cfg, "--out", str(tmp_path / "port")]) == 0
    for name in ("multi.csv", "summary.json"):
        assert (tmp_path / "port" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


@pytest.mark.parametrize("shots", [1_000_000, 2**53 - 1])
def test_histogram_builds_no_generator(tmp_path, monkeypatch, shots):
    # The shot counts come without a numpy generator and are written as
    # the bytes that default_rng(point_seed).multinomial gives.
    cfg = write(tmp_path, "h.cfg", f"histogram.shots = {shots}\nhistogram.theta_pi = 0.7\nrng_seed = 7919\n")
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "multinomial", lambda seed, n, p: np.random.default_rng(seed).multinomial(n, p).tolist())
        assert main(["histogram", "--config", cfg, "--out", str(tmp_path / "numpy")]) == 0

    def no_generator(*args, **kwargs):
        raise AssertionError("histogram built a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert main(["histogram", "--config", cfg, "--out", str(tmp_path / "port")]) == 0
    for name in ("histogram.csv", "summary.json"):
        assert (tmp_path / "port" / name).read_bytes() == (tmp_path / "numpy" / name).read_bytes()


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


# Both stiff configs start at N = 1 and fail at the first segment.
STIFF_FAILURE = "numeric tolerance failure: beam splitter 1 of 2, row 0: non-finite density matrix"


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
    assert capsys.readouterr().err == STIFF_FAILURE + "\n"
    assert not out.exists()


def test_cli_failed_run_keeps_earlier_outputs(tmp_path, capsys):
    text = "model.kind = lindblad\nsweep.points = 3\n"
    out = tmp_path / "out"
    assert main(["n1_sweep", "--config", write(tmp_path, "good.cfg", text), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["n1_sweep.csv", "summary.json"]
    stiff = write(tmp_path, "stiff.cfg", text + "decoherence.gamma10_hz = 1e11\n")
    assert main(["n1_sweep", "--config", stiff, "--out", str(out)]) == 3
    assert capsys.readouterr().err == STIFF_FAILURE + "\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_emit_interrupted_before_rename_keeps_old_file(tmp_path, monkeypatch):
    result = scenarios.SweepResult("n1_sweep", ("a",), [(1,)])
    path = tmp_path / "out.txt"
    scenarios.emit_summary_json(result, str(path))
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(scenarios.os, "replace", crash)
    result.rows.append((2,))
    for emit in (scenarios.emit_summary_json, scenarios.emit_csv):
        with pytest.raises(OSError, match="disk gone"):
            emit(result, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    # A row that cannot be formatted, in the second chunk: the first chunk
    # has reached the temp file when the error is raised.
    removed_sizes = []

    def remove(tmp, remove=os.remove):
        removed_sizes.append(os.path.getsize(tmp))
        remove(tmp)

    monkeypatch.setattr(scenarios.os, "remove", remove)
    chunk = scenarios.CSV_CHUNK_ROWS
    broken = scenarios.SweepResult("n1_sweep", ("a",), [(0.5,)] * (chunk + 1) + [(None,)])
    with pytest.raises(TypeError, match="NoneType"):
        scenarios.emit_csv(broken, str(path))
    assert removed_sizes == [len("a\n") + chunk * len("0.5\n")]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    # A row one value short or one value long, in the second chunk, raises
    # instead of being written short or cut to the width of the others.
    for odd_row in [(0.5,), (0.5, 1, 2)]:
        removed_sizes.clear()
        ragged = scenarios.SweepResult("n1_sweep", ("a", "b"), [(0.5, 1)] * (chunk + 1) + [odd_row])
        with pytest.raises(ValueError, match="zip"):
            scenarios.emit_csv(ragged, str(path))
        assert removed_sizes == [len("a,b\n") + chunk * len("0.5,1\n")]
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


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
    assert lines == [STIFF_FAILURE], proc.stderr


@pytest.mark.parametrize("scenario", ["coefficients", "projective_compare", "quantized_check"])
@pytest.mark.parametrize("text", ["model.kind = lindbladd\n", "protocol.initial = groundd\n"], ids=["kind", "initial"])
def test_cli_misspelt_choice_exits_2(tmp_path, capsys, scenario, text):
    # These scenarios never read the two keys, so only the parser can catch a typo.
    assert_config_error(tmp_path, capsys, scenario, "sweep.n_max = 2\n" + text)


@pytest.mark.parametrize(
    "scenario, text",
    [
        ("coefficients", "sweep.n_max = 30\n"),
        ("coefficients", "sweep.n_min = 10\n"),
        ("quantized_check", "sweep.n_min = 6\n"),
        ("projective_compare", "sweep.n_min = 26\n"),
        ("multi_random", "sweep.n_min = 3\nsweep.n_max = 2\n"),
        ("multi_identical", "sweep.n_max = 0\n"),
    ],
    ids=["coefficients_beyond_tables", "coefficients_empty", "quantized_empty", "compare_empty",
         "multi_reversed", "multi_zero"],
)
def test_cli_bad_n_range_exits_2(tmp_path, capsys, scenario, text):
    # Each range is checked against the scenario's own default n_max:
    # 4 for coefficients, 5 for quantized_check, 25 otherwise.
    assert_config_error(tmp_path, capsys, scenario, text)


_TOO_BIG = "100000000000000000000"  # above 2**63 - 1
# 2**62 float64 values: more than numpy can represent, so it would reject
# them before allocating anything.
_UNREPRESENTABLE = str(2**62)


@pytest.mark.parametrize(
    "scenario, text, key",
    [
        ("n1_sweep", "# r\u00e9glage du balayage\nsweep.points = 3\n", None),
        ("histogram", f"histogram.shots = {_TOO_BIG}\n", "histogram.shots"),
        ("histogram", f"histogram.shots = {2**53}\n", "histogram.shots"),
        ("multi_random", f"model.kind = ideal\nsweep.n_max = 1\nsweep.m = {_TOO_BIG}\n", "sweep.m"),
        ("multi_identical", f"model.kind = ideal\nsweep.n_max = 1\nsweep.m = {_TOO_BIG}\n", "sweep.m"),
        ("n1_sweep", f"sweep.points = {_TOO_BIG}\n", "sweep.points"),
        ("histogram", f"protocol.n = {_TOO_BIG}\n", "protocol.n"),
        ("n1_sweep", f"sweep.points = {_UNREPRESENTABLE}\n", "sweep.points"),
        ("n2_map", f"sweep.points = {_UNREPRESENTABLE}\n", "sweep.points"),
        ("multi_identical", f"sweep.m = {_UNREPRESENTABLE}\n", "sweep.m"),
        ("multi_random", f"sweep.m = {_UNREPRESENTABLE}\n", "sweep.m"),
        ("majorana_trajectory", f"protocol.n = {_UNREPRESENTABLE}\n", "protocol.n"),
        ("projective_compare", f"sweep.n_min = {_UNREPRESENTABLE}\nsweep.n_max = {_UNREPRESENTABLE}\n", "sweep.n_min"),
    ],
    ids=["non_ascii_comment", "histogram_shots", "histogram_shots_2_53", "multi_random_m", "multi_identical_m",
         "n1_points", "histogram_n", "n1_points_unrepresentable", "n2_points_unrepresentable",
         "multi_identical_m_unrepresentable", "multi_random_m_unrepresentable", "majorana_n_unrepresentable",
         "compare_n_unrepresentable"],
)
def test_cli_unreadable_file_or_oversized_integer_exits_2(tmp_path, capsys, scenario, text, key):
    # A config file must be ASCII, and integer keys stop at 2**63 - 1
    # (rng_seed is hashed, so it has no upper bound); sizes stop at
    # 2**60 - 1, the most float64 values numpy can represent, and shots
    # at 2**53 - 1, below which numpy's binomial arithmetic cannot wrap.
    err = assert_config_error(tmp_path, capsys, scenario, text)
    if key is not None:
        assert f"'{key}'" in err


def test_readme_config_table_lists_every_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config reference", 1)[1]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        elif keys and not line.startswith("|"):
            break
    assert keys == set(KNOWN_KEYS)


def _names_used(tree, outside=None, imports=False):
    """Every Name id and Attribute name in tree (and imported name, if asked), skipping outside's subtree."""
    skip = {id(node) for node in ast.walk(outside)} if outside is not None else set()
    used = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_public_name_is_reached():
    # A public module-level function or class, or a public method or
    # property of a class, must be used in the package outside its own
    # definition, by the acceptance tests, or be listed in the README's
    # Library section; a helper only its own unit test calls restates some
    # other definition.
    root = pathlib.Path(__file__).resolve().parents[1]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (root / "src" / "ifdsim").glob("*.py")}
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    library = (root / "README.md").read_text(encoding="utf-8").partition("\n## Library\n")[2].partition("\n## ")[0]
    reached = _names_used(acceptance, imports=True) | set(re.findall(r"`(?:\w+\.)*(\w+)", library))
    used = {module: _names_used(tree) for module, tree in trees.items()}
    unreached = []
    for module, tree in sorted(trees.items()):
        elsewhere = reached.union(*(names for other, names in used.items() if other != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            definitions = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (f"{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
            for name, definition in definitions:
                if definition.name not in elsewhere and definition.name not in _names_used(tree, outside=definition):
                    unreached.append(f"{module}.{name}")
    assert unreached == []


def test_every_module_level_import_is_used():
    # A name a module imports and never reads is left over from a deletion;
    # an import marked "# noqa: F401" is kept on purpose.
    root = pathlib.Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((root / "src" / "ifdsim").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}: {name}")
    assert unused == []


DECOHERENCE_FREE = "model.kind = lindblad\n" + "".join(
    f"decoherence.{key} = 0\n"
    for key in ("gamma10_hz", "gamma21_hz", "gphi10_hz", "gphi21_hz", "gphi02_hz", "temperature_k")
)
# A decoherence-free level-1 start whose run at (theta1, theta2) = (2 pi, pi)
# ends in |2>: p0 and p1 both clip to exactly 0 there.
ABSORBED_AT_2PI_PI = DECOHERENCE_FREE + (
    "protocol.initial = level1\npulse.s_duration_ns = 40\npulse.b_duration_ns = 112\nsweep.points = 5\n"
)


# Small fixed value sets per key. Sizes stay tiny wherever a dissipative
# model may run: the multi sweeps always get sweep.m and an n_max of at
# most 3, n2_map always gets sweep.points and majorana_trajectory
# protocol.n, so an example takes at most a few tenths of a second.
_INT_EDGE = ("0", "-1", "2.5", "abc", _TOO_BIG)
_FLOAT_EDGE = ("0", "-1", "nan", "inf", "", "1e300", "1e308", "1.7976931348623157e308", "1e-300", "5e-324", "-0.0")
_FUZZ_VALUES = {
    "sweep.points": ("2", "3") + _INT_EDGE,
    "sweep.m": ("1", "2") + _INT_EDGE,
    "sweep.n_min": ("1", "2", "10", "26") + _INT_EDGE,
    "sweep.n_max": ("1", "3", "25", "26", "30") + _INT_EDGE,
    "protocol.n": ("1", "2", "3") + _INT_EDGE,
    "histogram.shots": ("1", "100") + _INT_EDGE,
    "sweep.theta_max_pi": ("1", "4", "5") + _FLOAT_EDGE,
    "histogram.theta_pi": ("1", "3.9", "5") + _FLOAT_EDGE,
    "protocol.thetas_pi": ("1", "0.5,1", "4.5", "1,2,3", "1,inf") + _FLOAT_EDGE,
    "model.kind": ("ideal", "lindblad", "lindblad_depol", "lindbladd"),
    "protocol.initial": ("ground", "thermal", "level1", "groundd"),
    "decoherence.preset": ("sample1", "sample2", "sample3"),
    "decoherence.temperature_k": ("0.05", "1") + _FLOAT_EDGE,
    "decoherence.gamma10_hz": ("1e6", "1e11") + _FLOAT_EDGE,
    "decoherence.gamma21_hz": ("1e6", "1e11") + _FLOAT_EDGE,
    "decoherence.gphi02_hz": ("1e6",) + _FLOAT_EDGE,
    "decoherence.omega01_hz": ("5e9",) + _FLOAT_EDGE,
    "decoherence.omega12_hz": ("4.6e9",) + _FLOAT_EDGE,
    "pulse.s_duration_ns": ("56", "20") + _FLOAT_EDGE,
    "pulse.b_duration_ns": ("56", "112", "20") + _FLOAT_EDGE,
    "pulse.sampling_rate_hz": ("1e9", "2e9", "1e8") + _FLOAT_EDGE,
    "pulse.stretch": ("true", "false", "maybe"),
    "sweep.random_kind": ("uniform", "binary", "gauss"),
    "rng_seed": ("0", "7", "-1", "1.5"),
    "threads": ("1", "2", "0", "x"),
    "scenario": ("n1_sweep", "nope"),
    "sweeps.points": ("3",),
    "model.kinds": ("ideal",),
}
_FUZZ_MULTI_N_MAX = ("1", "2", "3") + _INT_EDGE
_FUZZ_REQUIRED = {
    "multi_identical": ("sweep.m", "sweep.n_max"),
    "multi_random": ("sweep.m", "sweep.n_max"),
    "n2_map": ("sweep.points",),
    "majorana_trajectory": ("protocol.n",),
}


@st.composite
def config_cases(draw):
    """(scenario, config text): a few keys with edge values, sometimes a malformed line."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=4, unique=True))
    keys += [key for key in _FUZZ_REQUIRED.get(scenario, ()) if key not in keys]
    lines = []
    for key in keys:
        pool = _FUZZ_MULTI_N_MAX if key == "sweep.n_max" and scenario.startswith("multi_") else _FUZZ_VALUES[key]
        lines.append(f"{key} = {draw(st.sampled_from(pool))}")
    lines += draw(st.lists(st.sampled_from(("garbage", "= 1", "# comment", "rng_seed = 3")), max_size=1))
    return scenario, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@example(case=("coefficients", "sweep.n_max = 30\n"))
@example(case=("n2_map", DECOHERENCE_FREE + "sweep.points = 5\n"))
@example(case=("n2_map", ABSORBED_AT_2PI_PI))
@given(case=config_cases())
def test_cli_exit_code_contract_on_random_configs(case):
    # Any config text ends in exit 0, 2 or 3, never in a traceback or a
    # warning, and a failed run leaves no output directory behind.
    scenario, text = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([scenario, "--config", cfg, "--out", out])
        assert code in (0, 2, 3)
        assert code == 0 or not os.path.exists(out)


def test_cli_import_leaves_scipy_out():
    code = "import sys, ifdsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_cli_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dissipative_runs_leave_numpy_ma_out(tmp_path):
    # numpy 2 imports numpy.ma on the first plain np.unique call, about
    # 16 ms of a fresh process; the dissipative path asks for inverses.
    # numpy.random loads with the first generator, 5.3 MB of peak RSS over
    # import ifdsim.cli (1.7 MB beyond the OpenSSL that hashlib maps as
    # well); the random strengths and the shot counts are drawn without one.
    runs = [
        ("multi_random", "model.kind = lindblad_depol\nsweep.n_min = 3\nsweep.n_max = 4\nsweep.m = 10\n"),
        ("n2_map", "model.kind = lindblad\nsweep.points = 5\n"),
        ("histogram", ""),
        ("n1_sweep", "sweep.points = 5\n"),
    ]
    calls = []
    for i, (scenario, text) in enumerate(runs):
        config = tmp_path / f"{scenario}.cfg"
        config.write_text(text)
        calls.append(f"main([{scenario!r}, '--config', {str(config)!r}, '--out', {str(tmp_path / str(i))!r}])")
    loaded = "[name for name in ('numpy.ma', 'numpy.random') if name in sys.modules]"
    code = f"import sys; from ifdsim.cli import main; {'; '.join(calls)}; print({loaded})"
    proc = run_cli_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_unseeded_runs_leave_openssl_out(tmp_path):
    # hashlib loads OpenSSL's libcrypto through _hashlib, about 3.5 MB of
    # peak RSS; only config.point_seed needs it, so only the runs that
    # draw seeded strengths or shots load it.
    runs = [
        ("n2_map", "model.kind = lindblad_depol\nsweep.points = 5\n"),
        ("n1_sweep", "sweep.points = 5\n"),
        ("multi_random", "model.kind = lindblad_depol\nsweep.n_min = 3\nsweep.n_max = 3\nsweep.m = 4\n"),
    ]
    loaded = "print([name for name in ('hashlib', '_hashlib') if name in sys.modules])"
    code = ["import sys", "from ifdsim.cli import main", loaded]
    for i, (scenario, text) in enumerate(runs):
        config = tmp_path / f"{scenario}.cfg"
        config.write_text(text)
        code += [f"main([{scenario!r}, '--config', {str(config)!r}, '--out', {str(tmp_path / str(i))!r}])", loaded]
    proc = run_cli_process("-c", "; ".join(code))
    assert proc.returncode == 0, proc.stderr
    after = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert after == ["[]", "[]", "[]", "['hashlib', '_hashlib']"]


@pytest.mark.parametrize(
    "text, quantity",
    [
        ("pulse.sampling_rate_hz = 1e20\n", r"chunk maps over 5\.6e\+12 base steps"),
        ("pulse.b_duration_ns = 1e12\n", r"chunk maps over 1e\+12 base steps"),
        ("pulse.b_duration_ns = 1e300\n", r"chunk maps over 1e\+300 base steps"),
        ("pulse.b_duration_ns = 112\nsweep.theta_max_pi = 1e6\n", "RK4 substeps per base step"),
        ("pulse.s_duration_ns = 1e300\npulse.sampling_rate_hz = 1e20\n", "needs inf RK4 base steps"),
        ("pulse.b_duration_ns = 112\nsweep.theta_max_pi = 1e302\n", r"probe strength of 1e\+302 pi"),
    ],
    ids=["sampling_rate", "probe_duration", "long_probe", "strength", "step_count_overflow", "amplitude_overflow"],
)
def test_cli_rk4_work_beyond_bound_exits_2(tmp_path, capsys, text, quantity):
    # Each asks a segment call for more RK4 work than its bound, or for a
    # step count or amplitude beyond float64: the run stops before any
    # array is sized from it, with a config error that names the
    # quantity, no traceback and no numpy warning.
    cfg = write(tmp_path, "big.cfg", "model.kind = lindblad\nsweep.points = 3\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"config error: .*{quantity}.*\n", err)


@pytest.mark.parametrize(
    "scenario, text",
    [
        ("n1_sweep", "model.kind = lindblad\nsweep.theta_max_pi = 5\n"),
        ("n1_sweep", "sweep.theta_max_pi = nan\n"),
        ("n1_sweep", "decoherence.temperature_k = -1\n"),
        ("n1_sweep", "model.kind = lindblad\ndecoherence.temperature_k = -1\n"),
        ("n1_sweep", "protocol.thetas_pi = 1,inf\n"),
        ("n1_sweep", "pulse.sampling_rate_hz = 0\n"),
        ("n1_sweep", "model.kind = lindblad\nsweep.theta_max_pi = -1\n"),
        ("n1_sweep", "sweep.theta_max_pi = 1e308\n"),
        ("n1_sweep", "model.kind = lindblad_depol\nsweep.theta_max_pi = 1e308\n"),
        ("n2_map", "sweep.theta_max_pi = 1e308\n"),
        ("n2_map", "model.kind = lindblad_depol\nsweep.theta_max_pi = -1e308\n"),
        ("histogram", "protocol.thetas_pi = 1e308\n"),
        ("histogram", "histogram.theta_pi = 1e308\n"),
        ("majorana_trajectory", "protocol.n = 2\nprotocol.thetas_pi = 1e308\n"),
        ("majorana_trajectory", "protocol.n = 2\nmodel.kind = lindblad\nprotocol.thetas_pi = 1,1e308\n"),
        ("n1_sweep", "model.kind = lindblad\ndecoherence.omega01_hz = 1e308\n"),
        ("n1_sweep", "model.kind = lindblad\ndecoherence.omega12_hz = 1e308\n"),
    ],
    ids=["stretch_out_of_range", "nan_theta", "negative_temperature_ideal",
         "negative_temperature_lindblad", "infinite_theta_list", "zero_sampling_rate",
         "negative_theta_lindblad", "theta_max_1e308_ideal", "theta_max_1e308_depol",
         "n2_map_theta_max_1e308_ideal", "n2_map_theta_max_minus_1e308_depol", "histogram_thetas_1e308",
         "histogram_theta_1e308", "majorana_thetas_1e308_ideal", "majorana_thetas_1e308_lindblad",
         "omega01_1e308", "omega12_1e308"],
)
def test_cli_out_of_domain_values_exit_2(tmp_path, capsys, scenario, text):
    # One config error line, no traceback and no numpy warning.
    cfg = write(tmp_path, "bad.cfg", "sweep.points = 3\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "bad")]) == 2
    assert re.fullmatch("config error: [^\n]*\n", capsys.readouterr().err)


@pytest.mark.parametrize(
    "rates, rate",
    [
        ("decoherence.gamma10_hz = 1.7976931348623157e308\n", "down10"),
        ("decoherence.gamma21_hz = 1.7976931348623157e308\n", "down21"),
        ("decoherence.gamma10_hz = 1e308\ndecoherence.gamma21_hz = 1e308\n", "gamma_od_02"),
    ],
    ids=["gamma10_max", "gamma21_max", "rate_sum"],
)
@pytest.mark.parametrize(
    "scenario", ["n1_sweep", "n2_map", "multi_identical", "multi_random", "histogram", "majorana_trajectory"]
)
def test_cli_rate_beyond_float64_exits_2(tmp_path, capsys, scenario, rates, rate):
    # A decay rate at the float64 maximum overflows its thermal down rate,
    # and two at 1e308 their sum: a config error naming the first rate
    # beyond float64, with no numpy warning.
    text = "model.kind = lindblad_depol\nsweep.points = 3\nsweep.m = 2\nsweep.n_max = 3\nprotocol.n = 3\n"
    cfg = write(tmp_path, "rate.cfg", text + rates)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "rate")]) == 2
    assert capsys.readouterr().err == f"config error: the {rate} rate is beyond the float64 range\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ("decoherence.temperature_k = 5e-324\nprotocol.initial = ground\n", None),
        ("decoherence.temperature_k = 5e-324\n", None),
        ("decoherence.temperature_k = 1e-300\n", None),
        ("decoherence.omega01_hz = 1e300\n", None),
        ("decoherence.omega12_hz = 1e300\ndecoherence.temperature_k = 1e-300\n", None),
        ("decoherence.omega01_hz = 1e-300\n", "the 0-1 transition's thermal occupation is infinite"),
        ("decoherence.omega12_hz = 5e-324\n", "the 1-2 transition's thermal occupation is infinite"),
    ],
    ids=["underflowing_kT_ground", "underflowing_kT_thermal", "overflowing_x", "overflowing_x_omega01",
         "overflowing_x_omega12", "infinite_occupation_01", "infinite_occupation_12"],
)
def test_cli_extreme_thermal_values_exit_0_or_2(tmp_path, capsys, text, error):
    # A k_B T that underflows to 0 counts as T = 0, an hbar omega / k_B T
    # beyond float64 gives no thermal occupation, and an occupation that is
    # not finite is a config error: no traceback and no numpy warning.
    cfg = write(tmp_path, "t.cfg", "model.kind = lindblad\nsweep.points = 3\n" + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    if error is None:
        assert (code, err, len(out.splitlines())) == (0, "", 1)
    else:
        assert code == 2 and re.fullmatch(f"config error: {error}.*\n", err)


@pytest.mark.parametrize("initial", ["ground", "thermal"])
def test_cli_underflowing_temperature_writes_the_zero_temperature_bytes(tmp_path, initial):
    csv = {}
    for temperature in ("0", "5e-324", "1e-300"):
        text = f"model.kind = lindblad\nsweep.points = 3\nprotocol.initial = {initial}\n"
        cfg = write(tmp_path, f"{temperature}.cfg", text + f"decoherence.temperature_k = {temperature}\n")
        assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / temperature)]) == 0
        csv[temperature] = (tmp_path / temperature / "n1_sweep.csv").read_bytes()
    assert csv["5e-324"] == csv["0"]
    assert csv["1e-300"] == csv["0"]


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
    cfg = write(tmp_path, "q.cfg", "sweep.n_min = 3\nsweep.n_max = 3\n")
    out = tmp_path / "q"
    assert main(["quantized_check", "--config", cfg, "--out", str(out)]) == 0
    headers, rows = read_csv(out / "quantized_check.csv")
    assert headers[-1] == "abs_diff"
    # four photon numbers by three levels, at N = 3 only: sweep.n_min is honoured
    assert len(rows) == 4 * 3 and {r[0] for r in rows} == {"3"}
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


@pytest.mark.parametrize(
    "scenario, text",
    [("n1_sweep", ""), ("n2_map", ""), ("majorana_trajectory", "protocol.n = 2\nprotocol.thetas_pi = 1\n")],
    ids=["n1_sweep", "n2_map", "majorana_trajectory"],
)
def test_cli_decoherence_free_dissipative_run_exits_0(tmp_path, scenario, text):
    # RK4 leaves populations and eigenvalues that are 0 in the closed
    # system up to 1e-6 below it, inside the density check's bound.
    cfg = write(tmp_path, "free.cfg", DECOHERENCE_FREE + text)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_decoherence_free_n2_map_writes_nan_where_eta_c_is_undefined(tmp_path):
    # At theta = (0, 0) the probes do nothing and S_2^3 sends |0> to |1>:
    # p0 and p2 are exactly 0, so eta_c = p0 / (p0 + p2) has no value.
    cfg = write(tmp_path, "free.cfg", DECOHERENCE_FREE + "sweep.points = 5\n")
    assert main(["n2_map", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    headers, rows = read_csv(tmp_path / "o" / "n2_map.csv")
    assert rows[0][:2] == ["0", "0"] and rows[0][-1] == "nan"
    p0, p2, eta = (np.array([float(r[headers.index(h)]) for r in rows[1:]]) for h in ("p0", "p2", "eta_c"))
    np.testing.assert_allclose(eta, p0 / (p0 + p2), rtol=1e-10, atol=0)


def test_n2_map_writes_nan_where_pr_and_nr_are_undefined(tmp_path):
    # pr = p0 / (p0 + p1) and nr = p1 / (p0 + p1) have no value where every
    # run is absorbed; every other row keeps its ratios.
    cfg = write(tmp_path, "absorbed.cfg", ABSORBED_AT_2PI_PI)
    assert main(["n2_map", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    headers, rows = read_csv(tmp_path / "o" / "n2_map.csv")
    columns = ("theta1_rad", "theta2_rad", "p0", "p1", "pr", "nr")
    t1, t2, p0, p1, pr, nr = (np.array([float(r[headers.index(h)]) for r in rows]) for h in columns)
    undefined = (t1 == float("%.12g" % (2 * np.pi))) & (t2 == float("%.12g" % np.pi))
    assert undefined.sum() == 1 and p0[undefined] == 0 and p1[undefined] == 0
    assert np.isnan(pr[undefined]) and np.isnan(nr[undefined])
    assert np.all(p0[~undefined] + p1[~undefined] > 0)
    np.testing.assert_allclose(pr[~undefined], p0[~undefined] / (p0[~undefined] + p1[~undefined]), rtol=1e-10, atol=0)
    np.testing.assert_allclose(nr[~undefined], p1[~undefined] / (p0[~undefined] + p1[~undefined]), rtol=1e-10, atol=0)


@pytest.mark.parametrize("initial", ["ground", "level1"])
def test_dissipative_majorana_reference_starts_from_the_configured_state(tmp_path, initial):
    # The ideal rows of a dissipative run are the model.kind = ideal run's,
    # and both modes start from the same star pair.
    rows = {}
    for kind in ("ideal", "lindblad"):
        cfg = write(tmp_path, f"{kind}.cfg", f"model.kind = {kind}\nprotocol.initial = {initial}\nprotocol.n = 2\n")
        assert main(["majorana_trajectory", "--config", cfg, "--out", str(tmp_path / kind)]) == 0
        rows[kind] = read_csv(tmp_path / kind / "majorana.csv")[1]
    ideal = [r for r in rows["lindblad"] if r[1] == "ideal"]
    assert ideal == rows["ideal"]
    dominant = [r for r in rows["lindblad"] if r[1] == "dissipative_dominant"]
    start = np.array([float(v) for v in ideal[0][2:]]).reshape(2, 3)
    other = np.array([float(v) for v in dominant[0][2:]]).reshape(2, 3)
    assert dominant[0][0] == ideal[0][0] == "0"
    assert min(np.max(np.abs(other - start)), np.max(np.abs(other[::-1] - start))) <= 1e-6


@pytest.mark.parametrize("initial", ["thermal", "level1"])
def test_dissipative_majorana_rows_are_the_clipped_checkpoints_stars(initial):
    # Every dissipative_dominant row is the star pair of its checkpoint's
    # top eigenvector after the negative eigenvalues are clipped to 0 and
    # the trace renormalised: clipping never moves the top eigenvector.
    config = parse_config_text(
        f"model.kind = lindblad_depol\nprotocol.initial = {initial}\nprotocol.n = 5\n", scenario="majorana_trajectory"
    )
    rows = [row for row in run_scenario(config).rows if row[1] == "dissipative_dominant"]
    start = thermal_state(SAMPLE_2) if initial == "thermal" else PureState.basis(1).density()
    geometry = PulseGeometry(s_duration=56e-9, b_duration=112e-9)
    _, checkpoints = dissipative_sweep(
        np.full((1, 5), np.pi), 5, SAMPLE_2, geometry=geometry, initial=start, collect_checkpoints=True
    )
    states = []
    for c in checkpoints:
        w, v = np.linalg.eigh(0.5 * (c[0] + c[0].conj().T))
        m = (v * np.maximum(w, 0.0)) @ v.conj().T
        states.append(PureState(np.linalg.eigh(m / np.trace(m).real)[1][:, -1]))
    expected = [(*stars.s1, *stars.s2) for stars in star_trajectory(states)]
    assert [row[0] for row in rows] == list(range(2 * 5 + 2))
    np.testing.assert_allclose([row[2:] for row in rows], expected, rtol=0, atol=1e-9)


def test_decoherence_free_n1_sweep_matches_ideal(tmp_path):
    p = {}
    for kind, text in (("ideal", "model.kind = ideal\n"), ("lindblad", DECOHERENCE_FREE)):
        cfg = write(tmp_path, f"{kind}.cfg", text)
        assert main(["n1_sweep", "--config", cfg, "--out", str(tmp_path / kind)]) == 0
        _, rows = read_csv(tmp_path / kind / "n1_sweep.csv")
        p[kind] = np.array([[float(v) for v in row[1:4]] for row in rows])
    assert np.max(np.abs(p["lindblad"] - p["ideal"])) <= 1e-6


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

    mixed = [
        (1, np.int64(-7), "d0", 0.1, np.float64(2.0 / 3.0)),
        (True, np.int32(3), "uniform", -0.0, 1e-300),
        (0, np.int64(0), "", 1e21, np.float64(-1e21)),
        (2**70, np.uint8(255), "x", float("nan"), np.float64(np.inf)),
        (5, np.int64(5), "d2", np.float32(0.1), 123456789012.5),
        (1.5, 2, 3, 4.0, "s"),
    ]
    # Past one chunk: mixed rows in every chunk, and rows of one type
    # signature with one odd row in a later chunk.
    chunk = scenarios.CSV_CHUNK_ROWS
    one_signature = [(i, np.int64(-i), f"d{i % 3}", i / 7.0, np.float64(i) ** 0.5 * 1e-5) for i in range(2 * chunk + 5)]
    one_signature[chunk + 100] = mixed[-1]
    # Columns read row by row, as the strength sweeps hold their rows: an
    # int64, a str and a float64 column, past one chunk.
    size = chunk + 7
    columns = (
        np.arange(size, dtype=np.int64) - 3,
        [f"s{i % 5}" for i in range(size)],
        np.resize([np.nan, np.inf, -0.0, 1e-300, -np.inf, 2.0 / 3.0, 123456789012.5], size),
    )
    column_rows = scenarios._Columns(*columns)
    as_list = list(zip(*columns))
    assert len(column_rows) == size
    # Compared by repr, which also shows the value types: a nan is not equal to itself.
    assert repr([column_rows[0], column_rows[-1], *column_rows]) == repr([as_list[0], as_list[-1], *as_list])
    # Columns the dtype alone does not decide: an object array of mixed
    # types; bool, int32 and float32 arrays; and a list of one type in
    # the first chunk and of two types in the second.
    mixed_columns = (
        np.resize(np.array([1, 0.25, np.float64(-2.5), "t", 2**70], dtype=object), size),
        np.arange(size) % 3 == 0,
        np.arange(size, dtype=np.int32) - 9,
        np.linspace(-1.0, 1.0, size, dtype=np.float32),
        [i / 3.0 for i in range(chunk)] + [i if i % 2 else i / 3.0 for i in range(chunk, size)],
    )
    inputs = (
        ("six", mixed),
        ("mixed_chunks", mixed * (chunk // 6 + 20)),
        ("one_signature", one_signature),
        ("columns", column_rows),
        ("columns_as_list", as_list),
        ("mixed_columns", scenarios._Columns(*mixed_columns)),
        ("mixed_columns_as_list", list(zip(*mixed_columns))),
    )
    emitted = {}
    for name, rows in inputs:
        path = tmp_path / f"{name}.csv"
        headers = ("a", "b", "c", "d", "e")[: len(rows[0])]
        emit_csv(SweepResult(scenario="histogram", headers=headers, rows=rows), str(path))
        expected = ",".join(headers) + "\n" + "".join(",".join(map(per_value, row)) + "\n" for row in rows)
        emitted[name] = path.read_bytes()
        assert emitted[name] == expected.encode("ascii"), name
    assert emitted["columns"] == emitted["columns_as_list"]
    assert emitted["mixed_columns"] == emitted["mixed_columns_as_list"]


def test_emit_csv_holds_one_chunk_of_text(tmp_path):
    # The default ideal n2_map writes 25 921 rows, about 3.1 MB of CSV.
    # The run holds them as numpy columns (about 1.7 MB of float64), not
    # as tuples of boxed floats (about 7.5 MB). Streamed in chunks,
    # emission's peak over the held columns stays far below the file's size.
    path = tmp_path / "n2_map.csv"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_scenario(parse_config_text("scenario = n2_map\n"))
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        scenarios.emit_csv(result, str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(result.rows) == 161 * 161
    assert path.stat().st_size > 3_000_000
    assert held < 3 * 2**20
    assert peak < 2 * 2**20


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
