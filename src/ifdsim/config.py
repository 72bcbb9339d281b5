"""Experiment configuration: flat key-value files with dotted keys.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are rejected so typos cannot silently change an experiment.
Angles are configured in units of pi, plain frequencies in Hz (converted
to angular internally) and durations in ns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import ConfigError
from .dynamics import DecoherenceModel, PRESETS
from .protocol import MODELS
from .pulses import PulseGeometry

# Keys whose value is one of a fixed set of names.
_CHOICES = {
    "model.kind": MODELS,
    "protocol.initial": ("ground", "thermal", "level1"),
    "sweep.random_kind": ("uniform", "binary"),
}

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(_parse_float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


# key -> (converter, description)
KNOWN_KEYS = {
    "scenario": (str, "scenario name (must match the CLI argument when both given)"),
    "protocol.n": (int, "number of probe segments N"),
    "protocol.thetas_pi": (_parse_float_list, "per-segment strengths in units of pi"),
    "protocol.initial": (str, "ground | thermal | level1"),
    "model.kind": (str, "ideal | lindblad | lindblad_depol"),
    "decoherence.preset": (str, "sample1 | sample2"),
    "decoherence.omega01_hz": (_parse_float, "0-1 transition frequency (plain Hz)"),
    "decoherence.omega12_hz": (_parse_float, "1-2 transition frequency (plain Hz)"),
    "decoherence.gamma10_hz": (_parse_float, "zero-temperature 1->0 decay rate (1/s)"),
    "decoherence.gamma21_hz": (_parse_float, "zero-temperature 2->1 decay rate (1/s)"),
    "decoherence.gphi10_hz": (_parse_float, "0-1 transition dephasing rate (1/s)"),
    "decoherence.gphi21_hz": (_parse_float, "1-2 transition dephasing rate (1/s)"),
    "decoherence.gphi02_hz": (_parse_float, "0-2 transition dephasing rate (1/s)"),
    "decoherence.temperature_k": (_parse_float, "effective temperature (K)"),
    "pulse.s_duration_ns": (_parse_float, "beam-splitter pulse duration"),
    "pulse.b_duration_ns": (_parse_float, "probe pulse duration"),
    "pulse.sampling_rate_hz": (_parse_float, "waveform sampling rate"),
    "pulse.stretch": (_parse_bool, "stretch 56 ns probe pulses above 3.38 pi"),
    "sweep.points": (int, "grid points per strength axis"),
    "sweep.theta_max_pi": (_parse_float, "upper end of the strength grid, units of pi"),
    "sweep.m": (int, "realisations per protocol size"),
    "sweep.n_min": (int, "smallest protocol size"),
    "sweep.n_max": (int, "largest protocol size"),
    "sweep.random_kind": (str, "uniform | binary strength sampler"),
    "histogram.shots": (int, "number of sampled shots"),
    "histogram.theta_pi": (_parse_float, "probe strength for the histogram, units of pi"),
    "rng_seed": (int, "base seed for all sampling"),
    "output_dir": (str, "directory for emitted files"),
    "threads": (int, "accepted for compatibility, no effect; must be >= 1"),
}

_DECOHERENCE_FIELDS = {
    "decoherence.omega01_hz": "omega01",
    "decoherence.omega12_hz": "omega12",
    "decoherence.gamma10_hz": "gamma10",
    "decoherence.gamma21_hz": "gamma21",
    "decoherence.gphi10_hz": "gphi10",
    "decoherence.gphi21_hz": "gphi21",
    "decoherence.gphi02_hz": "gphi02",
    "decoherence.temperature_k": "temperature",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario configuration."""

    scenario: str
    raw: dict = field(default_factory=dict)
    rng_seed: int = 0
    output_dir: str = "out"
    threads: int = 1  # validated (>= 1); no scenario reads it

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def decoherence(self, default_preset: str) -> DecoherenceModel:
        preset = self.raw.get("decoherence.preset", default_preset)
        if preset not in PRESETS:
            raise ConfigError(f"decoherence.preset must be one of {sorted(PRESETS)}, got {preset!r}")
        model = PRESETS[preset]
        overrides = {}
        for key, fieldname in _DECOHERENCE_FIELDS.items():
            if key in self.raw:
                value = self.raw[key]
                if fieldname in ("omega01", "omega12"):
                    value = 2.0 * np.pi * value
                overrides[fieldname] = value
        if overrides:
            try:
                model = replace(model, **overrides)
            except ValueError as exc:
                raise ConfigError(f"decoherence: {exc}") from None
        return model

    def geometry(self, default_b_ns: float) -> PulseGeometry:
        return PulseGeometry(
            s_duration=self.raw.get("pulse.s_duration_ns", 56.0) * 1e-9,
            b_duration=self.raw.get("pulse.b_duration_ns", default_b_ns) * 1e-9,
            sampling_rate=self.raw.get("pulse.sampling_rate_hz", 1e9),
            stretch_long_pulses=self.raw.get("pulse.stretch", True),
        )

    def thetas(self, n_segments: int) -> tuple[float, ...] | None:
        values = self.raw.get("protocol.thetas_pi")
        if values is None:
            return None
        if len(values) == 1:
            values = values * n_segments
        if len(values) != n_segments:
            raise ConfigError(
                f"protocol.thetas_pi needs 1 or {n_segments} entries, got {len(values)}"
            )
        return tuple(v * np.pi for v in values)


def parse_config_text(text: str, scenario: str | None = None) -> ExperimentConfig:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        converter, _ = KNOWN_KEYS[key]
        try:
            raw[key] = converter(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None

    file_scenario = raw.pop("scenario", None)
    if scenario is None:
        scenario = file_scenario
    elif file_scenario is not None and file_scenario != scenario:
        raise ConfigError(
            f"config names scenario {file_scenario!r} but {scenario!r} was requested"
        )
    if scenario is None:
        raise ConfigError("no scenario given (CLI argument or 'scenario' key)")
    from .scenarios import SCENARIOS  # scenarios imports this module

    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {tuple(SCENARIOS)}")

    _validate_ranges(raw)
    config = ExperimentConfig(
        scenario=scenario,
        raw=raw,
        rng_seed=raw.get("rng_seed", 0),
        output_dir=raw.get("output_dir", "out"),
        threads=raw.get("threads", 1),
    )
    config.decoherence(default_preset="sample1")  # rejects bad overrides even where no model is built
    return config


def _validate_ranges(raw: dict) -> None:
    for key, least in (("sweep.m", 1), ("sweep.points", 2), ("sweep.n_min", 1), ("sweep.n_max", 1),
                       ("protocol.n", 1), ("histogram.shots", 1), ("threads", 1)):
        if raw.get(key, least) < least:
            raise ConfigError(f"{key} must be >= {least}")
    for key in ("pulse.s_duration_ns", "pulse.b_duration_ns", "pulse.sampling_rate_hz"):
        if raw.get(key, 1.0) <= 0:
            raise ConfigError(f"{key} must be positive")
    for key, allowed in _CHOICES.items():
        if key in raw and raw[key] not in allowed:
            raise ConfigError(f"{key} must be {'|'.join(allowed)}, got {raw[key]!r}")


def load_config(path: str, scenario: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, scenario)


def point_seed(base_seed: int, n: int, m: int) -> int:
    """Stable per-grid-point seed.

    Defined as the first 8 bytes (big endian) of
    SHA-256("ifdsim:{base_seed}:{n}:{m}"); this derivation is part of the
    output-stability contract and must not change between versions.
    """
    digest = hashlib.sha256(f"ifdsim:{base_seed}:{n}:{m}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
