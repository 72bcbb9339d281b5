"""Experiment configuration: flat key-value files with dotted keys.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are rejected so typos cannot silently change an experiment.
Angles are configured in units of pi, plain frequencies in Hz (converted
to angular internally) and durations in ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ConfigError
from .dynamics import DecoherenceModel, PRESETS
from .protocol import MODELS
from .pulses import PulseGeometry

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _integer(least: int, bits: int = 63):
    """Converter to an integer in [least, 2**bits - 1].

    Integers reach numpy as int64. A key whose value is itself an array
    length takes bits = 60: numpy cannot represent more than
    (2**63 - 1) // 8 = 2**60 - 1 float64 values. The bound does not
    cover products of sizes: `n2_map` makes sweep.points**2 values.
    Shots take bits = 53, the range of :func:`rng.multinomial`.
    """

    def convert(text) -> int:
        value = int(text)
        if not least <= value < 2**bits:
            raise ValueError(f"expected an integer in [{least}, 2**{bits} - 1], got {value}")
        return value

    return convert


def _number(least: float = -np.inf, strict: bool = False, scale: float = 1.0):
    """Converter to a finite float >= least, or > least when strict, whose
    product with scale (the factor the program converts it by) is finite too."""

    def convert(text: str) -> float:
        value = float(text)
        if not np.isfinite(value):
            raise ValueError(f"expected a finite number, got {text.strip()!r}")
        if value < least or (strict and value == least):
            raise ValueError(f"must be {'>' if strict else '>='} {least:g}, got {value:g}")
        if not np.isfinite(scale * value):
            raise ValueError(f"must be at most {np.finfo(float).max / scale:g} in magnitude, got {value:g}")
        return value

    return convert


def _choice(*names: str):
    """Converter accepting one of names."""

    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected {'|'.join(names)}, got {text!r}")
        return text

    return convert


_angle = _number(scale=np.pi)  # in units of pi
_frequency = _number(0.0, strict=True, scale=2.0 * np.pi)  # plain Hz, taken as angular
_positive = _number(0.0, strict=True)
_non_negative = _number(0.0)


def _angle_list(text: str) -> tuple[float, ...]:
    return tuple(_angle(x) for x in text.split(","))


# key -> (converter, description). A converter is the whole rule for its
# key: it returns the value or raises ValueError. The decoherence keys
# override the DecoherenceModel field their name starts with.
KNOWN_KEYS = {
    "scenario": (str, "scenario name (must match the CLI argument when both given)"),
    "protocol.n": (_integer(1, 60), "number of probe segments N"),
    "protocol.thetas_pi": (_angle_list, "per-segment strengths in units of pi"),
    "protocol.initial": (_choice("ground", "thermal", "level1"), "start state"),
    "model.kind": (_choice(*MODELS), "propagation model"),
    "decoherence.preset": (_choice(*PRESETS), "device parameter set"),
    "decoherence.omega01_hz": (_frequency, "0-1 transition frequency (plain Hz)"),
    "decoherence.omega12_hz": (_frequency, "1-2 transition frequency (plain Hz)"),
    "decoherence.gamma10_hz": (_non_negative, "zero-temperature 1->0 decay rate (1/s)"),
    "decoherence.gamma21_hz": (_non_negative, "zero-temperature 2->1 decay rate (1/s)"),
    "decoherence.gphi10_hz": (_non_negative, "0-1 transition dephasing rate (1/s)"),
    "decoherence.gphi21_hz": (_non_negative, "1-2 transition dephasing rate (1/s)"),
    "decoherence.gphi02_hz": (_non_negative, "0-2 transition dephasing rate (1/s)"),
    "decoherence.temperature_k": (_non_negative, "effective temperature (K)"),
    "pulse.s_duration_ns": (_positive, "beam-splitter pulse duration"),
    "pulse.b_duration_ns": (_positive, "probe pulse duration"),
    "pulse.sampling_rate_hz": (_positive, "waveform sampling rate"),
    "pulse.stretch": (_parse_bool, "stretch 56 ns probe pulses above 3.38 pi"),
    "sweep.points": (_integer(2, 60), "grid points per strength axis"),
    "sweep.theta_max_pi": (_angle, "upper end of the strength grid, units of pi"),
    "sweep.m": (_integer(1, 60), "realisations per protocol size"),
    "sweep.n_min": (_integer(1, 60), "smallest protocol size"),
    "sweep.n_max": (_integer(1, 60), "largest protocol size"),
    "sweep.random_kind": (_choice("uniform", "binary"), "strength sampler"),
    "histogram.shots": (_integer(1, 53), "number of sampled shots"),
    "histogram.theta_pi": (_angle, "probe strength for the histogram, units of pi"),
    "rng_seed": (int, "base seed for all sampling"),
    "output_dir": (str, "directory for emitted files"),
    "threads": (_integer(1), "accepted for compatibility, no effect"),
}


def parse_value(key: str, text, where: str = ""):
    """The value of a known key from its text; ConfigError if the key's converter rejects it."""
    try:
        return KNOWN_KEYS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario configuration."""

    scenario: str
    raw: dict = field(default_factory=dict)
    rng_seed: int = 0
    output_dir: str = "out"
    threads: int = 1  # no scenario reads it

    def get(self, key: str, default=None):
        return self.raw.get(key, default)

    def decoherence(self, default_preset: str) -> DecoherenceModel:
        overrides = {}
        for key, value in self.raw.items():
            if key.startswith("decoherence.") and key != "decoherence.preset":
                fieldname = key.removeprefix("decoherence.").rsplit("_", 1)[0]
                overrides[fieldname] = 2.0 * np.pi * value if fieldname.startswith("omega") else value
        return replace(PRESETS[self.raw.get("decoherence.preset", default_preset)], **overrides)

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
        raw[key] = parse_value(key, value, f"line {lineno}: ")

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

    return ExperimentConfig(
        scenario=scenario,
        raw=raw,
        rng_seed=raw.get("rng_seed", 0),
        output_dir=raw.get("output_dir", "out"),
        threads=raw.get("threads", 1),
    )


def load_config(path: str, scenario: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, scenario)


def point_seed(base_seed: int, n: int, m: int) -> int:
    """Stable per-grid-point seed.

    Defined as the first 8 bytes (big endian) of
    SHA-256("ifdsim:{base_seed}:{n}:{m}"); this derivation is part of the
    output-stability contract and must not change between versions.
    """
    import hashlib  # loads OpenSSL, about 3.5 MB resident: only seeded runs pay it

    digest = hashlib.sha256(f"ifdsim:{base_seed}:{n}:{m}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
