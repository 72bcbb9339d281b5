"""Figures of merit, aggregate statistics and shot sampling.

The positive ratio PR = p0/(p0+p1) is the fraction of non-absorbed runs
that report a detection; its complement NR is the inconclusive
fraction. Evaluated at full strength and at zero strength these form
the confusion matrix. The interaction-free efficiency discards the
inconclusive outcomes instead: eta = p_success / (p_success + p_absorb).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import UndefinedRatioError
from .protocol import OutcomeProbabilities


@dataclass(frozen=True)
class ConfusionMatrix:
    tpr: float
    fnr: float
    fpr: float
    tnr: float


@dataclass(frozen=True)
class ShotCounts:
    d0: int
    d1: int
    d2: int

    @property
    def total(self) -> int:
        return self.d0 + self.d1 + self.d2

    def fractions(self) -> np.ndarray:
        return np.array([self.d0, self.d1, self.d2]) / self.total


def pr_nr(p: OutcomeProbabilities) -> tuple[float, float]:
    """(PR, NR) = (p0, p1) / (p0 + p1); raises if no run survives absorption.

    Elementwise when p holds columns; raises if any row's p0 + p1 is <= 0.
    """
    denom = p.p0 + p.p1
    if np.any(denom <= 0.0):
        raise UndefinedRatioError("p0 + p1 = 0: positive/negative ratios undefined")
    return p.p0 / denom, p.p1 / denom


def confusion_matrix(at_pi: OutcomeProbabilities, at_zero: OutcomeProbabilities) -> ConfusionMatrix:
    """Confusion matrix from full-strength and zero-strength outcomes."""
    tpr, fnr = pr_nr(at_pi)
    fpr, tnr = pr_nr(at_zero)
    return ConfusionMatrix(tpr=tpr, fnr=fnr, fpr=fpr, tnr=tnr)


def efficiency(p_success, p_absorb):
    """Success fraction among conclusive outcomes, for floats or arrays."""
    denom = p_success + p_absorb
    if np.any(denom <= 0.0):
        raise UndefinedRatioError("p_success + p_absorb = 0: efficiency undefined")
    return p_success / denom


def cumulative_absorption(per_segment) -> float:
    """Sum of per-segment absorption probabilities."""
    values = np.asarray(list(per_segment), dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("per-segment probabilities must lie in [0, 1]")
    return float(values.sum())


def plateau_area(theta_grid, p0_values) -> float:
    """Trapezoidal integral of p0 over the strength grid."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    p0_values = np.asarray(p0_values, dtype=float)
    if theta_grid.shape != p0_values.shape:
        raise ValueError("grids must have matching lengths")
    if np.any(np.diff(theta_grid) <= 0):
        raise ValueError("theta grid must be strictly ascending")
    return float(np.trapezoid(p0_values, theta_grid))


def distribution_stats(values) -> tuple[float, float]:
    """Population mean and standard deviation (divisor = count)."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    return float(values.mean()), float(values.std())


def sample_shots(p: OutcomeProbabilities, n_shots: int, seed: int) -> ShotCounts:
    """Multinomial draw of detector clicks; deterministic for a fixed seed."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    probs = p.as_array()
    if np.any(probs < -1e-12) or not np.isclose(probs.sum(), 1.0, atol=1e-6):
        raise ValueError(f"outcome probabilities must sum to 1, got {probs}")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    counts = np.random.default_rng(seed).multinomial(n_shots, probs)
    return ShotCounts(d0=int(counts[0]), d1=int(counts[1]), d2=int(counts[2]))


def dark_count_rate(fpr: float, sensing_time: float) -> float:
    """False positives per unit sensing time (counts per second)."""
    if sensing_time <= 0:
        raise ValueError("sensing_time must be positive")
    return fpr / sensing_time
