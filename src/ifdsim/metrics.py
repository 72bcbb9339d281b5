"""Figures of merit and shot sampling.

The positive ratio PR = p0/(p0+p1) is the fraction of non-absorbed runs
that report a detection; its complement NR is the inconclusive
fraction. :func:`pr_nr` at full strength (theta = pi) gives the true
positive and false negative rates, and at zero strength the false
positive and true negative rates of the confusion matrix. The
interaction-free efficiency discards the inconclusive outcomes instead:
eta = p_success / (p_success + p_absorb).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import OutcomeProbabilities
from .rng import multinomial


@dataclass(frozen=True)
class ShotCounts:
    d0: int
    d1: int
    d2: int

    @property
    def total(self) -> int:
        return self.d0 + self.d1 + self.d2


def pr_nr(p: OutcomeProbabilities) -> tuple[float, float]:
    """(PR, NR) = (p0, p1) / (p0 + p1), each nan where p0 + p1 <= 0; elementwise when p holds columns."""
    return efficiency(p.p0, p.p1), efficiency(p.p1, p.p0)


def efficiency(p_success, p_absorb):
    """p_success / (p_success + p_absorb) where the sum is > 0, and nan elsewhere.

    The one rule for an undefined ratio: elementwise on arrays, an
    np.float64 for scalars, and never a warning or an exception.
    """
    denom = p_success + p_absorb
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, np.divide(p_success, denom), np.nan)[()]


def cumulative_absorption(per_segment) -> float:
    """Sum of per-segment absorption probabilities."""
    values = np.asarray(list(per_segment), dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("per-segment probabilities must lie in [0, 1]")
    return float(values.sum())


def sample_shots(p: OutcomeProbabilities, n_shots: int, seed: int) -> ShotCounts:
    """Multinomial draw of detector clicks: np.random.default_rng(seed).multinomial(n_shots, p).

    The clipped, renormalised probabilities go to :func:`rng.multinomial`,
    a port of numpy's sampler that equals its counts bit for bit for a
    seed < 2**64 and n_shots < 2**53 without importing numpy.random.
    """
    if not 1 <= n_shots < 2**53:
        raise ValueError(f"n_shots must lie in [1, 2**53 - 1], got {n_shots}")
    probs = p.as_array()
    if np.any(probs < -1e-12) or not np.isclose(probs.sum(), 1.0, atol=1e-6):
        raise ValueError(f"outcome probabilities must sum to 1, got {probs}")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    d0, d1, d2 = multinomial(seed, n_shots, probs.tolist())
    return ShotCounts(d0=d0, d1=d1, d2=d2)
