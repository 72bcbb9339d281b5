"""Simulation of coherent interaction-free detection on a three-level transmon.

The package is organised around the stages of the detection protocol:

- :mod:`ifdsim.su3` - exact qutrit operator algebra (beam splitters, probe
  pulses, subspace rotations) and the state containers.
- :mod:`ifdsim.pulses` - super-Gaussian drive envelopes and amplitude
  calibration.
- :mod:`ifdsim.dynamics` - drive generators, decoherence rates, thermal
  states, the depolarizing channel, and one RK4 core behind all
  Schroedinger and Lindblad propagation.
- :mod:`ifdsim.protocol` - the coherent detection protocol, the projective
  quantum-Zeno baseline, amplitude recursions and coefficient expansions.
- :mod:`ifdsim.quantized` - fully quantum treatment of the probe field
  (Fock states, two modes, two-level probe).
- :mod:`ifdsim.majorana` - stellar representation of qutrit states.
- :mod:`ifdsim.metrics` - PR/NR ratios (the confusion matrix at theta = pi
  and 0), interaction-free efficiency and shot sampling.
- :mod:`ifdsim.scenarios` / :mod:`ifdsim.cli` - reproducible experiment
  runner with CSV/JSON emission; ``scenarios.SCENARIOS`` is the one list
  of scenarios.
"""

__version__ = "0.1.0"


class IfdSimError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(IfdSimError):
    """Invalid experiment configuration (unknown key, bad value, missing field)."""


class NumericToleranceError(IfdSimError):
    """A numerical guarantee (unitarity, trace preservation) was violated."""
