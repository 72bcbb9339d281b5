"""Test-suite settings: every property test draws the same examples on every run."""

from hypothesis import settings

# derandomize=True seeds each test's examples from the test itself, and
# database=None keeps earlier failures from being replayed, so a run of the
# suite does not depend on the runs before it.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
