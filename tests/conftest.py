"""Test-suite configuration.

Hypothesis draws its examples from a fixed seed, so every run of the suite
tests the same examples and a failure replays. Each test keeps its own
``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
