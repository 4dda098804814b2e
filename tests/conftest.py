"""Test-suite configuration.

Hypothesis draws its examples from a fixed seed, so every run of the suite
tests the same examples and a failure replays. Each test keeps its own
``max_examples`` and ``deadline``.
"""

import pytest
from hypothesis import settings

from rmtlkit import simulate

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def block_fit_shapes(monkeypatch):
    """Record the (R, N) shape of each block fit the Monte Carlo engine runs."""
    original = simulate._block_fits
    shapes = []

    def counted(times, codes, sizes):
        shapes.append(times.shape)
        return original(times, codes, sizes)

    monkeypatch.setattr(simulate, "_block_fits", counted)
    return shapes
