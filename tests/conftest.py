"""Shared fixtures for the tier-1 suite."""

import pytest

from umpbt import solver


@pytest.fixture(autouse=True)
def _fresh_matched_cache():
    """Start every test without reused matched thresholds, so no test reads
    an entry an earlier one left, monkeypatched or not."""
    solver._matched_maximum.cache_clear()
