"""Shared fixtures for the test suite; importable oracles live in oracles.py."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
